//! The end-to-end workloads.
//!
//! Each workload is one closed loop on the driver thread: build the inputs
//! from the seed, warm up, then repeat one *repetition* until the time
//! budget is spent. A repetition returns the wall seconds spent inside the
//! program's calls (the benchmark's own checks run between calls and are
//! not timed). Every output is checked; a wrong one is a counted failure.
//!
//! Why these eight, and which layer each stresses, is in `perf/README.md`.

use std::time::Instant;

use summagen_comm::{Backend, HockneyModel, Payload, Universe, ZeroCost};
use summagen_core::{
    multiply, multiply_abft, simulate, AbftOptions, ExecutionMode, RecoveryOptions,
};
use summagen_durable::{
    decode_frames, fnv1a, fnv1a_words, replay, CrashSpec, GroupCommitConfig, Journal,
    RecoveredState,
};
use summagen_matrix::{approx_eq, gemm_tolerance, random_matrix, DenseMatrix};
use summagen_partition::{
    load_imbalancing_areas, proportional_areas, DiscreteFpm, PartitionSpec, Shape, ALL_FOUR_SHAPES,
};
use summagen_platform::{hclserver1, Platform};
use summagen_service::{
    generate, hetero_mix, AdmissionConfig, DevicePool, DurableRun, GemmService, JobSpec, Policy,
    ServiceConfig, ServiceReport,
};

use crate::check::{bitwise_eq, naive_product, Freivalds, SplitMix, Tally};
use crate::json::Json;
use crate::span::Tracer;

/// The paper's three abstract processors (CPU, GPU, Xeon Phi) as constant
/// relative speeds — Section VI-A.
pub const SPEEDS: [f64; 3] = [1.0, 2.0, 0.9];

/// Pool link constants of the service experiments (`reproduce serve`).
pub const POOL_ALPHA: f64 = 1e-5;
pub const POOL_BETA: f64 = 4e-10;

/// Grid resolution of the discrete FPMs of the Fig. 7 experiments.
pub const FPM_GRID_STEPS: usize = 192;

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 8] = [
    "dense-1024",
    "abft-1024",
    "wire-panels",
    "wire-panels-tcp",
    "sched-hetero",
    "durable-hetero",
    "restart-hetero",
    "sim-paper",
];

/// Problem sizes. `full` is the benchmark; `quick` is the smoke run the
/// unit tests use (same code, seconds instead of minutes).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The smoke sizes, not the benchmark's.
    pub quick: bool,
    /// Matrix dimension of the real multiplies.
    pub n: usize,
    /// Dimension at which the naive oracle is affordable.
    pub oracle_n: usize,
    /// Panel shape of the wire workloads (rows × cols of f64).
    pub panel: (usize, usize),
    /// Broadcast steps per repetition, channel and TCP.
    pub chan_steps: usize,
    pub tcp_steps: usize,
    /// Jobs in the service stream.
    pub jobs: usize,
    /// Armed crash cycles per ladder and the kill-point event bound.
    pub ladder_cycles: u64,
    pub max_event: u64,
    /// Sweeps of the 128 paper points per repetition.
    pub sim_sweeps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            quick: false,
            n: 1024,
            oracle_n: 256,
            panel: (1024, 128),
            chan_steps: 768,
            tcp_steps: 192,
            jobs: 20_000,
            ladder_cycles: 16,
            max_event: 8_000,
            sim_sweeps: 8,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            quick: true,
            n: 128,
            oracle_n: 64,
            panel: (128, 16),
            chan_steps: 48,
            tcp_steps: 24,
            jobs: 500,
            ladder_cycles: 4,
            max_event: 200,
            sim_sweeps: 1,
        }
    }
}

/// One end-to-end workload, set up and warm.
pub trait Workload {
    /// Runs one repetition and returns the wall seconds spent inside the
    /// program under test.
    fn rep(&mut self, tr: &Tracer) -> f64;
    /// Operations one repetition completes (`ops_per_s` = this ÷ the
    /// first-quartile repetition wall).
    fn ops_per_rep(&self) -> f64;
    /// What one operation is, for the report.
    fn op(&self) -> &'static str;
    /// The workload's rate under the name and unit its layer is usually
    /// quoted in: `(name, unit, value per op/s)`.
    fn alias(&self) -> (&'static str, &'static str, f64);
    fn tally(&self) -> &Tally;
    /// Exact counts and digests: equal for equal seeds, whatever the box.
    fn counts(&self) -> Vec<(String, Json)>;
    /// Further timed samples worth a summary of their own.
    fn extra_samples(&self) -> Vec<(&'static str, Vec<f64>)> {
        Vec::new()
    }
}

/// Builds workload `name` from `seed`: input generation, spec building,
/// warm-up and reference checks — everything `setup_s` times.
pub fn build(name: &str, seed: u64, sz: &Sizes, tr: &Tracer) -> Option<Box<dyn Workload>> {
    // Each workload draws from its own stream, so adding one never shifts
    // the inputs of another.
    let rng = SplitMix(seed ^ fnv1a(name.as_bytes()));
    Some(match name {
        "dense-1024" => Box::new(Dense::new(false, rng, sz, tr)),
        "abft-1024" => Box::new(Dense::new(true, rng, sz, tr)),
        "wire-panels" => Box::new(Wire::new(Backend::Channel, rng, sz, tr)),
        "wire-panels-tcp" => Box::new(Wire::new(Backend::Tcp, rng, sz, tr)),
        "sched-hetero" => Box::new(Sched::new(sz, tr)),
        "durable-hetero" => Box::new(Durable::new(rng, sz, tr)),
        "restart-hetero" => Box::new(Restart::new(sz, tr)),
        "sim-paper" => Box::new(Sim::new(rng, sz, tr)),
        _ => return None,
    })
}

/// A shape's name as it appears inside metric names: `square-corner`,
/// `square-rectangle`, `block-rectangle`, `1d-rectangular`.
pub fn slug(shape: Shape) -> String {
    shape.name().to_lowercase().replace(' ', "-")
}

fn hex(x: u64) -> Json {
    Json::str(format!("{x:016x}"))
}

// ---------------------------------------------------------------- dense

/// `dense-1024` and `abft-1024`: the four paper shapes back to back on
/// real matrices, through the plain executor or the checksum-protected one.
pub struct Dense {
    protected: bool,
    a: DenseMatrix,
    b: DenseMatrix,
    specs: Vec<(Shape, PartitionSpec)>,
    freivalds: Freivalds,
    /// Round 1's `C` per shape: later rounds must match it bit for bit.
    reference: Vec<Option<DenseMatrix>>,
    /// Wall of every timed multiply, pooled over shapes.
    multiply_walls: Vec<f64>,
    /// Messages and bytes one round puts on the wire (exact).
    traffic: (u64, u64),
    tally: Tally,
}

/// One multiply through the executor under test: the assembled `C` and
/// the traffic it cost, or why it does not count.
pub fn run_multiply(
    protected: bool,
    shape: Shape,
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    tr: &Tracer,
) -> Result<(DenseMatrix, u64, u64), String> {
    let run = if protected {
        let out = tr
            .span("core.multiply_abft", || {
                multiply_abft(
                    shape,
                    &SPEEDS,
                    a,
                    b,
                    ExecutionMode::Real,
                    ZeroCost,
                    &[],
                    &RecoveryOptions::default(),
                    &AbftOptions::default(),
                )
            })
            .map_err(|e| format!("multiply_abft({}) failed: {e}", shape.name()))?;
        if out.abft.attempts != 1 {
            return Err(format!(
                "multiply_abft({}) needed {} attempts",
                shape.name(),
                out.abft.attempts
            ));
        }
        out.run
    } else {
        tr.span("core.multiply", || {
            multiply(spec, a, b, ExecutionMode::Real)
        })
    };
    let msgs = run.traffic.iter().map(|t| t.msgs_sent).sum();
    let bytes = run.traffic.iter().map(|t| t.bytes_sent).sum();
    Ok((run.c, msgs, bytes))
}

pub fn paper_specs(n: usize, tr: &Tracer) -> Vec<(Shape, PartitionSpec)> {
    let areas = tr.span("partition.proportional_areas", || {
        proportional_areas(n, &SPEEDS)
    });
    ALL_FOUR_SHAPES
        .iter()
        .map(|&s| (s, tr.span("partition.build", || s.build(n, &areas))))
        .collect()
}

impl Dense {
    pub fn new(protected: bool, mut rng: SplitMix, sz: &Sizes, tr: &Tracer) -> Dense {
        let n = sz.n;
        let a = random_matrix(n, n, rng.next_u64());
        let b = random_matrix(n, n, rng.next_u64());
        let mut tally = Tally::default();

        // The naive oracle, where it is affordable: every shape must
        // agree with the triple loop within the kernel tolerance.
        let m = sz.oracle_n;
        let (a0, b0) = (
            random_matrix(m, m, rng.next_u64()),
            random_matrix(m, m, rng.next_u64()),
        );
        let want = naive_product(&a0, &b0);
        for (shape, spec) in paper_specs(m, tr) {
            let got = run_multiply(protected, shape, &spec, &a0, &b0, tr);
            let ok = matches!(&got, Ok((c, ..)) if approx_eq(c, &want, gemm_tolerance(m)));
            tally.record(ok, || {
                format!(
                    "{} at N={m} disagrees with gemm_naive: {:?}",
                    shape.name(),
                    got.err()
                )
            });
        }

        // No warm-up round at full size: the oracle's multiplies have warmed
        // the code paths, and a 1.3 s round would make set-up too long to
        // repeat. The first timed round is the cold one; the first-quartile
        // estimator does not look at it. Its products become the bitwise
        // reference.
        Dense {
            protected,
            freivalds: Freivalds::new(&a, &b, rng.next_u64()),
            specs: paper_specs(n, tr),
            a,
            b,
            reference: vec![None; ALL_FOUR_SHAPES.len()],
            multiply_walls: Vec::new(),
            traffic: (0, 0),
            tally,
        }
    }

    /// Checks one product: Freivalds against the inputs, then bitwise
    /// against round 1 (which this call defines when it is round 1).
    pub fn check(&mut self, shape_idx: usize, got: Result<DenseMatrix, String>) {
        let name = self.specs[shape_idx].0.name();
        match got {
            Err(why) => self.tally.record(false, || why),
            Ok(c) if !self.freivalds.accepts(&c) => self
                .tally
                .record(false, || format!("{name}: C fails the Freivalds check")),
            Ok(c) => match &self.reference[shape_idx] {
                Some(first) => {
                    let same = bitwise_eq(first, &c);
                    self.tally
                        .record(same, || format!("{name}: C differs bitwise from round 1"));
                }
                None => {
                    self.tally.record(true, String::new);
                    self.reference[shape_idx] = Some(c);
                }
            },
        }
    }

    fn round(&mut self, tr: &Tracer) -> f64 {
        let mut timed = 0.0;
        let mut traffic = (0, 0);
        for i in 0..self.specs.len() {
            let (shape, spec) = &self.specs[i];
            let t0 = Instant::now();
            let got = run_multiply(self.protected, *shape, spec, &self.a, &self.b, tr);
            let wall = t0.elapsed().as_secs_f64();
            timed += wall;
            self.multiply_walls.push(wall);
            let got = got.map(|(c, msgs, bytes)| {
                traffic.0 += msgs;
                traffic.1 += bytes;
                c
            });
            tr.span("bench.check", || self.check(i, got));
        }
        self.traffic = traffic;
        timed
    }

    #[cfg(test)]
    pub fn reference(&self, shape_idx: usize) -> &DenseMatrix {
        self.reference[shape_idx]
            .as_ref()
            .expect("warm-up stored it")
    }
}

impl Workload for Dense {
    fn rep(&mut self, tr: &Tracer) -> f64 {
        self.round(tr)
    }

    fn ops_per_rep(&self) -> f64 {
        self.specs.len() as f64
    }

    fn op(&self) -> &'static str {
        "multiply"
    }

    fn alias(&self) -> (&'static str, &'static str, f64) {
        // Useful flops only: 2N³ per multiply, checksums not credited.
        (
            "gflops",
            "GFLOP/s",
            2.0 * (self.a.rows() as f64).powi(3) / 1e9,
        )
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn extra_samples(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![("multiply_wall_s", self.multiply_walls.clone())]
    }

    fn counts(&self) -> Vec<(String, Json)> {
        let mut out = vec![
            ("round_msgs".to_string(), Json::from(self.traffic.0)),
            ("round_bytes".to_string(), Json::from(self.traffic.1)),
        ];
        for ((shape, _), c) in self.specs.iter().zip(&self.reference) {
            let Some(c) = c else { continue };
            let bits: Vec<u64> = c.as_slice().iter().map(|x| x.to_bits()).collect();
            out.push((
                format!("c_digest.{}", slug(*shape)),
                hex(fnv1a_words(&bits)),
            ));
        }
        out
    }
}

// ----------------------------------------------------------------- wire

/// `wire-panels` / `wire-panels-tcp`: communication only. Step `s`: rank
/// `s mod 3` broadcasts a real panel (cloned from a template inside the
/// loop, as the SummaGen stages do), the two receivers unpack it and check
/// one seed-placed word.
pub struct Wire {
    universe: Universe,
    template: Vec<f64>,
    steps: usize,
    probe_seed: u64,
    tally: Tally,
}

/// Where step `s` plants its probe word, and the word.
fn probe(seed: u64, s: usize, len: usize) -> (usize, f64) {
    let h = SplitMix(seed ^ s as u64).next_u64();
    ((h % len as u64) as usize, (h >> 11) as f64)
}

/// Plants step `s`'s probe word in a panel about to be broadcast.
pub fn plant_probe(seed: u64, s: usize, panel: &mut [f64]) {
    let (at, word) = probe(seed, s, panel.len());
    panel[at] = word;
}

/// A received panel is right when it has the panel's length and carries
/// step `s`'s probe word where the root planted it.
pub fn panel_ok(seed: u64, s: usize, panel: &[f64], len: usize) -> bool {
    let (at, word) = probe(seed, s, len);
    panel.len() == len && panel[at].to_bits() == word.to_bits()
}

impl Wire {
    pub fn new(backend: Backend, mut rng: SplitMix, sz: &Sizes, tr: &Tracer) -> Wire {
        let mut w = Wire {
            universe: Universe::new(3, ZeroCost).with_backend(backend),
            template: random_matrix(sz.panel.0, sz.panel.1, rng.next_u64())
                .as_slice()
                .to_vec(),
            steps: match backend {
                Backend::Channel => sz.chan_steps,
                Backend::Tcp => sz.tcp_steps,
            },
            probe_seed: rng.next_u64(),
            tally: Tally::default(),
        };
        w.rep(tr);
        w
    }

    /// Books one repetition's deliveries: two receivers per panel (the
    /// root does not check its own copy), `bad[rank]` of them wrong.
    pub fn tally_deliveries(&mut self, bad: &[u64]) {
        self.tally.attempted += 2 * self.steps as u64;
        let bad: u64 = bad.iter().sum();
        if bad > 0 {
            self.tally.fail(bad, || {
                format!("{bad} panel deliveries carried a wrong probe word")
            });
        }
    }
}

impl Workload for Wire {
    fn rep(&mut self, tr: &Tracer) -> f64 {
        let (template, steps, seed) = (&self.template, self.steps, self.probe_seed);
        let t0 = Instant::now();
        let bad: Vec<u64> = tr.span("comm.run", || {
            let parent = tr.current();
            self.universe.run(|mut comm| {
                let rank = comm.rank();
                let mut bad = 0u64;
                for s in 0..steps {
                    let root = s % 3;
                    let payload = if rank == root {
                        let mut panel = template.clone();
                        plant_probe(seed, s, &mut panel);
                        Payload::F64(panel)
                    } else {
                        Payload::F64(Vec::new())
                    };
                    let got = tr.span_under(parent, "comm.bcast", || comm.bcast(root, payload));
                    let panel = got.into_f64();
                    if rank != root && !panel_ok(seed, s, &panel, template.len()) {
                        bad += 1;
                    }
                }
                bad
            })
        });
        let wall = t0.elapsed().as_secs_f64();
        self.tally_deliveries(&bad);
        wall
    }

    fn ops_per_rep(&self) -> f64 {
        self.steps as f64
    }

    fn op(&self) -> &'static str {
        "panel broadcast (1 root -> 2 receivers)"
    }

    fn alias(&self) -> (&'static str, &'static str, f64) {
        // Two deliveries of the panel's bytes per step.
        (
            "panel_gb_per_s",
            "GB/s",
            2.0 * (self.template.len() * 8) as f64 / 1e9,
        )
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn counts(&self) -> Vec<(String, Json)> {
        vec![
            ("steps_per_rep".to_string(), Json::from(self.steps)),
            (
                "panel_bytes".to_string(),
                Json::from(self.template.len() * 8),
            ),
        ]
    }
}

// ---------------------------------------------------------------- sched

/// The job stream of the service workloads: the hetero mix under its own
/// seed, stretched to `jobs` jobs.
///
/// The stream is pinned on purpose. The scheduler's cost depends on how
/// the queue happens to evolve: streams of the same mix that differ only
/// in their seed cost 0.67 s to 0.84 s per 20 000 jobs (sized, best of
/// seven each), a ±12 % input effect that would drown any bound the
/// benchmark could set. So `--seed` does not reach the arrival process;
/// on `durable-hetero` it still draws every crash point.
pub fn job_stream(jobs: usize, tr: &Tracer) -> Vec<JobSpec> {
    let mut mix = hetero_mix();
    mix.jobs = jobs;
    tr.span("service.generate", || generate(&mix))
}

/// A fresh service over the modelled HCLServer1 pool. Admission bounds are
/// ample, as in the crash harness: one seed in eight of this stream trips
/// the default per-tenant quota once (sized), and a capacity rejection
/// would be a failed operation that says nothing about speed.
pub fn fresh_service(policy: Policy) -> GemmService {
    let pool = DevicePool::from_platform(&hclserver1(), POOL_ALPHA, POOL_BETA);
    let config = ServiceConfig {
        policy,
        admission: AdmissionConfig {
            queue_capacity: 1 << 20,
            per_tenant_quota: 1 << 20,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    };
    GemmService::new(pool, config)
}

/// Jobs of a report that did not complete, were refused, or went missing.
pub fn report_failures(report: &ServiceReport, submitted: usize) -> u64 {
    let lost = submitted.abs_diff(report.records.len() + report.rejections.len());
    (report.failed() + report.rejections.len() + lost) as u64
}

/// `sched-hetero`: the scheduler/event loop on the virtual backend.
pub struct Sched {
    stream: Vec<JobSpec>,
    /// Schedule digest of the warm-up run: every repetition must repeat it.
    digest: u64,
    last: (u64, u64),
    tally: Tally,
}

impl Sched {
    fn new(sz: &Sizes, tr: &Tracer) -> Sched {
        let mut w = Sched {
            stream: job_stream(sz.jobs, tr),
            digest: 0,
            last: (0, 0),
            tally: Tally::default(),
        };
        let warm = tr.span("service.run", || {
            fresh_service(Policy::FpmAware).run(w.stream.clone())
        });
        w.digest = warm.schedule_digest;
        w.check(&warm);
        w
    }

    fn check(&mut self, report: &ServiceReport) {
        let jobs = self.stream.len() as u64;
        self.tally.attempted += jobs;
        let bad = report_failures(report, self.stream.len());
        if bad > 0 {
            self.tally.fail(bad, || {
                format!("{bad} jobs failed, were rejected or went missing")
            });
        }
        if report.schedule_digest != self.digest {
            self.tally.fail(jobs, || {
                format!(
                    "schedule digest {:016x} differs from the first run's {:016x}",
                    report.schedule_digest, self.digest
                )
            });
        }
        self.last = (report.batches, report.retries);
    }
}

impl Workload for Sched {
    fn rep(&mut self, tr: &Tracer) -> f64 {
        let stream = self.stream.clone();
        let t0 = Instant::now();
        let report = tr.span("service.run", || {
            fresh_service(Policy::FpmAware).run(stream)
        });
        let wall = t0.elapsed().as_secs_f64();
        tr.span("bench.check", || self.check(&report));
        wall
    }

    fn ops_per_rep(&self) -> f64 {
        self.stream.len() as f64
    }

    fn op(&self) -> &'static str {
        "job scheduled to completion (virtual backend)"
    }

    fn alias(&self) -> (&'static str, &'static str, f64) {
        ("jobs_per_s", "jobs/s", 1.0)
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn counts(&self) -> Vec<(String, Json)> {
        vec![
            ("schedule_digest".to_string(), hex(self.digest)),
            ("batches".to_string(), Json::from(self.last.0)),
            ("retries".to_string(), Json::from(self.last.1)),
        ]
    }
}

// -------------------------------------------------------------- durable

/// One number that pins which idempotency keys reached which terminal
/// digest (the crash harness's ledger digest).
pub fn ledger_digest(state: &RecoveredState) -> u64 {
    let words: Vec<u64> = state
        .completed
        .iter()
        .chain(state.failed.iter())
        .flat_map(|(key, rec)| [*key, rec.digest])
        .collect();
    fnv1a_words(&words)
}

/// The crash-free journaled run every durable check compares against.
pub struct Control {
    pub journal: Vec<u8>,
    pub ledger: u64,
    pub terminal: usize,
    pub records: usize,
}

///
/// # Panics
/// Panics if the crash-free run itself loses a job or crashes: then there
/// is nothing to compare against, and the program is broken in a way no
/// timing should paper over.
pub fn control_run(stream: &[JobSpec], tr: &Tracer) -> Control {
    let journal = Journal::new(GroupCommitConfig::default());
    let run = tr.span("service.run_durable", || {
        fresh_service(Policy::FpmAware).run_durable(stream.to_vec(), journal, None)
    });
    let DurableRun::Finished(rep) = run else {
        panic!("the crash-free control run crashed with no injector armed");
    };
    let lost = report_failures(&rep.report, stream.len());
    assert_eq!(lost, 0, "the crash-free control run lost {lost} jobs");
    let state = tr
        .span("durable.replay", || replay(rep.journal.durable()))
        .state;
    Control {
        ledger: ledger_digest(&state),
        terminal: state.completed.len() + state.failed.len(),
        records: state.records,
        journal: rep.journal.into_durable().0,
    }
}

/// What a restarted process does with the journal file it finds: decode to
/// the longest valid prefix, reopen there.
fn reopen(bytes: Vec<u8>, tr: &Tracer) -> Journal {
    let valid = tr
        .span("durable.decode_frames", || decode_frames(&bytes))
        .valid_bytes;
    tr.span("durable.reopen", || {
        Journal::reopen(bytes, valid, GroupCommitConfig::default())
    })
}

/// Whether the journal `bytes` replays to exactly the control's terminal
/// ledger — the exactly-once check of the durable workloads.
pub fn ledger_matches(bytes: &[u8], control: &Control, tr: &Tracer) -> bool {
    let state = tr.span("durable.replay", || replay(bytes)).state;
    state.completed.len() + state.failed.len() == control.terminal
        && ledger_digest(&state) == control.ledger
}

/// `durable-hetero`: the same stream through the write-ahead journal and a
/// ladder of seeded crashes, each followed by a replay and a restart, then
/// a crash-free drain.
pub struct Durable {
    stream: Vec<JobSpec>,
    crash_seed: u64,
    cycles: u64,
    max_event: u64,
    control: Control,
    /// Bytes replayed by the last ladder's restarts, and its final size.
    last: (u64, u64),
    tally: Tally,
}

impl Durable {
    fn new(mut rng: SplitMix, sz: &Sizes, tr: &Tracer) -> Durable {
        let stream = job_stream(sz.jobs, tr);
        // The control run is this workload's warm-up: the same stream through
        // the same journaled service. A warm ladder on top would double a
        // set-up that is repeated for a steady `setup_s`.
        let control = control_run(&stream, tr);
        Durable {
            stream,
            crash_seed: rng.next_u64(),
            cycles: sz.ladder_cycles,
            max_event: sz.max_event,
            control,
            last: (0, 0),
            tally: Tally::default(),
        }
    }
}

impl Workload for Durable {
    fn rep(&mut self, tr: &Tracer) -> f64 {
        let jobs = self.stream.len() as u64;
        let mut journal = Journal::new(GroupCommitConfig::default());
        let mut timed = 0.0;
        let mut replayed = 0u64;
        let mut fizzled = None;
        for cycle in 0..self.cycles {
            // The seed draws *how* each epoch dies (at admission, mid-batch,
            // mid-append with a torn tail, mid-checkpoint); *when* follows
            // a fixed ladder of event counts. Drawn kill instants move the
            // bytes a ladder replays between 21 and 32 MB and its rate by
            // ±13 % from seed to seed (sized), against ±2 % for one seed.
            let crash = CrashSpec {
                at_event: (cycle + 1) * self.max_event / self.cycles,
                ..CrashSpec::draw(self.crash_seed, cycle, self.max_event)
            };
            let resubmit = self.stream.clone();
            let t0 = Instant::now();
            replayed += journal.durable_bytes() as u64;
            let run = tr.span("service.recover", || {
                fresh_service(Policy::FpmAware).recover(journal, resubmit, Some(crash))
            });
            if !run.crashed() {
                fizzled = Some(cycle);
            }
            journal = reopen(run.into_journal().into_durable().0, tr);
            timed += t0.elapsed().as_secs_f64();
        }
        let resubmit = self.stream.clone();
        let t0 = Instant::now();
        replayed += journal.durable_bytes() as u64;
        let run = tr.span("service.recover", || {
            fresh_service(Policy::FpmAware).recover(journal, resubmit, None)
        });
        timed += t0.elapsed().as_secs_f64();

        self.tally.attempted += jobs;
        let finished = !run.crashed();
        let (bytes, _) = run.into_journal().into_durable();
        self.last = (replayed, bytes.len() as u64);
        let ok = tr.span("bench.check", || {
            finished && ledger_matches(&bytes, &self.control, tr)
        });
        if !ok {
            self.tally.fail(jobs, || {
                "ladder's replayed terminal ledger differs from the crash-free control's".into()
            });
        }
        if let Some(cycle) = fizzled {
            self.tally.fail(1, || {
                format!("armed cycle {cycle} ran to completion without crashing")
            });
        }
        timed
    }

    fn ops_per_rep(&self) -> f64 {
        self.stream.len() as f64
    }

    fn op(&self) -> &'static str {
        "job made durable through a ladder of seeded crashes"
    }

    fn alias(&self) -> (&'static str, &'static str, f64) {
        ("jobs_per_s", "jobs/s", 1.0)
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn counts(&self) -> Vec<(String, Json)> {
        let c = &self.control;
        vec![
            ("ledger_digest".to_string(), hex(c.ledger)),
            ("control_records".to_string(), Json::from(c.records)),
            (
                "control_journal_bytes".to_string(),
                Json::from(c.journal.len()),
            ),
            ("ladder_replayed_bytes".to_string(), Json::from(self.last.0)),
            ("ladder_journal_bytes".to_string(), Json::from(self.last.1)),
        ]
    }
}

// -------------------------------------------------------------- restart

/// `restart-hetero`: the cold restart a finished service pays — replay the
/// whole journal, take the whole stream resubmitted, suppress every job as
/// a duplicate, run nothing.
pub struct Restart {
    stream: Vec<JobSpec>,
    control: Control,
    tally: Tally,
}

impl Restart {
    pub fn new(sz: &Sizes, tr: &Tracer) -> Restart {
        let stream = job_stream(sz.jobs, tr);
        let control = control_run(&stream, tr);
        let mut w = Restart {
            stream,
            control,
            tally: Tally::default(),
        };
        w.rep(tr);
        w
    }
}

#[cfg(test)]
impl Restart {
    /// Flips one bit in the middle of the journal the restarts read.
    pub fn corrupt_journal_byte(&mut self) {
        let journal = &mut self.control.journal;
        let mid = journal.len() / 2;
        journal[mid] ^= 0x40;
    }
}

impl Workload for Restart {
    fn rep(&mut self, tr: &Tracer) -> f64 {
        let control = &self.control;
        let (bytes, resubmit) = (control.journal.clone(), self.stream.clone());
        let t0 = Instant::now();
        let journal = reopen(bytes, tr);
        let run = tr.span("service.recover", || {
            fresh_service(Policy::FpmAware).recover(journal, resubmit, None)
        });
        let wall = t0.elapsed().as_secs_f64();
        let ok = match &run {
            DurableRun::Finished(rep) => {
                rep.recovery.suppressed_duplicates == self.stream.len()
                    && rep.report.records.is_empty()
                    && rep.recovery.torn_bytes == 0
                    && ledger_matches(rep.journal.durable(), control, tr)
            }
            DurableRun::Crashed(_) => false,
        };
        self.tally.record(ok, || {
            "cold restart re-ran jobs, lost the ledger, or found a torn journal".into()
        });
        wall
    }

    fn ops_per_rep(&self) -> f64 {
        1.0
    }

    fn op(&self) -> &'static str {
        "cold restart of the finished journal, full stream resubmitted"
    }

    fn alias(&self) -> (&'static str, &'static str, f64) {
        ("restarts_per_s", "1/s", 1.0)
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn counts(&self) -> Vec<(String, Json)> {
        let c = &self.control;
        vec![
            ("ledger_digest".to_string(), hex(c.ledger)),
            ("journal_records".to_string(), Json::from(c.records)),
            ("journal_bytes".to_string(), Json::from(c.journal.len())),
        ]
    }
}

// ------------------------------------------------------------------ sim

/// One point of the paper's two shape-comparison figures.
#[derive(Debug, Clone, Copy)]
pub struct SimPoint {
    pub n: usize,
    pub shape: Shape,
    /// Fig. 7 (functional performance models) rather than Fig. 6 (constant).
    pub fpm: bool,
}

/// The 128 points behind every committed baseline: Fig. 6 sizes under the
/// constant model, Fig. 7 sizes under FPMs, four shapes each.
pub fn paper_points() -> Vec<SimPoint> {
    let fig6 = (0..=10).map(|k| 25_600 + k * 1_024).chain([38_416]);
    let fig7 = (1..=20).map(|k| k * 1_024);
    let mut out = Vec::new();
    for (sizes, fpm) in [(fig6.collect::<Vec<_>>(), false), (fig7.collect(), true)] {
        for n in sizes {
            out.extend(
                ALL_FOUR_SHAPES
                    .iter()
                    .map(|&shape| SimPoint { n, shape, fpm }),
            );
        }
    }
    out
}

/// Partitions and simulates one point on the phantom path; returns the
/// virtual execution time.
pub fn simulate_point(p: SimPoint, platform: &Platform, tr: &Tracer) -> f64 {
    let areas = if p.fpm {
        let fpms: Vec<DiscreteFpm> = tr.span("platform.fpm_sample", || {
            platform
                .processors
                .iter()
                .map(|proc| DiscreteFpm::from_speed(proc.speed.as_ref(), p.n, FPM_GRID_STEPS))
                .collect()
        });
        tr.span("partition.fpm_areas", || load_imbalancing_areas(p.n, &fpms))
    } else {
        tr.span("partition.proportional_areas", || {
            proportional_areas(p.n, &SPEEDS)
        })
    };
    let spec = tr.span("partition.build", || p.shape.build(p.n, &areas));
    tr.span("core.simulate", || {
        simulate(&spec, platform, HockneyModel::intra_node())
    })
    .exec_time
}

/// `sim-paper`: sweeps of the paper's figures on the phantom path.
pub struct Sim {
    platform: Platform,
    /// The points in this seed's order, each with its reference time bits.
    points: Vec<(SimPoint, u64)>,
    sweeps: usize,
    tally: Tally,
}

impl Sim {
    fn new(mut rng: SplitMix, sz: &Sizes, tr: &Tracer) -> Sim {
        let platform = hclserver1();
        let mut order = paper_points();
        rng.shuffle(&mut order);
        let points = order
            .into_iter()
            .map(|p| (p, simulate_point(p, &platform, tr).to_bits()))
            .collect();
        Sim {
            platform,
            points,
            sweeps: sz.sim_sweeps,
            tally: Tally::default(),
        }
    }

    /// A point's virtual time must repeat to the bit.
    pub fn check(&mut self, idx: usize, exec_time: f64) {
        let (p, want) = self.points[idx];
        self.tally
            .record(exec_time.to_bits() == want && exec_time > 0.0, || {
                format!(
                    "{} N={} exec_time {exec_time:e} is not bit-identical across sweeps",
                    p.shape.name(),
                    p.n
                )
            });
    }
}

impl Workload for Sim {
    fn rep(&mut self, tr: &Tracer) -> f64 {
        let t0 = Instant::now();
        for _ in 0..self.sweeps {
            for idx in 0..self.points.len() {
                let t = simulate_point(self.points[idx].0, &self.platform, tr);
                self.check(idx, t);
            }
        }
        t0.elapsed().as_secs_f64()
    }

    fn ops_per_rep(&self) -> f64 {
        (self.points.len() * self.sweeps) as f64
    }

    fn op(&self) -> &'static str {
        "paper point partitioned and simulated"
    }

    fn alias(&self) -> (&'static str, &'static str, f64) {
        ("sim_points_per_s", "points/s", 1.0)
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn counts(&self) -> Vec<(String, Json)> {
        // Order-independent, so it is one number for every seed.
        let mut bits: Vec<u64> = self.points.iter().map(|(_, b)| *b).collect();
        bits.sort_unstable();
        vec![
            ("points".to_string(), Json::from(self.points.len())),
            ("exec_time_digest".to_string(), hex(fnv1a_words(&bits))),
        ]
    }
}
