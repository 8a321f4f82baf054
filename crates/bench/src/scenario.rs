//! The service-side `reproduce` commands as rows of one table (DESIGN.md
//! §28): [`SERVE`], [`DEGRADE`], [`CRASH`] and [`SLO`], the SLO half of
//! `insight`. A [`Scenario`] is data: its runs, the [`Plan`] that drives
//! them, its seed rule, its gates, the field lists of its documents and
//! tables, and its file names. [`run`] executes any row: it runs the whole
//! grid at the artifact seed and the top load factor at the gate-only seed
//! `SUMMAGEN_CHAOS_SEED` adds to a widened row, judges each seed's runs by
//! the row's gates, then takes the row's closing [`Step`]s. The mix is the
//! runner's argument (`--mix`, or a test's shrunk copy).

use std::path::Path;
use std::sync::Arc;

use summagen_comm::HockneyModel;
use summagen_core::{
    multiply_abft_prefix, panel_boundaries, AbftOptions, ExecutionMode, PanelCheckpoint,
};
use summagen_durable::{
    decode_frames, fnv1a_words, replay, CrashKind, CrashSpec, GroupCommitConfig, Journal,
    RecoveredState, Terminals,
};
use summagen_insight::{BurnConfig, SloKind, SloPolicy, SloSpec};
use summagen_matrix::random_matrix;
use summagen_metrics::MetricsRegistry;
use summagen_partition::ALL_FOUR_SHAPES;
use summagen_platform::profile::hclserver1;
use summagen_service::{
    generate, mix_by_name, AdmissionConfig, CircuitState, DeadlineVerdict, DegradeConfig,
    DevicePool, DurableRun, FaultProfile, GemmService, LoadMix, Policy, RecoveryStats,
    ServiceConfig, ServiceMetrics, ServiceReport, TenantSummary,
};
use summagen_trace::{perfetto_json, TraceRecorder};

use crate::harness::{chaos_seeds, digest_json, ensure, Artifacts, Error, Outcome};
use crate::json::{with_metadata, Json};

/// Hockney link parameters of the pool (the intra-node class the other
/// simulated experiments use).
pub const SERVE_ALPHA: f64 = 1e-5;
pub const SERVE_BETA: f64 = 4e-10;

/// Per-attempt device-failure probability of the faulty modes, in permille.
/// Aggressive on purpose: every seed's quarantine timeline is non-trivial,
/// and crash recovery replays failures as well as completions.
const FAIL_PERMILLE: u16 = 250;

/// Armed kill points of the crash ladder, and the bound of a drawn kill
/// point's event counter: small, so fresh admissions last into late cycles.
const CRASH_CYCLES: u64 = 25;
const CRASH_MAX_EVENT: u64 = 24;

/// Records each crash cycle may add to the final journal beyond the
/// control's: an epoch-start marker plus what flushed before the kill.
const CRASH_REPLAY_SLACK_PER_CYCLE: usize = 64;

/// A service mode: its name and its config for a fault seed.
#[derive(Clone, Copy)]
pub struct Mode {
    pub name: &'static str,
    pub config: fn(u64) -> ServiceConfig,
}

/// How a run drives the service.
#[derive(Clone, Copy)]
pub enum Plan {
    /// The whole stream through one observed service.
    Stream,
    /// A crash-free journaled control; then `cycles` epochs killed at kill
    /// points drawn from the seed (at most `max_event` journal events in),
    /// each restart resubmitting the whole stream; then an observed drain.
    Ladder { cycles: u64, max_event: u64 },
}

/// A named predicate over one seed's runs.
pub type Gate = fn(&Judged) -> Outcome;

/// What a row does after its seeds, in order.
#[derive(Clone, Copy)]
pub enum Step {
    /// A check of the artifact seed's runs, which prints its own note.
    Check(Gate),
    /// The artifacts, then an "artifacts written" line opened by the text.
    Write(Option<&'static str>),
}

/// How the runs nest in the document, after its `mix`.
#[derive(Clone, Copy)]
pub enum Layout {
    /// The run documents, an array under the key.
    List(&'static str),
    /// `loads`: per load factor, each run's document under its mode's name.
    ByLoad,
    /// The fields of the one run's document.
    Inline,
}

/// Reads a value off an item of a judged seed.
pub type Get<T> = fn(&T, &Judged) -> Json;

/// One value of a document or a table, declared once: its key (empty when
/// only the table shows it), its column header, width and precision (empty
/// when only the document has it; text ignores the precision), its getter.
pub struct Field<T>(&'static str, &'static str, usize, usize, Get<T>);

const fn doc<T>(key: &'static str, get: Get<T>) -> Field<T> {
    Field(key, "", 0, 0, get)
}

/// One row of the scenario table.
pub struct Scenario {
    /// The `reproduce` command its documents name.
    pub command: &'static str,
    /// `(load factor, mode)` of each run, in table and document order.
    pub runs: &'static [(f64, Mode)],
    pub plan: Plan,
    /// The artifact seed, and whether `SUMMAGEN_CHAOS_SEED` adds one.
    pub seed: u64,
    pub widened: bool,
    /// The SLO policy armed on every run.
    pub slo: Option<fn() -> SloPolicy>,
    /// Checked at every seed, in order.
    pub gates: &'static [Gate],
    pub steps: &'static [Step],
    /// The table's heading (`{mix}`, `{jobs}`, `{seed}` and `{permille}`
    /// filled in); a row without one prints no table.
    pub heading: Option<&'static str>,
    /// The per-run document and table, and what prints under the table.
    pub fields: &'static [Field<Run>],
    pub footers: &'static [fn(&Judged)],
    pub layout: Layout,
    /// The document's `run_config`.
    pub config: &'static [Field<()>],
    /// Templates with `{mix}`, `{load}` and `{mode}` to fill in: the
    /// timelines' title, the document, the timeline of each run at the top
    /// load, the last run's exposition.
    pub title: &'static str,
    pub document: &'static str,
    pub schedule: &'static str,
    pub exposition: Option<&'static str>,
}

impl Scenario {
    /// The largest load factor of the row's runs.
    pub fn top_load(&self) -> f64 {
        self.runs.iter().map(|r| r.0).fold(0.0, f64::max)
    }

    /// The row's distinct load factors, in order.
    pub fn loads(&self) -> Vec<f64> {
        let mut loads: Vec<f64> = self.runs.iter().map(|r| r.0).collect();
        loads.dedup();
        loads
    }
}

/// One observed run of a row.
pub struct Run {
    pub load: f64,
    pub mode: Mode,
    /// The service report (the final epoch's, for a ladder).
    pub report: ServiceReport,
    /// The run's Prometheus exposition and Perfetto timeline.
    pub exposition: String,
    pub perfetto: String,
    pub ladder: Option<Ladder>,
}

/// What a [`Plan::Ladder`] run found.
pub struct Ladder {
    pub cycles: Vec<CycleOutcome>,
    /// What the final epoch's recovery found.
    pub recovery: RecoveryStats,
    /// The replayed ledgers of the final journal and of the control's.
    pub state: RecoveredState,
    pub control: RecoveredState,
}

/// One armed cycle of a ladder.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    pub cycle: u64,
    pub kind: CrashKind,
    /// The journal-event counter and the virtual instant of the kill.
    pub event: u64,
    pub at: f64,
    /// What recovery found when this (doomed) epoch started.
    pub recovery: RecoveryStats,
    /// Torn tail bytes the reopen after this crash truncated.
    pub torn_at_reopen: usize,
}

/// One seed's runs of a row, as gates, getters and the writer see them.
pub struct Judged<'a> {
    pub row: &'a Scenario,
    pub mix: &'a LoadMix,
    pub seed: u64,
    pub runs: &'a [Run],
}

impl<'a> Judged<'a> {
    fn new(row: &'a Scenario, mix: &'a LoadMix, seed: u64, runs: &'a [Run]) -> Self {
        Judged {
            row,
            mix,
            seed,
            runs,
        }
    }

    /// The runs at the row's top load factor.
    fn top(&self) -> impl Iterator<Item = &Run> {
        let top = self.row.top_load();
        self.runs.iter().filter(move |r| r.load == top)
    }

    fn ladders(&self) -> impl Iterator<Item = &Ladder> {
        self.runs.iter().filter_map(|r| r.ladder.as_ref())
    }

    /// A run as a failure names it.
    fn what(&self, run: &Run) -> String {
        format!("seed {}, {}x {}", self.seed, run.load, run.mode.name)
    }
}

/// The named tenant mix (`small` or `hetero`).
pub fn load_mix(name: &str) -> Outcome<LoadMix> {
    mix_by_name(name)
        .ok_or_else(|| Error::Failed(format!("unknown mix '{name}'; expected small or hetero")))
}

/// The hclserver1 device pool every row schedules onto.
fn service_pool() -> DevicePool {
    DevicePool::from_platform(&hclserver1(), SERVE_ALPHA, SERVE_BETA)
}

/// Executes `row` on `mix`, writing into `out`: see the module docs.
pub fn run(row: &Scenario, mix: &LoadMix, out: &Path) -> Outcome {
    let seeds = if row.widened {
        chaos_seeds(&[row.seed])?
    } else {
        vec![row.seed]
    };
    let mut artifact = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let runs = grid(row, mix, seed, i == 0)?;
        let j = Judged::new(row, mix, seed, &runs);
        for (run, ladder) in runs.iter().filter_map(|r| Some((r, r.ladder.as_ref()?))) {
            print_ladder(&j, run, ladder);
        }
        if let (0, Some(heading)) = (i, row.heading) {
            println!("{}", fill(heading, mix, seed, 0.0, ""));
            println!("{}", line(row.fields, None, &j));
            runs.iter()
                .for_each(|r| println!("{}", line(row.fields, Some(r), &j)));
            row.footers.iter().for_each(|footer| footer(&j));
        }
        row.gates.iter().try_for_each(|gate| gate(&j))?;
        if i == 0 {
            artifact = runs;
        }
    }
    let j = Judged::new(row, mix, row.seed, &artifact);
    row.steps.iter().try_for_each(|step| match *step {
        Step::Check(check) => check(&j),
        Step::Write(opening) => write(&j, out, opening),
    })
}

/// The row's document at its artifact seed, neither printed nor gated.
pub fn artifact_document(row: &Scenario, mix: &LoadMix) -> Outcome<Json> {
    let runs = grid(row, mix, row.seed, true)?;
    Ok(document(&Judged::new(row, mix, row.seed, &runs)))
}

/// The row's runs at `seed`: all of them, or those at the top load.
fn grid(row: &Scenario, mix: &LoadMix, seed: u64, all: bool) -> Outcome<Vec<Run>> {
    let top = row.top_load();
    let runs = row.runs.iter().filter(|(load, _)| all || *load == top);
    runs.map(|&(load, mode)| execute(row, mix, seed, load, mode))
        .collect()
}

/// `mix` at `load` times its arrival rate.
fn scaled(mix: &LoadMix, load: f64) -> LoadMix {
    let mut mix = mix.clone();
    mix.arrival_rate *= load;
    mix
}

/// One run of `row`: `mix` at `load` under `mode`'s config for `seed`.
pub fn execute(row: &Scenario, mix: &LoadMix, seed: u64, load: f64, mode: Mode) -> Outcome<Run> {
    let mix = scaled(mix, load);
    let (config, slo) = ((mode.config)(seed), row.slo.map(|policy| policy()));
    let title = fill(row.title, &mix, seed, load, mode.name);
    let (report, ladder, (exposition, perfetto)) = match row.plan {
        Plan::Stream => {
            let (report, seen) = observe(&mix, config, slo, &title, |s| s.run(generate(&mix)));
            (report, None, seen)
        }
        Plan::Ladder { cycles, max_event } => {
            let (report, ladder, seen) =
                crash_ladder(&mix, config, seed, cycles, max_event, &title)?;
            (report, Some(ladder), seen)
        }
    };
    Ok(Run {
        load,
        mode,
        report,
        exposition,
        perfetto,
        ladder,
    })
}

/// Runs `drive` on a fresh service over [`service_pool`] under `config`,
/// the mix's tenant series registered, every dispatch recorded into a
/// timeline titled `title` and `slo` armed; returns what it returned, the
/// exposition and the timeline.
fn observe<T>(
    mix: &LoadMix,
    config: ServiceConfig,
    slo: Option<SloPolicy>,
    title: &str,
    drive: impl FnOnce(&mut GemmService) -> T,
) -> (T, (String, String)) {
    let pool = service_pool();
    let devices: Vec<&'static str> = pool.devices().iter().map(|d| d.name).collect();
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = ServiceMetrics::register(&registry, &mix.tenant_names(), &devices);
    let recorder = TraceRecorder::new(devices.len());
    let mut service = GemmService::new(pool, config)
        .with_metrics(metrics)
        .with_sink(recorder.clone());
    if let Some(policy) = slo {
        service = service.with_slo(policy);
    }
    let out = drive(&mut service);
    let exposition = summagen_metrics::prometheus::render(&registry);
    (out, (exposition, perfetto_json(&recorder.finish(), title)))
}

/// A [`Plan::Ladder`] run. It fails when the control or the drain crashes
/// with no injector armed, or an armed kill point fizzles, so every ladder
/// that reaches the gates crashed at each of its cycles.
fn crash_ladder(
    mix: &LoadMix,
    config: ServiceConfig,
    seed: u64,
    cycles: u64,
    max_event: u64,
    title: &str,
) -> Outcome<(ServiceReport, Ladder, (String, String))> {
    let jobs = generate(mix);
    let service = || GemmService::new(service_pool(), config);
    let fresh = || Journal::new(GroupCommitConfig::default());
    let crashed = |what: String| Error::Failed(format!("seed {seed}: {what}"));
    let DurableRun::Finished(rep) = service().run_durable(jobs.clone(), fresh(), None) else {
        return Err(crashed("control run crashed with no injector armed".into()));
    };
    let control = replay(rep.journal.durable()).state;
    let (mut journal, mut outcomes) = (fresh(), Vec::new());
    for cycle in 0..cycles {
        let spec = CrashSpec::draw(seed, cycle, max_event);
        let DurableRun::Crashed(c) = service().recover(journal, jobs.clone(), Some(spec)) else {
            let kind = spec.kind;
            return Err(crashed(format!(
                "cycle {cycle}: kill point {kind:?} fizzled"
            )));
        };
        let (bytes, _) = c.journal.into_durable();
        let valid_bytes = decode_frames(&bytes).valid_bytes;
        let torn_at_reopen = bytes.len() - valid_bytes;
        let (kind, event, at, recovery) = (c.kind, c.event, c.at, c.recovery);
        outcomes.push(CycleOutcome {
            cycle,
            kind,
            event,
            at,
            recovery,
            torn_at_reopen,
        });
        journal = Journal::reopen(bytes, valid_bytes, GroupCommitConfig::default());
    }
    let (last, seen) = observe(mix, config, None, title, |s| s.recover(journal, jobs, None));
    let DurableRun::Finished(rep) = last else {
        return Err(crashed("final drain crashed with no injector armed".into()));
    };
    let state = replay(rep.journal.durable()).state;
    let ladder = Ladder {
        cycles: outcomes,
        recovery: rep.recovery,
        state,
        control,
    };
    Ok((rep.report, ladder, seen))
}

/// `template` with `{mix}`, `{jobs}`, `{seed}` (the mix's), `{fault_seed}`,
/// `{load}`, `{mode}` and `{permille}` filled in.
fn fill(template: &str, mix: &LoadMix, seed: u64, load: f64, mode: &str) -> String {
    let values = [
        ("{mix}", mix.name.to_string()),
        ("{jobs}", mix.jobs.to_string()),
        ("{seed}", mix.seed.to_string()),
        ("{fault_seed}", seed.to_string()),
        ("{load}", load.to_string()),
        ("{mode}", mode.to_string()),
        ("{permille}", FAIL_PERMILLE.to_string()),
    ];
    values.iter().fold(template.to_string(), |t, (key, value)| {
        t.replace(key, value)
    })
}

/// The `(key, value)` pairs of `item`'s document fields.
fn pairs<T>(fields: &[Field<T>], item: &T, j: &Judged) -> Vec<(&'static str, Json)> {
    let keyed = fields.iter().filter(|f| !f.0.is_empty());
    keyed
        .map(|Field(key, .., get)| (*key, get(item, j)))
        .collect()
}

/// `item`'s table cells, or the headers without an item.
fn line<T>(fields: &[Field<T>], item: Option<&T>, j: &Judged) -> String {
    let cell = |Field(_, head, w, p, get): &Field<T>| match item.map(|item| get(item, j)) {
        None => format!("{head:>w$}"),
        Some(Json::Num(x)) => format!("{x:>w$.p$}"),
        Some(v) => format!("{:>w$}", v.as_str().unwrap_or_default()),
    };
    fields
        .iter()
        .filter(|f| !f.1.is_empty())
        .map(cell)
        .collect()
}

/// The row's document: its `mix`, the runs as its layout nests them, under
/// the provenance header with the row's `run_config`.
fn document(j: &Judged) -> Json {
    let (row, runs) = (j.row, j.runs);
    let run_doc = |r: &Run| Json::obj(pairs(row.fields, r, j));
    let mut body = vec![("mix", Json::from(j.mix.name))];
    match row.layout {
        Layout::List(key) => body.push((key, Json::arr(runs.iter().map(run_doc)))),
        Layout::ByLoad => body.push((
            "loads",
            Json::arr(row.loads().into_iter().map(|load| {
                let rate = j.mix.arrival_rate * load;
                let mut entry = vec![
                    ("load_factor", load.into()),
                    ("arrival_rate_jobs_per_s", rate.into()),
                ];
                let at = runs.iter().filter(|r| r.load == load);
                entry.extend(at.map(|r| (r.mode.name, run_doc(r))));
                Json::obj(entry)
            })),
        )),
        Layout::Inline => body.extend(runs.iter().flat_map(|r| pairs(row.fields, r, j))),
    }
    with_metadata(Json::obj(body), Json::obj(pairs(row.config, &(), j)))
}

/// Writes the row's files into `dir`.
fn write(j: &Judged, dir: &Path, opening: Option<&str>) -> Outcome {
    let (row, mix, seed) = (j.row, j.mix, j.seed);
    let out = Artifacts::create(dir)?;
    out.write(
        &fill(row.document, mix, seed, 0.0, ""),
        document(j).pretty(),
    )?;
    for run in j.top() {
        let name = fill(row.schedule, mix, seed, run.load, run.mode.name);
        out.write(&name, &run.perfetto)?;
    }
    if let (Some(name), Some(run)) = (row.exposition, j.runs.last()) {
        let name = fill(name, mix, seed, run.load, run.mode.name);
        out.write(&name, &run.exposition)?;
    }
    if let Some(opening) = opening {
        println!("{opening} artifacts written to {}", out.dir().display());
    }
    Ok(())
}

// ---- the rows -------------------------------------------------------------

/// A serve run: the default service under one policy.
const fn serve(name: &'static str, config: fn(u64) -> ServiceConfig) -> (f64, Mode) {
    (1.0, Mode { name, config })
}

fn with_policy(policy: Policy) -> ServiceConfig {
    ServiceConfig {
        policy,
        ..ServiceConfig::default()
    }
}

/// The plain FPM-aware service under seeded device faults.
pub const BASELINE: Mode = Mode {
    name: "baseline",
    config: |seed| faulty_config(seed, false),
};

/// [`BASELINE`] with the degradation layer armed.
pub const DEGRADED: Mode = Mode {
    name: "degraded",
    config: |seed| faulty_config(seed, true),
};

/// The plain fault-free service.
const HEALTHY: Mode = Mode {
    name: "healthy",
    config: |_| ServiceConfig::default(),
};

/// The multi-tenant service under each scheduling policy; FPM-aware must
/// beat FIFO on both makespan and p95 latency. No mode arms faults, so the
/// seed reaches no config.
pub const SERVE: Scenario = Scenario {
    command: "serve",
    runs: &[
        serve("fifo", |_| with_policy(Policy::Fifo)),
        serve("round-robin", |_| with_policy(Policy::RoundRobin)),
        serve("fpm-aware", |_| with_policy(Policy::FpmAware)),
    ],
    plan: Plan::Stream,
    seed: 0,
    widened: false,
    slo: None,
    gates: &[],
    steps: &[Step::Write(Some("\nserve")), Step::Check(fpm_beats_fifo)],
    heading: Some("\nSERVE — multi-tenant GEMM service, mix '{mix}' ({jobs} jobs, seed {seed})"),
    fields: &[
        Field("policy", "policy", 12, 0, MODE),
        Field("makespan_s", "makespan", 12, 3, MAKESPAN),
        Field("throughput_jobs_per_s", "thru j/s", 12, 1, THROUGHPUT),
        doc("completed", COMPLETED),
        doc("failed", FAILED),
        doc("rejected", REJECTED),
        Field("p50_s", "p50 s", 10, 3, P50),
        Field("p95_s", "p95 s", 10, 3, P95),
        Field("p99_s", "p99 s", 10, 3, P99),
        doc("peak_queue_depth", |r, _| r.report.peak_queue_depth.into()),
        doc("batches", |r, _| r.report.batches.into()),
        doc("retries", RETRIES),
        doc("schedule_digest", DIGEST),
        doc("device_busy_s", device_busy),
        doc("rejections_by_reason", rejections_by_reason),
        doc("tenants", |r, j| tenants(r, j, &SERVE_TENANTS)),
        Field("", "done", 8, 0, COMPLETED),
        Field("", "failed", 10, 0, FAILED),
        Field("", "rejected", 10, 0, REJECTED),
    ],
    footers: &[policy_p95s],
    layout: Layout::List("policies"),
    config: &[
        COMMAND,
        SEED,
        doc("arrival_rate_jobs_per_s", |_, j| j.mix.arrival_rate.into()),
        JOBS,
        doc("tenants", |_, j| Json::arr(j.mix.tenant_names())),
        ALPHA,
        BETA,
    ],
    title: "{mix} schedule ({mode})",
    document: "LOAD_{mix}.json",
    schedule: "SCHEDULE_{mix}_{mode}.json",
    exposition: Some("LOAD_{mix}.prom"),
};

/// The plain service against the degradation layer at 1×, 2× and 5× the
/// arrival rate under seeded device faults. At 5× jobs are conserved,
/// deadlines typed, the top tier's p95 improves and the degraded run
/// reproduces; the real executor resumes bit-identically across every
/// panel boundary.
pub const DEGRADE: Scenario = Scenario {
    command: "degrade",
    runs: &[
        (1.0, BASELINE),
        (1.0, DEGRADED),
        (2.0, BASELINE),
        (2.0, DEGRADED),
        (5.0, BASELINE),
        (5.0, DEGRADED),
    ],
    plan: Plan::Stream,
    seed: 7,
    widened: true,
    slo: None,
    gates: &[conserved, deadlines_typed, top_tier_improves, reproduces],
    steps: &[
        Step::Check(preempt_resume_chain),
        Step::Write(Some("degrade")),
    ],
    heading: Some(
        "\nDEGRADE — graceful degradation, mix '{mix}' ({jobs} jobs, seed {seed}, \
         {permille}‰ faults)",
    ),
    fields: &[
        Field("", "load", 6, 0, LOAD),
        Field("mode", "mode", 10, 0, MODE),
        Field("makespan_s", "makespan", 10, 3, MAKESPAN),
        Field("completed", "done", 8, 0, COMPLETED),
        doc("failed", FAILED),
        Field("rejected", "reject", 8, 0, REJECTED),
        Field("shed", "shed", 7, 0, SHED),
        doc("deadline_misses", DEADLINE_MISSES),
        Field("preemptions", "preempt", 9, 0, PREEMPTIONS),
        doc("retries", RETRIES),
        doc("p95_s", P95),
        doc("schedule_digest", DIGEST),
        doc("quarantine_timeline", quarantine_timeline),
        doc("tenants", |r, j| tenants(r, j, &DEGRADE_TENANTS)),
        Field("", "dl-misses", 12, 0, DEADLINE_MISSES),
        Field("", "quar-opens", 11, 0, QUARANTINE_OPENS),
        Field("", "top-tier p95", 13, 3, TOP_TIER_P95),
    ],
    footers: &[top_load_hit_rates],
    layout: Layout::ByLoad,
    config: &[
        COMMAND, SEED, FAULT_SEED, PERMILLE, JOBS, LOADS, ALPHA, BETA,
    ],
    title: "{mix} degrade schedule ({load}x, {mode})",
    document: "DEGRADE_{mix}.json",
    schedule: "SCHEDULE_DEGRADE_{mix}_{mode}.json",
    exposition: None,
};

/// A kill-point ladder at 5× beside its crash-free control. Both journals
/// drain, the ledgers agree exactly once, a tail is torn, replay stays
/// bounded, and the artifact seed's rerun reproduces the document.
pub const CRASH: Scenario = Scenario {
    command: "crash",
    runs: &[(
        5.0,
        Mode {
            name: "ladder",
            config: crash_config,
        },
    )],
    plan: Plan::Ladder {
        cycles: CRASH_CYCLES,
        max_event: CRASH_MAX_EVENT,
    },
    seed: 7,
    widened: true,
    slo: None,
    gates: &[drained, exactly_once, tail_torn, replay_bounded],
    steps: &[Step::Check(reproduced), Step::Write(Some("crash"))],
    heading: None,
    fields: &[
        doc("cycles", cycles_doc),
        doc("final_epoch", final_epoch_doc),
        doc("ladder_ledger", |r, _| {
            with_ladder(r, |l| ledger_json(&l.state))
        }),
        doc("control_ledger", |r, _| {
            with_ladder(r, |l| ledger_json(&l.control))
        }),
        doc("gates", crash_gates_doc),
    ],
    footers: &[],
    layout: Layout::Inline,
    config: &[
        COMMAND,
        SEED,
        doc("crash_seed", |_, j| j.seed.into()),
        doc("cycles", |_, _| CRASH_CYCLES.into()),
        doc("max_event", |_, _| CRASH_MAX_EVENT.into()),
        doc("load_factor", |_, j| j.row.top_load().into()),
        PERMILLE,
        JOBS,
        ALPHA,
        BETA,
    ],
    title: "{mix} final recovery epoch schedule",
    document: "CRASH_{mix}.json",
    schedule: "SCHEDULE_CRASH_{mix}.json",
    exposition: Some("CRASH_{mix}.prom"),
};

/// Per-tenant SLO burn-rate alerting: the healthy control at 1× fires no
/// alert, the degraded stampede at 5× alerts in the report, the exposition
/// and the timeline, and reproduces. The seed is fixed: [`slo_policy`] is
/// calibrated against that schedule.
pub const SLO: Scenario = Scenario {
    command: "insight",
    runs: &[(1.0, HEALTHY), (5.0, DEGRADED)],
    plan: Plan::Stream,
    seed: 7,
    widened: false,
    slo: Some(slo_policy),
    gates: &[control_silent, stampede_loud, reproduces],
    steps: &[Step::Write(None)],
    heading: Some("\nSLO — burn-rate alerting, mix '{mix}' ({jobs} jobs, seed {seed})"),
    fields: &[
        doc("load_factor", |r, _| r.load.into()),
        Field("", "load", 6, 0, LOAD),
        Field("mode", "mode", 10, 0, MODE),
        Field("makespan_s", "makespan", 10, 3, MAKESPAN),
        Field("completed", "done", 8, 0, COMPLETED),
        Field("rejected", "reject", 8, 0, REJECTED),
        Field("shed", "shed", 7, 0, SHED),
        doc("schedule_digest", DIGEST),
        doc("alerts", alerts_doc),
        doc("tenants", |r, j| tenants(r, j, &SLO_TENANTS)),
        Field("", "alerts", 8, 0, |r, _| r.report.slo_alerts.len().into()),
    ],
    footers: &[alert_list],
    layout: Layout::List("loads"),
    config: &[
        COMMAND,
        SEED,
        FAULT_SEED,
        PERMILLE,
        JOBS,
        LOADS,
        ALPHA,
        BETA,
        doc("slo_policy", slo_policy_doc),
    ],
    title: "{mix} slo schedule ({load}x, {mode})",
    document: "INSIGHT_slo_{mix}.json",
    schedule: "SCHEDULE_INSIGHT_{mix}_{load}x.json",
    exposition: Some("SLO_INSIGHT_{mix}.prom"),
};

// ---- the fields -----------------------------------------------------------

const LOAD: Get<Run> = |r, _| format!("{}x", r.load).into();
const MODE: Get<Run> = |r, _| r.mode.name.into();
const MAKESPAN: Get<Run> = |r, _| r.report.makespan.into();
const THROUGHPUT: Get<Run> = |r, _| r.report.throughput().into();
const COMPLETED: Get<Run> = |r, _| r.report.completed().into();
const FAILED: Get<Run> = |r, _| r.report.failed().into();
const REJECTED: Get<Run> = |r, _| r.report.rejections.len().into();
const SHED: Get<Run> = |r, _| r.report.shed().into();
const DEADLINE_MISSES: Get<Run> = |r, _| r.report.deadline_misses().into();
const PREEMPTIONS: Get<Run> = |r, _| r.report.preemptions.into();
const RETRIES: Get<Run> = |r, _| r.report.retries.into();
const P50: Get<Run> = |r, _| r.report.latency_quantile(0.50).into();
const P95: Get<Run> = |r, _| r.report.latency_quantile(0.95).into();
const P99: Get<Run> = |r, _| r.report.latency_quantile(0.99).into();
const DIGEST: Get<Run> = |r, _| digest_json(r.report.schedule_digest);
const QUARANTINE_OPENS: Get<Run> = |r, _| {
    let events = r.report.quarantine_events.iter();
    events.filter(|e| e.to == CircuitState::Open).count().into()
};
const TOP_TIER_P95: Get<Run> = |r, j| {
    let summaries = r.report.tenant_summaries(j.mix.tenants.len());
    summaries[top_tier(j.mix)].p95.into()
};

fn device_busy(r: &Run, _: &Judged) -> Json {
    let busy = r.report.device_names.iter().zip(&r.report.device_busy);
    Json::arr(
        busy.map(|(name, &busy)| {
            Json::obj([("device", Json::from(*name)), ("busy_s", busy.into())])
        }),
    )
}

fn rejections_by_reason(r: &Run, _: &Judged) -> Json {
    Json::obj(["queue-full", "quota-exceeded", "too-large"].map(|reason| {
        let count = r
            .report
            .rejections
            .iter()
            .filter(|(_, why)| why.label() == reason);
        (reason, Json::from(count.count()))
    }))
}

fn quarantine_timeline(r: &Run, _: &Judged) -> Json {
    Json::arr(r.report.quarantine_events.iter().map(|e| {
        Json::obj([
            ("device", Json::from(r.report.device_names[e.device])),
            ("at_s", Json::from(e.at)),
            ("from", Json::from(e.from.label())),
            ("to", Json::from(e.to.label())),
        ])
    }))
}

fn alerts_doc(r: &Run, j: &Judged) -> Json {
    Json::arr(r.report.slo_alerts.iter().map(|a| {
        Json::obj([
            ("tenant", Json::from(j.mix.tenants[a.tenant].name)),
            ("slo", Json::from(a.kind.label())),
            ("fired_at_s", Json::from(a.fired_at)),
            ("cleared_at_s", Json::from(a.cleared_at)),
            ("burn_fast", Json::from(a.burn_fast)),
            ("burn_slow", Json::from(a.burn_slow)),
        ])
    }))
}

/// The run's tenant summaries as documents of `fields`.
fn tenants(r: &Run, j: &Judged, fields: &[Field<TenantSummary>]) -> Json {
    let summaries = r.report.tenant_summaries(j.mix.tenants.len());
    Json::arr(summaries.iter().map(|t| Json::obj(pairs(fields, t, j))))
}

const T_NAME: Field<TenantSummary> = doc("tenant", |t, j| j.mix.tenants[t.tenant].name.into());
const T_SUBMITTED: Field<TenantSummary> = doc("submitted", |t, _| t.submitted.into());
const T_COMPLETED: Field<TenantSummary> = doc("completed", |t, _| t.completed.into());
const T_REJECTED: Field<TenantSummary> = doc("rejected", |t, _| t.rejected.into());
const T_SHED: Field<TenantSummary> = doc("shed", |t, _| t.shed.into());
const T_P95: Field<TenantSummary> = doc("p95_s", |t, _| t.p95.into());

const SERVE_TENANTS: [Field<TenantSummary>; 11] = [
    T_NAME,
    T_SUBMITTED,
    T_COMPLETED,
    doc("failed", |t, _| t.failed.into()),
    T_REJECTED,
    doc("p50_s", |t, _| t.p50.into()),
    T_P95,
    doc("p99_s", |t, _| t.p99.into()),
    doc("mean_s", |t, _| t.mean.into()),
    doc("max_s", |t, _| t.max.into()),
    doc("deadline_misses", |t, _| t.deadline_misses.into()),
];

const DEGRADE_TENANTS: [Field<TenantSummary>; 9] = [
    T_NAME,
    T_SUBMITTED,
    T_COMPLETED,
    T_REJECTED,
    T_SHED,
    doc("deadline_jobs", |t, _| t.deadline_jobs.into()),
    doc("deadline_met", |t, _| t.deadline_met.into()),
    doc("deadline_hit_rate", |t, _| t.deadline_hit_rate().into()),
    T_P95,
];

const SLO_TENANTS: [Field<TenantSummary>; 7] = [
    T_NAME,
    T_SUBMITTED,
    T_COMPLETED,
    T_REJECTED,
    T_SHED,
    T_P95,
    doc("slo_alerts", |t, _| t.slo_alerts.into()),
];

/// A ladder cycle's fields before and after its [`RECOVERY`] fields.
const CYCLE: [Field<CycleOutcome>; 4] = [
    Field("cycle", "cycle", 6, 0, |c, _| c.cycle.into()),
    Field("kind", "kind", 16, 0, |c, _| c.kind.label().into()),
    Field("event", "event", 7, 0, |c, _| c.event.into()),
    Field("at_s", "at", 10, 3, |c, _| c.at.into()),
];
const TORN: [Field<CycleOutcome>; 2] = [
    doc("torn_bytes_at_replay", |c, _| c.recovery.torn_bytes.into()),
    Field("torn_bytes_at_reopen", "torn", 7, 0, |c, _| {
        c.torn_at_reopen.into()
    }),
];

/// What an epoch's recovery found, as a cycle and the final epoch spell it.
const RECOVERY: [Field<RecoveryStats>; 6] = [
    doc("epoch", |r, _| r.epoch.into()),
    doc("resume_clock_s", |r, _| r.resume_clock.into()),
    Field("replayed_records", "replayed", 9, 0, |r, _| {
        r.replayed_records.into()
    }),
    Field("recovered_jobs", "recovered", 11, 0, |r, _| {
        r.recovered_jobs.into()
    }),
    doc("resumed_from_checkpoint", |r, _| {
        r.resumed_from_checkpoint.into()
    }),
    Field("suppressed_duplicates", "suppressed", 12, 0, |r, _| {
        r.suppressed_duplicates.into()
    }),
];

/// `get` of the run's ladder (`null` for a run without one).
fn with_ladder(r: &Run, get: impl FnOnce(&Ladder) -> Json) -> Json {
    r.ladder.as_ref().map_or(Json::Null, get)
}

fn cycles_doc(r: &Run, j: &Judged) -> Json {
    with_ladder(r, |l| {
        Json::arr(l.cycles.iter().map(|c| {
            let recovery = pairs(&RECOVERY, &c.recovery, j);
            Json::obj([pairs(&CYCLE, c, j), recovery, pairs(&TORN, c, j)].concat())
        }))
    })
}

fn final_epoch_doc(r: &Run, j: &Judged) -> Json {
    with_ladder(r, |l| {
        let mut fields = pairs(&RECOVERY, &l.recovery, j);
        fields.extend([
            ("makespan_s", MAKESPAN(r, j)),
            ("schedule_digest", DIGEST(r, j)),
        ]);
        Json::obj(fields)
    })
}

fn crash_gates_doc(r: &Run, _: &Judged) -> Json {
    with_ladder(r, |l| {
        let torn: usize = l.cycles.iter().map(|c| c.torn_at_reopen).sum();
        Json::obj([
            ("crashes", l.cycles.len()),
            ("torn_cycles", torn_cycles(l)),
            ("torn_bytes_total", torn),
            ("replay_bound", replay_bound(l)),
        ])
    })
}

fn ledger_json(state: &RecoveredState) -> Json {
    Json::obj([
        ("completed", Json::from(state.completed.len())),
        ("failed", Json::from(state.failed.len())),
        ("rejected", Json::from(state.rejected.len())),
        ("records", Json::from(state.records)),
        ("epochs", Json::from(state.epochs)),
        (
            "completed_digest",
            digest_json(ledger_digest(&state.completed)),
        ),
        ("failed_digest", digest_json(ledger_digest(&state.failed))),
    ])
}

/// FNV-1a over the sorted terminal ledger: one number that pins which keys
/// reached which terminal digest.
pub fn ledger_digest(terminal: &Terminals) -> u64 {
    let words: Vec<u64> = terminal
        .iter()
        .flat_map(|(key, rec)| [*key, rec.digest])
        .collect();
    fnv1a_words(&words)
}

const COMMAND: Field<()> = doc("command", |_, j| {
    format!("reproduce {} --mix {}", j.row.command, j.mix.name).into()
});
const SEED: Field<()> = doc("seed", |_, j| j.mix.seed.into());
const FAULT_SEED: Field<()> = doc("fault_seed", |_, j| j.seed.into());
const PERMILLE: Field<()> = doc("fail_permille", |_, _| u32::from(FAIL_PERMILLE).into());
const JOBS: Field<()> = doc("jobs", |_, j| j.mix.jobs.into());
const LOADS: Field<()> = doc("load_factors", |_, j| Json::arr(j.row.loads()));
const ALPHA: Field<()> = doc("alpha_s", |_, _| SERVE_ALPHA.into());
const BETA: Field<()> = doc("beta_s_per_byte", |_, _| SERVE_BETA.into());

fn slo_policy_doc(_: &(), j: &Judged) -> Json {
    let SloPolicy { specs, burn } = slo_policy();
    let spec = |s: &SloSpec| {
        Json::obj([
            ("tenant", Json::from(j.mix.tenants[s.tenant].name)),
            ("slo", Json::from(s.kind.label())),
            ("threshold", Json::from(s.threshold)),
            ("objective", Json::from(s.objective)),
        ])
    };
    let burn = Json::obj([
        ("fast_window_s", Json::from(burn.fast_window)),
        ("slow_window_s", Json::from(burn.slow_window)),
        ("fire_rate", Json::from(burn.fire_rate)),
        ("min_events", Json::from(burn.min_events)),
    ]);
    Json::obj([("burn", burn), ("specs", Json::arr(specs.iter().map(spec)))])
}

// ---- the footers ----------------------------------------------------------

/// One row per run: its mode in a `width`-wide column headed `heading`, then
/// `cell` of each tenant's summary.
fn tenant_table<'a>(
    j: &Judged,
    width: usize,
    heading: &str,
    runs: impl Iterator<Item = &'a Run>,
    cell: fn(&TenantSummary) -> f64,
) {
    let names: String = j
        .mix
        .tenants
        .iter()
        .map(|t| format!("{:>14}", t.name))
        .collect();
    println!("{heading:>width$}{names}");
    for run in runs {
        let summaries = run.report.tenant_summaries(j.mix.tenants.len());
        let cells: String = summaries
            .iter()
            .map(|s| format!("{:>14.3}", cell(s)))
            .collect();
        println!("{:>width$}{cells}", run.mode.name);
    }
}

/// Per-tenant p95 per policy, then the digests CI greps.
fn policy_p95s(j: &Judged) {
    println!("\n  per-tenant p95 latency (s):");
    tenant_table(j, 12, "policy", j.runs.iter(), |t| t.p95);
    println!("\n  schedule digests:");
    for r in j.runs {
        println!("{:>12} {:016x}", r.mode.name, r.report.schedule_digest);
    }
}

fn top_load_hit_rates(j: &Judged) {
    println!("\n  per-tenant deadline hit rate at {}x:", j.row.top_load());
    tenant_table(j, 10, "mode", j.top(), TenantSummary::deadline_hit_rate);
}

fn alert_list(j: &Judged) {
    for run in j.runs.iter().filter(|r| !r.report.slo_alerts.is_empty()) {
        println!("\n  alerts at {}x:", run.load);
        for a in &run.report.slo_alerts {
            let cleared = a
                .cleared_at
                .map_or("open".to_string(), |t| format!("{t:.3}s"));
            println!(
                "    {:<12} {:<18} fired {:>7.3}s  cleared {cleared:>7}  burn fast {:>6.2}  slow {:>6.2}",
                j.mix.tenants[a.tenant].name,
                a.kind.label(),
                a.fired_at,
                a.burn_fast,
                a.burn_slow,
            );
        }
    }
}

/// A ladder as it runs: its cycles, then its final epoch, ledgers and
/// journals.
fn print_ladder(j: &Judged, run: &Run, l: &Ladder) {
    let heading = "\nCRASH — kill-point ladder, mix '{mix}' ({jobs} jobs at {load}x, \
                   seed {fault_seed}, {permille}‰ faults)";
    println!("{}", fill(heading, j.mix, j.seed, run.load, ""));
    let cells = |c: Option<&CycleOutcome>| {
        let recovery = line(&RECOVERY, c.map(|c| &c.recovery), j);
        [line(&CYCLE, c, j), recovery, line(&TORN, c, j)].concat()
    };
    println!("{}", cells(None));
    l.cycles.iter().for_each(|c| println!("{}", cells(Some(c))));
    let r = &l.recovery;
    println!(
        "  final epoch {}: replayed {} records, recovered {} jobs, suppressed {} duplicates",
        r.epoch, r.replayed_records, r.recovered_jobs, r.suppressed_duplicates,
    );
    let (got, want) = (&l.state, &l.control);
    let digests = |s: &RecoveredState| {
        let (done, failed) = (ledger_digest(&s.completed), ledger_digest(&s.failed));
        format!("{done:016x}/{failed:016x}")
    };
    println!(
        "  ledger: ladder {}+{} vs control {}+{} (completed+failed), digests {} vs {}",
        got.completed.len(),
        got.failed.len(),
        want.completed.len(),
        want.failed.len(),
        digests(got),
        digests(want),
    );
    println!(
        "  journal: ladder {} records over {} epochs vs control {} in one",
        got.records, got.epochs, want.records,
    );
}

// ---- the gates ------------------------------------------------------------

/// FPM-aware beats FIFO on both makespan and p95: the paper's claim,
/// restated for the service.
fn fpm_beats_fifo(j: &Judged) -> Outcome {
    let report = |p| j.runs.iter().map(|r| &r.report).find(|r| r.policy == p);
    let (Some(fifo), Some(fpm)) = (report(Policy::Fifo), report(Policy::FpmAware)) else {
        return Ok(());
    };
    let (fm, pm) = (fifo.makespan, fpm.makespan);
    let (f95, p95) = (fifo.latency_quantile(0.95), fpm.latency_quantile(0.95));
    println!(
        "  fpm-aware vs fifo: makespan {:.3}x, p95 {:.3}x",
        fm / pm,
        f95 / p95
    );
    ensure(pm < fm && p95 < f95, || {
        format!(
            "FPM-aware failed to beat FIFO: makespan {pm:.3} vs {fm:.3}, p95 {p95:.3} vs {f95:.3}"
        )
    })
}

/// At the top load, records and rejections partition the submitted ids.
fn conserved(j: &Judged) -> Outcome {
    let sorted = |mut ids: Vec<u64>| {
        ids.sort_unstable();
        ids
    };
    j.top().try_for_each(|run| {
        let want = sorted(
            generate(&scaled(j.mix, run.load))
                .iter()
                .map(|job| job.id)
                .collect(),
        );
        let rejected = run.report.rejections.iter().map(|(spec, _)| spec.id);
        let got = sorted(
            run.report
                .records
                .iter()
                .map(|r| r.spec.id)
                .chain(rejected)
                .collect(),
        );
        ensure(got == want, || {
            let (got, want) = (got.len(), want.len());
            format!(
                "{}: jobs lost or invented ({got} accounted, {want} submitted)",
                j.what(run)
            )
        })
    })
}

/// At the top load, every finished job with a deadline carries a Met or
/// Missed verdict consistent with its finish time.
fn deadlines_typed(j: &Judged) -> Outcome {
    let mut records = j
        .top()
        .flat_map(|run| run.report.records.iter().map(move |r| (run, r)));
    records.try_for_each(|(run, r)| {
        let (finish, deadline, verdict) = (r.finish_time, r.spec.deadline, r.deadline);
        let typed = match (deadline, verdict) {
            (None, DeadlineVerdict::NoDeadline) => true,
            (Some(d), DeadlineVerdict::Met) => finish <= d + 1e-9,
            (Some(d), DeadlineVerdict::Missed { late_by }) => {
                finish > d && (late_by - (finish - d)).abs() < 1e-9
            }
            _ => false,
        };
        ensure(typed, || {
            let (what, id) = (j.what(run), r.spec.id);
            format!("{what}: job {id} finish {finish:.3} has verdict {verdict:?} for deadline {deadline:?}")
        })
    })
}

/// Index of the mix's highest-priority tenant (the tier the gates protect).
pub fn top_tier(mix: &LoadMix) -> usize {
    let tiers = mix.tenants.iter().enumerate();
    tiers
        .max_by_key(|(_, t)| t.priority)
        .map(|(i, _)| i)
        .expect("mix has tenants")
}

/// At the top load, the top tier's p95 is strictly lower in the last run
/// (degraded) than in the first (baseline).
fn top_tier_improves(j: &Judged) -> Outcome {
    let (Some(base), Some(deg)) = (j.top().next(), j.top().last()) else {
        return Ok(());
    };
    let top = top_tier(j.mix);
    let p95 = |r: &Run| r.report.tenant_summaries(j.mix.tenants.len())[top].p95;
    let (base_p95, deg_p95) = (p95(base), p95(deg));
    ensure(deg_p95 < base_p95, || {
        let tier = j.mix.tenants[top].name;
        let what = j.what(deg);
        format!("{what}: top-tier '{tier}' p95 did not improve: degraded {deg_p95:.3}s vs baseline {base_p95:.3}s")
    })
}

/// The last run at the top load, rerun from scratch, reproduces its
/// document: schedule digest, alerts, ledgers and all.
fn reproduces(j: &Judged) -> Outcome {
    let Some(run) = j.top().last() else {
        return Ok(());
    };
    let again = execute(j.row, j.mix, j.seed, run.load, run.mode)?;
    let doc = |r: &Run| pairs(j.row.fields, r, j);
    ensure(doc(run) == doc(&again), || {
        let (got, want) = (again.report.schedule_digest, run.report.schedule_digest);
        format!(
            "{}: the rerun ({got:016x}) does not reproduce the run ({want:016x})",
            j.what(run)
        )
    })
}

/// [`reproduces`] once, at the artifact seed, said out loud.
fn reproduced(j: &Judged) -> Outcome {
    reproduces(j)?;
    println!(
        "  rerun with seed {}: document reproduced byte-for-byte",
        j.seed
    );
    Ok(())
}

/// The bit-identity contract checkpoint preemption stands on, checked on
/// the real executor at n = 48.
fn preempt_resume_chain(_: &Judged) -> Outcome {
    check_preempt_resume_identity(48)?;
    println!(
        "  preempt/resume chain across every panel boundary: bit-identical (n=48, all shapes)"
    );
    Ok(())
}

/// Chaining `multiply_abft_prefix` through every panel boundary of every
/// paper shape reproduces the uninterrupted product bit for bit.
fn check_preempt_resume_identity(n: usize) -> Outcome {
    let speeds = [3.0, 2.0, 1.0];
    let (a, b) = (random_matrix(n, n, 11), random_matrix(n, n, 12));
    let (abft, cost) = (AbftOptions::default(), HockneyModel::intra_node());
    for shape in ALL_FOUR_SHAPES {
        let run = |resume: Option<&_>, stop_k| {
            let mode = ExecutionMode::Real;
            multiply_abft_prefix(shape, &speeds, &a, &b, mode, cost, &abft, resume, stop_k).map_err(
                |e| Error::Failed(format!("{shape:?}: prefix run to k={stop_k} failed: {e:?}")),
            )
        };
        let whole = run(None, n)?;
        let mut chained: Option<PanelCheckpoint> = None;
        for k in panel_boundaries(shape, n, &speeds) {
            chained = Some(run(chained.as_ref(), k)?);
        }
        let chained =
            chained.ok_or_else(|| Error::Failed(format!("{shape:?}: no panel boundaries")))?;
        ensure(chained.k == n, || {
            format!("{shape:?}: chained run stopped at k={} of {n}", chained.k)
        })?;
        let (got, want) = (chained.c.as_slice(), whole.c.as_slice());
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            let (got, want) = (got[i], want[i]);
            let why =
                format!("{shape:?}: element {i} differs after chained resume: {got} vs {want}");
            return Err(Error::Failed(why));
        }
    }
    Ok(())
}

/// Runs below the top load (the healthy control) fire no alert.
fn control_silent(j: &Judged) -> Outcome {
    let top = j.row.top_load();
    j.runs.iter().filter(|r| r.load < top).try_for_each(|run| {
        let alerts = &run.report.slo_alerts;
        ensure(alerts.is_empty(), || {
            let (n, a) = (alerts.len(), &alerts[0]);
            let (tenant, kind, at) = (a.tenant, a.kind.label(), a.fired_at);
            format!(
                "{}: healthy control fired {n} alert(s), first: tenant {tenant} {kind} at {at:.3}s",
                j.what(run)
            )
        })
    })
}

/// Runs at the top load (the stampede) alert on every surface: the report,
/// the exposition's alert counter and the timeline's spans.
fn stampede_loud(j: &Judged) -> Outcome {
    j.top().try_for_each(|run| {
        let (what, alerts) = (j.what(run), run.report.slo_alerts.len());
        ensure(alerts > 0, || {
            format!("{what}: degraded stampede fired no SLO alerts")
        })?;
        let total = exposition_total(&run.exposition, "summagen_service_slo_alerts_total");
        ensure(total >= alerts as f64, || {
            format!("{what}: exposition counts {total} alerts, report has {alerts}")
        })?;
        let spans = run.perfetto.contains("slo-alert");
        ensure(spans, || {
            format!("{what}: no slo-alert spans in the timeline")
        })
    })
}

/// Sum of a counter family's samples in a rendered exposition.
fn exposition_total(exposition: &str, metric: &str) -> f64 {
    let samples = exposition
        .lines()
        .filter(|l| l.starts_with(metric) && !l.starts_with('#'));
    samples
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Both journals hold every submitted job terminal and nothing rejected,
/// queued or in flight (admission is ample), and no epoch replayed a
/// CRC-valid frame that held no record.
fn drained(j: &Judged) -> Outcome {
    j.ladders().try_for_each(|l| {
        for (label, s) in [("control", &l.control), ("ladder", &l.state)] {
            let terminal = s.completed.len() + s.failed.len();
            let open = [s.rejected.len(), s.queued.len(), s.in_flight.len()];
            ensure(terminal == j.mix.jobs && open == [0; 3], || {
                let (seed, jobs) = (j.seed, j.mix.jobs);
                format!(
                    "seed {seed}: the {label} journal holds {terminal} of {jobs} jobs terminal, \
                     and [rejected, queued, in flight] = {open:?}"
                )
            })?;
        }
        let epochs = l.cycles.iter().map(|c| &c.recovery).chain([&l.recovery]);
        let undecodable: usize = epochs.map(|r| r.undecodable_records).sum();
        ensure(undecodable == 0, || {
            format!(
                "seed {}: replays met {undecodable} CRC-valid frames that hold no record",
                j.seed
            )
        })
    })
}

/// Exactly once: the ladder's ledger holds the control's completed and
/// failed keys, with bit-identical result digests.
fn exactly_once(j: &Judged) -> Outcome {
    let entries = |t: &Terminals| {
        t.iter()
            .map(|(key, r)| (*key, r.digest))
            .collect::<Vec<_>>()
    };
    let ledger = |s: &RecoveredState| (entries(&s.completed), entries(&s.failed));
    j.ladders().try_for_each(|l| {
        ensure(ledger(&l.state) == ledger(&l.control), || {
            let (got, want) = (&l.state, &l.control);
            let (gc, gf, wc, wf) = (got.completed.len(), got.failed.len(), want.completed.len(), want.failed.len());
            format!("seed {}: the ladder's ledger ({gc}+{gf} completed+failed) is not the control's ({wc}+{wf})", j.seed)
        })
    })
}

fn torn_cycles(l: &Ladder) -> usize {
    l.cycles.iter().filter(|c| c.torn_at_reopen > 0).count()
}

/// At least one cycle tore the durable tail and the reopen truncated it.
fn tail_torn(j: &Judged) -> Outcome {
    j.ladders().try_for_each(|l| {
        ensure(torn_cycles(l) > 0, || {
            format!(
                "seed {}: no cycle tore the durable tail, so the torn-tail path went unexercised",
                j.seed
            )
        })
    })
}

/// The most records a ladder's final journal may hold.
fn replay_bound(l: &Ladder) -> usize {
    l.control.records + l.cycles.len() * CRASH_REPLAY_SLACK_PER_CYCLE
}

/// Replay stays bounded: duplicate resubmissions are suppressed without
/// being journaled.
fn replay_bounded(j: &Judged) -> Outcome {
    j.ladders().try_for_each(|l| {
        let (got, control, bound) = (l.state.records, l.control.records, replay_bound(l));
        ensure(got <= bound, || {
            format!(
                "seed {}: replay unbounded: the final journal holds {got} records, the control \
                 {control} (bound {bound})",
                j.seed
            )
        })
    })
}

// ---- the configs ----------------------------------------------------------

/// Every mechanism of [`DegradeConfig::standard`], the preemption and
/// brownout thresholds tuned down to these mixes' makespans of seconds.
fn degrade_config() -> DegradeConfig {
    DegradeConfig {
        preemption_min_wait: 0.05,
        brownout_p95_threshold: 1.0,
        brownout_window: 32,
        ..DegradeConfig::standard()
    }
}

/// The FPM-aware service under seeded device faults, the degradation layer
/// armed when `degraded`.
fn faulty_config(fault_seed: u64, degraded: bool) -> ServiceConfig {
    let faults = FaultProfile {
        fail_permille: FAIL_PERMILLE,
        seed: fault_seed,
    };
    let degrade = if degraded {
        degrade_config()
    } else {
        DegradeConfig::default()
    };
    ServiceConfig {
        policy: Policy::FpmAware,
        faults,
        degrade,
        ..ServiceConfig::default()
    }
}

/// The FPM-aware service under seeded faults with ample admission bounds:
/// the exactly-once gates compare ledgers, which only means something when
/// every job reaches a terminal record in both the ladder and the control.
pub fn crash_config(fault_seed: u64) -> ServiceConfig {
    let admission = AdmissionConfig {
        queue_capacity: 1 << 20,
        per_tenant_quota: 1 << 20,
        ..AdmissionConfig::default()
    };
    ServiceConfig {
        admission,
        ..faulty_config(fault_seed, false)
    }
}

/// The SLO policy, calibrated so the healthy 1× hetero run never breaches
/// while the degraded 5× stampede does: availability on the free and
/// enterprise tiers, a 1 s p95 bound and a deadline hit-rate floor on
/// enterprise.
pub fn slo_policy() -> SloPolicy {
    let spec = |tenant, kind, threshold, objective| SloSpec {
        tenant,
        kind,
        threshold,
        objective,
    };
    SloPolicy {
        specs: vec![
            spec(0, SloKind::Availability, 0.0, 0.9),
            spec(2, SloKind::LatencyP95, 1.0, 0.95),
            spec(2, SloKind::Availability, 0.0, 0.9),
            spec(2, SloKind::DeadlineHitRate, 0.0, 0.8),
        ],
        burn: BurnConfig {
            fast_window: 0.5,
            slow_window: 3.0,
            fire_rate: 2.0,
            min_events: 10,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_service::{hetero_mix, small_mix};

    fn tiny(jobs: usize) -> LoadMix {
        let mut mix = small_mix();
        mix.jobs = jobs;
        mix
    }

    /// The crash row with a shorter ladder: busy enough (120 jobs at 5×)
    /// that no drawn kill point can fizzle.
    const fn short_crash(cycles: u64) -> Scenario {
        Scenario {
            plan: Plan::Ladder {
                cycles,
                max_event: 12,
            },
            ..CRASH
        }
    }

    #[test]
    fn table_headers_are_the_printed_ones() {
        let mix = small_mix();
        let head = |row: &Scenario| line(row.fields, None, &Judged::new(row, &mix, 0, &[]));
        let cycle = |j: &Judged| {
            [
                line(&CYCLE, None, j),
                line(&RECOVERY, None, j),
                line(&TORN, None, j),
            ]
            .concat()
        };
        assert_eq!(
            head(&SERVE),
            "      policy    makespan    thru j/s     p50 s     p95 s     p99 s    done    failed  rejected"
        );
        assert_eq!(
            head(&DEGRADE),
            "  load      mode  makespan    done  reject   shed  preempt   dl-misses quar-opens top-tier p95"
        );
        assert_eq!(
            head(&SLO),
            "  load      mode  makespan    done  reject   shed  alerts"
        );
        assert_eq!(head(&CRASH), "");
        assert_eq!(
            cycle(&Judged::new(&CRASH, &mix, 0, &[])),
            " cycle            kind  event        at replayed  recovered  suppressed   torn"
        );
    }

    #[test]
    fn every_field_is_shown_somewhere() {
        let rows = [&SERVE, &DEGRADE, &CRASH, &SLO];
        for f in rows.iter().flat_map(|r| r.fields) {
            assert!(!f.0.is_empty() || !f.1.is_empty());
        }
        for f in rows.iter().flat_map(|r| r.config) {
            assert!(!f.0.is_empty() && f.1.is_empty());
        }
    }

    #[test]
    fn serve_document_carries_all_policies_and_tenants() {
        let mix = tiny(40);
        let doc = artifact_document(&SERVE, &mix).unwrap();
        let policies = doc.get("policies").and_then(Json::as_arr).unwrap();
        assert_eq!(policies.len(), 3);
        for p in policies {
            let tenants = p.get("tenants").and_then(Json::as_arr).unwrap();
            assert_eq!(tenants.len(), 3);
            assert!(p.path("rejections_by_reason.queue-full").is_some());
            assert!(p.get("schedule_digest").and_then(Json::as_str).is_some());
        }
        let seed = doc.path("run_config.seed").and_then(Json::as_f64);
        assert_eq!(seed, Some(mix.seed as f64));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn serve_runs_are_deterministic_with_tenant_series_and_device_tracks() {
        let mix = tiny(40);
        let fpm = SERVE.runs[2].1;
        let a = execute(&SERVE, &mix, 0, 1.0, fpm).unwrap();
        let b = execute(&SERVE, &mix, 0, 1.0, fpm).unwrap();
        assert_eq!(a.report.policy, Policy::FpmAware);
        for series in [
            "summagen_service_jobs_total",
            "tenant=\"free\"",
            "summagen_service_latency_seconds",
        ] {
            assert!(a.exposition.contains(series), "{series}: {}", a.exposition);
        }
        assert!(
            a.perfetto.contains("\"sched\""),
            "no sched spans in timeline"
        );
        assert_eq!(a.report.schedule_digest, b.report.schedule_digest);
        assert_eq!((a.exposition, a.perfetto), (b.exposition, b.perfetto));
    }

    #[test]
    fn degrade_document_round_trips_and_carries_both_modes() {
        let doc = artifact_document(&DEGRADE, &tiny(60)).unwrap();
        let loads = doc.get("loads").and_then(Json::as_arr).unwrap();
        assert_eq!(loads.len(), 3);
        for mode in ["baseline", "degraded"] {
            let m = loads[2].get(mode).unwrap();
            assert!(m.get("schedule_digest").and_then(Json::as_str).is_some());
            assert!(m
                .get("quarantine_timeline")
                .and_then(Json::as_arr)
                .is_some());
            let tenants = m.get("tenants").and_then(Json::as_arr).unwrap();
            assert_eq!(tenants.len(), 3);
            for t in tenants {
                assert!(t.get("deadline_hit_rate").and_then(Json::as_f64).is_some());
            }
        }
        let seed = doc.path("run_config.fault_seed").and_then(Json::as_f64);
        assert_eq!(seed, Some(7.0));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let mix = tiny(60);
        let a = execute(&DEGRADE, &mix, 7, 3.0, DEGRADED).unwrap();
        let b = execute(&DEGRADE, &mix, 7, 3.0, DEGRADED).unwrap();
        assert_eq!(a.report.schedule_digest, b.report.schedule_digest);
        assert_eq!(a.report.preemptions, b.report.preemptions);
        assert_eq!(a.report.quarantine_events, b.report.quarantine_events);
        assert_eq!(a.perfetto, b.perfetto);
    }

    #[test]
    fn both_modes_conserve_jobs_and_type_every_deadline() {
        let mix = tiny(60);
        let runs = [BASELINE, DEGRADED].map(|mode| execute(&DEGRADE, &mix, 7, 5.0, mode).unwrap());
        let j = Judged::new(&DEGRADE, &mix, 7, &runs);
        assert_eq!(j.top().count(), 2);
        conserved(&j).unwrap();
        deadlines_typed(&j).unwrap();
    }

    #[test]
    fn chained_prefix_runs_reproduce_the_whole_product() {
        check_preempt_resume_identity(24).unwrap();
    }

    #[test]
    fn a_short_ladder_is_exactly_once_against_its_control() {
        // Not `tail_torn`: six cycles need not draw a mid-append kill.
        let (row, mix) = (short_crash(6), tiny(120));
        let runs = [execute(&row, &mix, 7, 5.0, row.runs[0].1).unwrap()];
        let j = Judged::new(&row, &mix, 7, &runs);
        for gate in [drained, exactly_once, replay_bounded] {
            gate(&j).unwrap();
        }
    }

    #[test]
    fn the_ladder_reproduces_its_document_from_the_seed() {
        let (row, mix) = (short_crash(6), tiny(120));
        let doc = || {
            let runs = [execute(&row, &mix, 11, 5.0, row.runs[0].1).unwrap()];
            document(&Judged::new(&row, &mix, 11, &runs))
        };
        let a = doc();
        assert_eq!(a, doc());
        assert_eq!(Json::parse(&a.pretty()).unwrap(), a);
        let cycles = a.get("cycles").and_then(Json::as_arr).unwrap();
        assert_eq!(cycles.len(), 6);
        for c in cycles {
            assert!(c.get("kind").and_then(Json::as_str).is_some());
            assert!(c
                .get("torn_bytes_at_reopen")
                .and_then(Json::as_f64)
                .is_some());
        }
        let seed = a.path("run_config.crash_seed").and_then(Json::as_f64);
        assert_eq!(seed, Some(11.0));
    }

    #[test]
    fn the_final_epoch_carries_recovery_series_and_a_recover_span() {
        let (row, mix) = (short_crash(2), tiny(120));
        let run = execute(&row, &mix, 7, 5.0, row.runs[0].1).unwrap();
        for series in [
            "summagen_service_recoveries_total",
            "summagen_service_journal_records_total",
        ] {
            assert!(run.exposition.contains(series), "{}", run.exposition);
        }
        assert!(run.perfetto.contains("recover"), "{}", run.perfetto);
    }

    #[test]
    fn every_armed_cycle_crashes_and_restarts_suppress_duplicates() {
        let (row, mix) = (short_crash(6), tiny(120));
        let run = execute(&row, &mix, 3, 5.0, row.runs[0].1).unwrap();
        let ladder = run.ladder.unwrap();
        assert_eq!(ladder.cycles.len(), 6);
        // From the second cycle on, the full-stream resubmission hits a
        // journal that already knows keys: duplicates get suppressed.
        let suppressed = ladder.cycles[1..]
            .iter()
            .any(|c| c.recovery.suppressed_duplicates > 0);
        assert!(
            suppressed,
            "no restart suppressed any duplicate resubmission"
        );
        assert!(ladder.recovery.suppressed_duplicates > 0);
    }

    #[test]
    fn control_is_silent_and_stampede_fires_through_every_surface() {
        let mix = hetero_mix();
        let runs = grid(&SLO, &mix, 7, true).unwrap();
        let j = Judged::new(&SLO, &mix, 7, &runs);
        for gate in SLO.gates {
            gate(&j).unwrap();
        }
        let (healthy, degraded) = (&runs[0], &runs[1]);
        assert!(healthy.report.slo_alerts.is_empty());
        assert!(!degraded.report.slo_alerts.is_empty());
        assert!(degraded
            .exposition
            .contains("summagen_service_slo_alerts_total"));
        assert!(degraded.perfetto.contains("slo-alert"));
        assert!(!healthy.perfetto.contains("slo-alert"));
    }

    #[test]
    fn slo_document_round_trips_and_carries_the_policy() {
        let doc = artifact_document(&SLO, &hetero_mix()).unwrap();
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        let loads = doc.get("loads").and_then(Json::as_arr).unwrap();
        let alerts = loads[1].get("alerts").and_then(Json::as_arr).unwrap();
        assert!(!alerts.is_empty());
        for a in alerts {
            assert!(a.get("slo").and_then(Json::as_str).is_some());
            assert!(a.get("burn_fast").and_then(Json::as_f64).unwrap() >= 2.0);
        }
        let specs = doc
            .path("run_config.slo_policy.specs")
            .and_then(Json::as_arr);
        assert_eq!(specs.unwrap().len(), slo_policy().specs.len());
    }

    #[test]
    fn exposition_total_sums_counter_samples() {
        let text = "# TYPE x counter\nx{a=\"1\"} 2\nx{a=\"2\"} 3\ny 9\n";
        assert_eq!(exposition_total(text, "x"), 5.0);
    }
}
