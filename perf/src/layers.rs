//! The per-layer replay of a traced run.
//!
//! Every layer (= crate) is timed in isolation through its public
//! functions, on the same inputs the end-to-end workloads use, so a change
//! to one layer shows here first and the README's interaction map says
//! which end-to-end number it should then move. Layer metrics have no
//! bound: they explain, they do not gate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use summagen_comm::{Backend, HockneyModel, Payload, RuntimeMetrics, Universe, ZeroCost};
use summagen_core::{
    assemble, distribute, multiply_traced, multiply_with_cost, multiply_with_recovery, simulate,
    simulate_instrumented, ExecutionMode, RecoveryOptions,
};
use summagen_durable::{decode_frames, replay, GroupCommitConfig, Journal, JournalRecord};
use summagen_insight::slo::{BurnConfig, SloKind, SloPolicy, SloSpec};
use summagen_matrix::{
    abft_tolerance, augment_a, augment_b, random_matrix, verify_and_correct, DenseMatrix,
    GemmKernel,
};
use summagen_metrics::MetricsRegistry;
use summagen_partition::{PartitionSpec, Shape};
use summagen_platform::{hclserver1, ConstantSpeed};
use summagen_service::{
    commit, hetero_mix, plan, DegradeConfig, DevicePool, GemmService, JobSpec, Policy,
    ServiceConfig, ServiceMetrics,
};
use summagen_trace::TraceRecorder;

use crate::check::SplitMix;
use crate::machine::Machine;
use crate::span::{Span, Tracer};
use crate::stats::median;
use crate::workloads::{
    control_run, fresh_service, job_stream, paper_points, paper_specs, run_multiply,
    simulate_point, slug, Sizes, POOL_ALPHA, POOL_BETA, SPEEDS,
};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics under their declared units: a name the table below
/// does not know is a bug in the benchmark, caught at once.
pub struct Sheet(Vec<Metric>);

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let unit = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not declared"))
            .1;
        self.0.push(Metric { name, value, unit });
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` read before it was measured"))
            .value
    }
}

/// Wall seconds of `reps` calls of `f`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median of `reps` walls that `f` measures itself.
fn median_of_walls(reps: usize, f: impl FnMut() -> f64) -> f64 {
    median(&std::iter::repeat_with(f).take(reps).collect::<Vec<_>>())
}

fn median_of(reps: usize, f: impl FnMut()) -> f64 {
    median(&time_reps(reps, f))
}

fn min_of_samples(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Wall of each variant, reduced by `pick` over `reps` samples, the
/// variants taking turns so drift hits all of them alike.
fn round_robin(
    reps: usize,
    pick: fn(&[f64]) -> f64,
    variants: &mut [&mut dyn FnMut()],
) -> Vec<f64> {
    let mut walls = vec![Vec::new(); variants.len()];
    for _ in 0..reps {
        for (variant, walls) in variants.iter_mut().zip(&mut walls) {
            walls.extend(time_reps(1, variant));
        }
    }
    walls.iter().map(|w| pick(w)).collect()
}

/// Wall of `on` over wall of `off`, see [`round_robin`].
fn on_off_ratio(
    reps: usize,
    pick: fn(&[f64]) -> f64,
    mut off: impl FnMut(),
    mut on: impl FnMut(),
) -> f64 {
    let walls = round_robin(reps, pick, &mut [&mut off, &mut on]);
    walls[1] / walls[0]
}

/// Every per-layer metric: name, unit, whether higher is better. This is
/// the list `BENCHMARK.json` carries; a unit test keeps the two equal.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // matrix -> ops_per_s on dense-1024 / abft-1024
    ("matrix.blocked_1024.gflops", "GFLOP/s", true),
    ("matrix.parallel_1024.gflops", "GFLOP/s", true),
    ("matrix.parallel_speedup", "ratio", true),
    ("matrix.rankblocks.square-corner.busy_s", "s", false),
    ("matrix.rankblocks.square-rectangle.busy_s", "s", false),
    ("matrix.rankblocks.block-rectangle.busy_s", "s", false),
    ("matrix.rankblocks.1d-rectangular.busy_s", "s", false),
    ("matrix.rankblocks.square-corner.gflops", "GFLOP/s", true),
    ("matrix.rankblocks.square-rectangle.gflops", "GFLOP/s", true),
    ("matrix.rankblocks.block-rectangle.gflops", "GFLOP/s", true),
    ("matrix.rankblocks.1d-rectangular.gflops", "GFLOP/s", true),
    ("matrix.gemm_share", "ratio", false),
    ("matrix.llc_mib", "MiB", false),
    ("matrix.triad.array_mib", "MiB", true),
    ("matrix.triad.gb_per_s", "GB/s", true),
    ("matrix.peak.gflops", "GFLOP/s", true),
    ("matrix.ops_per_byte_1024", "flop/B", true),
    ("matrix.roofline_frac", "ratio", true),
    ("matrix.abft_verify.gelem_per_s", "Gelem/s", true),
    ("matrix.abft_augment.gb_per_s", "GB/s", true),
    // comm -> ops_per_s on wire-panels / wire-panels-tcp
    ("comm.bcast_64kib.gb_per_s", "GB/s", true),
    ("comm.bcast_8mib.gb_per_s", "GB/s", true),
    ("comm.bcast_64kib.gb_per_s_tcp", "GB/s", true),
    ("comm.bcast_8mib.gb_per_s_tcp", "GB/s", true),
    ("comm.pingpong_8b.us_min", "us", false),
    ("comm.pingpong_8b.us_p50", "us", false),
    ("comm.pingpong_8b.us_min_tcp", "us", false),
    ("comm.pingpong_8b.us_p50_tcp", "us", false),
    ("comm.spawn.us", "us", false),
    ("comm.spawn_tcp.us", "us", false),
    ("comm.dense.msgs", "count", false),
    ("comm.dense.bytes", "count", false),
    ("comm.abft.msgs", "count", false),
    ("comm.abft.bytes", "count", false),
    ("comm.dense.wire_s_computed", "s", false),
    ("comm.pingpong_metered_ratio", "ratio", false),
    // core -> ops_per_s on dense-1024 / abft-1024 (simulate: sim-paper)
    ("core.dense.square-corner.multiply_s", "s", false),
    ("core.dense.square-rectangle.multiply_s", "s", false),
    ("core.dense.block-rectangle.multiply_s", "s", false),
    ("core.dense.1d-rectangular.multiply_s", "s", false),
    ("core.abft.square-corner.multiply_s", "s", false),
    ("core.abft.square-rectangle.multiply_s", "s", false),
    ("core.abft.block-rectangle.multiply_s", "s", false),
    ("core.abft.1d-rectangular.multiply_s", "s", false),
    ("core.distribute.s", "s", false),
    ("core.assemble.s", "s", false),
    ("core.copy_share", "ratio", false),
    ("core.abft_overhead", "ratio", false),
    ("core.recovery_tcp_ratio", "ratio", false),
    ("core.model_error", "ratio", false),
    ("core.simulate.us", "us", false),
    // partition / platform -> ops_per_s on sim-paper
    ("partition.build.us", "us", false),
    ("partition.fpm_areas.us", "us", false),
    ("platform.fpm_sample.us", "us", false),
    // service / insight -> ops_per_s on sched-hetero and durable-hetero
    ("service.fifo.jobs_per_s", "jobs/s", true),
    ("service.round-robin.jobs_per_s", "jobs/s", true),
    ("service.fpm-aware.jobs_per_s", "jobs/s", true),
    ("service.plan.us", "us", false),
    ("service.generate.s", "s", false),
    ("service.degrade.jobs_per_s", "jobs/s", true),
    ("service.observed_ratio", "ratio", false),
    ("service.batches", "count", false),
    ("service.rejected", "count", false),
    ("service.retries", "count", false),
    ("insight.slo_ratio", "ratio", false),
    // durable -> ops_per_s on durable-hetero and restart-hetero
    ("durable.append.records_per_s", "1/s", true),
    ("durable.append.mb_per_s", "MB/s", true),
    ("durable.replay.mb_per_s", "MB/s", true),
    ("durable.decode.mb_per_s", "MB/s", true),
    ("durable.overhead_ratio", "ratio", false),
    ("durable.records", "count", false),
    ("durable.journal_bytes", "count", false),
    ("durable.replayed_bytes", "count", false),
    // trace / metrics -> nothing end to end: the price of watching
    ("trace.traced_ratio", "ratio", false),
    ("trace.sim_traced_ratio", "ratio", false),
    ("metrics.metered_ratio", "ratio", false),
    ("metrics.render.us", "us", false),
    // where the traced workload's own driver-thread time went, by layer
    ("workload.wall_s", "s", false),
    ("workload.self_s.bench", "s", false),
    ("workload.self_s.matrix", "s", false),
    ("workload.self_s.comm", "s", false),
    ("workload.self_s.core", "s", false),
    ("workload.self_s.partition", "s", false),
    ("workload.self_s.platform", "s", false),
    ("workload.self_s.service", "s", false),
    ("workload.self_s.durable", "s", false),
    ("workload.self_gap", "ratio", false),
];

/// Layers a span name can start with (`bench` = the benchmark's own code).
pub const LAYERS: [&str; 8] = [
    "bench",
    "matrix",
    "comm",
    "core",
    "partition",
    "platform",
    "service",
    "durable",
];

/// Repetitions of the replay's heavier items (full size vs `--quick`).
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub heavy: usize,
    pub light: usize,
}

/// Runs the whole replay and returns every per-layer metric except the
/// `workload.*` ones (those come from the traced workload's spans).
pub fn replay_all(
    seed: u64,
    sz: &Sizes,
    reps: Reps,
    machine: &Machine,
    tr: &Tracer,
) -> Vec<Metric> {
    let mut sheet = Sheet(Vec::new());
    let mut rng = SplitMix(seed ^ 0x1a7e_55ed);
    tr.span("bench.replay.matrix_core", || {
        matrix_and_core(&mut sheet, &mut rng, sz, reps, machine, tr)
    });
    tr.span("bench.replay.comm", || comm(&mut sheet, sz, reps, tr));
    tr.span("bench.replay.model", || model_error(&mut sheet, sz, tr));
    tr.span("bench.replay.sim", || sim(&mut sheet, sz, tr));
    tr.span("bench.replay.service", || {
        service_and_durable(&mut sheet, &mut rng, sz, reps, tr)
    });
    tr.span("bench.replay.telemetry", || {
        telemetry(&mut sheet, &mut rng, sz, reps, tr)
    });
    sheet.0
}

fn gflops(flops: f64, secs: f64) -> f64 {
    flops / secs / 1e9
}

/// A rank's working set for the replay of its GEMMs: `WA` holds the block
/// rows it owns (leading dimension n), `WB` the block columns (leading
/// dimension = their total width) — the executor's layout.
struct RankReplay {
    wa: Vec<f64>,
    wb: Vec<f64>,
    wb_width: usize,
    /// `(rows, cols, row offset in WA, column offset in WB)` per block.
    gemms: Vec<(usize, usize, usize, usize)>,
}

impl RankReplay {
    fn new(spec: &PartitionSpec, rank: usize, fill: &DenseMatrix) -> RankReplay {
        let n = spec.n;
        let blocks = spec.blocks_of(rank);
        let mut row_off = vec![None; spec.grid_rows];
        let mut col_off = vec![None; spec.grid_cols];
        let (mut rows, mut width) = (0, 0);
        for b in &blocks {
            if row_off[b.block_i].is_none() {
                row_off[b.block_i] = Some(rows);
                rows += b.rows;
            }
            if col_off[b.block_j].is_none() {
                col_off[b.block_j] = Some(width);
                width += b.cols;
            }
        }
        let src = fill.as_slice();
        RankReplay {
            wa: src.iter().cycle().take(rows * n).copied().collect(),
            wb: src.iter().cycle().take(n * width).copied().collect(),
            wb_width: width,
            gemms: blocks
                .iter()
                .map(|b| {
                    (
                        b.rows,
                        b.cols,
                        row_off[b.block_i].expect("row offset set above"),
                        col_off[b.block_j].expect("column offset set above"),
                    )
                })
                .collect(),
        }
    }

    /// Runs exactly the rank's `(rows, cols, N)` GEMMs, alone on the box.
    fn run(&self, n: usize, tr: &Tracer) -> f64 {
        let t0 = Instant::now();
        for &(rows, cols, roff, coff) in &self.gemms {
            let mut c = vec![0.0; rows * cols];
            tr.span("matrix.gemm", || {
                GemmKernel::default().run(
                    rows,
                    cols,
                    n,
                    1.0,
                    &self.wa[roff * n..],
                    n,
                    &self.wb[coff..],
                    self.wb_width,
                    0.0,
                    &mut c,
                    cols,
                )
            });
            black_box(&c);
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Wall seconds of one square `A · B` with `kernel`.
fn square_gemm(kernel: GemmKernel, a: &DenseMatrix, b: &DenseMatrix, tr: &Tracer) -> f64 {
    let n = a.rows();
    let mut c = vec![0.0; n * n];
    let t0 = Instant::now();
    tr.span("matrix.gemm", || {
        kernel.run(
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.0,
            &mut c,
            n,
        )
    });
    let wall = t0.elapsed().as_secs_f64();
    black_box(&c);
    wall
}

fn matrix_and_core(
    sheet: &mut Sheet,
    rng: &mut SplitMix,
    sz: &Sizes,
    reps: Reps,
    machine: &Machine,
    tr: &Tracer,
) {
    let n = sz.n;
    let flops = 2.0 * (n as f64).powi(3);
    let a = random_matrix(n, n, rng.next_u64());
    let b = random_matrix(n, n, rng.next_u64());

    // The plain single-threaded baseline and the kernel the executor uses.
    let blocked = median_of_walls(reps.heavy, || square_gemm(GemmKernel::Blocked, &a, &b, tr));
    let parallel = median_of_walls(reps.heavy, || square_gemm(GemmKernel::Parallel, &a, &b, tr));
    sheet.put("matrix.blocked_1024.gflops", gflops(flops, blocked));
    sheet.put("matrix.parallel_1024.gflops", gflops(flops, parallel));
    sheet.put("matrix.parallel_speedup", blocked / parallel);

    // The machine's own ceilings, measured in this run.
    let triad = crate::machine::triad(machine, sz.quick);
    let peak = crate::machine::peak_gflops(machine.nproc, sz.quick);
    // Compulsory traffic of one N³ GEMM: read A and B, write C.
    let ops_per_byte = flops / (3.0 * (n * n * 8) as f64);
    sheet.put(
        "matrix.llc_mib",
        machine.llc_bytes as f64 / (1 << 20) as f64,
    );
    sheet.put(
        "matrix.triad.array_mib",
        triad.array_bytes as f64 / (1 << 20) as f64,
    );
    sheet.put("matrix.triad.gb_per_s", triad.gb_per_s);
    sheet.put("matrix.peak.gflops", peak);
    sheet.put("matrix.ops_per_byte_1024", ops_per_byte);
    sheet.put(
        "matrix.roofline_frac",
        gflops(flops, parallel) / peak.min(triad.gb_per_s * ops_per_byte),
    );

    // ABFT's own matrix work: checksum augmentation and residual scans.
    let full = augment_b(&augment_a(&a));
    let tol = abft_tolerance(n, 1.0);
    let verify = median_of(reps.light, || {
        let mut c = full.clone();
        black_box(tr.span("matrix.verify_and_correct", || {
            verify_and_correct(&mut c, tol)
        }));
    }) - median_of(reps.light, || {
        black_box(full.clone());
    });
    sheet.put(
        "matrix.abft_verify.gelem_per_s",
        (full.rows() * full.cols()) as f64 / verify.max(1e-9) / 1e9,
    );
    let augment = median_of(reps.light, || {
        black_box(tr.span("matrix.augment", || (augment_a(&a), augment_b(&b))));
    });
    // Each augmentation reads the panel and writes it back out.
    sheet.put(
        "matrix.abft_augment.gb_per_s",
        2.0 * 2.0 * (n * n * 8) as f64 / augment / 1e9,
    );

    // Per shape: the real multiply, plain and protected, and the solo
    // replay of each rank's GEMMs.
    let specs = paper_specs(n, tr);
    let (mut dense_s, mut abft_s, mut shares) = (vec![], vec![], vec![]);
    let (mut dist_s, mut asm_s, mut copy_shares) = (vec![], vec![], vec![]);
    let mut traffic = [(0u64, 0u64); 2];
    for (shape, spec) in &specs {
        let name = slug(*shape);
        for (protected, walls) in [(false, &mut dense_s), (true, &mut abft_s)] {
            let mut sample = Vec::new();
            let mut last = (0, 0);
            for _ in 0..reps.heavy {
                let t0 = Instant::now();
                let (_, msgs, bytes) = run_multiply(protected, *shape, spec, &a, &b, tr)
                    .unwrap_or_else(|why| panic!("replay multiply failed: {why}"));
                sample.push(t0.elapsed().as_secs_f64());
                last = (msgs, bytes);
            }
            traffic[protected as usize].0 += last.0;
            traffic[protected as usize].1 += last.1;
            let kind = if protected { "abft" } else { "dense" };
            sheet.put(format!("core.{kind}.{name}.multiply_s"), median(&sample));
            walls.push(median(&sample));
        }
        let multiply_s = *dense_s.last().expect("pushed above");

        let solo: Vec<f64> = (0..spec.nprocs)
            .map(|rank| {
                let replay = RankReplay::new(spec, rank, &a);
                median_of_walls(reps.light, || replay.run(n, tr))
            })
            .collect();
        let busy: f64 = solo.iter().sum();
        sheet.put(format!("matrix.rankblocks.{name}.busy_s"), busy);
        sheet.put(
            format!("matrix.rankblocks.{name}.gflops"),
            gflops(flops, busy),
        );
        shares.push(solo.iter().copied().fold(0.0, f64::max) / multiply_s);

        // The copies on either side of the stages.
        let dist = median_of(reps.light, || {
            black_box(tr.span("core.distribute", || distribute(spec, &a, &b)));
        });
        let per_rank: Vec<Vec<_>> = (0..spec.nprocs)
            .map(|r| {
                spec.blocks_of(r)
                    .into_iter()
                    .map(|blk| (blk, a.submatrix(blk.row, blk.col, blk.rows, blk.cols)))
                    .collect()
            })
            .collect();
        let asm = median_of(reps.light, || {
            black_box(tr.span("core.assemble", || assemble(spec, &per_rank)));
        });
        dist_s.push(dist);
        asm_s.push(asm);
        copy_shares.push((dist + asm) / multiply_s);
    }
    sheet.put("matrix.gemm_share", median(&shares));
    sheet.put("core.copy_share", median(&copy_shares));
    sheet.put("core.distribute.s", median(&dist_s));
    sheet.put("core.assemble.s", median(&asm_s));
    sheet.put("core.abft_overhead", median(&abft_s) / median(&dense_s));
    // Exact: what one round of the four shapes puts on the wire.
    sheet.put("comm.dense.msgs", traffic[0].0 as f64);
    sheet.put("comm.dense.bytes", traffic[0].1 as f64);
    sheet.put("comm.abft.msgs", traffic[1].0 as f64);
    sheet.put("comm.abft.bytes", traffic[1].1 as f64);

    // The recovery-capable executor over both transports, half size.
    let h = n / 2;
    let (ah, bh) = (
        random_matrix(h, h, rng.next_u64()),
        random_matrix(h, h, rng.next_u64()),
    );
    let recover_on = |backend: Backend| {
        let opts = RecoveryOptions {
            backend,
            ..RecoveryOptions::default()
        };
        recovery_multiply(&ah, &bh, &opts, tr);
    };
    sheet.put(
        "core.recovery_tcp_ratio",
        on_off_ratio(
            reps.heavy.max(3),
            median,
            || recover_on(Backend::Channel),
            || recover_on(Backend::Tcp),
        ),
    );
}

/// One fault-free multiply through the recovery-capable executor.
fn recovery_multiply(a: &DenseMatrix, b: &DenseMatrix, opts: &RecoveryOptions, tr: &Tracer) {
    let out = tr.span("core.multiply_with_recovery", || {
        multiply_with_recovery(
            Shape::SquareCorner,
            &SPEEDS,
            a,
            b,
            ExecutionMode::Real,
            ZeroCost,
            &[],
            opts,
        )
    });
    black_box(out.expect("fault-free recovery run failed"));
}

/// Rotating-root broadcasts of `elems` f64: GB/s delivered to receivers.
fn bcast_gb_per_s(backend: Backend, elems: usize, steps: usize, reps: usize, tr: &Tracer) -> f64 {
    let universe = Universe::new(3, ZeroCost).with_backend(backend);
    let template = vec![1.5f64; elems];
    let wall = median_of(reps, || {
        tr.span("comm.run", || {
            universe.run(|mut comm| {
                let mut sum = 0.0;
                for s in 0..steps {
                    let payload = if comm.rank() == s % 3 {
                        Payload::F64(template.clone())
                    } else {
                        Payload::F64(Vec::new())
                    };
                    sum += comm.bcast(s % 3, payload).into_f64()[s % elems];
                }
                black_box(sum)
            })
        });
    });
    2.0 * (steps * elems * 8) as f64 / wall / 1e9
}

/// `iters` 8-byte round trips between two ranks.
fn pingpong(universe: &Universe, iters: usize, tr: &Tracer) {
    tr.span("comm.run", || {
        universe.run(|comm| {
            for i in 0..iters as u64 {
                if comm.rank() == 0 {
                    comm.send(1, i, Payload::U64(vec![i]));
                    black_box(comm.recv(1, i));
                } else {
                    let got = comm.recv(0, i);
                    comm.send(0, i, got);
                }
            }
        })
    });
}

fn comm(sheet: &mut Sheet, sz: &Sizes, reps: Reps, tr: &Tracer) {
    let (small_steps, big_steps, iters, runs) = if sz.quick {
        (60, 3, 200, 3)
    } else {
        (1500, 24, 2000, 7)
    };
    for (backend, tag) in [(Backend::Channel, ""), (Backend::Tcp, "_tcp")] {
        // TCP moves a third of the steps: it is several times slower.
        let div = if backend == Backend::Tcp { 3 } else { 1 };
        sheet.put(
            format!("comm.bcast_64kib.gb_per_s{tag}"),
            bcast_gb_per_s(backend, 8 << 10, small_steps / div, reps.heavy, tr),
        );
        sheet.put(
            format!("comm.bcast_8mib.gb_per_s{tag}"),
            bcast_gb_per_s(backend, 1 << 20, big_steps / div, reps.heavy, tr),
        );
        // One-way microseconds per message. Bimodal by thread placement
        // (same core vs across cores), hence min and median of the runs —
        // and hence a layer number only, never an end-to-end one.
        let universe = Universe::new(2, ZeroCost).with_backend(backend);
        pingpong(&universe, iters, tr);
        let per_msg: Vec<f64> = time_reps(runs, || pingpong(&universe, iters, tr))
            .into_iter()
            .map(|wall| wall / (2 * iters) as f64 * 1e6)
            .collect();
        sheet.put(
            format!("comm.pingpong_8b.us_min{tag}"),
            per_msg.iter().copied().fold(f64::INFINITY, f64::min),
        );
        sheet.put(format!("comm.pingpong_8b.us_p50{tag}"), median(&per_msg));
        let three = Universe::new(3, ZeroCost).with_backend(backend);
        sheet.put(
            format!("comm.spawn{tag}.us"),
            median_of(if sz.quick { 5 } else { 40 }, || {
                tr.span("comm.run", || three.run(|comm| black_box(comm.rank())));
            }) * 1e6,
        );
    }
    // The promoted `#[ignore]`d overhead test: metered over bare, best of
    // the runs each, the two alternating.
    let bare = Universe::new(2, ZeroCost);
    let metered = Universe::new(2, ZeroCost).with_metrics(RuntimeMetrics::fresh());
    pingpong(&bare, iters, tr);
    sheet.put(
        "comm.pingpong_metered_ratio",
        on_off_ratio(
            runs,
            min_of_samples,
            || pingpong(&bare, iters, tr),
            || pingpong(&metered, iters, tr),
        ),
    );
    // Computed, not measured: one plain multiply's wire share, were its
    // traffic to move at the measured large-broadcast rate and latency.
    let per_multiply = |name: &str| sheet.get(name) / 4.0;
    let wire = per_multiply("comm.dense.bytes") / (sheet.get("comm.bcast_8mib.gb_per_s") * 1e9)
        + per_multiply("comm.dense.msgs") * sheet.get("comm.pingpong_8b.us_p50") * 1e-6;
    sheet.put("comm.dense.wire_s_computed", wire);
}

/// Virtual makespan of `simulate` on a constant-speed platform calibrated
/// from this run's solo GEMM rates and a Hockney model from this run's
/// comm numbers, over the measured multiply wall; median over shapes.
/// Says how far the repo's virtual-clock results are from this box.
fn model_error(sheet: &mut Sheet, sz: &Sizes, tr: &Tracer) {
    let cost = HockneyModel::from_latency_bandwidth(
        sheet.get("comm.pingpong_8b.us_p50") * 1e-6,
        sheet.get("comm.bcast_8mib.gb_per_s") * 1e9,
    );
    let ratios: Vec<f64> = paper_specs(sz.n, tr)
        .iter()
        .map(|(shape, spec)| {
            let name = slug(*shape);
            // Every rank is the same silicon here: one measured speed.
            let speed = sheet.get(&format!("matrix.rankblocks.{name}.gflops")) * 1e9;
            let mut platform = hclserver1();
            for p in &mut platform.processors {
                p.speed = Arc::new(ConstantSpeed::new(speed));
            }
            let virt = tr
                .span("core.simulate", || simulate(spec, &platform, cost))
                .exec_time;
            virt / sheet.get(&format!("core.dense.{name}.multiply_s"))
        })
        .collect();
    sheet.put("core.model_error", median(&ratios));
}

fn span_median_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect();
    median(&d)
}

/// One traced sweep of the paper's points, read back per stage.
fn sim(sheet: &mut Sheet, sz: &Sizes, tr: &Tracer) {
    let platform = hclserver1();
    let points = paper_points();
    let stride = if sz.quick { 8 } else { 1 };
    for p in points.into_iter().step_by(stride) {
        black_box(simulate_point(p, &platform, tr));
    }
    // The sweep's stage spans are the direct children of this section's.
    let section = tr.current();
    let spans: Vec<Span> = tr
        .finish()
        .into_iter()
        .filter(|s| s.parent == section)
        .collect();
    sheet.put(
        "partition.build.us",
        span_median_us(&spans, "partition.build"),
    );
    sheet.put(
        "partition.fpm_areas.us",
        span_median_us(&spans, "partition.fpm_areas"),
    );
    sheet.put(
        "platform.fpm_sample.us",
        span_median_us(&spans, "platform.fpm_sample"),
    );
    sheet.put("core.simulate.us", span_median_us(&spans, "core.simulate"));
}

/// The SLO policy of `reproduce insight`: availability for the free tier,
/// latency, availability and deadline objectives for the enterprise tier.
fn slo_policy() -> SloPolicy {
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
        burn: BurnConfig::default(),
    }
}

fn service_and_durable(sheet: &mut Sheet, rng: &mut SplitMix, sz: &Sizes, reps: Reps, tr: &Tracer) {
    let gen_s = median_of(reps.light, || {
        black_box(job_stream(sz.jobs, tr));
    });
    sheet.put("service.generate.s", gen_s);
    let stream = job_stream(sz.jobs, tr);
    let jobs = stream.len() as f64;
    let run_bare = |policy: Policy, stream: &[JobSpec]| {
        let jobs = stream.to_vec();
        tr.span("service.run", || fresh_service(policy).run(jobs))
    };

    for policy in Policy::ALL {
        let wall = median_of(reps.heavy, || {
            black_box(run_bare(policy, &stream));
        });
        sheet.put(format!("service.{}.jobs_per_s", policy.name()), jobs / wall);
    }
    let report = run_bare(Policy::FpmAware, &stream);
    sheet.put("service.batches", report.batches as f64);
    sheet.put("service.rejected", report.rejections.len() as f64);
    sheet.put("service.retries", report.retries as f64);

    // Planning alone: the FPM-aware placement search, per job.
    let sample = &stream[..stream.len().min(2_000)];
    let plan_s = median_of(reps.light, || {
        let mut pool = DevicePool::from_platform(&hclserver1(), POOL_ALPHA, POOL_BETA);
        for job in sample {
            black_box(tr.span("service.plan", || {
                plan(Policy::FpmAware, &mut pool, job, job.submit_time)
            }));
            commit(Policy::FpmAware, &mut pool);
        }
    });
    sheet.put("service.plan.us", plan_s / sample.len() as f64 * 1e6);

    // All four degradation mechanisms under five times the arrival rate.
    // A twentieth of the stream: this path runs ~400 jobs/s (sized, linear
    // in the job count), sixty times slower than the bare scheduler.
    let mut hot = hetero_mix();
    hot.jobs = (sz.jobs / 20).max(50);
    hot.arrival_rate *= 5.0;
    let hot = summagen_service::generate(&hot);
    let degraded = ServiceConfig {
        degrade: DegradeConfig::standard(),
        ..*fresh_service(Policy::FpmAware).config()
    };
    let wall = median_of(1, || {
        let pool = DevicePool::from_platform(&hclserver1(), POOL_ALPHA, POOL_BETA);
        let jobs = hot.clone();
        black_box(tr.span("service.run", || GemmService::new(pool, degraded).run(jobs)));
    });
    sheet.put("service.degrade.jobs_per_s", hot.len() as f64 / wall);

    // The price of watching the scheduler: metrics + spans, then SLOs.
    let mix = hetero_mix();
    let tenants = mix.tenant_names();
    let devices: Vec<&'static str> =
        DevicePool::from_platform(&hclserver1(), POOL_ALPHA, POOL_BETA)
            .devices()
            .iter()
            .map(|d| d.name)
            .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let bundle = ServiceMetrics::register(&registry, &tenants, &devices);
    // One round-robin for the three ratios, so they share their baseline.
    let cfg = GroupCommitConfig::default();
    let walls = round_robin(
        reps.heavy,
        median,
        &mut [
            &mut || {
                black_box(run_bare(Policy::FpmAware, &stream));
            },
            &mut || {
                let mut svc = fresh_service(Policy::FpmAware)
                    .with_metrics(Arc::clone(&bundle))
                    .with_sink(TraceRecorder::new(devices.len()));
                let jobs = stream.clone();
                black_box(tr.span("service.run", || svc.run(jobs)));
            },
            &mut || {
                let mut svc = fresh_service(Policy::FpmAware).with_slo(slo_policy());
                let jobs = stream.clone();
                black_box(tr.span("service.run", || svc.run(jobs)));
            },
            // The journal beside the scheduler.
            &mut || {
                let mut svc = fresh_service(Policy::FpmAware);
                let (jobs, journal) = (stream.clone(), Journal::new(cfg));
                black_box(tr.span("service.run_durable", || {
                    svc.run_durable(jobs, journal, None)
                }));
            },
        ],
    );
    sheet.put("service.observed_ratio", walls[1] / walls[0]);
    sheet.put("insight.slo_ratio", walls[2] / walls[0]);
    sheet.put("durable.overhead_ratio", walls[3] / walls[0]);
    sheet.put(
        "metrics.render.us",
        median_of(reps.light.max(3), || {
            black_box(summagen_metrics::prometheus::render(&registry));
        }) * 1e6,
    );
    let control = control_run(&stream, tr);
    let bytes = &control.journal;
    let mb = bytes.len() as f64 / 1e6;
    let records: Vec<JournalRecord> = decode_frames(bytes)
        .payloads
        .iter()
        .filter_map(|p| JournalRecord::decode(p))
        .collect();
    let append = median_of(reps.heavy, || {
        let mut journal = Journal::new(cfg);
        tr.span("durable.append", || {
            for (i, rec) in records.iter().enumerate() {
                let now = rec.instant();
                journal.append(now, rec);
                if i % cfg.max_batch == cfg.max_batch - 1 {
                    journal.commit(now);
                }
            }
            journal.commit(f64::INFINITY);
        });
        black_box(journal.durable_bytes());
    });
    sheet.put(
        "durable.append.records_per_s",
        records.len() as f64 / append,
    );
    sheet.put("durable.append.mb_per_s", mb / append);
    sheet.put(
        "durable.replay.mb_per_s",
        mb / median_of(reps.heavy, || {
            black_box(tr.span("durable.replay", || replay(bytes)));
        }),
    );
    sheet.put(
        "durable.decode.mb_per_s",
        mb / median_of(reps.heavy, || {
            black_box(tr.span("durable.decode_frames", || decode_frames(bytes)));
        }),
    );
    sheet.put("durable.records", control.records as f64);
    sheet.put("durable.journal_bytes", bytes.len() as f64);
    // One crash ladder, for what its restarts had to read back.
    let mut ladder = crate::workloads::build("durable-hetero", rng.next_u64(), sz, tr)
        .expect("durable-hetero is a workload");
    ladder.rep(tr);
    let replayed = ladder
        .counts()
        .into_iter()
        .find(|(k, _)| k == "ladder_replayed_bytes")
        .and_then(|(_, v)| v.as_f64())
        .expect("durable-hetero reports ladder_replayed_bytes");
    sheet.put("durable.replayed_bytes", replayed);
}

fn telemetry(sheet: &mut Sheet, rng: &mut SplitMix, sz: &Sizes, reps: Reps, tr: &Tracer) {
    let h = sz.n / 2;
    let (a, b) = (
        random_matrix(h, h, rng.next_u64()),
        random_matrix(h, h, rng.next_u64()),
    );
    let off = Tracer::new(false, "");
    let specs = paper_specs(h, &off);
    let spec = &specs[0].1;
    let cost = HockneyModel::intra_node();
    let pairs = reps.heavy.max(3) + 2;
    sheet.put(
        "trace.traced_ratio",
        on_off_ratio(
            pairs,
            median,
            || {
                black_box(tr.span("core.multiply_with_cost", || {
                    multiply_with_cost(spec, &a, &b, ExecutionMode::Real, cost)
                }));
            },
            || {
                let sink = TraceRecorder::new(spec.nprocs);
                black_box(tr.span("core.multiply_traced", || {
                    multiply_traced(spec, &a, &b, ExecutionMode::Real, cost, sink)
                }));
            },
        ),
    );
    let platform = hclserver1();
    let big = &paper_specs(if sz.quick { 2_048 } else { 25_600 }, &off)[0].1;
    sheet.put(
        "trace.sim_traced_ratio",
        on_off_ratio(
            pairs * 4,
            median,
            || {
                black_box(tr.span("core.simulate", || simulate(big, &platform, cost)));
            },
            || {
                let sink = TraceRecorder::new(big.nprocs);
                black_box(tr.span("core.simulate_instrumented", || {
                    simulate_instrumented(big, &platform, cost, sink)
                }));
            },
        ),
    );
    let recover = |metrics: Option<Arc<RuntimeMetrics>>| {
        let opts = RecoveryOptions {
            metrics,
            ..RecoveryOptions::default()
        };
        recovery_multiply(&a, &b, &opts, tr);
    };
    sheet.put(
        "metrics.metered_ratio",
        on_off_ratio(
            pairs,
            median,
            || recover(None),
            || recover(Some(RuntimeMetrics::fresh())),
        ),
    );
}

/// The `workload.*` metrics: where the traced workload's driver-thread
/// time went, by layer, from the spans under `root`.
pub fn workload_metrics(spans: &[Span], root: u32) -> Vec<Metric> {
    let layers = crate::span::layer_self_seconds(spans, root);
    let wall = spans
        .iter()
        .find(|s| s.id == root)
        .map_or(0.0, |s| s.dur_ns() as f64 * 1e-9);
    let mut sheet = Sheet(Vec::new());
    sheet.put("workload.wall_s", wall);
    for layer in LAYERS {
        sheet.put(
            format!("workload.self_s.{layer}"),
            layers.get(layer).copied().unwrap_or(0.0),
        );
    }
    // Self times must add back up to the root span: the accounting check.
    let total: f64 = layers.values().sum();
    sheet.put(
        "workload.self_gap",
        if wall > 0.0 {
            (total - wall).abs() / wall
        } else {
            0.0
        },
    );
    sheet.0
}
