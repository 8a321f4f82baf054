//! The executor's data path after ISSUE 15: panels are shared, not copied.
//!
//! `distribute` cuts every sub-partition once into a reference-counted
//! buffer, the broadcast stages hand that buffer around, and stage 3 runs
//! one kernel call per k-segment straight out of the received blocks. These
//! tests pin what that must not change (every bit of `C`, every message and
//! byte, one GEMM span per block) and what it must guarantee (the buffer
//! really is shared; injected corruption stays with the rank it was
//! addressed to).

use std::sync::Arc;

use proptest::prelude::*;
use rand::prelude::*;
use summagen_comm::{
    Backend, BcastAlgorithm, FaultPlan, HockneyModel, Payload, RuntimeMetrics, SpanKind, Universe,
    ZeroCost,
};
use summagen_core::{
    multiply, multiply_abft, multiply_abft_prefix, multiply_panelled, multiply_traced,
    multiply_with_cost, multiply_with_options, multiply_with_recovery, panel_boundaries, simulate,
    simulate_instrumented, simulate_with_options, summa_multiply, summa_simulate, AbftOptions,
    ExecutionMode, RecoveryOptions, RunOptions, RunResult,
};
use summagen_durable::fnv1a_words;
use summagen_matrix::{gemm_blocked, random_matrix, DenseMatrix, GemmKernel};
use summagen_partition::{proportional_areas, PartitionSpec, Shape, ALL_FOUR_SHAPES};
use summagen_platform::profile::hclserver1;
use summagen_trace::TraceRecorder;

const SPEEDS: [f64; 3] = [1.0, 2.0, 0.9];

fn digest(c: &DenseMatrix) -> u64 {
    let bits: Vec<u64> = c.as_slice().iter().map(|x| x.to_bits()).collect();
    fnv1a_words(&bits)
}

fn inputs(n: usize) -> (DenseMatrix, DenseMatrix) {
    (
        random_matrix(n, n, 1000 + n as u64),
        random_matrix(n, n, 2000 + n as u64),
    )
}

fn paper_spec(shape: Shape, n: usize) -> PartitionSpec {
    shape.build(n, &proportional_areas(n, &SPEEDS))
}

/// What one matrix size must reproduce: `n`, `fnv1a_words` of `C`'s bits
/// for `inputs(n)`, and per paper shape (in `ALL_FOUR_SHAPES` order) the
/// messages and bytes one `multiply` sends.
type Golden = (usize, u64, [(u64, u64); 4]);

/// Captured at the commit before the panels were shared (69035a7). Every
/// element of `C` is one ascending-`k` sum whatever the partition, so one
/// digest serves the four shapes.
const GOLDEN: [Golden; 3] = [
    (
        96,
        0xd597b120d1d5e070,
        [(12, 145_920), (11, 144_384), (6, 109_824), (6, 147_456)],
    ),
    (
        257,
        0xea2523c2b63ea5aa,
        [
            (12, 1_040_336),
            (11, 1_034_168),
            (6, 785_392),
            (6, 1_056_784),
        ],
    ),
    (
        333,
        0x5452cf72dee53a71,
        [
            (12, 1_752_912),
            (11, 1_739_592),
            (6, 1_318_680),
            (6, 1_774_224),
        ],
    ),
];

/// `(messages, bytes, exec_time bits)` of one run priced with
/// `HockneyModel::intra_node()`.
type Priced = (u64, u64, u64);

fn priced(run: &RunResult) -> Priced {
    let msgs = run.traffic.iter().map(|t| t.msgs_sent).sum();
    let bytes = run.traffic.iter().map(|t| t.bytes_sent).sum();
    (msgs, bytes, run.exec_time.to_bits())
}

/// What the panel loop must reproduce for one paper shape at one size:
/// `multiply_panelled`'s [`Priced`], a clean `multiply_abft`'s, that run's
/// `(checkpoints, panels_executed, Abft spans)`, and the digest of the
/// k-prefix of `C` that `multiply_abft_prefix` parks at the first panel
/// boundary.
type PanelGolden = (Priced, Priced, (usize, usize, usize), u64);

/// Captured at f011ee1, while the panelled and the protected executor each
/// had a rank loop of their own; `ALL_FOUR_SHAPES` order, for `GOLDEN[0]` and `GOLDEN[1]`.
const PANEL_GOLDEN: [[PanelGolden; 4]; 2] = [
    [
        (
            (12, 145_920, 0x3f20b9f99ae7f695),
            (12, 153_648, 0x3f2236b4282d7418),
            (1, 3, 24),
            0x9209823a8cbc6fd8,
        ),
        (
            (13, 144_384, 0x3f20e9a62f25c8c2),
            (13, 152_440, 0x3f21e93320430a79),
            (1, 3, 25),
            0x64f3b362608248a6,
        ),
        (
            (8, 109_824, 0x3f1950ad185bd458),
            (8, 115_248, 0x3f1aab669b7685c8),
            (0, 2, 14),
            0x9ca8258f2aac002b,
        ),
        (
            (6, 147_456, 0x3f1a8e49fae2ef2b),
            (6, 153_648, 0x3f1cc91034129cb4),
            (1, 3, 18),
            0x64f3b362608248a6,
        ),
    ],
    [
        (
            (12, 1_040_336, 0x3f37789b05fb22be),
            (12, 1_060_800, 0x3f3c1e9de9a437c8),
            (1, 3, 24),
            0x99a443f7c6fdce30,
        ),
        (
            (13, 1_034_168, 0x3f384aca5fa75de8),
            (13, 1_055_552, 0x3f3b2a549ca25321),
            (1, 3, 25),
            0x61cfa91331987299,
        ),
        (
            (8, 785_392, 0x3f3511154361933e),
            (8, 799_792, 0x3f36f309ee028bfe),
            (0, 2, 14),
            0xb78145faa7735006,
        ),
        (
            (6, 1_056_784, 0x3f3b6c2d7fdeeb30),
            (6, 1_073_280, 0x3f3ec32e7b590ae1),
            (1, 3, 18),
            0xa1a3c3d2fc47c090,
        ),
    ],
];

/// The one panel loop, bare and protected, against what its two
/// predecessors produced: `want` is the digest of the full product.
fn the_panel_loop_matches_both_of_its_predecessors(
    shape: Shape,
    (a, b): (&DenseMatrix, &DenseMatrix),
    want: u64,
    (panelled, protected, protection, prefix): PanelGolden,
) {
    let n = a.rows();
    let ctx = format!("{} at n = {n}", shape.name());
    let cost = HockneyModel::intra_node();
    let real = ExecutionMode::Real;
    let abft = AbftOptions::default();

    let run = multiply_panelled(&paper_spec(shape, n), a, b, GemmKernel::Blocked, cost);
    assert_eq!(digest(&run.c), want, "{ctx}: panelled C");
    assert_eq!(priced(&run), panelled, "{ctx}: panelled");

    let recorder = TraceRecorder::new(SPEEDS.len());
    let opts = RunOptions {
        sink: Some(recorder.clone() as Arc<_>),
        ..RunOptions::default()
    };
    let run = multiply_abft(shape, &SPEEDS, a, b, real, cost, &[], &opts, &abft)
        .expect("fault-free protected run");
    assert_eq!(digest(&run.run.c), want, "{ctx}: protected C");
    assert_eq!(priced(&run.run), protected, "{ctx}: protected");
    let abft_spans = recorder
        .finish()
        .iter()
        .filter(|ts| matches!(ts.record.kind, SpanKind::Abft { .. }))
        .count();
    assert_eq!(
        (run.abft.checkpoints, run.abft.panels_executed, abft_spans),
        protection,
        "{ctx}: checkpoints, panels, Abft spans"
    );

    let boundary = panel_boundaries(shape, n, &SPEEDS)[0];
    let parked = multiply_abft_prefix(shape, &SPEEDS, a, b, real, cost, &abft, None, boundary)
        .expect("fault-free first segment");
    assert_eq!((parked.k, digest(&parked.c)), (boundary, prefix), "{ctx}");
    let resumed = multiply_abft_prefix(shape, &SPEEDS, a, b, real, cost, &abft, Some(&parked), n)
        .expect("fault-free second segment");
    assert_eq!((resumed.k, digest(&resumed.c)), (n, want), "{ctx}: resumed");
}

/// A kill that strikes after a checkpoint: the survivors' grid has no
/// panel boundary at the restored `k`, so the retry's first panel runs
/// partially and its `A` blocks travel as column slices. The shape, the
/// `(rank, op)` killed, the `resume_k` the retry starts from and the
/// retry's [`Priced`].
type ResumedGolden = (Shape, (usize, u64), usize, Priced);

/// Captured at 8c9d88c, while every protected panel was cut, augmented and
/// copied on each step, for `inputs(48)` under `HockneyModel::intra_node()`
/// with a checkpoint at every panel boundary. Resumed or not, every element
/// of `C` is one ascending-`k` sum: all three carry the clean digest.
const RESUMED_GOLDEN: [ResumedGolden; 3] = [
    (
        Shape::SquareCorner,
        (0, 2),
        24,
        (2, 10_192, 0x3fe00038e2f21388),
    ),
    (
        Shape::BlockRectangle,
        (2, 2),
        22,
        (2, 10_976, 0x3fe0003995d4bc50),
    ),
    (
        Shape::OneDRectangular,
        (1, 1),
        12,
        (2, 14_896, 0x3fe0003d14420836),
    ),
];

/// The digest of `C` for `inputs(48)`, whatever the partition.
const CLEAN_48: u64 = 0x1f25eb8c7a8d3332;

#[test]
fn a_resumed_partial_first_panel_matches_the_goldens() {
    let n = 48;
    let (a, b) = inputs(n);
    let abft = AbftOptions {
        checkpoint_interval: 1,
        ..AbftOptions::default()
    };
    let opts = RecoveryOptions {
        recv_timeout: std::time::Duration::from_millis(2_000),
        ..RecoveryOptions::default()
    };
    let (real, cost) = (ExecutionMode::Real, HockneyModel::intra_node());
    for (shape, (rank, op), resume_k, traffic) in RESUMED_GOLDEN {
        let plan = [FaultPlan::new().kill_rank(rank, op)];
        let res = multiply_abft(shape, &SPEEDS, &a, &b, real, cost, &plan, &opts, &abft)
            .expect("recovery absorbs the kill");
        let rec = res.run.recovery.as_ref().expect("a retry happened");
        let speeds: Vec<f64> = rec.surviving_devices.iter().map(|&d| SPEEDS[d]).collect();
        let ctx = format!("{} with rank {rank} killed at op {op}", shape.name());
        assert!(
            !panel_boundaries(shape, n, &speeds).contains(&res.abft.resume_k),
            "{ctx}: the retry's first panel is whole"
        );
        assert_eq!(
            (res.abft.attempts, res.abft.resume_k, priced(&res.run)),
            (2, resume_k, traffic),
            "{ctx}: attempts, resume_k, priced"
        );
        assert_eq!(digest(&res.run.c), CLEAN_48, "{ctx}: C");
    }
}

/// Wire corruption of the first message on one link of block-rectangle
/// (row cuts 25 | 23, column cuts 22 | 26). From rank 1 to rank 0 that is
/// the first 22 rows of `B(0, 1)`, a row slice (23 × 27 with its transit
/// sums); from rank 2 to rank 0 the whole of `A(1, 0)` (24 × 23). The link,
/// the element hit, the corrections the run reports, its `exec_time` bits
/// and the digest of `C`.
type WireGolden = ((usize, usize), u64, u64, u64, u64);

/// Captured at 8c9d88c. A hit checksum entry is put back exactly, so `C`
/// keeps the clean bits; a hit data entry is put back to within rounding
/// (its error is the mean of two residuals), which moves `C`'s digest.
const WIRE_GOLDEN: [WireGolden; 6] = [
    // B(0, 1) rows 0..22: data (3, 5), row sum of row 4, column sum 10.
    (
        (1, 0),
        3 * 27 + 5,
        1,
        0x3f129385a24e9b85,
        0x9f04a69bfad35a5e,
    ),
    ((1, 0), 4 * 27 + 26, 1, 0x3f129385a24e9b85, CLEAN_48),
    ((1, 0), 22 * 27 + 10, 1, 0x3f129385a24e9b85, CLEAN_48),
    // A(1, 0): data (5, 7), row sum of row 2, column sum 4.
    (
        (2, 0),
        5 * 23 + 7,
        1,
        0x3f12938232b2a04a,
        0x8c6e39f62face3a1,
    ),
    ((2, 0), 2 * 23 + 22, 1, 0x3f12938232b2a04a, CLEAN_48),
    ((2, 0), 23 * 23 + 4, 1, 0x3f12938232b2a04a, CLEAN_48),
];

#[test]
fn wire_corruption_of_a_row_slice_or_a_whole_block_matches_the_goldens() {
    let n = 48;
    let (a, b) = inputs(n);
    let shape = Shape::BlockRectangle;
    let spec = paper_spec(shape, n);
    assert_eq!(
        (&spec.heights[..], &spec.widths[..]),
        (&[25, 23][..], &[22, 26][..])
    );
    let (real, cost) = (ExecutionMode::Real, HockneyModel::intra_node());
    let (opts, abft) = (RecoveryOptions::default(), AbftOptions::default());
    let run = |faults: &[FaultPlan]| {
        multiply_abft(shape, &SPEEDS, &a, &b, real, cost, faults, &opts, &abft)
            .expect("a corrected run needs no retry")
    };
    let clean = run(&[]);
    assert_eq!(digest(&clean.run.c), CLEAN_48);
    for ((src, dst), elem, corrected, exec_time, c) in WIRE_GOLDEN {
        let hit = run(&[FaultPlan::new().corrupt_message(src, dst, 0, elem, 0.625)]);
        let ctx = format!("message {src} -> {dst}, element {elem}");
        assert_eq!(
            (hit.abft.attempts, hit.abft.detected, hit.abft.corrected),
            (1, corrected, corrected),
            "{ctx}: attempts, detected, corrected"
        );
        let (msgs, bytes, _) = priced(&clean.run);
        assert_eq!(priced(&hit.run), (msgs, bytes, exec_time), "{ctx}: priced");
        assert_eq!(digest(&hit.run.c), c, "{ctx}: C");
    }
}

/// `(n, pr, pc, nb)`, the digest of `C` for `inputs(n)` and the run's
/// [`Priced`].
type SummaGolden = ((usize, usize, usize, usize), u64, Priced);

/// Captured at f011ee1, while SUMMA built its own universe.
const SUMMA_GOLDEN: [SummaGolden; 3] = [
    (
        (32, 2, 2, 8),
        0xf063316b1eb3d6fe,
        (16, 16_384, 0x3f15d49c87b226df),
    ),
    (
        (30, 3, 2, 4),
        0x92e8be228b6df40b,
        (70, 21_600, 0x3f334034df96e51c),
    ),
    (
        (40, 4, 1, 3),
        0xd14a3e97f4258bd9,
        (48, 38_400, 0x3f3e7900b6a30393),
    ),
];

/// Classic SUMMA on the engine's launcher is classic SUMMA: products,
/// traffic and virtual time, real and at paper scale.
#[test]
fn classic_summa_matches_the_goldens_on_the_engines_launcher() {
    let cost = HockneyModel::intra_node();
    for ((n, pr, pc, nb), want, traffic) in SUMMA_GOLDEN {
        let (a, b) = inputs(n);
        let run = summa_multiply(&a, &b, pr, pc, nb, cost);
        let ctx = format!("n = {n}, {pr}x{pc} grid, nb = {nb}");
        assert_eq!(digest(&run.c), want, "{ctx}: C");
        assert_eq!(priced(&run), traffic, "{ctx}");
    }
    let sim = summa_simulate(8_192, 1, 3, 512, &hclserver1(), cost);
    assert_eq!(sim.exec_time.to_bits(), 0x3ff0bd5e5a5dcf20);
    assert_eq!(sim.clocks[0].comm_time.to_bits(), 0x3fd6a94150f6180d);
    let sim = summa_simulate(24_576, 1, 3, 1_024, &hclserver1(), cost);
    assert_eq!(sim.exec_time.to_bits(), 0x4034ab0bdfe00a54);
}

#[test]
fn products_and_traffic_match_the_goldens_on_both_backends() {
    for (size, (n, want, traffic)) in GOLDEN.into_iter().enumerate() {
        let (a, b) = inputs(n);
        for (at, (shape, (msgs, bytes))) in ALL_FOUR_SHAPES.into_iter().zip(traffic).enumerate() {
            if let Some(golden) = PANEL_GOLDEN.get(size) {
                the_panel_loop_matches_both_of_its_predecessors(shape, (&a, &b), want, golden[at]);
            }
            let ctx = format!("{} at n = {n}", shape.name());
            let run = multiply(&paper_spec(shape, n), &a, &b, ExecutionMode::Real);
            assert_eq!(digest(&run.c), want, "{ctx}: channel backend");
            let sent: u64 = run.traffic.iter().map(|t| t.msgs_sent).sum();
            assert_eq!(sent, msgs, "{ctx}: messages");
            let sent: u64 = run.traffic.iter().map(|t| t.bytes_sent).sum();
            assert_eq!(sent, bytes, "{ctx}: bytes");
            let tcp = multiply_with_recovery(
                shape,
                &SPEEDS,
                &a,
                &b,
                ExecutionMode::Real,
                ZeroCost,
                &[],
                &RecoveryOptions {
                    backend: Backend::Tcp,
                    ..Default::default()
                },
            )
            .expect("fault-free TCP run");
            assert_eq!(digest(&tcp.c), want, "{ctx}: TCP backend");
            // Options do not interact with the matrix size; once is enough.
            if n == GOLDEN[0].0 {
                wrappers_are_the_engine_with_equivalent_options(shape, &a, &b, &run);
            }
        }
    }
}

/// Every fixed-signature entry point is `multiply_with_options` with the
/// equivalent options: the same bits of `C`, the same per-rank clocks and
/// the same traffic, on the channel backend and over TCP. `plain` is what
/// `multiply` returned for the same inputs.
fn wrappers_are_the_engine_with_equivalent_options(
    shape: Shape,
    a: &DenseMatrix,
    b: &DenseMatrix,
    plain: &RunResult,
) {
    let n = a.rows();
    let spec = paper_spec(shape, n);
    let real = ExecutionMode::Real;
    // A cost model that moves the clocks; under `ZeroCost` they all read 0.
    let cost = HockneyModel::intra_node();
    let same = |got: &RunResult, want: &RunResult, what: &str| {
        let ctx = format!("{what}: {} at n = {n}", shape.name());
        assert_eq!(digest(&got.c), digest(&want.c), "{ctx}: C");
        assert_eq!(got.clocks, want.clocks, "{ctx}: clocks");
        assert_eq!(got.traffic, want.traffic, "{ctx}: traffic");
        let times = |r: &RunResult| [r.exec_time, r.comp_time, r.comm_time].map(f64::to_bits);
        assert_eq!(times(got), times(want), "{ctx}: folded times");
    };
    let with = |opts: &RunOptions| {
        multiply_with_options(&spec, a, b, real, cost, opts).expect("fault-free run")
    };

    let free = multiply_with_options(&spec, a, b, real, ZeroCost, &RunOptions::default())
        .expect("fault-free run");
    same(plain, &free, "multiply");
    let priced = with(&RunOptions::default());
    assert!(
        priced.comm_time > 0.0,
        "the cost model must move the clocks"
    );
    same(
        &multiply_with_cost(&spec, a, b, real, cost),
        &priced,
        "multiply_with_cost",
    );
    // Watching a run changes nothing it reports.
    let recorder = TraceRecorder::new(spec.nprocs);
    let traced = multiply_traced(&spec, a, b, real, cost, recorder.clone() as Arc<_>);
    same(&traced, &priced, "multiply_traced");
    let observed = with(&RunOptions {
        sink: Some(TraceRecorder::new(spec.nprocs) as Arc<_>),
        metrics: Some(RuntimeMetrics::fresh()),
        ..RunOptions::default()
    });
    same(&observed, &priced, "sink + metrics");
    for backend in [Backend::Channel, Backend::Tcp] {
        let opts = RunOptions {
            backend,
            ..RunOptions::default()
        };
        let recovering = multiply_with_recovery(shape, &SPEEDS, a, b, real, cost, &[], &opts)
            .expect("fault-free run");
        assert!(recovering.recovery.is_none());
        same(&recovering, &with(&opts), backend.name());
        same(&recovering, &priced, "virtual time is backend-blind");
    }
}

/// The phantom path's two fixed-signature entry points against
/// `simulate_with_options`: whatever is watching — a sink, a metrics
/// bundle, both or neither — `exec/comp/comm_time`
/// keep their bits, and so do the clocks and the traffic.
#[test]
fn simulate_is_the_engine_whatever_is_watching() {
    let platform = hclserver1();
    let cost = HockneyModel::intra_node();
    let n = 4_096;
    for shape in ALL_FOUR_SHAPES {
        let spec = paper_spec(shape, n);
        let plain = simulate(&spec, &platform, cost);
        assert!(plain.energy.is_none());
        let times = |r: &summagen_core::SimReport| {
            [r.exec_time, r.comp_time, r.comm_time].map(f64::to_bits)
        };
        let recorder = TraceRecorder::new(spec.nprocs);
        let instrumented = simulate_instrumented(&spec, &platform, cost, recorder as Arc<_>);
        assert_eq!(times(&instrumented), times(&plain), "{}", shape.name());
        for watching in 0..4u32 {
            let opts = RunOptions {
                sink: (watching & 1 != 0).then(|| TraceRecorder::new(spec.nprocs) as Arc<_>),
                metrics: (watching & 2 != 0).then(RuntimeMetrics::fresh),
                ..RunOptions::default()
            };
            let got = simulate_with_options(&spec, &platform, cost, &opts);
            let ctx = format!("{} with watchers {watching:02b}", shape.name());
            assert_eq!(times(&got), times(&plain), "{ctx}");
            assert_eq!(got.clocks, plain.clocks, "{ctx}");
            assert_eq!(got.traffic, plain.traffic, "{ctx}");
        }
    }
}

/// What lets the two recovery loops be one: the same kill, driven through
/// the restarting executor and through the checkpointing one, is told the
/// same way. Only `recompute_fraction` may differ (a resumed run executes
/// less), and here not even that: the rank dies before any checkpoint.
#[test]
fn both_recovering_executors_report_a_kill_the_same_way() {
    let n = 48;
    let (a, b) = inputs(n);
    let plan = [FaultPlan::new().kill_rank(1, 0)];
    let opts = RecoveryOptions {
        retry_backoff: 0.25,
        recv_timeout: std::time::Duration::from_millis(2_000),
        ..RecoveryOptions::default()
    };
    for shape in ALL_FOUR_SHAPES {
        let real = ExecutionMode::Real;
        let restarted =
            multiply_with_recovery(shape, &SPEEDS, &a, &b, real, ZeroCost, &plan, &opts)
                .expect("recovery absorbs the kill");
        let resumed = multiply_abft(
            shape,
            &SPEEDS,
            &a,
            &b,
            real,
            ZeroCost,
            &plan,
            &opts,
            &AbftOptions::default(),
        )
        .expect("recovery absorbs the kill");
        assert_eq!(
            digest(&restarted.c),
            digest(&resumed.run.c),
            "{}",
            shape.name()
        );
        assert_eq!(resumed.abft.attempts, 2);
        assert_eq!(resumed.abft.uncorrectable, 0);
        let (x, y) = (
            restarted.recovery.expect("a retry happened"),
            resumed.run.recovery.expect("a retry happened"),
        );
        assert_eq!(x.attempts, y.attempts);
        assert_eq!(x.failed_devices, y.failed_devices);
        assert_eq!(x.surviving_devices, y.surviving_devices);
        assert_eq!(x.final_loads, y.final_loads);
        assert_eq!(x.backoff_time.to_bits(), y.backoff_time.to_bits());
        assert_eq!(x.failure_causes, y.failure_causes, "{}", shape.name());
        assert_eq!(x.announced_failures, y.announced_failures);
        assert_eq!(x.detected_failures, y.detected_failures);
        assert_eq!(x.max_detection_latency, y.max_detection_latency);
        assert_eq!((x.recompute_fraction, y.recompute_fraction), (1.0, 1.0));
        assert_eq!(y.recompute_fraction, resumed.abft.recompute_fraction);
    }
}

/// A random valid partition: independent random row and column cuts (so
/// the k-segments of `A` and `B` interleave) and random owners, repaired so
/// that every processor owns a cell.
fn random_spec(n: usize, p: usize, seed: u64) -> PartitionSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let cuts = |parts: usize, rng: &mut StdRng| -> Vec<usize> {
        let mut points: Vec<usize> = (1..n).collect();
        points.shuffle(rng);
        points.truncate(parts - 1);
        points.sort_unstable();
        points.push(n);
        let mut prev = 0;
        points
            .into_iter()
            .map(|cut| {
                let size = cut - prev;
                prev = cut;
                size
            })
            .collect()
    };
    let heights = cuts(rng.random_range(1usize..=4), &mut rng);
    let widths = cuts(rng.random_range(1usize..=4), &mut rng);
    let cells = heights.len() * widths.len();
    let p = p.min(cells);
    let mut owners: Vec<usize> = (0..cells).map(|_| rng.random_range(0..p)).collect();
    // Deal the first `p` cells of a random order to distinct processors.
    let mut order: Vec<usize> = (0..cells).collect();
    order.shuffle(&mut rng);
    for (proc, &cell) in order.iter().take(p).enumerate() {
        owners[cell] = proc;
    }
    PartitionSpec::new(owners, heights, widths, p)
}

/// Every block of `c` against one `gemm_blocked` call over the block's
/// full operands: its `rows × n` band of `A` times its `n × cols` band of
/// `B`, read in place from the global matrices.
fn assert_blocks_match_one_gemm(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    c: &DenseMatrix,
) {
    let n = spec.n;
    for proc in 0..spec.nprocs {
        for blk in spec.blocks_of(proc) {
            let mut want = vec![0.0; blk.rows * blk.cols];
            gemm_blocked(
                blk.rows,
                blk.cols,
                n,
                1.0,
                &a.as_slice()[blk.row * n..],
                n,
                &b.as_slice()[blk.col..],
                n,
                0.0,
                &mut want,
                blk.cols,
            );
            let got = c.submatrix(blk.row, blk.col, blk.rows, blk.cols);
            for (k, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "block ({}, {}) element {k}, grid {:?} x {:?}, owners {:?}",
                    blk.block_i,
                    blk.block_j,
                    spec.heights,
                    spec.widths,
                    spec.owners
                );
            }
        }
    }
}

#[test]
fn hand_picked_grids_chain_to_the_bits_of_one_gemm() {
    let specs = [
        // One cell: a single segment, no communication at all.
        PartitionSpec::new(vec![0], vec![19], vec![19], 1),
        // Row cuts 5|14, column cuts 2|6|11: the middle `A` block straddles
        // the row cut; row 1 belongs to processor 1 alone (no broadcast).
        PartitionSpec::new(vec![0, 1, 0, 1, 1, 1], vec![5, 14], vec![2, 6, 11], 2),
        // A single grid row and a single grid column.
        PartitionSpec::new(vec![1, 0, 2], vec![12], vec![4, 4, 4], 3),
        PartitionSpec::new(vec![2, 0, 1], vec![3, 8, 1], vec![12], 3),
        // 1-wide and 1-tall blocks next to wide ones.
        PartitionSpec::new(
            vec![0, 1, 2, 3, 3, 2, 1, 0, 0],
            vec![1, 30, 2],
            vec![16, 1, 16],
            4,
        ),
    ];
    for spec in specs {
        let (a, b) = inputs(spec.n);
        for kernel in [GemmKernel::Blocked, GemmKernel::Parallel] {
            let run = multiply(&spec, &a, &b, ExecutionMode::RealWith(kernel));
            assert_blocks_match_one_gemm(&spec, &a, &b, &run.c);
            let run = multiply_panelled(&spec, &a, &b, kernel, ZeroCost);
            assert_blocks_match_one_gemm(&spec, &a, &b, &run.c);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Segment-chained `multiply` — one window — and `multiply_panelled` —
    /// one window per panel — are `to_bits`-equal to one `gemm_blocked` per
    /// block over the gathered operands, on arbitrary grids.
    #[test]
    fn random_grids_chain_to_the_bits_of_one_gemm(
        n in 8usize..=64,
        p in 1usize..=4,
        seed in 0u64..100_000,
    ) {
        let spec = random_spec(n, p, seed);
        let a = random_matrix(n, n, seed ^ 0xA);
        let b = random_matrix(n, n, seed ^ 0xB);
        let run = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert_blocks_match_one_gemm(&spec, &a, &b, &run.c);
        for kernel in [GemmKernel::Blocked, GemmKernel::Parallel] {
            let run = multiply_panelled(&spec, &a, &b, kernel, ZeroCost);
            assert_blocks_match_one_gemm(&spec, &a, &b, &run.c);
        }
    }
}

/// Broadcasts one shared buffer from rank 1 of 5 and returns what every
/// rank ends up holding.
fn bcast_shared(
    backend: Backend,
    algo: BcastAlgorithm,
    faults: Option<FaultPlan>,
    panel: &Arc<Vec<f64>>,
) -> Vec<Arc<Vec<f64>>> {
    let mut universe = Universe::new(5, ZeroCost).with_backend(backend);
    if let Some(plan) = faults {
        universe = universe.with_faults(plan);
    }
    universe
        .try_run(|mut comm| {
            let mine = if comm.rank() == 1 {
                Payload::SharedF64(Arc::clone(panel))
            } else {
                Payload::F64(Vec::new())
            };
            comm.try_bcast_with(1, mine, algo)?.try_into_shared_f64()
        })
        .expect("broadcast succeeds")
}

/// Sharing is structural, not assumed: over channels both broadcast
/// algorithms deliver the root's allocation itself to every rank; over TCP
/// the root keeps its buffer and the others get equal bytes.
#[test]
fn a_shared_panel_is_forwarded_by_reference() {
    let panel = Arc::new(random_matrix(8, 16, 5).as_slice().to_vec());
    for algo in [BcastAlgorithm::Flat, BcastAlgorithm::Binomial] {
        let held = bcast_shared(Backend::Channel, algo, None, &panel);
        for (rank, got) in held.iter().enumerate() {
            assert!(
                Arc::ptr_eq(got, &panel),
                "{algo:?}: rank {rank} holds a copy"
            );
        }
        drop(held);
        assert_eq!(Arc::strong_count(&panel), 1, "{algo:?}: a reference leaked");
        let held = bcast_shared(Backend::Tcp, algo, None, &panel);
        assert!(Arc::ptr_eq(&held[1], &panel));
        for got in &held {
            assert_eq!(**got, *panel);
        }
    }
}

/// Corruption is copy-on-write: a flip addressed to one child reaches that
/// child only; the root and the sibling keep sharing the intact buffer.
#[test]
fn corruption_of_a_shared_panel_stays_with_its_destination() {
    let panel = Arc::new(random_matrix(8, 16, 6).as_slice().to_vec());
    let pristine = (*panel).clone();
    let plan = FaultPlan::new().corrupt_message(1, 3, 0, 21, -2.5);
    let held = bcast_shared(Backend::Channel, BcastAlgorithm::Flat, Some(plan), &panel);
    assert_eq!(*panel, pristine, "the root's buffer was written through");
    for rank in [0, 1, 2, 4] {
        assert!(Arc::ptr_eq(&held[rank], &panel), "rank {rank}");
    }
    assert!(!Arc::ptr_eq(&held[3], &panel));
    for (i, (got, clean)) in held[3].iter().zip(&pristine).enumerate() {
        let want = if i == 21 { clean - 2.5 } else { *clean };
        assert_eq!(got.to_bits(), want.to_bits(), "element {i}");
    }
}

/// The same through the executor: `multiply` has no checksums, so the
/// flipped element does reach the addressed rank's product — and nobody
/// else's. Every block the root or the sibling owns has the clean bits.
#[test]
fn a_corrupted_panel_damages_only_the_addressed_ranks_blocks() {
    let n = 48;
    let (a, b) = inputs(n);
    let shape = Shape::OneDRectangular;
    let spec = paper_spec(shape, n);
    let clean = multiply(&spec, &a, &b, ExecutionMode::Real).c;
    // One lane holds all three ranks; its first block's owner roots the
    // first broadcast, so message 0 from it to `child` is that panel.
    let root = spec.owner(0, 0);
    let child = (root + 1) % 3;
    let plan = FaultPlan::new().corrupt_message(root, child, 0, 7, 0.5);
    let run = multiply_with_recovery(
        shape,
        &SPEEDS,
        &a,
        &b,
        ExecutionMode::Real,
        ZeroCost,
        &[plan],
        &RecoveryOptions::default(),
    )
    .expect("silent corruption fails nothing");
    assert!(run.recovery.is_none());
    let mut damaged = 0;
    for proc in 0..spec.nprocs {
        for blk in spec.blocks_of(proc) {
            let got = run.c.submatrix(blk.row, blk.col, blk.rows, blk.cols);
            let want = clean.submatrix(blk.row, blk.col, blk.rows, blk.cols);
            let differing = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .filter(|(g, w)| g.to_bits() != w.to_bits())
                .count();
            if proc == child {
                damaged += differing;
            } else {
                assert_eq!(
                    differing, 0,
                    "rank {proc}'s block saw rank {child}'s corruption"
                );
            }
        }
    }
    assert!(damaged > 0, "the corruption never reached rank {child}");
    // With the corruption gone the same call returns the clean product.
    let rerun = multiply_with_recovery(
        shape,
        &SPEEDS,
        &a,
        &b,
        ExecutionMode::Real,
        ZeroCost,
        &[],
        &RecoveryOptions::default(),
    )
    .expect("fault-free run");
    assert_eq!(digest(&rerun.c), digest(&clean));
}

/// However many kernel calls a block's chain makes, the outside sees one
/// GEMM per owned block: one span with `k = n` carrying the summed kernel
/// time, one wall-clock observation, one virtual-clock record.
#[test]
fn one_gemm_span_and_one_kernel_observation_per_owned_block() {
    let n = 96;
    let (a, b) = inputs(n);
    for shape in ALL_FOUR_SHAPES {
        let spec = paper_spec(shape, n);
        let mut blocks: Vec<(usize, usize, usize)> = (0..spec.nprocs)
            .flat_map(|p| spec.blocks_of(p))
            .map(|blk| (blk.rows, blk.cols, n))
            .collect();
        blocks.sort_unstable();

        let recorder = TraceRecorder::new(spec.nprocs);
        let run = multiply_traced(
            &spec,
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            recorder.clone() as Arc<_>,
        );
        assert_eq!(digest(&run.c), GOLDEN[0].1, "{}", shape.name());
        let mut spans = Vec::new();
        for ts in recorder.finish().iter() {
            if let SpanKind::Gemm {
                m, n, k, kernel_ns, ..
            } = ts.record.kind
            {
                assert!(
                    kernel_ns > 0,
                    "{}: {m}x{n} span without kernel time",
                    shape.name()
                );
                spans.push((m, n, k));
            }
        }
        spans.sort_unstable();
        assert_eq!(spans, blocks, "{}: GEMM spans", shape.name());

        let metrics = RuntimeMetrics::fresh();
        multiply_with_recovery(
            shape,
            &SPEEDS,
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[],
            &RecoveryOptions {
                metrics: Some(Arc::clone(&metrics)),
                ..Default::default()
            },
        )
        .expect("fault-free metered run");
        let owned = blocks.len() as u64;
        assert_eq!(
            metrics.gemm.kernel_seconds.count(),
            owned,
            "{}",
            shape.name()
        );
        assert_eq!(metrics.gemm.ops.get(), owned, "{}", shape.name());
        assert_eq!(
            metrics.gemm.flops.get(),
            2 * (n as u64).pow(3),
            "{}: flops",
            shape.name()
        );
    }
}
