//! The phantom path hosts every rank on the calling thread. Nothing
//! observable may differ from a run with one thread per rank: the threaded
//! real executor is the oracle for stages 1–2, a thread-id sink shows who
//! emits the spans, and a 1 024-rank run is pinned to the bits the threaded
//! implementation produced.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use proptest::prelude::*;
use summagen_comm::{EventSink, HockneyModel, SpanRecord};
use summagen_core::{
    multiply_traced, multiply_with_cost, simulate, simulate_instrumented, ExecutionMode,
};
use summagen_matrix::random_matrix;
use summagen_partition::{
    beaumont_column_layout, proportional_areas, PartitionSpec, ALL_FOUR_SHAPES,
};
use summagen_platform::device::HASWELL_E5_2670V3;
use summagen_platform::speed::ConstantSpeed;
use summagen_platform::{AbstractProcessor, Platform};

/// One constant-speed processor per entry of `speeds` (relative; scaled to
/// 100 GFLOP/s per unit).
fn platform(speeds: &[f64]) -> Platform {
    let procs = speeds
        .iter()
        .map(|&s| {
            AbstractProcessor::new(
                HASWELL_E5_2670V3.clone(),
                Arc::new(ConstantSpeed::new(s * 1.0e11)),
            )
        })
        .collect();
    Platform::new(procs, 230.0)
}

/// Speeds for `p` processors with a 2.5× spread.
fn speeds(p: usize) -> Vec<f64> {
    (0..p).map(|i| 1.0 + 0.25 * (i % 7) as f64).collect()
}

/// Stages 1–2 are the same program on both paths: a real GEMM advances the
/// virtual clock by zero and the phantom GEMMs come after all
/// communication, so per-rank communication time and traffic must agree bit
/// for bit between the threaded real executor and the hosted phantom run.
fn assert_hosted_matches_threaded(spec: &PartitionSpec, ctx: &str) {
    let cost = HockneyModel::intra_node();
    let (a, b) = (
        random_matrix(spec.n, spec.n, 5),
        random_matrix(spec.n, spec.n, 6),
    );
    let threaded = multiply_with_cost(spec, &a, &b, ExecutionMode::Real, cost);
    let hosted = simulate(spec, &platform(&speeds(spec.nprocs)), cost);
    for rank in 0..spec.nprocs {
        assert_eq!(
            hosted.clocks[rank].comm_time.to_bits(),
            threaded.clocks[rank].comm_time.to_bits(),
            "{ctx}: comm_time of rank {rank}"
        );
    }
    assert_eq!(hosted.traffic, threaded.traffic, "{ctx}");
}

#[test]
fn hosted_phantom_stages_equal_the_threaded_real_ones() {
    for n in [48, 61] {
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        for shape in ALL_FOUR_SHAPES {
            assert_hosted_matches_threaded(&shape.build(n, &areas), shape.name());
        }
        for p in [1, 2, 5, 8] {
            let spec = beaumont_column_layout(n, &speeds(p));
            assert_hosted_matches_threaded(&spec, &format!("beaumont p={p} n={n}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hosted_matches_threaded_on_random_specs(
        n in 12usize..72,
        p in 1usize..9,
        shape in 0usize..5,
        raw in proptest::collection::vec(0.2f64..5.0, 8..9),
    ) {
        let spec = match ALL_FOUR_SHAPES.get(shape) {
            Some(shape) => shape.build(n, &proportional_areas(n, &raw[..3])),
            None => beaumont_column_layout(n, &raw[..p]),
        };
        assert_hosted_matches_threaded(&spec, &format!("shape {shape} n={n} p={p} {raw:?}"));
    }
}

/// Remembers which thread delivered each span.
#[derive(Default)]
struct ThreadSink(Mutex<Vec<(usize, ThreadId)>>);

impl EventSink for ThreadSink {
    fn record(&self, span: SpanRecord) {
        let mut seen = self.0.lock().expect("no recorder panics");
        seen.push((span.rank, std::thread::current().id()));
    }
}

impl ThreadSink {
    fn threads(&self) -> HashSet<ThreadId> {
        let seen = self.0.lock().expect("no recorder panics");
        seen.iter().map(|&(_, id)| id).collect()
    }

    fn ranks(&self) -> BTreeSet<usize> {
        let seen = self.0.lock().expect("no recorder panics");
        seen.iter().map(|&(rank, _)| rank).collect()
    }
}

#[test]
fn a_hosted_simulate_emits_every_span_from_the_callers_thread() {
    let n = 96;
    let p = 5;
    let spec = beaumont_column_layout(n, &speeds(p));
    let cost = HockneyModel::intra_node();

    let sink = Arc::new(ThreadSink::default());
    simulate_instrumented(&spec, &platform(&speeds(p)), cost, sink.clone());
    assert_eq!(sink.ranks(), (0..p).collect(), "every rank reported");
    assert_eq!(
        sink.threads(),
        HashSet::from([std::thread::current().id()]),
        "a hosted run has one producer: its caller"
    );

    // The real executor still runs one thread per rank, none of them ours.
    let sink = Arc::new(ThreadSink::default());
    let (a, b) = (random_matrix(n, n, 1), random_matrix(n, n, 2));
    multiply_traced(&spec, &a, &b, ExecutionMode::Real, cost, sink.clone());
    assert_eq!(sink.threads().len(), p);
    assert!(!sink.threads().contains(&std::thread::current().id()));
}

/// `exec_time` / `comm_time` bits of the 1 024-processor Beaumont layout at
/// n = 8 192 (401 × 32 grid), captured at commit 953f653 — where the run
/// took 1 024 threads and 13.8 s in `--release`.
const P1024_EXEC_BITS: u64 = 0x4015_a25a_9416_fa2c;
const P1024_COMM_BITS: u64 = 0x4015_8a00_9adf_b045;

#[test]
fn a_thousand_ranks_are_a_loop_bound_not_a_thousand_threads() {
    let p = 1_024;
    let spec = beaumont_column_layout(8_192, &speeds(p));
    assert_eq!((spec.grid_rows, spec.grid_cols), (401, 32));
    let report = simulate(&spec, &platform(&speeds(p)), HockneyModel::intra_node());
    assert_eq!(report.clocks.len(), p);
    assert_eq!(report.exec_time.to_bits(), P1024_EXEC_BITS);
    assert_eq!(report.comm_time.to_bits(), P1024_COMM_BITS);
}
