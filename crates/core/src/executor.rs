//! Running SummaGen end-to-end on real matrices, with optional recovery
//! from rank failures: the public types and the entry points, each of
//! which hands a [`RunOptions`] to the crate's private engine.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use summagen_comm::{
    Backend, ClockSnapshot, CostModel, EventSink, FaultPlan, HockneyModel, LinkPlan, RankFailure,
    TrafficStats, ZeroCost, DEFAULT_RECV_TIMEOUT,
};
use summagen_matrix::{DenseMatrix, GemmKernel};
use summagen_partition::{PartitionSpec, Shape};

use crate::engine;
use crate::stages::{panels, Walk};

/// How local computations execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Real numeric execution with the default kernel
    /// ([`GemmKernel::default`]).
    #[default]
    Real,
    /// Real numeric execution with an explicit kernel choice.
    ///
    /// `Blocked` and `Parallel` give the bits of `Real`. `Naive` rounds
    /// once per kernel call, and every real path chains its calls over
    /// `k`, one per k-segment of the walk's windows, so with `Naive` a
    /// product agrees with one `gemm_naive` to within `gemm_tolerance`, not
    /// to the bit, and moves at rounding level when the chain's cuts move.
    RealWith(GemmKernel),
}

impl ExecutionMode {
    pub(crate) fn kernel(&self) -> GemmKernel {
        match self {
            ExecutionMode::Real => GemmKernel::default(),
            ExecutionMode::RealWith(k) => *k,
        }
    }
}

/// The outcome of a numeric SummaGen run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The assembled product `C = A × B`.
    pub c: DenseMatrix,
    /// Per-rank virtual-clock snapshots.
    pub clocks: Vec<ClockSnapshot>,
    /// Per-rank traffic counters.
    pub traffic: Vec<TrafficStats>,
    /// Parallel execution time: max over ranks of final virtual time.
    pub exec_time: f64,
    /// Max over ranks of attributed computation time.
    pub comp_time: f64,
    /// Max over ranks of attributed communication time.
    pub comm_time: f64,
    /// Populated by [`multiply_with_recovery`] when at least one retry was
    /// needed; `None` for undisturbed runs.
    pub recovery: Option<RecoveryReport>,
}

/// Everything that can differ between two runs of the same algorithm on
/// the same inputs. Every entry point of this crate — real or simulated,
/// plain, recovering or checksum-protected — launches its ranks from one
/// of these; the fixed-signature functions ([`multiply`], [`simulate`](
/// crate::simulate()), …) use the defaults with one field changed.
#[derive(Clone)]
pub struct RunOptions {
    /// Maximum number of executions (the first try plus retries) of the
    /// recovering entry points; the single-attempt ones ignore it.
    pub max_attempts: usize,
    /// Virtual-clock seconds charged per retry, modelling failure
    /// detection plus restart of the surviving ranks.
    pub retry_backoff: f64,
    /// Receive timeout applied to every attempt. Defaults to
    /// [`DEFAULT_RECV_TIMEOUT`]; tests injecting faults should use
    /// milliseconds so deadlocks resolve quickly.
    pub recv_timeout: Duration,
    /// Lossy-link plan applied to every attempt: sends go through the
    /// seeded transport (retransmission, duplicate suppression, in-order
    /// reassembly), and any configured silent hangs fire. `None` (the
    /// default) runs on perfectly reliable links.
    pub link_plan: Option<LinkPlan>,
    /// Runs the heartbeat failure detector
    /// (`Universe::with_heartbeat`) on every attempt. Required to recover
    /// from *silent* hangs — without it a hung rank only surfaces as a
    /// receive timeout at its peers.
    pub heartbeat: bool,
    /// Aggregate-metrics bundle shared by every attempt: message volume,
    /// collective latencies, panel steps, GEMM throughput, ABFT events,
    /// transport retransmits and heartbeat suspicions accumulate here
    /// across retries. `None` (the default) skips metrics entirely.
    pub metrics: Option<Arc<summagen_metrics::RuntimeMetrics>>,
    /// Wire between ranks for every attempt: in-process channels (the
    /// default) or loopback TCP. Virtual time is backend-blind, so clocks
    /// and traffic are bit-identical across backends. Each attempt gets a
    /// fresh transport, so TCP fault injectors (refused connects, resets,
    /// stalls) re-fire per attempt.
    pub backend: Backend,
    /// Receives every runtime event — sends, receives, collectives,
    /// per-block GEMMs, stages, ABFT verify/correct/checkpoint/rollback —
    /// of every attempt, failed ones included (often exactly what a
    /// post-mortem wants). A `summagen_trace::TraceRecorder` turns them
    /// into Perfetto timelines and the critical path.
    pub sink: Option<Arc<dyn EventSink>>,
}

/// The name [`RunOptions`] had while only the recovering entry points
/// took it.
pub type RecoveryOptions = RunOptions;

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            retry_backoff: 0.5,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            link_plan: None,
            heartbeat: false,
            metrics: None,
            backend: Backend::Channel,
            sink: None,
        }
    }
}

/// Multiplies `A × B` with SummaGen under the given partition, with free
/// communication (pure correctness run).
///
/// # Panics
///
/// Panics if any rank fails (a bug in the worker closure, not an expected
/// condition — no faults are injected on this path). Callers that need to
/// handle failure as a value should use [`multiply_with_options`] or
/// [`multiply_with_recovery`].
///
/// ```
/// use summagen_core::{multiply, ExecutionMode};
/// use summagen_matrix::{random_matrix, DenseMatrix};
/// use summagen_partition::{proportional_areas, Shape};
///
/// let n = 32;
/// let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
/// let spec = Shape::SquareCorner.build(n, &areas);
/// let a = DenseMatrix::identity(n);
/// let b = random_matrix(n, n, 7);
/// let result = multiply(&spec, &a, &b, ExecutionMode::Real);
/// // I × B = B, computed across three rank threads.
/// assert!(summagen_matrix::approx_eq(&result.c, &b, 1e-12));
/// ```
pub fn multiply(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
) -> RunResult {
    engine::infallible(multiply_with_options(
        spec,
        a,
        b,
        mode,
        ZeroCost,
        &RunOptions::default(),
    ))
}

/// Multiplies `A × B` with SummaGen, pricing communication with a Hockney
/// model so the virtual clocks report realistic times.
pub fn multiply_with_cost(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: HockneyModel,
) -> RunResult {
    engine::infallible(multiply_with_options(
        spec,
        a,
        b,
        mode,
        cost,
        &RunOptions::default(),
    ))
}

/// Like [`multiply_with_cost`] but reporting every runtime event to `sink`
/// ([`RunOptions::sink`]); GEMM spans carry measured kernel times.
///
/// # Panics
/// Panics if any rank fails, like [`multiply`].
pub fn multiply_traced(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel,
    sink: Arc<dyn EventSink>,
) -> RunResult {
    let opts = RunOptions {
        sink: Some(sink),
        ..RunOptions::default()
    };
    engine::infallible(multiply_with_options(spec, a, b, mode, cost, &opts))
}

/// One fault-free execution of SummaGen over `spec` under arbitrary
/// [`RunOptions`] — any transport, link plan, heartbeat, metrics bundle or
/// sink on a partition of the caller's choosing. A dying rank (a lossy
/// link that gives up, a hang the heartbeat detects) is an
/// `Err(RankFailure)`, not a panic; nothing is retried, so
/// `max_attempts` and `retry_backoff` do not apply.
pub fn multiply_with_options(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel,
    opts: &RunOptions,
) -> Result<RunResult, RankFailure> {
    engine::run_real(spec, (a, b), mode, cost, None, opts)
}

/// Multiplies `A × B` with panelled SummaGen, pricing communication with
/// `cost` ([`summagen_comm::ZeroCost`] for a pure correctness run): the
/// walk of one window per grid column of `A`. Each rank gathers only the
/// `A` blocks `(bi, t)` and the rows of `B` that panel `t` needs, then
/// accumulates `C(bi, bj) += A(bi, t) · B(t, bj)`; the same blocks travel
/// over the same lanes as in [`multiply`], so the volume and the bits of
/// `C` are the same, but a rank holds one panel's blocks at a time instead
/// of every block of its rows and columns.
///
/// # Panics
/// Panics if any rank fails, like [`multiply`].
pub fn multiply_panelled(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    kernel: GemmKernel,
    cost: impl CostModel,
) -> RunResult {
    let windows = panels(spec, 0, usize::MAX);
    let walk = Walk {
        windows: &windows,
        kernel,
        charge: None,
        protection: None,
    };
    let run = engine::run_walk(spec, (a, b), cost, None, &RunOptions::default(), &walk);
    engine::infallible(run).0
}

/// What [`multiply_with_recovery`] did to complete a run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Total executions performed (1 = no failure observed).
    pub attempts: usize,
    /// Device indices (into the caller's `rel_speeds`) dropped after they
    /// were identified as failure root causes.
    pub failed_devices: Vec<usize>,
    /// Device indices that performed the successful attempt.
    pub surviving_devices: Vec<usize>,
    /// Fraction of the `C` area each surviving device computed in the
    /// successful attempt (sums to 1).
    pub final_loads: Vec<f64>,
    /// Virtual seconds added to `exec_time` by retry backoff.
    pub backoff_time: f64,
    /// Failure causes observed across the failed attempts, keyed by
    /// [`summagen_comm::FailureCause::kind_label`] and sorted by label.
    /// Every abnormal rank of every failed attempt contributes one count,
    /// so victims (`peer-failed`, `timeout`) appear alongside root causes.
    pub failure_causes: Vec<(String, usize)>,
    /// Fraction of the plan's k-dimension the successful attempt had to
    /// execute: always 1.0 here (full restart). The checkpointed
    /// executor ([`crate::multiply_abft`]) reports less when it resumes
    /// mid-plan, which makes the two recovery styles comparable from
    /// artifacts.
    pub recompute_fraction: f64,
    /// Abnormal ranks across failed attempts whose death was *announced*
    /// — a panic, injected kill, or typed error posted a death notice.
    pub announced_failures: usize,
    /// Abnormal ranks across failed attempts whose death was *detected*
    /// by heartbeat suspicion (silent hangs): nobody announced anything,
    /// the watchdog noticed the silence.
    pub detected_failures: usize,
    /// Largest heartbeat detection latency observed across detected
    /// failures, wall-clock seconds (0 when nothing was detected).
    pub max_detection_latency: f64,
}

/// Why [`multiply_with_recovery`] gave up.
#[derive(Debug)]
pub enum RecoveryError {
    /// The attempt budget ran out; `last` is the terminal failure.
    AttemptsExhausted {
        /// Executions performed.
        attempts: usize,
        /// The failure that ended the final attempt.
        last: RankFailure,
    },
    /// Every device was identified as a failure root cause.
    AllDevicesFailed {
        /// Executions performed.
        attempts: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::AttemptsExhausted { attempts, last } => {
                write!(f, "recovery gave up after {attempts} attempts: {last}")
            }
            RecoveryError::AllDevicesFailed { attempts } => {
                write!(f, "all devices failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Multiplies `A × B` with SummaGen, recovering from rank failures by
/// re-partitioning over the surviving devices — the ULFM-style
/// shrink-and-retry strategy.
///
/// Each attempt `i` is a full restart under `attempt_faults[i]` (attempts
/// past the end of the slice run fault-free; pass `&[]` for a fully
/// undisturbed run). When an attempt fails, devices whose ranks crashed —
/// or, failing that, sit behind a link the transport gave up on — are
/// dropped and the matrix is re-partitioned over the survivors (the
/// requested shape while three remain, Beaumont's column layout
/// otherwise); a failure that names no culprit (a pure timeout) retries
/// the same device set. Every retry adds `opts.retry_backoff` virtual
/// seconds to the final `exec_time`.
///
/// On success, `RunResult::recovery` is `Some` iff at least one retry
/// happened. Errors only when the attempt budget is exhausted or no
/// devices remain.
#[allow(clippy::too_many_arguments)]
pub fn multiply_with_recovery(
    shape: Shape,
    rel_speeds: &[f64],
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel + Clone,
    attempt_faults: &[FaultPlan],
    opts: &RunOptions,
) -> Result<RunResult, RecoveryError> {
    let restart = |spec: &PartitionSpec, faults| {
        engine::run_real(spec, (a, b), mode, cost.clone(), faults, opts).map(|run| (run, 1.0))
    };
    engine::shrink_and_retry(shape, rel_speeds, a.rows(), attempt_faults, opts, restart)
        .map(|recovered| recovered.run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix};
    use summagen_partition::{proportional_areas, Shape, ALL_FOUR_SHAPES};

    fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let mut c = DenseMatrix::zeros(n, n);
        gemm_naive(
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        c
    }

    fn fig1a() -> PartitionSpec {
        PartitionSpec::new(
            vec![0, 1, 1, 1, 1, 1, 1, 1, 2],
            vec![9, 3, 4],
            vec![9, 3, 4],
            3,
        )
    }

    #[test]
    fn fig1a_produces_correct_product() {
        let a = random_matrix(16, 16, 1);
        let b = random_matrix(16, 16, 2);
        let res = multiply(&fig1a(), &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(16) * 100.0
        ));
    }

    #[test]
    fn all_four_shapes_produce_correct_products() {
        let n = 48;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let want = reference(&a, &b);
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let res = multiply(&spec, &a, &b, ExecutionMode::Real);
            assert!(
                approx_eq(&res.c, &want, gemm_tolerance(n) * 100.0),
                "{} wrong",
                shape.name()
            );
        }
    }

    #[test]
    fn extension_shapes_produce_correct_products() {
        let n = 40;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let want = reference(&a, &b);
        let areas = proportional_areas(n, &[2.0, 1.0, 0.5]);
        for shape in [Shape::RectangleCorner, Shape::LRectangle] {
            let spec = shape.build(n, &areas);
            let res = multiply(&spec, &a, &b, ExecutionMode::Real);
            assert!(
                approx_eq(&res.c, &want, gemm_tolerance(n) * 100.0),
                "{} wrong",
                shape.name()
            );
        }
    }

    #[test]
    fn identity_times_identity() {
        let n = 32;
        let id = DenseMatrix::identity(n);
        let areas = proportional_areas(n, &[1.0, 1.0, 1.0]);
        let spec = Shape::SquareCorner.build(n, &areas);
        let res = multiply(&spec, &id, &id, ExecutionMode::Real);
        assert!(approx_eq(&res.c, &id, 1e-12));
    }

    #[test]
    fn single_processor_partition_works() {
        let n = 20;
        let spec = PartitionSpec::new(vec![0], vec![n], vec![n], 1);
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let res = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
        // One rank => no messages at all.
        assert_eq!(res.traffic[0].msgs_sent, 0);
    }

    #[test]
    fn many_processor_one_d_partition() {
        let n = 60;
        let areas: Vec<f64> = vec![600.0; 6];
        let spec = Shape::OneDRectangular.build(n, &areas);
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let res = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn hockney_cost_produces_nonzero_comm_time() {
        let n = 32;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::SquareRectangle.build(n, &areas);
        let a = random_matrix(n, n, 11);
        let b = random_matrix(n, n, 12);
        let res = multiply_with_cost(
            &spec,
            &a,
            &b,
            ExecutionMode::Real,
            HockneyModel {
                alpha: 1e-5,
                beta: 1e-9,
            },
        );
        assert!(res.comm_time > 0.0);
        assert!(res.exec_time >= res.comm_time);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
        // Every rank moved some bytes.
        for t in &res.traffic {
            assert!(t.bytes_sent + t.bytes_recv > 0);
        }
    }

    #[test]
    fn all_kernels_agree_through_summagen() {
        let n = 36;
        let areas = proportional_areas(n, &[1.0, 1.5, 0.7]);
        let spec = Shape::BlockRectangle.build(n, &areas);
        let a = random_matrix(n, n, 13);
        let b = random_matrix(n, n, 14);
        let want = reference(&a, &b);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked, GemmKernel::Parallel] {
            let res = multiply(&spec, &a, &b, ExecutionMode::RealWith(kernel));
            assert!(approx_eq(&res.c, &want, gemm_tolerance(n) * 100.0));
        }
    }

    #[test]
    fn beaumont_layout_runs_through_summagen() {
        let n = 50;
        let spec = summagen_partition::beaumont_column_layout(n, &[1.0, 2.0, 0.9, 1.5]);
        let a = random_matrix(n, n, 15);
        let b = random_matrix(n, n, 16);
        let res = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    fn fast_opts() -> RecoveryOptions {
        RecoveryOptions {
            max_attempts: 3,
            retry_backoff: 0.25,
            recv_timeout: Duration::from_millis(500),
            ..Default::default()
        }
    }

    #[test]
    fn undisturbed_recovery_run_reports_no_recovery() {
        let n = 32;
        let a = random_matrix(n, n, 21);
        let b = random_matrix(n, n, 22);
        let res = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[],
            &fast_opts(),
        )
        .expect("fault-free run succeeds");
        assert!(res.recovery.is_none());
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn recovery_drops_killed_rank_and_repartitions() {
        let n = 32;
        let a = random_matrix(n, n, 23);
        let b = random_matrix(n, n, 24);
        let plan = FaultPlan::new().kill_rank(1, 2);
        let res = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[plan],
            &fast_opts(),
        )
        .expect("recovery succeeds after dropping the dead rank");
        let rep = res.recovery.as_ref().expect("a retry happened");
        assert_eq!(rep.attempts, 2);
        assert_eq!(rep.failed_devices, vec![1]);
        assert_eq!(rep.surviving_devices, vec![0, 2]);
        assert_eq!(rep.final_loads.len(), 2);
        assert!((rep.final_loads.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((rep.backoff_time - 0.25).abs() < 1e-12);
        // The killed rank contributes an injected-kill count; survivors
        // that resigned appear as victims. Full restart => fraction 1.
        assert!(rep
            .failure_causes
            .iter()
            .any(|(label, count)| label == "injected-kill" && *count == 1));
        assert!((rep.recompute_fraction - 1.0).abs() < 1e-12);
        assert!(res.exec_time >= 0.25);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn recovery_survives_cascading_failures_down_to_one_device() {
        let n = 30;
        let a = random_matrix(n, n, 25);
        let b = random_matrix(n, n, 26);
        // Attempt 1 kills rank 0 (3 devices), attempt 2 kills rank 1 of
        // the shrunken 2-device universe.
        let faults = vec![
            FaultPlan::new().kill_rank(0, 1),
            FaultPlan::new().kill_rank(1, 1),
        ];
        let res = multiply_with_recovery(
            Shape::BlockRectangle,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &faults,
            &fast_opts(),
        )
        .expect("recovery succeeds on the last surviving device");
        let rep = res.recovery.as_ref().expect("retries happened");
        assert_eq!(rep.attempts, 3);
        assert_eq!(rep.failed_devices, vec![0, 2]);
        assert_eq!(rep.surviving_devices, vec![1]);
        assert_eq!(rep.final_loads, vec![1.0]);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn recovery_exhausts_attempt_budget_with_typed_error() {
        let n = 24;
        let a = random_matrix(n, n, 27);
        let b = random_matrix(n, n, 28);
        // Kill a rank on every attempt the budget allows.
        let faults = vec![
            FaultPlan::new().kill_rank(0, 0),
            FaultPlan::new().kill_rank(0, 0),
        ];
        let opts = RecoveryOptions {
            max_attempts: 2,
            ..fast_opts()
        };
        let err = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &faults,
            &opts,
        )
        .expect_err("budget of 2 cannot absorb 2 failing attempts");
        match err {
            RecoveryError::AttemptsExhausted { attempts, last } => {
                assert_eq!(attempts, 2);
                assert_eq!(last.root_failed_ranks(), vec![0]);
            }
            other => panic!("expected AttemptsExhausted, got {other}"),
        }
    }

    #[test]
    fn recovery_retries_same_devices_after_pure_timeout() {
        let n = 24;
        let a = random_matrix(n, n, 29);
        let b = random_matrix(n, n, 30);
        // Drop rank 0's first broadcast panel: the receivers time out
        // without an identified culprit, so attempt 2 reuses all three
        // devices and succeeds.
        let faults = vec![FaultPlan::new().drop_message(0, 1, 0)];
        let opts = RecoveryOptions {
            max_attempts: 2,
            retry_backoff: 0.25,
            recv_timeout: Duration::from_millis(200),
            ..Default::default()
        };
        let res = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &faults,
            &opts,
        )
        .expect("retry after timeout succeeds");
        let rep = res.recovery.as_ref().expect("a retry happened");
        assert_eq!(rep.attempts, 2);
        assert!(rep.failed_devices.is_empty());
        assert_eq!(rep.surviving_devices, vec![0, 1, 2]);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix};
    use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};

    fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let mut c = DenseMatrix::zeros(n, n);
        gemm_naive(
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        c
    }

    /// A random valid partition spec: random grid cuts and random owners
    /// (repaired so every processor owns something).
    fn random_spec(n: usize, p: usize, seed: u64) -> PartitionSpec {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cuts = |total: usize, parts: usize, rng: &mut rand::rngs::StdRng| -> Vec<usize> {
            // parts-1 distinct interior cut points.
            let mut points: Vec<usize> = (1..total).collect();
            points.shuffle(rng);
            let mut chosen: Vec<usize> = points.into_iter().take(parts - 1).collect();
            chosen.sort_unstable();
            let mut sizes = Vec::with_capacity(parts);
            let mut prev = 0;
            for c in chosen {
                sizes.push(c - prev);
                prev = c;
            }
            sizes.push(total - prev);
            sizes
        };
        let gr = rng.random_range(1..=4.min(n));
        let gc = rng.random_range(1..=4.min(n));
        let heights = cuts(n, gr, &mut rng);
        let widths = cuts(n, gc, &mut rng);
        let cells = gr * gc;
        let p = p.min(cells);
        let mut owners: Vec<usize> = (0..cells).map(|_| rng.random_range(0..p)).collect();
        // Repair: give each processor at least one cell.
        for proc in 0..p {
            if !owners.contains(&proc) {
                let idx = rng.random_range(0..cells);
                owners[idx] = proc;
            }
        }
        // Second repair pass in case repairs overwrote each other.
        for proc in 0..p {
            if !owners.contains(&proc) {
                let victim = owners
                    .iter()
                    .position(|&o| owners.iter().filter(|&&x| x == o).count() > 1)
                    .unwrap();
                owners[victim] = proc;
            }
        }
        PartitionSpec::new(owners, heights, widths, p)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// SummaGen computes the correct product for *arbitrary* valid
        /// partition specs — not just the four named shapes.
        #[test]
        fn arbitrary_specs_are_correct(n in 8usize..40, p in 1usize..5, seed in 0u64..10_000) {
            let spec = random_spec(n, p, seed);
            let a = random_matrix(n, n, seed.wrapping_add(1));
            let b = random_matrix(n, n, seed.wrapping_add(2));
            let res = multiply(&spec, &a, &b, ExecutionMode::Real);
            prop_assert!(approx_eq(&res.c, &reference(&a, &b), gemm_tolerance(n) * 100.0));
        }

        /// The four shapes are correct across random sizes and area mixes.
        #[test]
        fn shapes_correct_across_sizes(
            n in 9usize..48,
            s0 in 0.2f64..4.0,
            s1 in 0.2f64..4.0,
            s2 in 0.2f64..4.0,
        ) {
            let areas = proportional_areas(n, &[s0, s1, s2]);
            let a = random_matrix(n, n, 21);
            let b = random_matrix(n, n, 22);
            let want = reference(&a, &b);
            for shape in ALL_FOUR_SHAPES {
                let spec = shape.build(n, &areas);
                let res = multiply(&spec, &a, &b, ExecutionMode::Real);
                prop_assert!(
                    approx_eq(&res.c, &want, gemm_tolerance(n) * 100.0),
                    "{} wrong at n={n}", shape.name()
                );
            }
        }
    }
}
