//! The one engine behind every SummaGen run.
//!
//! Whatever the entry point — real or phantom payloads, three-stage,
//! panelled or checksum-protected, one attempt or shrink-and-retry — a run
//! is the same three things, and each exists here once:
//!
//! * [`launch`] turns a [`RunOptions`] into a configured [`Universe`], runs
//!   one closure per rank and collects every rank's clock, traffic and
//!   (optionally) timeline;
//! * [`Launched::times`] folds the per-rank clocks into the
//!   `exec/comp/comm_time` that [`RunResult`] and [`SimReport`] report;
//! * [`shrink_and_retry`] is the ULFM-style recovery loop: what one
//!   *attempt* does is the caller's closure (the plain executor restarts
//!   from scratch, the ABFT executor resumes from its newest checkpoint),
//!   what happens *between* attempts is here.
//!
//! Real and phantom runs differ only in the [`StageData`] their ranks
//! carry and in what a block's GEMM costs on the virtual clock.

use std::collections::BTreeMap;

use summagen_comm::{
    ClockSnapshot, CommError, CommResult, Communicator, CostModel, FailureCause, FaultPlan,
    RankFailure, TraceEvent, TrafficStats, Universe,
};
use summagen_matrix::DenseMatrix;
use summagen_partition::{
    beaumont_column_layout, proportional_areas, PartitionSpec, ProcBlock, Shape,
};
use summagen_platform::Platform;

use crate::executor::{ExecutionMode, RecoveryError, RecoveryReport, RunOptions, RunResult};
use crate::rankdata::{assemble, distribute, RankMatrices};
use crate::simulate::SimReport;
use crate::stages::{three_stages, PanelTable, StageData};

/// The `C` blocks one rank computed, with their placement.
pub(crate) type RankBlocks = Vec<(ProcBlock, DenseMatrix)>;

/// What every rank of one universe brought back.
pub(crate) struct Launched<R> {
    /// The rank closure's own results, in rank order.
    pub per_rank: Vec<R>,
    pub clocks: Vec<ClockSnapshot>,
    pub traffic: Vec<TrafficStats>,
    /// Per-rank timelines, when [`RunOptions::timelines`] asked for them.
    pub timelines: Option<Vec<Vec<TraceEvent>>>,
}

impl<R> Launched<R> {
    /// `(exec_time, comp_time, comm_time)`: the max over ranks of final
    /// virtual time, attributed computation and attributed communication.
    pub fn times(&self) -> (f64, f64, f64) {
        let max = |f: fn(&ClockSnapshot) -> f64| self.clocks.iter().map(f).fold(0.0, f64::max);
        (max(|c| c.now), max(|c| c.comp_time), max(|c| c.comm_time))
    }
}

/// Runs `rank_fn` once per rank of a fresh universe configured from
/// `opts`, under `faults` if given. A dying rank surfaces as
/// `Err(RankFailure)` instead of a panic or a silent hang.
pub(crate) fn launch<R: Send>(
    nprocs: usize,
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
    rank_fn: impl Fn(&Communicator) -> CommResult<R> + Sync,
) -> Result<Launched<R>, RankFailure> {
    let mut universe = Universe::new(nprocs, cost)
        .recv_timeout(opts.recv_timeout)
        .with_backend(opts.backend)
        .traced(opts.timelines);
    if let Some(plan) = faults {
        universe = universe.with_faults(plan);
    }
    if let Some(plan) = &opts.link_plan {
        universe = universe.with_link_plan(plan.clone());
    }
    if let Some(hb) = opts.heartbeat {
        universe = universe.with_heartbeat(hb);
    }
    if let Some(metrics) = &opts.metrics {
        universe = universe.with_metrics(metrics.clone());
    }
    if let Some(sink) = &opts.sink {
        universe = universe.with_event_sink(sink.clone());
    }
    let results = universe.try_run(|comm| {
        let out = rank_fn(&comm)?;
        Ok((
            out,
            comm.clock_snapshot(),
            comm.traffic(),
            comm.trace_snapshot(),
        ))
    })?;

    let (mut per_rank, mut clocks) = (Vec::with_capacity(nprocs), Vec::with_capacity(nprocs));
    let (mut traffic, mut timelines) = (Vec::with_capacity(nprocs), Vec::with_capacity(nprocs));
    for (out, clock, sent, timeline) in results {
        per_rank.push(out);
        clocks.push(clock);
        traffic.push(sent);
        timelines.push(timeline);
    }
    Ok(Launched {
        per_rank,
        clocks,
        traffic,
        // `Some` iff every rank recorded one, i.e. iff `opts.timelines`.
        timelines: timelines.into_iter().collect(),
    })
}

/// Unwraps a run on a path where nothing injects faults: a rank failure
/// there is a bug to fail loudly on, not a condition to report.
pub(crate) fn infallible<T>(run: Result<T, RankFailure>) -> T {
    run.unwrap_or_else(|failure| panic!("rank panicked: {failure}"))
}

/// One real-numeric execution over a fixed partition: deals the blocks,
/// launches `rank_fn` (which returns the rank's `C` blocks plus whatever
/// else its executor tracks), reassembles `C` and folds the clocks.
pub(crate) fn run_numeric<S: Send>(
    spec: &PartitionSpec,
    (a, b): (&DenseMatrix, &DenseMatrix),
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
    rank_fn: impl Fn(&Communicator, &RankMatrices) -> CommResult<(RankBlocks, S)> + Sync,
) -> Result<(RunResult, Vec<S>), RankFailure> {
    let rank_data = distribute(spec, a, b);
    let launched = launch(spec.nprocs, cost, faults, opts, |comm| {
        rank_fn(comm, &rank_data[comm.rank()])
    })?;
    let (exec_time, comp_time, comm_time) = launched.times();
    let (blocks, extras): (Vec<RankBlocks>, Vec<S>) = launched.per_rank.into_iter().unzip();
    let run = RunResult {
        c: assemble(spec, &blocks),
        clocks: launched.clocks,
        traffic: launched.traffic,
        exec_time,
        comp_time,
        comm_time,
        recovery: None,
    };
    Ok((run, extras))
}

/// One attempt of the three-stage algorithm on real matrices. Real runs do
/// not model device speeds: computation advances the clock by zero (timing
/// studies use the phantom path).
pub(crate) fn run_real(
    spec: &PartitionSpec,
    ab: (&DenseMatrix, &DenseMatrix),
    mode: ExecutionMode,
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
) -> Result<RunResult, RankFailure> {
    let rank_fn = |comm: &Communicator, data: &RankMatrices| {
        let mut state = StageData::Real {
            data,
            panels: PanelTable::new(spec),
            kernel: mode.kernel(),
        };
        Ok((three_stages(comm, spec, &mut state, |_| 0.0)?, ()))
    };
    run_numeric(spec, ab, cost, faults, opts, rank_fn).map(|(run, _)| run)
}

/// The three-stage algorithm with phantom payloads: rank `i` runs on
/// `platform.processors[i]`, whose speed function (evaluated at the rank's
/// total partition area — the paper's `A(Z) / s(A(Z))` convention) times
/// its DGEMMs.
///
/// # Panics
/// Panics if the platform has fewer processors than the spec, or if a rank
/// fails (bogus timings are worse than none).
pub(crate) fn run_phantom(
    spec: &PartitionSpec,
    platform: &Platform,
    cost: impl CostModel,
    opts: &RunOptions,
) -> SimReport {
    assert!(
        platform.len() >= spec.nprocs,
        "platform has {} processors, spec wants {}",
        platform.len(),
        spec.nprocs
    );
    let areas = spec.areas();
    let launched = infallible(launch(spec.nprocs, cost, None, opts, |comm| {
        let proc = &platform.processors[comm.rank()];
        let area = areas[comm.rank()] as f64;
        three_stages(comm, spec, &mut StageData::Phantom, |blk| {
            proc.dgemm_time(blk.rows, spec.n, blk.cols, area)
        })
    }));
    let (exec_time, comp_time, comm_time) = launched.times();
    SimReport {
        n: spec.n,
        exec_time,
        comp_time,
        comm_time,
        clocks: launched.clocks,
        traffic: launched.traffic,
        total_flops: 2.0 * (spec.n as f64).powi(3),
        energy: None,
        timelines: launched.timelines,
    }
}

/// Builds a partition for the surviving device set: the requested paper
/// shape while three devices remain (the shapes are three-processor
/// constructions), otherwise Beaumont's column-based layout, which handles
/// any processor count including one.
pub(crate) fn survivor_spec(shape: Shape, n: usize, speeds: &[f64]) -> PartitionSpec {
    if speeds.len() == 3 {
        shape.build(n, &proportional_areas(n, speeds))
    } else {
        beaumont_column_layout(n, speeds)
    }
}

/// A run that [`shrink_and_retry`] brought to completion.
pub(crate) struct Recovered {
    /// The successful attempt, `exec_time` including the retry back-off
    /// and `recovery` filled in iff a retry happened.
    pub run: RunResult,
    /// Executions performed (1 = no failure observed).
    pub attempts: usize,
    /// Ranks, over all failed attempts, that ended on
    /// [`CommError::DataCorruption`].
    pub data_corruptions: u64,
}

/// The shrink-and-retry loop. Attempt `i` partitions the `n × n` problem
/// over the devices still alive and calls `attempt` with that partition
/// and `attempt_faults[i]` (none past the end of the slice); `attempt`
/// returns the run and the fraction of the k-dimension it had to execute.
/// When an attempt fails:
///
/// * *crashed* ranks (per [`RankFailure::crashed_ranks`]: panicked,
///   kill-injected, or ended on an error of their own — excluding ranks
///   that merely starved on a timeout) map back to devices, which are
///   removed from the pool before the matrix is re-partitioned;
/// * if nobody crashed but a rank reported a peer `Unreachable` (the
///   transport exhausted its wire budget against it), the *blamed* peer's
///   device is shrunk out — a dead link fails identically on replay;
/// * failures identifying no crashed rank (timeouts, dropped messages)
///   retry the same device set unchanged;
/// * every retry charges `opts.retry_backoff` virtual seconds, added to
///   the final `exec_time` (the failed attempt's own clocks are lost with
///   its universe).
pub(crate) fn shrink_and_retry(
    shape: Shape,
    rel_speeds: &[f64],
    n: usize,
    attempt_faults: &[FaultPlan],
    opts: &RunOptions,
    mut attempt: impl FnMut(&PartitionSpec, Option<FaultPlan>) -> Result<(RunResult, f64), RankFailure>,
) -> Result<Recovered, RecoveryError> {
    assert!(!rel_speeds.is_empty(), "need at least one device");
    assert!(opts.max_attempts > 0, "need at least one attempt");

    let mut devices: Vec<usize> = (0..rel_speeds.len()).collect();
    let mut failed_devices: Vec<usize> = Vec::new();
    let mut causes: BTreeMap<String, usize> = BTreeMap::new();
    let mut data_corruptions = 0u64;
    let mut announced_failures = 0usize;
    let mut detected_failures = 0usize;
    let mut max_detection_latency = 0.0f64;
    let mut attempts = 0;
    loop {
        attempts += 1;
        let speeds: Vec<f64> = devices.iter().map(|&d| rel_speeds[d]).collect();
        let spec = survivor_spec(shape, n, &speeds);
        let faults = attempt_faults
            .get(attempts - 1)
            .filter(|p| !p.is_empty())
            .cloned();
        let failure = match attempt(&spec, faults) {
            Ok((mut run, recompute_fraction)) => {
                let backoff_time = (attempts - 1) as f64 * opts.retry_backoff;
                run.exec_time += backoff_time;
                if attempts > 1 {
                    let area = (n * n) as f64;
                    run.recovery = Some(RecoveryReport {
                        attempts,
                        failed_devices,
                        surviving_devices: devices,
                        final_loads: spec.areas().iter().map(|&a| a as f64 / area).collect(),
                        backoff_time,
                        failure_causes: causes.into_iter().collect(),
                        recompute_fraction,
                        announced_failures,
                        detected_failures,
                        max_detection_latency,
                    });
                }
                return Ok(Recovered {
                    run,
                    attempts,
                    data_corruptions,
                });
            }
            Err(failure) => failure,
        };
        for fr in &failure.failed {
            *causes.entry(fr.cause.kind_label().to_string()).or_default() += 1;
            match &fr.cause {
                FailureCause::DetectedHang {
                    detection_latency, ..
                } => {
                    detected_failures += 1;
                    max_detection_latency = max_detection_latency.max(*detection_latency);
                }
                cause => {
                    announced_failures += 1;
                    if let FailureCause::Error(CommError::DataCorruption { .. }) = cause {
                        data_corruptions += 1;
                    }
                }
            }
        }
        if attempts >= opts.max_attempts {
            return Err(RecoveryError::AttemptsExhausted {
                attempts,
                last: failure,
            });
        }
        let mut roots = failure.crashed_ranks();
        if roots.is_empty() {
            // Nobody crashed outright, but a peer that exhausted the
            // transport's wire budget sits behind a dead link: replaying
            // the same device set replays the same exhaustion.
            roots = failure.unreachable_peers();
        }
        // No root at all is a pure timeout: nothing to shrink, so the same
        // device set is retried.
        let mut dropped: Vec<usize> = roots.iter().map(|&r| devices[r]).collect();
        devices.retain(|d| !dropped.contains(d));
        failed_devices.append(&mut dropped);
        if devices.is_empty() {
            return Err(RecoveryError::AllDevicesFailed { attempts });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use summagen_comm::{ZeroCost, RECV_TIMEOUT_ENV};

    /// The only test of this crate that touches the environment. The value
    /// it sets is larger than the compiled default, so a test that builds
    /// its options while this one runs merely waits longer on a deadlock.
    #[test]
    fn default_options_take_the_receive_timeout_from_the_environment() {
        let timeout_of = |opts: &RunOptions| {
            launch(1, ZeroCost, None, opts, |comm| Ok(comm.recv_timeout()))
                .expect("one idle rank cannot fail")
                .per_rank[0]
        };
        std::env::set_var(RECV_TIMEOUT_ENV, "90000");
        let from_env = timeout_of(&RunOptions::default());
        let explicit = timeout_of(&RunOptions {
            recv_timeout: Duration::from_millis(123),
            ..RunOptions::default()
        });
        std::env::remove_var(RECV_TIMEOUT_ENV);
        assert_eq!(from_env, Duration::from_millis(90_000));
        assert_eq!(explicit, Duration::from_millis(123));
        assert_eq!(
            timeout_of(&RunOptions::default()),
            summagen_comm::DEFAULT_RECV_TIMEOUT
        );
    }
}
