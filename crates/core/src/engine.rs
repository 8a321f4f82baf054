//! The one engine behind every SummaGen run.
//!
//! Whatever the entry point — real or phantom payloads, three-stage,
//! panelled or checksum-protected, one attempt or shrink-and-retry — a run
//! is the same three things, and each exists here once:
//!
//! * `universe` turns a [`RunOptions`] into a configured [`Universe`];
//!   [`launch`] runs one closure per rank, a thread each, [`run_phantom`]
//!   hosts all ranks on its caller ([`Universe::host`]), and both collect
//!   every rank's clock and traffic the same way;
//! * [`Launched::times`] folds the per-rank clocks into the
//!   `exec/comp/comm_time` that [`RunResult`] and [`SimReport`] report;
//! * [`shrink_and_retry`] is the ULFM-style recovery loop: what one
//!   *attempt* does is the caller's closure (the plain executor restarts
//!   from scratch, the ABFT executor resumes from its newest checkpoint),
//!   what happens *between* attempts is here.
//!
//! Every SummaGen rank runs the one walk of [`crate::stages`]. Real and
//! phantom runs differ only in whether their ranks carry dealt blocks
//! ([`Hosted`]) and in what a block's GEMM costs on the virtual clock — and
//! so in who hosts the ranks: phantom blocks move nothing and need no thread.

use std::collections::BTreeMap;

use summagen_comm::{
    ClockSnapshot, CommError, CommResult, Communicator, CostModel, FailureCause, FaultPlan,
    RankFailure, TrafficStats, Universe,
};
use summagen_matrix::{DenseMatrix, GemmKernel};
use summagen_partition::{
    beaumont_column_layout, proportional_areas, PartitionSpec, ProcBlock, Shape,
};
use summagen_platform::Platform;

use crate::abft::AbftStats;
use crate::executor::{ExecutionMode, RecoveryError, RecoveryReport, RunOptions, RunResult};
use crate::rankdata::{assemble, deal, RankMatrices};
use crate::simulate::SimReport;
use crate::stages::{whole, Hosted, Lanes, Walk};

/// The `C` blocks one rank computed, with their placement.
pub(crate) type RankBlocks = Vec<(ProcBlock, DenseMatrix)>;

/// What every rank of one universe brought back.
pub(crate) struct Launched<R> {
    /// The rank closure's own results, in rank order.
    pub per_rank: Vec<R>,
    pub clocks: Vec<ClockSnapshot>,
    pub traffic: Vec<TrafficStats>,
}

impl<R> Launched<R> {
    /// `(exec_time, comp_time, comm_time)`: the max over ranks of final
    /// virtual time, attributed computation and attributed communication.
    pub fn times(&self) -> (f64, f64, f64) {
        let max = |f: fn(&ClockSnapshot) -> f64| self.clocks.iter().map(f).fold(0.0, f64::max);
        (max(|c| c.now), max(|c| c.comp_time), max(|c| c.comm_time))
    }

    /// The report of a phantom run of an `n × n` product.
    pub fn sim_report(self, n: usize) -> SimReport {
        let (exec_time, comp_time, comm_time) = self.times();
        SimReport {
            n,
            exec_time,
            comp_time,
            comm_time,
            clocks: self.clocks,
            traffic: self.traffic,
            total_flops: 2.0 * (n as f64).powi(3),
            energy: None,
        }
    }

    fn new(ranks: impl IntoIterator<Item = (R, Readout)>) -> Self {
        let (per_rank, (clocks, traffic)) = ranks.into_iter().unzip();
        Launched {
            per_rank,
            clocks,
            traffic,
        }
    }
}

/// What the engine reads off a rank once its work is done.
type Readout = (ClockSnapshot, TrafficStats);

fn readout(comm: &Communicator) -> Readout {
    (comm.clock_snapshot(), comm.traffic())
}

/// A fresh universe of `nprocs` ranks configured from `opts`, under
/// `faults` if given — the one place a SummaGen run builds one.
fn universe(
    nprocs: usize,
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
) -> Universe {
    let mut universe = Universe::new(nprocs, cost)
        .recv_timeout(opts.recv_timeout)
        .with_backend(opts.backend);
    if let Some(plan) = faults {
        universe = universe.with_faults(plan);
    }
    if let Some(plan) = &opts.link_plan {
        universe = universe.with_link_plan(plan.clone());
    }
    if opts.heartbeat {
        universe = universe.with_heartbeat();
    }
    if let Some(metrics) = &opts.metrics {
        universe = universe.with_metrics(metrics.clone());
    }
    if let Some(sink) = &opts.sink {
        universe = universe.with_event_sink(sink.clone());
    }
    universe
}

/// Runs `rank_fn` once per rank, one thread each, and collects what every
/// rank brought back. A dying rank surfaces as `Err(RankFailure)` instead
/// of a panic or a silent hang.
pub(crate) fn launch<R: Send>(
    nprocs: usize,
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
    rank_fn: impl Fn(&Communicator) -> CommResult<R> + Sync,
) -> Result<Launched<R>, RankFailure> {
    let results = universe(nprocs, cost, faults, opts)
        .try_run(|comm| Ok((rank_fn(&comm)?, readout(&comm))))?;
    Ok(Launched::new(results))
}

/// Unwraps a run on a path where nothing injects faults: a rank failure
/// there is a bug to fail loudly on, not a condition to report.
pub(crate) fn infallible<T, E: std::fmt::Display>(run: Result<T, E>) -> T {
    run.unwrap_or_else(|failure| panic!("rank panicked: {failure}"))
}

/// One real-numeric execution over a fixed partition: deals the blocks
/// (fully checksummed if `checksums`, see [`deal`]) and lists every
/// broadcast lane's members, launches `rank_fn` (which returns the rank's
/// `C` blocks plus whatever else its executor tracks), reassembles `C` and
/// folds the clocks.
pub(crate) fn run_numeric<S: Send>(
    spec: &PartitionSpec,
    ab: (&DenseMatrix, &DenseMatrix),
    checksums: bool,
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
    rank_fn: impl Fn(&Communicator, &RankMatrices, &Lanes) -> CommResult<(RankBlocks, S)> + Sync,
) -> Result<(RunResult, Vec<S>), RankFailure> {
    let rank_data = deal(spec, ab, checksums);
    let lanes = Lanes::new(spec);
    let launched = launch(spec.nprocs, cost, faults, opts, |comm| {
        rank_fn(comm, &rank_data[comm.rank()], &lanes)
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

/// [`run_numeric`] with every rank walking `walk` on a thread of its own;
/// a protected walk is dealt checksummed blocks.
pub(crate) fn run_walk(
    spec: &PartitionSpec,
    ab: (&DenseMatrix, &DenseMatrix),
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
    walk: &Walk,
) -> Result<(RunResult, Vec<AbftStats>), RankFailure> {
    let rank_fn = |comm: &Communicator, data: &RankMatrices, lanes: &Lanes| {
        let mut hosted = [Hosted::new(comm, Some(data))];
        walk.run(&mut hosted, spec, lanes)?;
        let [rank] = hosted;
        Ok((rank.out, rank.stats))
    };
    let checksums = walk.protection.is_some();
    run_numeric(spec, ab, checksums, cost, faults, opts, rank_fn)
}

/// One attempt of the three-stage algorithm on real matrices: the walk of
/// one window. Real runs do not model device speeds: computation advances
/// the clock by zero (timing studies use the phantom path).
pub(crate) fn run_real(
    spec: &PartitionSpec,
    ab: (&DenseMatrix, &DenseMatrix),
    mode: ExecutionMode,
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
) -> Result<RunResult, RankFailure> {
    let walk = Walk {
        windows: &whole(spec),
        kernel: mode.kernel(),
        charge: Some(&|_, _, _| 0.0),
        protection: None,
    };
    run_walk(spec, ab, cost, faults, opts, &walk).map(|(run, _)| run)
}

/// The three-stage algorithm with phantom payloads: rank `i` runs on
/// `platform.processors[i]`, whose speed function (evaluated at the rank's
/// total partition area — the paper's `A(Z) / s(A(Z))` convention) times
/// its DGEMMs. No data moves, so no rank needs a thread: the caller hosts
/// them all and walks the schedule in its one global order.
///
/// # Panics
/// Panics if the platform has fewer processors than the spec, or if a
/// broadcast fails (bogus timings are worse than none).
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
    let block_seconds = |rank: usize, blk: &ProcBlock, kb: usize| {
        platform.processors[rank].dgemm_time(blk.rows, kb, blk.cols, areas[rank] as f64)
    };
    let walk = Walk {
        windows: &whole(spec),
        kernel: GemmKernel::default(),
        charge: Some(&block_seconds),
        protection: None,
    };
    let launched = infallible(universe(spec.nprocs, cost, None, opts).host(|comms| {
        let mut ranks: Vec<_> = comms.iter().map(|c| Hosted::new(c, None)).collect();
        walk.run(&mut ranks, spec, &Lanes::new(spec))?;
        let readouts = comms.iter().map(readout);
        let blocks = ranks.into_iter().map(|r| r.out);
        CommResult::Ok(Launched::new(blocks.zip(readouts)))
    }));
    launched.sim_report(spec.n)
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
    use std::sync::{Arc, Mutex};
    use summagen_comm::{Backend, EventSink, HockneyModel, RuntimeMetrics, SpanRecord};
    use summagen_partition::ALL_FOUR_SHAPES;
    use summagen_platform::profile::hclserver1;

    /// Every span, in delivery order.
    #[derive(Default)]
    struct SpanLog(Mutex<Vec<SpanRecord>>);

    impl EventSink for SpanLog {
        fn record(&self, span: SpanRecord) {
            self.0.lock().expect("no recorder panics").push(span);
        }
    }

    impl SpanLog {
        /// Each rank's spans in the order that rank emitted them.
        fn per_rank(&self, nprocs: usize) -> Vec<Vec<SpanRecord>> {
            let all = self.0.lock().expect("no recorder panics");
            let of = |rank| all.iter().filter(|s| s.rank == rank).cloned().collect();
            (0..nprocs).map(of).collect()
        }
    }

    /// The displaced arrangement, kept as the oracle: the same phantom
    /// walk, one hosted rank per thread of the threaded launcher.
    fn threaded_phantom(
        spec: &PartitionSpec,
        platform: &Platform,
        opts: &RunOptions,
    ) -> Launched<RankBlocks> {
        let areas = spec.areas();
        let lanes = Lanes::new(spec);
        let cost = HockneyModel::intra_node();
        let block_seconds = |rank: usize, blk: &ProcBlock, _: usize| {
            platform.processors[rank].dgemm_time(blk.rows, spec.n, blk.cols, areas[rank] as f64)
        };
        let walk = Walk {
            windows: &whole(spec),
            kernel: GemmKernel::default(),
            charge: Some(&block_seconds),
            protection: None,
        };
        infallible(launch(spec.nprocs, cost, None, opts, |comm| {
            let mut hosted = [Hosted::new(comm, None)];
            walk.run(&mut hosted, spec, &lanes)?;
            let [rank] = hosted;
            Ok(rank.out)
        }))
    }

    /// Hosting all ranks on the caller changes nothing a run reports:
    /// clocks, traffic and every rank's ordered span list equal
    /// the one-thread-per-rank run's, whatever is watching and on either
    /// wire.
    #[test]
    fn hosted_phantom_run_equals_one_thread_per_rank() {
        // HCLServer1 three times over, so that a nine-rank layout fits.
        let mut platform = hclserver1();
        platform.processors = [(); 3].map(|()| platform.processors.clone()).concat();
        let beaumont =
            beaumont_column_layout(6_144, &[1.0, 2.0, 0.9, 1.5, 0.7, 1.2, 2.5, 0.8, 1.1]);
        let paper = ALL_FOUR_SHAPES.map(|shape| survivor_spec(shape, 4_096, &[1.0, 2.0, 0.9]));
        for (spec, backend, watching) in paper
            .iter()
            .chain([&beaumont])
            .flat_map(|spec| (0..4u32).map(move |w| (spec, Backend::Channel, w)))
            .chain([(&paper[0], Backend::Tcp, 0), (&beaumont, Backend::Tcp, 3)])
        {
            let logs = [Arc::new(SpanLog::default()), Arc::new(SpanLog::default())];
            let opts = |log: &Arc<SpanLog>| RunOptions {
                backend,
                sink: (watching & 1 != 0).then(|| Arc::clone(log) as Arc<dyn EventSink>),
                metrics: (watching & 2 != 0).then(RuntimeMetrics::fresh),
                ..RunOptions::default()
            };
            let (watched_threaded, watched_hosted) = (opts(&logs[0]), opts(&logs[1]));
            let threaded = threaded_phantom(spec, &platform, &watched_threaded);
            let hosted = run_phantom(spec, &platform, HockneyModel::intra_node(), &watched_hosted);
            let ctx = format!(
                "{}x{} grid, {backend:?}, watchers {watching:02b}",
                spec.grid_rows, spec.grid_cols
            );
            assert_eq!(hosted.clocks, threaded.clocks, "{ctx}");
            assert_eq!(hosted.traffic, threaded.traffic, "{ctx}");
            let spans = logs.map(|log| log.per_rank(spec.nprocs));
            assert_eq!(spans[1], spans[0], "{ctx}");
            assert_eq!(
                spans[1].iter().all(Vec::is_empty),
                watching & 1 == 0,
                "{ctx}"
            );
            let counted = |o: &RunOptions| {
                let m = o.metrics.as_ref()?;
                let counters = [&m.send_msgs, &m.send_bytes, &m.recv_msgs, &m.gemm.ops];
                Some(counters.map(|c| c.get()))
            };
            assert_eq!(
                counted(&watched_hosted),
                counted(&watched_threaded),
                "{ctx}"
            );
        }
    }
}
