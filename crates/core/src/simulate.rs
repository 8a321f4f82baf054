//! Simulated-time SummaGen runs at paper scale.
//!
//! The communication schedule is *executed* (communicators, broadcasts —
//! with phantom payloads), so virtual times emerge from the actual message
//! pattern of the algorithm, while local DGEMMs advance each rank's clock by
//! the device-model execution time. This is how every figure of the
//! evaluation section is regenerated: the matrices for N = 38 416 would
//! occupy ~35 GB and ~10¹³ flops, far beyond a test machine, but their
//! *schedule* is cheap to execute.
//!
//! No rank gets a thread: a virtual clock needs only the *order* of its
//! rank's operations and the arrival stamps of what it receives, so the
//! caller hosts all `p` communicators and walks the broadcasts in their one
//! global order (`Universe::host`, DESIGN.md §18) — `p` is a loop bound.

use std::sync::Arc;

use summagen_comm::{ClockSnapshot, CostModel, EventSink, TrafficStats};
use summagen_partition::PartitionSpec;
use summagen_platform::energy::{EnergyMeter, MeterReading, PowerModel};
use summagen_platform::Platform;

use crate::engine;
use crate::executor::RunOptions;

/// The outcome of a simulated-time run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Matrix size.
    pub n: usize,
    /// Parallel execution time (max over ranks), seconds.
    pub exec_time: f64,
    /// Max over ranks of computation time (Figures 6b / 7b).
    pub comp_time: f64,
    /// Max over ranks of communication time (Figures 6c / 7c).
    pub comm_time: f64,
    /// Per-rank clock snapshots.
    pub clocks: Vec<ClockSnapshot>,
    /// Per-rank traffic counters.
    pub traffic: Vec<TrafficStats>,
    /// Total flops of the multiplication (`2·n³`).
    pub total_flops: f64,
    /// Energy reading, once [`SimReport::with_energy`] has metered the run.
    pub energy: Option<MeterReading>,
}

impl SimReport {
    /// Achieved performance in FLOP/s (`2n³ / exec_time`) — the quantity
    /// the paper reports as TFLOPs.
    pub fn achieved_flops(&self) -> f64 {
        if self.exec_time == 0.0 {
            0.0
        } else {
            self.total_flops / self.exec_time
        }
    }

    /// Meters the run with the paper's WattsUp-style 1 Hz meter and
    /// Equation 5, from each rank's busy totals (computation first, then
    /// communication, then idle until `exec_time`), and stores the reading
    /// in [`SimReport::energy`].
    pub fn with_energy(mut self, power: &PowerModel) -> Self {
        let comp: Vec<f64> = self.clocks.iter().map(|c| c.comp_time).collect();
        let comm: Vec<f64> = self.clocks.iter().map(|c| c.comm_time).collect();
        self.energy = Some(EnergyMeter::default().sample_run(power, &comp, &comm, self.exec_time));
        self
    }
}

/// Runs SummaGen in simulated time on the given platform.
///
/// Rank `i` executes on `platform.processors[i]`; its local DGEMM times
/// come from the processor's speed function evaluated at the rank's total
/// partition area (the paper's `A(Z) / s(A(Z))` convention), and message
/// costs from `cost`.
///
/// # Panics
/// Panics if the platform has fewer processors than the spec.
pub fn simulate(spec: &PartitionSpec, platform: &Platform, cost: impl CostModel) -> SimReport {
    simulate_with_options(spec, platform, cost, &RunOptions::default())
}

/// Like [`simulate`], additionally reporting every runtime event (sends,
/// receives, collectives, per-block GEMMs, stages) to `sink` — typically
/// a `summagen_trace::TraceRecorder`, whose finished trace yields Perfetto
/// timelines and the schedule's critical path.
pub fn simulate_instrumented(
    spec: &PartitionSpec,
    platform: &Platform,
    cost: impl CostModel,
    sink: Arc<dyn EventSink>,
) -> SimReport {
    let opts = RunOptions {
        sink: Some(sink),
        ..RunOptions::default()
    };
    simulate_with_options(spec, platform, cost, &opts)
}

/// [`simulate`] under arbitrary [`RunOptions`]: a metrics bundle, an event
/// sink, the TCP wire (`bench --backend tcp` exercises
/// the framed loopback transport under the workload the channel baselines
/// recorded). None of them moves a virtual clock, so `exec_time`,
/// `comp_time` and `comm_time` are bit-identical to [`simulate`]'s.
///
/// # Panics
/// Panics like [`simulate`], and if a broadcast fails (only `opts` can make
/// one: a lossy link plan that gives up or hangs a rank). `opts.heartbeat`
/// has no watchdog on this path: hosted ranks still emit `Heartbeat` spans,
/// but none can fall silent while its host runs, so none is ever suspected.
pub fn simulate_with_options(
    spec: &PartitionSpec,
    platform: &Platform,
    cost: impl CostModel,
    opts: &RunOptions,
) -> SimReport {
    engine::run_phantom(spec, platform, cost, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use summagen_comm::HockneyModel;
    use summagen_partition::{proportional_areas, Shape, ALL_FOUR_SHAPES};
    use summagen_platform::device::{HASWELL_E5_2670V3, NVIDIA_K40C, XEON_PHI_3120P};
    use summagen_platform::energy::hclserver1_power_model;
    use summagen_platform::profile::hclserver1;
    use summagen_platform::speed::ConstantSpeed;
    use summagen_platform::{AbstractProcessor, DeviceSpec, Platform};

    fn constant_platform(speeds: &[f64]) -> Platform {
        let specs: [DeviceSpec; 3] = [HASWELL_E5_2670V3, NVIDIA_K40C, XEON_PHI_3120P];
        Platform::new(
            speeds
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    AbstractProcessor::new(specs[i % 3].clone(), Arc::new(ConstantSpeed::new(s)))
                })
                .collect(),
            230.0,
        )
    }

    fn intra_node() -> HockneyModel {
        HockneyModel::intra_node()
    }

    #[test]
    fn comp_time_matches_analytic_for_cpm() {
        // Balanced areas on constant speeds: comp time = 2*a*n/s.
        let n = 1024;
        let speeds = [1.0e12, 2.0e12, 0.9e12];
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::BlockRectangle.build(n, &areas);
        let platform = constant_platform(&speeds);
        let report = simulate(&spec, &platform, intra_node());
        // Analytic expectation: per-processor sum over its blocks of
        // 2·h·n·w / (s · aspect_efficiency(h, w)), then the max.
        let expect: f64 = (0..3)
            .map(|proc| {
                spec.blocks_of(proc)
                    .iter()
                    .map(|b| {
                        2.0 * b.rows as f64 * n as f64 * b.cols as f64
                            / (speeds[proc]
                                * summagen_platform::device::aspect_efficiency(b.rows, b.cols))
                    })
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let rel = (report.comp_time - expect).abs() / expect;
        assert!(rel < 1e-9, "comp {} vs analytic {expect}", report.comp_time);
    }

    #[test]
    fn simulated_time_is_deterministic() {
        let n = 2048;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::SquareCorner.build(n, &areas);
        let platform = hclserver1();
        let a = simulate(&spec, &platform, intra_node());
        let b = simulate(&spec, &platform, intra_node());
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.comm_time, b.comm_time);
        assert_eq!(a.comp_time, b.comp_time);
    }

    #[test]
    fn four_shapes_tie_under_cpm_at_paper_scale() {
        // Section VI-A: with constant relative speeds the four shapes have
        // (nearly) equal execution times.
        let n = 30_720;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let platform = constant_platform(&[0.475e12, 0.95e12, 0.4275e12]);
        let times: Vec<f64> = ALL_FOUR_SHAPES
            .iter()
            .map(|s| simulate(&s.build(n, &areas), &platform, intra_node()).exec_time)
            .collect();
        let spread = summagen_platform::stats::percent_spread(&times);
        assert!(spread < 10.0, "shape spread {spread}% times {times:?}");
    }

    #[test]
    fn computation_dominates_communication_at_paper_scale() {
        let n = 30_720;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::SquareRectangle.build(n, &areas);
        let report = simulate(&spec, &hclserver1(), intra_node());
        assert!(
            report.comp_time > 5.0 * report.comm_time,
            "comp {} comm {}",
            report.comp_time,
            report.comm_time
        );
    }

    #[test]
    fn achieved_flops_below_platform_plateau() {
        let n = 30_720;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::SquareRectangle.build(n, &areas);
        let report = simulate(&spec, &hclserver1(), intra_node());
        let tflops = report.achieved_flops() / 1e12;
        // Between 50 % and 90 % of the 2.5 TFLOPs peak.
        assert!((1.25..2.25).contains(&tflops), "achieved {tflops} TFLOPs");
    }

    #[test]
    fn energy_reading_present_and_positive() {
        let n = 25_600;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::SquareCorner.build(n, &areas);
        let report =
            simulate(&spec, &hclserver1(), intra_node()).with_energy(&hclserver1_power_model());
        let e = report.energy.unwrap();
        assert!(e.dynamic_energy_j > 0.0);
        assert!(e.total_energy_j > e.dynamic_energy_j);
    }

    #[test]
    fn metered_run_populates_metrics_without_changing_times() {
        let n = 8_192;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::SquareCorner.build(n, &areas);
        let platform = hclserver1();
        let plain = simulate(&spec, &platform, intra_node());
        let metrics = summagen_comm::RuntimeMetrics::fresh();
        let metered = simulate_with_options(
            &spec,
            &platform,
            intra_node(),
            &RunOptions {
                metrics: Some(metrics.clone()),
                ..RunOptions::default()
            },
        );
        assert_eq!(plain.exec_time, metered.exec_time);
        // One virtual GEMM record per owned sub-partition; flops match the
        // report's total.
        let blocks: usize = (0..spec.nprocs).map(|r| spec.blocks_of(r).len()).sum();
        assert_eq!(metrics.gemm.ops.get(), blocks as u64);
        let flops = metrics.gemm.flops.get() as f64;
        let rel = (flops - metered.total_flops).abs() / metered.total_flops;
        assert!(
            rel < 0.05,
            "metric flops {flops} vs {}",
            metered.total_flops
        );
        // Message accounting agrees with the traffic counters.
        let sent: u64 = metered.traffic.iter().map(|t| t.bytes_sent).sum();
        assert_eq!(metrics.send_bytes.get(), sent);
        assert!(metrics.send_msgs.get() > 0);
        // The plain 3-stage schedule has no panel loop.
        assert_eq!(metrics.panel_steps.get(), 0);
    }

    #[test]
    fn larger_problems_take_longer() {
        let platform = hclserver1();
        let mut last = 0.0;
        for &n in &[4096usize, 8192, 16_384] {
            let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
            let spec = Shape::BlockRectangle.build(n, &areas);
            let t = simulate(&spec, &platform, intra_node()).exec_time;
            assert!(t > last, "n={n}: {t} !> {last}");
            last = t;
        }
    }

    #[test]
    fn traffic_scales_with_problem_size() {
        let platform = hclserver1();
        let vol = |n: usize| {
            let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
            let spec = Shape::OneDRectangular.build(n, &areas);
            let r = simulate(&spec, &platform, intra_node());
            r.traffic.iter().map(|t| t.bytes_sent).sum::<u64>()
        };
        let v1 = vol(2048);
        let v2 = vol(4096);
        // Communication volume grows ~quadratically with n.
        let ratio = v2 as f64 / v1 as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }
}
