//! The experiments of Section VI, one function per table/figure.

use summagen_comm::HockneyModel;
use summagen_core::{simulate, SimReport};
use summagen_partition::{
    load_imbalancing_areas, proportional_areas, DiscreteFpm, Shape, ALL_FOUR_SHAPES,
};
use summagen_platform::device::{HASWELL_E5_2670V3, NVIDIA_K40C, XEON_PHI_3120P};
use summagen_platform::energy::hclserver1_power_model;
use summagen_platform::profile::hclserver1;
use summagen_platform::stats::percent_spread;
use summagen_platform::Platform;

/// The paper's constant relative speeds for Section VI-A.
pub const CPM_SPEEDS: [f64; 3] = [1.0, 2.0, 0.9];

/// Problem sizes of the constant-performance-model experiments
/// (Figures 6 and 8): {25600, …, 35840} plus the 38416 peak point.
pub fn cpm_problem_sizes() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=10).map(|k| 25_600 + k * 1_024).collect();
    v.push(38_416);
    v
}

/// Problem sizes of the FPM experiments (Figure 7): {1024, …, 20480}.
pub fn fpm_problem_sizes() -> Vec<usize> {
    (1..=20).map(|k| k * 1_024).collect()
}

/// The link model used for all simulated runs.
pub fn link_model() -> HockneyModel {
    HockneyModel::intra_node()
}

/// Extracts a report's dynamic-energy reading, panicking with the run's
/// shape and size on a miss — `SimReport::with_energy` always populates
/// the reading, so an absent one is a harness wiring bug and the message
/// should say exactly which experiment point hit it.
pub fn dynamic_energy_j(r: &SimReport, shape: Shape, n: usize) -> f64 {
    r.energy
        .as_ref()
        .unwrap_or_else(|| {
            panic!(
                "no energy reading for {} at N = {n}: the point was simulated \
                 without an energy meter (use SimReport::with_energy)",
                shape.name()
            )
        })
        .dynamic_energy_j
}

/// One data point of a shape-comparison figure.
#[derive(Debug, Clone)]
pub struct ShapePoint {
    /// Problem size N.
    pub n: usize,
    /// Shape evaluated.
    pub shape: Shape,
    /// Full simulation report.
    pub report: SimReport,
}

/// Table I: prints the device specifications.
pub fn table1() -> String {
    let mut s = String::new();
    s.push_str("TABLE I — HCLServer1 device specifications (modelled)\n");
    for d in [HASWELL_E5_2670V3, NVIDIA_K40C, XEON_PHI_3120P] {
        s.push_str(&format!(
            "  {:<38} cores {:>5}  mem {:>5.1} GiB  membw {:>5.0} GB/s  peak {:>4.2} TFLOPs\n",
            d.name,
            d.cores,
            d.memory_bytes as f64 / (1 << 30) as f64,
            d.memory_bandwidth / 1e9,
            d.peak_flops / 1e12,
        ));
    }
    s.push_str(&format!(
        "  platform theoretical peak: {:.2} TFLOPs\n",
        hclserver1().theoretical_peak_flops() / 1e12
    ));
    s
}

/// Figure 1: the four example partition layouts at n = 16 with the exact
/// arrays from Section IV.
pub fn fig1() -> String {
    let mut s = String::new();
    let examples: [(&str, Vec<f64>); 4] = [
        ("square corner (Fig. 1a)", vec![81.0, 159.0, 16.0]),
        ("square rectangle (Fig. 1b)", vec![192.0, 48.0, 16.0]),
        ("block rectangle (Fig. 1c)", vec![192.0, 24.0, 40.0]),
        ("1D rectangular (Fig. 1d)", vec![128.0, 80.0, 48.0]),
    ];
    for ((name, areas), shape) in examples.iter().zip(ALL_FOUR_SHAPES) {
        let spec = shape.build(16, areas);
        s.push_str(&format!(
            "{name}\n  subplda={} subpldb={}\n  subp={:?}\n  subph={:?}\n  subpw={:?}\n{}\n",
            spec.grid_rows,
            spec.grid_cols,
            spec.owners,
            spec.heights,
            spec.widths,
            indent(&spec.element_map(16)),
        ));
    }
    s
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Figure 5: speed functions of the three abstract processors. Returns
/// `(x, [cpu, gpu, phi])` rows in FLOP/s, sampled at square sizes.
pub fn fig5_series(step: usize) -> Vec<(usize, [f64; 3])> {
    let platform = hclserver1();
    let mut rows = Vec::new();
    let mut x = 64;
    while x <= 38_416 {
        let speeds = [
            platform.processors[0].speed.flops_at_square(x as f64),
            platform.processors[1].speed.flops_at_square(x as f64),
            platform.processors[2].speed.flops_at_square(x as f64),
        ];
        rows.push((x, speeds));
        x += step;
    }
    rows
}

/// Runs one CPM experiment point: the matrices are partitioned with the
/// constant relative speeds {1.0, 2.0, 0.9} (as the paper does), executed
/// on the full Fig. 5 device profiles.
pub fn run_cpm_point(n: usize, shape: Shape, platform: &Platform) -> SimReport {
    let areas = proportional_areas(n, &CPM_SPEEDS);
    let spec = shape.build(n, &areas);
    simulate(&spec, platform, link_model()).with_energy(&hclserver1_power_model())
}

/// Figure 6 (a, b, c): execution / computation / communication times of
/// the four shapes under the constant performance model.
pub fn fig6_series() -> Vec<ShapePoint> {
    let platform = hclserver1();
    let mut out = Vec::new();
    for n in cpm_problem_sizes() {
        for shape in ALL_FOUR_SHAPES {
            out.push(ShapePoint {
                n,
                shape,
                report: run_cpm_point(n, shape, &platform),
            });
        }
    }
    out
}

/// Grid resolution of the discrete FPMs fed to the load-imbalancing
/// partitioner.
pub const FPM_GRID_STEPS: usize = 192;

/// Runs one FPM experiment point: the matrices are partitioned with the
/// load-imbalancing algorithm over the non-smooth discrete FPMs sampled
/// from the Fig. 5 profiles.
pub fn run_fpm_point(n: usize, shape: Shape, platform: &Platform) -> SimReport {
    let fpms: Vec<DiscreteFpm> = platform
        .processors
        .iter()
        .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, FPM_GRID_STEPS))
        .collect();
    let areas = load_imbalancing_areas(n, &fpms);
    let spec = shape.build(n, &areas);
    simulate(&spec, platform, link_model()).with_energy(&hclserver1_power_model())
}

/// Figure 7 (a, b, c): the same three series under functional performance
/// models with load-imbalancing partitioning.
pub fn fig7_series() -> Vec<ShapePoint> {
    let platform = hclserver1();
    let mut out = Vec::new();
    for n in fpm_problem_sizes() {
        for shape in ALL_FOUR_SHAPES {
            out.push(ShapePoint {
                n,
                shape,
                report: run_fpm_point(n, shape, &platform),
            });
        }
    }
    out
}

/// Figure 8: dynamic energy of the four shapes under CPM, over
/// {25600, …, 35840}.
pub fn fig8_series() -> Vec<(usize, Shape, f64)> {
    let platform = hclserver1();
    let mut out = Vec::new();
    for n in cpm_problem_sizes() {
        if n > 35_840 {
            continue;
        }
        for shape in ALL_FOUR_SHAPES {
            let r = run_cpm_point(n, shape, &platform);
            out.push((n, shape, dynamic_energy_j(&r, shape, n)));
        }
    }
    out
}

/// Headline statistics mirroring the text of Sections VI-A/B.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Max percentage spread between shapes at any CPM problem size.
    pub cpm_max_spread_pct: f64,
    /// Problem size where the max spread occurs.
    pub cpm_max_spread_n: usize,
    /// Mean percentage spread over CPM problem sizes.
    pub cpm_avg_spread_pct: f64,
    /// Peak achieved TFLOPs over all CPM points and the shape/size.
    pub peak_tflops: f64,
    pub peak_shape: Shape,
    pub peak_n: usize,
    /// Peak as a fraction of the 2.5 TFLOPs theoretical platform peak.
    pub peak_fraction: f64,
    /// Average achieved fraction over the CPM range.
    pub avg_fraction: f64,
    /// Mean percentage spread of dynamic energy across shapes (CPM).
    pub energy_avg_spread_pct: f64,
    /// Mean FPM execution time per shape (Figure 7 ranking).
    pub fpm_mean_time_per_shape: Vec<(Shape, f64)>,
}

/// Computes the summary from fresh runs.
pub fn summarize(cpm: &[ShapePoint], fpm: &[ShapePoint]) -> Summary {
    let peak_theoretical = hclserver1().theoretical_peak_flops();

    let mut max_spread = 0.0;
    let mut max_spread_n = 0;
    let mut spreads = Vec::new();
    let mut energy_spreads = Vec::new();
    let mut fractions = Vec::new();
    let mut peak = (0.0_f64, Shape::SquareCorner, 0usize);
    for n in cpm
        .iter()
        .map(|p| p.n)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let points: Vec<&ShapePoint> = cpm.iter().filter(|p| p.n == n).collect();
        let times: Vec<f64> = points.iter().map(|p| p.report.exec_time).collect();
        let spread = percent_spread(&times);
        spreads.push(spread);
        if spread > max_spread {
            max_spread = spread;
            max_spread_n = n;
        }
        let energies: Vec<f64> = points
            .iter()
            .filter_map(|p| p.report.energy.as_ref().map(|e| e.dynamic_energy_j))
            .collect();
        if !energies.is_empty() {
            energy_spreads.push(percent_spread(&energies));
        }
        for p in &points {
            let f = p.report.achieved_flops();
            fractions.push(f / peak_theoretical);
            if f > peak.0 {
                peak = (f, p.shape, p.n);
            }
        }
    }

    let mut fpm_mean: Vec<(Shape, f64)> = ALL_FOUR_SHAPES
        .iter()
        .map(|&s| {
            let ts: Vec<f64> = fpm
                .iter()
                .filter(|p| p.shape == s)
                .map(|p| p.report.exec_time)
                .collect();
            (s, ts.iter().sum::<f64>() / ts.len().max(1) as f64)
        })
        .collect();
    fpm_mean.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

    Summary {
        cpm_max_spread_pct: max_spread,
        cpm_max_spread_n: max_spread_n,
        cpm_avg_spread_pct: spreads.iter().sum::<f64>() / spreads.len().max(1) as f64,
        peak_tflops: peak.0 / 1e12,
        peak_shape: peak.1,
        peak_n: peak.2,
        peak_fraction: peak.0 / peak_theoretical,
        avg_fraction: fractions.iter().sum::<f64>() / fractions.len().max(1) as f64,
        energy_avg_spread_pct: energy_spreads.iter().sum::<f64>()
            / energy_spreads.len().max(1) as f64,
        fpm_mean_time_per_shape: fpm_mean,
    }
}

/// Ablation: the Becker square-corner vs 1D crossover. Sweeps the speed of
/// the fast processor and reports, per ratio, the total half-perimeters of
/// the two shapes. The crossover (square corner winning) should appear
/// near ratio 3:1.
pub fn crossover_series(n: usize) -> Vec<(f64, usize, usize)> {
    let mut out = Vec::new();
    let mut ratio = 1.0;
    while ratio <= 8.0 + 1e-9 {
        let speeds = [1.0, ratio, 1.0];
        let areas = proportional_areas(n, &speeds);
        let sc = Shape::SquareCorner.build(n, &areas).total_half_perimeter();
        let od = Shape::OneDRectangular
            .build(n, &areas)
            .total_half_perimeter();
        out.push((ratio, sc, od));
        ratio += 0.5;
    }
    out
}

/// Ablation: NRRP vs the Beaumont column baseline vs the best of the four
/// named shapes, by total half-perimeter, against the `2·Σ√aᵢ` lower
/// bound. Returns `(label, nrrp, columns, best_shape, lower_bound)` rows.
pub fn nrrp_comparison(n: usize) -> Vec<(String, usize, usize, usize, f64)> {
    use summagen_partition::{beaumont_column_layout, half_perimeter_lower_bound, nrrp_layout};
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("1:1:1", vec![1.0, 1.0, 1.0]),
        ("1:2:0.9 (paper)", vec![1.0, 2.0, 0.9]),
        ("1:5:1", vec![1.0, 5.0, 1.0]),
        ("1:10:1", vec![1.0, 10.0, 1.0]),
        ("8:4:2:1:1 (p=5)", vec![8.0, 4.0, 2.0, 1.0, 1.0]),
    ];
    cases
        .into_iter()
        .map(|(label, speeds)| {
            let areas = proportional_areas(n, &speeds);
            let lb = half_perimeter_lower_bound(&areas);
            let nrrp = nrrp_layout(n, &speeds).total_half_perimeter();
            let cols = beaumont_column_layout(n, &speeds).total_half_perimeter();
            let best_shape = if speeds.len() == 3 {
                ALL_FOUR_SHAPES
                    .iter()
                    .map(|s| s.build(n, &areas).total_half_perimeter())
                    .min()
                    .unwrap()
            } else {
                Shape::OneDRectangular
                    .build(n, &areas)
                    .total_half_perimeter()
            };
            (label.to_string(), nrrp, cols, best_shape, lb)
        })
        .collect()
}

/// One `(exec seconds, energy joules)` sample of an objective-specific
/// distribution in [`energy_vs_time_partition`].
pub type TimeEnergy = (f64, f64);

/// Ablation for the paper's open problem: time-optimal vs energy-optimal
/// workload distribution on the modelled node. Returns per problem size
/// `(n, time-opt (exec s, energy J), energy-opt (exec s, energy J))`.
pub fn energy_vs_time_partition() -> Vec<(usize, TimeEnergy, TimeEnergy)> {
    use summagen_partition::energy_optimal_areas;
    let platform = hclserver1();
    let power = hclserver1_power_model();
    let mut out = Vec::new();
    for &n in &[8_192usize, 12_288, 16_384, 20_480] {
        let fpms: Vec<DiscreteFpm> = platform
            .processors
            .iter()
            .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, FPM_GRID_STEPS))
            .collect();
        let run = |areas: &[f64]| {
            let spec = Shape::SquareRectangle.build(n, areas);
            let r = simulate(&spec, &platform, link_model()).with_energy(&power);
            (r.exec_time, dynamic_energy_j(&r, Shape::SquareRectangle, n))
        };
        let t_areas = load_imbalancing_areas(n, &fpms);
        let e_areas = energy_optimal_areas(n, &fpms, &power.compute_power_w);
        out.push((n, run(&t_areas), run(&e_areas)));
    }
    out
}

/// Ablation: SummaGen (block-rectangle, heterogeneity-aware areas) vs
/// classic SUMMA (1 × 3 grid, equal blocks) on the modelled node.
/// Returns `(n, summagen exec, classic summa exec)` rows.
pub fn summa_comparison() -> Vec<(usize, f64, f64)> {
    use summagen_core::summa_simulate;
    let platform = hclserver1();
    let mut out = Vec::new();
    for &n in &[8_190usize, 16_384, 24_576] {
        let areas = proportional_areas(n, &CPM_SPEEDS);
        let sg = simulate(
            &Shape::BlockRectangle.build(n, &areas),
            &platform,
            link_model(),
        )
        .exec_time;
        let classic = summa_simulate(n, 1, 3, 1_024, &platform, link_model()).exec_time;
        out.push((n, sg, classic));
    }
    out
}

/// Future-work experiment (Section VII): SummaGen across a two-node
/// cluster. Two HCLServer1s (6 abstract processors) run a 6-way 1D
/// partition under three topologies — all intra-node, a 3+3 two-node
/// split, and fully distributed — showing how inter-node links inflate
/// the communication time. Returns `(topology, exec, comp, comm)` rows.
pub fn cluster_experiment(n: usize) -> Vec<(String, f64, f64, f64)> {
    use summagen_comm::TwoLevelTopology;
    use summagen_core::simulate;
    use summagen_platform::Platform;

    let single = hclserver1();
    let mut procs = single.processors.clone();
    procs.extend(single.processors.iter().cloned());
    let platform = Platform::new(procs, 2.0 * single.static_power_w);

    let speeds = [1.0, 2.0, 0.9, 1.0, 2.0, 0.9];
    let areas = proportional_areas(n, &speeds);
    let spec = Shape::OneDRectangular.build(n, &areas);

    let intra = link_model();
    let inter = summagen_comm::HockneyModel::from_latency_bandwidth(2e-5, 1.0e9);

    let mut out = Vec::new();
    for (label, ranks_per_node) in [
        ("one node", 6usize),
        ("two nodes (3+3)", 3),
        ("six nodes", 1),
    ] {
        let topo = TwoLevelTopology::uniform(6, ranks_per_node, intra, inter);
        let r = simulate(&spec, &platform, topo);
        out.push((label.to_string(), r.exec_time, r.comp_time, r.comm_time));
    }
    out
}

/// Methodology reproduction: rebuild the Fig. 5 profiles *through the
/// measurement protocol* (noisy timers, Student's-t repetition, Pearson
/// chi-squared normality check) and report the recovered-vs-truth error.
/// Returns `(device, sizes_measured, worst_rel_error, mean_reps,
/// normality_ok)` rows.
pub fn fig5_measured() -> Vec<(String, usize, f64, f64, bool)> {
    use summagen_platform::measurement::{build_fpm_via_protocol, NoisyTimer};
    use summagen_platform::stats::{pearson_normality_test, MeasurementProtocol};

    let platform = hclserver1();
    let names = ["AbsCPU", "AbsGPU", "AbsXeonPhi"];
    let sizes: Vec<f64> = (2..=30).map(|k| k as f64 * 1_024.0).collect();
    let mut out = Vec::new();
    for (i, proc) in platform.processors.iter().enumerate() {
        let truth = proc.speed.as_ref();
        let (_, points) = build_fpm_via_protocol(
            truth,
            &sizes,
            0.03,
            7_000 + i as u64,
            MeasurementProtocol::default(),
        );
        let worst = points
            .iter()
            .map(|p| (p.speed - truth.flops_at_square(p.x)).abs() / truth.flops_at_square(p.x))
            .fold(0.0, f64::max);
        let mean_reps =
            points.iter().map(|p| p.stats.reps as f64).sum::<f64>() / points.len() as f64;
        // Normality check on raw samples at one representative size.
        let mut timer = NoisyTimer::new(truth, 0.03, 9_000 + i as u64);
        let samples: Vec<f64> = (0..200).map(|_| timer.time_once(8_192.0)).collect();
        let normal = pearson_normality_test(&samples, 8).consistent_with_normal();
        out.push((names[i].to_string(), points.len(), worst, mean_reps, normal));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_measured_recovers_profiles() {
        for (name, _, worst, mean_reps, normal) in fig5_measured() {
            assert!(worst < 0.06, "{name}: worst error {worst}");
            assert!(mean_reps >= 5.0, "{name}: protocol must repeat");
            assert!(normal, "{name}: normality rejected");
        }
    }

    #[test]
    fn problem_size_ranges_match_paper() {
        let cpm = cpm_problem_sizes();
        assert_eq!(*cpm.first().unwrap(), 25_600);
        assert!(cpm.contains(&35_840));
        assert!(cpm.contains(&38_416));
        let fpm = fpm_problem_sizes();
        assert_eq!(*fpm.first().unwrap(), 1_024);
        assert_eq!(*fpm.last().unwrap(), 20_480);
    }

    #[test]
    fn fig5_series_covers_three_processors() {
        let rows = fig5_series(4_096);
        assert!(rows.len() >= 8);
        for (_, s) in &rows {
            assert!(s.iter().all(|&v| v > 0.0));
        }
        // GPU fastest at plateau.
        let (_, plateau) = rows[rows.len() / 2];
        assert!(plateau[1] > plateau[0] && plateau[1] > plateau[2]);
    }

    #[test]
    fn cpm_point_runs_and_reports_energy() {
        let platform = hclserver1();
        let r = run_cpm_point(25_600, Shape::SquareCorner, &platform);
        assert!(r.exec_time > 0.0);
        assert!(dynamic_energy_j(&r, Shape::SquareCorner, 25_600) > 0.0);
    }

    #[test]
    fn fpm_point_runs() {
        let platform = hclserver1();
        let r = run_fpm_point(8_192, Shape::BlockRectangle, &platform);
        assert!(r.exec_time > 0.0);
        assert!(r.comp_time > 0.0);
    }

    #[test]
    fn crossover_eventually_favours_square_corner() {
        let series = crossover_series(1_024);
        let last = series.last().unwrap();
        assert!(last.1 < last.2, "square corner should win at ratio 8:1");
        let first = series.first().unwrap();
        // At 1:1:1 the 1D layout's total half-perimeter is competitive.
        assert!(first.2 <= first.1 + first.2);
    }

    #[test]
    fn fig1_contains_paper_arrays() {
        let text = fig1();
        assert!(text.contains("subph=[9, 3, 4]"));
        assert!(text.contains("subp=[0, 0, 1, 0, 2, 1]"));
        assert!(text.contains("subpw=[8, 5, 3]"));
    }

    #[test]
    fn table1_mentions_all_devices() {
        let t = table1();
        assert!(t.contains("Haswell"));
        assert!(t.contains("K40c"));
        assert!(t.contains("Phi"));
        assert!(t.contains("2.50 TFLOPs"));
    }

    #[test]
    fn nrrp_never_loses_to_columns() {
        for (label, nrrp, cols, _, lb) in nrrp_comparison(768) {
            assert!(nrrp as f64 >= lb - 1.0, "{label}: below lower bound");
            assert!(nrrp <= cols, "{label}: nrrp {nrrp} vs cols {cols}");
        }
    }

    #[test]
    fn nrrp_strictly_wins_on_two_skewed_processors() {
        use summagen_partition::{beaumont_column_layout, nrrp_layout};
        // Ratio 6:1 > 3: the square-corner base case fires and beats any
        // column layout.
        let n = 768;
        let nrrp = nrrp_layout(n, &[6.0, 1.0]).total_half_perimeter();
        let cols = beaumont_column_layout(n, &[6.0, 1.0]).total_half_perimeter();
        assert!(nrrp < cols, "nrrp {nrrp} vs cols {cols}");
    }

    #[test]
    fn energy_optimum_never_costs_more_energy() {
        for (n, (_, e_time_opt), (_, e_energy_opt)) in energy_vs_time_partition() {
            assert!(
                e_energy_opt <= e_time_opt * 1.02,
                "n={n}: energy-opt {e_energy_opt} J vs time-opt {e_time_opt} J"
            );
        }
    }

    #[test]
    fn cluster_topology_inflates_comm_monotonically() {
        let rows = cluster_experiment(12_288);
        assert_eq!(rows.len(), 3);
        // Computation identical; communication grows with distribution.
        assert!(rows[0].3 < rows[1].3, "{rows:?}");
        assert!(rows[1].3 < rows[2].3, "{rows:?}");
        assert!((rows[0].2 - rows[2].2).abs() / rows[0].2 < 0.01);
    }

    #[test]
    fn summagen_beats_homogeneous_summa_on_heterogeneous_node() {
        // Classic SUMMA's equal blocks ignore the 1 : 2 : 0.9 speeds, so
        // the slowest processor gates it.
        for (n, sg, classic) in summa_comparison() {
            assert!(sg < classic, "n={n}: summagen {sg} vs summa {classic}");
        }
    }
}
