//! Integration tests asserting the *shape* of the paper's experimental
//! findings on the simulated platform — the reproduction's acceptance
//! criteria from DESIGN.md.

use summagen_comm::HockneyModel;
use summagen_core::simulate;
use summagen_partition::{
    load_imbalancing_areas, proportional_areas, DiscreteFpm, Shape, ALL_FOUR_SHAPES,
};
use summagen_platform::energy::hclserver1_power_model;
use summagen_platform::profile::hclserver1;
use summagen_platform::stats::percent_spread;

fn link() -> HockneyModel {
    HockneyModel::intra_node()
}

/// Section VI-A: the four shapes exhibit (nearly) equal performance when
/// speeds are constant functions of problem size.
#[test]
fn cpm_shapes_tie_within_reason() {
    let platform = hclserver1();
    for &n in &[25_600usize, 30_720, 35_840] {
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let times: Vec<f64> = ALL_FOUR_SHAPES
            .iter()
            .map(|s| simulate(&s.build(n, &areas), &platform, link()).exec_time)
            .collect();
        let spread = percent_spread(&times);
        assert!(spread < 25.0, "N={n}: spread {spread}% (paper max: 23%)");
    }
}

/// Section VI-A: parallel execution times are dominated by computation.
#[test]
fn cpm_computation_dominates() {
    let platform = hclserver1();
    let n = 30_720;
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    for shape in ALL_FOUR_SHAPES {
        let r = simulate(&shape.build(n, &areas), &platform, link());
        assert!(
            r.comp_time > 3.0 * r.comm_time,
            "{}: comp {} not >> comm {}",
            shape.name(),
            r.comp_time,
            r.comm_time
        );
    }
}

/// Section VI-A: the communication times of the shapes *differ* (Fig. 6c)
/// even though execution times tie.
#[test]
fn cpm_communication_times_differ_between_shapes() {
    let platform = hclserver1();
    let n = 30_720;
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    let comms: Vec<f64> = ALL_FOUR_SHAPES
        .iter()
        .map(|s| simulate(&s.build(n, &areas), &platform, link()).comm_time)
        .collect();
    let spread = percent_spread(&comms);
    assert!(spread > 10.0, "comm times too similar: {comms:?}");
}

/// Section VI-C: the four shapes exhibit equal dynamic energy consumption
/// under the constant performance model.
#[test]
fn cpm_dynamic_energies_tie() {
    let platform = hclserver1();
    let power = hclserver1_power_model();
    let n = 28_672;
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    let energies: Vec<f64> = ALL_FOUR_SHAPES
        .iter()
        .map(|s| {
            simulate(&s.build(n, &areas), &platform, link())
                .with_energy(&power)
                .energy
                .unwrap()
                .dynamic_energy_j
        })
        .collect();
    let spread = percent_spread(&energies);
    assert!(spread < 10.0, "energy spread {spread}%: {energies:?}");
}

/// Section VI-B: with non-constant speeds and the load-imbalancing
/// partitioner, square rectangle and block rectangle outperform (on
/// average) the square corner and 1D rectangular shapes.
#[test]
fn fpm_square_rect_and_block_rect_win_on_average() {
    let platform = hclserver1();
    let mut mean = std::collections::HashMap::new();
    let sizes: Vec<usize> = (4..=20).step_by(4).map(|k| k * 1_024).collect();
    for &n in &sizes {
        let fpms: Vec<DiscreteFpm> = platform
            .processors
            .iter()
            .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, 160))
            .collect();
        let areas = load_imbalancing_areas(n, &fpms);
        for shape in ALL_FOUR_SHAPES {
            let t = simulate(&shape.build(n, &areas), &platform, link()).exec_time;
            *mean.entry(shape.name()).or_insert(0.0) += t / sizes.len() as f64;
        }
    }
    let sr = mean["square rectangle"];
    let br = mean["block rectangle"];
    let sc = mean["square corner"];
    let od = mean["1D rectangular"];
    let winners = sr.max(br);
    let losers = sc.min(od);
    assert!(
        winners < losers,
        "paper ranking violated: SR {sr:.3} BR {br:.3} vs SC {sc:.3} 1D {od:.3}"
    );
}

/// The peak achieved performance sits in the paper's 70-90 % band of the
/// 2.5 TFLOPs theoretical platform peak.
#[test]
fn peak_performance_fraction_in_band() {
    let platform = hclserver1();
    let mut best: f64 = 0.0;
    for &n in &[30_720usize, 33_792, 35_840] {
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        for shape in ALL_FOUR_SHAPES {
            let r = simulate(&shape.build(n, &areas), &platform, link());
            best = best.max(r.achieved_flops());
        }
    }
    let frac = best / platform.theoretical_peak_flops();
    assert!(
        (0.65..0.95).contains(&frac),
        "peak fraction {frac} outside the plausible band"
    );
}

/// Simulated experiments are fully deterministic (required for the
/// benchmark harness to be meaningful).
#[test]
fn experiment_pipeline_is_deterministic() {
    let platform = hclserver1();
    let n = 20_480;
    let fpms: Vec<DiscreteFpm> = platform
        .processors
        .iter()
        .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, 160))
        .collect();
    let a1 = load_imbalancing_areas(n, &fpms);
    let a2 = load_imbalancing_areas(n, &fpms);
    assert_eq!(a1, a2);
    let spec = Shape::SquareRectangle.build(n, &a1);
    let r1 = simulate(&spec, &platform, link());
    let r2 = simulate(&spec, &platform, link());
    assert_eq!(r1.exec_time, r2.exec_time);
    assert_eq!(r1.traffic, r2.traffic);
}

/// The load-imbalancing partitioner gives the GPU the largest area on
/// this platform (it is the fastest processor over the whole range).
#[test]
fn fpm_partitioner_respects_device_hierarchy() {
    let platform = hclserver1();
    let n = 16_384;
    let fpms: Vec<DiscreteFpm> = platform
        .processors
        .iter()
        .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, 160))
        .collect();
    let areas = load_imbalancing_areas(n, &fpms);
    assert!(
        areas[1] > areas[0] && areas[1] > areas[2],
        "GPU should get the most work: {areas:?}"
    );
}
