//! Integration tests for the extension machinery: NRRP layouts, push
//! refinement, the energy-optimal partitioner and classic SUMMA, all
//! exercised through the full pipeline.

use summagen_comm::ZeroCost;
use summagen_core::{multiply, summa_multiply, ExecutionMode};
use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix, DenseMatrix};
use summagen_partition::{
    energy_optimal_areas, load_imbalancing_areas, nrrp_layout, push_optimize, DiscreteFpm, Shape,
};
use summagen_platform::profile::hclserver1;
use summagen_platform::speed::{ConstantSpeed, SpeedFunction};

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

#[test]
fn nrrp_layouts_run_through_summagen() {
    for (n, speeds) in [
        (48usize, vec![1.0, 2.0]),
        (64, vec![1.0, 6.0, 1.0]),
        (80, vec![3.0, 1.0, 2.0, 0.5]),
        (96, vec![1.0; 6]),
    ] {
        let spec = nrrp_layout(n, &speeds);
        let a = random_matrix(n, n, 100 + n as u64);
        let b = random_matrix(n, n, 200 + n as u64);
        let res = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(
            approx_eq(&res.c, &reference(&a, &b), gemm_tolerance(n) * 100.0),
            "nrrp p={} n={n}",
            speeds.len()
        );
    }
}

#[test]
fn push_refined_layouts_stay_correct() {
    let n = 64;
    let speeds_v = [
        ConstantSpeed::new(1.0e9),
        ConstantSpeed::new(2.0e9),
        ConstantSpeed::new(0.9e9),
    ];
    let speeds: Vec<&dyn SpeedFunction> = speeds_v.iter().map(|s| s as _).collect();
    let areas = summagen_partition::proportional_areas(n, &[1.0, 2.0, 0.9]);
    let spec = Shape::SquareCorner.build(n, &areas);
    let refined = push_optimize(&spec, &speeds, 1e-5, 4e-10, 30).spec;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let res = multiply(&refined, &a, &b, ExecutionMode::Real);
    assert!(approx_eq(
        &res.c,
        &reference(&a, &b),
        gemm_tolerance(n) * 100.0
    ));
}

#[test]
fn push_improves_an_unbalanced_start_end_to_end() {
    use std::sync::Arc;
    use summagen_comm::HockneyModel;
    use summagen_core::simulate;
    use summagen_platform::device::HASWELL_E5_2670V3;
    use summagen_platform::{AbstractProcessor, Platform};

    // Equal-speed platform, deliberately skewed 1D layout: the refined
    // layout must simulate faster.
    let n = 1024;
    let spec =
        summagen_partition::PartitionSpec::new(vec![0, 1, 2], vec![n], vec![n - 128, 64, 64], 3);
    let speeds_v = [
        ConstantSpeed::new(1.0e11),
        ConstantSpeed::new(1.0e11),
        ConstantSpeed::new(1.0e11),
    ];
    let speeds: Vec<&dyn SpeedFunction> = speeds_v.iter().map(|s| s as _).collect();
    let refined = push_optimize(&spec, &speeds, 1e-5, 4e-10, 50).spec;

    let platform = Platform::new(
        (0..3)
            .map(|_| {
                AbstractProcessor::new(HASWELL_E5_2670V3, Arc::new(ConstantSpeed::new(1.0e11)))
            })
            .collect(),
        230.0,
    );
    let before = simulate(&spec, &platform, HockneyModel::intra_node()).exec_time;
    let after = simulate(&refined, &platform, HockneyModel::intra_node()).exec_time;
    assert!(
        after < before * 0.6,
        "refinement did not help: {before} -> {after}"
    );
}

#[test]
fn energy_optimal_areas_feed_the_shapes() {
    let platform = hclserver1();
    let n = 64;
    let fpms: Vec<DiscreteFpm> = platform
        .processors
        .iter()
        .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, 32))
        .collect();
    let powers = [155.0, 130.0, 110.0];
    let areas = energy_optimal_areas(n, &fpms, &powers);
    let spec = Shape::BlockRectangle.build(n, &areas);
    let a = random_matrix(n, n, 5);
    let b = random_matrix(n, n, 6);
    let res = multiply(&spec, &a, &b, ExecutionMode::Real);
    assert!(approx_eq(
        &res.c,
        &reference(&a, &b),
        gemm_tolerance(n) * 100.0
    ));
    // Sanity: it differs from the time-optimal distribution on this
    // platform (different objectives).
    let t_areas = load_imbalancing_areas(n, &fpms);
    assert_ne!(
        areas.iter().map(|&a| a.round() as i64).collect::<Vec<_>>(),
        t_areas
            .iter()
            .map(|&a| a.round() as i64)
            .collect::<Vec<_>>()
    );
}

#[test]
fn summa_and_summagen_agree_numerically() {
    let n = 36;
    let a = random_matrix(n, n, 9);
    let b = random_matrix(n, n, 10);
    let summa = summa_multiply(&a, &b, 2, 2, 6, ZeroCost);
    let areas = summagen_partition::proportional_areas(n, &[1.0, 1.0, 1.0, 1.0]);
    let spec = Shape::OneDRectangular.build(n, &areas);
    let sg = multiply(&spec, &a, &b, ExecutionMode::Real);
    assert!(approx_eq(&summa.c, &sg.c, gemm_tolerance(n) * 200.0));
}

#[test]
fn auto_generated_layouts_run_through_summagen() {
    use summagen_partition::auto::{auto_layout, AutoOptions};
    let sp = [
        ConstantSpeed::new(1.0e9),
        ConstantSpeed::new(2.0e9),
        ConstantSpeed::new(0.9e9),
        ConstantSpeed::new(1.5e9),
    ];
    let speeds: Vec<&dyn SpeedFunction> = sp.iter().map(|s| s as _).collect();
    let n = 48;
    let (spec, _) = auto_layout(
        n,
        &speeds,
        AutoOptions {
            iterations: 150,
            ..AutoOptions::default()
        },
    );
    let a = random_matrix(n, n, 31);
    let b = random_matrix(n, n, 32);
    let res = multiply(&spec, &a, &b, ExecutionMode::Real);
    assert!(approx_eq(
        &res.c,
        &reference(&a, &b),
        gemm_tolerance(n) * 100.0
    ));
}

#[test]
fn strassen_agrees_with_summagen() {
    use summagen_matrix::strassen_multiply;
    let n = 96;
    let a = random_matrix(n, n, 41);
    let b = random_matrix(n, n, 42);
    let strassen = strassen_multiply(&a, &b);
    let areas = summagen_partition::proportional_areas(n, &[1.0, 2.0, 0.9]);
    let spec = Shape::SquareCorner.build(n, &areas);
    let sg = multiply(&spec, &a, &b, ExecutionMode::Real);
    assert!(approx_eq(&strassen, &sg.c, gemm_tolerance(n) * 1e4));
}

#[test]
fn ooc_gemm_agrees_with_summagen() {
    use summagen_matrix::ooc_gemm;
    let n = 64;
    let a = random_matrix(n, n, 51);
    let b = random_matrix(n, n, 52);
    let mut c = DenseMatrix::zeros(n, n);
    ooc_gemm(n, a.as_slice(), b.as_slice(), c.as_mut_slice(), 3 * 16 * 16);
    let areas = summagen_partition::proportional_areas(n, &[1.0, 1.0, 1.0]);
    let spec = Shape::BlockRectangle.build(n, &areas);
    let sg = multiply(&spec, &a, &b, ExecutionMode::Real);
    assert!(approx_eq(&c, &sg.c, gemm_tolerance(n) * 100.0));
}

#[test]
fn placement_improves_cluster_execution_time() {
    use summagen_comm::{HockneyModel, TwoLevelTopology};
    use summagen_core::simulate;
    use summagen_partition::{inter_node_traffic, optimal_placement, pairwise_traffic};
    use summagen_platform::profile::hclserver1;
    use summagen_platform::Platform;

    // Six processors, a layout with strong pairwise structure: the
    // square-corner spec where some pairs never talk.
    let n = 4_096;
    let single = hclserver1();
    let mut procs = single.processors.clone();
    procs.extend(single.processors.iter().cloned());
    let platform = Platform::new(procs, 460.0);
    let areas = summagen_partition::proportional_areas(n, &[1.0, 2.0, 0.9, 1.0, 2.0, 0.9]);
    let spec = Shape::OneDRectangular.build(n, &areas);

    let t = pairwise_traffic(&spec);
    let (best_assign, best_bytes) = optimal_placement(&t, &[3, 3]);
    let naive = [0usize, 0, 0, 1, 1, 1];
    let naive_bytes = inter_node_traffic(&t, &naive);
    assert!(best_bytes <= naive_bytes);

    // Simulated execution with the two placements: the optimal placement
    // must not be slower.
    let intra = HockneyModel::intra_node();
    let inter = HockneyModel::from_latency_bandwidth(2e-5, 1.0e9);
    let run = |assign: &[usize]| {
        let topo = TwoLevelTopology {
            node_of: assign.to_vec(),
            intra,
            inter,
        };
        simulate(&spec, &platform, topo).exec_time
    };
    assert!(run(&best_assign) <= run(&naive) * 1.001);
}

#[test]
fn two_proc_theory_holds_through_real_execution() {
    use summagen_partition::two_proc::{square_corner_2p, straight_cut_2p};
    let n = 48;
    for r in [2.0, 6.0] {
        for spec in [square_corner_2p(n, r), straight_cut_2p(n, r)] {
            let a = random_matrix(n, n, 11);
            let b = random_matrix(n, n, 12);
            let res = multiply(&spec, &a, &b, ExecutionMode::Real);
            assert!(approx_eq(
                &res.c,
                &reference(&a, &b),
                gemm_tolerance(n) * 100.0
            ));
        }
    }
}
