//! Integration tests for the extension machinery: NRRP layouts, push
//! refinement, the energy-optimal partitioner and classic SUMMA, all
//! exercised through the full pipeline.

use summagen_comm::ZeroCost;
use summagen_core::{multiply, summa_multiply, uniform_grid, ExecutionMode, RunResult};
use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix, DenseMatrix};
use summagen_partition::{
    energy_optimal_areas, load_imbalancing_areas, nrrp_layout, push_optimize, DiscreteFpm,
    PartitionSpec, Shape,
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

/// The paper's thesis, in bits: classic SUMMA on a `pr × pc` processor grid
/// is SummaGen over that grid taken as a partition — the same `C`, element
/// for element, and the same bytes on the wire (SUMMA only cuts them into
/// more, `nb`-wide messages).
#[test]
fn summa_and_summagen_agree_numerically() {
    for (n, pr, pc, nb) in [
        (32usize, 2usize, 2usize, 8usize),
        (30, 3, 2, 4),
        (25, 1, 5, 7),
        (17, 2, 2, 16),
        (40, 4, 1, 3),
        (48, 2, 2, 8),
    ] {
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let cuts = |parts: usize| -> Vec<usize> {
            let at = |i: usize| i * n / parts;
            (0..parts).map(|i| at(i + 1) - at(i)).collect()
        };
        let owners = (0..pr)
            .flat_map(|pi| (0..pc).map(move |pj| pi * pc + pj))
            .collect();
        let spec = PartitionSpec::new(owners, cuts(pr), cuts(pc), pr * pc);
        assert_eq!(spec, uniform_grid(n, pr, pc));
        let summa = summa_multiply(&a, &b, pr, pc, nb, ZeroCost);
        let sg = multiply(&spec, &a, &b, ExecutionMode::Real);
        let ctx = format!("n = {n}, {pr}x{pc} grid, nb = {nb}");
        for (k, (x, y)) in summa.c.as_slice().iter().zip(sg.c.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {k}");
        }
        let bytes = |r: &RunResult| r.traffic.iter().map(|t| t.bytes_sent).sum::<u64>();
        assert_eq!(bytes(&summa), bytes(&sg), "{ctx}: bytes sent");
    }
}

#[test]
fn auto_generated_layouts_run_through_summagen() {
    use summagen_partition::auto::auto_layout;
    let sp = [
        ConstantSpeed::new(1.0e9),
        ConstantSpeed::new(2.0e9),
        ConstantSpeed::new(0.9e9),
        ConstantSpeed::new(1.5e9),
    ];
    let speeds: Vec<&dyn SpeedFunction> = sp.iter().map(|s| s as _).collect();
    let n = 48;
    let (spec, _) = auto_layout(n, &speeds);
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
