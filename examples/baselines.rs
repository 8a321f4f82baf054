//! All the multiplication algorithms in one place: SummaGen (the paper's
//! contribution), classic SUMMA, block-cyclic SUMMA (Elemental-style),
//! Cannon, and 2.5D — all verified against one reference and compared on
//! communication traffic.
//!
//! ```sh
//! cargo run --example baselines
//! ```

use summagen_comm::ZeroCost;
use summagen_core::{
    cannon_multiply, caps_multiply, multiply, summa25d_multiply, summa_cyclic_multiply,
    summa_multiply, BlockCyclic, ExecutionMode,
};
use summagen_matrix::{gemm_naive, max_abs_diff, random_matrix, DenseMatrix};
use summagen_partition::proportional_areas;

fn main() {
    let n = 48;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut reference = DenseMatrix::zeros(n, n);
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
        reference.as_mut_slice(),
        n,
    );

    println!(
        "{:<34}{:>6}{:>12}{:>14}",
        "algorithm", "p", "max error", "total bytes"
    );

    let report = |name: &str, p: usize, c: &DenseMatrix, bytes: u64| {
        let err = max_abs_diff(c, &reference);
        println!("{name:<34}{p:>6}{err:>12.2e}{bytes:>14}");
        assert!(err < 1e-9, "{name} verification failed");
    };

    // SummaGen over the four named shapes.
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    for shape in summagen_partition::ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        let r = multiply(&spec, &a, &b, ExecutionMode::Real);
        let bytes = r.traffic.iter().map(|t| t.bytes_sent).sum();
        report(&format!("SummaGen / {}", shape.name()), 3, &r.c, bytes);
    }

    // Classic SUMMA, 2x2 grid.
    let r = summa_multiply(&a, &b, 2, 2, 8, ZeroCost);
    let bytes = r.traffic.iter().map(|t| t.bytes_sent).sum();
    report("classic SUMMA (2x2, nb=8)", 4, &r.c, bytes);

    // Block-cyclic SUMMA.
    let (c, _, traffic) = summa_cyclic_multiply(&a, &b, BlockCyclic::new(8, 2, 2), ZeroCost);
    let bytes = traffic.iter().map(|t| t.bytes_sent).sum();
    report("block-cyclic SUMMA (nb=8, 2x2)", 4, &c, bytes);

    // Cannon on a 4x4 torus.
    let r = cannon_multiply(&a, &b, 4, ZeroCost);
    let bytes = r.traffic.iter().map(|t| t.bytes_sent).sum();
    report("Cannon (4x4)", 16, &r.c, bytes);

    // 2.5D with two replication layers.
    let r = summa25d_multiply(&a, &b, 4, 2, ZeroCost);
    let bytes = r.traffic.iter().map(|t| t.bytes_sent).sum();
    report("2.5D (q=4, c=2)", 32, &r.c, bytes);

    // Parallel Strassen (CAPS-style BFS step over 7 ranks).
    let r = caps_multiply(&a, &b, ZeroCost);
    let bytes = r.traffic.iter().map(|t| t.bytes_sent).sum();
    report("parallel Strassen (CAPS, p=7)", 7, &r.c, bytes);

    println!("\nall algorithms verified against the sequential reference");
}
