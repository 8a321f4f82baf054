//! SummaGen (the paper's contribution) next to classic SUMMA, the algorithm
//! it generalises: both verified against one reference and compared on
//! communication traffic — and, on SUMMA's own uniform grid, bit for bit.
//!
//! ```sh
//! cargo run --example baselines
//! ```

use summagen_comm::ZeroCost;
use summagen_core::{multiply, summa_multiply, uniform_grid, ExecutionMode, RunResult};
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
        "{:<34}{:>6}{:>12}{:>10}{:>14}",
        "algorithm", "p", "max error", "messages", "total bytes"
    );

    let report = |name: &str, r: &RunResult| {
        let err = max_abs_diff(&r.c, &reference);
        let msgs: u64 = r.traffic.iter().map(|t| t.msgs_sent).sum();
        let bytes: u64 = r.traffic.iter().map(|t| t.bytes_sent).sum();
        let p = r.traffic.len();
        println!("{name:<34}{p:>6}{err:>12.2e}{msgs:>10}{bytes:>14}");
        assert!(err < 1e-9, "{name} verification failed");
    };

    // SummaGen over the four named shapes.
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    for shape in summagen_partition::ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        let r = multiply(&spec, &a, &b, ExecutionMode::Real);
        report(&format!("SummaGen / {}", shape.name()), &r);
    }

    // Classic SUMMA on a 2x2 grid, and SummaGen over that grid taken as a
    // partition: the same bytes in fewer, larger messages, the same C.
    let summa = summa_multiply(&a, &b, 2, 2, 8, ZeroCost);
    report("classic SUMMA (2x2, nb=8)", &summa);
    let summagen = multiply(&uniform_grid(n, 2, 2), &a, &b, ExecutionMode::Real);
    report("SummaGen / uniform 2x2 grid", &summagen);
    let bits = |c: &DenseMatrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&summa.c), bits(&summagen.c));

    println!("\nboth verified against the sequential reference; equal bits on the uniform grid");
}
