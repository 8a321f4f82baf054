//! Dense matrix support for the SummaGen reproduction.
//!
//! This crate provides the numerical substrate that the paper obtains from
//! vendor BLAS libraries (Intel MKL, CUBLAS): a row-major dense `f64` matrix
//! type, the strided window copy (the paper's `copy_matrix`), and GEMM kernels
//! in three flavours — a naive reference, a packed register-tiled serial
//! kernel, and the same kernel run over one band of `C` rows per hardware
//! thread. All kernels operate on strided submatrices so
//! that SummaGen can multiply the `A` and `B` blocks it received, where
//! they lie, into its local `C` partition, exactly like the
//! `localDgemm` call in Fig. 4 of the paper. [`abft`] holds the
//! Huang–Abraham checksum algebra of the protected executor. (Strassen, an
//! out-of-core GEMM, strided views and BLAS-1 helpers lived here until
//! ISSUE 19's audit: nothing the repo measures or gates reached them.)

pub mod abft;
pub mod block;
pub mod dense;
pub mod gemm;
pub mod gen;

pub use abft::{
    abft_tolerance, augment_a, augment_b, checksummed, diagnose, verify_and_correct, AbftVerdict,
    Checksums,
};
pub use block::{window_to_vec, Block};
pub use dense::DenseMatrix;
pub use gemm::{gemm_blocked, gemm_naive, gemm_parallel, GemmKernel, GemmObserver};
pub use gen::{deterministic_matrix, random_matrix, seeded_rng};

/// Maximum absolute elementwise difference between two equally-sized
/// matrices. Panics if the shapes differ.
pub fn max_abs_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "shape mismatch in max_abs_diff"
    );
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Returns `true` when `a` and `b` agree elementwise within `tol`.
pub fn approx_eq(a: &DenseMatrix, b: &DenseMatrix, tol: f64) -> bool {
    max_abs_diff(a, b) <= tol
}

/// A tolerance suitable for comparing two GEMM evaluations of the same
/// product with different summation orders. `k` is the inner dimension.
pub fn gemm_tolerance(k: usize) -> f64 {
    1e-12 * (k.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let a = deterministic_matrix(4, 5);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = DenseMatrix::zeros(3, 3);
        let mut b = DenseMatrix::zeros(3, 3);
        b.set(2, 1, 0.5);
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert!(!approx_eq(&a, &b, 0.1));
        assert!(approx_eq(&a, &b, 0.6));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn max_abs_diff_panics_on_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(3, 2);
        max_abs_diff(&a, &b);
    }

    #[test]
    fn tolerance_scales_with_k() {
        assert!(gemm_tolerance(1000) > gemm_tolerance(10));
        assert!(gemm_tolerance(0) > 0.0);
    }
}
