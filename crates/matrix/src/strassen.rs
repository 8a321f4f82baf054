//! Strassen's matrix multiplication — the fast-algorithm thread of the
//! paper's related work (communication-optimal Strassen, reference \[23\]).
//!
//! The recursion multiplies two `n × n` matrices with 7 half-size
//! products instead of 8 (`O(n^2.807)` flops), padding odd sizes and
//! falling back to the blocked kernel below a cutoff where the extra
//! additions outweigh the saved multiplication. Where that cutoff sits is
//! a property of the base kernel (D'Alberto, arXiv 1205.2927): the faster
//! the kernel, the later the 18 quadrant additions pay for themselves.

use crate::dense::DenseMatrix;
use crate::gemm::gemm_blocked;

/// At or below this size the blocked kernel is faster than recursing.
///
/// Measured, not guessed (`cargo bench -p summagen-bench --bench kernels`,
/// table in EXPERIMENTS.md): against the packed kernel one recursion level
/// still loses at n = 1024, the largest size the repo runs, so the constant
/// sits there and [`strassen_multiply`] recurses only beyond it.
pub const STRASSEN_CUTOFF: usize = 1024;

/// Multiplies `A × B` (square, equal sizes) with Strassen's algorithm.
///
/// # Panics
/// Panics if the matrices are not square or sizes differ.
pub fn strassen_multiply(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let n = a.rows();
    assert_eq!((a.rows(), a.cols()), (n, n), "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be square");
    if n == 0 {
        return DenseMatrix::zeros(0, 0);
    }
    strassen_rec(a, b, STRASSEN_CUTOFF)
}

fn base_multiply(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let n = a.rows();
    let mut c = DenseMatrix::zeros(n, n);
    gemm_blocked(
        n,
        n,
        n,
        1.0,
        a.as_slice(),
        n.max(1),
        b.as_slice(),
        n.max(1),
        0.0,
        c.as_mut_slice(),
        n.max(1),
    );
    c
}

fn add(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
    out
}

fn sub(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
    out
}

fn strassen_rec(a: &DenseMatrix, b: &DenseMatrix, cutoff: usize) -> DenseMatrix {
    let n = a.rows();
    if n <= cutoff {
        return base_multiply(a, b);
    }
    // Pad odd sizes with one zero row/column.
    if n % 2 == 1 {
        let m = n + 1;
        let mut ap = DenseMatrix::zeros(m, m);
        ap.set_submatrix(0, 0, a);
        let mut bp = DenseMatrix::zeros(m, m);
        bp.set_submatrix(0, 0, b);
        let cp = strassen_rec(&ap, &bp, cutoff);
        return cp.submatrix(0, 0, n, n);
    }
    let h = n / 2;
    let a11 = a.submatrix(0, 0, h, h);
    let a12 = a.submatrix(0, h, h, h);
    let a21 = a.submatrix(h, 0, h, h);
    let a22 = a.submatrix(h, h, h, h);
    let b11 = b.submatrix(0, 0, h, h);
    let b12 = b.submatrix(0, h, h, h);
    let b21 = b.submatrix(h, 0, h, h);
    let b22 = b.submatrix(h, h, h, h);

    let m1 = strassen_rec(&add(&a11, &a22), &add(&b11, &b22), cutoff);
    let m2 = strassen_rec(&add(&a21, &a22), &b11, cutoff);
    let m3 = strassen_rec(&a11, &sub(&b12, &b22), cutoff);
    let m4 = strassen_rec(&a22, &sub(&b21, &b11), cutoff);
    let m5 = strassen_rec(&add(&a11, &a12), &b22, cutoff);
    let m6 = strassen_rec(&sub(&a21, &a11), &add(&b11, &b12), cutoff);
    let m7 = strassen_rec(&sub(&a12, &a22), &add(&b21, &b22), cutoff);

    let c11 = add(&sub(&add(&m1, &m4), &m5), &m7);
    let c12 = add(&m3, &m5);
    let c21 = add(&m2, &m4);
    let c22 = add(&add(&sub(&m1, &m2), &m3), &m6);

    let mut c = DenseMatrix::zeros(n, n);
    c.set_submatrix(0, 0, &c11);
    c.set_submatrix(0, h, &c12);
    c.set_submatrix(h, 0, &c21);
    c.set_submatrix(h, h, &c22);
    c
}

/// Flop count of Strassen at the given size and cutoff (multiplications
/// only, for the asymptotic comparison in the benches).
pub fn strassen_multiplications(n: usize) -> u64 {
    if n <= STRASSEN_CUTOFF {
        return (n as u64).pow(3);
    }
    let m = n.div_ceil(2);
    7 * strassen_multiplications(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, gemm_tolerance, random_matrix};

    /// A cutoff small enough that the test sizes really recurse (odd
    /// padding, two levels); the shipped constant is above all of them.
    const TEST_CUTOFF: usize = 64;

    #[test]
    fn matches_blocked_gemm_above_cutoff() {
        for n in [65usize, 96, 128, 130, 200] {
            let a = random_matrix(n, n, 1);
            let b = random_matrix(n, n, 2);
            let c = strassen_rec(&a, &b, TEST_CUTOFF);
            let want = base_multiply(&a, &b);
            // Strassen loses a few digits to the extra additions.
            assert!(
                approx_eq(&c, &want, gemm_tolerance(n) * 1e4),
                "n = {n}: max diff {}",
                crate::max_abs_diff(&c, &want)
            );
        }
    }

    #[test]
    fn small_sizes_hit_the_base_case() {
        let n = 32;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        assert!(approx_eq(
            &strassen_multiply(&a, &b),
            &base_multiply(&a, &b),
            1e-10
        ));
    }

    #[test]
    fn identity_neutral() {
        let n = 100;
        let a = random_matrix(n, n, 5);
        let id = DenseMatrix::identity(n);
        assert!(approx_eq(&strassen_rec(&a, &id, TEST_CUTOFF), &a, 1e-9));
    }

    #[test]
    fn zero_size() {
        let z = DenseMatrix::zeros(0, 0);
        assert_eq!(strassen_multiply(&z, &z).rows(), 0);
    }

    #[test]
    fn multiplication_count_subcubic() {
        // Three recursion levels above the cutoff: 7^3 base multiplies of
        // cutoff^3, vs (8 * cutoff)^3 classical.
        let (n, base) = (8 * STRASSEN_CUTOFF, STRASSEN_CUTOFF as u64);
        let strassen = strassen_multiplications(n);
        assert_eq!(strassen, 343 * base.pow(3));
        assert!(strassen < (n as u64).pow(3));
        let ratio = (n as u64).pow(3) as f64 / strassen as f64;
        assert!(ratio > 1.4, "saving ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn rejects_rectangular() {
        let a = DenseMatrix::zeros(4, 5);
        strassen_multiply(&a, &a);
    }
}
