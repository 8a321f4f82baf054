//! Algorithm-based fault tolerance (ABFT) checksum math for SUMMA
//! panels, after Huang & Abraham's checksum-encoded matrix product.
//!
//! The encoding: an `A` panel (h×k) gains a **checksum row** of column
//! sums, a `B` panel (k×w) gains a **checksum column** of row sums.
//! Their product is then *fully checksummed*,
//!
//! ```text
//!   [ A ]          [ Ab  | A·s ]          s = B's row-sum vector
//!   [---] · [B|Bs] = [-----+-----]
//!   [cA ]          [ cAb | ... ]          cA = A's column-sum row
//! ```
//!
//! so every data row of `C` must sum to its checksum-column entry and
//! every data column to its checksum-row entry. Because both properties
//! are linear, they survive SUMMA's panel-by-panel accumulation
//! `C̃ += Ã_t · B̃_t`: the invariant can be checked after *every* panel
//! step, which localizes a corruption to the step that introduced it.
//!
//! A single corrupted data element `(i, j)` perturbs exactly one row
//! residual and one column residual by the same amount, which locates
//! and corrects it in place; a corrupted checksum entry perturbs only
//! one residual family. Anything else — two damaged elements, an
//! inconsistent residual pair — is uncorrectable at this layer and must
//! escalate to rank-level recovery.
//!
//! Numerically, the checksums are computed with reordered sums, so a
//! clean accumulator still shows rounding-sized residuals;
//! [`abft_tolerance`] scales the detection threshold with the inner
//! dimension and the data magnitude.

use crate::dense::DenseMatrix;

/// Column sums of the leading `h × w` region of a row-major buffer with
/// leading dimension `ld`, each started from `init`. The buffer is walked
/// row by row (unit stride) into a `w`-long accumulator; per column that is
/// the same additions in the same ascending-`i` order as summing one column
/// at a time, so every sum has the same bits.
pub fn column_sums(data: &[f64], ld: usize, h: usize, w: usize, init: f64) -> Vec<f64> {
    let mut sums = vec![init; w];
    for i in 0..h {
        for (s, x) in sums.iter_mut().zip(&data[i * ld..i * ld + w]) {
            *s += x;
        }
    }
    sums
}

/// Appends a checksum row (column sums) to an `A` panel: (h×k) →
/// ((h+1)×k). The data region is copied bit-for-bit.
pub fn augment_a(panel: &DenseMatrix) -> DenseMatrix {
    let (h, k) = (panel.rows(), panel.cols());
    let mut data = Vec::with_capacity((h + 1) * k);
    data.extend_from_slice(panel.as_slice());
    data.extend(column_sums(panel.as_slice(), k, h, k, 0.0));
    DenseMatrix::from_vec(h + 1, k, data)
}

/// Appends a checksum column (row sums) to a `B` panel: (k×w) →
/// (k×(w+1)). The data region is copied bit-for-bit.
pub fn augment_b(panel: &DenseMatrix) -> DenseMatrix {
    let (k, w) = (panel.rows(), panel.cols());
    let mut out = DenseMatrix::zeros(k, w + 1);
    for i in 0..k {
        let mut s = 0.0;
        for j in 0..w {
            let v = panel.get(i, j);
            out.set(i, j, v);
            s += v;
        }
        out.set(i, w, s);
    }
    out
}

/// Drops the checksum row and column of a fully-checksummed `C`
/// accumulator: ((h+1)×(w+1)) → (h×w). The data region is copied
/// bit-for-bit, which is what makes the zero-fault protected path
/// bit-identical to the unprotected one.
pub fn strip_checksums(c: &DenseMatrix) -> DenseMatrix {
    let (h, w) = (c.rows() - 1, c.cols() - 1);
    let mut out = DenseMatrix::zeros(h, w);
    for i in 0..h {
        for j in 0..w {
            out.set(i, j, c.get(i, j));
        }
    }
    out
}

/// Detection threshold for checksum residuals of an accumulator whose
/// inner dimension (summed panel widths so far) is `k` and whose data
/// magnitude is about `scale`: rounding noise grows with both, injected
/// corruption does not shrink with either.
pub fn abft_tolerance(k: usize, scale: f64) -> f64 {
    1e-9 * (k.max(1) as f64) * scale.abs().max(1.0)
}

/// What [`verify_and_correct`] found in one accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbftVerdict {
    /// All residuals within tolerance.
    Clean,
    /// Exactly one element was off; it has been corrected in place.
    Corrected {
        /// Row of the corrected element (may be the checksum row).
        row: usize,
        /// Column of the corrected element (may be the checksum column).
        col: usize,
        /// The error that was subtracted out.
        error: f64,
    },
    /// More damage than a single element — the accumulator cannot be
    /// trusted or repaired at this layer.
    Uncorrectable {
        /// Number of data-row residuals over tolerance.
        bad_rows: usize,
        /// Number of data-column residuals over tolerance.
        bad_cols: usize,
    },
}

impl AbftVerdict {
    /// Whether the accumulator is usable after this verdict.
    pub fn is_ok(&self) -> bool {
        !matches!(self, AbftVerdict::Uncorrectable { .. })
    }
}

/// A residual over tolerance: its row or column index, and its value.
type BadResidual = (usize, f64);

/// The data-row and data-column residuals of `c` that exceed `tol` (see
/// [`verify_and_correct`]), in ascending index order. Rows are scanned as
/// slices and columns summed row by row ([`column_sums`]), so `c` is read
/// with unit stride only.
fn bad_residuals(c: &DenseMatrix, tol: f64) -> (Vec<BadResidual>, Vec<BadResidual>) {
    let (h, w) = (c.rows() - 1, c.cols() - 1);
    let ld = w + 1;
    let data = c.as_slice();
    let over = |(i, r): (usize, f64)| (r.abs() > tol).then_some((i, r));
    let bad_rows = data
        .chunks_exact(ld)
        .take(h)
        .map(|row| {
            let mut s = 0.0;
            for x in &row[..w] {
                s += x;
            }
            s - row[w]
        })
        .enumerate()
        .filter_map(over)
        .collect();
    let bad_cols = column_sums(data, ld, h, w, 0.0)
        .iter()
        .zip(&data[h * ld..])
        .map(|(s, check)| s - check)
        .enumerate()
        .filter_map(over)
        .collect();
    (bad_rows, bad_cols)
}

/// Verifies a fully-checksummed accumulator `c` ((h+1)×(w+1), data in
/// the leading h×w block) against its own checksums and corrects a
/// single located error in place.
///
/// Residuals: `R_i = Σ_{j<w} c[i][j] − c[i][w]` for each data row `i`,
/// and `S_j = Σ_{i<h} c[i][j] − c[h][j]` for each data column `j`. A
/// corruption `+e` at data element `(i, j)` makes `R_i ≈ S_j ≈ e`; at
/// checksum-column entry `(i, w)` it makes only `R_i ≈ −e`; at
/// checksum-row entry `(h, j)` only `S_j ≈ −e`. The corner `(h, w)`
/// participates in no residual and is ignored — it carries no data.
///
/// # Panics
/// Panics if `c` has no checksum row/column to verify (fewer than 2
/// rows or columns).
pub fn verify_and_correct(c: &mut DenseMatrix, tol: f64) -> AbftVerdict {
    assert!(
        c.rows() >= 2 && c.cols() >= 2,
        "accumulator {}x{} has no checksums",
        c.rows(),
        c.cols()
    );
    let (h, w) = (c.rows() - 1, c.cols() - 1);
    let (bad_rows, bad_cols) = bad_residuals(c, tol);
    match (bad_rows.as_slice(), bad_cols.as_slice()) {
        ([], []) => AbftVerdict::Clean,
        // One row and one column residual agreeing on the error: a
        // single damaged data element at their intersection.
        ([(i, r)], [(j, s)]) if (r - s).abs() <= 2.0 * tol.max(f64::EPSILON * r.abs()) => {
            let e = 0.5 * (r + s);
            c.set(*i, *j, c.get(*i, *j) - e);
            AbftVerdict::Corrected {
                row: *i,
                col: *j,
                error: e,
            }
        }
        // Only a row residual: the row's checksum-column entry is off.
        ([(i, r)], []) => {
            c.set(*i, w, c.get(*i, w) + r);
            AbftVerdict::Corrected {
                row: *i,
                col: w,
                error: -r,
            }
        }
        // Only a column residual: the checksum-row entry is off.
        ([], [(j, s)]) => {
            c.set(h, *j, c.get(h, *j) + s);
            AbftVerdict::Corrected {
                row: h,
                col: *j,
                error: -s,
            }
        }
        (rows, cols) => AbftVerdict::Uncorrectable {
            bad_rows: rows.len(),
            bad_cols: cols.len(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use crate::gen::random_matrix;
    use crate::max_abs_diff;

    /// C̃ = Ã·B̃ via the same kernel the executor uses, accumulating.
    fn checksummed_product(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (ap, bp) = (augment_a(a), augment_b(b));
        let (m, n, k) = (ap.rows(), bp.cols(), a.cols());
        let mut c = DenseMatrix::zeros(m, n);
        gemm_naive(
            m,
            n,
            k,
            1.0,
            ap.as_slice(),
            k.max(1),
            bp.as_slice(),
            n.max(1),
            1.0,
            c.as_mut_slice(),
            n.max(1),
        );
        c
    }

    fn plain_product(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        let mut c = DenseMatrix::zeros(m, n);
        gemm_naive(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            k.max(1),
            b.as_slice(),
            n.max(1),
            1.0,
            c.as_mut_slice(),
            n.max(1),
        );
        c
    }

    /// The column-at-a-time loop `column_sums` replaced (stride `ld`).
    fn column_sums_strided(data: &[f64], ld: usize, h: usize, w: usize, init: f64) -> Vec<f64> {
        (0..w)
            .map(|j| {
                let mut s = init;
                for i in 0..h {
                    s += data[i * ld + j];
                }
                s
            })
            .collect()
    }

    /// Values whose sums depend on the order of addition: magnitudes
    /// spread over 30 decades, both signs, signed zeros.
    fn rough_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let base = random_matrix(rows, cols, seed);
        DenseMatrix::from_fn(rows, cols, |i, j| {
            let x = base.get(i, j);
            match (i * 31 + j * 17 + seed as usize) % 7 {
                0 => x * 1e15,
                1 => x * 1e-15,
                2 => -0.0,
                3 => 0.0,
                _ => x,
            }
        })
    }

    #[test]
    fn row_walk_column_sums_have_the_bits_of_the_strided_loop() {
        for &(h, w, pad) in &[(1, 1, 0), (7, 5, 0), (64, 33, 1), (129, 257, 3), (0, 4, 0)] {
            let ld = w + pad;
            let m = rough_matrix(h.max(1), ld, (h * 1000 + w) as u64);
            for init in [0.0, -0.0] {
                let want = column_sums_strided(m.as_slice(), ld, h, w, init);
                let got = column_sums(m.as_slice(), ld, h, w, init);
                assert_eq!(got.len(), w);
                for (j, (g, e)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), e.to_bits(), "{h}x{w} ld {ld} column {j}");
                }
            }
        }
        // A column of negative zeros keeps its sign only from a -0.0 start.
        let z = vec![-0.0; 6];
        assert_eq!(
            column_sums(&z, 2, 3, 2, -0.0)[0].to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(column_sums(&z, 2, 3, 2, 0.0)[0].to_bits(), 0.0f64.to_bits());
    }

    /// The residual scan `bad_residuals` replaced: one bounds-checked `get`
    /// per element, columns walked with stride `cols`.
    fn bad_residuals_strided(c: &DenseMatrix, tol: f64) -> (Vec<BadResidual>, Vec<BadResidual>) {
        let (h, w) = (c.rows() - 1, c.cols() - 1);
        let mut bad_rows = Vec::new();
        for i in 0..h {
            let mut s = 0.0;
            for j in 0..w {
                s += c.get(i, j);
            }
            let r = s - c.get(i, w);
            if r.abs() > tol {
                bad_rows.push((i, r));
            }
        }
        let mut bad_cols = Vec::new();
        for j in 0..w {
            let mut s = 0.0;
            for i in 0..h {
                s += c.get(i, j);
            }
            let r = s - c.get(h, j);
            if r.abs() > tol {
                bad_cols.push((j, r));
            }
        }
        (bad_rows, bad_cols)
    }

    /// The verdict is a function of the over-tolerance residuals alone, so
    /// equal residual lists (index and bits) mean equal verdicts and
    /// equal corrections.
    #[test]
    fn residuals_and_checksums_match_the_strided_loops_bit_for_bit() {
        let bits = |v: &[BadResidual]| -> Vec<(usize, u64)> {
            v.iter().map(|&(i, r)| (i, r.to_bits())).collect()
        };
        for seed in 0..24u64 {
            let (h, w) = (2 + (seed as usize * 5) % 37, 2 + (seed as usize * 11) % 41);
            let a = rough_matrix(h, w, seed);
            // augment_a: the checksum row is the strided column sums.
            let ap = augment_a(&a);
            let want = column_sums_strided(a.as_slice(), w, h, w, 0.0);
            for (j, e) in want.iter().enumerate() {
                assert_eq!(ap.get(h, j).to_bits(), e.to_bits());
            }
            assert_eq!(&ap.as_slice()[..h * w], a.as_slice());
            // Residuals of a damaged accumulator, at a tolerance that
            // catches everything (0) and at one inside the rounding noise.
            let mut c = augment_b(&ap);
            c.set(seed as usize % h, seed as usize % w, 3.5);
            for tol in [0.0, 1e-3] {
                let (rows, cols) = bad_residuals(&c, tol);
                let (want_rows, want_cols) = bad_residuals_strided(&c, tol);
                assert_eq!(bits(&rows), bits(&want_rows), "seed {seed} tol {tol}");
                assert_eq!(bits(&cols), bits(&want_cols), "seed {seed} tol {tol}");
            }
        }
    }

    #[test]
    fn augmented_panels_carry_sums_and_exact_data() {
        let a = random_matrix(4, 3, 1);
        let ap = augment_a(&a);
        assert_eq!((ap.rows(), ap.cols()), (5, 3));
        for j in 0..3 {
            let want: f64 = (0..4).map(|i| a.get(i, j)).sum();
            assert_eq!(ap.get(4, j), want);
            for i in 0..4 {
                assert_eq!(a.get(i, j).to_bits(), ap.get(i, j).to_bits());
            }
        }
        let b = random_matrix(3, 5, 2);
        let bp = augment_b(&b);
        assert_eq!((bp.rows(), bp.cols()), (3, 6));
        for i in 0..3 {
            let want: f64 = (0..5).map(|j| b.get(i, j)).sum();
            assert_eq!(bp.get(i, 5), want);
            for j in 0..5 {
                assert_eq!(b.get(i, j).to_bits(), bp.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn clean_product_verifies_clean_and_strips_bit_identical() {
        let a = random_matrix(6, 4, 3);
        let b = random_matrix(4, 5, 4);
        let mut c = checksummed_product(&a, &b);
        let tol = abft_tolerance(4, 1.0);
        assert_eq!(verify_and_correct(&mut c, tol), AbftVerdict::Clean);
        let plain = plain_product(&a, &b);
        let stripped = strip_checksums(&c);
        assert_eq!(stripped.as_slice().len(), plain.as_slice().len());
        for (x, y) in stripped.as_slice().iter().zip(plain.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "data region must be bit-identical"
            );
        }
    }

    #[test]
    fn single_data_flip_is_located_and_corrected() {
        let a = random_matrix(5, 4, 5);
        let b = random_matrix(4, 6, 6);
        let want = plain_product(&a, &b);
        let tol = abft_tolerance(4, 1.0);
        for &delta in &[1e-3, -1.0, 1e3] {
            let mut c = checksummed_product(&a, &b);
            c.set(2, 3, c.get(2, 3) + delta);
            match verify_and_correct(&mut c, tol) {
                AbftVerdict::Corrected {
                    row: 2,
                    col: 3,
                    error,
                } => {
                    assert!(
                        (error - delta).abs() < 1e-9,
                        "located error {error}, want {delta}"
                    );
                }
                other => panic!("delta {delta}: want correction at (2,3), got {other:?}"),
            }
            assert!(max_abs_diff(&strip_checksums(&c), &want) < 1e-9);
            // A second pass finds nothing left.
            assert_eq!(verify_and_correct(&mut c, tol), AbftVerdict::Clean);
        }
    }

    #[test]
    fn checksum_entry_flips_are_corrected_without_touching_data() {
        let a = random_matrix(4, 3, 7);
        let b = random_matrix(3, 4, 8);
        let want = plain_product(&a, &b);
        let tol = abft_tolerance(3, 1.0);
        // Checksum-column entry.
        let mut c = checksummed_product(&a, &b);
        c.set(1, 4, c.get(1, 4) + 2.5);
        assert!(matches!(
            verify_and_correct(&mut c, tol),
            AbftVerdict::Corrected { row: 1, col: 4, .. }
        ));
        assert!(max_abs_diff(&strip_checksums(&c), &want) < 1e-12);
        // Checksum-row entry.
        let mut c = checksummed_product(&a, &b);
        c.set(4, 2, c.get(4, 2) - 0.75);
        assert!(matches!(
            verify_and_correct(&mut c, tol),
            AbftVerdict::Corrected { row: 4, col: 2, .. }
        ));
        assert!(max_abs_diff(&strip_checksums(&c), &want) < 1e-12);
    }

    #[test]
    fn multi_element_damage_is_uncorrectable() {
        let a = random_matrix(5, 3, 9);
        let b = random_matrix(3, 5, 10);
        let tol = abft_tolerance(3, 1.0);
        let mut c = checksummed_product(&a, &b);
        c.set(0, 0, c.get(0, 0) + 1.0);
        c.set(2, 3, c.get(2, 3) - 2.0);
        match verify_and_correct(&mut c, tol) {
            AbftVerdict::Uncorrectable { bad_rows, bad_cols } => {
                assert_eq!((bad_rows, bad_cols), (2, 2));
            }
            other => panic!("want Uncorrectable, got {other:?}"),
        }
        assert!(!AbftVerdict::Uncorrectable {
            bad_rows: 2,
            bad_cols: 2
        }
        .is_ok());
    }

    #[test]
    fn tolerance_scales_with_k_and_magnitude() {
        assert!(abft_tolerance(64, 1.0) > abft_tolerance(8, 1.0));
        assert!(abft_tolerance(8, 100.0) > abft_tolerance(8, 1.0));
        assert_eq!(abft_tolerance(0, 0.0), abft_tolerance(1, 1.0));
    }

    proptest::proptest! {
        /// Satellite property: the protected product's data region is
        /// bit-identical to the unprotected one under zero faults.
        #[test]
        fn prop_zero_fault_protected_path_is_bit_identical(
            m in 1usize..8, n in 1usize..8, k in 1usize..8, seed in 0u64..64
        ) {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed ^ 0xABCD);
            let plain = plain_product(&a, &b);
            let mut c = checksummed_product(&a, &b);
            let tol = abft_tolerance(k, 1.0);
            proptest::prop_assert_eq!(verify_and_correct(&mut c, tol), AbftVerdict::Clean);
            let stripped = strip_checksums(&c);
            for (x, y) in stripped.as_slice().iter().zip(plain.as_slice()) {
                proptest::prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Satellite property: a single injected element flip anywhere in
        /// the data region is always corrected back within 1e-9.
        #[test]
        fn prop_single_flip_is_always_corrected(
            m in 2usize..8, n in 2usize..8, k in 1usize..8, seed in 0u64..64,
            flip in 0usize..1000, mag in -3i32..4
        ) {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed ^ 0x5150);
            let want = plain_product(&a, &b);
            let mut c = checksummed_product(&a, &b);
            let (i, j) = (flip % m, (flip / m) % n);
            let delta = 10f64.powi(mag);
            c.set(i, j, c.get(i, j) + delta);
            let verdict = verify_and_correct(&mut c, abft_tolerance(k, 1.0));
            proptest::prop_assert!(
                matches!(verdict, AbftVerdict::Corrected { row, col, .. } if row == i && col == j),
                "flip at ({}, {}) by {} gave {:?}", i, j, delta, verdict
            );
            proptest::prop_assert!(max_abs_diff(&strip_checksums(&c), &want) < 1e-9);
        }
    }
}
