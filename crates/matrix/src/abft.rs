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
//!
//! Every sum here comes out of one row walk, so each summation order is
//! written once: a row sum starts from `0.0` and adds its entries in
//! ascending column order, a column sum adds its entries in ascending row
//! order. Encoding ([`checksummed`], [`augment_a`], [`augment_b`]) and
//! verification ([`diagnose`], [`verify_and_correct`]) read the same walk.

use crate::dense::DenseMatrix;

/// `|x|` if it exceeds `max`, else `max`: the running largest magnitude.
/// With `max` never NaN this is `max.max(x.abs())`, NaN entries included.
#[inline(always)]
fn wider(max: f64, x: f64) -> f64 {
    let a = x.abs();
    if a > max {
        a
    } else {
        max
    }
}

/// The one walk over a checksum region: rows `0..h` of `data` (leading
/// dimension `ld`), `w` entries each, four rows per pass.
///
/// Each row's sum is formed from `0.0` in ascending column order — four
/// rows, four independent chains, each with the bits of summing one row at
/// a time — and handed to `row(i, entries, sum)` in ascending `i`. Each
/// row is also added into the column sums `cols[..w]` in ascending `i`.
/// Returns the largest `|x|` of the region.
#[inline(always)]
fn walk(
    data: &[f64],
    ld: usize,
    h: usize,
    w: usize,
    cols: &mut [f64],
    mut row: impl FnMut(usize, &[f64], f64),
) -> f64 {
    let cols = &mut cols[..w];
    let mut max = [0.0f64; 4];
    let strips = h / 4 * 4;
    for i in (0..strips).step_by(4) {
        let r: [&[f64]; 4] = std::array::from_fn(|k| &data[(i + k) * ld..][..w]);
        let mut s = [0.0f64; 4];
        for ((((c, &x0), &x1), &x2), &x3) in cols.iter_mut().zip(r[0]).zip(r[1]).zip(r[2]).zip(r[3])
        {
            s = [s[0] + x0, s[1] + x1, s[2] + x2, s[3] + x3];
            *c = *c + x0 + x1 + x2 + x3;
            max = [
                wider(max[0], x0),
                wider(max[1], x1),
                wider(max[2], x2),
                wider(max[3], x3),
            ];
        }
        for k in 0..4 {
            row(i + k, r[k], s[k]);
        }
    }
    for i in strips..h {
        let r = &data[i * ld..][..w];
        let mut s = 0.0f64;
        for (c, &x) in cols.iter_mut().zip(r) {
            s += x;
            *c += x;
            max[0] = wider(max[0], x);
        }
        row(i, r, s);
    }
    max.into_iter().fold(0.0, wider)
}

/// Which checksums [`checksummed`] appends to a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checksums {
    /// A column of row sums: an `h × w` window becomes `h × (w+1)`
    /// ([`augment_b`]).
    Rows,
    /// A row of column sums: `h × w` becomes `(h+1) × w` ([`augment_a`]).
    Columns,
    /// Both, column sums first: the row-sum column covers the checksum row
    /// too, so the corner sums that row. The bits of
    /// `augment_b(&augment_a(x))` — an `A` block's full encoding.
    ColumnsThenRows,
    /// Both, row sums first: the checksum row covers the row-sum column
    /// too, so the corner sums that column. The bits of
    /// `augment_a(&augment_b(x))` — a `B` block's full encoding.
    RowsThenColumns,
}

/// Copies the `h × w` window whose top-left element is `(i0, j0)` out of
/// a row-major buffer with leading dimension `ld`, appending `sums`, in
/// one pass over the window. The data region is copied bit for bit.
///
/// # Panics
/// Panics if the window leaves the buffer.
pub fn checksummed(
    src: &[f64],
    ld: usize,
    (i0, j0): (usize, usize),
    (h, w): (usize, usize),
    sums: Checksums,
) -> Vec<f64> {
    assert!(j0 + w <= ld, "window columns {j0}+{w} exceed ld {ld}");
    let row_sums = sums != Checksums::Columns;
    let mut out = Vec::with_capacity((h + 1) * (w + usize::from(row_sums)));
    let mut cols = vec![0.0; w];
    let mut corner = 0.0;
    let window = src.get(i0 * ld + j0..).unwrap_or_default();
    walk(window, ld, h, w, &mut cols, |_, row, s| {
        out.extend_from_slice(row);
        if row_sums {
            out.push(s);
            corner += s;
        }
    });
    match sums {
        Checksums::Rows => {}
        Checksums::Columns => out.extend(cols),
        Checksums::ColumnsThenRows => {
            walk(&cols, w, 1, w, &mut vec![0.0; w], |_, row, s| {
                out.extend_from_slice(row);
                out.push(s);
            });
        }
        Checksums::RowsThenColumns => {
            out.extend(cols);
            out.push(corner);
        }
    }
    out
}

/// Appends a checksum row (column sums) to an `A` panel: (h×k) →
/// ((h+1)×k). The data region is copied bit-for-bit.
pub fn augment_a(panel: &DenseMatrix) -> DenseMatrix {
    let (h, k) = (panel.rows(), panel.cols());
    let data = checksummed(panel.as_slice(), k, (0, 0), (h, k), Checksums::Columns);
    DenseMatrix::from_vec(h + 1, k, data)
}

/// Appends a checksum column (row sums) to a `B` panel: (k×w) →
/// (k×(w+1)). The data region is copied bit-for-bit.
pub fn augment_b(panel: &DenseMatrix) -> DenseMatrix {
    let (k, w) = (panel.rows(), panel.cols());
    let data = checksummed(panel.as_slice(), w, (0, 0), (k, w), Checksums::Rows);
    DenseMatrix::from_vec(k, w + 1, data)
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

    /// Makes the correction a [`diagnose`] verdict located: subtracts
    /// `error` from element `(row, col)` of the row-major `data` with
    /// `cols` columns. Any other verdict writes nothing.
    pub fn apply(&self, data: &mut [f64], cols: usize) {
        if let AbftVerdict::Corrected { row, col, error } = *self {
            data[row * cols + col] -= error;
        }
    }
}

/// A residual over tolerance: its row or column index, and its value.
type BadResidual = (usize, f64);

/// The data-row and data-column residuals of the fully-checksummed
/// `rows × cols` buffer `data` that exceed `tol(scale)` (see [`diagnose`]),
/// in ascending index order, and that tolerance, where `scale` is the
/// largest `|x|` of the data region. One [`walk`] finds the row sums, the
/// column sums and the scale.
fn bad_residuals(
    data: &[f64],
    rows: usize,
    cols: usize,
    tol: impl FnOnce(f64) -> f64,
) -> (Vec<BadResidual>, Vec<BadResidual>, f64) {
    let (h, w) = (rows - 1, cols - 1);
    let mut row_residuals = Vec::with_capacity(h);
    let mut col_sums = vec![0.0; w];
    let scale = walk(data, cols, h, w, &mut col_sums, |i, _, s| {
        row_residuals.push(s - data[i * cols + w]);
    });
    let tol = tol(scale);
    let over = |(i, r): (usize, f64)| (r.abs() > tol).then_some((i, r));
    let bad_rows = row_residuals
        .into_iter()
        .enumerate()
        .filter_map(over)
        .collect();
    let bad_cols = col_sums
        .iter()
        .zip(&data[h * cols..])
        .map(|(s, check)| s - check)
        .enumerate()
        .filter_map(over)
        .collect();
    (bad_rows, bad_cols, tol)
}

/// Checks the fully-checksummed `rows × cols` buffer `data` (data in the
/// leading `(rows-1) × (cols-1)` block) against its own checksums, reading
/// it in place: the verdict [`verify_and_correct`] would reach, with
/// nothing written. A `Corrected` verdict names the one correction to
/// make, which [`AbftVerdict::apply`] makes. The tolerance is `tol(scale)`,
/// `scale` being the largest `|x|` of the data region, found in the same
/// pass.
///
/// Residuals: `R_i = Σ_{j<w} c[i][j] − c[i][w]` for each data row `i`,
/// and `S_j = Σ_{i<h} c[i][j] − c[h][j]` for each data column `j`. A
/// corruption `+e` at data element `(i, j)` makes `R_i ≈ S_j ≈ e`; at
/// checksum-column entry `(i, w)` it makes only `R_i ≈ −e`; at
/// checksum-row entry `(h, j)` only `S_j ≈ −e`. The corner `(h, w)`
/// participates in no residual and is ignored — it carries no data.
///
/// # Panics
/// Panics if there is no checksum row/column to verify (fewer than 2 rows
/// or columns), or if `data` is shorter than `rows × cols`.
pub fn diagnose(
    data: &[f64],
    rows: usize,
    cols: usize,
    tol: impl FnOnce(f64) -> f64,
) -> AbftVerdict {
    assert!(
        rows >= 2 && cols >= 2,
        "accumulator {rows}x{cols} has no checksums"
    );
    assert!(
        data.len() >= rows * cols,
        "buffer shorter than {rows}x{cols}"
    );
    let (h, w) = (rows - 1, cols - 1);
    let (bad_rows, bad_cols, tol) = bad_residuals(data, rows, cols, tol);
    match (bad_rows.as_slice(), bad_cols.as_slice()) {
        ([], []) => AbftVerdict::Clean,
        // One row and one column residual agreeing on the error: a
        // single damaged data element at their intersection.
        ([(i, r)], [(j, s)]) if (r - s).abs() <= 2.0 * tol.max(f64::EPSILON * r.abs()) => {
            AbftVerdict::Corrected {
                row: *i,
                col: *j,
                error: 0.5 * (r + s),
            }
        }
        // Only a row residual: the row's checksum-column entry is off.
        ([(i, r)], []) => AbftVerdict::Corrected {
            row: *i,
            col: w,
            error: -r,
        },
        // Only a column residual: the checksum-row entry is off.
        ([], [(j, s)]) => AbftVerdict::Corrected {
            row: h,
            col: *j,
            error: -s,
        },
        (rows, cols) => AbftVerdict::Uncorrectable {
            bad_rows: rows.len(),
            bad_cols: cols.len(),
        },
    }
}

/// Verifies a fully-checksummed accumulator `c` ((h+1)×(w+1), data in
/// the leading h×w block) against its own checksums and corrects a
/// single located error in place: [`diagnose`] at tolerance `tol`, then
/// [`AbftVerdict::apply`].
///
/// # Panics
/// Panics if `c` has no checksum row/column to verify (fewer than 2
/// rows or columns).
pub fn verify_and_correct(c: &mut DenseMatrix, tol: f64) -> AbftVerdict {
    let (rows, cols) = (c.rows(), c.cols());
    let verdict = diagnose(c.as_slice(), rows, cols, |_| tol);
    verdict.apply(c.as_mut_slice(), cols);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use crate::gen::random_matrix;
    use crate::max_abs_diff;

    /// The data region of a fully-checksummed matrix.
    fn data_region(c: &DenseMatrix) -> DenseMatrix {
        c.submatrix(0, 0, c.rows() - 1, c.cols() - 1)
    }

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

    /// Column sums formed one column at a time (stride `ld`).
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
                let (rows, cols, _) = bad_residuals(c.as_slice(), c.rows(), c.cols(), |_| tol);
                let (want_rows, want_cols) = bad_residuals_strided(&c, tol);
                assert_eq!(bits(&rows), bits(&want_rows), "seed {seed} tol {tol}");
                assert_eq!(bits(&cols), bits(&want_cols), "seed {seed} tol {tol}");
            }
        }
    }

    /// `augment_a`, `augment_b`, the data scale and the verifier as they
    /// were before the four-row walk: one bounds-checked `get`/`set` per
    /// element, every sum formed one row or one column at a time.
    fn augment_a_strided(panel: &DenseMatrix) -> DenseMatrix {
        let (h, w) = (panel.rows(), panel.cols());
        let sums = column_sums_strided(panel.as_slice(), w, h, w, 0.0);
        DenseMatrix::from_fn(
            h + 1,
            w,
            |i, j| if i < h { panel.get(i, j) } else { sums[j] },
        )
    }

    fn augment_b_strided(panel: &DenseMatrix) -> DenseMatrix {
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

    fn data_scale_strided(m: &DenseMatrix) -> f64 {
        let mut s = 0.0f64;
        for i in 0..m.rows() - 1 {
            for j in 0..m.cols() - 1 {
                s = s.max(m.get(i, j).abs());
            }
        }
        s
    }

    fn verify_and_correct_strided(c: &mut DenseMatrix, tol: f64) -> AbftVerdict {
        let (h, w) = (c.rows() - 1, c.cols() - 1);
        let (bad_rows, bad_cols) = bad_residuals_strided(c, tol);
        match (bad_rows.as_slice(), bad_cols.as_slice()) {
            ([], []) => AbftVerdict::Clean,
            ([(i, r)], [(j, s)]) if (r - s).abs() <= 2.0 * tol.max(f64::EPSILON * r.abs()) => {
                let e = 0.5 * (r + s);
                c.set(*i, *j, c.get(*i, *j) - e);
                AbftVerdict::Corrected {
                    row: *i,
                    col: *j,
                    error: e,
                }
            }
            ([(i, r)], []) => {
                c.set(*i, w, c.get(*i, w) + r);
                AbftVerdict::Corrected {
                    row: *i,
                    col: w,
                    error: -r,
                }
            }
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

    fn bits_of(m: &[f64]) -> Vec<u64> {
        m.iter().map(|x| x.to_bits()).collect()
    }

    /// Four rows per pass, four chains: every checksum the encoder writes
    /// and every verdict, scale and correction the verifier reaches has the
    /// bits of the row-at-a-time loops, on data whose sums depend on the
    /// order of addition and for every row count modulo four.
    #[test]
    fn four_row_walk_has_the_bits_of_the_row_at_a_time_loops() {
        for seed in 0..32u64 {
            let (h, w) = (1 + (seed as usize * 7) % 45, 1 + (seed as usize * 13) % 38);
            // An `h × w` window at (2, 3) of a wider, taller buffer.
            let (ld, at) = (w + 5, (2, 3));
            let big = rough_matrix(h + 4, ld, seed);
            let x = big.submatrix(at.0, at.1, h, w);
            let ctx = format!("seed {seed}, {h}x{w}");
            assert_eq!(
                bits_of(augment_a(&x).as_slice()),
                bits_of(augment_a_strided(&x).as_slice())
            );
            assert_eq!(
                bits_of(augment_b(&x).as_slice()),
                bits_of(augment_b_strided(&x).as_slice())
            );
            let a_full = augment_b_strided(&augment_a_strided(&x));
            let b_full = augment_a_strided(&augment_b_strided(&x));
            for (sums, want) in [
                (Checksums::ColumnsThenRows, &a_full),
                (Checksums::RowsThenColumns, &b_full),
            ] {
                let got = checksummed(big.as_slice(), ld, at, (h, w), sums);
                assert_eq!(bits_of(&got), bits_of(want.as_slice()), "{ctx}: {sums:?}");
            }
            // Clean, one flip in the data, one in each checksum line, and
            // two flips: same scale, same verdict, same bits after it.
            let flips: [&[(usize, usize)]; 5] = [
                &[],
                &[(seed as usize % h, seed as usize % w)],
                &[(seed as usize % h, w)],
                &[(h, seed as usize % w)],
                &[(0, 0), (h - 1, w - 1)],
            ];
            for (full, flips) in [&a_full, &b_full]
                .into_iter()
                .flat_map(|f| flips.map(|v| (f, v)))
            {
                let mut want = full.clone();
                for &(i, j) in flips {
                    want.set(i, j, want.get(i, j) + 3.5);
                }
                let mut got = want.clone();
                let (rows, cols) = (got.rows(), got.cols());
                let mut scale = None;
                let verdict = diagnose(got.as_slice(), rows, cols, |s| {
                    scale = Some(s);
                    abft_tolerance(rows.max(cols), s)
                });
                let scale = scale.expect("the tolerance is asked for");
                assert_eq!(
                    scale.to_bits(),
                    data_scale_strided(&want).to_bits(),
                    "{ctx}"
                );
                verdict.apply(got.as_mut_slice(), cols);
                let oracle =
                    verify_and_correct_strided(&mut want, abft_tolerance(rows.max(cols), scale));
                assert_eq!(verdict, oracle, "{ctx}: flips {flips:?}");
                assert_eq!(
                    bits_of(got.as_slice()),
                    bits_of(want.as_slice()),
                    "{ctx}: flips {flips:?}"
                );
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
        let stripped = data_region(&c);
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
            assert!(max_abs_diff(&data_region(&c), &want) < 1e-9);
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
        assert!(max_abs_diff(&data_region(&c), &want) < 1e-12);
        // Checksum-row entry.
        let mut c = checksummed_product(&a, &b);
        c.set(4, 2, c.get(4, 2) - 0.75);
        assert!(matches!(
            verify_and_correct(&mut c, tol),
            AbftVerdict::Corrected { row: 4, col: 2, .. }
        ));
        assert!(max_abs_diff(&data_region(&c), &want) < 1e-12);
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
            let stripped = data_region(&c);
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
            proptest::prop_assert!(max_abs_diff(&data_region(&c), &want) < 1e-9);
        }
    }
}
