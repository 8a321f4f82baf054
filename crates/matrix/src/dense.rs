//! Row-major dense `f64` matrix.

use std::fmt;

/// A row-major dense matrix of `f64`.
///
/// The leading dimension equals `cols`, i.e. element `(i, j)` lives at
/// `data[i * cols + j]`. This matches the layout the paper's C code assumes
/// for the global matrices `A`, `B`, `C` and the working matrices `WA`/`WB`.
///
/// ```
/// use summagen_matrix::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m.set(1, 2, 5.0);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0, 0.0, 0.0, 5.0]);
/// assert_eq!(m.transpose().get(2, 1), 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (also the leading dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies the `h x w` submatrix with top-left corner `(i0, j0)` into a
    /// freshly allocated matrix.
    ///
    /// # Panics
    /// Panics if the requested window does not fit.
    pub fn submatrix(&self, i0: usize, j0: usize, h: usize, w: usize) -> DenseMatrix {
        assert!(
            i0 + h <= self.rows && j0 + w <= self.cols,
            "submatrix ({i0},{j0}) {h}x{w} out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let data = crate::block::window_to_vec(&self.data, self.cols, i0, j0, h, w);
        DenseMatrix {
            rows: h,
            cols: w,
            data,
        }
    }

    /// Writes `block` into this matrix with its top-left corner at `(i0, j0)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn set_submatrix(&mut self, i0: usize, j0: usize, block: &DenseMatrix) {
        assert!(
            i0 + block.rows <= self.rows && j0 + block.cols <= self.cols,
            "set_submatrix ({i0},{j0}) {}x{} out of bounds for {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for i in 0..block.rows {
            let dst_start = (i0 + i) * self.cols + j0;
            self.data[dst_start..dst_start + block.cols]
                .copy_from_slice(&block.data[i * block.cols..(i + 1) * block.cols]);
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Transposes into a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let show_cols = self.cols.min(8);
            let row: Vec<String> = (0..show_cols)
                .map(|j| format!("{:8.3}", self.get(i, j)))
                .collect();
            let ellipsis = if self.cols > 8 { " ..." } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn identity_diagonal() {
        let m = DenseMatrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = DenseMatrix::zeros(5, 5);
        m.set(4, 3, 2.5);
        assert_eq!(m.get(4, 3), 2.5);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_wrong_length() {
        DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn submatrix_extracts_window() {
        let m = DenseMatrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 2, 2, 2);
        assert_eq!(s.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn set_submatrix_roundtrips_with_submatrix() {
        let src = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64 + 0.5);
        let mut dst = DenseMatrix::zeros(6, 6);
        dst.set_submatrix(2, 3, &src);
        assert_eq!(dst.submatrix(2, 3, 3, 2), src);
        // Everything outside the window is untouched.
        assert_eq!(dst.get(0, 0), 0.0);
        assert_eq!(dst.get(5, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn submatrix_out_of_bounds_panics() {
        DenseMatrix::zeros(3, 3).submatrix(2, 2, 2, 2);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseMatrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn scale_multiplies_all() {
        let mut m = DenseMatrix::from_fn(2, 2, |_, _| 2.0);
        m.scale(1.5);
        assert!(m.as_slice().iter().all(|&x| x == 3.0));
    }

    #[test]
    fn row_returns_correct_slice() {
        let m = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }
}
