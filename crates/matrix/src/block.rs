//! Block descriptors and the one strided copy SummaGen makes — the Rust
//! equivalent of the paper's `copy_matrix`.
//!
//! A sub-partition is cut out of its global matrix once, into a dense
//! buffer of its own ("copy an `h x w` window out of a strided buffer");
//! from there on the block is shared and read in place through its leading
//! dimension, never copied into working matrices.

/// A rectangular window into a row-major buffer, identified by its top-left
/// corner and extent. Used to describe sub-partitions of the global matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    /// First row of the window.
    pub row: usize,
    /// First column of the window.
    pub col: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Block {
    /// Creates a block descriptor.
    pub fn new(row: usize, col: usize, rows: usize, cols: usize) -> Self {
        Self {
            row,
            col,
            rows,
            cols,
        }
    }

    /// Number of elements covered by the block.
    pub fn area(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the block is empty (zero rows or columns).
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }
}

/// Copies the `h x w` window whose top-left element is `(i0, j0)` out of a
/// row-major buffer with leading dimension `ld` into a dense vector — the
/// `copy_matrix` of the paper's Figures 2 and 3 with a fresh destination.
/// Rows are appended, so every element is written exactly once.
///
/// # Panics
/// Panics if the window leaves a row (`j0 + w > ld`) or the buffer.
pub fn window_to_vec(src: &[f64], ld: usize, i0: usize, j0: usize, h: usize, w: usize) -> Vec<f64> {
    assert!(j0 + w <= ld, "window columns {j0}+{w} exceed ld {ld}");
    let mut out = Vec::with_capacity(h * w);
    for i in i0..i0 + h {
        out.extend_from_slice(&src[i * ld + j0..i * ld + j0 + w]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;

    #[test]
    fn block_area() {
        let b = Block::new(0, 0, 9, 4);
        assert_eq!(b.area(), 36);
        assert!(!b.is_empty());
    }

    #[test]
    fn empty_block_detection() {
        assert!(Block::new(1, 1, 0, 5).is_empty());
        assert!(Block::new(1, 1, 5, 0).is_empty());
        assert!(!Block::new(1, 1, 1, 1).is_empty());
    }

    #[test]
    fn window_to_vec_extracts_a_strided_window() {
        // Source: 4x4 matrix, the 2x3 window at (1,1).
        let src = DenseMatrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let got = window_to_vec(src.as_slice(), 4, 1, 1, 2, 3);
        assert_eq!(got, vec![5.0, 6.0, 7.0, 9.0, 10.0, 11.0]);
        assert_eq!(window_to_vec(src.as_slice(), 4, 0, 0, 4, 4), src.as_slice());
    }

    #[test]
    fn window_to_vec_empty_windows_touch_nothing() {
        // Even at the far corner, where no element exists to start from.
        assert!(window_to_vec(&[7.0; 4], 2, 2, 2, 0, 0).is_empty());
        assert!(window_to_vec(&[7.0; 4], 2, 0, 2, 2, 0).is_empty());
        assert!(window_to_vec(&[], 0, 0, 0, 0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed ld")]
    fn window_to_vec_rejects_a_window_wider_than_a_row() {
        window_to_vec(&[1.0; 9], 3, 0, 2, 2, 2);
    }

    #[test]
    #[should_panic]
    fn window_to_vec_panics_past_the_buffer() {
        window_to_vec(&[1.0; 6], 3, 1, 0, 2, 3);
    }
}
