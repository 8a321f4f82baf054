//! The partition specification: the paper's `{subp, subph, subpw}` arrays.
//!
//! A [`PartitionSpec`] cuts the `n × n` matrix into a `subplda × subpldb`
//! grid of *sub-partitions*; entry `subp[i][j]` names the processor owning
//! sub-partition `(i, j)`. A processor's *partition* is the union of its
//! sub-partitions and may be non-rectangular (the whole point of the
//! paper). Heights `subph` and widths `subpw` give the row/column extents
//! of the grid.

/// A sub-partition assigned to a processor, with its grid position and the
/// element-space block it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcBlock {
    /// Grid row of the sub-partition.
    pub block_i: usize,
    /// Grid column of the sub-partition.
    pub block_j: usize,
    /// First matrix row covered.
    pub row: usize,
    /// First matrix column covered.
    pub col: usize,
    /// Rows covered (the `subph` entry).
    pub rows: usize,
    /// Columns covered (the `subpw` entry).
    pub cols: usize,
}

impl ProcBlock {
    /// Elements covered.
    pub fn area(&self) -> usize {
        self.rows * self.cols
    }
}

/// Why a partition specification is invalid (see
/// [`PartitionSpec::try_new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The grid has zero rows or columns.
    EmptyGrid,
    /// `owners.len()` does not equal `grid_rows * grid_cols`.
    OwnersLength {
        /// Provided length.
        got: usize,
        /// Required length.
        want: usize,
    },
    /// `nprocs` is zero.
    NoProcessors,
    /// A height or width entry is zero.
    ZeroExtent,
    /// Heights and widths sum to different totals.
    MismatchedSums {
        /// Sum of heights.
        heights: usize,
        /// Sum of widths.
        widths: usize,
    },
    /// An owner index is `>= nprocs`.
    OwnerOutOfRange(usize),
    /// A processor owns no sub-partition.
    UnusedProcessor(usize),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyGrid => write!(f, "empty grid"),
            SpecError::OwnersLength { got, want } => {
                write!(f, "owners length {got}, expected {want}")
            }
            SpecError::NoProcessors => write!(f, "need at least one processor"),
            SpecError::ZeroExtent => write!(f, "zero-height or zero-width sub-partition"),
            SpecError::MismatchedSums { heights, widths } => {
                write!(f, "heights sum {heights} != widths sum {widths}")
            }
            SpecError::OwnerOutOfRange(o) => write!(f, "owner {o} out of range"),
            SpecError::UnusedProcessor(p) => write!(f, "processor {p} owns no sub-partition"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The `{subp, subph, subpw}` partition description of Section IV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Number of sub-partition rows (`subplda`).
    pub grid_rows: usize,
    /// Number of sub-partition columns (`subpldb`).
    pub grid_cols: usize,
    /// Owner of each sub-partition, row-major `grid_rows × grid_cols`.
    pub owners: Vec<usize>,
    /// Heights of the sub-partition rows (`subph`), summing to `n`.
    pub heights: Vec<usize>,
    /// Widths of the sub-partition columns (`subpw`), summing to `n`.
    pub widths: Vec<usize>,
    /// Number of processors.
    pub nprocs: usize,
    /// Matrix size `n`.
    pub n: usize,
}

impl PartitionSpec {
    /// Non-panicking constructor: validates the arrays and returns a
    /// [`SpecError`] describing the first inconsistency found.
    pub fn try_new(
        owners: Vec<usize>,
        heights: Vec<usize>,
        widths: Vec<usize>,
        nprocs: usize,
    ) -> Result<Self, SpecError> {
        let grid_rows = heights.len();
        let grid_cols = widths.len();
        if grid_rows == 0 || grid_cols == 0 {
            return Err(SpecError::EmptyGrid);
        }
        if owners.len() != grid_rows * grid_cols {
            return Err(SpecError::OwnersLength {
                got: owners.len(),
                want: grid_rows * grid_cols,
            });
        }
        if nprocs == 0 {
            return Err(SpecError::NoProcessors);
        }
        if heights.contains(&0) || widths.contains(&0) {
            return Err(SpecError::ZeroExtent);
        }
        let hsum = heights.iter().sum::<usize>();
        let wsum = widths.iter().sum::<usize>();
        if hsum != wsum {
            return Err(SpecError::MismatchedSums {
                heights: hsum,
                widths: wsum,
            });
        }
        if let Some(&o) = owners.iter().find(|&&o| o >= nprocs) {
            return Err(SpecError::OwnerOutOfRange(o));
        }
        let mut seen = vec![false; nprocs];
        for &o in &owners {
            seen[o] = true;
        }
        if let Some(p) = seen.iter().position(|&s| !s) {
            return Err(SpecError::UnusedProcessor(p));
        }
        Ok(Self {
            grid_rows,
            grid_cols,
            owners,
            heights,
            widths,
            nprocs,
            n: hsum,
        })
    }

    /// Builds and validates a partition specification.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent: wrong lengths, zero extents,
    /// heights/widths not summing to `n`, owners out of range, or a
    /// processor owning nothing.
    pub fn new(owners: Vec<usize>, heights: Vec<usize>, widths: Vec<usize>, nprocs: usize) -> Self {
        Self::try_new(owners, heights, widths, nprocs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Owner of sub-partition `(bi, bj)`.
    #[inline]
    pub fn owner(&self, bi: usize, bj: usize) -> usize {
        debug_assert!(bi < self.grid_rows && bj < self.grid_cols);
        self.owners[bi * self.grid_cols + bj]
    }

    /// Matrix-column offset of sub-partition column `bj`.
    pub fn col_offset(&self, bj: usize) -> usize {
        self.widths[..bj].iter().sum()
    }

    /// Whether `proc` owns at least one sub-partition in grid row `bi`
    /// (the paper's `row_contains_rank`).
    pub fn row_contains(&self, proc: usize, bi: usize) -> bool {
        (0..self.grid_cols).any(|bj| self.owner(bi, bj) == proc)
    }

    /// Whether `proc` owns at least one sub-partition in grid column `bj`
    /// (the paper's `column_contains_rank`).
    pub fn col_contains(&self, proc: usize, bj: usize) -> bool {
        (0..self.grid_rows).any(|bi| self.owner(bi, bj) == proc)
    }

    /// All sub-partitions owned by `proc`, with their element-space
    /// positions, in row-major grid order.
    pub fn blocks_of(&self, proc: usize) -> Vec<ProcBlock> {
        let mut out = Vec::new();
        let mut row = 0;
        for bi in 0..self.grid_rows {
            let mut col = 0;
            for bj in 0..self.grid_cols {
                if self.owner(bi, bj) == proc {
                    out.push(ProcBlock {
                        block_i: bi,
                        block_j: bj,
                        row,
                        col,
                        rows: self.heights[bi],
                        cols: self.widths[bj],
                    });
                }
                col += self.widths[bj];
            }
            row += self.heights[bi];
        }
        out
    }

    /// Partition area (elements of `C`) of each processor.
    pub fn areas(&self) -> Vec<usize> {
        let mut areas = vec![0usize; self.nprocs];
        for bi in 0..self.grid_rows {
            for bj in 0..self.grid_cols {
                areas[self.owner(bi, bj)] += self.heights[bi] * self.widths[bj];
            }
        }
        areas
    }

    /// The covering rectangle `R(Z)` of each processor's zone: the
    /// Cartesian product of its row and column projections (Section II).
    /// Returns `(height, width)` per processor.
    pub fn covering_rectangles(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.nprocs);
        for proc in 0..self.nprocs {
            let mut h = 0;
            for bi in 0..self.grid_rows {
                if self.row_contains(proc, bi) {
                    h += self.heights[bi];
                }
            }
            let mut w = 0;
            for bj in 0..self.grid_cols {
                if self.col_contains(proc, bj) {
                    w += self.widths[bj];
                }
            }
            out.push((h, w));
        }
        out
    }

    /// Half-perimeters `c(Z) = h(Z) + w(Z)` of the covering rectangles —
    /// the communication-volume measure of Section II.
    pub fn half_perimeters(&self) -> Vec<usize> {
        self.covering_rectangles()
            .into_iter()
            .map(|(h, w)| h + w)
            .collect()
    }

    /// Sum of all processors' half-perimeters: the total communication
    /// volume objective (Equation 4).
    pub fn total_half_perimeter(&self) -> usize {
        self.half_perimeters().iter().sum()
    }

    /// Renders the partition at element granularity as a character map
    /// (processor digit per element), scaled down to at most `max_dim`
    /// characters per side. Handy in examples.
    pub fn element_map(&self, max_dim: usize) -> String {
        let scale = (self.n + max_dim - 1) / max_dim.max(1);
        let dim = self.n / scale.max(1);
        let owner_at = |r: usize, c: usize| -> usize {
            let mut row = r;
            let mut bi = 0;
            while row >= self.heights[bi] {
                row -= self.heights[bi];
                bi += 1;
            }
            let mut col = c;
            let mut bj = 0;
            while col >= self.widths[bj] {
                col -= self.widths[bj];
                bj += 1;
            }
            self.owner(bi, bj)
        };
        let mut s = String::new();
        for i in 0..dim {
            for j in 0..dim {
                let o = owner_at((i * scale).min(self.n - 1), (j * scale).min(self.n - 1));
                s.push(char::from_digit(o as u32 % 36, 36).unwrap_or('?'));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1a square-corner example arrays.
    pub(crate) fn fig1a() -> PartitionSpec {
        PartitionSpec::new(
            vec![0, 1, 1, 1, 1, 1, 1, 1, 2],
            vec![9, 3, 4],
            vec![9, 3, 4],
            3,
        )
    }

    #[test]
    fn fig1a_validates_and_sums() {
        let s = fig1a();
        assert_eq!(s.n, 16);
        assert_eq!(s.grid_rows, 3);
        assert_eq!(s.grid_cols, 3);
        assert_eq!(s.areas(), vec![81, 159, 16]);
        assert_eq!(s.areas().iter().sum::<usize>(), 256);
    }

    #[test]
    fn fig1a_covering_rectangles() {
        let s = fig1a();
        let cov = s.covering_rectangles();
        // P0: only block (0,0) -> 9x9. P1: all rows, all cols -> 16x16.
        // P2: only block (2,2) -> 4x4.
        assert_eq!(cov, vec![(9, 9), (16, 16), (4, 4)]);
        assert_eq!(s.half_perimeters(), vec![18, 32, 8]);
        assert_eq!(s.total_half_perimeter(), 58);
    }

    #[test]
    fn fig1a_ownership_queries() {
        let s = fig1a();
        assert_eq!(s.owner(0, 0), 0);
        assert_eq!(s.owner(1, 1), 1);
        assert_eq!(s.owner(2, 2), 2);
        assert!(s.row_contains(0, 0));
        assert!(s.row_contains(1, 0));
        assert!(!s.row_contains(2, 0));
        assert!(s.col_contains(2, 2));
        assert!(!s.col_contains(0, 2));
    }

    #[test]
    fn fig1b_square_rectangle_arrays() {
        let s = PartitionSpec::new(vec![0, 0, 1, 0, 2, 1], vec![12, 4], vec![9, 4, 3], 3);
        assert_eq!(s.areas(), vec![192, 48, 16]);
        // P0 covers both rows and columns 0-1 (widths 9+4=13).
        assert_eq!(s.covering_rectangles()[0], (16, 13));
        // P1 covers both rows, column 2 only.
        assert_eq!(s.covering_rectangles()[1], (16, 3));
        // P2 covers row 1 and column 1.
        assert_eq!(s.covering_rectangles()[2], (4, 4));
    }

    #[test]
    fn blocks_of_positions() {
        let s = fig1a();
        let b0 = s.blocks_of(0);
        assert_eq!(b0.len(), 1);
        assert_eq!((b0[0].row, b0[0].col, b0[0].rows, b0[0].cols), (0, 0, 9, 9));
        let b2 = s.blocks_of(2);
        assert_eq!((b2[0].row, b2[0].col), (12, 12));
        let b1 = s.blocks_of(1);
        assert_eq!(b1.len(), 7);
        assert_eq!(b1.iter().map(ProcBlock::area).sum::<usize>(), 159);
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let s = fig1a();
        assert_eq!(s.col_offset(0), 0);
        assert_eq!(s.col_offset(1), 9);
        assert_eq!(s.col_offset(2), 12);
    }

    #[test]
    #[should_panic(expected = "heights sum")]
    fn mismatched_sums_rejected() {
        PartitionSpec::new(vec![0, 1], vec![4], vec![2, 3], 2);
    }

    #[test]
    #[should_panic(expected = "owner 3 out of range")]
    fn owner_out_of_range_rejected() {
        PartitionSpec::new(vec![0, 3], vec![4], vec![2, 2], 2);
    }

    #[test]
    #[should_panic(expected = "owns no sub-partition")]
    fn unused_processor_rejected() {
        PartitionSpec::new(vec![0, 0], vec![4], vec![2, 2], 2);
    }

    #[test]
    #[should_panic(expected = "zero-height")]
    fn zero_height_rejected() {
        PartitionSpec::new(vec![0, 1, 0, 1], vec![0, 4], vec![2, 2], 2);
    }

    #[test]
    fn single_processor_spec() {
        let s = PartitionSpec::new(vec![0], vec![8], vec![8], 1);
        assert_eq!(s.areas(), vec![64]);
        assert_eq!(s.half_perimeters(), vec![16]);
    }

    #[test]
    fn try_new_reports_each_error_kind() {
        assert_eq!(
            PartitionSpec::try_new(vec![], vec![], vec![], 1).unwrap_err(),
            SpecError::EmptyGrid
        );
        assert_eq!(
            PartitionSpec::try_new(vec![0], vec![2, 2], vec![4], 1).unwrap_err(),
            SpecError::OwnersLength { got: 1, want: 2 }
        );
        assert_eq!(
            PartitionSpec::try_new(vec![0], vec![4], vec![4], 0).unwrap_err(),
            SpecError::NoProcessors
        );
        assert_eq!(
            PartitionSpec::try_new(vec![0, 0], vec![4], vec![0, 4], 1).unwrap_err(),
            SpecError::ZeroExtent
        );
        assert_eq!(
            PartitionSpec::try_new(vec![0], vec![4], vec![5], 1).unwrap_err(),
            SpecError::MismatchedSums {
                heights: 4,
                widths: 5
            }
        );
        assert_eq!(
            PartitionSpec::try_new(vec![5], vec![4], vec![4], 1).unwrap_err(),
            SpecError::OwnerOutOfRange(5)
        );
        assert_eq!(
            PartitionSpec::try_new(vec![0], vec![4], vec![4], 2).unwrap_err(),
            SpecError::UnusedProcessor(1)
        );
        // And the happy path agrees with `new`.
        let ok = PartitionSpec::try_new(vec![0, 1], vec![4], vec![2, 2], 2).unwrap();
        assert_eq!(ok, PartitionSpec::new(vec![0, 1], vec![4], vec![2, 2], 2));
    }

    #[test]
    fn spec_error_displays() {
        let e = SpecError::MismatchedSums {
            heights: 4,
            widths: 5,
        };
        assert!(e.to_string().contains("4"));
        assert!(SpecError::EmptyGrid.to_string().contains("empty"));
    }

    #[test]
    fn element_map_renders() {
        let s = fig1a();
        let map = s.element_map(16);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 16);
        assert!(lines[0].starts_with("000000000111"));
        assert!(lines[15].ends_with("2222"));
    }
}
