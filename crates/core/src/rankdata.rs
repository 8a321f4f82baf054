//! Distribution of the global matrices to ranks and re-assembly of `C`.
//!
//! The paper partitions `A`, `B` and `C` identically: processor `i` owns
//! the elements of all three matrices inside its sub-partitions. These
//! helpers carve a global matrix into per-rank block sets and put the
//! computed `C` blocks back together.

use std::sync::Arc;

use summagen_matrix::{checksummed, window_to_vec, Checksums, DenseMatrix};
use summagen_partition::{PartitionSpec, ProcBlock};

/// One sub-partition of `A` or `B`: row-major elements in an
/// immutable, reference-counted buffer. [`distribute`] cuts it out of the
/// global matrix once; the broadcast stages then pass the *buffer* around
/// (see [`summagen_comm::Payload::SharedF64`]) and the local GEMMs read it
/// where it lies, so on the channel backend every rank that needs the
/// block holds this very allocation. A checksum-protected run deals every
/// block with its Huang–Abraham checksum row and column already appended,
/// one row and one column wider than the sub-partition.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedBlock {
    cols: usize,
    data: Arc<Vec<f64>>,
}

impl SharedBlock {
    /// `blk` of `m`, with `sums` appended if given.
    fn cut(m: &DenseMatrix, blk: &ProcBlock, sums: Option<Checksums>) -> Self {
        let (src, ld) = (m.as_slice(), m.cols());
        let data = match sums {
            None => window_to_vec(src, ld, blk.row, blk.col, blk.rows, blk.cols),
            Some(sums) => checksummed(src, ld, (blk.row, blk.col), (blk.rows, blk.cols), sums),
        };
        Self {
            cols: blk.cols + usize::from(sums.is_some()),
            data: Arc::new(data),
        }
    }

    /// Columns held (the leading dimension), checksum column included.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The elements, row-major with leading dimension `cols`.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The buffer itself, for sending or keeping without a copy.
    pub fn shared(&self) -> &Arc<Vec<f64>> {
        &self.data
    }
}

/// One rank's share of the input matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMatrices {
    /// Owned sub-partitions of `A`, in grid row-major order.
    pub a_blocks: Vec<(ProcBlock, SharedBlock)>,
    /// Owned sub-partitions of `B`, in grid row-major order.
    pub b_blocks: Vec<(ProcBlock, SharedBlock)>,
}

impl RankMatrices {
    /// Looks up the owned `A` block at grid position `(bi, bj)`.
    pub fn a_block(&self, bi: usize, bj: usize) -> Option<&SharedBlock> {
        self.a_blocks
            .iter()
            .find(|(b, _)| b.block_i == bi && b.block_j == bj)
            .map(|(_, m)| m)
    }

    /// Looks up the owned `B` block at grid position `(bi, bj)`.
    pub fn b_block(&self, bi: usize, bj: usize) -> Option<&SharedBlock> {
        self.b_blocks
            .iter()
            .find(|(b, _)| b.block_i == bi && b.block_j == bj)
            .map(|(_, m)| m)
    }
}

/// Splits global `A` and `B` into per-rank block sets according to `spec`.
/// This is the one copy the executor makes of each input element.
///
/// # Panics
/// Panics if the matrices are not `n × n` for the spec's `n`.
pub fn distribute(spec: &PartitionSpec, a: &DenseMatrix, b: &DenseMatrix) -> Vec<RankMatrices> {
    deal(spec, (a, b), false)
}

/// [`distribute`]; with `checksums`, every block is cut fully checksummed
/// in the copy's one pass — `A` column sums first, `B` row sums first: the
/// encodings the protected panel loop ships, computed once per run.
pub(crate) fn deal(
    spec: &PartitionSpec,
    (a, b): (&DenseMatrix, &DenseMatrix),
    checksums: bool,
) -> Vec<RankMatrices> {
    assert_eq!((a.rows(), a.cols()), (spec.n, spec.n), "A shape mismatch");
    assert_eq!((b.rows(), b.cols()), (spec.n, spec.n), "B shape mismatch");
    let cut = |m: &DenseMatrix, blocks: &[ProcBlock], sums| {
        let sums = checksums.then_some(sums);
        blocks
            .iter()
            .map(|blk| (*blk, SharedBlock::cut(m, blk, sums)))
            .collect()
    };
    (0..spec.nprocs)
        .map(|proc| {
            let blocks = spec.blocks_of(proc);
            RankMatrices {
                a_blocks: cut(a, &blocks, Checksums::ColumnsThenRows),
                b_blocks: cut(b, &blocks, Checksums::RowsThenColumns),
            }
        })
        .collect()
}

/// Reassembles the global `C` from per-rank computed blocks.
///
/// # Panics
/// Panics if the blocks do not exactly tile the matrix.
pub fn assemble(spec: &PartitionSpec, per_rank: &[Vec<(ProcBlock, DenseMatrix)>]) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(spec.n, spec.n);
    let mut covered = 0usize;
    for blocks in per_rank {
        for (blk, m) in blocks {
            assert_eq!((m.rows(), m.cols()), (blk.rows, blk.cols), "block shape");
            c.set_submatrix(blk.row, blk.col, m);
            covered += blk.rows * blk.cols;
        }
    }
    assert_eq!(covered, spec.n * spec.n, "blocks do not tile the matrix");
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_matrix::deterministic_matrix;

    fn fig1a() -> PartitionSpec {
        PartitionSpec::new(
            vec![0, 1, 1, 1, 1, 1, 1, 1, 2],
            vec![9, 3, 4],
            vec![9, 3, 4],
            3,
        )
    }

    /// Every rank's `A` blocks as the owned matrices `assemble` takes.
    fn owned_a_blocks(ranks: &[RankMatrices]) -> Vec<Vec<(ProcBlock, DenseMatrix)>> {
        ranks
            .iter()
            .map(|r| {
                r.a_blocks
                    .iter()
                    .map(|(blk, m)| {
                        (
                            *blk,
                            DenseMatrix::from_vec(blk.rows, blk.cols, m.as_slice().to_vec()),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn distribute_gives_each_rank_its_blocks() {
        let spec = fig1a();
        let a = deterministic_matrix(16, 16);
        let b = deterministic_matrix(16, 16);
        let ranks = distribute(&spec, &a, &b);
        assert_eq!(ranks.len(), 3);
        assert_eq!(ranks[0].a_blocks.len(), 1);
        assert_eq!(ranks[1].a_blocks.len(), 7);
        assert_eq!(ranks[2].a_blocks.len(), 1);
        // Block content matches the source window.
        let (blk, m) = &ranks[2].a_blocks[0];
        assert_eq!((blk.row, blk.col), (12, 12));
        assert_eq!(m.as_slice(), a.submatrix(12, 12, 4, 4).as_slice());
        assert_eq!(m.cols(), 4);
    }

    /// A protected run's blocks carry the encodings the panel loop ships:
    /// an `A` block column sums first, a `B` block row sums first.
    #[test]
    fn checksummed_blocks_carry_the_transit_encodings() {
        use summagen_matrix::{augment_a, augment_b, random_matrix};
        let spec = fig1a();
        let (a, b) = (random_matrix(16, 16, 3), random_matrix(16, 16, 4));
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rank in deal(&spec, (&a, &b), true) {
            for ((blk, ab), (_, bb)) in rank.a_blocks.iter().zip(&rank.b_blocks) {
                let (x, y) = (
                    a.submatrix(blk.row, blk.col, blk.rows, blk.cols),
                    b.submatrix(blk.row, blk.col, blk.rows, blk.cols),
                );
                assert_eq!((ab.cols(), bb.cols()), (blk.cols + 1, blk.cols + 1));
                assert_eq!(
                    bits(ab.as_slice()),
                    bits(augment_b(&augment_a(&x)).as_slice())
                );
                assert_eq!(
                    bits(bb.as_slice()),
                    bits(augment_a(&augment_b(&y)).as_slice())
                );
            }
        }
    }

    #[test]
    fn block_lookup_by_grid_position() {
        let spec = fig1a();
        let a = deterministic_matrix(16, 16);
        let ranks = distribute(&spec, &a, &a);
        assert!(ranks[0].a_block(0, 0).is_some());
        assert!(ranks[0].a_block(1, 1).is_none());
        assert!(ranks[1].b_block(1, 1).is_some());
    }

    #[test]
    fn assemble_inverts_distribute() {
        let spec = fig1a();
        let a = deterministic_matrix(16, 16);
        let rebuilt = assemble(&spec, &owned_a_blocks(&distribute(&spec, &a, &a)));
        assert_eq!(rebuilt, a);
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn distribute_rejects_wrong_shape() {
        let spec = fig1a();
        let a = deterministic_matrix(8, 8);
        distribute(&spec, &a, &a);
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn assemble_rejects_missing_blocks() {
        let spec = fig1a();
        let a = deterministic_matrix(16, 16);
        let ranks = distribute(&spec, &a, &a);
        // Drop rank 2's block.
        assemble(&spec, &owned_a_blocks(&ranks[..2]));
    }
}
