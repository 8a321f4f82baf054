//! Panelled SummaGen: a memory-bounded, pipelined variant.
//!
//! The paper's SummaGen gathers *all* required `A` rows and `B` columns
//! into `WA`/`WB` before computing — simple, but `WA` alone holds up to
//! `n²` elements per rank. This variant iterates over the sub-partition
//! grid's `k`-dimension one grid column at a time (like SUMMA's panel
//! loop): for panel `t`, ranks gather only the `A` blocks `(bi, t)` and
//! `B` blocks `(t, bj)` they need, then accumulate
//! `C(bi, bj) += A(bi, t) · B(t, bj)` for every owned sub-partition.
//!
//! Communication volume is identical to the one-shot algorithm (the same
//! blocks travel over the same row/column communicators), but peak
//! working memory per rank drops from `O(h·n + n·w)` to
//! `O((h + w) · max_t width_t)`, and communication overlaps computation
//! across panels — the natural next step the paper's Section VII
//! contemplates for large problem sizes.
//!
//! This variant uses the infallible collective API: it is not wired into
//! fault injection or [`crate::multiply_with_recovery`], and its
//! `expect`/`unwrap` calls assert the same partition-validation
//! invariants documented in [`crate::stages`] (every cell has an owner,
//! owners hold their blocks, participants belong to their own
//! row/column communicators).

use summagen_comm::{Communicator, CostModel, Payload};
use summagen_matrix::{DenseMatrix, GemmKernel};
use summagen_partition::PartitionSpec;

use crate::engine::{self, RankBlocks};
use crate::executor::{RunOptions, RunResult};
use crate::rankdata::RankMatrices;

/// Multiplies `A × B` with the panelled SummaGen variant, pricing
/// communication with `cost` ([`summagen_comm::ZeroCost`] for a pure
/// correctness run).
pub fn multiply_panelled(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    kernel: GemmKernel,
    cost: impl CostModel,
) -> RunResult {
    let rank_fn = |comm: &Communicator, data: &RankMatrices| {
        Ok((run_rank_panelled(comm, spec, comm.rank(), data, kernel), ()))
    };
    engine::infallible(engine::run_numeric(
        spec,
        (a, b),
        cost,
        None,
        &RunOptions::default(),
        rank_fn,
    ))
    .0
}

fn run_rank_panelled(
    comm: &Communicator,
    spec: &PartitionSpec,
    rank: usize,
    data: &RankMatrices,
    kernel: GemmKernel,
) -> RankBlocks {
    // Output blocks, zero-initialized, accumulated across panels.
    let mut out: RankBlocks = spec
        .blocks_of(rank)
        .into_iter()
        .map(|blk| {
            let m = DenseMatrix::zeros(blk.rows, blk.cols);
            (blk, m)
        })
        .collect();

    // Panel `t` covers the k-range of grid *column* `t` of `A`. Because
    // the grid's row cuts (which partition `B`'s k-dimension) need not
    // align with its column cuts, the matching `B` rows are gathered as
    // *slices* of the overlapping `B` blocks — same total bytes, panel-
    // sized staging.
    for t in 0..spec.grid_cols {
        let k0 = spec.col_offset(t);
        let kb = spec.widths[t];
        let k1 = k0 + kb;
        if let Some(m) = comm.metrics() {
            m.panel_steps.inc();
        }

        // --- Gather the A blocks (bi, t) for rows this rank occupies.
        let mut a_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_rows];
        for (bi, panel_slot) in a_panel.iter_mut().enumerate() {
            if !spec.row_contains(rank, bi) {
                continue;
            }
            let participants: Vec<usize> = (0..spec.nprocs)
                .filter(|&p| spec.row_contains(p, bi))
                .collect();
            let owner = spec.owner(bi, t);
            let h = spec.heights[bi];
            let blk_data = if participants.len() == 1 {
                data.a_block(bi, t)
                    .expect("missing own A block")
                    .as_slice()
                    .to_vec()
            } else {
                let mut row_comm = comm
                    .subgroup(&participants, (1 << 22) + (t * spec.grid_rows + bi) as u64)
                    .expect("missing from row communicator");
                let root = participants.iter().position(|&p| p == owner).unwrap();
                let payload = if owner == rank {
                    Payload::F64(
                        data.a_block(bi, t)
                            .expect("missing own A block")
                            .as_slice()
                            .to_vec(),
                    )
                } else {
                    Payload::F64(Vec::new())
                };
                row_comm.bcast(root, payload).into_f64()
            };
            *panel_slot = Some(DenseMatrix::from_vec(h, kb, blk_data));
        }

        // --- Gather the B rows [k0, k1) for columns this rank occupies.
        let mut b_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_cols];
        for (bj, panel_slot) in b_panel.iter_mut().enumerate() {
            if !spec.col_contains(rank, bj) {
                continue;
            }
            let w = spec.widths[bj];
            let mut panel = DenseMatrix::zeros(kb, w);
            let participants: Vec<usize> = (0..spec.nprocs)
                .filter(|&p| spec.col_contains(p, bj))
                .collect();
            for bi_b in 0..spec.grid_rows {
                let r0 = spec.row_offset(bi_b);
                let r1 = r0 + spec.heights[bi_b];
                let (lo, hi) = (r0.max(k0), r1.min(k1));
                if lo >= hi {
                    continue; // block does not overlap this panel
                }
                let owner = spec.owner(bi_b, bj);
                let rows = hi - lo;
                let slice_data = if participants.len() == 1 {
                    data.b_block(bi_b, bj)
                        .expect("missing own B block")
                        .submatrix(lo - r0, 0, rows, w)
                        .as_slice()
                        .to_vec()
                } else {
                    let label =
                        (1 << 23) + ((t * spec.grid_rows + bi_b) * spec.grid_cols + bj) as u64;
                    let mut col_comm = comm
                        .subgroup(&participants, label)
                        .expect("missing from column communicator");
                    let root = participants.iter().position(|&p| p == owner).unwrap();
                    let payload = if owner == rank {
                        Payload::F64(
                            data.b_block(bi_b, bj)
                                .expect("missing own B block")
                                .submatrix(lo - r0, 0, rows, w)
                                .as_slice()
                                .to_vec(),
                        )
                    } else {
                        Payload::F64(Vec::new())
                    };
                    col_comm.bcast(root, payload).into_f64()
                };
                panel.set_submatrix(lo - k0, 0, &DenseMatrix::from_vec(rows, w, slice_data));
            }
            *panel_slot = Some(panel);
        }

        // --- Accumulate the panel's contribution to every owned block.
        for (blk, cmat) in &mut out {
            let ap = a_panel[blk.block_i]
                .as_ref()
                .expect("A panel block missing for owned row");
            let bp = b_panel[blk.block_j]
                .as_ref()
                .expect("B panel block missing for owned column");
            debug_assert_eq!(ap.cols(), bp.rows());
            kernel.run(
                blk.rows,
                blk.cols,
                kb,
                1.0,
                ap.as_slice(),
                kb.max(1),
                bp.as_slice(),
                blk.cols.max(1),
                1.0,
                cmat.as_mut_slice(),
                blk.cols.max(1),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{multiply, ExecutionMode};
    use summagen_comm::ZeroCost;
    use summagen_matrix::{approx_eq, gemm_tolerance, random_matrix};
    use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};

    #[test]
    fn panelled_matches_one_shot_for_all_shapes() {
        let n = 40;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let one_shot = multiply(&spec, &a, &b, ExecutionMode::Real);
            let panelled = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked, ZeroCost);
            assert!(
                approx_eq(&one_shot.c, &panelled.c, gemm_tolerance(n) * 100.0),
                "{} differs",
                shape.name()
            );
        }
    }

    #[test]
    fn panelled_communication_volume_equals_one_shot() {
        // Same blocks over the same communicators: total traffic must
        // match the one-shot algorithm exactly.
        let n = 32;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let one_shot = multiply(&spec, &a, &b, ExecutionMode::Real);
            let panelled = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked, ZeroCost);
            let total = |r: &RunResult| r.traffic.iter().map(|t| t.bytes_sent).sum::<u64>();
            assert_eq!(total(&one_shot), total(&panelled), "{}", shape.name());
        }
    }

    #[test]
    fn panelled_single_processor() {
        let n = 16;
        let spec = PartitionSpec::new(vec![0], vec![n], vec![n], 1);
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let r = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked, ZeroCost);
        let want = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(&r.c, &want.c, 1e-10));
    }

    #[test]
    fn panelled_handles_nonsquare_grids() {
        // Grid 1x3 (1D): k-panels iterate max(grid_rows, grid_cols) = 3
        // but only t = 0 contributes (grid_rows = 1).
        let n = 24;
        let areas = proportional_areas(n, &[1.0, 1.0, 1.0]);
        let spec = summagen_partition::Shape::OneDRectangular.build(n, &areas);
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let r = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked, ZeroCost);
        let want = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(&r.c, &want.c, 1e-10));
    }
}
