//! Panelled SummaGen: a memory-bounded, pipelined variant, and the one
//! panel loop behind it and the checksum-protected executor.
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
//! `panel_loop` is that per-panel gather → accumulate walk, once. Run
//! bare it is [`multiply_panelled`]; handed a `Protection` it pads every
//! block with a checksum row and column, verifies what it receives and what
//! it accumulated, and checkpoints at panel boundaries — that is
//! [`crate::multiply_abft`] and [`crate::multiply_abft_prefix`]. The lane
//! labels, the broadcast roots and the data bits are the same either way.
//!
//! Its `expect`s assert the partition-validation invariants documented in
//! [`crate::stages`] (every cell has an owner, owners hold their blocks,
//! participants belong to their own row/column communicators); a failed
//! broadcast is an `Err`, which [`multiply_panelled`] — nothing injects
//! faults there — turns into a panic.

use summagen_comm::{CommResult, Communicator, CostModel, Payload};
use summagen_matrix::{DenseMatrix, GemmKernel};
use summagen_partition::PartitionSpec;

use crate::abft::{AbftStats, Protection};
use crate::engine::{self, RankBlocks};
use crate::executor::{RunOptions, RunResult};
use crate::rankdata::RankMatrices;
use crate::stages::{Lanes, Operand};

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
    let rank_fn = |comm: &Communicator, data: &RankMatrices, lanes: &Lanes| {
        panel_loop(comm, spec, lanes, data, kernel, None)
    };
    let opts = RunOptions::default();
    let run = engine::run_numeric(spec, (a, b), cost, None, &opts, rank_fn);
    engine::infallible(run).0
}

/// One rank's panel loop: for every grid column `t` of `A`, gather the `A`
/// blocks `(bi, t)` and the matching `B` rows along the lanes this rank
/// sits in, then accumulate the panel's contribution to every owned block
/// of `C`.
///
/// Without `protection` nothing else happens. With it, blocks travel fully
/// checksummed and are verified on receipt, the accumulators carry a
/// checksum row and column (the `Ã·B̃` encoding) that is verified — and the
/// data checkpointed — at each panel boundary, and the walk covers only the
/// k-range `[resume_k, stop_k)` of the plan: panels the restored prefix
/// covers are skipped, the first overlapping one executes partially.
pub(crate) fn panel_loop(
    comm: &Communicator,
    spec: &PartitionSpec,
    lanes: &Lanes,
    data: &RankMatrices,
    kernel: GemmKernel,
    protection: Option<&Protection<'_>>,
) -> CommResult<(RankBlocks, AbftStats)> {
    let rank = comm.rank();
    let mut stats = AbftStats::default();
    let pad = usize::from(protection.is_some());
    let (resume_k, stop_k) = protection.map_or((0, usize::MAX), |p| (p.resume_k(), p.stop_k));
    // `Parallel` runs as `Blocked` under protection — the same bits. A
    // kernel thread beside each rank thread means one more malloc arena
    // per thread, each retaining rank-sized free memory: measured on
    // `abft-1024`, +47 % peak RSS for +6 % throughput.
    let kernel = match (protection, kernel) {
        (None, kernel) | (Some(_), kernel @ GemmKernel::Naive) => kernel,
        (Some(_), _) => GemmKernel::Blocked,
    };

    // Output blocks, zero-initialized (or restored), accumulated across
    // panels.
    let mut out: RankBlocks = spec
        .blocks_of(rank)
        .into_iter()
        .map(|blk| (blk, DenseMatrix::zeros(blk.rows + pad, blk.cols + pad)))
        .collect();
    if let Some(p) = protection {
        p.restore(comm, spec, &mut out);
    }

    // Panel `t` covers the k-range of grid *column* `t` of `A`. Because
    // the grid's row cuts (which partition `B`'s k-dimension) need not
    // align with its column cuts, the matching `B` rows are gathered as
    // *slices* of the overlapping `B` blocks — same total bytes, panel-
    // sized staging.
    for t in 0..spec.grid_cols {
        let k0 = spec.col_offset(t);
        let k1 = k0 + spec.widths[t];
        if k0 >= stop_k {
            break; // preemption horizon reached: a clean k-prefix stop
        }
        let lo = k0.max(resume_k);
        if lo >= k1 {
            continue; // panel fully covered by the restored checkpoint
        }
        if stats.panels_executed == 0 {
            stats.first_panel = t as u64;
        }
        stats.panels_executed += 1;
        if let Some(m) = comm.metrics() {
            m.panel_steps.inc();
        }
        let kb = k1 - lo;

        // --- Gather the A blocks (bi, t), column-sliced to [lo, k1), for
        // rows this rank occupies.
        let mut a_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_rows];
        for (bi, slot) in a_panel.iter_mut().enumerate() {
            let members = lanes.row(bi);
            if !members.contains(&rank) {
                continue;
            }
            let h = spec.heights[bi];
            let label = (1 << 22) + (t * spec.grid_rows + bi) as u64;
            let slice = || {
                let own = data.a_block(bi, t).expect("missing own A block");
                own.submatrix(0, lo - k0, h, kb)
            };
            let block = LaneBlock {
                members,
                label,
                owner: spec.owner(bi, t),
                operand: Operand::A,
                dims: (h, kb),
            };
            *slot = Some(block.exchange(comm, &slice, protection, t, &mut stats)?);
        }

        // --- Gather the B rows [lo, k1) for columns this rank occupies.
        let mut b_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_cols];
        for (bj, slot) in b_panel.iter_mut().enumerate() {
            let members = lanes.col(bj);
            if !members.contains(&rank) {
                continue;
            }
            let w = spec.widths[bj];
            let mut panel = DenseMatrix::zeros(kb, w + pad);
            for bi_b in 0..spec.grid_rows {
                let r0 = spec.row_offset(bi_b);
                let r1 = r0 + spec.heights[bi_b];
                let (slo, shi) = (r0.max(lo), r1.min(k1));
                if slo >= shi {
                    continue; // block does not overlap this panel
                }
                let rows = shi - slo;
                let label = (1 << 23) + ((t * spec.grid_rows + bi_b) * spec.grid_cols + bj) as u64;
                let slice = || {
                    let own = data.b_block(bi_b, bj).expect("missing own B block");
                    own.submatrix(slo - r0, 0, rows, w)
                };
                let block = LaneBlock {
                    members,
                    label,
                    owner: spec.owner(bi_b, bj),
                    operand: Operand::B,
                    dims: (rows, w),
                };
                let held = block.exchange(comm, &slice, protection, t, &mut stats)?;
                panel.set_submatrix(slo - lo, 0, &held);
            }
            *slot = Some(panel);
        }

        // --- Accumulate the panel's contribution to every owned block:
        // C̃(bi, bj) += Ã(bi, t) · B̃(t, bj) under protection. The widened
        // dims do not perturb data elements: each c[i][j] with i, j in the
        // data region sees exactly the unprotected kernel's k-order.
        for (blk, cmat) in &mut out {
            let ap = a_panel[blk.block_i]
                .as_ref()
                .expect("A panel block missing for owned row");
            let bp = b_panel[blk.block_j]
                .as_ref()
                .expect("B panel block missing for owned column");
            debug_assert_eq!(ap.cols(), bp.rows());
            let (m, nc) = (blk.rows + pad, blk.cols + pad);
            let (a, b, c) = (ap.as_slice(), bp.as_slice(), cmat.as_mut_slice());
            kernel.run(m, nc, kb, 1.0, a, kb, b, nc, 1.0, c, nc);
            if let Some(p) = protection.filter(|p| p.opts.gemm_cost > 0.0) {
                comm.advance_compute(p.opts.gemm_cost * (m * nc * kb) as f64);
            }
        }

        if let Some(p) = protection {
            p.close_panel(comm, t, k1, t + 1 == spec.grid_cols, &mut out, &mut stats)?;
        }
    }
    if protection.is_some() {
        // Strip the checksums; the data region is returned bit-for-bit.
        for (blk, c) in &mut out {
            *c = c.submatrix(0, 0, blk.rows, blk.cols);
        }
    }
    Ok((out, stats))
}

/// One block of a broadcast lane in one panel step: the `dims` slice of a
/// sub-partition of `operand` that `owner` holds and every one of the
/// lane's `members` needs.
struct LaneBlock<'a> {
    members: &'a [usize],
    /// Names the lane's communicator for this block.
    label: u64,
    owner: usize,
    operand: Operand,
    dims: (usize, usize),
}

impl LaneBlock<'_> {
    /// The block as this rank holds it once the lane has exchanged it:
    /// `slice()` itself on a lane that is wholly this rank's, what the
    /// owner's broadcast delivered otherwise. Under protection the block
    /// travels fully checksummed, is verified (and corrected) on receipt,
    /// and comes back in its product encoding.
    fn exchange(
        &self,
        comm: &Communicator,
        slice: &dyn Fn() -> DenseMatrix,
        protection: Option<&Protection<'_>>,
        step: usize,
        stats: &mut AbftStats,
    ) -> CommResult<DenseMatrix> {
        let sends = self.owner == comm.rank();
        let pad = usize::from(protection.is_some());
        let encoded = || match protection {
            Some(_) => Protection::transit(self.operand, &slice()),
            None => slice(),
        };
        let held = if self.members.len() == 1 {
            encoded()
        } else {
            let mut lane = comm
                .subgroup(self.members, self.label)
                .expect("missing from lane communicator");
            let root = self
                .members
                .binary_search(&self.owner)
                .expect("owner not in its lane communicator");
            let payload = if sends {
                encoded().as_slice().to_vec()
            } else {
                Vec::new()
            };
            let raw = lane
                .try_bcast(root, Payload::F64(payload))?
                .try_into_f64()?;
            let mut received = DenseMatrix::from_vec(self.dims.0 + pad, self.dims.1 + pad, raw);
            if let Some(p) = protection.filter(|_| !sends) {
                p.verify(comm, std::iter::once(&mut received), step, stats)?;
            }
            received
        };
        Ok(match protection {
            Some(_) => Protection::product_encoding(self.operand, &held),
            None => held,
        })
    }
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
