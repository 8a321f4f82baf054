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

use std::sync::Arc;

use summagen_comm::{CommResult, Communicator, CostModel, Payload};
use summagen_matrix::{checksummed, window_to_vec, Checksums, DenseMatrix, GemmKernel};
use summagen_partition::PartitionSpec;

use crate::abft::{AbftStats, Protection};
use crate::engine::{self, RankBlocks};
use crate::executor::{RunOptions, RunResult};
use crate::rankdata::{RankMatrices, SharedBlock};
use crate::stages::Lanes;

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
    let run = engine::run_numeric(spec, (a, b), false, cost, None, &opts, rank_fn);
    engine::infallible(run).0
}

/// One rank's panel loop: for every grid column `t` of `A`, gather the `A`
/// blocks `(bi, t)` and the matching `B` rows along the lanes this rank
/// sits in, then accumulate the panel's contribution to every owned block
/// of `C`.
///
/// Without `protection` nothing else happens. With it, the blocks were
/// dealt fully checksummed and travel that way, are verified on receipt,
/// the accumulators carry a checksum row and column (the `Ã·B̃` encoding)
/// that is verified — and the data checkpointed — at each panel boundary,
/// and the walk covers only the k-range `[resume_k, stop_k)` of the plan:
/// panels the restored prefix covers are skipped, the first overlapping
/// one executes partially.
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
    // `abft-1024` over shared checksummed blocks, +8 % throughput for
    // +57 % peak RSS (123 → 193 MB).
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
    // *slices* of the overlapping `B` blocks, and the panel's product is a
    // chain of kernel calls, one per slice.
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
        let mut a_panel: Vec<Option<Held>> = vec![None; spec.grid_rows];
        for (bi, slot) in a_panel.iter_mut().enumerate() {
            let members = lanes.row(bi);
            if !members.contains(&rank) {
                continue;
            }
            let block = LaneBlock {
                members,
                label: (1 << 22) + (t * spec.grid_rows + bi) as u64,
                owner: spec.owner(bi, t),
                at: (0, lo - k0),
                dims: (spec.heights[bi], kb),
            };
            *slot = Some(block.exchange(comm, data.a_block(bi, t), protection, t, &mut stats)?);
        }

        // --- Gather the B rows [lo, k1) for columns this rank occupies:
        // per overlapping `B` block, its slice's first row in the panel,
        // its height and the slice itself.
        let mut b_panel: Vec<Vec<(usize, usize, Held)>> = vec![Vec::new(); spec.grid_cols];
        for (bj, slices) in b_panel.iter_mut().enumerate() {
            let members = lanes.col(bj);
            if !members.contains(&rank) {
                continue;
            }
            for bi_b in 0..spec.grid_rows {
                let r0 = spec.row_offset(bi_b);
                let (slo, shi) = (r0.max(lo), (r0 + spec.heights[bi_b]).min(k1));
                if slo >= shi {
                    continue; // block does not overlap this panel
                }
                let label = (1 << 23) + ((t * spec.grid_rows + bi_b) * spec.grid_cols + bj) as u64;
                let block = LaneBlock {
                    members,
                    label,
                    owner: spec.owner(bi_b, bj),
                    at: (slo - r0, 0),
                    dims: (shi - slo, spec.widths[bj]),
                };
                let held =
                    block.exchange(comm, data.b_block(bi_b, bj), protection, t, &mut stats)?;
                slices.push((slo - lo, shi - slo, held));
            }
        }

        // --- Accumulate the panel's contribution to every owned block,
        // C̃(bi, bj) += Ã(bi, t) · B̃(t, bj) under protection, both read in
        // place (`Ã`'s transit column unread). `Blocked` adds every data
        // element's terms one by one in ascending `k`, however split.
        for (blk, cmat) in &mut out {
            let a = a_panel[blk.block_i]
                .as_ref()
                .expect("A panel block missing for owned row");
            let (m, nc) = (blk.rows + pad, blk.cols + pad);
            let (a, a_off, lda) = a;
            for (k, len, (b, b_off, ldb)) in &b_panel[blk.block_j] {
                let (a, b, c) = (&a[a_off + k..], &b[*b_off..], cmat.as_mut_slice());
                kernel.run(m, nc, *len, 1.0, a, *lda, b, *ldb, 1.0, c, nc);
            }
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

/// A block as one rank reads it in one panel step: a shared buffer, the
/// offset of the block's first element in it and its leading dimension.
type Held = (Arc<Vec<f64>>, usize, usize);

/// One block of a broadcast lane in one panel step: the `dims` window at
/// `at` (data coordinates) of a sub-partition that `owner` holds and every
/// one of the lane's `members` needs — a column slice of an `A` block or a
/// row slice of a `B` block, all of it in either case.
struct LaneBlock<'a> {
    members: &'a [usize],
    /// Names the lane's communicator for this block.
    label: u64,
    owner: usize,
    at: (usize, usize),
    dims: (usize, usize),
}

impl LaneBlock<'_> {
    /// The window as this rank reads it once the lane has exchanged it.
    /// The owner reads `own`, its own buffer, in place; on a lane of more
    /// than one it broadcasts, by reference, that buffer when the window is
    /// all of it and one copy of the window otherwise. Receivers read what
    /// arrived — under protection verified in place first, and a correction
    /// made on a private copy.
    fn exchange(
        &self,
        comm: &Communicator,
        own: Option<&SharedBlock>,
        protection: Option<&Protection<'_>>,
        step: usize,
        stats: &mut AbftStats,
    ) -> CommResult<Held> {
        let pad = usize::from(protection.is_some());
        let (rows, cols) = (self.dims.0 + pad, self.dims.1 + pad);
        let root = self
            .members
            .binary_search(&self.owner)
            .expect("owner not in its lane communicator");
        let mut lane = (self.members.len() > 1).then(|| {
            comm.subgroup(self.members, self.label)
                .expect("missing from lane communicator")
        });
        if self.owner == comm.rank() {
            let block = own.expect("missing own block");
            if let Some(lane) = &mut lane {
                let payload = self.payload(block, (rows, cols), pad == 1);
                lane.try_bcast(root, Payload::SharedF64(payload))?;
            }
            let off = self.at.0 * block.cols() + self.at.1;
            return Ok((Arc::clone(block.shared()), off, block.cols()));
        }
        let lane = lane.as_mut().expect("a lane of one holds only its owner");
        let mut buf = lane
            .try_bcast(root, Payload::F64(Vec::new()))?
            .try_into_shared_f64()?;
        if let Some(p) = protection {
            p.verify_received(comm, &mut buf, (rows, cols), step, stats)?;
        }
        Ok((buf, 0, cols))
    }

    /// What the owner broadcasts: `block`'s buffer itself if the
    /// `rows × cols` window (checksums included) is all of it, else a copy
    /// of the window, `protected` with its own transit sums: row sums for a
    /// column slice (narrower than the block), column sums for a row slice.
    fn payload(
        &self,
        block: &SharedBlock,
        (rows, cols): (usize, usize),
        protected: bool,
    ) -> Arc<Vec<f64>> {
        let (src, ld) = (block.as_slice(), block.cols());
        if self.at == (0, 0) && (rows * cols, cols) == (src.len(), ld) {
            return Arc::clone(block.shared());
        }
        let ((i0, j0), (h, w)) = (self.at, self.dims);
        Arc::new(match (protected, cols < ld) {
            (false, _) => window_to_vec(src, ld, i0, j0, h, w),
            (true, true) => checksummed(src, ld, (0, j0), (rows, w), Checksums::Rows),
            (true, false) => checksummed(src, ld, (i0, 0), (h, cols), Checksums::Columns),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{multiply, ExecutionMode};
    use crate::stages::Operand;
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

    /// One protected exchange of the whole block `(bi, bj)` of `operand`
    /// on a three-rank lane, over channels: what every rank reads, its
    /// corrections, and the buffer the owner was dealt.
    fn protected_exchange(
        spec: &PartitionSpec,
        (operand, bi, bj): (Operand, usize, usize),
        faults: summagen_comm::FaultPlan,
    ) -> (Vec<(Held, u64)>, Arc<Vec<f64>>) {
        let (a, b) = (
            random_matrix(spec.n, spec.n, 61),
            random_matrix(spec.n, spec.n, 62),
        );
        let dealt = crate::rankdata::deal(spec, (&a, &b), true);
        let block = |rank: usize| match operand {
            Operand::A => dealt[rank].a_block(bi, bj),
            Operand::B => dealt[rank].b_block(bi, bj),
        };
        let owner = spec.owner(bi, bj);
        let opts = crate::AbftOptions::default();
        let store = crate::abft::CheckpointStore::new(spec, usize::MAX);
        let protection = Protection {
            opts: &opts,
            resume: None,
            stop_k: usize::MAX,
            store: &store,
        };
        let held = summagen_comm::Universe::new(3, ZeroCost)
            .with_faults(faults)
            .try_run(|comm| {
                let mut stats = AbftStats::default();
                let lane = LaneBlock {
                    members: &[0, 1, 2],
                    label: 1 << 22,
                    owner,
                    at: (0, 0),
                    dims: (spec.heights[bi], spec.widths[bj]),
                };
                let own = block(comm.rank());
                let held = lane.exchange(&comm, own, Some(&protection), 0, &mut stats)?;
                Ok((held, stats.corrected))
            })
            .expect("a corrected exchange fails nothing");
        (held, Arc::clone(block(owner).unwrap().shared()))
    }

    /// Under protection a whole block still travels by reference: every
    /// receiver reads the owner's checksummed buffer itself, and a flip
    /// addressed to one receiver is corrected on that receiver's private
    /// copy, never written through to the buffer the others share.
    #[test]
    fn protected_receivers_read_the_owners_buffer_and_correct_a_private_copy() {
        let row = PartitionSpec::new(vec![1, 0, 2], vec![12], vec![4, 4, 4], 3);
        let column = PartitionSpec::new(vec![2, 0, 1], vec![3, 8, 1], vec![12], 3);
        for (spec, block) in [(&row, (Operand::A, 0, 0)), (&column, (Operand::B, 1, 0))] {
            let owner = spec.owner(block.1, block.2);
            let ld = spec.widths[block.2] + 1;
            let (held, src) = protected_exchange(spec, block, summagen_comm::FaultPlan::new());
            for (rank, ((buf, off, held_ld), corrected)) in held.iter().enumerate() {
                assert!(Arc::ptr_eq(buf, &src), "rank {rank} holds a copy");
                assert_eq!((*off, *held_ld, *corrected), (0, ld, 0), "rank {rank}");
            }
            let pristine = (*src).clone();
            let hit = (owner + 1) % 3;
            let plan = summagen_comm::FaultPlan::new().corrupt_message(owner, hit, 0, 5, 0.75);
            let (held, src) = protected_exchange(spec, block, plan);
            assert_eq!(*src, pristine, "the owner's buffer was written through");
            for (rank, ((buf, ..), corrected)) in held.iter().enumerate() {
                let shared = Arc::ptr_eq(buf, &src);
                assert_eq!((shared, *corrected), (rank != hit, u64::from(rank == hit)));
            }
            let fixed = &held[hit].0 .0;
            let off: Vec<usize> = (0..fixed.len())
                .filter(|&i| fixed[i] != pristine[i])
                .collect();
            assert!(off.iter().all(|&i| i == 5), "correction strayed: {off:?}");
            assert!((fixed[5] - pristine[5]).abs() < 1e-12);
        }
    }
}
