//! The one rank walk: the three SummaGen stages (Figures 2, 3 and 4 of the
//! paper), generalized to arbitrary grids and processor counts and run over
//! a list of k-windows.
//!
//! For each window, and for each rank the calling thread hosts, the walk
//! gathers `A` along sub-partition rows (Fig. 2) and `B` along sub-partition
//! columns (Fig. 3) — every block that overlaps the window, clipped to it —
//! then adds the window's part of the product into every owned `C` block
//! (Fig. 4) and, under a `Protection`, closes the panel. Which windows is
//! the entry point's choice: `whole` is the paper's schedule (`multiply`,
//! `simulate*`), `panels` one window per grid column of `A`
//! (`multiply_panelled`, `multiply_abft*`), which bounds what a rank holds
//! at once by one panel's blocks. Either way every broadcast of a window
//! completes before its GEMMs start: nothing overlaps.
//!
//! # Panic policy
//!
//! Communication failures (a peer dying mid-broadcast, a timeout, a typed
//! payload mismatch) are *expected* at this layer and surface as
//! [`summagen_comm::CommError`] through the `CommResult` return values.
//! The remaining `expect`s in this module assert structural invariants
//! that [`PartitionSpec`] validation establishes before any stage runs —
//! every grid cell has exactly one owner, an owner's blocks exist in its
//! [`RankMatrices`], and a row/column participant is always a member of
//! the communicator built from its own participant list. Violating one of
//! these is a partitioner bug, not a runtime condition, so they panic.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use summagen_comm::{CommResult, Communicator, Payload, SpanKind, StageLabel};
use summagen_matrix::{
    checksummed, window_to_vec, Checksums, DenseMatrix, GemmKernel, GemmObserver,
};
use summagen_partition::{PartitionSpec, ProcBlock};

use crate::abft::{AbftStats, Protection};
use crate::engine::RankBlocks;
use crate::rankdata::{RankMatrices, SharedBlock};

/// A stretch `[lo, hi)` of the inner dimension: what the walk gathers, then
/// accumulates, in one go.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    pub lo: usize,
    pub hi: usize,
    /// `Some(t)` if the window is (the rest of) grid column `t` of `A`: a
    /// panel step, counted in `panel_steps`, numbering its ABFT events and
    /// closed under protection. `None` for the whole product, reported as
    /// the paper's three stages — a `Stage` span per gather and for the
    /// local computations, and one `Gemm` span and kernel observation per
    /// owned block.
    pub panel: Option<usize>,
}

/// The paper's schedule: all of `k` in one window.
pub(crate) fn whole(spec: &PartitionSpec) -> [Window; 1] {
    [Window {
        lo: 0,
        hi: spec.n,
        panel: None,
    }]
}

/// One window per grid column of `A`, clipped to `[resume_k, stop_k)`:
/// panels starting at or past `stop_k` are dropped, panels the restored
/// prefix covers skipped, and the first one it overlaps starts at
/// `resume_k`.
pub(crate) fn panels(spec: &PartitionSpec, resume_k: usize, stop_k: usize) -> Vec<Window> {
    let mut k1 = 0;
    let ends = spec.widths.iter().map(|w| {
        k1 += w;
        (k1 - w, k1)
    });
    ends.enumerate()
        .take_while(|(_, (k0, _))| *k0 < stop_k)
        .filter(|(_, (_, k1))| resume_k < *k1)
        .map(|(t, (k0, hi))| Window {
            lo: k0.max(resume_k),
            hi,
            panel: Some(t),
        })
        .collect()
}

/// Which matrix a gather moves: `A` along sub-partition rows (stage 1) or
/// `B` along sub-partition columns (stage 2).
#[derive(Clone, Copy)]
pub(crate) enum Operand {
    A,
    B,
}

/// Each broadcast lane's communicator members, computed once per run:
/// `rows[bi]` is the sorted list of processors owning a sub-partition in
/// grid row `bi`, `cols[bj]` likewise for grid column `bj`.
pub(crate) struct Lanes {
    rows: Vec<Vec<usize>>,
    cols: Vec<Vec<usize>>,
}

impl Lanes {
    pub fn new(spec: &PartitionSpec) -> Self {
        fn members(owners: impl Iterator<Item = usize>) -> Vec<usize> {
            owners.collect::<BTreeSet<_>>().into_iter().collect()
        }
        let row = |bi| members((0..spec.grid_cols).map(|bj| spec.owner(bi, bj)));
        let col = |bj| members((0..spec.grid_rows).map(|bi| spec.owner(bi, bj)));
        Self {
            rows: (0..spec.grid_rows).map(row).collect(),
            cols: (0..spec.grid_cols).map(col).collect(),
        }
    }

    /// The members of grid row `bi`'s lane, ascending.
    pub fn row(&self, bi: usize) -> &[usize] {
        &self.rows[bi]
    }

    /// The members of grid column `bj`'s lane, ascending.
    pub fn col(&self, bj: usize) -> &[usize] {
        &self.cols[bj]
    }
}

/// A block as a rank reads it in one window: a shared buffer, the offset
/// of the window's first element in it and its leading dimension.
type Held = (Arc<Vec<f64>>, usize, usize);

/// What one rank reads in the current window: for every grid cell
/// `(bi, bj)` (index `bi * grid_cols + bj`) whose `A` block overlaps the
/// window in a sub-partition row the rank participates in, that part of the
/// block, and likewise for `B` along its columns; `None` elsewhere. Where
/// the window covers a whole block the buffer *is* the one its owner was
/// dealt (or, over TCP, the one the frame was decoded into) — the paper's
/// working matrices `WA` and `WB` exist only as this index.
#[derive(Default)]
pub(crate) struct PanelTable {
    a: Vec<Option<Held>>,
    b: Vec<Option<Held>>,
}

impl PanelTable {
    /// An empty table for `spec`'s grid.
    fn new(spec: &PartitionSpec) -> Self {
        let cells = spec.grid_rows * spec.grid_cols;
        Self {
            a: vec![None; cells],
            b: vec![None; cells],
        }
    }
}

/// One rank as the thread that hosts it drives it through a walk.
pub(crate) struct Hosted<'a> {
    comm: &'a Communicator,
    /// The blocks it was dealt; `None` on the phantom path, where payloads
    /// are sizes only and nothing is held or accumulated.
    data: Option<&'a RankMatrices>,
    held: PanelTable,
    /// Its `C` blocks, in `blocks_of` order (none on the phantom path).
    pub out: RankBlocks,
    pub stats: AbftStats,
}

impl<'a> Hosted<'a> {
    pub fn new(comm: &'a Communicator, data: Option<&'a RankMatrices>) -> Self {
        Self {
            comm,
            data,
            held: PanelTable::default(),
            out: Vec::new(),
            stats: AbftStats::default(),
        }
    }
}

/// Virtual seconds charged to rank `r` for block `blk`'s share of a window
/// `kb` wide, once its GEMMs are done.
pub(crate) type Charge<'a> = &'a (dyn Fn(usize, &ProcBlock, usize) -> f64 + Sync);

/// What tells the entry points' walks apart, as data.
pub(crate) struct Walk<'a> {
    /// Ascending, disjoint k-windows.
    pub windows: &'a [Window],
    /// The kernel real blocks are multiplied with.
    pub kernel: GemmKernel,
    /// What a block's share of a window costs; `None` leaves the clock
    /// alone.
    pub charge: Option<Charge<'a>>,
    /// Blocks dealt and sent with checksums, verified on receipt, and each
    /// panel closed: accumulators verified and checkpointed.
    pub protection: Option<&'a Protection<'a>>,
}

impl Walk<'_> {
    /// Walks the ranks *this thread hosts* (ascending) through every
    /// window, leaving each one's `C` blocks in [`Hosted::out`]. `Err` if a
    /// broadcast fails — typically [`summagen_comm::CommError::PeerFailed`],
    /// a member having died mid-window — or a protected check finds damage
    /// it cannot correct.
    ///
    /// The real executor hosts one rank per thread, the phantom engine all
    /// of them on its caller. Either way the operations are issued in one
    /// global order — window, operand, lane, block, the root of each
    /// broadcast first — which is every rank's own program order and never
    /// receives before it sent.
    pub fn run(
        &self,
        ranks: &mut [Hosted<'_>],
        spec: &PartitionSpec,
        lanes: &Lanes,
    ) -> CommResult<()> {
        debug_assert!(ranks.is_sorted_by_key(|r| r.comm.rank()));
        let pad = usize::from(self.protection.is_some());
        for r in ranks.iter_mut().filter(|r| r.data.is_some()) {
            let zeros = |blk: ProcBlock| (blk, DenseMatrix::zeros(blk.rows + pad, blk.cols + pad));
            let blocks = spec.blocks_of(r.comm.rank());
            r.out = blocks.into_iter().map(zeros).collect();
            if let Some(p) = self.protection {
                p.restore(r.comm, spec, &mut r.out);
            }
        }
        for (w, window) in self.windows.iter().enumerate() {
            for r in ranks.iter_mut() {
                if r.data.is_some() {
                    r.held = PanelTable::new(spec); // the last window's blocks go
                }
                if let Some(t) = window.panel {
                    if r.stats.panels_executed == 0 {
                        r.stats.first_panel = t as u64;
                    }
                    r.stats.panels_executed += 1;
                    if let Some(m) = r.comm.metrics() {
                        m.panel_steps.inc();
                    }
                }
            }
            self.gather(ranks, spec, lanes, (w, window), Operand::A)?;
            self.gather(ranks, spec, lanes, (w, window), Operand::B)?;
            for r in ranks.iter_mut() {
                self.accumulate(r, spec, window);
                if let (Some(p), Some(t)) = (self.protection, window.panel) {
                    let last = t + 1 == spec.grid_cols;
                    p.close_panel(r.comm, t, window.hi, last, &mut r.out, &mut r.stats)?;
                }
            }
        }
        if pad == 1 {
            // Strip the checksums; the data region is returned bit-for-bit.
            for (blk, c) in ranks.iter_mut().flat_map(|r| &mut r.out) {
                *c = c.submatrix(0, 0, blk.rows, blk.cols);
            }
        }
        Ok(())
    }

    /// Stage 1 or 2 over `window` (the `w`-th): one broadcast per block of
    /// every lane (a sub-partition row for `A`, a column for `B`) that
    /// overlaps the window, rooted at the block's owner, issued for every
    /// hosted member of the lane on the lane's communicator for the window.
    /// Every member afterwards holds (or, in phantom mode, has paid for)
    /// every such block, clipped to the window.
    fn gather(
        &self,
        ranks: &mut [Hosted<'_>],
        spec: &PartitionSpec,
        lanes: &Lanes,
        (w, window): (usize, &Window),
        operand: Operand,
    ) -> CommResult<()> {
        // Empty unless the walk reports stages and the universe (one for
        // all hosted ranks) has a sink.
        let traced = |r: &&Hosted| window.panel.is_none() && r.comm.tracing_enabled();
        let stage_starts: Vec<f64> = ranks.iter().filter(traced).map(|r| r.comm.now()).collect();
        let (lane_members, cuts, across) = match operand {
            Operand::A => (&lanes.rows, &spec.widths, &spec.heights),
            Operand::B => (&lanes.cols, &spec.heights, &spec.widths),
        };
        // `(along the lane, along k)` as grid `(row, column)`.
        let orient = |lane_x, k_x| match operand {
            Operand::A => (lane_x, k_x),
            Operand::B => (k_x, lane_x),
        };
        for (lane, members) in lane_members.iter().enumerate() {
            // The lane's hosted members, by index into `ranks`, each with its
            // lane communicator — none for a lane that is wholly one rank's,
            // which needs no communication (Fig. 2 line 8). One per lane,
            // operand and window; a label only names it, no count, clock or
            // span shows it.
            let label = ((2 * w as u64 + operand as u64) << 32) + lane as u64;
            let lane_comm = |i: usize| match members.len() {
                1 => Ok(None),
                _ => ranks[i].comm.try_subgroup(members, label),
            };
            let mut here: Vec<(usize, Option<Communicator>)> = members
                .iter()
                .filter_map(|&m| ranks.binary_search_by_key(&m, |r| r.comm.rank()).ok())
                .map(|i| Ok((i, lane_comm(i)?)))
                .collect::<CommResult<_>>()?;
            let mut k0 = 0;
            for (pos, len) in cuts.iter().enumerate() {
                let (start, lo, hi) = (k0, k0.max(window.lo), (k0 + len).min(window.hi));
                k0 += len;
                if here.is_empty() || lo >= hi {
                    continue;
                }
                let (bi, bj) = orient(lane, pos);
                let block = LaneBlock {
                    members,
                    operand,
                    cell: (bi, bj),
                    owner: spec.owner(bi, bj),
                    at: orient(0, lo - start),
                    dims: orient(across[lane], hi - lo),
                };
                // The owner's call first: it is the one that sends.
                let root_at = here
                    .iter()
                    .position(|h| ranks[h.0].comm.rank() == block.owner);
                let others = (0..here.len()).filter(|&k| Some(k) != root_at);
                for k in root_at.into_iter().chain(others) {
                    let (i, lane_comm) = &mut here[k];
                    let r = &mut ranks[*i];
                    let step = window.panel.unwrap_or(0);
                    if let Some(held) =
                        block.exchange(r, lane_comm.as_mut(), self.protection, step)?
                    {
                        let table = match operand {
                            Operand::A => &mut r.held.a,
                            Operand::B => &mut r.held.b,
                        };
                        table[bi * spec.grid_cols + bj] = Some(held);
                    }
                }
            }
        }
        let stage = match operand {
            Operand::A => StageLabel::HorizontalA,
            Operand::B => StageLabel::VerticalB,
        };
        for (r, t0) in ranks.iter().zip(stage_starts) {
            r.comm.emit(t0, r.comm.now(), SpanKind::Stage { stage });
        }
        Ok(())
    }

    /// Stage 3 (Fig. 4) over `window`: every owned block's chain of kernel
    /// calls, one per [`KSegment`], each reading its two blocks where they
    /// lie through their own leading dimensions and adding into the
    /// accumulator (`beta` = 1 on zeros from the start). `Blocked` and
    /// `Parallel` add every element's terms one by one in ascending `k`
    /// whatever the split, so the chain — and any windowing of it — yields
    /// the bits of a single call; `Naive` rounds once per call (see its
    /// rustdoc). Then the block's [`Walk::charge`].
    fn accumulate(&self, r: &mut Hosted<'_>, spec: &PartitionSpec, window: &Window) {
        let (comm, rank) = (r.comm, r.comm.rank());
        let kb = window.hi - window.lo;
        let stages = window.panel.is_none();
        let tracing = stages && comm.tracing_enabled();
        let metrics = comm.metrics().filter(|_| stages);
        let observing = tracing || metrics.is_some();
        let stage_start = tracing.then(|| comm.now());
        // Sums the kernel's wall-clock time over a block's chain, so that the
        // trace and the metrics see one GEMM over the window per block.
        struct NsSum(Cell<u64>);
        impl GemmObserver for NsSum {
            fn on_gemm(&self, _m: usize, _n: usize, _k: usize, elapsed_ns: u64) {
                self.0.set(self.0.get() + elapsed_ns);
            }
        }
        let kernel_ns = NsSum(Cell::new(0));
        let mut accumulators = r.out.iter_mut();
        for blk in spec.blocks_of(rank) {
            kernel_ns.0.set(0);
            if let Some((_, c)) = accumulators.next() {
                let (m, nc) = (c.rows(), c.cols());
                for seg in k_segments(spec, window) {
                    let (a, a_off, lda) = r.held.a[blk.block_i * spec.grid_cols + seg.a_col]
                        .as_ref()
                        .expect("A block missing from the panel table");
                    let (b, b_off, ldb) = r.held.b[seg.b_row * spec.grid_cols + blk.block_j]
                        .as_ref()
                        .expect("B block missing from the panel table");
                    self.kernel.run_observed(
                        m,
                        nc,
                        seg.len,
                        1.0,
                        &a[a_off + seg.a_off..],
                        *lda,
                        &b[b_off + seg.b_off * ldb..],
                        *ldb,
                        1.0,
                        c.as_mut_slice(),
                        nc,
                        observing.then_some(&kernel_ns as &dyn GemmObserver),
                    );
                }
                if let Some(m) = metrics {
                    m.gemm.on_gemm(blk.rows, blk.cols, kb, kernel_ns.0.get());
                }
            }
            let gemm_start = observing.then(|| comm.now());
            if let Some(charge) = self.charge {
                comm.advance_compute(charge(rank, &blk, kb));
            }
            if let Some(t0) = gemm_start {
                let t1 = comm.now();
                let flops = 2.0 * blk.rows as f64 * blk.cols as f64 * kb as f64;
                if tracing {
                    let (m, n, k, kernel_ns) = (blk.rows, blk.cols, kb, kernel_ns.0.get());
                    comm.emit(
                        t0,
                        t1,
                        SpanKind::Gemm {
                            m,
                            n,
                            k,
                            flops,
                            kernel_ns,
                        },
                    );
                }
                if let Some(m) = metrics {
                    m.gemm.record_virtual(flops, t1 - t0);
                }
            }
        }
        if let Some(t0) = stage_start {
            let stage = StageLabel::LocalCompute;
            comm.emit(t0, comm.now(), SpanKind::Stage { stage });
        }
    }
}

/// One stretch of the inner dimension over which a product reads a single
/// `A` block and a single `B` block: the column cuts of `A` (grid columns)
/// merged with the row cuts of `B` (grid rows).
#[derive(Clone, Copy)]
struct KSegment {
    /// Grid column of the `A` block and the segment's first column in the
    /// block's part of the window.
    a_col: usize,
    a_off: usize,
    /// Grid row of the `B` block and the segment's first row in the
    /// block's part of the window.
    b_row: usize,
    b_off: usize,
    /// Length of the segment.
    len: usize,
}

/// The segments covering `window`, in ascending `k`. They depend on the grid
/// cuts and the window only: every owned block chains the same ones.
fn k_segments<'s>(spec: &'s PartitionSpec, window: &Window) -> impl Iterator<Item = KSegment> + 's {
    let (lo, hi) = (window.lo, window.hi);
    let (mut a_col, mut b_row) = (0, 0);
    let (mut a_start, mut b_start) = (0, 0);
    let mut k0 = lo;
    std::iter::from_fn(move || {
        if k0 >= hi {
            return None;
        }
        while a_start + spec.widths[a_col] <= k0 {
            (a_start, a_col) = (a_start + spec.widths[a_col], a_col + 1);
        }
        while b_start + spec.heights[b_row] <= k0 {
            (b_start, b_row) = (b_start + spec.heights[b_row], b_row + 1);
        }
        let k1 = (a_start + spec.widths[a_col])
            .min(b_start + spec.heights[b_row])
            .min(hi);
        let segment = KSegment {
            a_col,
            a_off: k0 - a_start.max(lo),
            b_row,
            b_off: k0 - b_start.max(lo),
            len: k1 - k0,
        };
        k0 = k1;
        Some(segment)
    })
}

/// One block of a broadcast lane in one window: the `dims` window at `at`
/// (data coordinates) of sub-partition `cell` of `operand`, which `owner`
/// holds and every one of the lane's `members` needs — a column slice of an
/// `A` block or a row slice of a `B` block, all of it in either case.
struct LaneBlock<'a> {
    members: &'a [usize],
    operand: Operand,
    cell: (usize, usize),
    owner: usize,
    at: (usize, usize),
    dims: (usize, usize),
}

impl LaneBlock<'_> {
    /// The exchange of this block on `lane` (`None` for a lane of one), as
    /// rank `r` takes part in it, and the window as `r` reads it afterwards
    /// (`None` in phantom mode, which moves sizes only). The owner reads its
    /// own buffer in place; on a lane of more than one it broadcasts, by
    /// reference, that buffer when the window is all of it and one copy of
    /// the window otherwise. Receivers read what arrived — under protection
    /// verified in place first, and a correction made on a private copy.
    fn exchange(
        &self,
        r: &mut Hosted<'_>,
        lane: Option<&mut Communicator>,
        protection: Option<&Protection<'_>>,
        step: usize,
    ) -> CommResult<Option<Held>> {
        let pad = usize::from(protection.is_some());
        let (rows, cols) = (self.dims.0 + pad, self.dims.1 + pad);
        let own = r.data.filter(|_| self.owner == r.comm.rank()).map(|data| {
            let (bi, bj) = self.cell;
            let block = match self.operand {
                Operand::A => data.a_block(bi, bj),
                Operand::B => data.b_block(bi, bj),
            };
            block.expect("missing own block")
        });
        if let Some(lane) = lane {
            let root = self
                .members
                .binary_search(&self.owner)
                .expect("owner not in its lane communicator");
            let payload = match (r.data, own) {
                (None, _) => Payload::Phantom {
                    elems: self.dims.0 * self.dims.1,
                },
                (Some(_), Some(block)) => {
                    Payload::SharedF64(self.payload(block, (rows, cols), pad == 1))
                }
                (Some(_), None) => Payload::F64(Vec::new()),
            };
            let received = lane.try_bcast(root, payload)?;
            if r.data.is_some() && own.is_none() {
                let mut buf = received.try_into_shared_f64()?;
                if let Some(p) = protection {
                    p.verify_received(r.comm, &mut buf, (rows, cols), step, &mut r.stats)?;
                }
                return Ok(Some((buf, 0, cols)));
            }
        }
        let off = |block: &SharedBlock| self.at.0 * block.cols() + self.at.1;
        Ok(own.map(|block| (Arc::clone(block.shared()), off(block), block.cols())))
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
    use crate::executor::{multiply, multiply_panelled, ExecutionMode, RunResult};
    use summagen_comm::{FaultPlan, Universe, ZeroCost};
    use summagen_matrix::{approx_eq, random_matrix};
    use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};

    fn fig1a() -> PartitionSpec {
        PartitionSpec::new(
            vec![0, 1, 1, 1, 1, 1, 1, 1, 2],
            vec![9, 3, 4],
            vec![9, 3, 4],
            3,
        )
    }

    #[test]
    fn participants_for_fig1a() {
        let lanes = Lanes::new(&fig1a());
        assert_eq!(lanes.rows, vec![vec![0, 1], vec![1], vec![1, 2]]);
        assert_eq!(lanes.cols, vec![vec![0, 1], vec![1], vec![1, 2]]);
        // Against the per-rank scan the lists replace (`row_contains_rank`
        // of the paper's Fig. 2), on a layout with repeated owners.
        let speeds = [1.0, 2.0, 0.9, 1.5, 3.0, 0.4, 1.1];
        let s = summagen_partition::beaumont_column_layout(90, &speeds);
        let lanes = Lanes::new(&s);
        for bi in 0..s.grid_rows {
            let scan: Vec<usize> = (0..s.nprocs).filter(|&p| s.row_contains(p, bi)).collect();
            assert_eq!(lanes.rows[bi], scan, "row {bi}");
        }
        for bj in 0..s.grid_cols {
            let scan: Vec<usize> = (0..s.nprocs).filter(|&p| s.col_contains(p, bj)).collect();
            assert_eq!(lanes.cols[bj], scan, "column {bj}");
        }
    }

    /// `(a_col, a_off, b_row, b_off, len)` of every segment of `window`.
    fn segments(spec: &PartitionSpec, window: &Window) -> Vec<(usize, usize, usize, usize, usize)> {
        k_segments(spec, window)
            .map(|s| (s.a_col, s.a_off, s.b_row, s.b_off, s.len))
            .collect()
    }

    #[test]
    fn k_segments_merge_column_cuts_of_a_with_row_cuts_of_b() {
        // Equal cuts: one segment per grid line, offsets all zero.
        let got = segments(&fig1a(), &whole(&fig1a())[0]);
        assert_eq!(got, vec![(0, 0, 0, 0, 9), (1, 0, 1, 0, 3), (2, 0, 2, 0, 4)]);
        // Row cuts 5|11, column cuts 2|6|8: four segments, the middle `A`
        // block straddles the row cut.
        let s = PartitionSpec::new(vec![0, 1, 0, 1, 0, 1], vec![5, 11], vec![2, 6, 8], 2);
        assert_eq!(
            segments(&s, &whole(&s)[0]),
            vec![
                (0, 0, 0, 0, 2),
                (1, 0, 0, 2, 3),
                (1, 3, 1, 0, 3),
                (2, 0, 1, 3, 8)
            ]
        );
        // A single cell is a single segment.
        let one = PartitionSpec::new(vec![0], vec![7], vec![7], 1);
        assert_eq!(segments(&one, &whole(&one)[0]), vec![(0, 0, 0, 0, 7)]);
        // Per panel, the segments are the panel's `B` slices, offsets
        // counted from where each block's part of the window starts — a
        // resumed first panel included.
        let windows = panels(&s, 0, usize::MAX);
        let got: Vec<_> = windows.iter().map(|w| segments(&s, w)).collect();
        assert_eq!(
            got,
            vec![
                vec![(0, 0, 0, 0, 2)],
                vec![(1, 0, 0, 0, 3), (1, 3, 1, 0, 3)],
                vec![(2, 0, 1, 0, 8)]
            ]
        );
        let resumed = panels(&s, 4, usize::MAX);
        assert_eq!(
            (resumed[0].lo, resumed[0].hi, resumed[0].panel),
            (4, 8, Some(1))
        );
        assert_eq!(
            segments(&s, &resumed[0]),
            vec![(1, 0, 0, 0, 1), (1, 1, 1, 0, 3)]
        );
        let parked = panels(&s, 0, 8);
        assert_eq!(parked.iter().map(|w| w.hi).collect::<Vec<_>>(), vec![2, 8]);
    }

    /// Runs the walk over the whole product on the channel backend and
    /// returns every rank's panel table next to the blocks `distribute`
    /// dealt.
    fn exchange(
        spec: &PartitionSpec,
        faults: Option<FaultPlan>,
    ) -> (Vec<RankMatrices>, Vec<PanelTable>) {
        let a = random_matrix(spec.n, spec.n, 41);
        let b = random_matrix(spec.n, spec.n, 42);
        let dealt = crate::rankdata::distribute(spec, &a, &b);
        let mut universe = Universe::new(spec.nprocs, ZeroCost);
        if let Some(plan) = faults {
            universe = universe.with_faults(plan);
        }
        let lanes = Lanes::new(spec);
        let walk = Walk {
            windows: &whole(spec),
            kernel: GemmKernel::default(),
            charge: None,
            protection: None,
        };
        let tables = universe
            .try_run(|comm| {
                let mut hosted = [Hosted::new(&comm, Some(&dealt[comm.rank()]))];
                walk.run(&mut hosted, spec, &lanes)?;
                let [rank] = hosted;
                Ok(rank.held)
            })
            .expect("fault-free stages");
        (dealt, tables)
    }

    /// Sharing is structural: after stages 1–2 every rank that needs a
    /// block holds the allocation its owner was dealt, and nothing else.
    #[test]
    fn every_table_entry_is_the_owners_buffer() {
        let beaumont = summagen_partition::beaumont_column_layout(40, &[1.0, 2.0, 0.9, 1.5]);
        for spec in [fig1a(), beaumont] {
            let (dealt, tables) = exchange(&spec, None);
            for (rank, table) in tables.iter().enumerate() {
                for bi in 0..spec.grid_rows {
                    for bj in 0..spec.grid_cols {
                        let cell = bi * spec.grid_cols + bj;
                        let owner = &dealt[spec.owner(bi, bj)];
                        match &table.a[cell] {
                            Some((held, ..)) => {
                                assert!(spec.row_contains(rank, bi));
                                let src = owner.a_block(bi, bj).unwrap().shared();
                                assert!(Arc::ptr_eq(held, src), "A({bi},{bj}) at rank {rank}");
                            }
                            None => assert!(!spec.row_contains(rank, bi)),
                        }
                        match &table.b[cell] {
                            Some((held, ..)) => {
                                assert!(spec.col_contains(rank, bj));
                                let src = owner.b_block(bi, bj).unwrap().shared();
                                assert!(Arc::ptr_eq(held, src), "B({bi},{bj}) at rank {rank}");
                            }
                            None => assert!(!spec.col_contains(rank, bj)),
                        }
                    }
                }
            }
        }
    }

    /// A corruption addressed to one child is copy-on-write: that child's
    /// entry is a private buffer with the flipped element, while the owner
    /// and the sibling still share the intact one.
    #[test]
    fn corruption_reaches_only_the_addressed_rank() {
        // One row, one column cut: rank 1 owns the left block and roots the
        // single row's first `A` broadcast towards ranks 0 and 2.
        let spec = PartitionSpec::new(vec![1, 0, 2], vec![12], vec![4, 4, 4], 3);
        let plan = FaultPlan::new().corrupt_message(1, 2, 0, 5, 0.75);
        let (dealt, tables) = exchange(&spec, Some(plan));
        let src = dealt[1].a_block(0, 0).unwrap().shared();
        let a0 = |rank: usize| &tables[rank].a[0].as_ref().unwrap().0;
        assert!(Arc::ptr_eq(a0(1), src));
        assert!(Arc::ptr_eq(a0(0), src));
        let hit = a0(2);
        assert!(!Arc::ptr_eq(hit, src));
        for (i, (got, want)) in hit.iter().zip(src.iter()).enumerate() {
            let want = if i == 5 { want + 0.75 } else { *want };
            assert_eq!(got.to_bits(), want.to_bits(), "element {i}");
        }
    }

    /// One window per panel and one window for everything chain the same
    /// kernel calls in the same `k` order: the same bits of `C`.
    #[test]
    fn panelled_matches_one_shot_for_all_shapes() {
        let n = 40;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            for kernel in [GemmKernel::Blocked, GemmKernel::Parallel] {
                let one_shot = multiply(&spec, &a, &b, ExecutionMode::RealWith(kernel));
                let panelled = multiply_panelled(&spec, &a, &b, kernel, ZeroCost);
                let bits = |r: &RunResult| {
                    r.c.as_slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(&one_shot),
                    bits(&panelled),
                    "{} {kernel:?}",
                    shape.name()
                );
            }
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
        // Grid 1x3 (1D): one panel per grid column, three in all, each
        // contributing a third of `k` (the single `B` block sliced three
        // ways).
        let n = 24;
        let areas = proportional_areas(n, &[1.0, 1.0, 1.0]);
        let spec = summagen_partition::Shape::OneDRectangular.build(n, &areas);
        assert_eq!(panels(&spec, 0, usize::MAX).len(), 3);
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
        faults: FaultPlan,
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
        let held = Universe::new(3, ZeroCost)
            .with_faults(faults)
            .try_run(|comm| {
                let members = [0, 1, 2];
                let lane = LaneBlock {
                    members: &members,
                    operand,
                    cell: (bi, bj),
                    owner,
                    at: (0, 0),
                    dims: (spec.heights[bi], spec.widths[bj]),
                };
                let mut hosted = Hosted::new(&comm, Some(&dealt[comm.rank()]));
                let mut lane_comm = comm.try_subgroup(&members, 0)?;
                let held = lane.exchange(&mut hosted, lane_comm.as_mut(), Some(&protection), 0)?;
                Ok((held.expect("real payloads"), hosted.stats.corrected))
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
            let (held, src) = protected_exchange(spec, block, FaultPlan::new());
            for (rank, ((buf, off, held_ld), corrected)) in held.iter().enumerate() {
                assert!(Arc::ptr_eq(buf, &src), "rank {rank} holds a copy");
                assert_eq!((*off, *held_ld, *corrected), (0, ld, 0), "rank {rank}");
            }
            let pristine = (*src).clone();
            let hit = (owner + 1) % 3;
            let plan = FaultPlan::new().corrupt_message(owner, hit, 0, 5, 0.75);
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
