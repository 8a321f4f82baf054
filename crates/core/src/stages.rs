//! The three SummaGen stages (Figures 2, 3 and 4 of the paper),
//! generalized to arbitrary grids and processor counts.
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

use std::collections::BTreeSet;
use std::sync::Arc;

use summagen_comm::{CommResult, Communicator, Payload, SpanKind, StageLabel};
use summagen_matrix::{DenseMatrix, GemmKernel, GemmObserver};
use summagen_partition::{PartitionSpec, ProcBlock};

use crate::rankdata::RankMatrices;

/// Label space separating row communicators from column communicators.
const ROW_LABEL_BASE: u64 = 1 << 20;
const COL_LABEL_BASE: u64 = 1 << 21;

/// What one rank holds after stages 1–2 of a real-numeric run: for every
/// grid cell `(bi, bj)` (index `bi * grid_cols + bj`) whose sub-partition
/// row it participates in, the `A` block, and for every cell whose column
/// it participates in, the `B` block; `None` elsewhere. An entry *is* the
/// buffer the block's owner cut in `distribute` (or, over TCP, the one the
/// frame was decoded into) — the paper's working matrices `WA` and `WB`
/// exist only as this index, and stage 3 reads the blocks where they lie.
pub(crate) struct PanelTable {
    a: Vec<Option<Arc<Vec<f64>>>>,
    b: Vec<Option<Arc<Vec<f64>>>>,
}

impl PanelTable {
    /// An empty table for `spec`'s grid.
    pub fn new(spec: &PartitionSpec) -> Self {
        let cells = spec.grid_rows * spec.grid_cols;
        Self {
            a: vec![None; cells],
            b: vec![None; cells],
        }
    }
}

/// Per-rank execution state threaded through the three stages.
pub(crate) enum StageData<'a> {
    /// Real numeric execution with materialized blocks.
    Real {
        data: &'a RankMatrices,
        panels: PanelTable,
        kernel: GemmKernel,
    },
    /// Size-only execution: no element data moves or is stored.
    Phantom,
}

/// Which matrix a broadcast stage moves: `A` along sub-partition rows
/// (stage 1) or `B` along sub-partition columns (stage 2).
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

/// One rank of a run, as driven by the thread that hosts it.
pub(crate) type HostedRank<'a> = (&'a Communicator, StageData<'a>);

/// The paper's three stages for the ranks *this thread hosts* (ascending):
/// the horizontal communications of `A` (Fig. 2), the vertical ones of `B`
/// (Fig. 3), then the local computations (Fig. 4), a block's DGEMM
/// advancing its rank's clock by `block_seconds(rank, block)`. Returns each
/// hosted rank's `C` blocks (none in phantom mode), or `Err` if a broadcast
/// fails — typically [`summagen_comm::CommError::PeerFailed`], a member
/// having died mid-stage.
///
/// The real executor hosts one rank per thread, the phantom engine all of
/// them on its caller. Either way the operations are issued in one global
/// order — stage, lane, position, the root of each broadcast first — which
/// is every rank's own program order and never receives before it sent.
pub(crate) fn three_stages(
    ranks: &mut [HostedRank<'_>],
    spec: &PartitionSpec,
    lanes: &Lanes,
    block_seconds: impl Fn(usize, &ProcBlock) -> f64,
) -> CommResult<Vec<Vec<(ProcBlock, DenseMatrix)>>> {
    debug_assert!(ranks.is_sorted_by_key(|(comm, _)| comm.rank()));
    broadcast_stage(ranks, spec, lanes, Operand::A)?;
    broadcast_stage(ranks, spec, lanes, Operand::B)?;
    let compute =
        |(comm, state): &mut HostedRank<'_>| local_compute(comm, spec, state, &block_seconds);
    Ok(ranks.iter_mut().map(compute).collect())
}

/// Stage 1 or 2: one broadcast per block of every lane (a sub-partition
/// row for `A`, a column for `B`), rooted at the block's owner, issued for
/// every hosted member of the lane, which afterwards holds (or, in phantom
/// mode, has paid the communication cost for) every `operand` block of the
/// lane. The owner sends the buffer it was dealt and everybody files what
/// they receive in the panel table — nothing is copied here.
fn broadcast_stage(
    ranks: &mut [HostedRank<'_>],
    spec: &PartitionSpec,
    lanes: &Lanes,
    operand: Operand,
) -> CommResult<()> {
    // Empty unless the universe (one for all hosted ranks) has a sink.
    let traced = ranks.iter().filter(|(comm, _)| comm.tracing_enabled());
    let stage_starts: Vec<f64> = traced.map(|(comm, _)| comm.now()).collect();
    use StageLabel::{HorizontalA, VerticalB};
    let (lane_members, lane_len, label_base, stage) = match operand {
        Operand::A => (&lanes.rows, spec.grid_cols, ROW_LABEL_BASE, HorizontalA),
        Operand::B => (&lanes.cols, spec.grid_rows, COL_LABEL_BASE, VerticalB),
    };
    for (lane, members) in lane_members.iter().enumerate() {
        // The lane's hosted members, by index into `ranks`, each with its
        // lane communicator — none for a lane that is wholly one rank's,
        // which needs no communication (Fig. 2 line 8).
        let lane_comm = |i: usize| match members.len() {
            1 => None,
            _ => ranks[i].0.subgroup(members, label_base + lane as u64),
        };
        let mut here: Vec<(usize, Option<Communicator>)> = members
            .iter()
            .filter_map(|&m| ranks.binary_search_by_key(&m, |(comm, _)| comm.rank()).ok())
            .map(|i| (i, lane_comm(i)))
            .collect();
        for pos in 0..lane_len {
            let (bi, bj) = match operand {
                Operand::A => (lane, pos),
                Operand::B => (pos, lane),
            };
            let owner = spec.owner(bi, bj);
            let root = members
                .binary_search(&owner)
                .expect("owner not in its lane communicator");
            // The owner's call first: it is the one that sends.
            let root_at = here.iter().position(|h| ranks[h.0].0.rank() == owner);
            let others = (0..here.len()).filter(|&k| Some(k) != root_at);
            for k in root_at.into_iter().chain(others) {
                let (i, lane_comm) = &mut here[k];
                let (comm, state) = &mut ranks[*i];
                let own = match state {
                    StageData::Real { data, .. } if owner == comm.rank() => {
                        let block = match operand {
                            Operand::A => data.a_block(bi, bj),
                            Operand::B => data.b_block(bi, bj),
                        };
                        Some(Arc::clone(block.expect("missing own block").shared()))
                    }
                    _ => None,
                };
                let held = match lane_comm {
                    None => own,
                    Some(lane_comm) => {
                        let payload = match (&*state, own) {
                            (StageData::Phantom, _) => Payload::Phantom {
                                elems: spec.heights[bi] * spec.widths[bj],
                            },
                            (StageData::Real { .. }, Some(block)) => Payload::SharedF64(block),
                            (StageData::Real { .. }, None) => Payload::F64(Vec::new()),
                        };
                        let received = lane_comm.try_bcast(root, payload)?;
                        match state {
                            StageData::Real { .. } => Some(received.try_into_shared_f64()?),
                            StageData::Phantom => None,
                        }
                    }
                };
                if let StageData::Real { panels, .. } = state {
                    let table = match operand {
                        Operand::A => &mut panels.a,
                        Operand::B => &mut panels.b,
                    };
                    table[bi * spec.grid_cols + bj] = held;
                }
            }
        }
    }
    for ((comm, _), t0) in ranks.iter().zip(stage_starts) {
        comm.emit(t0, comm.now(), SpanKind::Stage { stage });
    }
    Ok(())
}

/// One stretch of the inner dimension over which a product reads a single
/// `A` block and a single `B` block: the column cuts of `A` (grid columns)
/// merged with the row cuts of `B` (grid rows).
#[derive(Clone, Copy)]
struct KSegment {
    /// Grid column of the `A` block and the segment's first column in it.
    a_col: usize,
    a_off: usize,
    /// Grid row of the `B` block and the segment's first row in it.
    b_row: usize,
    b_off: usize,
    /// Length of the segment.
    len: usize,
}

/// The segments covering `0..n`, in ascending `k`. They depend on the grid
/// cuts only, so one list serves every block of the partition.
fn k_segments(spec: &PartitionSpec) -> Vec<KSegment> {
    let mut out = Vec::with_capacity(spec.grid_cols + spec.grid_rows - 1);
    let (mut a_col, mut b_row) = (0, 0);
    let (mut a_start, mut b_start) = (0, 0);
    let mut k0 = 0;
    while k0 < spec.n {
        let (a_end, b_end) = (a_start + spec.widths[a_col], b_start + spec.heights[b_row]);
        let k1 = a_end.min(b_end);
        out.push(KSegment {
            a_col,
            a_off: k0 - a_start,
            b_row,
            b_off: k0 - b_start,
            len: k1 - k0,
        });
        if k1 == a_end {
            (a_col, a_start) = (a_col + 1, a_end);
        }
        if k1 == b_end {
            (b_row, b_start) = (b_row + 1, b_end);
        }
        k0 = k1;
    }
    out
}

/// Stage 3 (Fig. 4): local computations, one DGEMM per owned sub-partition
/// (`height × n` times `n × width`). Returns the computed `C` blocks (empty
/// in phantom mode).
///
/// The `height × n` rows of `A` and `n × width` columns of `B` are not
/// gathered: the product is a chain of kernel calls, one per
/// [`KSegment`], each reading its two blocks in place through their own
/// leading dimensions and accumulating into `C` (`beta` = 0 for the first
/// call, 1 after). `Blocked` and `Parallel` add every element's terms one
/// by one in ascending `k` whatever the split, so the chain yields the bits
/// of the single call; `Naive` rounds once per call (see its rustdoc).
fn local_compute(
    comm: &Communicator,
    spec: &PartitionSpec,
    state: &mut StageData<'_>,
    block_compute_seconds: impl Fn(usize, &ProcBlock) -> f64,
) -> Vec<(ProcBlock, DenseMatrix)> {
    let n = spec.n;
    let rank = comm.rank();
    let tracing = comm.tracing_enabled();
    let metrics = comm.metrics();
    let observing = tracing || metrics.is_some();
    let stage_start = tracing.then(|| comm.now());
    // Sums the kernel's wall-clock time over a block's chain, so that the
    // trace and the metrics see one GEMM of inner dimension `n` per block.
    struct NsSum(std::cell::Cell<u64>);
    impl GemmObserver for NsSum {
        fn on_gemm(&self, _m: usize, _n: usize, _k: usize, elapsed_ns: u64) {
            self.0.set(self.0.get() + elapsed_ns);
        }
    }
    let kernel_ns = NsSum(std::cell::Cell::new(0));
    let segments = match state {
        StageData::Real { .. } => k_segments(spec),
        StageData::Phantom => Vec::new(),
    };
    let mut out = Vec::new();
    for blk in spec.blocks_of(rank) {
        let flops = 2.0 * blk.rows as f64 * blk.cols as f64 * n as f64;
        kernel_ns.0.set(0);
        if let StageData::Real { panels, kernel, .. } = state {
            let mut c = DenseMatrix::zeros(blk.rows, blk.cols);
            for (i, seg) in segments.iter().enumerate() {
                let a = panels.a[blk.block_i * spec.grid_cols + seg.a_col]
                    .as_deref()
                    .expect("A block missing from the panel table");
                let b = panels.b[seg.b_row * spec.grid_cols + blk.block_j]
                    .as_deref()
                    .expect("B block missing from the panel table");
                kernel.run_observed(
                    blk.rows,
                    blk.cols,
                    seg.len,
                    1.0,
                    &a[seg.a_off..],
                    spec.widths[seg.a_col],
                    &b[seg.b_off * blk.cols..],
                    blk.cols,
                    if i == 0 { 0.0 } else { 1.0 },
                    c.as_mut_slice(),
                    blk.cols,
                    observing.then_some(&kernel_ns as &dyn GemmObserver),
                );
            }
            if let Some(m) = metrics {
                m.gemm.on_gemm(blk.rows, blk.cols, n, kernel_ns.0.get());
            }
            out.push((blk, c));
        }
        let gemm_start = observing.then(|| comm.now());
        comm.advance_compute(block_compute_seconds(rank, &blk));
        if let Some(t0) = gemm_start {
            let t1 = comm.now();
            if tracing {
                comm.emit(
                    t0,
                    t1,
                    SpanKind::Gemm {
                        m: blk.rows,
                        n: blk.cols,
                        k: n,
                        flops,
                        kernel_ns: kernel_ns.0.get(),
                    },
                );
            }
            if let Some(m) = metrics {
                m.gemm.record_virtual(flops, t1 - t0);
            }
        }
    }
    if let Some(t0) = stage_start {
        comm.emit(
            t0,
            comm.now(),
            SpanKind::Stage {
                stage: StageLabel::LocalCompute,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn k_segments_merge_column_cuts_of_a_with_row_cuts_of_b() {
        // Equal cuts: one segment per grid line, offsets all zero.
        let segs = k_segments(&fig1a());
        let got: Vec<_> = segs
            .iter()
            .map(|s| (s.a_col, s.a_off, s.b_row, s.b_off, s.len))
            .collect();
        assert_eq!(got, vec![(0, 0, 0, 0, 9), (1, 0, 1, 0, 3), (2, 0, 2, 0, 4)]);
        // Row cuts 5|11, column cuts 2|6|8: four segments, the middle `A`
        // block straddles the row cut.
        let s = PartitionSpec::new(vec![0, 1, 0, 1, 0, 1], vec![5, 11], vec![2, 6, 8], 2);
        let got: Vec<_> = k_segments(&s)
            .iter()
            .map(|s| (s.a_col, s.a_off, s.b_row, s.b_off, s.len))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, 0, 0, 2),
                (1, 0, 0, 2, 3),
                (1, 3, 1, 0, 3),
                (2, 0, 1, 3, 8)
            ]
        );
        // A single cell is a single segment.
        let one = PartitionSpec::new(vec![0], vec![7], vec![7], 1);
        assert_eq!(k_segments(&one).len(), 1);
        assert_eq!(k_segments(&one)[0].len, 7);
    }

    /// Runs stages 1–2 on the channel backend and returns every rank's
    /// panel table next to the blocks `distribute` dealt.
    fn exchange(
        spec: &PartitionSpec,
        faults: Option<summagen_comm::FaultPlan>,
    ) -> (Vec<RankMatrices>, Vec<PanelTable>) {
        use summagen_matrix::random_matrix;
        let a = random_matrix(spec.n, spec.n, 41);
        let b = random_matrix(spec.n, spec.n, 42);
        let dealt = crate::rankdata::distribute(spec, &a, &b);
        let mut universe = summagen_comm::Universe::new(spec.nprocs, summagen_comm::ZeroCost);
        if let Some(plan) = faults {
            universe = universe.with_faults(plan);
        }
        let lanes = Lanes::new(spec);
        let tables = universe
            .try_run(|comm| {
                let state = StageData::Real {
                    data: &dealt[comm.rank()],
                    panels: PanelTable::new(spec),
                    kernel: GemmKernel::default(),
                };
                let mut hosted = [(&comm, state)];
                broadcast_stage(&mut hosted, spec, &lanes, Operand::A)?;
                broadcast_stage(&mut hosted, spec, &lanes, Operand::B)?;
                match hosted {
                    [(_, StageData::Real { panels, .. })] => Ok(panels),
                    _ => unreachable!(),
                }
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
                            Some(held) => {
                                assert!(spec.row_contains(rank, bi));
                                let src = owner.a_block(bi, bj).unwrap().shared();
                                assert!(Arc::ptr_eq(held, src), "A({bi},{bj}) at rank {rank}");
                            }
                            None => assert!(!spec.row_contains(rank, bi)),
                        }
                        match &table.b[cell] {
                            Some(held) => {
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
        let plan = summagen_comm::FaultPlan::new().corrupt_message(1, 2, 0, 5, 0.75);
        let (dealt, tables) = exchange(&spec, Some(plan));
        let src = dealt[1].a_block(0, 0).unwrap().shared();
        assert!(Arc::ptr_eq(tables[1].a[0].as_ref().unwrap(), src));
        assert!(Arc::ptr_eq(tables[0].a[0].as_ref().unwrap(), src));
        let hit = tables[2].a[0].as_ref().unwrap();
        assert!(!Arc::ptr_eq(hit, src));
        for (i, (got, want)) in hit.iter().zip(src.iter()).enumerate() {
            let want = if i == 5 { want + 0.75 } else { *want };
            assert_eq!(got.to_bits(), want.to_bits(), "element {i}");
        }
    }
}
