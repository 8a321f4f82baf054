//! ABFT checksum-protected SummaGen with panel-boundary checkpointing.
//!
//! This is the panelled variant of [`crate::panelled`] hardened against
//! *silent data corruption* with Huang–Abraham algorithm-based fault
//! tolerance, plus checkpoint/restart so recovery does not recompute the
//! whole product:
//!
//! * **Wire protection** — every broadcast panel travels *fully
//!   checksummed* (an extra row of column sums and an extra column of row
//!   sums). Receivers verify the residuals before using a panel; a single
//!   corrupted element is located by its (row, column) residual pair and
//!   corrected in place, so a flipped element in a broadcast never reaches
//!   the GEMM.
//! * **Accumulator protection** — the product encoding `C̃ = Ã·B̃` keeps a
//!   checksum row on `A` panels and a checksum column on `B` panels, which
//!   makes every local `C` accumulator fully checksummed. The linear
//!   invariant survives panel accumulation, so after each panel step every
//!   rank re-verifies its blocks and corrects single-element damage (e.g.
//!   a memory fault between panel steps).
//! * **Escalation** — corruption the residuals cannot localize (two or
//!   more damaged elements) is *detected but uncorrectable*: the rank
//!   returns [`CommError::DataCorruption`], which
//!   [`summagen_comm::RankFailure::crashed_ranks`] treats as an own-cause
//!   crash, so [`multiply_abft`] drops the device and re-partitions over
//!   the survivors exactly like [`crate::multiply_with_recovery`].
//! * **Checkpointing** — every `checkpoint_interval` completed (and
//!   verified) panel steps, ranks snapshot their `C` data blocks into a
//!   host-side store. A checkpoint is valid once *all* ranks have written
//!   it; it is assembled into the global `C` prefix, which is
//!   partition-independent (`C` after `k` columns equals
//!   `A[:, :k] · B[:k, :]` no matter how the survivors are re-partitioned).
//!   Retries restore the newest checkpoint and execute only the remaining
//!   k-range — including a *partial* first panel when the survivor
//!   partition's panel boundaries do not align with the checkpoint.
//!
//! The zero-fault protected path is **bit-identical** to
//! [`crate::multiply_panelled`]: augmentation appends checksum rows and
//! columns without touching the data region, and the widened GEMM
//! accumulates each data element in exactly the same k-order as the
//! unprotected kernel.
//!
//! Verification, correction, checkpoint, and rollback work is charged to
//! the virtual clock (per-element costs in [`AbftOptions`]) and emitted as
//! [`SpanKind::Abft`] leaf spans, so the resilience overhead is visible in
//! Perfetto timelines and the critical-path decomposition.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use summagen_comm::{AbftLabel, CommError, Communicator, CostModel, FaultPlan, Payload, SpanKind};
use summagen_matrix::{
    abft_tolerance, augment_a, augment_b, column_sums, verify_and_correct, AbftVerdict,
    DenseMatrix, GemmKernel,
};
use summagen_partition::{PartitionSpec, ProcBlock, Shape};

use crate::engine::{self, survivor_spec, RankBlocks};
use crate::executor::{ExecutionMode, RecoveryError, RunOptions, RunResult};
use crate::rankdata::RankMatrices;

/// Knobs for the checksum-protected executor.
#[derive(Debug, Clone)]
pub struct AbftOptions {
    /// Write a checkpoint after every this-many completed panel steps
    /// (the final step is never checkpointed — the result is about to be
    /// returned anyway). Use `usize::MAX` to disable checkpointing.
    pub checkpoint_interval: usize,
    /// Virtual seconds charged per element scanned by a residual
    /// verification pass (~one add per element).
    pub verify_cost: f64,
    /// Virtual seconds charged per element written to a checkpoint
    /// snapshot (memcpy-rate).
    pub checkpoint_cost: f64,
    /// Virtual seconds charged per element restored from a checkpoint on
    /// a resumed attempt.
    pub rollback_cost: f64,
    /// Virtual seconds charged per multiply-add of the protected GEMM.
    /// Defaults to 0 to match the unprotected real path (which charges no
    /// compute time); set nonzero in checkpoint studies so the recompute
    /// cost of a restart is visible on the virtual clock.
    pub gemm_cost: f64,
    /// Host-memory budget for retained checkpoint snapshots, in bytes.
    /// When assembled prefixes exceed it, the oldest boundaries are
    /// evicted first; the newest is always kept (it is the resume
    /// point). The budget bounds the *retained* set — every capture is
    /// still counted in [`AbftReport::checkpoints`] and in the
    /// `summagen_abft_checkpoints_total` counter.
    pub checkpoint_budget_bytes: usize,
}

impl Default for AbftOptions {
    fn default() -> Self {
        Self {
            checkpoint_interval: 2,
            // ~5 Gelem/s residual scan, ~1 GB/s effective snapshot and
            // restore rates: small against GEMM but nonzero, so resumed
            // attempts show recompute time proportional to the panels
            // they actually re-execute.
            verify_cost: 2e-10,
            checkpoint_cost: 1e-9,
            rollback_cost: 1e-9,
            gemm_cost: 0.0,
            // 256 MiB: four 2048² f64 prefixes — far above anything the
            // tests or benches retain, so eviction only fires when a
            // caller opts into a tighter bound.
            checkpoint_budget_bytes: 256 << 20,
        }
    }
}

/// What the ABFT machinery observed over a [`multiply_abft`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbftReport {
    /// Total executions performed (1 = no failure observed).
    pub attempts: usize,
    /// Corruption events detected (corrected + uncorrectable).
    pub detected: u64,
    /// Single-element corruptions located and corrected in place.
    pub corrected: u64,
    /// Corruption events the residuals could not localize; each one ended
    /// its attempt with [`CommError::DataCorruption`].
    pub uncorrectable: u64,
    /// Complete (all-ranks) checkpoints captured across the run —
    /// distinct panel boundaries assembled, whether still retained or
    /// since evicted by the byte budget.
    pub checkpoints: usize,
    /// Checkpoint snapshots evicted to stay within
    /// [`AbftOptions::checkpoint_budget_bytes`].
    pub checkpoints_evicted: usize,
    /// First panel index the successful attempt executed (0 = from
    /// scratch).
    pub resume_step: usize,
    /// k-prefix of `C` restored from a checkpoint by the successful
    /// attempt (0 = from scratch).
    pub resume_k: usize,
    /// Panel steps in the successful attempt's plan.
    pub panels_total: usize,
    /// Panel steps the successful attempt actually executed.
    pub panels_executed: usize,
    /// Fraction of the k-dimension the successful attempt executed:
    /// 1.0 for a from-scratch run or full restart, `(n - resume_k) / n`
    /// when a checkpoint was restored.
    pub recompute_fraction: f64,
}

/// A [`RunResult`] plus the [`AbftReport`] describing the protection
/// activity behind it.
#[derive(Debug, Clone)]
pub struct AbftRunResult {
    /// The numeric outcome (the `c` field carries the verified product).
    pub run: RunResult,
    /// Detection/correction/checkpoint accounting.
    pub abft: AbftReport,
}

/// Per-rank ABFT counters, aggregated by the driver.
#[derive(Debug, Clone, Copy, Default)]
struct AbftStats {
    detected: u64,
    corrected: u64,
    first_panel: u64,
    panels_executed: u64,
    checkpoints_written: u64,
}

/// Host-side checkpoint store shared by the ranks of one attempt.
///
/// Ranks deposit their verified `C` data blocks at panel boundaries; once
/// every rank has written a boundary the store assembles the blocks into
/// the global `C` prefix and promotes it to `completed`. Incomplete
/// boundaries (some rank died first) are discarded with the attempt.
///
/// The store is bounded: assembled prefixes are accounted by their host
/// footprint (8 bytes per element, plus pending deposits awaiting
/// assembly), and when the completed set exceeds
/// [`AbftOptions::checkpoint_budget_bytes`] the oldest boundaries are
/// evicted. The newest boundary is never evicted — it is what a resumed
/// attempt rolls back to.
struct CheckpointStore {
    nprocs: usize,
    n: usize,
    budget_bytes: usize,
    inner: Mutex<StoreInner>,
}

/// One rank's deposit at a boundary: its local `C` blocks with placement.
type RankDeposit = Vec<(ProcBlock, DenseMatrix)>;

#[derive(Default)]
struct StoreInner {
    pending: BTreeMap<usize, Vec<Option<RankDeposit>>>,
    completed: Vec<(usize, DenseMatrix)>,
    /// Distinct boundaries assembled over the store's lifetime — the
    /// capture set survives eviction.
    captured: BTreeSet<usize>,
    /// Completed prefixes dropped to stay within the byte budget.
    evicted: usize,
}

/// Host bytes held by one dense matrix (f64 payload).
fn matrix_bytes(m: &DenseMatrix) -> usize {
    m.rows() * m.cols() * std::mem::size_of::<f64>()
}

fn deposit_bytes(d: &RankDeposit) -> usize {
    d.iter().map(|(_, m)| matrix_bytes(m)).sum()
}

/// Evicts oldest-boundary entries from a sorted-or-not completed list
/// until the retained bytes fit `budget`, always keeping the newest
/// (largest-k) entry. Returns how many entries were dropped.
fn evict_to_budget(completed: &mut Vec<(usize, DenseMatrix)>, budget: usize) -> usize {
    let mut dropped = 0;
    while completed.len() > 1
        && completed
            .iter()
            .map(|(_, c)| matrix_bytes(c))
            .sum::<usize>()
            > budget
    {
        let oldest = completed
            .iter()
            .enumerate()
            .min_by_key(|(_, (k, _))| *k)
            .map(|(i, _)| i)
            .unwrap();
        completed.remove(oldest);
        dropped += 1;
    }
    dropped
}

impl CheckpointStore {
    fn new(nprocs: usize, n: usize, budget_bytes: usize) -> Self {
        Self {
            nprocs,
            n,
            budget_bytes,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    fn write(&self, k_prefix: usize, rank: usize, blocks: RankDeposit) {
        let mut inner = self.inner.lock().unwrap();
        let nprocs = self.nprocs;
        let complete = {
            let entry = inner
                .pending
                .entry(k_prefix)
                .or_insert_with(|| vec![None; nprocs]);
            entry[rank] = Some(blocks);
            entry.iter().all(Option::is_some)
        };
        if complete {
            let per_rank = inner.pending.remove(&k_prefix).unwrap();
            let mut c = DenseMatrix::zeros(self.n, self.n);
            for blocks in per_rank.into_iter().flatten() {
                for (blk, m) in blocks {
                    c.set_submatrix(blk.row, blk.col, &m);
                }
            }
            inner.completed.push((k_prefix, c));
            inner.captured.insert(k_prefix);
            let budget = self.budget_bytes;
            let dropped = evict_to_budget(&mut inner.completed, budget);
            inner.evicted += dropped;
        }
    }

    /// Host bytes currently held: assembled prefixes plus pending
    /// per-rank deposits awaiting the rest of their boundary.
    fn bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        let done: usize = inner.completed.iter().map(|(_, c)| matrix_bytes(c)).sum();
        let pending: usize = inner
            .pending
            .values()
            .flat_map(|slots| slots.iter().flatten())
            .map(deposit_bytes)
            .sum();
        done + pending
    }

    /// Distinct boundaries assembled over the store's lifetime
    /// (eviction does not subtract).
    fn captured_boundaries(&self) -> Vec<usize> {
        self.inner
            .lock()
            .unwrap()
            .captured
            .iter()
            .copied()
            .collect()
    }

    /// Completed prefixes dropped to stay within the byte budget.
    fn evicted(&self) -> usize {
        self.inner.lock().unwrap().evicted
    }

    fn take_completed(&self) -> Vec<(usize, DenseMatrix)> {
        std::mem::take(&mut self.inner.lock().unwrap().completed)
    }
}

/// Wire encoding of an `A` panel slice: checksum row (column sums, kept
/// for the product encoding) plus a transit checksum column (row sums,
/// stripped after verification).
fn transit_a(slice: &DenseMatrix) -> DenseMatrix {
    augment_b(&augment_a(slice))
}

/// Wire encoding of a `B` panel slice: checksum column (row sums, kept
/// for the product encoding) plus a transit checksum row (column sums,
/// stripped after verification).
fn transit_b(slice: &DenseMatrix) -> DenseMatrix {
    augment_a(&augment_b(slice))
}

/// Largest absolute value in the data region (all but the last row and
/// column) of a fully-checksummed matrix — the scale residual tolerances
/// are anchored to.
fn data_scale(m: &DenseMatrix) -> f64 {
    let (h, w) = (m.rows() - 1, m.cols() - 1);
    let mut s = 0.0f64;
    for row in m.as_slice().chunks_exact(w + 1).take(h) {
        for x in &row[..w] {
            s = s.max(x.abs());
        }
    }
    s
}

/// Recomputes the checksum row/column of an augmented matrix from its
/// data region — used when a block is restored from a checkpoint (the
/// snapshot stores only verified data).
fn refresh_checksums(c: &mut DenseMatrix) {
    let (h, w) = (c.rows() - 1, c.cols() - 1);
    let ld = w + 1;
    let data = c.as_mut_slice();
    // Whatever `Iterator::sum` starts an `f64` sum from (its sign decides
    // the sum of an all-negative-zero line).
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut corner = zero;
    for row in data.chunks_exact_mut(ld).take(h) {
        let s: f64 = row[..w].iter().sum();
        row[w] = s;
        corner += s;
    }
    let col_sums = column_sums(data, ld, h, w, zero);
    data[h * ld..h * ld + w].copy_from_slice(&col_sums);
    data[h * ld + w] = corner;
}

/// Verifies (and if possible corrects) one received transit panel,
/// charging the scan to the virtual clock and emitting Abft spans.
fn verify_received(
    comm: &Communicator,
    m: &mut DenseMatrix,
    step: usize,
    opts: &AbftOptions,
    stats: &mut AbftStats,
) -> Result<(), CommError> {
    let elems = (m.rows() * m.cols()) as u64;
    let start = comm.now();
    comm.advance_compute(opts.verify_cost * elems as f64);
    let tol = abft_tolerance(m.rows().max(m.cols()), data_scale(m));
    let verdict = verify_and_correct(m, tol);
    comm.emit(
        start,
        comm.now(),
        SpanKind::Abft {
            op: AbftLabel::Verify,
            step: step as u64,
            elems,
        },
    );
    if let Some(m) = comm.metrics() {
        m.abft_verifies.inc();
    }
    match verdict {
        AbftVerdict::Clean => Ok(()),
        AbftVerdict::Corrected { .. } => {
            stats.detected += 1;
            stats.corrected += 1;
            if let Some(m) = comm.metrics() {
                m.abft_corrections.inc();
            }
            let cs = comm.now();
            comm.advance_compute(opts.verify_cost);
            comm.emit(
                cs,
                comm.now(),
                SpanKind::Abft {
                    op: AbftLabel::Correct,
                    step: step as u64,
                    elems: 1,
                },
            );
            Ok(())
        }
        AbftVerdict::Uncorrectable { .. } => {
            stats.detected += 1;
            Err(CommError::DataCorruption {
                rank: comm.global_rank(),
                step: step as u64,
            })
        }
    }
}

/// The per-rank protected panel loop. Mirrors
/// [`crate::panelled::multiply_panelled`]'s gather structure (same
/// subgroup labels, same block traffic) with checksummed payloads,
/// per-step verification, and checkpoint writes. `resume_k` is the
/// k-prefix already present in `resume_c`; panels fully covered by it are
/// skipped and the first overlapping panel executes partially.
#[allow(clippy::too_many_arguments)]
fn run_rank_abft(
    comm: &Communicator,
    spec: &PartitionSpec,
    rank: usize,
    data: &RankMatrices,
    kernel: GemmKernel,
    opts: &AbftOptions,
    resume_k: usize,
    resume_c: Option<&DenseMatrix>,
    stop_k: usize,
    store: &CheckpointStore,
) -> Result<(Vec<(ProcBlock, DenseMatrix)>, AbftStats), CommError> {
    let mut stats = AbftStats::default();
    let total_panels = spec.grid_cols;

    // Augmented accumulators: data region plus a checksum row and column,
    // maintained across panel accumulation by the Ã·B̃ encoding.
    let mut out: Vec<(ProcBlock, DenseMatrix)> = spec
        .blocks_of(rank)
        .into_iter()
        .map(|blk| {
            let mut m = DenseMatrix::zeros(blk.rows + 1, blk.cols + 1);
            if let Some(c0) = resume_c {
                m.set_submatrix(0, 0, &c0.submatrix(blk.row, blk.col, blk.rows, blk.cols));
                refresh_checksums(&mut m);
            }
            (blk, m)
        })
        .collect();

    if resume_k > 0 {
        let elems: u64 = out.iter().map(|(b, _)| (b.rows * b.cols) as u64).sum();
        let first = (0..total_panels)
            .take_while(|&t| spec.col_offset(t) + spec.widths[t] <= resume_k)
            .count();
        let start = comm.now();
        comm.advance_compute(opts.rollback_cost * elems as f64);
        comm.emit(
            start,
            comm.now(),
            SpanKind::Abft {
                op: AbftLabel::Rollback,
                step: first as u64,
                elems,
            },
        );
        if let Some(m) = comm.metrics() {
            m.abft_rollbacks.inc();
        }
    }

    for t in 0..total_panels {
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

        // --- Gather the A blocks (bi, t), column-sliced to [lo, k1).
        let mut a_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_rows];
        for (bi, slot) in a_panel.iter_mut().enumerate() {
            if !spec.row_contains(rank, bi) {
                continue;
            }
            let participants: Vec<usize> = (0..spec.nprocs)
                .filter(|&p| spec.row_contains(p, bi))
                .collect();
            let owner = spec.owner(bi, t);
            let h = spec.heights[bi];
            let own_slice = || {
                data.a_block(bi, t)
                    .expect("missing own A block")
                    .submatrix(0, lo - k0, h, kb)
            };
            let transit = if participants.len() == 1 {
                transit_a(&own_slice())
            } else {
                let mut row_comm = comm
                    .subgroup(&participants, (1 << 22) + (t * spec.grid_rows + bi) as u64)
                    .expect("missing from row communicator");
                let root = participants.iter().position(|&p| p == owner).unwrap();
                let payload = if owner == rank {
                    Payload::F64(transit_a(&own_slice()).as_slice().to_vec())
                } else {
                    Payload::F64(Vec::new())
                };
                let raw = row_comm.try_bcast(root, payload)?.try_into_f64()?;
                let mut m = DenseMatrix::from_vec(h + 1, kb + 1, raw);
                if owner != rank {
                    verify_received(comm, &mut m, t, opts, &mut stats)?;
                }
                m
            };
            // Keep the product encoding Ã (data + checksum row); the
            // transit checksum column has done its job.
            *slot = Some(transit.submatrix(0, 0, h + 1, kb));
        }

        // --- Gather the B rows [lo, k1), with the product checksum column.
        let mut b_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_cols];
        for (bj, slot) in b_panel.iter_mut().enumerate() {
            if !spec.col_contains(rank, bj) {
                continue;
            }
            let w = spec.widths[bj];
            let mut panel = DenseMatrix::zeros(kb, w + 1);
            let participants: Vec<usize> = (0..spec.nprocs)
                .filter(|&p| spec.col_contains(p, bj))
                .collect();
            for bi_b in 0..spec.grid_rows {
                let r0 = spec.row_offset(bi_b);
                let r1 = r0 + spec.heights[bi_b];
                let (slo, shi) = (r0.max(lo), r1.min(k1));
                if slo >= shi {
                    continue; // block does not overlap this panel
                }
                let rows = shi - slo;
                let owner = spec.owner(bi_b, bj);
                let own_slice = || {
                    data.b_block(bi_b, bj)
                        .expect("missing own B block")
                        .submatrix(slo - r0, 0, rows, w)
                };
                let transit = if participants.len() == 1 {
                    transit_b(&own_slice())
                } else {
                    let label =
                        (1 << 23) + ((t * spec.grid_rows + bi_b) * spec.grid_cols + bj) as u64;
                    let mut col_comm = comm
                        .subgroup(&participants, label)
                        .expect("missing from column communicator");
                    let root = participants.iter().position(|&p| p == owner).unwrap();
                    let payload = if owner == rank {
                        Payload::F64(transit_b(&own_slice()).as_slice().to_vec())
                    } else {
                        Payload::F64(Vec::new())
                    };
                    let raw = col_comm.try_bcast(root, payload)?.try_into_f64()?;
                    let mut m = DenseMatrix::from_vec(rows + 1, w + 1, raw);
                    if owner != rank {
                        verify_received(comm, &mut m, t, opts, &mut stats)?;
                    }
                    m
                };
                // Strip the transit checksum row; rows keep their row-sum
                // entries, so the assembled panel is B̃ directly.
                panel.set_submatrix(slo - lo, 0, &transit.submatrix(0, 0, rows, w + 1));
            }
            *slot = Some(panel);
        }

        // --- Accumulate C̃(bi, bj) += Ã(bi, t) · B̃(t, bj). The widened
        // dims do not perturb data elements: each c[i][j] with i,j in the
        // data region sees exactly the unprotected kernel's k-order.
        for (blk, cmat) in &mut out {
            let ap = a_panel[blk.block_i]
                .as_ref()
                .expect("A panel block missing for owned row");
            let bp = b_panel[blk.block_j]
                .as_ref()
                .expect("B panel block missing for owned column");
            debug_assert_eq!(ap.cols(), bp.rows());
            let (m, nc) = (blk.rows + 1, blk.cols + 1);
            // `Parallel` runs as `Blocked` here — the same bits. A kernel
            // thread beside each rank thread means one more malloc arena
            // per thread, each retaining rank-sized free memory: measured
            // on `abft-1024`, +47 % peak RSS for +6 % throughput.
            let serial = match kernel {
                GemmKernel::Naive => GemmKernel::Naive,
                _ => GemmKernel::Blocked,
            };
            serial.run(
                m,
                nc,
                kb,
                1.0,
                ap.as_slice(),
                kb.max(1),
                bp.as_slice(),
                nc,
                1.0,
                cmat.as_mut_slice(),
                nc,
            );
            if opts.gemm_cost > 0.0 {
                comm.advance_compute(opts.gemm_cost * (m * nc * kb) as f64);
            }
        }

        // --- Injected memory faults on the local accumulators ("a rank's
        // local block between panel steps").
        let corruptions = comm.block_corruptions(t as u64);
        if !corruptions.is_empty() {
            let total: u64 = out.iter().map(|(_, c)| c.as_slice().len() as u64).sum();
            for (elem, delta) in corruptions {
                if total == 0 {
                    break;
                }
                let mut idx = elem % total;
                for (_, c) in &mut out {
                    let len = c.as_slice().len() as u64;
                    if idx < len {
                        c.as_mut_slice()[idx as usize] += delta;
                        break;
                    }
                    idx -= len;
                }
            }
        }

        // --- Verify every owned accumulator at the panel boundary.
        let c_elems: u64 = out.iter().map(|(_, c)| c.as_slice().len() as u64).sum();
        let start = comm.now();
        comm.advance_compute(opts.verify_cost * c_elems as f64);
        let mut corrections = 0u64;
        let mut uncorrectable = false;
        for (_, cmat) in &mut out {
            let tol = abft_tolerance(cmat.rows().max(cmat.cols()), data_scale(cmat));
            match verify_and_correct(cmat, tol) {
                AbftVerdict::Clean => {}
                AbftVerdict::Corrected { .. } => {
                    stats.detected += 1;
                    stats.corrected += 1;
                    corrections += 1;
                }
                AbftVerdict::Uncorrectable { .. } => {
                    stats.detected += 1;
                    uncorrectable = true;
                }
            }
        }
        comm.emit(
            start,
            comm.now(),
            SpanKind::Abft {
                op: AbftLabel::Verify,
                step: t as u64,
                elems: c_elems,
            },
        );
        if let Some(m) = comm.metrics() {
            m.abft_verifies.inc();
            m.abft_corrections.add(corrections);
        }
        if corrections > 0 {
            let cs = comm.now();
            comm.advance_compute(opts.verify_cost * corrections as f64);
            comm.emit(
                cs,
                comm.now(),
                SpanKind::Abft {
                    op: AbftLabel::Correct,
                    step: t as u64,
                    elems: corrections,
                },
            );
        }
        if uncorrectable {
            return Err(CommError::DataCorruption {
                rank: comm.global_rank(),
                step: t as u64,
            });
        }

        // --- Checkpoint the verified data blocks at the boundary.
        if opts.checkpoint_interval > 0
            && opts.checkpoint_interval != usize::MAX
            && (t + 1) % opts.checkpoint_interval == 0
            && t + 1 < total_panels
        {
            let data_elems: u64 = out.iter().map(|(b, _)| (b.rows * b.cols) as u64).sum();
            let start = comm.now();
            comm.advance_compute(opts.checkpoint_cost * data_elems as f64);
            let blocks: Vec<(ProcBlock, DenseMatrix)> = out
                .iter()
                .map(|(b, c)| (*b, c.submatrix(0, 0, b.rows, b.cols)))
                .collect();
            store.write(k1, rank, blocks);
            comm.emit(
                start,
                comm.now(),
                SpanKind::Abft {
                    op: AbftLabel::Checkpoint,
                    step: t as u64,
                    elems: data_elems,
                },
            );
            if let Some(m) = comm.metrics() {
                m.abft_checkpoints.inc();
                m.checkpoint_bytes.set(store.bytes() as f64);
            }
            stats.checkpoints_written += 1;
        }
    }

    // Strip the checksums; the data region is returned bit-for-bit.
    let blocks = out
        .into_iter()
        .map(|(b, c)| {
            let d = c.submatrix(0, 0, b.rows, b.cols);
            (b, d)
        })
        .collect();
    Ok((blocks, stats))
}

/// The protected panel loop as the engine's per-rank function: the
/// segment `[resume.0, stop_k)` of the plan, starting from the k-prefix
/// `resume.1` and checkpointing into `store`.
fn protected_rank<'a>(
    spec: &'a PartitionSpec,
    kernel: GemmKernel,
    opts: &'a AbftOptions,
    resume: Option<(usize, &'a DenseMatrix)>,
    stop_k: usize,
    store: &'a CheckpointStore,
) -> impl Fn(&Communicator, &RankMatrices) -> Result<(RankBlocks, AbftStats), CommError> + Sync + 'a
{
    let (resume_k, resume_c) = resume.map_or((0, None), |(k, c)| (k, Some(c)));
    move |comm, data| {
        let rank = comm.rank();
        run_rank_abft(
            comm, spec, rank, data, kernel, opts, resume_k, resume_c, stop_k, store,
        )
    }
}

/// Multiplies `A × B` with the checksum-protected, checkpointed SummaGen
/// executor, recovering from crashes *and* uncorrectable data corruption
/// by shrinking over the surviving devices and resuming from the newest
/// complete checkpoint.
///
/// Fault handling composes [`crate::multiply_with_recovery`]'s
/// shrink-and-retry policy with the ABFT layer: single-element corruption
/// (in a broadcast panel or a local accumulator) is corrected in place
/// and never fails the attempt; uncorrectable corruption crashes the
/// detecting rank with [`CommError::DataCorruption`], dropping its device.
/// Each retry charges `opts.retry_backoff` virtual seconds and restores
/// the newest checkpoint, so the recompute cost visible on the virtual
/// clock is proportional to the panels since the last checkpoint rather
/// than the whole plan.
///
/// `opts.sink` receives the ABFT verify/correct/checkpoint/rollback spans
/// along with every other runtime event, and `opts.metrics` counts them
/// (verifies, corrections, checkpoints, rollbacks, retained checkpoint
/// bytes).
#[allow(clippy::too_many_arguments)]
pub fn multiply_abft(
    shape: Shape,
    rel_speeds: &[f64],
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel + Clone,
    attempt_faults: &[FaultPlan],
    opts: &RunOptions,
    abft: &AbftOptions,
) -> Result<AbftRunResult, RecoveryError> {
    let n = a.rows();
    let recompute_fraction = |resume_k: usize| (n - resume_k) as f64 / n.max(1) as f64;
    // Complete checkpoints by ascending boundary, carried from attempt to
    // attempt: the last one is the next attempt's resume point.
    let mut completed: Vec<(usize, DenseMatrix)> = Vec::new();
    let mut captured_boundaries: BTreeSet<usize> = BTreeSet::new();
    let mut checkpoints_evicted = 0usize;
    // `(resume_k, panels_total, per-rank stats)` of the attempt that ran
    // to completion.
    let mut finished = None;
    let resume_from_checkpoint = |spec: &PartitionSpec, faults| {
        let store = CheckpointStore::new(spec.nprocs, n, abft.checkpoint_budget_bytes);
        let resume = completed.last().map(|(k, c)| (*k, c));
        let resume_k = resume.map_or(0, |(k, _)| k);
        let rank_fn = protected_rank(spec, mode.kernel(), abft, resume, usize::MAX, &store);
        let outcome = engine::run_numeric(spec, (a, b), cost.clone(), faults, opts, rank_fn);
        // Harvest complete checkpoints whether the attempt lived or died:
        // snapshots written before a crash are exactly what the next
        // attempt resumes from. The harvested set is held to the same
        // byte budget as the in-attempt store — oldest boundaries go
        // first, the newest (the resume point) is never dropped.
        captured_boundaries.extend(store.captured_boundaries());
        checkpoints_evicted += store.evicted();
        for (k, c) in store.take_completed() {
            if !completed.iter().any(|(ck, _)| *ck == k) {
                completed.push((k, c));
            }
        }
        completed.sort_by_key(|(k, _)| *k);
        checkpoints_evicted += evict_to_budget(&mut completed, abft.checkpoint_budget_bytes);
        if let Some(m) = &opts.metrics {
            let retained: usize = completed.iter().map(|(_, c)| matrix_bytes(c)).sum();
            m.checkpoint_bytes.set(retained as f64);
        }
        let (run, stats) = outcome?;
        finished = Some((resume_k, spec.grid_cols, stats));
        Ok((run, recompute_fraction(resume_k)))
    };
    let done = engine::shrink_and_retry(
        shape,
        rel_speeds,
        n,
        attempt_faults,
        opts,
        resume_from_checkpoint,
    )?;
    let (resume_k, panels_total, stats) = finished.expect("an attempt succeeded");
    let report = AbftReport {
        attempts: done.attempts,
        detected: stats.iter().map(|s| s.detected).sum::<u64>() + done.data_corruptions,
        corrected: stats.iter().map(|s| s.corrected).sum(),
        uncorrectable: done.data_corruptions,
        checkpoints: captured_boundaries.len(),
        checkpoints_evicted,
        resume_step: stats.iter().map(|s| s.first_panel).max().unwrap_or(0) as usize,
        resume_k,
        panels_total,
        panels_executed: stats.iter().map(|s| s.panels_executed).max().unwrap_or(0) as usize,
        recompute_fraction: recompute_fraction(resume_k),
    };
    Ok(AbftRunResult {
        run: done.run,
        abft: report,
    })
}

/// A partition-independent k-prefix snapshot of `C`: the product after
/// `k` columns of the inner dimension, `C = A[:, :k] · B[:k, :]`.
///
/// This is the same object the executor's checkpoint store assembles at
/// panel boundaries, surfaced as a value so callers *outside* the executor —
/// the service's preemption path — can stop a multiply at a boundary,
/// park the prefix, run something more urgent, and resume later.
/// Because the prefix is partition-independent, the resuming run does
/// not even need the same device set; with the *same* (shape, speeds)
/// it is bit-identical to the uninterrupted run (see
/// [`multiply_abft_prefix`]).
#[derive(Debug, Clone)]
pub struct PanelCheckpoint {
    /// Columns of the inner dimension already accumulated into `c`.
    pub k: usize,
    /// The `n × n` prefix product (full matrix, partial accumulation).
    pub c: DenseMatrix,
}

/// The legal stop/resume points of a `(shape, n, rel_speeds)` run: the
/// exclusive k-prefix after each panel of the partition the executor
/// would build, ending with `n` itself. Preempting at any of these (and
/// only these) keeps the within-panel GEMM accumulation unsplit, which
/// is what makes a preempt/resume cycle bit-identical to the
/// uninterrupted run.
pub fn panel_boundaries(shape: Shape, n: usize, rel_speeds: &[f64]) -> Vec<usize> {
    let spec = survivor_spec(shape, n, rel_speeds);
    (0..spec.grid_cols)
        .map(|t| spec.col_offset(t) + spec.widths[t])
        .collect()
}

/// Runs the checksum-protected executor from `resume` (or from scratch)
/// up to the panel boundary `stop_k`, returning the accumulated
/// k-prefix of `C` as a [`PanelCheckpoint`].
///
/// One fault-free attempt over the full device set — this is the
/// preemption primitive, not the recovery loop: the service calls it to
/// execute a *segment* of a job between preemption points, and chains
/// segments by feeding each returned checkpoint into the next call.
/// `stop_k == n` (or anything `>= n`) runs to completion, so
/// `prefix(None, b) → prefix(ckpt, n)` with any boundary `b` from
/// [`panel_boundaries`] produces a `C` bit-identical to the single-call
/// run — asserted by the preempt/resume property tests.
///
/// # Panics
/// Panics if `stop_k < n` is not one of the partition's panel
/// boundaries, or if `resume.k >= stop_k` (an empty segment).
#[allow(clippy::too_many_arguments)]
pub fn multiply_abft_prefix(
    shape: Shape,
    rel_speeds: &[f64],
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel,
    abft: &AbftOptions,
    resume: Option<&PanelCheckpoint>,
    stop_k: usize,
) -> Result<PanelCheckpoint, RecoveryError> {
    assert!(!rel_speeds.is_empty(), "need at least one device");
    assert_eq!(a.rows(), b.rows(), "A and B must share dimension n");
    let n = a.rows();
    let stop_k = stop_k.min(n);
    let spec = survivor_spec(shape, n, rel_speeds);
    assert!(
        stop_k == n || panel_boundaries(shape, n, rel_speeds).contains(&stop_k),
        "stop_k {stop_k} is not a panel boundary of the partition"
    );
    let resume_k = resume.map_or(0, |c| c.k);
    assert!(resume_k < stop_k, "segment [{resume_k}, {stop_k}) is empty");
    let store = CheckpointStore::new(spec.nprocs, n, abft.checkpoint_budget_bytes);
    let resume = resume.map(|ckpt| (ckpt.k, &ckpt.c));
    let rank_fn = protected_rank(&spec, mode.kernel(), abft, resume, stop_k, &store);
    let (run, _stats) =
        engine::run_numeric(&spec, (a, b), cost, None, &RunOptions::default(), rank_fn)
            .map_err(|last| RecoveryError::AttemptsExhausted { attempts: 1, last })?;
    Ok(PanelCheckpoint {
        k: stop_k,
        c: run.c,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiply_panelled;
    use std::time::Duration;
    use summagen_comm::ZeroCost;
    use summagen_matrix::{approx_eq, gemm_naive, random_matrix};
    use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};

    const SPEEDS: [f64; 3] = [1.0, 2.0, 0.9];

    fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let mut c = DenseMatrix::zeros(n, n);
        gemm_naive(
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        c
    }

    fn fast_opts() -> RunOptions {
        RunOptions {
            max_attempts: 4,
            retry_backoff: 0.25,
            recv_timeout: Duration::from_millis(500),
            ..Default::default()
        }
    }

    /// `refresh_checksums` and `data_scale` as they were: one
    /// bounds-checked `get` per element, columns walked with stride `cols`.
    fn refresh_checksums_strided(c: &mut DenseMatrix) {
        let (h, w) = (c.rows() - 1, c.cols() - 1);
        for i in 0..h {
            let s: f64 = (0..w).map(|j| c.get(i, j)).sum();
            c.set(i, w, s);
        }
        for j in 0..w {
            let s: f64 = (0..h).map(|i| c.get(i, j)).sum();
            c.set(h, j, s);
        }
        let corner: f64 = (0..h).map(|i| c.get(i, w)).sum();
        c.set(h, w, corner);
    }

    fn data_scale_strided(m: &DenseMatrix) -> f64 {
        let (h, w) = (m.rows() - 1, m.cols() - 1);
        let mut s = 0.0f64;
        for i in 0..h {
            for j in 0..w {
                s = s.max(m.get(i, j).abs());
            }
        }
        s
    }

    #[test]
    fn row_walk_checksums_have_the_bits_of_the_strided_loops() {
        for seed in 0..16u64 {
            let (h, w) = (1 + (seed as usize * 7) % 45, 1 + (seed as usize * 13) % 38);
            // Mixed magnitudes and signed zeros make the sums order-sensitive;
            // one all-negative-zero row and column pin the sum's start value.
            let base = random_matrix(h + 1, w + 1, seed);
            let m = DenseMatrix::from_fn(h + 1, w + 1, |i, j| {
                if i == h / 2 || j == w / 2 {
                    return -0.0;
                }
                match (i * 5 + j * 3 + seed as usize) % 6 {
                    0 => base.get(i, j) * 1e14,
                    1 => base.get(i, j) * 1e-14,
                    _ => base.get(i, j),
                }
            });
            let (mut got, mut want) = (m.clone(), m.clone());
            refresh_checksums(&mut got);
            refresh_checksums_strided(&mut want);
            for (k, (g, e)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(g.to_bits(), e.to_bits(), "{h}x{w} element {k}");
            }
            assert_eq!(data_scale(&m).to_bits(), data_scale_strided(&m).to_bits());
        }
    }

    #[test]
    fn zero_fault_protected_run_is_bit_identical_to_panelled() {
        let n = 24;
        let a = random_matrix(n, n, 31);
        let b = random_matrix(n, n, 32);
        let areas = proportional_areas(n, &SPEEDS);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let plain = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked, ZeroCost);
            let protected = multiply_abft(
                shape,
                &SPEEDS,
                &a,
                &b,
                ExecutionMode::RealWith(GemmKernel::Blocked),
                ZeroCost,
                &[],
                &fast_opts(),
                &AbftOptions::default(),
            )
            .expect("fault-free protected run succeeds");
            assert_eq!(protected.abft.attempts, 1);
            assert_eq!(protected.abft.detected, 0);
            assert_eq!(protected.abft.resume_k, 0);
            assert!((protected.abft.recompute_fraction - 1.0).abs() < 1e-12);
            for (x, y) in plain.c.as_slice().iter().zip(protected.run.c.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{}: protected path drifted from unprotected bits",
                    shape.name()
                );
            }
        }
    }

    #[test]
    fn observed_run_counts_verifies_checkpoints_and_corrections() {
        let n = 24;
        let a = random_matrix(n, n, 41);
        let b = random_matrix(n, n, 42);
        let plan = FaultPlan::new().corrupt_block(2, 1, 5, 3.0);
        let metrics = summagen_comm::RuntimeMetrics::fresh();
        let res = multiply_abft(
            summagen_partition::Shape::SquareCorner,
            &SPEEDS,
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[plan],
            &RunOptions {
                metrics: Some(metrics.clone()),
                ..fast_opts()
            },
            &AbftOptions::default(),
        )
        .expect("corrected run succeeds");
        assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
        // The registry agrees with the run's own report.
        assert!(metrics.abft_verifies.get() > 0);
        assert_eq!(metrics.abft_corrections.get(), res.abft.corrected);
        // Every rank writes its blocks at each completed boundary.
        assert_eq!(
            metrics.abft_checkpoints.get() as usize,
            res.abft.checkpoints * SPEEDS.len()
        );
        assert_eq!(metrics.abft_rollbacks.get(), 0);
        assert!(metrics.panel_steps.get() > 0);
    }

    #[test]
    fn wire_corruption_in_broadcast_panel_is_corrected() {
        // OneDRectangular puts all three ranks in one grid row, so every
        // panel's A block is broadcast root→peers. Corrupt the first
        // message on the 0→1 link: rank 1's transit verification must
        // locate and fix the element before the GEMM consumes it.
        let n = 24;
        let a = random_matrix(n, n, 33);
        let b = random_matrix(n, n, 34);
        let plan = FaultPlan::new().corrupt_message(0, 1, 0, 7, 5.0);
        let res = multiply_abft(
            summagen_partition::Shape::OneDRectangular,
            &[1.0, 1.0, 1.0],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[plan],
            &fast_opts(),
            &AbftOptions::default(),
        )
        .expect("corrected run succeeds without recovery");
        assert_eq!(res.abft.attempts, 1, "correction must not trigger retry");
        assert!(res.abft.corrected >= 1, "report: {:?}", res.abft);
        assert_eq!(res.abft.corrected, res.abft.detected);
        assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
        assert!(res.run.recovery.is_none());
    }

    #[test]
    fn block_corruption_between_panels_is_corrected() {
        let n = 24;
        let a = random_matrix(n, n, 35);
        let b = random_matrix(n, n, 36);
        let plan = FaultPlan::new().corrupt_block(2, 1, 5, 3.0);
        let res = multiply_abft(
            summagen_partition::Shape::SquareCorner,
            &SPEEDS,
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[plan],
            &fast_opts(),
            &AbftOptions::default(),
        )
        .expect("corrected run succeeds");
        assert_eq!(res.abft.attempts, 1);
        assert!(res.abft.corrected >= 1);
        assert_eq!(res.abft.uncorrectable, 0);
        assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
    }

    #[test]
    fn multi_element_corruption_escalates_to_recovery() {
        // Two simultaneous flips in one accumulator produce residuals on
        // two rows and two columns: uncorrectable. The detecting rank
        // must crash with DataCorruption, its device is dropped, and the
        // retry resumes from the checkpoint written at the first panel
        // boundary.
        let n = 24;
        let a = random_matrix(n, n, 37);
        let b = random_matrix(n, n, 38);
        let plan = FaultPlan::new()
            .corrupt_block(2, 1, 3, 1.0)
            .corrupt_block(2, 1, 110, 1.0);
        let abft = AbftOptions {
            checkpoint_interval: 1,
            ..AbftOptions::default()
        };
        let res = multiply_abft(
            summagen_partition::Shape::OneDRectangular,
            &[1.0, 1.0, 1.0],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[plan],
            &fast_opts(),
            &abft,
        )
        .expect("recovery absorbs the uncorrectable corruption");
        assert_eq!(res.abft.attempts, 2);
        assert!(res.abft.uncorrectable >= 1);
        assert!(res.abft.detected >= res.abft.uncorrectable);
        let rec = res.run.recovery.as_ref().expect("a retry happened");
        assert!(
            rec.failure_causes
                .iter()
                .any(|(label, count)| label == "data-corruption" && *count >= 1),
            "causes: {:?}",
            rec.failure_causes
        );
        // The first panel boundary was checkpointed before the step-1
        // corruption killed the attempt, so the retry resumes mid-plan.
        assert!(res.abft.resume_k > 0, "report: {:?}", res.abft);
        assert!(res.abft.recompute_fraction < 1.0);
        assert!((rec.recompute_fraction - res.abft.recompute_fraction).abs() < 1e-12);
        assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
    }

    #[test]
    fn checkpoint_resume_beats_full_restart() {
        // Kill rank 1 late in attempt 1. With checkpointing the retry
        // resumes from the last boundary; without it the retry recomputes
        // the whole plan. Both must be correct, and the checkpointed run
        // must show strictly less virtual time and fewer executed panels.
        let n = 24;
        let a = random_matrix(n, n, 39);
        let b = random_matrix(n, n, 40);
        // Rank 1's p2p ops: recv (panel 0), send, send (panel 1 root),
        // recv (panel 2) — op 3 kills it after the panel-1 boundary
        // checkpoint is complete on every rank.
        let plan = FaultPlan::new().kill_rank(1, 3);
        let run = |interval: usize| {
            multiply_abft(
                summagen_partition::Shape::OneDRectangular,
                &[1.0, 1.0, 1.0],
                &a,
                &b,
                ExecutionMode::Real,
                ZeroCost,
                std::slice::from_ref(&plan),
                &fast_opts(),
                &AbftOptions {
                    checkpoint_interval: interval,
                    // Make recompute visible on the virtual clock.
                    gemm_cost: 1e-9,
                    ..AbftOptions::default()
                },
            )
            .expect("recovery succeeds")
        };
        let checkpointed = run(1);
        let scratch = run(usize::MAX);
        for res in [&checkpointed, &scratch] {
            assert_eq!(res.abft.attempts, 2);
            assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
        }
        assert!(checkpointed.abft.resume_k > 0);
        assert_eq!(
            checkpointed.abft.resume_step,
            checkpointed.abft.panels_total - checkpointed.abft.panels_executed
        );
        assert_eq!(scratch.abft.resume_k, 0);
        assert_eq!(scratch.abft.checkpoints, 0);
        assert!((scratch.abft.recompute_fraction - 1.0).abs() < 1e-12);
        assert!(checkpointed.abft.recompute_fraction < 1.0);
        assert!(
            checkpointed.abft.panels_executed < scratch.abft.panels_executed,
            "checkpointed {:?} vs scratch {:?}",
            checkpointed.abft,
            scratch.abft
        );
        assert!(
            checkpointed.run.exec_time < scratch.run.exec_time,
            "virtual recompute time must shrink: {} vs {}",
            checkpointed.run.exec_time,
            scratch.run.exec_time
        );
    }

    #[test]
    fn single_device_protected_run_works() {
        let n = 16;
        let a = random_matrix(n, n, 41);
        let b = random_matrix(n, n, 42);
        let res = multiply_abft(
            summagen_partition::Shape::OneDRectangular,
            &[1.0],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[],
            &fast_opts(),
            &AbftOptions::default(),
        )
        .expect("single-device run succeeds");
        assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
        assert_eq!(res.run.traffic[0].msgs_sent, 0);
    }

    #[test]
    fn corruption_of_checksum_entries_is_absorbed() {
        // Hitting a transit checksum entry (last row/col of the wire
        // panel) must be corrected without touching data.
        let n = 24;
        let a = random_matrix(n, n, 43);
        let b = random_matrix(n, n, 44);
        // elem index far into the payload lands via modulo; pick the very
        // last transit element (the checksum corner) of a 25x9 panel.
        let plan = FaultPlan::new().corrupt_message(0, 1, 0, 224, -2.5);
        let res = multiply_abft(
            summagen_partition::Shape::OneDRectangular,
            &[1.0, 1.0, 1.0],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[plan],
            &fast_opts(),
            &AbftOptions::default(),
        )
        .expect("checksum-entry corruption is absorbed");
        assert_eq!(res.abft.attempts, 1);
        assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
    }

    #[test]
    fn checkpoint_store_evicts_oldest_boundary_first() {
        let n = 8;
        let prefix_bytes = n * n * std::mem::size_of::<f64>();
        // Budget fits exactly one assembled prefix.
        let store = CheckpointStore::new(1, n, prefix_bytes);
        let deposit = || {
            vec![(
                ProcBlock {
                    block_i: 0,
                    block_j: 0,
                    row: 0,
                    col: 0,
                    rows: n,
                    cols: n,
                },
                DenseMatrix::zeros(n, n),
            )]
        };
        store.write(2, 0, deposit());
        assert_eq!(store.bytes(), prefix_bytes);
        store.write(4, 0, deposit());
        store.write(6, 0, deposit());
        // Two evictions; only the newest boundary is retained.
        assert_eq!(store.evicted(), 2);
        assert_eq!(store.bytes(), prefix_bytes);
        assert_eq!(store.captured_boundaries(), vec![2, 4, 6]);
        let kept = store.take_completed();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].0, 6, "the newest boundary survives eviction");
    }

    #[test]
    fn checkpoint_store_never_evicts_its_only_snapshot() {
        let n = 8;
        // Budget smaller than a single prefix: the sole snapshot stays
        // (it is the resume point) even though it exceeds the budget.
        let store = CheckpointStore::new(1, n, 1);
        store.write(
            4,
            0,
            vec![(
                ProcBlock {
                    block_i: 0,
                    block_j: 0,
                    row: 0,
                    col: 0,
                    rows: n,
                    cols: n,
                },
                DenseMatrix::zeros(n, n),
            )],
        );
        assert_eq!(store.evicted(), 0);
        assert_eq!(store.take_completed().len(), 1);
    }

    #[test]
    fn tight_checkpoint_budget_preserves_the_result_and_the_capture_count() {
        // Every-panel checkpointing under a one-prefix budget: eviction
        // fires, the capture count still reports every boundary, the
        // retained bytes respect the budget, and the product is exact.
        let n = 24;
        let a = random_matrix(n, n, 51);
        let b = random_matrix(n, n, 52);
        let budget = n * n * std::mem::size_of::<f64>();
        let abft = AbftOptions {
            checkpoint_interval: 1,
            checkpoint_budget_bytes: budget,
            ..AbftOptions::default()
        };
        let metrics = summagen_comm::RuntimeMetrics::fresh();
        let res = multiply_abft(
            summagen_partition::Shape::OneDRectangular,
            &[1.0, 1.0, 1.0],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[],
            &RunOptions {
                metrics: Some(metrics.clone()),
                ..fast_opts()
            },
            &abft,
        )
        .expect("fault-free run succeeds under a tight budget");
        assert!(approx_eq(&res.run.c, &reference(&a, &b), 1e-9));
        assert!(
            res.abft.checkpoints >= 2,
            "need multiple boundaries to exercise eviction: {:?}",
            res.abft
        );
        assert!(
            res.abft.checkpoints_evicted >= res.abft.checkpoints - 1,
            "all but the newest retained snapshot must be evicted: {:?}",
            res.abft
        );
        let gauge = metrics.checkpoint_bytes.get();
        assert!(
            gauge <= budget as f64,
            "retained bytes {gauge} exceed budget {budget}"
        );

        // The default (large) budget evicts nothing and reports the same
        // capture count.
        let unbounded = multiply_abft(
            summagen_partition::Shape::OneDRectangular,
            &[1.0, 1.0, 1.0],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[],
            &fast_opts(),
            &AbftOptions {
                checkpoint_interval: 1,
                ..AbftOptions::default()
            },
        )
        .expect("fault-free run succeeds");
        assert_eq!(unbounded.abft.checkpoints_evicted, 0);
        assert_eq!(unbounded.abft.checkpoints, res.abft.checkpoints);
        for (x, y) in unbounded.run.c.as_slice().iter().zip(res.run.c.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "eviction must not perturb the numerics"
            );
        }
    }
}
