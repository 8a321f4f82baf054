//! ABFT checksum-protected SummaGen with panel-boundary checkpointing.
//!
//! This is the walk of [`crate::stages`] over one window per panel — the
//! walk behind [`crate::multiply_panelled`], handed a `Protection` —
//! hardened against *silent data corruption* with Huang–Abraham
//! algorithm-based fault tolerance, plus checkpoint/restart so recovery
//! does not recompute the whole product. This module holds what the
//! protection *is* (encodings, verification, the checkpoint store, the
//! recovering entry points); the walk itself lives there:
//!
//! * **Wire protection** — every block is dealt *fully checksummed* (an
//!   extra row of column sums and column of row sums, computed once) and
//!   broadcast that way, by reference when whole. Receivers verify it in
//!   place before using it; a single corrupted element is located by its
//!   (row, column) residual pair and corrected on a private copy, so a
//!   flipped element in a broadcast never reaches the GEMM.
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
//!   it; a retry assembles the newest into the global `C` prefix, which is
//!   partition-independent (`C` after `k` columns equals
//!   `A[:, :k] · B[:k, :]` no matter how the survivors are re-partitioned).
//!   Retries restore that prefix and execute only the remaining
//!   k-range — including a *partial* first panel when the survivor
//!   partition's panel boundaries do not align with the checkpoint.
//!
//! The zero-fault protected path is **bit-identical** to
//! [`crate::multiply_panelled`] — one walk, padded or not: augmentation
//! appends checksum rows and columns without touching the data region, and
//! the widened GEMM accumulates each data element in exactly the same
//! k-order as the unprotected kernel.
//!
//! Verification, correction, checkpoint, and rollback work is charged to
//! the virtual clock at fixed per-element costs and emitted as
//! [`SpanKind::Abft`] leaf spans, so the resilience overhead is visible in
//! Perfetto timelines and the critical-path decomposition.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use summagen_comm::{
    AbftLabel, CommError, Communicator, CostModel, FaultPlan, RankFailure, SpanKind,
};
use summagen_matrix::{abft_tolerance, checksummed, diagnose, AbftVerdict, Checksums, DenseMatrix};
use summagen_partition::{PartitionSpec, ProcBlock, Shape};

use crate::engine::{self, survivor_spec, RankBlocks};
use crate::executor::{ExecutionMode, RecoveryError, RunOptions, RunResult};
use crate::rankdata::assemble;
use crate::stages::{panels, Walk};

/// Virtual seconds charged per element scanned by a residual verification
/// pass (~5 Gelem/s, about one add per element), per element written to a
/// checkpoint snapshot and per element restored from one on a resumed
/// attempt (~1 GB/s effective, memcpy-rate). Small against GEMM but
/// nonzero, so resumed attempts show recompute time proportional to the
/// panels they re-execute. The protected GEMM itself is charged nothing,
/// like the unprotected real path.
const VERIFY_COST: f64 = 2e-10;
const CHECKPOINT_COST: f64 = 1e-9;
const ROLLBACK_COST: f64 = 1e-9;

/// Knobs for the checksum-protected executor.
#[derive(Debug, Clone)]
pub struct AbftOptions {
    /// Write a checkpoint after every this-many completed panel steps
    /// (the final step is never checkpointed — the result is about to be
    /// returned anyway). Use `usize::MAX` to disable checkpointing.
    pub checkpoint_interval: usize,
    /// Host-memory budget for retained checkpoint snapshots, in bytes.
    /// When the snapshots (`n × n` elements each) exceed it, the oldest
    /// boundaries are evicted first; the newest is always kept (it is the
    /// resume point). The budget bounds the *retained* set — every capture
    /// is still counted in [`AbftReport::checkpoints`] and in the
    /// `summagen_abft_checkpoints_total` counter.
    pub checkpoint_budget_bytes: usize,
}

impl Default for AbftOptions {
    fn default() -> Self {
        Self {
            checkpoint_interval: 2,
            // 256 MiB: four 2048² f64 prefixes — far above anything the
            // tests or the benchmark retain, so eviction only fires when a
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
    /// distinct panel boundaries completed, whether still retained or
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
pub(crate) struct AbftStats {
    pub detected: u64,
    pub corrected: u64,
    pub first_panel: u64,
    pub panels_executed: u64,
}

/// Host-side checkpoint store shared by the ranks of one attempt.
///
/// Ranks deposit their verified `C` data blocks at panel boundaries; once
/// every rank has written a boundary the store promotes the deposits to
/// `completed`, a [`Snapshot`] left unassembled until a retry resumes from
/// it. Incomplete boundaries (some rank died first) are discarded with the
/// attempt.
///
/// The store is bounded: snapshots are accounted by their host footprint
/// (8 bytes per element of `C`, plus pending deposits awaiting the rest of
/// their boundary), and when the completed set exceeds
/// [`AbftOptions::checkpoint_budget_bytes`] the oldest boundaries are
/// evicted. The newest boundary is never evicted — it is what a resumed
/// attempt rolls back to.
pub(crate) struct CheckpointStore<'a> {
    spec: &'a PartitionSpec,
    budget_bytes: usize,
    inner: Mutex<StoreInner>,
}

/// One rank's deposit at a boundary: its local `C` blocks with placement.
type RankDeposit = Vec<(ProcBlock, DenseMatrix)>;

/// A complete checkpoint: every rank's deposit at one boundary, which
/// together tile the global `C` prefix ([`assemble`] builds it).
type Snapshot = Vec<RankDeposit>;

#[derive(Default)]
struct StoreInner {
    pending: BTreeMap<usize, Vec<Option<RankDeposit>>>,
    completed: Vec<(usize, Snapshot)>,
    /// Distinct boundaries completed over the store's lifetime — the
    /// capture set survives eviction.
    captured: BTreeSet<usize>,
    /// Snapshots dropped to stay within the byte budget.
    evicted: usize,
}

/// Host bytes held by `deposits` (f64 payload).
fn held_bytes<'d>(deposits: impl IntoIterator<Item = &'d RankDeposit>) -> usize {
    let blocks = deposits.into_iter().flatten();
    blocks
        .map(|(_, m)| std::mem::size_of_val(m.as_slice()))
        .sum()
}

/// Evicts oldest-boundary entries from a sorted-or-not completed list
/// until the retained bytes fit `budget`, always keeping the newest
/// (largest-k) entry. Returns how many entries were dropped.
fn evict_to_budget(completed: &mut Vec<(usize, Snapshot)>, budget: usize) -> usize {
    let mut dropped = 0;
    while completed.len() > 1 && held_bytes(completed.iter().flat_map(|(_, s)| s)) > budget {
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

impl<'a> CheckpointStore<'a> {
    pub(crate) fn new(spec: &'a PartitionSpec, budget_bytes: usize) -> Self {
        Self {
            spec,
            budget_bytes,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    fn write(&self, k_prefix: usize, rank: usize, blocks: RankDeposit) {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner
            .pending
            .entry(k_prefix)
            .or_insert_with(|| vec![None; self.spec.nprocs]);
        entry[rank] = Some(blocks);
        if entry.iter().all(Option::is_some) {
            let deposits = inner.pending.remove(&k_prefix);
            let snapshot = deposits.into_iter().flatten().flatten().collect();
            inner.completed.push((k_prefix, snapshot));
            inner.captured.insert(k_prefix);
            inner.evicted += evict_to_budget(&mut inner.completed, self.budget_bytes);
        }
    }

    /// Host bytes currently held: complete snapshots plus pending
    /// per-rank deposits awaiting the rest of their boundary.
    fn bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        let done = held_bytes(inner.completed.iter().flat_map(|(_, s)| s));
        done + held_bytes(inner.pending.values().flatten().flatten())
    }

    /// What the attempt left behind, once its ranks are gone.
    fn harvest(self) -> StoreInner {
        let poisoned = "no rank panics while it holds the store";
        self.inner.into_inner().expect(poisoned)
    }
}

/// The verdict on a fully-checksummed `rows × cols` buffer, read in place.
fn check(data: &[f64], rows: usize, cols: usize) -> AbftVerdict {
    diagnose(data, rows, cols, |s| abft_tolerance(rows.max(cols), s))
}

/// Charges `seconds` of protection work to the rank's virtual clock and
/// reports it as one [`SpanKind::Abft`] leaf span.
fn charge(comm: &Communicator, seconds: f64, op: AbftLabel, step: usize, elems: u64) {
    let start = comm.now();
    comm.advance_compute(seconds);
    let step = step as u64;
    comm.emit(start, comm.now(), SpanKind::Abft { op, step, elems });
}

/// What the walk needs to run protected: the per-element costs and
/// checkpoint cadence, the k-prefix to start from, the horizon to stop at
/// and the store that collects this attempt's checkpoints.
pub(crate) struct Protection<'a> {
    pub opts: &'a AbftOptions,
    /// `(k, C prefix)`: the first `k` columns of the inner dimension are
    /// already accumulated in the prefix.
    pub resume: Option<(usize, &'a DenseMatrix)>,
    /// Panels starting at or past this `k` are not executed.
    pub stop_k: usize,
    pub store: &'a CheckpointStore<'a>,
}

impl Protection<'_> {
    pub fn resume_k(&self) -> usize {
        self.resume.map_or(0, |(k, _)| k)
    }

    /// Loads the restored prefix into the rank's (augmented, still zero)
    /// accumulators and charges the rollback.
    pub fn restore(&self, comm: &Communicator, spec: &PartitionSpec, out: &mut RankBlocks) {
        let Some((resume_k, c0)) = self.resume else {
            return;
        };
        // The snapshot holds verified data only: its checksums are recomputed.
        for (blk, m) in out.iter_mut() {
            let (at, dims) = ((blk.row, blk.col), (blk.rows, blk.cols));
            let data = checksummed(
                c0.as_slice(),
                c0.cols(),
                at,
                dims,
                Checksums::RowsThenColumns,
            );
            *m = DenseMatrix::from_vec(blk.rows + 1, blk.cols + 1, data);
        }
        if resume_k > 0 {
            let elems: u64 = out.iter().map(|(b, _)| (b.rows * b.cols) as u64).sum();
            let first = (0..spec.grid_cols)
                .take_while(|&t| spec.col_offset(t) + spec.widths[t] <= resume_k)
                .count();
            let seconds = ROLLBACK_COST * elems as f64;
            charge(comm, seconds, AbftLabel::Rollback, first, elems);
            if let Some(m) = comm.metrics() {
                m.abft_rollbacks.inc();
            }
        }
    }

    /// Verifies a received transit block in place, a `rows × cols` buffer
    /// the sender may share with the lane's other receivers. A correction
    /// is made on a private copy (`Arc::make_mut`), so the sender's buffer
    /// is never written.
    pub fn verify_received(
        &self,
        comm: &Communicator,
        buf: &mut Arc<Vec<f64>>,
        (rows, cols): (usize, usize),
        step: usize,
        stats: &mut AbftStats,
    ) -> Result<(), CommError> {
        let verdict = check(buf, rows, cols);
        if let AbftVerdict::Corrected { .. } = verdict {
            verdict.apply(Arc::<Vec<f64>>::make_mut(buf), cols);
        }
        self.tally(comm, [((rows * cols) as u64, verdict)], step, stats)
    }

    /// Accounts for one verification pass: `checked` yields every verified
    /// buffer's element count and verdict. The scan (and each correction)
    /// is charged to the virtual clock and emitted as Abft spans; damage
    /// the residuals could not localize ends the rank with
    /// [`CommError::DataCorruption`].
    fn tally(
        &self,
        comm: &Communicator,
        checked: impl IntoIterator<Item = (u64, AbftVerdict)>,
        step: usize,
        stats: &mut AbftStats,
    ) -> Result<(), CommError> {
        let (mut elems, mut corrections, mut uncorrectable) = (0u64, 0u64, false);
        for (n, verdict) in checked {
            elems += n;
            match verdict {
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
        let seconds = VERIFY_COST * elems as f64;
        charge(comm, seconds, AbftLabel::Verify, step, elems);
        if let Some(m) = comm.metrics() {
            m.abft_verifies.inc();
            m.abft_corrections.add(corrections);
        }
        if corrections > 0 {
            let seconds = VERIFY_COST * corrections as f64;
            charge(comm, seconds, AbftLabel::Correct, step, corrections);
        }
        if uncorrectable {
            return Err(CommError::DataCorruption {
                rank: comm.global_rank(),
                step: step as u64,
            });
        }
        Ok(())
    }

    /// The end of panel step `t` (whose k-range ends at `k1`): applies the
    /// memory faults injected on the accumulators, verifies every owned
    /// accumulator and — unless the step is the plan's `last` —
    /// checkpoints the verified data at the cadence the options set.
    pub fn close_panel(
        &self,
        comm: &Communicator,
        t: usize,
        k1: usize,
        last: bool,
        out: &mut RankBlocks,
        stats: &mut AbftStats,
    ) -> Result<(), CommError> {
        let (opts, store) = (self.opts, self.store);
        // --- Injected memory faults on the local accumulators ("a rank's
        // local block between panel steps").
        let total: u64 = out.iter().map(|(_, c)| c.as_slice().len() as u64).sum();
        for (elem, delta) in comm.block_corruptions(t as u64) {
            let mut elements = out.iter_mut().flat_map(|(_, c)| c.as_mut_slice());
            if let Some(x) = elements.nth((elem % total.max(1)) as usize) {
                *x += delta;
            }
        }

        // --- Verify every owned accumulator at the panel boundary.
        let checked = out.iter_mut().map(|(_, c)| {
            let (rows, cols) = (c.rows(), c.cols());
            let verdict = check(c.as_slice(), rows, cols);
            verdict.apply(c.as_mut_slice(), cols);
            ((rows * cols) as u64, verdict)
        });
        self.tally(comm, checked, t, stats)?;

        // --- Checkpoint the verified data blocks at the boundary.
        if opts.checkpoint_interval > 0
            && opts.checkpoint_interval != usize::MAX
            && (t + 1).is_multiple_of(opts.checkpoint_interval)
            && !last
        {
            let data_elems: u64 = out.iter().map(|(b, _)| (b.rows * b.cols) as u64).sum();
            let seconds = CHECKPOINT_COST * data_elems as f64;
            charge(comm, seconds, AbftLabel::Checkpoint, t, data_elems);
            let blocks: RankDeposit = out
                .iter()
                .map(|(b, c)| (*b, c.submatrix(0, 0, b.rows, b.cols)))
                .collect();
            store.write(k1, comm.rank(), blocks);
            if let Some(m) = comm.metrics() {
                m.abft_checkpoints.inc();
                m.checkpoint_bytes.set(store.bytes() as f64);
            }
        }
        Ok(())
    }
}

/// One protected attempt over `spec`, one rank per thread: the walk of one
/// window per panel from `protection`'s resume point to its horizon, on
/// fully checksummed blocks.
fn protected_run(
    spec: &PartitionSpec,
    ab: (&DenseMatrix, &DenseMatrix),
    mode: ExecutionMode,
    cost: impl CostModel,
    faults: Option<FaultPlan>,
    opts: &RunOptions,
    protection: &Protection<'_>,
) -> Result<(RunResult, Vec<AbftStats>), RankFailure> {
    let windows = panels(spec, protection.resume_k(), protection.stop_k);
    let walk = Walk {
        windows: &windows,
        kernel: mode.kernel(),
        charge: None,
        protection: Some(protection),
    };
    engine::run_walk(spec, ab, cost, faults, opts, &walk)
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
    let mut completed: Vec<(usize, Snapshot)> = Vec::new();
    let mut captured_boundaries: BTreeSet<usize> = BTreeSet::new();
    let mut checkpoints_evicted = 0usize;
    // `(resume_k, panels_total, per-rank stats)` of the attempt that ran
    // to completion.
    let mut finished = None;
    let resume_from_checkpoint = |spec: &PartitionSpec, faults| {
        let store = CheckpointStore::new(spec, abft.checkpoint_budget_bytes);
        // Only a retry assembles a prefix (any snapshot tiles all of `C`).
        let prefix = completed.last().map(|(k, s)| (*k, assemble(spec, s)));
        let protection = Protection {
            opts: abft,
            resume: prefix.as_ref().map(|(k, c)| (*k, c)),
            stop_k: usize::MAX,
            store: &store,
        };
        let resume_k = protection.resume_k();
        let outcome = protected_run(spec, (a, b), mode, cost.clone(), faults, opts, &protection);
        // Harvest complete checkpoints whether the attempt lived or died:
        // snapshots written before a crash are exactly what the next
        // attempt resumes from. The harvested set is held to the same
        // byte budget as the in-attempt store — oldest boundaries go
        // first, the newest (the resume point) is never dropped.
        let harvested = store.harvest();
        captured_boundaries.extend(harvested.captured);
        checkpoints_evicted += harvested.evicted;
        for (k, c) in harvested.completed {
            if !completed.iter().any(|(ck, _)| *ck == k) {
                completed.push((k, c));
            }
        }
        completed.sort_by_key(|(k, _)| *k);
        checkpoints_evicted += evict_to_budget(&mut completed, abft.checkpoint_budget_bytes);
        if let Some(m) = &opts.metrics {
            let retained = held_bytes(completed.iter().flat_map(|(_, s)| s));
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
/// This is the same object a retry assembles from the executor's
/// checkpoint store, surfaced as a value so callers *outside* the executor —
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
    panels(&spec, 0, usize::MAX).iter().map(|w| w.hi).collect()
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
    let store = CheckpointStore::new(&spec, abft.checkpoint_budget_bytes);
    let protection = Protection {
        opts: abft,
        resume: resume.map(|ckpt| (ckpt.k, &ckpt.c)),
        stop_k,
        store: &store,
    };
    let opts = RunOptions::default();
    let (run, _stats) = protected_run(&spec, (a, b), mode, cost, None, &opts, &protection)
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
    use summagen_matrix::{approx_eq, gemm_naive, random_matrix, GemmKernel};
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
        // must recompute a smaller share of the plan in fewer panels.
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
        let spec = PartitionSpec::new(vec![0], vec![n], vec![n], 1);
        let prefix_bytes = n * n * std::mem::size_of::<f64>();
        // Budget fits exactly one snapshot.
        let store = CheckpointStore::new(&spec, prefix_bytes);
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
        assert_eq!(store.bytes(), prefix_bytes);
        let left = store.harvest();
        assert_eq!(left.evicted, 2);
        assert_eq!(left.captured.into_iter().collect::<Vec<_>>(), vec![2, 4, 6]);
        assert_eq!(left.completed.len(), 1);
        assert_eq!(
            left.completed[0].0, 6,
            "the newest boundary survives eviction"
        );
    }

    #[test]
    fn checkpoint_store_never_evicts_its_only_snapshot() {
        let n = 8;
        let spec = PartitionSpec::new(vec![0], vec![n], vec![n], 1);
        // Budget smaller than a single prefix: the sole snapshot stays
        // (it is the resume point) even though it exceeds the budget.
        let store = CheckpointStore::new(&spec, 1);
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
        let left = store.harvest();
        assert_eq!((left.evicted, left.completed.len()), (0, 1));
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
