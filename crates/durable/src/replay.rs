//! The recovery path: scan the durable journal bytes to the longest
//! valid prefix and fold the records into the state a restarted service
//! needs.
//!
//! Replay is a single forward pass. Each job id moves through a tiny
//! state machine — admitted → (started) → (checkpointed)* → terminal —
//! and the fold keeps, per id, the *latest* durable fact. The outputs:
//!
//! * `queued` — admitted, never started: re-enter the queue as-is.
//! * `in_flight` — started but not terminal: re-enter the queue at the
//!   front with `resume_fraction` = the largest durable panel-checkpoint
//!   fraction (0.0 if the crash landed before any checkpoint flushed —
//!   the fall-back-to-previous-boundary case).
//! * `completed` / `failed` — terminal outcomes by idempotency key
//!   ([`Terminals`], the first record of a key wins); the
//!   resubmission-suppression set that makes completion exactly-once.
//! * `resume_clock` — the maximum instant of any durable record: the
//!   virtual instant the next epoch's clock starts at, keeping one
//!   monotone timeline across crashes.
//!
//! A `Completed` or `Failed` frame closes its job id for good, even one
//! no earlier frame admitted; a `Rejected` frame closes only an admitted
//! job (one refused at the door may be admitted later).
//!
//! **Compaction.** The same walk notes where each frame the state rests
//! on starts (the *live* frames, listed on `LiveFrames`); every other
//! frame is dead. [`Replay::image`] is a `Compacted` header frame — the
//! dead records' count and the largest instant — followed by the live
//! frames copied in journal order. Replaying the image gives the same
//! state, `records`, `epochs` and `resume_clock` included (only the
//! scan-local `torn_bytes` and `undecodable` start over at 0), compacting
//! it again gives it back, and the same frames appended to a journal and
//! to its image replay alike. `records` thus still counts every record
//! the journal ever held, not the frames it holds now. Code from before
//! compaction misreads a compacted journal: to it the header (tag 7) is
//! an undecodable frame, so its `records` and `resume_clock` come out
//! short.

use crate::frame::{encode_frame_with, frame_len, FrameWalk, FRAME_HEADER};
use crate::record::{decode_view, Decoded, JobMeta, JournalRecord, RejectionReason, TerminalKind};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A non-terminal job reconstructed from the journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveredJob {
    pub meta: JobMeta,
    /// Fraction of the job's work durably checkpointed (0.0 = restart
    /// from scratch).
    pub resume_fraction: f64,
    /// Whether a BatchStarted record covered this job (it was running
    /// when the crash hit).
    pub was_in_flight: bool,
}

/// A terminal outcome reconstructed from the journal, keyed by
/// idempotency key in [`Terminals`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminalRecord {
    pub job: u64,
    pub tenant: u32,
    pub at: f64,
    pub latency: f64,
    pub kind: TerminalKind,
    /// Result digest (completions only; 0 for failures).
    pub digest: u64,
    pub deadline_met: Option<bool>,
}

/// Everything replay reconstructs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Admitted-but-never-started jobs, in admission order.
    pub queued: Vec<RecoveredJob>,
    /// Started-but-not-terminal jobs, in batch-start order.
    pub in_flight: Vec<RecoveredJob>,
    /// Terminal completions by idempotency key.
    pub completed: Terminals,
    /// Terminal failures by idempotency key.
    pub failed: Terminals,
    /// Durable rejections: (meta, reason), in order.
    pub rejected: Vec<(JobMeta, RejectionReason)>,
    /// Max instant of any durable record — where the next epoch's
    /// virtual clock starts.
    pub resume_clock: f64,
    /// Epochs seen (1 + number of prior restarts).
    pub epochs: u32,
    /// Records replayed.
    pub records: usize,
    /// Torn/corrupt tail bytes discarded by the frame decoder.
    pub torn_bytes: usize,
    /// Frames whose payload failed record decoding (should be 0 — CRC
    /// protects payloads — but counted rather than trusted).
    pub undecodable: usize,
}

/// Terminal outcomes by idempotency key, the first record of each key
/// kept. A lookup is one hash; key order is paid for only by a reader
/// that asks for it — [`Terminals::iter`] sorts — and no iteration in
/// the table's own order is public. Two tables are equal when they hold
/// the same entries.
#[derive(Clone, Default, PartialEq)]
pub struct Terminals(HashMap<u64, TerminalRecord, KeyHasher>);

impl Terminals {
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    pub fn get(&self, key: &u64) -> Option<&TerminalRecord> {
        self.0.get(key)
    }
    pub fn contains_key(&self, key: &u64) -> bool {
        self.0.contains_key(key)
    }

    /// The entries in ascending key order, sorted on each call.
    pub fn iter(&self) -> std::vec::IntoIter<(&u64, &TerminalRecord)> {
        let mut entries: Vec<_> = self.0.iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| *key);
        entries.into_iter()
    }

    /// Keeps `rec` unless `key` has a record already; says whether it did.
    fn first(&mut self, key: u64, rec: TerminalRecord) -> bool {
        let entry = self.0.entry(key);
        let vacant = matches!(entry, Entry::Vacant(_));
        entry.or_insert(rec);
        vacant
    }
}

impl fmt::Debug for Terminals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Hashes idempotency keys with one multiply by an odd constant drawn
/// once per process, the product's bytes swapped: a table reads a hash's
/// low bits for the bucket and its top seven as a tag, so the bucket
/// comes from the product's top bytes, which the most key bits reach
/// (multiply-shift hashing), and the tag from its low byte. It is its
/// own builder: a built hasher starts from 0 with the same multiplier.
///
/// Unlike job ids, these keys are FNV outputs of the submitter's
/// `(id, tenant, n)`, so whoever submits can choose them. The multiplier
/// comes from std's OS-seeded `RandomState`, and without it a crafted
/// list cannot aim its keys at one bucket; keys that share a low byte
/// share a tag, which costs a probe more key comparisons, no more. At
/// worst a crowded table makes recovery slow, never wrong: lookups
/// compare whole keys, and the table's order never reaches the output.
#[derive(Clone, Copy)]
pub struct KeyHasher {
    multiplier: u64,
    hash: u64,
}

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        static MULTIPLIER: OnceLock<u64> = OnceLock::new();
        let multiplier = *MULTIPLIER.get_or_init(|| RandomState::new().hash_one(0u64) | 1);
        KeyHasher {
            multiplier,
            hash: 0,
        }
    }
}

impl BuildHasher for KeyHasher {
    type Hasher = KeyHasher;
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { hash: 0, ..*self }
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(crate::fnv1a(bytes));
    }
    fn write_u64(&mut self, key: u64) {
        self.hash = key.wrapping_mul(self.multiplier).swap_bytes();
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Replay output: the recovered state, where the valid prefix ends, and
/// which of its frames the state depends on.
#[derive(Debug, Clone)]
pub struct Replay {
    pub state: RecoveredState,
    /// Bytes of the longest valid frame prefix (where the next frame
    /// would start); `state.torn_bytes` counts the rest.
    pub valid_bytes: usize,
    live: LiveFrames,
}

/// The frames the replayed state depends on, each by where it starts.
///
/// A *pinned* frame stays live whatever is appended after it: every
/// `EpochStart` and `Rejected` frame, the first `Completed` and the first
/// `Failed` frame of each idempotency key, and what closed each job — its
/// first `Completed` or `Failed` frame, or the admission of a job a
/// `Rejected` frame shed — so that an image refuses a later admission of
/// the id as the whole journal does. An *open* frame belongs to a job
/// that is not terminal: its first `Admitted` frame, the first
/// `BatchStarted` frame after that which lists it, and the checkpoint
/// that set its resume fraction. Every other frame is dead: the rest of a
/// terminal job's lifecycle, a key's later terminal frames, superseded
/// checkpoints, repeated admissions, frames that hold no record and an
/// earlier compaction's header.
#[derive(Debug, Clone, Default)]
struct LiveFrames {
    pinned: Vec<usize>,
    open: Vec<usize>,
}

impl Replay {
    /// Where the live frames start, in journal order (a batch frame that
    /// several open jobs need is listed once).
    fn live_starts(&self) -> Vec<usize> {
        let mut starts: Vec<usize> = self
            .live
            .pinned
            .iter()
            .chain(&self.live.open)
            .copied()
            .collect();
        starts.sort_unstable();
        starts.dedup();
        starts
    }

    /// Bytes of the live frames of `bytes`, the journal this replay read.
    pub(crate) fn live_bytes(&self, bytes: &[u8]) -> usize {
        self.live_starts()
            .into_iter()
            .map(|at| frame_len(bytes, at))
            .sum()
    }

    /// Bytes of the pinned frames of `bytes`, the journal this replay
    /// read: a floor under its live bytes that appending cannot lower.
    pub(crate) fn pinned_bytes(&self, bytes: &[u8]) -> usize {
        self.live
            .pinned
            .iter()
            .map(|&at| frame_len(bytes, at))
            .sum()
    }

    /// The compacted image of `bytes`, the journal this replay read: one
    /// [`JournalRecord::Compacted`] header frame carrying what the dead
    /// frames contributed (their record count and, through the state's
    /// clock, their largest instant), then the live frames copied byte
    /// for byte in journal order, CRCs and all. Replaying the image gives
    /// this replay's state in every field but the scan-local `torn_bytes`
    /// and `undecodable`; compacting it again gives it back unchanged.
    pub fn image(&self, bytes: &[u8]) -> Vec<u8> {
        let starts = self.live_starts();
        let header = JournalRecord::Compacted {
            records: (self.state.records - starts.len()) as u64,
            resume_clock: self.state.resume_clock,
        };
        let live: usize = starts.iter().map(|&at| frame_len(bytes, at)).sum();
        let mut out = Vec::with_capacity(2 * FRAME_HEADER + live);
        encode_frame_with(&mut out, |out| header.encode_into(out));
        for at in starts {
            out.extend_from_slice(&bytes[at..at + frame_len(bytes, at)]);
        }
        out
    }
}

/// Compacts a journal: [`replay`] it and build its [`Replay::image`].
pub fn compact(bytes: &[u8]) -> Vec<u8> {
    replay(bytes).image(bytes)
}

/// Hashes a job id for the fold's index, std only. The low bits, which
/// pick the bucket, are the id itself: ids are sequence numbers and the
/// records of a job sit close to those of its neighbours, so the ids the
/// fold touches together share a few cache lines of the table (a fully
/// mixed hash scatters them, and the 116 k-record hetero journal then
/// replays ≈ 25 % slower). The top seven bits, which the table compares
/// before it compares a key, come from one multiply by 2⁶⁴/φ so that
/// neighbouring ids carry different tags.
///
/// None of this defends against chosen keys, and nothing here needs it
/// to. The ids are the service's own sequence numbers, read back from
/// its own CRC-checked journal, and the index only finds an id's slot
/// in `Jobs::folds`: its order never reaches the output. A crafted
/// journal — ids that share their low bits, say — can make replay slow,
/// but it cannot change what replay returns.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }
    fn write_u64(&mut self, id: u64) {
        const TAG_BITS: u64 = 0x7F << 57;
        self.0 = id ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) & TAG_BITS);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Journal bytes per job id a service journal holds at least: every id
/// the fold tracks was admitted (a 53-byte frame without a deadline),
/// and a finished one also holds a terminal frame (51 bytes or more).
/// The fold sizes its id index from it, so a journal of finished jobs
/// replays without a rehash.
const BYTES_PER_JOB: usize = 104;

/// Per-id fold state, with where the frames it rests on start.
struct Fold {
    meta: JobMeta,
    fraction: f64,
    terminal: bool,
    /// The first `Admitted` frame.
    admitted: usize,
    /// The first `BatchStarted` frame after it that lists the job, or
    /// [`NONE`] while the job has not started.
    started: usize,
    /// The checkpoint frame that set `fraction`, or [`NONE`].
    checkpoint: usize,
}

/// No frame. A fold's frame fields are plain offsets: the per-job state
/// stays at 96 bytes, where an `Option` each would make it 112.
const NONE: usize = usize::MAX;

/// The fold's jobs in first-seen order — which *is* the output order of
/// `queued` and `in_flight` — found by id through a hashed index whose
/// own order never reaches the output.
struct Jobs {
    folds: Vec<Fold>,
    index: HashMap<u64, usize, BuildHasherDefault<IdHasher>>,
}

impl Jobs {
    /// The fold of an admitted id (none for an id closed unadmitted).
    fn get(&mut self, id: u64) -> Option<&mut Fold> {
        let &i = self.index.get(&id)?;
        self.folds.get_mut(i)
    }

    /// Tracks `meta.id` from its first admission (the frame at `at`) on;
    /// a repeat, or an admission after the id closed, changes nothing.
    fn admit(&mut self, meta: JobMeta, at: usize) {
        let folds = &mut self.folds;
        self.index.entry(meta.id).or_insert_with(|| {
            folds.push(Fold {
                meta,
                fraction: 0.0,
                terminal: false,
                admitted: at,
                started: NONE,
                checkpoint: NONE,
            });
            folds.len() - 1
        });
    }

    fn start(&mut self, ids: impl Iterator<Item = u64>, at: usize) {
        for id in ids {
            if let Some(f) = self.get(id) {
                // Frames only move forward: the first keeps the field.
                f.started = f.started.min(at);
            }
        }
    }

    /// A `Completed` or `Failed` frame closes `id` for good, admitted or
    /// not: an id nobody admitted is tracked as closed from here on.
    /// Returns whether this frame is the one that closed it.
    fn close(&mut self, id: u64) -> bool {
        match self.index.entry(id) {
            Entry::Occupied(slot) => self
                .folds
                .get_mut(*slot.get())
                .is_some_and(|f| !std::mem::replace(&mut f.terminal, true)),
            Entry::Vacant(slot) => {
                slot.insert(NONE);
                true
            }
        }
    }

    /// A `Rejected` frame closes `id` only if it is admitted and open
    /// (the brownout sheds from inside the queue; a job refused at the
    /// door may be admitted later). Returns the admission it closed.
    fn shed(&mut self, id: u64) -> Option<usize> {
        let f = self.get(id).filter(|f| !f.terminal)?;
        f.terminal = true;
        Some(f.admitted)
    }
}

/// Replays the durable journal bytes into a [`RecoveredState`]: one walk
/// over the frames, each payload decoded in place and folded as it is
/// reached, noting which frames the state rests on.
pub fn replay(bytes: &[u8]) -> Replay {
    let mut state = RecoveredState::default();
    let mut live = LiveFrames::default();
    let jobs_hint = bytes.len() / BYTES_PER_JOB;
    let mut jobs = Jobs {
        folds: Vec::with_capacity(jobs_hint),
        index: HashMap::with_capacity_and_hasher(jobs_hint, Default::default()),
    };

    let mut walk = FrameWalk::new(bytes);
    loop {
        let at = walk.valid_bytes();
        let Some(payload) = walk.next() else {
            break;
        };
        let Some(rec) = decode_view(payload) else {
            state.undecodable += 1;
            continue;
        };
        // A compaction header stands for the records it replaced.
        state.records = state.records.saturating_add(match &rec {
            Decoded::Record(JournalRecord::Compacted { records, .. }) => *records as usize,
            _ => 1,
        });
        if rec.instant() > state.resume_clock {
            state.resume_clock = rec.instant();
        }
        let rec = match rec {
            Decoded::Batch(b) => {
                jobs.start(b.job_ids(), at);
                continue;
            }
            Decoded::Record(rec) => rec,
        };
        match rec {
            JournalRecord::EpochStart { .. } => {
                state.epochs += 1;
                live.pinned.push(at);
            }
            JournalRecord::Compacted { .. } => {}
            JournalRecord::Admitted { meta, .. } => jobs.admit(meta, at),
            JournalRecord::Rejected { meta, reason, .. } => {
                // A rejection can terminate an *admitted* job too (the
                // brownout sheds from inside the queue); the journal's
                // rejection is then the job's terminal fact and recovery
                // must not resurrect it. The shed job's admission stays
                // live beside it, so that a resubmission admitted later
                // is refused by an image just as by the whole journal.
                if let Some(admitted) = jobs.shed(meta.id) {
                    live.pinned.push(admitted);
                }
                state.rejected.push((meta, reason));
                live.pinned.push(at);
            }
            JournalRecord::BatchStarted { job_ids, .. } => jobs.start(job_ids.into_iter(), at),
            JournalRecord::PanelCheckpoint { job, fraction, .. } => {
                if let Some(f) = jobs.get(job) {
                    if fraction > f.fraction {
                        f.fraction = fraction;
                        f.checkpoint = at;
                    }
                }
            }
            JournalRecord::Completed {
                at: instant,
                job,
                idempotency,
                tenant,
                latency,
                digest,
                deadline_met,
            } => {
                let rec = TerminalRecord {
                    job,
                    tenant,
                    at: instant,
                    latency,
                    kind: TerminalKind::Completed,
                    digest,
                    deadline_met,
                };
                let first = state.completed.first(idempotency, rec);
                if jobs.close(job) || first {
                    live.pinned.push(at);
                }
            }
            JournalRecord::Failed {
                at: instant,
                job,
                idempotency,
                tenant,
                latency,
                ..
            } => {
                let rec = TerminalRecord {
                    job,
                    tenant,
                    at: instant,
                    latency,
                    kind: TerminalKind::Failed,
                    digest: 0,
                    deadline_met: None,
                };
                let first = state.failed.first(idempotency, rec);
                if jobs.close(job) || first {
                    live.pinned.push(at);
                }
            }
        }
    }

    // Partition the non-terminal jobs; their frames are the open ones.
    for f in jobs.folds.iter().filter(|f| !f.terminal) {
        let started = f.started != NONE;
        let job = RecoveredJob {
            meta: f.meta,
            resume_fraction: f.fraction,
            was_in_flight: started,
        };
        if started {
            state.in_flight.push(job);
        } else {
            state.queued.push(job);
        }
        live.open.extend(
            [f.admitted, f.started, f.checkpoint]
                .into_iter()
                .filter(|&at| at != NONE),
        );
    }

    state.torn_bytes = walk.torn_bytes();
    Replay {
        state,
        valid_bytes: walk.valid_bytes(),
        live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frames, encode_frame};
    use crate::record::{idempotency_key, oracle};
    use std::collections::BTreeMap;

    fn meta(id: u64) -> JobMeta {
        JobMeta {
            id,
            tenant: 1,
            n: 512,
            priority: 1,
            deadline: None,
            submit_time: id as f64 * 0.1,
            idempotency: idempotency_key(id, 1, 512),
        }
    }

    fn journal_of(records: &[JournalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in records {
            encode_frame(&mut bytes, &r.encode());
        }
        bytes
    }

    /// The sort-based first-wins build the fold's [`Terminals`]
    /// replaced, kept as the oracle: one sort of `(key, position)`
    /// pairs, the first position of each key kept, a bulk tree build.
    fn first_wins(terminals: &[(u64, TerminalRecord)]) -> BTreeMap<u64, TerminalRecord> {
        let mut order: Vec<(u64, usize)> = terminals
            .iter()
            .enumerate()
            .map(|(i, &(key, _))| (key, i))
            .collect();
        order.sort_unstable();
        order.dedup_by_key(|&mut (key, _)| key);
        order
            .into_iter()
            .map(|(key, i)| (key, terminals[i].1))
            .collect()
    }

    /// What the reference fold returns: the state with its terminal
    /// tables left empty, and the terminal outcomes in ordered maps of
    /// its own.
    struct Reference {
        state: RecoveredState,
        completed: BTreeMap<u64, TerminalRecord>,
        failed: BTreeMap<u64, TerminalRecord>,
    }

    /// The ordered-map fold `replay` replaced, kept as the oracle: a
    /// tree descent per record, terminal maps filled one `entry` at a
    /// time, open jobs sorted by first-seen order — over the collected
    /// frame list and the cursor decoder. Since compaction, a terminal
    /// frame closes an id nobody admitted too (the `closed` set).
    fn replay_reference(bytes: &[u8]) -> Reference {
        let decode = decode_frames(bytes);
        let mut state = RecoveredState {
            torn_bytes: decode.torn_bytes,
            ..RecoveredState::default()
        };
        let mut completed = BTreeMap::new();
        let mut failed = BTreeMap::new();
        struct Fold {
            meta: JobMeta,
            started_at: Option<f64>,
            fraction: f64,
            terminal: bool,
            order: usize,
        }
        let mut jobs: BTreeMap<u64, Fold> = BTreeMap::new();
        let mut closed = std::collections::BTreeSet::new();
        let mut order = 0usize;
        for payload in &decode.payloads {
            let Some(rec) = oracle::decode(payload) else {
                state.undecodable += 1;
                continue;
            };
            state.records = state.records.saturating_add(match rec {
                JournalRecord::Compacted { records, .. } => records as usize,
                _ => 1,
            });
            if rec.instant() > state.resume_clock {
                state.resume_clock = rec.instant();
            }
            match rec {
                JournalRecord::EpochStart { .. } => state.epochs += 1,
                JournalRecord::Compacted { .. } => {}
                JournalRecord::Admitted { meta, .. } if !closed.contains(&meta.id) => {
                    jobs.entry(meta.id).or_insert_with(|| {
                        order += 1;
                        Fold {
                            meta,
                            started_at: None,
                            fraction: 0.0,
                            terminal: false,
                            order,
                        }
                    });
                }
                JournalRecord::Admitted { .. } => {}
                JournalRecord::Rejected { meta, reason, .. } => {
                    if let Some(f) = jobs.get_mut(&meta.id) {
                        f.terminal = true;
                    }
                    state.rejected.push((meta, reason));
                }
                JournalRecord::BatchStarted { at, job_ids, .. } => {
                    for id in job_ids {
                        if let Some(f) = jobs.get_mut(&id) {
                            f.started_at = Some(at);
                        }
                    }
                }
                JournalRecord::PanelCheckpoint { job, fraction, .. } => {
                    if let Some(f) = jobs.get_mut(&job) {
                        if fraction > f.fraction {
                            f.fraction = fraction;
                        }
                    }
                }
                JournalRecord::Completed {
                    at,
                    job,
                    idempotency,
                    tenant,
                    latency,
                    digest,
                    deadline_met,
                } => {
                    match jobs.get_mut(&job) {
                        Some(f) => f.terminal = true,
                        None => drop(closed.insert(job)),
                    }
                    completed.entry(idempotency).or_insert(TerminalRecord {
                        job,
                        tenant,
                        at,
                        latency,
                        kind: TerminalKind::Completed,
                        digest,
                        deadline_met,
                    });
                }
                JournalRecord::Failed {
                    at,
                    job,
                    idempotency,
                    tenant,
                    latency,
                    ..
                } => {
                    match jobs.get_mut(&job) {
                        Some(f) => f.terminal = true,
                        None => drop(closed.insert(job)),
                    }
                    failed.entry(idempotency).or_insert(TerminalRecord {
                        job,
                        tenant,
                        at,
                        latency,
                        kind: TerminalKind::Failed,
                        digest: 0,
                        deadline_met: None,
                    });
                }
            }
        }
        let mut open: Vec<&Fold> = jobs.values().filter(|f| !f.terminal).collect();
        open.sort_by_key(|f| f.order);
        for f in open {
            let job = RecoveredJob {
                meta: f.meta,
                resume_fraction: f.fraction,
                was_in_flight: f.started_at.is_some(),
            };
            if f.started_at.is_some() {
                state.in_flight.push(job);
            } else {
                state.queued.push(job);
            }
        }
        Reference {
            state,
            completed,
            failed,
        }
    }

    /// One record of a stream over a handful of job ids, so that every
    /// interaction the fold has a rule for actually occurs: repeated
    /// admissions, `Rejected` after `Admitted`, `BatchStarted` naming
    /// ids nobody admitted, and duplicate terminal keys whose digests
    /// differ (so first-wins and last-wins disagree).
    fn stream_record(kind: u32, id: u64, x: f64, y: f64, d: u64) -> JournalRecord {
        let m = JobMeta {
            submit_time: x,
            ..meta(id)
        };
        match kind {
            0 => JournalRecord::EpochStart {
                epoch: (d % 4) as u32,
                resume_clock: x,
                recovered_jobs: 0,
                suppressed_duplicates: 0,
            },
            1 | 2 => JournalRecord::Admitted { at: x, meta: m },
            3 => JournalRecord::Rejected {
                at: x,
                meta: m,
                reason: RejectionReason::Shed,
            },
            4 => JournalRecord::BatchStarted {
                at: x,
                batch: d,
                job_ids: (0..1 + d % 3).map(|i| id + 5 * i).collect(),
                devices: vec![0],
            },
            5 => JournalRecord::PanelCheckpoint {
                at: x,
                job: id,
                idempotency: m.idempotency,
                fraction: y,
            },
            6 => JournalRecord::Completed {
                at: x,
                job: id,
                idempotency: m.idempotency,
                tenant: 1,
                latency: y,
                digest: d,
                deadline_met: None,
            },
            9 => JournalRecord::Compacted {
                records: d,
                resume_clock: x,
            },
            _ => JournalRecord::Failed {
                at: x,
                job: id,
                idempotency: m.idempotency,
                tenant: 1,
                latency: y,
                attempts: 1 + (d % 3) as u32,
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The hashed one-pass fold equals the ordered-map fold on
        /// arbitrary streams, intact, torn and corrupted. Kind 8 is a
        /// CRC-valid frame that holds no record: counted, not folded;
        /// kind 9 is a compaction header.
        /// `malform` damages some payloads *before* they are framed —
        /// one byte changed, a byte or more cut, a byte appended — so
        /// the CRC holds and the record decoder's own reject paths (and
        /// the records a changed byte turns a payload into) reach the
        /// fold.
        #[test]
        fn replay_equals_the_reference_fold(
            raw in proptest::collection::vec(
                (0u32..10, 1u64..9, 0.0f64..100.0, 0.0f64..1.0, 0u64..1_000_000),
                1..64,
            ),
            malform in proptest::collection::vec((0u32..8, 0usize..256), 64..65),
            cut_sel in 0.0f64..1.0,
            flip_sel in 0.0f64..1.0,
            damage in 0u32..3,
        ) {
            let mut bytes = Vec::new();
            for (&(k, id, x, y, d), &(mode, b)) in raw.iter().zip(&malform) {
                if k == 8 {
                    encode_frame(&mut bytes, &[0xEE, id as u8]);
                    continue;
                }
                let mut payload = stream_record(k, id, x, y, d).encode();
                match mode {
                    5 => {
                        let at = b % payload.len();
                        payload[at] = payload[at].wrapping_add(1 + (b / 2) as u8);
                    }
                    6 => payload.truncate(payload.len().saturating_sub(1 + b % 9)),
                    7 => payload.push(b as u8),
                    _ => {}
                }
                encode_frame(&mut bytes, &payload);
            }
            match damage {
                1 => bytes.truncate((cut_sel * bytes.len() as f64) as usize),
                2 => {
                    let at = ((flip_sel * bytes.len() as f64) as usize).min(bytes.len() - 1);
                    bytes[at] ^= 0x20;
                }
                _ => {}
            }
            let mut got = replay(&bytes);
            let want = replay_reference(&bytes);
            proptest::prop_assert_eq!(bytes.len() - got.valid_bytes, want.state.torn_bytes);
            let completed = std::mem::take(&mut got.state.completed);
            let failed = std::mem::take(&mut got.state.failed);
            proptest::prop_assert_eq!(
                completed.iter().collect::<Vec<_>>(),
                want.completed.iter().collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(
                failed.iter().collect::<Vec<_>>(),
                want.failed.iter().collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(got.state, want.state);
        }

        /// A [`Terminals`] filled record by record equals the sort-based
        /// first-wins build on lists whose keys repeat: the same entries,
        /// strictly ascending from `iter`, the same answer from `get` and
        /// `contains_key` for every key drawn, and equal to the table of
        /// its own entries filled in the opposite order.
        #[test]
        fn terminals_equal_the_sorted_first_wins_build(
            list in proptest::collection::vec((0u64..24, 0u64..1_000), 0..64),
        ) {
            let terminals: Vec<(u64, TerminalRecord)> = list
                .iter()
                .map(|&(key, digest)| {
                    let key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let rec = TerminalRecord {
                        job: digest,
                        tenant: 1,
                        at: 0.5,
                        latency: 0.25,
                        kind: TerminalKind::Completed,
                        digest,
                        deadline_met: None,
                    };
                    (key, rec)
                })
                .collect();
            let mut table = Terminals::default();
            for &(key, rec) in &terminals {
                table.first(key, rec);
            }
            let want = first_wins(&terminals);
            let got: Vec<_> = table.iter().collect();
            proptest::prop_assert_eq!(&got, &want.iter().collect::<Vec<_>>());
            proptest::prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
            proptest::prop_assert_eq!(table.len(), want.len());
            proptest::prop_assert_eq!(table.is_empty(), want.is_empty());
            for (key, _) in &terminals {
                proptest::prop_assert_eq!(table.get(key), want.get(key));
                proptest::prop_assert!(table.contains_key(key));
            }
            proptest::prop_assert!(!table.contains_key(&1));
            let mut reversed = Terminals::default();
            for (&key, &rec) in want.iter().rev() {
                reversed.first(key, rec);
            }
            proptest::prop_assert_eq!(&reversed, &table);
            if let Some((&key, &rec)) = want.iter().next() {
                let mut other = Terminals::default();
                other.first(key, TerminalRecord { digest: rec.digest + 1, ..rec });
                for (&key, &rec) in want.iter().skip(1) {
                    other.first(key, rec);
                }
                proptest::prop_assert!(other != table);
            }
        }
    }

    #[test]
    fn replay_partitions_jobs() {
        let bytes = journal_of(&[
            JournalRecord::EpochStart {
                epoch: 0,
                resume_clock: 0.0,
                recovered_jobs: 0,
                suppressed_duplicates: 0,
            },
            JournalRecord::Admitted {
                at: 0.1,
                meta: meta(1),
            },
            JournalRecord::Admitted {
                at: 0.2,
                meta: meta(2),
            },
            JournalRecord::Admitted {
                at: 0.3,
                meta: meta(3),
            },
            JournalRecord::BatchStarted {
                at: 0.4,
                batch: 0,
                job_ids: vec![1, 2],
                devices: vec![0],
            },
            JournalRecord::PanelCheckpoint {
                at: 0.6,
                job: 1,
                idempotency: meta(1).idempotency,
                fraction: 0.25,
            },
            JournalRecord::PanelCheckpoint {
                at: 0.8,
                job: 1,
                idempotency: meta(1).idempotency,
                fraction: 0.5,
            },
            JournalRecord::Completed {
                at: 1.0,
                job: 2,
                idempotency: meta(2).idempotency,
                tenant: 1,
                latency: 0.8,
                digest: 42,
                deadline_met: None,
            },
        ]);
        let rep = replay(&bytes);
        let st = &rep.state;
        assert_eq!(st.epochs, 1);
        assert_eq!(st.records, 8);
        assert_eq!(st.torn_bytes, 0);
        // Job 1: in flight at fraction 0.5; job 3: queued; job 2: done.
        assert_eq!(st.in_flight.len(), 1);
        assert_eq!(st.in_flight[0].meta.id, 1);
        assert!((st.in_flight[0].resume_fraction - 0.5).abs() < 1e-12);
        assert!(st.in_flight[0].was_in_flight);
        assert_eq!(st.queued.len(), 1);
        assert_eq!(st.queued[0].meta.id, 3);
        assert_eq!(st.queued[0].resume_fraction, 0.0);
        assert_eq!(st.completed.len(), 1);
        assert_eq!(
            st.completed.get(&meta(2).idempotency).map(|t| t.digest),
            Some(42)
        );
        assert!((st.resume_clock - 1.0).abs() < 1e-12);
        let known = st.queued.len() + st.in_flight.len() + st.completed.len() + st.failed.len();
        assert_eq!(known, 3);
    }

    #[test]
    fn torn_tail_is_counted_and_prefix_survives() {
        let mut bytes = journal_of(&[JournalRecord::Admitted {
            at: 0.1,
            meta: meta(1),
        }]);
        let good = bytes.len();
        bytes.extend_from_slice(&journal_of(&[JournalRecord::Admitted {
            at: 0.2,
            meta: meta(2),
        }]));
        bytes.truncate(good + 5); // tear the second frame
        let rep = replay(&bytes);
        assert_eq!(rep.state.records, 1);
        assert_eq!(rep.state.queued.len(), 1);
        assert_eq!(rep.state.torn_bytes, 5);
        assert_eq!(rep.valid_bytes, good);
    }

    #[test]
    fn a_shed_admitted_job_is_not_resurrected() {
        let bytes = journal_of(&[
            JournalRecord::Admitted {
                at: 0.1,
                meta: meta(1),
            },
            JournalRecord::Rejected {
                at: 0.5,
                meta: meta(1),
                reason: RejectionReason::Shed,
            },
        ]);
        let rep = replay(&bytes);
        assert!(rep.state.queued.is_empty(), "the shed was terminal");
        assert!(rep.state.in_flight.is_empty());
        assert_eq!(rep.state.rejected.len(), 1);
    }

    #[test]
    fn duplicate_terminals_keep_the_first() {
        let key = meta(1).idempotency;
        let mk = |digest| JournalRecord::Completed {
            at: 1.0,
            job: 1,
            idempotency: key,
            tenant: 1,
            latency: 0.5,
            digest,
            deadline_met: None,
        };
        let bytes = journal_of(&[mk(7), mk(9)]);
        let rep = replay(&bytes);
        assert_eq!(rep.state.completed.len(), 1);
        assert_eq!(
            rep.state.completed.get(&key).map(|t| t.digest),
            Some(7),
            "first write wins"
        );
    }
}
