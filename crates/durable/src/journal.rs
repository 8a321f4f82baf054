//! The append path: a write-ahead journal with group-commit flush
//! batching costed on the virtual clock.
//!
//! The journal models a single append-only file. Records are appended
//! into a *pending* buffer stamped with their virtual-clock instant;
//! [`Journal::maybe_flush`] moves due records into the durable byte
//! stream when a flush trigger fires (pending count or age), and
//! [`Journal::commit`] forces everything due *now* durable in one fsync
//! — so all the commit-class records of one virtual instant (a batch of
//! completions flushing together) share a single fsync, which is group
//! commit. Each fsync charges `fsync_cost` virtual seconds to an
//! overhead accumulator; the cost is *accounted* rather than injected
//! into the event loop, so durability never perturbs the schedule
//! digest a crash-free control run produces.
//!
//! The crash seam lives here too: a crash loses exactly the pending
//! (unflushed) records — [`Journal::drop_pending`] — and a torn write
//! additionally truncates the durable tail mid-record —
//! [`Journal::tear_tail`]. Recovery then reads [`Journal::durable`]
//! through [`crate::decode_frames`], which discards the torn suffix.
//!
//! Compaction lives here too, as a swap of the durable bytes for a
//! compacted image ([`crate::Replay::image`]): [`Journal::compaction_after`]
//! reuses a restart's own replay, [`Journal::compaction_at_finish`] folds
//! the journal when a run finishes, and [`Journal::swap_in`] replaces the
//! bytes in one step. Both run only on a journal of at least
//! `COMPACT_FLOOR` bytes whose dead bytes are at least its live bytes
//! (DESIGN.md §14).
//!
//! Records may be appended *future-dated* (panel-checkpoint records are
//! journaled at dispatch time with the boundary's instant, because the
//! virtual event loop has no event at mid-batch instants); flushing
//! only ever makes records durable once the clock has actually reached
//! their instant, preserving the invariant that the durable log never
//! claims something that has not happened yet.

use crate::frame::{encode_frame_with, FRAME_HEADER};
use crate::record::JournalRecord;
use crate::replay::{replay, Replay};
use std::ops::Range;

/// Compaction waits for a journal of at least this many bytes. Below it a
/// cold restart replays the whole journal in a few milliseconds, and
/// every small-mix journal stays byte for byte what it was.
const COMPACT_FLOOR: usize = 1 << 20;

/// Compaction waits until the dead bytes are at least this many times the
/// live ones, so the copy it costs is paid for by the replay it saves and
/// a compacted journal is not compacted again until it has doubled.
const DEAD_PER_LIVE: usize = 1;

/// Group-commit tuning, built outside this crate only by [`Default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCommitConfig {
    /// Flush once this many records are pending and due (`perf/` reads it).
    pub max_batch: usize,
    /// Flush once the oldest due pending record is this many virtual
    /// seconds old.
    max_delay: f64,
    /// Virtual seconds charged per fsync.
    fsync_cost: f64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 8,
            max_delay: 0.05,
            fsync_cost: 0.001,
        }
    }
}

/// Counters the journal keeps about itself (exported as Prometheus
/// series by the service).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JournalStats {
    /// Records made durable.
    pub records_flushed: u64,
    /// fsyncs performed (group commit makes this < records_flushed
    /// under load).
    pub fsyncs: u64,
    /// Virtual seconds of fsync cost accounted so far.
    pub fsync_seconds: f64,
    /// Records lost to crashes before they could flush.
    pub records_dropped: u64,
    /// Bytes truncated off the durable tail by torn writes.
    pub torn_bytes: u64,
}

#[derive(Debug)]
struct Pending {
    at: f64,
    appended: f64,
    /// Where the record's frame sits in [`Journal`]'s pending arena.
    frame: Range<usize>,
    commit_class: bool,
}

/// Keeps the pending records `keep` accepts, in order, and packs their
/// frames to the front of `arena`. `keep` sees each record with its
/// frame.
fn retain_pending(
    pending: &mut Vec<Pending>,
    arena: &mut Vec<u8>,
    mut keep: impl FnMut(&Pending, &[u8]) -> bool,
) {
    let mut packed = 0;
    pending.retain_mut(|p| {
        if !keep(p, &arena[p.frame.clone()]) {
            return false;
        }
        // Frames only move towards the front, past bytes already seen.
        let len = p.frame.len();
        arena.copy_within(p.frame.clone(), packed);
        p.frame = packed..packed + len;
        packed += len;
        true
    });
    arena.truncate(packed);
}

/// The write-ahead journal. The durable byte stream is an in-memory
/// `Vec<u8>` standing in for the append-only file — it survives the
/// service object across a simulated crash because the harness owns it.
#[derive(Debug)]
pub struct Journal {
    durable: Vec<u8>,
    pending: Vec<Pending>,
    /// The frames of `pending`, back to back: one buffer reused from
    /// flush to flush instead of one allocation per record.
    arena: Vec<u8>,
    config: GroupCommitConfig,
    stats: JournalStats,
    /// Bytes of the durable frames the last fold found pinned (0 before
    /// any): a floor under the live bytes that appending cannot lower.
    pinned: usize,
}

impl Journal {
    pub fn new(config: GroupCommitConfig) -> Self {
        Journal {
            durable: Vec::new(),
            pending: Vec::new(),
            arena: Vec::new(),
            config,
            stats: JournalStats::default(),
            pinned: 0,
        }
    }

    /// Reopens a journal on existing durable bytes (the restart path).
    /// `valid_bytes` is the longest valid prefix reported by
    /// [`crate::decode_frames`]; anything past it is a torn tail that
    /// gets truncated away before new appends.
    pub fn reopen(bytes: Vec<u8>, valid_bytes: usize, config: GroupCommitConfig) -> Self {
        let torn = bytes.len().saturating_sub(valid_bytes);
        let mut durable = bytes;
        durable.truncate(valid_bytes);
        Journal {
            durable,
            pending: Vec::new(),
            arena: Vec::new(),
            config,
            stats: JournalStats {
                torn_bytes: torn as u64,
                ..JournalStats::default()
            },
            pinned: 0,
        }
    }

    pub fn fsync_cost(&self) -> f64 {
        self.config.fsync_cost
    }

    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The durable byte stream (what survives a crash).
    pub fn durable(&self) -> &[u8] {
        &self.durable
    }

    /// Consumes the journal, returning the durable bytes — the crash
    /// path: pending records are counted as dropped and lost.
    pub fn into_durable(mut self) -> (Vec<u8>, JournalStats) {
        self.drop_pending();
        (self.durable, self.stats)
    }

    pub fn durable_bytes(&self) -> usize {
        self.durable.len()
    }

    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Appends a record effective at virtual instant `at` (which may be
    /// in the future — panel checkpoints are journaled at dispatch time
    /// with their boundary instants). `now` is the append instant used
    /// for flush-age accounting.
    pub fn append_at(&mut self, now: f64, at: f64, record: &JournalRecord) {
        let start = self.arena.len();
        encode_frame_with(&mut self.arena, |out| record.encode_into(out));
        self.pending.push(Pending {
            at,
            appended: now,
            frame: start..self.arena.len(),
            commit_class: record.is_commit_class(),
        });
    }

    /// Appends a record at the current instant.
    pub fn append(&mut self, now: f64, record: &JournalRecord) {
        self.append_at(now, now, record);
    }

    fn flush_due(&mut self, now: f64) -> usize {
        // Stable partition in place (`retain_pending` visits in order): due
        // records flush in append order, the rest keep their order.
        let durable = &mut self.durable;
        let before = self.pending.len();
        retain_pending(&mut self.pending, &mut self.arena, |p, frame| {
            let due = p.at <= now;
            if due {
                durable.extend_from_slice(frame);
            }
            !due
        });
        let flushed = before - self.pending.len();
        if flushed > 0 {
            self.stats.records_flushed += flushed as u64;
            self.stats.fsyncs += 1;
            self.stats.fsync_seconds += self.config.fsync_cost;
        }
        flushed
    }

    /// Flushes due pending records if a group-commit trigger fires:
    /// enough due records, a due record old enough, or a due
    /// commit-class record. Returns how many records were flushed.
    pub fn maybe_flush(&mut self, now: f64) -> usize {
        let mut due = 0usize;
        let mut oldest_due = f64::INFINITY;
        let mut commit_due = false;
        for p in &self.pending {
            if p.at <= now {
                due += 1;
                if p.appended < oldest_due {
                    oldest_due = p.appended;
                }
                commit_due |= p.commit_class;
            }
        }
        if due == 0 {
            return 0;
        }
        let aged = now - oldest_due >= self.config.max_delay;
        if due >= self.config.max_batch || aged || commit_due {
            self.flush_due(now)
        } else {
            0
        }
    }

    /// Forces every due pending record durable now (one fsync for the
    /// lot — the ack barrier before a terminal outcome is reported).
    pub fn commit(&mut self, now: f64) -> usize {
        self.flush_due(now)
    }

    /// Removes pending (unflushed) records the predicate matches,
    /// returning how many were retracted. This is the preemption path:
    /// a batch truncated at a panel boundary must retract the
    /// future-dated checkpoint records past that boundary before they
    /// can flush — the durable log must never claim progress that was
    /// cut away. Only pending records can be retracted; durable bytes
    /// are append-only by construction.
    pub fn retract_pending(&mut self, mut pred: impl FnMut(&JournalRecord) -> bool) -> usize {
        let before = self.pending.len();
        // A pending frame is exactly what `append_at` just built, so the
        // record sits right behind the header: no frame scan and no
        // checksum for bytes that never left this struct.
        retain_pending(
            &mut self.pending,
            &mut self.arena,
            |_, frame| match JournalRecord::decode(&frame[FRAME_HEADER..]) {
                Some(rec) => !pred(&rec),
                None => true,
            },
        );
        before - self.pending.len()
    }

    /// Whether the durable bytes are due for compaction when `live` of
    /// them are live.
    fn compaction_due(&self, live: usize) -> bool {
        let len = self.durable.len();
        len >= COMPACT_FLOOR && len.saturating_sub(live) >= DEAD_PER_LIVE * live
    }

    /// The compacted image to swap in, if compaction is due, given `rep`:
    /// a replay of exactly these durable bytes, such as the one a restart
    /// has just made, so this costs no second fold. It remembers the
    /// pinned bytes `rep` found for [`Self::compaction_at_finish`].
    pub fn compaction_after(&mut self, rep: &Replay) -> Option<Vec<u8>> {
        self.pinned = rep.pinned_bytes(&self.durable);
        let due =
            self.compaction_due(self.pinned) && self.compaction_due(rep.live_bytes(&self.durable));
        due.then(|| rep.image(&self.durable))
    }

    /// The compacted image to swap in, if compaction is due, when a run
    /// finishes: one fold of the durable bytes. The fold is skipped when
    /// the pinned bytes of the last fold already prove the dead bytes
    /// fewer than the live ones; those frames are all still here, since
    /// durable bytes are only appended to.
    pub fn compaction_at_finish(&mut self) -> Option<Vec<u8>> {
        if !self.compaction_due(self.pinned) {
            return None;
        }
        let rep = replay(&self.durable);
        self.compaction_after(&rep)
    }

    /// Replaces the durable bytes with a compacted image in one step, as
    /// writing a new file and renaming it over the old one does: a crash
    /// leaves either the old bytes or the whole image. Appends nothing.
    pub fn swap_in(&mut self, image: Vec<u8>) {
        self.durable = image;
    }

    /// Crash: pending (unflushed) records are lost.
    pub fn drop_pending(&mut self) {
        self.stats.records_dropped += self.pending.len() as u64;
        self.pending.clear();
        self.arena.clear();
    }

    /// Crash with a torn write: additionally truncates `n` bytes off
    /// the durable tail, leaving a partial frame for recovery to
    /// detect. Returns how many bytes were actually torn.
    pub fn tear_tail(&mut self, n: usize) -> usize {
        let torn = n.min(self.durable.len());
        self.durable.truncate(self.durable.len() - torn);
        self.stats.torn_bytes += torn as u64;
        torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_frames;
    use crate::record::{JobMeta, RejectionReason};

    fn meta(id: u64) -> JobMeta {
        JobMeta {
            id,
            tenant: 0,
            n: 256,
            priority: 0,
            deadline: None,
            submit_time: 0.0,
            idempotency: id,
        }
    }

    fn admitted(id: u64, at: f64) -> JournalRecord {
        JournalRecord::Admitted { at, meta: meta(id) }
    }

    #[test]
    fn lazy_records_wait_for_a_trigger() {
        let mut j = Journal::new(GroupCommitConfig {
            max_batch: 4,
            max_delay: 1.0,
            fsync_cost: 0.001,
        });
        j.append(0.0, &admitted(1, 0.0));
        j.append(0.1, &admitted(2, 0.1));
        assert_eq!(j.maybe_flush(0.2), 0, "below batch size and age");
        j.append(0.2, &admitted(3, 0.2));
        j.append(0.3, &admitted(4, 0.3));
        assert_eq!(j.maybe_flush(0.3), 4, "batch trigger");
        assert_eq!(j.stats().fsyncs, 1, "one fsync for the group");
    }

    #[test]
    fn age_triggers_a_flush() {
        let mut j = Journal::new(GroupCommitConfig {
            max_batch: 100,
            max_delay: 0.5,
            fsync_cost: 0.001,
        });
        j.append(0.0, &admitted(1, 0.0));
        assert_eq!(j.maybe_flush(0.4), 0);
        assert_eq!(j.maybe_flush(0.6), 1);
    }

    #[test]
    fn commit_class_flushes_immediately() {
        let mut j = Journal::new(GroupCommitConfig::default());
        j.append(0.0, &admitted(1, 0.0));
        j.append(
            0.1,
            &JournalRecord::Rejected {
                at: 0.1,
                meta: meta(2),
                reason: RejectionReason::QueueFull,
            },
        );
        // The commit-class record pulls the lazy one along in the same
        // fsync.
        assert_eq!(j.maybe_flush(0.1), 2);
        assert_eq!(j.stats().fsyncs, 1);
    }

    #[test]
    fn future_dated_records_hold_until_due() {
        let mut j = Journal::new(GroupCommitConfig::default());
        j.append_at(
            0.0,
            5.0,
            &JournalRecord::PanelCheckpoint {
                at: 5.0,
                job: 1,
                idempotency: 1,
                fraction: 0.5,
            },
        );
        assert_eq!(j.commit(1.0), 0, "not due yet");
        assert_eq!(j.commit(5.0), 1, "due at its instant");
        let out = decode_frames(j.durable());
        assert_eq!(out.payloads.len(), 1);
    }

    #[test]
    fn crash_loses_pending_and_tears_tail() {
        let mut j = Journal::new(GroupCommitConfig::default());
        j.append(0.0, &admitted(1, 0.0));
        j.commit(0.0);
        let clean = j.durable_bytes();
        j.append(1.0, &admitted(2, 1.0));
        j.drop_pending();
        assert_eq!(j.durable_bytes(), clean, "pending lost, durable intact");
        assert_eq!(j.stats().records_dropped, 1);
        let torn = j.tear_tail(3);
        assert_eq!(torn, 3);
        let out = decode_frames(j.durable());
        assert_eq!(out.payloads.len(), 0, "record 1's frame is now torn");
    }

    #[test]
    fn retract_pending_drops_only_matching_records() {
        let mut j = Journal::new(GroupCommitConfig::default());
        j.append(0.0, &admitted(1, 0.0));
        for k in 1..4u64 {
            j.append_at(
                0.0,
                k as f64,
                &JournalRecord::PanelCheckpoint {
                    at: k as f64,
                    job: 9,
                    idempotency: 9,
                    fraction: 0.25 * k as f64,
                },
            );
        }
        // Preemption at t=2: checkpoints past the boundary retract.
        let retracted = j.retract_pending(
            |r| matches!(r, JournalRecord::PanelCheckpoint { job: 9, at, .. } if *at > 2.0),
        );
        assert_eq!(retracted, 1);
        assert_eq!(j.pending_records(), 3);
        assert_eq!(j.commit(10.0), 3, "survivors still flush");
    }

    /// `jobs` finished jobs, each admitted, started, checkpointed and
    /// completed: 199 bytes a job, of which only the 56-byte completion
    /// stays live.
    fn finished_jobs(jobs: u64) -> Journal {
        let mut j = Journal::new(GroupCommitConfig::default());
        for id in 0..jobs {
            let at = id as f64;
            j.append(at, &admitted(id, at));
            let started = JournalRecord::BatchStarted {
                at,
                batch: id,
                job_ids: vec![id],
                devices: vec![0],
            };
            j.append(at, &started);
            let checkpoint = JournalRecord::PanelCheckpoint {
                at,
                job: id,
                idempotency: id,
                fraction: 0.5,
            };
            j.append(at, &checkpoint);
            let completed = JournalRecord::Completed {
                at,
                job: id,
                idempotency: id,
                tenant: 0,
                latency: 0.5,
                digest: id,
                deadline_met: None,
            };
            j.append(at, &completed);
            j.commit(at);
        }
        j
    }

    #[test]
    fn compaction_waits_for_the_floor_and_for_dead_bytes() {
        // Under the floor: kept whole, though most of it is dead.
        let mut small = finished_jobs(1_000);
        assert!(small.compaction_at_finish().is_none());

        let mut j = finished_jobs(6_000);
        let before = j.durable().to_vec();
        assert!(before.len() >= COMPACT_FLOOR);
        let image = j
            .compaction_at_finish()
            .expect("due: 143 dead bytes per 56 live");
        assert_eq!(image.len(), FRAME_HEADER + 17 + 6_000 * 56);
        assert_eq!(j.durable(), &before[..], "building the image swaps nothing");
        let (mut want, mut got) = (replay(&before).state, replay(&image).state);
        assert_eq!(
            got.records, 24_000,
            "the header carries the dropped records"
        );
        (want.torn_bytes, got.torn_bytes) = (0, 0);
        assert_eq!(got, want);

        j.swap_in(image.clone());
        assert_eq!(j.durable(), &image[..]);
        // The pinned bytes of the fold already prove an image not due: no
        // second fold, at finish or after a restart's replay.
        assert!(j.compaction_at_finish().is_none());
        assert!(j.compaction_after(&replay(&image)).is_none());
    }

    #[test]
    fn reopen_truncates_the_torn_tail() {
        let mut j = Journal::new(GroupCommitConfig::default());
        j.append(0.0, &admitted(1, 0.0));
        j.commit(0.0);
        let mut bytes = j.durable().to_vec();
        let valid = bytes.len();
        bytes.extend_from_slice(&[1, 2, 3]);
        let j2 = Journal::reopen(bytes, valid, GroupCommitConfig::default());
        assert_eq!(j2.durable_bytes(), valid);
        assert_eq!(j2.stats().torn_bytes, 3);
        assert_eq!(decode_frames(j2.durable()).payloads.len(), 1);
    }
}
