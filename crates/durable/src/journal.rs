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
//! Records may be appended *future-dated* (panel-checkpoint records are
//! journaled at dispatch time with the boundary's instant, because the
//! virtual event loop has no event at mid-batch instants); flushing
//! only ever makes records durable once the clock has actually reached
//! their instant, preserving the invariant that the durable log never
//! claims something that has not happened yet.

use crate::frame::{encode_frame_with, FRAME_HEADER};
use crate::record::JournalRecord;

/// Group-commit tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCommitConfig {
    /// Flush once this many records are pending and due.
    pub max_batch: usize,
    /// Flush once the oldest due pending record is this many virtual
    /// seconds old.
    pub max_delay: f64,
    /// Virtual seconds charged per fsync.
    pub fsync_cost: f64,
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
    bytes: Vec<u8>,
    commit_class: bool,
}

/// The write-ahead journal. The durable byte stream is an in-memory
/// `Vec<u8>` standing in for the append-only file — it survives the
/// service object across a simulated crash because the harness owns it.
#[derive(Debug)]
pub struct Journal {
    durable: Vec<u8>,
    pending: Vec<Pending>,
    config: GroupCommitConfig,
    stats: JournalStats,
}

impl Journal {
    pub fn new(config: GroupCommitConfig) -> Self {
        Journal {
            durable: Vec::new(),
            pending: Vec::new(),
            config,
            stats: JournalStats::default(),
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
            config,
            stats: JournalStats {
                torn_bytes: torn as u64,
                ..JournalStats::default()
            },
        }
    }

    pub fn config(&self) -> GroupCommitConfig {
        self.config
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
        let mut bytes = Vec::with_capacity(80);
        encode_frame_with(&mut bytes, |out| record.encode_into(out));
        self.pending.push(Pending {
            at,
            appended: now,
            bytes,
            commit_class: record.is_commit_class(),
        });
    }

    /// Appends a record at the current instant.
    pub fn append(&mut self, now: f64, record: &JournalRecord) {
        self.append_at(now, now, record);
    }

    fn flush_due(&mut self, now: f64) -> usize {
        // Stable partition in place (`retain` visits in order): due
        // records flush in append order, the rest keep their order.
        let durable = &mut self.durable;
        let before = self.pending.len();
        self.pending.retain(|p| {
            let due = p.at <= now;
            if due {
                durable.extend_from_slice(&p.bytes);
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
        // A pending buffer is exactly one frame `append_at` just built,
        // so the record sits right behind the header: no frame scan and
        // no checksum for bytes that never left this struct.
        self.pending
            .retain(|p| match JournalRecord::decode(&p.bytes[FRAME_HEADER..]) {
                Some(rec) => !pred(&rec),
                None => true,
            });
        before - self.pending.len()
    }

    /// Crash: pending (unflushed) records are lost.
    pub fn drop_pending(&mut self) {
        self.stats.records_dropped += self.pending.len() as u64;
        self.pending.clear();
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
