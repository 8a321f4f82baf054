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
//! * `completed` / `failed` — terminal outcomes by idempotency key; the
//!   resubmission-suppression set that makes completion exactly-once.
//! * `resume_clock` — the maximum instant of any durable record: the
//!   virtual instant the next epoch's clock starts at, keeping one
//!   monotone timeline across crashes.

use crate::frame::{decode_frames, DecodeOutcome};
use crate::record::{JobMeta, JournalRecord, RejectionReason, TerminalKind};
use std::collections::{BTreeMap, HashMap};

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
/// idempotency key in [`RecoveredState`].
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
    pub completed: BTreeMap<u64, TerminalRecord>,
    /// Terminal failures by idempotency key.
    pub failed: BTreeMap<u64, TerminalRecord>,
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

impl RecoveredState {
    /// Idempotency keys of every job the journal knows anything durable
    /// about — the suppression set for resubmissions.
    pub fn known_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.queued
            .iter()
            .chain(self.in_flight.iter())
            .map(|j| j.meta.idempotency)
            .chain(self.completed.keys().copied())
            .chain(self.failed.keys().copied())
    }
}

/// Replay output: the recovered state plus the decode outcome it was
/// built from (the harness inspects `decode.torn_bytes` to gate that
/// torn-tail recovery was actually exercised). The outcome borrows the
/// replayed bytes; take `.state` (owned) to outlive them.
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    pub state: RecoveredState,
    pub decode: DecodeOutcome<'a>,
}

/// Builds a terminal map from records in journal order, keeping the
/// *first* record of each key (`BTreeMap::from_iter` alone would keep
/// the last): one sort of `(key, journal position)` pairs and a bulk
/// build instead of a tree descent per record.
fn first_wins(terminals: Vec<(u64, TerminalRecord)>) -> BTreeMap<u64, TerminalRecord> {
    let mut order: Vec<(u64, usize)> = terminals
        .iter()
        .enumerate()
        .map(|(at, &(key, _))| (key, at))
        .collect();
    order.sort_unstable();
    order.dedup_by_key(|&mut (key, _)| key);
    order
        .into_iter()
        .map(|(key, at)| (key, terminals[at].1))
        .collect()
}

/// Replays the durable journal bytes into a [`RecoveredState`].
pub fn replay(bytes: &[u8]) -> Replay<'_> {
    let decode = decode_frames(bytes);
    let mut state = RecoveredState {
        torn_bytes: decode.torn_bytes,
        ..RecoveredState::default()
    };

    // Per-id fold state in first-seen order, found by id through a
    // hashed index whose own order never reaches the output.
    struct Fold {
        meta: JobMeta,
        started: bool,
        fraction: f64,
        terminal: bool,
    }
    let mut jobs: Vec<Fold> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut completed = Vec::new();
    let mut failed = Vec::new();

    for payload in &decode.payloads {
        let Some(rec) = JournalRecord::decode(payload) else {
            state.undecodable += 1;
            continue;
        };
        state.records += 1;
        if rec.instant() > state.resume_clock {
            state.resume_clock = rec.instant();
        }
        let mut close = |id: &u64| {
            if let Some(&i) = index.get(id) {
                jobs[i].terminal = true;
            }
        };
        match rec {
            JournalRecord::EpochStart { .. } => {
                state.epochs += 1;
            }
            JournalRecord::Admitted { meta, .. } => {
                index.entry(meta.id).or_insert_with(|| {
                    jobs.push(Fold {
                        meta,
                        started: false,
                        fraction: 0.0,
                        terminal: false,
                    });
                    jobs.len() - 1
                });
            }
            JournalRecord::Rejected { meta, reason, .. } => {
                // A rejection can terminate an *admitted* job too (the
                // brownout sheds from inside the queue); the journal's
                // rejection is then the job's terminal fact and recovery
                // must not resurrect it.
                close(&meta.id);
                state.rejected.push((meta, reason));
            }
            JournalRecord::BatchStarted { job_ids, .. } => {
                for id in &job_ids {
                    if let Some(&i) = index.get(id) {
                        jobs[i].started = true;
                    }
                }
            }
            JournalRecord::PanelCheckpoint { job, fraction, .. } => {
                if let Some(&i) = index.get(&job) {
                    if fraction > jobs[i].fraction {
                        jobs[i].fraction = fraction;
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
                close(&job);
                completed.push((
                    idempotency,
                    TerminalRecord {
                        job,
                        tenant,
                        at,
                        latency,
                        kind: TerminalKind::Completed,
                        digest,
                        deadline_met,
                    },
                ));
            }
            JournalRecord::Failed {
                at,
                job,
                idempotency,
                tenant,
                latency,
                ..
            } => {
                close(&job);
                failed.push((
                    idempotency,
                    TerminalRecord {
                        job,
                        tenant,
                        at,
                        latency,
                        kind: TerminalKind::Failed,
                        digest: 0,
                        deadline_met: None,
                    },
                ));
            }
        }
    }
    state.completed = first_wins(completed);
    state.failed = first_wins(failed);

    // Partition the non-terminal jobs.
    for f in jobs.iter().filter(|f| !f.terminal) {
        let job = RecoveredJob {
            meta: f.meta,
            resume_fraction: f.fraction,
            was_in_flight: f.started,
        };
        if f.started {
            state.in_flight.push(job);
        } else {
            state.queued.push(job);
        }
    }

    Replay { state, decode }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::record::idempotency_key;

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

    /// The ordered-map fold `replay` replaced, kept verbatim as the
    /// oracle: a tree descent per record, terminal maps filled one
    /// `entry` at a time, open jobs sorted by first-seen order.
    fn replay_reference(bytes: &[u8]) -> RecoveredState {
        let decode = decode_frames(bytes);
        let mut state = RecoveredState {
            torn_bytes: decode.torn_bytes,
            ..RecoveredState::default()
        };
        struct Fold {
            meta: JobMeta,
            started_at: Option<f64>,
            fraction: f64,
            terminal: bool,
            order: usize,
        }
        let mut jobs: BTreeMap<u64, Fold> = BTreeMap::new();
        let mut order = 0usize;
        for payload in &decode.payloads {
            let Some(rec) = JournalRecord::decode(payload) else {
                state.undecodable += 1;
                continue;
            };
            state.records += 1;
            if rec.instant() > state.resume_clock {
                state.resume_clock = rec.instant();
            }
            match rec {
                JournalRecord::EpochStart { .. } => state.epochs += 1,
                JournalRecord::Admitted { meta, .. } => {
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
                    if let Some(f) = jobs.get_mut(&job) {
                        f.terminal = true;
                    }
                    state
                        .completed
                        .entry(idempotency)
                        .or_insert(TerminalRecord {
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
                    if let Some(f) = jobs.get_mut(&job) {
                        f.terminal = true;
                    }
                    state.failed.entry(idempotency).or_insert(TerminalRecord {
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
        state
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
        /// CRC-valid frame that holds no record: counted, not folded.
        #[test]
        fn replay_equals_the_reference_fold(
            raw in proptest::collection::vec(
                (0u32..9, 1u64..9, 0.0f64..100.0, 0.0f64..1.0, 0u64..1_000_000),
                1..64,
            ),
            cut_sel in 0.0f64..1.0,
            flip_sel in 0.0f64..1.0,
            damage in 0u32..3,
        ) {
            let mut bytes = Vec::new();
            for &(k, id, x, y, d) in &raw {
                if k == 8 {
                    encode_frame(&mut bytes, &[0xEE, id as u8]);
                } else {
                    encode_frame(&mut bytes, &stream_record(k, id, x, y, d).encode());
                }
            }
            match damage {
                1 => bytes.truncate((cut_sel * bytes.len() as f64) as usize),
                2 => {
                    let at = ((flip_sel * bytes.len() as f64) as usize).min(bytes.len() - 1);
                    bytes[at] ^= 0x20;
                }
                _ => {}
            }
            let got = replay(&bytes);
            let want = replay_reference(&bytes);
            proptest::prop_assert_eq!(got.decode.torn_bytes, want.torn_bytes);
            proptest::prop_assert_eq!(got.state, want);
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
        assert_eq!(st.completed[&meta(2).idempotency].digest, 42);
        assert!((st.resume_clock - 1.0).abs() < 1e-12);
        assert_eq!(st.known_keys().count(), 3);
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
        assert_eq!(rep.decode.valid_bytes, good);
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
        assert_eq!(rep.state.completed[&key].digest, 7, "first write wins");
    }
}
