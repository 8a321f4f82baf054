//! The journal's record vocabulary: one record per job lifecycle
//! transition, plus an epoch marker per (re)start.
//!
//! Records are encoded by hand into a compact little-endian form — a
//! one-byte tag followed by fixed-width fields (lengths prefix the
//! variable parts). The encoding is the *canonical* representation: the
//! exactly-once invariant and the `reproduce crash` digest gates both
//! hash these bytes, so encode/decode must round-trip bit-identically
//! (property-tested in `tests/journal_proptest.rs`).

use crate::fnv1a_words;

/// The journal's view of a job: everything recovery needs to rebuild a
/// `JobSpec`, deliberately decoupled from the service's own type so the
/// log format survives service-side refactors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMeta {
    /// Submission id (unique within a run).
    pub id: u64,
    /// Tenant index.
    pub tenant: u32,
    /// Problem size (multiplies two n×n matrices).
    pub n: u32,
    /// Priority class (higher = more urgent).
    pub priority: u8,
    /// Absolute virtual-clock deadline, if any.
    pub deadline: Option<f64>,
    /// Virtual-clock submission instant.
    pub submit_time: f64,
    /// Idempotency key — see [`idempotency_key`].
    pub idempotency: u64,
}

/// The idempotency key of a job: an FNV-1a fold of the fields that
/// identify "the same request" across resubmissions. A client retrying
/// after a crash resends the same id/tenant/size, so two submissions
/// with equal keys are the same logical job and must complete once.
pub fn idempotency_key(id: u64, tenant: u32, n: u32) -> u64 {
    fnv1a_words(&[id, u64::from(tenant), u64::from(n)])
}

/// Why a job was turned away (journal-side mirror of the service's
/// rejection enum; `Duplicate` is what resubmission suppression emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectionReason {
    QueueFull,
    QuotaExceeded,
    TooLarge,
    DeadlineInfeasible,
    Shed,
    Duplicate,
}

impl RejectionReason {
    fn code(self) -> u8 {
        match self {
            RejectionReason::QueueFull => 0,
            RejectionReason::QuotaExceeded => 1,
            RejectionReason::TooLarge => 2,
            RejectionReason::DeadlineInfeasible => 3,
            RejectionReason::Shed => 4,
            RejectionReason::Duplicate => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => RejectionReason::QueueFull,
            1 => RejectionReason::QuotaExceeded,
            2 => RejectionReason::TooLarge,
            3 => RejectionReason::DeadlineInfeasible,
            4 => RejectionReason::Shed,
            5 => RejectionReason::Duplicate,
            _ => return None,
        })
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    Completed,
    Failed,
}

/// One journal record. The `at` field on each variant is the
/// virtual-clock instant the transition happened (which is also the
/// instant group commit orders flushes by).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A (re)start marker: every epoch begins with one. `resume_clock`
    /// is the virtual instant the epoch's event loop starts at (0.0 for
    /// the first epoch), and the two counts record what recovery found.
    EpochStart {
        epoch: u32,
        resume_clock: f64,
        recovered_jobs: u32,
        suppressed_duplicates: u32,
    },
    /// A job passed admission and entered the queue.
    Admitted { at: f64, meta: JobMeta },
    /// A job was turned away at admission.
    Rejected {
        at: f64,
        meta: JobMeta,
        reason: RejectionReason,
    },
    /// A batch was dispatched onto a device set.
    BatchStarted {
        at: f64,
        batch: u64,
        job_ids: Vec<u64>,
        devices: Vec<u32>,
    },
    /// A running job crossed a panel boundary; `fraction` of its work is
    /// now checkpointed and resumable.
    PanelCheckpoint {
        at: f64,
        job: u64,
        idempotency: u64,
        fraction: f64,
    },
    /// A job finished successfully. `digest` is the FNV digest of the
    /// result, `deadline_met` is None for deadline-free jobs.
    Completed {
        at: f64,
        job: u64,
        idempotency: u64,
        tenant: u32,
        latency: f64,
        digest: u64,
        deadline_met: Option<bool>,
    },
    /// A job exhausted its retry budget.
    Failed {
        at: f64,
        job: u64,
        idempotency: u64,
        tenant: u32,
        latency: f64,
        attempts: u32,
    },
}

const TAG_EPOCH: u8 = 0;
const TAG_ADMITTED: u8 = 1;
const TAG_REJECTED: u8 = 2;
const TAG_BATCH: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;
const TAG_COMPLETED: u8 = 5;
const TAG_FAILED: u8 = 6;

struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
    fn meta(&mut self, m: &JobMeta) {
        self.u64(m.id);
        self.u32(m.tenant);
        self.u32(m.n);
        self.u8(m.priority);
        self.opt_f64(m.deadline);
        self.f64(m.submit_time);
        self.u64(m.idempotency);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(out)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn opt_f64(&mut self) -> Option<Option<f64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.f64()?)),
            _ => None,
        }
    }
    fn meta(&mut self) -> Option<JobMeta> {
        Some(JobMeta {
            id: self.u64()?,
            tenant: self.u32()?,
            n: self.u32()?,
            priority: self.u8()?,
            deadline: self.opt_f64()?,
            submit_time: self.f64()?,
            idempotency: self.u64()?,
        })
    }
    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

impl JournalRecord {
    /// The virtual-clock instant this record belongs to (epoch markers
    /// sort at their resume clock).
    pub fn instant(&self) -> f64 {
        match self {
            JournalRecord::EpochStart { resume_clock, .. } => *resume_clock,
            JournalRecord::Admitted { at, .. }
            | JournalRecord::Rejected { at, .. }
            | JournalRecord::BatchStarted { at, .. }
            | JournalRecord::PanelCheckpoint { at, .. }
            | JournalRecord::Completed { at, .. }
            | JournalRecord::Failed { at, .. } => *at,
        }
    }

    /// Canonical little-endian encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the canonical encoding to `out` (what [`Self::encode`]
    /// returns, without the buffer of its own).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        match self {
            JournalRecord::EpochStart {
                epoch,
                resume_clock,
                recovered_jobs,
                suppressed_duplicates,
            } => {
                w.u8(TAG_EPOCH);
                w.u32(*epoch);
                w.f64(*resume_clock);
                w.u32(*recovered_jobs);
                w.u32(*suppressed_duplicates);
            }
            JournalRecord::Admitted { at, meta } => {
                w.u8(TAG_ADMITTED);
                w.f64(*at);
                w.meta(meta);
            }
            JournalRecord::Rejected { at, meta, reason } => {
                w.u8(TAG_REJECTED);
                w.f64(*at);
                w.meta(meta);
                w.u8(reason.code());
            }
            JournalRecord::BatchStarted {
                at,
                batch,
                job_ids,
                devices,
            } => {
                w.u8(TAG_BATCH);
                w.f64(*at);
                w.u64(*batch);
                w.u32(job_ids.len() as u32);
                for id in job_ids {
                    w.u64(*id);
                }
                w.u32(devices.len() as u32);
                for d in devices {
                    w.u32(*d);
                }
            }
            JournalRecord::PanelCheckpoint {
                at,
                job,
                idempotency,
                fraction,
            } => {
                w.u8(TAG_CHECKPOINT);
                w.f64(*at);
                w.u64(*job);
                w.u64(*idempotency);
                w.f64(*fraction);
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
                w.u8(TAG_COMPLETED);
                w.f64(*at);
                w.u64(*job);
                w.u64(*idempotency);
                w.u32(*tenant);
                w.f64(*latency);
                w.u64(*digest);
                w.u8(match deadline_met {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }
            JournalRecord::Failed {
                at,
                job,
                idempotency,
                tenant,
                latency,
                attempts,
            } => {
                w.u8(TAG_FAILED);
                w.f64(*at);
                w.u64(*job);
                w.u64(*idempotency);
                w.u32(*tenant);
                w.f64(*latency);
                w.u32(*attempts);
            }
        }
    }

    /// Decodes one record; `None` on an unknown tag, short payload, or
    /// trailing bytes (a payload must be exactly one record).
    pub fn decode(bytes: &[u8]) -> Option<JournalRecord> {
        let mut r = Reader { bytes, at: 0 };
        let rec = match r.u8()? {
            TAG_EPOCH => JournalRecord::EpochStart {
                epoch: r.u32()?,
                resume_clock: r.f64()?,
                recovered_jobs: r.u32()?,
                suppressed_duplicates: r.u32()?,
            },
            TAG_ADMITTED => JournalRecord::Admitted {
                at: r.f64()?,
                meta: r.meta()?,
            },
            TAG_REJECTED => JournalRecord::Rejected {
                at: r.f64()?,
                meta: r.meta()?,
                reason: RejectionReason::from_code(r.u8()?)?,
            },
            TAG_BATCH => {
                let at = r.f64()?;
                let batch = r.u64()?;
                let njobs = r.u32()? as usize;
                // Bound preallocation by what the payload can actually
                // hold, so a corrupt length can't balloon memory.
                if njobs > bytes.len() / 8 {
                    return None;
                }
                let mut job_ids = Vec::with_capacity(njobs);
                for _ in 0..njobs {
                    job_ids.push(r.u64()?);
                }
                let ndevs = r.u32()? as usize;
                if ndevs > bytes.len() / 4 {
                    return None;
                }
                let mut devices = Vec::with_capacity(ndevs);
                for _ in 0..ndevs {
                    devices.push(r.u32()?);
                }
                JournalRecord::BatchStarted {
                    at,
                    batch,
                    job_ids,
                    devices,
                }
            }
            TAG_CHECKPOINT => JournalRecord::PanelCheckpoint {
                at: r.f64()?,
                job: r.u64()?,
                idempotency: r.u64()?,
                fraction: r.f64()?,
            },
            TAG_COMPLETED => JournalRecord::Completed {
                at: r.f64()?,
                job: r.u64()?,
                idempotency: r.u64()?,
                tenant: r.u32()?,
                latency: r.f64()?,
                digest: r.u64()?,
                deadline_met: match r.u8()? {
                    0 => None,
                    1 => Some(false),
                    2 => Some(true),
                    _ => return None,
                },
            },
            TAG_FAILED => JournalRecord::Failed {
                at: r.f64()?,
                job: r.u64()?,
                idempotency: r.u64()?,
                tenant: r.u32()?,
                latency: r.f64()?,
                attempts: r.u32()?,
            },
            _ => return None,
        };
        if !r.done() {
            return None;
        }
        Some(rec)
    }

    /// Whether this record is commit-class (must be durable before the
    /// transition is acknowledged) as opposed to lazy-class (may ride a
    /// later group commit).
    pub fn is_commit_class(&self) -> bool {
        matches!(
            self,
            JournalRecord::Completed { .. }
                | JournalRecord::Failed { .. }
                | JournalRecord::Rejected { .. }
                | JournalRecord::EpochStart { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64) -> JobMeta {
        JobMeta {
            id,
            tenant: 2,
            n: 768,
            priority: 1,
            deadline: Some(3.25),
            submit_time: 0.125,
            idempotency: idempotency_key(id, 2, 768),
        }
    }

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::EpochStart {
                epoch: 1,
                resume_clock: 4.5,
                recovered_jobs: 3,
                suppressed_duplicates: 7,
            },
            JournalRecord::Admitted {
                at: 0.125,
                meta: meta(9),
            },
            JournalRecord::Rejected {
                at: 0.25,
                meta: JobMeta {
                    deadline: None,
                    ..meta(10)
                },
                reason: RejectionReason::Duplicate,
            },
            JournalRecord::BatchStarted {
                at: 0.5,
                batch: 4,
                job_ids: vec![9, 11, 12],
                devices: vec![0, 3],
            },
            JournalRecord::PanelCheckpoint {
                at: 0.75,
                job: 9,
                idempotency: idempotency_key(9, 2, 768),
                fraction: 0.5,
            },
            JournalRecord::Completed {
                at: 1.0,
                job: 9,
                idempotency: idempotency_key(9, 2, 768),
                tenant: 2,
                latency: 0.875,
                digest: 0xdead_beef_cafe_f00d,
                deadline_met: Some(true),
            },
            JournalRecord::Failed {
                at: 1.5,
                job: 11,
                idempotency: idempotency_key(11, 2, 768),
                tenant: 2,
                latency: 1.0,
                attempts: 3,
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in samples() {
            let bytes = rec.encode();
            let back = JournalRecord::decode(&bytes).expect("decodes");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for rec in samples() {
            let mut bytes = rec.encode();
            bytes.push(0);
            assert_eq!(JournalRecord::decode(&bytes), None);
        }
    }

    #[test]
    fn short_payloads_are_rejected() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                // Any strict prefix must fail to decode — except when a
                // truncated BatchStarted happens to parse as a shorter
                // valid record, which the length fields prevent.
                assert_eq!(JournalRecord::decode(&bytes[..cut]), None, "cut at {cut}");
            }
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(JournalRecord::decode(&[200, 0, 0, 0]), None);
        assert_eq!(JournalRecord::decode(&[]), None);
    }

    #[test]
    fn commit_class_partition() {
        assert!(JournalRecord::Completed {
            at: 0.0,
            job: 0,
            idempotency: 0,
            tenant: 0,
            latency: 0.0,
            digest: 0,
            deadline_met: None,
        }
        .is_commit_class());
        assert!(!JournalRecord::Admitted {
            at: 0.0,
            meta: meta(1),
        }
        .is_commit_class());
    }

    #[test]
    fn idempotency_key_is_stable() {
        assert_eq!(idempotency_key(1, 2, 3), idempotency_key(1, 2, 3));
        assert_ne!(idempotency_key(1, 2, 3), idempotency_key(2, 2, 3));
        assert_ne!(idempotency_key(1, 2, 3), idempotency_key(1, 3, 3));
        assert_ne!(idempotency_key(1, 2, 3), idempotency_key(1, 2, 4));
    }
}
