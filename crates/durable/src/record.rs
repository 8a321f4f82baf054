//! The journal's record vocabulary: one record per job lifecycle
//! transition, plus an epoch marker per (re)start and the header a
//! compacted journal starts with.
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
    /// The head of a compacted journal: what the frames compaction
    /// dropped contributed to the replayed state. Replay adds `records`
    /// to its record count (the header itself is not a record) and raises
    /// its clock to `resume_clock`. See [`crate::replay::Replay::image`].
    Compacted { records: u64, resume_clock: f64 },
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
const TAG_COMPACTED: u8 = 7;

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

impl JournalRecord {
    /// The virtual-clock instant this record belongs to (epoch markers
    /// and compaction headers sort at their resume clock).
    pub fn instant(&self) -> f64 {
        match self {
            JournalRecord::EpochStart { resume_clock, .. }
            | JournalRecord::Compacted { resume_clock, .. } => *resume_clock,
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
            JournalRecord::Compacted {
                records,
                resume_clock,
            } => {
                w.u8(TAG_COMPACTED);
                w.u64(*records);
                w.f64(*resume_clock);
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
    /// trailing bytes (a payload must be exactly one record). The owning
    /// form of the in-place decoder `decode_view`.
    pub fn decode(bytes: &[u8]) -> Option<JournalRecord> {
        Some(match decode_view(bytes)? {
            Decoded::Record(rec) => rec,
            Decoded::Batch(b) => JournalRecord::BatchStarted {
                at: b.at,
                batch: b.batch,
                job_ids: b.job_ids().collect(),
                devices: b.devices().collect(),
            },
        })
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

// Payload layouts: every field sits at a fixed offset once the tag and
// the payload's length are known, so the decoder checks the length once
// and then reads fields where they must be.
//
//   EpochStart       tag, epoch u32, resume_clock f64, 2 × u32      21 B
//   Compacted        tag, records u64, resume_clock f64              17 B
//   Admitted         tag, at f64, meta                            43/51 B
//   Rejected         tag, at f64, meta, reason u8                 44/52 B
//   BatchStarted     tag, at f64, batch u64, n u32, n × u64,
//                    m u32, m × u32                          25 + 8n + 4m B
//   PanelCheckpoint  tag, at f64, job u64, key u64, fraction f64     33 B
//   Completed        tag, at f64, job u64, key u64, tenant u32,
//                    latency f64, digest u64, deadline_met u8        46 B
//   Failed           tag, at f64, job u64, key u64, tenant u32,
//                    latency f64, attempts u32                       41 B
//
// where meta is id u64, tenant u32, n u32, priority u8, a deadline flag
// u8 (0 or 1) and the deadline f64 iff the flag is 1, submit_time f64,
// idempotency u64: 34 B without a deadline, 42 B with one.
const EPOCH_LEN: usize = 21;
const COMPACTED_LEN: usize = 17;
const CHECKPOINT_LEN: usize = 33;
const COMPLETED_LEN: usize = 46;
const FAILED_LEN: usize = 41;
/// Where `JobMeta` starts in `Admitted` and `Rejected` (after tag, at).
const META_AT: usize = 9;
/// Offset of the deadline flag inside `JobMeta`.
const META_FLAG: usize = 17;
/// `BatchStarted` up to and including its job count.
const BATCH_HEAD: usize = 21;

fn u32_at(p: &[u8], at: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&p[at..at + 4]);
    u32::from_le_bytes(w)
}

fn u64_at(p: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&p[at..at + 8]);
    u64::from_le_bytes(w)
}

fn f64_at(p: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(p, at))
}

/// Bytes of the `JobMeta` at `at`, which its deadline flag decides:
/// `None` if the payload is too short to hold the flag or the flag is
/// neither 0 nor 1.
fn meta_len(p: &[u8], at: usize) -> Option<usize> {
    match p.get(at + META_FLAG)? {
        0 => Some(34),
        1 => Some(42),
        _ => None,
    }
}

/// Reads the `JobMeta` at `at`; the caller has checked that the payload
/// holds [`meta_len`] bytes there.
fn meta_at(p: &[u8], at: usize) -> JobMeta {
    let deadline = (p[at + META_FLAG] == 1).then(|| f64_at(p, at + META_FLAG + 1));
    let rest = at + META_FLAG + 1 + if deadline.is_some() { 8 } else { 0 };
    JobMeta {
        id: u64_at(p, at),
        tenant: u32_at(p, at + 8),
        n: u32_at(p, at + 12),
        priority: p[at + 16],
        deadline,
        submit_time: f64_at(p, rest),
        idempotency: u64_at(p, rest + 8),
    }
}

/// A `BatchStarted` record whose id and device lists are lent out of the
/// payload they were decoded from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchView<'a> {
    pub(crate) at: f64,
    pub(crate) batch: u64,
    /// `job_ids`, eight little-endian bytes each.
    job_ids: &'a [u8],
    /// `devices`, four little-endian bytes each.
    devices: &'a [u8],
}

impl<'a> BatchView<'a> {
    pub(crate) fn job_ids(&self) -> impl Iterator<Item = u64> + 'a {
        let ids = self.job_ids;
        (0..ids.len() / 8).map(move |i| u64_at(ids, 8 * i))
    }

    pub(crate) fn devices(&self) -> impl Iterator<Item = u32> + 'a {
        let devs = self.devices;
        (0..devs.len() / 4).map(move |i| u32_at(devs, 4 * i))
    }
}

/// One record decoded in place. Every variant but `BatchStarted` is made
/// of fixed-width fields and decodes straight into its owned form; a
/// batch lends its lists instead, so a fold that only walks them
/// allocates nothing.
#[derive(Debug, Clone)]
pub(crate) enum Decoded<'a> {
    /// Any record but `BatchStarted`.
    Record(JournalRecord),
    Batch(BatchView<'a>),
}

impl Decoded<'_> {
    /// [`JournalRecord::instant`] of the decoded record.
    pub(crate) fn instant(&self) -> f64 {
        match self {
            Decoded::Record(rec) => rec.instant(),
            Decoded::Batch(b) => b.at,
        }
    }
}

/// Decodes one record payload at fixed offsets: each tag's exact length
/// is checked once, then every field is read where the layout puts it.
/// Accepts exactly the payloads the field-by-field cursor decoder it
/// replaced did (kept as the test oracle): a known tag, in-range enum
/// bytes, and not one byte short or over.
pub(crate) fn decode_view(p: &[u8]) -> Option<Decoded<'_>> {
    let len = p.len();
    let rec = match *p.first()? {
        TAG_EPOCH if len == EPOCH_LEN => JournalRecord::EpochStart {
            epoch: u32_at(p, 1),
            resume_clock: f64_at(p, 5),
            recovered_jobs: u32_at(p, 13),
            suppressed_duplicates: u32_at(p, 17),
        },
        TAG_COMPACTED if len == COMPACTED_LEN => JournalRecord::Compacted {
            records: u64_at(p, 1),
            resume_clock: f64_at(p, 9),
        },
        TAG_ADMITTED if len == META_AT + meta_len(p, META_AT)? => JournalRecord::Admitted {
            at: f64_at(p, 1),
            meta: meta_at(p, META_AT),
        },
        TAG_REJECTED if len == META_AT + meta_len(p, META_AT)? + 1 => JournalRecord::Rejected {
            at: f64_at(p, 1),
            meta: meta_at(p, META_AT),
            reason: RejectionReason::from_code(p[len - 1])?,
        },
        TAG_BATCH => return decode_batch(p),
        TAG_CHECKPOINT if len == CHECKPOINT_LEN => JournalRecord::PanelCheckpoint {
            at: f64_at(p, 1),
            job: u64_at(p, 9),
            idempotency: u64_at(p, 17),
            fraction: f64_at(p, 25),
        },
        TAG_COMPLETED if len == COMPLETED_LEN => JournalRecord::Completed {
            at: f64_at(p, 1),
            job: u64_at(p, 9),
            idempotency: u64_at(p, 17),
            tenant: u32_at(p, 25),
            latency: f64_at(p, 29),
            digest: u64_at(p, 37),
            deadline_met: match p[45] {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                _ => return None,
            },
        },
        TAG_FAILED if len == FAILED_LEN => JournalRecord::Failed {
            at: f64_at(p, 1),
            job: u64_at(p, 9),
            idempotency: u64_at(p, 17),
            tenant: u32_at(p, 25),
            latency: f64_at(p, 29),
            attempts: u32_at(p, 37),
        },
        _ => return None,
    };
    Some(Decoded::Record(rec))
}

/// `BatchStarted`: its length follows from its two counts. The sums are
/// taken in `u64`, where no pair of `u32` counts can overflow them.
fn decode_batch(p: &[u8]) -> Option<Decoded<'_>> {
    let len = p.len() as u64;
    if len < BATCH_HEAD as u64 {
        return None;
    }
    let ids_end = BATCH_HEAD as u64 + 8 * u64::from(u32_at(p, BATCH_HEAD - 4));
    if ids_end + 4 > len {
        return None;
    }
    let ids_end = ids_end as usize;
    let devs_at = ids_end + 4;
    if devs_at as u64 + 4 * u64::from(u32_at(p, ids_end)) != len {
        return None;
    }
    Some(Decoded::Batch(BatchView {
        at: f64_at(p, 1),
        batch: u64_at(p, 9),
        job_ids: &p[BATCH_HEAD..ids_end],
        devices: &p[devs_at..],
    }))
}

/// The cursor decoder `decode_view` replaced, kept verbatim as the
/// oracle: it reads field after field and fails on the first short read,
/// a bad enum byte or trailing bytes.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

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

    /// Decodes one record; `None` on an unknown tag, short payload, or
    /// trailing bytes (a payload must be exactly one record).
    pub(crate) fn decode(bytes: &[u8]) -> Option<JournalRecord> {
        let mut r = Reader { bytes, at: 0 };
        let rec = match r.u8()? {
            TAG_EPOCH => JournalRecord::EpochStart {
                epoch: r.u32()?,
                resume_clock: r.f64()?,
                recovered_jobs: r.u32()?,
                suppressed_duplicates: r.u32()?,
            },
            TAG_COMPACTED => JournalRecord::Compacted {
                records: r.u64()?,
                resume_clock: r.f64()?,
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
            JournalRecord::Compacted {
                records: 96_467,
                resume_clock: 4.25,
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

    /// `decode` and the oracle agree on `p`: both `None`, or records
    /// with the same canonical bytes (compared encoded, so NaN fields
    /// compare by their bits).
    fn agree(p: &[u8]) {
        let got = JournalRecord::decode(p).map(|r| r.encode());
        let want = oracle::decode(p).map(|r| r.encode());
        assert_eq!(got, want, "payload {p:?}");
    }

    /// One record of every variant and both deadline arms, with every
    /// float drawn as raw bits (NaNs and infinities included).
    fn record_from(kind: u32, w: &[u64], ids: Vec<u64>, devices: Vec<u32>) -> JournalRecord {
        let f = |i: usize| f64::from_bits(w[i]);
        let meta = JobMeta {
            id: w[0],
            tenant: w[1] as u32,
            n: (w[1] >> 32) as u32,
            priority: w[2] as u8,
            deadline: (w[2] & 0x100 != 0).then(|| f(3)),
            submit_time: f(4),
            idempotency: w[5],
        };
        match kind {
            0 => JournalRecord::EpochStart {
                epoch: w[0] as u32,
                resume_clock: f(1),
                recovered_jobs: w[2] as u32,
                suppressed_duplicates: (w[2] >> 32) as u32,
            },
            1 => JournalRecord::Admitted { at: f(5), meta },
            2 => JournalRecord::Rejected {
                at: f(5),
                meta,
                reason: RejectionReason::from_code((w[3] % 6) as u8).expect("code < 6"),
            },
            3 => JournalRecord::BatchStarted {
                at: f(1),
                batch: w[0],
                job_ids: ids,
                devices,
            },
            4 => JournalRecord::PanelCheckpoint {
                at: f(1),
                job: w[0],
                idempotency: w[5],
                fraction: f(3),
            },
            5 => JournalRecord::Completed {
                at: f(1),
                job: w[0],
                idempotency: w[5],
                tenant: w[2] as u32,
                latency: f(3),
                digest: w[4],
                deadline_met: [None, Some(false), Some(true)][(w[2] >> 40) as usize % 3],
            },
            6 => JournalRecord::Compacted {
                records: w[0],
                resume_clock: f(1),
            },
            _ => JournalRecord::Failed {
                at: f(1),
                job: w[0],
                idempotency: w[5],
                tenant: w[2] as u32,
                latency: f(3),
                attempts: (w[2] >> 32) as u32,
            },
        }
    }

    fn any_record() -> impl proptest::prelude::Strategy<Value = JournalRecord> {
        use proptest::prelude::Strategy;
        (
            0u32..8,
            proptest::collection::vec(0..u64::MAX, 6..7),
            proptest::collection::vec(0..u64::MAX, 0..6),
            proptest::collection::vec(0..u32::MAX, 0..6),
        )
            .prop_map(|(kind, w, ids, devices)| record_from(kind, &w, ids, devices))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The fixed-offset decoder accepts and rejects exactly what the
        /// cursor decoder did: every valid record, each with one byte
        /// changed, cut at every length or extended by one byte.
        #[test]
        fn decode_agrees_with_the_oracle_around_valid_records(
            rec in any_record(),
            delta in 1u32..256,
            extra in 0u32..256,
        ) {
            let bytes = rec.encode();
            assert_eq!(
                JournalRecord::decode(&bytes).map(|r| r.encode()),
                Some(bytes.clone())
            );
            agree(&bytes);
            for i in 0..bytes.len() {
                let mut changed = bytes.clone();
                changed[i] = changed[i].wrapping_add(delta as u8);
                agree(&changed);
            }
            for cut in 0..bytes.len() {
                agree(&bytes[..cut]);
            }
            let mut longer = bytes.clone();
            longer.push(extra as u8);
            agree(&longer);
        }

        /// A `BatchStarted` whose job or device count lies — by a little
        /// or by anything up to `u32::MAX` — is rejected exactly when the
        /// oracle rejects it.
        #[test]
        fn decode_agrees_with_the_oracle_on_lying_batch_counts(
            ids in proptest::collection::vec(0..u64::MAX, 0..6),
            devices in proptest::collection::vec(0..u32::MAX, 0..6),
            lie in 0..u32::MAX,
            nudge in -3i64..4,
        ) {
            let rec = JournalRecord::BatchStarted { at: 0.5, batch: 7, job_ids: ids.clone(), devices };
            let bytes = rec.encode();
            let devs_at = BATCH_HEAD + 8 * ids.len();
            for at in [BATCH_HEAD - 4, devs_at] {
                let count = u32_at(&bytes, at);
                for claim in [lie, (i64::from(count) + nudge).clamp(0, i64::from(u32::MAX)) as u32] {
                    let mut lying = bytes.clone();
                    lying[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                    agree(&lying);
                }
            }
        }

        /// Random bytes behind each tag (and behind unknown tags), at
        /// every length up to past the longest fixed layout.
        #[test]
        fn decode_agrees_with_the_oracle_on_random_payloads(
            tag in 0u32..9,
            body in proptest::collection::vec(0u32..256, 0..64),
        ) {
            let p: Vec<u8> = std::iter::once(tag).chain(body).map(|b| b as u8).collect();
            agree(&p);
        }
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
