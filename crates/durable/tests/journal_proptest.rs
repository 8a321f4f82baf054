//! Property tests for the journal wire format: arbitrary record
//! sequences encode/decode bit-identically, and any truncation or
//! single-byte corruption of the tail recovers to the longest valid
//! prefix — never a misparse. Then compaction: the image of a journal
//! replays to the journal's own state, is its own image, takes appends
//! like the journal does, and holds exactly the frames the rules keep.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use summagen_durable::{
    compact, decode_frames, encode_frame, idempotency_key, replay, JobMeta, JournalRecord,
    RecoveredState, RejectionReason,
};

/// Deterministically expands a sampled tuple into one record, covering
/// every variant (kind 0..=6) and both deadline arms.
fn record_from(kind: u32, id: u64, tenant: u32, x: f64, y: f64, d: u64) -> JournalRecord {
    let n = 64 + (d % 2048) as u32;
    let meta = JobMeta {
        id,
        tenant,
        n,
        priority: (d % 3) as u8,
        deadline: if d.is_multiple_of(2) {
            Some(x + 1.0)
        } else {
            None
        },
        submit_time: x,
        idempotency: idempotency_key(id, tenant, n),
    };
    match kind {
        0 => JournalRecord::EpochStart {
            epoch: tenant,
            resume_clock: x,
            recovered_jobs: (d % 100) as u32,
            suppressed_duplicates: (d % 17) as u32,
        },
        1 => JournalRecord::Admitted { at: x, meta },
        2 => JournalRecord::Rejected {
            at: x,
            meta,
            reason: match d % 6 {
                0 => RejectionReason::QueueFull,
                1 => RejectionReason::QuotaExceeded,
                2 => RejectionReason::TooLarge,
                3 => RejectionReason::DeadlineInfeasible,
                4 => RejectionReason::Shed,
                _ => RejectionReason::Duplicate,
            },
        },
        3 => JournalRecord::BatchStarted {
            at: x,
            batch: d,
            job_ids: (0..(d % 5)).map(|i| id.wrapping_add(i)).collect(),
            devices: (0..1 + (d % 3) as u32).collect(),
        },
        4 => JournalRecord::PanelCheckpoint {
            at: x,
            job: id,
            idempotency: meta.idempotency,
            fraction: y,
        },
        5 => JournalRecord::Completed {
            at: x,
            job: id,
            idempotency: meta.idempotency,
            tenant,
            latency: y,
            digest: d.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            deadline_met: match d % 3 {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            },
        },
        _ => JournalRecord::Failed {
            at: x,
            job: id,
            idempotency: meta.idempotency,
            tenant,
            latency: y,
            attempts: 1 + (d % 3) as u32,
        },
    }
}

fn records_of(raw: &[(u32, u64, u32, f64, f64, u64)]) -> Vec<JournalRecord> {
    raw.iter()
        .map(|&(k, id, t, x, y, d)| record_from(k, id, t, x, y, d))
        .collect()
}

fn journal_of(records: &[JournalRecord]) -> (Vec<u8>, Vec<usize>) {
    // Returns the bytes plus each frame's end offset.
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for r in records {
        encode_frame(&mut bytes, &r.encode());
        ends.push(bytes.len());
    }
    (bytes, ends)
}

type Raw = Vec<(u32, u64, u32, f64, f64, u64)>;

/// Streams of `len` records over job ids `ids`, tenants `0..tenants` and
/// the seed values `d` that `record_from` expands.
fn stream_strategy(
    ids: std::ops::Range<u64>,
    tenants: u32,
    d: std::ops::Range<u64>,
    len: std::ops::Range<usize>,
) -> impl proptest::Strategy<Value = Raw> {
    proptest::collection::vec(
        (0u32..7, ids, 0u32..tenants, 0.0f64..100.0, 0.0f64..1.0, d),
        len,
    )
}

fn raw_strategy() -> impl proptest::Strategy<Value = Raw> {
    stream_strategy(1..10_000, 5, 0..1_000_000, 1..24)
}

/// The same streams, drawn dense: six job ids, two tenants and four sizes
/// (so 48 idempotency keys), so that one job's admission, batches,
/// checkpoints and terminal frames meet, and keys repeat.
fn dense_strategy() -> impl proptest::Strategy<Value = Raw> {
    stream_strategy(1..7, 2, 0..4, 1..64)
}

/// The state with the scan-local counts cleared: what an image keeps.
fn kept(mut state: RecoveredState) -> RecoveredState {
    state.torn_bytes = 0;
    state.undecodable = 0;
    state
}

/// The image by the rules, spelled out over the decoded records: a header
/// with the dropped records' count and the largest instant, then
/// * every `EpochStart` and `Rejected` frame;
/// * the first `Completed` and the first `Failed` frame of each key;
/// * the frame that closed each job: its first `Completed` or `Failed`
///   frame, or — for an admitted job shed by a `Rejected` frame — its
///   first `Admitted` frame;
/// * for each job admitted and still open: its first `Admitted` frame,
///   the first `BatchStarted` frame after that listing it and the
///   checkpoint that last raised its fraction.
fn image_by_the_rules(bytes: &[u8]) -> Vec<u8> {
    enum Job {
        Open(usize),
        Closed,
    }
    let payloads = decode_frames(bytes).payloads;
    let records: Vec<Option<JournalRecord>> =
        payloads.iter().map(|p| JournalRecord::decode(p)).collect();
    let mut keep = vec![false; records.len()];
    let mut jobs: HashMap<u64, Job> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        match rec {
            Some(JournalRecord::EpochStart { .. }) => keep[i] = true,
            Some(JournalRecord::Admitted { meta, .. }) => {
                jobs.entry(meta.id).or_insert(Job::Open(i));
            }
            Some(JournalRecord::Rejected { meta, .. }) => {
                keep[i] = true;
                if let Some(&Job::Open(admitted)) = jobs.get(&meta.id) {
                    keep[admitted] = true;
                    jobs.insert(meta.id, Job::Closed);
                }
            }
            Some(JournalRecord::Completed { job, .. } | JournalRecord::Failed { job, .. })
                if !matches!(jobs.get(job), Some(Job::Closed)) =>
            {
                keep[i] = true;
                jobs.insert(*job, Job::Closed);
            }
            _ => {}
        }
    }
    let open_before = |id: &u64, i: usize| matches!(jobs.get(id), Some(&Job::Open(a)) if a < i);
    let (mut completed, mut failed, mut started) = (HashSet::new(), HashSet::new(), HashSet::new());
    let mut checkpoint: HashMap<u64, (f64, usize)> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        keep[i] |= match rec {
            Some(JournalRecord::Completed { idempotency, .. }) => completed.insert(*idempotency),
            Some(JournalRecord::Failed { idempotency, .. }) => failed.insert(*idempotency),
            Some(JournalRecord::Admitted { meta, .. }) => {
                matches!(jobs.get(&meta.id), Some(&Job::Open(a)) if a == i)
            }
            Some(JournalRecord::BatchStarted { job_ids, .. }) => {
                job_ids
                    .iter()
                    .filter(|id| open_before(id, i) && started.insert(**id))
                    .count()
                    > 0
            }
            Some(JournalRecord::PanelCheckpoint { job, fraction, .. }) => {
                let best = checkpoint.entry(*job).or_insert((0.0, usize::MAX));
                if open_before(job, i) && *fraction > best.0 {
                    *best = (*fraction, i);
                }
                false
            }
            _ => false,
        };
    }
    for &(_, i) in checkpoint.values().filter(|(_, i)| *i != usize::MAX) {
        keep[i] = true;
    }
    let decoded = records.iter().flatten();
    let resume_clock = decoded
        .clone()
        .map(JournalRecord::instant)
        .fold(0.0, |max: f64, t| if t > max { t } else { max });
    let live = keep.iter().filter(|&&k| k).count();
    let mut image = Vec::new();
    let header = JournalRecord::Compacted {
        records: (decoded.count() - live) as u64,
        resume_clock,
    };
    encode_frame(&mut image, &header.encode());
    for (payload, _) in payloads.iter().zip(&keep).filter(|(_, &k)| k) {
        encode_frame(&mut image, payload);
    }
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity on arbitrary record sequences.
    #[test]
    fn sequences_round_trip(raw in raw_strategy()) {
        let records = records_of(&raw);
        let (bytes, _) = journal_of(&records);
        let out = decode_frames(&bytes);
        prop_assert_eq!(out.torn_bytes, 0);
        prop_assert_eq!(out.payloads.len(), records.len());
        for (payload, want) in out.payloads.iter().zip(&records) {
            let got = JournalRecord::decode(payload).expect("valid frame decodes");
            prop_assert_eq!(&got, want);
            // Bit-identical re-encode: the encoding is canonical.
            prop_assert_eq!(&got.encode(), payload);
        }
    }

    /// Truncating the journal anywhere recovers exactly the records
    /// whose frames fit entirely before the cut.
    #[test]
    fn truncation_recovers_longest_prefix(raw in raw_strategy(), cut_sel in 0.0f64..1.0) {
        let records = records_of(&raw);
        let (bytes, ends) = journal_of(&records);
        let cut = (cut_sel * bytes.len() as f64) as usize;
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        let out = decode_frames(&bytes[..cut]);
        prop_assert_eq!(out.payloads.len(), intact);
        prop_assert_eq!(out.valid_bytes, if intact == 0 { 0 } else { ends[intact - 1] });
        prop_assert_eq!(out.torn_bytes, cut - out.valid_bytes);
        for (payload, want) in out.payloads.iter().zip(&records) {
            prop_assert_eq!(&JournalRecord::decode(payload).expect("prefix decodes"), want);
        }
    }

    /// Flipping any single byte of the *last* frame loses at most that
    /// frame: every earlier record still decodes bit-identically.
    #[test]
    fn tail_corruption_recovers_prefix(raw in raw_strategy(), flip_sel in 0.0f64..1.0, bit in 0u32..8) {
        let records = records_of(&raw);
        let (mut bytes, ends) = journal_of(&records);
        let last_start = if ends.len() >= 2 { ends[ends.len() - 2] } else { 0 };
        let span = bytes.len() - last_start;
        let at = last_start + ((flip_sel * span as f64) as usize).min(span - 1);
        bytes[at] ^= 1u8 << bit;
        let out = decode_frames(&bytes);
        // The corrupt frame is discarded (CRC catches every single-bit
        // flip), so exactly the prefix survives.
        prop_assert_eq!(out.payloads.len(), records.len() - 1);
        prop_assert_eq!(out.valid_bytes, last_start);
        for (payload, want) in out.payloads.iter().zip(&records) {
            prop_assert_eq!(&JournalRecord::decode(payload).expect("prefix decodes"), want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every prefix that ends at a frame boundary, and every prefix cut
    /// inside a frame, compacts to an image that replays to the prefix's
    /// state (but for the scan-local `torn_bytes` and `undecodable`), is
    /// its own image, and holds exactly the frames the rules keep.
    #[test]
    fn the_image_of_every_prefix_replays_to_its_state(
        raw in dense_strategy(),
        tear in proptest::collection::vec(0.0f64..1.0, 64..65),
    ) {
        let (bytes, ends) = journal_of(&records_of(&raw));
        let mut cuts = vec![0];
        for (i, &end) in ends.iter().enumerate() {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            cuts.push(start + 1 + ((tear[i] * (end - start - 1) as f64) as usize));
            cuts.push(end);
        }
        for cut in cuts {
            let prefix = &bytes[..cut];
            let image = compact(prefix);
            prop_assert_eq!(kept(replay(&image).state), kept(replay(prefix).state), "cut {}", cut);
            prop_assert_eq!(&compact(&image), &image, "compacting the image of cut {} again", cut);
            prop_assert_eq!(&image, &image_by_the_rules(prefix), "frames kept at cut {}", cut);
        }
    }

    /// A journal and its image take the same appends: the same suffix
    /// after each replays to the same state, at every split.
    #[test]
    fn a_journal_and_its_image_take_the_same_suffix(raw in dense_strategy()) {
        let (bytes, ends) = journal_of(&records_of(&raw));
        for split in std::iter::once(0).chain(ends) {
            let (prefix, suffix) = bytes.split_at(split);
            let mut image = compact(prefix);
            image.extend_from_slice(suffix);
            prop_assert_eq!(kept(replay(&image).state), kept(replay(&bytes).state), "split {}", split);
        }
    }
}
