//! Pins the journal's on-disk format and what replay makes of it: the
//! small mix runs crash-free through `run_durable` under the crash
//! harness's config (fault seed 7) and the journal's length, its FNV-1a
//! digest, the crash harness's completed/failed ledger digests, and
//! digests of every field of the replayed state — of the whole journal
//! and of the journal cut mid-frame halfway, where jobs are still queued
//! and in flight — must equal constants captured at the commit *before* the
//! journal's byte path was rewritten (table CRC, borrowed frames, hashed
//! fold). A change to the frame layout, the CRC, a record encoding or
//! the fold's rules moves one of them; re-capture only on purpose.

use summagen_bench::scenario::{crash_config, ledger_digest, SERVE_ALPHA, SERVE_BETA};
use summagen_durable::{
    compact, fnv1a, fnv1a_words, replay, GroupCommitConfig, Journal, RecoveredJob, RecoveredState,
    TerminalRecord,
};
use summagen_platform::profile::hclserver1;
use summagen_service::{generate, small_mix, DevicePool, DurableRun, GemmService};

const JOURNAL_BYTES: usize = 64_992;
const JOURNAL_FNV: u64 = 0xce80_4099_ce6c_9ed5;
/// The digests `reproduce crash --mix small` prints for seed 7 (CI greps them).
const COMPLETED_LEDGER: u64 = 0xf27c_3462_ee57_a253;
const FAILED_LEDGER: u64 = 0x6ddf_0ad2_1b42_f5f2;
const FULL_STATE_DIGEST: u64 = 0x49b6_09f7_9925_0b93;
const HALF_STATE_DIGEST: u64 = 0x00c8_22b1_c136_19e3;
/// The compacted image of the whole journal.
const IMAGE_BYTES: usize = 13_473;
const IMAGE_FNV: u64 = 0xc6e7_ac85_4f11_a50e;

/// Every field of the recovered state, in order, floats by their bits.
fn state_digest(state: &RecoveredState) -> u64 {
    let job = |j: &RecoveredJob| {
        [
            j.meta.id,
            j.meta.idempotency,
            j.resume_fraction.to_bits(),
            u64::from(j.was_in_flight),
        ]
    };
    let terminal = |(key, t): (&u64, &TerminalRecord)| {
        [
            *key,
            t.job,
            u64::from(t.tenant),
            t.at.to_bits(),
            t.latency.to_bits(),
            t.digest,
            t.deadline_met.map_or(2, u64::from),
        ]
    };
    let mut words: Vec<u64> = Vec::new();
    words.extend(state.queued.iter().flat_map(job));
    words.extend(state.in_flight.iter().flat_map(job));
    words.extend(state.completed.iter().flat_map(terminal));
    words.extend(state.failed.iter().flat_map(terminal));
    words.extend(state.rejected.iter().map(|(m, _)| m.idempotency));
    words.extend([
        state.queued.len() as u64,
        state.in_flight.len() as u64,
        state.resume_clock.to_bits(),
        u64::from(state.epochs),
        state.records as u64,
        state.torn_bytes as u64,
        state.undecodable as u64,
    ]);
    fnv1a_words(&words)
}

#[test]
fn journal_bytes_and_replayed_state_match_the_goldens() {
    let pool = DevicePool::from_platform(&hclserver1(), SERVE_ALPHA, SERVE_BETA);
    let mut service = GemmService::new(pool, crash_config(7));
    let journal = Journal::new(GroupCommitConfig::default());
    let DurableRun::Finished(rep) = service.run_durable(generate(&small_mix()), journal, None)
    else {
        panic!("the crash-free run crashed with no injector armed");
    };
    let bytes = rep.journal.durable();
    let full = replay(bytes).state;
    let half = replay(&bytes[..bytes.len() / 2]).state;
    // The cut must land where the fold has something to partition, or the
    // half-journal golden pins nothing the full one does not.
    assert!(half.torn_bytes > 0 && !half.in_flight.is_empty() && !half.queued.is_empty());
    assert!(!full.completed.is_empty() && !full.failed.is_empty());

    let got = [
        ("journal bytes", bytes.len() as u64, JOURNAL_BYTES as u64),
        ("journal fnv1a", fnv1a(bytes), JOURNAL_FNV),
        (
            "completed ledger",
            ledger_digest(&full.completed),
            COMPLETED_LEDGER,
        ),
        ("failed ledger", ledger_digest(&full.failed), FAILED_LEDGER),
        ("full state digest", state_digest(&full), FULL_STATE_DIGEST),
        ("half state digest", state_digest(&half), HALF_STATE_DIGEST),
    ];
    for (what, got, want) in got {
        assert_eq!(got, want, "{what}: {got:#018x} != golden {want:#018x}");
    }
}

#[test]
fn the_compacted_image_replays_to_the_goldens() {
    let pool = DevicePool::from_platform(&hclserver1(), SERVE_ALPHA, SERVE_BETA);
    let mut service = GemmService::new(pool, crash_config(7));
    let journal = Journal::new(GroupCommitConfig::default());
    let DurableRun::Finished(rep) = service.run_durable(generate(&small_mix()), journal, None)
    else {
        panic!("the crash-free run crashed with no injector armed");
    };
    let bytes = rep.journal.durable();
    let image = compact(bytes);
    assert!(
        image.len() < bytes.len() / 2,
        "most of a finished journal is dead"
    );
    let full = replay(&image).state;
    assert_eq!(
        state_digest(&full),
        FULL_STATE_DIGEST,
        "image of the whole journal"
    );

    // The half cut, torn mid-frame: its image has no torn tail to count.
    let cut = &bytes[..bytes.len() / 2];
    let mut half = replay(cut).state;
    let halved = replay(&compact(cut)).state;
    assert_eq!(halved.torn_bytes, 0);
    half.torn_bytes = 0;
    assert_eq!(halved, half, "image of the half cut");

    let got = [
        ("image bytes", image.len() as u64, IMAGE_BYTES as u64),
        ("image fnv1a", fnv1a(&image), IMAGE_FNV),
    ];
    for (what, got, want) in got {
        assert_eq!(got, want, "{what}: {got:#018x} != golden {want:#018x}");
    }
}
