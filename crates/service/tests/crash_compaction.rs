//! The compaction crash seam on a journal over the compaction floor: the
//! hetero mix at 20 000 jobs (a 5.6 MB journal uncompacted) through a
//! crash ladder whose kills land inside compactions — before the image
//! replaces the old bytes and after — between drawn kills. Every job must
//! end terminal exactly once with the crash-free control's ledger, and the
//! journal a finished run hands back must hold nothing but its header and
//! live frames.
//!
//! A release test: a control run and two ladders of six epochs each
//! replay and resubmit 20 000 jobs, which takes seconds optimised and
//! minutes without. `cargo test --release -p summagen-service` runs it.

use std::collections::BTreeMap;
use summagen_durable::{
    compact, decode_frames, replay, CrashKind, CrashSpec, GroupCommitConfig, Journal,
    RecoveredState,
};
use summagen_platform::profile::hclserver1;
use summagen_service::{
    generate, hetero_mix, AdmissionConfig, DevicePool, DurableRun, GemmService, JobSpec, Policy,
    ServiceConfig,
};

fn service() -> GemmService {
    let pool = DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10);
    GemmService::new(
        pool,
        ServiceConfig {
            policy: Policy::FpmAware,
            admission: AdmissionConfig {
                queue_capacity: 1 << 20,
                per_tenant_quota: 1 << 20,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
}

fn stream() -> Vec<JobSpec> {
    let mut mix = hetero_mix();
    mix.jobs = 20_000;
    generate(&mix)
}

/// The terminal ledger: key → (terminal kind, result digest).
fn ledger(state: &RecoveredState) -> BTreeMap<u64, (bool, u64)> {
    let completed = state.completed.iter().map(|(k, t)| (*k, (true, t.digest)));
    let failed = state.failed.iter().map(|(k, t)| (*k, (false, t.digest)));
    completed.chain(failed).collect()
}

/// A finished run's journal is already its own image: nothing dead is
/// left but the header.
fn assert_compacted(bytes: &[u8], what: &str) {
    assert!(
        bytes.len() > 1 << 20,
        "{what}: {} bytes, under the floor",
        bytes.len()
    );
    assert!(
        bytes.len() <= compact(bytes).len(),
        "{what}: {} bytes, more than its header and live frames ({})",
        bytes.len(),
        compact(bytes).len()
    );
}

fn reopen(journal: Journal) -> Journal {
    let (bytes, _) = journal.into_durable();
    let valid = decode_frames(&bytes).valid_bytes;
    Journal::reopen(bytes, valid, GroupCommitConfig::default())
}

fn compaction_kill(at_event: u64, swapped: bool) -> CrashSpec {
    CrashSpec {
        at_event,
        kind: CrashKind::MidCompaction { swapped },
    }
}

/// Runs the ladder: each spec arms one epoch, every epoch resubmits the
/// whole stream, and each must crash with its armed kind; a crash-free
/// epoch then drains what is left. Returns the finished run's journal.
fn ladder(jobs: &[JobSpec], specs: &[CrashSpec]) -> Vec<u8> {
    let mut journal = Journal::new(GroupCommitConfig::default());
    for (cycle, &spec) in specs.iter().enumerate() {
        match service().recover(journal, jobs.to_vec(), Some(spec)) {
            DurableRun::Crashed(c) => {
                assert_eq!(c.kind, spec.kind, "cycle {cycle} crashed another way");
                journal = reopen(c.journal);
            }
            DurableRun::Finished(_) => panic!("cycle {cycle} ({spec:?}) never crashed"),
        }
    }
    let DurableRun::Finished(rep) = service().recover(journal, jobs.to_vec(), None) else {
        panic!("the crash-free drain crashed");
    };
    assert_eq!(
        rep.recovery.suppressed_duplicates,
        jobs.len(),
        "the drain re-ran jobs the ladder had finished"
    );
    rep.journal.into_durable().0
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: 13 epochs of 20 000 jobs")]
fn compaction_kills_keep_every_job_exactly_once_on_the_hetero_journal() {
    let jobs = stream();
    let DurableRun::Finished(control) = service().run_durable(
        jobs.clone(),
        Journal::new(GroupCommitConfig::default()),
        None,
    ) else {
        panic!("the crash-free control crashed with no injector armed");
    };
    let control_bytes = control.journal.into_durable().0;
    assert_compacted(&control_bytes, "control");
    let want = ledger(&replay(&control_bytes).state);
    assert_eq!(want.len(), jobs.len(), "the control left jobs unfinished");

    // At event 0 a compaction kill fires in the restart's own compaction;
    // at event 1 it waits for the compaction at the end of the run.
    let drawn = |cycle: u64, at_event: u64| CrashSpec {
        at_event,
        ..CrashSpec::draw(41, cycle, 1)
    };
    for finish_swapped in [false, true] {
        let specs = [
            drawn(0, 40_000),
            compaction_kill(0, false),
            compaction_kill(0, true),
            drawn(3, 20_000),
            compaction_kill(1, finish_swapped),
        ];
        let bytes = ladder(&jobs, &specs);
        let what = format!("ladder ending in a kill with swapped: {finish_swapped}");
        assert_compacted(&bytes, &what);
        let state = replay(&bytes).state;
        assert!(
            state.queued.is_empty() && state.in_flight.is_empty(),
            "{what}: jobs left open"
        );
        assert_eq!(
            ledger(&state),
            want,
            "{what}: the ledger differs from the control's"
        );
    }
}
