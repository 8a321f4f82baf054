//! End-to-end crash/restart recovery: the durable journal, the service's
//! recovery path, and the core checkpointed executor, exercised together
//! the way a real deployment would hit them — crash, reopen the (possibly
//! torn) journal, resubmit everything, and demand exactly-once terminal
//! outcomes with bit-identical numeric results.

use summagen_comm::HockneyModel;
use summagen_core::{multiply_abft_prefix, panel_boundaries, AbftOptions, ExecutionMode};
use summagen_durable::{
    decode_frames, replay, CrashKind, CrashSpec, GroupCommitConfig, Journal, Terminals,
};
use summagen_matrix::random_matrix;
use summagen_partition::Shape;
use summagen_platform::profile::hclserver1;
use summagen_service::{
    AdmissionConfig, DevicePool, DurableRun, FaultProfile, GemmService, JobSpec, Policy,
    ServiceBackend, ServiceConfig,
};

fn pool() -> DevicePool {
    DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10)
}

fn config(backend: ServiceBackend, fault_seed: u64) -> ServiceConfig {
    ServiceConfig {
        policy: Policy::FpmAware,
        backend,
        admission: AdmissionConfig {
            queue_capacity: 1 << 16,
            per_tenant_quota: 1 << 16,
            ..AdmissionConfig::default()
        },
        faults: FaultProfile {
            fail_permille: 200,
            seed: fault_seed,
        },
        ..ServiceConfig::default()
    }
}

fn jobs(count: u64) -> Vec<JobSpec> {
    (0..count)
        .map(|id| JobSpec {
            id,
            tenant: (id % 3) as usize,
            n: [16, 24, 32][(id % 3) as usize],
            priority: (id % 3) as u8,
            deadline: None,
            submit_time: id as f64 * 0.002,
        })
        .collect()
}

fn reopen(journal: Journal) -> (Journal, usize) {
    let (bytes, _) = journal.into_durable();
    let valid_bytes = decode_frames(&bytes).valid_bytes;
    let torn = bytes.len() - valid_bytes;
    (
        Journal::reopen(bytes, valid_bytes, GroupCommitConfig::default()),
        torn,
    )
}

/// Crash-ladder the stream until it drains: every restart resubmits the
/// whole stream. Returns the final journal and how many cycles crashed.
fn drain_with_crashes(
    stream: &[JobSpec],
    backend: ServiceBackend,
    seed: u64,
    armed_cycles: u64,
    max_event: u64,
) -> (Journal, u64) {
    let mut journal = Journal::new(GroupCommitConfig::default());
    let mut crashes = 0;
    for cycle in 0.. {
        let spec = (cycle < armed_cycles).then(|| CrashSpec::draw(seed, cycle, max_event));
        let mut service = GemmService::new(pool(), config(backend, seed));
        match service.recover(journal, stream.to_vec(), spec) {
            DurableRun::Finished(rep) => return (rep.journal, crashes),
            DurableRun::Crashed(c) => {
                crashes += 1;
                journal = reopen(c.journal).0;
            }
        }
    }
    unreachable!("the post-ladder epoch runs with no crash armed");
}

/// The tentpole contract on the *real* numeric backend: a crash ladder
/// with full-stream resubmission after every restart completes each job
/// exactly once, and the journal's completion digests — captured from
/// the actually-executed products — are bit-identical to a crash-free
/// control's.
#[test]
fn real_backend_crash_ladder_is_exactly_once_with_bit_identical_digests() {
    let backend = ServiceBackend::Real;
    let stream = jobs(10);

    let mut control_svc = GemmService::new(pool(), config(backend, 5));
    let control = match control_svc.run_durable(
        stream.clone(),
        Journal::new(GroupCommitConfig::default()),
        None,
    ) {
        DurableRun::Finished(rep) => replay(rep.journal.durable()).state,
        DurableRun::Crashed(_) => panic!("control crashed with no injector armed"),
    };
    assert_eq!(
        control.completed.len() + control.failed.len(),
        stream.len(),
        "control did not drain the stream"
    );

    let (journal, crashes) = drain_with_crashes(&stream, backend, 5, 6, 8);
    assert!(crashes >= 2, "only {crashes} of 6 armed cycles crashed");
    let ladder = replay(journal.durable()).state;

    let keys = |t: &Terminals| t.iter().map(|(key, _)| *key).collect::<Vec<u64>>();
    assert_eq!(keys(&ladder.completed), keys(&control.completed));
    assert_eq!(keys(&ladder.failed), keys(&control.failed));
    for (key, rec) in ladder.completed.iter() {
        assert_eq!(
            Some(rec.digest),
            control.completed.get(key).map(|t| t.digest),
            "job {} (key {key:016x}): recovered product digest differs from the crash-free run",
            rec.job
        );
    }
}

/// A deterministic torn-write crash: the journal tail is severed
/// mid-record, reopen truncates exactly the torn bytes, and the
/// recovered run still drains to the crash-free ledger.
#[test]
fn torn_journal_tail_is_truncated_and_recovery_still_drains_exactly_once() {
    let stream = jobs(24);
    let spec = CrashSpec {
        at_event: 20,
        kind: CrashKind::MidAppend { torn_bytes: 7 },
    };
    let mut service = GemmService::new(pool(), config(ServiceBackend::Virtual, 9));
    let crashed = match service.run_durable(
        stream.clone(),
        Journal::new(GroupCommitConfig::default()),
        Some(spec),
    ) {
        DurableRun::Crashed(c) => c,
        DurableRun::Finished(_) => panic!("armed mid-append crash never fired"),
    };
    assert_eq!(crashed.kind, CrashKind::MidAppend { torn_bytes: 7 });

    // Tearing 7 bytes off mid-frame leaves a partial frame whose whole
    // remnant the decoder must discard — at least some bytes truncate.
    let (journal, torn) = reopen(crashed.journal);
    assert!(torn > 0, "reopen truncated nothing after a torn write");

    let mut restarted = GemmService::new(pool(), config(ServiceBackend::Virtual, 9));
    let finished = match restarted.recover(journal, stream.clone(), None) {
        DurableRun::Finished(rep) => rep,
        DurableRun::Crashed(_) => panic!("recovery crashed with no injector armed"),
    };
    assert!(finished.recovery.epoch >= 1);
    let state = replay(finished.journal.durable()).state;
    assert_eq!(state.completed.len() + state.failed.len(), stream.len());
    assert!(state.queued.is_empty() && state.in_flight.is_empty());

    let mut control = GemmService::new(pool(), config(ServiceBackend::Virtual, 9));
    let want = match control.run_durable(stream, Journal::new(GroupCommitConfig::default()), None) {
        DurableRun::Finished(rep) => replay(rep.journal.durable()).state,
        DurableRun::Crashed(_) => panic!("control crashed"),
    };
    let keys = |t: &Terminals| t.iter().map(|(key, _)| *key).collect::<Vec<u64>>();
    assert_eq!(keys(&state.completed), keys(&want.completed));
    assert_eq!(keys(&state.failed), keys(&want.failed));
}

/// The core-level contract behind the mid-checkpoint crash seam: when
/// the newest checkpoint's journal record is lost, recovery resumes
/// from the *previous* durable boundary — and the real checksummed
/// executor reproduces the uninterrupted product bit-for-bit from
/// there, re-deriving the panels the lost checkpoint had covered.
#[test]
fn real_executor_falls_back_a_boundary_and_stays_bit_identical() {
    let n = 24;
    let speeds = [1.0, 1.0, 1.0];
    let shape = Shape::OneDRectangular;
    let a = random_matrix(n, n, 21);
    let b = random_matrix(n, n, 22);
    let abft = AbftOptions::default();
    let run = |resume: Option<&summagen_core::PanelCheckpoint>, stop_k: usize| {
        multiply_abft_prefix(
            shape,
            &speeds,
            &a,
            &b,
            ExecutionMode::Real,
            HockneyModel::intra_node(),
            &abft,
            resume,
            stop_k,
        )
        .expect("prefix run")
    };

    let bounds = panel_boundaries(shape, n, &speeds);
    assert!(
        bounds.len() >= 3,
        "need two interior boundaries: {bounds:?}"
    );
    let whole = run(None, n);

    // Checkpoint at the first boundary is durable; the one at the second
    // boundary was written but its journal record lost in the crash.
    let durable = run(None, bounds[0]);
    let lost = run(Some(&durable), bounds[1]);
    assert!(lost.k > durable.k);

    // Recovery never sees `lost`: it resumes from `durable` and redoes
    // the middle panel on the way to the end.
    let recovered = run(Some(&durable), n);
    assert_eq!(recovered.k, n);
    for (i, (got, want)) in recovered
        .c
        .as_slice()
        .iter()
        .zip(whole.c.as_slice())
        .enumerate()
    {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "element {i} differs after falling back to boundary {}",
            bounds[0]
        );
    }
}
