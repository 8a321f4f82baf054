//! Property tests for the multi-tenant service: the three invariants the
//! subsystem is built on, checked over randomized loads rather than the
//! hand-picked mixes of the unit tests.
//!
//! * Admission is *bounded*: no interleaving of offers and takes ever
//!   pushes the queue past its capacity, a tenant past its quota, or an
//!   oversized job into the queue — and every rejection is the typed
//!   reason the offer actually hit.
//! * Jobs are *conserved*: under any fault rate the service either
//!   completes or explicitly fails every admitted job — accepted +
//!   rejected always equals submitted, with no duplicates.
//! * Runs are *deterministic*: the same (mix seed, fault seed, policy)
//!   triple reproduces the schedule digest exactly.
//!
//! The degradation layer adds four more:
//!
//! * Preempt/resume is *bit-identical*: stopping the checksum-protected
//!   executor at any panel boundary and resuming from the parked
//!   k-prefix reproduces the uninterrupted product to the bit.
//! * Degraded runs still *conserve* jobs: with admission, preemption,
//!   quarantine, and brownout all armed, accepted + rejected still
//!   equals submitted and the digest is still reproducible.
//! * Deadlines are *typed*: every finished job with a deadline carries
//!   a Met/Missed verdict consistent with its finish time — no job is
//!   ever silently late.
//! * The quarantine breaker is a *sound state machine*: opens are
//!   monotone, backoff doubles up to the cap, and an open device is
//!   never eligible before its interval ends.

use proptest::prelude::*;

use summagen_comm::HockneyModel;
use summagen_core::{multiply_abft_prefix, panel_boundaries, AbftOptions, ExecutionMode};
use summagen_matrix::random_matrix;
use summagen_partition::ALL_FOUR_SHAPES;
use summagen_platform::profile::hclserver1;
use summagen_service::{
    generate, small_mix, AdmissionConfig, CircuitBreaker, CircuitState, DeadlineVerdict,
    DegradeConfig, DevicePool, FaultProfile, GemmService, JobQueue, Policy, QuarantineConfig,
    Rejection, ServiceConfig,
};

fn service(policy: Policy, faults: FaultProfile, admission: AdmissionConfig) -> GemmService {
    let pool = DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10);
    GemmService::new(
        pool,
        ServiceConfig {
            policy,
            faults,
            admission,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random offer/take interleavings against random bounds: the queue
    /// never exceeds capacity, no tenant exceeds its quota, and every
    /// rejection names the constraint that was actually binding.
    #[test]
    fn admission_never_exceeds_bounds(
        seed in 0u64..1_000,
        capacity in 1usize..12,
        quota in 1usize..6,
        max_n in 200usize..900,
        drain_stride in 2usize..5,
    ) {
        let config = AdmissionConfig {
            queue_capacity: capacity,
            per_tenant_quota: quota,
            max_n,
        };
        let mut queue = JobQueue::new(config);
        let mut mix = small_mix();
        mix.seed = seed;
        mix.jobs = 80;
        for (i, job) in generate(&mix).into_iter().enumerate() {
            let tenant = job.tenant;
            let n = job.n;
            let depth_before = queue.tenant_depth(tenant);
            let len_before = queue.len();
            match queue.offer(job) {
                Ok(()) => {
                    prop_assert!(n <= max_n);
                    prop_assert_eq!(queue.len(), len_before + 1);
                }
                Err(Rejection::TooLarge { .. }) => prop_assert!(n > max_n),
                Err(Rejection::QuotaExceeded { .. }) => {
                    prop_assert!(n <= max_n);
                    prop_assert!(depth_before >= quota);
                }
                Err(Rejection::QueueFull { .. }) => {
                    prop_assert!(n <= max_n);
                    prop_assert!(depth_before < quota);
                    prop_assert_eq!(len_before, capacity);
                }
                Err(
                    rej @ (Rejection::DeadlineInfeasible { .. }
                    | Rejection::Shed { .. }
                    | Rejection::Duplicate { .. }),
                ) => {
                    // Those rejections belong to the service's
                    // degradation/durability layers, never to the
                    // bounded queue.
                    prop_assert!(false, "queue produced a service-layer rejection: {rej:?}");
                }
            }
            prop_assert!(queue.len() <= capacity);
            for t in 0..3 {
                prop_assert!(queue.tenant_depth(t) <= quota);
            }
            if i % drain_stride == 0 && !queue.is_empty() {
                let take_at = i % queue.len();
                let took = queue.take(take_at);
                // Taking releases the tenant's quota slot.
                prop_assert!(queue.tenant_depth(took.tenant) < quota);
            }
        }
        prop_assert!(queue.peak_depth() <= capacity);
    }

    /// Job conservation under seeded faults: every submitted job is
    /// accounted for exactly once — as a completed record, a failed
    /// record, or a typed rejection. Faults may shrink placements and
    /// retry, but nothing is silently dropped.
    #[test]
    fn every_accepted_job_completes_or_fails(
        mix_seed in 0u64..500,
        fault_seed in 0u64..500,
        fail_permille in 0u32..350,
        policy_idx in 0usize..3,
    ) {
        let mut mix = small_mix();
        mix.seed = mix_seed;
        mix.jobs = 60;
        let jobs = generate(&mix);
        let faults = FaultProfile {
            fail_permille: fail_permille as u16,
            seed: fault_seed,
        };
        let mut svc = service(Policy::ALL[policy_idx], faults, AdmissionConfig::default());
        let report = svc.run(jobs.clone());
        prop_assert_eq!(
            report.records.len() + report.rejections.len(),
            jobs.len(),
            "jobs lost or invented"
        );
        let mut ids: Vec<u64> = report
            .records
            .iter()
            .map(|r| r.spec.id)
            .chain(report.rejections.iter().map(|(spec, _)| spec.id))
            .collect();
        ids.sort_unstable();
        let mut want: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        want.sort_unstable();
        prop_assert_eq!(ids, want, "ids must partition exactly");
        for r in &report.records {
            // Whatever happened, it finished after it started and the
            // outcome is explicit.
            prop_assert!(r.finish_time >= r.start_time);
            prop_assert!(!r.devices.is_empty() || r.outcome.label() == "failed");
        }
        if fail_permille == 0 {
            prop_assert_eq!(report.failed(), 0);
        }
    }

    /// Same (mix seed, fault seed, policy) → bit-identical schedule:
    /// the digest covers every placement, retry, and rejection.
    #[test]
    fn same_seed_load_runs_are_deterministic(
        mix_seed in 0u64..500,
        fault_seed in 0u64..500,
        fail_permille in 0u32..200,
        policy_idx in 0usize..3,
    ) {
        let mut mix = small_mix();
        mix.seed = mix_seed;
        mix.jobs = 40;
        let faults = FaultProfile {
            fail_permille: fail_permille as u16,
            seed: fault_seed,
        };
        let policy = Policy::ALL[policy_idx];
        let run = |jobs: Vec<_>| {
            service(policy, faults, AdmissionConfig::default()).run(jobs)
        };
        let a = run(generate(&mix));
        let b = run(generate(&mix));
        prop_assert_eq!(a.schedule_digest, b.schedule_digest);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.records.len(), b.records.len());
    }

    /// Preempting the checksum-protected executor at *any* panel
    /// boundary and resuming from the parked k-prefix yields a product
    /// bit-identical to the uninterrupted run. This is the contract the
    /// service's checkpoint preemption rests on: a preempted job's
    /// remaining work is a pure continuation, not a recomputation.
    #[test]
    fn preempt_resume_is_bit_identical(
        shape_idx in 0usize..4,
        n in 18usize..40,
        mat_seed in 0u64..10_000,
        boundary_sel in 0usize..16,
        s0 in 1u32..4,
        s1 in 1u32..4,
        s2 in 1u32..4,
    ) {
        let shape = ALL_FOUR_SHAPES[shape_idx];
        let speeds = [f64::from(s0), f64::from(s1), f64::from(s2)];
        let a = random_matrix(n, n, mat_seed.wrapping_mul(2).wrapping_add(1));
        let b = random_matrix(n, n, mat_seed.wrapping_mul(2).wrapping_add(2));
        let abft = AbftOptions::default();
        let run = |resume: Option<&_>, stop_k| {
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
        };
        let whole = run(None, n).expect("uninterrupted run");
        prop_assert_eq!(whole.k, n);
        let interior: Vec<usize> = panel_boundaries(shape, n, &speeds)
            .into_iter()
            .filter(|&k| k > 0 && k < n)
            .collect();
        prop_assume!(!interior.is_empty());
        let boundary = interior[boundary_sel % interior.len()];
        let parked = run(None, boundary).expect("prefix run");
        prop_assert_eq!(parked.k, boundary);
        let resumed = run(Some(&parked), n).expect("resumed run");
        prop_assert_eq!(resumed.k, n);
        for (i, (got, want)) in resumed
            .c
            .as_slice()
            .iter()
            .zip(whole.c.as_slice())
            .enumerate()
        {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "element {} differs after resume at k={}: {} vs {}",
                i, boundary, got, want
            );
        }
    }

    /// Job conservation survives the full degradation stack: with
    /// deadline admission, preemption, quarantine, and brownout all
    /// armed under overload and faults, accepted + rejected still
    /// equals submitted with no duplicate ids — and the run is still
    /// reproducible from its seeds.
    #[test]
    fn degraded_runs_conserve_jobs_and_stay_deterministic(
        mix_seed in 0u64..500,
        fault_seed in 0u64..500,
        fail_permille in 0u32..350,
        rate_scale in 1u32..6,
    ) {
        let mut mix = small_mix();
        mix.seed = mix_seed;
        mix.jobs = 60;
        mix.arrival_rate *= f64::from(rate_scale);
        let jobs = generate(&mix);
        let faults = FaultProfile {
            fail_permille: fail_permille as u16,
            seed: fault_seed,
        };
        let run = || {
            let pool = DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10);
            GemmService::new(
                pool,
                ServiceConfig {
                    policy: Policy::FpmAware,
                    faults,
                    degrade: DegradeConfig::standard(),
                    ..ServiceConfig::default()
                },
            )
            .run(jobs.clone())
        };
        let report = run();
        prop_assert_eq!(
            report.records.len() + report.rejections.len(),
            jobs.len(),
            "jobs lost or invented under degradation"
        );
        let mut ids: Vec<u64> = report
            .records
            .iter()
            .map(|r| r.spec.id)
            .chain(report.rejections.iter().map(|(spec, _)| spec.id))
            .collect();
        ids.sort_unstable();
        let mut want: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        want.sort_unstable();
        prop_assert_eq!(ids, want, "ids must partition exactly");
        let again = run();
        prop_assert_eq!(report.schedule_digest, again.schedule_digest);
        prop_assert_eq!(report.preemptions, again.preemptions);
        prop_assert_eq!(report.shed(), again.shed());
        prop_assert_eq!(&report.quarantine_events, &again.quarantine_events);
    }

    /// Every finished job's deadline verdict is consistent with its
    /// finish time: jobs without a deadline report `NoDeadline`, jobs
    /// with one report `Met` or `Missed { late_by }` matching the
    /// clock — a late job is never silently late.
    #[test]
    fn deadline_verdicts_match_finish_times(
        mix_seed in 0u64..500,
        fault_seed in 0u64..500,
        fail_permille in 0u32..300,
        degrade_on in (0u32..2).prop_map(|b| b == 1),
    ) {
        let mut mix = small_mix();
        mix.seed = mix_seed;
        mix.jobs = 60;
        let jobs = generate(&mix);
        prop_assume!(jobs.iter().any(|j| j.deadline.is_some()));
        let faults = FaultProfile {
            fail_permille: fail_permille as u16,
            seed: fault_seed,
        };
        let degrade = if degrade_on {
            DegradeConfig::standard()
        } else {
            DegradeConfig::default()
        };
        let pool = DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10);
        let report = GemmService::new(
            pool,
            ServiceConfig {
                policy: Policy::FpmAware,
                faults,
                degrade,
                ..ServiceConfig::default()
            },
        )
        .run(jobs);
        for r in &report.records {
            match (r.spec.deadline, r.deadline) {
                (None, DeadlineVerdict::NoDeadline) => {}
                (Some(d), DeadlineVerdict::Met) => {
                    prop_assert!(r.finish_time <= d + 1e-9, "Met but late: {r:?}");
                }
                (Some(d), DeadlineVerdict::Missed { late_by }) => {
                    prop_assert!(r.finish_time > d, "Missed but on time: {r:?}");
                    prop_assert!(
                        (late_by - (r.finish_time - d)).abs() < 1e-9,
                        "late_by inconsistent: {r:?}"
                    );
                }
                (spec, verdict) => {
                    prop_assert!(false, "verdict {verdict:?} for deadline {spec:?}");
                }
            }
        }
    }

    /// The circuit breaker under arbitrary blame/success sequences:
    /// opens only on blamed failures, backoff is exactly
    /// `base * 2^(opens-1)` capped at the max, an open device is never
    /// eligible before its interval ends, and eligibility always means
    /// not-open.
    #[test]
    fn circuit_breaker_is_a_sound_state_machine(
        outcomes in proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 1..120),
        threshold in 1u32..5,
        base_scale in 1u32..5,
        step in 1u32..40,
    ) {
        let config = QuarantineConfig {
            failure_threshold: threshold,
            base_backoff: f64::from(base_scale),
            max_backoff: 3.0 * f64::from(base_scale),
        };
        let mut breaker = CircuitBreaker::new(config);
        let mut now = 0.0;
        for &failed in &outcomes {
            now += f64::from(step) * 0.1;
            let was_open = breaker.state(now) == CircuitState::Open;
            let opens_before = breaker.opens();
            let transition = if failed {
                breaker.record_failure(now)
            } else {
                breaker.record_success(now)
            };
            match transition {
                Some(t) if t.to == CircuitState::Open => {
                    prop_assert!(failed, "opened on a success");
                    prop_assert!(!was_open, "opened while already open");
                    prop_assert_eq!(breaker.opens(), opens_before + 1);
                    let expected = (config.base_backoff
                        * 2f64.powi(breaker.opens() as i32 - 1))
                    .min(config.max_backoff);
                    prop_assert!(
                        (t.open_until - now - expected).abs() < 1e-9,
                        "backoff {} != expected {}",
                        t.open_until - now,
                        expected
                    );
                    prop_assert!(!breaker.eligible(now), "eligible while open");
                }
                Some(t) => {
                    prop_assert_eq!(t.to, CircuitState::Closed);
                    prop_assert!(!failed, "closed on a failure");
                    prop_assert_eq!(t.from, CircuitState::HalfOpen);
                }
                None => {}
            }
            prop_assert_eq!(breaker.opens(), opens_before + u32::from(failed && !was_open && transition.is_some()));
            // Eligibility is exactly "not open", and an open breaker
            // stays ineligible until its interval ends.
            let open_now = breaker.state(now) == CircuitState::Open;
            prop_assert_eq!(breaker.eligible(now), !open_now);
            if open_now {
                prop_assert!(now < breaker.open_until());
                prop_assert!(
                    breaker.open_until() - now <= config.max_backoff + 1e-9,
                    "open interval exceeds the backoff cap"
                );
            }
        }
    }
}
