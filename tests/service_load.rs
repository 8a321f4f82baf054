//! End-to-end checks of the `reproduce serve` and `reproduce degrade`
//! pipelines at the workspace level: the scheduling win the artifacts
//! gate on, the per-tenant Prometheus series, the on-disk artifact
//! sets, and the graceful-degradation comparison.

use std::fs;

use summagen_bench::scenario::{self, execute, top_tier, Run, BASELINE, DEGRADE, DEGRADED, SERVE};
use summagen_service::{hetero_mix, small_mix, LoadMix};

fn truncated(mut mix: LoadMix, jobs: usize) -> LoadMix {
    mix.jobs = jobs;
    mix
}

/// The serve row's run of `mix` under the policy named `policy`.
fn policy_run(mix: &LoadMix, policy: &str) -> Run {
    let (load, mode) = SERVE.runs.iter().find(|(_, m)| m.name == policy).unwrap();
    execute(&SERVE, mix, 0, *load, *mode).unwrap()
}

/// The headline claim, on the mix built to show it: FPM-aware placement
/// beats head-of-line FIFO on both tail latency and makespan for the
/// heterogeneous tenant mix.
#[test]
fn fpm_aware_beats_fifo_on_the_hetero_mix() {
    let mix = hetero_mix();
    let fifo = policy_run(&mix, "fifo");
    let fpm = policy_run(&mix, "fpm-aware");
    assert!(
        fpm.report.latency_quantile(0.95) < fifo.report.latency_quantile(0.95),
        "fpm p95 {} !< fifo p95 {}",
        fpm.report.latency_quantile(0.95),
        fifo.report.latency_quantile(0.95)
    );
    assert!(
        fpm.report.makespan < fifo.report.makespan,
        "fpm makespan {} !< fifo makespan {}",
        fpm.report.makespan,
        fifo.report.makespan
    );
    // The win holds for every tenant's p95, not just the aggregate.
    let fifo_t = fifo.report.tenant_summaries(mix.tenants.len());
    let fpm_t = fpm.report.tenant_summaries(mix.tenants.len());
    for (f, p) in fifo_t.iter().zip(&fpm_t) {
        assert!(
            p.p95 < f.p95,
            "tenant {} p95: fpm {} !< fifo {}",
            mix.tenants[f.tenant].name,
            p.p95,
            f.p95
        );
    }
}

/// Every tenant of the mix shows up as a label on the exported series,
/// with the jobs accounted for, and the schedule timeline carries one
/// sched span per dispatched batch.
#[test]
fn exposition_and_timeline_carry_the_service_story() {
    let mix = truncated(small_mix(), 80);
    let run = policy_run(&mix, "fpm-aware");
    for tenant in mix.tenant_names() {
        let label = format!("tenant=\"{tenant}\"");
        assert!(
            run.exposition.contains(&label),
            "series for {tenant} missing from exposition"
        );
    }
    for series in [
        "summagen_service_jobs_total",
        "summagen_service_latency_seconds",
        "summagen_service_queue_wait_seconds",
        "summagen_service_rejections_total",
        "summagen_service_queue_depth_peak",
        "summagen_service_device_busy_seconds",
    ] {
        assert!(run.exposition.contains(series), "{series} missing");
    }
    assert!(run.perfetto.contains("\"sched\""));
    assert_eq!(
        run.report.completed() + run.report.failed(),
        run.report.records.len()
    );
}

/// The serve row writes the full artifact set and its gate passes on the
/// small mix; the latency document is parseable and carries all three
/// policies.
#[test]
fn run_serve_writes_artifacts_and_passes_its_gate() {
    let out = std::env::temp_dir().join(format!("summagen-serve-test-{}", std::process::id()));
    scenario::run(&SERVE, &truncated(small_mix(), 80), &out).expect("serve gate");
    for name in [
        "LOAD_small.json",
        "LOAD_small.prom",
        "SCHEDULE_small_fifo.json",
        "SCHEDULE_small_round-robin.json",
        "SCHEDULE_small_fpm-aware.json",
    ] {
        assert!(out.join(name).is_file(), "{name} not written");
    }
    let text = fs::read_to_string(out.join("LOAD_small.json")).unwrap();
    let doc = summagen_bench::json::Json::parse(&text).unwrap();
    let policies = doc.get("policies").and_then(|p| p.as_arr()).unwrap();
    assert_eq!(policies.len(), 3);
    fs::remove_dir_all(&out).ok();
}

/// The serve document is a pure function of the mix: rebuilding it from
/// fresh runs reproduces it byte-for-byte (modulo nothing — the virtual
/// clock means there is no wall-time anywhere in the pipeline).
#[test]
fn serve_document_is_reproducible() {
    let mix = truncated(small_mix(), 60);
    let build = || scenario::artifact_document(&SERVE, &mix).unwrap().pretty();
    assert_eq!(build(), build());
}

/// The degradation claim, end to end on the full small mix at the gated
/// stampede factor: with the layer armed, the top-priority tenant's
/// tail latency and deadline-hit rate both beat the plain service on
/// the identical stream, and nothing is lost — every submitted job is a
/// record or a typed rejection in both modes.
#[test]
fn degradation_beats_the_baseline_at_overload() {
    let mix = small_mix();
    let top = top_tier(&mix);
    let base = execute(&DEGRADE, &mix, 7, 5.0, BASELINE).unwrap();
    let deg = execute(&DEGRADE, &mix, 7, 5.0, DEGRADED).unwrap();
    for run in [&base, &deg] {
        assert_eq!(
            run.report.records.len() + run.report.rejections.len(),
            mix.jobs,
            "jobs lost or invented"
        );
    }
    let base_t = &base.report.tenant_summaries(mix.tenants.len())[top];
    let deg_t = &deg.report.tenant_summaries(mix.tenants.len())[top];
    assert!(
        deg_t.p95 < base_t.p95,
        "top-tier p95: degraded {} !< baseline {}",
        deg_t.p95,
        base_t.p95
    );
    assert!(
        deg_t.deadline_hit_rate() > base_t.deadline_hit_rate(),
        "top-tier hit rate: degraded {} !> baseline {}",
        deg_t.deadline_hit_rate(),
        base_t.deadline_hit_rate()
    );
    // The degraded run actually degraded: it shed load and preempted.
    assert!(deg.report.rejections.len() > base.report.rejections.len());
    assert_eq!(base.report.preemptions, 0);
    assert_eq!(base.report.shed(), 0);
    assert!(base.report.quarantine_events.is_empty());
}

/// The degrade row writes the full artifact set and its gates pass on the
/// small mix; the document is parseable and carries every load factor
/// with both modes.
#[test]
fn run_degrade_writes_artifacts_and_passes_its_gates() {
    let out = std::env::temp_dir().join(format!("summagen-degrade-test-{}", std::process::id()));
    scenario::run(&DEGRADE, &small_mix(), &out).expect("degrade gates");
    for name in [
        "DEGRADE_small.json",
        "SCHEDULE_DEGRADE_small_baseline.json",
        "SCHEDULE_DEGRADE_small_degraded.json",
    ] {
        assert!(out.join(name).is_file(), "{name} not written");
    }
    let text = fs::read_to_string(out.join("DEGRADE_small.json")).unwrap();
    let doc = summagen_bench::json::Json::parse(&text).unwrap();
    let loads = doc.get("loads").and_then(|l| l.as_arr()).unwrap();
    assert_eq!(loads.len(), DEGRADE.loads().len());
    for load in loads {
        assert!(load.get("baseline").is_some());
        assert!(load.get("degraded").is_some());
    }
    fs::remove_dir_all(&out).ok();
}

/// Schedule digests of the two seeded mixes, captured at the commit
/// before the placement table (PR 13): a planning change that moves any
/// schedule — a reordered candidate list, a duration computed one ulp
/// differently — fails here, in tier-1. The degraded runs (all four
/// `DegradeConfig` mechanisms, fault seed 7) are pinned at 1×, where
/// quarantine masks and shrink-and-retry re-costing do the placing, and
/// at 5×, where preemption and shedding do. `reproduce serve` prints the
/// per-policy values; the CI load job greps for the hetero one.
#[test]
fn schedule_digests_match_the_goldens() {
    // (mix, [fifo, round-robin, fpm-aware], degraded at [1×, 5×])
    let goldens: [(LoadMix, [u64; 3], [u64; 2]); 2] = [
        (
            small_mix(),
            [0xa14be4e6deb5458f, 0x7d86ec57b1260e69, 0x8546442e83e1bb57],
            [0xe5c7c77d5e0e3223, 0x3ad446b7eadf602d],
        ),
        (
            hetero_mix(),
            [0x080ecadd3c4641d0, 0x666279fe6419b369, 0xce8807927b36f46d],
            [0x35dd3180419be916, 0xf28249d4aac51335],
        ),
    ];
    for (mix, by_policy, degraded) in goldens {
        for ((load, mode), want) in SERVE.runs.iter().zip(by_policy) {
            let got = execute(&SERVE, &mix, 0, *load, *mode).unwrap();
            let got = got.report.schedule_digest;
            assert_eq!(
                got, want,
                "{} under {}: digest {got:016x} != golden {want:016x}",
                mix.name, mode.name
            );
        }
        for (factor, want) in [1.0, 5.0].into_iter().zip(degraded) {
            let got = execute(&DEGRADE, &mix, 7, factor, DEGRADED).unwrap();
            let got = got.report.schedule_digest;
            assert_eq!(
                got, want,
                "{} degraded at {factor}x: digest {got:016x} != golden {want:016x}",
                mix.name
            );
        }
    }
}
