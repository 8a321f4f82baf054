//! The `reproduce serve` subcommand: a soak-style load run of the
//! multi-tenant GEMM service, comparing the FPM-aware scheduler against
//! the FIFO and round-robin baselines on the same seeded job stream.
//!
//! For each policy the same generated load (Poisson arrivals, weighted
//! tenants, per-tenant size tables — see `summagen_service::loadgen`)
//! runs through a fresh service over the hclserver1 device pool, with
//! per-tenant metrics registered on a Prometheus-renderable registry and
//! every dispatch recorded as a `Sched` span into a schedule timeline.
//!
//! Artifacts, all under the output directory:
//!
//! * `LOAD_<mix>.json` — schema-stamped document: per-policy makespan,
//!   throughput, queue/batch/retry counters, per-tenant p50/p95/p99
//!   latency (exact, from the sorted per-job latencies), rejection
//!   counts by reason, and the schedule digest that pins determinism.
//! * `LOAD_<mix>.prom` — the Prometheus exposition of the FPM-aware
//!   run's registry: the same per-tenant series a live scrape of
//!   `examples/prometheus_server.rs --service` serves.
//! * `SCHEDULE_<mix>_<policy>.json` — Perfetto timeline of the run, one
//!   track per pool device tiled with its dispatched batches.
//!
//! When all three policies run (the default), the command exits nonzero
//! unless FPM-aware beats FIFO on *both* makespan and p95 latency —
//! that comparison is the service-level restatement of the paper's
//! claim, and this gate is what the CI load job regression-tests.

use std::path::Path;

use summagen_service::{generate, LoadMix, Policy, ServiceConfig};

use crate::harness::{
    digest_json, ensure, load_mix, observe, print_tenant_table, Artifacts, Observed, Outcome,
};
use crate::json::{with_metadata, Json};

/// Hockney link parameters of the pool (same intra-node class the other
/// simulated experiments use).
pub const SERVE_ALPHA: f64 = 1e-5;
pub const SERVE_BETA: f64 = 4e-10;

/// One policy's run, kept for the artifact and the comparison gate.
pub type PolicyRun = Observed;

/// Runs one policy over a fresh pool and the given job stream.
pub fn run_policy(mix: &LoadMix, policy: Policy) -> PolicyRun {
    let config = ServiceConfig {
        policy,
        ..ServiceConfig::default()
    };
    let title = format!("{} schedule ({})", mix.name, policy.name());
    observe(mix, config, None, &title, |service| {
        service.run(generate(mix))
    })
}

fn policy_json(mix: &LoadMix, run: &PolicyRun) -> Json {
    let report = &run.report;
    let tenants = report.tenant_summaries(mix.tenants.len());
    Json::obj([
        ("policy", Json::from(report.policy.name())),
        ("makespan_s", Json::from(report.makespan)),
        ("throughput_jobs_per_s", Json::from(report.throughput())),
        ("completed", Json::from(report.completed())),
        ("failed", Json::from(report.failed())),
        ("rejected", Json::from(report.rejections.len())),
        ("p50_s", Json::from(report.latency_quantile(0.50))),
        ("p95_s", Json::from(report.latency_quantile(0.95))),
        ("p99_s", Json::from(report.latency_quantile(0.99))),
        ("peak_queue_depth", Json::from(report.peak_queue_depth)),
        ("batches", Json::from(report.batches)),
        ("retries", Json::from(report.retries)),
        ("schedule_digest", digest_json(report.schedule_digest)),
        (
            "device_busy_s",
            Json::arr(
                report
                    .device_names
                    .iter()
                    .zip(&report.device_busy)
                    .map(|(name, &busy)| {
                        Json::obj([("device", Json::from(*name)), ("busy_s", Json::from(busy))])
                    }),
            ),
        ),
        (
            "rejections_by_reason",
            Json::obj(["queue-full", "quota-exceeded", "too-large"].map(|reason| {
                let count = report
                    .rejections
                    .iter()
                    .filter(|(_, r)| r.label() == reason);
                (reason, Json::from(count.count()))
            })),
        ),
        (
            "tenants",
            Json::arr(tenants.iter().map(|t| {
                Json::obj([
                    ("tenant", Json::from(mix.tenants[t.tenant].name)),
                    ("submitted", Json::from(t.submitted)),
                    ("completed", Json::from(t.completed)),
                    ("failed", Json::from(t.failed)),
                    ("rejected", Json::from(t.rejected)),
                    ("p50_s", Json::from(t.p50)),
                    ("p95_s", Json::from(t.p95)),
                    ("p99_s", Json::from(t.p99)),
                    ("mean_s", Json::from(t.mean)),
                    ("max_s", Json::from(t.max)),
                    ("deadline_misses", Json::from(t.deadline_misses)),
                ])
            })),
        ),
    ])
}

/// The serve document for a mix across the given policy runs.
pub fn serve_json(mix: &LoadMix, runs: &[PolicyRun]) -> Json {
    let doc = Json::obj([
        ("mix", Json::from(mix.name)),
        (
            "policies",
            Json::arr(runs.iter().map(|r| policy_json(mix, r))),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            (
                "command",
                Json::from(format!("reproduce serve --mix {}", mix.name)),
            ),
            ("seed", Json::from(mix.seed)),
            ("arrival_rate_jobs_per_s", Json::from(mix.arrival_rate)),
            ("jobs", Json::from(mix.jobs)),
            (
                "tenants",
                Json::arr(mix.tenants.iter().map(|t| Json::from(t.name))),
            ),
            ("alpha_s", Json::from(SERVE_ALPHA)),
            ("beta_s_per_byte", Json::from(SERVE_BETA)),
        ]),
    )
}

fn print_comparison(mix: &LoadMix, runs: &[PolicyRun]) {
    println!(
        "\nSERVE — multi-tenant GEMM service, mix '{}' ({} jobs, seed {})",
        mix.name, mix.jobs, mix.seed
    );
    println!(
        "{:>12}{:>12}{:>12}{:>10}{:>10}{:>10}{:>8}{:>10}{:>10}",
        "policy", "makespan", "thru j/s", "p50 s", "p95 s", "p99 s", "done", "failed", "rejected"
    );
    for run in runs {
        let r = &run.report;
        println!(
            "{:>12}{:>12.3}{:>12.1}{:>10.3}{:>10.3}{:>10.3}{:>8}{:>10}{:>10}",
            r.policy.name(),
            r.makespan,
            r.throughput(),
            r.latency_quantile(0.50),
            r.latency_quantile(0.95),
            r.latency_quantile(0.99),
            r.completed(),
            r.failed(),
            r.rejections.len()
        );
    }
    println!("\n  per-tenant p95 latency (s):");
    let rows = runs.iter().map(|r| (r.report.policy.name(), &r.report));
    print_tenant_table(mix, 12, "policy", rows, |t| t.p95);
    // What the CI load job compares against the golden constants of
    // `tests/service_load.rs`.
    println!("\n  schedule digests:");
    for run in runs {
        let r = &run.report;
        println!("{:>12} {:016x}", r.policy.name(), r.schedule_digest);
    }
}

/// Runs the serve experiment: the named mix under `policy` (or all three
/// policies when `None`), artifacts into `out_dir`. With all three
/// policies the FPM-vs-FIFO win is asserted and a loss is an `Err`.
pub fn run_serve(
    mix_name: &str,
    policy: Option<Policy>,
    jobs_override: Option<usize>,
    out_dir: &Path,
) -> Outcome {
    let mut mix = load_mix(mix_name)?;
    if let Some(jobs) = jobs_override {
        mix.jobs = jobs;
    }
    let policies = policy.map_or(Policy::ALL.to_vec(), |p| vec![p]);
    let runs: Vec<PolicyRun> = policies.iter().map(|&p| run_policy(&mix, p)).collect();
    print_comparison(&mix, &runs);

    let out = Artifacts::create(out_dir)?;
    out.write(
        &format!("LOAD_{}.json", mix.name),
        serve_json(&mix, &runs).pretty(),
    )?;
    for run in &runs {
        let policy = run.report.policy;
        out.write(
            &format!("SCHEDULE_{}_{}.json", mix.name, policy.name()),
            &run.perfetto,
        )?;
        if policy == Policy::FpmAware {
            out.write(&format!("LOAD_{}.prom", mix.name), &run.exposition)?;
        }
    }
    println!("\nserve artifacts written to {}", out.dir().display());

    let fifo = runs.iter().find(|r| r.report.policy == Policy::Fifo);
    let fpm = runs.iter().find(|r| r.report.policy == Policy::FpmAware);
    if let (Some(fifo), Some(fpm)) = (fifo, fpm) {
        let (fm, pm) = (fifo.report.makespan, fpm.report.makespan);
        let (f95, p95) = (
            fifo.report.latency_quantile(0.95),
            fpm.report.latency_quantile(0.95),
        );
        println!(
            "  fpm-aware vs fifo: makespan {:.3}x, p95 {:.3}x",
            fm / pm,
            f95 / p95
        );
        ensure(pm < fm && p95 < f95, || {
            format!(
                "FPM-aware failed to beat FIFO: makespan {pm:.3} vs {fm:.3}, p95 {p95:.3} vs {f95:.3}"
            )
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_service::small_mix;

    fn tiny_mix() -> LoadMix {
        let mut mix = small_mix();
        mix.jobs = 40;
        mix
    }

    #[test]
    fn serve_json_carries_all_policies_and_tenants() {
        let mix = tiny_mix();
        let runs: Vec<PolicyRun> = Policy::ALL.iter().map(|&p| run_policy(&mix, p)).collect();
        let doc = serve_json(&mix, &runs);
        let policies = doc.get("policies").and_then(Json::as_arr).unwrap();
        assert_eq!(policies.len(), 3);
        for p in policies {
            let tenants = p.get("tenants").and_then(Json::as_arr).unwrap();
            assert_eq!(tenants.len(), 3);
            assert!(p.path("rejections_by_reason.queue-full").is_some());
            assert!(p.get("schedule_digest").and_then(Json::as_str).is_some());
        }
        assert_eq!(
            doc.path("run_config.seed").and_then(Json::as_f64),
            Some(mix.seed as f64)
        );
        // The document round-trips through the parser (artifact sanity).
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn exposition_has_per_tenant_series_and_perfetto_has_device_tracks() {
        let mix = tiny_mix();
        let run = run_policy(&mix, Policy::FpmAware);
        assert!(run.exposition.contains("summagen_service_jobs_total"));
        assert!(
            run.exposition.contains("tenant=\"free\""),
            "{}",
            run.exposition
        );
        assert!(run.exposition.contains("summagen_service_latency_seconds"));
        assert!(
            run.perfetto.contains("\"sched\""),
            "no sched spans in timeline"
        );
    }

    #[test]
    fn policy_runs_are_deterministic() {
        let mix = tiny_mix();
        let a = run_policy(&mix, Policy::FpmAware);
        let b = run_policy(&mix, Policy::FpmAware);
        assert_eq!(a.report.schedule_digest, b.report.schedule_digest);
        assert_eq!(a.exposition, b.exposition);
        assert_eq!(a.perfetto, b.perfetto);
    }
}
