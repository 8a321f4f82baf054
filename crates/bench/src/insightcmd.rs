//! The `reproduce insight` subcommand: causal what-if profiling of the
//! recorded schedules and per-tenant SLO burn-rate alerting on the
//! service.
//!
//! The what-if half replays the instrumented traces of the four paper
//! shapes under virtual interventions (communication free, one link
//! free, one device's GEMMs doubled, ABFT free), ranks the resulting
//! opportunities by makespan reduction, and sweeps communication and
//! compute cost factors into sensitivity curves. The SLO half drives
//! the hetero tenant mix through the service twice — a healthy 1×
//! control and a degraded 5× stampede with seeded device faults — with
//! a declarative per-tenant SLO policy armed, and reports the
//! multi-window burn-rate alerts that fire.
//!
//! Artifacts, all under the output directory:
//!
//! * `INSIGHT_<shape>.json` — schema-stamped document per shape:
//!   identity-replay drift, the comm-free counterfactual against the
//!   analyzer's compute bound, the ranked opportunity table, and the
//!   sensitivity curves.
//! * `INSIGHT_slo_<mix>.json` — per load factor, the alerts that fired
//!   (tenant, SLO, window burn rates, fire/clear times) next to the
//!   per-tenant service summaries.
//! * `SLO_INSIGHT_<mix>.prom` — Prometheus exposition of the 5× run
//!   (burn-rate gauges and alert counters carry `tenant`/`slo`/`window`
//!   labels).
//! * `SCHEDULE_INSIGHT_<mix>_5x.json` — Perfetto timeline of the 5×
//!   run; alert intervals ride the annotation tracks as `slo-alert`
//!   spans.
//!
//! The command exits nonzero unless:
//!
//! * the identity replay of every shape reproduces the executor's
//!   makespan;
//! * zeroing all communication cost reproduces the analyzer's
//!   compute-bound makespan (the busiest rank's GEMM content) within
//!   1% on every shape;
//! * square corner's top-ranked opportunity is communication;
//! * the healthy 1× run fires **zero** alerts while the degraded 5× run
//!   fires at least one, visible both as a nonzero
//!   `summagen_service_slo_alerts_total` series and as `slo-alert`
//!   spans in the Perfetto timeline; and
//! * the 5× run reproduces its schedule digest and alert list when
//!   rerun.
//!
//! Unlike the degrade sweep, the fault seed here is **not** widened by
//! `SUMMAGEN_CHAOS_SEED`: the alert gate is calibrated against the base
//! seed's schedule, and the check mode compares byte-stable documents.

use std::path::Path;

use summagen_insight::{
    opportunity_table, rank_opportunities, sensitivity, BurnConfig, Opportunity, SensitivityCurve,
    SloKind, SloPolicy, SloSpec,
};
use summagen_partition::{Shape, ALL_FOUR_SHAPES};
use summagen_service::{LoadMix, ServiceConfig};
use summagen_trace::{replay, Intervention, Replay, Target};

use crate::benchcmd::check_docs;
use crate::degradecmd::{faulty_config, load_run, LoadRun, DEGRADED, DEGRADE_FAIL_PERMILLE};
use crate::harness::{digest_json, ensure, shape_slug, Artifacts, Error, Outcome};
use crate::json::{with_metadata, Json};
use crate::servecmd::{SERVE_ALPHA, SERVE_BETA};
use crate::tracecmd::{trace_shape, TraceRun, TRACE_N};

/// Cost factors of the sensitivity sweep, identity first down to free.
pub const INSIGHT_FACTORS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];

/// Arrival-rate multipliers of the SLO scenario: the healthy control
/// and the degraded stampede.
pub const INSIGHT_LOAD_FACTORS: [f64; 2] = [1.0, 5.0];

/// Fault seed of the 5× run. Fixed — see the module docs on why the
/// chaos-seed widening convention does not apply here.
pub const INSIGHT_FAULT_SEED: u64 = 7;

/// Relative tolerance of the comm-free-vs-compute-bound gate.
pub const COMM_FREE_TOLERANCE: f64 = 0.01;

/// One shape's what-if analysis.
pub struct InsightShape {
    /// The instrumented run (trace, aggregated metrics, critical path).
    pub run: TraceRun,
    /// Identity replay — must reproduce the recorded schedule.
    pub baseline: Replay,
    /// All communication cost zeroed.
    pub comm_free: Replay,
    /// Ranked interventions, biggest makespan reduction first.
    pub opportunities: Vec<Opportunity>,
    /// Sensitivity curves over [`INSIGHT_FACTORS`] (comm, then compute).
    pub curves: Vec<SensitivityCurve>,
}

/// The compute-bound makespan the analyzer implies: the busiest rank's
/// GEMM content. With every communication span free, each rank's leaves
/// pack back-to-back, so the replay floor is exactly this bound.
pub fn compute_bound(run: &TraceRun) -> f64 {
    run.metrics
        .per_rank
        .iter()
        .map(|r| r.comp_time)
        .fold(0.0, f64::max)
}

/// Runs the what-if analysis for one shape at problem size `n`.
pub fn insight_shape(n: usize, shape: Shape) -> InsightShape {
    let run = trace_shape(n, shape);
    let baseline = replay(&run.trace, &[]);
    let comm_free = replay(&run.trace, &[Intervention::free(Target::Comm)]);
    let opportunities = rank_opportunities(&run.trace);
    let curves = vec![
        sensitivity(&run.trace, Target::Comm, &INSIGHT_FACTORS),
        sensitivity(&run.trace, Target::Compute, &INSIGHT_FACTORS),
    ];
    InsightShape {
        run,
        baseline,
        comm_free,
        opportunities,
        curves,
    }
}

/// The per-shape acceptance gates: identity-replay fidelity, the
/// comm-free counterfactual against the analyzer's compute bound, and
/// (for square corner, the paper's communication-dominated layout) the
/// top-ranked opportunity being communication.
fn gate_shape(is: &InsightShape) -> Outcome {
    let name = is.run.shape.name();
    let drift = (is.baseline.makespan - is.run.exec_time).abs() / is.run.exec_time;
    ensure(drift <= 1e-9, || {
        format!(
            "{name}: identity replay makespan {:.9e} != executor {:.9e} (rel {drift:.2e})",
            is.baseline.makespan, is.run.exec_time
        )
    })?;
    let bound = compute_bound(&is.run);
    let rel = (is.comm_free.makespan - bound).abs() / bound;
    ensure(rel <= COMM_FREE_TOLERANCE, || {
        format!(
            "{name}: comm-free replay {:.6e}s misses compute bound {:.6e}s by {:.2}% (> {:.0}%)",
            is.comm_free.makespan,
            bound,
            100.0 * rel,
            100.0 * COMM_FREE_TOLERANCE
        )
    })?;
    let top = is.opportunities.first().map(|o| o.description.as_str());
    ensure(
        is.run.shape != Shape::SquareCorner || top == Some("communication free"),
        || format!("{name}: top opportunity is {top:?}, expected communication"),
    )
}

/// The per-shape what-if document.
pub fn insight_json(is: &InsightShape) -> Json {
    let run = &is.run;
    let cp = &run.path;
    let bound = compute_bound(run);
    let doc = Json::obj([
        ("shape", Json::from(run.shape.name())),
        ("n", Json::from(run.n)),
        (
            "baseline",
            Json::obj([
                ("makespan_s", Json::from(is.baseline.makespan)),
                ("executor_s", Json::from(run.exec_time)),
                ("leaves", Json::from(is.baseline.leaves)),
            ]),
        ),
        (
            "critical_path",
            Json::obj([
                ("comp_s", Json::from(cp.comp_time)),
                ("comm_s", Json::from(cp.comm_time)),
                ("idle_s", Json::from(cp.idle_time)),
                ("comm_fraction", Json::from(cp.comm_time / cp.makespan)),
            ]),
        ),
        (
            "comm_free",
            Json::obj([
                ("makespan_s", Json::from(is.comm_free.makespan)),
                (
                    "reduction",
                    Json::from(is.comm_free.reduction_vs(is.baseline.makespan)),
                ),
                ("compute_bound_s", Json::from(bound)),
                (
                    "rel_err_vs_bound",
                    Json::from((is.comm_free.makespan - bound).abs() / bound),
                ),
            ]),
        ),
        (
            "opportunities",
            Json::arr(is.opportunities.iter().map(|o| {
                Json::obj([
                    ("intervention", Json::from(o.description.as_str())),
                    ("factor", Json::from(o.factor)),
                    ("makespan_s", Json::from(o.makespan)),
                    ("reduction", Json::from(o.reduction)),
                    ("scaled_leaves", Json::from(o.scaled_leaves)),
                ])
            })),
        ),
        (
            "sensitivity",
            Json::arr(is.curves.iter().map(|c| {
                Json::obj([
                    ("target", Json::from(c.description.as_str())),
                    ("baseline_s", Json::from(c.baseline)),
                    (
                        "points",
                        Json::arr(c.points.iter().map(|p| {
                            Json::obj([
                                ("factor", Json::from(p.factor)),
                                ("makespan_s", Json::from(p.makespan)),
                                ("reduction", Json::from(p.reduction)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            ("command", Json::from("reproduce insight")),
            ("n", Json::from(run.n)),
            ("factors", Json::arr(INSIGHT_FACTORS)),
        ]),
    )
}

/// The declarative SLO policy of the scenario, calibrated so the
/// healthy 1× hetero run never breaches while the degraded 5× stampede
/// does: availability objectives on the free and enterprise tiers, a
/// 1 s p95 latency bound and a deadline hit-rate floor on enterprise.
pub fn insight_policy() -> SloPolicy {
    SloPolicy {
        specs: vec![
            SloSpec {
                tenant: 0,
                kind: SloKind::Availability,
                threshold: 0.0,
                objective: 0.9,
            },
            SloSpec {
                tenant: 2,
                kind: SloKind::LatencyP95,
                threshold: 1.0,
                objective: 0.95,
            },
            SloSpec {
                tenant: 2,
                kind: SloKind::Availability,
                threshold: 0.0,
                objective: 0.9,
            },
            SloSpec {
                tenant: 2,
                kind: SloKind::DeadlineHitRate,
                threshold: 0.0,
                objective: 0.8,
            },
        ],
        burn: BurnConfig {
            fast_window: 0.5,
            slow_window: 3.0,
            fire_rate: 2.0,
            min_events: 10,
        },
    }
}

/// Runs one load factor of the SLO scenario: the scaled stream through
/// a fresh pool with the SLO policy armed. The control runs the plain
/// fault-free service; the stampede arms seeded device faults and the
/// full degradation layer, same as the degrade sweep.
pub fn run_slo_mode(mix: &LoadMix, factor: f64, degraded: bool) -> LoadRun {
    let (mode, config) = if degraded {
        (DEGRADED, faulty_config(INSIGHT_FAULT_SEED, true))
    } else {
        ("healthy", ServiceConfig::default())
    };
    load_run(mix, factor, mode, config, Some(insight_policy()), "slo")
}

/// Sum of a counter family's samples in a rendered exposition.
fn exposition_total(exposition: &str, metric: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| l.starts_with(metric) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The SLO scenario gates: a silent control, a loud stampede (visible
/// in the report, the exposition, and the timeline), and a reproducible
/// stampede schedule.
fn gate_slo(mix: &LoadMix, runs: &[LoadRun]) -> Outcome {
    for run in runs {
        let what = format!("{}x {}", run.load_factor, mix.name);
        let alerts = &run.report.slo_alerts;
        if run.degraded() {
            ensure(!alerts.is_empty(), || {
                format!("{what}: degraded stampede fired no SLO alerts")
            })?;
            let total = exposition_total(&run.exposition, "summagen_service_slo_alerts_total");
            ensure(total >= alerts.len() as f64, || {
                format!(
                    "{what}: exposition counts {total} alerts, report has {}",
                    alerts.len()
                )
            })?;
            ensure(run.perfetto.contains("slo-alert"), || {
                format!("{what}: no slo-alert spans in the timeline")
            })?;
        } else if let Some(a) = alerts.first() {
            return Err(Error::Failed(format!(
                "{what}: healthy control fired {} alert(s), first: tenant {} {} at {:.3}s",
                alerts.len(),
                a.tenant,
                a.kind.label(),
                a.fired_at
            )));
        }
    }
    // Reproducibility of the stampede, from scratch.
    if let Some(run) = runs.iter().find(|r| r.degraded()) {
        let again = run_slo_mode(mix, run.load_factor, true);
        ensure(
            again.report.schedule_digest == run.report.schedule_digest
                && again.report.slo_alerts == run.report.slo_alerts,
            || {
                format!(
                    "{}x {}: degraded rerun digest {:016x}/{} alerts != {:016x}/{} alerts",
                    run.load_factor,
                    mix.name,
                    again.report.schedule_digest,
                    again.report.slo_alerts.len(),
                    run.report.schedule_digest,
                    run.report.slo_alerts.len()
                )
            },
        )?;
    }
    Ok(())
}

fn slo_run_json(mix: &LoadMix, run: &LoadRun) -> Json {
    let report = &run.report;
    let tenants = report.tenant_summaries(mix.tenants.len());
    Json::obj([
        ("load_factor", Json::from(run.load_factor)),
        ("mode", Json::from(run.mode)),
        ("makespan_s", Json::from(report.makespan)),
        ("completed", Json::from(report.completed())),
        ("rejected", Json::from(report.rejections.len())),
        ("shed", Json::from(report.shed())),
        ("schedule_digest", digest_json(report.schedule_digest)),
        (
            "alerts",
            Json::arr(report.slo_alerts.iter().map(|a| {
                Json::obj([
                    ("tenant", Json::from(mix.tenants[a.tenant].name)),
                    ("slo", Json::from(a.kind.label())),
                    ("fired_at_s", Json::from(a.fired_at)),
                    (
                        "cleared_at_s",
                        a.cleared_at.map(Json::from).unwrap_or(Json::Null),
                    ),
                    ("burn_fast", Json::from(a.burn_fast)),
                    ("burn_slow", Json::from(a.burn_slow)),
                ])
            })),
        ),
        (
            "tenants",
            Json::arr(tenants.iter().map(|t| {
                Json::obj([
                    ("tenant", Json::from(mix.tenants[t.tenant].name)),
                    ("submitted", Json::from(t.submitted)),
                    ("completed", Json::from(t.completed)),
                    ("rejected", Json::from(t.rejected)),
                    ("shed", Json::from(t.shed)),
                    ("p95_s", Json::from(t.p95)),
                    ("slo_alerts", Json::from(t.slo_alerts)),
                ])
            })),
        ),
    ])
}

/// The SLO scenario document: the control next to the stampede, with
/// the policy that judged both.
pub fn slo_json(mix: &LoadMix, runs: &[LoadRun]) -> Json {
    let policy = insight_policy();
    let doc = Json::obj([
        ("mix", Json::from(mix.name)),
        (
            "loads",
            Json::arr(runs.iter().map(|r| slo_run_json(mix, r))),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            (
                "command",
                Json::from(format!("reproduce insight --mix {}", mix.name)),
            ),
            ("seed", Json::from(mix.seed)),
            ("fault_seed", Json::from(INSIGHT_FAULT_SEED)),
            ("fail_permille", Json::from(DEGRADE_FAIL_PERMILLE as usize)),
            ("jobs", Json::from(mix.jobs)),
            ("load_factors", Json::arr(INSIGHT_LOAD_FACTORS)),
            ("alpha_s", Json::from(SERVE_ALPHA)),
            ("beta_s_per_byte", Json::from(SERVE_BETA)),
            (
                "slo_policy",
                Json::obj([
                    (
                        "burn",
                        Json::obj([
                            ("fast_window_s", Json::from(policy.burn.fast_window)),
                            ("slow_window_s", Json::from(policy.burn.slow_window)),
                            ("fire_rate", Json::from(policy.burn.fire_rate)),
                            ("min_events", Json::from(policy.burn.min_events)),
                        ]),
                    ),
                    (
                        "specs",
                        Json::arr(policy.specs.iter().map(|s| {
                            Json::obj([
                                ("tenant", Json::from(mix.tenants[s.tenant].name)),
                                ("slo", Json::from(s.kind.label())),
                                ("threshold", Json::from(s.threshold)),
                                ("objective", Json::from(s.objective)),
                            ])
                        })),
                    ),
                ]),
            ),
        ]),
    )
}

fn print_slo(mix: &LoadMix, runs: &[LoadRun]) {
    println!(
        "\nSLO — burn-rate alerting, mix '{}' ({} jobs, seed {})",
        mix.name, mix.jobs, mix.seed
    );
    println!(
        "{:>6}{:>10}{:>10}{:>8}{:>8}{:>7}{:>8}",
        "load", "mode", "makespan", "done", "reject", "shed", "alerts"
    );
    for run in runs {
        let r = &run.report;
        println!(
            "{:>6}{:>10}{:>10.3}{:>8}{:>8}{:>7}{:>8}",
            format!("{}x", run.load_factor),
            run.mode,
            r.makespan,
            r.completed(),
            r.rejections.len(),
            r.shed(),
            r.slo_alerts.len(),
        );
    }
    for run in runs.iter().filter(|r| !r.report.slo_alerts.is_empty()) {
        println!("\n  alerts at {}x:", run.load_factor);
        for a in &run.report.slo_alerts {
            println!(
                "    {:<12} {:<18} fired {:>7.3}s  cleared {:>7}  burn fast {:>6.2}  slow {:>6.2}",
                mix.tenants[a.tenant].name,
                a.kind.label(),
                a.fired_at,
                a.cleared_at
                    .map(|t| format!("{t:.3}s"))
                    .unwrap_or_else(|| "open".to_string()),
                a.burn_fast,
                a.burn_slow,
            );
        }
    }
}

/// The tenant mix of the SLO scenario (the heterogeneous three-tier
/// mix the policy is calibrated against).
pub fn insight_mix() -> LoadMix {
    summagen_service::hetero_mix()
}

/// The SLO scenario's runs: the healthy control, then the stampede.
fn slo_runs(mix: &LoadMix) -> Vec<LoadRun> {
    INSIGHT_LOAD_FACTORS
        .iter()
        .map(|&f| run_slo_mode(mix, f, f > 1.0))
        .collect()
}

/// Runs the full insight suite — what-if profiles of the four paper
/// shapes plus the SLO scenario — writing artifacts into `out_dir` and
/// enforcing the acceptance gates.
pub fn run_insight(n: usize, out_dir: &Path) -> Outcome {
    let out = Artifacts::create(out_dir)?;

    println!("\nINSIGHT — causal what-if profiles (n = {n})");
    for shape in ALL_FOUR_SHAPES {
        let is = insight_shape(n, shape);
        gate_shape(&is)?;
        println!("\n  {}:", shape.name());
        for line in opportunity_table(is.baseline.makespan, &is.opportunities).lines() {
            println!("    {line}");
        }
        out.write(
            &format!("INSIGHT_{}.json", shape_slug(shape)),
            insight_json(&is).pretty(),
        )?;
    }

    let mix = insight_mix();
    let runs = slo_runs(&mix);
    print_slo(&mix, &runs);
    gate_slo(&mix, &runs)?;

    out.write(
        &format!("INSIGHT_slo_{}.json", mix.name),
        slo_json(&mix, &runs).pretty(),
    )?;
    if let Some(run) = runs.iter().find(|r| r.degraded()) {
        out.write(&format!("SLO_INSIGHT_{}.prom", mix.name), &run.exposition)?;
        out.write(
            &format!("SCHEDULE_INSIGHT_{}_{}x.json", mix.name, run.load_factor),
            &run.perfetto,
        )?;
    }
    println!("\ninsight artifacts written to {}", out.dir().display());
    Ok(())
}

/// Check mode: reruns the suite and compares every `INSIGHT_*.json`
/// against the like-named baselines in `baseline_dir` through the same
/// [`check_docs`] loop as `bench --check`.
pub fn check_insight(baseline_dir: &Path, tol: f64) -> Outcome {
    let shapes = ALL_FOUR_SHAPES.iter().map(|&shape| {
        Ok((
            shape.name().to_string(),
            format!("INSIGHT_{}.json", shape_slug(shape)),
            insight_json(&insight_shape(TRACE_N, shape)),
        ))
    });
    let slo = std::iter::once_with(|| {
        let mix = insight_mix();
        Ok((
            "slo".to_string(),
            format!("INSIGHT_slo_{}.json", mix.name),
            slo_json(&mix, &slo_runs(&mix)),
        ))
    });
    check_docs("insight", "fresh run", baseline_dir, tol, shapes.chain(slo))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_passes_the_whatif_gates_at_a_small_size() {
        for shape in ALL_FOUR_SHAPES {
            let is = insight_shape(768, shape);
            gate_shape(&is).unwrap();
            assert!(!is.opportunities.is_empty());
            assert_eq!(is.curves.len(), 2);
        }
    }

    #[test]
    fn insight_json_is_deterministic_and_parseable() {
        let a = insight_json(&insight_shape(512, Shape::SquareCorner));
        let b = insight_json(&insight_shape(512, Shape::SquareCorner));
        assert_eq!(a.pretty(), b.pretty());
        let parsed = Json::parse(&a.pretty()).expect("own output parses");
        assert!(
            parsed
                .path("comm_free.reduction")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(
            parsed
                .path("critical_path.comm_fraction")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        let opps = parsed.get("opportunities").and_then(Json::as_arr).unwrap();
        assert_eq!(
            opps[0].get("intervention").and_then(Json::as_str),
            Some("communication free")
        );
    }

    #[test]
    fn control_is_silent_and_stampede_fires_through_every_surface() {
        let mix = insight_mix();
        let runs = slo_runs(&mix);
        gate_slo(&mix, &runs).unwrap();
        let healthy = &runs[0];
        let degraded = &runs[1];
        assert!(healthy.report.slo_alerts.is_empty());
        assert!(!degraded.report.slo_alerts.is_empty());
        assert!(degraded
            .exposition
            .contains("summagen_service_slo_alerts_total"));
        assert!(degraded.perfetto.contains("slo-alert"));
        assert!(!healthy.perfetto.contains("slo-alert"));
    }

    #[test]
    fn slo_json_round_trips_and_carries_the_policy() {
        let mix = insight_mix();
        let runs = vec![run_slo_mode(&mix, 5.0, true)];
        let doc = slo_json(&mix, &runs);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        let loads = doc.get("loads").and_then(Json::as_arr).unwrap();
        let alerts = loads[0].get("alerts").and_then(Json::as_arr).unwrap();
        assert!(!alerts.is_empty());
        for a in alerts {
            assert!(a.get("slo").and_then(Json::as_str).is_some());
            assert!(a.get("burn_fast").and_then(Json::as_f64).unwrap() >= 2.0);
        }
        let specs = doc
            .path("run_config.slo_policy.specs")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(specs.len(), insight_policy().specs.len());
    }

    #[test]
    fn exposition_total_sums_counter_samples() {
        let text = "# TYPE x counter\nx{a=\"1\"} 2\nx{a=\"2\"} 3\ny 9\n";
        assert_eq!(exposition_total(text, "x"), 5.0);
    }
}
