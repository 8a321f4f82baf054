//! The `reproduce insight` subcommand: causal what-if profiling of the
//! recorded schedules, then per-tenant SLO burn-rate alerting on the
//! service (the [`SLO`] row of the scenario table).
//!
//! The what-if half replays the instrumented traces of the four paper
//! shapes under virtual interventions (communication free, one link
//! free, one device's GEMMs doubled, ABFT free), ranks the resulting
//! opportunities by makespan reduction, and sweeps communication and
//! compute cost factors into sensitivity curves. It writes one
//! schema-stamped `INSIGHT_<shape>.json` per shape: identity-replay drift,
//! the comm-free counterfactual against the analyzer's compute bound, the
//! ranked opportunity table, and the sensitivity curves.
//!
//! The command exits nonzero unless:
//!
//! * the identity replay of every shape reproduces the executor's
//!   makespan;
//! * zeroing all communication cost reproduces the analyzer's
//!   compute-bound makespan (the busiest rank's GEMM content) within
//!   1% on every shape;
//! * square corner's top-ranked opportunity is communication; and
//! * the [`SLO`] row's gates hold on the hetero mix.

use std::path::Path;

use summagen_insight::{
    opportunity_table, rank_opportunities, sensitivity, Opportunity, SensitivityCurve,
};
use summagen_partition::{Shape, ALL_FOUR_SHAPES};
use summagen_service::hetero_mix;
use summagen_trace::{replay, Intervention, Replay, Target};

use crate::benchcmd::check_docs;
use crate::harness::{ensure, shape_slug, Artifacts, Outcome};
use crate::json::{with_metadata, Json};
use crate::scenario::{self, SLO};
use crate::tracecmd::{trace_shape, TraceRun, TRACE_N};

/// Cost factors of the sensitivity sweep, identity first down to free.
pub const INSIGHT_FACTORS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];

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

    scenario::run(&SLO, &hetero_mix(), out_dir)?;
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
        let mix = hetero_mix();
        let doc = scenario::artifact_document(&SLO, &mix)?;
        Ok((
            "slo".to_string(),
            format!("INSIGHT_slo_{}.json", mix.name),
            doc,
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
}
