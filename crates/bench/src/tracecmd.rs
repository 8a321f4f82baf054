//! The `reproduce trace` subcommand: instrumented runs of the four paper
//! shapes with Perfetto export and critical-path reporting.
//!
//! Each shape runs through [`simulate_instrumented`] with a
//! `TraceRecorder` installed, then the finished trace is turned into
//! three artifacts per shape:
//!
//! * `trace_<shape>.json` — Chrome/Perfetto trace-event file (load at
//!   <https://ui.perfetto.dev>, virtual-clock timebase);
//! * `metrics_<shape>.json` — compact machine-readable summary
//!   (per-rank busy/idle/comm fractions, per-link volumes, critical-path
//!   decomposition), stamped with the standard schema metadata;
//! * the critical-path table on stdout, with a consistency check that
//!   the path's makespan equals the executor's reported virtual time.

use std::path::Path;

use summagen_core::simulate_instrumented;
use summagen_partition::{proportional_areas, Shape, ALL_FOUR_SHAPES};
use summagen_platform::profile::hclserver1;
use summagen_trace::{
    critical_path, metrics, perfetto_json, CriticalPath, RecordedTrace, TraceMetrics, TraceRecorder,
};

use crate::harness::{ensure, shape_slug, Artifacts, Outcome};
use crate::json::{with_metadata, Json};
use crate::{link_model, CPM_SPEEDS};

/// Problem size of the traced runs: large enough that all three stages
/// and every communicator are exercised, small enough that the four-shape
/// sweep stays a smoke test.
pub const TRACE_N: usize = 8_192;

/// Everything produced by one instrumented shape run.
#[derive(Debug)]
pub struct TraceRun {
    /// Shape that was run.
    pub shape: Shape,
    /// Problem size.
    pub n: usize,
    /// The executor's reported virtual execution time (max over ranks).
    pub exec_time: f64,
    /// The raw recorded span stream.
    pub trace: RecordedTrace,
    /// Per-rank / per-link aggregation of the trace.
    pub metrics: TraceMetrics,
    /// Critical path through the happens-before DAG.
    pub path: CriticalPath,
}

impl TraceRun {
    /// Relative difference between the critical path's makespan and the
    /// executor's virtual time — the acceptance check: both are derived
    /// from the same virtual schedule, so they must agree to rounding.
    pub fn makespan_drift(&self) -> f64 {
        (self.path.makespan - self.exec_time).abs() / self.exec_time.max(f64::MIN_POSITIVE)
    }
}

/// Runs one shape at size `n` with the paper's CPM areas on the modelled
/// HCLServer1, recording the full span stream.
pub fn trace_shape(n: usize, shape: Shape) -> TraceRun {
    let platform = hclserver1();
    let areas = proportional_areas(n, &CPM_SPEEDS);
    let spec = shape.build(n, &areas);
    let recorder = TraceRecorder::new(spec.nprocs);
    let report = simulate_instrumented(&spec, &platform, link_model(), recorder.clone());
    let trace = recorder.finish();
    let metrics = metrics(&trace);
    let path = critical_path(&trace);
    TraceRun {
        shape,
        n,
        exec_time: report.exec_time,
        trace,
        metrics,
        path,
    }
}

/// The machine-readable metrics summary for one traced run, stamped with
/// the standard schema metadata.
pub fn metrics_json(run: &TraceRun) -> Json {
    let m = &run.metrics;
    let doc = Json::obj([
        ("makespan_s", Json::from(m.makespan)),
        ("exec_time_s", Json::from(run.exec_time)),
        ("total_spans", Json::from(run.trace.len())),
        ("dropped_spans", Json::from(m.dropped)),
        (
            "per_rank",
            Json::arr(m.per_rank.iter().map(|r| {
                Json::obj([
                    ("rank", Json::from(r.rank)),
                    ("comp_time_s", Json::from(r.comp_time)),
                    ("comm_time_s", Json::from(r.comm_time)),
                    ("idle_time_s", Json::from(r.idle_time)),
                    ("comp_fraction", Json::from(r.comp_fraction(m.makespan))),
                    ("gemm_flops", Json::from(r.gemm_flops)),
                    ("leaf_spans", Json::from(r.leaf_spans)),
                ])
            })),
        ),
        (
            "links",
            Json::arr(m.links.iter().map(|l| {
                Json::obj([
                    ("src", Json::from(l.src)),
                    ("dst", Json::from(l.dst)),
                    ("bytes", Json::from(l.bytes)),
                    ("msgs", Json::from(l.msgs)),
                ])
            })),
        ),
        (
            "critical_path",
            Json::obj([
                ("segments", Json::from(run.path.segments.len())),
                ("comp_time_s", Json::from(run.path.comp_time)),
                ("comm_time_s", Json::from(run.path.comm_time)),
                ("idle_time_s", Json::from(run.path.idle_time)),
            ]),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            ("command", Json::from("reproduce trace")),
            ("n", Json::from(run.n)),
            ("shape", Json::from(run.shape.name())),
            ("cpm_speeds", Json::arr(CPM_SPEEDS)),
        ]),
    )
}

/// Runs all four paper shapes at size `n`, writing
/// `trace_<shape>.json` / `metrics_<shape>.json` into `out_dir` and
/// printing per-rank summaries plus the critical-path tables. Fails if a
/// critical path disagrees with the executor's virtual time.
pub fn run_trace(n: usize, out_dir: &Path) -> Outcome {
    let out = Artifacts::create(out_dir)?;
    println!(
        "\nTRACE — instrumented SummaGen runs (N = {n}, CPM areas 1:2:0.9), output in {}",
        out.dir().display()
    );
    for shape in ALL_FOUR_SHAPES {
        let run = trace_shape(n, shape);
        let slug = shape_slug(shape);

        let title = format!("SummaGen {} N={n}", shape.name());
        let trace_path = out.write(
            &format!("trace_{slug}.json"),
            perfetto_json(&run.trace, &title),
        )?;
        let metrics_path =
            out.write(&format!("metrics_{slug}.json"), metrics_json(&run).pretty())?;

        let wire_bytes: u64 = run.metrics.links.iter().map(|l| l.bytes).sum();
        let drift = run.makespan_drift();
        println!(
            "\n{} — {} spans ({} dropped), {} wire bytes, exec {:.6} s",
            shape.name(),
            run.trace.len(),
            run.metrics.dropped,
            wire_bytes,
            run.exec_time,
        );
        ensure(drift < 1e-9, || {
            format!(
                "{}: critical-path makespan {} disagrees with executor time {}",
                shape.name(),
                run.path.makespan,
                run.exec_time
            )
        })?;
        println!(
            "  makespan check: critical path {:.9} s vs executor {:.9} s (drift {drift:.2e}) ok",
            run.path.makespan, run.exec_time
        );
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>7} {:>8}",
            "rank", "comp (s)", "comm (s)", "idle (s)", "comp%", "leaves"
        );
        for r in &run.metrics.per_rank {
            println!(
                "{:>6} {:>12.6} {:>12.6} {:>12.6} {:>6.1}% {:>8}",
                r.rank,
                r.comp_time,
                r.comm_time,
                r.idle_time,
                100.0 * r.comp_fraction(run.metrics.makespan),
                r.leaf_spans,
            );
        }
        print!("{}", run.path.table());
        println!(
            "  wrote {} and {}",
            trace_path.display(),
            metrics_path.display()
        );
    }
    println!("\nload the trace files at https://ui.perfetto.dev (Open trace file)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_shape_run_is_consistent() {
        let run = trace_shape(1_024, Shape::SquareCorner);
        assert!(!run.trace.is_empty());
        assert_eq!(run.metrics.dropped, 0);
        assert!(
            run.makespan_drift() < 1e-9,
            "critical path {} vs executor {}",
            run.path.makespan,
            run.exec_time
        );
        assert!(!run.path.segments.is_empty());

        let doc = metrics_json(&run).pretty();
        assert!(doc.contains("\"schema_version\""));
        assert!(doc.contains("\"git_commit\""));
        assert!(doc.contains("\"shape\": \"square corner\""));
        assert!(doc.contains("\"per_rank\""));

        let pf = perfetto_json(&run.trace, "smoke");
        assert!(pf.contains("traceEvents"));
    }

    #[test]
    fn all_four_shapes_have_distinct_slugs() {
        let slugs: std::collections::BTreeSet<String> =
            ALL_FOUR_SHAPES.iter().map(|&s| shape_slug(s)).collect();
        assert_eq!(slugs.len(), 4);
        for s in &slugs {
            assert!(!s.contains(' '), "slug {s} must be filename-safe");
        }
    }
}
