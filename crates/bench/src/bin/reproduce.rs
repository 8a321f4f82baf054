//! Regenerates the paper's tables and figures.
//!
//! ```text
//! reproduce table1 | fig1 | fig5 | fig6 | fig7 | fig8 | summary
//!           | crossover | nrrp | energyopt | summa | cluster | exact
//!           | auto | fig5measured | verify | recovery | trace | abft
//!           | bench | soak | serve | degrade | crash | insight | all
//! ```
//!
//! Output is whitespace-aligned text: one row per problem size with one
//! column per shape (for the figure commands), matching the series the
//! paper plots. `trace [--out DIR]` additionally writes Perfetto trace
//! files and metrics summaries (default `target/trace`); `abft [--out
//! DIR]` writes the ABFT overhead summaries and Perfetto traces of the
//! checksum-protected runs (default `target/abft`); `bench [--out DIR]
//! [--backend channel|tcp]` writes the schema-stamped
//! `BENCH_<shape>.json` regression documents (suffixed `_tcp` off the
//! default backend) and folded-stack flamegraphs (default
//! `target/bench`), and `bench --check DIR [--tol FRACTION]` instead
//! reruns the harness and compares against the like-named baselines in
//! DIR, exiting nonzero on any regression or backend mismatch.
//! `soak [--out DIR] [--backend channel|tcp]` runs the seeded lossy-link
//! chaos soak (wire drops, duplicates, reorders, delays, plus a silent
//! rank hang caught by the heartbeat detector) and writes
//! `SOAK_<shape>.json` summaries (default `target/soak`; TCP artifacts
//! are suffixed `_tcp`), exiting nonzero on any correctness mismatch.
//! `--backend tcp` runs the identical chaos over a loopback-TCP
//! universe instead of in-process channels.
//! `serve [--mix small|hetero] [--policy fifo|rr|fpm] [--jobs N]
//! [--out DIR]` drives the multi-tenant GEMM service with a seeded
//! tenant load, prints the per-policy/per-tenant latency comparison,
//! and writes `LOAD_<mix>.json`, `LOAD_<mix>.prom`, and per-policy
//! `SCHEDULE_<mix>_<policy>.json` Perfetto timelines (default
//! `target/serve`); with all three policies it exits nonzero unless the
//! FPM-aware scheduler beats FIFO on both makespan and p95 latency.
//! `degrade [--mix small|hetero] [--out DIR]` runs the same seeded
//! stream with seeded device faults at 1×/2×/5× the mix's arrival rate,
//! baseline (no degradation) against the full degradation layer
//! (deadline admission, checkpoint preemption, quarantine, brownout),
//! writes `DEGRADE_<mix>.json` and the top-factor
//! `SCHEDULE_DEGRADE_<mix>_<mode>.json` timelines (default
//! `target/degrade`), and exits nonzero unless jobs are conserved,
//! every deadline outcome is typed, the degraded run reproduces its
//! digest, the top tenant's p95 improves at 5×, and the real
//! checkpointed executor resumes bit-identically across every panel
//! boundary.
//! `crash [--mix small|hetero] [--out DIR]` runs the durable-journal
//! kill-point ladder at 5× load: 25 seeded crash/restart cycles
//! (at-admission, mid-batch, torn mid-append, mid-checkpoint), each
//! restart reopening the journal and resubmitting the whole stream,
//! then a crash-free drain compared against a crash-free control. It
//! writes `CRASH_<mix>.json`, the journal/recovery Prometheus
//! exposition `CRASH_<mix>.prom`, and the final epoch's
//! `SCHEDULE_CRASH_<mix>.json` timeline (default `target/crash`), and
//! exits nonzero unless every armed cycle crashed, the terminal ledgers
//! match the control exactly (same keys, bit-identical digests), at
//! least one torn tail was truncated, replay stayed bounded, and the
//! rerun ladder reproduces the document byte-for-byte.
//! `insight [--out DIR]` replays the recorded schedules of the four
//! paper shapes under virtual interventions (communication free, one
//! link free, one device's GEMMs doubled), writes the ranked
//! opportunity tables and sensitivity curves as `INSIGHT_<shape>.json`,
//! and drives the hetero mix with a per-tenant SLO burn-rate policy —
//! a healthy 1× control against a degraded 5× stampede — writing
//! `INSIGHT_slo_hetero.json`, the Prometheus exposition, and the
//! alert-annotated Perfetto timeline (default `target/insight`); it
//! exits nonzero unless the comm-free replay matches the analyzer's
//! compute bound within 1% and the control is silent while the
//! stampede alerts. `insight --check DIR [--tol FRACTION]` instead
//! reruns the suite and compares against the like-named baselines.
//! `all` runs every text command plus the trace, recovery, abft, bench,
//! soak, serve, degrade, crash, and insight exporters.

use std::env;
use std::str::FromStr;

use summagen_comm::Backend;

use summagen_bench::*;
use summagen_partition::ALL_FOUR_SHAPES;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut json = false;
    let mut out_dir: Option<String> = None;
    let mut check_dir: Option<String> = None;
    let mut tol: Option<f64> = None;
    let mut backend = Backend::default();
    let mut mix = "small".to_string();
    let mut policy: Option<summagen_service::Policy> = None;
    let mut jobs: Option<usize> = None;
    let mut what: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--out" => {
                if let Some(v) = args.get(i + 1) {
                    out_dir = Some(v.clone());
                    i += 1;
                } else {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }
            }
            "--check" => {
                if let Some(v) = args.get(i + 1) {
                    check_dir = Some(v.clone());
                    i += 1;
                } else {
                    eprintln!("--check requires a baseline directory argument");
                    std::process::exit(2);
                }
            }
            "--backend" => {
                match args.get(i + 1).map(|v| Backend::from_str(v)) {
                    Some(Ok(b)) => backend = b,
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--backend requires 'channel' or 'tcp'");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            "--mix" => {
                if let Some(v) = args.get(i + 1) {
                    mix = v.clone();
                    i += 1;
                } else {
                    eprintln!("--mix requires a mix name (small or hetero)");
                    std::process::exit(2);
                }
            }
            "--policy" => {
                match args
                    .get(i + 1)
                    .map(|v| summagen_service::Policy::from_str(v))
                {
                    Some(Ok(p)) => policy = Some(p),
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--policy requires fifo, round-robin, or fpm-aware");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            "--jobs" => {
                match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                    Some(v) if v > 0 => jobs = Some(v),
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            "--tol" => {
                match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) if v >= 0.0 => tol = Some(v),
                    _ => {
                        eprintln!("--tol requires a non-negative fraction (e.g. 0.05)");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            a if !a.starts_with("--") && what.is_none() => what = Some(a.to_string()),
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let what = what.as_deref().unwrap_or("all");
    if json {
        return emit_json(what);
    }
    match what {
        "table1" => print!("{}", table1()),
        "fig1" => print!("{}", fig1()),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "summary" => summary(),
        "crossover" => crossover(),
        "nrrp" => nrrp(),
        "energyopt" => energyopt(),
        "summa" => summa(),
        "cluster" => cluster(),
        "exact" => exact(),
        "auto" => auto_gen(),
        "fig5measured" => fig5measured(),
        "verify" => verify(),
        "recovery" => recovery(),
        "trace" => trace(out_dir.as_deref().unwrap_or("target/trace")),
        "abft" => abft(out_dir.as_deref().unwrap_or("target/abft")),
        "bench" => bench(
            out_dir.as_deref().unwrap_or("target/bench"),
            check_dir.as_deref(),
            tol,
            backend,
        ),
        "soak" => soak(out_dir.as_deref().unwrap_or("target/soak"), backend),
        "serve" => serve(
            &mix,
            policy,
            jobs,
            out_dir.as_deref().unwrap_or("target/serve"),
        ),
        "degrade" => degrade(&mix, out_dir.as_deref().unwrap_or("target/degrade")),
        "crash" => crash(&mix, out_dir.as_deref().unwrap_or("target/crash")),
        "insight" => insight(
            out_dir.as_deref().unwrap_or("target/insight"),
            check_dir.as_deref(),
            tol,
        ),
        "all" => {
            print!("{}", table1());
            println!();
            print!("{}", fig1());
            fig5();
            fig6();
            fig7();
            fig8();
            summary();
            crossover();
            nrrp();
            energyopt();
            summa();
            cluster();
            exact();
            auto_gen();
            fig5measured();
            recovery();
            trace(out_dir.as_deref().unwrap_or("target/trace"));
            abft(out_dir.as_deref().unwrap_or("target/abft"));
            bench(
                out_dir.as_deref().unwrap_or("target/bench"),
                None,
                tol,
                backend,
            );
            soak(out_dir.as_deref().unwrap_or("target/soak"), backend);
            serve(
                &mix,
                policy,
                jobs,
                out_dir.as_deref().unwrap_or("target/serve"),
            );
            degrade(&mix, out_dir.as_deref().unwrap_or("target/degrade"));
            crash(&mix, out_dir.as_deref().unwrap_or("target/crash"));
            insight(out_dir.as_deref().unwrap_or("target/insight"), None, tol);
        }
        other => {
            eprintln!(
                "unknown figure '{other}'; expected one of: table1 fig1 fig5 fig6 fig7 fig8 summary crossover nrrp energyopt summa cluster exact auto fig5measured verify recovery trace abft bench soak serve degrade crash insight all"
            );
            std::process::exit(2);
        }
    }
}

/// Causal what-if profiles of the four paper shapes plus the SLO
/// burn-rate scenario, or — with `--check DIR` — a rerun compared
/// against committed baselines (see `insightcmd`).
fn insight(out_dir: &str, check_dir: Option<&str>, tol: Option<f64>) {
    use summagen_bench::{benchcmd, insightcmd};
    let tol = tol.unwrap_or(benchcmd::DEFAULT_CHECK_TOLERANCE);
    match check_dir {
        Some(dir) => match insightcmd::check_insight(std::path::Path::new(dir), tol) {
            Ok(outcome) if outcome.violations.is_empty() => {
                println!(
                    "insight check passed: all metrics within ±{:.2}%",
                    100.0 * tol
                );
            }
            Ok(outcome) => {
                eprintln!(
                    "insight check FAILED ({} violations):",
                    outcome.violations.len()
                );
                for v in &outcome.violations {
                    eprintln!("  {v}");
                }
                if let Some(worst) = &outcome.worst {
                    eprintln!("  worst drift: {worst}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("insight check against '{dir}' failed to run: {e}");
                std::process::exit(1);
            }
        },
        None => {
            if let Err(e) = insightcmd::run_insight(
                summagen_bench::tracecmd::TRACE_N,
                std::path::Path::new(out_dir),
            ) {
                eprintln!("insight run to '{out_dir}' failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Graceful-degradation comparison under overload and seeded device
/// faults: baseline vs the full degradation layer at 1×/2×/5× load,
/// with the acceptance gates of `degradecmd`.
fn degrade(mix: &str, out_dir: &str) {
    use summagen_bench::degradecmd;
    if let Err(e) = degradecmd::run_degrade(mix, std::path::Path::new(out_dir)) {
        eprintln!("degrade run to '{out_dir}' failed: {e}");
        std::process::exit(1);
    }
}

/// Durable-journal kill-point ladder: 25 seeded crash/restart cycles
/// against a crash-free control, with the exactly-once, torn-tail, and
/// bounded-replay acceptance gates of `crashcmd`.
fn crash(mix: &str, out_dir: &str) {
    use summagen_bench::crashcmd;
    if let Err(e) = crashcmd::run_crash(mix, std::path::Path::new(out_dir)) {
        eprintln!("crash run to '{out_dir}' failed: {e}");
        std::process::exit(1);
    }
}

/// Instrumented runs of the four paper shapes: Perfetto trace files,
/// metrics summaries, and critical-path tables (see `tracecmd`).
fn trace(out_dir: &str) {
    use summagen_bench::tracecmd;
    if let Err(e) = tracecmd::run_trace(tracecmd::TRACE_N, std::path::Path::new(out_dir)) {
        eprintln!("trace export to '{out_dir}' failed: {e}");
        std::process::exit(1);
    }
}

/// Checksum-protected runs of the four paper shapes: ABFT overhead
/// summaries and Perfetto traces of the resilience spans (see
/// `resilience`).
fn abft(out_dir: &str) {
    use summagen_bench::resilience;
    if let Err(e) = resilience::run_abft(resilience::ABFT_N, std::path::Path::new(out_dir)) {
        eprintln!("abft export to '{out_dir}' failed: {e}");
        std::process::exit(1);
    }
}

/// Seeded lossy-link chaos soak: wire drops/duplicates/reorders/delays
/// with the heartbeat detector armed, plus a silent-hang recovery per
/// shape, writing `SOAK_<shape>.json` summaries (see `soak`). The
/// backend selects the wire the chaos runs over: in-process channels
/// (default) or loopback TCP.
fn soak(out_dir: &str, backend: Backend) {
    use summagen_bench::soak;
    if let Err(e) = soak::run_soak(soak::SOAK_N, std::path::Path::new(out_dir), backend) {
        eprintln!("soak export to '{out_dir}' failed: {e}");
        std::process::exit(1);
    }
}

/// Regression harness: writes `BENCH_<shape>.json` + flamegraphs, or —
/// with `--check DIR` — reruns and compares against committed baselines,
/// exiting nonzero on any out-of-tolerance metric (see `benchcmd`).
fn bench(out_dir: &str, check_dir: Option<&str>, tol: Option<f64>, backend: Backend) {
    use summagen_bench::benchcmd;
    let tol = tol.unwrap_or(benchcmd::DEFAULT_CHECK_TOLERANCE);
    match check_dir {
        Some(dir) => match benchcmd::check_bench(std::path::Path::new(dir), tol, backend) {
            Ok(outcome) if outcome.violations.is_empty() => {
                println!(
                    "bench check passed: all metrics within ±{:.2}%",
                    100.0 * tol
                );
            }
            Ok(outcome) => {
                eprintln!(
                    "bench check FAILED ({} violations):",
                    outcome.violations.len()
                );
                for v in &outcome.violations {
                    eprintln!("  {v}");
                }
                if let Some(worst) = &outcome.worst {
                    eprintln!("  worst drift: {worst}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("bench check against '{dir}' failed to run: {e}");
                std::process::exit(1);
            }
        },
        None => {
            if let Err(e) = benchcmd::run_bench(std::path::Path::new(out_dir), backend) {
                eprintln!("bench export to '{out_dir}' failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Multi-tenant GEMM service load run: seeded tenant mix through each
/// scheduling policy, per-tenant latency artifacts, schedule Perfetto
/// timelines, and the FPM-beats-FIFO gate (see `servecmd`).
fn serve(mix: &str, policy: Option<summagen_service::Policy>, jobs: Option<usize>, out_dir: &str) {
    use summagen_bench::servecmd;
    if let Err(e) = servecmd::run_serve(mix, policy, jobs, std::path::Path::new(out_dir)) {
        eprintln!("serve run to '{out_dir}' failed: {e}");
        std::process::exit(1);
    }
}

fn shape_header() -> String {
    let names: Vec<String> = ALL_FOUR_SHAPES
        .iter()
        .map(|s| format!("{:>18}", s.name()))
        .collect();
    format!("{:>8}{}", "N", names.join(""))
}

fn fig5() {
    println!("\nFIGURE 5 — speed functions of the abstract processors (TFLOPs)");
    println!(
        "{:>8}{:>12}{:>12}{:>12}",
        "x", "AbsCPU", "AbsGPU", "AbsXeonPhi"
    );
    for (x, s) in fig5_series(2_048) {
        println!(
            "{x:>8}{:>12.4}{:>12.4}{:>12.4}",
            s[0] / 1e12,
            s[1] / 1e12,
            s[2] / 1e12
        );
    }
}

fn print_shape_table(title: &str, points: &[ShapePoint], metric: impl Fn(&ShapePoint) -> f64) {
    println!("\n{title}");
    println!("{}", shape_header());
    let ns: std::collections::BTreeSet<usize> = points.iter().map(|p| p.n).collect();
    for n in ns {
        let mut row = format!("{n:>8}");
        for shape in ALL_FOUR_SHAPES {
            let p = points
                .iter()
                .find(|p| p.n == n && p.shape == shape)
                .expect("missing point");
            row.push_str(&format!("{:>18.3}", metric(p)));
        }
        println!("{row}");
    }
}

fn fig6() {
    let points = fig6_series();
    print_shape_table(
        "FIGURE 6a — PMM execution time (s), constant performance models",
        &points,
        |p| p.report.exec_time,
    );
    print_shape_table("FIGURE 6b — computation time (s)", &points, |p| {
        p.report.comp_time
    });
    print_shape_table("FIGURE 6c — communication time (s)", &points, |p| {
        p.report.comm_time
    });
}

fn fig7() {
    let points = fig7_series();
    print_shape_table(
        "FIGURE 7a — PMM execution time (s), non-constant performance models (load-imbalancing partitioner)",
        &points,
        |p| p.report.exec_time,
    );
    print_shape_table("FIGURE 7b — computation time (s)", &points, |p| {
        p.report.comp_time
    });
    print_shape_table("FIGURE 7c — communication time (s)", &points, |p| {
        p.report.comm_time
    });
}

fn fig8() {
    println!("\nFIGURE 8 — dynamic energy (J), constant performance models");
    println!("{}", shape_header());
    let series = fig8_series();
    let ns: std::collections::BTreeSet<usize> = series.iter().map(|&(n, _, _)| n).collect();
    for n in ns {
        let mut row = format!("{n:>8}");
        for shape in ALL_FOUR_SHAPES {
            let e = series
                .iter()
                .find(|&&(m, s, _)| m == n && s == shape)
                .map(|&(_, _, e)| e)
                .expect("missing point");
            row.push_str(&format!("{e:>18.0}"));
        }
        println!("{row}");
    }
}

fn summary() {
    let cpm = fig6_series();
    let fpm = fig7_series();
    let s = summarize(&cpm, &fpm);
    println!("\nSUMMARY — headline numbers vs the paper");
    println!(
        "  CPM shape spread: max {:.1}% at N = {} (paper: 23% at 25600), avg {:.1}% (paper: 8%)",
        s.cpm_max_spread_pct, s.cpm_max_spread_n, s.cpm_avg_spread_pct
    );
    println!(
        "  peak performance: {:.2} TFLOPs with {} at N = {} -> {:.0}% of 2.5 TFLOPs (paper: 2.10 TFLOPs, 84%, square rectangle, N = 38416)",
        s.peak_tflops,
        s.peak_shape.name(),
        s.peak_n,
        s.peak_fraction * 100.0
    );
    println!(
        "  average performance: {:.0}% of theoretical peak (paper: 70%)",
        s.avg_fraction * 100.0
    );
    println!(
        "  dynamic-energy spread across shapes (CPM): avg {:.1}% (paper: \"equal\")",
        s.energy_avg_spread_pct
    );
    println!("  FPM mean execution time ranking (paper: square rectangle & block rectangle win):");
    for (shape, t) in &s.fpm_mean_time_per_shape {
        println!("    {:<20} {t:.3} s", shape.name());
    }
}

fn crossover() {
    println!("\nABLATION — square corner vs 1D rectangular total half-perimeter (n = 4096)");
    println!(
        "{:>8}{:>16}{:>16}{:>10}",
        "ratio", "square corner", "1D rect", "winner"
    );
    for (r, sc, od) in crossover_series(4_096) {
        println!(
            "{r:>8.1}{sc:>16}{od:>16}{:>10}",
            if sc < od { "SC" } else { "1D" }
        );
    }
}

fn nrrp() {
    println!(
        "\nABLATION — NRRP vs column-based vs best named shape, total half-perimeter (n = 768)"
    );
    println!(
        "{:>18}{:>10}{:>10}{:>12}{:>12}{:>10}",
        "speeds", "NRRP", "columns", "best shape", "lower bnd", "NRRP/LB"
    );
    for (label, nrrp, cols, best, lb) in nrrp_comparison(768) {
        println!(
            "{label:>18}{nrrp:>10}{cols:>10}{best:>12}{lb:>12.0}{:>10.3}",
            nrrp as f64 / lb
        );
    }
}

fn energyopt() {
    println!("\nABLATION — time-optimal vs energy-optimal distribution (paper's open problem)");
    println!(
        "{:>8}{:>16}{:>16}{:>16}{:>16}",
        "N", "t-opt exec (s)", "t-opt E_D (J)", "e-opt exec (s)", "e-opt E_D (J)"
    );
    for (n, (tt, te), (et, ee)) in energy_vs_time_partition() {
        println!("{n:>8}{tt:>16.3}{te:>16.0}{et:>16.3}{ee:>16.0}");
    }
}

fn summa() {
    println!(
        "\nABLATION — SummaGen (block rectangle, speed-aware) vs classic SUMMA (1x3, equal blocks)"
    );
    println!(
        "{:>8}{:>16}{:>16}{:>10}",
        "N", "SummaGen (s)", "SUMMA (s)", "speedup"
    );
    for (n, sg, classic) in summa_comparison() {
        println!("{n:>8}{sg:>16.3}{classic:>16.3}{:>10.2}", classic / sg);
    }
}

fn cluster() {
    println!("\nFUTURE WORK — SummaGen across a two-HCLServer1 cluster (N = 16384, 1D over 6 processors)");
    println!(
        "{:>18}{:>12}{:>12}{:>12}",
        "topology", "exec (s)", "comp (s)", "comm (s)"
    );
    for (label, exec, comp, comm) in cluster_experiment(16_384) {
        println!("{label:>18}{exec:>12.3}{comp:>12.3}{comm:>12.3}");
    }
}

fn exact() {
    use summagen_partition::{exact_three_processor_optimum, proportional_areas, CostSummary};
    use summagen_platform::speed::{ConstantSpeed, SpeedFunction};
    println!(
        "\nABLATION — §V heuristics vs the exact three-processor optimum (n = 32, speeds 1:2:0.9)"
    );
    let sp = [
        ConstantSpeed::new(1.0e9),
        ConstantSpeed::new(2.0e9),
        ConstantSpeed::new(0.9e9),
    ];
    let speeds: Vec<&dyn SpeedFunction> = sp.iter().map(|s| s as _).collect();
    let n = 32;
    let (alpha, beta) = (1e-6, 1e-9);
    let opt = exact_three_processor_optimum(n, &speeds, alpha, beta);
    println!(
        "  exact optimum: {} family, cost {:.3e} s ({} candidates searched)",
        opt.shape.name(),
        opt.cost,
        opt.candidates
    );
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    for shape in ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        let cost = CostSummary::analyze(&spec, &speeds, alpha, beta).est_total_time;
        println!(
            "  {:<20} cost {:.3e} s  ({:.3}x optimal)",
            shape.name(),
            cost,
            cost / opt.cost
        );
    }
}

/// Machine-readable output: `reproduce <figure> --json` prints a JSON
/// document with the same series the text tables show, stamped with the
/// standard provenance header (`schema_version`, `git_commit`,
/// `run_config`).
fn emit_json(what: &str) {
    use summagen_bench::json::{with_metadata, Json};
    let doc = match what {
        "fig5" => Json::obj([
            ("figure", Json::from("fig5")),
            ("unit", Json::from("flops")),
            (
                "series",
                Json::arr(fig5_series(1024).into_iter().map(|(x, s)| {
                    Json::obj([
                        ("x", Json::from(x)),
                        ("cpu", Json::from(s[0])),
                        ("gpu", Json::from(s[1])),
                        ("phi", Json::from(s[2])),
                    ])
                })),
            ),
        ]),
        "fig6" | "fig7" => {
            let points = if what == "fig6" {
                fig6_series()
            } else {
                fig7_series()
            };
            Json::obj([
                ("figure", Json::from(what)),
                (
                    "series",
                    Json::arr(points.iter().map(|p| {
                        Json::obj([
                            ("n", Json::from(p.n)),
                            ("shape", Json::from(p.shape.name())),
                            ("exec_time_s", Json::from(p.report.exec_time)),
                            ("comp_time_s", Json::from(p.report.comp_time)),
                            ("comm_time_s", Json::from(p.report.comm_time)),
                            ("achieved_flops", Json::from(p.report.achieved_flops())),
                            (
                                "dynamic_energy_j",
                                Json::from(p.report.energy.as_ref().map(|e| e.dynamic_energy_j)),
                            ),
                        ])
                    })),
                ),
            ])
        }
        "fig8" => Json::obj([
            ("figure", Json::from("fig8")),
            ("unit", Json::from("joules")),
            (
                "series",
                Json::arr(fig8_series().into_iter().map(|(n, shape, e)| {
                    Json::obj([
                        ("n", Json::from(n)),
                        ("shape", Json::from(shape.name())),
                        ("dynamic_energy_j", Json::from(e)),
                    ])
                })),
            ),
        ]),
        "summary" => {
            let s = summarize(&fig6_series(), &fig7_series());
            Json::obj([
                ("figure", Json::from("summary")),
                ("cpm_max_spread_pct", Json::from(s.cpm_max_spread_pct)),
                ("cpm_max_spread_n", Json::from(s.cpm_max_spread_n)),
                ("cpm_avg_spread_pct", Json::from(s.cpm_avg_spread_pct)),
                ("peak_tflops", Json::from(s.peak_tflops)),
                ("peak_shape", Json::from(s.peak_shape.name())),
                ("peak_n", Json::from(s.peak_n)),
                ("peak_fraction", Json::from(s.peak_fraction)),
                ("avg_fraction", Json::from(s.avg_fraction)),
                ("energy_avg_spread_pct", Json::from(s.energy_avg_spread_pct)),
                (
                    "fpm_mean_time_per_shape",
                    Json::arr(s.fpm_mean_time_per_shape.iter().map(|(sh, t)| {
                        Json::obj([
                            ("shape", Json::from(sh.name())),
                            ("mean_exec_time_s", Json::from(*t)),
                        ])
                    })),
                ),
            ])
        }
        "recovery" => {
            // The resilience module stamps its own run_config (seeds and
            // grid size), so print and return directly.
            println!("{}", summagen_bench::resilience::recovery_json(32).pretty());
            return;
        }
        other => {
            eprintln!("--json supports: fig5 fig6 fig7 fig8 summary recovery (got '{other}')");
            std::process::exit(2);
        }
    };
    let mut config = vec![
        (
            "command".to_string(),
            Json::from(format!("reproduce {what} --json")),
        ),
        (
            "cpm_speeds".to_string(),
            Json::arr(CPM_SPEEDS.iter().copied().map(Json::from)),
        ),
    ];
    if what == "fig7" {
        config.push(("fpm_grid_steps".to_string(), Json::from(FPM_GRID_STEPS)));
    }
    println!("{}", with_metadata(doc, Json::Obj(config)).pretty());
}

fn auto_gen() {
    use summagen_core::simulate;
    use summagen_partition::auto::{auto_layout, AutoOptions};
    use summagen_platform::profile::hclserver1;
    use summagen_platform::speed::SpeedFunction;

    println!("\nEXTENSION — automatic subp/subph/subpw generation (Section IV: \"we believe that");
    println!(
        "these arrays can be generated automatically\") vs the named shapes, N = 8192, real FPMs"
    );
    let platform = hclserver1();
    let speeds: Vec<&dyn SpeedFunction> = platform
        .processors
        .iter()
        .map(|p| p.speed.as_ref())
        .collect();
    let n = 8_192;
    let opts = AutoOptions {
        iterations: 800,
        ..AutoOptions::default()
    };
    let (auto_spec, _) = auto_layout(n, &speeds, opts);
    let auto_time = simulate(&auto_spec, &platform, link_model()).exec_time;
    println!(
        "  auto-generated layout ({}x{} grid): {:.3} s",
        auto_spec.grid_rows, auto_spec.grid_cols, auto_time
    );
    let areas = summagen_partition::proportional_areas(n, &CPM_SPEEDS);
    for shape in ALL_FOUR_SHAPES {
        let t = simulate(&shape.build(n, &areas), &platform, link_model()).exec_time;
        println!("  {:<22} {t:.3} s", shape.name());
    }
}

fn fig5measured() {
    println!(
        "\nMETHODOLOGY — Fig. 5 profiles rebuilt via the measurement protocol (3% timer noise)"
    );
    println!(
        "{:>12}{:>8}{:>14}{:>12}{:>12}",
        "device", "sizes", "worst err", "mean reps", "normality"
    );
    for (name, sizes, worst, reps, normal) in fig5_measured() {
        println!(
            "{name:>12}{sizes:>8}{:>13.2}%{reps:>12.1}{:>12}",
            worst * 100.0,
            if normal { "ok" } else { "REJECTED" }
        );
    }
}

/// Fault-tolerance demo: runs every paper shape under seeded fault plans
/// through `multiply_with_recovery` and reports how each run ended, then
/// prints the analytical device-failure model the recovery policy targets.
fn recovery() {
    use std::time::Duration;
    use summagen_comm::{FaultPlan, ZeroCost};
    use summagen_core::{multiply_with_recovery, ExecutionMode, RecoveryOptions};
    use summagen_matrix::{gemm_naive, max_abs_diff, random_matrix, DenseMatrix};
    use summagen_platform::{
        degraded_capacity, expected_runtime_with_restarts, fleet_survival, DeviceKind, FailureModel,
    };

    let n = 32;
    let a = random_matrix(n, n, 41);
    let b = random_matrix(n, n, 42);
    let mut want = DenseMatrix::zeros(n, n);
    gemm_naive(
        n,
        n,
        n,
        1.0,
        a.as_slice(),
        n,
        b.as_slice(),
        n,
        0.0,
        want.as_mut_slice(),
        n,
    );
    let opts = RecoveryOptions {
        max_attempts: 3,
        retry_backoff: 0.25,
        recv_timeout: Duration::from_millis(500),
        ..RecoveryOptions::default()
    };

    println!("\nROBUSTNESS — shrink-and-retry recovery under seeded fault plans (n = {n})");
    println!(
        "{:>20}{:>6}{:>12}{:>10}{:>10}{:>10}{:>12}",
        "shape", "seed", "outcome", "attempts", "failed", "capacity", "max err"
    );
    for shape in ALL_FOUR_SHAPES {
        for seed in 1..=3u64 {
            let plan = FaultPlan::seeded(seed, 3);
            let row = match multiply_with_recovery(
                shape,
                &CPM_SPEEDS,
                &a,
                &b,
                ExecutionMode::Real,
                ZeroCost,
                std::slice::from_ref(&plan),
                &opts,
            ) {
                Ok(res) => {
                    let err = max_abs_diff(&res.c, &want);
                    match &res.recovery {
                        Some(rep) => format!(
                            "{:>20}{seed:>6}{:>12}{:>10}{:>10}{:>10.2}{err:>12.2e}",
                            shape.name(),
                            "recovered",
                            rep.attempts,
                            format!("{:?}", rep.failed_devices),
                            degraded_capacity(&CPM_SPEEDS, &rep.failed_devices),
                        ),
                        None => format!(
                            "{:>20}{seed:>6}{:>12}{:>10}{:>10}{:>10.2}{err:>12.2e}",
                            shape.name(),
                            "clean",
                            1,
                            "[]",
                            1.0,
                        ),
                    }
                }
                Err(e) => format!(
                    "{:>20}{seed:>6}{:>12}{:>10}{:>10}{:>10}{:>12}",
                    shape.name(),
                    "error",
                    "-",
                    "-",
                    "-",
                    format!("{e:.30}"),
                ),
            };
            println!("{row}");
        }
    }

    println!("\n  analytical failure model (typical MTBFs, one hour of failure-free work):");
    let models = [
        FailureModel::typical(DeviceKind::Cpu),
        FailureModel::typical(DeviceKind::Gpu),
        FailureModel::typical(DeviceKind::XeonPhi),
    ];
    let work = 3600.0;
    println!(
        "    fleet survival over the run: {:.4}",
        fleet_survival(&models, work)
    );
    println!(
        "    expected makespan with restart-from-scratch: {:.1} s (vs {work:.0} s failure-free)",
        expected_runtime_with_restarts(work, &models)
    );
    for (name, m) in [
        ("AbsCPU", models[0]),
        ("AbsGPU", models[1]),
        ("AbsXeonPhi", models[2]),
    ] {
        println!(
            "    {name:<12} MTBF {:>9.0} s   P(fail during run) {:.4}",
            m.mtbf_seconds,
            m.failure_probability(work)
        );
    }
}

/// Quick numeric self-check: every multiplication algorithm in the
/// workspace against one reference, printed as a checklist.
fn verify() {
    use summagen_comm::ZeroCost;
    use summagen_core::{multiply, multiply_panelled, summa_multiply, ExecutionMode};
    use summagen_matrix::{gemm_naive, max_abs_diff, random_matrix, DenseMatrix, GemmKernel};
    use summagen_partition::{nrrp_layout, proportional_areas};

    let n = 48;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut want = DenseMatrix::zeros(n, n);
    gemm_naive(
        n,
        n,
        n,
        1.0,
        a.as_slice(),
        n,
        b.as_slice(),
        n,
        0.0,
        want.as_mut_slice(),
        n,
    );

    println!("\nVERIFY — every algorithm vs the sequential reference (n = {n})");
    let check = |name: &str, c: &DenseMatrix| {
        let err = max_abs_diff(c, &want);
        let ok = err < 1e-9;
        println!(
            "  [{}] {name:<40} max err {err:.2e}",
            if ok { "ok" } else { "FAIL" }
        );
        assert!(ok, "{name} failed verification");
    };

    let areas = proportional_areas(n, &CPM_SPEEDS);
    for shape in ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        check(
            &format!("SummaGen / {}", shape.name()),
            &multiply(&spec, &a, &b, ExecutionMode::Real).c,
        );
        check(
            &format!("SummaGen panelled / {}", shape.name()),
            &multiply_panelled(&spec, &a, &b, GemmKernel::Blocked, ZeroCost).c,
        );
    }
    check(
        "SummaGen / NRRP layout (p = 4)",
        &multiply(
            &nrrp_layout(n, &[1.0, 2.0, 0.9, 1.5]),
            &a,
            &b,
            ExecutionMode::Real,
        )
        .c,
    );
    check(
        "classic SUMMA (2x2)",
        &summa_multiply(&a, &b, 2, 2, 8, ZeroCost).c,
    );
    println!("  all algorithms verified");
}
