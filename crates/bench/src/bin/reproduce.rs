//! Regenerates the paper's tables and figures.
//!
//! ```text
//! reproduce [COMMAND] [--json] [--out DIR] [--check DIR] [--tol FRACTION]
//!           [--backend channel|tcp] [--mix small|hetero]
//! ```
//!
//! The commands, in order, are the rows of `COMMANDS` below; an unknown
//! command name lists them.
//!
//! The text commands print whitespace-aligned tables: one row per problem
//! size with one column per shape (for the figure commands), matching the
//! series the paper plots; `--json` prints a figure's series as a
//! schema-stamped document instead. The exporters write artifacts into
//! `--out DIR` (default `target/<command>`) and exit nonzero when a gate
//! fails; what each writes and gates is documented in its module:
//! `trace` (`tracecmd`), `abft` and `recovery --json` (`resilience`),
//! `bench` (`benchcmd`), `soak` (`soak`), `insight` (`insightcmd`), and
//! `serve`, `degrade` and `crash`, rows of the scenario table
//! (`scenario`). `bench --check DIR` and `insight --check DIR` rerun
//! and compare against the like-named baselines in DIR within `--tol`.
//! `--backend tcp` runs `bench` and `soak` over loopback TCP; `--mix`
//! picks the tenant mix of `serve`, `degrade` and `crash`. `all` runs
//! every command but `verify`, in table order, and never checks.
//!
//! Exit status: 0 on success, 1 when a run, gate or check fails, 2 on a
//! bad invocation.

use std::env;
use std::path::{Path, PathBuf};

use summagen_comm::Backend;

use summagen_bench::benchcmd::{check_bench, run_bench, DEFAULT_CHECK_TOLERANCE};
use summagen_bench::harness::{ensure, reference, Error, Outcome};
use summagen_bench::insightcmd::{check_insight, run_insight};
use summagen_bench::json::{with_metadata, Json};
use summagen_bench::resilience::{recovery_json, recovery_series, run_abft, ABFT_N};
use summagen_bench::scenario::{self, load_mix, Scenario, CRASH, DEGRADE, SERVE};
use summagen_bench::soak::{run_soak, SOAK_N};
use summagen_bench::tracecmd::{run_trace, TRACE_N};
use summagen_bench::*;
use summagen_core::SimReport;
use summagen_partition::{Shape, ALL_FOUR_SHAPES};
use InAll::{Run, RunThenBlankLine, Skip};

/// Runs a command: `(parsed arguments, output directory)`.
type Runner = fn(&Args, &Path) -> Outcome;

/// Builds a command's `--json` document, given its name.
type JsonDoc = fn(&str) -> Json;

/// What `all` does with a command.
#[derive(Clone, Copy, PartialEq)]
enum InAll {
    Skip,
    Run,
    /// Run it, then print a blank line (the next output opens without one).
    RunThenBlankLine,
}

/// The name that runs every command marked for it, in table order.
const ALL: &str = "all";

/// Every command: name, runner, `--json` document, part in `all`. The
/// order is the order `all` runs them and the usage error lists them.
const COMMANDS: [(&str, Runner, Option<JsonDoc>, InAll); 25] = [
    ("table1", |_, _| show(table1()), None, RunThenBlankLine),
    ("fig1", |_, _| show(fig1()), None, Run),
    ("fig5", |_, _| text(fig5), Some(fig5_doc), Run),
    ("fig6", |_, _| text(fig6), Some(fig6_doc), Run),
    ("fig7", |_, _| text(fig7), Some(fig7_doc), Run),
    ("fig8", |_, _| text(fig8), Some(fig8_doc), Run),
    ("summary", |_, _| text(summary), Some(summary_doc), Run),
    ("crossover", |_, _| text(crossover), None, Run),
    ("nrrp", |_, _| text(nrrp), None, Run),
    ("energyopt", |_, _| text(energyopt), None, Run),
    ("summa", |_, _| text(summa), None, Run),
    ("cluster", |_, _| text(cluster), None, Run),
    ("exact", |_, _| text(exact), None, Run),
    ("auto", |_, _| text(auto_gen), None, Run),
    ("fig5measured", |_, _| text(fig5measured), None, Run),
    ("verify", |_, _| verify(), None, Skip),
    ("recovery", |_, _| text(recovery), Some(recovery_doc), Run),
    ("trace", |_, out| run_trace(TRACE_N, out), None, Run),
    ("abft", |_, out| run_abft(ABFT_N, out), None, Run),
    ("bench", bench, None, Run),
    ("soak", |a, out| run_soak(SOAK_N, out, a.backend), None, Run),
    ("serve", |a, out| row(&SERVE, a, out), None, Run),
    ("degrade", |a, out| row(&DEGRADE, a, out), None, Run),
    ("crash", |a, out| row(&CRASH, a, out), None, Run),
    ("insight", insight, None, Run),
];

/// The parsed command line.
#[derive(Clone, Default)]
struct Args {
    command: Option<String>,
    json: bool,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    tol: f64,
    backend: Backend,
    mix: String,
}

fn main() {
    let argv: Vec<String> = env::args().skip(1).collect();
    if let Err(e) = parse(&argv).and_then(|args| run(&args)) {
        eprintln!("{e}");
        std::process::exit(e.exit_code());
    }
}

fn parse(argv: &[String]) -> Outcome<Args> {
    let mut args = Args {
        tol: DEFAULT_CHECK_TOLERANCE,
        mix: "small".to_string(),
        ..Args::default()
    };
    let mut i = 0;
    while i < argv.len() {
        let dir = |v: &str| Some(PathBuf::from(v));
        match argv[i].as_str() {
            "--json" => args.json = true,
            "--out" => args.out = Some(value(argv, &mut i, "a directory argument", dir)?),
            "--check" => {
                args.check = Some(value(argv, &mut i, "a baseline directory argument", dir)?)
            }
            "--backend" => {
                args.backend = value(argv, &mut i, "'channel' or 'tcp'", |v| v.parse().ok())?
            }
            "--mix" => {
                args.mix = value(argv, &mut i, "a mix name (small or hetero)", |v| {
                    Some(v.to_string())
                })?
            }
            "--tol" => {
                let what = "a non-negative fraction (e.g. 0.05)";
                args.tol = value(argv, &mut i, what, |v| {
                    v.parse().ok().filter(|&t: &f64| t >= 0.0)
                })?
            }
            a if !a.starts_with("--") && args.command.is_none() => {
                args.command = Some(a.to_string())
            }
            other => return Err(Error::Usage(format!("unknown argument '{other}'"))),
        }
        i += 1;
    }
    Ok(args)
}

/// The value after the flag at `argv[*i]`, which it consumes; `what`
/// says what the flag needs when the value is missing or does not parse.
fn value<T>(
    argv: &[String],
    i: &mut usize,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Outcome<T> {
    let flag = &argv[*i];
    *i += 1;
    let raw = argv.get(*i);
    raw.and_then(|v| parse(v)).ok_or_else(|| {
        let got = raw.map(|v| format!(", got '{v}'")).unwrap_or_default();
        Error::Usage(format!("{flag} requires {what}{got}"))
    })
}

/// Dispatches the parsed command line through [`COMMANDS`].
fn run(args: &Args) -> Outcome {
    let name = args.command.as_deref().unwrap_or(ALL);
    let out = |name: &str| {
        args.out
            .clone()
            .unwrap_or_else(|| Path::new("target").join(name))
    };
    let names = |with_json: bool| -> Vec<&str> {
        let rows = COMMANDS.iter().filter(|c| !with_json || c.2.is_some());
        rows.map(|c| c.0).collect()
    };
    if args.json {
        let doc = COMMANDS.iter().find(|c| c.0 == name).and_then(|c| c.2);
        let doc = doc.ok_or_else(|| {
            let names = names(true).join(" ");
            Error::Usage(format!("--json supports: {names} (got '{name}')"))
        })?;
        println!("{}", doc(name).pretty());
        return Ok(());
    }
    if name == ALL {
        // `all` writes artifacts; it never checks against baselines.
        let all = Args {
            check: None,
            ..args.clone()
        };
        for (name, run, _, in_all) in COMMANDS.iter().filter(|c| c.3 != Skip) {
            run(&all, &out(name))?;
            if *in_all == RunThenBlankLine {
                println!();
            }
        }
        return Ok(());
    }
    match COMMANDS.iter().find(|c| c.0 == name) {
        Some((name, run, _, _)) => run(args, &out(name)),
        None => {
            let names = names(false).join(" ");
            Err(Error::Usage(format!(
                "unknown figure '{name}'; expected one of: {names} {ALL}"
            )))
        }
    }
}

/// A text command: prints its table and cannot fail.
fn text(print: fn()) -> Outcome {
    print();
    Ok(())
}

/// A text command whose table is built as a string.
fn show(table: String) -> Outcome {
    print!("{table}");
    Ok(())
}

/// Regression harness: writes `BENCH_<shape>.json` + flamegraphs, or —
/// with `--check DIR` — reruns and compares against committed baselines
/// (see `benchcmd`).
fn bench(args: &Args, out: &Path) -> Outcome {
    match &args.check {
        Some(dir) => check_bench(dir, args.tol, args.backend),
        None => run_bench(out, args.backend),
    }
}

/// A row of the scenario table on `--mix`'s tenant mix (see `scenario`).
fn row(scenario: &Scenario, args: &Args, out: &Path) -> Outcome {
    scenario::run(scenario, &load_mix(&args.mix)?, out)
}

/// Causal what-if profiles of the four paper shapes plus the SLO
/// burn-rate scenario, or — with `--check DIR` — a rerun compared
/// against committed baselines (see `insightcmd`).
fn insight(args: &Args, out: &Path) -> Outcome {
    match &args.check {
        Some(dir) => check_insight(dir, args.tol),
        None => run_insight(TRACE_N, out),
    }
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

/// One row per problem size, one column per shape, values to `prec`
/// decimals.
fn print_shape_table(title: &str, cells: &[(usize, Shape, f64)], prec: usize) {
    println!("\n{title}");
    let names: String = ALL_FOUR_SHAPES
        .iter()
        .map(|s| format!("{:>18}", s.name()))
        .collect();
    println!("{:>8}{names}", "N");
    let ns: std::collections::BTreeSet<usize> = cells.iter().map(|c| c.0).collect();
    for n in ns {
        let mut row = format!("{n:>8}");
        for shape in ALL_FOUR_SHAPES {
            let cell = cells.iter().find(|c| c.0 == n && c.1 == shape);
            let v = cell.expect("missing point").2;
            row.push_str(&format!("{v:>18.prec$}"));
        }
        println!("{row}");
    }
}

/// Figures 6 and 7: (a) execution time, titled `title`, (b) computation
/// and (c) communication time of each point.
fn print_time_tables(fig: u8, title: &str, points: &[ShapePoint]) {
    let table = |panel: &str, what: &str, metric: fn(&SimReport) -> f64| {
        let cells: Vec<_> = points
            .iter()
            .map(|p| (p.n, p.shape, metric(&p.report)))
            .collect();
        print_shape_table(&format!("FIGURE {fig}{panel} — {what}"), &cells, 3);
    };
    table("a", title, |r| r.exec_time);
    table("b", "computation time (s)", |r| r.comp_time);
    table("c", "communication time (s)", |r| r.comm_time);
}

fn fig6() {
    let title = "PMM execution time (s), constant performance models";
    print_time_tables(6, title, &fig6_series());
}

fn fig7() {
    let title =
        "PMM execution time (s), non-constant performance models (load-imbalancing partitioner)";
    print_time_tables(7, title, &fig7_series());
}

fn fig8() {
    let title = "FIGURE 8 — dynamic energy (J), constant performance models";
    print_shape_table(title, &fig8_series(), 0);
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
    let sp = [1.0e9, 2.0e9, 0.9e9].map(ConstantSpeed::new);
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

/// A figure's `--json` document: `figure` is the command's name, then
/// `body`, under the standard provenance header (`schema_version`,
/// `git_commit`, `run_config`) with `extra` appended to the run config.
fn figure_doc(name: &str, body: Vec<(&str, Json)>, extra: Vec<(&str, Json)>) -> Json {
    let mut config = vec![
        ("command", Json::from(format!("reproduce {name} --json"))),
        ("cpm_speeds", Json::arr(CPM_SPEEDS)),
    ];
    config.extend(extra);
    let mut doc = vec![("figure", Json::from(name))];
    doc.extend(body);
    with_metadata(Json::obj(doc), Json::obj(config))
}

fn fig5_doc(name: &str) -> Json {
    let series = fig5_series(1024).into_iter().map(|(x, s)| {
        Json::obj([
            ("x", Json::from(x)),
            ("cpu", Json::from(s[0])),
            ("gpu", Json::from(s[1])),
            ("phi", Json::from(s[2])),
        ])
    });
    let body = vec![("unit", Json::from("flops")), ("series", Json::arr(series))];
    figure_doc(name, body, vec![])
}

fn points_doc(name: &str, points: &[ShapePoint], extra: Vec<(&str, Json)>) -> Json {
    let series = points.iter().map(|p| {
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
    });
    figure_doc(name, vec![("series", Json::arr(series))], extra)
}

fn fig6_doc(name: &str) -> Json {
    points_doc(name, &fig6_series(), vec![])
}

fn fig7_doc(name: &str) -> Json {
    let extra = vec![("fpm_grid_steps", Json::from(FPM_GRID_STEPS))];
    points_doc(name, &fig7_series(), extra)
}

fn fig8_doc(name: &str) -> Json {
    let series = fig8_series().into_iter().map(|(n, shape, e)| {
        Json::obj([
            ("n", Json::from(n)),
            ("shape", Json::from(shape.name())),
            ("dynamic_energy_j", Json::from(e)),
        ])
    });
    let body = vec![
        ("unit", Json::from("joules")),
        ("series", Json::arr(series)),
    ];
    figure_doc(name, body, vec![])
}

fn summary_doc(name: &str) -> Json {
    let s = summarize(&fig6_series(), &fig7_series());
    let fpm = s.fpm_mean_time_per_shape.iter().map(|(sh, t)| {
        Json::obj([
            ("shape", Json::from(sh.name())),
            ("mean_exec_time_s", Json::from(*t)),
        ])
    });
    let body = vec![
        ("cpm_max_spread_pct", Json::from(s.cpm_max_spread_pct)),
        ("cpm_max_spread_n", Json::from(s.cpm_max_spread_n)),
        ("cpm_avg_spread_pct", Json::from(s.cpm_avg_spread_pct)),
        ("peak_tflops", Json::from(s.peak_tflops)),
        ("peak_shape", Json::from(s.peak_shape.name())),
        ("peak_n", Json::from(s.peak_n)),
        ("peak_fraction", Json::from(s.peak_fraction)),
        ("avg_fraction", Json::from(s.avg_fraction)),
        ("energy_avg_spread_pct", Json::from(s.energy_avg_spread_pct)),
        ("fpm_mean_time_per_shape", Json::arr(fpm)),
    ];
    figure_doc(name, body, vec![])
}

fn recovery_doc(_: &str) -> Json {
    recovery_json(32)
}

fn auto_gen() {
    use summagen_core::simulate;
    use summagen_partition::auto::auto_layout;
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
    let (auto_spec, _) = auto_layout(n, &speeds);
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
/// through `multiply_with_recovery` (the grid of
/// `resilience::recovery_series`) and reports how each run ended, then
/// prints the analytical device-failure model the recovery policy targets.
fn recovery() {
    use summagen_platform::{
        degraded_capacity, expected_runtime_with_restarts, fleet_survival, DeviceKind, FailureModel,
    };

    let n = 32;
    println!("\nROBUSTNESS — shrink-and-retry recovery under seeded fault plans (n = {n})");
    println!(
        "{:>20}{:>6}{:>12}{:>10}{:>10}{:>10}{:>12}",
        "shape", "seed", "outcome", "attempts", "failed", "capacity", "max err"
    );
    for r in recovery_series(n, &[1, 2, 3]) {
        let lead = format!("{:>20}{:>6}{:>12}", r.shape.name(), r.seed, r.outcome);
        match (r.max_err, r.error) {
            (Some(err), _) => println!(
                "{lead}{:>10}{:>10}{:>10.2}{err:>12.2e}",
                r.attempts,
                format!("{:?}", r.failed_devices),
                degraded_capacity(&CPM_SPEEDS, &r.failed_devices),
            ),
            (None, e) => println!(
                "{lead}{:>10}{:>10}{:>10}{:>12}",
                "-",
                "-",
                "-",
                e.unwrap_or_default()
            ),
        }
    }

    println!("\n  analytical failure model (typical MTBFs, one hour of failure-free work):");
    let models = [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::XeonPhi].map(FailureModel::typical);
    let work = 3600.0;
    println!(
        "    fleet survival over the run: {:.4}",
        fleet_survival(&models, work)
    );
    println!(
        "    expected makespan with restart-from-scratch: {:.1} s (vs {work:.0} s failure-free)",
        expected_runtime_with_restarts(work, &models)
    );
    for (name, m) in ["AbsCPU", "AbsGPU", "AbsXeonPhi"].into_iter().zip(models) {
        println!(
            "    {name:<12} MTBF {:>9.0} s   P(fail during run) {:.4}",
            m.mtbf_seconds,
            m.failure_probability(work)
        );
    }
}

/// Quick numeric self-check: every multiplication algorithm in the
/// workspace against one reference, printed as a checklist; the first
/// failure ends the run with an error.
fn verify() -> Outcome {
    use summagen_comm::ZeroCost;
    use summagen_core::{multiply, multiply_panelled, summa_multiply, ExecutionMode};
    use summagen_matrix::{max_abs_diff, random_matrix, DenseMatrix, GemmKernel};
    use summagen_partition::{nrrp_layout, proportional_areas};

    let n = 48;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let want = reference(&a, &b);

    println!("\nVERIFY — every algorithm vs the sequential reference (n = {n})");
    let check = |name: &str, c: &DenseMatrix| {
        let err = max_abs_diff(c, &want);
        let ok = err < 1e-9;
        println!(
            "  [{}] {name:<40} max err {err:.2e}",
            if ok { "ok" } else { "FAIL" }
        );
        ensure(ok, || format!("{name} failed verification"))
    };

    let areas = proportional_areas(n, &CPM_SPEEDS);
    for shape in ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        check(
            &format!("SummaGen / {}", shape.name()),
            &multiply(&spec, &a, &b, ExecutionMode::Real).c,
        )?;
        check(
            &format!("SummaGen panelled / {}", shape.name()),
            &multiply_panelled(&spec, &a, &b, GemmKernel::Blocked, ZeroCost).c,
        )?;
    }
    let nrrp = nrrp_layout(n, &[1.0, 2.0, 0.9, 1.5]);
    check(
        "SummaGen / NRRP layout (p = 4)",
        &multiply(&nrrp, &a, &b, ExecutionMode::Real).c,
    )?;
    check(
        "classic SUMMA (2x2)",
        &summa_multiply(&a, &b, 2, 2, 8, ZeroCost).c,
    )?;
    println!("  all algorithms verified");
    Ok(())
}
