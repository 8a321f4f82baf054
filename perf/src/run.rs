//! One benchmark run: set-up, the timed closed loop, the optional traced
//! replay, and the report.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::check::Tally;
use crate::json::Json;
use crate::layers::{self, Metric, Reps, PER_LAYER};
use crate::machine::{self, Machine};
use crate::span::Tracer;
use crate::stats::{median, quartiles, Summary};
use crate::workloads::{self, Sizes, WORKLOADS};

/// Version of the result document's layout.
pub const SCHEMA: &str = "summagen-perf/1";

/// The end-to-end metrics every run reports: name, unit, whether higher
/// is better, and the share of the parent's median by which a later
/// change may worsen it before that counts as a regression. This is the
/// list `BENCHMARK.json` carries; a unit test keeps the two equal.
pub const END_TO_END: &[(&str, &str, bool, f64)] = &[
    ("ops_per_s", "1/s", true, 0.25),
    ("peak_rss_mb", "MB", false, 0.25),
    ("setup_s", "s", false, 0.25),
];

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// What a run produced: the human lines and the contract's last line (the
/// stamped result document is on disk by then).
pub struct RunOutput {
    pub lines: Vec<String>,
    pub last_line: String,
    pub correct: bool,
}

impl RunOutput {
    pub fn exit_code(&self) -> i32 {
        exit_code(self.correct)
    }
}

/// A run is correct when no operation failed and every repetition was
/// actually timed.
pub fn is_correct(tally: &Tally, walls: &[f64]) -> bool {
    tally.failed == 0 && walls.iter().all(|w| w.is_finite() && *w > 0.0)
}

/// The process exit code: zero only when every correctness check passed.
pub fn exit_code(correct: bool) -> i32 {
    i32::from(!correct)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs one workload. `Err` is a usage error (unknown workload).
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}`; the workloads are: {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    let machine = Machine::probe();
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let tr = Tracer::new(args.trace, &args.workload);

    // Set-up, three times over (five when it is short), median reported: a
    // later change that moves work into set-up must show, and one set-up
    // measured once mostly measures the box — first touch of fresh memory
    // is dear on the reference microVM and varies with the host, which
    // moved a single-shot 2 s set-up by 28 % between two sets of runs.
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let mut workload = loop {
        let t0 = Instant::now();
        let built = tr.span("bench.setup", || {
            workloads::build(&args.workload, args.seed, &sizes, &tr)
        });
        setups.push(t0.elapsed().as_secs_f64());
        let spent = setup_start.elapsed().as_secs_f64();
        if setups.len() >= 5 || (setups.len() >= 3 && spent >= 1.0) {
            break built.expect("workload name was checked above");
        }
    };

    // The timed phase: repetitions until the budget is spent. A traced
    // run spends a quarter of it here and the rest of its time in the
    // per-layer replay.
    let budget = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds
    };
    // Enough repetitions that the cold first one is not the first quartile.
    let min_reps = if args.quick { 2 } else { 4 };
    let mut walls = Vec::new();
    let mut root = None;
    tr.span("bench.workload", || {
        root = tr.current();
        let phase = Instant::now();
        while walls.len() < min_reps || phase.elapsed().as_secs_f64() < budget {
            walls.push(workload.rep(&tr));
        }
    });

    let tally = workload.tally().clone();
    let correct = is_correct(&tally, &walls);
    // The box is shared and interference only ever adds time, so the
    // first quartile of the repetition walls — the speed of the quieter
    // runs — repeats far better from run to run than their median does
    // (sized: 1.5 % against 2.8 % on sched-hetero, 3.0 % against 6.9 % on
    // dense-1024). The median and the rest are in the result document.
    let ops_per_s = workload.ops_per_rep() / quartiles(&walls).0;
    // In `END_TO_END` order.
    let end_to_end = [ops_per_s, machine::peak_rss_mb(), median(&setups)];
    let end_to_end = || END_TO_END.iter().zip(end_to_end);

    let mut per_layer: Vec<Metric> = Vec::new();
    if args.trace {
        let reps = if args.quick {
            Reps { heavy: 1, light: 1 }
        } else {
            Reps { heavy: 2, light: 3 }
        };
        per_layer = layers::replay_all(args.seed, &sizes, reps, &machine, &tr);
        let spans = tr.finish();
        per_layer.extend(layers::workload_metrics(
            &spans,
            root.expect("tracing is on, so the workload span exists"),
        ));
        write_file(
            &args.out.join(format!("trace_{}.json", args.workload)),
            &tr.to_json(&spans).render(),
        );
        // Report in declared order, and every declared metric exactly once.
        per_layer = PER_LAYER
            .iter()
            .map(|(name, _, _)| {
                let mut found = per_layer.iter().filter(|m| m.name == *name);
                match (found.next(), found.next()) {
                    (Some(m), None) => m.clone(),
                    _ => panic!("per-layer metric `{name}` must be measured exactly once"),
                }
            })
            .collect();
    }

    // --- report -------------------------------------------------------
    let mut lines = vec![format!(
        "# {} seed {} ({}): {} reps of {} x [{}], {} attempted, {} failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        walls.len(),
        workload.ops_per_rep(),
        workload.op(),
        tally.attempted,
        tally.failed
    )];
    for why in &tally.reasons {
        lines.push(format!("# FAILED: {why}"));
    }
    for ((name, unit, ..), value) in end_to_end() {
        lines.push(format!("{name} {value} {unit}"));
    }
    let (alias, alias_unit, per_op) = workload.alias();
    lines.push(format!("{alias} {} {alias_unit}", ops_per_s * per_op));
    for m in &per_layer {
        lines.push(format!("{} {} {}", m.name, m.value, m.unit));
    }

    let per_layer_json: Vec<(String, Json)> = per_layer
        .iter()
        .map(|m| (m.name.clone(), metric_json(m.value, m.unit)))
        .collect();
    let reported = if args.trace {
        per_layer_json.clone()
    } else {
        end_to_end()
            .map(|((name, unit, ..), value)| (name.to_string(), metric_json(value, unit)))
            .collect()
    };
    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(tally.attempted.max(1))),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::Obj(reported)),
    ]);

    let mut samples = vec![
        ("rep_wall_s".to_string(), Summary::of(&walls).to_json()),
        ("setup_s".to_string(), Summary::of(&setups).to_json()),
    ];
    for (name, xs) in workload.extra_samples() {
        samples.push((name.to_string(), Summary::of(&xs).to_json()));
    }
    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("commit", Json::str(machine::git_commit())),
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        (
            "machine",
            Json::obj([
                ("nproc", Json::from(machine.nproc)),
                ("llc_bytes", Json::from(machine.llc_bytes)),
                ("mem_available_bytes", Json::from(machine.mem_available)),
            ]),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "failure_reasons",
            Json::Arr(tally.reasons.iter().map(|r| Json::str(r.clone())).collect()),
        ),
        ("op", Json::str(workload.op())),
        ("ops_per_rep", Json::Num(workload.ops_per_rep())),
        ("samples", Json::Obj(samples)),
        (
            "rep_walls_s",
            Json::Arr(walls.iter().copied().map(Json::Num).collect()),
        ),
        (
            "end_to_end",
            Json::Obj(
                end_to_end()
                    .map(|(&(name, unit, higher, bound), value)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("value", Json::Num(value)),
                                ("unit", Json::str(unit)),
                                ("better", Json::str(if higher { "higher" } else { "lower" })),
                                ("bound", Json::Num(bound)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "alias",
            Json::obj([
                ("name", Json::str(alias)),
                ("value", Json::Num(ops_per_s * per_op)),
                ("unit", Json::str(alias_unit)),
            ]),
        ),
        ("per_layer", Json::Obj(per_layer_json)),
        ("counts", Json::Obj(workload.counts())),
    ]);
    write_file(
        &args.out.join(format!(
            "result_{}_seed{}_trace{}.json",
            args.workload, args.seed, args.trace as u8
        )),
        &doc.render(),
    );

    Ok(RunOutput {
        lines,
        last_line: last.render(),
        correct,
    })
}

/// Result files are a convenience beside the printed report; failing to
/// write one is reported and does not fail the run.
fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("perf: could not write {}: {e}", path.display());
    }
}
