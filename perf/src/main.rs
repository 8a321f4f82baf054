//! `perf`: the wall-clock benchmark of the SummaGen reproduction.
//!
//! ```text
//! perf --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out DIR]
//! perf compare DIR_A DIR_B
//! ```
//!
//! A run prints every metric as `name value unit`, writes a stamped result
//! document under `--out` (default `perf/out`), and ends with one JSON line
//! for the benchmark driver. It exits non-zero when a correctness check
//! fails or the workload is unknown. See `perf/README.md`.

mod check;
mod compare;
mod json;
mod layers;
mod machine;
mod run;
mod span;
mod stats;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::RunArgs;

const USAGE: &str =
    "usage: perf --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out DIR]
       perf compare DIR_A DIR_B";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 11,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::from("perf/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => out.quick = true,
            "--out" => out.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |why: String| {
        eprintln!("perf: {why}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => match compare::compare(Path::new(a), Path::new(b)) {
                Ok((report, agree)) => {
                    print!("{report}");
                    ExitCode::from(if agree { 0 } else { 1 })
                }
                Err(why) => usage_error(why),
            },
            _ => usage_error("compare takes two directories".into()),
        },
        _ => match parse_run(&args).and_then(|a| run::run(&a)) {
            Ok(out) => {
                for line in &out.lines {
                    println!("{line}");
                }
                println!("{}", out.last_line);
                ExitCode::from(out.exit_code() as u8)
            }
            Err(why) => usage_error(why),
        },
    }
}
