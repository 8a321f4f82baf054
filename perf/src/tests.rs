//! Whole-benchmark tests: the contract file matches the code, every
//! workload runs at smoke size, the traced run reports every layer, and the
//! correctness checks bite — a corrupted `C` element, panel word and
//! journal byte each become a counted failure and a non-zero exit.

use std::path::{Path, PathBuf};

use summagen_comm::Backend;

use crate::check::SplitMix;
use crate::json::Json;
use crate::layers::{LAYERS, PER_LAYER};
use crate::run::{exit_code, is_correct, run, RunArgs, END_TO_END};
use crate::span::Tracer;
use crate::workloads::{
    control_run, job_stream, ledger_matches, panel_ok, plant_probe, Dense, Restart, Sizes, Wire,
    Workload, WORKLOADS,
};

fn out_dir(tag: &str) -> PathBuf {
    // Inside the benchmark's own (git-ignored) output directory.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

fn quick(workload: &str, trace: bool, out: &Path) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        quick: true,
        out: out.to_path_buf(),
    }
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);

    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let declared: Vec<Json> = END_TO_END
        .iter()
        .map(|&(name, unit, higher, bound)| {
            Json::obj([
                ("name", Json::str(name)),
                ("unit", Json::str(unit)),
                ("better", Json::str(better(higher))),
                ("bound", Json::Num(bound)),
            ])
        })
        .collect();
    assert_eq!(doc.get("end_to_end").unwrap(), &Json::Arr(declared));
    let declared: Vec<Json> = PER_LAYER
        .iter()
        .map(|&(name, unit, higher)| {
            Json::obj([
                ("name", Json::str(name)),
                ("unit", Json::str(unit)),
                ("better", Json::str(better(higher))),
            ])
        })
        .collect();
    assert_eq!(doc.get("per_layer").unwrap(), &Json::Arr(declared));
    assert!(END_TO_END
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s" && !m.2));
    assert_eq!(
        doc.get("paths").unwrap(),
        &Json::Arr(vec![Json::str("perf")])
    );
}

#[test]
fn quick_smoke_run_of_every_workload() {
    let out = out_dir("smoke");
    for workload in WORKLOADS {
        let got = run(&quick(workload, false, &out)).unwrap();
        assert!(got.correct, "{workload}: {:?}", got.lines);
        assert_eq!(got.exit_code(), 0);
        let last = Json::parse(&got.last_line).unwrap();
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = last.get("metrics").unwrap();
        assert_eq!(
            keys(metrics),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (name, m) in metrics.as_obj().unwrap() {
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}");
        }
        // The stamped document is on disk and says where it came from.
        let file = out.join(format!("result_{workload}_seed7_trace0.json"));
        let doc = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        for stamp in ["schema", "commit", "seed", "machine", "samples", "counts"] {
            assert!(doc.get(stamp).is_some(), "{workload}: no `{stamp}`");
        }
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn unknown_workload_is_an_error_not_a_run() {
    let why = run(&quick("no-such-workload", false, &out_dir("unknown")))
        .err()
        .unwrap();
    assert!(why.contains("unknown workload"), "{why}");
}

#[test]
fn same_seed_same_counts_other_seed_other_inputs() {
    let out = out_dir("seeds");
    let counts = |seed: u64| {
        let mut args = quick("dense-1024", false, &out);
        args.seed = seed;
        run(&args).unwrap();
        let file = out.join(format!("result_dense-1024_seed{seed}_trace0.json"));
        let doc = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        doc.get("counts").unwrap().clone()
    };
    assert_eq!(counts(3), counts(3));
    assert_ne!(counts(3), counts(4));
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn traced_run_reports_every_layer_metric_and_its_spans_add_up() {
    let out = out_dir("traced");
    let got = run(&quick("durable-hetero", true, &out)).unwrap();
    assert!(got.correct, "{:?}", got.lines);
    let last = Json::parse(&got.last_line).unwrap();
    let metrics = last.get("metrics").unwrap();
    assert_eq!(
        keys(metrics),
        PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} has no finite value"))
    };
    for (name, unit, _) in PER_LAYER {
        assert!(value(name).is_finite(), "{name}");
        let printed = format!("{name} {} {unit}", value(name));
        assert!(got.lines.contains(&printed), "not printed: {printed}");
    }
    // Self times add back up to the workload span within 2 %.
    assert!(value("workload.self_gap") < 0.02);
    let by_layer: f64 = LAYERS
        .iter()
        .map(|l| value(&format!("workload.self_s.{l}")))
        .sum();
    assert!((by_layer - value("workload.wall_s")).abs() <= 0.02 * value("workload.wall_s"));
    assert!(value("workload.self_s.service") > 0.0 && value("workload.self_s.durable") > 0.0);

    // The trace file holds a span for every layer's calls.
    let trace = std::fs::read_to_string(out.join("trace_durable-hetero.json")).unwrap();
    let trace = Json::parse(&trace).unwrap();
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    for layer in LAYERS {
        assert!(
            spans.iter().any(|s| {
                s.get("workload").and_then(Json::as_str) == Some("durable-hetero")
                    && s.get("name")
                        .and_then(Json::as_str)
                        .is_some_and(|n| n.starts_with(&format!("{layer}.")))
            }),
            "no span from layer {layer}"
        );
    }
    std::fs::remove_dir_all(&out).unwrap();
}

// ------------------------------------------------ the checks bite

#[test]
fn a_corrupted_c_element_is_a_counted_failure_and_a_nonzero_exit() {
    let tr = Tracer::new(false, "");
    let mut dense = Dense::new(false, SplitMix(1), &Sizes::quick(), &tr);
    dense.rep(&tr); // round 1 defines the bitwise reference
    assert_eq!(dense.tally().failed, 0);

    // Large enough for Freivalds to see it.
    let mut c = dense.reference(2).clone();
    c.set(5, 9, c.get(5, 9) + 1e-3);
    dense.check(2, Ok(c));
    assert_eq!(dense.tally().failed, 1);
    assert!(dense.tally().reasons[0].contains("Freivalds"));

    // One ulp: far below any tolerance, caught by the bitwise reference.
    let mut c = dense.reference(2).clone();
    c.set(0, 0, f64::from_bits(c.get(0, 0).to_bits() ^ 1));
    dense.check(2, Ok(c));
    assert_eq!(dense.tally().failed, 2);
    assert!(dense.tally().reasons[1].contains("bitwise"));

    assert!(!is_correct(dense.tally(), &[0.1]));
    assert_ne!(exit_code(is_correct(dense.tally(), &[0.1])), 0);
}

#[test]
fn a_corrupted_panel_word_is_a_counted_failure_and_a_nonzero_exit() {
    let (seed, len) = (99, 128 * 16);
    let blank = vec![0.25; len];
    assert!(!panel_ok(seed, 3, &blank, len), "no probe word, no pass");
    let mut panel = blank.clone();
    plant_probe(seed, 3, &mut panel);
    assert!(panel_ok(seed, 3, &panel, len));
    assert!(!panel_ok(seed, 4, &panel, len), "the word of another step");
    assert!(!panel_ok(seed, 3, &panel[1..], len), "a short panel");
    let at = (0..len).find(|&i| panel[i] != blank[i]).unwrap();
    panel[at] = f64::from_bits(panel[at].to_bits() ^ 1);
    assert!(
        !panel_ok(seed, 3, &panel, len),
        "one flipped bit in the word"
    );

    let tr = Tracer::new(false, "");
    let mut wire = Wire::new(Backend::Channel, SplitMix(5), &Sizes::quick(), &tr);
    wire.rep(&tr);
    assert_eq!(
        wire.tally().failed,
        0,
        "the real wire delivers every probe word"
    );

    // One receiver of one panel saw a flipped word.
    wire.tally_deliveries(&[0, 1, 0]);
    assert_eq!(wire.tally().failed, 1);
    assert_ne!(exit_code(is_correct(wire.tally(), &[0.1])), 0);
}

#[test]
fn a_corrupted_journal_byte_is_a_counted_failure_and_a_nonzero_exit() {
    let tr = Tracer::new(false, "");
    let sz = Sizes::quick();
    let stream = job_stream(sz.jobs, &tr);
    let control = control_run(&stream, &tr);
    assert!(ledger_matches(&control.journal, &control, &tr));
    let mut bytes = control.journal.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    assert!(
        !ledger_matches(&bytes, &control, &tr),
        "a flipped byte tears the journal: the replayed ledger must come up short"
    );

    // The same through the workload: restart from a journal with one bad byte.
    let mut restart = Restart::new(&sz, &tr);
    assert_eq!(restart.tally().failed, 0);
    restart.corrupt_journal_byte();
    restart.rep(&tr);
    assert_eq!(restart.tally().failed, 1);
    assert_ne!(exit_code(is_correct(restart.tally(), &[0.1])), 0);
}
