//! Pins every file seven `reproduce` exporters write, byte for byte: the
//! `trace`, `abft`, `serve`, `degrade`, `crash`, `soak` and `insight` SLO
//! artifact trees at small sizes. Each file's FNV-1a digest is taken after
//! the `git_commit` provenance value is replaced by a fixed string, so the
//! constants hold in any checkout (a git repository or an exported tree,
//! where it reads `"unknown"`). The `trace`, `abft` and `serve` constants
//! were captured before the harness was folded into one artifact writer,
//! the other four before the service commands became rows of one scenario
//! table; a changed file name, slug, field or number fails here.

use std::fs;
use std::path::{Path, PathBuf};

use summagen_bench::harness::shape_file;
use summagen_bench::scenario::{self, CRASH, DEGRADE, SERVE, SLO};
use summagen_bench::{resilience, soak, tracecmd};
use summagen_comm::Backend;
use summagen_durable::fnv1a;
use summagen_partition::ALL_FOUR_SHAPES;
use summagen_service::{hetero_mix, small_mix, LoadMix};

/// A fresh, empty directory under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("summagen-artifacts-{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The document with its `"git_commit": "<value>"` replaced by a fixed value.
fn normalise_commit(text: &str) -> String {
    const KEY: &str = "\"git_commit\": \"";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        let value = at + KEY.len();
        out.push_str(&rest[..value]);
        out.push_str("COMMIT");
        let end = rest[value..].find('"').expect("closing quote") + value;
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The document with the value of every line keyed `"<key>": ` replaced
/// by `0` (a trailing comma kept).
fn mask(text: &str, key: &str) -> String {
    let key = format!("\"{key}\": ");
    let lines = text.split('\n').map(|line| match line.find(&key) {
        Some(at) => {
            let comma = if line.ends_with(',') { "," } else { "" };
            format!("{}0{comma}", &line[..at + key.len()])
        }
        None => line.to_string(),
    });
    lines.collect::<Vec<_>>().join("\n")
}

/// `(file name, FNV-1a of its normalised bytes)` for every file in `dir`,
/// sorted by name, the values of `keys` masked first.
fn tree(dir: &Path, keys: &[&str]) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = fs::read_dir(dir)
        .expect("artifact dir exists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let text = fs::read_to_string(&path).expect("artifact is UTF-8");
            let text = keys.iter().fold(text, |t, key| mask(&t, key));
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(normalise_commit(&text).as_bytes()))
        })
        .collect();
    files.sort();
    files
}

fn assert_tree(dir: &Path, want: &[(&str, u64)]) {
    assert_masked_tree(dir, &[], want);
}

fn assert_masked_tree(dir: &Path, keys: &[&str], want: &[(&str, u64)]) {
    let got = tree(dir, keys);
    let printed: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("(\"{name}\", 0x{h:016x}),"))
        .collect();
    let want: Vec<(String, u64)> = want.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(
        got,
        want,
        "artifact tree moved; now:\n{}",
        printed.join("\n")
    );
    fs::remove_dir_all(dir).ok();
}

#[test]
fn commit_normalisation_rewrites_only_the_value() {
    let doc = "{\n  \"git_commit\": \"abc123\",\n  \"x\": 1\n}";
    assert_eq!(
        normalise_commit(doc),
        "{\n  \"git_commit\": \"COMMIT\",\n  \"x\": 1\n}"
    );
    assert_eq!(normalise_commit("no provenance"), "no provenance");
}

#[test]
fn masking_rewrites_only_the_named_values() {
    let doc = "{\n  \"dup_dropped\": 3,\n  \"delivered\": 9,\n  \"detection_latency_s\": 0.25\n}";
    let got = mask(&mask(doc, "dup_dropped"), "detection_latency_s");
    let want = "{\n  \"dup_dropped\": 0,\n  \"delivered\": 9,\n  \"detection_latency_s\": 0\n}";
    assert_eq!(got, want);
}

/// The small mix cut to `jobs` jobs: the module tests' tiny size.
fn tiny_small(jobs: usize) -> LoadMix {
    let mut mix = small_mix();
    mix.jobs = jobs;
    mix
}

#[test]
fn trace_artifacts_are_unchanged() {
    let dir = scratch("trace");
    tracecmd::run_trace(512, &dir).expect("trace export");
    assert_tree(&dir, TRACE_TREE);
}

#[test]
fn abft_artifacts_are_unchanged() {
    let dir = scratch("abft");
    resilience::run_abft(48, &dir).expect("abft export");
    assert_tree(&dir, ABFT_TREE);
}

#[test]
fn serve_artifacts_are_unchanged() {
    let dir = scratch("serve");
    scenario::run(&SERVE, &tiny_small(40), &dir).expect("serve gate");
    assert_tree(&dir, SERVE_TREE);
}

#[test]
fn degrade_artifacts_are_unchanged() {
    let dir = scratch("degrade");
    scenario::run(&DEGRADE, &tiny_small(60), &dir).expect("degrade gates");
    assert_tree(&dir, DEGRADE_TREE);
}

#[test]
fn crash_artifacts_are_unchanged() {
    let dir = scratch("crash");
    scenario::run(&CRASH, &tiny_small(120), &dir).expect("crash gates");
    assert_tree(&dir, CRASH_TREE);
}

#[test]
fn insight_slo_artifacts_are_unchanged() {
    let dir = scratch("slo");
    scenario::run(&SLO, &hetero_mix(), &dir).expect("slo gates");
    assert_tree(&dir, SLO_TREE);
}

/// The `SOAK_<shape>.json` tree `soak` writes over channels at n = 32 with
/// its base seeds (what `run_soak` writes when `SUMMAGEN_CHAOS_SEED` is
/// unset), less its two wall-clock values: `dup_dropped` counts the copies
/// a receiver saw before its retransmission timer fired, and
/// `detection_latency_s` is how long the heartbeat watchdog took.
#[test]
fn soak_artifacts_are_unchanged() {
    let dir = scratch("soak");
    fs::create_dir_all(&dir).expect("soak dir");
    for shape in ALL_FOUR_SHAPES {
        let run =
            soak::soak_shape_run(32, shape, &soak::SOAK_SEEDS, Backend::Channel).expect("soak run");
        let doc = soak::soak_json(&run, &soak::SOAK_SEEDS).pretty();
        let name = shape_file("SOAK", shape, Backend::Channel);
        fs::write(dir.join(name), doc).expect("soak write");
    }
    assert_masked_tree(&dir, &["dup_dropped", "detection_latency_s"], SOAK_TREE);
}

const TRACE_TREE: &[(&str, u64)] = &[
    ("metrics_1D-rectangular.json", 0xcee76c01287cbe08),
    ("metrics_block-rectangle.json", 0xa86a72b2dc6d51fc),
    ("metrics_square-corner.json", 0xc67d86829a95ce45),
    ("metrics_square-rectangle.json", 0x26d2ad63f501cff1),
    ("trace_1D-rectangular.json", 0x6681dc1e85f7cbca),
    ("trace_block-rectangle.json", 0x0d33cbd5d80d66c9),
    ("trace_square-corner.json", 0xe9c2e0044a1246d8),
    ("trace_square-rectangle.json", 0x3b7406af6ace6d2a),
];

/// The square-rectangle and block-rectangle traces were re-captured when the
/// rank walk took one lane communicator per panel: there a panel sends two
/// `B` slices down one lane, and the second now carries collective tag 1
/// instead of 0. With `"tag"` masked both files are byte-identical to the
/// earlier capture.
const ABFT_TREE: &[(&str, u64)] = &[
    ("abft_1D-rectangular.json", 0x805e0b798dd14711),
    ("abft_block-rectangle.json", 0x05cacfa7d358e716),
    ("abft_square-corner.json", 0x2ed6e9d93d852adf),
    ("abft_square-rectangle.json", 0x60f59541335a90f4),
    ("abft_trace_1D-rectangular.json", 0x39ae9a7e248b8d53),
    ("abft_trace_block-rectangle.json", 0x0a9e9fee0f2ff491),
    ("abft_trace_square-corner.json", 0xe42d0cbd15d77c89),
    ("abft_trace_square-rectangle.json", 0x21d6396790ca09a6),
];

const SERVE_TREE: &[(&str, u64)] = &[
    ("LOAD_small.json", 0xda621b9c4750ba3b),
    ("LOAD_small.prom", 0x6cfc2eb46a20eb50),
    ("SCHEDULE_small_fifo.json", 0x84554428b466ff26),
    ("SCHEDULE_small_fpm-aware.json", 0x539e6d2d977e621e),
    ("SCHEDULE_small_round-robin.json", 0x7f79a66bde73faee),
];

const DEGRADE_TREE: &[(&str, u64)] = &[
    ("DEGRADE_small.json", 0xa64c0c4778f11610),
    ("SCHEDULE_DEGRADE_small_baseline.json", 0x0dd30055d0571bd0),
    ("SCHEDULE_DEGRADE_small_degraded.json", 0x72ce79f8cba3b718),
];

const CRASH_TREE: &[(&str, u64)] = &[
    ("CRASH_small.json", 0x5bcc5fe43679604f),
    ("CRASH_small.prom", 0xd0de585132fbef70),
    ("SCHEDULE_CRASH_small.json", 0x562a418c05c80259),
];

const SLO_TREE: &[(&str, u64)] = &[
    ("INSIGHT_slo_hetero.json", 0xa79c469d6ab7a1ff),
    ("SCHEDULE_INSIGHT_hetero_5x.json", 0xa6228de793d7edd4),
    ("SLO_INSIGHT_hetero.prom", 0x2293fb7fac66dd48),
];

const SOAK_TREE: &[(&str, u64)] = &[
    ("SOAK_1D-rectangular.json", 0xd0115678a25e5ea1),
    ("SOAK_block-rectangle.json", 0x946f9bbfeb4a6f31),
    ("SOAK_square-corner.json", 0xedb91b6251d4d3d9),
    ("SOAK_square-rectangle.json", 0x1dd73f68ec711ec8),
];
