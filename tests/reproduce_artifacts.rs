//! Pins every file three `reproduce` exporters write, byte for byte: the
//! `trace`, `abft` and `serve` artifact trees at small sizes. Each file's
//! FNV-1a digest is taken after the `git_commit` provenance value is
//! replaced by a fixed string, so the constants hold in any checkout (a
//! git repository or an exported tree, where it reads `"unknown"`). The
//! constants were captured before the harness was folded into one
//! artifact writer; a changed file name, slug, field or number fails here.

use std::fs;
use std::path::{Path, PathBuf};

use summagen_bench::{resilience, servecmd, tracecmd};
use summagen_durable::fnv1a;

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

/// `(file name, FNV-1a of its normalised bytes)` for every file in `dir`,
/// sorted by name.
fn tree(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = fs::read_dir(dir)
        .expect("artifact dir exists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let text = fs::read_to_string(&path).expect("artifact is UTF-8");
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(normalise_commit(&text).as_bytes()))
        })
        .collect();
    files.sort();
    files
}

fn assert_tree(dir: &Path, want: &[(&str, u64)]) {
    let got = tree(dir);
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
    servecmd::run_serve("small", None, Some(40), &dir).expect("serve gate");
    assert_tree(&dir, SERVE_TREE);
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
