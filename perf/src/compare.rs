//! `perf compare A B`: do two sets of runs of the same code agree?
//!
//! A set is a directory of `result_*.json` documents (several seeds per
//! workload). For every workload × end-to-end metric the two medians must
//! lie within the metric's bound of each other; a metric whose own
//! run-to-run spread exceeds its bound is reported as unresolved — the
//! cure is a longer run, never a wider bound. Exact counts and digests of
//! runs with the same workload and seed must be identical.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartiles, spread};

struct RunDoc {
    workload: String,
    seed: u64,
    commit: String,
    /// `(value, bound)` per end-to-end metric.
    metrics: BTreeMap<String, (f64, f64)>,
    counts: Json,
}

fn load_set(dir: &Path) -> Result<Vec<RunDoc>, String> {
    let mut docs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("result_") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("{}: no `{k}`", path.display()))
        };
        // Traced runs carry the layers, not the end-to-end numbers.
        if field("trace")? == &Json::Bool(true) {
            continue;
        }
        let mut metrics = BTreeMap::new();
        for (name, m) in field("end_to_end")?.as_obj().unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Json::as_f64);
            if let (Some(value), Some(bound)) = (num("value"), num("bound")) {
                metrics.insert(name.clone(), (value, bound));
            }
        }
        docs.push(RunDoc {
            workload: field("workload")?.as_str().unwrap_or("").to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            commit: field("commit")?.as_str().unwrap_or("").to_string(),
            metrics,
            counts: field("counts")?.clone(),
        });
    }
    if docs.is_empty() {
        return Err(format!(
            "{}: no end-to-end result_*.json documents",
            dir.display()
        ));
    }
    Ok(docs)
}

/// Compares two result sets; returns the report and whether they agree.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut out = String::new();
    let mut agree = true;

    let commits: Vec<&str> = {
        let mut c: Vec<&str> = set_a
            .iter()
            .chain(&set_b)
            .map(|d| d.commit.as_str())
            .collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    if commits.len() > 1 {
        out.push_str(&format!(
            "note: the sets span {} commits ({}); this tool judges noise between runs of one commit\n",
            commits.len(),
            commits.join(", ")
        ));
    }

    // (workload, metric) -> (values in A, values in B, the metric's bound)
    type Cell = (Vec<f64>, Vec<f64>, f64);
    let mut cells: BTreeMap<(String, String), Cell> = BTreeMap::new();
    for (docs, side) in [(&set_a, 0), (&set_b, 1)] {
        for d in docs {
            for (metric, &(value, bound)) in &d.metrics {
                let cell = cells
                    .entry((d.workload.clone(), metric.clone()))
                    .or_insert((Vec::new(), Vec::new(), bound));
                if side == 0 {
                    cell.0.push(value);
                } else {
                    cell.1.push(value);
                }
            }
        }
    }
    out.push_str(&format!(
        "{:<16} {:<12} {:>3} {:>12} {:>24} {:>3} {:>12} {:>24} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "nA",
        "median A",
        "quartiles A",
        "nB",
        "median B",
        "quartiles B",
        "delta",
        "bound"
    ));
    for ((workload, metric), (xa, xb, bound)) in &cells {
        if xa.is_empty() || xb.is_empty() {
            agree = false;
            out.push_str(&format!(
                "{workload:<16} {metric:<12} present in only one set\n"
            ));
            continue;
        }
        let (ma, mb) = (median(xa), median(xb));
        let (qa, qb) = (quartiles(xa), quartiles(xb));
        let delta = (mb - ma) / ma;
        // set-up time is gated on its median only: it is short, so its
        // relative spread is wide by nature.
        let noisy = metric != "setup_s" && (spread(xa) > *bound || spread(xb) > *bound);
        let verdict = if delta.abs() > *bound {
            agree = false;
            "DISAGREE"
        } else if noisy {
            agree = false;
            "UNRESOLVED (spread > bound: lengthen the run)"
        } else {
            "agree"
        };
        out.push_str(&format!(
            "{workload:<16} {metric:<12} {:>3} {ma:>12.5} {:>24} {:>3} {mb:>12.5} {:>24} {:>+7.2}% {:>5.0}%  {verdict}\n",
            xa.len(),
            format!("[{:.5}, {:.5}]", qa.0, qa.1),
            xb.len(),
            format!("[{:.5}, {:.5}]", qb.0, qb.1),
            delta * 100.0,
            bound * 100.0,
        ));
    }

    // Exact counts: same workload and seed, same numbers — on any box.
    let mut checked = 0;
    for da in &set_a {
        for db in set_b
            .iter()
            .filter(|d| d.workload == da.workload && d.seed == da.seed)
        {
            checked += 1;
            if da.counts != db.counts {
                agree = false;
                out.push_str(&format!(
                    "{} seed {}: exact counts differ:\n  A {}\n  B {}\n",
                    da.workload,
                    da.seed,
                    da.counts.render(),
                    db.counts.render()
                ));
            }
        }
    }
    out.push_str(&format!(
        "exact counts and digests: {checked} same-seed pairs compared\n"
    ));
    out.push_str(if agree {
        "RESULT: the two sets agree within every bound\n"
    } else {
        "RESULT: the two sets do NOT agree\n"
    });
    Ok((out, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_run(dir: &Path, workload: &str, seed: u64, ops: f64, digest: &str) {
        std::fs::create_dir_all(dir).unwrap();
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::from(seed)),
            ("commit", Json::str("abc")),
            ("trace", Json::Bool(false)),
            (
                "end_to_end",
                Json::obj([(
                    "ops_per_s",
                    Json::obj([("value", Json::Num(ops)), ("bound", Json::Num(0.10))]),
                )]),
            ),
            ("counts", Json::obj([("digest", Json::str(digest))])),
        ]);
        let path = dir.join(format!("result_{workload}_seed{seed}_trace0.json"));
        std::fs::write(path, doc.render()).unwrap();
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        // Inside the benchmark's own (git-ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sets_within_the_bound_agree_and_a_shift_beyond_it_does_not() {
        let root = scratch("agree");
        let (a, b, c) = (root.join("a"), root.join("b"), root.join("c"));
        for seed in 0..5 {
            write_run(&a, "w", seed, 100.0 + seed as f64, "d");
            write_run(&b, "w", seed, 104.0 + seed as f64, "d");
            write_run(&c, "w", seed, 120.0 + seed as f64, "d");
        }
        let (report, ok) = compare(&a, &b).unwrap();
        assert!(ok, "{report}");
        let (report, ok) = compare(&a, &c).unwrap();
        assert!(!ok && report.contains("DISAGREE"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_and_a_digest_mismatch_fails() {
        let root = scratch("noisy");
        let (a, b) = (root.join("a"), root.join("b"));
        for (seed, ops) in [80.0, 90.0, 100.0, 110.0, 120.0].into_iter().enumerate() {
            write_run(&a, "w", seed as u64, ops, "d");
            write_run(
                &b,
                "w",
                seed as u64,
                ops,
                if seed == 3 { "other" } else { "d" },
            );
        }
        let (report, ok) = compare(&a, &b).unwrap();
        assert!(!ok);
        assert!(report.contains("UNRESOLVED"), "{report}");
        assert!(report.contains("exact counts differ"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
