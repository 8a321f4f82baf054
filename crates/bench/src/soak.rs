//! The `reproduce soak` subcommand: a seeded lossy-link chaos soak over
//! the four paper shapes, plus its machine-readable artifact.
//!
//! Two scenarios per shape, both on the Hockney intra-node cost model so
//! transport overhead lands in the virtual makespan:
//!
//! * a **lossy** run per seed — every link drops, duplicates, reorders
//!   and delays packets per the seeded [`summagen_comm::LinkPlan`], with
//!   the heartbeat detector armed. No rank fails, so the run must finish
//!   on the first attempt with zero suspicions and a product
//!   **bit-identical** to the reliable-link run of the same partition;
//!   the stop-and-wait retransmissions only inflate the makespan. The
//!   per-run metrics bundle supplies the delivered / retransmitted /
//!   duplicated / suppressed packet counts.
//! * a **hang** run — one rank goes *silent* mid-multiply (no panic, no
//!   death notice) on otherwise lossy links. The heartbeat watchdog must
//!   suspect it, post the death notice, and let shrink-and-retry finish
//!   on the survivors with the product still matching the fault-free
//!   reference. The artifact records the detection latency and the
//!   announced-vs-detected split of the recovery report.
//!
//! Artifacts: one schema-stamped `SOAK_<shape>.json` per shape. Any
//! correctness mismatch is an error, which is what fails the CI soak job.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use summagen_comm::{Backend, HockneyModel, LinkPlan, RuntimeMetrics};
use summagen_core::{multiply_with_recovery, ExecutionMode, RecoveryOptions, RecoveryReport};
use summagen_matrix::{max_abs_diff, random_matrix};
use summagen_partition::{Shape, ALL_FOUR_SHAPES};

use crate::harness::{
    chaos_env, chaos_seeds, ensure, reference, shape_file, Artifacts, Error, Outcome,
    CHAOS_SEED_ENV,
};
use crate::json::{with_metadata, Json};
use crate::CPM_SPEEDS;

/// Problem size of the soak runs: large enough for multiple panels of
/// real traffic per shape, small enough that the full grid stays a
/// smoke test.
pub const SOAK_N: usize = 64;

/// Base seeds of the soak grid. The CI soak matrix adds one extra seed
/// per job via [`CHAOS_SEED_ENV`], widening the grid covered across
/// the matrix beyond any single local run.
pub const SOAK_SEEDS: [u64; 3] = [1, 2, 3];

/// Wire-fault rates of the lossy scenario, in permille. They are
/// aggressive — 12 % drops, 8 % duplicates, 6 % reorders, 4 % delays of
/// 100 µs — because the staged executor moves whole panels in few, large
/// messages; at soak sizes a run only pushes on the order of ten
/// packets, so polite real-network rates would leave most seeds
/// fault-free.
pub const SOAK_DROP_PERMILLE: u16 = 120;
pub const SOAK_DUP_PERMILLE: u16 = 80;
pub const SOAK_REORDER_PERMILLE: u16 = 60;
pub const SOAK_DELAY_PERMILLE: u16 = 40;
pub const SOAK_DELAY_SECS: f64 = 1e-4;

/// Rank that goes silent in the hang scenario, and the op count at which
/// it stops responding. Hanging the *last* rank means the shrunken retry
/// (one fewer rank) no longer has a rank by that id, so recovery
/// converges after a single shrink. The op index is early enough that
/// every shape reaches it — the 1D shapes give the last rank only a
/// handful of p2p operations at soak sizes.
pub const SOAK_HANG_RANK: usize = 2;
pub const SOAK_HANG_AT_OP: u64 = 2;

/// Human-readable reproduction context for failure messages: the active
/// backend and the raw [`CHAOS_SEED_ENV`] value, so a red soak log alone
/// is enough to rerun the exact scenario.
pub fn chaos_context(backend: Backend) -> String {
    let seed_env = chaos_env().unwrap_or("<unset>");
    format!("backend={} {CHAOS_SEED_ENV}={seed_env}", backend.name())
}

/// The seeded wire-fault plan of the lossy scenario.
pub fn lossy_plan(seed: u64) -> LinkPlan {
    LinkPlan::seeded(seed)
        .drop_rate(SOAK_DROP_PERMILLE)
        .duplicate_rate(SOAK_DUP_PERMILLE)
        .reorder_rate(SOAK_REORDER_PERMILLE)
        .delay_rate(SOAK_DELAY_PERMILLE, SOAK_DELAY_SECS)
}

fn recovery_options(
    link: LinkPlan,
    metrics: Arc<RuntimeMetrics>,
    backend: Backend,
) -> RecoveryOptions {
    RecoveryOptions {
        max_attempts: 4,
        retry_backoff: 0.25,
        // Must dwarf the heartbeat suspicion threshold: the detector has
        // to fire well before any peer gives up on a receive.
        recv_timeout: Duration::from_millis(2_000),
        link_plan: Some(link),
        heartbeat: true,
        metrics: Some(metrics),
        backend,
        ..RecoveryOptions::default()
    }
}

/// One `(shape, seed)` cell of the lossy grid.
#[derive(Debug)]
pub struct LossyRun {
    pub seed: u64,
    /// Wire packets delivered (first copies).
    pub delivered: u64,
    /// Retransmissions after wire drops.
    pub retransmits: u64,
    /// Extra copies injected by duplication.
    pub duplicates: u64,
    /// Duplicate packets suppressed at the receiver.
    pub dup_dropped: u64,
    /// Heartbeats emitted across the run.
    pub heartbeats: u64,
    /// Watchdog suspicions — must be zero (nobody hung).
    pub suspicions: u64,
    /// Virtual makespan of the lossy run.
    pub exec_lossy: f64,
    /// Virtual makespan of the reliable-link run on the same partition.
    pub exec_reliable: f64,
    /// `100 · (exec_lossy − exec_reliable) / exec_reliable`.
    pub inflation_pct: f64,
    /// Whether the lossy product matched the reliable product exactly.
    pub bit_identical: bool,
    /// `max |C − C_ref|` against the naive fault-free reference.
    pub max_err: f64,
}

/// The hang scenario's outcome for one shape.
#[derive(Debug)]
pub struct HangRun {
    pub seed: u64,
    /// The recovery report of the successful run (a hang always forces
    /// at least one retry).
    pub report: RecoveryReport,
    /// Watchdog suspicions across all attempts.
    pub suspicions: u64,
    /// `max |C − C_ref|` against the naive fault-free reference.
    pub max_err: f64,
}

/// Everything measured about one shape's soak.
#[derive(Debug)]
pub struct SoakShapeRun {
    pub shape: Shape,
    pub n: usize,
    pub backend: Backend,
    pub lossy: Vec<LossyRun>,
    pub hang: HangRun,
}

/// Runs the lossy grid and the hang scenario for one shape over the
/// given backend. A run that fails, or recovers where it must not (or
/// the other way round), is an error carrying the backend and the raw
/// chaos seed so the cell can be replayed.
pub fn soak_shape_run(
    n: usize,
    shape: Shape,
    seeds: &[u64],
    backend: Backend,
) -> Outcome<SoakShapeRun> {
    let a = random_matrix(n, n, 51);
    let b = random_matrix(n, n, 52);
    let want = reference(&a, &b);
    let cost = HockneyModel::intra_node();
    let mode = ExecutionMode::Real;
    let ctx = chaos_context(backend);
    let failed = |what: String| Error::Failed(format!("{} {what}", shape.name()));

    // Reliable-link baseline: the identical executor and partition with
    // the fault injection disengaged, on the same backend. Fault-free,
    // so it never retries and its product is the bit-exactness
    // yardstick.
    let reliable = multiply_with_recovery(
        shape,
        &CPM_SPEEDS,
        &a,
        &b,
        mode,
        cost,
        &[],
        &RecoveryOptions {
            backend,
            ..RecoveryOptions::default()
        },
    )
    .map_err(|e| failed(format!("[{ctx}]: reliable run failed: {e}")))?;
    ensure(reliable.recovery.is_none(), || {
        format!("{} [{ctx}]: reliable run must not recover", shape.name())
    })?;

    let mut lossy = Vec::new();
    for &seed in seeds {
        let m = RuntimeMetrics::fresh();
        let opts = recovery_options(lossy_plan(seed), m.clone(), backend);
        let run = multiply_with_recovery(shape, &CPM_SPEEDS, &a, &b, mode, cost, &[], &opts)
            .map_err(|e| failed(format!("seed {seed} [{ctx}]: lossy run failed: {e}")))?;
        ensure(run.recovery.is_none(), || {
            format!(
                "{} seed {seed} [{ctx}]: wire faults alone must not trigger recovery",
                shape.name()
            )
        })?;
        let diff = max_abs_diff(&run.c, &reliable.c);
        lossy.push(LossyRun {
            seed,
            delivered: m.transport_delivered.get(),
            retransmits: m.transport_retransmits.get(),
            duplicates: m.transport_duplicates.get(),
            dup_dropped: m.transport_dup_dropped.get(),
            heartbeats: m.heartbeats.get(),
            suspicions: m.suspicions.get(),
            exec_lossy: run.exec_time,
            exec_reliable: reliable.exec_time,
            inflation_pct: 100.0 * (run.exec_time - reliable.exec_time)
                / reliable.exec_time.max(1e-300),
            bit_identical: diff == 0.0,
            max_err: max_abs_diff(&run.c, &want),
        });
    }

    // Hang scenario: same lossy wire, plus one rank going silent. The
    // first seed keeps the artifact deterministic per shape.
    let hang_seed = seeds[0];
    let m = RuntimeMetrics::fresh();
    let plan = lossy_plan(hang_seed).hang_rank(SOAK_HANG_RANK, SOAK_HANG_AT_OP);
    let opts = recovery_options(plan, m.clone(), backend);
    let run = multiply_with_recovery(shape, &CPM_SPEEDS, &a, &b, mode, cost, &[], &opts)
        .map_err(|e| failed(format!("[{ctx}]: hang run failed to recover: {e}")))?;
    let report = run
        .recovery
        .clone()
        .ok_or_else(|| failed(format!("[{ctx}]: a hung rank must force a retry")))?;
    let hang = HangRun {
        seed: hang_seed,
        report,
        suspicions: m.suspicions.get(),
        max_err: max_abs_diff(&run.c, &want),
    };

    Ok(SoakShapeRun {
        shape,
        n,
        backend,
        lossy,
        hang,
    })
}

/// The schema-stamped `SOAK_<shape>.json` document.
pub fn soak_json(run: &SoakShapeRun, seeds: &[u64]) -> Json {
    let hang = &run.hang;
    let rep = &hang.report;
    let doc = Json::obj([
        (
            "lossy",
            Json::arr(run.lossy.iter().map(|r| {
                Json::obj([
                    ("seed", Json::from(r.seed)),
                    ("delivered", Json::from(r.delivered)),
                    ("retransmits", Json::from(r.retransmits)),
                    ("duplicates", Json::from(r.duplicates)),
                    ("dup_dropped", Json::from(r.dup_dropped)),
                    ("suspicions", Json::from(r.suspicions)),
                    ("exec_lossy_s", Json::from(r.exec_lossy)),
                    ("exec_reliable_s", Json::from(r.exec_reliable)),
                    ("makespan_inflation_pct", Json::from(r.inflation_pct)),
                    ("bit_identical", Json::from(r.bit_identical)),
                    ("max_abs_err", Json::from(r.max_err)),
                ])
            })),
        ),
        (
            "hang",
            Json::obj([
                ("seed", Json::from(hang.seed)),
                ("hang_rank", Json::from(SOAK_HANG_RANK)),
                ("hang_at_op", Json::from(SOAK_HANG_AT_OP)),
                ("attempts", Json::from(rep.attempts)),
                (
                    "failed_devices",
                    Json::arr(rep.failed_devices.iter().copied()),
                ),
                ("announced_failures", Json::from(rep.announced_failures)),
                ("detected_failures", Json::from(rep.detected_failures)),
                ("detection_latency_s", Json::from(rep.max_detection_latency)),
                ("suspicions", Json::from(hang.suspicions)),
                ("recompute_fraction", Json::from(rep.recompute_fraction)),
                ("max_abs_err", Json::from(hang.max_err)),
            ]),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            ("command", Json::from("reproduce soak")),
            ("backend", Json::from(run.backend.name())),
            ("n", Json::from(run.n)),
            ("shape", Json::from(run.shape.name())),
            ("seeds", Json::arr(seeds.iter().copied())),
            ("drop_permille", Json::from(u64::from(SOAK_DROP_PERMILLE))),
            ("dup_permille", Json::from(u64::from(SOAK_DUP_PERMILLE))),
            (
                "reorder_permille",
                Json::from(u64::from(SOAK_REORDER_PERMILLE)),
            ),
            ("delay_permille", Json::from(u64::from(SOAK_DELAY_PERMILLE))),
            ("cpm_speeds", Json::arr(CPM_SPEEDS)),
        ]),
    )
}

/// Runs the soak over the four paper shapes on the given backend,
/// writing `SOAK_<shape>.json` (or `SOAK_<shape>_tcp.json` for the TCP
/// backend) into `out_dir` and printing the chaos table. Fails (failing
/// CI) if a lossy run is not bit-identical to its reliable-link twin, if
/// the detector raised a false suspicion, or if the hang was not
/// *detected* (as opposed to announced) and recovered with a correct
/// product. Every message carries the backend and the raw chaos seed so
/// the failing cell can be replayed.
pub fn run_soak(n: usize, out_dir: &Path, backend: Backend) -> Outcome {
    let out = Artifacts::create(out_dir)?;
    let seeds = chaos_seeds(&SOAK_SEEDS)?;
    let ctx = chaos_context(backend);
    println!(
        "\nSOAK — lossy-link chaos + silent-hang detection (N = {n}, seeds {seeds:?}, backend {}), output in {}",
        backend.name(),
        out.dir().display()
    );
    println!(
        "{:>20}{:>6}{:>10}{:>8}{:>7}{:>9}{:>9}{:>9}{:>10}{:>9}",
        "shape",
        "seed",
        "delivered",
        "retx",
        "dups",
        "dropped",
        "inflat%",
        "bitid",
        "detect(s)",
        "attempts"
    );
    for shape in ALL_FOUR_SHAPES {
        let run = soak_shape_run(n, shape, &seeds, backend)?;
        let name = shape.name();
        for r in &run.lossy {
            let cell = format!("{name} seed {} [{ctx}]", r.seed);
            ensure(r.bit_identical, || {
                format!("{cell}: lossy product diverged from the reliable-link run")
            })?;
            ensure(r.max_err < 1e-9, || {
                format!("{cell}: lossy product wrong (err {:.2e})", r.max_err)
            })?;
            ensure(r.suspicions == 0, || {
                format!("{cell}: false suspicion on a healthy run")
            })?;
            println!(
                "{:>20}{:>6}{:>10}{:>8}{:>7}{:>9}{:>8.2}%{:>9}{:>10}{:>9}",
                shape.name(),
                r.seed,
                r.delivered,
                r.retransmits,
                r.duplicates,
                r.dup_dropped,
                r.inflation_pct,
                if r.bit_identical { "yes" } else { "NO" },
                "-",
                1,
            );
        }
        // Per-seed retransmit counts can legitimately be zero (a run is
        // only ~10 packets), but across the whole seed list the 12 %
        // drop rate must bite at least once per shape.
        let total_retx: u64 = run.lossy.iter().map(|r| r.retransmits).sum();
        ensure(total_retx > 0, || {
            format!("{name} [{ctx}]: no retransmissions across seeds {seeds:?}")
        })?;
        let hang = &run.hang;
        let rep = &hang.report;
        ensure(rep.detected_failures >= 1, || {
            format!(
                "{name} [{ctx}]: the silent hang was never *detected* (announced: {})",
                rep.announced_failures
            )
        })?;
        ensure(rep.max_detection_latency > 0.0, || {
            format!("{name} [{ctx}]: detection latency missing from the report")
        })?;
        ensure(hang.suspicions >= 1, || {
            format!("{name} [{ctx}]: the watchdog never suspected anyone")
        })?;
        ensure(rep.failed_devices.contains(&SOAK_HANG_RANK), || {
            format!(
                "{name} [{ctx}]: recovery dropped {:?}, not the hung rank {SOAK_HANG_RANK}",
                rep.failed_devices
            )
        })?;
        ensure(hang.max_err < 1e-9, || {
            format!(
                "{name} [{ctx}]: recovered product wrong (err {:.2e})",
                hang.max_err
            )
        })?;
        println!(
            "{:>20}{:>6}{:>10}{:>8}{:>7}{:>9}{:>9}{:>9}{:>10.3}{:>9}",
            shape.name(),
            hang.seed,
            "-",
            "-",
            "-",
            "-",
            "-",
            "-",
            rep.max_detection_latency,
            rep.attempts,
        );
        out.write(
            &shape_file("SOAK", shape, backend),
            soak_json(&run, &seeds).pretty(),
        )?;
    }
    println!("\nall lossy runs bit-identical; every silent hang detected by heartbeat suspicion");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_soak_is_bit_identical_and_counts_retransmits() {
        let run =
            soak_shape_run(32, Shape::OneDRectangular, &SOAK_SEEDS, Backend::Channel).unwrap();
        assert_eq!(run.lossy.len(), SOAK_SEEDS.len());
        for r in &run.lossy {
            assert!(r.bit_identical, "seed {}: lossy product diverged", r.seed);
            assert!(r.max_err < 1e-9);
            assert_eq!(r.suspicions, 0, "false suspicion on a healthy run");
            assert!(r.delivered > 0);
            assert!(r.heartbeats > 0, "ranks must emit heartbeats");
        }
        // Per-seed counts can be zero on a ~10-packet run; the seed list
        // as a whole must see drops, and those drops must cost virtual
        // time on the run that retransmitted.
        let total_retx: u64 = run.lossy.iter().map(|r| r.retransmits).sum();
        assert!(total_retx > 0, "12% drops must force retransmissions");
        assert!(
            run.lossy
                .iter()
                .filter(|r| r.retransmits > 0)
                .all(|r| r.exec_lossy > r.exec_reliable),
            "retransmission timeouts must inflate the makespan"
        );
    }

    #[test]
    fn lossy_soak_over_tcp_matches_the_channel_backend() {
        // The same seeded chaos over loopback TCP: still first-attempt,
        // still zero suspicions, and the product is bit-identical to the
        // reliable run — which in turn is bit-identical to the channel
        // run of the other tests, so the two backends agree.
        let run = soak_shape_run(32, Shape::OneDRectangular, &[2], Backend::Tcp).unwrap();
        assert_eq!(run.backend, Backend::Tcp);
        for r in &run.lossy {
            assert!(
                r.bit_identical,
                "seed {}: TCP lossy product diverged",
                r.seed
            );
            assert!(r.max_err < 1e-9);
            assert_eq!(r.suspicions, 0, "false suspicion on a healthy TCP run");
            assert!(r.delivered > 0);
        }
    }

    #[test]
    fn hang_soak_detects_and_recovers() {
        let run = soak_shape_run(32, Shape::SquareCorner, &[2], Backend::Channel).unwrap();
        let rep = &run.hang.report;
        assert!(rep.attempts >= 2, "a hang must force a retry");
        assert!(rep.detected_failures >= 1, "hang must be detected");
        assert!(rep.max_detection_latency > 0.0);
        assert!(run.hang.suspicions >= 1);
        assert!(rep.failed_devices.contains(&SOAK_HANG_RANK));
        assert!(run.hang.max_err < 1e-9);
    }

    #[test]
    fn soak_json_is_schema_stamped() {
        let run = soak_shape_run(32, Shape::OneDRectangular, &[1], Backend::Channel).unwrap();
        let doc = soak_json(&run, &[1]).pretty();
        assert!(doc.contains("\"schema_version\""));
        assert!(doc.contains("\"command\": \"reproduce soak\""));
        assert!(doc.contains("\"backend\": \"channel\""));
        assert!(doc.contains("\"retransmits\""));
        assert!(doc.contains("\"detection_latency_s\""));
        assert!(doc.contains("\"recompute_fraction\""));
        assert!(doc.contains("\"bit_identical\": true"));
    }

    #[test]
    fn soak_seeds_fold_the_chaos_env_seed() {
        // Can't set the env var safely in a threaded test harness; just
        // pin the base list the CI matrix extends.
        assert_eq!(SOAK_SEEDS, [1, 2, 3]);
        assert!(chaos_seeds(&SOAK_SEEDS).unwrap().starts_with(&SOAK_SEEDS));
    }
}
