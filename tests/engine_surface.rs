//! The shape of `summagen-core`'s public surface: a fixed list of entry
//! points over one engine — one launcher, one clock fold, one rank walk — a
//! fixed list of modules in the three algorithm crates, and one place where
//! a run's receive timeout comes from. Also `summagen-comm`'s re-exports and
//! `Communicator` methods, `summagen-service`'s re-exports and settable
//! configuration, the panic budget of comm, core and service, a ceiling on
//! every crate's non-test lines, and `perf/` as the one wall-clock harness.
//!
//! The environment test is the only test of this binary that launches
//! ranks, so setting a process-wide variable in it cannot disturb another.

use std::time::{Duration, Instant};

use summagen_comm::{FaultPlan, ZeroCost, RECV_TIMEOUT_ENV};
use summagen_core::{multiply_with_recovery, ExecutionMode, RecoveryOptions};
use summagen_matrix::{gemm_naive, max_abs_diff, random_matrix, DenseMatrix};
use summagen_partition::Shape;

/// Every `multiply*` / `simulate*` / `summa*` name `summagen-core` exports.
/// A new `_with_x` variant fails here: what differs between two runs is a
/// field of `RunOptions`, not a function.
const ENTRY_POINTS: [&str; 13] = [
    "multiply",
    "multiply_abft",
    "multiply_abft_prefix",
    "multiply_panelled",
    "multiply_traced",
    "multiply_with_cost",
    "multiply_with_options",
    "multiply_with_recovery",
    "simulate",
    "simulate_instrumented",
    "simulate_with_options",
    "summa_multiply",
    "summa_simulate",
];

/// The identifiers of `text` that start like an entry point, sorted.
fn entry_point_names<'a>(text: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut names: Vec<&str> = text
        .flat_map(|line| line.split(|c: char| !c.is_ascii_alphanumeric() && c != '_'))
        .filter(|word| {
            ["multiply", "simulate", "summa"]
                .iter()
                .any(|prefix| word.starts_with(prefix))
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn the_exported_entry_points_are_exactly_the_pinned_list() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let read = |path: &std::path::Path| std::fs::read_to_string(path).expect("readable source");

    // What the crate root re-exports (the module name `summa` rides along).
    let lib = read(&src.join("lib.rs"));
    let reexported = entry_point_names(lib.lines().skip_while(|l| !l.starts_with("pub use")));
    let mut want: Vec<&str> = ENTRY_POINTS.to_vec();
    want.push("summa");
    want.sort_unstable();
    assert_eq!(reexported, want, "re-exports of crates/core/src/lib.rs");

    // What the crate's public modules declare, re-exported or not.
    let sources = crate_sources("core");
    let declared = entry_point_names(
        sources
            .iter()
            .flat_map(|(_, code)| code.lines())
            .filter_map(|line| line.trim_start().strip_prefix("pub fn ")),
    );
    assert_eq!(declared, ENTRY_POINTS, "`pub fn`s under crates/core/src");
}

/// The non-test text of every `crates/<krate>/src/*.rs`, by file name: what
/// precedes the file's first `#[cfg(test)]`.
fn crate_sources(krate: &str) -> Vec<(String, String)> {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates")
        .join(krate)
        .join("src");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&src)
        .expect("a crate's src directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("readable source");
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            let name = path.file_name().expect("a file").to_string_lossy();
            (name.into_owned(), code.to_string())
        })
        .collect();
    files.sort();
    files
}

/// Every rank program of the crate — SummaGen's walk over one window or
/// one per panel, bare or protected, and classic SUMMA — is launched by
/// `engine.rs`: one place builds a `Universe`, one folds the per-rank
/// clocks, and the rank walk exists once. Outside classic SUMMA's own rank
/// program, one line builds a lane communicator and one broadcasts on it.
#[test]
fn one_launcher_one_clock_fold_and_one_panel_loop() {
    let sources = crate_sources("core");
    let sites = |needle: &str| -> Vec<&str> {
        sources
            .iter()
            .flat_map(|(name, code)| code.matches(needle).map(move |_| name.as_str()))
            .collect()
    };
    assert_eq!(sites("Universe::new"), ["engine.rs"]);
    assert_eq!(sites("fold(0.0, f64::max)"), ["engine.rs"]);
    for walk in [
        "fn run_rank_panelled",
        "fn three_stages",
        "fn broadcast_stage",
        "fn local_compute",
        "fn panel_loop",
    ] {
        assert_eq!(sites(walk), [""; 0], "{walk}");
    }
    for call in ["try_bcast(", "subgroup("] {
        let outside_summa: Vec<&str> = sites(call)
            .into_iter()
            .filter(|f| *f != "summa.rs")
            .collect();
        assert_eq!(outside_summa, ["stages.rs"], "{call}");
    }
}

/// A module deleted by the ISSUE 19 audit (no paper figure, committed
/// baseline, CI gate, `perf/` workload or checked EXPERIMENTS.md row
/// reached it) cannot come back unnoticed, and a new one has to be named
/// here.
#[test]
fn the_module_lists_of_the_algorithm_crates_are_the_pinned_ones() {
    let pinned = [
        ("core", "abft executor rankdata simulate stages summa"),
        ("matrix", "abft block dense gemm gen"),
        (
            "partition",
            "auto columns cost distribution energy_opt exact nrrp refine shapes spec two_proc",
        ),
    ];
    for (krate, want) in pinned {
        let lib = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates")
            .join(krate)
            .join("src/lib.rs");
        let text = std::fs::read_to_string(&lib).expect("readable lib.rs");
        let declared: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        let want: Vec<&str> = want.split(' ').collect();
        assert_eq!(declared, want, "`pub mod`s of crates/{krate}/src/lib.rs");
    }
}

/// The names inside every `pub use …;` of a crate root's non-test text,
/// sorted.
fn reexports(lib: &str) -> Vec<&str> {
    let mut names: Vec<&str> = lib
        .split("pub use ")
        .skip(1)
        .filter_map(|stmt| stmt.split(';').next())
        .flat_map(|stmt| {
            let names = stmt.rsplit("::").next().unwrap_or_default();
            names.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        })
        .filter(|name| !name.is_empty())
        .collect();
    names.sort_unstable();
    names
}

/// The non-test text of `crates/<krate>/src/<file>`.
fn source<'a>(sources: &'a [(String, String)], file: &str) -> &'a str {
    let (_, code) = sources
        .iter()
        .find(|(name, _)| name == file)
        .expect("a source file of the crate");
    code
}

/// Everything `summagen-comm` re-exports from its crate root, sorted. A
/// collective, a second event recorder or a new knob added to the crate's
/// surface fails here and has to be named.
const COMM_REEXPORTS: &str = "AbftLabel Backend BcastAlgorithm BlockCorrupt ClockSnapshot \
    CollectiveOp CommError CommResult Communicator ConfigError CostModel DEFAULT_RECV_TIMEOUT \
    EventSink FailedRank FailureCause FaultPlan HangSpec HeartbeatConfig HockneyModel \
    InjectedHang InjectedKill KillSpec LinkPlan MsgCorrupt MsgFault MsgOutcome Payload \
    RECV_TIMEOUT_ENV RankFailure RuntimeMetrics SpanKind SpanRecord StageLabel TrafficStats \
    TwoLevelTopology Universe VirtualClock ZeroCost default_recv_timeout recv_timeout_from_env";

/// `Communicator`'s `pub fn`s, in source order. Every operation has one
/// fallible `try_` form; only `send`, `recv` and `bcast` keep a panicking
/// form beside it, because the wall-clock benchmark calls them.
const COMMUNICATOR_FNS: &str = "rank size global_rank now clock_snapshot traffic recv_timeout \
    advance_compute block_corruptions send try_send recv try_recv tracing_enabled metrics emit \
    bcast try_bcast try_bcast_with try_gather try_barrier try_subgroup";

#[test]
fn the_comm_surface_is_the_pinned_one() {
    let sources = crate_sources("comm");
    let want: Vec<&str> = COMM_REEXPORTS.split_whitespace().collect();
    assert_eq!(
        reexports(source(&sources, "lib.rs")),
        want,
        "`pub use`s of crates/comm/src/lib.rs"
    );

    // The `pub fn`s of `impl Communicator`, the one public impl of comm.rs.
    let methods: Vec<&str> = source(&sources, "comm.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("    pub fn "))
        .filter_map(|rest| rest.split(['(', '<']).next())
        .collect();
    let want: Vec<&str> = COMMUNICATOR_FNS.split_whitespace().collect();
    assert_eq!(methods, want, "`pub fn`s of crates/comm/src/comm.rs");
    let panicking: Vec<&str> = methods
        .iter()
        .copied()
        .filter(|name| methods.contains(&format!("try_{name}").as_str()))
        .collect();
    assert_eq!(panicking, ["send", "recv", "bcast"]);
}

/// Everything `summagen-service` re-exports from its crate root, sorted.
const SERVICE_REEXPORTS: &str = "AdmissionConfig CircuitBreaker CircuitState CrashedRun \
    DeadlineVerdict DegradeConfig DevicePool DurableReport DurableRun FaultProfile GemmService \
    JobId JobOutcome JobQueue JobRecord JobSpec LoadMix Placement Policy PoolDevice \
    QuarantineConfig QuarantineEvent QuarantineTransition RecoveryStats Rejection \
    ServiceBackend ServiceConfig ServiceMetrics ServiceReport TenantProfile TenantSummary \
    WaitWindow commit generate hetero_mix mix_by_name plan service_time small_mix";

/// The public fields of every struct a `ServiceConfig` is built from, by
/// `(file, struct)`: eleven independently settable values (`policy` and
/// `backend` are one each). A new knob is a visible diff here.
const SERVICE_CONFIG_FIELDS: [(&str, &str, &str); 4] = [
    (
        "service.rs",
        "ServiceConfig",
        "admission policy faults backend degrade",
    ),
    (
        "queue.rs",
        "AdmissionConfig",
        "queue_capacity per_tenant_quota max_n",
    ),
    ("service.rs", "FaultProfile", "fail_permille seed"),
    (
        "degrade.rs",
        "DegradeConfig",
        "armed preemption_min_wait brownout_p95_threshold brownout_window",
    ),
];

#[test]
fn the_service_surface_is_the_pinned_one() {
    let sources = crate_sources("service");
    let want: Vec<&str> = SERVICE_REEXPORTS.split_whitespace().collect();
    assert_eq!(
        reexports(source(&sources, "lib.rs")),
        want,
        "`pub use`s of crates/service/src/lib.rs"
    );
    for (file, name, want) in SERVICE_CONFIG_FIELDS {
        let body = source(&sources, file)
            .split(&format!("pub struct {name} {{"))
            .nth(1)
            .and_then(|rest| rest.split("\n}").next())
            .expect("the struct's body");
        let fields: Vec<&str> = body
            .lines()
            .filter_map(|line| line.strip_prefix("    pub ")?.split(':').next())
            .collect();
        let want: Vec<&str> = want.split(' ').collect();
        assert_eq!(fields, want, "public fields of {name}");
    }
}

/// The panic budget: how many times the non-test text of each crate (every
/// line of `crates/<krate>/src/*.rs` before the file's first `#[cfg(test)]`)
/// contains one of the substrings `unwrap()`, `expect(`, `assert!` or
/// `panic!`. `assert!` also matches inside `debug_assert!`; `assert_eq!`
/// does not match. The pins are today's counts: a new site fails here, and
/// a removed one fails too until its pin is lowered, so the budget only
/// falls.
#[test]
fn the_panic_budget_of_comm_core_and_service_only_falls() {
    const PATTERNS: [&str; 4] = ["unwrap()", "expect(", "assert!", "panic!"];
    const BUDGET: [(&str, usize); 3] = [("comm", 32), ("core", 24), ("service", 17)];
    for (krate, pinned) in BUDGET {
        let sites: usize = crate_sources(krate)
            .iter()
            .map(|(_, code)| {
                PATTERNS
                    .iter()
                    .map(|p| code.matches(p).count())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(
            sites, pinned,
            "non-test panic sites in crates/{krate}/src (lower the pin when it falls)"
        );
    }
}

/// Non-test lines of every `.rs` file under `dir`, subdirectories too: the
/// lines before each file's first `#[cfg(test)]`.
fn non_test_lines(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .expect("a source directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                non_test_lines(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                let code = text.split("#[cfg(test)]").next().unwrap_or_default();
                code.lines().count()
            } else {
                0
            }
        })
        .sum()
}

/// Ceilings on the non-test lines under each `crates/<krate>/src`, set at
/// the counts of the change that introduced them. A change that removes
/// lines lowers its crate's ceiling; one that must raise a ceiling says
/// so, with the measured gain that pays for the lines.
const LINE_CEILINGS: [(&str, usize); 11] = [
    ("bench", 5286),
    ("comm", 4715),
    ("core", 2523),
    ("durable", 1787),
    ("insight", 524),
    ("matrix", 1218),
    ("metrics", 951),
    ("partition", 2153),
    ("platform", 1341),
    ("service", 3687),
    ("trace", 1441),
];

#[test]
fn every_crate_stays_under_its_line_ceiling() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = std::fs::read_dir(&crates)
        .expect("the crates directory")
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let pinned: Vec<&str> = LINE_CEILINGS.iter().map(|&(krate, _)| krate).collect();
    assert_eq!(
        names, pinned,
        "every crate under crates/ has a line ceiling"
    );
    let mut over = Vec::new();
    for (krate, ceiling) in LINE_CEILINGS {
        let lines = non_test_lines(&crates.join(krate).join("src"));
        let headroom = ceiling as i64 - lines as i64;
        println!(
            "crates/{krate}/src: {lines} non-test lines, ceiling {ceiling}, headroom {headroom}"
        );
        if headroom < 0 {
            over.push(format!("{krate} ({lines} > {ceiling})"));
        }
    }
    assert!(
        over.is_empty(),
        "over their line ceiling: {}",
        over.join(", ")
    );
}

/// `perf/` (a package of its own, outside the workspace) is the one code
/// that measures wall-clock time. No workspace or vendored manifest declares
/// a `[[bench]]` target and no crate keeps a `benches/` directory, which
/// cargo would discover on its own; the vendored stand-ins are the three
/// crates the workspace builds on, with no benchmark framework among them.
#[test]
fn perf_is_the_only_wall_clock_harness() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs_in = |dir: &str| -> Vec<std::path::PathBuf> {
        let mut dirs: Vec<_> = std::fs::read_dir(root.join(dir))
            .expect("a workspace directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.is_dir())
            .collect();
        dirs.sort();
        dirs
    };
    let packages = [dirs_in("crates"), dirs_in("vendor")].concat();
    for package in std::iter::once(root).chain(packages.iter().map(|p| p.as_path())) {
        let manifest = std::fs::read_to_string(package.join("Cargo.toml")).expect("a manifest");
        assert!(
            !manifest.lines().any(|line| line.trim() == "[[bench]]"),
            "{} declares a [[bench]] target",
            package.display()
        );
        assert!(
            !package.join("benches").exists(),
            "{} keeps a benches/ directory",
            package.display()
        );
    }
    let vendored: Vec<_> = dirs_in("vendor")
        .iter()
        .map(|path| {
            path.file_name()
                .expect("a name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(vendored, ["proptest", "rand", "rayon"]);
}

/// `RecoveryOptions::default()` used to store the compiled 60 s constant
/// and hand it to `Universe::recv_timeout`, overriding the environment the
/// runtime documents. A dropped panel makes the difference observable: the
/// starved receivers give up after the configured 300 ms, not after a
/// minute, and an explicitly set timeout still wins over the environment.
#[test]
fn default_recovery_options_run_under_the_environments_receive_timeout() {
    let n = 24;
    let a = random_matrix(n, n, 29);
    let b = random_matrix(n, n, 30);
    let mut want = DenseMatrix::zeros(n, n);
    let (x, y) = (a.as_slice(), b.as_slice());
    gemm_naive(n, n, n, 1.0, x, n, y, n, 0.0, want.as_mut_slice(), n);
    // Rank 0's first broadcast panel never arrives: attempt 1 ends in
    // timeouts that name no culprit, attempt 2 reuses all three devices.
    let faults = [FaultPlan::new().drop_message(0, 1, 0)];
    let run = |opts: &RecoveryOptions| {
        let start = Instant::now();
        let res = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &faults,
            opts,
        )
        .expect("the retry succeeds");
        let report = res.recovery.expect("a retry happened");
        assert_eq!(report.attempts, 2);
        assert!(report.failed_devices.is_empty());
        assert!(report.failure_causes.iter().any(|(l, _)| l == "timeout"));
        assert!(max_abs_diff(&res.c, &want) < 1e-9);
        start.elapsed()
    };

    std::env::set_var(RECV_TIMEOUT_ENV, "300");
    let from_env = RecoveryOptions::default();
    std::env::set_var(RECV_TIMEOUT_ENV, "3600000");
    let explicit = RecoveryOptions {
        recv_timeout: Duration::from_millis(300),
        ..RecoveryOptions::default()
    };
    let took = [run(&from_env), run(&explicit)];
    std::env::remove_var(RECV_TIMEOUT_ENV);
    assert_eq!(from_env.recv_timeout, Duration::from_millis(300));
    for t in took {
        assert!(t < Duration::from_secs(20), "a 300 ms timeout took {t:?}");
    }
}
