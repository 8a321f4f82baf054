//! The shape of `summagen-core`'s public surface: a fixed list of entry
//! points over one engine — one launcher, one clock fold, one rank walk — and
//! a fixed list of modules in the three algorithm crates. Also
//! `summagen-comm`'s re-exports and `Communicator` methods,
//! `summagen-service`'s re-exports and settable configuration, the settable
//! fields of the run, ABFT, link and journal options, the environment the
//! libraries read, the panic budget of comm, core and service, a ceiling on
//! every crate's non-test lines, and `perf/` as the one wall-clock harness.

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
    CollectiveOp CommError CommResult Communicator CostModel DEFAULT_RECV_TIMEOUT EventSink \
    FailedRank FailureCause FaultPlan HangSpec HockneyModel InjectedHang InjectedKill KillSpec \
    LinkPlan MsgCorrupt MsgFault MsgOutcome Payload RankFailure RuntimeMetrics SpanKind \
    SpanRecord StageLabel TrafficStats TwoLevelTopology Universe VirtualClock ZeroCost";

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
        let want: Vec<&str> = want.split(' ').collect();
        assert_eq!(
            public_fields(source(&sources, file), name),
            want,
            "public fields of {name}"
        );
    }
}

/// The names of the `pub` fields of `pub struct <name>` in `code`.
fn public_fields<'a>(code: &'a str, name: &str) -> Vec<&'a str> {
    let body = code
        .split(&format!("pub struct {name} {{"))
        .nth(1)
        .and_then(|rest| rest.split("\n}").next())
        .expect("the struct's body");
    body.lines()
        .filter_map(|line| line.strip_prefix("    pub ")?.split(':').next())
        .collect()
}

/// The public fields of the options a run, a protected run, a lossy link and
/// the journal are built from, by `(crate, file, struct)`: what callers
/// vary. A value with one setting in use outside its crate's own tests is a
/// private constant instead (heartbeat timing, retransmission timeouts and
/// budget, the group-commit delay and fsync cost). `max_batch` stays public
/// only because `perf/`, which changes only with the benchmark, reads it.
const SETTABLE_FIELDS: [(&str, &str, &str, &str); 4] = [
    (
        "core",
        "executor.rs",
        "RunOptions",
        "max_attempts retry_backoff recv_timeout link_plan heartbeat metrics backend sink",
    ),
    (
        "core",
        "abft.rs",
        "AbftOptions",
        "checkpoint_interval checkpoint_budget_bytes",
    ),
    (
        "comm",
        "fault.rs",
        "LinkPlan",
        "seed drop_permille dup_permille reorder_permille delay_permille delay_secs link_drop \
         hangs tcp_refuse tcp_reset tcp_stall",
    ),
    ("durable", "journal.rs", "GroupCommitConfig", "max_batch"),
];

/// Public items that set a value nothing outside its crate's tests varies,
/// or read a format nothing writes, by crate. None may come back: an item
/// that is not declared `pub` can be neither re-exported nor reached through
/// its `pub mod`.
const RETIRED_ITEMS: [(&str, &str); 4] = [
    (
        "comm",
        "pub struct HeartbeatConfig|pub enum ConfigError|pub fn recv_timeout_from_env|\
         pub fn default_recv_timeout|pub const RECV_TIMEOUT_ENV|pub fn try_new|pub fn retransmit",
    ),
    (
        "partition",
        "pub struct AutoOptions|pub fn to_json|pub fn from_json",
    ),
    ("durable", "pub fn config"),
    ("trace", "pub fn with_capacity"),
];

/// Every `.rs` file under `dir`, subdirectories too, with its non-test text:
/// what precedes the file's first `#[cfg(test)]`.
fn sources_under(dir: &std::path::Path) -> Vec<(std::path::PathBuf, String)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files.extend(sources_under(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            files.push((path, code.to_string()));
        }
    }
    files
}

#[test]
fn the_settable_surface_is_the_pinned_one() {
    for (krate, file, name, want) in SETTABLE_FIELDS {
        let want: Vec<&str> = want.split_whitespace().collect();
        assert_eq!(
            public_fields(source(&crate_sources(krate), file), name),
            want,
            "public fields of {name}"
        );
    }
    // The detector is on or off; its timing is comm's.
    assert!(source(&crate_sources("core"), "executor.rs").contains("    pub heartbeat: bool,"));

    for (krate, items) in RETIRED_ITEMS {
        for item in items.split('|') {
            let found: Vec<String> = crate_sources(krate)
                .into_iter()
                .filter(|(_, code)| code.contains(item))
                .map(|(file, _)| file)
                .collect();
            assert!(found.is_empty(), "crates/{krate}/src {found:?}: `{item}`");
        }
    }

    // The process environment configures nothing in the libraries but the
    // chaos harness's seed, which bench reads once.
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut reads = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("the crates directory") {
        let src = krate.expect("directory entry").path().join("src");
        for (path, code) in sources_under(&src) {
            let file = path.strip_prefix(&crates).expect("under crates/");
            for call in code.split("env::var").skip(1) {
                let arg = call.split(')').next().unwrap_or_default();
                reads.push(format!("{}: {arg}", file.display()));
            }
        }
    }
    assert_eq!(reads, ["bench/src/harness.rs: _os(CHAOS_SEED_ENV"]);
    let harness = std::fs::read_to_string(crates.join("bench/src/harness.rs")).expect("harness");
    assert!(harness.contains("pub const CHAOS_SEED_ENV: &str = \"SUMMAGEN_CHAOS_SEED\";"));
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
    const BUDGET: [(&str, usize); 3] = [("comm", 28), ("core", 24), ("service", 15)];
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

/// Ceilings on the non-test lines under each `crates/<krate>/src`, set at
/// the counts of the change that introduced them. A change that removes
/// lines lowers its crate's ceiling; one that must raise a ceiling says
/// so, with the measured gain that pays for the lines.
const LINE_CEILINGS: [(&str, usize); 11] = [
    ("bench", 5059),
    ("comm", 4580),
    ("core", 2523),
    ("durable", 1829),
    ("insight", 524),
    ("matrix", 1218),
    ("metrics", 951),
    ("partition", 1952),
    ("platform", 1341),
    ("service", 3728),
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
        let lines: usize = sources_under(&crates.join(krate).join("src"))
            .iter()
            .map(|(_, code)| code.lines().count())
            .sum();
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
