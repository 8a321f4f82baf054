//! The `reproduce degrade` subcommand: graceful degradation under
//! overload and device failure.
//!
//! The same seeded tenant stream runs twice per load factor over the
//! hclserver1 pool with seeded device faults: once as the *baseline*
//! (the plain service, every degradation mechanism off) and once
//! *degraded* (deadline-aware admission, checkpoint preemption, device
//! quarantine, and brownout shedding, all armed — [`degrade_config`],
//! the standard layer on mix timescales). The load factors scale the mix's
//! arrival rate from its tuned 1× up to a 5× stampede, where the
//! baseline's queues grow without bound and the comparison is supposed
//! to hurt.
//!
//! Artifacts, all under the output directory:
//!
//! * `DEGRADE_<mix>.json` — schema-stamped document: per load factor and
//!   mode, the makespan, completion/rejection/shed/preemption counts,
//!   per-tenant deadline-hit rates and p95 latencies, and the full
//!   quarantine timeline with the schedule digest pinning determinism.
//! * `SCHEDULE_DEGRADE_<mix>_<mode>.json` — Perfetto timelines of the
//!   top-factor baseline and degraded runs (quarantine windows appear on
//!   the annotation tracks).
//!
//! The command exits nonzero unless, at the top load factor:
//!
//! * jobs are conserved in both modes (accepted + rejected == submitted,
//!   ids partitioning exactly);
//! * every finished job with a deadline carries a typed Met/Missed
//!   verdict consistent with its finish time;
//! * the top-priority tenant's p95 latency is strictly better degraded
//!   than baseline — the point of degrading gracefully;
//! * the degraded run reproduces its schedule digest when rerun; and
//! * the real checksum-protected executor, preempted and resumed across
//!   *every* panel boundary in sequence, reproduces the uninterrupted
//!   product bit-for-bit (the contract the service's checkpoint
//!   preemption model stands on).

use std::path::Path;

use summagen_comm::HockneyModel;
use summagen_core::{multiply_abft_prefix, panel_boundaries, AbftOptions, ExecutionMode};
use summagen_insight::SloPolicy;
use summagen_matrix::random_matrix;
use summagen_partition::ALL_FOUR_SHAPES;
use summagen_service::{
    generate, DeadlineVerdict, DegradeConfig, FaultProfile, JobSpec, LoadMix, Policy,
    ServiceConfig, ServiceReport,
};

use crate::harness::{
    chaos_seeds, digest_json, ensure, load_mix, observe, print_tenant_table, Artifacts, Error,
    Outcome,
};
use crate::json::{with_metadata, Json};
use crate::servecmd::{SERVE_ALPHA, SERVE_BETA};

/// Arrival-rate multipliers of the sweep, mildest first. The last one is
/// the gated stampede.
pub const DEGRADE_LOAD_FACTORS: [f64; 3] = [1.0, 2.0, 5.0];

/// Base fault seed of the sweep; the CI degrade matrix widens it with
/// one extra seed per job via `SUMMAGEN_CHAOS_SEED`.
pub const DEGRADE_BASE_SEEDS: [u64; 1] = [7];

/// Per-attempt device-failure probability, in permille. Aggressive on
/// purpose: the quarantine timeline should be non-trivial at every seed.
pub const DEGRADE_FAIL_PERMILLE: u16 = 250;

/// The degradation layer as the harness arms it: every mechanism of
/// [`DegradeConfig::standard`], with the preemption and brownout
/// thresholds tuned down to the virtual timescale of these mixes
/// (makespans of seconds, so a 0.25 s preemption wait or an 8 s brownout
/// trigger — sensible for a long-lived deployment — would simply never
/// fire here).
pub fn degrade_config() -> DegradeConfig {
    DegradeConfig {
        preemption_min_wait: 0.05,
        brownout_p95_threshold: 1.0,
        brownout_window: 32,
        ..DegradeConfig::standard()
    }
}

/// The mode label of a run with the degradation layer armed.
pub const DEGRADED: &str = "degraded";

/// One (load factor, mode) run of the degrade sweep or of the insight
/// SLO scenario.
pub struct LoadRun {
    /// The service report.
    pub report: ServiceReport,
    /// Prometheus exposition after the run.
    pub exposition: String,
    /// Perfetto timeline of the schedule.
    pub perfetto: String,
    /// [`DEGRADED`], or what the command calls the run it compares with.
    pub mode: &'static str,
    /// The arrival-rate multiplier.
    pub load_factor: f64,
}

impl LoadRun {
    /// Whether the degradation layer was armed.
    pub fn degraded(&self) -> bool {
        self.mode == DEGRADED
    }
}

/// Runs `mix` at `factor` times its arrival rate through an observed
/// service under `config`, `slo` armed when given; the timeline is the
/// `what` schedule of that factor and `mode`.
pub fn load_run(
    mix: &LoadMix,
    factor: f64,
    mode: &'static str,
    config: ServiceConfig,
    slo: Option<SloPolicy>,
    what: &str,
) -> LoadRun {
    let scaled = scaled_mix(mix, factor);
    let title = format!("{} {what} schedule ({factor}x, {mode})", mix.name);
    let run = observe(&scaled, config, slo, &title, |service| {
        service.run(generate(&scaled))
    });
    LoadRun {
        report: run.report,
        exposition: run.exposition,
        perfetto: run.perfetto,
        mode,
        load_factor: factor,
    }
}

/// The service under seeded device faults, the degradation layer armed
/// when `degraded`.
pub fn faulty_config(fault_seed: u64, degraded: bool) -> ServiceConfig {
    ServiceConfig {
        policy: Policy::FpmAware,
        faults: FaultProfile {
            fail_permille: DEGRADE_FAIL_PERMILLE,
            seed: fault_seed,
        },
        degrade: if degraded {
            degrade_config()
        } else {
            DegradeConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// The mix at `factor` times its tuned arrival rate.
pub fn scaled_mix(mix: &LoadMix, factor: f64) -> LoadMix {
    let mut scaled = mix.clone();
    scaled.arrival_rate *= factor;
    scaled
}

/// Runs one mode of the comparison: the scaled stream through a fresh
/// pool, with the degradation layer armed or not.
pub fn run_mode(mix: &LoadMix, factor: f64, fault_seed: u64, degraded: bool) -> LoadRun {
    let mode = if degraded { DEGRADED } else { "baseline" };
    let config = faulty_config(fault_seed, degraded);
    load_run(mix, factor, mode, config, None, "degrade")
}

/// Index of the mix's highest-priority tenant (the tier the gates
/// protect).
pub fn top_tier(mix: &LoadMix) -> usize {
    mix.tenants
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.priority)
        .map(|(i, _)| i)
        .expect("mix has tenants")
}

/// Conservation: records + rejections partition the submitted ids
/// exactly.
fn check_conservation(jobs: &[JobSpec], report: &ServiceReport, what: &str) -> Outcome {
    let mut ids: Vec<u64> = report
        .records
        .iter()
        .map(|r| r.spec.id)
        .chain(report.rejections.iter().map(|(spec, _)| spec.id))
        .collect();
    ids.sort_unstable();
    let mut want: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    want.sort_unstable();
    ensure(ids == want, || {
        format!(
            "{what}: jobs lost or invented ({} accounted, {} submitted)",
            ids.len(),
            want.len()
        )
    })
}

/// Deadline typing: every finished job with a deadline carries a
/// Met/Missed verdict consistent with its finish time.
fn check_deadline_verdicts(report: &ServiceReport, what: &str) -> Outcome {
    for r in &report.records {
        match (r.spec.deadline, r.deadline) {
            (None, DeadlineVerdict::NoDeadline) => {}
            (Some(d), DeadlineVerdict::Met) if r.finish_time <= d + 1e-9 => {}
            (Some(d), DeadlineVerdict::Missed { late_by })
                if r.finish_time > d && (late_by - (r.finish_time - d)).abs() < 1e-9 => {}
            (spec, verdict) => {
                return Err(Error::Failed(format!(
                    "{what}: job {} finish {:.3} has verdict {verdict:?} for deadline {spec:?}",
                    r.spec.id, r.finish_time
                )));
            }
        }
    }
    Ok(())
}

/// The bit-identity contract of checkpoint preemption, on the *real*
/// executor: chaining `multiply_abft_prefix` through every panel
/// boundary of every paper shape reproduces the uninterrupted product
/// bit-for-bit.
pub fn check_preempt_resume_identity(n: usize) -> Outcome {
    let speeds = [3.0, 2.0, 1.0];
    let a = random_matrix(n, n, 11);
    let b = random_matrix(n, n, 12);
    let abft = AbftOptions::default();
    for shape in ALL_FOUR_SHAPES {
        let run = |resume: Option<&_>, stop_k| {
            multiply_abft_prefix(
                shape,
                &speeds,
                &a,
                &b,
                ExecutionMode::Real,
                HockneyModel::intra_node(),
                &abft,
                resume,
                stop_k,
            )
            .map_err(|e| {
                Error::Failed(format!("{shape:?}: prefix run to k={stop_k} failed: {e:?}"))
            })
        };
        let whole = run(None, n)?;
        let mut chained: Option<summagen_core::PanelCheckpoint> = None;
        for k in panel_boundaries(shape, n, &speeds) {
            chained = Some(run(chained.as_ref(), k)?);
        }
        let chained =
            chained.ok_or_else(|| Error::Failed(format!("{shape:?}: no panel boundaries")))?;
        ensure(chained.k == n, || {
            format!("{shape:?}: chained run stopped at k={} of {n}", chained.k)
        })?;
        let mut elems = chained.c.as_slice().iter().zip(whole.c.as_slice());
        if let Some(i) = elems.position(|(got, want)| got.to_bits() != want.to_bits()) {
            return Err(Error::Failed(format!(
                "{shape:?}: element {i} differs after chained resume: {} vs {}",
                chained.c.as_slice()[i],
                whole.c.as_slice()[i]
            )));
        }
    }
    Ok(())
}

fn mode_json(mix: &LoadMix, run: &LoadRun) -> Json {
    let report = &run.report;
    let tenants = report.tenant_summaries(mix.tenants.len());
    Json::obj([
        ("mode", Json::from(run.mode)),
        ("makespan_s", Json::from(report.makespan)),
        ("completed", Json::from(report.completed())),
        ("failed", Json::from(report.failed())),
        ("rejected", Json::from(report.rejections.len())),
        ("shed", Json::from(report.shed())),
        ("deadline_misses", Json::from(report.deadline_misses())),
        ("preemptions", Json::from(report.preemptions)),
        ("retries", Json::from(report.retries)),
        ("p95_s", Json::from(report.latency_quantile(0.95))),
        ("schedule_digest", digest_json(report.schedule_digest)),
        (
            "quarantine_timeline",
            Json::arr(report.quarantine_events.iter().map(|e| {
                Json::obj([
                    ("device", Json::from(report.device_names[e.device])),
                    ("at_s", Json::from(e.at)),
                    ("from", Json::from(e.from.label())),
                    ("to", Json::from(e.to.label())),
                ])
            })),
        ),
        (
            "tenants",
            Json::arr(tenants.iter().map(|t| {
                Json::obj([
                    ("tenant", Json::from(mix.tenants[t.tenant].name)),
                    ("submitted", Json::from(t.submitted)),
                    ("completed", Json::from(t.completed)),
                    ("rejected", Json::from(t.rejected)),
                    ("shed", Json::from(t.shed)),
                    ("deadline_jobs", Json::from(t.deadline_jobs)),
                    ("deadline_met", Json::from(t.deadline_met)),
                    ("deadline_hit_rate", Json::from(t.deadline_hit_rate())),
                    ("p95_s", Json::from(t.p95)),
                ])
            })),
        ),
    ])
}

/// The degrade document: per load factor, baseline next to degraded.
pub fn degrade_json(mix: &LoadMix, fault_seed: u64, pairs: &[(LoadRun, LoadRun)]) -> Json {
    let doc = Json::obj([
        ("mix", Json::from(mix.name)),
        (
            "loads",
            Json::arr(pairs.iter().map(|(base, deg)| {
                Json::obj([
                    ("load_factor", Json::from(base.load_factor)),
                    (
                        "arrival_rate_jobs_per_s",
                        Json::from(mix.arrival_rate * base.load_factor),
                    ),
                    ("baseline", mode_json(mix, base)),
                    ("degraded", mode_json(mix, deg)),
                ])
            })),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            (
                "command",
                Json::from(format!("reproduce degrade --mix {}", mix.name)),
            ),
            ("seed", Json::from(mix.seed)),
            ("fault_seed", Json::from(fault_seed)),
            ("fail_permille", Json::from(DEGRADE_FAIL_PERMILLE as usize)),
            ("jobs", Json::from(mix.jobs)),
            ("load_factors", Json::arr(DEGRADE_LOAD_FACTORS)),
            ("alpha_s", Json::from(SERVE_ALPHA)),
            ("beta_s_per_byte", Json::from(SERVE_BETA)),
        ]),
    )
}

fn print_comparison(mix: &LoadMix, top: usize, pairs: &[(LoadRun, LoadRun)]) {
    println!(
        "\nDEGRADE — graceful degradation, mix '{}' ({} jobs, seed {}, {}‰ faults)",
        mix.name, mix.jobs, mix.seed, DEGRADE_FAIL_PERMILLE
    );
    println!(
        "{:>6}{:>10}{:>10}{:>8}{:>8}{:>7}{:>9}{:>12}{:>11}{:>13}",
        "load",
        "mode",
        "makespan",
        "done",
        "reject",
        "shed",
        "preempt",
        "dl-misses",
        "quar-opens",
        "top-tier p95"
    );
    for (base, deg) in pairs {
        for run in [base, deg] {
            let r = &run.report;
            let opens = r
                .quarantine_events
                .iter()
                .filter(|e| e.to == summagen_service::CircuitState::Open)
                .count();
            let summaries = r.tenant_summaries(mix.tenants.len());
            println!(
                "{:>6}{:>10}{:>10.3}{:>8}{:>8}{:>7}{:>9}{:>12}{:>11}{:>13.3}",
                format!("{}x", run.load_factor),
                run.mode,
                r.makespan,
                r.completed(),
                r.rejections.len(),
                r.shed(),
                r.preemptions,
                r.deadline_misses(),
                opens,
                summaries[top].p95,
            );
        }
    }
    if let Some((base, deg)) = pairs.last() {
        println!("\n  per-tenant deadline hit rate at {}x:", base.load_factor);
        let rows = [base, deg].map(|run| (run.mode, &run.report));
        print_tenant_table(mix, 10, "mode", rows, |t| t.deadline_hit_rate());
    }
}

/// The acceptance gates at the top load factor.
fn gate(
    mix: &LoadMix,
    top: usize,
    fault_seed: u64,
    jobs: &[JobSpec],
    base: &LoadRun,
    deg: &LoadRun,
) -> Outcome {
    let what = |mode: &str| format!("seed {fault_seed}, {}x {mode}", base.load_factor);
    check_conservation(jobs, &base.report, &what("baseline"))?;
    check_conservation(jobs, &deg.report, &what("degraded"))?;
    check_deadline_verdicts(&base.report, &what("baseline"))?;
    check_deadline_verdicts(&deg.report, &what("degraded"))?;
    let base_p95 = base.report.tenant_summaries(mix.tenants.len())[top].p95;
    let deg_p95 = deg.report.tenant_summaries(mix.tenants.len())[top].p95;
    ensure(deg_p95 < base_p95, || {
        format!(
            "{}: top-tier '{}' p95 did not improve: degraded {deg_p95:.3}s vs baseline {base_p95:.3}s",
            what("gate"),
            mix.tenants[top].name
        )
    })?;
    // Reproducibility of the degraded schedule, from scratch.
    let again = run_mode(mix, deg.load_factor, fault_seed, true);
    ensure(
        again.report.schedule_digest == deg.report.schedule_digest,
        || {
            format!(
                "{}: degraded rerun digest {:016x} != {:016x}",
                what("degraded"),
                again.report.schedule_digest,
                deg.report.schedule_digest
            )
        },
    )
}

/// Runs the degrade experiment for `mix_name`, artifacts into `out_dir`.
/// The artifact grid uses the base fault seed; the gates additionally
/// cover every folded chaos seed at the top load factor.
pub fn run_degrade(mix_name: &str, out_dir: &Path) -> Outcome {
    let mix = load_mix(mix_name)?;
    let top = top_tier(&mix);
    let seeds = chaos_seeds(&DEGRADE_BASE_SEEDS)?;
    let artifact_seed = seeds[0];

    let pairs: Vec<(LoadRun, LoadRun)> = DEGRADE_LOAD_FACTORS
        .iter()
        .map(|&f| {
            (
                run_mode(&mix, f, artifact_seed, false),
                run_mode(&mix, f, artifact_seed, true),
            )
        })
        .collect();
    print_comparison(&mix, top, &pairs);

    let (base, deg) = pairs.last().expect("one load factor at least");
    let top_factor = base.load_factor;
    let jobs = generate(&scaled_mix(&mix, top_factor));
    gate(&mix, top, artifact_seed, &jobs, base, deg)?;
    for &seed in &seeds[1..] {
        let base = run_mode(&mix, top_factor, seed, false);
        let deg = run_mode(&mix, top_factor, seed, true);
        gate(&mix, top, seed, &jobs, &base, &deg)?;
    }
    check_preempt_resume_identity(48)?;
    println!(
        "  preempt/resume chain across every panel boundary: bit-identical (n=48, all shapes)"
    );

    let out = Artifacts::create(out_dir)?;
    out.write(
        &format!("DEGRADE_{}.json", mix.name),
        degrade_json(&mix, artifact_seed, &pairs).pretty(),
    )?;
    for run in [base, deg] {
        out.write(
            &format!("SCHEDULE_DEGRADE_{}_{}.json", mix.name, run.mode),
            &run.perfetto,
        )?;
    }
    println!("degrade artifacts written to {}", out.dir().display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_service::small_mix;

    fn tiny_mix() -> LoadMix {
        let mut mix = small_mix();
        mix.jobs = 60;
        mix
    }

    #[test]
    fn degrade_json_round_trips_and_carries_both_modes() {
        let mix = tiny_mix();
        let pairs = vec![(run_mode(&mix, 3.0, 7, false), run_mode(&mix, 3.0, 7, true))];
        let doc = degrade_json(&mix, 7, &pairs);
        let loads = doc.get("loads").and_then(Json::as_arr).unwrap();
        assert_eq!(loads.len(), 1);
        for mode in ["baseline", "degraded"] {
            let m = loads[0].get(mode).unwrap();
            assert!(m.get("schedule_digest").and_then(Json::as_str).is_some());
            assert!(m
                .get("quarantine_timeline")
                .and_then(Json::as_arr)
                .is_some());
            let tenants = m.get("tenants").and_then(Json::as_arr).unwrap();
            assert_eq!(tenants.len(), 3);
            for t in tenants {
                assert!(t.get("deadline_hit_rate").and_then(Json::as_f64).is_some());
            }
        }
        assert_eq!(
            doc.path("run_config.fault_seed").and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn degraded_mode_runs_are_deterministic() {
        let mix = tiny_mix();
        let a = run_mode(&mix, 3.0, 7, true);
        let b = run_mode(&mix, 3.0, 7, true);
        assert_eq!(a.report.schedule_digest, b.report.schedule_digest);
        assert_eq!(a.report.preemptions, b.report.preemptions);
        assert_eq!(a.report.quarantine_events, b.report.quarantine_events);
        assert_eq!(a.perfetto, b.perfetto);
    }

    #[test]
    fn both_modes_conserve_jobs_and_type_every_deadline() {
        let mix = tiny_mix();
        let jobs = generate(&scaled_mix(&mix, 3.0));
        for degraded in [false, true] {
            let run = run_mode(&mix, 3.0, 7, degraded);
            let what = if degraded { "degraded" } else { "baseline" };
            check_conservation(&jobs, &run.report, what).unwrap();
            check_deadline_verdicts(&run.report, what).unwrap();
        }
    }

    #[test]
    fn chained_prefix_runs_reproduce_the_whole_product() {
        check_preempt_resume_identity(24).unwrap();
    }

    #[test]
    fn chaos_seed_env_widens_the_grid() {
        // No env manipulation (tests run in parallel): just the base
        // list's shape.
        let seeds = chaos_seeds(&DEGRADE_BASE_SEEDS).unwrap();
        assert!(seeds.contains(&DEGRADE_BASE_SEEDS[0]));
    }
}
