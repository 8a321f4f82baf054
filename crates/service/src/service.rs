//! The service itself: a virtual-clock event loop that admits submitted
//! jobs through the bounded queue, batches compatible work, places it on
//! the shared device pool under the configured policy, and survives
//! injected device failures by shrink-and-retry — without ever poisoning
//! the queue.
//!
//! Everything runs on the same virtual clock the rest of the repo
//! simulates on: arrivals, dispatches, and completions are events; the
//! loop jumps from event to event and dispatches work whenever a
//! placement can *start at the current instant*. That last clause is the
//! load-bearing one — an eager scheduler that assigned queued jobs to
//! future device slots would drain the queue instantly and no admission
//! bound would ever bind. Holding jobs in the queue until a device can
//! actually take them is what makes queue depth, backpressure, and the
//! FIFO-vs-FPM comparison meaningful.
//!
//! Determinism: the loop consumes no wall clock and no ambient
//! randomness. Fault draws are a pure hash of `(fault seed, job id,
//! attempt)` — deliberately independent of policy and placement, so all
//! three policies face the *same* adversity and the comparison stays
//! fair. Same jobs + same config ⇒ byte-identical report, which the
//! schedule digest asserts cheaply.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use summagen_comm::span::{EventSink, SpanKind, SpanRecord};
use summagen_comm::{FaultPlan, HockneyModel};
use summagen_core::{multiply_abft, AbftOptions, ExecutionMode, RecoveryOptions};
use summagen_durable::{
    fnv1a_words, replay, CrashKind, CrashSpec, JobMeta, Journal, JournalRecord, KeyHasher,
    RecoveredState, RejectionReason, TerminalKind,
};
use summagen_insight::{SloAlert, SloEngine, SloPolicy};
use summagen_matrix::{gemm_naive, max_abs_diff, random_matrix, DenseMatrix};

use crate::degrade::{
    CircuitBreaker, CircuitState, DegradeConfig, QuarantineEvent, WaitWindow,
    BROWNOUT_EXIT_FRACTION, BROWNOUT_SHED_PRIORITY, PREEMPTION_MIN_PRIORITY, PREEMPTION_PANELS,
    QUARANTINE, RESUME_OVERHEAD,
};
use crate::job::{DeadlineVerdict, JobId, JobOutcome, JobRecord, JobSpec, Rejection};
use crate::metrics::ServiceMetrics;
use crate::queue::{AdmissionConfig, JobQueue};
use crate::scheduler::{commit, fpm_pick, plan, service_time, DevicePool, Pick, Placement, Policy};

/// Comparison slack for virtual-clock instants.
const EPS: f64 = 1e-9;

/// Most jobs dispatched per batch: the seed job plus same-size mates.
const MAX_BATCH: usize = 4;

/// Virtual seconds of per-batch setup the batch amortizes.
const BATCH_SETUP_COST: f64 = 0.002;

/// Executions allowed per job (first try plus retries).
const MAX_ATTEMPTS: usize = 3;

/// Virtual seconds charged per retry (detection + restart).
const RETRY_BACKOFF: f64 = 0.05;

/// Checkpoint records a durable run journals per completing member while
/// the degradation layer is disarmed ([`PREEMPTION_PANELS`] while armed).
const DISARMED_CHECKPOINT_PANELS: usize = 4;

/// How dispatched jobs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceBackend {
    /// Timing-only: durations come from the cost model, no matrices are
    /// materialized. This is how the load mixes run at scale.
    #[default]
    Virtual,
    /// Every job numerically executes through the ABFT checkpointed
    /// executor on matrices seeded from its id, and the product is
    /// verified against a sequential reference. Timing stays virtual
    /// (the schedule must not depend on host speed). For test-sized jobs.
    Real,
}

/// Seeded device-failure injection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Per-attempt failure probability in permille (0 = no faults).
    pub fail_permille: u16,
    /// Seed of the failure draws.
    pub seed: u64,
}

/// Full service configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceConfig {
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
    /// Scheduling policy.
    pub policy: Policy,
    /// Failure injection.
    pub faults: FaultProfile,
    /// Execution backend.
    pub backend: ServiceBackend,
    /// The degradation layer (disarmed by default).
    pub degrade: DegradeConfig,
}

/// The multi-tenant GEMM service.
pub struct GemmService {
    pool: DevicePool,
    config: ServiceConfig,
    metrics: Option<Arc<ServiceMetrics>>,
    sink: Option<Arc<dyn EventSink>>,
    slo: Option<SloPolicy>,
}

/// Everything one `run` produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The policy that ran.
    pub policy: Policy,
    /// One record per *accepted* job, in dispatch order.
    pub records: Vec<JobRecord>,
    /// Every admission rejection, in arrival order.
    pub rejections: Vec<(JobSpec, Rejection)>,
    /// Instant the last batch finished (0 for an empty run).
    pub makespan: f64,
    /// Deepest the queue ever got.
    pub peak_queue_depth: usize,
    /// Batches dispatched.
    pub batches: u64,
    /// Retry executions beyond first attempts.
    pub retries: u64,
    /// Checkpoint preemptions performed (batch truncations).
    pub preemptions: u64,
    /// Every breaker transition, in observation order — the quarantine
    /// timeline.
    pub quarantine_events: Vec<QuarantineEvent>,
    /// Pool device names, in pool order.
    pub device_names: Vec<&'static str>,
    /// Per-device busy virtual seconds, in pool order.
    pub device_busy: Vec<f64>,
    /// FNV-1a digest of every scheduling decision — two runs scheduled
    /// identically iff their digests match.
    pub schedule_digest: u64,
    /// Every burn-rate alert the SLO engine fired, in fire order (empty
    /// when no [`SloPolicy`] was attached).
    pub slo_alerts: Vec<SloAlert>,
}

/// Per-tenant latency/throughput summary with *exact* quantiles
/// (computed from the sorted per-job latencies, not histogram buckets —
/// the artifact numbers must be reproducible to the bit).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant index.
    pub tenant: usize,
    /// Jobs the tenant submitted (accepted + rejected).
    pub submitted: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs that failed after retries.
    pub failed: usize,
    /// Jobs bounced by admission control.
    pub rejected: usize,
    /// Median latency of finished jobs, seconds.
    pub p50: f64,
    /// 95th-percentile latency, seconds.
    pub p95: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Worst latency, seconds.
    pub max: f64,
    /// Finished jobs that missed their (advisory) deadline.
    pub deadline_misses: usize,
    /// Jobs shed by brownout load shedding.
    pub shed: usize,
    /// Finished jobs that carried a deadline.
    pub deadline_jobs: usize,
    /// Finished deadline jobs that met their deadline.
    pub deadline_met: usize,
    /// Burn-rate alerts the SLO engine fired for this tenant.
    pub slo_alerts: usize,
}

impl TenantSummary {
    /// Fraction of the tenant's finished deadline jobs that met their
    /// deadline (1 when the tenant ran no deadline jobs).
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.deadline_jobs == 0 {
            1.0
        } else {
            self.deadline_met as f64 / self.deadline_jobs as f64
        }
    }
}

/// Exact nearest-rank quantile of an already-sorted sample.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

impl ServiceReport {
    /// Completed-job count.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .count()
    }

    /// Failed-job count.
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Jobs shed by brownout load shedding.
    pub fn shed(&self) -> usize {
        self.rejections
            .iter()
            .filter(|(_, r)| matches!(r, Rejection::Shed { .. }))
            .count()
    }

    /// Finished jobs that missed their deadline (every one carries a
    /// typed [`DeadlineVerdict::Missed`] — no silent lateness).
    pub fn deadline_misses(&self) -> usize {
        self.records.iter().filter(|r| r.missed_deadline()).count()
    }

    /// Completed jobs per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.completed() as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Latency of one quantile across *all* finished jobs.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut lats: Vec<f64> = self.records.iter().map(JobRecord::latency).collect();
        lats.sort_by(f64::total_cmp);
        quantile_sorted(&lats, q)
    }

    /// Per-tenant summaries for tenants `0..ntenants`.
    pub fn tenant_summaries(&self, ntenants: usize) -> Vec<TenantSummary> {
        (0..ntenants)
            .map(|t| {
                let mut lats: Vec<f64> = self
                    .records
                    .iter()
                    .filter(|r| r.spec.tenant == t)
                    .map(JobRecord::latency)
                    .collect();
                lats.sort_by(f64::total_cmp);
                let recs = || self.records.iter().filter(|r| r.spec.tenant == t);
                let completed = recs()
                    .filter(|r| r.outcome == JobOutcome::Completed)
                    .count();
                let rejected = self
                    .rejections
                    .iter()
                    .filter(|(j, _)| j.tenant == t)
                    .count();
                let shed = self
                    .rejections
                    .iter()
                    .filter(|(j, r)| j.tenant == t && matches!(r, Rejection::Shed { .. }))
                    .count();
                TenantSummary {
                    tenant: t,
                    submitted: lats.len() + rejected,
                    completed,
                    failed: lats.len() - completed,
                    rejected,
                    p50: quantile_sorted(&lats, 0.50),
                    p95: quantile_sorted(&lats, 0.95),
                    p99: quantile_sorted(&lats, 0.99),
                    mean: if lats.is_empty() {
                        0.0
                    } else {
                        lats.iter().sum::<f64>() / lats.len() as f64
                    },
                    max: lats.last().copied().unwrap_or(0.0),
                    deadline_misses: recs().filter(|r| r.missed_deadline()).count(),
                    shed,
                    deadline_jobs: recs().filter(|r| r.spec.deadline.is_some()).count(),
                    deadline_met: recs()
                        .filter(|r| r.deadline == DeadlineVerdict::Met)
                        .count(),
                    slo_alerts: self.slo_alerts.iter().filter(|a| a.tenant == t).count(),
                }
            })
            .collect()
    }
}

/// Splitmix-style finalizer over `(seed, job, attempt)` — the fault
/// oracle. Policy- and placement-independent on purpose: every policy
/// faces the same draws for the same job.
fn fault_hash(seed: u64, job: u64, attempt: u64) -> u64 {
    let mut x = seed
        ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One simulated execution attempt's fate.
struct AttemptFate {
    /// Whether the attempt's placement loses a device mid-run.
    fails: bool,
    /// Fraction of the attempt's duration burnt before the failure
    /// surfaces (0.25–0.75).
    burn_fraction: f64,
    /// Which member of the surviving device list is blamed.
    victim_slot: usize,
}

fn draw_fate(profile: &FaultProfile, job: u64, attempt: u64, ndevices: usize) -> AttemptFate {
    let h = fault_hash(profile.seed, job, attempt);
    AttemptFate {
        fails: (h % 1000) < u64::from(profile.fail_permille),
        burn_fraction: 0.25 + 0.5 * ((h >> 32) % 1000) as f64 / 1000.0,
        victim_slot: ((h >> 16) as usize) % ndevices.max(1),
    }
}

/// One breaker-relevant observation from a simulated execution: a blamed
/// device failure, or a surviving device's success, at a virtual instant.
struct BreakerEvent {
    at: f64,
    device: usize,
    failed: bool,
}

/// A dispatched batch still occupying devices. Member records, the Sched
/// span, and breaker observations are buffered here and only flushed when
/// the batch leaves the pool — which is what lets a preemption rewrite
/// the batch's tail before anything about it is externally visible.
struct InFlight {
    batch: u64,
    devices: Vec<usize>,
    start: f64,
    /// Instant the devices free: the batch end, or the panel boundary a
    /// preemption truncated it to.
    finish: f64,
    /// Member records awaiting flush (requeued members are removed).
    pending: Vec<JobRecord>,
    /// Breaker observations awaiting flush, in execution order.
    breaker_events: Vec<BreakerEvent>,
    /// Seed member's identity, for the Sched span.
    seed_id: JobId,
    seed_n: usize,
}

/// Carried-over progress of a preempted job, keyed by job id.
#[derive(Clone, Copy, Default)]
struct ResumeState {
    /// Fraction of the multiply already checkpointed (k-prefix share).
    fraction: f64,
    /// Checkpoint preemptions suffered so far.
    preemptions: usize,
}

/// What recovery found in the journal when this epoch started.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Epoch index (0 = cold start, k = k-th restart).
    pub epoch: u32,
    /// Virtual instant this epoch's clock started at.
    pub resume_clock: f64,
    /// Journal records replayed.
    pub replayed_records: usize,
    /// Non-terminal jobs re-entered into the queue.
    pub recovered_jobs: usize,
    /// Recovered jobs that resumed from a durable panel checkpoint
    /// (rather than restarting from scratch).
    pub resumed_from_checkpoint: usize,
    /// Resubmissions suppressed because the journal already knew their
    /// idempotency key.
    pub suppressed_duplicates: usize,
    /// Torn tail bytes the frame decoder discarded at replay.
    pub torn_bytes: usize,
    /// Frames that passed their CRC but held no valid record, skipped at
    /// replay (0 unless the journal was written wrong: a `Completed`
    /// lost this way re-runs its job).
    pub undecodable_records: usize,
}

/// A durable run that ran its whole stream.
#[derive(Debug)]
pub struct DurableReport {
    /// The epoch's service report (this epoch's records only — terminal
    /// outcomes from earlier epochs live in the journal).
    pub report: ServiceReport,
    /// The journal, committed through the end of the run and compacted
    /// when that was due.
    pub journal: Journal,
    /// What recovery found when the epoch started.
    pub recovery: RecoveryStats,
}

/// A durable run the crash injector killed at its drawn kill point.
#[derive(Debug)]
pub struct CrashedRun {
    /// The journal as the crash left it: pending records dropped, and —
    /// for a torn-write crash — the durable tail truncated mid-record.
    pub journal: Journal,
    /// Journal-event counter value at the kill point.
    pub event: u64,
    /// What the crash did.
    pub kind: CrashKind,
    /// Virtual instant the crash hit.
    pub at: f64,
    /// What recovery found when the epoch started.
    pub recovery: RecoveryStats,
}

/// How a durable (journaled) run ended.
#[derive(Debug)]
pub enum DurableRun {
    /// Ran the whole stream; every terminal outcome is durable.
    Finished(Box<DurableReport>),
    /// Killed mid-run; only the journal's durable bytes survive.
    Crashed(Box<CrashedRun>),
}

impl DurableRun {
    /// The journal, however the run ended — what the next epoch reopens.
    pub fn into_journal(self) -> Journal {
        match self {
            DurableRun::Finished(r) => r.journal,
            DurableRun::Crashed(c) => c.journal,
        }
    }

    /// Whether the run crashed.
    pub fn crashed(&self) -> bool {
        matches!(self, DurableRun::Crashed(_))
    }
}

/// Journal + crash-injection state threaded through one durable epoch.
struct DurableCtx {
    journal: Journal,
    crash: Option<CrashSpec>,
    /// Journal-relevant events so far (each append counts one).
    events: u64,
    /// Set once the kill point fires: (what happened, when).
    crashed: Option<(CrashKind, f64)>,
    /// Panel marks per dispatch used for checkpoint records.
    panels: usize,
    /// Real-backend product digests by job id, captured at execution
    /// (virtual-backend digests are recomputed from the spec).
    digests: BTreeMap<JobId, u64>,
    stats: RecoveryStats,
}

impl DurableCtx {
    /// The crash kind due to fire, if the event counter has reached the
    /// kill point and the crash has not happened yet.
    fn due_kind(&self) -> Option<CrashKind> {
        match self.crash {
            Some(c) if self.crashed.is_none() && self.events >= c.at_event => Some(c.kind),
            _ => None,
        }
    }

    /// Executes the kill: pending records are lost; a torn-write crash
    /// first force-flushes what is due and then tears the durable tail
    /// mid-record.
    fn crash_now(&mut self, now: f64, kind: CrashKind) {
        if let CrashKind::MidAppend { torn_bytes } = kind {
            self.journal.commit(now);
            self.journal.drop_pending();
            self.journal.tear_tail(torn_bytes as usize);
        } else {
            self.journal.drop_pending();
        }
        self.crashed = Some((kind, now));
    }

    /// Swaps a compacted image in, if there is one. A due
    /// `MidCompaction` kill fires before the swap or after it.
    fn compact(&mut self, now: f64, image: Option<Vec<u8>>) {
        let Some(image) = image else {
            return;
        };
        let kill = match self.due_kind() {
            Some(CrashKind::MidCompaction { swapped }) => Some(swapped),
            _ => None,
        };
        if kill != Some(false) {
            self.journal.swap_in(image);
        }
        if let Some(swapped) = kill {
            self.crash_now(now, CrashKind::MidCompaction { swapped });
        }
    }

    /// Appends one record (counting the journal event) and fires the
    /// kill point when it lands on this append: a `MidCheckpoint` crash
    /// drops a checkpoint record *instead of* appending it — the crash
    /// between the checkpoint's data write and its journal record — and
    /// a `MidAppend` crash tears the tail right after the append.
    fn append(&mut self, now: f64, at: f64, record: &JournalRecord) {
        if self.crashed.is_some() {
            return;
        }
        self.events += 1;
        if self.due_kind() == Some(CrashKind::MidCheckpoint)
            && matches!(record, JournalRecord::PanelCheckpoint { .. })
        {
            self.crash_now(now, CrashKind::MidCheckpoint);
            return;
        }
        self.journal.append_at(now, at, record);
        if let Some(kind @ CrashKind::MidAppend { .. }) = self.due_kind() {
            self.crash_now(now, kind);
        }
    }
}

/// The journal's view of a job: identity, admission facts, and the
/// idempotency key resubmission suppression matches on.
fn job_meta(job: &JobSpec) -> JobMeta {
    JobMeta {
        id: job.id,
        tenant: job.tenant as u32,
        n: job.n as u32,
        priority: job.priority,
        deadline: job.deadline,
        submit_time: job.submit_time,
        idempotency: job.idempotency(),
    }
}

/// Which submissions, by idempotency key, are duplicates: those whose
/// key the recovered journal knows — open (queued or in flight) or
/// terminal — and those whose key an earlier entry of `keys` carries.
/// One pass: a key is a duplicate iff a terminal table holds it or the
/// set seeded with the open keys already has it.
fn duplicate_keys(rs: &RecoveredState, keys: &[u64]) -> Vec<bool> {
    let open = rs.queued.iter().chain(&rs.in_flight);
    let mut seen: HashSet<u64, KeyHasher> = open.map(|j| j.meta.idempotency).collect();
    let terminal = |key| rs.completed.contains_key(key) || rs.failed.contains_key(key);
    keys.iter()
        .map(|key| terminal(key) || !seen.insert(*key))
        .collect()
}

/// Rebuilds the spec a recovered [`JobMeta`] was journaled from.
fn spec_of(meta: &JobMeta) -> JobSpec {
    JobSpec {
        id: meta.id,
        tenant: meta.tenant as usize,
        n: meta.n as usize,
        priority: meta.priority,
        deadline: meta.deadline,
        submit_time: meta.submit_time,
    }
}

/// The journal's compact code for a typed rejection.
fn reason_of(rej: &Rejection) -> RejectionReason {
    match rej {
        Rejection::QueueFull { .. } => RejectionReason::QueueFull,
        Rejection::QuotaExceeded { .. } => RejectionReason::QuotaExceeded,
        Rejection::TooLarge { .. } => RejectionReason::TooLarge,
        Rejection::DeadlineInfeasible { .. } => RejectionReason::DeadlineInfeasible,
        Rejection::Shed { .. } => RejectionReason::Shed,
        Rejection::Duplicate { .. } => RejectionReason::Duplicate,
    }
}

/// Digest of a virtual-backend job's output. The executor is a pure
/// function of the spec, so the product — and therefore its digest — is
/// fully determined by `(id, n)`; re-running a lost job after a crash
/// reproduces it bit-identically, which is what the exactly-once gate
/// compares across crash and control runs.
fn job_output_digest(spec: &JobSpec) -> u64 {
    fnv1a_words(&[spec.id, spec.n as u64])
}

/// Mutable state of one `run`, threaded through the event loop's helpers
/// as a unit.
struct RunState {
    queue: JobQueue,
    in_flight: Vec<InFlight>,
    records: Vec<JobRecord>,
    rejections: Vec<(JobSpec, Rejection)>,
    next_batch: u64,
    retries: u64,
    preemptions: u64,
    /// One breaker per pool device (empty when quarantine is off).
    breakers: Vec<CircuitBreaker>,
    quarantine_events: Vec<QuarantineEvent>,
    /// Sliding queue-wait window (present when brownout is on).
    waits: Option<WaitWindow>,
    brownout_active: bool,
    resume: BTreeMap<JobId, ResumeState>,
    /// SLO burn-rate engine (present when a policy is attached).
    slo: Option<SloEngine>,
    /// Journal + crash-injection state (present on durable runs only;
    /// `None` on a plain `run`, which journals nothing).
    durable: Option<DurableCtx>,
    now: f64,
    /// The dispatch pass (the tests swap in its reference).
    dispatch: fn(&mut GemmService, &mut RunState),
    /// A pass's scratch: the queue in urgency order, each size's FPM plan.
    order: Vec<usize>,
    picks: Vec<(usize, Pick)>,
}

impl RunState {
    /// Whether the crash injector has fired (always false on plain runs).
    fn crashed(&self) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|ctx| ctx.crashed.is_some())
    }

    /// Closes one dispatch round of the event loop: a due `MidBatch` kill
    /// fires while a batch is in flight, the journal flushes what is due,
    /// and the answer is whether the run survived.
    fn end_step(&mut self) -> bool {
        if let Some(ctx) = self.durable.as_mut() {
            if ctx.due_kind() == Some(CrashKind::MidBatch) && !self.in_flight.is_empty() {
                ctx.crash_now(self.now, CrashKind::MidBatch);
            }
            ctx.journal.maybe_flush(self.now);
        }
        !self.crashed()
    }
}

/// Urgency order: higher priority first, then the earlier deadline (none
/// counts as infinitely late). Ties are the caller's to break.
fn urgency(a: &JobSpec, b: &JobSpec) -> Ordering {
    let deadline = |j: &JobSpec| j.deadline.unwrap_or(f64::INFINITY);
    b.priority
        .cmp(&a.priority)
        .then(deadline(a).total_cmp(&deadline(b)))
}

impl GemmService {
    /// A service over `pool` under `config`, with no metrics or tracing.
    pub fn new(pool: DevicePool, config: ServiceConfig) -> Self {
        Self {
            pool,
            config,
            metrics: None,
            sink: None,
            slo: None,
        }
    }

    /// Attaches a metrics bundle (per-tenant series must already be
    /// registered for the load's tenants).
    pub fn with_metrics(mut self, metrics: Arc<ServiceMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches an event sink; every dispatch emits one
    /// [`SpanKind::Sched`] span per occupied device, rank = pool index.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches per-tenant SLO specs with multi-window burn-rate
    /// alerting. Each run evaluates the specs over its job outcomes,
    /// publishes burn gauges and alert counters (when metrics are
    /// attached), emits one [`SpanKind::SloAlert`] annotation span per
    /// fired alert (when a sink is attached), and reports the alerts in
    /// [`ServiceReport::slo_alerts`].
    pub fn with_slo(mut self, policy: SloPolicy) -> Self {
        self.slo = Some(policy);
        self
    }

    /// The configuration the service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Runs the whole job stream to completion and reports.
    pub fn run(&mut self, jobs: Vec<JobSpec>) -> ServiceReport {
        let mut st = self.base_state();
        let finished = self.drive(jobs, &mut st);
        debug_assert!(finished, "a plain run has no crash injector");
        self.finish_report(st)
    }

    /// Runs a journaled epoch from a cold start: every job-lifecycle
    /// event is written ahead to `journal`, terminal outcomes are
    /// group-committed before they are reported, and — when `crash` is
    /// set — the run dies at the drawn kill point, leaving only the
    /// journal's durable bytes for [`GemmService::recover`] to rebuild
    /// from.
    pub fn run_durable(
        &mut self,
        jobs: Vec<JobSpec>,
        journal: Journal,
        crash: Option<CrashSpec>,
    ) -> DurableRun {
        self.recover(journal, jobs, crash)
    }

    /// The restart path: replays the journal's durable bytes, rebuilds
    /// the queue (admitted-but-unstarted jobs in admission order, then
    /// in-flight jobs at the front with their checkpointed resume
    /// fractions), re-seeds the SLO burn windows from the recovered
    /// terminal outcomes, suppresses resubmissions whose idempotency key
    /// the journal already knows, and runs the remaining stream on the
    /// same monotone virtual clock the previous epoch died on. On an
    /// empty journal this *is* the cold start — epoch 0, nothing to
    /// replay.
    ///
    /// The journal compacts itself when due (over 1 MiB, and at least as
    /// many dead bytes as live ones): right after the replay, from the
    /// fold the replay made, and again when the run finishes. Compaction
    /// appends nothing and changes no replayed fact; an armed
    /// `CrashKind::MidCompaction` kills the run inside it.
    ///
    /// Call this on a freshly constructed service (a restarted process
    /// has a fresh device pool); the journal is the only state that
    /// survives a crash.
    pub fn recover(
        &mut self,
        journal: Journal,
        resubmissions: Vec<JobSpec>,
        crash: Option<CrashSpec>,
    ) -> DurableRun {
        let rep = replay(journal.durable());
        let rs = &rep.state;
        let epoch = rs.epochs;
        let mut st = self.base_state();

        // Replay downtime: a deterministic function of what was read —
        // one virtual fsync plus a per-record scan cost. The epoch's
        // clock starts *after* the downtime window, so recovery time is
        // visible in queue waits exactly like real downtime would be.
        let downtime = journal.fsync_cost() + 1e-6 * rs.records as f64;
        st.now = rs.resume_clock + if epoch > 0 { downtime } else { 0.0 };

        // Suppress resubmissions the journal already knows and repeats
        // within the list: each bounces with a typed rejection.
        let keys: Vec<u64> = resubmissions.iter().map(JobSpec::idempotency).collect();
        let duplicate = duplicate_keys(rs, &keys);
        let suppressed = duplicate.iter().filter(|&&dup| dup).count();
        st.rejections.reserve(suppressed);
        let mut fresh = Vec::with_capacity(keys.len() - suppressed);
        for ((job, idempotency), dup) in resubmissions.into_iter().zip(keys).zip(duplicate) {
            if dup {
                self.reject(&mut st, job, Rejection::Duplicate { idempotency });
            } else {
                fresh.push(job);
            }
        }

        // Rebuild the queue: queued jobs keep their admission order;
        // in-flight jobs re-enter at the front (they were already
        // running) with their durable checkpoint fractions seeded into
        // the resume map — re-dispatch re-runs only the unfinished
        // suffix.
        let mut resumed_from_checkpoint = 0usize;
        for j in &rs.queued {
            st.queue.preload_back(spec_of(&j.meta));
        }
        for j in rs.in_flight.iter().rev() {
            if j.resume_fraction > 0.0 {
                resumed_from_checkpoint += 1;
            }
            st.resume.insert(
                j.meta.id,
                ResumeState {
                    fraction: j.resume_fraction,
                    preemptions: 0,
                },
            );
            st.queue.requeue_front(spec_of(&j.meta));
        }

        // Re-seed the SLO burn windows from the recovered terminal
        // observations, in instant order — the sliding windows must not
        // forget the pre-crash history. Alerts those observations fired
        // pre-crash were already reported then; re-firing is dropped.
        if let Some(engine) = st.slo.as_mut() {
            let terminal = rs.completed.iter().chain(rs.failed.iter());
            let mut terms: Vec<_> = terminal.map(|(_, t)| t).collect();
            terms.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.job.cmp(&b.job)));
            for t in terms {
                let _ = engine.observe_finished(
                    t.at,
                    t.tenant as usize,
                    t.latency,
                    t.kind == TerminalKind::Failed,
                    t.deadline_met,
                );
            }
        }

        let recovered_jobs = rs.queued.len() + rs.in_flight.len();
        let stats = RecoveryStats {
            epoch,
            resume_clock: rs.resume_clock,
            replayed_records: rs.records,
            recovered_jobs,
            resumed_from_checkpoint,
            suppressed_duplicates: suppressed,
            torn_bytes: rs.torn_bytes,
            undecodable_records: rs.undecodable,
        };
        if epoch > 0 {
            if let Some(m) = &self.metrics {
                m.recoveries.inc();
                m.replay_records.add(rs.records as u64);
                m.recovered_jobs.add(recovered_jobs as u64);
                m.resumed_from_checkpoint
                    .add(resumed_from_checkpoint as u64);
                m.duplicates_suppressed.add(suppressed as u64);
            }
            if let Some(sink) = &self.sink {
                sink.record(SpanRecord {
                    rank: 0,
                    start: rs.resume_clock,
                    end: st.now,
                    kind: SpanKind::Recover {
                        epoch: u64::from(epoch),
                        records: rs.records as u64,
                        recovered_jobs: recovered_jobs as u64,
                        torn_bytes: rs.torn_bytes as u64,
                    },
                });
            }
        }

        let mut ctx = DurableCtx {
            journal,
            crash,
            events: 0,
            crashed: None,
            panels: if self.config.degrade.armed {
                PREEMPTION_PANELS
            } else {
                DISARMED_CHECKPOINT_PANELS
            },
            digests: BTreeMap::new(),
            stats,
        };
        // Compaction reuses the fold just made: one copy of the live
        // frames, before the epoch's first record.
        let image = ctx.journal.compaction_after(&rep);
        ctx.compact(st.now, image);
        ctx.append(
            st.now,
            st.now,
            &JournalRecord::EpochStart {
                epoch,
                resume_clock: rs.resume_clock,
                recovered_jobs: recovered_jobs as u32,
                suppressed_duplicates: suppressed as u32,
            },
        );
        ctx.journal.maybe_flush(st.now);
        st.durable = Some(ctx);

        let mut finished = !st.crashed() && self.drive(fresh, &mut st);
        let mut ctx = st.durable.take().expect("durable ctx installed above");
        if finished {
            ctx.journal.commit(st.now);
            debug_assert_eq!(
                ctx.journal.pending_records(),
                0,
                "records stranded past the end"
            );
            let image = ctx.journal.compaction_at_finish();
            ctx.compact(st.now, image);
            finished = ctx.crashed.is_none();
        }
        if let Some(m) = &self.metrics {
            m.publish_journal(&ctx.journal.stats(), ctx.journal.durable_bytes());
        }
        if finished {
            DurableRun::Finished(Box::new(DurableReport {
                recovery: ctx.stats,
                journal: ctx.journal,
                report: self.finish_report(st),
            }))
        } else {
            let (kind, at) = ctx.crashed.expect("drive reported a crash");
            DurableRun::Crashed(Box::new(CrashedRun {
                journal: ctx.journal,
                event: ctx.events,
                kind,
                at,
                recovery: ctx.stats,
            }))
        }
    }

    /// A fresh event-loop state under the current config.
    fn base_state(&self) -> RunState {
        let armed = self.config.degrade.armed;
        RunState {
            queue: JobQueue::new(self.config.admission),
            in_flight: Vec::new(),
            records: Vec::new(),
            rejections: Vec::new(),
            next_batch: 0,
            retries: 0,
            preemptions: 0,
            breakers: if armed {
                vec![CircuitBreaker::new(QUARANTINE); self.pool.len()]
            } else {
                Vec::new()
            },
            quarantine_events: Vec::new(),
            waits: armed.then(|| WaitWindow::new(self.config.degrade.brownout_window)),
            brownout_active: false,
            resume: BTreeMap::new(),
            slo: self.slo.clone().map(SloEngine::new),
            durable: None,
            now: 0.0,
            dispatch: Self::dispatch_all,
            order: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// The event loop. Returns `true` when the stream drained, `false`
    /// when the crash injector killed the run (durable runs only) — in
    /// which case `st` holds whatever in-memory state the crash lost and
    /// only the journal matters.
    fn drive(&mut self, mut jobs: Vec<JobSpec>, st: &mut RunState) -> bool {
        jobs.sort_by(|a, b| {
            a.submit_time
                .total_cmp(&b.submit_time)
                .then(a.id.cmp(&b.id))
        });
        let mut arrivals = jobs.into_iter().peekable();

        // A recovered epoch can start with a preloaded queue and no
        // arrival or completion event pending — kick-start it so
        // resumed work dispatches at the resume instant rather than
        // waiting for (or missing) a wake-up event.
        if !st.queue.is_empty() {
            (st.dispatch)(self, st);
            if !st.end_step() {
                return false;
            }
        }

        loop {
            let next_arrival = arrivals.peek().map(|j| j.submit_time);
            let next_done = st
                .in_flight
                .iter()
                .map(|f| f.finish)
                .fold(f64::INFINITY, f64::min);
            let next = match next_arrival {
                Some(t) => t.min(next_done),
                None if next_done.is_finite() => next_done,
                None => break,
            };
            st.now = st.now.max(next);
            self.flush_done(st);
            if st.crashed() {
                return false;
            }
            while arrivals
                .peek()
                .is_some_and(|j| j.submit_time <= st.now + EPS)
            {
                let job = arrivals.next().expect("peeked");
                self.admit(st, job);
                if st.crashed() {
                    return false;
                }
            }
            self.shed_brownout(st);
            if !st.breakers.is_empty() {
                let now = st.now;
                let mask: Vec<bool> = st.breakers.iter_mut().map(|b| b.eligible(now)).collect();
                self.pool.set_eligible(&mask);
            }
            (st.dispatch)(self, st);
            if !st.end_step() {
                return false;
            }
            if let Some(m) = &self.metrics {
                m.queue_depth.set(st.queue.len() as f64);
                m.queue_depth_peak.set(st.queue.peak_depth() as f64);
                if let Some(ctx) = &st.durable {
                    m.publish_journal(&ctx.journal.stats(), ctx.journal.durable_bytes());
                }
            }
        }
        debug_assert!(st.queue.is_empty(), "event loop ended with queued jobs");
        debug_assert!(st.in_flight.is_empty(), "event loop ended mid-batch");
        true
    }

    /// Builds the report from a drained event-loop state.
    fn finish_report(&mut self, mut st: RunState) -> ServiceReport {
        // Records flush in completion order; re-sort into dispatch order
        // (batch, then position within the batch) so the report's shape
        // does not depend on how completions interleaved. A job has one
        // record, so the keys are unique and an unstable sort is exact.
        st.records.sort_unstable_by(|a, b| {
            a.batch
                .cmp(&b.batch)
                .then(a.start_time.total_cmp(&b.start_time))
                .then(a.spec.id.cmp(&b.spec.id))
        });

        let makespan = st.records.iter().map(|r| r.finish_time).fold(0.0, f64::max);
        let device_busy: Vec<f64> = self.pool.devices().iter().map(|d| d.busy_seconds).collect();
        if let Some(m) = &self.metrics {
            m.set_device_busy(&device_busy);
        }
        // Close still-open alerts at the makespan and render each alert
        // interval as an annotation span. Tenants have no rank of their
        // own, so alerts land on the phases track of device
        // `tenant mod pool size` — deterministic and collision-free for
        // the standard mixes (3 tenants, 3 devices).
        let slo_alerts = match st.slo.take() {
            Some(engine) => engine.finish(makespan),
            None => Vec::new(),
        };
        if let Some(sink) = &self.sink {
            for alert in &slo_alerts {
                sink.record(SpanRecord {
                    rank: alert.tenant % self.pool.len().max(1),
                    start: alert.fired_at,
                    end: alert.cleared_at.unwrap_or(makespan),
                    kind: SpanKind::SloAlert {
                        tenant: alert.tenant as u64,
                        slo: alert.kind.label(),
                        burn_fast: alert.burn_fast,
                        burn_slow: alert.burn_slow,
                    },
                });
            }
        }
        ServiceReport {
            policy: self.config.policy,
            schedule_digest: digest(&st.records, &st.rejections),
            records: st.records,
            rejections: st.rejections,
            makespan,
            peak_queue_depth: st.queue.peak_depth(),
            batches: st.next_batch,
            retries: st.retries,
            preemptions: st.preemptions,
            quarantine_events: st.quarantine_events,
            device_names: self.pool.devices().iter().map(|d| d.name).collect(),
            device_busy,
            slo_alerts,
        }
    }

    /// Flushes every batch whose devices free at or before `st.now`:
    /// records and their metrics, the per-device Sched spans, and the
    /// buffered breaker observations.
    fn flush_done(&mut self, st: &mut RunState) {
        let now = st.now;
        let mut still = Vec::with_capacity(st.in_flight.len());
        for fl in std::mem::take(&mut st.in_flight) {
            if fl.finish <= now + EPS {
                self.flush_batch(st, fl);
            } else {
                still.push(fl);
            }
        }
        st.in_flight = still;
    }

    fn flush_batch(&mut self, st: &mut RunState, fl: InFlight) {
        if let Some(sink) = &self.sink {
            for &d in &fl.devices {
                sink.record(SpanRecord {
                    rank: d,
                    start: fl.start,
                    end: fl.finish,
                    kind: SpanKind::Sched {
                        job: fl.seed_id,
                        n: fl.seed_n as u64,
                        batch: fl.batch,
                        jobs: fl.pending.len() as u64,
                        policy: self.config.policy.name(),
                    },
                });
            }
        }
        for rec in fl.pending {
            // Write-ahead ack barrier: the terminal outcome is journaled
            // (commit-class — the group-commit trigger flushes it within
            // this virtual instant) before metrics or the report see it.
            // A crash after the flush finds the job terminal and
            // suppresses its resubmission; a crash before re-runs it to
            // the same digest — either way it completes exactly once.
            if let Some(ctx) = st.durable.as_mut() {
                let at = rec.finish_time;
                let record = match rec.outcome {
                    JobOutcome::Completed => JournalRecord::Completed {
                        at,
                        job: rec.spec.id,
                        idempotency: rec.spec.idempotency(),
                        tenant: rec.spec.tenant as u32,
                        latency: rec.latency(),
                        digest: ctx
                            .digests
                            .remove(&rec.spec.id)
                            .unwrap_or_else(|| job_output_digest(&rec.spec)),
                        deadline_met: rec
                            .spec
                            .deadline
                            .map(|_| rec.deadline == DeadlineVerdict::Met),
                    },
                    JobOutcome::Failed { .. } => JournalRecord::Failed {
                        at,
                        job: rec.spec.id,
                        idempotency: rec.spec.idempotency(),
                        tenant: rec.spec.tenant as u32,
                        latency: rec.latency(),
                        attempts: rec.attempts as u32,
                    },
                };
                ctx.append(at, at, &record);
            }
            if let Some(m) = &self.metrics {
                match rec.outcome {
                    JobOutcome::Completed => {
                        m.record_completed(rec.spec.tenant, rec.latency(), rec.queue_wait())
                    }
                    JobOutcome::Failed { .. } => {
                        m.record_failed(rec.spec.tenant, rec.latency(), rec.queue_wait())
                    }
                }
                if rec.missed_deadline() {
                    m.record_deadline_miss(rec.spec.tenant);
                }
            }
            if let Some(engine) = st.slo.as_mut() {
                let failed = !matches!(rec.outcome, JobOutcome::Completed);
                let deadline_met = rec
                    .spec
                    .deadline
                    .map(|_| rec.deadline == DeadlineVerdict::Met);
                let fired = engine.observe_finished(
                    rec.finish_time,
                    rec.spec.tenant,
                    rec.latency(),
                    failed,
                    deadline_met,
                );
                self.publish_slo(engine, rec.spec.tenant, rec.finish_time, &fired);
            }
            st.records.push(rec);
        }
        for ev in fl.breaker_events {
            self.observe_breaker(st, ev);
        }
    }

    /// Feeds one execution observation into the device's breaker and
    /// publishes any transition: timeline event, metrics, and — on an
    /// open — a [`SpanKind::Quarantine`] annotation spanning the open
    /// interval on the device's track.
    fn observe_breaker(&mut self, st: &mut RunState, ev: BreakerEvent) {
        if st.breakers.is_empty() {
            return;
        }
        let breaker = &mut st.breakers[ev.device];
        let transition = if ev.failed {
            breaker.record_failure(ev.at)
        } else {
            breaker.record_success(ev.at)
        };
        let Some(tr) = transition else { return };
        let opens = breaker.opens();
        st.quarantine_events.push(QuarantineEvent {
            device: ev.device,
            at: ev.at,
            from: tr.from,
            to: tr.to,
        });
        let opened = tr.to == CircuitState::Open;
        if let Some(m) = &self.metrics {
            m.record_quarantine(ev.device, opened);
        }
        if opened {
            if let Some(sink) = &self.sink {
                let failures = match tr.from {
                    // Closed → open fires at the configured streak; a
                    // half-open probe re-opens on its single failure.
                    CircuitState::Closed => u64::from(QUARANTINE.failure_threshold),
                    _ => 1,
                };
                sink.record(SpanRecord {
                    rank: ev.device,
                    start: ev.at,
                    end: tr.open_until,
                    kind: SpanKind::Quarantine {
                        failures,
                        opens: u64::from(opens),
                    },
                });
            }
        }
    }

    /// Admits one arrival: size → deadline feasibility → quota →
    /// capacity, each with its typed rejection. The deadline check slots
    /// after the size bound so an oversized job still bounces as
    /// `TooLarge` — rejection reasons stay deterministic per job.
    fn admit(&mut self, st: &mut RunState, job: JobSpec) {
        let deadline_rej = if self.config.degrade.armed && job.n <= self.config.admission.max_n {
            job.deadline.and_then(|d| {
                let est = self.estimate_completion(st, &job);
                (est > d + EPS).then_some(Rejection::DeadlineInfeasible {
                    tenant: job.tenant,
                    deadline: d,
                    estimated_completion: est,
                })
            })
        } else {
            None
        };
        let result = match deadline_rej {
            Some(r) => Err(r),
            None => st.queue.offer(job.clone()),
        };
        // Write-ahead: the admission decision is journaled before the
        // service acts on it. An admit is lazy-class (losing it only
        // means the client resubmits and the job is admitted afresh); a
        // rejection is commit-class (it is an externally visible ack).
        if let Some(ctx) = st.durable.as_mut() {
            let now = st.now;
            let record = match &result {
                Ok(()) => JournalRecord::Admitted {
                    at: now,
                    meta: job_meta(&job),
                },
                Err(rej) => JournalRecord::Rejected {
                    at: now,
                    meta: job_meta(&job),
                    reason: reason_of(rej),
                },
            };
            ctx.append(now, now, &record);
            if ctx.due_kind() == Some(CrashKind::AtAdmission) {
                ctx.crash_now(now, CrashKind::AtAdmission);
                return;
            }
        }
        if let Err(rej) = result {
            self.reject(st, job, rej);
        }
    }

    /// Hands one rejection to everything that observes it: the metrics,
    /// the SLO engine (not for a duplicate — the original's outcome was
    /// already observed) and the report. The caller journals it first,
    /// where it is journaled at all.
    fn reject(&self, st: &mut RunState, job: JobSpec, rej: Rejection) {
        if let Some(m) = &self.metrics {
            m.record_rejection(job.tenant, &rej);
        }
        if !matches!(rej, Rejection::Duplicate { .. }) {
            let now = st.now;
            if let Some(engine) = st.slo.as_mut() {
                let fired = engine.observe_rejected(now, job.tenant);
                self.publish_slo(engine, job.tenant, now, &fired);
            }
        }
        st.rejections.push((job, rej));
    }

    /// Publishes one tenant's current burn rates and any newly fired
    /// alerts to the metrics bundle.
    fn publish_slo(&self, engine: &SloEngine, tenant: usize, now: f64, fired: &[usize]) {
        let Some(m) = &self.metrics else { return };
        for (idx, spec) in engine.specs().iter().enumerate() {
            if spec.tenant == tenant {
                let (fast, slow) = engine.burn_rates(idx, now);
                m.set_slo_burn(tenant, spec.kind, fast, slow);
            }
        }
        for &idx in fired {
            let spec = engine.specs()[idx];
            m.record_slo_alert(spec.tenant, spec.kind);
        }
    }

    /// Earliest feasible completion of `job` submitted now: the instant
    /// the pool next frees a device, plus the queued backlog ahead of it
    /// (full-pool service-time estimates, preempted remainders prorated),
    /// plus the job's own full-pool estimate. Deliberately a serial
    /// upper-bound drain model — under the overloads that make deadline
    /// admission matter, the pool is saturated and the bound is tight;
    /// when it is slack the admission errs conservative.
    fn estimate_completion(&mut self, st: &RunState, job: &JobSpec) -> f64 {
        let all: Vec<usize> = (0..self.pool.len()).collect();
        let mut backlog = 0.0;
        for queued in st.queue.iter() {
            let remaining = 1.0
                - st.resume
                    .get(&queued.id)
                    .map_or(0.0, |r: &ResumeState| r.fraction);
            backlog += remaining * service_time(&mut self.pool, &all, queued.n);
        }
        let free = self
            .pool
            .devices()
            .iter()
            .map(|d| d.busy_until)
            .fold(f64::INFINITY, f64::min)
            .max(st.now);
        free + backlog + service_time(&mut self.pool, &all, job.n)
    }

    /// Brownout: updates the hysteresis state from the queue-wait p95
    /// and, while active, sheds every queued deadline-less job of the
    /// shed tier with a typed rejection.
    fn shed_brownout(&mut self, st: &mut RunState) {
        let Some(w) = &st.waits else { return };
        let threshold = self.config.degrade.brownout_p95_threshold;
        let p95 = w.p95();
        if st.brownout_active {
            if p95 < BROWNOUT_EXIT_FRACTION * threshold {
                st.brownout_active = false;
            }
        } else if p95 > threshold {
            st.brownout_active = true;
        }
        if !st.brownout_active {
            return;
        }
        // Never shed a job holding checkpointed progress — its partial
        // work is real, and conservation through preemption means a
        // preempted job always finishes or fails, never evaporates.
        let resume = &st.resume;
        let shed = st.queue.drain_matching(|j| {
            j.deadline.is_none()
                && j.priority == BROWNOUT_SHED_PRIORITY
                && !resume.contains_key(&j.id)
        });
        for job in shed {
            let rej = Rejection::Shed {
                tenant: job.tenant,
                queue_wait_p95: p95,
                threshold,
            };
            // A shed is an externally visible rejection of an already
            // admitted job — commit-class, journaled before the ack.
            if let Some(ctx) = st.durable.as_mut() {
                let now = st.now;
                ctx.append(
                    now,
                    now,
                    &JournalRecord::Rejected {
                        at: now,
                        meta: job_meta(&job),
                        reason: RejectionReason::Shed,
                    },
                );
            }
            self.reject(st, job, rej);
        }
    }

    /// Dispatches every queued job whose placement can start *now*, one
    /// batch per pass. FIFO and round-robin only ever look at the head
    /// (head-of-line blocking is part of what those baselines are);
    /// FPM-aware walks the queue in urgency order and backfills past
    /// blocked jobs. When nothing can start and an urgent job is stuck
    /// behind lower-tier running work, checkpoint preemption truncates a
    /// victim batch.
    ///
    /// Nothing a plan reads changes within a pass, so a pass with no
    /// schedulable device free plans nothing and FPM plans each size once
    /// per pass — not per event (DESIGN.md §11, "The event loop").
    fn dispatch_all(&mut self, st: &mut RunState) {
        let fpm = self.config.policy == Policy::FpmAware;
        let mut order = std::mem::take(&mut st.order);
        'pass: while !st.queue.is_empty() && self.pool.any_free(st.now + EPS) {
            let spec = |i: usize| st.queue.get(i).expect("index below len");
            order.clear();
            order.extend(0..if fpm { st.queue.len() } else { 1 });
            order.sort_by(|&a, &b| urgency(spec(a), spec(b)).then(a.cmp(&b)));
            st.picks.clear();
            for &idx in &order {
                let job = spec(idx);
                let placement = if fpm {
                    let at = st.picks.iter().position(|p| p.0 == job.n);
                    let at = at.unwrap_or_else(|| {
                        st.picks
                            .push((job.n, fpm_pick(&mut self.pool, job.n, st.now)));
                        st.picks.len() - 1
                    });
                    let pick = st.picks[at].1;
                    (pick.start <= st.now + EPS).then(|| self.pool.placement(pick))
                } else {
                    Some(plan(self.config.policy, &mut self.pool, job, st.now))
                        .filter(|p| p.start <= st.now + EPS)
                };
                if let Some(placement) = placement {
                    commit(self.config.policy, &mut self.pool);
                    self.dispatch_batch(st, idx, placement);
                    continue 'pass;
                }
            }
            break;
        }
        st.order = order;
        self.try_preempt(st);
    }

    /// Checkpoint preemption: if a queued job at or above the urgency
    /// tier would wait longer than the configured bound, truncate the
    /// running batch with the most reclaimable tail at its next panel
    /// boundary, requeue the unfinished members (keeping the in-progress
    /// member's k-prefix as a resume fraction), and free the devices at
    /// the boundary. The preempted work resumes from its checkpoint —
    /// bit-identically, which the core's `multiply_abft_prefix` API
    /// proves on real matrices.
    fn try_preempt(&mut self, st: &mut RunState) {
        if !self.config.degrade.armed {
            return;
        }
        let min_wait = self.config.degrade.preemption_min_wait;
        // Preemption needs a dispatch order that will actually run the
        // urgent job on the freed devices. FIFO and round-robin only
        // ever dispatch the queue head — and the requeued victim goes
        // back to the head — so yielding devices under them would just
        // re-dispatch the victim in slices.
        if self.config.policy != Policy::FpmAware {
            return;
        }
        let urgent = st
            .queue
            .iter()
            .filter(|j| j.priority >= PREEMPTION_MIN_PRIORITY)
            .min_by(|a, b| urgency(a, b).then(a.id.cmp(&b.id)));
        let Some(urgent) = urgent.cloned() else {
            return;
        };
        // If the urgent job would start soon anyway, don't churn.
        if fpm_pick(&mut self.pool, urgent.n, st.now).start <= st.now + min_wait {
            return;
        }
        // Victim: the batch of strictly lower-priority work whose
        // truncation reclaims the most device time.
        let mut victim: Option<usize> = None;
        let mut best_reclaim = min_wait;
        for (i, fl) in st.in_flight.iter().enumerate() {
            let max_prio = fl.pending.iter().map(|r| r.spec.priority).max();
            if max_prio.is_none_or(|p| p >= urgent.priority) {
                continue;
            }
            let Some(boundary) = preemption_boundary(fl, st.now) else {
                continue;
            };
            let reclaim = fl.finish - boundary;
            if reclaim > best_reclaim + EPS {
                best_reclaim = reclaim;
                victim = Some(i);
            }
        }
        let Some(vi) = victim else { return };
        let (devices, boundary, old_finish, requeue) = {
            let fl = &mut st.in_flight[vi];
            let boundary = preemption_boundary(fl, st.now).expect("victim had a boundary");
            let old_finish = fl.finish;
            let mut kept = Vec::new();
            let mut requeue: Vec<(JobSpec, f64)> = Vec::new();
            for rec in fl.pending.drain(..) {
                if rec.finish_time <= boundary + EPS {
                    // Done by the boundary: completes as dispatched.
                    kept.push(rec);
                } else if rec.start_time >= boundary - EPS {
                    // Never started: the whole member goes back.
                    requeue.push((rec.spec, 0.0));
                } else {
                    // In progress: the k-prefix up to the boundary is
                    // checkpointed; only the suffix re-runs.
                    let frac = (boundary - rec.start_time) / (rec.finish_time - rec.start_time);
                    requeue.push((rec.spec, frac));
                }
            }
            fl.pending = kept;
            fl.finish = boundary;
            (fl.devices.clone(), boundary, old_finish, requeue)
        };
        self.pool.release(&devices, boundary, old_finish);
        st.preemptions += 1;
        if let Some(m) = &self.metrics {
            m.preemptions.inc();
        }
        // The truncated tail's future-dated checkpoint records must not
        // become durable: the work past the boundary was cut away, and a
        // journal that claimed it would resume a crashed job too far
        // ahead. Checkpoints at or before the boundary stand — that
        // progress is real and checkpointed.
        if let Some(ctx) = st.durable.as_mut() {
            for (spec, _) in &requeue {
                let id = spec.id;
                ctx.journal.retract_pending(|r| {
                    matches!(
                        r,
                        JournalRecord::PanelCheckpoint { job, at, .. }
                            if *job == id && *at > boundary + EPS
                    )
                });
            }
        }
        // Requeue at the head in original order (reverse pushes front).
        for (spec, frac) in requeue.iter().rev() {
            let entry = st.resume.entry(spec.id).or_default();
            // Progress composes: this dispatch covered `frac` of the
            // work that remained when it started.
            entry.fraction += (1.0 - entry.fraction) * frac;
            entry.preemptions += 1;
            st.queue.requeue_front(spec.clone());
        }
    }

    /// Takes the seed job plus up to `max_batch - 1` same-size queued
    /// jobs and runs them back-to-back on one placement, amortizing the
    /// batch setup cost. Records are buffered on the in-flight entry and
    /// only become visible when the batch's devices free.
    fn dispatch_batch(&mut self, st: &mut RunState, seed_idx: usize, placement: Placement) {
        let seed = st.queue.take(seed_idx);
        let mut members = vec![seed];
        while members.len() < MAX_BATCH {
            let mate = st.queue.iter().position(|j| j.n == members[0].n);
            match mate {
                Some(pos) => members.push(st.queue.take(pos)),
                None => break,
            }
        }
        let batch = st.next_batch;
        st.next_batch += 1;
        if let Some(m) = &self.metrics {
            m.batches.inc();
        }

        let batch_start = st.now;
        let mut t = st.now + BATCH_SETUP_COST;
        let mut pending = Vec::with_capacity(members.len());
        let mut breaker_events = Vec::new();
        let mut base_fracs = Vec::with_capacity(members.len());
        let mut digests = Vec::with_capacity(members.len());
        for job in members.iter() {
            let start_time = t;
            let resumed = st.resume.get(&job.id).copied().unwrap_or_default();
            let (finish, attempts, devices, outcome, digest) = self.execute(
                job,
                &placement,
                t,
                resumed.fraction,
                &mut st.retries,
                &mut breaker_events,
            );
            t = finish;
            base_fracs.push(resumed.fraction);
            digests.push(digest);
            if let Some(w) = &mut st.waits {
                w.push(start_time - job.submit_time);
            }
            pending.push(JobRecord {
                spec: job.clone(),
                start_time,
                finish_time: finish,
                devices,
                shape: placement.shape.name(),
                batch,
                attempts,
                preemptions: resumed.preemptions,
                deadline: DeadlineVerdict::of(job.deadline, finish),
                outcome,
            });
        }
        // Journal the dispatch and the panel-boundary checkpoints it
        // will cross. Checkpoint records are future-dated to their
        // boundary instants — the event loop has no event mid-batch, but
        // the journal only flushes them once the clock actually passes
        // them, so the durable log never claims unreached progress. The
        // journaled fraction composes the member's pre-dispatch resume
        // base, making it the job's *absolute* checkpointed share.
        if let Some(ctx) = st.durable.as_mut() {
            ctx.append(
                batch_start,
                batch_start,
                &JournalRecord::BatchStarted {
                    at: batch_start,
                    batch,
                    job_ids: members.iter().map(|j| j.id).collect(),
                    devices: placement.devices.iter().map(|&d| d as u32).collect(),
                },
            );
            for (i, rec) in pending.iter().enumerate() {
                if let Some(d) = digests[i] {
                    ctx.digests.insert(rec.spec.id, d);
                }
                // Only a completing member leaves checkpointable panel
                // products behind; a member that burns its attempt
                // budget has no durable prefix to resume from.
                if rec.outcome != JobOutcome::Completed {
                    continue;
                }
                let span = rec.finish_time - rec.start_time;
                for k in 1..ctx.panels {
                    if ctx.crashed.is_some() {
                        break;
                    }
                    let share = k as f64 / ctx.panels as f64;
                    let boundary = rec.start_time + span * share;
                    ctx.append(
                        batch_start,
                        boundary,
                        &JournalRecord::PanelCheckpoint {
                            at: boundary,
                            job: rec.spec.id,
                            idempotency: rec.spec.idempotency(),
                            fraction: base_fracs[i] + (1.0 - base_fracs[i]) * share,
                        },
                    );
                }
            }
        }
        self.pool.occupy(&placement.devices, batch_start, t);
        st.in_flight.push(InFlight {
            batch,
            devices: placement.devices.clone(),
            start: batch_start,
            finish: t,
            pending,
            breaker_events,
            seed_id: members[0].id,
            seed_n: members[0].n,
        });
    }

    /// Executes one job of a batch starting at `t0`: walks the seeded
    /// fault draws through shrink-and-retry on the virtual clock and —
    /// in the real backend — actually multiplies the matrices through
    /// the recovery executor and verifies the product. A resumed job
    /// (`resume_fraction > 0`) re-runs only its unfinished k-suffix plus
    /// the checkpoint-restore overhead. Breaker observations (blamed
    /// failures, surviving successes) are appended to `breaker_events`.
    fn execute(
        &mut self,
        job: &JobSpec,
        placement: &Placement,
        t0: f64,
        resume_fraction: f64,
        retries: &mut u64,
        breaker_events: &mut Vec<BreakerEvent>,
    ) -> (f64, usize, Vec<usize>, JobOutcome, Option<u64>) {
        let faults = self.config.faults;
        let work_scale = (1.0 - resume_fraction).max(0.0);
        let armed = self.config.degrade.armed;
        let mut devices = placement.devices.clone();
        let mut t = t0;
        if resume_fraction > 0.0 && armed {
            t += RESUME_OVERHEAD;
        }
        let mut attempts = 0usize;
        let outcome = loop {
            attempts += 1;
            let full = if devices.len() == placement.devices.len() {
                placement.duration
            } else {
                service_time(&mut self.pool, &devices, job.n)
            };
            let duration = full * work_scale;
            let fate = draw_fate(&faults, job.id, attempts as u64, devices.len());
            if !fate.fails {
                t += duration;
                if armed {
                    for &d in &devices {
                        breaker_events.push(BreakerEvent {
                            at: t,
                            device: d,
                            failed: false,
                        });
                    }
                }
                break JobOutcome::Completed;
            }
            // The attempt burns part of its duration, then pays the
            // detection/restart backoff. Multi-device placements shrink
            // the blamed device out, exactly like `multiply_with_recovery`
            // shrinks a crashed rank's device out of the partition; a
            // singleton placement treats the failure as transient and
            // restarts on the same device (there is nothing to shrink to).
            t += duration * fate.burn_fraction + RETRY_BACKOFF;
            if armed {
                breaker_events.push(BreakerEvent {
                    at: t,
                    device: devices[fate.victim_slot],
                    failed: true,
                });
            }
            if attempts >= MAX_ATTEMPTS {
                break JobOutcome::Failed {
                    reason: format!("attempt budget exhausted after {attempts} executions"),
                };
            }
            if devices.len() > 1 {
                devices.remove(fate.victim_slot);
            }
            *retries += 1;
            if let Some(m) = &self.metrics {
                m.retries.inc();
            }
        };
        if self.config.backend == ServiceBackend::Real {
            match self.execute_real(job, placement) {
                Ok(digest) => return (t, attempts, devices, outcome, Some(digest)),
                Err(reason) => return (t, attempts, devices, JobOutcome::Failed { reason }, None),
            }
        }
        (t, attempts, devices, outcome, None)
    }

    /// Numerically executes a job through the ABFT checkpointed executor
    /// and verifies the product, returning the
    /// product's FNV digest (what the journal's `Completed` record
    /// carries — bit-identical re-execution is what makes the digest a
    /// meaningful exactly-once witness). Returns an error string on
    /// numeric failure — which would be a service bug, and is exactly
    /// what the real-mode tests are hunting for.
    fn execute_real(&self, job: &JobSpec, placement: &Placement) -> Result<u64, String> {
        let n = job.n;
        let a = random_matrix(n, n, job.id.wrapping_mul(2).wrapping_add(1));
        let b = random_matrix(n, n, job.id.wrapping_mul(2).wrapping_add(2));
        // Re-derive the *first* fault draw as an injected rank kill so
        // the virtual fault model and the real executor agree on whether
        // this job sees adversity.
        let fate = draw_fate(&self.config.faults, job.id, 1, placement.devices.len());
        let attempt_faults: Vec<FaultPlan> = if fate.fails && placement.devices.len() > 1 {
            vec![FaultPlan::new().kill_rank(fate.victim_slot, 2)]
        } else {
            Vec::new()
        };
        let opts = RecoveryOptions {
            max_attempts: MAX_ATTEMPTS,
            retry_backoff: RETRY_BACKOFF,
            recv_timeout: Duration::from_millis(500),
            ..RecoveryOptions::default()
        };
        let c = multiply_abft(
            placement.shape,
            &placement.rel_speeds,
            &a,
            &b,
            ExecutionMode::Real,
            HockneyModel::intra_node(),
            &attempt_faults,
            &opts,
            &AbftOptions::default(),
        )
        .map_err(|e| format!("abft execution failed: {e:?}"))?
        .run
        .c;
        verify_product(&a, &b, &c)?;
        let words: Vec<u64> = c.as_slice().iter().map(|v| v.to_bits()).collect();
        Ok(fnv1a_words(&words))
    }
}

/// The earliest panel-aligned instant ≥ `now` at which the batch's
/// unfinished work can be cut, or `None` when nothing after `now` is
/// reclaimable. Members run sequentially, so the first member that is
/// not complete at `now` decides: an unstarted member cuts at its own
/// start; an in-progress member cuts at its next of [`PREEMPTION_PANELS`] equal
/// virtual-time panel marks (the virtual-clock model of the checkpointed
/// executor's column-panel boundaries, which `panel_boundaries` exposes
/// for the real run).
fn preemption_boundary(fl: &InFlight, now: f64) -> Option<f64> {
    for rec in &fl.pending {
        if rec.finish_time <= now + EPS {
            continue;
        }
        if rec.start_time >= now - EPS {
            return Some(rec.start_time.max(now));
        }
        let step = (rec.finish_time - rec.start_time) / PREEMPTION_PANELS as f64;
        let done = ((now - rec.start_time) / step).ceil().max(1.0);
        return Some((rec.start_time + done * step).min(rec.finish_time));
    }
    None
}

fn verify_product(a: &DenseMatrix, b: &DenseMatrix, c: &DenseMatrix) -> Result<(), String> {
    let n = a.rows();
    let mut want = DenseMatrix::zeros(n, b.cols());
    gemm_naive(
        n,
        b.cols(),
        n,
        1.0,
        a.as_slice(),
        n,
        b.as_slice(),
        b.cols(),
        0.0,
        want.as_mut_slice(),
        b.cols(),
    );
    let diff = max_abs_diff(c, &want);
    if diff < 1e-9 {
        Ok(())
    } else {
        Err(format!("product verification failed: max |Δ| = {diff:e}"))
    }
}

/// FNV-1a over every scheduling decision: job ids, times (as bits),
/// device sets, batches, attempts, outcomes, and rejections — the hash
/// [`fnv1a_words`] gives of these words, fed one at a time.
fn digest(records: &[JobRecord], rejections: &[(JobSpec, Rejection)]) -> u64 {
    let mut h = fnv1a_words(&[]);
    let mut feed = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        feed(r.spec.id);
        feed(r.start_time.to_bits());
        feed(r.finish_time.to_bits());
        feed(r.batch);
        feed(r.attempts as u64);
        feed(r.devices.len() as u64);
        r.devices.iter().for_each(|&d| feed(d as u64));
        feed(match r.outcome {
            JobOutcome::Completed => 1,
            JobOutcome::Failed { .. } => 2,
        });
        feed(r.preemptions as u64);
        feed(match r.deadline {
            DeadlineVerdict::NoDeadline => 0,
            DeadlineVerdict::Met => 1,
            DeadlineVerdict::Missed { .. } => 2,
        });
    }
    for (j, rej) in rejections {
        feed(j.id);
        feed(rej.label().len() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, small_mix};
    use summagen_platform::profile::hclserver1;

    fn pool() -> DevicePool {
        DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10)
    }

    fn config(policy: Policy) -> ServiceConfig {
        ServiceConfig {
            policy,
            ..ServiceConfig::default()
        }
    }

    fn job(id: u64, n: usize, submit: f64) -> JobSpec {
        JobSpec {
            id,
            tenant: 0,
            n,
            priority: 0,
            deadline: None,
            submit_time: submit,
        }
    }

    #[test]
    fn empty_run_reports_empty() {
        let report = GemmService::new(pool(), config(Policy::FpmAware)).run(Vec::new());
        assert!(report.records.is_empty());
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn every_accepted_job_is_recorded_exactly_once() {
        let jobs = generate(&small_mix());
        let total = jobs.len();
        let mut svc = GemmService::new(pool(), config(Policy::FpmAware));
        let report = svc.run(jobs);
        assert_eq!(report.records.len() + report.rejections.len(), total);
        let mut ids: Vec<u64> = report
            .records
            .iter()
            .map(|r| r.spec.id)
            .chain(report.rejections.iter().map(|(j, _)| j.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "a job was lost or double-counted");
    }

    #[test]
    fn same_seed_same_schedule() {
        let jobs = generate(&small_mix());
        let a = GemmService::new(pool(), config(Policy::FpmAware)).run(jobs.clone());
        let b = GemmService::new(pool(), config(Policy::FpmAware)).run(jobs);
        assert_eq!(a.schedule_digest, b.schedule_digest);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }

    #[test]
    fn policies_schedule_differently() {
        let jobs = generate(&small_mix());
        let fifo = GemmService::new(pool(), config(Policy::Fifo)).run(jobs.clone());
        let fpm = GemmService::new(pool(), config(Policy::FpmAware)).run(jobs);
        assert_ne!(fifo.schedule_digest, fpm.schedule_digest);
    }

    #[test]
    fn fpm_beats_fifo_on_makespan_and_p95_for_the_small_mix() {
        let jobs = generate(&small_mix());
        let fifo = GemmService::new(pool(), config(Policy::Fifo)).run(jobs.clone());
        let fpm = GemmService::new(pool(), config(Policy::FpmAware)).run(jobs);
        assert!(
            fpm.makespan < fifo.makespan,
            "fpm makespan {} vs fifo {}",
            fpm.makespan,
            fifo.makespan
        );
        assert!(
            fpm.latency_quantile(0.95) < fifo.latency_quantile(0.95),
            "fpm p95 {} vs fifo {}",
            fpm.latency_quantile(0.95),
            fifo.latency_quantile(0.95)
        );
    }

    #[test]
    fn dispatch_waits_for_devices_so_the_queue_actually_fills() {
        // A burst of simultaneous arrivals against a single-slot FIFO
        // pool must stack up in the queue rather than be assigned to
        // future device slots at arrival time.
        let jobs: Vec<JobSpec> = (0..8).map(|i| job(i, 512, 0.0)).collect();
        let mut svc = GemmService::new(pool(), config(Policy::Fifo));
        let report = svc.run(jobs);
        assert!(
            report.peak_queue_depth >= 4,
            "queue never filled: peak {}",
            report.peak_queue_depth
        );
        assert_eq!(report.records.len(), 8);
    }

    #[test]
    fn backpressure_rejects_when_the_queue_is_full() {
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                queue_capacity: 2,
                per_tenant_quota: 2,
                max_n: 16_384,
            },
            ..config(Policy::Fifo)
        };
        let jobs: Vec<JobSpec> = (0..6).map(|i| job(i, 1024, 0.0)).collect();
        let report = GemmService::new(pool(), cfg).run(jobs);
        assert!(!report.rejections.is_empty(), "no backpressure observed");
        assert_eq!(report.records.len() + report.rejections.len(), 6);
    }

    #[test]
    fn batching_amortizes_setup_and_stamps_batch_ids() {
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 512, 0.0)).collect();
        let report = GemmService::new(pool(), config(Policy::FpmAware)).run(jobs);
        assert!(
            report.batches < 4,
            "4 same-size simultaneous jobs never batched ({} batches)",
            report.batches
        );
        let batch0: Vec<&JobRecord> = report.records.iter().filter(|r| r.batch == 0).collect();
        assert!(batch0.len() > 1, "first batch holds one job");
    }

    #[test]
    fn injected_faults_trigger_retries_without_losing_jobs() {
        let cfg = ServiceConfig {
            faults: FaultProfile {
                fail_permille: 300,
                seed: 7,
            },
            ..config(Policy::FpmAware)
        };
        let jobs = generate(&small_mix());
        let total = jobs.len();
        let report = GemmService::new(pool(), cfg).run(jobs);
        assert_eq!(report.records.len() + report.rejections.len(), total);
        assert!(report.retries > 0, "30% fault rate produced no retries");
        assert!(
            report.records.iter().any(|r| r.attempts > 1),
            "no record shows a retry"
        );
        // The schedule is still deterministic under faults.
        let again = GemmService::new(pool(), cfg).run(generate(&small_mix()));
        assert_eq!(report.schedule_digest, again.schedule_digest);
    }

    #[test]
    fn real_backend_executes_and_verifies_small_jobs() {
        let cfg = ServiceConfig {
            backend: ServiceBackend::Real,
            faults: FaultProfile {
                fail_permille: 500,
                seed: 3,
            },
            ..config(Policy::FpmAware)
        };
        let jobs: Vec<JobSpec> = (0..6).map(|i| job(i, 24, i as f64 * 0.001)).collect();
        let report = GemmService::new(pool(), cfg).run(jobs);
        assert_eq!(report.records.len(), 6);
        // Numeric execution verified inside execute_real; a verification
        // failure would surface as a Failed outcome with its reason.
        for r in &report.records {
            if let JobOutcome::Failed { reason } = &r.outcome {
                assert!(
                    !reason.contains("verification"),
                    "numeric verification failed: {reason}"
                );
            }
        }
    }

    fn pjob(id: u64, n: usize, submit: f64, priority: u8, deadline: Option<f64>) -> JobSpec {
        JobSpec {
            id,
            tenant: priority as usize,
            n,
            priority,
            deadline,
            submit_time: submit,
        }
    }

    #[test]
    fn default_degrade_config_changes_nothing() {
        let jobs = generate(&small_mix());
        let report = GemmService::new(pool(), config(Policy::FpmAware)).run(jobs);
        assert_eq!(report.preemptions, 0);
        assert!(report.quarantine_events.is_empty());
        assert_eq!(report.shed(), 0);
        for r in &report.records {
            assert_eq!(r.preemptions, 0);
            match (r.spec.deadline, r.deadline) {
                (None, DeadlineVerdict::NoDeadline) => {}
                (Some(d), DeadlineVerdict::Met) => assert!(r.finish_time <= d),
                (Some(d), DeadlineVerdict::Missed { late_by }) => {
                    assert!((r.finish_time - d - late_by).abs() < 1e-12)
                }
                (spec, verdict) => panic!("inconsistent verdict {verdict:?} for deadline {spec:?}"),
            }
        }
    }

    #[test]
    fn urgent_job_triggers_checkpoint_preemption() {
        let cfg = ServiceConfig {
            degrade: DegradeConfig {
                preemption_min_wait: 0.05,
                ..DegradeConfig::standard()
            },
            ..config(Policy::FpmAware)
        };
        // A long tier-0 job monopolizes the pool; an urgent tier-2 job
        // arrives mid-run and must not wait for the whole thing.
        let low = pjob(0, 8192, 0.0, 0, None);
        let high = pjob(1, 512, 0.2, 2, None);
        let report = GemmService::new(pool(), cfg).run(vec![low, high]);
        assert_eq!(report.records.len(), 2, "a job was lost to preemption");
        assert!(report.preemptions >= 1, "no preemption happened");
        let low_rec = report.records.iter().find(|r| r.spec.id == 0).unwrap();
        let high_rec = report.records.iter().find(|r| r.spec.id == 1).unwrap();
        assert!(low_rec.preemptions >= 1, "victim not marked preempted");
        assert_eq!(low_rec.outcome, JobOutcome::Completed);
        assert_eq!(high_rec.outcome, JobOutcome::Completed);
        assert!(
            high_rec.finish_time < low_rec.finish_time,
            "urgent job ({}) still finished after the preempted one ({})",
            high_rec.finish_time,
            low_rec.finish_time
        );
        // Without preemption the urgent job waits for the full batch.
        let baseline = GemmService::new(pool(), config(Policy::FpmAware)).run(vec![
            pjob(0, 8192, 0.0, 0, None),
            pjob(1, 512, 0.2, 2, None),
        ]);
        let base_high = baseline.records.iter().find(|r| r.spec.id == 1).unwrap();
        assert!(
            high_rec.finish_time < base_high.finish_time,
            "preemption did not improve the urgent job's completion"
        );
    }

    #[test]
    fn infeasible_deadline_jobs_are_rejected_at_the_door() {
        let cfg = ServiceConfig {
            degrade: DegradeConfig::standard(),
            ..config(Policy::FpmAware)
        };
        // Saturate the pool, then submit one job with a hopeless deadline
        // and one with a generous one.
        let mut jobs: Vec<JobSpec> = (0..6).map(|i| job(i, 2048, 0.0)).collect();
        jobs.push(pjob(6, 2048, 0.05, 1, Some(0.06)));
        jobs.push(pjob(7, 2048, 0.05, 1, Some(1e6)));
        let report = GemmService::new(pool(), cfg).run(jobs);
        let hopeless = report
            .rejections
            .iter()
            .find(|(j, _)| j.id == 6)
            .expect("hopeless deadline job was admitted");
        assert!(
            matches!(hopeless.1, Rejection::DeadlineInfeasible { .. }),
            "wrong rejection: {:?}",
            hopeless.1
        );
        // The enriched Display names tenant, deadline, and estimate.
        let msg = hopeless.1.to_string();
        assert!(msg.contains("tenant 1"), "{msg}");
        assert!(msg.contains("0.060"), "{msg}");
        assert!(
            report.records.iter().any(|r| r.spec.id == 7),
            "feasible deadline job was rejected"
        );
    }

    #[test]
    fn repeated_faults_quarantine_the_blamed_device() {
        let cfg = ServiceConfig {
            faults: FaultProfile {
                fail_permille: 700,
                seed: 11,
            },
            degrade: DegradeConfig::standard(),
            ..config(Policy::FpmAware)
        };
        let jobs = generate(&small_mix());
        let total = jobs.len();
        let report = GemmService::new(pool(), cfg).run(jobs);
        assert!(
            report
                .quarantine_events
                .iter()
                .any(|e| e.to == CircuitState::Open),
            "70% fault rate never opened a breaker"
        );
        // Conservation holds under quarantine.
        assert_eq!(report.records.len() + report.rejections.len(), total);
        // The timeline is internally consistent: each transition leaves
        // a state the device could actually have been in (the open →
        // half-open decay is implicit, so after an open the next event
        // may come `from` half-open).
        for d in 0..report.device_names.len() {
            let mut state = CircuitState::Closed;
            for e in report.quarantine_events.iter().filter(|e| e.device == d) {
                let reachable = e.from == state
                    || (state == CircuitState::Open && e.from == CircuitState::HalfOpen);
                assert!(
                    reachable,
                    "device {d}: transition from {:?} while {:?}",
                    e.from, state
                );
                state = e.to;
            }
        }
    }

    #[test]
    fn brownout_sheds_deadline_less_low_tier_jobs_under_overload() {
        let cfg = ServiceConfig {
            degrade: DegradeConfig {
                brownout_p95_threshold: 0.05,
                brownout_window: 16,
                ..DegradeConfig::standard()
            },
            ..config(Policy::FpmAware)
        };
        // A flood of tier-0 deadline-less jobs, with a few tier-1 jobs
        // that must never be shed.
        let mut jobs: Vec<JobSpec> = (0..40).map(|i| job(i, 2048, i as f64 * 0.001)).collect();
        jobs.extend((40..44).map(|i| pjob(i, 2048, i as f64 * 0.001, 1, None)));
        let total = jobs.len();
        let report = GemmService::new(pool(), cfg).run(jobs);
        assert!(report.shed() > 0, "overload never shed anything");
        assert_eq!(report.records.len() + report.rejections.len(), total);
        for (j, r) in &report.rejections {
            if let Rejection::Shed {
                tenant, threshold, ..
            } = r
            {
                assert_eq!(*tenant, j.tenant);
                assert_eq!(*threshold, 0.05);
                assert_eq!(j.priority, 0, "shed a protected tier");
                assert!(j.deadline.is_none(), "shed a deadline job");
            }
        }
        assert!(
            report
                .records
                .iter()
                .filter(|r| r.spec.priority == 1)
                .count()
                == 4,
            "a tier-1 job was shed"
        );
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let cfg = ServiceConfig {
            faults: FaultProfile {
                fail_permille: 300,
                seed: 7,
            },
            degrade: DegradeConfig::standard(),
            ..config(Policy::FpmAware)
        };
        let a = GemmService::new(pool(), cfg).run(generate(&small_mix()));
        let b = GemmService::new(pool(), cfg).run(generate(&small_mix()));
        assert_eq!(a.schedule_digest, b.schedule_digest);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.quarantine_events, b.quarantine_events);
        assert_eq!(a.shed(), b.shed());
    }

    #[test]
    fn slo_alerts_fire_on_breach_and_stay_quiet_when_healthy() {
        use std::sync::Mutex;
        use summagen_insight::{BurnConfig, SloKind, SloSpec};
        #[derive(Default)]
        struct Collect(Mutex<Vec<SpanRecord>>);
        impl EventSink for Collect {
            fn record(&self, span: SpanRecord) {
                self.0.lock().unwrap().push(span);
            }
        }
        let policy = |threshold: f64| SloPolicy {
            specs: vec![SloSpec {
                tenant: 0,
                kind: SloKind::LatencyP95,
                threshold,
                objective: 0.95,
            }],
            burn: BurnConfig {
                fast_window: 0.5,
                slow_window: 2.0,
                fire_rate: 2.0,
                min_events: 5,
            },
        };
        // An unmeetable latency target: every finished job burns budget.
        let sink = Arc::new(Collect::default());
        let report = GemmService::new(pool(), config(Policy::FpmAware))
            .with_slo(policy(0.0))
            .with_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .run(generate(&small_mix()));
        assert!(!report.slo_alerts.is_empty(), "breach never alerted");
        let alert = &report.slo_alerts[0];
        assert_eq!(alert.tenant, 0);
        assert_eq!(alert.kind, SloKind::LatencyP95);
        assert!(alert.burn_fast >= 2.0 && alert.burn_slow >= 2.0);
        assert!(alert.cleared_at.is_some(), "finish() must close alerts");
        let summaries = report.tenant_summaries(3);
        assert_eq!(summaries[0].slo_alerts, report.slo_alerts.len());
        assert_eq!(summaries[1].slo_alerts, 0);
        // Each alert rendered as one annotation span on a device track.
        let spans = sink.0.lock().unwrap();
        let alert_spans: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::SloAlert { .. }))
            .collect();
        assert_eq!(alert_spans.len(), report.slo_alerts.len());
        assert!(alert_spans.iter().all(|s| !s.kind.is_leaf()));
        // A trivially met target: the same load fires nothing.
        let healthy = GemmService::new(pool(), config(Policy::FpmAware))
            .with_slo(policy(1e9))
            .run(generate(&small_mix()));
        assert!(healthy.slo_alerts.is_empty(), "{:?}", healthy.slo_alerts);
    }

    #[test]
    fn sched_spans_cover_every_dispatch() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Collect(Mutex<Vec<SpanRecord>>);
        impl EventSink for Collect {
            fn record(&self, span: SpanRecord) {
                self.0.lock().unwrap().push(span);
            }
        }
        let sink = Arc::new(Collect::default());
        let jobs: Vec<JobSpec> = (0..5).map(|i| job(i, 512, i as f64 * 0.01)).collect();
        let report = GemmService::new(pool(), config(Policy::FpmAware))
            .with_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .run(jobs);
        let spans = sink.0.lock().unwrap();
        assert!(!spans.is_empty());
        let batches: std::collections::BTreeSet<u64> = spans
            .iter()
            .map(|s| match s.kind {
                SpanKind::Sched { batch, .. } => batch,
                ref other => panic!("unexpected span {other:?}"),
            })
            .collect();
        assert_eq!(batches.len() as u64, report.batches);
    }

    // ------------------------------------------------------------------
    // Durable runs: journaling, crash injection, recovery.
    // ------------------------------------------------------------------

    use summagen_durable::{
        decode_frames, encode_frame, idempotency_key, GroupCommitConfig, Terminals,
    };

    fn fresh_journal() -> Journal {
        Journal::new(GroupCommitConfig::default())
    }

    /// Simulates a process restart: the crashed journal's durable bytes
    /// are reopened on their longest valid frame prefix.
    fn reopen(journal: Journal) -> Journal {
        let (bytes, _) = journal.into_durable();
        let valid = decode_frames(&bytes).valid_bytes;
        Journal::reopen(bytes, valid, GroupCommitConfig::default())
    }

    /// Runs the stream through crash/restart cycles (one drawn kill
    /// point per cycle, up to `max_cycles`) and then a final crash-free
    /// recovery that drains the rest. Returns the final journal and how
    /// many crashes actually fired.
    fn drain_with_crashes(
        jobs: &[JobSpec],
        cfg: ServiceConfig,
        seed: u64,
        max_cycles: u64,
    ) -> (Journal, u64) {
        let mut journal = fresh_journal();
        let mut crashes = 0u64;
        for cycle in 0.. {
            let spec = (cycle < max_cycles).then(|| CrashSpec::draw(seed, cycle, 16));
            let mut svc = GemmService::new(pool(), cfg);
            match svc.recover(journal, jobs.to_vec(), spec) {
                DurableRun::Finished(rep) => return (rep.journal, crashes),
                DurableRun::Crashed(c) => {
                    crashes += 1;
                    journal = reopen(c.journal);
                }
            }
        }
        unreachable!("the crash-free final cycle always finishes");
    }

    #[test]
    fn durable_run_without_crash_matches_the_plain_run() {
        let jobs = generate(&small_mix());
        let plain = GemmService::new(pool(), config(Policy::FpmAware)).run(jobs.clone());
        let out = GemmService::new(pool(), config(Policy::FpmAware)).run_durable(
            jobs,
            fresh_journal(),
            None,
        );
        let DurableRun::Finished(rep) = out else {
            panic!("no crash injector, must finish");
        };
        assert_eq!(
            rep.report.schedule_digest, plain.schedule_digest,
            "journaling must not perturb the schedule"
        );
        assert_eq!(rep.recovery.epoch, 0);
        let replayed = summagen_durable::replay(rep.journal.durable()).state;
        assert_eq!(
            replayed.completed.len() + replayed.failed.len(),
            plain.records.len(),
            "every accepted job's terminal outcome is durable"
        );
        assert!(replayed.queued.is_empty());
        assert!(replayed.in_flight.is_empty());
        assert_eq!(replayed.rejected.len(), plain.rejections.len());
    }

    #[test]
    fn crash_restart_cycles_complete_every_job_exactly_once() {
        let jobs = generate(&small_mix());
        let control = {
            let out = GemmService::new(pool(), config(Policy::FpmAware)).run_durable(
                jobs.clone(),
                fresh_journal(),
                None,
            );
            summagen_durable::replay(out.into_journal().durable()).state
        };
        let (journal, crashes) = drain_with_crashes(&jobs, config(Policy::FpmAware), 42, 64);
        assert!(
            crashes >= 3,
            "kill points should actually fire (got {crashes})"
        );
        let recovered = summagen_durable::replay(journal.durable()).state;
        let keys = |t: &Terminals| t.iter().map(|(key, _)| *key).collect::<Vec<u64>>();
        assert_eq!(
            keys(&recovered.completed),
            keys(&control.completed),
            "a job was lost or duplicated across crashes"
        );
        for (key, t) in control.completed.iter() {
            assert_eq!(
                recovered.completed.get(key).map(|r| r.digest),
                Some(t.digest),
                "job {} did not reproduce bit-identically",
                t.job
            );
        }
        assert_eq!(keys(&recovered.failed), keys(&control.failed));
    }

    #[test]
    fn resubmissions_of_journaled_jobs_are_suppressed() {
        let jobs = generate(&small_mix());
        let out = GemmService::new(pool(), config(Policy::FpmAware)).run_durable(
            jobs.clone(),
            fresh_journal(),
            None,
        );
        let journal = out.into_journal();
        let st = summagen_durable::replay(journal.durable()).state;
        let known = st.queued.len() + st.in_flight.len() + st.completed.len() + st.failed.len();
        let out2 = GemmService::new(pool(), config(Policy::FpmAware)).recover(journal, jobs, None);
        let DurableRun::Finished(rep) = out2 else {
            panic!("no crash injector, must finish");
        };
        assert_eq!(rep.recovery.epoch, 1);
        assert_eq!(rep.recovery.suppressed_duplicates, known);
        assert!(
            rep.report
                .rejections
                .iter()
                .filter(|(_, r)| matches!(r, Rejection::Duplicate { .. }))
                .count()
                == known,
            "every known key bounces as a typed duplicate"
        );
        assert!(
            rep.report.records.is_empty(),
            "nothing re-ran: {:?}",
            rep.report.records.len()
        );
    }

    /// The sort-based suppression `duplicate_keys` replaced, kept as the
    /// oracle: the known keys sorted once and each key binary-searched;
    /// the unknown ones sorted with their positions, so a repeat is an
    /// entry whose sorted predecessor has its key.
    fn duplicate_keys_by_sorting(rs: &RecoveredState, keys: &[u64]) -> Vec<bool> {
        let open = rs.queued.iter().chain(&rs.in_flight);
        let terminal = rs.completed.iter().chain(rs.failed.iter());
        let mut known: Vec<u64> = open
            .map(|j| j.meta.idempotency)
            .chain(terminal.map(|(key, _)| *key))
            .collect();
        known.sort_unstable();
        let mut duplicate = Vec::with_capacity(keys.len());
        let mut unknown = Vec::new();
        for (at, &key) in keys.iter().enumerate() {
            let hit = known.binary_search(&key).is_ok();
            if !hit {
                unknown.push((key, at));
            }
            duplicate.push(hit);
        }
        unknown.sort_unstable();
        for pair in unknown.windows(2) {
            if pair[0].0 == pair[1].0 {
                duplicate[pair[1].1] = true;
            }
        }
        duplicate
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-pass suppression equals the sorting oracle on
        /// submission lists that mix terminal keys, open (queued or in
        /// flight) keys, fresh keys and repeats within the list. Job
        /// slot `s` journals key `s % 20` in role `roles[s]` (nothing,
        /// queued, in flight, completed, failed), so keys 0–3 may be
        /// open under one job and terminal under another; keys 20–23
        /// are never journaled.
        #[test]
        fn one_pass_suppression_equals_the_sorting_oracle(
            roles in proptest::collection::vec(0u32..5, 24..25),
            picks in proptest::collection::vec(0u64..24, 0..48),
        ) {
            let key = |k: u64| idempotency_key(k, 0, 512);
            let mut bytes = Vec::new();
            for (slot, &role) in (0u64..).zip(&roles) {
                let meta = JobMeta {
                    id: slot,
                    tenant: 0,
                    n: 512,
                    priority: 0,
                    deadline: None,
                    submit_time: 0.0,
                    idempotency: key(slot % 20),
                };
                let admitted = JournalRecord::Admitted { at: 0.0, meta };
                let started = JournalRecord::BatchStarted {
                    at: 0.1,
                    batch: slot,
                    job_ids: vec![slot],
                    devices: vec![0],
                };
                let terminal = JournalRecord::Failed {
                    at: 0.2,
                    job: slot,
                    idempotency: meta.idempotency,
                    tenant: 0,
                    latency: 0.2,
                    attempts: 1,
                };
                let records = match role {
                    1 => vec![admitted],
                    2 => vec![admitted, started],
                    3 => vec![JournalRecord::Completed {
                        at: 0.2,
                        job: slot,
                        idempotency: meta.idempotency,
                        tenant: 0,
                        latency: 0.2,
                        digest: slot,
                        deadline_met: None,
                    }],
                    4 => vec![terminal],
                    _ => Vec::new(),
                };
                for rec in records {
                    encode_frame(&mut bytes, &rec.encode());
                }
            }
            let rs = replay(&bytes).state;
            let keys: Vec<u64> = picks.into_iter().map(key).collect();
            proptest::prop_assert_eq!(
                duplicate_keys(&rs, &keys),
                duplicate_keys_by_sorting(&rs, &keys)
            );
        }
    }

    #[test]
    fn a_key_repeated_within_one_submission_list_runs_once() {
        let jobs: Vec<JobSpec> = generate(&crate::loadgen::hetero_mix())
            .into_iter()
            .take(10)
            .collect();
        let twice: Vec<JobSpec> = jobs.iter().chain(&jobs).cloned().collect();
        let out = GemmService::new(pool(), config(Policy::FpmAware)).recover(
            fresh_journal(),
            twice,
            None,
        );
        let DurableRun::Finished(rep) = out else {
            panic!("no crash injector, must finish");
        };
        assert_eq!(rep.recovery.suppressed_duplicates, 10);
        assert_eq!(rep.report.records.len(), 10);
        assert!(rep
            .report
            .rejections
            .iter()
            .all(|(_, r)| matches!(r, Rejection::Duplicate { .. })));
        let mut completed: BTreeMap<u64, usize> = BTreeMap::new();
        for payload in decode_frames(rep.journal.durable()).payloads {
            if let Some(JournalRecord::Completed { idempotency, .. }) =
                JournalRecord::decode(payload)
            {
                *completed.entry(idempotency).or_default() += 1;
            }
        }
        let want: BTreeMap<u64, usize> = jobs.iter().map(|j| (j.idempotency(), 1)).collect();
        assert_eq!(completed, want, "one Completed record per key");
    }

    #[test]
    fn recovery_counts_frames_that_hold_no_record() {
        let mut bytes = Vec::new();
        summagen_durable::encode_frame(&mut bytes, &[0xEE]);
        let valid = decode_frames(&bytes).valid_bytes;
        assert_eq!(valid, bytes.len(), "the frame itself is intact");
        let journal = Journal::reopen(bytes, valid, GroupCommitConfig::default());
        let out =
            GemmService::new(pool(), config(Policy::FpmAware)).recover(journal, Vec::new(), None);
        let DurableRun::Finished(rep) = out else {
            panic!("no crash injector, must finish");
        };
        assert_eq!(rep.recovery.undecodable_records, 1);
        assert_eq!(rep.recovery.replayed_records, 0);
    }

    #[test]
    fn recovery_resumes_in_flight_work_from_its_checkpoint() {
        // Hand-build a crashed epoch's durable journal: job 1 was
        // mid-flight with a 0.5 checkpoint durable, job 2 queued.
        let mut j = fresh_journal();
        let j1 = job(1, 1024, 0.0);
        let j2 = job(2, 1024, 0.0);
        j.append(
            0.0,
            &JournalRecord::EpochStart {
                epoch: 0,
                resume_clock: 0.0,
                recovered_jobs: 0,
                suppressed_duplicates: 0,
            },
        );
        j.append(
            0.0,
            &JournalRecord::Admitted {
                at: 0.0,
                meta: job_meta(&j1),
            },
        );
        j.append(
            0.0,
            &JournalRecord::Admitted {
                at: 0.0,
                meta: job_meta(&j2),
            },
        );
        j.append(
            0.1,
            &JournalRecord::BatchStarted {
                at: 0.1,
                batch: 0,
                job_ids: vec![1],
                devices: vec![0],
            },
        );
        j.append(
            0.5,
            &JournalRecord::PanelCheckpoint {
                at: 0.5,
                job: 1,
                idempotency: j1.idempotency(),
                fraction: 0.5,
            },
        );
        j.commit(0.5);
        let journal = reopen(j);

        let mut svc = GemmService::new(pool(), config(Policy::FpmAware));
        let out = svc.recover(journal, Vec::new(), None);
        let DurableRun::Finished(rep) = out else {
            panic!("no crash injector, must finish");
        };
        assert_eq!(rep.recovery.epoch, 1);
        assert_eq!(rep.recovery.recovered_jobs, 2);
        assert_eq!(rep.recovery.resumed_from_checkpoint, 1);
        assert_eq!(rep.report.records.len(), 2);
        let r1 = rep.report.records.iter().find(|r| r.spec.id == 1).unwrap();
        let r2 = rep.report.records.iter().find(|r| r.spec.id == 2).unwrap();
        // The in-flight job re-enters at the queue front and re-runs
        // only its unfinished half.
        assert!(r1.start_time <= r2.start_time + EPS);
        assert!(r1.start_time >= rep.recovery.resume_clock - EPS);
        let d1 = r1.finish_time - r1.start_time;
        let d2 = r2.finish_time - r2.start_time;
        assert!(
            d1 < 0.6 * d2,
            "resumed job should run ~half as long: {d1} vs {d2}"
        );
    }

    #[test]
    fn mid_checkpoint_crash_falls_back_to_the_previous_durable_boundary() {
        // Arrange a crash that lands exactly on a checkpoint append.
        // The dropped checkpoint (and everything pending) is lost; the
        // job must recover at the best *durable* fraction — here 0.0,
        // the previous boundary being the start — and still complete
        // with the control digest.
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 512, i as f64 * 0.01)).collect();
        let control = {
            let out = GemmService::new(pool(), config(Policy::FpmAware)).run_durable(
                jobs.clone(),
                fresh_journal(),
                None,
            );
            summagen_durable::replay(out.into_journal().durable()).state
        };
        // Find an event index whose kill actually lands mid-checkpoint.
        let mut exercised = false;
        for at_event in 1..24u64 {
            let spec = CrashSpec {
                at_event,
                kind: CrashKind::MidCheckpoint,
            };
            let mut svc = GemmService::new(pool(), config(Policy::FpmAware));
            let out = svc.run_durable(jobs.clone(), fresh_journal(), Some(spec));
            let DurableRun::Crashed(c) = out else {
                continue;
            };
            assert_eq!(c.kind, CrashKind::MidCheckpoint);
            exercised = true;
            let journal = reopen(c.journal);
            let mut svc2 = GemmService::new(pool(), config(Policy::FpmAware));
            let out2 = svc2.recover(journal, jobs.clone(), None);
            let DurableRun::Finished(rep) = out2 else {
                panic!("crash-free recovery finishes");
            };
            let st = summagen_durable::replay(rep.journal.durable()).state;
            assert_eq!(
                st.completed.iter().map(|(key, _)| key).collect::<Vec<_>>(),
                control
                    .completed
                    .iter()
                    .map(|(key, _)| key)
                    .collect::<Vec<_>>()
            );
            for (key, t) in control.completed.iter() {
                assert_eq!(st.completed.get(key).map(|r| r.digest), Some(t.digest));
            }
        }
        assert!(exercised, "no kill point landed on a checkpoint append");
    }

    // ---- The dispatch pass and the digest against their references ----

    impl GemmService {
        /// The dispatch pass as it was before it skipped and memoised:
        /// every urgency-ordered candidate planned on its own with
        /// [`plan`], whatever the pool's state. The reference
        /// [`GemmService::dispatch_all`] is proptested against.
        fn reference_dispatch(&mut self, st: &mut RunState) {
            'dispatch: loop {
                if st.queue.is_empty() {
                    return;
                }
                let candidates: Vec<usize> = match self.config.policy {
                    Policy::Fifo | Policy::RoundRobin => vec![0],
                    Policy::FpmAware => {
                        let spec = |i: usize| st.queue.get(i).expect("index below len");
                        let mut order: Vec<usize> = (0..st.queue.len()).collect();
                        order.sort_by(|&a, &b| urgency(spec(a), spec(b)).then(a.cmp(&b)));
                        order
                    }
                };
                for idx in candidates {
                    let job = st.queue.get(idx).expect("index observed");
                    let placement = plan(self.config.policy, &mut self.pool, job, st.now);
                    if placement.start <= st.now + EPS {
                        commit(self.config.policy, &mut self.pool);
                        self.dispatch_batch(st, idx, placement);
                        continue 'dispatch;
                    }
                }
                self.try_preempt(st);
                return;
            }
        }

        /// [`GemmService::run`] with the reference dispatch pass.
        fn run_reference(&mut self, jobs: Vec<JobSpec>) -> ServiceReport {
            let mut st = self.base_state();
            st.dispatch = Self::reference_dispatch;
            assert!(
                self.drive(jobs, &mut st),
                "a plain run has no crash injector"
            );
            self.finish_report(st)
        }
    }

    /// `digest` as it was before it streamed: every word into one vector,
    /// hashed at the end.
    fn digest_by_words(records: &[JobRecord], rejections: &[(JobSpec, Rejection)]) -> u64 {
        let mut words = Vec::new();
        for r in records {
            words.extend([
                r.spec.id,
                r.start_time.to_bits(),
                r.finish_time.to_bits(),
                r.batch,
                r.attempts as u64,
                r.devices.len() as u64,
            ]);
            words.extend(r.devices.iter().map(|&d| d as u64));
            words.push(match r.outcome {
                JobOutcome::Completed => 1,
                JobOutcome::Failed { .. } => 2,
            });
            words.push(r.preemptions as u64);
            words.push(match r.deadline {
                DeadlineVerdict::NoDeadline => 0,
                DeadlineVerdict::Met => 1,
                DeadlineVerdict::Missed { .. } => 2,
            });
        }
        for (j, rej) in rejections {
            words.extend([j.id, rej.label().len() as u64]);
        }
        fnv1a_words(&words)
    }

    /// A size whose best placement waits in one pass can start in the
    /// next pass of the same event. Job 1 arrives while job 0 holds
    /// device 2, and its best placement waits for that device. Job 2,
    /// less urgent, takes device 0. That makes device 1 alone job 1's
    /// best placement, free since the start, so job 1 dispatches in the
    /// next pass. A plan memo that outlived its pass would hold job 1
    /// back until a later event.
    #[test]
    fn a_size_blocked_in_one_pass_dispatches_in_the_next() {
        use crate::scheduler::tests::random_pool;
        let devices = [(1, 2, 30), (0, 2, 30), (1, 3, 30)];
        let jobs = vec![
            pjob(0, 1024, 0.0, 0, None),
            pjob(1, 2048, 0.003, 2, None),
            pjob(2, 256, 0.003, 0, None),
        ];
        let report = GemmService::new(random_pool(&devices), config(Policy::FpmAware)).run(jobs);
        let rec = |id| {
            let r = report.records.iter().find(|r| r.spec.id == id);
            r.expect("every job is recorded")
        };
        assert_eq!(rec(0).devices, [2]);
        let mut probe = random_pool(&devices);
        probe.occupy(&[2], 0.0, rec(0).finish_time);
        let blocked = plan(Policy::FpmAware, &mut probe, &rec(1).spec, 0.003);
        assert!(blocked.devices.contains(&2) && blocked.start > 0.003 + EPS);
        assert_eq!((rec(2).batch, rec(2).devices.as_slice()), (1, &[0][..]));
        assert_eq!((rec(1).batch, rec(1).devices.as_slice()), (2, &[1][..]));
        assert_eq!(
            rec(1).start_time,
            rec(2).start_time,
            "job 1 waited for a later event"
        );
    }

    mod reference {
        use super::*;
        use crate::loadgen::hetero_mix;
        use crate::scheduler::tests::random_pool;
        use proptest::prelude::*;

        /// A record from generated fields: every outcome and deadline
        /// verdict, and zero to four devices.
        fn record(
            (id, start, finish, batch): (u64, u64, u64, u64),
            (attempts, devices, failed, preemptions, verdict): (usize, Vec<usize>, u32, usize, u32),
        ) -> JobRecord {
            let finish = f64::from_bits(finish);
            JobRecord {
                spec: job(id, 256, 0.0),
                start_time: f64::from_bits(start),
                finish_time: finish,
                devices,
                shape: "1d-rectangular",
                batch,
                attempts,
                preemptions,
                deadline: match verdict {
                    0 => DeadlineVerdict::NoDeadline,
                    1 => DeadlineVerdict::Met,
                    _ => DeadlineVerdict::Missed { late_by: finish },
                },
                outcome: if failed == 1 {
                    JobOutcome::Failed {
                        reason: "exhausted".into(),
                    }
                } else {
                    JobOutcome::Completed
                },
            }
        }

        /// A rejection of every kind.
        fn rejection(id: u64, kind: u32) -> (JobSpec, Rejection) {
            let rej = match kind {
                0 => Rejection::QueueFull { capacity: 4 },
                1 => Rejection::QuotaExceeded { quota: 2 },
                2 => Rejection::TooLarge { max_n: 512 },
                3 => Rejection::DeadlineInfeasible {
                    tenant: 1,
                    deadline: 0.5,
                    estimated_completion: 0.75,
                },
                4 => Rejection::Shed {
                    tenant: 0,
                    queue_wait_p95: 2.0,
                    threshold: 1.0,
                },
                _ => Rejection::Duplicate { idempotency: id },
            };
            (job(id, 1024, 0.0), rej)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The dispatch pass against the reference pass on random
            /// pools (tied identical devices are common), both mixes at
            /// random loads and seeds, under every policy, with
            /// degradation off and armed (quarantine, preemption and
            /// brownout): the same records, rejections and schedule digest.
            #[test]
            fn dispatch_matches_the_reference_pass(
                devices in proptest::collection::vec((0u32..2, 1u32..4, 10u32..100), 1..5),
                hetero in 0u32..2,
                seed in 0u64..u64::MAX,
                load in 1u32..8,
                armed in 0u32..2,
                fail_permille in 0u32..500,
            ) {
                let mut mix = if hetero == 1 { hetero_mix() } else { small_mix() };
                mix.jobs = 120;
                mix.seed = seed;
                mix.arrival_rate *= f64::from(load);
                let degrade = if armed == 1 {
                    DegradeConfig {
                        preemption_min_wait: 0.02,
                        brownout_p95_threshold: 0.5,
                        ..DegradeConfig::standard()
                    }
                } else {
                    DegradeConfig::default()
                };
                let jobs = generate(&mix);
                for policy in Policy::ALL {
                    let cfg = ServiceConfig {
                        faults: FaultProfile {
                            fail_permille: fail_permille as u16,
                            seed,
                        },
                        degrade,
                        ..config(policy)
                    };
                    let got = GemmService::new(random_pool(&devices), cfg).run(jobs.clone());
                    let want =
                        GemmService::new(random_pool(&devices), cfg).run_reference(jobs.clone());
                    prop_assert_eq!(&got.records, &want.records, "{}", policy.name());
                    prop_assert_eq!(&got.rejections, &want.rejections, "{}", policy.name());
                    prop_assert_eq!(got.schedule_digest, want.schedule_digest);
                }
            }

            /// The streamed digest hashes the words the word vector held.
            #[test]
            fn streamed_digest_equals_the_word_vector(
                records in proptest::collection::vec(
                    (
                        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                        (
                            1usize..4,
                            proptest::collection::vec(0usize..16, 0..5),
                            0u32..2,
                            0usize..3,
                            0u32..3,
                        ),
                    ),
                    0..24,
                ),
                rejections in proptest::collection::vec((0u64..u64::MAX, 0u32..6), 0..12),
            ) {
                let records: Vec<JobRecord> =
                    records.into_iter().map(|(a, b)| record(a, b)).collect();
                let rejections: Vec<(JobSpec, Rejection)> =
                    rejections.into_iter().map(|(id, kind)| rejection(id, kind)).collect();
                prop_assert_eq!(
                    digest(&records, &rejections),
                    digest_by_words(&records, &rejections)
                );
            }
        }
    }
}
