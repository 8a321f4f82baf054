//! The degradation layer: what the service does when demand or faults
//! exceed capacity, instead of silently going non-linear.
//!
//! Four cooperating mechanisms, armed together by one switch and off by
//! default (a [`DegradeConfig::default`] service schedules exactly as if
//! this layer did not exist):
//!
//! * **Deadline-aware admission** — at submit, the paper-shape cost
//!   model plus the current queue backlog give an earliest feasible
//!   completion; a deadline job that cannot make it is rejected with
//!   [`crate::Rejection::DeadlineInfeasible`] instead of burning devices
//!   on work that is already dead.
//! * **Checkpoint preemption** — a long-running batch yields at the next
//!   panel boundary when an urgent high-tier job would otherwise wait;
//!   the preempted job's k-prefix is parked (the PR-3 `CheckpointStore`
//!   mechanism, surfaced as `summagen_core::PanelCheckpoint`) and the
//!   job resumes bit-identically later.
//! * **Device quarantine** — a per-device circuit breaker
//!   ([`CircuitBreaker`]) stops placing work on a device after repeated
//!   blamed faults, with capped exponential backoff and a half-open
//!   probe.
//! * **Brownout shedding** — when the queue-wait p95 crosses a
//!   threshold, the lowest tiers' deadline-less jobs are shed with typed
//!   rejections so the paying tiers' tails survive the overload.
//!
//! Three thresholds scale the layer to a load's timescale and stay
//! settable; every other tuning is one of the constants below, because no
//! caller ever set it to another value (DESIGN.md §12).
//!
//! Everything here is pure state-machine code on the virtual clock: no
//! wall time, no randomness — the degradation decisions are as
//! deterministic as the schedule they protect.

use std::collections::VecDeque;

/// The degradation layer: one switch arms all four mechanisms, and three
/// thresholds scale preemption and brownout to the load's timescale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// Arms deadline-aware admission, checkpoint preemption, device
    /// quarantine and brownout shedding together.
    pub armed: bool,
    /// A batch is only preempted when the urgent job would otherwise
    /// wait longer than this for a device (virtual seconds).
    pub preemption_min_wait: f64,
    /// Queue-wait p95 (virtual seconds) that activates the brownout.
    pub brownout_p95_threshold: f64,
    /// Queue waits the brownout's sliding p95 window holds.
    pub brownout_window: usize,
}

impl Default for DegradeConfig {
    /// Disarmed, with the thresholds of a long-lived deployment.
    fn default() -> Self {
        Self {
            armed: false,
            preemption_min_wait: 0.25,
            brownout_p95_threshold: 8.0,
            brownout_window: 64,
        }
    }
}

impl DegradeConfig {
    /// All four mechanisms armed with the default thresholds.
    pub fn standard() -> Self {
        Self {
            armed: true,
            ..Self::default()
        }
    }
}

/// Minimum priority a queued job needs to trigger a preemption.
pub(crate) const PREEMPTION_MIN_PRIORITY: u8 = 2;

/// Panel boundaries a running job's execution is divided into — the
/// preemption granularity, and the checkpoint records a durable run
/// journals per completing member while the layer is armed. Matches the
/// panel count of the checkpointed executor the real backend runs.
pub(crate) const PREEMPTION_PANELS: usize = 8;

/// Virtual seconds a resumed job pays to restore its checkpoint (the
/// rollback cost of the ABFT executor, service-side).
pub(crate) const RESUME_OVERHEAD: f64 = 0.01;

/// The breakers the service builds for device quarantine.
pub(crate) const QUARANTINE: QuarantineConfig = QuarantineConfig {
    failure_threshold: 3,
    base_backoff: 2.0,
    max_backoff: 60.0,
};

/// The brownout deactivates when p95 drops below this fraction of its
/// threshold — hysteresis, so the shed/no-shed decision does not flap at
/// the threshold.
pub(crate) const BROWNOUT_EXIT_FRACTION: f64 = 0.7;

/// The one priority tier the brownout sheds, the lowest (deadline-less
/// jobs only; a job that carries a deadline was admitted as feasible and
/// is never shed).
pub(crate) const BROWNOUT_SHED_PRIORITY: u8 = 0;

/// Circuit-breaker knobs for device quarantine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// Consecutive blamed failures that open the breaker.
    pub failure_threshold: u32,
    /// First open interval (virtual seconds); doubles per open.
    pub base_backoff: f64,
    /// Backoff ceiling (virtual seconds).
    pub max_backoff: f64,
}

/// Circuit-breaker state, in the classic three positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: the device is schedulable.
    Closed,
    /// Quarantined: no placements until the backoff expires.
    Open,
    /// Backoff expired: the device may take exactly one probe placement;
    /// success closes the breaker, a blamed failure re-opens it with
    /// doubled backoff.
    HalfOpen,
}

impl CircuitState {
    /// Stable label for artifacts and spans.
    pub fn label(&self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::Open => "open",
            CircuitState::HalfOpen => "half-open",
        }
    }
}

/// One breaker transition, for the quarantine timeline artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineEvent {
    /// Pool index of the device.
    pub device: usize,
    /// Virtual instant of the transition.
    pub at: f64,
    /// State left.
    pub from: CircuitState,
    /// State entered.
    pub to: CircuitState,
}

/// Per-device circuit breaker: closed → open (capped exponential
/// backoff) → half-open probe → closed again, driven entirely by blamed
/// fault outcomes on the virtual clock.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: QuarantineConfig,
    state: CircuitState,
    /// Consecutive blamed failures while closed.
    consecutive_failures: u32,
    /// Instant the current open interval ends.
    open_until: f64,
    /// Times the breaker has opened (drives the exponential backoff).
    opens: u32,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    pub fn new(config: QuarantineConfig) -> Self {
        Self {
            config,
            state: CircuitState::Closed,
            consecutive_failures: 0,
            open_until: 0.0,
            opens: 0,
        }
    }

    /// Current state, after resolving an expired open interval into
    /// half-open (the probe offer happens lazily, at observation time —
    /// there is no timer on a virtual clock).
    pub fn state(&mut self, now: f64) -> CircuitState {
        if self.state == CircuitState::Open && now >= self.open_until {
            self.state = CircuitState::HalfOpen;
        }
        self.state
    }

    /// Whether the scheduler may place work on the device at `now`
    /// (closed, or half-open for the probe).
    pub fn eligible(&mut self, now: f64) -> bool {
        self.state(now) != CircuitState::Open
    }

    /// Times the breaker has opened.
    pub fn opens(&self) -> u32 {
        self.opens
    }

    /// The open interval's end, while open.
    pub fn open_until(&self) -> f64 {
        self.open_until
    }

    /// Records a blamed failure at `now`. Returns the transition if the
    /// breaker opened (closed → open after the threshold, half-open →
    /// open immediately with doubled backoff).
    pub fn record_failure(&mut self, now: f64) -> Option<QuarantineTransition> {
        match self.state(now) {
            CircuitState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    Some(self.open(now, CircuitState::Closed))
                } else {
                    None
                }
            }
            CircuitState::HalfOpen => Some(self.open(now, CircuitState::HalfOpen)),
            // Blame landing while open (a placement made before the
            // breaker opened can fail after): the quarantine already
            // covers it.
            CircuitState::Open => None,
        }
    }

    /// Records a successful execution on the device at `now`. Returns
    /// the transition if a half-open probe just closed the breaker.
    pub fn record_success(&mut self, now: f64) -> Option<QuarantineTransition> {
        self.consecutive_failures = 0;
        if self.state(now) == CircuitState::HalfOpen {
            self.state = CircuitState::Closed;
            Some(QuarantineTransition {
                from: CircuitState::HalfOpen,
                to: CircuitState::Closed,
                open_until: now,
            })
        } else {
            None
        }
    }

    fn open(&mut self, now: f64, from: CircuitState) -> QuarantineTransition {
        self.opens += 1;
        let backoff = (self.config.base_backoff * 2f64.powi(self.opens as i32 - 1))
            .min(self.config.max_backoff);
        self.state = CircuitState::Open;
        self.open_until = now + backoff;
        self.consecutive_failures = 0;
        QuarantineTransition {
            from,
            to: CircuitState::Open,
            open_until: self.open_until,
        }
    }
}

/// What a breaker transition looked like, for span/timeline emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineTransition {
    /// State left.
    pub from: CircuitState,
    /// State entered.
    pub to: CircuitState,
    /// End of the open interval (== the transition instant for closes).
    pub open_until: f64,
}

/// Sliding window of queue waits with an exact nearest-rank p95 — the
/// brownout's activation signal. Same quantile convention as the
/// artifact summaries: sorted sample, nearest rank, no buckets.
#[derive(Debug, Clone)]
pub struct WaitWindow {
    waits: VecDeque<f64>,
    cap: usize,
}

impl WaitWindow {
    /// An empty window holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        Self {
            waits: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Pushes one observed queue wait, evicting the oldest at capacity.
    pub fn push(&mut self, wait: f64) {
        if self.waits.len() == self.cap {
            self.waits.pop_front();
        }
        self.waits.push_back(wait);
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.waits.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.waits.is_empty()
    }

    /// Exact nearest-rank p95 of the window (0 when empty).
    pub fn p95(&self) -> f64 {
        if self.waits.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = self.waits.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let rank = ((0.95 * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(QuarantineConfig {
            failure_threshold: 3,
            base_backoff: 2.0,
            max_backoff: 6.0,
        })
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let mut b = breaker();
        assert!(b.record_failure(0.0).is_none());
        assert!(b.record_failure(0.1).is_none());
        let t = b.record_failure(0.2).expect("third failure opens");
        assert_eq!(t.to, CircuitState::Open);
        assert_eq!(b.state(0.3), CircuitState::Open);
        assert!(!b.eligible(0.3));
        // Backoff is base_backoff on the first open.
        assert!((b.open_until() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = breaker();
        b.record_failure(0.0);
        b.record_failure(0.1);
        b.record_success(0.2);
        // The streak restarts: two more failures do not open.
        assert!(b.record_failure(0.3).is_none());
        assert!(b.record_failure(0.4).is_none());
        assert!(b.record_failure(0.5).is_some());
    }

    #[test]
    fn open_decays_to_half_open_and_a_probe_success_closes() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 0.1);
        }
        assert_eq!(b.state(1.0), CircuitState::Open);
        assert_eq!(b.state(2.3), CircuitState::HalfOpen);
        assert!(b.eligible(2.3), "half-open must admit the probe");
        let t = b.record_success(2.5).expect("probe success closes");
        assert_eq!(t.to, CircuitState::Closed);
        assert_eq!(b.state(2.6), CircuitState::Closed);
    }

    #[test]
    fn half_open_failure_reopens_with_doubled_capped_backoff() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 0.1);
        }
        // First open: backoff 2.0, ends at 2.2.
        let t = b.record_failure(3.0).expect("half-open failure reopens");
        assert_eq!(t.from, CircuitState::HalfOpen);
        assert_eq!(t.to, CircuitState::Open);
        // Second open: backoff 4.0.
        assert!((b.open_until() - 7.0).abs() < 1e-12);
        let t = b.record_failure(8.0).expect("reopen again");
        // Third open: 8.0 capped to max_backoff 6.0.
        assert!((t.open_until - 14.0).abs() < 1e-12);
        assert_eq!(b.opens(), 3);
    }

    #[test]
    fn blame_while_open_is_absorbed() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 0.1);
        }
        assert!(b.record_failure(0.5).is_none(), "already quarantined");
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn wait_window_p95_is_exact_nearest_rank() {
        let mut w = WaitWindow::new(100);
        for i in 1..=20 {
            w.push(i as f64);
        }
        // rank = ceil(0.95 * 20) = 19 → the 19th smallest.
        assert_eq!(w.p95(), 19.0);
        assert_eq!(w.len(), 20);
    }

    #[test]
    fn wait_window_evicts_oldest_at_capacity() {
        let mut w = WaitWindow::new(4);
        for i in 1..=8 {
            w.push(i as f64);
        }
        assert_eq!(w.len(), 4);
        // Window holds {5,6,7,8}; p95 rank = ceil(3.8) = 4 → 8.
        assert_eq!(w.p95(), 8.0);
    }

    #[test]
    fn default_config_disables_everything() {
        let d = DegradeConfig::default();
        assert!(!d.armed);
        let s = DegradeConfig::standard();
        assert!(s.armed);
        assert_eq!(
            DegradeConfig { armed: false, ..s },
            d,
            "standard() differs from the default only in the switch"
        );
    }
}
