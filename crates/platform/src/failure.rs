//! Device failure modeling for fault-tolerant runs.
//!
//! The paper's platform is a single heterogeneous node, but its abstract
//! processors are exactly the components that fail in practice: discrete
//! accelerators drop off the bus, coprocessors overheat, host memory
//! throws uncorrectable errors. This module provides the standard
//! exponential-failure machinery used to reason about such runs: per-device
//! MTBF, survival probabilities, and the expected makespan of a
//! restart-from-scratch execution — the analytical counterpart of the
//! shrink-and-retry recovery implemented in `summagen-core`.

use crate::device::DeviceKind;

/// An exponential (memoryless) failure law for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Mean time between failures, in seconds.
    pub mtbf_seconds: f64,
    /// Time to detect the failure and restart the computation, in seconds.
    pub restart_seconds: f64,
}

impl FailureModel {
    /// A model with the given MTBF and restart cost.
    pub fn new(mtbf_seconds: f64, restart_seconds: f64) -> Self {
        assert!(
            mtbf_seconds > 0.0 && mtbf_seconds.is_finite(),
            "MTBF must be positive, got {mtbf_seconds}"
        );
        assert!(
            restart_seconds >= 0.0 && restart_seconds.is_finite(),
            "restart cost must be non-negative, got {restart_seconds}"
        );
        Self {
            mtbf_seconds,
            restart_seconds,
        }
    }

    /// A plausible default per device class. These are modeling
    /// assumptions, not measurements: discrete accelerators fail more
    /// often than host CPUs (driver resets, ECC events, thermal trips),
    /// and a first-generation many-core coprocessor more often still.
    pub fn typical(kind: DeviceKind) -> Self {
        match kind {
            // ~4 months between CPU-side failures, 30 s to restart.
            DeviceKind::Cpu => Self::new(1e7, 30.0),
            // ~1 month for the GPU (driver reset + reload).
            DeviceKind::Gpu => Self::new(2.5e6, 60.0),
            // ~2 weeks for the Xeon Phi.
            DeviceKind::XeonPhi => Self::new(1.2e6, 120.0),
        }
    }

    /// Failure rate λ = 1 / MTBF, in failures per second.
    pub fn rate(&self) -> f64 {
        1.0 / self.mtbf_seconds
    }

    /// Probability the device is still alive after `t` seconds:
    /// `exp(-t / MTBF)`.
    pub fn survival(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time must be non-negative");
        (-t * self.rate()).exp()
    }

    /// Probability of at least one failure within `t` seconds.
    pub fn failure_probability(&self, t: f64) -> f64 {
        1.0 - self.survival(t)
    }
}

/// Probability that *every* device survives a run of `t` seconds —
/// the product of individual survivals (independent failures), i.e.
/// `exp(-t · Σ λᵢ)`.
pub fn fleet_survival(models: &[FailureModel], t: f64) -> f64 {
    models.iter().map(|m| m.survival(t)).product()
}

/// Combined failure rate of a device pool, in failures per second.
pub fn fleet_rate(models: &[FailureModel]) -> f64 {
    models.iter().map(|m| m.rate()).sum()
}

/// Expected wall time to complete `work_seconds` of failure-free work when
/// any device failure forces a restart from scratch (no checkpointing),
/// using the classic exponential-failure result
/// `E[T] = (1/λ + R) · (e^{λ·w} − 1)` with the pooled rate `λ` and the
/// mean restart cost `R`. Converges to `work_seconds` as failures become
/// rare (`λ·w → 0`).
pub fn expected_runtime_with_restarts(work_seconds: f64, models: &[FailureModel]) -> f64 {
    assert!(work_seconds >= 0.0, "work must be non-negative");
    assert!(!models.is_empty(), "need at least one device");
    let lambda = fleet_rate(models);
    if lambda == 0.0 {
        return work_seconds;
    }
    let restart = models.iter().map(|m| m.restart_seconds).sum::<f64>() / models.len() as f64;
    (1.0 / lambda + restart) * ((lambda * work_seconds).exp_m1())
}

/// Fraction of the pool's aggregate speed that survives once the devices
/// in `failed` are removed — the capacity available to a shrink-and-retry
/// recovery. Duplicate or out-of-range indices in `failed` are ignored.
pub fn degraded_capacity(rel_speeds: &[f64], failed: &[usize]) -> f64 {
    let total: f64 = rel_speeds.iter().sum();
    assert!(total > 0.0, "speeds must sum to a positive value");
    let lost: f64 = rel_speeds
        .iter()
        .enumerate()
        .filter(|(i, _)| failed.contains(i))
        .map(|(_, s)| s)
        .sum();
    (total - lost) / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_decays_exponentially() {
        let m = FailureModel::new(1000.0, 10.0);
        assert!((m.survival(0.0) - 1.0).abs() < 1e-12);
        assert!((m.survival(1000.0) - (-1.0f64).exp()).abs() < 1e-12);
        assert!(m.failure_probability(100.0) > 0.0);
        assert!(m.failure_probability(100.0) < m.failure_probability(1000.0));
    }

    #[test]
    fn fleet_survival_is_product_of_members() {
        let ms = [
            FailureModel::new(1000.0, 0.0),
            FailureModel::new(2000.0, 0.0),
        ];
        let t = 500.0;
        let want = ms[0].survival(t) * ms[1].survival(t);
        assert!((fleet_survival(&ms, t) - want).abs() < 1e-12);
        // Equivalent to a single device at the pooled rate.
        assert!((fleet_survival(&ms, t) - (-t * fleet_rate(&ms)).exp()).abs() < 1e-12);
    }

    #[test]
    fn expected_runtime_approaches_work_when_failures_are_rare() {
        let reliable = [FailureModel::new(1e12, 10.0)];
        let w = 3600.0;
        let e = expected_runtime_with_restarts(w, &reliable);
        assert!((e - w).abs() / w < 1e-6, "E[T] = {e}, want ≈ {w}");
    }

    #[test]
    fn expected_runtime_grows_with_failure_rate() {
        let w = 1000.0;
        let slow_fail = [FailureModel::new(1e6, 30.0)];
        let fast_fail = [FailureModel::new(1e3, 30.0)];
        let e_slow = expected_runtime_with_restarts(w, &slow_fail);
        let e_fast = expected_runtime_with_restarts(w, &fast_fail);
        assert!(e_slow >= w);
        assert!(e_fast > e_slow);
    }

    #[test]
    fn typical_models_rank_cpu_most_reliable() {
        let cpu = FailureModel::typical(DeviceKind::Cpu);
        let gpu = FailureModel::typical(DeviceKind::Gpu);
        let phi = FailureModel::typical(DeviceKind::XeonPhi);
        assert!(cpu.mtbf_seconds > gpu.mtbf_seconds);
        assert!(gpu.mtbf_seconds > phi.mtbf_seconds);
    }

    #[test]
    fn degraded_capacity_removes_failed_share() {
        let speeds = [1.0, 2.0, 1.0];
        assert!((degraded_capacity(&speeds, &[]) - 1.0).abs() < 1e-12);
        assert!((degraded_capacity(&speeds, &[1]) - 0.5).abs() < 1e-12);
        assert!((degraded_capacity(&speeds, &[0, 2]) - 0.5).abs() < 1e-12);
        // Out-of-range indices are ignored.
        assert!((degraded_capacity(&speeds, &[7]) - 1.0).abs() < 1e-12);
    }
}
