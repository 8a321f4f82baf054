//! Device specifications (the paper's Table I) and abstract processors.

use std::sync::Arc;

use crate::speed::SpeedFunction;

/// The kind of computing device backing an abstract processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A group of host CPU cores.
    Cpu,
    /// A discrete GPU plus its dedicated host core.
    Gpu,
    /// A many-core coprocessor (Xeon Phi) plus its dedicated host core.
    XeonPhi,
}

/// Hardware description of one device, mirroring Table I of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Device kind.
    pub kind: DeviceKind,
    /// Number of cores available to the abstract processor.
    pub cores: u32,
    /// Device (or host share) memory in bytes.
    pub memory_bytes: u64,
    /// Memory bandwidth in bytes/second.
    pub memory_bandwidth: f64,
    /// Theoretical peak double-precision performance in FLOP/s.
    pub peak_flops: f64,
    /// Host↔device link bandwidth in bytes/second (PCIe for accelerators;
    /// `None` for the CPU, which needs no staging).
    pub link_bandwidth: Option<f64>,
    /// Dynamic power draw when busy, in watts (used by the energy study).
    pub dynamic_power_w: f64,
}

/// AbsCPU: 22 cores of the dual-socket Haswell E5-2670 v3 (two cores are
/// dedicated to driving the accelerators). Peaks are scaled so the
/// platform total matches the paper's 2.5 TFLOPs.
pub const HASWELL_E5_2670V3: DeviceSpec = DeviceSpec {
    name: "Intel Haswell E5-2670 v3 (22 cores)",
    kind: DeviceKind::Cpu,
    cores: 22,
    memory_bytes: 64 * 1024 * 1024 * 1024,
    memory_bandwidth: 68.0e9,
    peak_flops: 0.6e12,
    link_bandwidth: None,
    dynamic_power_w: 155.0,
};

/// AbsGPU: Nvidia K40c plus a dedicated host core.
pub const NVIDIA_K40C: DeviceSpec = DeviceSpec {
    name: "Nvidia K40c",
    kind: DeviceKind::Gpu,
    cores: 2880,
    memory_bytes: 12 * 1024 * 1024 * 1024,
    memory_bandwidth: 288.0e9,
    peak_flops: 1.2e12,
    link_bandwidth: Some(10.0e9),
    dynamic_power_w: 130.0,
};

/// AbsXeonPhi: Intel Xeon Phi 3120P plus a dedicated host core.
pub const XEON_PHI_3120P: DeviceSpec = DeviceSpec {
    name: "Intel Xeon Phi 3120P",
    kind: DeviceKind::XeonPhi,
    cores: 57,
    memory_bytes: 6 * 1024 * 1024 * 1024,
    memory_bandwidth: 240.0e9,
    peak_flops: 0.7e12,
    link_bandwidth: Some(7.0e9),
    dynamic_power_w: 110.0,
};

/// One abstract processor: a device plus the speed function that models the
/// PMM kernel running on it (with contention from the other kernels, as the
/// paper measures simultaneously).
#[derive(Clone)]
pub struct AbstractProcessor {
    /// The backing device.
    pub spec: DeviceSpec,
    /// Speed function: achieved FLOP/s as a function of the partition area
    /// assigned to this processor (see [`crate::speed::SpeedFunction`]).
    pub speed: Arc<dyn SpeedFunction>,
}

/// Dimension below which a DGEMM operand panel stops amortizing kernel
/// overheads (blocking, packing, thread startup). Used by
/// [`aspect_efficiency`].
pub const ASPECT_KNEE: f64 = 48.0;

/// Relative DGEMM kernel efficiency of an `m × k` by `k × w` multiply with
/// large `k`: sliver-shaped outputs (tiny `m` or `w`) under-utilize the
/// kernel. `1 / (1 + knee/m + knee/w)` — ≈ 1 for fat blocks, dropping
/// smoothly for thin ones. This is what makes partition *shape* (not just
/// area) matter for computation time, as the paper observes in Fig. 7b.
pub fn aspect_efficiency(m: usize, w: usize) -> f64 {
    if m == 0 || w == 0 {
        return 1.0;
    }
    1.0 / (1.0 + ASPECT_KNEE / m as f64 + ASPECT_KNEE / w as f64)
}

impl AbstractProcessor {
    /// Creates an abstract processor.
    pub fn new(spec: DeviceSpec, speed: Arc<dyn SpeedFunction>) -> Self {
        Self { spec, speed }
    }

    /// Execution time of a local DGEMM performing `flops` floating-point
    /// operations, with `area` the processor's total partition area (the
    /// problem-size argument of its speed function).
    pub fn compute_time(&self, flops: f64, area: f64) -> f64 {
        assert!(flops >= 0.0, "negative flops");
        if flops == 0.0 {
            return 0.0;
        }
        let s = self.speed.flops(area);
        assert!(s > 0.0, "speed function returned non-positive speed {s}");
        flops / s
    }

    /// Execution time of one `m × k` by `k × w` sub-partition DGEMM,
    /// including the aspect-ratio kernel efficiency. `area` is the
    /// processor's total partition area (speed-function argument).
    pub fn dgemm_time(&self, m: usize, k: usize, w: usize, area: f64) -> f64 {
        let flops = 2.0 * m as f64 * k as f64 * w as f64;
        if flops == 0.0 {
            return 0.0;
        }
        self.compute_time(flops, area) / aspect_efficiency(m, w)
    }
}

impl std::fmt::Debug for AbstractProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbstractProcessor")
            .field("spec", &self.spec.name)
            .finish()
    }
}

/// A heterogeneous platform: an ordered set of abstract processors plus the
/// platform-level static power (the 230 W of HCLServer1).
#[derive(Debug, Clone)]
pub struct Platform {
    /// The abstract processors, in rank order.
    pub processors: Vec<AbstractProcessor>,
    /// Static power of the whole platform in watts.
    pub static_power_w: f64,
}

impl Platform {
    /// Creates a platform.
    pub fn new(processors: Vec<AbstractProcessor>, static_power_w: f64) -> Self {
        assert!(!processors.is_empty(), "platform needs processors");
        assert!(static_power_w >= 0.0, "negative static power");
        Self {
            processors,
            static_power_w,
        }
    }

    /// Number of abstract processors.
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// Whether the platform has no processors (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.processors.is_empty()
    }

    /// Sum of the theoretical peaks — the paper's 2.5 TFLOPs reference.
    pub fn theoretical_peak_flops(&self) -> f64 {
        self.processors.iter().map(|p| p.spec.peak_flops).sum()
    }

    /// Speeds of all processors evaluated at the given partition areas,
    /// in FLOP/s.
    pub fn speeds_at(&self, areas: &[f64]) -> Vec<f64> {
        assert_eq!(areas.len(), self.len(), "area count != processor count");
        self.processors
            .iter()
            .zip(areas)
            .map(|(p, &a)| p.speed.flops(a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::ConstantSpeed;

    #[test]
    fn table1_peaks_sum_to_paper_total() {
        let total =
            HASWELL_E5_2670V3.peak_flops + NVIDIA_K40C.peak_flops + XEON_PHI_3120P.peak_flops;
        assert!((total - 2.5e12).abs() < 1e6, "total peak {total}");
    }

    #[test]
    fn table1_fields_match_paper() {
        assert_eq!(HASWELL_E5_2670V3.cores, 22);
        assert_eq!(NVIDIA_K40C.cores, 2880);
        assert_eq!(XEON_PHI_3120P.cores, 57);
        assert_eq!(NVIDIA_K40C.memory_bytes, 12 << 30);
        assert_eq!(XEON_PHI_3120P.memory_bytes, 6 << 30);
        assert_eq!(HASWELL_E5_2670V3.memory_bandwidth, 68.0e9);
        assert_eq!(NVIDIA_K40C.memory_bandwidth, 288.0e9);
        assert_eq!(XEON_PHI_3120P.memory_bandwidth, 240.0e9);
    }

    #[test]
    fn compute_time_inversely_proportional_to_speed() {
        let fast = AbstractProcessor::new(NVIDIA_K40C, Arc::new(ConstantSpeed::new(2.0e12)));
        let slow = AbstractProcessor::new(XEON_PHI_3120P, Arc::new(ConstantSpeed::new(1.0e12)));
        let flops = 8.0e12;
        assert!((fast.compute_time(flops, 0.0) - 4.0).abs() < 1e-12);
        assert!((slow.compute_time(flops, 0.0) - 8.0).abs() < 1e-12);
        assert_eq!(fast.compute_time(0.0, 0.0), 0.0);
    }

    #[test]
    fn aspect_efficiency_penalizes_slivers() {
        assert!(aspect_efficiency(4096, 4096) > 0.97);
        assert!(aspect_efficiency(100, 4096) < aspect_efficiency(1000, 4096));
        assert!(aspect_efficiency(10, 10) < 0.15);
        // Symmetric in m and w.
        assert_eq!(aspect_efficiency(64, 512), aspect_efficiency(512, 64));
        assert_eq!(aspect_efficiency(0, 5), 1.0);
    }

    #[test]
    fn dgemm_time_slower_for_slivers_of_equal_flops() {
        let p = AbstractProcessor::new(NVIDIA_K40C, Arc::new(ConstantSpeed::new(1.0e12)));
        // Same flops: 1024x1024 vs 64x16384 outputs.
        let fat = p.dgemm_time(1024, 1000, 1024, 0.0);
        let thin = p.dgemm_time(64, 1000, 16_384, 0.0);
        assert!(thin > fat, "thin {thin} fat {fat}");
        assert_eq!(p.dgemm_time(0, 10, 10, 0.0), 0.0);
    }

    #[test]
    fn platform_aggregates() {
        let p = Platform::new(
            vec![
                AbstractProcessor::new(HASWELL_E5_2670V3, Arc::new(ConstantSpeed::new(0.5e12))),
                AbstractProcessor::new(NVIDIA_K40C, Arc::new(ConstantSpeed::new(1.0e12))),
                AbstractProcessor::new(XEON_PHI_3120P, Arc::new(ConstantSpeed::new(0.45e12))),
            ],
            230.0,
        );
        assert_eq!(p.len(), 3);
        assert!((p.theoretical_peak_flops() - 2.5e12).abs() < 1e6);
        let speeds = p.speeds_at(&[1.0, 1.0, 1.0]);
        assert_eq!(speeds, vec![0.5e12, 1.0e12, 0.45e12]);
    }

    #[test]
    #[should_panic(expected = "platform needs processors")]
    fn empty_platform_rejected() {
        Platform::new(vec![], 230.0);
    }
}
