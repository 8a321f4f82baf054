//! Heterogeneous platform simulation for the SummaGen reproduction.
//!
//! The paper runs on *HCLServer1*: a dual-socket Intel Haswell multicore
//! CPU, an Nvidia K40c GPU and an Intel Xeon Phi 3120P, organized as three
//! *abstract processors* (AbsCPU = 22 CPU cores; AbsGPU / AbsXeonPhi = the
//! accelerator plus its dedicated host core, including host↔device
//! transfers). We do not have that hardware, so this crate models it:
//!
//! * [`device`] — the Table I specifications as data, plus derived
//!   theoretical peaks.
//! * [`speed`] — speed functions (the paper's performance models): constant
//!   models, tabulated non-smooth functional performance models with
//!   piecewise-linear interpolation, and Akima-spline smoothing (the three
//!   model families FuPerMod supports).
//! * [`ooc`] — an out-of-core execution model for accelerators
//!   (ZZGemmOOC / XeonPhiOOC analogue): once a problem no longer fits in
//!   device memory, tiles are staged over PCIe and the effective speed
//!   drops, producing the characteristic dents of Fig. 5.
//! * [`profile`] — mechanistic builders for the three abstract processors'
//!   full speed functions (Fig. 5), combining an efficiency ramp, resource
//!   contention, and the out-of-core penalty.
//! * [`energy`] — the dynamic/static energy accounting of Section VI-C,
//!   including a 1 Hz WattsUp-style sampled meter.
//! * [`failure`] — exponential device-failure models (MTBF, survival,
//!   restart-from-scratch makespan) backing the fault-tolerant executor.
//! * [`stats`] — the Student's t-test measurement protocol (repeat until
//!   the sample mean is within a 95 % CI at 2.5 % precision).

pub mod device;
pub mod energy;
pub mod failure;
pub mod measurement;
pub mod ooc;
pub mod profile;
pub mod speed;
pub mod stats;

pub use device::{AbstractProcessor, DeviceKind, DeviceSpec, Platform};
pub use energy::{dynamic_energy, EnergyMeter, PowerModel};
pub use failure::{
    degraded_capacity, expected_runtime_with_restarts, fleet_rate, fleet_survival, FailureModel,
};
pub use measurement::{build_fpm_via_protocol, MeasuredPoint, NoisyTimer};
pub use ooc::OutOfCoreModel;
pub use profile::{abs_cpu_profile, abs_gpu_profile, abs_phi_profile, hclserver1};
pub use speed::{AkimaSpline, ConstantSpeed, SpeedFunction, TabulatedSpeed};
pub use stats::{measure_to_confidence, pearson_normality_test, MeasurementProtocol, SampleStats};
