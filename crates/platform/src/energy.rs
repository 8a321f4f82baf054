//! Energy accounting — Section VI-C of the paper.
//!
//! The paper measures the whole platform with a WattsUp Pro meter (1 sample
//! per second, ±3 % accuracy), fixes the fans at full speed so their draw is
//! part of static power, and computes the *dynamic* energy as
//! `E_D = E_T − P_S · T_E` (Equation 5). We model the same pipeline: every
//! device contributes its dynamic power while busy; a simulated meter
//! samples the resulting platform power at 1 Hz; dynamic energy is then
//! derived exactly as in the paper.

/// Equation 5 of the paper: dynamic energy from total energy, static power
/// and execution time.
pub fn dynamic_energy(total_energy_j: f64, static_power_w: f64, exec_time_s: f64) -> f64 {
    total_energy_j - static_power_w * exec_time_s
}

/// Per-device dynamic power model for an application run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Platform static power in watts (230 W on HCLServer1, fans at full).
    pub static_power_w: f64,
    /// Per-device dynamic power when computing, in watts.
    pub compute_power_w: Vec<f64>,
    /// Fraction of compute power drawn while a device is communicating
    /// or waiting (DRAM/NIC activity without core activity).
    pub comm_power_fraction: f64,
}

impl PowerModel {
    /// Creates a power model.
    pub fn new(static_power_w: f64, compute_power_w: Vec<f64>) -> Self {
        assert!(!compute_power_w.is_empty(), "power model needs devices");
        Self {
            static_power_w,
            compute_power_w,
            comm_power_fraction: 0.15,
        }
    }

    /// Exact dynamic energy (J) of a run in which device `i` computed for
    /// `comp[i]` seconds and communicated/waited for `comm[i]` seconds.
    pub fn dynamic_energy_exact(&self, comp: &[f64], comm: &[f64]) -> f64 {
        assert_eq!(comp.len(), self.compute_power_w.len(), "device count");
        assert_eq!(comm.len(), self.compute_power_w.len(), "device count");
        comp.iter()
            .zip(comm)
            .zip(&self.compute_power_w)
            .map(|((&tc, &tm), &p)| p * tc + p * self.comm_power_fraction * tm)
            .sum()
    }
}

/// A simulated WattsUp-style meter: builds a per-device busy timeline,
/// samples platform power at a fixed rate, and integrates.
///
/// Each device's busy time is laid out from the start of the run (the
/// integral of power over the run does not depend on placement, but the
/// sampled estimate quantizes exactly like the real meter does).
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    /// Sampling interval in seconds (1.0 for the WattsUp Pro).
    pub sample_interval_s: f64,
    /// Fractional accuracy of each sample (±3 % in the datasheet); applied
    /// as a deterministic worst-case bound, not injected noise.
    pub accuracy: f64,
}

impl Default for EnergyMeter {
    fn default() -> Self {
        Self {
            sample_interval_s: 1.0,
            accuracy: 0.03,
        }
    }
}

/// Result of a metered run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterReading {
    /// Total sampled energy (J).
    pub total_energy_j: f64,
    /// Dynamic energy per Equation 5 (J).
    pub dynamic_energy_j: f64,
    /// Execution time the meter observed (s).
    pub exec_time_s: f64,
}

impl EnergyMeter {
    /// Samples a run: device `i` computes for `comp[i]` s and
    /// communicates for `comm[i]` s within a run of `exec_time_s` s.
    pub fn sample_run(
        &self,
        model: &PowerModel,
        comp: &[f64],
        comm: &[f64],
        exec_time_s: f64,
    ) -> MeterReading {
        assert!(exec_time_s >= 0.0, "negative execution time");
        assert_eq!(comp.len(), model.compute_power_w.len());
        assert_eq!(comm.len(), model.compute_power_w.len());
        let dt = self.sample_interval_s;
        let steps = (exec_time_s / dt).ceil().max(1.0) as usize;
        let mut total = 0.0;
        for k in 0..steps {
            let t0 = k as f64 * dt;
            let t1 = (t0 + dt).min(exec_time_s);
            if t1 <= t0 {
                break;
            }
            // Midpoint sample of platform power.
            let tm = 0.5 * (t0 + t1);
            let mut power = model.static_power_w;
            for (i, &p) in model.compute_power_w.iter().enumerate() {
                // Busy layout per device: compute first, then comm.
                if tm < comp[i] {
                    power += p;
                } else if tm < comp[i] + comm[i] {
                    power += p * model.comm_power_fraction;
                }
            }
            total += power * (t1 - t0);
        }
        MeterReading {
            total_energy_j: total,
            dynamic_energy_j: dynamic_energy(total, model.static_power_w, exec_time_s),
            exec_time_s,
        }
    }
}

/// Dynamic power draws of the three HCLServer1 abstract processors,
/// in platform rank order (AbsCPU, AbsGPU, AbsXeonPhi).
pub fn hclserver1_power_model() -> PowerModel {
    PowerModel::new(230.0, vec![155.0, 130.0, 110.0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation5_dynamic_energy() {
        // E_T = 1000 J over 2 s at P_S = 230 W -> E_D = 540 J.
        assert!((dynamic_energy(1000.0, 230.0, 2.0) - 540.0).abs() < 1e-9);
    }

    #[test]
    fn exact_dynamic_energy_sums_devices() {
        let m = PowerModel::new(230.0, vec![100.0, 200.0]);
        // Device 0 computes 2 s; device 1 computes 1 s and comms 1 s.
        let e = m.dynamic_energy_exact(&[2.0, 1.0], &[0.0, 1.0]);
        let want = 100.0 * 2.0 + 200.0 * 1.0 + 200.0 * 0.15;
        assert!((e - want).abs() < 1e-9);
    }

    #[test]
    fn meter_matches_exact_energy_for_long_runs() {
        let m = hclserver1_power_model();
        let comp = [40.0, 35.0, 38.0];
        let comm = [2.0, 4.0, 3.0];
        let t = 45.0;
        let reading = EnergyMeter::default().sample_run(&m, &comp, &comm, t);
        let exact = m.dynamic_energy_exact(&comp, &comm);
        let rel = (reading.dynamic_energy_j - exact).abs() / exact;
        // 1 Hz quantization error over a 45 s run stays small.
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn meter_total_includes_static_power() {
        let m = PowerModel::new(230.0, vec![0.0]);
        let r = EnergyMeter::default().sample_run(&m, &[0.0], &[0.0], 10.0);
        assert!((r.total_energy_j - 2300.0).abs() < 1.0);
        assert!(r.dynamic_energy_j.abs() < 1.0);
    }

    #[test]
    fn meter_handles_fractional_final_sample() {
        let m = PowerModel::new(100.0, vec![0.0]);
        let r = EnergyMeter::default().sample_run(&m, &[0.0], &[0.0], 2.5);
        assert!((r.total_energy_j - 250.0).abs() < 1e-9);
    }

    #[test]
    fn meter_zero_duration_run() {
        let m = PowerModel::new(100.0, vec![10.0]);
        let r = EnergyMeter::default().sample_run(&m, &[0.0], &[0.0], 0.0);
        assert_eq!(r.total_energy_j, 0.0);
    }

    #[test]
    #[should_panic(expected = "device count")]
    fn mismatched_device_counts_rejected() {
        let m = PowerModel::new(230.0, vec![100.0]);
        m.dynamic_energy_exact(&[1.0, 2.0], &[0.0, 0.0]);
    }
}
