//! Energy-optimal workload distribution — the paper's stated open problem
//! ("whether these shapes are optimal for dynamic energy is a subject for
//! our current research", Section VI-C / VII).
//!
//! Where the load-imbalancing partitioner minimizes the *parallel time*
//! `max_i t_i(a_i)`, the dynamic energy of a run is *additive*:
//! `E_D = Σ_i P_i · t_i(a_i)` (each device draws its dynamic power while
//! it computes). The two objectives generally disagree: a power-hungry
//! fast device may be time-optimal to load heavily but energy-optimal to
//! load lightly. This module finds the energy-optimal distribution over
//! the same discrete FPM grid by dynamic programming.

use crate::distribution::{grid_optimal_areas, DiscreteFpm};

/// Finds the grid distribution minimizing total dynamic energy
/// `Σ_i P_i · t_i(k_i)` with `Σ k_i = g`, `k_i ≥ 1`, exactly: the search of
/// [`crate::distribution::load_imbalancing_areas`] with an additive
/// objective (sum layers instead of max layers, the same path recovery).
///
/// `powers[i]` is the dynamic power draw (watts) of processor `i` while
/// computing. Returns areas per processor summing to `n²`.
///
/// # Panics
/// Panics on mismatched FPM grids, `powers.len() != fpms.len()`, an invalid
/// power, a NaN time or when every distribution costs infinite energy.
pub fn energy_optimal_areas(n: usize, fpms: &[DiscreteFpm], powers: &[f64]) -> Vec<f64> {
    assert_eq!(powers.len(), fpms.len(), "power count != processor count");
    for (i, &w) in powers.iter().enumerate() {
        assert!(w > 0.0 && w.is_finite(), "power[{i}] = {w} invalid");
    }
    grid_optimal_areas(n, fpms, |i, t| powers[i] * t, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{load_imbalancing_areas, partition_time};
    use summagen_platform::speed::ConstantSpeed;

    fn fpms3(n: usize, speeds: &[f64], g: usize) -> Vec<DiscreteFpm> {
        speeds
            .iter()
            .map(|&s| DiscreteFpm::from_speed(&ConstantSpeed::new(s), n, g))
            .collect()
    }

    #[test]
    fn prefers_the_energy_efficient_processor() {
        // Two processors, equal speed — but P0 draws 4x the power. The
        // energy optimum pushes almost everything to P1 (each takes >= 1
        // grid step).
        let n = 256;
        let fpms = fpms3(n, &[1.0e9, 1.0e9], 64);
        let areas = energy_optimal_areas(n, &fpms, &[400.0, 100.0]);
        assert!(
            areas[1] > areas[0] * 10.0,
            "expected P1 to take nearly everything: {areas:?}"
        );
    }

    #[test]
    fn equal_powers_reduce_to_flops_per_joule_ordering() {
        // With equal powers, energy = power * total busy time: loading
        // the fastest processor most is optimal.
        let n = 256;
        let fpms = fpms3(n, &[1.0e9, 3.0e9, 1.0e9], 64);
        let areas = energy_optimal_areas(n, &fpms, &[100.0, 100.0, 100.0]);
        assert!(areas[1] > areas[0] && areas[1] > areas[2], "{areas:?}");
    }

    #[test]
    fn energy_optimum_beats_time_optimum_on_energy() {
        // A fast but power-hungry device: the time-optimal distribution
        // must cost at least as much energy as the energy-optimal one.
        let n = 512;
        let g = 96;
        let speeds = [2.0e9, 1.0e9, 0.5e9];
        let powers = [500.0, 120.0, 60.0];
        let fpms = fpms3(n, &speeds, g);
        let e_areas = energy_optimal_areas(n, &fpms, &powers);
        let t_areas = load_imbalancing_areas(n, &fpms);
        let energy = |areas: &[f64]| -> f64 {
            areas
                .iter()
                .zip(&speeds)
                .zip(&powers)
                .map(|((&a, &s), &w)| w * partition_time(a, n, &ConstantSpeed::new(s)))
                .sum()
        };
        assert!(
            energy(&e_areas) <= energy(&t_areas) + 1e-9,
            "energy opt {} vs time opt {}",
            energy(&e_areas),
            energy(&t_areas)
        );
        // And the time optimum is at least as fast.
        let time = |areas: &[f64]| -> f64 {
            areas
                .iter()
                .zip(&speeds)
                .map(|(&a, &s)| partition_time(a, n, &ConstantSpeed::new(s)))
                .fold(0.0, f64::max)
        };
        assert!(time(&t_areas) <= time(&e_areas) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "power count")]
    fn rejects_mismatched_powers() {
        let fpms = fpms3(64, &[1.0e9, 1.0e9], 16);
        energy_optimal_areas(64, &fpms, &[100.0]);
    }

    #[test]
    fn every_processor_keeps_some_work() {
        let n = 128;
        let fpms = fpms3(n, &[1.0e9, 1.0e9, 1.0e9], 32);
        let areas = energy_optimal_areas(n, &fpms, &[1000.0, 10.0, 10.0]);
        assert!(areas.iter().all(|&a| a > 0.0), "{areas:?}");
        assert!((areas.iter().sum::<f64>() - (n * n) as f64).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "FPM 2 has a NaN time at step 7")]
    fn rejects_nan_times() {
        let mut fpms = fpms3(64, &[1.0e9, 1.0e9, 1.0e9], 16);
        fpms[2].times[7] = f64::NAN;
        energy_optimal_areas(64, &fpms, &[100.0, 100.0, 100.0]);
    }

    /// `energy_optimal_areas` as it was while it stored a choice table per
    /// processor, verbatim.
    fn choice_table_areas(n: usize, fpms: &[DiscreteFpm], powers: &[f64]) -> Vec<f64> {
        let p = fpms.len();
        assert!(p >= 1, "no FPMs");
        assert_eq!(powers.len(), p, "power count != processor count");
        for (i, &w) in powers.iter().enumerate() {
            assert!(w > 0.0 && w.is_finite(), "power[{i}] = {w} invalid");
        }
        let g = fpms[0].steps();
        for f in fpms {
            assert_eq!(f.steps(), g, "FPMs must share one grid");
        }
        assert!(p <= g, "grid too coarse: {p} processors, {g} steps");

        let inf = f64::INFINITY;
        // dp[c] = minimal total energy assigning c steps to procs 0..=i.
        let mut dp = vec![inf; g + 1];
        for (k, slot) in dp.iter_mut().enumerate().skip(1) {
            *slot = powers[0] * fpms[0].times[k];
        }
        let mut choices: Vec<Vec<usize>> = vec![(0..=g).collect()];
        for (i, fpm) in fpms.iter().enumerate().skip(1) {
            let mut next = vec![inf; g + 1];
            let mut choice = vec![0usize; g + 1];
            for c in 0..=g {
                if dp[c].is_finite() {
                    for k in 1..=(g - c) {
                        let cand = dp[c] + powers[i] * fpm.times[k];
                        if cand < next[c + k] {
                            next[c + k] = cand;
                            choice[c + k] = k;
                        }
                    }
                }
            }
            dp = next;
            choices.push(choice);
        }
        assert!(dp[g].is_finite(), "no feasible distribution");

        let mut ks = vec![0usize; p];
        let mut c = g;
        for i in (1..p).rev() {
            ks[i] = choices[i][c];
            c -= ks[i];
        }
        ks[0] = c;

        let n2 = (n * n) as f64;
        let gran = fpms[0].granularity;
        let mut areas: Vec<f64> = ks.iter().map(|&k| k as f64 * gran).collect();
        let sum: f64 = areas.iter().sum();
        let idx = (0..p)
            .max_by(|&a, &b| areas[a].partial_cmp(&areas[b]).unwrap())
            .unwrap();
        areas[idx] += n2 - sum;
        areas
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The shared value-only search, with a `+` combine, returns the
        /// choice-table DP's areas bit for bit: `p` in 1..=6, `g` in
        /// `p..=64`, tied and `+∞` times, powers in `[1, 500)` W.
        #[test]
        fn search_equals_the_choice_table_dp(
            p in 1usize..7,
            extra in 0usize..64,
            seed in 0u64..u64::MAX,
            power_seed in 0u64..u64::MAX,
        ) {
            let g = p + extra % (65 - p);
            let fpms = crate::distribution::oracle::random_fpms(seed, 97, p, g);
            let mut rng = proptest::TestRng::new(power_seed);
            let powers: Vec<f64> = (0..p)
                .map(|_| 1.0 + (rng.next_u64() % 499) as f64 + 0.25 * (rng.next_u64() % 4) as f64)
                .collect();
            let bits = |a: Vec<f64>| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(
                bits(energy_optimal_areas(97, &fpms, &powers)),
                bits(choice_table_areas(97, &fpms, &powers)),
                "p {} g {} seed {} powers {:?}", p, g, seed, powers
            );
        }
    }
}
