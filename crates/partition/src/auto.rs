//! Automatic generation of the `{subp, subph, subpw}` arrays.
//!
//! Section IV of the paper notes that the arrays "have to be provided
//! manually … we believe that these arrays can be generated
//! automatically". This module does exactly that for arbitrary `p`: a
//! deterministic, seeded simulated-annealing search over grid partitions
//! (grid dimensions, cut positions, and the owner matrix) minimizing the
//! Section II objective — computation time from the speed functions plus
//! Hockney communication time — starting from the best constructive
//! layout (NRRP or, for three processors, the best §V shape) and refined
//! with the push technique's cut moves plus owner swaps.

use summagen_platform::speed::SpeedFunction;

use crate::columns::beaumont_column_layout;
use crate::cost::CostSummary;
use crate::distribution::proportional_areas;
use crate::nrrp::nrrp_layout;
use crate::refine::push_optimize;
use crate::shapes::ALL_FOUR_SHAPES;
use crate::spec::PartitionSpec;

/// Annealing iterations.
const ITERATIONS: usize = 800;
/// RNG seed (the search is fully deterministic given the seed).
const SEED: u64 = 42;
/// Hockney latency (s) for the objective.
const ALPHA: f64 = 1e-5;
/// Hockney reciprocal bandwidth (s/byte) for the objective.
const BETA: f64 = 4e-10;

/// A tiny deterministic RNG (xorshift64*), so the generator has no
/// dependency on global randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

fn objective(spec: &PartitionSpec, speeds: &[&dyn SpeedFunction]) -> f64 {
    CostSummary::analyze(spec, speeds, ALPHA, BETA).est_total_time
}

/// Generates a partition layout automatically for arbitrary `p`: 800
/// annealing iterations from seed 42, under a Hockney link of α = 1e-5 s
/// and β = 4e-10 s/byte.
///
/// Returns the best layout found and its objective value.
///
/// # Panics
/// Panics if `speeds` is empty or `n` is too small (`n < 2p`).
pub fn auto_layout(n: usize, speeds: &[&dyn SpeedFunction]) -> (PartitionSpec, f64) {
    let p = speeds.len();
    assert!(p >= 1, "no processors");
    assert!(n >= 2 * p, "n = {n} too small for p = {p}");

    // Constant-equivalent speeds for the constructive seeds (evaluated at
    // the proportional areas).
    let rough: Vec<f64> = speeds
        .iter()
        .map(|s| s.flops((n * n) as f64 / p as f64))
        .collect();
    let areas = proportional_areas(n, &rough);

    // Candidate seeds: NRRP, Beaumont columns, and (for p = 3) the four
    // named shapes — each already push-refined.
    let mut candidates: Vec<PartitionSpec> =
        vec![nrrp_layout(n, &rough), beaumont_column_layout(n, &rough)];
    if p == 3 {
        for shape in ALL_FOUR_SHAPES {
            candidates.push(shape.build(n, &areas));
        }
    }
    let mut best = None::<(PartitionSpec, f64)>;
    for cand in candidates {
        let refined = push_optimize(&cand, speeds, ALPHA, BETA, 10).spec;
        let cost = objective(&refined, speeds);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((refined, cost));
        }
    }
    let (mut current, mut current_cost) = best.expect("no seed candidate");
    let mut best_spec = current.clone();
    let mut best_cost = current_cost;

    // Annealing over owner swaps and cut moves.
    let mut rng = Rng::new(SEED);
    for it in 0..ITERATIONS {
        let temp = 0.1 * current_cost * (1.0 - it as f64 / ITERATIONS as f64).max(1e-3);
        let cells = current.grid_rows * current.grid_cols;
        let mut owners = current.owners.clone();
        let mut heights = current.heights.clone();
        let mut widths = current.widths.clone();

        match rng.below(3) {
            0 if cells > 1 => {
                // Reassign one cell to a random processor.
                owners[rng.below(cells)] = rng.below(p);
            }
            1 if current.grid_rows > 1 => {
                // Move a row cut.
                let at = rng.below(current.grid_rows - 1);
                let step = 1 + rng.below((n / 16).max(1));
                if rng.chance(0.5) && heights[at + 1] > step {
                    heights[at] += step;
                    heights[at + 1] -= step;
                } else if heights[at] > step {
                    heights[at] -= step;
                    heights[at + 1] += step;
                }
            }
            _ if current.grid_cols > 1 => {
                // Move a column cut.
                let at = rng.below(current.grid_cols - 1);
                let step = 1 + rng.below((n / 16).max(1));
                if rng.chance(0.5) && widths[at + 1] > step {
                    widths[at] += step;
                    widths[at + 1] -= step;
                } else if widths[at] > step {
                    widths[at] -= step;
                    widths[at + 1] += step;
                }
            }
            _ => continue,
        }

        // Every processor must keep at least one cell.
        let mut seen = vec![false; p];
        for &o in &owners {
            seen[o] = true;
        }
        if seen.iter().any(|&s| !s) {
            continue;
        }
        let cand = PartitionSpec::new(owners, heights, widths, p);
        let cost = objective(&cand, speeds);
        let accept = cost < current_cost
            || (temp > 0.0 && rng.chance(((current_cost - cost) / temp).exp().min(1.0)));
        if accept {
            current = cand;
            current_cost = cost;
            if cost < best_cost {
                best_cost = cost;
                best_spec = current.clone();
            }
        }
    }

    // Final polish with the push technique.
    let polished = push_optimize(&best_spec, speeds, ALPHA, BETA, 20);
    if polished.final_cost < best_cost {
        (polished.spec, polished.final_cost)
    } else {
        (best_spec, best_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_platform::speed::ConstantSpeed;

    fn dyn_speeds(v: &[ConstantSpeed]) -> Vec<&dyn SpeedFunction> {
        v.iter().map(|s| s as _).collect()
    }

    #[test]
    fn auto_layout_is_valid_and_deterministic() {
        let sp = vec![
            ConstantSpeed::new(1.0e9),
            ConstantSpeed::new(2.0e9),
            ConstantSpeed::new(0.9e9),
        ];
        let speeds = dyn_speeds(&sp);
        let (s1, c1) = auto_layout(64, &speeds);
        let (s2, c2) = auto_layout(64, &speeds);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
        assert_eq!(s1.areas().iter().sum::<usize>(), 64 * 64);
    }

    #[test]
    fn auto_layout_never_worse_than_best_named_shape() {
        let sp = vec![
            ConstantSpeed::new(1.0e9),
            ConstantSpeed::new(2.0e9),
            ConstantSpeed::new(0.9e9),
        ];
        let speeds = dyn_speeds(&sp);
        let n = 64;
        let (_, auto_cost) = auto_layout(n, &speeds);
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let cost = objective(&spec, &speeds);
            assert!(
                auto_cost <= cost + 1e-15,
                "auto {auto_cost} worse than {} ({cost})",
                shape.name()
            );
        }
    }

    #[test]
    fn auto_layout_works_for_many_processors() {
        let sp: Vec<ConstantSpeed> = (1..=6)
            .map(|i| ConstantSpeed::new(i as f64 * 1e9))
            .collect();
        let speeds = dyn_speeds(&sp);
        let (spec, cost) = auto_layout(96, &speeds);
        assert_eq!(spec.nprocs, 6);
        assert!(cost.is_finite() && cost > 0.0);
        // Faster processors get more area (up to grid granularity).
        let areas = spec.areas();
        assert!(areas[5] > areas[0], "areas {areas:?}");
    }

    #[test]
    fn single_processor_trivial() {
        let sp = vec![ConstantSpeed::new(1e9)];
        let speeds = dyn_speeds(&sp);
        let (spec, _) = auto_layout(16, &speeds);
        assert_eq!(spec.areas(), vec![256]);
    }
}
