//! Shape refinement via the "Push Technique" (DeFlumere & Lastovetsky,
//! references \[9\], \[10\] of the paper).
//!
//! The Push Technique incrementally improves a candidate partition shape
//! by moving elements between processors whenever the move lowers the
//! objective. We implement it at sub-partition-grid granularity: the
//! moves shift a grid cut (a `subph`/`subpw` boundary) by a step,
//! re-evaluating the analytic cost model of Section II (computation time
//! from the speed functions plus Hockney communication time) and keeping
//! the move when it helps. Starting from any Section V layout this
//! hill-climbs to a locally push-optimal shape — which is exactly how the
//! DeFlumere candidates were derived by hand.

use summagen_platform::speed::SpeedFunction;

use crate::cost::CostSummary;
use crate::spec::PartitionSpec;

/// Result of a push optimization.
#[derive(Debug, Clone)]
pub struct PushResult {
    /// The refined partition.
    pub spec: PartitionSpec,
    /// Objective (estimated total time) before refinement.
    pub initial_cost: f64,
    /// Objective after refinement.
    pub final_cost: f64,
    /// Number of accepted moves.
    pub moves_accepted: usize,
}

fn objective(spec: &PartitionSpec, speeds: &[&dyn SpeedFunction], alpha: f64, beta: f64) -> f64 {
    CostSummary::analyze(spec, speeds, alpha, beta).est_total_time
}

/// One family of candidate moves: shift the boundary between two adjacent
/// entries of `dims` by `delta` (positive or negative), keeping both
/// positive. Returns the modified vector, or `None` if invalid.
fn shifted(dims: &[usize], at: usize, delta: isize) -> Option<Vec<usize>> {
    let a = dims[at] as isize + delta;
    let b = dims[at + 1] as isize - delta;
    if a < 1 || b < 1 {
        return None;
    }
    let mut out = dims.to_vec();
    out[at] = a as usize;
    out[at + 1] = b as usize;
    Some(out)
}

/// Greedy push optimization: repeatedly tries every grid-cut shift at a
/// geometric ladder of step sizes, accepting improving moves, until no
/// move improves or `max_rounds` is reached.
///
/// The returned partition has the same grid topology (owner matrix) as
/// the input — only the cut positions move, which is the grid-level
/// analogue of pushing element rows/columns between processors.
pub fn push_optimize(
    spec: &PartitionSpec,
    speeds: &[&dyn SpeedFunction],
    alpha: f64,
    beta: f64,
    max_rounds: usize,
) -> PushResult {
    assert_eq!(speeds.len(), spec.nprocs, "speed count != processor count");
    let mut current = spec.clone();
    let initial_cost = objective(&current, speeds, alpha, beta);
    let mut cost = initial_cost;
    let mut moves_accepted = 0;

    // Step ladder: from ~n/8 down to 1.
    let mut steps = Vec::new();
    let mut s = (spec.n / 8).max(1);
    loop {
        steps.push(s as isize);
        if s == 1 {
            break;
        }
        s /= 2;
    }

    for _ in 0..max_rounds {
        let mut improved = false;
        for &step in &steps {
            for delta in [step, -step] {
                // Row-cut moves.
                for at in 0..current.heights.len().saturating_sub(1) {
                    if let Some(heights) = shifted(&current.heights, at, delta) {
                        let cand = PartitionSpec::new(
                            current.owners.clone(),
                            heights,
                            current.widths.clone(),
                            current.nprocs,
                        );
                        let c = objective(&cand, speeds, alpha, beta);
                        if c < cost {
                            cost = c;
                            current = cand;
                            moves_accepted += 1;
                            improved = true;
                        }
                    }
                }
                // Column-cut moves.
                for at in 0..current.widths.len().saturating_sub(1) {
                    if let Some(widths) = shifted(&current.widths, at, delta) {
                        let cand = PartitionSpec::new(
                            current.owners.clone(),
                            current.heights.clone(),
                            widths,
                            current.nprocs,
                        );
                        let c = objective(&cand, speeds, alpha, beta);
                        if c < cost {
                            cost = c;
                            current = cand;
                            moves_accepted += 1;
                            improved = true;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }

    PushResult {
        spec: current,
        initial_cost,
        final_cost: cost,
        moves_accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::proportional_areas;
    use crate::shapes::{Shape, ALL_FOUR_SHAPES};
    use summagen_platform::speed::ConstantSpeed;

    fn speeds3() -> Vec<ConstantSpeed> {
        vec![
            ConstantSpeed::new(1.0e9),
            ConstantSpeed::new(2.0e9),
            ConstantSpeed::new(0.9e9),
        ]
    }

    fn dyn_speeds(v: &[ConstantSpeed]) -> Vec<&dyn SpeedFunction> {
        v.iter().map(|s| s as &dyn SpeedFunction).collect()
    }

    #[test]
    fn never_increases_the_objective() {
        let n = 128;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let sp = speeds3();
        let speeds = dyn_speeds(&sp);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let r = push_optimize(&spec, &speeds, 1e-5, 4e-10, 20);
            assert!(
                r.final_cost <= r.initial_cost + 1e-15,
                "{}: {} -> {}",
                shape.name(),
                r.initial_cost,
                r.final_cost
            );
        }
    }

    #[test]
    fn repairs_a_deliberately_bad_layout() {
        // Equal speeds but a wildly skewed 1D cut: push must rebalance.
        let n = 96;
        let spec = PartitionSpec::new(vec![0, 1, 2], vec![n], vec![80, 8, 8], 3);
        let sp = vec![
            ConstantSpeed::new(1.0e9),
            ConstantSpeed::new(1.0e9),
            ConstantSpeed::new(1.0e9),
        ];
        let speeds = dyn_speeds(&sp);
        let r = push_optimize(&spec, &speeds, 1e-5, 4e-10, 50);
        assert!(r.moves_accepted > 0);
        assert!(
            r.final_cost < r.initial_cost * 0.5,
            "only reached {}",
            r.final_cost
        );
        // Near-balanced widths at the optimum.
        let w = &r.spec.widths;
        assert!(w.iter().all(|&x| (24..=40).contains(&x)), "widths {w:?}");
    }

    #[test]
    fn preserves_grid_topology_and_total_area() {
        let n = 64;
        let areas = proportional_areas(n, &[1.0, 3.0, 0.5]);
        let spec = Shape::SquareCorner.build(n, &areas);
        let sp = speeds3();
        let r = push_optimize(&spec, &dyn_speeds(&sp), 1e-5, 4e-10, 10);
        assert_eq!(r.spec.owners, spec.owners);
        assert_eq!(r.spec.areas().iter().sum::<usize>(), n * n);
    }

    #[test]
    fn already_optimal_layout_is_a_fixed_point() {
        // Perfectly balanced 1D layout with equal speeds and near-free
        // communication: no move should help by more than rounding.
        let n = 90;
        let spec = PartitionSpec::new(vec![0, 1, 2], vec![n], vec![30, 30, 30], 3);
        let sp = vec![
            ConstantSpeed::new(1.0e9),
            ConstantSpeed::new(1.0e9),
            ConstantSpeed::new(1.0e9),
        ];
        let r = push_optimize(&spec, &dyn_speeds(&sp), 0.0, 0.0, 10);
        assert_eq!(r.moves_accepted, 0);
        assert_eq!(r.spec.widths, vec![30, 30, 30]);
    }
}
