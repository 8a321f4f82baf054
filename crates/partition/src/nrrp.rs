//! NRRP — non-rectangular recursive partitioning (Beaumont,
//! Eyraud-Dubois & Lambert, IPDPS 2016; reference \[11\] of the paper).
//!
//! NRRP combines the recursive guillotine partitioning of Nagamochi & Abe
//! with the square-corner idea of Becker et al.: a rectangle is
//! recursively divided among processor groups, and at the two-processor
//! base case a *square corner* is carved out whenever the speed ratio
//! makes it communication-cheaper (ratio > 3, see
//! [`crate::two_proc::SQUARE_CORNER_THRESHOLD`]), producing
//! non-rectangular zones. The full algorithm achieves a `2/√3`
//! approximation of the communication-volume lower bound `2·Σ√aᵢ`; this
//! implementation follows the same structure (guillotine splits on
//! balanced groups, square-corner base case) and empirically stays within
//! a few percent of that bound on realistic inputs (asserted in tests).
//!
//! Works for any number of processors and returns an ordinary
//! [`PartitionSpec`], so NRRP layouts run through SummaGen unchanged.

use crate::spec::PartitionSpec;
use crate::two_proc::SQUARE_CORNER_THRESHOLD;

/// A zone fragment in continuous coordinates.
#[derive(Debug, Clone, Copy)]
struct Rect {
    x: f64,
    y: f64,
    w: f64,
    h: f64,
}

impl Rect {
    fn area(&self) -> f64 {
        self.w * self.h
    }
    fn contains(&self, px: f64, py: f64) -> bool {
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }
}

/// Builds an NRRP layout for processors with the given positive speeds on
/// an `n × n` matrix.
///
/// # Panics
/// Panics if `speeds` is empty, contains a non-positive value, or
/// `n < 2 * speeds.len()` (too small to give everyone a cell).
pub fn nrrp_layout(n: usize, speeds: &[f64]) -> PartitionSpec {
    let p = speeds.len();
    assert!(p >= 1, "no processors");
    for (i, &s) in speeds.iter().enumerate() {
        assert!(s > 0.0 && s.is_finite(), "speed[{i}] = {s} invalid");
    }
    assert!(n >= 2 * p, "n = {n} too small for p = {p}");

    let total: f64 = speeds.iter().sum();
    let shares: Vec<(usize, f64)> = speeds.iter().map(|&s| s / total).enumerate().collect();
    let mut zones: Vec<Vec<Rect>> = vec![Vec::new(); p];
    recurse(
        Rect {
            x: 0.0,
            y: 0.0,
            w: n as f64,
            h: n as f64,
        },
        shares,
        &mut zones,
    );
    rects_to_spec(n, p, &zones)
}

/// Recursive division of `rect` among `procs` (processor id, share of the
/// *whole* matrix area). The shares of `procs` always sum to
/// `rect.area() / n²` by construction.
fn recurse(rect: Rect, mut procs: Vec<(usize, f64)>, zones: &mut Vec<Vec<Rect>>) {
    match procs.len() {
        0 => unreachable!("empty processor group"),
        1 => zones[procs[0].0].push(rect),
        2 => split_two(rect, procs[0], procs[1], zones),
        _ => {
            // Balanced bipartition of the group: LPT-style greedy on
            // shares sorted descending.
            procs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let mut left: Vec<(usize, f64)> = Vec::new();
            let mut right: Vec<(usize, f64)> = Vec::new();
            let (mut ls, mut rs) = (0.0, 0.0);
            for pr in procs {
                if ls <= rs {
                    ls += pr.1;
                    left.push(pr);
                } else {
                    rs += pr.1;
                    right.push(pr);
                }
            }
            let (ra, rb) = guillotine(rect, ls / (ls + rs));
            recurse(ra, left, zones);
            recurse(rb, right, zones);
        }
    }
}

/// Cuts `rect` perpendicular to its longer side, the first part taking
/// fraction `f` of the area.
fn guillotine(rect: Rect, f: f64) -> (Rect, Rect) {
    if rect.w >= rect.h {
        let w1 = rect.w * f;
        (
            Rect { w: w1, ..rect },
            Rect {
                x: rect.x + w1,
                w: rect.w - w1,
                ..rect
            },
        )
    } else {
        let h1 = rect.h * f;
        (
            Rect { h: h1, ..rect },
            Rect {
                y: rect.y + h1,
                h: rect.h - h1,
                ..rect
            },
        )
    }
}

/// Two-processor base case: square corner when the ratio warrants it and
/// the square fits; guillotine cut otherwise.
fn split_two(rect: Rect, a: (usize, f64), b: (usize, f64), zones: &mut [Vec<Rect>]) {
    // Ensure `a` is the bigger share.
    let (big, small) = if a.1 >= b.1 { (a, b) } else { (b, a) };
    let ratio = big.1 / small.1;
    let small_area = rect.area() * small.1 / (big.1 + small.1);
    let s = small_area.sqrt();
    if ratio > SQUARE_CORNER_THRESHOLD && s <= rect.w && s <= rect.h {
        // Square for the small processor in the bottom-right corner; the
        // big processor's L-shaped remainder as two rectangles.
        zones[small.0].push(Rect {
            x: rect.x + rect.w - s,
            y: rect.y + rect.h - s,
            w: s,
            h: s,
        });
        // Top strip (full width) + bottom-left block.
        zones[big.0].push(Rect {
            x: rect.x,
            y: rect.y,
            w: rect.w,
            h: rect.h - s,
        });
        zones[big.0].push(Rect {
            x: rect.x,
            y: rect.y + rect.h - s,
            w: rect.w - s,
            h: s,
        });
    } else {
        let (ra, rb) = guillotine(rect, big.1 / (big.1 + small.1));
        zones[big.0].push(ra);
        zones[small.0].push(rb);
    }
}

/// Converts continuous zones into a grid-aligned [`PartitionSpec`] by
/// refining all rectangle boundaries into global cuts and assigning each
/// grid cell to the zone containing its centre.
fn rects_to_spec(n: usize, p: usize, zones: &[Vec<Rect>]) -> PartitionSpec {
    let mut xcuts: Vec<usize> = vec![0, n];
    let mut ycuts: Vec<usize> = vec![0, n];
    for zone in zones {
        for r in zone {
            for v in [r.x, r.x + r.w] {
                xcuts.push(v.round().clamp(0.0, n as f64) as usize);
            }
            for v in [r.y, r.y + r.h] {
                ycuts.push(v.round().clamp(0.0, n as f64) as usize);
            }
        }
    }
    xcuts.sort_unstable();
    xcuts.dedup();
    ycuts.sort_unstable();
    ycuts.dedup();
    // `x` runs along columns, `y` along rows.
    let widths: Vec<usize> = xcuts.windows(2).map(|w| w[1] - w[0]).collect();
    let heights: Vec<usize> = ycuts.windows(2).map(|w| w[1] - w[0]).collect();
    let gc = widths.len();
    let gr = heights.len();

    let owner_of = |cx: f64, cy: f64| -> usize {
        for (proc, zone) in zones.iter().enumerate() {
            if zone.iter().any(|r| r.contains(cx, cy)) {
                return proc;
            }
        }
        // A centre can fall in a rounding sliver not covered by any zone
        // (cuts snapped); attribute it to the nearest zone centre.
        let mut best = (f64::INFINITY, 0);
        for (proc, zone) in zones.iter().enumerate() {
            for r in zone {
                let (zx, zy) = (r.x + r.w / 2.0, r.y + r.h / 2.0);
                let d = (zx - cx).powi(2) + (zy - cy).powi(2);
                if d < best.0 {
                    best = (d, proc);
                }
            }
        }
        best.1
    };

    let mut owners = vec![0usize; gr * gc];
    for bi in 0..gr {
        let cy = ycuts[bi] as f64 + heights[bi] as f64 / 2.0;
        for bj in 0..gc {
            let cx = xcuts[bj] as f64 + widths[bj] as f64 / 2.0;
            owners[bi * gc + bj] = owner_of(cx, cy);
        }
    }

    // Repair: every processor must own at least one cell (rounding can
    // erase a very small zone). Give a missing processor the cell closest
    // to its zone, stolen from a processor owning several cells.
    let mut widths = widths;
    let mut gc = gc;
    for (proc, zone) in zones.iter().enumerate() {
        if owners.contains(&proc) {
            continue;
        }
        // If no processor owns two cells yet, split the widest splittable
        // column so a donor cell exists.
        if owners
            .iter()
            .all(|&o| owners.iter().filter(|&&x| x == o).count() == 1)
        {
            let bj = (0..gc)
                .filter(|&j| widths[j] >= 2)
                .max_by_key(|&j| widths[j])
                .expect("matrix too small to repair");
            let w1 = widths[bj] / 2;
            let w2 = widths[bj] - w1;
            widths.splice(bj..=bj, [w1, w2]);
            xcuts.insert(bj + 1, xcuts[bj] + w1);
            let mut new_owners = Vec::with_capacity(gr * (gc + 1));
            for bi in 0..gr {
                for j in 0..gc {
                    new_owners.push(owners[bi * gc + j]);
                    if j == bj {
                        new_owners.push(owners[bi * gc + j]);
                    }
                }
            }
            owners = new_owners;
            gc += 1;
        }
        let (zx, zy) = {
            let r = zone.first().expect("zone with no rectangles");
            (r.x + r.w / 2.0, r.y + r.h / 2.0)
        };
        let mut best: Option<(f64, usize)> = None;
        for bi in 0..gr {
            let cy = ycuts[bi] as f64 + heights[bi] as f64 / 2.0;
            for bj in 0..gc {
                let idx = bi * gc + bj;
                let owner = owners[idx];
                let count = owners.iter().filter(|&&o| o == owner).count();
                if count <= 1 {
                    continue;
                }
                let cx = xcuts[bj] as f64 + widths[bj] as f64 / 2.0;
                let d = (zx - cx).powi(2) + (zy - cy).powi(2);
                if best.is_none() || d < best.unwrap().0 {
                    best = Some((d, idx));
                }
            }
        }
        owners[best.expect("no donatable cell").1] = proc;
    }

    PartitionSpec::new(owners, heights, widths, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::half_perimeter_lower_bound;
    use crate::distribution::proportional_areas;

    #[test]
    fn single_processor() {
        let spec = nrrp_layout(16, &[1.0]);
        assert_eq!(spec.areas(), vec![256]);
    }

    #[test]
    fn two_homogeneous_processors_get_straight_cut() {
        let spec = nrrp_layout(100, &[1.0, 1.0]);
        // Both zones rectangular, half the area each (±rounding).
        let areas = spec.areas();
        assert!((areas[0] as i64 - areas[1] as i64).unsigned_abs() < 400);
        for (proc, (h, w)) in spec.covering_rectangles().into_iter().enumerate() {
            assert_eq!(h * w, areas[proc], "proc {proc} should be rectangular");
        }
    }

    #[test]
    fn skewed_two_processors_get_square_corner() {
        let spec = nrrp_layout(1000, &[9.0, 1.0]);
        let areas = spec.areas();
        // Slow processor: ~10 % of the area, square covering rectangle.
        let frac = areas[1] as f64 / 1e6;
        assert!((frac - 0.1).abs() < 0.02, "slow fraction {frac}");
        let (h, w) = spec.covering_rectangles()[1];
        assert!(
            (h as i64 - w as i64).unsigned_abs() <= 2,
            "not square: {h}x{w}"
        );
        // Fast processor's zone is non-rectangular.
        let (h0, w0) = spec.covering_rectangles()[0];
        assert!(h0 * w0 > areas[0]);
    }

    #[test]
    fn areas_proportional_for_many_processors() {
        let n = 600;
        let speeds = [3.0, 1.0, 2.0, 0.5, 1.5];
        let spec = nrrp_layout(n, &speeds);
        let total: f64 = speeds.iter().sum();
        for (i, &a) in spec.areas().iter().enumerate() {
            let want = (n * n) as f64 * speeds[i] / total;
            let rel = (a as f64 - want).abs() / want;
            assert!(rel < 0.1, "proc {i}: area {a} want {want:.0}");
        }
    }

    #[test]
    fn stays_near_communication_lower_bound() {
        // NRRP's guarantee is 2/√3 ≈ 1.155; the integer-snapped version
        // should stay within ~1.30 on realistic inputs.
        for speeds in [
            vec![1.0, 2.0, 0.9],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![5.0, 1.0, 1.0],
            vec![8.0, 4.0, 2.0, 1.0, 1.0],
        ] {
            let n = 840;
            let spec = nrrp_layout(n, &speeds);
            let areas = proportional_areas(n, &speeds);
            let lb = half_perimeter_lower_bound(&areas);
            let ratio = spec.total_half_perimeter() as f64 / lb;
            assert!(
                (1.0..1.30).contains(&ratio),
                "speeds {speeds:?}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn beats_column_layout_under_strong_heterogeneity() {
        let n = 900;
        let speeds = [10.0, 1.0, 1.0];
        let nrrp = nrrp_layout(n, &speeds).total_half_perimeter();
        let cols = crate::columns::beaumont_column_layout(n, &speeds).total_half_perimeter();
        assert!(nrrp <= cols, "nrrp {nrrp} vs columns {cols}");
    }

    #[test]
    fn tiny_shares_are_repaired() {
        // One processor gets a nearly-invisible share; it must still own
        // at least one cell.
        let spec = nrrp_layout(64, &[100.0, 100.0, 0.01]);
        assert!(spec.areas().iter().all(|&a| a > 0));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_matrix() {
        nrrp_layout(4, &[1.0, 1.0, 1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// NRRP always yields a valid spec conserving area, for any
        /// speeds and processor counts.
        #[test]
        fn always_valid(
            n in 64usize..400,
            speeds in proptest::collection::vec(0.05f64..10.0, 1..8),
        ) {
            prop_assume!(n >= 2 * speeds.len());
            let spec = nrrp_layout(n, &speeds);
            prop_assert_eq!(spec.areas().iter().sum::<usize>(), n * n);
            prop_assert_eq!(spec.nprocs, speeds.len());
            prop_assert!(spec.areas().iter().all(|&a| a > 0));
        }
    }
}
