//! Speed functions — the paper's performance models.
//!
//! Following Section II, a processor's speed is a function of the problem
//! size assigned to it. The paper measures speed on square `x × x` matrix
//! multiplications as `s = 2·x³ / t` and indexes the function by the
//! partition *area* `a = x²` when partitioning (the simplifying assumption
//! at the end of Section II). We adopt the same convention: `flops(area)`
//! returns the achieved FLOP/s when the processor computes a partition of
//! `area` elements of `C`.
//!
//! Three families are provided, matching the models FuPerMod (the paper's
//! reference implementation for rectangular partitioning) supports:
//! constant models, piecewise-linear interpolated functional performance
//! models (FPMs), and Akima-spline FPMs.

/// A speed function of problem size (partition area, in matrix elements).
pub trait SpeedFunction: Send + Sync + 'static {
    /// Achieved FLOP/s at the given partition area. Must be positive for
    /// any non-negative area.
    fn flops(&self, area: f64) -> f64;

    /// Equivalent square problem size for an area (`x = sqrt(a)`), a
    /// convenience for plotting Fig. 5-style profiles.
    fn flops_at_square(&self, x: f64) -> f64 {
        self.flops(x * x)
    }

    /// Pushes `self.flops(a)` onto `out` for each area in `areas`, bit for
    /// bit. Any order is correct; a model may make ascending areas (an FPM
    /// grid) cheaper than one [`SpeedFunction::flops`] call each.
    fn flops_ascending(&self, areas: &[f64], out: &mut Vec<f64>) {
        out.extend(areas.iter().map(|&a| self.flops(a)));
    }
}

/// Constant performance model (CPM): speed does not depend on problem size.
/// This is the model of Kalinov/Beaumont and of the paper's Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSpeed {
    flops: f64,
}

impl ConstantSpeed {
    /// Creates a constant-speed model.
    ///
    /// # Panics
    /// Panics unless `flops` is positive and finite.
    pub fn new(flops: f64) -> Self {
        assert!(flops > 0.0 && flops.is_finite(), "invalid speed {flops}");
        Self { flops }
    }
}

impl SpeedFunction for ConstantSpeed {
    fn flops(&self, _area: f64) -> f64 {
        self.flops
    }
}

/// A tabulated (possibly non-smooth) functional performance model with
/// piecewise-linear interpolation between sample points and constant
/// extrapolation beyond them. This is what the paper's load-imbalancing
/// partitioner consumes: discrete speed functions with real drops and
/// variations, no shape assumptions.
///
/// ```
/// use summagen_platform::speed::{SpeedFunction, TabulatedSpeed};
///
/// // A device that slows down sharply past area 1e6 (e.g. out-of-core).
/// let s = TabulatedSpeed::new(vec![(0.0, 1.0e12), (1.0e6, 1.0e12), (2.0e6, 0.4e12)]);
/// assert_eq!(s.flops(5.0e5), 1.0e12);
/// assert!(s.flops(1.5e6) < 1.0e12);
/// assert_eq!(s.flops(9.9e9), 0.4e12); // constant extrapolation
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TabulatedSpeed {
    /// `(area, flops)` samples sorted by area, strictly increasing areas.
    points: Vec<(f64, f64)>,
}

impl TabulatedSpeed {
    /// Builds a tabulated model from `(area, flops)` samples.
    ///
    /// # Panics
    /// Panics if fewer than one sample is given, if areas are not strictly
    /// increasing, or if any speed is non-positive.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "tabulated speed needs samples");
        for w in points.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "areas must be strictly increasing ({} then {})",
                w[0].0,
                w[1].0
            );
        }
        for &(a, s) in &points {
            assert!(a >= 0.0, "negative area {a}");
            assert!(s > 0.0 && s.is_finite(), "invalid speed {s} at area {a}");
        }
        Self { points }
    }

    /// Builds from `(x, flops)` samples on square problem sizes (`x × x`
    /// matrices), converting to areas — the form Fig. 5 is plotted in.
    pub fn from_square_sizes(points: Vec<(f64, f64)>) -> Self {
        Self::new(points.into_iter().map(|(x, s)| (x * x, s)).collect())
    }

    /// The sample points `(area, flops)`.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

impl SpeedFunction for TabulatedSpeed {
    fn flops(&self, area: f64) -> f64 {
        let pts = &self.points;
        if area <= pts[0].0 {
            return pts[0].1;
        }
        if area >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the bracketing interval.
        let idx = pts.partition_point(|&(a, _)| a <= area);
        lerp(pts[idx - 1], pts[idx], area)
    }

    /// One forward cursor over `points` instead of a binary search per
    /// area. The clamps, the bracket `idx` and `lerp` are `flops`'s, so
    /// every value is bit-equal: with `points[idx - 1].0 <= area`, stepping
    /// `idx` up while `points[idx].0 <= area` stops at the first knot past
    /// `area`, which is what `partition_point` returns. A query below the
    /// cursor's bracket re-finds it by that binary search.
    fn flops_ascending(&self, areas: &[f64], out: &mut Vec<f64>) {
        let pts = &self.points;
        let (first, last) = (pts[0], pts[pts.len() - 1]);
        let mut idx = 1;
        out.extend(areas.iter().map(|&area| {
            if area <= first.0 {
                return first.1;
            }
            if area >= last.0 {
                return last.1;
            }
            // False for NaN too, which then fails in the search as it
            // does in `flops`.
            let ahead = pts[idx - 1].0 <= area;
            if !ahead {
                idx = pts.partition_point(|&(a, _)| a <= area);
            }
            while pts[idx].0 <= area {
                idx += 1;
            }
            lerp(pts[idx - 1], pts[idx], area)
        }));
    }
}

/// Linear interpolation between the knots `(a0, s0)` and `(a1, s1)`.
fn lerp((a0, s0): (f64, f64), (a1, s1): (f64, f64), area: f64) -> f64 {
    let t = (area - a0) / (a1 - a0);
    s0 + t * (s1 - s0)
}

/// Akima-spline interpolated speed function. Akima interpolation is local
/// and avoids the overshoot of cubic splines near abrupt changes, which is
/// why FuPerMod offers it for FPMs built from noisy measurements.
#[derive(Debug, Clone)]
pub struct AkimaSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Spline slopes at each knot.
    slopes: Vec<f64>,
}

impl AkimaSpline {
    /// Builds an Akima spline through `(area, flops)` samples.
    ///
    /// # Panics
    /// Panics with fewer than 3 points or non-increasing areas.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 3, "Akima spline needs at least 3 points");
        for w in points.windows(2) {
            assert!(w[1].0 > w[0].0, "areas must be strictly increasing");
        }
        let n = points.len();
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();

        // Segment slopes m[i] for i in 0..n-1, extended by two virtual
        // segments on each side (Akima's boundary treatment).
        let mut m = vec![0.0; n + 3];
        for i in 0..n - 1 {
            m[i + 2] = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]);
        }
        m[1] = 2.0 * m[2] - m[3];
        m[0] = 2.0 * m[1] - m[2];
        m[n + 1] = 2.0 * m[n] - m[n - 1];
        m[n + 2] = 2.0 * m[n + 1] - m[n];

        let mut slopes = vec![0.0; n];
        for i in 0..n {
            let w1 = (m[i + 3] - m[i + 2]).abs();
            let w2 = (m[i + 1] - m[i]).abs();
            slopes[i] = if w1 + w2 == 0.0 {
                0.5 * (m[i + 1] + m[i + 2])
            } else {
                (w1 * m[i + 1] + w2 * m[i + 2]) / (w1 + w2)
            };
        }
        Self { xs, ys, slopes }
    }
}

impl SpeedFunction for AkimaSpline {
    fn flops(&self, area: f64) -> f64 {
        let n = self.xs.len();
        if area <= self.xs[0] {
            return self.ys[0];
        }
        if area >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let idx = self.xs.partition_point(|&a| a <= area) - 1;
        let (x0, x1) = (self.xs[idx], self.xs[idx + 1]);
        let (y0, y1) = (self.ys[idx], self.ys[idx + 1]);
        let (t0, t1) = (self.slopes[idx], self.slopes[idx + 1]);
        let h = x1 - x0;
        let t = (area - x0) / h;
        // Cubic Hermite basis.
        let h00 = 2.0 * t * t * t - 3.0 * t * t + 1.0;
        let h10 = t * t * t - 2.0 * t * t + t;
        let h01 = -2.0 * t * t * t + 3.0 * t * t;
        let h11 = t * t * t - t * t;
        // Speeds must stay positive: clamp to a small floor in case the
        // spline undershoots between noisy knots.
        (h00 * y0 + h10 * h * t0 + h01 * y1 + h11 * h * t1).max(1e-6 * y0.max(y1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_speed_ignores_area() {
        let s = ConstantSpeed::new(1.5e12);
        assert_eq!(s.flops(0.0), 1.5e12);
        assert_eq!(s.flops(1e9), 1.5e12);
        assert_eq!(s.flops_at_square(1000.0), 1.5e12);
    }

    #[test]
    #[should_panic(expected = "invalid speed")]
    fn constant_speed_rejects_zero() {
        ConstantSpeed::new(0.0);
    }

    #[test]
    fn tabulated_interpolates_linearly() {
        let s = TabulatedSpeed::new(vec![(0.0, 100.0), (10.0, 200.0), (20.0, 100.0)]);
        assert_eq!(s.flops(0.0), 100.0);
        assert_eq!(s.flops(5.0), 150.0);
        assert_eq!(s.flops(10.0), 200.0);
        assert_eq!(s.flops(15.0), 150.0);
    }

    #[test]
    fn tabulated_extrapolates_constantly() {
        let s = TabulatedSpeed::new(vec![(10.0, 50.0), (20.0, 80.0)]);
        assert_eq!(s.flops(0.0), 50.0);
        assert_eq!(s.flops(100.0), 80.0);
    }

    #[test]
    fn tabulated_from_square_sizes_squares_x() {
        let s = TabulatedSpeed::from_square_sizes(vec![(10.0, 1.0), (20.0, 2.0)]);
        assert_eq!(s.points()[0].0, 100.0);
        assert_eq!(s.points()[1].0, 400.0);
        assert_eq!(s.flops_at_square(20.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn tabulated_rejects_unsorted() {
        TabulatedSpeed::new(vec![(10.0, 1.0), (5.0, 2.0)]);
    }

    #[test]
    fn tabulated_handles_non_smooth_drops() {
        // A sharp drop like the Phi's out-of-card transition.
        let s = TabulatedSpeed::new(vec![(0.0, 500.0), (99.0, 500.0), (100.0, 100.0)]);
        assert_eq!(s.flops(50.0), 500.0);
        assert!(s.flops(99.5) < 310.0);
        assert_eq!(s.flops(150.0), 100.0);
    }

    #[test]
    fn akima_interpolates_through_knots() {
        let pts = vec![(0.0, 1.0), (1.0, 2.0), (2.0, 0.5), (3.0, 3.0), (4.0, 2.0)];
        let s = AkimaSpline::new(pts.clone());
        for &(x, y) in &pts {
            // At interior knots the spline passes through the data; at the
            // boundaries we clamp.
            assert!(
                (s.flops(x) - y).abs() < 1e-9,
                "at {x}: {} vs {y}",
                s.flops(x)
            );
        }
    }

    #[test]
    fn akima_is_local_no_wild_overshoot() {
        // A step-like profile: Akima should not overshoot much above the
        // plateau, unlike a natural cubic spline.
        let pts = vec![
            (0.0, 1.0),
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 10.0),
            (4.0, 10.0),
            (5.0, 10.0),
        ];
        let s = AkimaSpline::new(pts);
        for i in 0..=50 {
            let x = i as f64 * 0.1;
            let v = s.flops(x);
            assert!((0.9..=10.6).contains(&v), "overshoot at {x}: {v}");
        }
    }

    #[test]
    fn akima_stays_positive_on_noisy_data() {
        let pts = vec![(0.0, 10.0), (1.0, 0.5), (2.0, 9.0), (3.0, 0.4), (4.0, 8.0)];
        let s = AkimaSpline::new(pts);
        for i in 0..=400 {
            let x = i as f64 * 0.01;
            assert!(s.flops(x) > 0.0, "non-positive at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 points")]
    fn akima_rejects_two_points() {
        AkimaSpline::new(vec![(0.0, 1.0), (1.0, 2.0)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_points(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, f64)>> {
        proptest::collection::vec((0.0f64..1e6, 1.0f64..1e12), len).prop_map(|mut v| {
            v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            v.dedup_by(|a, b| a.0 == b.0);
            // Ensure strictly increasing by nudging duplicates.
            for i in 1..v.len() {
                if v[i].0 <= v[i - 1].0 {
                    v[i].0 = v[i - 1].0 + 1.0;
                }
            }
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tabulated interpolation stays within the convex hull of the
        /// bracketing sample speeds.
        #[test]
        fn tabulated_bounded_by_samples(pts in sorted_points(3..20), q in 0.0f64..2e6) {
            let s = TabulatedSpeed::new(pts.clone());
            let v = s.flops(q);
            let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let hi = pts.iter().map(|p| p.1).fold(0.0, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        /// Akima output is always positive (required by compute_time).
        #[test]
        fn akima_always_positive(pts in sorted_points(3..20), q in 0.0f64..2e6) {
            prop_assume!(pts.len() >= 3);
            let s = AkimaSpline::new(pts);
            prop_assert!(s.flops(q) > 0.0);
        }

        /// The cursor sweep is `flops` bit for bit: ascending queries that
        /// hit 0, every knot exactly, runs of equal areas and both clamps,
        /// then the same batch shuffled (the backwards fallback).
        #[test]
        fn tabulated_sweep_is_flops_bit_for_bit(
            pts in sorted_points(1..40),
            fracs in proptest::collection::vec(0.0f64..1.0, 0..64),
            repeats in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let s = TabulatedSpeed::new(pts.clone());
            let (lo, hi) = (pts[0].0, pts[pts.len() - 1].0);
            let mut areas = vec![0.0, 0.5 * lo];
            areas.extend(pts.iter().map(|p| p.0));
            areas.extend(fracs.iter().map(|f| lo + f * (hi - lo)));
            areas.extend([2.0 * hi, 4.0 * hi]);
            areas.sort_by(f64::total_cmp);
            let ascending: Vec<f64> = areas
                .iter()
                .flat_map(|&a| std::iter::repeat_n(a, repeats))
                .collect();
            let mut shuffled = ascending.clone();
            let mut x = seed | 1;
            for i in (1..shuffled.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                shuffled.swap(i, (x % (i as u64 + 1)) as usize);
            }
            for batch in [ascending, shuffled] {
                let mut got = Vec::new();
                s.flops_ascending(&batch, &mut got);
                let want: Vec<u64> = batch.iter().map(|&a| s.flops(a).to_bits()).collect();
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
