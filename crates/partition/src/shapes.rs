//! Section V: constructing the partition layouts for the four shapes.
//!
//! Each builder takes the matrix size `n` and the target areas
//! `d = {a_0, a_1, a_2}` produced by a workload-distribution algorithm
//! (Step 1 of Section V) and arranges the partitions. Following the paper's
//! construction, areas are considered in non-increasing order internally,
//! but ownership keeps the caller's processor indices — the processor with
//! the largest area always receives the "remaining" region.
//!
//! The integer grids reproduce the paper's Fig. 1 examples exactly when
//! given the corresponding areas (see the tests).

use crate::spec::PartitionSpec;

/// The four partition shapes studied in the paper, plus two members of the
/// DeFlumere six-candidate family implemented as extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Fig. 1a: two squares in opposite corners, the rest non-rectangular.
    SquareCorner,
    /// Fig. 1b: a full-height rectangle plus a square notch, the rest
    /// non-rectangular (L-shaped).
    SquareRectangle,
    /// Fig. 1c: three rectangles, one spanning the full width.
    BlockRectangle,
    /// Fig. 1d: three full-height columns.
    OneDRectangular,
    /// Extension (DeFlumere candidate): both squares stacked in the same
    /// corner column — "rectangle corner" variant.
    RectangleCorner,
    /// Extension (DeFlumere candidate): the middle processor owns an
    /// L-shaped zone wrapped around a corner square.
    LRectangle,
}

/// The four shapes evaluated in the paper, in the order of its figures.
pub const ALL_FOUR_SHAPES: [Shape; 4] = [
    Shape::SquareCorner,
    Shape::SquareRectangle,
    Shape::BlockRectangle,
    Shape::OneDRectangular,
];

impl Shape {
    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Shape::SquareCorner => "square corner",
            Shape::SquareRectangle => "square rectangle",
            Shape::BlockRectangle => "block rectangle",
            Shape::OneDRectangular => "1D rectangular",
            Shape::RectangleCorner => "rectangle corner (ext)",
            Shape::LRectangle => "L rectangle (ext)",
        }
    }

    /// Builds the partition layout for three processors with the given
    /// target areas (`areas[i]` for processor `i`, summing to ≈ `n²`).
    ///
    /// ```
    /// use summagen_partition::{proportional_areas, Shape};
    ///
    /// // The paper's Fig. 1a example: areas {81, 159, 16} at n = 16.
    /// let spec = Shape::SquareCorner.build(16, &[81.0, 159.0, 16.0]);
    /// assert_eq!(spec.heights, vec![9, 3, 4]);
    /// assert_eq!(spec.areas(), vec![81, 159, 16]);
    ///
    /// // Or derive areas from relative speeds.
    /// let areas = proportional_areas(64, &[1.0, 2.0, 0.9]);
    /// let spec = Shape::BlockRectangle.build(64, &areas);
    /// assert_eq!(spec.areas().iter().sum::<usize>(), 64 * 64);
    /// ```
    ///
    /// # Panics
    /// Panics if `areas.len() != 3` (except `OneDRectangular`, which
    /// accepts any `p ≥ 1`), if `n` is too small to host the shape, or if
    /// any area is non-positive.
    pub fn build(&self, n: usize, areas: &[f64]) -> PartitionSpec {
        match self {
            Shape::SquareCorner => square_corner(n, areas),
            Shape::SquareRectangle => square_rectangle(n, areas),
            Shape::BlockRectangle => block_rectangle(n, areas),
            Shape::OneDRectangular => one_d_rectangular(n, areas),
            Shape::RectangleCorner => rectangle_corner(n, areas),
            Shape::LRectangle => l_rectangle(n, areas),
        }
    }
}

fn check_areas(n: usize, areas: &[f64], expect: usize) {
    assert_eq!(areas.len(), expect, "shape needs exactly {expect} areas");
    for (i, &a) in areas.iter().enumerate() {
        assert!(a > 0.0 && a.is_finite(), "area[{i}] = {a} invalid");
    }
    let total: f64 = areas.iter().sum();
    let n2 = (n * n) as f64;
    assert!(
        (total - n2).abs() / n2 < 0.05,
        "areas sum {total} far from n² = {n2}"
    );
}

/// Processor indices ordered by area descending (ties by index).
fn order_desc(areas: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..areas.len()).collect();
    idx.sort_by(|&a, &b| areas[b].partial_cmp(&areas[a]).unwrap().then(a.cmp(&b)));
    idx
}

fn clamp_dim(v: f64, lo: usize, hi: usize) -> usize {
    assert!(lo <= hi, "impossible dimension range [{lo}, {hi}]");
    (v.round() as isize).clamp(lo as isize, hi as isize) as usize
}

/// Fig. 1a. The second-largest area becomes a square in the top-left
/// corner, the smallest a square in the bottom-right corner, and the
/// largest the non-rectangular remainder.
pub fn square_corner(n: usize, areas: &[f64]) -> PartitionSpec {
    check_areas(n, areas, 3);
    assert!(n >= 3, "square corner needs n >= 3");
    let ord = order_desc(areas);
    let (i1, i2, i3) = (ord[0], ord[1], ord[2]);
    // Squares must leave at least one row/column for the remainder zone.
    let n2 = clamp_dim(areas[i2].sqrt(), 1, n - 2);
    let n3 = clamp_dim(areas[i3].sqrt(), 1, n - n2);
    let mid = n - n2 - n3;
    if mid == 0 {
        // Degenerate 2×2 grid: the squares meet on the diagonal.
        PartitionSpec::new(vec![i2, i1, i1, i3], vec![n2, n3], vec![n2, n3], 3)
    } else {
        PartitionSpec::new(
            vec![i2, i1, i1, i1, i1, i1, i1, i1, i3],
            vec![n2, mid, n3],
            vec![n2, mid, n3],
            3,
        )
    }
}

/// Fig. 1b. The second-largest area becomes a full-height rectangle on the
/// right edge, the smallest a square notch next to it, the largest the
/// remaining L-shaped zone.
pub fn square_rectangle(n: usize, areas: &[f64]) -> PartitionSpec {
    check_areas(n, areas, 3);
    assert!(n >= 3, "square rectangle needs n >= 3");
    let ord = order_desc(areas);
    let (i1, i2, i3) = (ord[0], ord[1], ord[2]);
    let w2 = clamp_dim(areas[i2] / n as f64, 1, n - 2);
    let n3 = clamp_dim(areas[i3].sqrt(), 1, (n - w2).min(n - 1));
    let left = n - w2 - n3;
    let top = n - n3;
    if left == 0 {
        // The square occupies the whole left column strip.
        PartitionSpec::new(vec![i1, i2, i3, i2], vec![top, n3], vec![n3, w2], 3)
    } else {
        PartitionSpec::new(
            vec![i1, i1, i2, i1, i3, i2],
            vec![top, n3],
            vec![left, n3, w2],
            3,
        )
    }
}

/// Fig. 1c. The largest area becomes a full-width rectangle at the top;
/// the strip below is split into two rectangles, the second-largest area
/// on the right.
pub fn block_rectangle(n: usize, areas: &[f64]) -> PartitionSpec {
    check_areas(n, areas, 3);
    assert!(n >= 2, "block rectangle needs n >= 2");
    let ord = order_desc(areas);
    let (i1, i2, i3) = (ord[0], ord[1], ord[2]);
    let h1 = clamp_dim(areas[i1] / n as f64, 1, n - 1);
    let h2 = n - h1;
    let w2 = clamp_dim(areas[i2] / h2 as f64, 1, n - 1);
    PartitionSpec::new(vec![i1, i1, i3, i2], vec![h1, h2], vec![n - w2, w2], 3)
}

/// Fig. 1d. Full-height columns, one per processor, in processor order.
/// Accepts any number of processors `p ≥ 1` with `n ≥ p`.
pub fn one_d_rectangular(n: usize, areas: &[f64]) -> PartitionSpec {
    let p = areas.len();
    assert!(p >= 1, "need at least one processor");
    for (i, &a) in areas.iter().enumerate() {
        assert!(a > 0.0 && a.is_finite(), "area[{i}] = {a} invalid");
    }
    assert!(n >= p, "1D rectangular needs n >= p");
    // Column widths proportional to areas, fixed up to sum to n with every
    // processor keeping at least one column.
    let total: f64 = areas.iter().sum();
    let mut widths: Vec<usize> = areas
        .iter()
        .map(|&a| ((a / total) * n as f64).round().max(1.0) as usize)
        .collect();
    // Repair the sum by adjusting the widest (or the widest that can
    // shrink) column.
    loop {
        let sum: usize = widths.iter().sum();
        if sum == n {
            break;
        }
        if sum < n {
            let i = (0..p).max_by_key(|&i| widths[i]).unwrap();
            widths[i] += 1;
        } else {
            let i = (0..p)
                .filter(|&i| widths[i] > 1)
                .max_by_key(|&i| widths[i])
                .expect("cannot shrink any column");
            widths[i] -= 1;
        }
    }
    PartitionSpec::new((0..p).collect(), vec![n], widths, p)
}

/// Extension shape (DeFlumere candidate): the two smaller areas are
/// stacked rectangles in the right column ("rectangle corner").
pub fn rectangle_corner(n: usize, areas: &[f64]) -> PartitionSpec {
    check_areas(n, areas, 3);
    assert!(n >= 2, "rectangle corner needs n >= 2");
    let ord = order_desc(areas);
    let (i1, i2, i3) = (ord[0], ord[1], ord[2]);
    // Right column width sized for the two smaller areas together.
    let w = clamp_dim((areas[i2] + areas[i3]) / n as f64, 1, n - 1);
    // Split the column between i2 (top) and i3 (bottom).
    let h2 = clamp_dim(areas[i2] / w as f64, 1, n - 1);
    PartitionSpec::new(vec![i1, i2, i1, i3], vec![h2, n - h2], vec![n - w, w], 3)
}

/// Extension shape (DeFlumere candidate): the smallest area is a corner
/// square; the second is an L-shaped zone wrapped around it; the largest
/// is the remaining rectangle.
pub fn l_rectangle(n: usize, areas: &[f64]) -> PartitionSpec {
    check_areas(n, areas, 3);
    assert!(n >= 3, "L rectangle needs n >= 3");
    let ord = order_desc(areas);
    let (i1, i2, i3) = (ord[0], ord[1], ord[2]);
    // Corner square for i3 in the bottom-right.
    let n3 = clamp_dim(areas[i3].sqrt(), 1, n - 2);
    // The L for i2 wraps the square: width w around the right and bottom.
    // Solve area_L = (n3 + t)² - n3² for the L thickness t.
    let t_f = ((n3 as f64 * n3 as f64) + areas[i2]).sqrt() - n3 as f64;
    let t = clamp_dim(t_f, 1, n - n3 - 1);
    let edge = n3 + t;
    PartitionSpec::new(
        vec![
            i1, i1, i1, //
            i1, i2, i2, //
            i1, i2, i3,
        ],
        vec![n - edge, t, n3],
        vec![n - edge, t, n3],
        3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative error between the achieved and requested area.
    fn area_errors(spec: &PartitionSpec, want: &[f64]) -> Vec<f64> {
        spec.areas()
            .iter()
            .zip(want)
            .map(|(&got, &w)| (got as f64 - w).abs() / w)
            .collect()
    }

    #[test]
    fn square_corner_reproduces_fig1a() {
        // Fig. 1a: P0 owns 9x9, P1 the remainder, P2 4x4, n = 16.
        let spec = square_corner(16, &[81.0, 159.0, 16.0]);
        assert_eq!(spec.heights, vec![9, 3, 4]);
        assert_eq!(spec.widths, vec![9, 3, 4]);
        assert_eq!(spec.owners, vec![0, 1, 1, 1, 1, 1, 1, 1, 2]);
        assert_eq!(spec.areas(), vec![81, 159, 16]);
    }

    #[test]
    fn square_rectangle_reproduces_fig1b() {
        // Fig. 1b: P0 the L (192), P1 the right rectangle (48), P2 the
        // square (16).
        let spec = square_rectangle(16, &[192.0, 48.0, 16.0]);
        assert_eq!(spec.heights, vec![12, 4]);
        assert_eq!(spec.widths, vec![9, 4, 3]);
        assert_eq!(spec.owners, vec![0, 0, 1, 0, 2, 1]);
        assert_eq!(spec.areas(), vec![192, 48, 16]);
    }

    #[test]
    fn block_rectangle_reproduces_fig1c() {
        // Fig. 1c: P0 the 12x16 top (192), P1 bottom-left 4x6 (24),
        // P2 bottom-right 4x10 (40).
        let spec = block_rectangle(16, &[192.0, 24.0, 40.0]);
        assert_eq!(spec.heights, vec![12, 4]);
        assert_eq!(spec.widths, vec![6, 10]);
        assert_eq!(spec.owners, vec![0, 0, 1, 2]);
        assert_eq!(spec.areas(), vec![192, 24, 40]);
    }

    #[test]
    fn one_d_reproduces_fig1d() {
        // Fig. 1d: widths {8, 5, 3}.
        let spec = one_d_rectangular(16, &[128.0, 80.0, 48.0]);
        assert_eq!(spec.grid_rows, 1);
        assert_eq!(spec.heights, vec![16]);
        assert_eq!(spec.widths, vec![8, 5, 3]);
        assert_eq!(spec.owners, vec![0, 1, 2]);
    }

    #[test]
    fn all_shapes_conserve_total_area() {
        let n = 128;
        let total = (n * n) as f64;
        let areas = [total * 0.5, total * 0.3, total * 0.2];
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            assert_eq!(
                spec.areas().iter().sum::<usize>(),
                n * n,
                "{} loses area",
                shape.name()
            );
        }
    }

    #[test]
    fn shapes_hit_target_areas_closely() {
        let n = 512;
        let total = (n * n) as f64;
        // The paper's CPM ratios {1.0, 2.0, 0.9}.
        let s = 1.0 + 2.0 + 0.9;
        let areas = [total / s, total * 2.0 / s, total * 0.9 / s];
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            for (i, e) in area_errors(&spec, &areas).iter().enumerate() {
                assert!(*e < 0.05, "{}: processor {i} area error {e}", shape.name());
            }
        }
    }

    #[test]
    fn extension_shapes_hit_target_areas() {
        let n = 512;
        let total = (n * n) as f64;
        let areas = [total * 0.55, total * 0.30, total * 0.15];
        for shape in [Shape::RectangleCorner, Shape::LRectangle] {
            let spec = shape.build(n, &areas);
            assert_eq!(spec.areas().iter().sum::<usize>(), n * n);
            for (i, e) in area_errors(&spec, &areas).iter().enumerate() {
                assert!(*e < 0.1, "{}: proc {i} error {e}", shape.name());
            }
        }
    }

    #[test]
    fn square_corner_covering_rectangles_are_squares() {
        let n = 256;
        let total = (n * n) as f64;
        let areas = [total * 0.26, total * 0.51, total * 0.23];
        let spec = square_corner(n, &areas);
        let cov = spec.covering_rectangles();
        // The two corner squares have square covering rectangles; the
        // remainder's covering rectangle is the full matrix.
        let ord = order_desc(&areas);
        assert_eq!(cov[ord[0]], (n, n));
        assert_eq!(cov[ord[1]].0, cov[ord[1]].1);
        assert_eq!(cov[ord[2]].0, cov[ord[2]].1);
    }

    #[test]
    fn square_corner_beats_1d_on_comm_volume_when_heterogeneous() {
        // Becker et al.: for speed ratios beyond ~3:1 the square-corner
        // total half-perimeter drops below the 1D rectangular one.
        let n = 1000;
        let total = (n * n) as f64;
        let s = [1.0, 8.0, 1.0];
        let sum: f64 = s.iter().sum();
        let areas: Vec<f64> = s.iter().map(|x| total * x / sum).collect();
        let sc = square_corner(n, &areas).total_half_perimeter();
        let od = one_d_rectangular(n, &areas).total_half_perimeter();
        assert!(sc < od, "square corner {sc} vs 1D {od}");
    }

    #[test]
    fn one_d_supports_arbitrary_p() {
        let n = 64;
        let areas: Vec<f64> = (1..=6).map(|i| (n * n) as f64 * i as f64 / 21.0).collect();
        let spec = one_d_rectangular(n, &areas);
        assert_eq!(spec.nprocs, 6);
        assert_eq!(spec.widths.iter().sum::<usize>(), 64);
        assert!(spec.widths.iter().all(|&w| w >= 1));
    }

    #[test]
    fn one_d_keeps_minimum_width_for_tiny_areas() {
        let n = 16;
        let total = (n * n) as f64;
        let spec = one_d_rectangular(n, &[total * 0.98, total * 0.01, total * 0.01]);
        assert!(spec.widths.iter().all(|&w| w >= 1));
        assert_eq!(spec.widths.iter().sum::<usize>(), n);
    }

    #[test]
    fn degenerate_square_corner_two_by_two() {
        // Squares sized to meet exactly on the diagonal.
        let n = 16;
        let spec = square_corner(n, &[64.0, 128.0, 64.0]);
        assert_eq!(spec.areas().iter().sum::<usize>(), 256);
        assert_eq!(spec.nprocs, 3);
    }

    #[test]
    #[should_panic(expected = "exactly 3 areas")]
    fn square_corner_rejects_wrong_p() {
        square_corner(16, &[128.0, 128.0]);
    }

    #[test]
    #[should_panic(expected = "far from")]
    fn rejects_inconsistent_areas() {
        square_corner(16, &[10.0, 10.0, 10.0]);
    }

    #[test]
    fn shape_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ALL_FOUR_SHAPES.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn l_rectangle_has_l_shaped_middle_zone() {
        let n = 256;
        let total = (n * n) as f64;
        let areas = [total * 0.6, total * 0.3, total * 0.1];
        let spec = l_rectangle(n, &areas);
        let ord = order_desc(&areas);
        // The L owner's covering rectangle is strictly larger than its
        // area (non-rectangular zone).
        let (h, w) = spec.covering_rectangles()[ord[1]];
        assert!(h * w > spec.areas()[ord[1]]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn areas_for(n: usize) -> impl Strategy<Value = [f64; 3]> {
        // Random speed-like ratios, converted to areas summing to n².
        (0.05f64..1.0, 0.05f64..1.0, 0.05f64..1.0).prop_map(move |(a, b, c)| {
            let total = (n * n) as f64;
            let s = a + b + c;
            [total * a / s, total * b / s, total * c / s]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every shape builder yields a valid spec conserving total area,
        /// for arbitrary area mixes and sizes.
        #[test]
        fn builders_always_valid(n in 16usize..400, areas in areas_for(64)) {
            // Rescale areas to this n.
            let total = (n * n) as f64;
            let s: f64 = areas.iter().sum();
            let areas = [areas[0] / s * total, areas[1] / s * total, areas[2] / s * total];
            for shape in ALL_FOUR_SHAPES.iter().chain(&[Shape::RectangleCorner, Shape::LRectangle]) {
                let spec = shape.build(n, &areas);
                prop_assert_eq!(spec.areas().iter().sum::<usize>(), n * n);
                prop_assert_eq!(spec.n, n);
                prop_assert_eq!(spec.nprocs, 3);
            }
        }

        /// Half-perimeter of every zone is at least the `2·sqrt(area)`
        /// lower bound (covering rectangle of area `a` minimizes `h+w` at
        /// the square).
        #[test]
        fn half_perimeter_respects_sqrt_bound(n in 32usize..300, areas in areas_for(64)) {
            let total = (n * n) as f64;
            let s: f64 = areas.iter().sum();
            let areas = [areas[0] / s * total, areas[1] / s * total, areas[2] / s * total];
            for shape in ALL_FOUR_SHAPES {
                let spec = shape.build(n, &areas);
                for (proc, &hp) in spec.half_perimeters().iter().enumerate() {
                    let a = spec.areas()[proc] as f64;
                    prop_assert!(
                        (hp as f64) >= 2.0 * a.sqrt() - 1e-9,
                        "{}: proc {proc} hp {hp} < 2*sqrt({a})",
                        shape.name()
                    );
                }
            }
        }
    }
}
