//! Correctness checks the benchmark runs on the program's outputs, and the
//! seed plumbing that turns `--seed` into every generated input.

use summagen_matrix::{gemm_naive, gemm_tolerance, DenseMatrix};

/// SplitMix64: the benchmark's own generator for seeds, probe vectors and
/// orderings. (The matrices themselves come from the repo's seeded
/// `random_matrix`, fed with seeds drawn here.)
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `y = M · x` for a dense row-major matrix.
fn matvec(m: &DenseMatrix, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|i| m.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// Freivalds' check of a claimed product `C = A · B` in O(n²): for two
/// seed-derived ±1 vectors `x`, compare `C·x` with `A·(B·x)`. A wrong
/// element `c_ij` shifts `(C·x)_i` by its full error (|x_j| = 1), so a
/// single corrupted element larger than the tolerance is always caught;
/// two vectors guard against errors that cancel along one of them.
pub struct Freivalds {
    probes: Vec<(Vec<f64>, Vec<f64>)>,
    tol: f64,
}

impl Freivalds {
    pub fn new(a: &DenseMatrix, b: &DenseMatrix, seed: u64) -> Freivalds {
        let n = b.cols();
        let mut rng = SplitMix(seed);
        let probes = (0..2)
            .map(|_| {
                let x: Vec<f64> = (0..n)
                    .map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 })
                    .collect();
                let want = matvec(a, &matvec(b, &x));
                (x, want)
            })
            .collect();
        // Each of the n terms of (C·x)_i carries up to gemm_tolerance(k) of
        // rounding, hence the factor n.
        let tol = gemm_tolerance(a.cols()) * n as f64;
        Freivalds { probes, tol }
    }

    pub fn accepts(&self, c: &DenseMatrix) -> bool {
        self.probes.iter().all(|(x, want)| {
            matvec(c, x)
                .iter()
                .zip(want)
                .all(|(got, want)| (got - want).abs() <= self.tol)
        })
    }
}

/// The slow oracle: `A · B` by the reference triple loop.
pub fn naive_product(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    gemm_naive(
        m,
        n,
        k,
        1.0,
        a.as_slice(),
        k,
        b.as_slice(),
        n,
        0.0,
        c.as_mut_slice(),
        n,
    );
    c
}

/// Bit-for-bit equality (`==` on f64 would call `-0.0 == 0.0` and miss NaN).
pub fn bitwise_eq(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Operations attempted and failed, with the first few reasons kept for
/// the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation; `ok == false` counts it failed.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why);
        }
    }

    /// Counts `n` failures among operations already counted as attempted.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_matrix::{gemm_blocked, random_matrix};

    fn blocked_product(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let mut c = DenseMatrix::zeros(n, n);
        gemm_blocked(
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        c
    }

    #[test]
    fn freivalds_accepts_gemm_blocked_and_rejects_one_flipped_element() {
        let n = 96;
        let (a, b) = (random_matrix(n, n, 1), random_matrix(n, n, 2));
        let check = Freivalds::new(&a, &b, 3);
        let mut c = blocked_product(&a, &b);
        assert!(check.accepts(&c));
        assert!(check.accepts(&naive_product(&a, &b)));
        let v = c.get(17, 43);
        c.set(17, 43, -v - 1e-3);
        assert!(!check.accepts(&c), "one wrong element must be caught");
    }

    #[test]
    fn bitwise_eq_sees_a_single_ulp() {
        let a = random_matrix(8, 8, 5);
        let mut b = a.clone();
        assert!(bitwise_eq(&a, &b));
        let v = b.get(3, 3);
        b.set(3, 3, f64::from_bits(v.to_bits() ^ 1));
        assert!(!bitwise_eq(&a, &b));
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = SplitMix(seed);
            let mut order: Vec<usize> = (0..16).collect();
            r.shuffle(&mut order);
            (r.next_u64(), order)
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        let mut sorted = draw(11).1;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true, || unreachable!());
        t.record(false, || "bad".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.reasons, vec!["bad".to_string()]);
    }
}
