//! Summary statistics of repeated wall-clock samples.
//!
//! Every timing is reported as a median with its quartiles and sample
//! count; the t-based 95 % confidence half-width comes from the repo's own
//! `summagen_platform::stats::SampleStats` (the paper's protocol).

use summagen_platform::SampleStats;

use crate::json::Json;

/// Median of a sample (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the benchmark driver measures run-to-run spread with that
/// function, so `perf compare` must reproduce it. A single sample is its
/// own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

/// Nearest-rank percentile `p` in `(0, 1]` of a sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, with its value; `None` when even p50 has fewer.
/// A tail read off fewer samples is noise, so none is ever reported.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
    let n = samples.len();
    LADDER.iter().copied().find_map(|p| {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + 10).then(|| (p, percentile(samples, p)))
    })
}

/// One timed quantity: all the benchmark says about a set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub mean: f64,
    /// Student's-t 95 % CI half-width around the mean (infinite for n = 1).
    pub ci95: f64,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (p25, p75) = quartiles(samples);
        let t = SampleStats::from_samples(samples);
        Summary {
            n: samples.len(),
            median: median(samples),
            p25,
            p75,
            mean: t.mean,
            ci95: t.ci_half_width,
            tail: tail_percentile(samples),
        }
    }

    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("n", Json::from(self.n)),
            ("median", Json::Num(self.median)),
            ("p25", Json::Num(self.p25)),
            ("p75", Json::Num(self.p75)),
            ("mean", Json::Num(self.mean)),
            ("ci95_half_width", Json::Num(self.ci95)),
        ];
        if let Some((p, v)) = self.tail {
            pairs.push(("tail_percentile", Json::Num(p)));
            pairs.push(("tail_value", Json::Num(v)));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 4.0, 2.0, 5.0, 4.0]), (3.0, 6.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: p50 is rank 10, only 9 beyond -> nothing to report.
        assert_eq!(tail_percentile(&xs(19)), None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        assert_eq!(tail_percentile(&xs(20)), Some((0.5, 10.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 has only 5.
        assert_eq!(tail_percentile(&xs(100)), Some((0.9, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has only 1.
        assert_eq!(tail_percentile(&xs(1000)), Some((0.99, 990.0)));
        assert_eq!(tail_percentile(&xs(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn summary_carries_the_t_interval() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.median, s.mean), (5, 3.0, 3.0));
        // stddev = sqrt(2.5), t(4) = 2.776
        let want = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((s.ci95 - want).abs() < 1e-9);
        assert_eq!(s.tail, None);
    }
}
