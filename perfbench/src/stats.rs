//! Order statistics: the latency percentiles a run reports and the
//! quartiles the steadiness mode summarizes runs with.

/// Percentiles `tail_ms` may report, in tenths of a percent, highest first.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank position (1-based) of the `permille` percentile among `n`
/// samples, in integer arithmetic so 95% of 200 is rank 190, not 191.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile with at least ten of `n` samples beyond it, in
/// percent; `None` when even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&pm| n - rank(pm, n) >= TAIL_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile `percent` of `samples`.
pub fn percentile(samples: &[f64], percent: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let s = sorted(samples);
    s[rank((percent * 10.0).round() as usize, s.len()) - 1]
}

/// `(p50, tail, tail percentile)` of a latency sample. With fewer than
/// twenty samples no percentile qualifies and the tail is the maximum.
pub fn p50_and_tail(samples: &[f64]) -> (f64, f64, f64) {
    let p = tail_percentile(samples.len()).unwrap_or(100.0);
    (percentile(samples, 50.0), percentile(samples, p), p)
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so the spreads printed here are the ones the
/// acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    [1, 2, 3].map(|i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        // 104 samples: p95 is rank 99 (5 beyond), p90 rank 94 (10 beyond).
        assert_eq!(tail_percentile(104), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 50.0), 100.0);
        let (p50, tail, p) = p50_and_tail(&xs);
        assert_eq!((p50, tail, p), (100.0, 190.0, 95.0));
        // Too few samples for any percentile: the tail is the maximum.
        assert_eq!(p50_and_tail(&[3.0, 1.0, 2.0]), (2.0, 3.0, 100.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // Two values extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
