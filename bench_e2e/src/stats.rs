//! Exact order statistics on raw samples. No histograms: every quantile
//! the benchmark reports is an element of the sample it came from.

/// The nearest-rank `q`-quantile (`0 < q <= 1`): the smallest sample with
/// at least `q·n` samples at or below it. `None` on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The "ten samples beyond" rule: a percentile is reportable only when at
/// least ten samples lie beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// The median as the mean of the two middle order statistics (the usual
/// even-length convention; used for medians *of passes and runs*, where
/// the count is small and often even). `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns at positions 0 and 2.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, linearly interpolated and
        // clamped to the sample — exactly CPython's "exclusive" rule.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are judged against. `None` when undefined (fewer
/// than two values or a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_sample_members() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.001), Some(1.0));
        let w = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&w, 0.5), Some(2.0));
        assert_eq!(quantile(&w, 0.34), Some(2.0));
        assert_eq!(quantile(&w, 0.33), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantiles_are_not_bucket_edges() {
        // The old bins reported log2 bucket edges such as 0.0625; an exact
        // quantile returns what was measured.
        let v = [0.071, 0.083, 0.09, 0.11, 0.12];
        assert_eq!(quantile(&v, 0.5), Some(0.09));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(reportable(100, 0.9));
        assert!(!reportable(99, 0.9));
        assert!(!reportable(100, 0.95));
        assert!(reportable(200, 0.95));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
