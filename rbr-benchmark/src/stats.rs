//! Order statistics shared by the workloads and `compare`.

/// Sorts a copy of `xs` ascending (total order; NaN sorts last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); NaN when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The mean of `xs` less its lowest and highest `frac` share (rounded
/// down); NaN when `xs` is empty.
pub fn trimmed_mean(xs: &[f64], frac: f64) -> f64 {
    let v = sorted(xs);
    let k = (v.len() as f64 * frac) as usize;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Quartiles by the method of Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so the spreads this program
/// reports match the ones computed from its output. Needs two or more
/// values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..=3i64).zip(out.iter_mut()) {
        // Python's integer arithmetic verbatim: the clamp happens before
        // `delta`, so the two-value case extrapolates as Python does.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range over the median — the run-to-run spread.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// The `p`-th percentile by nearest rank (the smallest sample with at
/// least `p` % of the samples at or below it); NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        xs[9] = 1000.0;
        // One of ten off each end: the mean of 2..=9.
        assert_eq!(trimmed_mean(&xs, 0.1), 5.5);
        // Fewer than ten values: nothing trimmed.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), 3.0);
        assert!(trimmed_mean(&[], 0.1).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves ten beyond it.
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 90.0), 3.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), 1.0);
        assert!(percentile(&[], 90.0).is_nan());
    }
}
