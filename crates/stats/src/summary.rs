//! Streaming summary statistics via Welford's online algorithm.

use std::fmt;

/// Count, mean, variance, min and max of a stream of observations.
///
/// Uses Welford's numerically stable online update; two summaries can be
/// [merged](Summary::merge) (Chan et al.'s parallel variant), which is how
/// per-replication results computed as parallel `rbr-exec` cells are
/// combined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Summarizes a slice in one pass.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    ///
    /// # Panics
    /// Panics on NaN — a NaN observation always indicates an upstream bug
    /// and would silently poison every downstream metric.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation pushed into Summary");
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (denominator `n`).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (denominator `n − 1`, 0 when `n < 2`).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation — standard deviation divided by mean.
    ///
    /// This is the paper's fairness metric for job stretches (reported
    /// there as a percentage; this returns the raw ratio). Returns 0 when
    /// the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.sd() / self.mean.abs()
        }
    }

    /// Smallest observation (∞ for an empty summary).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ for an empty summary).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean (0 when `n < 2`).
    pub fn se(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval on
    /// the mean.
    pub fn ci95_halfwidth(&self) -> f64 {
        1.96 * self.se()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} cv={:.1}% min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.sd(),
            self.cv() * 100.0,
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.sd() - 2.0).abs() < 1e-12);
        assert!((s.cv() - 0.4).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 20.0)
            .collect();
        let seq = Summary::of(&all);
        let mut a = Summary::of(&all[..317]);
        let b = Summary::of(&all[317..]);
        a.merge(&b);
        assert_eq!(a.n(), seq.n());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[1.0, 2.0, 3.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut s = Summary::new();
        s.push(f64::NAN);
    }

    #[test]
    fn single_observation() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.se(), 0.0);
    }

    #[test]
    fn numerical_stability_with_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let base = 1e9;
        let s = Summary::of(&[base + 4.0, base + 7.0, base + 13.0, base + 16.0]);
        assert!((s.mean() - (base + 10.0)).abs() < 1e-3);
        assert!((s.variance() - 22.5).abs() < 1e-3, "var {}", s.variance());
    }
}
