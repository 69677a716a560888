//! User runtime-estimate models.
//!
//! Section 3.3 of the paper evaluates schedulers both with "Exact
//! Estimates" (jobs request precisely their runtime) and "Real Estimates"
//! (requests are gross overestimations, as observed in practice). The
//! paper uses the "φ model" of Zhang et al. with φ = 0.10, which it
//! describes as "a uniformly distributed overestimation factor with mean
//! 2.16".

use rand::Rng;
use rbr_simcore::{unit, Duration};

/// A model mapping a job's actual runtime to the compute time its user
/// requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EstimateModel {
    /// Requests exactly the runtime ("Exact Estimates").
    Exact,
    /// Requested time = runtime × factor, factor uniform in `[lo, hi]`.
    ///
    /// `UniformFactor { lo: 1.0, hi: 3.32 }` realizes the paper's
    /// "uniformly distributed overestimation factor with mean 2.16" and is
    /// what the Table 1 "Real Estimates" column uses
    /// ([`EstimateModel::paper_real`]).
    UniformFactor {
        /// Smallest overestimation factor (≥ 1).
        lo: f64,
        /// Largest overestimation factor.
        hi: f64,
    },
    /// The φ model in its original multiplicative form: the requested time
    /// is `runtime / u` with `u` uniform in `[φ, 1]`, i.e. the *accuracy*
    /// `runtime / request` is uniform. The mean overestimation factor is
    /// `ln(1/φ) / (1 − φ)` (≈ 2.56 for φ = 0.10).
    Phi {
        /// Lower bound of the uniform accuracy (0 < φ ≤ 1).
        phi: f64,
    },
}

impl EstimateModel {
    /// The paper's "Real Estimates" instantiation: uniform factor on
    /// `[1, 3.32]`, mean 2.16.
    pub fn paper_real() -> Self {
        EstimateModel::UniformFactor { lo: 1.0, hi: 3.32 }
    }

    /// Draws the requested compute time for a job with the given runtime.
    ///
    /// The result is always ≥ `runtime`.
    pub fn estimate<R: Rng + ?Sized>(&self, runtime: Duration, rng: &mut R) -> Duration {
        let factor = self.sample_factor(rng);
        runtime.scale(factor).max(runtime)
    }

    /// Draws one overestimation factor (≥ 1).
    pub fn sample_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            EstimateModel::Exact => 1.0,
            EstimateModel::UniformFactor { lo, hi } => {
                assert!(
                    1.0 <= lo && lo <= hi,
                    "uniform factor bounds must satisfy 1 <= lo <= hi, got [{lo}, {hi}]"
                );
                lo + (hi - lo) * unit(rng)
            }
            EstimateModel::Phi { phi } => {
                assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1], got {phi}");
                let u = phi + (1.0 - phi) * unit(rng);
                1.0 / u
            }
        }
    }

    /// Mean overestimation factor of the model.
    pub fn mean_factor(&self) -> f64 {
        match *self {
            EstimateModel::Exact => 1.0,
            EstimateModel::UniformFactor { lo, hi } => 0.5 * (lo + hi),
            EstimateModel::Phi { phi } => {
                if phi >= 1.0 {
                    1.0
                } else {
                    (1.0 / phi).ln() / (1.0 - phi)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_simcore::SeedSequence;

    #[test]
    fn exact_is_identity() {
        let mut rng = SeedSequence::new(30).rng();
        let rt = Duration::from_secs(123.0);
        assert_eq!(EstimateModel::Exact.estimate(rt, &mut rng), rt);
    }

    #[test]
    fn paper_real_has_mean_2_16() {
        let m = EstimateModel::paper_real();
        assert!((m.mean_factor() - 2.16).abs() < 1e-12);
        let mut rng = SeedSequence::new(31).rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| m.sample_factor(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 2.16).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn estimates_never_undershoot_runtime() {
        let mut rng = SeedSequence::new(32).rng();
        let rt = Duration::from_secs(50.0);
        for model in [
            EstimateModel::Exact,
            EstimateModel::paper_real(),
            EstimateModel::Phi { phi: 0.1 },
        ] {
            for _ in 0..5_000 {
                assert!(model.estimate(rt, &mut rng) >= rt);
            }
        }
    }

    #[test]
    fn phi_mean_factor_formula() {
        let m = EstimateModel::Phi { phi: 0.1 };
        // ln(10) / 0.9 ≈ 2.558
        assert!((m.mean_factor() - 2.5584).abs() < 1e-3);
        let mut rng = SeedSequence::new(33).rng();
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| m.sample_factor(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - m.mean_factor()).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn phi_factor_bounded_by_inverse_phi() {
        let m = EstimateModel::Phi { phi: 0.25 };
        let mut rng = SeedSequence::new(34).rng();
        for _ in 0..10_000 {
            let f = m.sample_factor(&mut rng);
            assert!((1.0..=4.0).contains(&f), "factor {f}");
        }
    }

    #[test]
    #[should_panic(expected = "1 <= lo <= hi")]
    fn invalid_uniform_bounds_rejected() {
        let mut rng = SeedSequence::new(35).rng();
        let _ = EstimateModel::UniformFactor { lo: 0.5, hi: 2.0 }.sample_factor(&mut rng);
    }
}
