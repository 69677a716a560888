//! Daily arrival-rate modulation.
//!
//! The full Lublin–Feitelson model includes a strong daily cycle; the
//! paper simulates only the "peak hour" slice of it (constant Gamma
//! interarrivals). This module restores the cycle for multi-day
//! experiments such as the §4.1 24-hour queue-size measurement: the
//! peak-hour interarrival process is time-rescaled by an hour-of-day
//! weight profile, so the *peak* hours reproduce the paper's rate exactly
//! and the night hours thin out.

use rand::Rng;
use rbr_simcore::{Duration, SimTime};

use crate::estimate::EstimateModel;
use crate::job::JobSpec;
use crate::lublin::LublinModel;

/// Relative arrival-rate weight for each hour of the day (1 = the
/// peak-hour rate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DailyCycle {
    /// Weight per hour of day; each must be in `(0, 1]`.
    pub weights: [f64; 24],
}

impl DailyCycle {
    /// A supercomputer-log-like profile: quiet nights (≈25 % of the peak
    /// rate), a morning ramp, full rate through working hours, and an
    /// evening decline.
    pub fn workday() -> Self {
        let mut weights = [0.25; 24];
        for (hour, w) in weights.iter_mut().enumerate() {
            *w = match hour {
                0..=5 => 0.25,
                6 => 0.4,
                7 => 0.6,
                8 => 0.8,
                9..=17 => 1.0,
                18 => 0.8,
                19 => 0.6,
                20 => 0.5,
                21 => 0.4,
                _ => 0.3,
            };
        }
        DailyCycle { weights }
    }

    /// A flat profile — generation degenerates to the paper's constant
    /// peak-hour process.
    pub fn flat() -> Self {
        DailyCycle { weights: [1.0; 24] }
    }

    /// The weight in effect at instant `t`.
    pub fn weight_at(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs() / 3_600.0) as u64 % 24;
        self.weights[hour as usize]
    }

    /// Mean weight over the day (the average-to-peak rate ratio).
    pub fn mean_weight(&self) -> f64 {
        self.weights.iter().sum::<f64>() / 24.0
    }

    /// Validates the profile.
    ///
    /// # Panics
    /// Panics if any weight is outside `(0, 1]`.
    pub fn validate(&self) {
        for (h, &w) in self.weights.iter().enumerate() {
            assert!(w > 0.0 && w <= 1.0, "hour {h}: weight {w} outside (0, 1]");
        }
    }
}

/// Generates a job stream over `window` with the interarrival gaps
/// time-rescaled by the daily profile: a gap sampled at the peak rate is
/// stretched by `1 / weight(now)`, so the instantaneous rate follows the
/// cycle and equals the paper's rate during peak hours.
pub fn generate_daily<R: Rng + ?Sized>(
    model: &LublinModel,
    cycle: &DailyCycle,
    rng: &mut R,
    window: Duration,
    estimate_model: &EstimateModel,
) -> Vec<JobSpec> {
    cycle.validate();
    let mut jobs = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        let gap = model.sample_interarrival(rng);
        let weight = cycle.weight_at(t);
        t += gap.scale(1.0 / weight);
        if t.since(SimTime::ZERO) >= window {
            return jobs;
        }
        jobs.push(model.sample_job(rng, t, estimate_model));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lublin::LublinConfig;
    use rbr_simcore::SeedSequence;

    fn model() -> LublinModel {
        LublinModel::new(LublinConfig::paper_2006())
    }

    #[test]
    fn flat_cycle_matches_plain_generation_rate() {
        let m = model();
        let mut rng = SeedSequence::new(80).rng();
        let jobs = generate_daily(
            &m,
            &DailyCycle::flat(),
            &mut rng,
            Duration::from_hours(6),
            &EstimateModel::Exact,
        );
        // ≈ 21600 / 5.01 jobs, like the plain generator.
        assert!((4_100..4_550).contains(&jobs.len()), "got {}", jobs.len());
    }

    #[test]
    fn workday_cycle_thins_the_night() {
        let m = model();
        let cycle = DailyCycle::workday();
        let mut rng = SeedSequence::new(81).rng();
        let jobs = generate_daily(
            &m,
            &cycle,
            &mut rng,
            Duration::from_hours(24),
            &EstimateModel::Exact,
        );
        let hour_of = |j: &JobSpec| (j.arrival.as_secs() / 3_600.0) as usize % 24;
        let night = jobs.iter().filter(|j| hour_of(j) < 6).count() as f64 / 6.0;
        let day = jobs
            .iter()
            .filter(|j| (9..18).contains(&hour_of(j)))
            .count() as f64
            / 9.0;
        // Working hours must be several times busier per hour than night.
        assert!(
            day > 2.5 * night,
            "day rate {day}/h vs night rate {night}/h"
        );
        // Total volume ≈ mean_weight × peak volume.
        let expected = 24.0 * 3_600.0 / 5.01 * cycle.mean_weight();
        let ratio = jobs.len() as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "volume ratio {ratio}");
    }

    #[test]
    fn weight_lookup_wraps_around_midnight() {
        let cycle = DailyCycle::workday();
        assert_eq!(cycle.weight_at(SimTime::from_secs(3.0 * 3_600.0)), 0.25);
        assert_eq!(cycle.weight_at(SimTime::from_secs(12.0 * 3_600.0)), 1.0);
        // Hour 36 = hour 12 of day two.
        assert_eq!(cycle.weight_at(SimTime::from_secs(36.0 * 3_600.0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_weight_rejected() {
        let mut cycle = DailyCycle::flat();
        cycle.weights[3] = 0.0;
        cycle.validate();
    }
}
