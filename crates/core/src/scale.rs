//! Experiment fidelity presets.
//!
//! The paper averages every result over 50 replications of a 6-hour
//! submission window. That is affordable on a many-core machine but slow
//! on one core, so every experiment runner accepts a [`Scale`]:
//!
//! * [`Scale::Smoke`] — seconds; used by tests.
//! * [`Scale::Quick`] — minutes on a laptop core; the default for
//!   `rbr run` and the examples. Shapes are stable; error bars are wider
//!   than the paper's.
//! * [`Scale::Paper`] — the paper's full 50 × 6 h protocol.
//!
//! Override via the `RBR_SCALE` environment variable
//! (`smoke` / `quick` / `paper`) for any harness that calls
//! [`Scale::from_env`].

use rbr_simcore::Duration;

/// How much fidelity (wall-clock time) to spend on an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minimal: 2 replications of a 30-minute window.
    Smoke,
    /// Reduced: 16 replications of the paper's 6-hour window (the window
    /// sets the load regime, so it is not shortened below `Paper`).
    Quick,
    /// The paper's protocol: 50 replications of a 6-hour window.
    Paper,
}

impl Scale {
    /// Number of replications per configuration.
    pub fn reps(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 16,
            Scale::Paper => 50,
        }
    }

    /// Submission-window length.
    pub fn window(self) -> Duration {
        match self {
            Scale::Smoke => Duration::from_secs(1_800.0),
            Scale::Quick => Duration::from_hours(6),
            Scale::Paper => Duration::from_hours(6),
        }
    }

    /// Replications for CBF-heavy experiments. Schedule compression makes
    /// CBF far slower than EASY: on Table 1's paper-scale cell (N = 10,
    /// HALF, real estimates, 6 h, 30 s cycle) one CBF run took 51× and
    /// 72× an EASY run on the same job stream (seeds 2006's children 0
    /// and 1, medians of three runs on one core of a two-vCPU host), so
    /// fewer replications keep the harness responsive below `Paper`
    /// scale.
    pub fn cbf_reps(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 6,
            Scale::Paper => 50,
        }
    }

    /// Lower-case canonical name (`"smoke"` / `"quick"` / `"paper"`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Parses a scale name, case-insensitively.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Reads `RBR_SCALE` (`smoke`/`quick`/`paper`), defaulting to the
    /// given scale when unset or unrecognised.
    pub fn from_env(default: Scale) -> Scale {
        std::env::var("RBR_SCALE")
            .ok()
            .and_then(|s| Scale::parse(&s))
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_protocol() {
        assert_eq!(Scale::Paper.reps(), 50);
        assert_eq!(Scale::Paper.window(), Duration::from_hours(6));
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.reps() < Scale::Quick.reps());
        assert!(Scale::Quick.reps() < Scale::Paper.reps());
        assert!(Scale::Smoke.window() < Scale::Quick.window());
        assert!(Scale::Quick.window() <= Scale::Paper.window());
    }

    #[test]
    fn names_round_trip() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn env_fallback_uses_default() {
        // The variable is not set in the test environment.
        std::env::remove_var("RBR_SCALE");
        assert_eq!(Scale::from_env(Scale::Quick), Scale::Quick);
    }
}
