//! Beyond the paper: the effect of redundant requests on *statistical*
//! queue-wait forecasting.
//!
//! The paper's conclusion leaves this open: "statistical techniques for
//! predicting queue waiting times are more promising... It would be
//! interesting to explore the effect of redundant requests on these
//! techniques." This experiment runs the Binomial-Method quantile-bound
//! predictor of Brevik–Nurmi–Wolski over our grid runs and reports its
//! coverage (fraction of waits that respected the bound) and tightness
//! (bound ÷ wait), for jobs with and without redundancy, as the
//! redundant fraction grows.

use rbr_forecast::{evaluate, QuantilePredictor};
use rbr_grid::{GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Experiment};

/// Parameters of the forecasting experiment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters.
    pub n: usize,
    /// Scheme used by redundant jobs.
    pub scheme: Scheme,
    /// Fractions of jobs using redundancy to sweep (0 = the baseline).
    pub fractions: Vec<f64>,
    /// Target quantile of the wait bound.
    pub quantile: f64,
    /// Confidence of the bound.
    pub confidence: f64,
    /// Replications.
    pub reps: usize,
    /// Submission window.
    pub window: Duration,
    /// Floor for the tightness ratio (seconds).
    pub floor_secs: f64,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// Default protocol: N = 10, ALL, the canonical 0.95/0.95 bound.
    pub fn at_scale(scale: Scale) -> Self {
        Config {
            n: 10,
            scheme: Scheme::All,
            fractions: match scale {
                Scale::Smoke => vec![0.0, 0.4],
                _ => vec![0.0, 0.2, 0.4, 0.8],
            },
            quantile: 0.95,
            confidence: 0.95,
            reps: scale.reps().min(8),
            window: scale.window(),
            floor_secs: 1.0,
            seed: 56,
        }
    }
}

/// One population's scores at one fraction.
#[derive(Clone, Debug)]
pub struct Row {
    /// Fraction of jobs using redundancy.
    pub fraction: f64,
    /// Which population ("all", "r jobs", "n-r jobs").
    pub population: String,
    /// Empirical coverage of the bound (target: `quantile`).
    pub correctness: f64,
    /// Mean bound ÷ wait (≥ 1 means conservative).
    pub tightness: f64,
    /// Jobs that had a prediction.
    pub predicted: usize,
}

type Pick = dyn Fn(&rbr_forecast::Evaluation) -> rbr_forecast::evaluate::PopulationScore;

/// Runs the experiment.
pub fn run(config: &Config) -> Vec<Row> {
    let predictor = QuantilePredictor::new(config.quantile, config.confidence, 512);
    let mut rows = Vec::new();
    for (f_idx, &fraction) in config.fractions.iter().enumerate() {
        let seed = SeedSequence::new(config.seed).child(f_idx as u64);
        let mut cfg = GridConfig::homogeneous(config.n, config.scheme);
        cfg.redundant_fraction = fraction;
        cfg.window = config.window;
        let floor = config.floor_secs;
        // One arm: each fraction has its own seed child, so no two
        // configurations share a job stream.
        let evals = run_paired(
            config.reps,
            seed,
            |_| vec![cfg.clone()],
            |run| evaluate(run, &predictor, floor),
        )
        .remove(0);

        let mut push = |population: &str, pick: &Pick| {
            let picked: Vec<_> = evals.iter().map(pick).collect();
            let total: usize = picked.iter().map(|p| p.predicted).sum();
            if total == 0 {
                return;
            }
            let covered: usize = picked.iter().map(|p| p.covered).sum();
            let tightness = picked
                .iter()
                .filter(|p| p.predicted > 0)
                .map(|p| p.tightness_mean * p.predicted as f64)
                .sum::<f64>()
                / total as f64;
            rows.push(Row {
                fraction,
                population: population.to_string(),
                correctness: covered as f64 / total as f64,
                tightness,
                predicted: total,
            });
        };
        push("all", &|e| e.all);
        if fraction > 0.0 {
            push("r jobs", &|e| e.redundant);
            push("n-r jobs", &|e| e.non_redundant);
        }
    }
    rows
}

/// The experiment as a typed table.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Forecast — Binomial-Method wait bounds under redundancy",
        vec!["p", "population", "coverage", "tightness", "predicted"],
    );
    for r in rows {
        t.push(vec![
            Cell::percent(r.fraction, 0),
            Cell::text(r.population.clone()),
            Cell::float(r.correctness, 3),
            Cell::float(r.tightness, 2),
            Cell::int(r.predicted as i64),
        ]);
    }
    t
}

/// Renders the experiment.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// The forecasting study's registry entry.
pub struct Forecast;

impl Experiment for Forecast {
    fn name(&self) -> &'static str {
        "forecast"
    }

    fn description(&self) -> &'static str {
        "beyond the paper: statistical queue-wait forecasting under redundancy"
    }

    fn paper_section(&self) -> &'static str {
        "beyond §6"
    }

    fn default_seed(&self) -> u64 {
        56
    }

    fn replications(&self, scale: Scale) -> usize {
        Config::at_scale(scale).reps
    }

    fn tables(&self, scale: Scale, seed: u64, reps: Option<usize>) -> Vec<TypedTable> {
        let mut config = Config::at_scale(scale);
        config.seed = seed;
        if let Some(r) = reps {
            config.reps = r;
        }
        vec![table(&run(&config))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run() {
        let mut cfg = Config::at_scale(Scale::Smoke);
        cfg.n = 3;
        cfg.reps = 2;
        cfg.window = Duration::from_secs(3_600.0);
        let rows = run(&cfg);
        // Baseline gives one row; the mixed fraction gives three.
        assert!(rows.len() >= 3, "rows: {}", rows.len());
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.correctness));
            assert!(r.tightness >= 0.0);
        }
        assert!(render(&rows).contains("coverage"));
    }
}
