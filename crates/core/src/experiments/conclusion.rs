//! The conclusion's quantified scenario: "When 80 % of jobs send
//! redundant requests to all clusters in a 20-cluster platform, the
//! average stretch of jobs not using redundant requests is 75 % higher
//! than when there are no redundant requests in the system. In this case
//! jobs using redundant requests experience stretches that are on
//! average half of those experienced by jobs not using redundant
//! requests. If the jobs using redundant requests send them to only 20 %
//! of the clusters, then the stretches of jobs not using redundant
//! requests are only increased by roughly 20 %."

use rbr_grid::{GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Experiment, RunMetrics};

/// Parameters of the conclusion scenario.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (paper: 20).
    pub n: usize,
    /// Fraction of jobs using redundancy (paper: 0.8).
    pub fraction: f64,
    /// Schemes to compare: ALL ("all clusters") and R(n/5) ("20 % of the
    /// clusters").
    pub schemes: Vec<Scheme>,
    /// Replications.
    pub reps: usize,
    /// Submission window.
    pub window: Duration,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// The paper's scenario.
    pub fn paper() -> Self {
        Config::at_scale(Scale::Paper)
    }

    /// Reduced fidelity.
    pub fn at_scale(scale: Scale) -> Self {
        Config {
            n: 20,
            fraction: 0.8,
            schemes: vec![Scheme::All, Scheme::R(4)], // 4 = 20 % of 20
            reps: scale.reps(),
            window: scale.window(),
            seed: 51,
        }
    }
}

/// The scenario's outcome for one scheme.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Scheme used by the redundant 80 %.
    pub scheme: Scheme,
    /// Baseline average stretch with no redundancy anywhere.
    pub baseline_stretch: f64,
    /// Average stretch of the non-redundant jobs in the mixed system.
    pub stretch_nr: f64,
    /// Average stretch of the redundant jobs in the mixed system.
    pub stretch_r: f64,
    /// `stretch_nr / baseline` — the paper quotes +75 % for ALL.
    pub nr_vs_baseline: f64,
    /// `stretch_r / stretch_nr` — the paper quotes ≈ 0.5 for ALL.
    pub r_vs_nr: f64,
}

/// Runs the scenario.
pub fn run(config: &Config) -> Vec<Row> {
    let seed = SeedSequence::new(config.seed);
    let mut base = GridConfig::homogeneous(config.n, Scheme::None);
    base.window = config.window;
    let mut group = vec![base.clone()];
    group.extend(config.schemes.iter().map(|&scheme| GridConfig {
        scheme,
        redundant_fraction: config.fraction,
        ..base.clone()
    }));
    let mut series =
        run_paired(config.reps, seed, |_| group.clone(), RunMetrics::from_run).into_iter();
    let b = series.next().expect("the baseline arm");
    let baseline = b.iter().map(|m| m.stretch_mean).sum::<f64>() / b.len() as f64;

    config
        .schemes
        .iter()
        .zip(series)
        .map(|(&scheme, t)| {
            let nr = t.iter().map(|m| m.stretch_non_redundant).sum::<f64>() / t.len() as f64;
            let r = t.iter().map(|m| m.stretch_redundant).sum::<f64>() / t.len() as f64;
            Row {
                scheme,
                baseline_stretch: baseline,
                stretch_nr: nr,
                stretch_r: r,
                nr_vs_baseline: nr / baseline,
                r_vs_nr: r / nr,
            }
        })
        .collect()
}

/// The scenario as a typed table.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Conclusion — 80% redundant jobs on a 20-cluster platform",
        vec![
            "scheme",
            "baseline",
            "n-r stretch",
            "r stretch",
            "n-r vs baseline",
            "r vs n-r",
        ],
    );
    for r in rows {
        t.push(vec![
            Cell::text(r.scheme.to_string()),
            Cell::float(r.baseline_stretch, 2),
            Cell::float(r.stretch_nr, 2),
            Cell::float(r.stretch_r, 2),
            Cell::float(r.nr_vs_baseline, 2),
            Cell::float(r.r_vs_nr, 2),
        ]);
    }
    t
}

/// Renders the scenario.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// The conclusion scenario's registry entry.
pub struct Conclusion;

impl Experiment for Conclusion {
    fn name(&self) -> &'static str {
        "conclusion"
    }

    fn description(&self) -> &'static str {
        "the conclusion's scenario: 80% of jobs redundant on 20 clusters, ALL vs R4"
    }

    fn paper_section(&self) -> &'static str {
        "§6"
    }

    fn default_seed(&self) -> u64 {
        51
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
        cfg.n = 5;
        cfg.schemes = vec![Scheme::All];
        cfg.window = Duration::from_secs(1_200.0);
        let rows = run(&cfg);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.baseline_stretch >= 1.0);
        // Redundant jobs beat non-redundant jobs in the same system.
        assert!(r.r_vs_nr < 1.0, "r_vs_nr {}", r.r_vs_nr);
        assert!(render(&rows).contains("n-r vs baseline"));
    }
}
