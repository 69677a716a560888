//! Figure 4: the unfairness result — average stretch of jobs using
//! redundant requests ("r jobs") and jobs not using them ("n-r jobs")
//! versus the percentage `p` of jobs that use them.
//!
//! Paper findings on N = 10: as `p` grows the average stretch of *both*
//! populations grows; r-jobs always beat n-r jobs; with 40 % of jobs on
//! ALL, r-jobs run at roughly half the baseline stretch while n-r jobs
//! pay the bill; the penalty grows with the redundancy level.

use rbr_grid::{GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Experiment, RunMetrics};

/// Parameters of the Figure 4 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (paper: 10).
    pub n: usize,
    /// Fractions `p` to sweep.
    pub fractions: Vec<f64>,
    /// Schemes to evaluate.
    pub schemes: Vec<Scheme>,
    /// Replications per point.
    pub reps: usize,
    /// Submission window.
    pub window: Duration,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// The paper's exact protocol.
    pub fn paper() -> Self {
        Config::at_scale(Scale::Paper)
    }

    /// The protocol at reduced fidelity.
    pub fn at_scale(scale: Scale) -> Self {
        let fractions = match scale {
            Scale::Smoke => vec![0.0, 0.5],
            Scale::Quick => vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            Scale::Paper => vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        };
        Config {
            n: 10,
            fractions,
            schemes: Scheme::paper_schemes().to_vec(),
            reps: scale.reps(),
            window: scale.window(),
            seed: 47,
        }
    }
}

/// One point of the figure: absolute stretches, like the paper plots.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Redundancy scheme.
    pub scheme: Scheme,
    /// Fraction of jobs using the scheme.
    pub fraction: f64,
    /// Average stretch of jobs using redundant requests (NaN when
    /// `fraction` is 0).
    pub stretch_r: f64,
    /// Average stretch of jobs not using redundant requests (NaN when
    /// `fraction` is 1).
    pub stretch_nr: f64,
    /// Average stretch over all jobs.
    pub stretch_all: f64,
}

fn nan_mean(values: impl Iterator<Item = f64>) -> f64 {
    let xs: Vec<f64> = values.filter(|v| v.is_finite()).collect();
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs the sweep. Every (scheme, fraction) point runs on the same
/// seed, so the whole sweep is one paired group.
pub fn run(config: &Config) -> Vec<Row> {
    let points: Vec<(Scheme, f64)> = config
        .schemes
        .iter()
        .flat_map(|&scheme| config.fractions.iter().map(move |&f| (scheme, f)))
        .collect();
    let group: Vec<GridConfig> = points
        .iter()
        .map(|&(scheme, fraction)| {
            let mut cfg = GridConfig::homogeneous(config.n, scheme);
            cfg.redundant_fraction = fraction;
            cfg.window = config.window;
            cfg
        })
        .collect();
    let series = run_paired(
        config.reps,
        SeedSequence::new(config.seed),
        |_| group.clone(),
        RunMetrics::from_run,
    );
    points
        .iter()
        .zip(series)
        .map(|(&(scheme, fraction), metrics)| Row {
            scheme,
            fraction,
            stretch_r: nan_mean(metrics.iter().map(|m| m.stretch_redundant)),
            stretch_nr: nan_mean(metrics.iter().map(|m| m.stretch_non_redundant)),
            stretch_all: nan_mean(metrics.iter().map(|m| m.stretch_mean)),
        })
        .collect()
}

/// Figure 4 as a typed table. The r column at `p = 0` and the n-r column
/// at `p = 1` are structurally missing (the population is empty), so
/// those cells are `Missing`, not NaN.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Figure 4 — r-jobs vs n-r jobs vs the fraction p using redundancy",
        vec!["scheme", "p", "stretch r", "stretch n-r", "stretch all"],
    );
    for r in rows {
        t.push(vec![
            Cell::text(r.scheme.to_string()),
            Cell::percent(r.fraction, 0),
            Cell::float_or_missing(r.stretch_r, 2),
            Cell::float_or_missing(r.stretch_nr, 2),
            Cell::float(r.stretch_all, 2),
        ]);
    }
    t
}

/// Renders the sweep.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// Figure 4's registry entry.
pub struct Fig4;

impl Experiment for Fig4 {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn description(&self) -> &'static str {
        "Figure 4: average stretch of r-jobs vs n-r jobs as the redundant fraction grows"
    }

    fn paper_section(&self) -> &'static str {
        "§3.6"
    }

    fn default_seed(&self) -> u64 {
        47
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
        cfg.schemes = vec![Scheme::All];
        cfg.window = Duration::from_secs(1_200.0);
        let rows = run(&cfg);
        assert_eq!(rows.len(), 2);
        // p = 0: no redundant jobs, so the r column is NaN.
        assert!(rows[0].stretch_r.is_nan());
        assert!(rows[0].stretch_nr.is_finite());
        // p = 0.5: both populations exist.
        assert!(rows[1].stretch_r.is_finite());
        assert!(rows[1].stretch_nr.is_finite());
        let text = render(&rows);
        assert!(text.contains("stretch n-r"));
        assert!(text.contains('-'));
    }

    #[test]
    fn r_jobs_beat_nr_jobs_at_mid_fraction() {
        // The core qualitative claim of Figure 4, checkable even at smoke
        // scale: redundant jobs outperform non-redundant jobs in the same
        // run.
        let mut cfg = Config::at_scale(Scale::Smoke);
        cfg.schemes = vec![Scheme::All];
        cfg.fractions = vec![0.4];
        cfg.reps = 3;
        let rows = run(&cfg);
        assert!(
            rows[0].stretch_r < rows[0].stretch_nr,
            "r {} vs n-r {}",
            rows[0].stretch_r,
            rows[0].stretch_nr
        );
    }
}
