//! Table 1: the HALF scheme on N = 10 clusters under three scheduling
//! algorithms (EASY, CBF, FCFS) and two estimate models (exact and
//! "real" — the φ-model overestimates with mean factor 2.16).
//!
//! Paper values (relative to NONE on the same streams):
//!
//! |      | rel. avg stretch (exact / real) | rel. CV (exact / real) |
//! |------|--------------------------------|------------------------|
//! | EASY | 0.88 / 0.83 | 0.83 / 0.83 |
//! | CBF  | 0.90 / 0.83 | 0.86 / 0.83 |
//! | FCFS | 0.93 / 0.93 | 0.93 / 0.93 |
//!
//! The headline: **all entries below 1** — redundancy helps under every
//! algorithm and estimate model.

use rbr_grid::{GridConfig, Scheme};
use rbr_sched::Algorithm;
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::EstimateModel;

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Comparison, Experiment, RunMetrics};

/// Parameters of the Table 1 experiment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (paper: 10).
    pub n: usize,
    /// Scheme used by all jobs (paper: HALF).
    pub scheme: Scheme,
    /// Algorithms to evaluate.
    pub algorithms: Vec<Algorithm>,
    /// Estimate models to evaluate (exact and real).
    pub estimates: Vec<EstimateModel>,
    /// Replications per cell for the cheap algorithms (EASY, FCFS).
    pub reps: usize,
    /// Replications per cell for CBF (a paper-scale CBF run costs 51–72×
    /// an EASY run, see [`Scale::cbf_reps`], so reduced scales use fewer).
    pub cbf_reps: usize,
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

    /// The protocol at reduced fidelity (CBF pays the schedule-compression
    /// cost, so replications follow `Scale::cbf_reps`).
    pub fn at_scale(scale: Scale) -> Self {
        Config {
            // 4 clusters keep the CBF cells affordable at smoke scale;
            // the direction of every entry is already stable there.
            n: if scale == Scale::Smoke { 4 } else { 10 },
            scheme: Scheme::Half,
            algorithms: vec![Algorithm::Easy, Algorithm::Cbf, Algorithm::Fcfs],
            estimates: vec![EstimateModel::Exact, EstimateModel::paper_real()],
            reps: scale.reps(),
            cbf_reps: scale.cbf_reps(),
            window: scale.window(),
            seed: 43,
        }
    }
}

/// One cell pair of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Scheduling algorithm.
    pub algorithm: Algorithm,
    /// Estimate model used.
    pub estimates: EstimateModel,
    /// Relative average stretch vs NONE.
    pub rel_stretch: f64,
    /// Relative CV of stretches vs NONE.
    pub rel_cv: f64,
    /// Absolute baseline stretch, for context.
    pub baseline_stretch: f64,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &alg in &config.algorithms {
        for (e_idx, &est) in config.estimates.iter().enumerate() {
            let seed = SeedSequence::new(config.seed)
                .child(alg as u64)
                .child(e_idx as u64);
            let mut base = GridConfig::homogeneous(config.n, Scheme::None);
            base.algorithm = alg;
            base.estimates = est;
            base.window = config.window;
            let mut treat = base.clone();
            treat.scheme = config.scheme;

            let reps = if alg == Algorithm::Cbf {
                config.cbf_reps
            } else {
                config.reps
            };
            let [baseline, treatment]: [Vec<RunMetrics>; 2] = run_paired(
                reps,
                seed,
                |_| vec![base.clone(), treat.clone()],
                RunMetrics::from_run,
            )
            .try_into()
            .expect("two arms");
            let cmp = Comparison::new(baseline, treatment);
            rows.push(Row {
                algorithm: alg,
                estimates: est,
                rel_stretch: cmp.rel_stretch(),
                rel_cv: cmp.rel_cv(),
                baseline_stretch: cmp.baseline_stretch(),
            });
        }
    }
    rows
}

/// Table 1 as a typed table.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Table 1 — HALF vs NONE across algorithms and estimate models",
        vec![
            "algorithm",
            "estimates",
            "rel stretch",
            "rel CV",
            "base stretch",
        ],
    );
    for r in rows {
        let est = match r.estimates {
            EstimateModel::Exact => "exact",
            _ => "real",
        };
        t.push(vec![
            Cell::text(r.algorithm.to_string()),
            Cell::text(est),
            Cell::float(r.rel_stretch, 3),
            Cell::float(r.rel_cv, 3),
            Cell::float(r.baseline_stretch, 1),
        ]);
    }
    t
}

/// Renders the rows in the paper's Table 1 layout.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// Table 1's registry entry.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn description(&self) -> &'static str {
        "Table 1: the HALF scheme under EASY/CBF/FCFS with exact and real estimates"
    }

    fn paper_section(&self) -> &'static str {
        "§3.4"
    }

    fn default_seed(&self) -> u64 {
        43
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
    fn smoke_covers_all_cells() {
        let mut cfg = Config::at_scale(Scale::Smoke);
        cfg.n = 3;
        cfg.window = Duration::from_secs(900.0);
        let rows = run(&cfg);
        assert_eq!(rows.len(), 6); // 3 algorithms × 2 estimate models
        for r in &rows {
            assert!(r.rel_stretch.is_finite() && r.rel_stretch > 0.0);
            assert!(r.rel_cv.is_finite() && r.rel_cv > 0.0);
        }
        let text = render(&rows);
        assert!(text.contains("EASY"));
        assert!(text.contains("CBF"));
        assert!(text.contains("FCFS"));
        assert!(text.contains("real"));
    }

    #[test]
    fn paper_config_matches_table() {
        let cfg = Config::paper();
        assert_eq!(cfg.n, 10);
        assert_eq!(cfg.scheme, Scheme::Half);
        assert_eq!(cfg.algorithms.len(), 3);
        assert_eq!(cfg.estimates.len(), 2);
    }
}
