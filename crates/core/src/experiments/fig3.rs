//! Figure 3: relative average stretch versus the job interarrival time.
//!
//! The paper varies the Gamma shape α from 4 to 20 (β fixed at 0.49),
//! giving mean interarrival times between ≈2 s and ≈10 s on N = 10
//! clusters, and finds redundancy beneficial at every load level (and
//! likewise for the CV of stretches, "not shown").

use rbr_grid::{GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Comparison, Experiment, RunMetrics};

/// Parameters of the Figure 3 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (paper: 10).
    pub n: usize,
    /// Gamma shape values α to sweep (paper: 4 → 20).
    pub alphas: Vec<f64>,
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
        let alphas = match scale {
            Scale::Smoke => vec![8.0, 16.0],
            Scale::Quick => vec![6.0, 10.23, 16.0, 20.0],
            Scale::Paper => vec![4.0, 6.0, 8.0, 10.23, 12.0, 14.0, 16.0, 18.0, 20.0],
        };
        Config {
            n: 10,
            alphas,
            schemes: Scheme::paper_schemes().to_vec(),
            reps: scale.reps(),
            window: scale.window(),
            seed: 45,
        }
    }
}

/// One point of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Gamma shape α.
    pub alpha: f64,
    /// Mean interarrival time α·β in seconds (the figure's x-axis).
    pub mean_interarrival: f64,
    /// Redundancy scheme.
    pub scheme: Scheme,
    /// Relative average stretch vs NONE.
    pub rel_stretch: f64,
    /// Relative CV of stretches vs NONE (the paper reports this improves
    /// too, without plotting it).
    pub rel_cv: f64,
    /// Absolute baseline stretch, for context.
    pub baseline_stretch: f64,
}

/// Runs the sweep.
pub fn run(config: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for (a_idx, &alpha) in config.alphas.iter().enumerate() {
        let seed = SeedSequence::new(config.seed).child(a_idx as u64);
        let mut base = GridConfig::homogeneous(config.n, Scheme::None);
        base.window = config.window;
        for c in &mut base.clusters {
            c.workload = c.workload.with_interarrival_shape(alpha);
        }
        let mean_iat = base.clusters[0].workload.mean_interarrival();
        let group: Vec<GridConfig> = std::iter::once(Scheme::None)
            .chain(config.schemes.iter().copied())
            .map(|scheme| GridConfig {
                scheme,
                ..base.clone()
            })
            .collect();
        let mut series =
            run_paired(config.reps, seed, |_| group.clone(), RunMetrics::from_run).into_iter();
        let baseline = series.next().expect("the baseline arm");

        for (&scheme, treatment) in config.schemes.iter().zip(series) {
            let cmp = Comparison::new(baseline.clone(), treatment);
            rows.push(Row {
                alpha,
                mean_interarrival: mean_iat,
                scheme,
                rel_stretch: cmp.rel_stretch(),
                rel_cv: cmp.rel_cv(),
                baseline_stretch: cmp.baseline_stretch(),
            });
        }
    }
    rows
}

/// Figure 3 as a typed table.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Figure 3 — stretch relative to NONE vs job interarrival time",
        vec![
            "alpha",
            "mean iat (s)",
            "scheme",
            "rel stretch",
            "rel CV",
            "base stretch",
        ],
    );
    for r in rows {
        t.push(vec![
            Cell::float(r.alpha, 2),
            Cell::float(r.mean_interarrival, 2),
            Cell::text(r.scheme.to_string()),
            Cell::float(r.rel_stretch, 3),
            Cell::float(r.rel_cv, 3),
            Cell::float(r.baseline_stretch, 1),
        ]);
    }
    t
}

/// Renders the sweep.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// Figure 3's registry entry.
pub struct Fig3;

impl Experiment for Fig3 {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn description(&self) -> &'static str {
        "Figure 3: relative average stretch vs job interarrival time (load sweep)"
    }

    fn paper_section(&self) -> &'static str {
        "§3.5"
    }

    fn default_seed(&self) -> u64 {
        45
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
        cfg.window = Duration::from_secs(900.0);
        let rows = run(&cfg);
        assert_eq!(rows.len(), 2);
        // x-axis values follow α·β.
        assert!((rows[0].mean_interarrival - 8.0 * 0.49).abs() < 1e-9);
        assert!(render(&rows).contains("mean iat"));
    }

    #[test]
    fn paper_sweep_spans_two_to_ten_seconds() {
        let cfg = Config::paper();
        let lo = 4.0 * 0.49;
        let hi = 20.0 * 0.49;
        assert!((1.9..2.1).contains(&lo));
        assert!((9.7..9.9).contains(&hi));
        assert!(cfg.alphas.contains(&10.23)); // the base model point
    }
}
