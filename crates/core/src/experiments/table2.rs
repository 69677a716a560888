//! Table 2: non-uniformly distributed redundant requests.
//!
//! Remote clusters are picked with a geometric bias — cluster C₁ twice
//! as likely as C₂, which is twice as likely as C₃, and so on ("heavily
//! biased: half of the clusters each picked with only probability
//! 6.25 %"). Paper values, N = 10, relative to NONE:
//!
//! |            | R2   | R3   | R4   | HALF |
//! |------------|------|------|------|------|
//! | rel stretch| 0.94 | 0.95 | 0.88 | 0.89 |
//! | rel CV     | 0.94 | 0.92 | 0.88 | 0.86 |
//!
//! Headline: the benefit survives a badly skewed account distribution.

use rbr_grid::{GridConfig, Scheme, SelectionPolicy};
use rbr_simcore::{Duration, SeedSequence};

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Comparison, Experiment, RunMetrics};

/// Parameters of the Table 2 experiment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (paper: 10).
    pub n: usize,
    /// Schemes to evaluate (paper: R2, R3, R4, HALF).
    pub schemes: Vec<Scheme>,
    /// Bias ratio between successive clusters (paper: 2).
    pub bias_ratio: f64,
    /// Replications per scheme.
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
        Config {
            n: 10,
            schemes: vec![Scheme::R(2), Scheme::R(3), Scheme::R(4), Scheme::Half],
            bias_ratio: 2.0,
            reps: scale.reps(),
            window: scale.window(),
            seed: 44,
        }
    }
}

/// One column of Table 2.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Redundancy scheme.
    pub scheme: Scheme,
    /// Relative average stretch vs NONE.
    pub rel_stretch: f64,
    /// Relative CV of stretches vs NONE.
    pub rel_cv: f64,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Vec<Row> {
    let seed = SeedSequence::new(config.seed);
    let mut base = GridConfig::homogeneous(config.n, Scheme::None);
    base.window = config.window;
    let mut group = vec![base];
    group.extend(config.schemes.iter().map(|&scheme| {
        let mut cfg = GridConfig::homogeneous(config.n, scheme);
        cfg.selection = SelectionPolicy::Biased {
            ratio: config.bias_ratio,
        };
        cfg.window = config.window;
        cfg
    }));
    let mut series =
        run_paired(config.reps, seed, |_| group.clone(), RunMetrics::from_run).into_iter();
    let baseline = series.next().expect("the baseline arm");

    config
        .schemes
        .iter()
        .zip(series)
        .map(|(&scheme, treatment)| {
            let cmp = Comparison::new(baseline.clone(), treatment);
            Row {
                scheme,
                rel_stretch: cmp.rel_stretch(),
                rel_cv: cmp.rel_cv(),
            }
        })
        .collect()
}

/// Table 2 as a typed table.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Table 2 — geometrically biased target selection vs NONE",
        vec!["scheme", "rel stretch", "rel CV"],
    );
    for r in rows {
        t.push(vec![
            Cell::text(r.scheme.to_string()),
            Cell::float(r.rel_stretch, 3),
            Cell::float(r.rel_cv, 3),
        ]);
    }
    t
}

/// Renders the rows in the paper's Table 2 layout.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// Table 2's registry entry.
pub struct Table2;

impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn description(&self) -> &'static str {
        "Table 2: redundant requests under a heavily biased account distribution"
    }

    fn paper_section(&self) -> &'static str {
        "§3.4"
    }

    fn default_seed(&self) -> u64 {
        44
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
        cfg.n = 4;
        cfg.schemes = vec![Scheme::R(2), Scheme::Half];
        cfg.window = Duration::from_secs(900.0);
        let rows = run(&cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.rel_stretch.is_finite());
            assert!(r.rel_cv.is_finite());
        }
        assert!(render(&rows).contains("R2"));
    }

    #[test]
    fn paper_config_uses_bias_two() {
        let cfg = Config::paper();
        assert_eq!(cfg.bias_ratio, 2.0);
        assert_eq!(cfg.schemes.len(), 4);
    }
}
