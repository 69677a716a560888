//! Figures 1 and 2: relative average stretch and relative coefficient of
//! variation of stretches, versus the number of clusters.
//!
//! Paper setup: N ∈ {2, 3, 4, 5, 10, 20} identical 128-node clusters,
//! EASY scheduling, exact estimates, schemes R2/R3/R4/HALF/ALL, 50
//! replications. Paper findings: worst case ≈ +10 % (small N); all
//! schemes beneficial for N > 5, improving stretch by 15–25 % and
//! fairness (CV) by 10–25 %; max stretch improves 10–60 %.

use rbr_grid::{GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};

use crate::plot::AsciiPlot;
use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Comparison, Experiment, RunMetrics};

/// Parameters of the Figure 1/2 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Cluster counts to sweep.
    pub ns: Vec<usize>,
    /// Redundancy schemes to evaluate (the baseline NONE is implicit).
    pub schemes: Vec<Scheme>,
    /// Replications per (N, scheme).
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
        let ns = match scale {
            Scale::Smoke => vec![2, 5],
            Scale::Quick => vec![2, 5, 10, 20],
            Scale::Paper => vec![2, 3, 4, 5, 10, 20],
        };
        Config {
            ns,
            schemes: Scheme::paper_schemes().to_vec(),
            reps: scale.reps(),
            window: scale.window(),
            seed: 42,
        }
    }
}

/// One point of the figures: a `(N, scheme)` pair with every relative
/// metric the paper plots.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Number of clusters.
    pub n: usize,
    /// Redundancy scheme.
    pub scheme: Scheme,
    /// Figure 1's y-axis: mean over replications of
    /// `avg_stretch(scheme) / avg_stretch(NONE)`.
    pub rel_stretch: f64,
    /// Figure 2's y-axis: the same ratio for the CV of stretches.
    pub rel_cv: f64,
    /// Relative maximum stretch (quoted in §3.3 as improving 10–60 %).
    pub rel_max_stretch: f64,
    /// Relative mean turnaround (§3.3: always beneficial by this metric).
    pub rel_turnaround: f64,
    /// Fraction of replications where the scheme strictly improved the
    /// average stretch (§3.3 quotes >85–95 % for N ≥ 10).
    pub win_fraction: f64,
    /// Worst (largest) per-replication stretch ratio.
    pub worst: f64,
    /// Absolute baseline average stretch, for context.
    pub baseline_stretch: f64,
}

/// Runs the sweep.
pub fn run(config: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in &config.ns {
        let seed = SeedSequence::new(config.seed).child(n as u64);
        let arm = |scheme: Scheme| {
            let mut cfg = GridConfig::homogeneous(n, scheme);
            cfg.window = config.window;
            cfg
        };
        let group: Vec<GridConfig> = std::iter::once(Scheme::None)
            .chain(config.schemes.iter().copied())
            .map(arm)
            .collect();
        let mut series =
            run_paired(config.reps, seed, |_| group.clone(), RunMetrics::from_run).into_iter();
        let baseline = series.next().expect("the baseline arm");

        for (&scheme, treatment) in config.schemes.iter().zip(series) {
            let cmp = Comparison::new(baseline.clone(), treatment);
            let series = cmp.stretch_series();
            rows.push(Row {
                n,
                scheme,
                rel_stretch: series.summary().mean(),
                rel_cv: cmp.rel_cv(),
                rel_max_stretch: cmp.rel_max_stretch(),
                rel_turnaround: cmp.rel_turnaround(),
                win_fraction: series.win_fraction(),
                worst: series.worst(),
                baseline_stretch: cmp.baseline_stretch(),
            });
        }
    }
    rows
}

/// Figure 1 as a typed table: every relative metric of the sweep.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Figure 1 — stretch relative to NONE vs number of clusters",
        vec![
            "N",
            "scheme",
            "rel stretch",
            "rel CV",
            "rel max",
            "rel TAT",
            "wins",
            "worst",
            "base stretch",
        ],
    );
    for r in rows {
        t.push(vec![
            Cell::int(r.n as i64),
            Cell::text(r.scheme.to_string()),
            Cell::float(r.rel_stretch, 3),
            Cell::float(r.rel_cv, 3),
            Cell::float(r.rel_max_stretch, 3),
            Cell::float(r.rel_turnaround, 3),
            Cell::percent(r.win_fraction, 0),
            Cell::float(r.worst, 3),
            Cell::float(r.baseline_stretch, 1),
        ]);
    }
    t
}

/// Figure 2 as a typed table: the fairness (CV) projection of the same
/// sweep — the paper plots it as its own figure, so it gets its own
/// named table.
pub fn cv_table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Figure 2 — CV of stretches relative to NONE vs number of clusters",
        vec!["N", "scheme", "rel CV"],
    );
    for r in rows {
        t.push(vec![
            Cell::int(r.n as i64),
            Cell::text(r.scheme.to_string()),
            Cell::float(r.rel_cv, 3),
        ]);
    }
    t
}

/// Renders the rows the way the paper's figures read.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// Figures 1 and 2, registered as one entry because a single sweep
/// produces both (the old CLI listed `fig2` separately and quietly
/// re-ran the `fig1` module — the alias models the relationship
/// honestly).
pub struct Fig1;

impl Experiment for Fig1 {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig2"]
    }

    fn description(&self) -> &'static str {
        "Figures 1 & 2: relative average stretch and relative CV of stretches vs number of clusters"
    }

    fn paper_section(&self) -> &'static str {
        "§3.3"
    }

    fn default_seed(&self) -> u64 {
        42
    }

    fn tables(&self, scale: Scale, seed: u64, reps: Option<usize>) -> Vec<TypedTable> {
        let mut config = Config::at_scale(scale);
        config.seed = seed;
        if let Some(r) = reps {
            config.reps = r;
        }
        let rows = run(&config);
        vec![table(&rows), cv_table(&rows)]
    }
}

/// Renders the rows as the paper's Figure 1 plot (one series per
/// scheme, x = number of clusters, y = relative average stretch).
pub fn render_plot(rows: &[Row]) -> String {
    let mut plot = AsciiPlot::new(
        "Figure 1: average stretch relative to NONE",
        "number of clusters",
        "relative stretch",
    );
    let mut schemes: Vec<Scheme> = rows.iter().map(|r| r.scheme).collect();
    schemes.dedup();
    for scheme in schemes {
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.scheme == scheme)
            .map(|r| (r.n as f64, r.rel_stretch))
            .collect();
        plot = plot.series(&scheme.to_string(), &pts);
    }
    plot.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_rows() {
        let cfg = Config::at_scale(Scale::Smoke);
        let rows = run(&cfg);
        assert_eq!(rows.len(), cfg.ns.len() * cfg.schemes.len());
        for r in &rows {
            assert!(r.rel_stretch > 0.0 && r.rel_stretch.is_finite());
            assert!(r.rel_cv > 0.0 && r.rel_cv.is_finite());
            assert!(r.baseline_stretch >= 1.0);
        }
        let text = render(&rows);
        assert!(text.contains("rel stretch"));
        assert!(text.contains("ALL"));
        let plot = render_plot(&rows);
        assert!(plot.contains("Figure 1"));
        assert!(plot.contains("legend"));
    }

    #[test]
    fn paper_config_matches_protocol() {
        let cfg = Config::paper();
        assert_eq!(cfg.ns, vec![2, 3, 4, 5, 10, 20]);
        assert_eq!(cfg.reps, 50);
        assert_eq!(cfg.schemes.len(), 5);
    }

    #[test]
    fn runs_are_reproducible() {
        let mut cfg = Config::at_scale(Scale::Smoke);
        cfg.ns = vec![2];
        cfg.schemes = vec![Scheme::R(2)];
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a[0].rel_stretch, b[0].rel_stretch);
        assert_eq!(a[0].rel_cv, b[0].rel_cv);
    }
}
