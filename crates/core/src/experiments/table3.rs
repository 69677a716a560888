//! Table 3: heterogeneous platforms.
//!
//! Paper setup: N = 10 clusters whose sizes are drawn from
//! {16, 32, 64, 128, 256} and whose mean interarrival times are drawn
//! from U(2 s, 20 s), independently per replication; jobs never request
//! more nodes than their home cluster has. Paper values (relative to
//! NONE): stretch 0.83 / 0.74 / 0.71 / 0.63 / 0.67 and CV 0.90 / 0.85 /
//! 0.84 / 0.81 / 0.79 for R2 / R3 / R4 / HALF / ALL — redundancy helps
//! *more* than in the homogeneous case, because load balancing has more
//! imbalance to exploit.

use rbr_grid::{ClusterSpec, GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::LublinConfig;

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Comparison, Experiment, RunMetrics};

/// Parameters of the Table 3 experiment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (paper: 10).
    pub n: usize,
    /// Cluster sizes drawn from this set.
    pub size_choices: Vec<u32>,
    /// Interarrival times drawn uniformly from this range (seconds).
    pub iat_range: (f64, f64),
    /// Schemes to evaluate.
    pub schemes: Vec<Scheme>,
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
            size_choices: vec![16, 32, 64, 128, 256],
            iat_range: (2.0, 20.0),
            schemes: Scheme::paper_schemes().to_vec(),
            reps: scale.reps(),
            window: scale.window(),
            seed: 46,
        }
    }

    /// Draws the random platform of replication `rep` — both the baseline
    /// and every scheme see the identical platform and job streams.
    fn platform(&self, rep: usize) -> Vec<ClusterSpec> {
        use rand::RngExt;
        let mut rng = SeedSequence::new(self.seed)
            .child(0x9147)
            .child(rep as u64)
            .rng();
        (0..self.n)
            .map(|_| {
                let nodes = self.size_choices[rng.random_range(0..self.size_choices.len())];
                let iat = rng.random_range(self.iat_range.0..self.iat_range.1);
                ClusterSpec::new(
                    nodes,
                    LublinConfig::paper_2006().with_mean_interarrival(iat),
                )
            })
            .collect()
    }
}

/// One row of Table 3.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Redundancy scheme.
    pub scheme: Scheme,
    /// Relative average stretch vs NONE.
    pub rel_stretch: f64,
    /// Relative CV of stretches vs NONE.
    pub rel_cv: f64,
}

/// Runs the experiment. Each replication draws its platform once, and
/// NONE and every scheme run on it over one shared job table.
pub fn run(config: &Config) -> Vec<Row> {
    let seed = SeedSequence::new(config.seed);
    let group = |rep: usize| -> Vec<GridConfig> {
        let mut base = GridConfig::homogeneous(1, Scheme::None);
        base.clusters = config.platform(rep);
        base.window = config.window;
        let mut group = vec![base.clone()];
        group.extend(config.schemes.iter().map(|&scheme| GridConfig {
            scheme,
            ..base.clone()
        }));
        group
    };
    let mut series = run_paired(config.reps, seed, group, RunMetrics::from_run).into_iter();
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

/// Table 3 as a typed table.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Table 3 — heterogeneous platforms (random sizes and loads)",
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

/// Renders the rows in the paper's Table 3 layout.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// Table 3's registry entry.
pub struct Table3;

impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn description(&self) -> &'static str {
        "Table 3: redundancy on heterogeneous platforms with per-replication random draws"
    }

    fn paper_section(&self) -> &'static str {
        "§3.5"
    }

    fn default_seed(&self) -> u64 {
        46
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
    fn platform_is_reproducible_and_heterogeneous() {
        let cfg = Config::at_scale(Scale::Smoke);
        let a = cfg.platform(3);
        let b = cfg.platform(3);
        assert_eq!(a.len(), 10);
        assert_eq!(
            a.iter().map(|c| c.nodes).collect::<Vec<_>>(),
            b.iter().map(|c| c.nodes).collect::<Vec<_>>()
        );
        for c in &a {
            assert!(cfg.size_choices.contains(&c.nodes));
            let iat = c.workload.mean_interarrival();
            assert!((2.0..20.0).contains(&iat));
        }
        // Different reps draw different platforms (overwhelmingly likely).
        let other = cfg.platform(4);
        assert_ne!(
            a.iter().map(|c| c.nodes).collect::<Vec<_>>(),
            other.iter().map(|c| c.nodes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn smoke_run() {
        let mut cfg = Config::at_scale(Scale::Smoke);
        cfg.n = 3;
        cfg.schemes = vec![Scheme::All];
        cfg.window = Duration::from_secs(900.0);
        let rows = run(&cfg);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].rel_stretch.is_finite());
        assert!(render(&rows).contains("ALL"));
    }
}
