//! The §4.1 queue-size check: "when simulating N = 10 clusters for a
//! 24-hour period, we found that the average maximum queue size across
//! all clusters for the ALL redundant request scheme is larger than when
//! no redundant requests are used by less than 2 %."
//!
//! We reproduce the measurement; EXPERIMENTS.md discusses why the effect
//! is larger in an overloaded regime (a pending job occupies `r` queues
//! at once until it starts, so standing backlog inflates per-queue
//! length even though the *number of jobs in the system* barely moves).

use rbr_grid::{GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{mean_ratio, run_paired, Experiment, RunMetrics};

/// Parameters of the queue-growth measurement.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (paper: 10).
    pub n: usize,
    /// Scheme to compare against NONE (paper: ALL).
    pub scheme: Scheme,
    /// Replications.
    pub reps: usize,
    /// Submission window (paper: 24 hours).
    pub window: Duration,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// The paper's 24-hour protocol.
    pub fn paper() -> Self {
        Config::at_scale(Scale::Paper)
    }

    /// Reduced fidelity.
    pub fn at_scale(scale: Scale) -> Self {
        Config {
            n: 10,
            scheme: Scheme::All,
            reps: scale.reps().min(10),
            window: match scale {
                Scale::Smoke => Duration::from_secs(1_800.0),
                Scale::Quick => Duration::from_hours(6),
                Scale::Paper => Duration::from_hours(24),
            },
            seed: 50,
        }
    }
}

/// The measurement outcome.
#[derive(Clone, Copy, Debug)]
pub struct Output {
    /// Average queue growth during the submission window, in *jobs* per
    /// hour (the paper quotes ≈700 jobs/hour for the model's peak hours).
    pub growth_per_hour: f64,
    /// Average (over clusters, then replications) maximum queue length
    /// without redundancy.
    pub baseline_max_queue: f64,
    /// Same with the scheme.
    pub scheme_max_queue: f64,
    /// Mean per-replication ratio `scheme / baseline`.
    pub ratio: f64,
    /// Per-replication ratio of the *number of distinct jobs* pending at
    /// peak, approximated by dividing per-queue length by the mean number
    /// of live copies — reported for the discussion in EXPERIMENTS.md.
    pub submits_ratio: f64,
}

/// Runs the measurement.
pub fn run(config: &Config) -> Output {
    let seed = SeedSequence::new(config.seed);
    let mut base = GridConfig::homogeneous(config.n, Scheme::None);
    base.window = config.window;
    let mut treat = base.clone();
    treat.scheme = config.scheme;

    let window = config.window;
    let [b, t]: [Vec<(f64, f64, f64)>; 2] = run_paired(
        config.reps,
        seed,
        |_| vec![base.clone(), treat.clone()],
        |run| {
            (
                RunMetrics::from_run(run).max_queue_avg,
                run.submits as f64,
                run.queue_growth_per_hour(window) / config.n as f64,
            )
        },
    )
    .try_into()
    .expect("two arms");
    let bq: Vec<f64> = b.iter().map(|x| x.0).collect();
    let tq: Vec<f64> = t.iter().map(|x| x.0).collect();
    Output {
        growth_per_hour: b.iter().map(|x| x.2).sum::<f64>() / b.len() as f64,
        baseline_max_queue: bq.iter().sum::<f64>() / bq.len() as f64,
        scheme_max_queue: tq.iter().sum::<f64>() / tq.len() as f64,
        ratio: mean_ratio(&tq, &bq),
        submits_ratio: mean_ratio(
            &t.iter().map(|x| x.1).collect::<Vec<_>>(),
            &b.iter().map(|x| x.1).collect::<Vec<_>>(),
        ),
    }
}

/// The measurement as a typed table.
pub fn table(out: &Output) -> TypedTable {
    let mut t = TypedTable::new(
        "§4.1 — maximum queue size with and without redundancy",
        vec!["metric", "value"],
    );
    t.push(vec![
        Cell::text("avg max queue, NONE"),
        Cell::float(out.baseline_max_queue, 1),
    ]);
    t.push(vec![
        Cell::text("avg max queue, scheme"),
        Cell::float(out.scheme_max_queue, 1),
    ]);
    t.push(vec![Cell::text("ratio"), Cell::float(out.ratio, 3)]);
    t.push(vec![
        Cell::text("submissions ratio"),
        Cell::float(out.submits_ratio, 2),
    ]);
    t.push(vec![
        Cell::text("queue growth (jobs/h/cluster, NONE)"),
        Cell::float(out.growth_per_hour, 0),
    ]);
    t
}

/// Renders the outcome.
pub fn render(out: &Output) -> String {
    table(out).to_text()
}

/// The queue-growth check's registry entry.
pub struct QueueGrowth;

impl Experiment for QueueGrowth {
    fn name(&self) -> &'static str {
        "queue-growth"
    }

    fn description(&self) -> &'static str {
        "§4.1 check: how much the ALL scheme inflates the maximum queue size"
    }

    fn paper_section(&self) -> &'static str {
        "§4.1"
    }

    fn default_seed(&self) -> u64 {
        50
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
        let out = run(&cfg);
        assert!(out.baseline_max_queue > 0.0);
        assert!(out.ratio > 0.0 && out.ratio.is_finite());
        // Redundant jobs multiply submissions.
        assert!(out.submits_ratio > 1.0);
        assert!(render(&out).contains("ratio"));
    }
}
