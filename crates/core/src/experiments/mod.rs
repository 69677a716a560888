//! The experiment layer: one declarative runner per figure and table of
//! the paper, plus ablations beyond it, all registered in a single
//! [`Registry`].
//!
//! Every entry implements the [`Experiment`] trait — `(scale, seed)` in,
//! structured [`Report`](crate::report::Report) out — and the registry
//! is the *only* list of experiments in the workspace: the CLI, the
//! campaign ledger, and the framework smoke test all iterate it.
//!
//! | registry name | module | reproduces |
//! |---------------|--------|------------|
//! | `fig1` (alias `fig2`) | [`fig1`] | Figure 1 (relative average stretch vs N) and Figure 2 (relative CV of stretches vs N) — one sweep, two tables |
//! | `table1` | [`table1`] | Table 1 (EASY / CBF / FCFS × exact / real estimates) |
//! | `table2` | [`table2`] | Table 2 (non-uniformly distributed redundant requests) |
//! | `fig3` | [`fig3`] | Figure 3 (relative stretch vs job interarrival time) |
//! | `table3` | [`table3`] | Table 3 (heterogeneous platforms) |
//! | `fig4` | [`fig4`] | Figure 4 (r-jobs vs n-r jobs vs fraction p) |
//! | `fig5` | [`fig5`] | Figure 5 (scheduler submit/cancel throughput vs queue size) |
//! | `table4` | [`table4`] | Table 4 (queue-wait over-prediction) |
//! | `queue-growth` | [`queue_growth`] | §4.1's "<2 % larger max queue size" check |
//! | `conclusion` | [`conclusion`] | the N = 20, 80 %-ALL scenario quoted in the conclusion |
//! | `ablations` | [`ablation`] | beyond the paper: load-regime, CBF-cycle, selection-policy, and inflation sensitivity |
//! | `forecast` | [`forecast`] | beyond the paper: redundancy's effect on statistical (binomial quantile-bound) wait forecasting |
//! | `moldable` | [`moldable`] | beyond the paper: option (iv) — redundant shape requests for moldable jobs |
//! | `dual-queue` | [`dual_queue`] | beyond the paper: option (iii) — redundant requests across premium/standard queues |
//! | `trace-check` | [`trace_check`] | §3.1.1's trace cross-check: replay an SWF trace split across the clusters |
//! | `faults` | [`faults`] | beyond the paper: unreliable middleware — lost/delayed cancellations and outages vs the perfect-middleware baseline |
//! | `batch` | [`batch`] | beyond the paper: batched submit/cancel transactions — sustainable redundancy vs batch size, plus the batching metascheduler's behavior |
//! | `stability` | [`stability`] | beyond the paper: the redundancy-d stability frontier — empirical λ* per (d, cancel-mode, copy-model) scheme via queue-growth bisection |
//!
//! Every runner is a pure function of its `Config` (seeds included), so
//! results are bit-reproducible across machines.
//!
//! # Adding an experiment
//!
//! 1. Write the module: a `Config` with `at_scale(Scale)`, a `run`
//!    function, and a unit struct implementing [`Experiment`] whose
//!    `tables()` builds [`TypedTable`](crate::report::TypedTable)s from
//!    the run. Use `run_paired`/[`Comparison`] for the paired
//!    replication harness: hand it every configuration compared on a
//!    seed as one group, and each replication runs them all over one
//!    job table.
//! 2. Register the unit struct in [`Registry::standard`].
//!
//! That is the whole checklist: `rbr list`, `rbr run <name>`, `rbr run
//! all`, the campaign ledger, and the registry smoke test pick it up
//! from the registry.

pub mod ablation;
pub mod batch;
pub mod campaign;
pub mod conclusion;
pub mod dual_queue;
pub mod faults;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod forecast;
pub mod framework;
pub mod moldable;
pub mod queue_growth;
pub mod registry;
pub mod stability;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod trace_check;

pub use framework::{Comparison, Experiment};
pub use registry::Registry;

use rbr_grid::record::JobClass;
use rbr_grid::sim::generate_jobs;
use rbr_grid::{GridConfig, GridSim, RunResult};
use rbr_simcore::SeedSequence;
use rbr_stats::Summary;
use rbr_workload::JobSpec;

/// The per-run metrics the figures and tables are built from. Reducing
/// each run to this immediately keeps memory flat when replications run
/// in parallel.
#[derive(Clone, Copy, Debug)]
pub struct RunMetrics {
    /// Mean job stretch.
    pub stretch_mean: f64,
    /// Coefficient of variation of job stretches (the fairness metric).
    pub stretch_cv: f64,
    /// Largest job stretch.
    pub stretch_max: f64,
    /// Mean turnaround time in seconds.
    pub turnaround_mean: f64,
    /// Mean stretch over redundant jobs only (NaN if none).
    pub stretch_redundant: f64,
    /// Mean stretch over non-redundant jobs only (NaN if none).
    pub stretch_non_redundant: f64,
    /// Average over clusters of the maximum queue length.
    pub max_queue_avg: f64,
    /// Node-seconds thrown away (zombie executions, outage-killed runs);
    /// 0 under perfect middleware.
    pub wasted_node_secs: f64,
    /// `wasted_node_secs` over the useful work delivered.
    pub waste_fraction: f64,
    /// Copies that started after their job had begun elsewhere.
    pub zombie_starts: f64,
    /// Useful node-seconds delivered (completed-job work areas).
    pub useful_node_secs: f64,
    /// Useful work over total pool capacity × makespan (0 when either
    /// is unknown).
    pub utilization: f64,
}

impl RunMetrics {
    /// Reduces a completed run.
    pub fn from_run(run: &RunResult) -> Self {
        let all = run.stretch(JobClass::All);
        let r = run.stretch(JobClass::Redundant);
        let nr = run.stretch(JobClass::NonRedundant);
        RunMetrics {
            stretch_mean: all.mean(),
            stretch_cv: all.cv(),
            stretch_max: all.max(),
            turnaround_mean: run.turnaround(JobClass::All).mean(),
            stretch_redundant: if r.is_empty() { f64::NAN } else { r.mean() },
            stretch_non_redundant: if nr.is_empty() { f64::NAN } else { nr.mean() },
            max_queue_avg: if run.max_queue_len.is_empty() {
                0.0
            } else {
                run.max_queue_len.iter().sum::<usize>() as f64 / run.max_queue_len.len() as f64
            },
            wasted_node_secs: run.wasted_node_secs,
            waste_fraction: run.waste_fraction(),
            zombie_starts: run.zombie_starts as f64,
            useful_node_secs: run.total_work(),
            utilization: run.overall_utilization(),
        }
    }
}

/// One arm of a paired comparison: a configuration, and the simulator
/// that runs it over a replication's shared job table.
pub(crate) trait Arm {
    /// The configuration; its workload fields generate the table.
    fn config(&self) -> &GridConfig;

    /// Runs the arm over `jobs`, the table generated from `seed`.
    fn run(self, jobs: Vec<(JobSpec, usize)>, seed: SeedSequence) -> RunResult;
}

impl Arm for GridConfig {
    fn config(&self) -> &GridConfig {
        self
    }

    fn run(self, jobs: Vec<(JobSpec, usize)>, seed: SeedSequence) -> RunResult {
        GridSim::with_jobs(self, jobs, seed).run()
    }
}

/// The paired replication harness: runs every arm of a comparison on
/// the same job streams and returns each arm's series of reduced runs,
/// indexed `[arm][rep]`.
///
/// Replication `k` is one `rbr-exec` cell. It builds the group with
/// `group(k)`, generates the job table once from `seed.child(k)`, and
/// runs every arm over that table in turn, reducing each run with
/// `reduce` before the next one starts. Each arm's run is
/// exactly `GridSim::execute(config, seed.child(k))`, the paper's paired
/// design, at one table per in-flight cell. Cells merge in index order,
/// so the result is bit-identical to the serial loop for any `--jobs`
/// count.
///
/// # Panics
/// Panics if `reps` is 0, if a group is empty, or if an arm's workload
/// differs from arm 0's ([`GridConfig::same_workload`]): such an arm
/// would silently run on another arm's stream.
pub(crate) fn run_paired<A, T>(
    reps: usize,
    seed: SeedSequence,
    group: impl Fn(usize) -> Vec<A> + Sync,
    reduce: impl Fn(&RunResult) -> T + Sync,
) -> Vec<Vec<T>>
where
    A: Arm,
    T: Send,
{
    assert!(
        reps > 0,
        "a paired comparison needs at least one replication"
    );
    // Cells may execute on pool worker threads; carry the submitting
    // experiment's sim tally across so provenance counts attribute to it
    // (and stay deterministic) regardless of which thread runs the rep.
    let tally = framework::current_tally();
    let mut series: Vec<Vec<T>> = Vec::new();
    rbr_exec::fold_cells(
        reps,
        |rep| {
            let _tally = framework::install_tally(tally.clone());
            let arms = group(rep);
            let first = arms.first().expect("a paired group needs an arm").config();
            for (i, arm) in arms.iter().enumerate().skip(1) {
                if let Err(field) = first.same_workload(arm.config()) {
                    panic!("paired arm {i} differs from arm 0 in `{field}`: it cannot share the job table");
                }
            }
            let seed = seed.child(rep as u64);
            first.validate();
            let jobs = generate_jobs(first, &seed);
            arms.into_iter()
                .map(|arm| {
                    let run = arm.run(jobs.clone(), seed);
                    framework::record_sim(&run);
                    reduce(&run)
                })
                .collect::<Vec<T>>()
        },
        |_, row| {
            if series.is_empty() {
                series.resize_with(row.len(), || Vec::with_capacity(reps));
            }
            for (arm, value) in series.iter_mut().zip(row) {
                arm.push(value);
            }
        },
    );
    series
}

/// Folds `reps` campaign cells into per-column streaming summaries.
///
/// Each cell samples `K` metric columns; the fold merges them through
/// [`Summary`] (Welford) in replication order, so memory is O(K)
/// regardless of rep count and the result is bit-identical for any job
/// count. A `NaN` sample means "no observation for this column in this
/// rep" (e.g. no redundant jobs that replication) and is skipped, so
/// conditional columns carry their own counts. The submitting
/// experiment's sim tally travels with the cells.
pub(crate) fn summarize_cells<const K: usize>(
    reps: usize,
    sample: impl Fn(usize) -> [f64; K] + Sync,
) -> [Summary; K] {
    let tally = framework::current_tally();
    let mut out = [Summary::new(); K];
    rbr_exec::fold_cells(
        reps,
        |rep| {
            let _tally = framework::install_tally(tally.clone());
            sample(rep)
        },
        |_, row: [f64; K]| push_samples(&mut out, row),
    );
    out
}

/// Pushes one cell's `K` samples into per-column summaries, skipping NaN
/// ("no observation for this column in this rep").
pub(crate) fn push_samples<const K: usize>(summaries: &mut [Summary; K], row: [f64; K]) {
    for (summary, value) in summaries.iter_mut().zip(row) {
        if !value.is_nan() {
            summary.push(value);
        }
    }
}

/// The summary's mean, or NaN when no rep contributed an observation.
pub(crate) fn mean_or_nan(summary: &Summary) -> f64 {
    if summary.is_empty() {
        f64::NAN
    } else {
        summary.mean()
    }
}

/// Mean of per-replication ratios `treatment[k] / baseline[k]`.
pub(crate) fn mean_ratio(treatment: &[f64], baseline: &[f64]) -> f64 {
    rbr_stats::mean_relative(treatment, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_grid::Scheme;
    use rbr_sched::Algorithm;
    use rbr_simcore::Duration;

    fn tiny(scheme: Scheme) -> GridConfig {
        let mut cfg = GridConfig::homogeneous(2, scheme);
        cfg.window = Duration::from_secs(900.0);
        cfg
    }

    /// Every field, as bits; the exhaustive pattern fails to compile when
    /// a field is added and not compared.
    fn bits(m: &RunMetrics) -> [u64; 12] {
        let RunMetrics {
            stretch_mean,
            stretch_cv,
            stretch_max,
            turnaround_mean,
            stretch_redundant,
            stretch_non_redundant,
            max_queue_avg,
            wasted_node_secs,
            waste_fraction,
            zombie_starts,
            useful_node_secs,
            utilization,
        } = *m;
        [
            stretch_mean,
            stretch_cv,
            stretch_max,
            turnaround_mean,
            stretch_redundant,
            stretch_non_redundant,
            max_queue_avg,
            wasted_node_secs,
            waste_fraction,
            zombie_starts,
            useful_node_secs,
            utilization,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn paired_runs_share_streams() {
        let seed = SeedSequence::new(7);
        let series = run_paired(
            2,
            seed,
            |_| vec![tiny(Scheme::None), tiny(Scheme::All)],
            |r| r.records.len(),
        );
        assert_eq!(
            series[0], series[1],
            "same seeds must yield identical job populations"
        );
    }

    /// Sharing the table is exact: each arm of the fold equals an
    /// independent `GridSim::execute` on the replication's seed, across
    /// schemes, algorithms and a faulty middleware.
    #[test]
    fn paired_fold_equals_independent_runs() {
        let config = |scheme: Scheme, algorithm: Algorithm| {
            let mut cfg = GridConfig::homogeneous(3, scheme);
            cfg.window = Duration::from_secs(900.0);
            cfg.algorithm = algorithm;
            cfg
        };
        let mut lossy = config(Scheme::All, Algorithm::Easy);
        lossy.faults.cancel_loss = 0.5;
        let group = vec![
            config(Scheme::None, Algorithm::Easy),
            config(Scheme::All, Algorithm::Easy),
            config(Scheme::Half, Algorithm::Cbf),
            lossy,
        ];
        let seed = SeedSequence::new(19);
        let reduce = |run: &RunResult| (run.records.len(), bits(&RunMetrics::from_run(run)));
        let paired = run_paired(3, seed, |_| group.clone(), reduce);
        assert_eq!(paired.len(), group.len());
        for (arm, cfg) in group.iter().enumerate() {
            assert_eq!(paired[arm].len(), 3);
            for (rep, got) in paired[arm].iter().enumerate() {
                let run = GridSim::execute(cfg.clone(), seed.child(rep as u64));
                assert_eq!(*got, reduce(&run), "arm {arm}, replication {rep}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "paired arm 1 differs from arm 0 in `window`")]
    fn a_mixed_group_panics_naming_the_field() {
        let mut longer = tiny(Scheme::All);
        longer.window = Duration::from_secs(1800.0);
        run_paired(
            1,
            SeedSequence::new(3),
            |_| vec![tiny(Scheme::None), longer.clone()],
            |_| (),
        );
    }

    #[test]
    fn metrics_are_finite_for_mixed_population() {
        let mut cfg = tiny(Scheme::All);
        cfg.redundant_fraction = 0.5;
        let m = run_paired(
            1,
            SeedSequence::new(8),
            |_| vec![cfg.clone()],
            RunMetrics::from_run,
        );
        let m = m[0][0];
        assert!(m.stretch_mean >= 1.0);
        assert!(m.stretch_redundant.is_finite());
        assert!(m.stretch_non_redundant.is_finite());
        assert!(m.max_queue_avg >= 0.0);
        assert!(m.useful_node_secs > 0.0);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
    }

    #[test]
    fn zero_cluster_run_yields_zeros_not_nan() {
        let m = RunMetrics::from_run(&RunResult::default());
        assert_eq!(m.max_queue_avg, 0.0);
        assert_eq!(m.useful_node_secs, 0.0);
        assert_eq!(m.utilization, 0.0);
    }
}
