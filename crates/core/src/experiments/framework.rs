//! The declarative experiment framework.
//!
//! Every figure, table, and ablation is an [`Experiment`]: a named,
//! self-describing unit that turns `(scale, seed)` into a structured
//! [`Report`]. The trait carries the shared scaffolding that each module
//! used to hand-roll — provenance stamping, wall-time measurement, and
//! simulation accounting — so a module only supplies its metadata and
//! its table builder. [`Comparison`] hoists the paired relative-metric
//! reduction (treatment over baseline on identical seeds) that most of
//! the paper's results are expressed in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rbr_grid::RunResult;
use rbr_stats::RelativeSeries;

use super::{mean_ratio, RunMetrics};
use crate::report::{Report, RunMeta, TypedTable};
use crate::scale::Scale;

/// Per-experiment tally of grid-simulator executions, used to stamp
/// [`RunMeta`] with how much simulation a report cost. Each
/// [`Experiment::run_with`] owns one tally; the replication fan-out in
/// `run_paired` carries it onto pool worker threads, so counts attribute to
/// the experiment that caused them even when several experiments run
/// concurrently on the campaign engine — and sum identically for any job
/// count.
#[derive(Default)]
pub(crate) struct SimTally {
    runs: AtomicU64,
    jobs: AtomicU64,
    events: AtomicU64,
}

impl SimTally {
    fn counters(&self) -> (u64, u64, u64) {
        (
            self.runs.load(Ordering::Relaxed),
            self.jobs.load(Ordering::Relaxed),
            self.events.load(Ordering::Relaxed),
        )
    }
}

thread_local! {
    /// Stack of tallies active on this thread: `run_with` pushes its own
    /// around the table build, and each pool cell re-installs the
    /// submitting experiment's tally around its body.
    static TALLY: std::cell::RefCell<Vec<Arc<SimTally>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The tally simulator runs on this thread currently attribute to.
pub(crate) fn current_tally() -> Option<Arc<SimTally>> {
    TALLY.with(|t| t.borrow().last().cloned())
}

/// Installs `tally` (when present) as this thread's current tally until
/// the returned guard drops. Pool cells use this to carry the submitting
/// experiment's tally across threads.
pub(crate) fn install_tally(tally: Option<Arc<SimTally>>) -> TallyGuard {
    let installed = tally.is_some();
    if let Some(tally) = tally {
        TALLY.with(|t| t.borrow_mut().push(tally));
    }
    TallyGuard { installed }
}

pub(crate) struct TallyGuard {
    installed: bool,
}

impl Drop for TallyGuard {
    fn drop(&mut self) {
        if self.installed {
            TALLY.with(|t| {
                t.borrow_mut().pop();
            });
        }
    }
}

/// Records one completed grid-simulator run against the current tally.
pub(crate) fn record_sim(run: &RunResult) {
    if let Some(tally) = current_tally() {
        tally.runs.fetch_add(1, Ordering::Relaxed);
        tally
            .jobs
            .fetch_add(run.records.len() as u64, Ordering::Relaxed);
        tally.events.fetch_add(run.events, Ordering::Relaxed);
    }
}

/// The `RBR_FIXED_WALL_TIME` override: when set (e.g. by the CI
/// determinism gate or the equivalence tests), every report stamps this
/// value as its wall time, making reports byte-comparable across runs.
fn fixed_wall_time() -> Option<f64> {
    static FIXED: OnceLock<Option<f64>> = OnceLock::new();
    *FIXED.get_or_init(|| {
        std::env::var("RBR_FIXED_WALL_TIME")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
    })
}

/// One registered experiment: a figure, table, or ablation that maps
/// `(scale, seed)` to a [`Report`].
///
/// Implementations provide metadata and [`Experiment::tables`]; the
/// provided [`Experiment::run`] wraps the table build with wall-time
/// measurement and simulation accounting and stamps the result with
/// [`RunMeta`]. Registering the implementation in
/// [`Registry::standard`](super::Registry::standard) is all it takes to
/// appear in `rbr list`, `rbr run`, the benches, and the framework smoke
/// test.
pub trait Experiment: Send + Sync {
    /// Canonical registry name (`"fig1"`, `"table3"`, `"queue-growth"`).
    fn name(&self) -> &'static str;

    /// Alternative names this entry answers to (`fig1` owns `fig2`
    /// because one sweep produces both figures).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description shown by `rbr list`.
    fn description(&self) -> &'static str;

    /// Paper section (or "beyond the paper" tag) the experiment belongs
    /// to.
    fn paper_section(&self) -> &'static str;

    /// Master seed used when the caller does not supply one.
    fn default_seed(&self) -> u64;

    /// Replications per configuration at the given scale, for the
    /// provenance stamp.
    fn replications(&self, scale: Scale) -> usize {
        scale.reps()
    }

    /// Builds the experiment's output tables at the given scale and
    /// master seed. A `Some(reps)` overrides the scale's replication
    /// count for every configuration the experiment sweeps (the CLI's
    /// `--reps` flag).
    fn tables(&self, scale: Scale, seed: u64, reps: Option<usize>) -> Vec<TypedTable>;

    /// Runs the experiment and stamps the result with provenance.
    fn run(&self, scale: Scale, seed: u64) -> Report {
        self.run_with(scale, seed, None)
    }

    /// [`Experiment::run`] with an explicit replication override, which
    /// is stamped into [`RunMeta::replications`] in place of the scale
    /// preset.
    fn run_with(&self, scale: Scale, seed: u64, reps: Option<usize>) -> Report {
        let tally = Arc::new(SimTally::default());
        let start = Instant::now();
        let tables = {
            let _guard = install_tally(Some(Arc::clone(&tally)));
            self.tables(scale, seed, reps)
        };
        let wall_time_secs = fixed_wall_time().unwrap_or_else(|| start.elapsed().as_secs_f64());
        let (runs, jobs, events) = tally.counters();
        Report {
            meta: RunMeta {
                experiment: self.name().to_string(),
                paper_section: self.paper_section().to_string(),
                scale: scale.name().to_string(),
                seed,
                replications: reps.unwrap_or_else(|| self.replications(scale)),
                sim_runs: runs,
                jobs,
                events,
                wall_time_secs,
            },
            tables,
        }
    }
}

/// A paired baseline/treatment pair of replication series, reduced with
/// the paper's relative metrics. Replication `k` of both series ran on
/// identical seeds, so per-replication ratios are meaningful.
///
/// When several treatments share one baseline (every scheme against
/// `Scheme::None` at the same N), run the baseline once and clone its
/// metrics into each `Comparison` — `RunMetrics` is `Copy`, so that is a
/// flat memcpy.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Per-replication metrics of the unmodified platform.
    pub baseline: Vec<RunMetrics>,
    /// Per-replication metrics of the platform under the treatment.
    pub treatment: Vec<RunMetrics>,
}

impl Comparison {
    /// Pairs two already-computed replication series.
    pub fn new(baseline: Vec<RunMetrics>, treatment: Vec<RunMetrics>) -> Self {
        assert_eq!(
            baseline.len(),
            treatment.len(),
            "paired series must have equal length"
        );
        Comparison {
            baseline,
            treatment,
        }
    }

    fn rel<F: Fn(&RunMetrics) -> f64>(&self, metric: F) -> f64 {
        let t: Vec<f64> = self.treatment.iter().map(&metric).collect();
        let b: Vec<f64> = self.baseline.iter().map(&metric).collect();
        mean_ratio(&t, &b)
    }

    /// Mean relative average stretch (the paper's headline metric).
    pub fn rel_stretch(&self) -> f64 {
        self.rel(|m| m.stretch_mean)
    }

    /// Mean relative CV of stretches (the fairness metric).
    pub fn rel_cv(&self) -> f64 {
        self.rel(|m| m.stretch_cv)
    }

    /// Mean relative maximum stretch.
    pub fn rel_max_stretch(&self) -> f64 {
        self.rel(|m| m.stretch_max)
    }

    /// Mean relative average turnaround.
    pub fn rel_turnaround(&self) -> f64 {
        self.rel(|m| m.turnaround_mean)
    }

    /// Mean baseline average stretch (the paper quotes it for context).
    pub fn baseline_stretch(&self) -> f64 {
        self.baseline.iter().map(|m| m.stretch_mean).sum::<f64>() / self.baseline.len() as f64
    }

    /// The per-replication stretch-ratio series, for win-fraction and
    /// worst-case statistics.
    pub fn stretch_series(&self) -> RelativeSeries {
        RelativeSeries::from_ratios(
            self.treatment
                .iter()
                .zip(&self.baseline)
                .map(|(t, b)| t.stretch_mean / b.stretch_mean)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Cell;

    struct Dummy;

    impl Experiment for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn description(&self) -> &'static str {
            "a framework test double"
        }
        fn paper_section(&self) -> &'static str {
            "§0"
        }
        fn default_seed(&self) -> u64 {
            1
        }
        fn tables(&self, _scale: Scale, seed: u64, _reps: Option<usize>) -> Vec<TypedTable> {
            let mut t = TypedTable::new("dummy", vec!["seed"]);
            t.push(vec![Cell::int(seed as i64)]);
            vec![t]
        }
    }

    #[test]
    fn provided_run_stamps_provenance() {
        let report = Dummy.run(Scale::Smoke, 77);
        assert_eq!(report.meta.experiment, "dummy");
        assert_eq!(report.meta.scale, "smoke");
        assert_eq!(report.meta.seed, 77);
        assert_eq!(report.meta.replications, Scale::Smoke.reps());
        assert!(report.meta.wall_time_secs >= 0.0);
        assert_eq!(report.tables[0].rows[0][0], Cell::Int(77));
    }

    #[test]
    fn reps_override_is_stamped_into_meta() {
        let report = Dummy.run_with(Scale::Smoke, 77, Some(9));
        assert_eq!(report.meta.replications, 9);
        let default = Dummy.run_with(Scale::Smoke, 77, None);
        assert_eq!(default.meta.replications, Scale::Smoke.reps());
    }

    #[test]
    fn comparison_reduces_paired_metrics() {
        let m = |stretch: f64| RunMetrics {
            stretch_mean: stretch,
            stretch_cv: 0.5,
            stretch_max: 2.0 * stretch,
            turnaround_mean: 100.0 * stretch,
            stretch_redundant: f64::NAN,
            stretch_non_redundant: stretch,
            max_queue_avg: 10.0,
            wasted_node_secs: 0.0,
            waste_fraction: 0.0,
            zombie_starts: 0.0,
            useful_node_secs: 1_000.0 * stretch,
            utilization: 0.5,
        };
        let cmp = Comparison::new(vec![m(2.0), m(4.0)], vec![m(1.0), m(2.0)]);
        assert!((cmp.rel_stretch() - 0.5).abs() < 1e-12);
        assert!((cmp.rel_cv() - 1.0).abs() < 1e-12);
        assert!((cmp.baseline_stretch() - 3.0).abs() < 1e-12);
        let series = cmp.stretch_series();
        assert_eq!(series.ratios().len(), 2);
        assert!((series.win_fraction() - 1.0).abs() < 1e-12);
    }
}
