//! Ablations beyond the paper.
//!
//! Four sensitivity studies that the reproduction surfaced as important
//! (discussed in EXPERIMENTS.md):
//!
//! * [`load_sweep`] — the offered-load regime. Whether redundancy helps
//!   or harms average stretch flips sharply around ρ ≈ 1.1; the paper's
//!   reported band (10–25 % improvement) corresponds to the calibrated
//!   operating point.
//! * [`cbf_cycle_sweep`] — the CBF scheduling-cycle approximation: the
//!   batched-compression scheduler versus textbook
//!   compress-on-every-event.
//! * [`selection_sweep`] — user-blind uniform selection versus the
//!   metascheduler-style least-loaded selection of the related work.
//! * [`inflation_sweep`] — the §3.1.2 sensitivity check: inflating
//!   remote requests by 10 % / 50 % for late binding of input data
//!   ("interestingly observed no difference in our results").

use rbr_grid::{GridConfig, Scheme, SelectionPolicy};
use rbr_sched::Algorithm;
use rbr_simcore::{Duration, SeedSequence};
use rbr_stats::Summary;

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{mean_ratio, push_samples, run_paired, Experiment, RunMetrics};

/// A generic (label, relative stretch, relative CV) ablation row.
#[derive(Clone, Debug)]
pub struct Row {
    /// What was varied.
    pub label: String,
    /// Relative average stretch vs the matching NONE baseline.
    pub rel_stretch: f64,
    /// Relative CV of stretches vs the matching NONE baseline.
    pub rel_cv: f64,
    /// Absolute baseline stretch, for context.
    pub baseline_stretch: f64,
}

/// The backfill-mechanism sweep as a typed table (columns differ from
/// the generic ablation rows).
pub fn backfills_table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Backfill mechanism — backfilled starts per job by scheme",
        vec!["scheme", "backfills/job", "avg stretch"],
    );
    for r in rows {
        t.push(vec![
            Cell::text(r.label.clone()),
            Cell::float(r.rel_stretch, 2),
            Cell::float(r.rel_cv, 1),
        ]);
    }
    t
}

/// Renders the backfill-mechanism sweep.
pub fn render_backfills(rows: &[Row]) -> String {
    backfills_table(rows).to_text()
}

/// Ablation rows as a typed table; `label` heads the first column.
pub fn table(name: &str, label: &str, rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(name, vec![label, "rel stretch", "rel CV", "base stretch"]);
    for r in rows {
        t.push(vec![
            Cell::text(r.label.clone()),
            Cell::float(r.rel_stretch, 3),
            Cell::float(r.rel_cv, 3),
            Cell::float(r.baseline_stretch, 1),
        ]);
    }
    t
}

/// Renders ablation rows.
pub fn render(title: &str, rows: &[Row]) -> String {
    table(title, title, rows).to_text()
}

fn relative_rows(
    label: String,
    base: &GridConfig,
    treat: &GridConfig,
    reps: usize,
    seed: SeedSequence,
) -> Row {
    let [b, t]: [Vec<RunMetrics>; 2] = run_paired(
        reps,
        seed,
        |_| vec![base.clone(), treat.clone()],
        RunMetrics::from_run,
    )
    .try_into()
    .expect("two arms");
    let bs: Vec<f64> = b.iter().map(|m| m.stretch_mean).collect();
    Row {
        label,
        rel_stretch: mean_ratio(&t.iter().map(|m| m.stretch_mean).collect::<Vec<_>>(), &bs),
        rel_cv: mean_ratio(
            &t.iter().map(|m| m.stretch_cv).collect::<Vec<_>>(),
            &b.iter().map(|m| m.stretch_cv).collect::<Vec<_>>(),
        ),
        baseline_stretch: bs.iter().sum::<f64>() / bs.len() as f64,
    }
}

/// Sweeps the workload's `runtime_scale` (offered load ρ scales with it)
/// and reports the relative stretch of `scheme` at each point.
pub fn load_sweep(
    scale: Scale,
    scheme: Scheme,
    scales: &[f64],
    seed: u64,
    reps: Option<usize>,
) -> Vec<Row> {
    let seed = SeedSequence::new(seed);
    scales
        .iter()
        .enumerate()
        .map(|(i, &rts)| {
            let mut base = GridConfig::homogeneous(10, Scheme::None);
            base.window = scale.window();
            for c in &mut base.clusters {
                c.workload.runtime_scale = rts;
            }
            let mut treat = base.clone();
            treat.scheme = scheme;
            relative_rows(
                format!("runtime_scale={rts:.2}"),
                &base,
                &treat,
                reps.unwrap_or(scale.reps()),
                seed.child(i as u64),
            )
        })
        .collect()
}

/// Compares CBF scheduling-cycle lengths against the textbook
/// (zero-cycle) scheduler on a small platform.
pub fn cbf_cycle_sweep(
    scale: Scale,
    cycles_secs: &[f64],
    seed: u64,
    reps: Option<usize>,
) -> Vec<Row> {
    let seed = SeedSequence::new(seed);
    let mut base = GridConfig::homogeneous(4, Scheme::None);
    base.algorithm = Algorithm::Cbf;
    base.window = scale.window().min(Duration::from_hours(1));
    base.cbf_cycle = Duration::ZERO;
    cycles_secs
        .iter()
        .enumerate()
        .map(|(i, &cycle)| {
            let mut treat = base.clone();
            treat.scheme = Scheme::Half;
            treat.cbf_cycle = Duration::from_secs(cycle);
            relative_rows(
                format!("cycle={cycle:.0}s"),
                &base,
                &treat,
                reps.unwrap_or(scale.cbf_reps()),
                seed.child(i as u64),
            )
        })
        .collect()
}

/// Compares selection policies for a fixed scheme (the metascheduler
/// baseline of Subramani et al. picks the least-loaded clusters).
pub fn selection_sweep(scale: Scale, scheme: Scheme, seed: u64, reps: Option<usize>) -> Vec<Row> {
    let seed = SeedSequence::new(seed);
    let policies: [(&str, SelectionPolicy); 3] = [
        ("uniform", SelectionPolicy::Uniform),
        ("biased(2)", SelectionPolicy::Biased { ratio: 2.0 }),
        ("least-loaded", SelectionPolicy::LeastLoaded),
    ];
    // All policies share one seed so the rows are directly comparable
    // (identical baselines and job streams).
    policies
        .iter()
        .map(|(name, policy)| {
            let mut base = GridConfig::homogeneous(10, Scheme::None);
            base.window = scale.window();
            let mut treat = base.clone();
            treat.scheme = scheme;
            treat.selection = *policy;
            relative_rows(
                name.to_string(),
                &base,
                &treat,
                reps.unwrap_or(scale.reps()),
                seed,
            )
        })
        .collect()
}

/// The backfilling mechanism check: §3.3 attributes the small-N stretch
/// penalty to "a few lost opportunities for backfilling". This sweep
/// counts actual backfilled starts per job under each scheme, making the
/// mechanism observable instead of conjectural.
pub fn backfill_sweep(scale: Scale, n: usize, seed: u64, reps: Option<usize>) -> Vec<Row> {
    let schemes = [Scheme::None, Scheme::R(2), Scheme::Half, Scheme::All];
    let group: Vec<GridConfig> = schemes
        .iter()
        .map(|&scheme| {
            let mut cfg = GridConfig::homogeneous(n, scheme);
            cfg.window = scale.window();
            cfg
        })
        .collect();
    let series = run_paired(
        reps.unwrap_or(scale.reps()),
        SeedSequence::new(seed),
        |_| group.clone(),
        |run| {
            let per_job = run.backfills as f64 / run.records.len() as f64;
            let stretch = run.stretch(rbr_grid::record::JobClass::All).mean();
            [per_job, stretch]
        },
    );
    schemes
        .iter()
        .zip(series)
        .map(|(scheme, samples)| {
            let mut summaries = [Summary::new(); 2];
            for row in samples {
                push_samples(&mut summaries, row);
            }
            let [per_job, stretch] = summaries;
            Row {
                label: format!("{scheme}"),
                // Reuse the generic row: "rel stretch" column carries the
                // backfills-per-job figure here, "rel CV" the absolute stretch.
                rel_stretch: per_job.mean(),
                rel_cv: stretch.mean(),
                baseline_stretch: f64::NAN,
            }
        })
        .collect()
}

/// The §3.1.2 remote-request inflation check: +0 %, +10 %, +50 %
/// requested time on remote copies.
pub fn inflation_sweep(scale: Scale, scheme: Scheme, seed: u64, reps: Option<usize>) -> Vec<Row> {
    let seed = SeedSequence::new(seed);
    // One shared seed: the three rows differ only in the inflation factor.
    [0.0, 0.1, 0.5]
        .iter()
        .map(|&inflation| {
            let mut base = GridConfig::homogeneous(10, Scheme::None);
            base.window = scale.window();
            let mut treat = base.clone();
            treat.scheme = scheme;
            treat.remote_inflation = inflation;
            relative_rows(
                format!("+{:.0}%", inflation * 100.0),
                &base,
                &treat,
                reps.unwrap_or(scale.reps()),
                seed,
            )
        })
        .collect()
}

/// The ablations' registry entry: the four sensitivity studies the old
/// CLI bundled under `rbr run ablations`, one table each. The sweeps use
/// `seed`, `seed+1`, `seed+2`, `seed+3` so the default seed of 52
/// reproduces the historical per-sweep seeds 52–55.
pub struct Ablations;

impl Experiment for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn description(&self) -> &'static str {
        "beyond the paper: load regime, CBF cycle, selection policy, and inflation sweeps"
    }

    fn paper_section(&self) -> &'static str {
        "beyond §3"
    }

    fn default_seed(&self) -> u64 {
        52
    }

    fn tables(&self, scale: Scale, seed: u64, reps: Option<usize>) -> Vec<TypedTable> {
        vec![
            table(
                "Ablation — offered-load regime (ALL vs NONE)",
                "load",
                &load_sweep(scale, Scheme::All, &[0.9, 1.0, 1.1, 1.2], seed, reps),
            ),
            table(
                "Ablation — CBF scheduling-cycle length (HALF vs NONE)",
                "cycle",
                &cbf_cycle_sweep(scale, &[0.0, 30.0, 300.0], seed.wrapping_add(1), reps),
            ),
            table(
                "Ablation — target selection policy (R2 vs NONE)",
                "policy",
                &selection_sweep(scale, Scheme::R(2), seed.wrapping_add(2), reps),
            ),
            table(
                "Ablation — remote request inflation (HALF vs NONE)",
                "inflation",
                &inflation_sweep(scale, Scheme::Half, seed.wrapping_add(3), reps),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sweep_smoke() {
        let rows = load_sweep(Scale::Smoke, Scheme::R(2), &[0.9, 1.1], 52, None);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.rel_stretch.is_finite()));
        assert!(render("load", &rows).contains("runtime_scale"));
    }

    #[test]
    fn cbf_cycle_smoke() {
        let rows = cbf_cycle_sweep(Scale::Smoke, &[0.0, 30.0], 53, None);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.rel_stretch.is_finite() && r.rel_stretch > 0.0);
        }
    }

    #[test]
    fn selection_smoke() {
        let rows = selection_sweep(Scale::Smoke, Scheme::R(2), 54, None);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].label, "least-loaded");
    }

    #[test]
    fn backfill_sweep_smoke() {
        let rows = backfill_sweep(Scale::Smoke, 3, 56, None);
        assert_eq!(rows.len(), 4);
        // EASY backfills constantly on a loaded machine.
        assert!(
            rows[0].rel_stretch > 0.0,
            "NONE backfills/job {}",
            rows[0].rel_stretch
        );
        assert!(render_backfills(&rows).contains("backfills/job"));
    }

    #[test]
    fn inflation_smoke() {
        let rows = inflation_sweep(Scale::Smoke, Scheme::R(2), 55, None);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.rel_stretch.is_finite()));
    }
}
