//! Beyond the paper: what happens to redundant batch requests when the
//! middleware is *not* perfect.
//!
//! The paper's protocol assumes a zero-latency, zero-loss cancellation
//! callback. This experiment degrades that assumption with the
//! `rbr_faults` model: cancellation messages take time and get lost with
//! probability `q`. A lost cancel leaves a **zombie** copy in a remote
//! queue that may start — and even run to completion — after its job
//! already finished elsewhere, wasting node-time and inflating everyone
//! else's queue wait.
//!
//! The sweep crosses cancellation loss probability × cancellation delay
//! × platform size, always under the aggressive ALL scheme, and reports
//! each cell relative to the *perfect-middleware* run of the same scheme
//! on identical job streams: relative average stretch, wasted
//! node-seconds, waste as a fraction of useful work, and zombie starts
//! per replication. At `q = 0` with zero delay the fault model is
//! disabled and every relative metric is exactly 1 (or 0 waste) — the
//! bit-identity guarantee of `rbr_grid::sim`.

use rbr_grid::{Delay, GridConfig, Scheme};
use rbr_simcore::{Duration, SeedSequence};
use rbr_stats::WasteAccount;

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Comparison, Experiment, RunMetrics};

/// Parameters of the faulty-middleware sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Platform sizes (number of clusters) to evaluate.
    pub n_values: Vec<usize>,
    /// Cancellation loss probabilities `q` to sweep.
    pub cancel_loss: Vec<f64>,
    /// Fixed one-way cancellation delays (seconds) to sweep.
    pub cancel_delay_secs: Vec<f64>,
    /// Redundancy scheme under test (default: ALL, the worst case).
    pub scheme: Scheme,
    /// Replications per cell.
    pub reps: usize,
    /// Submission window.
    pub window: Duration,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// The default protocol at reduced fidelity.
    pub fn at_scale(scale: Scale) -> Self {
        let (n_values, cancel_loss, cancel_delay_secs) = match scale {
            Scale::Smoke => (vec![3], vec![0.0, 0.5, 1.0], vec![10.0]),
            Scale::Quick => (vec![5, 10], vec![0.0, 0.1, 0.5, 1.0], vec![0.0, 30.0]),
            Scale::Paper => (
                vec![5, 10, 20],
                vec![0.0, 0.05, 0.1, 0.25, 0.5, 1.0],
                vec![0.0, 30.0, 300.0],
            ),
        };
        Config {
            n_values,
            cancel_loss,
            cancel_delay_secs,
            scheme: Scheme::All,
            reps: scale.reps(),
            window: scale.window(),
            seed: 57,
        }
    }
}

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Number of clusters.
    pub n: usize,
    /// Cancellation loss probability `q`.
    pub cancel_loss: f64,
    /// One-way cancellation delay in seconds.
    pub cancel_delay_secs: f64,
    /// Average stretch relative to the perfect-middleware run of the
    /// same scheme on the same seeds.
    pub rel_stretch: f64,
    /// Mean wasted node-seconds per replication.
    pub wasted_node_secs: f64,
    /// Wasted work as a fraction of useful work (work-weighted over the
    /// replications).
    pub waste_fraction: f64,
    /// Mean zombie starts per replication.
    pub zombie_starts: f64,
}

/// Runs the sweep. Each platform size gets one perfect-middleware
/// baseline, shared across every (loss, delay) cell at that size — the
/// paired design on the fault axis, run as one paired group.
pub fn run(config: &Config) -> Vec<Row> {
    let cells: Vec<(f64, f64)> = config
        .cancel_loss
        .iter()
        .flat_map(|&loss| config.cancel_delay_secs.iter().map(move |&d| (loss, d)))
        .collect();
    let mut rows = Vec::new();
    for (n_idx, &n) in config.n_values.iter().enumerate() {
        let seed = SeedSequence::new(config.seed).child(n_idx as u64);
        let mut base = GridConfig::homogeneous(n, config.scheme);
        base.window = config.window;
        let mut group = vec![base.clone()];
        group.extend(cells.iter().map(|&(loss, delay)| {
            let mut cfg = base.clone();
            cfg.faults.cancel_loss = loss;
            cfg.faults.cancel_delay = if delay > 0.0 {
                Delay::Fixed(Duration::from_secs(delay))
            } else {
                Delay::Zero
            };
            cfg
        }));
        let mut series =
            run_paired(config.reps, seed, |_| group.clone(), RunMetrics::from_run).into_iter();
        let baseline = series.next().expect("the baseline arm");

        for (&(loss, delay), treatment) in cells.iter().zip(series) {
            let mut waste = WasteAccount::new();
            for m in &treatment {
                waste.add(m.useful_node_secs, m.wasted_node_secs);
            }
            let reps = treatment.len() as f64;
            let wasted_mean = treatment.iter().map(|m| m.wasted_node_secs).sum::<f64>() / reps;
            let zombies_mean = treatment.iter().map(|m| m.zombie_starts).sum::<f64>() / reps;
            let cmp = Comparison::new(baseline.clone(), treatment);
            rows.push(Row {
                n,
                cancel_loss: loss,
                cancel_delay_secs: delay,
                rel_stretch: cmp.rel_stretch(),
                wasted_node_secs: wasted_mean,
                waste_fraction: waste.fraction(),
                zombie_starts: zombies_mean,
            });
        }
    }
    rows
}

/// The sweep as a typed table.
pub fn table(rows: &[Row]) -> TypedTable {
    let mut t = TypedTable::new(
        "Faulty middleware — cost of lost/delayed cancellations (vs perfect middleware)",
        vec![
            "N",
            "cancel loss q",
            "cancel delay (s)",
            "rel stretch",
            "wasted node-s",
            "waste frac",
            "zombies/rep",
        ],
    );
    for r in rows {
        t.push(vec![
            Cell::int(r.n as i64),
            Cell::float(r.cancel_loss, 2),
            Cell::float(r.cancel_delay_secs, 0),
            Cell::float(r.rel_stretch, 3),
            Cell::float(r.wasted_node_secs, 0),
            Cell::percent(r.waste_fraction, 2),
            Cell::float(r.zombie_starts, 1),
        ]);
    }
    t
}

/// Renders the sweep.
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// The faults experiment's registry entry.
pub struct Faults;

impl Experiment for Faults {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn description(&self) -> &'static str {
        "beyond the paper: unreliable middleware — lost/delayed cancellations, zombies, wasted work"
    }

    fn paper_section(&self) -> &'static str {
        "beyond §3"
    }

    fn default_seed(&self) -> u64 {
        57
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

    fn tiny() -> Config {
        let mut cfg = Config::at_scale(Scale::Smoke);
        cfg.window = Duration::from_secs(900.0);
        cfg.reps = 2;
        cfg
    }

    #[test]
    fn perfect_cell_is_the_baseline() {
        let mut cfg = tiny();
        cfg.cancel_loss = vec![0.0];
        cfg.cancel_delay_secs = vec![0.0];
        let rows = run(&cfg);
        assert_eq!(rows.len(), 1);
        // Loss 0 + delay 0 disables the fault model entirely: the
        // treatment IS the baseline, bit for bit.
        assert!((rows[0].rel_stretch - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].wasted_node_secs, 0.0);
        assert_eq!(rows[0].waste_fraction, 0.0);
        assert_eq!(rows[0].zombie_starts, 0.0);
    }

    #[test]
    fn waste_rises_monotonically_with_cancellation_loss() {
        let mut cfg = tiny();
        cfg.cancel_loss = vec![0.0, 0.5, 1.0];
        cfg.cancel_delay_secs = vec![10.0];
        let rows = run(&cfg);
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].wasted_node_secs <= rows[1].wasted_node_secs + 1e-9
                && rows[1].wasted_node_secs <= rows[2].wasted_node_secs + 1e-9,
            "waste must grow with loss: {:?}",
            rows.iter().map(|r| r.wasted_node_secs).collect::<Vec<_>>()
        );
        assert!(rows[2].wasted_node_secs > 0.0);
        assert!(rows[2].zombie_starts > 0.0);
        // Certain loss hurts stretch at least as much as no loss.
        assert!(rows[2].rel_stretch >= rows[0].rel_stretch - 1e-9);
    }

    #[test]
    fn render_contains_the_metric_columns() {
        let mut cfg = tiny();
        cfg.cancel_loss = vec![1.0];
        let rows = run(&cfg);
        let text = render(&rows);
        assert!(text.contains("rel stretch"));
        assert!(text.contains("waste frac"));
    }
}
