//! Beyond the paper: how much redundancy becomes sustainable when the
//! middleware batches its transactions?
//!
//! Section 4.2's r < 3 bound is a *per-transaction* cost: every submit
//! and every cancel pays a full WS-GRAM round-trip. This experiment
//! quantifies the batching remedy along both of the paper's axes:
//!
//! * **Capacity** (the Section 4 arithmetic, first table): per-component
//!   sustainable redundancy at the peak-hour interarrival time as a
//!   function of batch size, from `rbr-middleware`'s
//!   [`BatchedTransaction`] amortization model, plus the mean batch-fill
//!   latency an operation pays. The `batch = 1` row *is* today's
//!   capacity analysis — identical numbers, guaranteed by the model's
//!   exact-identity special case and locked by a test below.
//! * **Behavior** (the Section 3 simulation, second table): the
//!   multi-cluster sim behind a batching metascheduler
//!   ([`BatchedGridSim`]), batching both submit and cancel transactions
//!   at the swept size with a fixed flush deadline. Each cell reports
//!   stretch relative to the *unbatched* run on identical job streams,
//!   cancel transactions dispatched, zombies, and wasted node-seconds —
//!   the batch-fill latency shows up as waiting (and, on the cancel
//!   side, as cancellation lag that leaks zombie starts).

use rbr_grid::{BatchSpec, BatchedGridSim, GridConfig, RunResult, Scheme};
use rbr_middleware::{BatchedTransaction, Bottleneck, SystemCapacity};
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::JobSpec;

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::{run_paired, Arm, Comparison, Experiment, RunMetrics};

/// Parameters of the batch-size sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Batch sizes (ops per transaction) to sweep; must include 1 for
    /// the identity row.
    pub batch_sizes: Vec<u32>,
    /// Peak-hour job interarrival time (seconds) for the capacity rows.
    pub iat_secs: f64,
    /// Flush deadline for unfilled transactions in the sim (seconds).
    pub deadline_secs: f64,
    /// Redundancy scheme under test (default: ALL, the worst case).
    pub scheme: Scheme,
    /// Number of clusters in the sim.
    pub n: usize,
    /// Replications per cell.
    pub reps: usize,
    /// Submission window.
    pub window: Duration,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// The default sweep at reduced fidelity.
    pub fn at_scale(scale: Scale) -> Self {
        let (batch_sizes, n) = match scale {
            Scale::Smoke => (vec![1, 4, 16], 3),
            Scale::Quick => (vec![1, 2, 4, 8, 32], 5),
            Scale::Paper => (vec![1, 2, 4, 8, 16, 64], 10),
        };
        Config {
            batch_sizes,
            iat_secs: 5.0,
            deadline_secs: 30.0,
            scheme: Scheme::All,
            n,
            reps: scale.reps(),
            window: scale.window(),
            seed: 58,
        }
    }
}

/// One capacity row: the Section 4 arithmetic at one batch size.
#[derive(Clone, Copy, Debug)]
pub struct CapacityRow {
    /// Ops per transaction.
    pub batch: u32,
    /// Sustainable redundancy at the scheduler.
    pub r_scheduler: f64,
    /// Sustainable redundancy at the middleware (WS-GRAM).
    pub r_middleware: f64,
    /// Sustainable redundancy at the SOAP layer.
    pub r_soap: f64,
    /// Sustainable redundancy at the network.
    pub r_network: f64,
    /// System-wide bound (componentwise min).
    pub r_system: f64,
    /// The binding component.
    pub bottleneck: Bottleneck,
    /// Mean seconds an op waits for its transaction to fill at the
    /// per-cluster submission rate `1/iat`.
    pub fill_latency_secs: f64,
}

/// One sim row: batched vs unbatched behavior at one batch size.
#[derive(Clone, Copy, Debug)]
pub struct SimRow {
    /// Ops per transaction (submits and cancels alike).
    pub batch: u32,
    /// Average stretch relative to the unbatched run on the same seeds.
    pub rel_stretch: f64,
    /// Mean cancel transactions dispatched per replication.
    pub cancel_batches: f64,
    /// Mean zombie starts per replication.
    pub zombie_starts: f64,
    /// Mean wasted node-seconds per replication.
    pub wasted_node_secs: f64,
}

/// The capacity side: pure arithmetic, no simulation.
pub fn capacity_rows(config: &Config) -> Vec<CapacityRow> {
    let sys = SystemCapacity::paper_2006();
    config
        .batch_sizes
        .iter()
        .map(|&b| {
            let txn = BatchedTransaction::of(b);
            let per = sys.max_redundancy_per_component_batched(config.iat_secs, txn);
            let at = |c: Bottleneck| {
                per.iter()
                    .find(|(k, _)| *k == c)
                    .expect("all four components present")
                    .1
            };
            let (bottleneck, _) = sys.bottleneck_batched(txn);
            CapacityRow {
                batch: b,
                r_scheduler: at(Bottleneck::Scheduler),
                r_middleware: at(Bottleneck::Middleware),
                r_soap: at(Bottleneck::Soap),
                r_network: at(Bottleneck::Network),
                r_system: sys.max_redundancy_batched(config.iat_secs, txn),
                bottleneck,
                fill_latency_secs: txn.expected_fill_latency(1.0 / config.iat_secs),
            }
        })
        .collect()
}

/// An arm of the batch sweep: the unbatched baseline, or the batching
/// metascheduler at one submit batch.
#[derive(Clone)]
enum BatchArm {
    Unbatched(GridConfig),
    Batched(GridConfig, BatchSpec),
}

impl Arm for BatchArm {
    fn config(&self) -> &GridConfig {
        match self {
            BatchArm::Unbatched(cfg) | BatchArm::Batched(cfg, _) => cfg,
        }
    }

    fn run(self, jobs: Vec<(JobSpec, usize)>, seed: SeedSequence) -> RunResult {
        match self {
            BatchArm::Unbatched(cfg) => cfg.run(jobs, seed),
            BatchArm::Batched(cfg, batch) => {
                BatchedGridSim::with_jobs(cfg, batch, jobs, seed).run()
            }
        }
    }
}

/// The behavioral side: batched metascheduler vs the unbatched run, one
/// paired group over each replication's job table.
pub fn sim_rows(config: &Config) -> Vec<SimRow> {
    let seed = SeedSequence::new(config.seed);
    let mut base = GridConfig::homogeneous(config.n, config.scheme);
    base.window = config.window;
    let deadline = Duration::from_secs(config.deadline_secs);
    let mut group = vec![BatchArm::Unbatched(base.clone())];
    group.extend(config.batch_sizes.iter().map(|&b| {
        let batch = BatchSpec::of(b, if b > 1 { deadline } else { Duration::ZERO });
        let mut cfg = base.clone();
        cfg.faults.cancel_batch = batch;
        BatchArm::Batched(cfg, batch)
    }));
    let mut series = run_paired(
        config.reps,
        seed,
        |_| group.clone(),
        |run| (RunMetrics::from_run(run), run.cancel_batches as f64),
    )
    .into_iter();
    let baseline: Vec<RunMetrics> = series
        .next()
        .expect("the baseline arm")
        .into_iter()
        .map(|(m, _)| m)
        .collect();

    config
        .batch_sizes
        .iter()
        .zip(series)
        .map(|(&b, cells)| {
            let reps = cells.len() as f64;
            let mean =
                |f: &dyn Fn(&(RunMetrics, f64)) -> f64| cells.iter().map(f).sum::<f64>() / reps;
            let treatment: Vec<RunMetrics> = cells.iter().map(|(m, _)| *m).collect();
            let cmp = Comparison::new(baseline.clone(), treatment);
            SimRow {
                batch: b,
                rel_stretch: cmp.rel_stretch(),
                cancel_batches: mean(&|(_, cb)| *cb),
                zombie_starts: mean(&|(m, _)| m.zombie_starts),
                wasted_node_secs: mean(&|(m, _)| m.wasted_node_secs),
            }
        })
        .collect()
}

fn bottleneck_name(b: Bottleneck) -> &'static str {
    match b {
        Bottleneck::Scheduler => "scheduler",
        Bottleneck::Middleware => "middleware",
        Bottleneck::Soap => "soap",
        Bottleneck::Network => "network",
    }
}

/// The capacity sweep as a typed table.
pub fn capacity_table(rows: &[CapacityRow]) -> TypedTable {
    let mut t = TypedTable::new(
        "Batched transactions — sustainable redundancy vs batch size (Section 4 arithmetic)",
        vec![
            "batch",
            "r scheduler",
            "r middleware",
            "r soap",
            "r network",
            "r system",
            "bottleneck",
            "fill latency (s)",
        ],
    );
    for r in rows {
        t.push(vec![
            Cell::int(r.batch as i64),
            Cell::float(r.r_scheduler, 1),
            Cell::float(r.r_middleware, 2),
            Cell::float(r.r_soap, 1),
            Cell::float(r.r_network, 1),
            Cell::float(r.r_system, 2),
            Cell::text(bottleneck_name(r.bottleneck)),
            Cell::float(r.fill_latency_secs, 1),
        ]);
    }
    t
}

/// The sim sweep as a typed table.
pub fn sim_table(rows: &[SimRow]) -> TypedTable {
    let mut t = TypedTable::new(
        "Batched metascheduler — behavior vs the unbatched run (identical job streams)",
        vec![
            "batch",
            "rel stretch",
            "cancel txns/rep",
            "zombies/rep",
            "wasted node-s",
        ],
    );
    for r in rows {
        t.push(vec![
            Cell::int(r.batch as i64),
            Cell::float(r.rel_stretch, 3),
            Cell::float(r.cancel_batches, 1),
            Cell::float(r.zombie_starts, 1),
            Cell::float(r.wasted_node_secs, 0),
        ]);
    }
    t
}

/// The batch experiment's registry entry.
pub struct Batch;

impl Experiment for Batch {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn description(&self) -> &'static str {
        "beyond the paper: batched submit/cancel transactions — sustainable redundancy vs batch size, and the batching metascheduler's behavior"
    }

    fn paper_section(&self) -> &'static str {
        "beyond §4"
    }

    fn default_seed(&self) -> u64 {
        58
    }

    fn tables(&self, scale: Scale, seed: u64, reps: Option<usize>) -> Vec<TypedTable> {
        let mut config = Config::at_scale(scale);
        config.seed = seed;
        if let Some(r) = reps {
            config.reps = r;
        }
        vec![
            capacity_table(&capacity_rows(&config)),
            sim_table(&sim_rows(&config)),
        ]
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

    /// The acceptance gate: the `batch = 1` capacity row reproduces
    /// today's unbatched capacity analysis exactly — same componentwise
    /// redundancy bounds, same bottleneck, same system bound, bit for
    /// bit.
    #[test]
    fn unit_batch_row_reproduces_unbatched_capacity_exactly() {
        let cfg = tiny();
        let rows = capacity_rows(&cfg);
        let r1 = rows.iter().find(|r| r.batch == 1).expect("batch=1 row");
        let sys = SystemCapacity::paper_2006();
        assert_eq!(r1.r_system, sys.max_redundancy(cfg.iat_secs));
        assert_eq!(r1.bottleneck, sys.bottleneck().0);
        for (c, want) in sys.max_redundancy_per_component(cfg.iat_secs) {
            let got = match c {
                Bottleneck::Scheduler => r1.r_scheduler,
                Bottleneck::Middleware => r1.r_middleware,
                Bottleneck::Soap => r1.r_soap,
                Bottleneck::Network => r1.r_network,
            };
            assert_eq!(got, want, "{c:?}");
        }
        assert_eq!(r1.fill_latency_secs, 0.0);
    }

    #[test]
    fn capacity_bound_is_monotone_in_batch_size() {
        let rows = capacity_rows(&tiny());
        for pair in rows.windows(2) {
            assert!(
                pair[1].r_system >= pair[0].r_system,
                "batch {} bound {} below batch {} bound {}",
                pair[1].batch,
                pair[1].r_system,
                pair[0].batch,
                pair[0].r_system
            );
        }
        // And batching genuinely helps: the largest batch clears r = 3.
        assert!(rows.last().unwrap().r_system > 3.0);
    }

    #[test]
    fn sim_unit_batch_is_the_baseline() {
        let mut cfg = tiny();
        cfg.batch_sizes = vec![1];
        let rows = sim_rows(&cfg);
        assert_eq!(rows.len(), 1);
        // Batch 1 disables both submit and cancel batching: the
        // treatment IS the baseline, bit for bit.
        assert!((rows[0].rel_stretch - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].cancel_batches, 0.0);
        assert_eq!(rows[0].zombie_starts, 0.0);
        assert_eq!(rows[0].wasted_node_secs, 0.0);
    }

    #[test]
    fn batched_cells_dispatch_transactions() {
        let mut cfg = tiny();
        cfg.batch_sizes = vec![4];
        let rows = sim_rows(&cfg);
        assert!(rows[0].cancel_batches > 0.0, "cancel batching must engage");
        assert!(rows[0].rel_stretch.is_finite());
    }

    #[test]
    fn tables_render_both_sides() {
        let mut cfg = tiny();
        cfg.batch_sizes = vec![1, 4];
        let cap = capacity_table(&capacity_rows(&cfg)).to_text();
        assert!(cap.contains("r middleware"));
        assert!(cap.contains("bottleneck"));
        let sim = sim_table(&sim_rows(&cfg)).to_text();
        assert!(sim.contains("rel stretch"));
        assert!(sim.contains("cancel txns/rep"));
    }
}
