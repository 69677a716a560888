//! Figure 5: batch-scheduler submit/cancel throughput versus queue size.
//!
//! The paper saturated a production OpenPBS/Maui install and measured
//! ≈11 submissions + 11 cancellations per second on an empty queue,
//! decaying exponentially-ish to ≈5 at 20 000 pending requests, across
//! four 12-hour runs (some cut short by scheduler memory leaks).
//!
//! Reproduced two ways:
//!
//! 1. [`run`] — the calibrated churn simulation: several noisy curves
//!    plus their average, exactly the figure's layout, including an
//!    optional crash-injected curve.
//! 2. [`native_throughput`] — an honest measurement of *this crate's*
//!    schedulers: wall-clock submit+cancel rate at pinned queue sizes
//!    (`rbr throughput` sweeps it from 0 to 20 000), which exhibits the
//!    same monotone decay on real hardware.

use rand::RngExt;
use rbr_middleware::{ChurnExperiment, ChurnPoint};
use rbr_sched::{Algorithm, Request, RequestId};
use rbr_simcore::{Duration, SeedSequence, SimTime};

use crate::report::{Cell, TypedTable};
use crate::scale::Scale;

use super::Experiment;

/// Parameters of the churn simulation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Queue sizes to pin (paper: 0 … 20 000).
    pub queue_sizes: Vec<usize>,
    /// Number of independent curves (paper: 4 experiments).
    pub curves: usize,
    /// Length of each measurement.
    pub duration: Duration,
    /// Inject the paper's memory-leak crash into the last curve.
    pub inject_crash: bool,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// The paper's setup: 4 twelve-hour curves over queue sizes
    /// 0 … 20 000, crashes included.
    pub fn paper() -> Self {
        Config::at_scale(Scale::Paper)
    }

    /// Reduced fidelity.
    pub fn at_scale(scale: Scale) -> Self {
        let (step, duration) = match scale {
            Scale::Smoke => (10_000, Duration::from_secs(600.0)),
            Scale::Quick => (2_500, Duration::from_hours(1)),
            Scale::Paper => (1_000, Duration::from_hours(12)),
        };
        Config {
            queue_sizes: (0..=20_000).step_by(step).collect(),
            curves: 4,
            duration,
            inject_crash: true,
            seed: 48,
        }
    }
}

/// One x-position of the figure.
#[derive(Clone, Debug)]
pub struct Row {
    /// Pinned queue size.
    pub queue_size: usize,
    /// The individual curves' measurements (missing values where a
    /// crashed run did not reach this queue size — the paper: "some
    /// curves do not show values for the higher queue sizes").
    pub curves: Vec<Option<f64>>,
    /// The thick dashed line: average over surviving curves.
    pub average: f64,
}

/// Runs the churn simulation.
pub fn run(config: &Config) -> Vec<Row> {
    let mut per_curve: Vec<Vec<Option<ChurnPoint>>> = Vec::new();
    for curve in 0..config.curves {
        let mut exp = ChurnExperiment::paper_setup();
        exp.duration = config.duration;
        // The paper's crashed runs stopped collecting points beyond some
        // queue size; model that by crashing the final curve's scheduler
        // after a fixed operation budget per point.
        if config.inject_crash && curve == config.curves - 1 {
            exp.crash_after_ops = Some((config.duration.as_secs() * 3.0) as u64);
        }
        let mut rng = SeedSequence::new(config.seed).child(curve as u64).rng();
        let mut curve_points = Vec::new();
        let mut dead = false;
        for &q in &config.queue_sizes {
            if dead {
                curve_points.push(None);
                continue;
            }
            let p = exp.measure(q, &mut rng);
            if p.crashed {
                dead = true;
            }
            curve_points.push(Some(p));
        }
        per_curve.push(curve_points);
    }

    config
        .queue_sizes
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let curves: Vec<Option<f64>> = per_curve
                .iter()
                .map(|c| c[i].map(|p| p.ops_per_sec))
                .collect();
            let live: Vec<f64> = curves.iter().flatten().copied().collect();
            Row {
                queue_size: q,
                average: live.iter().sum::<f64>() / live.len().max(1) as f64,
                curves,
            }
        })
        .collect()
}

/// Figure 5 as a typed table (one column per curve plus the average;
/// crashed curves' lost tails are missing cells).
pub fn table(rows: &[Row]) -> TypedTable {
    let n_curves = rows.first().map_or(0, |r| r.curves.len());
    let mut headers = vec!["queue size".to_string()];
    for i in 0..n_curves {
        headers.push(format!("exp #{}", i + 1));
    }
    headers.push("average".to_string());
    let mut t = TypedTable::new(
        "Figure 5 — scheduler submit/cancel throughput vs queue size",
        headers,
    );
    for r in rows {
        let mut row = vec![Cell::int(r.queue_size as i64)];
        for c in &r.curves {
            row.push(match c {
                Some(v) => Cell::float(*v, 2),
                None => Cell::Missing,
            });
        }
        row.push(Cell::float(r.average, 2));
        t.push(row);
    }
    t
}

/// Renders the figure as a table (one column per curve plus the average).
pub fn render(rows: &[Row]) -> String {
    table(rows).to_text()
}

/// Figure 5's registry entry.
pub struct Fig5;

impl Experiment for Fig5 {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn description(&self) -> &'static str {
        "Figure 5: batch-scheduler submit/cancel throughput vs pending queue size"
    }

    fn paper_section(&self) -> &'static str {
        "§4"
    }

    fn default_seed(&self) -> u64 {
        48
    }

    fn replications(&self, scale: Scale) -> usize {
        Config::at_scale(scale).curves
    }

    fn tables(&self, scale: Scale, seed: u64, reps: Option<usize>) -> Vec<TypedTable> {
        let mut config = Config::at_scale(scale);
        config.seed = seed;
        if let Some(r) = reps {
            config.curves = r;
        }
        vec![table(&run(&config))]
    }
}

/// Measures the wall-clock submit+cancel throughput of one of **our**
/// scheduler implementations at a pinned queue size — the native analogue
/// of the paper's OpenPBS measurement. Returns operations (submit+cancel
/// pairs) per second.
///
/// The cluster runs a node-monopolizing job (the paper parked a long job
/// on all 16 nodes so pending jobs never start), the queue is pre-seeded
/// with `queue_size` requests, and then `pairs` iterations of
/// submit-new + cancel-oldest are timed.
pub fn native_throughput(alg: Algorithm, queue_size: usize, pairs: usize, seed: u64) -> f64 {
    let nodes = 16u32;
    let mut sched = alg.build_with_cycle(nodes, Duration::from_secs(30.0));
    let mut starts = Vec::new();
    let mut rng = SeedSequence::new(seed).rng();
    let mut next_id = 0u64;
    let alloc = |rng: &mut rand::rngs::StdRng, next_id: &mut u64, submit: SimTime| {
        let id = RequestId(*next_id);
        *next_id += 1;
        Request::new(
            id,
            rng.random_range(2..=nodes),
            Duration::from_secs(rng.random_range(60.0..36_000.0)),
            submit,
        )
    };

    // Park a long job on all but one node: nothing in the queue (every
    // request needs ≥ 2 nodes) can ever start, but the scheduler still
    // has a free node to consider, so each event runs a full backfill
    // scan over the queue — the linear-in-queue work that made the
    // paper's OpenPBS throughput decay.
    let blocker = Request::new(
        RequestId(u64::MAX),
        nodes - 1,
        Duration::from_hours(10_000),
        SimTime::ZERO,
    );
    sched.submit(SimTime::ZERO, blocker, &mut starts);
    assert_eq!(starts.len(), 1, "blocker must start immediately");
    starts.clear();

    // Pre-seed the queue.
    let mut now = SimTime::ZERO;
    let tick = Duration::from_micros(1);
    let mut oldest = next_id;
    for _ in 0..queue_size {
        now += tick;
        let req = alloc(&mut rng, &mut next_id, now);
        sched.submit(now, req, &mut starts);
        assert!(
            starts.is_empty(),
            "no queued request fits the single free node"
        );
    }

    // Timed churn: submit one, cancel the oldest (maximum churn, like
    // deleting the job at the head of the queue).
    let t0 = std::time::Instant::now();
    for _ in 0..pairs {
        now += tick;
        let req = alloc(&mut rng, &mut next_id, now);
        sched.submit(now, req, &mut starts);
        now += tick;
        sched.cancel(now, RequestId(oldest), &mut starts);
        oldest += 1;
        debug_assert!(starts.is_empty());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    pairs as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_figure_shape() {
        let cfg = Config::at_scale(Scale::Smoke);
        let rows = run(&cfg);
        assert_eq!(rows.len(), 3); // 0, 10k, 20k
                                   // Empty queue ≈ 11 pairs/s, 20 k ≈ 5.2.
        assert!(
            (10.0..12.0).contains(&rows[0].average),
            "{}",
            rows[0].average
        );
        assert!(rows.last().unwrap().average < 6.0);
        // Monotone decay of the average.
        assert!(rows[0].average > rows[1].average);
        assert!(rows[1].average > rows[2].average);
        let text = render(&rows);
        assert!(text.contains("exp #1"));
        assert!(text.contains("average"));
    }

    #[test]
    fn crash_curve_goes_missing() {
        let mut cfg = Config::at_scale(Scale::Smoke);
        cfg.duration = Duration::from_hours(2); // long enough to exceed the ops budget
        let rows = run(&cfg);
        let last_curve: Vec<Option<f64>> = rows.iter().map(|r| *r.curves.last().unwrap()).collect();
        assert!(
            last_curve.iter().any(|c| c.is_none()),
            "the crash-injected curve should lose its tail"
        );
    }

    #[test]
    fn native_throughput_is_positive_and_decays() {
        // Tiny op counts: this is a smoke check; `rbr throughput` does
        // it right.
        let fast = native_throughput(Algorithm::Easy, 10, 200, 1);
        let slow = native_throughput(Algorithm::Easy, 5_000, 200, 1);
        assert!(fast > 0.0 && slow > 0.0);
        // EASY scans the queue per event: bigger queues must be slower.
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn native_throughput_works_for_all_algorithms() {
        for alg in Algorithm::all() {
            let rate = native_throughput(alg, 100, 50, 2);
            assert!(rate > 0.0, "{alg}");
        }
    }
}
