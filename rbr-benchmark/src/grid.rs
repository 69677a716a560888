//! The grid-simulator workloads: fixed lists of `GridSim` cells, one
//! thread, repeated with fresh seeds for as long as the run measures.
//!
//! * `grid-easy` — the paper's regime: homogeneous 128-node EASY
//!   clusters, N ∈ {5, 10, 20} × {NONE, R(2), HALF, ALL}; the four
//!   schemes of one N share a job stream, the paired comparison the
//!   paper reports.
//! * `grid-cbf` — table 1's CBF cell (HALF, real estimates) three
//!   times, plus table 4's cell (40 % ALL, real estimates, predictions
//!   on), at N = 5: cancels and early completions trigger schedule
//!   compression. (Table 1's exact-estimate CBF cell is left out: about
//!   one run in 300 panics in the scheduler; see README.md.)
//! * `grid-faults` — cells of the `faults` sweep: ALL on N = 10 with a
//!   30 s cancel delay and cancel loss 1.0 and 0.1, and ALL on N = 5
//!   with loss 0.5: lost cancels leave zombie copies.
//!
//! A pass's set-up builds its simulations (`GridSim::new` generates each
//! job stream), and the pass runs them, so work moved from `run` into
//! `new` shows as set-up time.
//!
//! Every cell's inputs differ between passes and between seeds, so a
//! run must hold many cells for its timings to be steady: windows are
//! shorter than the paper's 6 h (one CBF cell at N = 10 and 6 h takes
//! ~10 s here) but long enough that queues reach hundreds of requests.

use std::time::Instant;

use rbr::grid::record::JobClass;
use rbr::grid::{Delay, GridConfig, GridSim, RunResult, Scheme};
use rbr::sched::Algorithm;
use rbr::sim::{Duration, SeedSequence};
use rbr::workload::EstimateModel;

use crate::harness::{self, Args, Outcome};
use crate::{serve, spans};

/// Which grid workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `grid-easy`.
    Easy,
    /// `grid-cbf`.
    Cbf,
    /// `grid-faults`.
    Faults,
}

/// Submission windows, hours.
const EASY_WINDOW_H: f64 = 1.5;
const CBF_WINDOW_H: f64 = 1.5;
const FAULTS_WINDOW_H: f64 = 1.0;

/// Clusters of the CBF cells.
const CBF_CLUSTERS: usize = 5;

/// One simulation of a pass.
pub struct Cell {
    /// Stable label (the digest and the journal key use it).
    pub label: String,
    /// The platform.
    pub config: GridConfig,
    /// The run's seed.
    pub seed: SeedSequence,
}

fn window(hours: f64) -> Duration {
    Duration::from_secs(hours * 3600.0)
}

/// The cells of one pass. Cells sharing N share a seed, so their job
/// streams are identical across schemes (the paper's paired design).
pub fn cells(kind: Kind, pass: SeedSequence) -> Vec<Cell> {
    let mut out = Vec::new();
    match kind {
        Kind::Easy => {
            for n in [5usize, 10, 20] {
                for scheme in [Scheme::None, Scheme::R(2), Scheme::Half, Scheme::All] {
                    let mut config = GridConfig::homogeneous(n, scheme);
                    config.window = window(EASY_WINDOW_H);
                    out.push(Cell {
                        label: format!("easy-n{n}-{scheme}"),
                        config,
                        seed: pass.child(n as u64),
                    });
                }
            }
        }
        Kind::Cbf => {
            for k in 0..3 {
                let mut config = GridConfig::homogeneous(CBF_CLUSTERS, Scheme::Half);
                config.algorithm = Algorithm::Cbf;
                config.estimates = EstimateModel::paper_real();
                config.window = window(CBF_WINDOW_H);
                out.push(Cell {
                    label: format!("table1-cbf-half-real-{k}"),
                    config,
                    seed: pass.child(k as u64),
                });
            }
            let mut config = GridConfig::homogeneous(CBF_CLUSTERS, Scheme::All);
            config.algorithm = Algorithm::Cbf;
            config.redundant_fraction = 0.4;
            config.estimates = EstimateModel::paper_real();
            config.collect_predictions = true;
            config.window = window(CBF_WINDOW_H);
            out.push(Cell {
                label: "table4-cbf-all40".to_string(),
                config,
                seed: pass.child(3),
            });
        }
        Kind::Faults => {
            for (n, loss, delay) in [(10usize, 1.0, 30.0), (10, 0.1, 30.0), (5, 0.5, 0.0)] {
                let mut config = GridConfig::homogeneous(n, Scheme::All);
                config.window = window(FAULTS_WINDOW_H);
                config.faults.cancel_loss = loss;
                config.faults.cancel_delay = if delay > 0.0 {
                    Delay::Fixed(Duration::from_secs(delay))
                } else {
                    Delay::Zero
                };
                out.push(Cell {
                    label: format!("faults-n{n}-q{loss}-d{delay}"),
                    config,
                    seed: pass.child(n as u64),
                });
            }
        }
    }
    for cell in &out {
        cell.config.validate();
    }
    out
}

/// What one cell produced, reduced to what the benchmark keeps (the
/// per-job records are dropped as soon as they are checked).
pub struct CellRun {
    /// The cell's canonical result line (counts, makespan, stretch bits).
    pub line: String,
    /// The result's counts and node-seconds.
    pub counts: Counts,
}

/// A result's counts and node-second totals.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    /// Jobs completed.
    pub jobs: u64,
    /// Engine events.
    pub events: u64,
    /// Requests submitted to schedulers.
    pub submits: u64,
    /// Cancellations delivered.
    pub cancels: u64,
    /// Same-instant starts revoked.
    pub aborts: u64,
    /// Copies that started after their job had started elsewhere.
    pub zombie_starts: u64,
    /// Backfilled starts.
    pub backfills: u64,
    /// Longest queue seen on any cluster.
    pub max_queue_len: u64,
    /// Useful node-seconds.
    pub work: f64,
    /// Wasted node-seconds.
    pub wasted: f64,
}

impl Counts {
    fn of(r: &RunResult) -> Counts {
        Counts {
            jobs: r.records.len() as u64,
            events: r.events,
            submits: r.submits,
            cancels: r.cancels,
            aborts: r.aborts,
            zombie_starts: r.zombie_starts,
            backfills: r.backfills,
            max_queue_len: r.max_queue_len.iter().copied().max().unwrap_or(0) as u64,
            work: r.total_work(),
            wasted: r.wasted_node_secs,
        }
    }
}

/// Canonical line of a result: every count, the makespan in µs and the
/// mean stretch's bits — what the expected digests pin.
pub fn result_line(label: &str, r: &RunResult) -> String {
    format!(
        "{label} jobs={} submits={} cancels={} aborts={} zombies={} backfills={} events={} \
         makespan_us={} stretch={:016x}",
        r.records.len(),
        r.submits,
        r.cancels,
        r.aborts,
        r.zombie_starts,
        r.backfills,
        r.events,
        r.makespan.as_micros(),
        r.stretch(JobClass::All).mean().to_bits(),
    )
}

/// The result invariants every run must meet.
pub fn check_result(label: &str, n_jobs: usize, r: &RunResult, faulty: bool) -> Result<(), String> {
    if r.records.len() != n_jobs {
        return Err(format!(
            "{label}: {} records for {n_jobs} jobs",
            r.records.len()
        ));
    }
    for (i, rec) in r.records.iter().enumerate() {
        if rec.job != i || rec.start < rec.arrival || rec.completion != rec.start + rec.runtime {
            return Err(format!("{label}: job {i} has an inconsistent record"));
        }
    }
    if r.submits < n_jobs as u64 || (!faulty && (r.zombie_starts > 0 || r.wasted_node_secs > 0.0)) {
        return Err(format!("{label}: impossible copy accounting"));
    }
    Ok(())
}

/// A pass's cells with their simulations built.
type Built = Vec<(Cell, GridSim)>;

/// The set-up of pass `p`: its cells' configurations, built and
/// validated, then `GridSim::new` for each, which generates its job
/// stream from a seed derived from `(seed, p)`.
fn build(kind: Kind, args: &Args, p: usize) -> Built {
    cells(kind, args.seed_seq().child(p as u64))
        .into_iter()
        .enumerate()
        .map(|(k, cell)| {
            let _s = spans::open("workload.build", (p * 100 + k) as u64);
            let sim = GridSim::new(cell.config.clone(), cell.seed);
            (cell, sim)
        })
        .collect()
}

fn run_cell(cell: &Cell, sim: GridSim, request: u64, failures: &mut Vec<String>) -> CellRun {
    let n_jobs = sim.n_jobs();
    let result = {
        let _s = spans::open("grid.run", request);
        sim.run()
    };
    if let Err(e) = check_result(
        &cell.label,
        n_jobs,
        &result,
        !cell.config.faults.is_disabled(),
    ) {
        failures.push(e);
    }
    CellRun {
        line: result_line(&cell.label, &result),
        counts: Counts::of(&result),
    }
}

/// One pass over a workload's cells.
struct Pass {
    secs: f64,
    runs: Vec<CellRun>,
    digest: u64,
    failures: Vec<String>,
}

/// Pass `p`: runs every built cell, in order.
fn pass(built: Built, p: usize) -> Pass {
    let mut failures = Vec::new();
    let t = Instant::now();
    let runs: Vec<CellRun> = built
        .into_iter()
        .enumerate()
        .map(|(k, (cell, sim))| run_cell(&cell, sim, (p * 100 + k) as u64, &mut failures))
        .collect();
    let secs = t.elapsed().as_secs_f64();
    let digest = harness::digest_lines(runs.iter().map(|r| &r.line));
    Pass {
        secs,
        runs,
        digest,
        failures,
    }
}

/// Runs a grid workload.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !args.trace {
        let passes = harness::for_seconds(
            args.seconds,
            3,
            |p| harness::timed(|| Ok(build(kind, args, p))),
            |p, built| Ok(pass(built, p)),
        )?;
        out.attempted = passes.iter().map(|m| m.pass.runs.len() as u64).sum();
        out.digest = Some(passes[0].pass.digest);
        out.end_to_end(&passes, |p| p.secs);
        out.failures
            .extend(passes.into_iter().flat_map(|m| m.pass.failures));
        return Ok(out);
    }

    let harness::Paired {
        plain,
        traced,
        spans: mut all,
        snapshot,
        phases,
        overhead,
    } = harness::paired(
        args,
        args.seconds,
        2,
        |p, _| {
            let _s = spans::open("bench.pass", p as u64);
            Ok(pass(build(kind, args, p), p))
        },
        |p| p.secs,
    )?;
    out.attempted = plain
        .iter()
        .chain(&traced)
        .map(|p| p.runs.len() as u64)
        .sum();
    out.digest = Some(plain[0].digest);
    out.check(
        plain.iter().zip(&traced).all(|(a, b)| a.digest == b.digest),
        || "tracing changed a simulation result".to_string(),
    );
    out.set("bench.trace_overhead", overhead);

    // Counts from pass 0, so they repeat exactly for a seed.
    let first: Vec<Counts> = traced[0].runs.iter().map(|c| c.counts).collect();
    let sum = |f: fn(&Counts) -> u64| first.iter().map(f).sum::<u64>() as f64;
    out.set("simcore.events", sum(|c| c.events));
    out.set("workload.jobs", sum(|c| c.jobs));
    let max_queue = first.iter().map(|c| c.max_queue_len).max().unwrap_or(0);
    out.set("sched.max_queue_len", max_queue as f64);
    out.set("sched.backfills", sum(|c| c.backfills));
    out.set("grid.submits", sum(|c| c.submits));
    out.set("grid.cancels", sum(|c| c.cancels));
    out.set("grid.aborts", sum(|c| c.aborts));
    out.set("grid.zombie_starts", sum(|c| c.zombie_starts));
    out.set("grid.useful_ratio", sum(|c| c.jobs) / sum(|c| c.submits));
    let work: f64 = first.iter().map(|c| c.work).sum();
    let wasted: f64 = first.iter().map(|c| c.wasted).sum();
    out.set("grid.waste_frac", wasted / work);

    // Time shares over every traced pass.
    let pass_secs = spans::total_secs(&all, "bench.pass");
    let run_secs = spans::total_secs(&all, "grid.run");
    out.set(
        "workload.build_frac",
        spans::total_secs(&all, "workload.build") / pass_secs,
    );
    out.set("grid.run_frac", run_secs / pass_secs);
    let copy_ops: u64 = traced
        .iter()
        .flat_map(|p| p.runs.iter())
        .map(|c| c.counts.submits + c.counts.cancels)
        .sum();
    out.set("grid.copy_ops_per_s", copy_ops as f64 / run_secs);
    harness::phase_shares(&mut out, &phases);
    harness::copy_obs_counters(&mut out, &snapshot);
    for p in plain.iter().chain(&traced) {
        out.failures.extend(p.failures.iter().cloned());
    }

    let records: Vec<(String, String)> = traced
        .iter()
        .enumerate()
        .flat_map(|(p, pass)| {
            pass.runs
                .iter()
                .enumerate()
                .map(move |(k, c)| (format!("pass{p}-cell{k}"), c.line.clone()))
        })
        .collect();
    let stream = serve::request_stream(args.seed_seq().child(u64::MAX), 20_000, 1.0, 0.5);
    all.extend(harness::probe_acks(&mut out, &stream, 20_000.0)?);
    all.extend(harness::probe_layers(args, &mut out, &stream, &records)?);
    harness::write_spans(args, &all)?;
    Ok(out)
}
