//! The batched-submission protocol: multi-cluster placement behind a
//! batching metascheduler front end.
//!
//! Per-operation WS-GRAM transactions are what cap redundancy at r < 3
//! (Section 4.2); `rbr-middleware`'s batch model quantifies the capacity
//! side of amortizing them. This module adds the *behavioral* side to
//! the simulation: jobs no longer reach their schedulers at their true
//! arrival instants — the metascheduler holds each home cluster's
//! pending submissions and flushes them `size` at a time, or `deadline`
//! after the oldest pending job, whichever comes first. Every job in a
//! transaction is submitted at the flush instant, but its
//! [`JobRecord`](crate::record::JobRecord)
//! keeps the *true* arrival (via
//! [`SubmissionProtocol::record_arrival`]), so batch-fill latency shows
//! up in wait and stretch exactly where a real user would feel it.
//!
//! Cancel batching is orthogonal and rides in
//! [`FaultSpec::cancel_batch`](rbr_faults::FaultSpec): enabling it
//! routes the run through the faulty-middleware message path, where the
//! driver coalesces the cancellation callback's ops into shared
//! transactions (one loss coin and one delay per *transaction*).
//!
//! `size = 1` is exact identity: each "batch" flushes the instant its
//! only job arrives, so a [`BatchedGridSim`] run is bit-identical to
//! [`GridSim`](crate::GridSim) on the same config and seed (locked by a
//! test below).

use rand::rngs::StdRng;
use rbr_faults::BatchSpec;
use rbr_sched::SchedulerSet;
use rbr_simcore::{SeedSequence, SimTime};
use rbr_workload::JobSpec;

use crate::config::GridConfig;
use crate::driver::{CopyPlan, SimDriver, SubmissionProtocol};
use crate::record::RunResult;
use crate::sim::{build_driver, generate_jobs, MultiCluster};

/// Multi-cluster placement submitted through a batching front end: the
/// inner protocol decides *where copies go*, this wrapper decides *when
/// the submit transaction leaves the metascheduler*.
pub(crate) struct BatchedSubmit {
    inner: MultiCluster,
    /// Flush instant of each job's submit transaction.
    submit_at: Vec<SimTime>,
}

impl BatchedSubmit {
    /// Wraps `inner`, grouping each home cluster's arrival stream into
    /// `batch`-op transactions with a deadline-triggered tail flush.
    fn new(inner: MultiCluster, n_clusters: usize, batch: BatchSpec) -> Self {
        let n_jobs = inner.n_jobs();
        let mut submit_at = vec![SimTime::ZERO; n_jobs];
        // Jobs are generated cluster by cluster in arrival order, so one
        // forward pass per cluster sees its stream in order.
        let mut open: Vec<usize> = Vec::new();
        for c in 0..n_clusters {
            open.clear();
            let mut oldest = SimTime::ZERO;
            for j in (0..n_jobs).filter(|&j| inner.home(j) == c) {
                let arr = inner.arrival(j);
                if !open.is_empty() && arr > oldest + batch.deadline {
                    // The open transaction timed out before this job
                    // arrived: it flushed at its deadline.
                    let at = oldest + batch.deadline;
                    for &k in &open {
                        submit_at[k] = at;
                    }
                    open.clear();
                }
                if open.is_empty() {
                    oldest = arr;
                }
                open.push(j);
                if open.len() >= batch.size as usize {
                    // Filled: flushes the instant its last job arrives.
                    for &k in &open {
                        submit_at[k] = arr;
                    }
                    open.clear();
                }
            }
            if !open.is_empty() {
                let at = oldest + batch.deadline;
                for &k in &open {
                    submit_at[k] = at;
                }
            }
        }
        BatchedSubmit { inner, submit_at }
    }
}

impl SubmissionProtocol for BatchedSubmit {
    fn name(&self) -> &'static str {
        "batched-multi-cluster"
    }

    fn n_jobs(&self) -> usize {
        self.inner.n_jobs()
    }

    fn arrival(&self, job: usize) -> SimTime {
        self.submit_at[job]
    }

    fn record_arrival(&self, job: usize) -> SimTime {
        self.inner.arrival(job)
    }

    fn home(&self, job: usize) -> usize {
        self.inner.home(job)
    }

    fn place_into(
        &mut self,
        job: usize,
        now: SimTime,
        rng: &mut StdRng,
        scheds: &dyn SchedulerSet,
        out: &mut Vec<CopyPlan>,
    ) {
        self.inner.place_into(job, now, rng, scheds, out);
    }
}

/// The multi-cluster simulation behind a batching metascheduler:
/// submissions coalesce into `submit_batch`-op transactions, and — when
/// `config.faults.cancel_batch` enables it — cancellations do too.
pub struct BatchedGridSim {
    driver: SimDriver<BatchedSubmit>,
}

impl BatchedGridSim {
    /// Builds the batched simulation over the same seed hierarchy as
    /// [`GridSim`](crate::GridSim): identical seeds give identical job
    /// streams, so a batched run pairs with an unbatched baseline.
    ///
    /// # Panics
    /// Panics on an invalid config, or on `submit_batch.size > 1` with a
    /// zero deadline (an unfilled transaction would never flush).
    pub fn new(config: GridConfig, submit_batch: BatchSpec, seed: SeedSequence) -> Self {
        config.validate();
        let jobs = generate_jobs(&config, &seed);
        Self::with_jobs(config, submit_batch, jobs, seed)
    }

    /// Builds the batched simulation over an explicit job table, like
    /// [`GridSim::with_jobs`](crate::GridSim::with_jobs): a table from
    /// [`generate_jobs`] on `seed` pairs the run with an unbatched one.
    ///
    /// # Panics
    /// Panics like [`BatchedGridSim::new`], and on a job table that does
    /// not fit the platform.
    pub fn with_jobs(
        config: GridConfig,
        submit_batch: BatchSpec,
        jobs: Vec<(JobSpec, usize)>,
        seed: SeedSequence,
    ) -> Self {
        assert!(
            submit_batch.size >= 1,
            "submit batch size must be at least 1"
        );
        if submit_batch.size > 1 {
            assert!(
                !submit_batch.deadline.is_zero(),
                "batched submits need a positive flush deadline"
            );
        }
        let n = config.n_clusters();
        BatchedGridSim {
            driver: build_driver(&config, jobs, seed, |placement| {
                BatchedSubmit::new(placement, n, submit_batch)
            }),
        }
    }

    /// Convenience: build and run in one call.
    pub fn execute(config: GridConfig, submit_batch: BatchSpec, seed: SeedSequence) -> RunResult {
        BatchedGridSim::new(config, submit_batch, seed).run()
    }

    /// Number of jobs in the run.
    pub fn n_jobs(&self) -> usize {
        self.driver.protocol().n_jobs()
    }

    /// Runs the simulation to completion and returns the results.
    pub fn run(self) -> RunResult {
        self.driver.run()
    }
}

/// True arrival stream per home cluster, for tests and loadgen sanity:
/// the flush instants a `BatchedSubmit` computes for `arrivals`.
/// Exposed so the batching rule itself (size fill vs deadline timeout)
/// is testable without a whole sim.
pub fn flush_instants(arrivals: &[SimTime], batch: BatchSpec) -> Vec<SimTime> {
    let mut out = vec![SimTime::ZERO; arrivals.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut oldest = SimTime::ZERO;
    for (j, &arr) in arrivals.iter().enumerate() {
        if !open.is_empty() && arr > oldest + batch.deadline {
            let at = oldest + batch.deadline;
            for &k in &open {
                out[k] = at;
            }
            open.clear();
        }
        if open.is_empty() {
            oldest = arr;
        }
        open.push(j);
        if open.len() >= batch.size as usize {
            for &k in &open {
                out[k] = arr;
            }
            open.clear();
        }
    }
    if !open.is_empty() {
        let at = oldest + batch.deadline;
        for &k in &open {
            out[k] = at;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use crate::GridSim;
    use rbr_simcore::Duration;

    fn small_config(n: usize, scheme: Scheme) -> GridConfig {
        let mut cfg = GridConfig::homogeneous(n, scheme);
        cfg.window = Duration::from_secs(1800.0);
        cfg
    }

    fn secs(ts: &[f64]) -> Vec<SimTime> {
        ts.iter().map(|&t| SimTime::from_secs(t)).collect()
    }

    #[test]
    fn size_one_flushes_each_job_at_its_own_arrival() {
        let arrivals = secs(&[0.0, 3.0, 7.5]);
        let batch = BatchSpec::of(1, Duration::ZERO);
        assert_eq!(flush_instants(&arrivals, batch), arrivals);
    }

    #[test]
    fn filled_batch_flushes_at_its_last_arrival() {
        let arrivals = secs(&[0.0, 2.0, 4.0, 5.0]);
        let batch = BatchSpec::of(2, Duration::from_secs(100.0));
        let flush = flush_instants(&arrivals, batch);
        assert_eq!(flush, secs(&[2.0, 2.0, 5.0, 5.0]));
    }

    #[test]
    fn deadline_flushes_a_stalled_batch() {
        let arrivals = secs(&[0.0, 50.0]);
        let batch = BatchSpec::of(4, Duration::from_secs(10.0));
        let flush = flush_instants(&arrivals, batch);
        // Job 0's transaction times out at 10 s; job 1 opens a fresh one
        // that also times out (end of stream).
        assert_eq!(flush, secs(&[10.0, 60.0]));
    }

    /// The acceptance gate: a unit submit batch is bit-identical to the
    /// unbatched simulator on the same config and seed.
    #[test]
    fn unit_batch_is_identity_with_gridsim() {
        for seed in 0u64..3 {
            let cfg = small_config(3, Scheme::All);
            let base = GridSim::execute(cfg, SeedSequence::new(seed));
            let cfg = small_config(3, Scheme::All);
            let batched = BatchedGridSim::execute(
                cfg,
                BatchSpec::of(1, Duration::ZERO),
                SeedSequence::new(seed),
            );
            assert_eq!(base.records, batched.records, "seed {seed}");
            assert_eq!(base.submits, batched.submits);
            assert_eq!(base.cancels, batched.cancels);
            assert_eq!(base.aborts, batched.aborts);
            assert_eq!(base.events, batched.events);
            assert_eq!(base.cancel_batches, 0);
            assert_eq!(batched.cancel_batches, 0);
        }
    }

    #[test]
    fn batched_submits_preserve_true_arrivals_in_records() {
        let cfg = small_config(2, Scheme::None);
        let base = GridSim::execute(cfg, SeedSequence::new(5));
        let cfg = small_config(2, Scheme::None);
        let batched = BatchedGridSim::execute(
            cfg,
            BatchSpec::of(8, Duration::from_secs(60.0)),
            SeedSequence::new(5),
        );
        assert_eq!(base.records.len(), batched.records.len());
        for (a, b) in base.records.iter().zip(&batched.records) {
            // Same true arrival, but the batched job cannot start before
            // its transaction flushed.
            assert_eq!(a.arrival, b.arrival);
            assert!(b.start >= b.arrival);
        }
        // Waiting for the batch to fill must cost somebody something.
        let mean_base = base.wait(crate::JobClass::All).mean();
        let mean_batched = batched.wait(crate::JobClass::All).mean();
        assert!(
            mean_batched >= mean_base,
            "batched mean wait {mean_batched} < unbatched {mean_base}"
        );
    }

    #[test]
    fn batched_run_is_deterministic() {
        let run = || {
            let mut cfg = small_config(3, Scheme::All);
            cfg.faults.cancel_batch = BatchSpec::of(4, Duration::from_secs(30.0));
            BatchedGridSim::execute(
                cfg,
                BatchSpec::of(4, Duration::from_secs(30.0)),
                SeedSequence::new(11),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.cancel_batches, b.cancel_batches);
        assert_eq!(a.zombie_starts, b.zombie_starts);
        assert_eq!(a.wasted_node_secs, b.wasted_node_secs);
    }

    #[test]
    fn batched_cancels_dispatch_fewer_transactions() {
        let mut cfg = small_config(3, Scheme::All);
        cfg.faults.cancel_batch = BatchSpec::of(4, Duration::from_secs(30.0));
        let result =
            BatchedGridSim::execute(cfg, BatchSpec::of(1, Duration::ZERO), SeedSequence::new(12));
        assert!(result.cancel_batches > 0, "cancel batching must engage");
        // Batching coalesces: strictly fewer transactions than cancels
        // delivered plus cancels lost (each op would otherwise be its
        // own transaction).
        assert!(result.cancel_batches < result.cancels + result.lost_cancels);
        // Every job still completes exactly once.
        for r in &result.records {
            assert_eq!(r.completion, r.start + r.runtime);
        }
    }
}
