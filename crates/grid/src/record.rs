//! Per-job outcomes and the metrics derived from them.

use rbr_simcore::{Duration, SimTime};
use rbr_stats::Summary;

/// What happened to one job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobRecord {
    /// Job index within the run.
    pub job: usize,
    /// Cluster the job arrived at.
    pub home: usize,
    /// Cluster the winning request ran on.
    pub ran_on: usize,
    /// Nodes used.
    pub nodes: u32,
    /// Submission instant.
    pub arrival: SimTime,
    /// Execution start instant.
    pub start: SimTime,
    /// Completion instant.
    pub completion: SimTime,
    /// Actual runtime.
    pub runtime: Duration,
    /// True if the job submitted more than one request.
    pub redundant: bool,
    /// Number of requests submitted (1 for non-redundant jobs).
    pub copies: u32,
    /// Queue wait forecast at submission: the minimum predicted wait over
    /// all of the job's requests (Section 5). `None` if prediction
    /// collection was off.
    pub predicted_wait: Option<Duration>,
}

impl JobRecord {
    /// Queue waiting time.
    pub fn wait(&self) -> Duration {
        self.start.since(self.arrival)
    }

    /// Turnaround time (wait + runtime).
    pub fn turnaround(&self) -> Duration {
        self.completion.since(self.arrival)
    }

    /// Stretch (slowdown): turnaround divided by runtime; ≥ 1.
    pub fn stretch(&self) -> f64 {
        self.turnaround() / self.runtime
    }
}

/// Everything a single grid run produces.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// One record per job, in job order.
    pub records: Vec<JobRecord>,
    /// Maximum queue length observed at each submission target (§4.1's
    /// queue-growth question). One entry per cluster (multi-cluster) or
    /// per queue (dual-queue).
    pub max_queue_len: Vec<usize>,
    /// Sizes of the distinct node pools behind the run: one entry per
    /// cluster, or a single entry when several queues share one pool.
    pub pool_nodes: Vec<u32>,
    /// Requests actually submitted to schedulers.
    pub submits: u64,
    /// Cancellations delivered to schedulers (losing redundant copies).
    pub cancels: u64,
    /// Starts revoked because the job had already begun elsewhere at the
    /// same instant.
    pub aborts: u64,
    /// Instant the last job completed.
    pub makespan: SimTime,
    /// Events processed by the engine.
    pub events: u64,
    /// Backfilled (out-of-order) starts summed over all schedulers.
    pub backfills: u64,
    /// Copies that began executing after their job had already started
    /// (or finished) elsewhere — possible only with faulty middleware,
    /// where the cancellation callback is late or lost.
    pub zombie_starts: u64,
    /// Node-seconds consumed by work that was thrown away: zombie
    /// execution and partial runs killed by outages.
    pub wasted_node_secs: f64,
    /// Submission delivery attempts lost by the middleware.
    pub lost_submits: u64,
    /// Cancellation messages lost by the middleware.
    pub lost_cancels: u64,
    /// Remote copies dropped after exhausting submission retries.
    pub dropped_copies: u64,
    /// Requests destroyed by cluster outages (queued evaporated plus
    /// running killed).
    pub outage_kills: u64,
    /// Batched cancel transactions dispatched (0 unless
    /// `FaultSpec::cancel_batch` enables batching; each transaction
    /// carries one or more cancel ops).
    pub cancel_batches: u64,
}

/// Which jobs to include in a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobClass {
    /// Every job.
    All,
    /// Only jobs that used redundant requests ("r jobs").
    Redundant,
    /// Only jobs that did not ("n-r jobs").
    NonRedundant,
}

impl RunResult {
    fn select(&self, class: JobClass) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(move |r| match class {
            JobClass::All => true,
            JobClass::Redundant => r.redundant,
            JobClass::NonRedundant => !r.redundant,
        })
    }

    /// Summary of job stretches over a class of jobs.
    pub fn stretch(&self, class: JobClass) -> Summary {
        let mut s = Summary::new();
        for r in self.select(class) {
            s.push(r.stretch());
        }
        s
    }

    /// Summary of turnaround times (seconds) over a class of jobs.
    pub fn turnaround(&self, class: JobClass) -> Summary {
        let mut s = Summary::new();
        for r in self.select(class) {
            s.push(r.turnaround().as_secs());
        }
        s
    }

    /// Summary of queue waits (seconds) over a class of jobs.
    pub fn wait(&self, class: JobClass) -> Summary {
        let mut s = Summary::new();
        for r in self.select(class) {
            s.push(r.wait().as_secs());
        }
        s
    }

    /// Summary of the prediction over-estimation ratio
    /// `predicted wait / effective wait` over a class of jobs, with both
    /// waits floored at `floor` to keep the ratio finite for jobs that
    /// start instantly (the paper does not state its handling; see
    /// DESIGN.md).
    ///
    /// Jobs without a recorded prediction are skipped.
    pub fn prediction_ratio(&self, class: JobClass, floor: Duration) -> Summary {
        assert!(!floor.is_zero(), "prediction floor must be positive");
        let mut s = Summary::new();
        for r in self.select(class) {
            if let Some(pred) = r.predicted_wait {
                let predicted = pred.max(floor);
                let effective = r.wait().max(floor);
                s.push(predicted / effective);
            }
        }
        s
    }

    /// The largest stretch over a class of jobs (the paper's alternative
    /// fairness metric).
    pub fn max_stretch(&self, class: JobClass) -> f64 {
        self.select(class)
            .map(|r| r.stretch())
            .fold(f64::NAN, f64::max)
    }

    /// Total node-seconds of work completed.
    pub fn total_work(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.nodes as f64 * r.runtime.as_secs())
            .sum()
    }

    /// Every node-second the run accounts for: useful work delivered to
    /// the winning copies plus the wasted node-seconds of zombies and
    /// killed partial runs. The invariant auditor compares this ledger
    /// against the node-occupancy it observed at the schedulers.
    pub fn accounted_node_secs(&self) -> f64 {
        self.total_work() + self.wasted_node_secs
    }

    /// Wasted node-seconds as a fraction of the useful work delivered —
    /// 0 under perfect middleware, where no copy ever executes twice.
    pub fn waste_fraction(&self) -> f64 {
        let useful = self.total_work();
        if useful > 0.0 {
            self.wasted_node_secs / useful
        } else {
            0.0
        }
    }

    /// Useful work delivered over the total capacity offered during the
    /// run: `total_work / (Σ pool nodes × makespan)`. Returns 0 for an
    /// empty run (no capacity recorded or zero makespan).
    pub fn overall_utilization(&self) -> f64 {
        let capacity: f64 = self.pool_nodes.iter().map(|&n| n as f64).sum();
        let horizon = self.makespan.as_secs();
        if capacity > 0.0 && horizon > 0.0 {
            self.total_work() / (capacity * horizon)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival: f64, start: f64, runtime: f64, redundant: bool) -> JobRecord {
        JobRecord {
            job: 0,
            home: 0,
            ran_on: 0,
            nodes: 2,
            arrival: SimTime::from_secs(arrival),
            start: SimTime::from_secs(start),
            completion: SimTime::from_secs(start + runtime),
            runtime: Duration::from_secs(runtime),
            redundant,
            copies: if redundant { 3 } else { 1 },
            predicted_wait: None,
        }
    }

    #[test]
    fn stretch_definition() {
        let r = rec(0.0, 90.0, 10.0, false);
        assert_eq!(r.wait(), Duration::from_secs(90.0));
        assert_eq!(r.turnaround(), Duration::from_secs(100.0));
        assert!((r.stretch() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_wait_job_has_stretch_one() {
        let r = rec(5.0, 5.0, 10.0, true);
        assert!((r.stretch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn class_filters() {
        let result = RunResult {
            records: vec![
                rec(0.0, 10.0, 10.0, true),  // stretch 2
                rec(0.0, 30.0, 10.0, false), // stretch 4
                rec(0.0, 70.0, 10.0, false), // stretch 8
            ],
            ..Default::default()
        };
        assert_eq!(result.stretch(JobClass::All).n(), 3);
        assert!((result.stretch(JobClass::Redundant).mean() - 2.0).abs() < 1e-12);
        assert!((result.stretch(JobClass::NonRedundant).mean() - 6.0).abs() < 1e-12);
        assert!((result.max_stretch(JobClass::All) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_ratio_uses_floor() {
        let mut r = rec(0.0, 0.0, 10.0, false); // zero wait
        r.predicted_wait = Some(Duration::from_secs(100.0));
        let result = RunResult {
            records: vec![r],
            ..Default::default()
        };
        let s = result.prediction_ratio(JobClass::All, Duration::from_secs(1.0));
        assert_eq!(s.n(), 1);
        assert!((s.mean() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_ratio_skips_missing() {
        let result = RunResult {
            records: vec![rec(0.0, 5.0, 10.0, false)],
            ..Default::default()
        };
        let s = result.prediction_ratio(JobClass::All, Duration::from_secs(1.0));
        assert!(s.is_empty());
    }

    #[test]
    fn total_work_sums_areas() {
        let result = RunResult {
            records: vec![rec(0.0, 0.0, 10.0, false), rec(0.0, 0.0, 5.0, false)],
            ..Default::default()
        };
        assert_eq!(result.total_work(), 2.0 * 10.0 + 2.0 * 5.0);
    }
}

/// Per-cluster utilization and balance metrics (computed from records).
#[derive(Clone, Debug)]
pub struct UtilizationReport {
    /// Node-seconds of completed work per cluster.
    pub work: Vec<f64>,
    /// Utilization per cluster: work ÷ (nodes × makespan).
    pub utilization: Vec<f64>,
    /// Jain's fairness index over per-cluster utilizations — 1 means
    /// perfectly balanced load, 1/N means all work on one cluster.
    pub balance_index: f64,
}

impl RunResult {
    /// Computes per-cluster utilization over the full run, given the
    /// cluster sizes used in the simulation.
    ///
    /// # Panics
    /// Panics if `nodes_per_cluster` does not match the platform size or
    /// the run is empty.
    pub fn utilization(&self, nodes_per_cluster: &[u32]) -> UtilizationReport {
        assert_eq!(
            nodes_per_cluster.len(),
            self.max_queue_len.len(),
            "cluster count mismatch"
        );
        assert!(!self.records.is_empty(), "empty run has no utilization");
        let horizon = self.makespan.as_secs().max(1e-9);
        let mut work = vec![0.0; nodes_per_cluster.len()];
        for r in &self.records {
            work[r.ran_on] += r.nodes as f64 * r.runtime.as_secs();
        }
        let utilization: Vec<f64> = work
            .iter()
            .zip(nodes_per_cluster)
            .map(|(w, &n)| w / (n as f64 * horizon))
            .collect();
        let balance_index = rbr_stats::jain_index(&utilization);
        UtilizationReport {
            work,
            utilization,
            balance_index,
        }
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;

    fn rec_on(cluster: usize, nodes: u32, runtime: f64) -> JobRecord {
        JobRecord {
            job: 0,
            home: cluster,
            ran_on: cluster,
            nodes,
            arrival: SimTime::ZERO,
            start: SimTime::ZERO,
            completion: SimTime::from_secs(runtime),
            runtime: Duration::from_secs(runtime),
            redundant: false,
            copies: 1,
            predicted_wait: None,
        }
    }

    #[test]
    fn utilization_is_work_over_capacity() {
        let result = RunResult {
            records: vec![rec_on(0, 10, 100.0), rec_on(1, 5, 100.0)],
            max_queue_len: vec![0, 0],
            makespan: SimTime::from_secs(100.0),
            ..Default::default()
        };
        let u = result.utilization(&[10, 10]);
        assert!((u.utilization[0] - 1.0).abs() < 1e-12);
        assert!((u.utilization[1] - 0.5).abs() < 1e-12);
        // Jain index of (1.0, 0.5): (1.5)^2 / (2 × 1.25) = 0.9.
        assert!((u.balance_index - 0.9).abs() < 1e-12);
    }

    #[test]
    fn perfectly_balanced_load_has_index_one() {
        let result = RunResult {
            records: vec![rec_on(0, 4, 50.0), rec_on(1, 4, 50.0)],
            max_queue_len: vec![0, 0],
            makespan: SimTime::from_secs(50.0),
            ..Default::default()
        };
        let u = result.utilization(&[8, 8]);
        assert!((u.balance_index - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overall_utilization_uses_pool_capacity() {
        let result = RunResult {
            records: vec![rec_on(0, 10, 100.0), rec_on(1, 5, 100.0)],
            max_queue_len: vec![0, 0],
            pool_nodes: vec![10, 10],
            makespan: SimTime::from_secs(100.0),
            ..Default::default()
        };
        // 1500 node-seconds of work over 20 nodes × 100 s of capacity.
        assert!((result.overall_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(RunResult::default().overall_utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_cluster_count_rejected() {
        let result = RunResult {
            records: vec![rec_on(0, 1, 1.0)],
            max_queue_len: vec![0],
            makespan: SimTime::from_secs(1.0),
            ..Default::default()
        };
        let _ = result.utilization(&[4, 4]);
    }
}

impl RunResult {
    /// Number of jobs pending (arrived but not started) at instant `t`.
    pub fn pending_at(&self, t: SimTime) -> usize {
        self.records
            .iter()
            .filter(|r| r.arrival <= t && r.start > t)
            .count()
    }

    /// Average queue growth in jobs per hour over `[0, window)`, the
    /// paper's §4.1 figure ("the queue of a batch scheduler grows by
    /// about 700 jobs per hour during so-called 'peak' hours"): pending
    /// jobs at the end of the submission window divided by its length.
    /// This counts *jobs*; with redundancy each pending job additionally
    /// occupies one queue slot per live copy.
    pub fn queue_growth_per_hour(&self, window: Duration) -> f64 {
        assert!(!window.is_zero(), "window must be positive");
        let end = SimTime::ZERO + window;
        self.pending_at(end) as f64 / (window.as_secs() / 3_600.0)
    }
}

#[cfg(test)]
mod growth_tests {
    use super::*;

    fn rec_span(arrival: f64, start: f64) -> JobRecord {
        JobRecord {
            job: 0,
            home: 0,
            ran_on: 0,
            nodes: 1,
            arrival: SimTime::from_secs(arrival),
            start: SimTime::from_secs(start),
            completion: SimTime::from_secs(start + 10.0),
            runtime: Duration::from_secs(10.0),
            redundant: false,
            copies: 1,
            predicted_wait: None,
        }
    }

    #[test]
    fn pending_counts_waiting_jobs() {
        let result = RunResult {
            records: vec![
                rec_span(0.0, 100.0), // pending during (0, 100)
                rec_span(10.0, 20.0), // pending during (10, 20)
                rec_span(200.0, 210.0),
            ],
            ..Default::default()
        };
        assert_eq!(result.pending_at(SimTime::from_secs(15.0)), 2);
        assert_eq!(result.pending_at(SimTime::from_secs(50.0)), 1);
        assert_eq!(result.pending_at(SimTime::from_secs(150.0)), 0);
    }

    #[test]
    fn growth_rate_is_pending_at_window_end() {
        let result = RunResult {
            // 3 jobs still pending at t = 3600 s.
            records: (0..3).map(|i| rec_span(i as f64, 10_000.0)).collect(),
            ..Default::default()
        };
        let rate = result.queue_growth_per_hour(Duration::from_secs(3_600.0));
        assert!((rate - 3.0).abs() < 1e-12);
    }
}
