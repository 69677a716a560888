//! The multi-cluster redundant-request protocol (options (i)/(ii) of
//! Section 2), expressed as a [`SubmissionProtocol`] over the shared
//! [`SimDriver`] event loop.
//!
//! Each cluster runs its own batch scheduler and receives its own job
//! stream. A redundant job submits copies to its home cluster plus
//! randomly selected remotes; the instant any copy is granted nodes, the
//! job starts there and every other copy is cancelled (the zero-latency
//! callback). If two clusters grant copies at the same simulated instant,
//! the engine commits them in deterministic event order and revokes the
//! losers, which is exactly what an instantaneous cancellation callback
//! would do. All of that machinery lives in [`crate::driver`]; this
//! module only decides *where copies go*: the home cluster first, then
//! remotes drawn by the configured [`SelectionPolicy`] among clusters
//! big enough for the job, with remote estimates optionally inflated by
//! the late-binding data-staging factor of §3.1.2.
//!
//! # Faulty middleware
//!
//! With a non-default [`rbr_faults::FaultSpec`] in the configuration,
//! the control traffic above flows through an unreliable middleware
//! instead ([`FaultModel`]): submissions and cancellations take time,
//! get lost (lost submissions retry with bounded exponential backoff;
//! lost cancellations are gone for good), and clusters suffer scheduled
//! outages that wipe their scheduler state. The protocol then changes in
//! the ways real placeholder scheduling degrades:
//!
//! * every copy is dispatched at arrival (no zero-latency short-circuit)
//!   and reaches its scheduler only when its submit message arrives;
//! * the cancellation callback is sent once, when the first copy starts;
//!   copies whose cancel message is lost or late keep queueing and may
//!   start anyway — **zombies** whose node-time is wasted;
//! * the first copy to *finish* completes the job (normally the winner;
//!   after an outage killed the winner, possibly a surviving zombie);
//! * outages kill running copies (partial work wasted) and evaporate
//!   queued ones; the middleware re-delivers evaporated copies — and
//!   resubmits a killed winner — at recovery.
//!
//! The faultless configuration takes exactly the original code path and
//! never touches the fault stream, so its results are bit-identical to a
//! build without fault support.

use rand::rngs::StdRng;
use rbr_faults::FaultModel;
use rbr_sched::{ClusterSet, SchedulerSet};
use rbr_simcore::{unit, SeedSequence, SimTime};
use rbr_workload::{JobSpec, LublinModel};

use crate::config::GridConfig;
use crate::driver::{CopyPlan, SimDriver, SubmissionProtocol};
use crate::record::RunResult;
use crate::scheme::Scheme;
use crate::select::{SelectionPolicy, SelectionScratch};

/// The multi-cluster placement policy: home first, then scheme-many
/// remotes drawn by the selection policy among big-enough clusters.
/// Crate-visible so [`crate::batch`] can wrap the same placement inside
/// its batched-submit protocol.
pub(crate) struct MultiCluster {
    jobs: Vec<(JobSpec, usize)>,
    cluster_nodes: Vec<u32>,
    scheme: Scheme,
    selection: SelectionPolicy,
    redundant_fraction: f64,
    remote_inflation: f64,
    // Per-placement buffers, reused across every job in the run.
    targets: Vec<usize>,
    eligible: Vec<usize>,
    queue_lens: Vec<usize>,
    select_scratch: SelectionScratch,
}

impl MultiCluster {
    /// Builds the placement policy over an explicit job table.
    pub(crate) fn new(config: &GridConfig, jobs: Vec<(JobSpec, usize)>) -> Self {
        MultiCluster {
            jobs,
            cluster_nodes: config.clusters.iter().map(|c| c.nodes).collect(),
            scheme: config.scheme,
            selection: config.selection,
            redundant_fraction: config.redundant_fraction,
            remote_inflation: config.remote_inflation,
            targets: Vec::new(),
            eligible: Vec::new(),
            queue_lens: Vec::new(),
            select_scratch: SelectionScratch::default(),
        }
    }
}

/// Generates every cluster's job stream from the seed hierarchy: stream
/// `seed.child(i)` drives cluster `i`'s workload. It reads only the
/// fields [`GridConfig::same_workload`] compares, so configurations that
/// pass it can share one table: [`GridSim::new`] is this followed by
/// [`GridSim::with_jobs`].
///
/// The table is reserved once at the clusters' summed expected job count
/// (window ÷ mean interarrival each) plus four standard deviations of a
/// Poisson count of that mean, which bounds the spread of any Gamma
/// arrival stream of shape 1 or more, so it seldom grows. It is then
/// shrunk once to its length: a built simulation holds no growth slack.
pub fn generate_jobs(config: &GridConfig, seed: &SeedSequence) -> Vec<(JobSpec, usize)> {
    let window = config.window.as_secs();
    let expected: f64 = config
        .clusters
        .iter()
        .map(|c| window / c.workload.mean_interarrival())
        .sum();
    let reserve = expected + 4.0 * expected.sqrt();
    let mut jobs: Vec<(JobSpec, usize)> = Vec::with_capacity(reserve as usize);
    for (i, cluster) in config.clusters.iter().enumerate() {
        let model = LublinModel::new(cluster.workload);
        let mut rng = seed.child(i as u64).rng();
        jobs.extend(
            model
                .stream(&mut rng, config.window, &config.estimates)
                .map(|spec| (spec, i)),
        );
    }
    jobs.shrink_to_fit();
    jobs
}

/// Builds the driver both simulators run: validates `config` and
/// `jobs`, then wires the fault model (stream `seed.child(n + 1)`), one
/// scheduler per cluster, and the redundancy/selection stream
/// `seed.child(n)` around the protocol `wrap` makes of the multi-cluster
/// placement over `jobs`.
///
/// # Panics
/// Panics on an invalid configuration, if a home cluster index is out of
/// range, or if a job requests more nodes than its home cluster has.
pub(crate) fn build_driver<P: SubmissionProtocol>(
    config: &GridConfig,
    jobs: Vec<(JobSpec, usize)>,
    seed: SeedSequence,
    wrap: impl FnOnce(MultiCluster) -> P,
) -> SimDriver<P> {
    config.validate();
    let n = config.n_clusters();
    for (spec, home) in &jobs {
        assert!(*home < n, "home cluster {home} out of range");
        assert!(
            spec.nodes <= config.clusters[*home].nodes,
            "job requests {} nodes but home cluster {home} has {}",
            spec.nodes,
            config.clusters[*home].nodes
        );
    }
    // The fault stream is child(n + 1): disjoint from the per-cluster
    // workload streams child(0..n) and the redundancy/selection stream
    // child(n), so enabling faults never perturbs either.
    let faults = if config.faults.is_disabled() {
        None
    } else {
        Some(FaultModel::new(
            config.faults.clone(),
            seed.child(n as u64 + 1),
        ))
    };
    let cluster_nodes: Vec<u32> = config.clusters.iter().map(|c| c.nodes).collect();
    let scheds = ClusterSet::new(config.algorithm, config.cbf_cycle, &cluster_nodes);
    SimDriver::new(
        wrap(MultiCluster::new(config, jobs)),
        Box::new(scheds),
        seed.child(n as u64).rng(),
        faults,
        config.collect_predictions,
    )
}

impl SubmissionProtocol for MultiCluster {
    fn name(&self) -> &'static str {
        "multi-cluster"
    }

    fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    fn arrival(&self, job: usize) -> SimTime {
        self.jobs[job].0.arrival
    }

    fn home(&self, job: usize) -> usize {
        self.jobs[job].1
    }

    fn place_into(
        &mut self,
        job: usize,
        _now: SimTime,
        rng: &mut StdRng,
        scheds: &dyn SchedulerSet,
        out: &mut Vec<CopyPlan>,
    ) {
        let (spec, home) = self.jobs[job];
        let n = self.cluster_nodes.len();

        // Does this job use redundancy, and where do its copies go?
        let wants_redundancy = self.scheme.is_redundant(n)
            && (self.redundant_fraction >= 1.0 || unit(rng) < self.redundant_fraction);
        self.targets.clear();
        self.targets.push(home);
        if wants_redundancy {
            let copies = self.scheme.copies(n);
            self.eligible.clear();
            self.eligible
                .extend((0..n).filter(|&c| c != home && self.cluster_nodes[c] >= spec.nodes));
            self.queue_lens.clear();
            if self.selection == SelectionPolicy::LeastLoaded {
                self.queue_lens.extend((0..n).map(|c| scheds.queue_len(c)));
            }
            self.selection.choose_into(
                rng,
                &self.eligible,
                copies - 1,
                &self.queue_lens,
                &mut self.select_scratch,
                &mut self.targets,
            );
        }
        out.extend(self.targets.iter().map(|&c| CopyPlan {
            target: c,
            nodes: spec.nodes,
            estimate: if c == home || self.remote_inflation == 0.0 {
                spec.estimate
            } else {
                spec.estimate.scale(1.0 + self.remote_inflation)
            },
            runtime: spec.runtime,
        }));
    }
}

/// The simulation: build with [`GridSim::new`], execute with
/// [`GridSim::run`], or do both with [`GridSim::execute`].
pub struct GridSim {
    driver: SimDriver<MultiCluster>,
}

impl GridSim {
    /// Builds a simulation: generates every cluster's job stream from the
    /// seed hierarchy and sorts the jobs into the driver's arrival lane.
    ///
    /// A built simulation holds only its inputs: the job table, the
    /// arrival lane (four bytes a job) and the schedulers. The per-job
    /// run state — job states, records, request and plan tables — is
    /// allocated by [`GridSim::run`], and the on-start race keeps a plan
    /// only for each copy it submits, so building many cells before
    /// running any costs little more than their job tables.
    ///
    /// Stream `seed.child(i)` drives cluster `i`'s workload;
    /// `seed.child(n_clusters)` drives redundancy coin-flips and target
    /// selection. Identical seeds therefore give identical job streams
    /// across different schemes — the paired-comparison design of the
    /// paper.
    pub fn new(config: GridConfig, seed: SeedSequence) -> Self {
        config.validate();
        let jobs = generate_jobs(&config, &seed);
        Self::with_jobs(config, jobs, seed)
    }

    /// Builds a simulation over an explicit job table — the trace-replay
    /// path ("we conducted some simulations using real-world traces",
    /// §3.1.1), and the paired path, where one table from
    /// [`generate_jobs`] runs under every configuration compared on a
    /// seed. Each entry is a job spec plus its home cluster index;
    /// `config.window` and per-cluster workload models are ignored,
    /// everything else (scheme, selection, algorithm…) applies as usual.
    ///
    /// # Panics
    /// Panics if a home cluster index is out of range or a job requests
    /// more nodes than its home cluster has.
    pub fn with_jobs(config: GridConfig, jobs: Vec<(JobSpec, usize)>, seed: SeedSequence) -> Self {
        GridSim {
            driver: build_driver(&config, jobs, seed, |placement| placement),
        }
    }

    /// Convenience: build and run in one call.
    pub fn execute(config: GridConfig, seed: SeedSequence) -> RunResult {
        GridSim::new(config, seed).run()
    }

    /// Number of jobs in the run.
    pub fn n_jobs(&self) -> usize {
        self.driver.protocol().n_jobs()
    }

    /// Runs the simulation to completion and returns the results.
    ///
    /// # Panics
    /// Panics if any job fails to start or complete — that would be a
    /// scheduler bug, not a valid outcome.
    pub fn run(self) -> RunResult {
        self.driver.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::JobClass;
    use rbr_sched::Algorithm;
    use rbr_simcore::Duration;

    fn small_config(n: usize, scheme: Scheme) -> GridConfig {
        let mut cfg = GridConfig::homogeneous(n, scheme);
        cfg.window = Duration::from_secs(1800.0); // half an hour keeps tests fast
        cfg
    }

    /// A job arriving at the instant another completes is submitted
    /// before the completion is handled, as if every arrival had been
    /// scheduled ahead of all other events: it queues while the nodes
    /// are still held.
    #[test]
    fn arrivals_win_same_instant_ties() {
        let mut cfg = GridConfig::homogeneous(1, Scheme::None);
        cfg.clusters[0] = crate::config::ClusterSpec::new(3, cfg.clusters[0].workload);
        let job = |at: f64, nodes: u32, secs: f64| {
            let runtime = Duration::from_secs(secs);
            let arrival = SimTime::from_secs(at);
            (
                JobSpec {
                    arrival,
                    nodes,
                    runtime,
                    estimate: runtime,
                },
                0,
            )
        };
        // The first job holds all three nodes until 10; the second queues
        // at 1; the third arrives at 10.
        let jobs = vec![job(0.0, 3, 10.0), job(1.0, 2, 5.0), job(10.0, 1, 100.0)];
        let result = GridSim::with_jobs(cfg, jobs, SeedSequence::new(0)).run();
        // Handling the completion first would start the second job before
        // the third arrived, and the queue would never hold two.
        assert_eq!(result.max_queue_len, vec![2]);
        assert_eq!(result.records[2].start, SimTime::from_secs(10.0));
        assert_eq!(result.events, 6);
    }

    #[test]
    fn all_jobs_complete_without_redundancy() {
        let cfg = small_config(2, Scheme::None);
        let result = GridSim::execute(cfg, SeedSequence::new(70));
        assert!(!result.records.is_empty());
        for r in &result.records {
            assert!(r.start >= r.arrival);
            assert_eq!(r.completion, r.start + r.runtime);
            assert_eq!(r.home, r.ran_on, "no redundancy: jobs run at home");
            assert!(!r.redundant);
            assert_eq!(r.copies, 1);
        }
        assert_eq!(result.cancels, 0);
        assert_eq!(result.submits, result.records.len() as u64);
    }

    #[test]
    fn redundant_jobs_cancel_losing_copies() {
        let cfg = small_config(4, Scheme::All);
        let result = GridSim::execute(cfg, SeedSequence::new(71));
        let redundant = result.records.iter().filter(|r| r.redundant).count();
        assert!(redundant > 0, "ALL scheme must produce redundant jobs");
        // Every copy beyond the winner is either cancelled, aborted, or
        // was never submitted (job started before later copies went out).
        assert!(result.cancels > 0);
        assert!(result.submits >= result.records.len() as u64);
        for r in &result.records {
            assert!(r.copies >= 1 && r.copies <= 4);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = GridSim::execute(small_config(3, Scheme::R(2)), SeedSequence::new(72));
        let b = GridSim::execute(small_config(3, Scheme::R(2)), SeedSequence::new(72));
        assert_eq!(a.records, b.records);
        assert_eq!(a.submits, b.submits);
        assert_eq!(a.cancels, b.cancels);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn different_schemes_share_job_streams() {
        let none = GridSim::execute(small_config(3, Scheme::None), SeedSequence::new(73));
        let all = GridSim::execute(small_config(3, Scheme::All), SeedSequence::new(73));
        assert_eq!(none.records.len(), all.records.len());
        for (a, b) in none.records.iter().zip(&all.records) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.home, b.home);
        }
    }

    #[test]
    fn fraction_zero_means_no_redundancy() {
        let mut cfg = small_config(3, Scheme::All);
        cfg.redundant_fraction = 0.0;
        let result = GridSim::execute(cfg, SeedSequence::new(74));
        assert!(result.records.iter().all(|r| !r.redundant));
        assert_eq!(result.cancels, 0);
    }

    #[test]
    fn fraction_splits_population() {
        let mut cfg = small_config(4, Scheme::All);
        cfg.redundant_fraction = 0.5;
        let result = GridSim::execute(cfg, SeedSequence::new(75));
        let r = result.stretch(JobClass::Redundant).n();
        let nr = result.stretch(JobClass::NonRedundant).n();
        let total = result.records.len() as f64;
        assert!(r > 0 && nr > 0);
        let frac = r as f64 / total;
        assert!((0.4..0.6).contains(&frac), "redundant fraction {frac}");
    }

    #[test]
    fn predictions_collected_when_enabled() {
        let mut cfg = small_config(2, Scheme::R(2));
        cfg.algorithm = Algorithm::Cbf;
        cfg.collect_predictions = true;
        cfg.window = Duration::from_secs(900.0);
        let result = GridSim::execute(cfg, SeedSequence::new(76));
        assert!(result.records.iter().all(|r| r.predicted_wait.is_some()));
        // Jobs that started instantly predicted zero wait.
        for r in &result.records {
            if r.wait().is_zero() && r.copies == 1 {
                assert_eq!(r.predicted_wait, Some(Duration::ZERO));
            }
        }
    }

    #[test]
    fn work_is_conserved_across_schemes() {
        let none = GridSim::execute(small_config(3, Scheme::None), SeedSequence::new(77));
        let all = GridSim::execute(small_config(3, Scheme::All), SeedSequence::new(77));
        assert!((none.total_work() - all.total_work()).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_jobs_only_target_big_enough_clusters() {
        use crate::config::ClusterSpec;
        use rbr_workload::LublinConfig;
        let cfg = GridConfig {
            clusters: vec![
                ClusterSpec::new(16, LublinConfig::paper_2006().with_mean_interarrival(8.0)),
                ClusterSpec::new(128, LublinConfig::paper_2006().with_mean_interarrival(8.0)),
            ],
            window: Duration::from_secs(1800.0),
            ..GridConfig::homogeneous(2, Scheme::All)
        };
        let result = GridSim::execute(cfg, SeedSequence::new(78));
        for r in &result.records {
            if r.ran_on == 0 {
                assert!(
                    r.nodes <= 16,
                    "{} nodes ran on the 16-node cluster",
                    r.nodes
                );
            }
            // Jobs from the big cluster wider than 16 nodes must run home.
            if r.home == 1 && r.nodes > 16 {
                assert_eq!(r.ran_on, 1);
            }
        }
    }

    #[test]
    fn every_algorithm_completes_the_run() {
        for alg in Algorithm::all() {
            let mut cfg = small_config(2, Scheme::R(2));
            cfg.algorithm = alg;
            cfg.window = Duration::from_secs(900.0);
            let result = GridSim::execute(cfg, SeedSequence::new(79));
            assert!(!result.records.is_empty(), "{alg} produced no records");
        }
    }

    #[test]
    fn stretches_are_at_least_one() {
        let result = GridSim::execute(small_config(3, Scheme::Half), SeedSequence::new(80));
        for r in &result.records {
            assert!(r.stretch() >= 1.0 - 1e-12);
        }
    }

    // ---- faulty middleware ------------------------------------------

    use rbr_faults::{Delay, Outage};

    #[test]
    fn faultless_run_never_touches_fault_counters() {
        let result = GridSim::execute(small_config(3, Scheme::All), SeedSequence::new(90));
        assert_eq!(result.zombie_starts, 0);
        assert_eq!(result.wasted_node_secs, 0.0);
        assert_eq!(result.lost_submits, 0);
        assert_eq!(result.lost_cancels, 0);
        assert_eq!(result.dropped_copies, 0);
        assert_eq!(result.outage_kills, 0);
        assert_eq!(result.waste_fraction(), 0.0);
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let faulty = || {
            let mut cfg = small_config(3, Scheme::All);
            cfg.faults.cancel_loss = 0.5;
            cfg.faults.cancel_delay = Delay::Exp {
                mean: Duration::from_secs(30.0),
            };
            cfg.faults.submit_delay = Delay::Uniform {
                lo: Duration::from_secs(0.1),
                hi: Duration::from_secs(2.0),
            };
            GridSim::execute(cfg, SeedSequence::new(91))
        };
        let a = faulty();
        let b = faulty();
        assert_eq!(a.records, b.records);
        assert_eq!(a.zombie_starts, b.zombie_starts);
        assert_eq!(a.wasted_node_secs, b.wasted_node_secs);
        assert_eq!(a.lost_cancels, b.lost_cancels);
        assert_eq!(a.submits, b.submits);
    }

    #[test]
    fn fault_stream_does_not_perturb_the_workload() {
        // The fault stream is disjoint from the workload and selection
        // streams, so the paired design survives enabling faults: same
        // jobs, same arrivals, same sizes.
        let clean = GridSim::execute(small_config(3, Scheme::All), SeedSequence::new(92));
        let mut cfg = small_config(3, Scheme::All);
        cfg.faults.cancel_loss = 1.0;
        let dirty = GridSim::execute(cfg, SeedSequence::new(92));
        assert_eq!(clean.records.len(), dirty.records.len());
        for (a, b) in clean.records.iter().zip(&dirty.records) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.home, b.home);
        }
    }

    #[test]
    fn lost_cancels_create_zombies_and_waste() {
        let mut cfg = small_config(3, Scheme::All);
        cfg.faults.cancel_loss = 1.0; // every cancellation vanishes
        let result = GridSim::execute(cfg, SeedSequence::new(93));
        assert!(result.lost_cancels > 0);
        assert!(result.zombie_starts > 0, "uncancelled copies must start");
        assert!(result.wasted_node_secs > 0.0, "zombies waste node time");
        assert!(result.waste_fraction() > 0.0);
        // Every job still completes exactly once.
        assert_eq!(
            result.records.len(),
            result
                .records
                .iter()
                .map(|r| r.job)
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
        for r in &result.records {
            assert_eq!(r.completion, r.start + r.runtime);
        }
    }

    #[test]
    fn certain_submit_loss_drops_remote_copies_but_jobs_survive() {
        let mut cfg = small_config(3, Scheme::All);
        cfg.faults.submit_loss = 1.0;
        cfg.faults.max_retries = 2;
        let result = GridSim::execute(cfg, SeedSequence::new(94));
        // Remote copies exhaust their retries and are dropped; the home
        // copy escalates to guaranteed delivery, so every job completes.
        assert!(result.dropped_copies > 0);
        assert!(result.lost_submits > 0);
        assert!(!result.records.is_empty());
        for r in &result.records {
            assert_eq!(r.home, r.ran_on, "only home copies can be delivered");
        }
    }

    #[test]
    fn outage_kills_work_and_every_job_still_completes() {
        let mut cfg = small_config(2, Scheme::None);
        // Make the outage bite: down long enough to catch running jobs.
        cfg.faults.outages = vec![Outage {
            cluster: 0,
            down: SimTime::from_secs(600.0),
            recover: SimTime::from_secs(1200.0),
        }];
        let result = GridSim::execute(cfg, SeedSequence::new(95));
        assert!(result.outage_kills > 0, "a mid-run outage must kill work");
        assert!(result.wasted_node_secs > 0.0);
        assert!(!result.records.is_empty());
        for r in &result.records {
            assert_eq!(r.completion, r.start + r.runtime);
            assert!(r.start >= r.arrival);
        }
        // Determinism holds with outages too.
        let mut cfg2 = small_config(2, Scheme::None);
        cfg2.faults.outages = vec![Outage {
            cluster: 0,
            down: SimTime::from_secs(600.0),
            recover: SimTime::from_secs(1200.0),
        }];
        let again = GridSim::execute(cfg2, SeedSequence::new(95));
        assert_eq!(result.records, again.records);
        assert_eq!(result.outage_kills, again.outage_kills);
    }

    #[test]
    fn delayed_cancels_still_complete_every_job() {
        let mut cfg = small_config(4, Scheme::All);
        cfg.faults.cancel_delay = Delay::Fixed(Duration::from_secs(120.0));
        cfg.faults.submit_delay = Delay::Fixed(Duration::from_secs(1.0));
        let result = GridSim::execute(cfg, SeedSequence::new(96));
        assert!(!result.records.is_empty());
        for r in &result.records {
            assert_eq!(r.completion, r.start + r.runtime);
        }
        // A 2-minute cancellation lag on an ALL scheme must leak some
        // starts that the zero-latency callback would have prevented.
        assert!(result.zombie_starts > 0 || result.wasted_node_secs > 0.0);
    }

    #[test]
    fn waste_grows_with_cancellation_loss() {
        let run = |loss: f64| {
            let mut cfg = small_config(3, Scheme::All);
            cfg.faults.cancel_loss = loss;
            cfg.faults.cancel_delay = Delay::Fixed(Duration::from_secs(5.0));
            GridSim::execute(cfg, SeedSequence::new(97)).wasted_node_secs
        };
        let w0 = run(0.0);
        let w5 = run(0.5);
        let w10 = run(1.0);
        assert!(w0 <= w5 + 1e-9, "waste({w0}) at loss 0 vs {w5} at 0.5");
        assert!(w5 <= w10 + 1e-9, "waste({w5}) at loss 0.5 vs {w10} at 1.0");
        assert!(w10 > 0.0);
    }
}
