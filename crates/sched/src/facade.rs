//! One object-safe interface over "the places a request can be sent".
//!
//! The grid's submission protocols differ in *what* a redundant copy is
//! (a remote cluster, a priority queue, a node-count shape) but not in
//! the conversation they hold with the batch layer: submit, cancel,
//! complete, observe queue lengths. [`SchedulerSet`] captures that
//! conversation once, addressed by a dense **target** index, so one
//! simulation driver can pump any protocol:
//!
//! * [`ClusterSet`] — one independent [`Scheduler`] per target (the
//!   multi-cluster platform; a single-cluster run is the 1-target case);
//! * [`MultiQueueSet`] — one [`MultiQueueScheduler`] whose priority
//!   queues are the targets, all sharing a single node pool.
//!
//! A start reported by any call is attributed to the request, not the
//! target the call addressed: with a shared node pool, submitting to one
//! queue can start requests from another (cross-queue backfill), so
//! callers must map started ids back to their own bookkeeping.

use rbr_simcore::{Duration, SimTime};

use crate::multi_queue::MultiQueueScheduler;
use crate::observe::{ObserverSlot, SharedObserver};
use crate::scheduler::{Algorithm, Scheduler};
use crate::types::{Request, RequestId};

/// An object-safe set of submission targets over one or more schedulers.
///
/// Targets are dense indices `0..n_targets()`. Every mutating call
/// appends the ids of requests that start executing *now* to `starts`,
/// in start order — exactly the [`Scheduler`] contract, lifted over a
/// set.
pub trait SchedulerSet {
    /// Number of submission targets.
    fn n_targets(&self) -> usize;

    /// Submits `req` to `target`.
    fn submit(&mut self, now: SimTime, target: usize, req: Request, starts: &mut Vec<RequestId>);

    /// Cancels a queued request at `target`. Returns `true` if it was
    /// queued and has been removed (the redundant-request protocol makes
    /// unknown/raced ids normal, so `false` is not an error).
    fn cancel(
        &mut self,
        now: SimTime,
        target: usize,
        id: RequestId,
        starts: &mut Vec<RequestId>,
    ) -> bool;

    /// Reports that a running request at `target` finished, or revokes
    /// a start the driver refused to commit (the job began elsewhere at
    /// this very instant).
    fn complete(&mut self, now: SimTime, target: usize, id: RequestId, starts: &mut Vec<RequestId>);

    /// Number of queued requests at `target`.
    fn queue_len(&self, target: usize) -> usize;

    /// Machine size reachable from `target`, in nodes.
    fn total_nodes(&self, target: usize) -> u32;

    /// The scheduler's own queue-wait forecast for a request at `target`
    /// (Section 5's predictor), or `None` when the underlying scheduler
    /// does not support prediction.
    fn predicted_start(&self, now: SimTime, target: usize, id: RequestId) -> Option<SimTime>;

    /// Out-of-order starts summed over the whole set.
    fn backfills(&self) -> u64;

    /// Destroys all scheduler state behind `target` (a cluster outage):
    /// queued requests evaporate, running allocations are forgotten. For
    /// shared-pool sets this resets every target sharing the pool.
    fn restart(&mut self, target: usize);

    /// Sizes of the *distinct* node pools behind the set, for capacity
    /// accounting. Independent clusters contribute one entry each; a
    /// multi-queue scheduler contributes a single shared entry.
    fn pool_nodes(&self) -> Vec<u32>;

    /// Attaches one observer to every scheduler of the set, tagged with
    /// its target index, and keeps it attached across [`Self::restart`]s
    /// (a restart fires a fresh `on_attach` for the rebuilt scheduler).
    /// The default implementation discards the observer.
    fn attach_observer(&mut self, _obs: SharedObserver) {}
}

/// One independent scheduler per target: the multi-cluster platform (and
/// its 1-cluster special case).
pub struct ClusterSet {
    scheds: Vec<Box<dyn Scheduler>>,
    nodes: Vec<u32>,
    algorithm: Algorithm,
    cbf_cycle: Duration,
    observer: Option<SharedObserver>,
}

impl ClusterSet {
    /// Builds `algorithm` on every cluster in `nodes`.
    pub fn new(algorithm: Algorithm, cbf_cycle: Duration, nodes: &[u32]) -> Self {
        ClusterSet {
            scheds: nodes
                .iter()
                .map(|&n| algorithm.build_with_cycle(n, cbf_cycle))
                .collect(),
            nodes: nodes.to_vec(),
            algorithm,
            cbf_cycle,
            observer: None,
        }
    }
}

impl SchedulerSet for ClusterSet {
    fn n_targets(&self) -> usize {
        self.scheds.len()
    }

    fn submit(&mut self, now: SimTime, target: usize, req: Request, starts: &mut Vec<RequestId>) {
        self.scheds[target].submit(now, req, starts);
    }

    fn cancel(
        &mut self,
        now: SimTime,
        target: usize,
        id: RequestId,
        starts: &mut Vec<RequestId>,
    ) -> bool {
        self.scheds[target].cancel(now, id, starts)
    }

    fn complete(
        &mut self,
        now: SimTime,
        target: usize,
        id: RequestId,
        starts: &mut Vec<RequestId>,
    ) {
        self.scheds[target].complete(now, id, starts);
    }

    fn queue_len(&self, target: usize) -> usize {
        self.scheds[target].queue_len()
    }

    fn total_nodes(&self, target: usize) -> u32 {
        self.scheds[target].total_nodes()
    }

    fn predicted_start(&self, now: SimTime, target: usize, id: RequestId) -> Option<SimTime> {
        self.scheds[target].predicted_start(now, id)
    }

    fn backfills(&self) -> u64 {
        self.scheds.iter().map(|s| s.backfills()).sum()
    }

    fn restart(&mut self, target: usize) {
        self.scheds[target] = self
            .algorithm
            .build_with_cycle(self.nodes[target], self.cbf_cycle);
        if let Some(obs) = &self.observer {
            // Re-attach so the observer learns the target was wiped.
            self.scheds[target].attach_observer(ObserverSlot::new(target, obs.clone()));
        }
    }

    fn pool_nodes(&self) -> Vec<u32> {
        self.nodes.clone()
    }

    fn attach_observer(&mut self, obs: SharedObserver) {
        for (i, sched) in self.scheds.iter_mut().enumerate() {
            sched.attach_observer(ObserverSlot::new(i, obs.clone()));
        }
        self.observer = Some(obs);
    }
}

/// One [`MultiQueueScheduler`] whose priority queues are the targets,
/// sharing a single node pool.
pub struct MultiQueueSet {
    sched: MultiQueueScheduler,
    nodes: u32,
    n_queues: usize,
    observer: Option<SharedObserver>,
}

impl MultiQueueSet {
    /// A shared pool of `nodes` nodes behind `n_queues` priority-ordered
    /// queues (queue 0 = premium, served first).
    pub fn new(nodes: u32, n_queues: usize) -> Self {
        MultiQueueSet {
            sched: MultiQueueScheduler::new(nodes, n_queues),
            nodes,
            n_queues,
            observer: None,
        }
    }
}

impl SchedulerSet for MultiQueueSet {
    fn n_targets(&self) -> usize {
        self.n_queues
    }

    fn submit(&mut self, now: SimTime, target: usize, req: Request, starts: &mut Vec<RequestId>) {
        self.sched.submit(now, target, req, starts);
    }

    fn cancel(
        &mut self,
        now: SimTime,
        _target: usize,
        id: RequestId,
        starts: &mut Vec<RequestId>,
    ) -> bool {
        // The scheduler searches every queue; ids are globally unique.
        self.sched.cancel(now, id, starts)
    }

    fn complete(
        &mut self,
        now: SimTime,
        _target: usize,
        id: RequestId,
        starts: &mut Vec<RequestId>,
    ) {
        self.sched.complete(now, id, starts);
    }

    fn queue_len(&self, target: usize) -> usize {
        self.sched.queue_len(target)
    }

    fn total_nodes(&self, _target: usize) -> u32 {
        self.sched.total_nodes()
    }

    fn predicted_start(&self, _now: SimTime, _target: usize, _id: RequestId) -> Option<SimTime> {
        None
    }

    fn backfills(&self) -> u64 {
        self.sched.backfills()
    }

    fn restart(&mut self, _target: usize) {
        // The queues share one pool and one scheduler: an outage takes
        // down all of them.
        self.sched = MultiQueueScheduler::new(self.nodes, self.n_queues);
        if let Some(obs) = &self.observer {
            self.sched
                .attach_observer(ObserverSlot::new(0, obs.clone()));
        }
    }

    fn pool_nodes(&self) -> Vec<u32> {
        vec![self.nodes]
    }

    fn attach_observer(&mut self, obs: SharedObserver) {
        // One shared-pool scheduler: all queues report as scheduler 0.
        self.sched
            .attach_observer(ObserverSlot::new(0, obs.clone()));
        self.observer = Some(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_simcore::Duration;

    fn req(id: u64, nodes: u32, est: f64) -> Request {
        Request::new(
            RequestId(id),
            nodes,
            Duration::from_secs(est),
            SimTime::ZERO,
        )
    }
    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn cluster_set_routes_by_target() {
        let mut set = ClusterSet::new(Algorithm::Easy, Duration::ZERO, &[4, 8]);
        assert_eq!(set.n_targets(), 2);
        assert_eq!(set.total_nodes(0), 4);
        assert_eq!(set.total_nodes(1), 8);
        assert_eq!(set.pool_nodes(), vec![4, 8]);
        let mut starts = Vec::new();
        set.submit(t(0.0), 0, req(1, 4, 10.0), &mut starts);
        set.submit(t(0.0), 1, req(2, 8, 10.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1), RequestId(2)]);
        assert_eq!(set.queue_len(0), 0);
    }

    #[test]
    fn cluster_set_restart_wipes_one_target_only() {
        let mut set = ClusterSet::new(Algorithm::Easy, Duration::ZERO, &[4, 4]);
        let mut starts = Vec::new();
        set.submit(t(0.0), 0, req(1, 4, 10.0), &mut starts);
        set.submit(t(0.0), 0, req(2, 4, 10.0), &mut starts); // queued behind 1
        set.submit(t(0.0), 1, req(3, 4, 10.0), &mut starts);
        assert_eq!(set.queue_len(0), 1);
        set.restart(0);
        assert_eq!(set.queue_len(0), 0, "outage evaporates the queue");
        // Target 1 is untouched: its request is still running.
        starts.clear();
        set.complete(t(10.0), 1, RequestId(3), &mut starts);
    }

    #[test]
    fn multi_queue_set_shares_one_pool() {
        let mut set = MultiQueueSet::new(4, 2);
        assert_eq!(set.n_targets(), 2);
        assert_eq!(set.pool_nodes(), vec![4], "queues share a single pool");
        let mut starts = Vec::new();
        set.submit(t(0.0), 1, req(1, 4, 10.0), &mut starts);
        set.submit(t(0.0), 0, req(2, 4, 10.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1)]);
        assert_eq!(set.queue_len(0), 1);
        // Completing via either target drains the premium queue.
        starts.clear();
        set.complete(t(10.0), 1, RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
    }

    #[test]
    fn multi_queue_cancel_searches_all_queues() {
        let mut set = MultiQueueSet::new(2, 2);
        let mut starts = Vec::new();
        set.submit(t(0.0), 0, req(1, 2, 10.0), &mut starts);
        set.submit(t(0.0), 1, req(2, 2, 10.0), &mut starts);
        // Target hint is wrong on purpose: cancel still finds the id.
        assert!(set.cancel(t(0.0), 0, RequestId(2), &mut starts));
        assert!(!set.cancel(t(0.0), 0, RequestId(2), &mut starts));
    }
}
