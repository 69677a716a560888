//! Option (iii) of Section 2: multiple batch queues on a single resource.
//!
//! "Different queues typically correspond to higher service unit costs.
//! The question is then whether one should wait possibly a long time for
//! a cheaper resource allocation." This module provides the substrate: a
//! scheduler managing several priority-ordered queues over one shared
//! node pool. Scheduling follows the EASY discipline applied to the
//! priority-then-FIFO order of all queued requests: the globally
//! highest-ranked request holds the backfilling reservation.
//!
//! A user exercising option (iii) submits one copy per queue and cancels
//! the losers when one starts — driven by `rbr-grid`'s multi-queue
//! experiment.

use std::collections::VecDeque;

use rbr_simcore::SimTime;

use crate::core::ClusterCore;
use crate::observe::{ObserverSlot, StartKind};
use crate::types::{Request, RequestId};

/// Identifier of a queue within the scheduler; lower values are served
/// first ("premium" queues).
pub type QueueId = usize;

/// A multi-queue batch scheduler over one node pool.
#[derive(Clone, Debug)]
pub struct MultiQueueScheduler {
    core: ClusterCore,
    queues: Vec<VecDeque<Request>>,
    backfills: u64,
    observer: ObserverSlot,
}

impl MultiQueueScheduler {
    /// An idle cluster of `nodes` nodes with `n_queues` priority-ordered
    /// queues (queue 0 is served first).
    ///
    /// # Panics
    /// Panics unless there is at least one queue.
    pub fn new(nodes: u32, n_queues: usize) -> Self {
        assert!(n_queues >= 1, "need at least one queue");
        MultiQueueScheduler {
            core: ClusterCore::new(nodes),
            queues: vec![VecDeque::new(); n_queues],
            backfills: 0,
            observer: ObserverSlot::empty(),
        }
    }

    /// Attaches an observer slot delivering this scheduler's hook events
    /// (see [`crate::observe`]).
    pub fn attach_observer(&mut self, slot: ObserverSlot) {
        slot.with(|s, o| o.on_attach(s, self.core.total(), "MULTI-QUEUE"));
        self.observer = slot;
    }

    /// Number of requests started out of priority order (phase-2 starts).
    pub fn backfills(&self) -> u64 {
        self.backfills
    }

    /// Machine size.
    pub fn total_nodes(&self) -> u32 {
        self.core.total()
    }

    /// Currently idle nodes.
    pub fn free_nodes(&self) -> u32 {
        self.core.free()
    }

    /// Number of queues.
    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    /// Length of one queue.
    ///
    /// # Panics
    /// Panics if the queue does not exist.
    pub fn queue_len(&self, queue: QueueId) -> usize {
        self.queues[queue].len()
    }

    /// Total queued requests across queues.
    pub fn total_queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Submits `req` to `queue`.
    ///
    /// # Panics
    /// Panics if the queue does not exist or the request cannot ever fit
    /// the machine.
    pub fn submit(
        &mut self,
        now: SimTime,
        queue: QueueId,
        req: Request,
        starts: &mut Vec<RequestId>,
    ) {
        assert!(queue < self.queues.len(), "queue {queue} does not exist");
        assert!(
            req.nodes <= self.core.total(),
            "request {} cannot ever run: {} nodes > machine size {}",
            req.id,
            req.nodes,
            self.core.total()
        );
        self.observer.with(|s, o| o.on_submit(s, now, queue, &req));
        self.queues[queue].push_back(req);
        self.try_schedule(now, starts);
    }

    /// Cancels a queued request (searched across all queues). Returns
    /// whether it was found and removed.
    pub fn cancel(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) -> bool {
        for q in &mut self.queues {
            if let Some(pos) = q.iter().position(|r| r.id == id) {
                q.remove(pos);
                self.observer.with(|s, o| o.on_cancel(s, now, id));
                self.try_schedule(now, starts);
                return true;
            }
        }
        false
    }

    /// Reports the completion of a running request, or revokes a
    /// same-instant start (the job began elsewhere).
    pub fn complete(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) {
        let rec = self.core.remove(id);
        self.observer
            .with(|s, o| o.on_finish(s, now, id, rec.request.nodes));
        self.try_schedule(now, starts);
    }

    /// The EASY pass over the priority-then-FIFO global order: start the
    /// ranked head while it fits, then backfill under its shadow.
    fn try_schedule(&mut self, now: SimTime, starts: &mut Vec<RequestId>) {
        // Phase 1: strict priority-order starts.
        loop {
            let Some((queue, _)) = self.ranked_head() else {
                return;
            };
            let head = *self.queues[queue].front().expect("head exists");
            if !self.core.fits_now(&head) {
                break;
            }
            self.queues[queue].pop_front();
            self.core.start(now, head);
            self.observer
                .with(|s, o| o.on_start(s, now, &head, StartKind::FifoHead));
            starts.push(head.id);
        }
        if self.core.free() == 0 {
            return;
        }

        // Phase 2: backfill behind the blocked global head.
        let (head_queue, _) = self.ranked_head().expect("head checked above");
        let head = *self.queues[head_queue].front().expect("head exists");
        let (shadow, mut extra) = self.core.shadow(&head);
        self.observer
            .with(|s, o| o.on_shadow(s, now, &head, shadow, extra));
        for queue in 0..self.queues.len() {
            let mut i = if queue == head_queue { 1 } else { 0 };
            while i < self.queues[queue].len() {
                if self.core.free() == 0 {
                    return;
                }
                let cand = self.queues[queue][i];
                if cand.nodes <= self.core.free() {
                    let ends_by_shadow = cand.end_if_started(now) <= shadow;
                    if ends_by_shadow || cand.nodes <= extra {
                        if !ends_by_shadow {
                            extra -= cand.nodes;
                        }
                        self.queues[queue].remove(i).expect("index in bounds");
                        self.core.start(now, cand);
                        self.backfills += 1;
                        self.observer
                            .with(|s, o| o.on_start(s, now, &cand, StartKind::Backfill));
                        starts.push(cand.id);
                        continue;
                    }
                }
                i += 1;
            }
        }
    }

    /// The queue holding the globally highest-ranked request, if any.
    fn ranked_head(&self) -> Option<(QueueId, RequestId)> {
        self.queues
            .iter()
            .enumerate()
            .find_map(|(q, queue)| queue.front().map(|r| (q, r.id)))
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
    fn premium_queue_is_served_first() {
        let mut s = MultiQueueScheduler::new(10, 2);
        let mut starts = Vec::new();
        s.submit(t(0.0), 0, req(1, 10, 100.0), &mut starts); // runs
        s.submit(t(0.0), 1, req(2, 10, 10.0), &mut starts); // standard, first in line by time
        s.submit(t(0.0), 0, req(3, 10, 10.0), &mut starts); // premium, arrived later
        assert_eq!(starts, vec![RequestId(1)]);
        starts.clear();
        s.complete(t(100.0), RequestId(1), &mut starts);
        // The premium request jumps the standard one despite arriving later.
        assert_eq!(starts, vec![RequestId(3)]);
        starts.clear();
        s.complete(t(110.0), RequestId(3), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
    }

    #[test]
    fn backfill_works_across_queues() {
        let mut s = MultiQueueScheduler::new(10, 2);
        let mut starts = Vec::new();
        s.submit(t(0.0), 0, req(1, 8, 100.0), &mut starts); // runs
        s.submit(t(0.0), 0, req(2, 8, 50.0), &mut starts); // premium head, blocked
                                                           // A standard short narrow job backfills under the premium head's
                                                           // shadow.
        s.submit(t(0.0), 1, req(3, 2, 50.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1), RequestId(3)]);
    }

    #[test]
    fn cross_queue_copies_with_cancellation() {
        // Option (iii): the same job in both queues; when the premium
        // copy starts, the standard copy is cancelled.
        let mut s = MultiQueueScheduler::new(4, 2);
        let mut starts = Vec::new();
        s.submit(t(0.0), 0, req(1, 4, 100.0), &mut starts); // occupies machine
        s.submit(t(0.0), 0, req(10, 4, 50.0), &mut starts); // premium copy
        s.submit(t(0.0), 1, req(11, 4, 50.0), &mut starts); // standard copy
        starts.clear();
        s.complete(t(100.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(10)], "premium copy wins");
        assert!(s.cancel(t(100.0), RequestId(11), &mut starts));
        assert_eq!(s.total_queued(), 0);
    }

    #[test]
    fn single_queue_behaves_like_easy() {
        let mut s = MultiQueueScheduler::new(10, 1);
        let mut starts = Vec::new();
        s.submit(t(0.0), 0, req(1, 8, 100.0), &mut starts);
        s.submit(t(0.0), 0, req(2, 8, 50.0), &mut starts);
        s.submit(t(0.0), 0, req(3, 2, 100.0), &mut starts); // extra-nodes backfill
        assert_eq!(starts, vec![RequestId(1), RequestId(3)]);
    }

    #[test]
    fn free_node_accounting_across_queues() {
        let mut s = MultiQueueScheduler::new(16, 3);
        let mut starts = Vec::new();
        for (i, q) in [(1u64, 0usize), (2, 1), (3, 2), (4, 1)] {
            s.submit(t(0.0), q, req(i, 4, 60.0), &mut starts);
        }
        assert_eq!(starts.len(), 4);
        assert_eq!(s.free_nodes(), 0);
        starts.clear();
        s.complete(t(60.0), RequestId(1), &mut starts);
        assert_eq!(s.free_nodes(), 4);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn unknown_queue_rejected() {
        let mut s = MultiQueueScheduler::new(4, 2);
        let mut starts = Vec::new();
        s.submit(t(0.0), 5, req(1, 1, 10.0), &mut starts);
    }
}
