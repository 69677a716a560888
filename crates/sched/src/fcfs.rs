//! First-Come-First-Serve: jobs start strictly in submission order.
//!
//! FCFS suffers head-of-line blocking — a wide job at the head leaves
//! nodes idle that later narrow jobs could have used. The paper uses it as
//! the baseline comparator in Table 1.

use std::collections::VecDeque;

use rbr_simcore::SimTime;

use crate::core::ClusterCore;
use crate::observe::{ObserverSlot, StartKind};
use crate::scheduler::{fifo_predicted_start, Scheduler};
use crate::types::{Request, RequestId};

/// FCFS scheduler.
#[derive(Clone, Debug)]
pub struct FcfsScheduler {
    core: ClusterCore,
    queue: VecDeque<Request>,
    observer: ObserverSlot,
}

impl FcfsScheduler {
    /// An idle FCFS cluster of `nodes` nodes.
    pub fn new(nodes: u32) -> Self {
        FcfsScheduler {
            core: ClusterCore::new(nodes),
            queue: VecDeque::new(),
            observer: ObserverSlot::empty(),
        }
    }

    /// Starts jobs from the head of the queue while they fit.
    fn try_schedule(&mut self, now: SimTime, starts: &mut Vec<RequestId>) {
        while let Some(head) = self.queue.front() {
            if !self.core.fits_now(head) {
                return;
            }
            let req = self.queue.pop_front().expect("front checked above");
            self.core.start(now, req);
            self.observer
                .with(|s, o| o.on_start(s, now, &req, StartKind::FifoHead));
            starts.push(req.id);
        }
    }

    fn remove_queued(&mut self, id: RequestId) -> bool {
        if let Some(pos) = self.queue.iter().position(|r| r.id == id) {
            self.queue.remove(pos);
            true
        } else {
            false
        }
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn total_nodes(&self) -> u32 {
        self.core.total()
    }

    fn free_nodes(&self) -> u32 {
        self.core.free()
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn running_len(&self) -> usize {
        self.core.running_len()
    }

    fn submit(&mut self, now: SimTime, req: Request, starts: &mut Vec<RequestId>) {
        assert!(
            req.nodes <= self.core.total(),
            "request {} cannot ever run: {} nodes > machine size {}",
            req.id,
            req.nodes,
            self.core.total()
        );
        self.observer.with(|s, o| o.on_submit(s, now, 0, &req));
        self.queue.push_back(req);
        self.try_schedule(now, starts);
    }

    fn cancel(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) -> bool {
        let removed = self.remove_queued(id);
        if removed {
            self.observer.with(|s, o| o.on_cancel(s, now, id));
            // Removing the head may unblock successors.
            self.try_schedule(now, starts);
        }
        removed
    }

    fn complete(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) {
        let rec = self.core.remove(id);
        self.observer
            .with(|s, o| o.on_finish(s, now, id, rec.request.nodes));
        self.try_schedule(now, starts);
    }

    fn predicted_start(&self, now: SimTime, id: RequestId) -> Option<SimTime> {
        if self.core.is_running(id) {
            return Some(now);
        }
        fifo_predicted_start(&self.core, self.queue.iter(), now, id)
    }

    fn attach_observer(&mut self, slot: ObserverSlot) {
        slot.with(|s, o| o.on_attach(s, self.core.total(), self.name()));
        self.observer = slot;
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
    fn starts_in_order_when_fitting() {
        let mut s = FcfsScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(3, 4, 100.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1), RequestId(2)]);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.free_nodes(), 2);
    }

    #[test]
    fn head_of_line_blocking() {
        let mut s = FcfsScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 8, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 10.0), &mut starts); // blocked head
        s.submit(t(0.0), req(3, 1, 10.0), &mut starts); // would fit, FCFS refuses
        assert_eq!(starts, vec![RequestId(1)]);
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.free_nodes(), 2); // 2 idle nodes wasted

        // Head's blocker completes → both start.
        starts.clear();
        s.complete(t(100.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2), RequestId(3)]);
    }

    #[test]
    fn cancel_of_blocked_head_unblocks_queue() {
        let mut s = FcfsScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(3, 2, 10.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1)]);
        starts.clear();
        assert!(s.cancel(t(1.0), RequestId(2), &mut starts));
        // Request 3 still blocked behind nothing-that-fits? No: after
        // cancel the head is request 3 and 0 nodes free... request 1 holds
        // all 10 nodes, so nothing starts.
        assert!(starts.is_empty());
        starts.clear();
        s.complete(t(50.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(3)]);
    }

    #[test]
    fn cancel_unknown_returns_false() {
        let mut s = FcfsScheduler::new(4);
        let mut starts = Vec::new();
        assert!(!s.cancel(t(0.0), RequestId(77), &mut starts));
    }

    #[test]
    fn revoked_start_frees_nodes_and_reschedules() {
        let mut s = FcfsScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 100.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1)]);
        starts.clear();
        s.complete(t(0.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
        assert!(s.core.is_running(RequestId(2)));
        assert!(!s.core.is_running(RequestId(1)));
    }

    #[test]
    fn prediction_follows_fifo_order() {
        let mut s = FcfsScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 50.0), &mut starts);
        s.submit(t(0.0), req(3, 4, 50.0), &mut starts);
        assert_eq!(s.predicted_start(t(0.0), RequestId(1)), Some(t(0.0)));
        assert_eq!(s.predicted_start(t(0.0), RequestId(2)), Some(t(100.0)));
        assert_eq!(s.predicted_start(t(0.0), RequestId(3)), Some(t(150.0)));
        assert_eq!(s.predicted_start(t(0.0), RequestId(99)), None);
    }

    #[test]
    #[should_panic(expected = "cannot ever run")]
    fn oversized_request_rejected() {
        let mut s = FcfsScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 5, 10.0), &mut starts);
    }
}
