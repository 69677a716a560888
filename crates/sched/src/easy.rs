//! EASY aggressive backfilling (Lifka, JSSPP 1995).
//!
//! The head of the queue holds the only reservation: its start is bounded
//! by the *shadow time* computed from the requested ends of running jobs.
//! Any other queued job may jump ahead ("backfill") if it fits in the
//! currently free nodes and either (a) finishes by the shadow time, or
//! (b) only uses nodes that will still be spare at the shadow time.
//!
//! Backfilling opportunities appear whenever a request is submitted,
//! canceled, or a job finishes early — the three churn sources redundant
//! requests amplify, which is exactly why the paper studies them.
//!
//! Each pass resumes the sweep where the previous one stopped when
//! nothing since can have made an earlier refusal admissible (see
//! `Swept`), so a deep queue is not rescanned on every event.

use std::collections::VecDeque;

use rbr_simcore::{Duration, SimTime};

use crate::core::ClusterCore;
use crate::observe::{ObserverSlot, StartKind};
use crate::scheduler::{fifo_predicted_start, Scheduler};
use crate::types::{Request, RequestId};

/// EASY backfilling scheduler.
#[derive(Clone, Debug)]
pub struct EasyScheduler {
    core: ClusterCore,
    queue: VecDeque<Request>,
    backfills: u64,
    observer: ObserverSlot,
    /// What the last backfilling sweep proved; kept across early returns.
    swept: Option<Swept>,
}

/// The record a backfilling sweep leaves: every candidate before `len`
/// was refused, either for width (`nodes >= wide`) or for outliving the
/// shadow with `nodes > extra`. A later pass behind the same head may
/// start at `len` if `budget` and `extra` have not grown and `free` is
/// still below `wide`: each of those refusals then still holds, and
/// within a pass `free` and `extra` only fall. Request ids are never
/// reused, so the same head id means no phase-1 start and no cancel of
/// the head happened in between; cancels behind the head shift `len`.
#[derive(Clone, Copy, Debug)]
struct Swept {
    /// The blocked head the sweep ran behind.
    head: RequestId,
    /// `shadow − now`; `None` when the shadow had passed.
    budget: Option<Duration>,
    /// Spare nodes left at the end of the sweep.
    extra: u32,
    /// The narrowest candidate refused because `nodes > free`
    /// (`u32::MAX` if none was).
    wide: u32,
    /// The queue index where the sweep stopped.
    len: usize,
}

impl EasyScheduler {
    /// An idle EASY cluster of `nodes` nodes.
    pub fn new(nodes: u32) -> Self {
        EasyScheduler {
            core: ClusterCore::new(nodes),
            queue: VecDeque::new(),
            backfills: 0,
            observer: ObserverSlot::empty(),
            swept: None,
        }
    }

    /// One scheduling pass: start from the head while it fits, then a
    /// single backfilling sweep protected by the head's shadow, resumed
    /// from the last sweep's `Swept` record when that is sound.
    fn try_schedule(&mut self, now: SimTime, starts: &mut Vec<RequestId>) {
        // Phase 1: strict FIFO starts.
        while let Some(head) = self.queue.front() {
            if !self.core.fits_now(head) {
                break;
            }
            let req = self.queue.pop_front().expect("front checked above");
            self.core.start(now, req);
            self.observer
                .with(|s, o| o.on_start(s, now, &req, StartKind::FifoHead));
            starts.push(req.id);
        }
        if self.queue.is_empty() || self.core.free() == 0 {
            return;
        }

        // Phase 2: backfill behind the (blocked) head.
        let head = *self.queue.front().expect("queue checked non-empty");
        let (shadow, mut extra) = self.core.shadow(&head);
        self.observer
            .with(|s, o| o.on_shadow(s, now, &head, shadow, extra));
        // A candidate ends by the shadow iff its estimate fits in the
        // budget; once the shadow has passed, none does.
        let budget = (shadow >= now).then(|| shadow.since(now));
        let ends_by_shadow = |c: &Request| budget.is_some_and(|b| c.estimate <= b);
        let mut free = self.core.free();
        let resume = self.swept.filter(|w| {
            w.head == head.id && budget <= w.budget && extra <= w.extra && free < w.wide
        });
        let (mut i, mut wide) = resume.map_or((1, u32::MAX), |w| (w.len, w.wide));
        while free > 0 {
            let found = self.queue.range(i..).position(|c| {
                if c.nodes > free {
                    wide = wide.min(c.nodes);
                    return false;
                }
                ends_by_shadow(c) || c.nodes <= extra
            });
            let Some(k) = found else {
                i = self.queue.len();
                break;
            };
            i += k;
            // Removing the candidate slides its successor into slot `i`.
            let cand = self.queue.remove(i).expect("index in bounds");
            if !ends_by_shadow(&cand) {
                // The job outlives the shadow: it must fit in the nodes
                // the head will not need.
                extra -= cand.nodes;
            }
            self.core.start(now, cand);
            free -= cand.nodes;
            self.backfills += 1;
            self.observer
                .with(|s, o| o.on_start(s, now, &cand, StartKind::Backfill));
            starts.push(cand.id);
        }
        self.swept = Some(Swept {
            head: head.id,
            budget,
            extra,
            wide,
            len: i,
        });
    }

    fn remove_queued(&mut self, id: RequestId) -> bool {
        let Some(pos) = self.queue.iter().position(|r| r.id == id) else {
            return false;
        };
        self.queue.remove(pos);
        if let Some(w) = self.swept.as_mut().filter(|w| pos < w.len) {
            w.len -= 1;
        }
        true
    }
}

impl Scheduler for EasyScheduler {
    fn name(&self) -> &'static str {
        "EASY"
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

    fn backfills(&self) -> u64 {
        self.backfills
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

    /// The canonical EASY scenario: a short narrow job jumps a blocked
    /// wide head because it finishes before the shadow time.
    #[test]
    fn backfills_short_job_that_ends_by_shadow() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 8, 100.0), &mut starts); // runs, ends 100
        s.submit(t(0.0), req(2, 8, 50.0), &mut starts); // blocked head, shadow 100
        s.submit(t(0.0), req(3, 2, 100.0), &mut starts); // 2 ≤ extra (2): backfills
        assert_eq!(starts, vec![RequestId(1), RequestId(3)]);
        assert_eq!(s.free_nodes(), 0);
    }

    #[test]
    fn does_not_backfill_job_that_would_delay_head() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 8, 100.0), &mut starts); // ends 100
        s.submit(t(0.0), req(2, 4, 50.0), &mut starts); // head: shadow 100, extra 6
                                                        // Candidate: fits now (2 free)? No — only 2 free, needs 2. Ends at
                                                        // 200 > shadow, but nodes 2 ≤ extra 6 → may backfill.
        s.submit(t(0.0), req(3, 2, 200.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1), RequestId(3)]);

        // Now 0 free; a 1-node job cannot start whatever its length.
        starts.clear();
        s.submit(t(0.0), req(4, 1, 1.0), &mut starts);
        assert!(starts.is_empty());
    }

    #[test]
    fn extra_nodes_budget_is_consumed() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 6, 100.0), &mut starts); // ends 100, 4 free
        s.submit(t(0.0), req(2, 8, 100.0), &mut starts); // head blocked; shadow 100, extra 2
                                                         // Long candidate using 2 ≤ extra: allowed, consumes the budget.
        s.submit(t(0.0), req(3, 2, 500.0), &mut starts);
        // Second long candidate needing 2 > remaining extra 0: refused
        // even though 2 nodes are free.
        s.submit(t(0.0), req(4, 2, 500.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1), RequestId(3)]);
        assert_eq!(s.free_nodes(), 2);
        // But a short job ending by the shadow still backfills.
        s.submit(t(0.0), req(5, 2, 50.0), &mut starts);
        assert_eq!(starts.last(), Some(&RequestId(5)));
    }

    #[test]
    fn early_completion_triggers_backfill() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 1000.0), &mut starts); // hogs machine
        s.submit(t(0.0), req(2, 10, 1000.0), &mut starts); // waits
        s.submit(t(0.0), req(3, 1, 10.0), &mut starts); // waits
        assert_eq!(starts, vec![RequestId(1)]);
        starts.clear();
        // Job 1 finishes way before its request: everything reshuffles.
        s.complete(t(100.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
        // Queue still holds job 3 (no free nodes).
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn cancellation_triggers_backfill() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 8, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 8, 100.0), &mut starts); // head, blocked
        s.submit(t(0.0), req(3, 4, 500.0), &mut starts); // too big to backfill (extra 2)
        assert_eq!(starts, vec![RequestId(1)]);
        starts.clear();
        // Cancel the head: job 3 becomes head; 2 free < 4 → still waits...
        assert!(s.cancel(t(1.0), RequestId(2), &mut starts));
        assert!(starts.is_empty());
        // ...but when job 1 completes it starts.
        s.complete(t(60.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(3)]);
    }

    #[test]
    fn fifo_among_equal_jobs() {
        let mut s = EasyScheduler::new(4);
        let mut starts = Vec::new();
        for i in 1..=5 {
            s.submit(t(0.0), req(i, 4, 10.0), &mut starts);
        }
        assert_eq!(starts, vec![RequestId(1)]);
        for k in 2..=5u64 {
            starts.clear();
            s.complete(t(10.0 * (k - 1) as f64), RequestId(k - 1), &mut starts);
            assert_eq!(starts, vec![RequestId(k)]);
        }
    }

    #[test]
    fn backfill_preserves_head_reservation_end_to_end() {
        // Head must never start later than its shadow at decision time.
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts); // ends ≤ 100
        s.submit(t(0.0), req(2, 10, 100.0), &mut starts); // head, shadow = 100
        s.submit(t(0.0), req(3, 5, 100.0), &mut starts); // cannot fit now
        assert_eq!(starts, vec![RequestId(1)]);
        starts.clear();
        // Job 1 runs its full request; at t=100 the head starts — job 3
        // must not have sneaked ahead.
        s.complete(t(100.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
    }

    #[test]
    fn revoked_start_reschedules_immediately() {
        let mut s = EasyScheduler::new(8);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 8, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 8, 100.0), &mut starts);
        starts.clear();
        s.complete(t(0.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
    }

    /// `ClusterCore::shadow` stops at the first release that covers the
    /// head, so a backfill ending exactly at the shadow can raise the
    /// recomputed `extra`: the next pass must sweep from the front.
    #[test]
    fn resume_needs_extra_not_to_grow() {
        let mut s = EasyScheduler::new(11);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 1, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 1, 100.0), &mut starts);
        s.submit(t(0.0), req(3, 4, 100.0), &mut starts); // 5 free; all end at S = 100
        s.submit(t(0.0), req(4, 6, 100.0), &mut starts); // blocked head: extra 0
        s.submit(t(0.0), req(5, 1, 500.0), &mut starts); // outlives S, 1 > extra: refused
        s.submit(t(0.0), req(6, 4, 100.0), &mut starts); // ends at S: backfills
        assert_eq!(
            starts,
            vec![RequestId(1), RequestId(2), RequestId(3), RequestId(6)]
        );
        starts.clear();
        // Releases 1 + 1 + 4 now cover the head with 1 to spare: job 5,
        // refused before, takes the last free node ahead of job 7.
        s.submit(t(0.0), req(7, 1, 500.0), &mut starts);
        assert_eq!(starts, vec![RequestId(5)]);
    }

    /// A completion that lifts `free` to the narrowest width refused
    /// for want of nodes must send the next pass back to the front.
    #[test]
    fn resume_needs_free_below_the_narrowest_refused_width() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 1, 50.0), &mut starts);
        s.submit(t(0.0), req(2, 7, 100.0), &mut starts); // 2 free
        s.submit(t(0.0), req(3, 8, 100.0), &mut starts); // blocked head: shadow 100, extra 2
        s.submit(t(0.0), req(4, 3, 50.0), &mut starts); // ends by S, but 3 > 2 free
        assert_eq!(starts, vec![RequestId(1), RequestId(2)]);
        starts.clear();
        // Job 1 ends early: 3 free, with the shadow and extra unchanged.
        s.complete(t(10.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(4)]);
    }

    /// A cancel before the sweep's stopping point shifts the queue, so
    /// the resumed sweep must start one slot earlier.
    #[test]
    fn resume_after_a_cancel_before_the_stopping_point() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 2, 50.0), &mut starts);
        s.submit(t(0.0), req(2, 6, 100.0), &mut starts); // 2 free
        s.submit(t(0.0), req(3, 9, 100.0), &mut starts); // blocked head: shadow 100, extra 1
        s.submit(t(0.0), req(4, 2, 500.0), &mut starts); // outlives S, 2 > extra: refused
        s.submit(t(0.0), req(5, 2, 50.0), &mut starts); // ends by S: backfills, 0 free
        s.submit(t(0.0), req(6, 1, 10.0), &mut starts); // no free node: waits
        assert_eq!(starts, vec![RequestId(1), RequestId(2), RequestId(5)]);
        starts.clear();
        assert!(s.cancel(t(1.0), RequestId(4), &mut starts));
        // Job 1 ends early: 2 free, same shadow and extra, so the pass
        // resumes — at job 6, which the cancel moved into job 4's slot.
        s.complete(t(10.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(6)]);
    }

    /// A phase-1 start pops the head without touching the record's
    /// `len`, so a pass behind the new head must sweep from the front.
    #[test]
    fn resume_needs_the_same_head() {
        let mut s = EasyScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 6, 100.0), &mut starts); // 4 free
        s.submit(t(0.0), req(2, 5, 100.0), &mut starts); // blocked head: shadow 100, extra 5
        s.submit(t(0.0), req(3, 5, 100.0), &mut starts); // 5 > 4 free: refused
        s.submit(t(0.0), req(4, 4, 50.0), &mut starts); // ends by S: backfills, 0 free
        s.submit(t(0.0), req(5, 1, 10.0), &mut starts); // no free node: waits
        s.submit(t(0.0), req(6, 2, 10.0), &mut starts); // no free node: waits
        assert_eq!(starts, vec![RequestId(1), RequestId(4)]);
        starts.clear();
        // Job 1 ends early: job 2 starts, job 3 heads the queue with
        // shadow 50 and extra 0, and job 5 fits the one free node.
        s.complete(t(10.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2), RequestId(5)]);
    }

    #[test]
    fn predicted_start_accounts_for_queue() {
        let mut s = EasyScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 2, 30.0), &mut starts);
        assert_eq!(s.predicted_start(t(0.0), RequestId(2)), Some(t(100.0)));
    }
}
