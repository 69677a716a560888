//! Conservative Backfilling (Mu'alem & Feitelson, IEEE TPDS 2001).
//!
//! Every request receives a *reservation* — the earliest slot in the
//! availability profile that fits its node count for its full requested
//! time — the moment it is submitted. A job may therefore backfill only
//! if doing so delays no previously submitted job. When capacity frees up
//! early (early completion, cancellation, revoked start) the schedule is
//! *compressed*: the profile is rebuilt from the running set and every
//! queued request is re-reserved in submission order, which can only pull
//! work earlier in aggregate.
//!
//! Full compression costs `O(queue² )`, so like production schedulers
//! (Maui's `RMPOLLINTERVAL`) this implementation batches it into
//! **scheduling cycles**: between cycles, reservations that come due still
//! start exactly on time (always safe — capacity only ever exceeds the
//! plan), and compression runs when the configured interval has elapsed,
//! or immediately whenever the machine would otherwise sit idle. A cycle
//! of `Duration::ZERO` (the [`CbfScheduler::new`] default) gives textbook
//! compress-on-every-event semantics.
//!
//! The reservations double as the queue-waiting-time predictor evaluated
//! in Section 5 of the paper: `predicted_start − submit` is exactly the
//! forecast a CBF scheduler can hand a user at submission time.

use rbr_simcore::{Duration, SimTime};

use crate::core::ClusterCore;
use crate::observe::{ObserverSlot, StartKind};
use crate::profile::Profile;
use crate::scheduler::Scheduler;
use crate::types::{Request, RequestId};

/// Conservative Backfilling scheduler.
#[derive(Clone, Debug)]
pub struct CbfScheduler {
    core: ClusterCore,
    backfills: u64,
    /// Queued requests in submission order with their reserved starts.
    queue: Vec<(Request, SimTime)>,
    /// Future availability including every queued reservation, as of the
    /// last compression (stale but always conservative in between).
    profile: Profile,
    /// Scheduling-cycle length; ZERO compresses on every relevant event.
    cycle: Duration,
    last_compress: SimTime,
    /// A lower bound on the earliest reserved start in `queue`
    /// (`SimTime::MAX` bounds an empty queue). Compression and a queued
    /// submit set it; cancels and starts only raise the true minimum, so
    /// they leave it alone.
    next_due: SimTime,
    /// True when capacity was freed earlier than the profile assumed.
    dirty: bool,
    observer: ObserverSlot,
}

impl CbfScheduler {
    /// An idle CBF cluster of `nodes` nodes with textbook semantics
    /// (compression on every capacity-freeing event).
    pub fn new(nodes: u32) -> Self {
        Self::with_cycle(nodes, Duration::ZERO)
    }

    /// An idle CBF cluster whose schedule compression is batched into
    /// cycles of the given length (the production-scheduler behaviour;
    /// the grid experiments use 30 s).
    pub fn with_cycle(nodes: u32, cycle: Duration) -> Self {
        let core = ClusterCore::new(nodes);
        let profile = core.profile(SimTime::ZERO);
        CbfScheduler {
            core,
            backfills: 0,
            queue: Vec::new(),
            profile,
            cycle,
            last_compress: SimTime::ZERO,
            next_due: SimTime::MAX,
            dirty: false,
            observer: ObserverSlot::empty(),
        }
    }

    /// The configured scheduling-cycle length.
    pub fn cycle(&self) -> Duration {
        self.cycle
    }

    /// Starts every queued request whose reservation is due, in
    /// submission order. Always safe on a stale profile: actual capacity
    /// can only exceed the planned capacity the reservations were placed
    /// against — once every allocation due to end by `now` has ended. A
    /// due request whose nodes are held by a job ending at this very
    /// instant waits for that job's completion, whose pass starts it.
    fn start_due(&mut self, now: SimTime, starts: &mut Vec<RequestId>) {
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].1 <= now && self.core.fits_now(&self.queue[i].0) {
                let (req, _) = self.queue.remove(i);
                // Jumping ahead of any still-queued earlier submission is
                // a backfill in CBF's sense.
                if self.queue[..i].iter().any(|(r, _)| r.submit <= req.submit) {
                    self.backfills += 1;
                }
                self.core.start(now, req);
                self.observer
                    .with(|s, o| o.on_start(s, now, &req, StartKind::Reservation));
                starts.push(req.id);
            } else {
                i += 1;
            }
        }
    }

    /// Schedule compression: rebuild the profile from the running set and
    /// re-reserve every queued request in submission order, starting those
    /// whose reservation lands at `now` and whose nodes are free (the
    /// profile counts a job ending at `now` as ended already; its
    /// completion's pass starts what it holds back).
    ///
    /// Re-reserving in submission order is the textbook compression rule:
    /// freed capacity propagates to the oldest requests first, and no
    /// request is handed a later slot than a newer request could claim
    /// ahead of it.
    fn compress(&mut self, now: SimTime, starts: &mut Vec<RequestId>) {
        self.core.rebuild_profile(now, &mut self.profile);
        let CbfScheduler {
            core,
            backfills,
            queue,
            profile,
            observer,
            ..
        } = self;
        let mut skipped_earlier = false;
        let mut next_due = SimTime::MAX;
        // `retain_mut` visits the queue once, in submission order, and
        // compacts it in place.
        queue.retain_mut(|(req, start)| {
            *start = profile.reserve_earliest(now, req.estimate, req.nodes);
            observer.with(|s, o| o.on_reserve(s, now, req.id, *start));
            if *start == now && core.fits_now(req) {
                if skipped_earlier {
                    *backfills += 1;
                }
                core.start(now, *req);
                observer.with(|s, o| o.on_start(s, now, req, StartKind::Reservation));
                starts.push(req.id);
                false
            } else {
                skipped_earlier = true;
                next_due = next_due.min(*start);
                true
            }
        });
        self.next_due = next_due;
        self.last_compress = now;
        self.dirty = false;
    }

    /// Runs a scheduling pass: compress if the schedule is stale and the
    /// cycle has elapsed (or the machine risks idling), otherwise just
    /// start due reservations.
    fn pass(&mut self, now: SimTime, starts: &mut Vec<RequestId>) {
        // A reservation that is strictly overdue (its anchor — typically
        // the *requested* end of a job that finished early — passed with
        // no event at that instant) must not start late against the stale
        // profile: it would occupy nodes beyond its profiled window and a
        // later reservation could be placed on top of its tail. Rebuild
        // instead; compression re-anchors everything at `now`. Only a
        // watermark in the past can hide an overdue reservation, and the
        // scan that looks for one makes the watermark exact.
        if self.next_due < now {
            self.next_due = self
                .queue
                .iter()
                .map(|&(_, start)| start)
                .min()
                .unwrap_or(SimTime::MAX);
        }
        let overdue = self.next_due < now;
        let must_compress = overdue
            || (self.dirty
                && (now.since(self.last_compress) >= self.cycle
                    // An idle machine with a queue must never wait for the
                    // next cycle: there may be no further event to drive it.
                    || self.core.running_len() == 0));
        if must_compress {
            self.compress(now, starts);
        } else if self.next_due <= now {
            self.start_due(now, starts);
        }
    }
}

impl Scheduler for CbfScheduler {
    fn name(&self) -> &'static str {
        "CBF"
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
        // Refresh the plan first if it is stale and due — the new request
        // then reserves against the freshest view.
        self.pass(now, starts);
        self.observer.with(|s, o| o.on_submit(s, now, 0, &req));
        let start = self.profile.reserve_earliest(now, req.estimate, req.nodes);
        self.observer
            .with(|s, o| o.on_reserve(s, now, req.id, start));
        if start == now && self.core.fits_now(&req) {
            self.core.start(now, req);
            self.observer
                .with(|s, o| o.on_start(s, now, &req, StartKind::Reservation));
            starts.push(req.id);
        } else {
            self.next_due = self.next_due.min(start);
            self.queue.push((req, start));
        }
    }

    fn cancel(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) -> bool {
        if let Some(pos) = self.queue.iter().position(|(r, _)| r.id == id) {
            self.queue.remove(pos);
            self.observer.with(|s, o| o.on_cancel(s, now, id));
            // The phantom reservation stays in the stale profile until the
            // next compression — conservative in the meantime.
            self.dirty = true;
            self.pass(now, starts);
            true
        } else {
            false
        }
    }

    fn complete(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) {
        let rec = self.core.remove(id);
        self.observer
            .with(|s, o| o.on_finish(s, now, id, rec.request.nodes));
        if rec.requested_end > now {
            // Early completion, or a revoked same-instant start (estimates
            // are positive): capacity freed ahead of plan.
            self.dirty = true;
        }
        self.pass(now, starts);
    }

    fn predicted_start(&self, now: SimTime, id: RequestId) -> Option<SimTime> {
        if self.core.is_running(id) {
            return Some(now);
        }
        // The driver asks about the request it has just queued, the last
        // entry; ids are unique, so searching from the back finds the
        // same entry sooner.
        self.queue
            .iter()
            .rev()
            .find(|(r, _)| r.id == id)
            .map(|&(_, start)| start)
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

    #[test]
    fn every_request_gets_a_reservation_at_submit() {
        let mut s = CbfScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 10, 50.0), &mut starts);
        s.submit(t(0.0), req(3, 10, 50.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1)]);
        assert_eq!(s.predicted_start(t(0.0), RequestId(2)), Some(t(100.0)));
        assert_eq!(s.predicted_start(t(0.0), RequestId(3)), Some(t(150.0)));
    }

    #[test]
    fn backfills_into_holes_without_delaying_reservations() {
        let mut s = CbfScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 8, 100.0), &mut starts); // runs until 100
        s.submit(t(0.0), req(2, 8, 100.0), &mut starts); // reserved [100, 200)
                                                         // Short narrow job: 2 nodes free now, ends before 100 → starts
                                                         // immediately (backfills).
        s.submit(t(0.0), req(3, 2, 50.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1), RequestId(3)]);
        assert_eq!(
            s.backfills(),
            0,
            "submit-time starts are not jumps over the queue"
        );
        // Long narrow job: 2 nodes free now but would collide with the
        // reservation of request 2 at t=100 → must wait until 200.
        s.submit(t(0.0), req(4, 4, 150.0), &mut starts);
        assert_eq!(s.predicted_start(t(0.0), RequestId(4)), Some(t(200.0)));
    }

    /// The conservative guarantee EASY does not give: a stream of short
    /// backfill candidates can never push an existing reservation later.
    #[test]
    fn reservations_are_stable_under_later_submissions() {
        let mut s = CbfScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 10, 100.0), &mut starts); // reserved [100, 200)
        let before = s.predicted_start(t(0.0), RequestId(2)).unwrap();
        for i in 0..20 {
            s.submit(t(0.0), req(100 + i, 1, 1000.0), &mut starts);
        }
        assert_eq!(s.predicted_start(t(0.0), RequestId(2)), Some(before));
    }

    #[test]
    fn early_completion_compresses_schedule() {
        let mut s = CbfScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 10, 50.0), &mut starts); // reserved at 100
        starts.clear();
        // Request 1 finishes at 30 instead of 100: request 2 starts now.
        s.complete(t(30.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn cancellation_compresses_schedule() {
        let mut s = CbfScheduler::new(10);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 10, 100.0), &mut starts); // reserved 100
        s.submit(t(0.0), req(3, 10, 100.0), &mut starts); // reserved 200
        assert_eq!(s.predicted_start(t(0.0), RequestId(3)), Some(t(200.0)));
        starts.clear();
        assert!(s.cancel(t(10.0), RequestId(2), &mut starts));
        // Request 3 inherits the earlier slot.
        assert_eq!(s.predicted_start(t(10.0), RequestId(3)), Some(t(100.0)));
        assert!(starts.is_empty());
    }

    #[test]
    fn start_at_exact_requested_end() {
        let mut s = CbfScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 10.0), &mut starts);
        starts.clear();
        // Request 1 runs its entire requested time; the completion event
        // at t=100 must start request 2 (no compression involved: the
        // schedule was never stale).
        s.complete(t(100.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
    }

    /// Regression: with exact estimates a reservation lands on a running
    /// job's requested end, which is its completion instant. A submit
    /// processed at that instant before the `Complete` event must not
    /// start the reservation on nodes the job still holds; the
    /// completion's pass starts it.
    #[test]
    fn submit_at_a_completion_instant_waits_for_the_completion() {
        let mut s = CbfScheduler::with_cycle(4, Duration::from_secs(30.0));
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 10.0), &mut starts); // reserved at 100
        starts.clear();
        s.submit(t(100.0), req(3, 1, 5.0), &mut starts);
        assert!(starts.is_empty(), "r1 still holds the nodes: {starts:?}");
        assert_eq!(s.predicted_start(t(100.0), RequestId(2)), Some(t(100.0)));
        s.complete(t(100.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
    }

    #[test]
    fn revoked_start_compresses_and_restarts() {
        let mut s = CbfScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 100.0), &mut starts);
        assert_eq!(starts, vec![RequestId(1)]);
        starts.clear();
        s.complete(t(0.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
        assert!(s.core.is_running(RequestId(2)));
    }

    #[test]
    fn cancel_running_or_unknown_is_refused() {
        let mut s = CbfScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        assert!(!s.cancel(t(1.0), RequestId(1), &mut starts)); // running
        assert!(!s.cancel(t(1.0), RequestId(9), &mut starts)); // unknown
    }

    #[test]
    fn predictions_are_conservative_with_overestimates() {
        // Requested 100 s, actually runs 20 s: the prediction for the next
        // job is 100 (based on the request), the reality is 20 — the
        // Section 5 over-prediction in miniature.
        let mut s = CbfScheduler::new(4);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 100.0), &mut starts);
        let predicted = s.predicted_start(t(0.0), RequestId(2)).unwrap();
        assert_eq!(predicted, t(100.0));
        starts.clear();
        s.complete(t(20.0), RequestId(1), &mut starts); // early completion
        assert_eq!(starts, vec![RequestId(2)]); // actual start: t=20
    }

    #[test]
    fn mixed_widths_fill_the_machine() {
        let mut s = CbfScheduler::new(8);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 5, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 3, 100.0), &mut starts);
        s.submit(t(0.0), req(3, 3, 100.0), &mut starts); // reserved at 100
        assert_eq!(starts, vec![RequestId(1), RequestId(2)]);
        assert_eq!(s.free_nodes(), 0);
        assert_eq!(s.predicted_start(t(0.0), RequestId(3)), Some(t(100.0)));
    }

    // ------------------------------------------------------------------
    // Scheduling-cycle behaviour.
    // ------------------------------------------------------------------

    #[test]
    fn cycle_defers_compression_but_not_due_starts() {
        let mut s = CbfScheduler::with_cycle(10, Duration::from_secs(30.0));
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 6, 50.0), &mut starts); // reserved at 100
        s.submit(t(0.0), req(3, 4, 50.0), &mut starts); // reserved at 100
        starts.clear();
        // Request 1 completes early at t=10 — within the cycle, so no
        // compression yet... but the machine went idle, which forces one.
        s.complete(t(10.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2), RequestId(3)]);
    }

    #[test]
    fn cycle_batches_compression_while_machine_busy() {
        let mut s = CbfScheduler::with_cycle(10, Duration::from_secs(30.0));
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 6, 100.0), &mut starts); // runs
        s.submit(t(0.0), req(2, 6, 100.0), &mut starts); // reserved at 100
        s.submit(t(0.0), req(3, 4, 40.0), &mut starts); // backfills now
        assert_eq!(starts, vec![RequestId(1), RequestId(3)]);
        starts.clear();
        // Request 3 completes early at t=5; machine still busy and cycle
        // not elapsed → no compression, request 2 keeps its reservation.
        s.complete(t(5.0), RequestId(3), &mut starts);
        assert!(starts.is_empty());
        assert_eq!(s.predicted_start(t(5.0), RequestId(2)), Some(t(100.0)));
        // A submit after the cycle elapses triggers the deferred
        // compression; request 2 still cannot start (needs 6 nodes, only
        // 4 free), but its reservation stays at 100 while the newcomer
        // reserves around it.
        s.submit(t(40.0), req(4, 4, 30.0), &mut starts);
        assert_eq!(starts, vec![RequestId(4)]);
    }

    #[test]
    fn zero_cycle_is_textbook_immediate_compression() {
        let mut s = CbfScheduler::new(10);
        assert_eq!(s.cycle(), Duration::ZERO);
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts);
        s.submit(t(0.0), req(2, 4, 100.0), &mut starts);
        s.submit(t(0.0), req(3, 4, 100.0), &mut starts);
        starts.clear();
        // Early completion at t=1 immediately compresses even though the
        // machine is still conceptually busy with nothing — all nodes
        // free, so both queued jobs start.
        s.complete(t(1.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2), RequestId(3)]);
    }

    /// Regression: a reservation anchored on a phantom requested-end (its
    /// anchoring job completed early, inside the cycle) must not start
    /// *late* against the stale profile — its tail would extend past the
    /// profiled window and a later submission could be granted the same
    /// nodes.
    #[test]
    fn overdue_reservation_forces_compression() {
        let mut s = CbfScheduler::with_cycle(10, Duration::from_hours(1));
        let mut starts = Vec::new();
        s.submit(t(0.0), req(10, 2, 500.0), &mut starts); // D: runs to 500
        s.submit(t(0.0), req(11, 8, 100.0), &mut starts); // A: requested 100
        s.submit(t(0.0), req(12, 8, 10.0), &mut starts); // B: reserved at 100
        assert_eq!(starts, vec![RequestId(10), RequestId(11)]);
        starts.clear();
        // A finishes early; machine still busy (D), cycle not elapsed →
        // no compression, B keeps its (now phantom-anchored) reservation.
        s.complete(t(20.0), RequestId(11), &mut starts);
        assert!(starts.is_empty());
        // D completes at 500; B is overdue (anchor 100 < 500) → the pass
        // must compress and start B now, with a consistent profile.
        s.complete(t(500.0), RequestId(10), &mut starts);
        assert_eq!(starts, vec![RequestId(12)]);
        // A newcomer needing the whole machine reserves AFTER B's actual
        // occupancy [500, 510), not after its stale window [100, 110).
        starts.clear();
        s.submit(t(500.0), req(13, 10, 50.0), &mut starts);
        assert!(starts.is_empty(), "must not overlap B's tail");
        assert_eq!(s.predicted_start(t(500.0), RequestId(13)), Some(t(510.0)));
    }

    /// A cancel leaves the due watermark alone: cancelling a later
    /// reservation at the instant an earlier one comes due must not hide
    /// the due one from the completion that frees its nodes.
    #[test]
    fn cancel_at_a_due_instant_keeps_the_due_start() {
        let mut s = CbfScheduler::with_cycle(8, Duration::from_hours(1));
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 4, 1000.0), &mut starts); // runs to 1000
        s.submit(t(0.0), req(2, 4, 100.0), &mut starts); // runs to 100
        s.submit(t(0.0), req(3, 4, 10.0), &mut starts); // reserved at 100
        s.submit(t(0.0), req(4, 4, 10.0), &mut starts); // reserved at 110
        assert_eq!(s.predicted_start(t(0.0), RequestId(4)), Some(t(110.0)));
        starts.clear();
        assert!(s.cancel(t(100.0), RequestId(4), &mut starts));
        assert!(starts.is_empty(), "request 2 still holds the nodes");
        s.complete(t(100.0), RequestId(2), &mut starts);
        assert_eq!(starts, vec![RequestId(3)]);
    }

    #[test]
    fn due_start_exactly_at_phantom_anchor() {
        // With a long cycle, a reservation anchored on a cancelled job's
        // phantom end still starts at its reserved time.
        let mut s = CbfScheduler::with_cycle(10, Duration::from_hours(1));
        let mut starts = Vec::new();
        s.submit(t(0.0), req(1, 10, 100.0), &mut starts); // runs to 100
        s.submit(t(0.0), req(2, 10, 50.0), &mut starts); // reserved at 100
        starts.clear();
        // On-time completion (not early): schedule is not stale.
        s.complete(t(100.0), RequestId(1), &mut starts);
        assert_eq!(starts, vec![RequestId(2)]);
    }
}
