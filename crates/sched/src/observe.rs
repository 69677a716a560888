//! Observer hook points for scheduler auditing.
//!
//! Schedulers are passive state machines, which makes their decisions
//! easy to *observe*: every externally visible transition — a request
//! entering a queue, a start, a completion, an EASY shadow computation, a
//! CBF reservation — maps to one hook on [`SchedObserver`]. The hooks
//! exist for the invariant auditor in `rbr-audit` (the simulator's
//! sanitizer); production runs keep the [`ObserverSlot`] empty, which
//! compiles down to a branch on a `None` per hook site.
//!
//! All hooks default to no-ops so an observer only implements what it
//! cares about. Hook order is part of the contract: `on_submit` always
//! precedes any `on_start` for the same request, and `on_start` always
//! precedes its `on_finish`.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use rbr_simcore::SimTime;

use crate::types::{Request, RequestId};

/// How a request came to start *now*, from the scheduler's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartKind {
    /// Started as the (priority-then-)FIFO head of the queue: no
    /// earlier-ranked request was left waiting.
    FifoHead,
    /// Jumped ahead of a blocked head under a backfilling rule.
    Backfill,
    /// Started because its CBF reservation came due (reservation-order
    /// starts are neither FIFO nor queue jumps).
    Reservation,
}

impl fmt::Display for StartKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StartKind::FifoHead => "fifo-head",
            StartKind::Backfill => "backfill",
            StartKind::Reservation => "reservation",
        })
    }
}

/// Scheduler-level hook points. `sched` is the index the observer was
/// attached under (the [`crate::SchedulerSet`] target for independent
/// clusters; 0 for a shared-pool scheduler).
pub trait SchedObserver {
    /// The observer was (re-)attached to scheduler `sched` — fired once
    /// at attach time and again whenever the scheduler is rebuilt from
    /// scratch (a cluster outage). All previously observed state for
    /// `sched` is void.
    fn on_attach(&mut self, sched: usize, total_nodes: u32, name: &str) {
        let _ = (sched, total_nodes, name);
    }

    /// `req` was submitted to queue `queue` of scheduler `sched` (queue
    /// is always 0 for single-queue schedulers; lower queues rank first).
    fn on_submit(&mut self, sched: usize, now: SimTime, queue: usize, req: &Request) {
        let _ = (sched, now, queue, req);
    }

    /// `req` starts executing now.
    fn on_start(&mut self, sched: usize, now: SimTime, req: &Request, kind: StartKind) {
        let _ = (sched, now, req, kind);
    }

    /// A running request released its nodes (completion or a revoked
    /// same-instant start).
    fn on_finish(&mut self, sched: usize, now: SimTime, id: RequestId, nodes: u32) {
        let _ = (sched, now, id, nodes);
    }

    /// A queued request was cancelled and removed.
    fn on_cancel(&mut self, sched: usize, now: SimTime, id: RequestId) {
        let _ = (sched, now, id);
    }

    /// EASY recomputed the blocked head's shadow: `head` is guaranteed to
    /// start no later than `shadow`, and backfills outliving the shadow
    /// may use at most `extra` nodes.
    fn on_shadow(
        &mut self,
        sched: usize,
        now: SimTime,
        head: &Request,
        shadow: SimTime,
        extra: u32,
    ) {
        let _ = (sched, now, head, shadow, extra);
    }

    /// CBF (re-)reserved a queued request at `start`.
    fn on_reserve(&mut self, sched: usize, now: SimTime, id: RequestId, start: SimTime) {
        let _ = (sched, now, id, start);
    }
}

/// A shared, interior-mutable observer — one instance watches every
/// scheduler of a set, so cross-scheduler bookkeeping lives in one place.
pub type SharedObserver = Rc<RefCell<dyn SchedObserver>>;

/// The per-scheduler observer slot: empty in production runs (every hook
/// site reduces to an untaken branch), or a [`SharedObserver`] tagged
/// with this scheduler's index.
#[derive(Clone, Default)]
pub struct ObserverSlot(Option<(usize, SharedObserver)>);

impl ObserverSlot {
    /// The empty slot: all hooks are no-ops.
    pub fn empty() -> Self {
        ObserverSlot(None)
    }

    /// A slot delivering hooks tagged with scheduler index `sched`.
    pub fn new(sched: usize, obs: SharedObserver) -> Self {
        ObserverSlot(Some((sched, obs)))
    }

    /// Whether an observer is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` against the observer, if any.
    #[inline]
    pub fn with(&self, f: impl FnOnce(usize, &mut dyn SchedObserver)) {
        if let Some((sched, obs)) = &self.0 {
            f(*sched, &mut *obs.borrow_mut());
        }
    }
}

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some((sched, _)) => write!(f, "ObserverSlot(sched {sched})"),
            None => f.write_str("ObserverSlot(empty)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        attaches: usize,
        starts: usize,
    }

    impl SchedObserver for Counter {
        fn on_attach(&mut self, _sched: usize, _total: u32, _name: &str) {
            self.attaches += 1;
        }
        fn on_start(&mut self, _sched: usize, _now: SimTime, _req: &Request, _kind: StartKind) {
            self.starts += 1;
        }
    }

    #[test]
    fn empty_slot_is_inert() {
        let slot = ObserverSlot::empty();
        assert!(!slot.is_attached());
        slot.with(|_, _| panic!("empty slot must never call the closure"));
        assert_eq!(format!("{slot:?}"), "ObserverSlot(empty)");
    }

    #[test]
    fn attached_slot_tags_the_scheduler_index() {
        let obs: Rc<RefCell<Counter>> = Rc::new(RefCell::new(Counter::default()));
        let slot = ObserverSlot::new(3, obs.clone());
        assert!(slot.is_attached());
        let mut seen = None;
        slot.with(|sched, o| {
            seen = Some(sched);
            o.on_attach(sched, 8, "TEST");
        });
        assert_eq!(seen, Some(3));
        assert_eq!(obs.borrow().attaches, 1);
        assert_eq!(format!("{slot:?}"), "ObserverSlot(sched 3)");
    }

    #[test]
    fn clones_share_one_observer() {
        let obs: Rc<RefCell<Counter>> = Rc::new(RefCell::new(Counter::default()));
        let slot = ObserverSlot::new(0, obs.clone());
        let copy = slot.clone();
        let req = Request::new(
            RequestId(1),
            1,
            rbr_simcore::Duration::from_secs(1.0),
            SimTime::ZERO,
        );
        slot.with(|s, o| o.on_start(s, SimTime::ZERO, &req, StartKind::FifoHead));
        copy.with(|s, o| o.on_start(s, SimTime::ZERO, &req, StartKind::Backfill));
        assert_eq!(obs.borrow().starts, 2);
    }
}
