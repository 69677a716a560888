//! Run-level observation: the driver-side extension of the scheduler
//! hook points in [`rbr_sched::observe`].
//!
//! A [`RunObserver`] sees everything a [`rbr_sched::SchedObserver`] sees
//! plus the driver's own milestones: each engine event as it is pumped,
//! each synthesized [`JobRecord`], and the final [`RunResult`] — enough
//! for an auditor to cross-check scheduler-level node occupancy against
//! the run's waste/useful-work ledger.
//!
//! Observers attach through [`install_observer_factory`]: every
//! subsequently constructed driver asks the factory for a fresh
//! observer and hands it to its scheduler set as well, so one observer
//! sees both levels. This is how `rbr audit` instruments registry
//! experiments it cannot reach into. Normal runs have no factory
//! installed and pay nothing.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;

use rbr_sched::SchedObserver;
use rbr_simcore::SimTime;

use crate::record::{JobRecord, RunResult};

/// Driver-level hooks layered over the scheduler-level ones. All default
/// to no-ops.
pub trait RunObserver: SchedObserver {
    /// An engine event was popped and is about to be handled.
    fn on_event(&mut self, now: SimTime, kind: &str) {
        let _ = (now, kind);
    }

    /// A job's record was synthesized (its winning copy completed).
    fn on_job_record(&mut self, rec: &JobRecord) {
        let _ = rec;
    }

    /// The run finished; `result` is final except for per-record
    /// post-processing done by callers.
    fn on_run_end(&mut self, result: &RunResult) {
        let _ = result;
    }
}

/// Creates one observer per driver; must be callable from any thread
/// (experiments replicate runs across a thread pool), though each
/// returned observer stays on the thread that asked for it.
pub type ObserverFactory = Box<dyn Fn() -> Rc<RefCell<dyn RunObserver>> + Send + Sync>;

static FACTORY: Mutex<Option<ObserverFactory>> = Mutex::new(None);

/// Installs a process-wide observer factory: every [`crate::SimDriver`]
/// constructed afterwards attaches a fresh observer from it. Replaces
/// any previously installed factory.
pub fn install_observer_factory(factory: ObserverFactory) {
    *FACTORY.lock().expect("observer factory lock") = Some(factory);
}

/// Removes the process-wide observer factory; subsequent drivers run
/// unobserved.
pub fn clear_observer_factory() {
    *FACTORY.lock().expect("observer factory lock") = None;
}

/// A fresh observer from the installed factory, if any.
pub(crate) fn observer_from_factory() -> Option<Rc<RefCell<dyn RunObserver>>> {
    FACTORY
        .lock()
        .expect("observer factory lock")
        .as_ref()
        .map(|f| f())
}
