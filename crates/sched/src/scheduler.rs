//! The scheduler interface shared by FCFS, EASY, and CBF.

use rbr_simcore::{Duration, SimTime};

use crate::cbf::CbfScheduler;
use crate::core::ClusterCore;
use crate::easy::EasyScheduler;
use crate::fcfs::FcfsScheduler;
use crate::observe::ObserverSlot;
use crate::profile::Profile;
use crate::types::{Request, RequestId};

/// A batch job scheduling algorithm driving one cluster.
///
/// Schedulers are passive: the simulation engine calls them at event
/// instants, and every call that can change resource allocation appends
/// the ids of requests that start executing *now* to `starts` (in start
/// order). The engine owns actual runtimes and schedules completion
/// events; schedulers only ever see requested times.
pub trait Scheduler {
    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Machine size in nodes.
    fn total_nodes(&self) -> u32;

    /// Currently idle nodes.
    fn free_nodes(&self) -> u32;

    /// Number of queued (not yet started) requests.
    fn queue_len(&self) -> usize;

    /// Number of running requests.
    fn running_len(&self) -> usize;

    /// Submits a request at instant `now`.
    fn submit(&mut self, now: SimTime, req: Request, starts: &mut Vec<RequestId>);

    /// Cancels a *queued* request. Returns `true` if the request was
    /// queued and has been removed; `false` if it is unknown, already
    /// running, or already finished (the redundant-request protocol makes
    /// such races normal, so this is not an error).
    fn cancel(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) -> bool;

    /// Reports that a running request finished (possibly earlier than its
    /// requested end — the backfilling trigger the paper highlights).
    fn complete(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>);

    /// Revokes a start the engine refused to commit: the request was
    /// granted nodes at this exact instant but its job already began
    /// elsewhere, so the allocation is torn down immediately (the
    /// zero-latency cancellation callback).
    fn abort(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>);

    /// The scheduler's own forecast of when a request will start, based on
    /// the current queue state and requested compute times (Section 5's
    /// predictor). For a running request this is its actual start; for a
    /// queued request it is a conservative simulation of the queue; `None`
    /// for unknown requests.
    fn predicted_start(&self, now: SimTime, id: RequestId) -> Option<SimTime>;

    /// Number of out-of-order starts so far: requests that began while an
    /// earlier-submitted request was still waiting (EASY/CBF backfills;
    /// always 0 for FCFS). Quantifies the backfilling activity that the
    /// paper's §3.3 explanation of the small-N penalty appeals to.
    fn backfills(&self) -> u64 {
        0
    }

    /// Whether the request is queued.
    fn is_queued(&self, id: RequestId) -> bool;

    /// Whether the request is running.
    fn is_running(&self, id: RequestId) -> bool;

    /// Attaches an observer slot delivering this scheduler's hook events
    /// (see [`crate::observe`]). The default implementation discards the
    /// slot: a scheduler without hook points simply cannot be audited.
    fn attach_observer(&mut self, _slot: ObserverSlot) {}
}

/// The three algorithms evaluated in the paper (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// First-Come-First-Serve, no backfilling.
    Fcfs,
    /// EASY aggressive backfilling.
    Easy,
    /// Conservative Backfilling.
    Cbf,
}

impl Algorithm {
    /// Instantiates the algorithm on a machine of `nodes` nodes.
    pub fn build(self, nodes: u32) -> Box<dyn Scheduler> {
        self.build_with_cycle(nodes, Duration::ZERO)
    }

    /// Instantiates the algorithm with a CBF scheduling-cycle length
    /// (ignored by FCFS and EASY, whose passes are cheap).
    pub fn build_with_cycle(self, nodes: u32, cbf_cycle: Duration) -> Box<dyn Scheduler> {
        match self {
            Algorithm::Fcfs => Box::new(FcfsScheduler::new(nodes)),
            Algorithm::Easy => Box::new(EasyScheduler::new(nodes)),
            Algorithm::Cbf => Box::new(CbfScheduler::with_cycle(nodes, cbf_cycle)),
        }
    }

    /// All algorithms, in the order Table 1 lists them.
    pub fn all() -> [Algorithm; 3] {
        [Algorithm::Easy, Algorithm::Cbf, Algorithm::Fcfs]
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Algorithm::Fcfs => "FCFS",
            Algorithm::Easy => "EASY",
            Algorithm::Cbf => "CBF",
        };
        f.write_str(s)
    }
}

/// Conservative FIFO queue-wait prediction: walks the queue in submission
/// order, reserving each request at its earliest fit in the profile, and
/// returns the reserved start of `id`.
///
/// This is the prediction a scheduler "based on the current state of the
/// queue" can offer for algorithms that do not keep reservations of their
/// own (FCFS, EASY).
pub(crate) fn fifo_predicted_start<'a>(
    core: &ClusterCore,
    queue: impl Iterator<Item = &'a Request>,
    now: SimTime,
    id: RequestId,
) -> Option<SimTime> {
    let mut profile: Profile = core.profile(now);
    for req in queue {
        let start = profile.earliest_fit(now, req.estimate, req.nodes);
        if req.id == id {
            return Some(start);
        }
        profile.reserve(start, req.estimate, req.nodes);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_simcore::Duration;

    #[test]
    fn algorithm_display_and_build() {
        assert_eq!(Algorithm::Easy.to_string(), "EASY");
        assert_eq!(Algorithm::Cbf.to_string(), "CBF");
        assert_eq!(Algorithm::Fcfs.to_string(), "FCFS");
        for alg in Algorithm::all() {
            let s = alg.build(64);
            assert_eq!(s.total_nodes(), 64);
            assert_eq!(s.free_nodes(), 64);
            assert_eq!(s.queue_len(), 0);
        }
    }

    #[test]
    fn fifo_prediction_stacks_reservations() {
        let mut core = ClusterCore::new(10);
        core.start(
            SimTime::ZERO,
            Request::new(RequestId(1), 10, Duration::from_secs(100.0), SimTime::ZERO),
        );
        let q1 = Request::new(RequestId(2), 10, Duration::from_secs(50.0), SimTime::ZERO);
        let q2 = Request::new(RequestId(3), 10, Duration::from_secs(50.0), SimTime::ZERO);
        let queue = [q1, q2];
        let p1 = fifo_predicted_start(&core, queue.iter(), SimTime::ZERO, RequestId(2));
        let p2 = fifo_predicted_start(&core, queue.iter(), SimTime::ZERO, RequestId(3));
        assert_eq!(p1, Some(SimTime::from_secs(100.0)));
        assert_eq!(p2, Some(SimTime::from_secs(150.0)));
        assert_eq!(
            fifo_predicted_start(&core, queue.iter(), SimTime::ZERO, RequestId(9)),
            None
        );
    }
}
