//! Request identifiers and the request record schedulers plan with.

use rbr_simcore::{Duration, SimTime};

/// Identifier of one request (one copy of a job at one cluster — a job
/// using `r` redundant requests owns `r` distinct ids).
///
/// Ids are unique for a run, and schedulers rely on it: EASY's resumed
/// backfilling sweep takes an unchanged head id to mean an unchanged
/// head. Schedulers only compare ids and look them up. The grid driver
/// (`rbr_grid::driver`) packs the job index, the copy index and the
/// copy's submission count into an id, in 32, 16 and 16 bits, so it
/// decodes a started or completing request without a table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// What a batch scheduler knows about a request: node count, *requested*
/// compute time, and submission instant. The actual runtime is invisible
/// to the scheduler — it only learns it when the completion event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Unique id of this request.
    pub id: RequestId,
    /// Number of nodes requested.
    pub nodes: u32,
    /// Requested compute time (the user's estimate).
    pub estimate: Duration,
    /// Submission instant.
    pub submit: SimTime,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or the estimate is zero.
    pub fn new(id: RequestId, nodes: u32, estimate: Duration, submit: SimTime) -> Self {
        assert!(nodes > 0, "a request must ask for at least one node");
        assert!(
            !estimate.is_zero(),
            "a request must ask for a positive compute time"
        );
        Request {
            id,
            nodes,
            estimate,
            submit,
        }
    }

    /// The end of the request's allocation if it started at `start`.
    pub fn end_if_started(&self, start: SimTime) -> SimTime {
        start + self.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_if_started() {
        let r = Request::new(RequestId(1), 4, Duration::from_secs(100.0), SimTime::ZERO);
        assert_eq!(
            r.end_if_started(SimTime::from_secs(50.0)),
            SimTime::from_secs(150.0)
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Request::new(RequestId(1), 0, Duration::from_secs(1.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive compute time")]
    fn zero_estimate_rejected() {
        let _ = Request::new(RequestId(1), 1, Duration::ZERO, SimTime::ZERO);
    }
}
