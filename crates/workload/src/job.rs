//! The unit of work: one batch job as generated by a workload model.

use rbr_simcore::{Duration, SimTime};

/// A job before it enters the grid: when it arrives, how many nodes it
/// needs, how long it actually runs, and how long the user *claims* it
/// will run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Submission instant at the job's home cluster.
    pub arrival: SimTime,
    /// Number of compute nodes requested (rigid — the paper studies
    /// option (i), identical redundant copies).
    pub nodes: u32,
    /// Actual execution time once started.
    pub runtime: Duration,
    /// User-requested compute time. Schedulers plan with this value;
    /// always ≥ `runtime` (a real scheduler kills jobs exceeding their
    /// request, and the workload models never generate that case).
    pub estimate: Duration,
}

impl JobSpec {
    /// Creates a job spec, validating the invariants the schedulers rely
    /// on.
    ///
    /// # Panics
    /// Panics if `nodes == 0`, `runtime` is zero, or `estimate < runtime`.
    pub fn new(arrival: SimTime, nodes: u32, runtime: Duration, estimate: Duration) -> Self {
        assert!(nodes > 0, "a job must request at least one node");
        assert!(!runtime.is_zero(), "a job must have a positive runtime");
        assert!(
            estimate >= runtime,
            "estimate {estimate} must cover runtime {runtime}"
        );
        JobSpec {
            arrival,
            nodes,
            runtime,
            estimate,
        }
    }

    /// Node-seconds of actual work in this job.
    pub fn area(&self) -> f64 {
        self.nodes as f64 * self.runtime.as_secs()
    }

    /// Overestimation factor `estimate / runtime` (≥ 1).
    pub fn overestimation(&self) -> f64 {
        self.estimate / self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn accessors() {
        let j = JobSpec::new(SimTime::from_secs(10.0), 4, secs(100.0), secs(250.0));
        assert_eq!(j.area(), 400.0);
        assert!((j.overestimation() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = JobSpec::new(SimTime::ZERO, 0, secs(1.0), secs(1.0));
    }

    #[test]
    #[should_panic(expected = "positive runtime")]
    fn zero_runtime_rejected() {
        let _ = JobSpec::new(SimTime::ZERO, 1, Duration::ZERO, secs(1.0));
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn estimate_below_runtime_rejected() {
        let _ = JobSpec::new(SimTime::ZERO, 1, secs(10.0), secs(5.0));
    }
}
