//! Grid simulation configuration.

use rbr_faults::FaultSpec;
use rbr_sched::Algorithm;
use rbr_simcore::Duration;
use rbr_workload::{EstimateModel, LublinConfig};

use crate::scheme::Scheme;
use crate::select::SelectionPolicy;

/// One cluster: its size and the workload arriving at it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Number of compute nodes.
    pub nodes: u32,
    /// Workload model for this cluster's local job stream (its
    /// `max_nodes` is forced to `nodes` when the simulation is built —
    /// "jobs arriving at a cluster do not request more compute nodes than
    /// available at that cluster").
    pub workload: LublinConfig,
}

impl ClusterSpec {
    /// A cluster of `nodes` nodes fed by `workload`.
    pub fn new(nodes: u32, workload: LublinConfig) -> Self {
        ClusterSpec {
            nodes,
            workload: workload.with_max_nodes(nodes),
        }
    }
}

/// Full configuration of one grid simulation run.
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// The clusters of the platform.
    pub clusters: Vec<ClusterSpec>,
    /// Scheduling algorithm used by every batch scheduler.
    pub algorithm: Algorithm,
    /// Redundancy scheme used by redundant jobs.
    pub scheme: Scheme,
    /// Fraction `p ∈ [0, 1]` of jobs that use the scheme (Figure 4 sweeps
    /// this; all other experiments use 1.0).
    pub redundant_fraction: f64,
    /// How redundant jobs pick remote clusters.
    pub selection: SelectionPolicy,
    /// Submission window: jobs arrive during `[0, window)`; the
    /// simulation then runs until every job completes.
    pub window: Duration,
    /// User runtime-estimate model.
    pub estimates: EstimateModel,
    /// Extra requested time on *remote* copies, as a fraction (0.1 = +10%)
    /// — the §3.1.2 late-binding data-staging sensitivity check.
    pub remote_inflation: f64,
    /// Record per-job queue-wait predictions at submit time (Section 5).
    /// Cheap for CBF; for EASY/FCFS it costs a queue walk per request.
    pub collect_predictions: bool,
    /// CBF scheduling-cycle length (see `rbr_sched::CbfScheduler`): full
    /// schedule compression is batched at this granularity, like a
    /// production scheduler's poll interval. Ignored by FCFS/EASY.
    pub cbf_cycle: Duration,
    /// Middleware fault model (message delay/loss, retries, cluster
    /// outages). The default is the paper's perfect middleware; see
    /// `rbr_faults` for the determinism contract.
    pub faults: FaultSpec,
}

impl GridConfig {
    /// The paper's default platform: `n` identical 128-node clusters
    /// running EASY with the calibrated Lublin workload, a 6-hour
    /// submission window, exact estimates, and uniform selection.
    pub fn homogeneous(n: usize, scheme: Scheme) -> Self {
        assert!(n > 0, "a platform needs at least one cluster");
        GridConfig {
            clusters: vec![ClusterSpec::new(128, LublinConfig::paper_2006()); n],
            algorithm: Algorithm::Easy,
            scheme,
            redundant_fraction: 1.0,
            selection: SelectionPolicy::Uniform,
            window: Duration::from_hours(6),
            estimates: EstimateModel::Exact,
            remote_inflation: 0.0,
            collect_predictions: false,
            cbf_cycle: Duration::from_secs(30.0),
            faults: FaultSpec::default(),
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Validates cross-field invariants. Called by the simulation
    /// constructor.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn validate(&self) {
        assert!(!self.clusters.is_empty(), "platform has no clusters");
        assert!(
            (0.0..=1.0).contains(&self.redundant_fraction),
            "redundant fraction must be in [0, 1], got {}",
            self.redundant_fraction
        );
        assert!(
            self.remote_inflation >= 0.0 && self.remote_inflation.is_finite(),
            "remote inflation must be non-negative, got {}",
            self.remote_inflation
        );
        assert!(!self.window.is_zero(), "submission window must be positive");
        self.faults.validate(self.clusters.len());
        for (i, c) in self.clusters.iter().enumerate() {
            assert!(c.nodes > 0, "cluster {i} has no nodes");
            assert_eq!(
                c.workload.max_nodes, c.nodes,
                "cluster {i}: workload max_nodes must equal cluster size"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_defaults_match_paper() {
        let cfg = GridConfig::homogeneous(10, Scheme::Half);
        assert_eq!(cfg.n_clusters(), 10);
        assert!(cfg.clusters.iter().all(|c| c.nodes == 128));
        assert_eq!(cfg.algorithm, Algorithm::Easy);
        assert_eq!(cfg.window, Duration::from_hours(6));
        assert_eq!(cfg.redundant_fraction, 1.0);
        cfg.validate();
    }

    #[test]
    fn cluster_spec_caps_workload_nodes() {
        let spec = ClusterSpec::new(16, LublinConfig::paper_2006());
        assert_eq!(spec.workload.max_nodes, 16);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn invalid_fraction_rejected() {
        let mut cfg = GridConfig::homogeneous(2, Scheme::All);
        cfg.redundant_fraction = 1.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "no clusters")]
    fn empty_platform_rejected() {
        let cfg = GridConfig {
            clusters: vec![],
            ..GridConfig::homogeneous(1, Scheme::None)
        };
        cfg.validate();
    }
}
