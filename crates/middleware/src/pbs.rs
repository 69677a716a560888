//! The batch-scheduler throughput model and the Figure 5 saturation
//! experiment.
//!
//! The paper saturated an OpenPBS/Maui front-end with concurrent `qsub` /
//! `qdel` loops at controlled queue sizes and measured 11 submissions +
//! 11 cancellations per second on an empty queue, decaying "in a somewhat
//! exponential manner" to about 5 of each at 20 000 pending requests.

use rand::Rng;
use rbr_simcore::{Duration, SimTime};

/// Throughput of a batch-scheduler front-end as a function of queue size:
/// `T(q) = floor + range · exp(−q / tau)` submission/cancellation pairs
/// per second — the paper's Figure 5 y-axis, which counts "11 request
/// submissions and 11 request cancellations per second" on an empty
/// queue as the value 11.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PbsThroughputModel {
    /// Asymptotic throughput at huge queue sizes (pairs/s).
    pub floor: f64,
    /// Additional throughput on an empty queue (pairs/s).
    pub range: f64,
    /// Exponential decay constant in queue entries.
    pub tau: f64,
}

impl PbsThroughputModel {
    /// Calibrated to the paper's OpenPBS 2.3.16 / Maui 3.2.6p13
    /// measurements on a 1 GHz Pentium III: 11 ops/s empty, ≈6 ops/s at
    /// 10 000 pending, ≈5 ops/s at 20 000 pending.
    pub fn openpbs_maui_2006() -> Self {
        PbsThroughputModel {
            floor: 5.0,
            range: 6.0,
            tau: 5_600.0,
        }
    }

    /// Submission/cancellation pairs per second at queue size `q` (the
    /// sustainable rate of each kind).
    pub fn throughput(&self, q: usize) -> f64 {
        self.floor + self.range * (-(q as f64) / self.tau).exp()
    }

    /// Service time of one submit+cancel pair at queue size `q`.
    pub fn service_time(&self, q: usize) -> Duration {
        Duration::from_secs(1.0 / self.throughput(q))
    }
}

/// One measured point of the churn experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnPoint {
    /// Queue size the experiment was pinned at.
    pub queue_size: usize,
    /// Measured submission/cancellation pairs per second (the paper
    /// reports "submissions/cancellations per second" on this axis).
    pub ops_per_sec: f64,
    /// True if the run was cut short by the injected scheduler crash (the
    /// paper: "experiments were interrupted due to the job scheduler
    /// process running out of memory, due to memory leaks").
    pub crashed: bool,
}

/// The Figure 5 saturation experiment: pre-seed the queue to a target
/// size, run clients that continuously submit a job and delete the job at
/// the head of the queue (maximum churn), and measure sustained
/// throughput.
#[derive(Clone, Debug)]
pub struct ChurnExperiment {
    /// The scheduler front-end being saturated.
    pub model: PbsThroughputModel,
    /// Wall-clock length of each measurement run.
    pub duration: Duration,
    /// If set, the scheduler process dies after this many operations
    /// (memory-leak injection); the point is reported with `crashed`.
    pub crash_after_ops: Option<u64>,
    /// Relative jitter on each operation's service time (models the
    /// "non-deterministic load on the front-end node"); 0 disables.
    pub service_jitter: f64,
}

impl ChurnExperiment {
    /// The paper's 12-hour experiment setup, without failure injection.
    pub fn paper_setup() -> Self {
        ChurnExperiment {
            model: PbsThroughputModel::openpbs_maui_2006(),
            duration: Duration::from_hours(12),
            crash_after_ops: None,
            service_jitter: 0.05,
        }
    }

    /// Runs one measurement at a pinned queue size.
    ///
    /// Clients alternate submissions and deletions, so the queue size
    /// oscillates within ±1 of the target and the server is always saturated;
    /// the measured rate is therefore the service rate at that size.
    pub fn measure<R: Rng + ?Sized>(&self, queue_size: usize, rng: &mut R) -> ChurnPoint {
        let mut now = SimTime::ZERO;
        let end = SimTime::ZERO + self.duration;
        let mut ops: u64 = 0;
        let mut q = queue_size;
        let mut submit_next = true;
        while now < end {
            if let Some(limit) = self.crash_after_ops {
                if ops >= limit {
                    return ChurnPoint {
                        queue_size,
                        ops_per_sec: ops as f64 / now.since(SimTime::ZERO).as_secs(),
                        crashed: true,
                    };
                }
            }
            let mut service = self.model.service_time(q);
            if self.service_jitter > 0.0 {
                let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let factor = 1.0 + self.service_jitter * (2.0 * u - 1.0);
                service = service.scale(factor);
            }
            now += service;
            ops += 1;
            // Alternate submit/delete to pin the queue at the target.
            if submit_next {
                q += 1;
            } else {
                q = q.saturating_sub(1);
            }
            submit_next = !submit_next;
        }
        ChurnPoint {
            queue_size,
            ops_per_sec: ops as f64 / self.duration.as_secs(),
            crashed: false,
        }
    }

    /// Sweeps queue sizes and returns one point per size — the Figure 5
    /// curve.
    pub fn sweep<R: Rng + ?Sized>(&self, queue_sizes: &[usize], rng: &mut R) -> Vec<ChurnPoint> {
        queue_sizes.iter().map(|&q| self.measure(q, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_simcore::SeedSequence;

    #[test]
    fn calibration_matches_paper_endpoints() {
        let m = PbsThroughputModel::openpbs_maui_2006();
        assert!((m.throughput(0) - 11.0).abs() < 1e-9);
        // ≈ 6 ops/s at 10 000 pending.
        assert!((m.throughput(10_000) - 6.0).abs() < 0.05);
        // ≈ 5.2 ops/s at 20 000 pending.
        assert!((m.throughput(20_000) - 5.17).abs() < 0.05);
    }

    #[test]
    fn throughput_decays_monotonically() {
        let m = PbsThroughputModel::openpbs_maui_2006();
        let mut last = f64::INFINITY;
        for q in (0..=20_000).step_by(1_000) {
            let t = m.throughput(q);
            assert!(t < last);
            last = t;
        }
    }

    #[test]
    fn churn_measures_the_service_rate() {
        let mut exp = ChurnExperiment::paper_setup();
        exp.duration = Duration::from_secs(3_600.0);
        exp.service_jitter = 0.0;
        let mut rng = SeedSequence::new(90).rng();
        for q in [0usize, 10_000, 20_000] {
            let point = exp.measure(q, &mut rng);
            let expected = exp.model.throughput(q);
            assert!(
                (point.ops_per_sec - expected).abs() / expected < 0.02,
                "q={q}: measured {} vs model {expected}",
                point.ops_per_sec
            );
            assert!(!point.crashed);
        }
    }

    #[test]
    fn crash_injection_truncates_run() {
        let mut exp = ChurnExperiment::paper_setup();
        exp.crash_after_ops = Some(1_000);
        let mut rng = SeedSequence::new(91).rng();
        let point = exp.measure(100, &mut rng);
        assert!(point.crashed);
        // Rate is still a valid estimate from the truncated run.
        assert!(point.ops_per_sec > 0.0);
    }

    #[test]
    fn sweep_reproduces_figure5_shape() {
        let mut exp = ChurnExperiment::paper_setup();
        exp.duration = Duration::from_secs(600.0);
        let mut rng = SeedSequence::new(92).rng();
        let sizes: Vec<usize> = (0..=20).map(|k| k * 1_000).collect();
        let points = exp.sweep(&sizes, &mut rng);
        assert_eq!(points.len(), 21);
        // Endpoints bracket the paper's 11 → ~5 ops/s curve.
        assert!((10.0..12.0).contains(&points[0].ops_per_sec));
        assert!((4.5..5.8).contains(&points[20].ops_per_sec));
        // Decay is sharper early than late (the "somewhat exponential"
        // shape): drop over the first 5k exceeds drop over the last 5k.
        let early = points[0].ops_per_sec - points[5].ops_per_sec;
        let late = points[15].ops_per_sec - points[20].ops_per_sec;
        assert!(early > 2.0 * late, "early {early} vs late {late}");
    }

    #[test]
    fn jitter_does_not_bias_the_mean() {
        let mut exp = ChurnExperiment::paper_setup();
        exp.duration = Duration::from_secs(3_600.0);
        exp.service_jitter = 0.2;
        let mut rng = SeedSequence::new(93).rng();
        let point = exp.measure(5_000, &mut rng);
        let expected = exp.model.throughput(5_000);
        assert!(
            (point.ops_per_sec - expected).abs() / expected < 0.03,
            "measured {} vs {expected}",
            point.ops_per_sec
        );
    }
}
