//! The online admission controller: picks each job's redundancy from
//! the capacity model, the measured arrival rate, and the binomial
//! queue-wait bound.
//!
//! Three signals, in the order they gate:
//!
//! 1. **Rate limiter** — a token bucket refilled at the *batched*
//!    bottleneck rate (`SystemCapacity::bottleneck_batched`). Each
//!    admitted copy spends one token; no token for even one copy means
//!    the job is shed. This is the paper's §4 capacity arithmetic acting
//!    as a hard backstop.
//! 2. **Load threshold** — Shah/Lee/Ramchandran: redundancy reduces
//!    latency only while the system is lightly loaded. The controller
//!    estimates the arrival rate with an EWMA over interarrivals and
//!    allows `r` copies only while `λ·r ≤ threshold × bottleneck rate`,
//!    i.e. `r ≤ threshold × max_redundancy_batched(iat)`.
//! 3. **Forecast bound** — the Binomial-Method upper bound on the
//!    95th-percentile queue wait (`rbr-forecast`), fed with the
//!    controller's own fluid wait estimates. Once warmed up, a bound
//!    under 10 % of the job's runtime means queues are short and
//!    redundancy buys nothing: the job goes in with a single copy.
//!
//! Every input is either configuration or derived from the request
//! stream, so with a virtual clock the full decision log is a pure
//! function of `(requests, config)` — bit-reproducible.

use rbr_forecast::QuantilePredictor;
use rbr_middleware::{BatchedTransaction, SystemCapacity};

use crate::decimal::{write_fixed, write_u64};
use crate::wire::Verdict;

/// Tuning knobs for the controller.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Clusters available to place copies on (caps redundancy).
    pub clusters: u32,
    /// Ops per WS-GRAM transaction (the batching the rate limiter
    /// credits).
    pub batch: u32,
    /// Total nodes across the pool (for the fluid backlog model).
    pub total_nodes: f64,
    /// Fraction of the bottleneck rate the controller will spend
    /// (Shah/Lee/Ramchandran load threshold).
    pub load_threshold: f64,
    /// Token-bucket burst, in copies.
    pub burst: f64,
    /// EWMA weight for the interarrival estimate.
    pub ewma_alpha: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            clusters: 5,
            batch: 1,
            total_nodes: 5.0 * 128.0,
            load_threshold: 0.8,
            burst: 16.0,
            ewma_alpha: 0.1,
        }
    }
}

/// One admission decision, ready for the log and the ack.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// The job id the decision is for.
    pub id: u64,
    /// Copies admitted (0 when shed).
    pub redundancy: u32,
    /// The verdict.
    pub verdict: Verdict,
    /// Measured offered load `λ / bottleneck rate` at decision time.
    pub load: f64,
    /// Fluid queue-wait estimate at arrival (seconds).
    pub wait_est_secs: f64,
    /// Forecast bound on the 95th-percentile wait, if warmed up.
    pub bound_secs: Option<f64>,
}

impl Decision {
    /// The canonical log line,
    /// `job={id} r={r} verdict={v} load={:.4} wait={:.3} bound={:.3 or -}`.
    /// Fixed-precision formatting keeps the line byte-stable for CI's
    /// `diff` gate.
    pub fn log_line(&self) -> String {
        // What `format!` reserves for this template (twice its 35
        // literal bytes): lines built at another capacity change the
        // heap the admission log holds.
        let mut line = String::with_capacity(70);
        line.push_str("job=");
        write_u64(&mut line, self.id);
        line.push_str(" r=");
        write_u64(&mut line, self.redundancy.into());
        line.push_str(" verdict=");
        line.push_str(self.verdict.as_str());
        line.push_str(" load=");
        write_fixed::<4>(&mut line, self.load);
        line.push_str(" wait=");
        write_fixed::<3>(&mut line, self.wait_est_secs);
        line.push_str(" bound=");
        match self.bound_secs {
            None => line.push('-'),
            Some(b) => write_fixed::<3>(&mut line, b),
        }
        line
    }
}

/// The controller itself.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Amortized sustainable submission rate (copies/s) of the binding
    /// component — the token refill rate.
    rate: f64,
    tokens: f64,
    tokens_at: f64,
    ewma_iat: Option<f64>,
    last_arrival: Option<f64>,
    /// Outstanding work in wait-seconds of the fluid single-queue model.
    backlog_secs: f64,
    backlog_at: f64,
    predictor: QuantilePredictor,
}

impl AdmissionController {
    /// Creates a controller over the paper's calibrated capacity model.
    pub fn new(config: AdmissionConfig) -> Self {
        let sys = SystemCapacity::paper_2006();
        let txn = BatchedTransaction::of(config.batch.max(1));
        let (_, rate) = sys.bottleneck_batched(txn);
        let burst = config.burst;
        AdmissionController {
            config,
            rate,
            tokens: burst,
            tokens_at: 0.0,
            ewma_iat: None,
            last_arrival: None,
            backlog_secs: 0.0,
            backlog_at: 0.0,
            predictor: QuantilePredictor::qbets_default(),
        }
    }

    /// The token refill rate (copies per second) — the batched
    /// bottleneck rate of the capacity model.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Decides redundancy for one submission arriving at `now_secs`.
    pub fn decide(&mut self, id: u64, now_secs: f64, nodes: u32, runtime_secs: f64) -> Decision {
        // Refill the bucket for the time elapsed since the last spend.
        let dt = (now_secs - self.tokens_at).max(0.0);
        self.tokens = (self.tokens + dt * self.rate).min(self.config.burst);
        self.tokens_at = now_secs;

        // Drain the fluid backlog for the elapsed time, then read the
        // wait this job would see and feed the forecaster.
        let bt = (now_secs - self.backlog_at).max(0.0);
        self.backlog_secs = (self.backlog_secs - bt).max(0.0);
        self.backlog_at = now_secs;
        let wait_est = self.backlog_secs;
        self.predictor.observe(wait_est);
        let bound = self.predictor.predict();

        // Measured arrival rate via EWMA of interarrivals.
        if let Some(last) = self.last_arrival {
            let iat = (now_secs - last).max(1e-6);
            let a = self.config.ewma_alpha;
            self.ewma_iat = Some(match self.ewma_iat {
                None => iat,
                Some(prev) => (1.0 - a) * prev + a * iat,
            });
        }
        self.last_arrival = Some(now_secs);

        let load = match self.ewma_iat {
            Some(iat) => 1.0 / (iat * self.rate),
            None => 0.0,
        };

        // Redundancy allowed by the load threshold (∞ while unmeasured),
        // capped by the cluster count.
        let r_load = match self.ewma_iat {
            None => f64::from(self.config.clusters),
            Some(iat) => (self.config.load_threshold * self.rate * iat).floor(),
        };
        let mut r = r_load.clamp(0.0, f64::from(self.config.clusters)) as u32;

        // Forecast gate: short predicted waits make redundancy pointless.
        if let Some(b) = bound {
            if b < 0.1 * runtime_secs {
                r = r.min(1);
            }
        }

        // Spend tokens; partial credit degrades redundancy before
        // shedding the job outright.
        let affordable = self.tokens.floor();
        let r = (f64::from(r.max(1)).min(affordable)) as u32;
        if r == 0 {
            Decision {
                id,
                redundancy: 0,
                verdict: Verdict::Shed,
                load,
                wait_est_secs: wait_est,
                bound_secs: bound,
            }
        } else {
            self.tokens -= f64::from(r);
            // One copy runs; the backlog grows by the job's service
            // demand on the pool.
            self.backlog_secs += runtime_secs * f64::from(nodes) / self.config.total_nodes;
            Decision {
                id,
                redundancy: r,
                verdict: if r > 1 {
                    Verdict::Redundant
                } else {
                    Verdict::Single
                },
                load,
                wait_est_secs: wait_est,
                bound_secs: bound,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(batch: u32) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            batch,
            ..AdmissionConfig::default()
        })
    }

    #[test]
    fn light_load_admits_redundancy() {
        let mut c = controller(4);
        // Sparse arrivals: one job a minute on a ~1 copies/s budget.
        let mut last = Decision {
            id: 0,
            redundancy: 0,
            verdict: Verdict::Shed,
            load: 0.0,
            wait_est_secs: 0.0,
            bound_secs: None,
        };
        for k in 0..10 {
            last = c.decide(k, 60.0 * k as f64, 64, 3_600.0);
        }
        assert!(last.redundancy > 1, "sparse arrivals should earn copies");
        assert_eq!(last.verdict, Verdict::Redundant);
        assert!(last.load < 1.0);
    }

    #[test]
    fn overload_sheds_after_the_burst_is_spent() {
        let mut c = controller(1);
        // 50 jobs in one virtual second against a ~0.5 copies/s budget:
        // the burst drains and the tail must shed.
        let mut shed = 0;
        for k in 0..50 {
            let d = c.decide(k, 0.02 * k as f64, 64, 3_600.0);
            if d.verdict == Verdict::Shed {
                shed += 1;
            }
        }
        assert!(shed > 0, "the rate limiter never engaged");
    }

    #[test]
    fn heavy_load_degrades_to_single_before_shedding() {
        let mut c = controller(1);
        // Arrivals right at the bottleneck rate: load ≈ 1 means the
        // threshold rule allows no extra copies, but the bucket can
        // still afford one.
        let iat = 1.0 / c.rate();
        let mut singles = 0;
        for k in 0..30 {
            let d = c.decide(k, iat * k as f64, 64, 3_600.0);
            if d.verdict == Verdict::Single {
                singles += 1;
            }
        }
        assert!(singles > 0, "saturating load should pin r to 1");
    }

    #[test]
    fn batching_raises_the_admission_budget() {
        assert!(
            controller(8).rate() > controller(1).rate(),
            "an 8-op transaction must out-admit per-op submission"
        );
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut c = controller(4);
            (0..200)
                .map(|k| c.decide(k, 0.7 * k as f64, 32, 600.0).log_line())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn log_lines_have_fixed_shape() {
        let mut c = controller(2);
        let line = c.decide(9, 1.0, 16, 100.0).log_line();
        assert!(line.starts_with("job=9 r="), "{line}");
        assert!(
            line.contains(" load=") && line.contains(" bound="),
            "{line}"
        );
    }
}
