//! # rbr-faults
//!
//! A deterministic, seed-driven fault model for the middleware carrying
//! the redundant-request protocol's control traffic.
//!
//! The paper's protocol assumes perfect middleware: submissions reach
//! remote batch schedulers instantly and the cancellation callback fires
//! with zero latency the moment one copy starts. This crate models the
//! ways real grid middleware breaks that assumption, so the simulator
//! can quantify how much of redundancy's benefit survives imperfect
//! plumbing:
//!
//! * **message delay** — submit and cancel messages take time to arrive,
//!   drawn from a configurable [`Delay`] distribution;
//! * **message loss** — each message is dropped with a configurable
//!   probability; lost *submissions* are retried with exponential
//!   backoff (bounded by [`FaultSpec::max_retries`]), lost
//!   *cancellations* are fire-and-forget, leaving orphaned copies to run
//!   as zombies;
//! * **cluster outages** — scheduled down/recover windows during which a
//!   cluster's scheduler loses all state, running copies are killed, and
//!   message delivery is suspended.
//!
//! ## Determinism contract
//!
//! Every random decision — loss coin-flips, delay samples, and nothing
//! else — is drawn from a dedicated [`SeedSequence`] stream owned by
//! [`FaultModel`]. The grid simulator hands it `seed.child(n_clusters + 1)`,
//! a stream disjoint from the per-cluster workload streams
//! (`child(0..n)`) and the redundancy/selection stream (`child(n)`).
//! Consequences, relied on by tests and experiments:
//!
//! 1. **Disabled faults are invisible.** When [`FaultSpec::is_disabled`]
//!    holds, the simulator takes its original code path and never draws
//!    from the fault stream, so results are bit-identical to a build
//!    without this crate.
//! 2. **Runs are reproducible.** The same master seed and config produce
//!    the same fault schedule, event order, and metrics, on any machine.
//! 3. **Treatment pairs with baseline.** Enabling faults consumes no
//!    draws from the workload or selection streams, so a faulty run and
//!    a perfect-middleware run on the same master seed see identical job
//!    arrivals and identical redundancy decisions — the paper's paired
//!    experiment design extends to fault sweeps.
//!
//! The draw *sequence* for one message is fixed by the spec alone (one
//! coin per delivery attempt, one delay sample for the delivering
//! attempt), never by scheduler state, which keeps the stream aligned
//! across configurations that only differ downstream.

use rand::rngs::StdRng;
use rbr_simcore::{unit, Duration, SeedSequence, SimTime};

/// Distribution of a message's in-flight latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Delay {
    /// Delivered at the send instant (the paper's assumption).
    Zero,
    /// Constant latency.
    Fixed(Duration),
    /// Exponentially distributed latency with the given mean.
    Exp {
        /// Mean latency.
        mean: Duration,
    },
    /// Uniform latency in `[lo, hi]`.
    Uniform {
        /// Minimum latency.
        lo: Duration,
        /// Maximum latency.
        hi: Duration,
    },
}

impl Delay {
    /// Draws one latency. [`Delay::Zero`] consumes no randomness; every
    /// other variant consumes exactly one draw.
    pub fn sample(&self, rng: &mut StdRng) -> Duration {
        match *self {
            Delay::Zero => Duration::ZERO,
            Delay::Fixed(d) => d,
            Delay::Exp { mean } => {
                // Inverse-CDF on a [0, 1) draw: u < 1 keeps ln finite.
                let u = unit(rng);
                mean.scale(-(1.0 - u).ln())
            }
            Delay::Uniform { lo, hi } => {
                let u = unit(rng);
                lo + (hi - lo).scale(u)
            }
        }
    }

    /// True for the no-latency distribution.
    pub fn is_zero(&self) -> bool {
        matches!(self, Delay::Zero)
    }

    /// Panics on invalid parameters (negative handled by `Duration`'s
    /// own invariants; this checks ordering and finiteness).
    fn validate(&self, what: &str) {
        if let Delay::Uniform { lo, hi } = self {
            assert!(lo <= hi, "{what} delay: uniform lo must not exceed hi");
        }
    }
}

/// Batching of cancellation messages into shared middleware
/// transactions: instead of dispatching each cancel as its own WS-GRAM
/// round-trip, the metascheduler holds pending cancels and flushes them
/// `size` at a time — or after `deadline`, whichever comes first — as
/// one transaction. Amortizes the per-transaction middleware cost (see
/// `rbr-middleware`'s batch model) at the price of cancellation latency,
/// which the fault path turns into extra zombie compute.
///
/// `size = 1` is the paper's per-op protocol and is treated as fully
/// disabled: the simulator takes its original code path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchSpec {
    /// Operations per transaction; 1 disables batching.
    pub size: u32,
    /// Maximum time the oldest pending operation waits before the batch
    /// is flushed anyway. Must be positive when `size > 1`.
    pub deadline: Duration,
}

impl Default for BatchSpec {
    fn default() -> Self {
        BatchSpec {
            size: 1,
            deadline: Duration::ZERO,
        }
    }
}

impl BatchSpec {
    /// A batch of `size` ops flushed at latest `deadline` after the
    /// oldest pending op.
    pub fn of(size: u32, deadline: Duration) -> Self {
        BatchSpec { size, deadline }
    }

    /// True for the per-op protocol (batching has no effect).
    pub fn is_disabled(&self) -> bool {
        self.size <= 1
    }

    fn validate(&self) {
        assert!(self.size >= 1, "batch size must be at least 1");
        if self.size > 1 {
            assert!(
                !self.deadline.is_zero(),
                "batched cancels need a positive flush deadline"
            );
        }
    }
}

/// One scheduled cluster outage: at `down` the cluster's scheduler loses
/// all state (queued requests evaporate, running copies are killed) and
/// message delivery to the cluster is suspended until `recover`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outage {
    /// Index of the affected cluster.
    pub cluster: usize,
    /// Instant the cluster goes down.
    pub down: SimTime,
    /// Instant the cluster accepts traffic again. Must exceed `down`.
    pub recover: SimTime,
}

/// Full fault configuration of one run. [`FaultSpec::default`] is the
/// perfect middleware of the paper: no loss, no delay, no outages.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability each submission delivery attempt is lost.
    pub submit_loss: f64,
    /// Probability a cancellation message is lost (no retry: orphaned
    /// copies run as zombies until cancelled late or complete).
    pub cancel_loss: f64,
    /// Latency of submission messages.
    pub submit_delay: Delay,
    /// Latency of cancellation messages.
    pub cancel_delay: Delay,
    /// Retries after a lost submission before giving up. Home-cluster
    /// submissions escalate to an out-of-band guaranteed delivery after
    /// the last retry (jobs never vanish); remote copies are dropped.
    pub max_retries: u32,
    /// Initial retry backoff; attempt `k` waits `2^(k-1)` times this.
    pub retry_backoff: Duration,
    /// Scheduled cluster outages. Must be disjoint per cluster.
    pub outages: Vec<Outage>,
    /// Batching of cancellation messages into shared transactions.
    pub cancel_batch: BatchSpec,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            submit_loss: 0.0,
            cancel_loss: 0.0,
            submit_delay: Delay::Zero,
            cancel_delay: Delay::Zero,
            max_retries: 3,
            retry_backoff: Duration::from_secs(5.0),
            outages: Vec::new(),
            cancel_batch: BatchSpec::default(),
        }
    }
}

impl FaultSpec {
    /// True when the spec is the perfect middleware: the simulator then
    /// takes its original code path and results are bit-identical to a
    /// faultless build.
    pub fn is_disabled(&self) -> bool {
        self.submit_loss == 0.0
            && self.cancel_loss == 0.0
            && self.submit_delay.is_zero()
            && self.cancel_delay.is_zero()
            && self.outages.is_empty()
            && self.cancel_batch.is_disabled()
    }

    /// Validates the spec against a platform of `n_clusters` clusters.
    ///
    /// # Panics
    /// Panics on probabilities outside `[0, 1]`, an out-of-range outage
    /// cluster, a non-positive outage window, or overlapping outages on
    /// one cluster.
    pub fn validate(&self, n_clusters: usize) {
        for (p, what) in [(self.submit_loss, "submit"), (self.cancel_loss, "cancel")] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{what} loss probability must be in [0, 1], got {p}"
            );
        }
        self.submit_delay.validate("submit");
        self.cancel_delay.validate("cancel");
        self.cancel_batch.validate();
        if self.submit_loss > 0.0 {
            assert!(
                !self.retry_backoff.is_zero(),
                "retry backoff must be positive when submissions can be lost"
            );
        }
        assert!(
            self.max_retries <= 32,
            "max_retries beyond 32 would overflow the exponential backoff"
        );
        let mut per_cluster: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n_clusters];
        for o in &self.outages {
            assert!(
                o.cluster < n_clusters,
                "outage cluster {} out of range (platform has {n_clusters})",
                o.cluster
            );
            assert!(
                o.recover > o.down,
                "outage on cluster {} must recover after it goes down",
                o.cluster
            );
            per_cluster[o.cluster].push((o.down, o.recover));
        }
        for (c, windows) in per_cluster.iter_mut().enumerate() {
            windows.sort();
            for pair in windows.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlapping outages on cluster {c}");
            }
        }
    }
}

/// Outcome of dispatching one submission through the faulty middleware.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubmitOutcome {
    /// Instant the submission reaches the scheduler, or `None` if every
    /// attempt was lost and the copy was dropped.
    pub delivery: Option<SimTime>,
    /// Delivery attempts that were lost along the way.
    pub lost_attempts: u32,
}

/// Outcome of dispatching one cancellation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CancelOutcome {
    /// Instant the cancellation reaches the scheduler, or `None` if the
    /// message was lost (cancellations are fire-and-forget).
    pub delivery: Option<SimTime>,
}

/// The runtime fault sampler: owns the spec and the dedicated random
/// stream. See the crate docs for the determinism contract.
#[derive(Clone, Debug)]
pub struct FaultModel {
    spec: FaultSpec,
    rng: StdRng,
}

impl FaultModel {
    /// Builds the model on its dedicated seed stream.
    pub fn new(spec: FaultSpec, stream: SeedSequence) -> Self {
        FaultModel {
            spec,
            rng: stream.rng(),
        }
    }

    /// The configuration this model samples from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Plans delivery of a submission sent at `now`.
    ///
    /// Attempt `k` (0-based) is dispatched once the sender's exponential
    /// backoff has elapsed — `retry_backoff · (2^k − 1)` after `now` —
    /// and survives with probability `1 − submit_loss`. The first
    /// surviving attempt delivers after one sampled [`Delay`]. When all
    /// `max_retries + 1` attempts are lost: with `guaranteed` (home
    /// copies) one final out-of-band delivery happens after a last
    /// backoff period, otherwise the copy is dropped.
    pub fn plan_submit(&mut self, now: SimTime, guaranteed: bool) -> SubmitOutcome {
        let mut lost = 0u32;
        for attempt in 0..=self.spec.max_retries {
            let dispatched = now + self.backoff_until(attempt);
            if self.spec.submit_loss < 1.0
                && (self.spec.submit_loss <= 0.0 || unit(&mut self.rng) >= self.spec.submit_loss)
            {
                let latency = self.spec.submit_delay.sample(&mut self.rng);
                return SubmitOutcome {
                    delivery: Some(dispatched + latency),
                    lost_attempts: lost,
                };
            }
            lost += 1;
        }
        if guaranteed {
            let dispatched = now + self.backoff_until(self.spec.max_retries + 1);
            let latency = self.spec.submit_delay.sample(&mut self.rng);
            SubmitOutcome {
                delivery: Some(dispatched + latency),
                lost_attempts: lost,
            }
        } else {
            SubmitOutcome {
                delivery: None,
                lost_attempts: lost,
            }
        }
    }

    /// Plans delivery of a cancellation sent at `now`: lost with
    /// probability `cancel_loss`, otherwise delivered after one sampled
    /// [`Delay`].
    pub fn plan_cancel(&mut self, now: SimTime) -> CancelOutcome {
        let lost = self.spec.cancel_loss >= 1.0
            || (self.spec.cancel_loss > 0.0 && unit(&mut self.rng) < self.spec.cancel_loss);
        if lost {
            CancelOutcome { delivery: None }
        } else {
            let latency = self.spec.cancel_delay.sample(&mut self.rng);
            CancelOutcome {
                delivery: Some(now + latency),
            }
        }
    }

    /// Cumulative backoff before attempt `k` is dispatched:
    /// `retry_backoff · (2^k − 1)`.
    fn backoff_until(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            Duration::ZERO
        } else {
            self.spec
                .retry_backoff
                .scale((1u64 << attempt) as f64 - 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(spec: FaultSpec) -> FaultModel {
        FaultModel::new(spec, SeedSequence::new(99).child(5))
    }

    #[test]
    fn default_spec_is_disabled_and_valid() {
        let spec = FaultSpec::default();
        assert!(spec.is_disabled());
        spec.validate(4);
    }

    #[test]
    fn any_single_fault_enables_the_spec() {
        for spec in [
            FaultSpec {
                submit_loss: 0.1,
                ..FaultSpec::default()
            },
            FaultSpec {
                cancel_loss: 0.1,
                ..FaultSpec::default()
            },
            FaultSpec {
                cancel_delay: Delay::Fixed(Duration::from_secs(1.0)),
                ..FaultSpec::default()
            },
            FaultSpec {
                outages: vec![Outage {
                    cluster: 0,
                    down: SimTime::from_secs(10.0),
                    recover: SimTime::from_secs(20.0),
                }],
                ..FaultSpec::default()
            },
            FaultSpec {
                cancel_batch: BatchSpec::of(8, Duration::from_secs(30.0)),
                ..FaultSpec::default()
            },
        ] {
            assert!(!spec.is_disabled(), "{spec:?}");
        }
    }

    #[test]
    fn perfect_middleware_delivers_instantly_without_draws() {
        let mut m = model(FaultSpec::default());
        let now = SimTime::from_secs(100.0);
        let s = m.plan_submit(now, false);
        assert_eq!(s.delivery, Some(now));
        assert_eq!(s.lost_attempts, 0);
        let c = m.plan_cancel(now);
        assert_eq!(c.delivery, Some(now));
        // No randomness consumed: a fresh model on the same stream draws
        // the same next value.
        let mut fresh = model(FaultSpec::default());
        assert_eq!(
            m.plan_cancel(SimTime::ZERO).delivery,
            fresh.plan_cancel(SimTime::ZERO).delivery
        );
    }

    #[test]
    fn certain_loss_drops_remote_and_escalates_home() {
        let spec = FaultSpec {
            submit_loss: 1.0,
            max_retries: 2,
            retry_backoff: Duration::from_secs(5.0),
            ..FaultSpec::default()
        };
        let mut m = model(spec);
        let now = SimTime::from_secs(50.0);
        let remote = m.plan_submit(now, false);
        assert_eq!(remote.delivery, None);
        assert_eq!(remote.lost_attempts, 3);
        let home = m.plan_submit(now, true);
        // Escalation dispatches after backoff 5·(2³−1) = 35 s.
        assert_eq!(home.delivery, Some(now + Duration::from_secs(35.0)));
        assert_eq!(home.lost_attempts, 3);
    }

    #[test]
    fn retries_follow_exponential_backoff() {
        let spec = FaultSpec {
            submit_loss: 0.5,
            max_retries: 8,
            retry_backoff: Duration::from_secs(2.0),
            ..FaultSpec::default()
        };
        let mut m = model(spec);
        let now = SimTime::from_secs(0.0);
        for _ in 0..200 {
            let s = m.plan_submit(now, true);
            let t = s.delivery.expect("guaranteed delivery");
            // Delivery instant must sit exactly on a backoff boundary
            // (zero delay distribution).
            let k = s.lost_attempts;
            let expected = now + Duration::from_secs(2.0 * ((1u64 << k) as f64 - 1.0));
            assert_eq!(t, expected, "attempt {k}");
        }
    }

    #[test]
    fn cancel_loss_rate_matches_probability() {
        let spec = FaultSpec {
            cancel_loss: 0.3,
            ..FaultSpec::default()
        };
        let mut m = model(spec);
        let n = 20_000;
        let lost = (0..n)
            .filter(|_| m.plan_cancel(SimTime::ZERO).delivery.is_none())
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn delay_distributions_sample_sanely() {
        let mut rng = SeedSequence::new(3).child(0).rng();
        assert_eq!(Delay::Zero.sample(&mut rng), Duration::ZERO);
        assert_eq!(
            Delay::Fixed(Duration::from_secs(4.0)).sample(&mut rng),
            Duration::from_secs(4.0)
        );
        let exp = Delay::Exp {
            mean: Duration::from_secs(10.0),
        };
        let mean: f64 = (0..50_000)
            .map(|_| exp.sample(&mut rng).as_secs())
            .sum::<f64>()
            / 50_000.0;
        assert!((mean - 10.0).abs() < 0.5, "exp mean {mean}");
        let uni = Delay::Uniform {
            lo: Duration::from_secs(1.0),
            hi: Duration::from_secs(3.0),
        };
        for _ in 0..1_000 {
            let d = uni.sample(&mut rng).as_secs();
            assert!((1.0..=3.0).contains(&d), "uniform sample {d}");
        }
    }

    #[test]
    fn identical_streams_give_identical_plans() {
        let spec = FaultSpec {
            submit_loss: 0.4,
            cancel_loss: 0.4,
            submit_delay: Delay::Exp {
                mean: Duration::from_secs(2.0),
            },
            cancel_delay: Delay::Uniform {
                lo: Duration::ZERO,
                hi: Duration::from_secs(9.0),
            },
            ..FaultSpec::default()
        };
        let mut a = model(spec.clone());
        let mut b = model(spec);
        for i in 0..500 {
            let now = SimTime::from_secs(i as f64);
            assert_eq!(
                a.plan_submit(now, i % 2 == 0),
                b.plan_submit(now, i % 2 == 0)
            );
            assert_eq!(a.plan_cancel(now), b.plan_cancel(now));
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        FaultSpec {
            submit_loss: 1.5,
            ..FaultSpec::default()
        }
        .validate(1);
    }

    #[test]
    #[should_panic(expected = "overlapping outages")]
    fn overlapping_outages_rejected() {
        FaultSpec {
            outages: vec![
                Outage {
                    cluster: 0,
                    down: SimTime::from_secs(0.0),
                    recover: SimTime::from_secs(100.0),
                },
                Outage {
                    cluster: 0,
                    down: SimTime::from_secs(50.0),
                    recover: SimTime::from_secs(150.0),
                },
            ],
            ..FaultSpec::default()
        }
        .validate(2);
    }

    #[test]
    fn unit_batch_is_disabled_even_with_deadline() {
        let spec = FaultSpec {
            cancel_batch: BatchSpec::of(1, Duration::from_secs(60.0)),
            ..FaultSpec::default()
        };
        assert!(spec.is_disabled());
        spec.validate(2);
    }

    #[test]
    #[should_panic(expected = "positive flush deadline")]
    fn batching_requires_a_deadline() {
        FaultSpec {
            cancel_batch: BatchSpec::of(4, Duration::ZERO),
            ..FaultSpec::default()
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outage_cluster_bounds_checked() {
        FaultSpec {
            outages: vec![Outage {
                cluster: 7,
                down: SimTime::ZERO,
                recover: SimTime::from_secs(1.0),
            }],
            ..FaultSpec::default()
        }
        .validate(2);
    }
}
