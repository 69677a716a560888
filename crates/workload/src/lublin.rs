//! The Lublin–Feitelson batch workload model.
//!
//! Structure (faithful to the published model and to the paper's summary
//! of it):
//!
//! * interarrival times: `Gamma(α, β)` — the paper's "peak hour" model,
//!   α = 10.23, β = 0.49, mean α·β = 5.01 s;
//! * node counts: serial with probability `serial_prob`; otherwise the
//!   log₂ of the size is drawn from a two-stage uniform over
//!   `[low, med, log₂(max_nodes)]` and the result is rounded to a power of
//!   two with probability `pow2_prob`;
//! * runtimes: `exp(X)` where `X` is hyper-Gamma with components
//!   `(shape₁, scale₁)` and `(shape₂, scale₂)` and first-component
//!   probability `p(n) = pa·n + pb` — bigger jobs lean towards the
//!   long-running component.
//!
//! The numeric constants of the original model were fit to 1990s
//! supercomputer logs that we cannot consult offline; the constants in
//! [`LublinConfig::paper_2006`] keep the published *structure* and the
//! paper-specified arrival parameters, with runtime/size constants
//! calibrated so that a 128-node cluster is moderately overloaded at the
//! 5 s peak arrival rate (queues build during the submission window, as
//! the paper describes) while the no-redundancy baseline stretch stays in
//! the O(10) range shown in the paper's Figure 4. See DESIGN.md.

use rand::Rng;
use rbr_dist::{Gamma, HyperGamma, Sample, TwoStageUniform};
use rbr_simcore::{unit, Duration, SimTime};

use crate::estimate::EstimateModel;
use crate::job::JobSpec;

/// All constants of the Lublin workload model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LublinConfig {
    /// Shape α of the Gamma interarrival distribution.
    pub interarrival_shape: f64,
    /// Scale β of the Gamma interarrival distribution.
    pub interarrival_scale: f64,
    /// Probability that a job is serial (1 node).
    pub serial_prob: f64,
    /// Probability that a parallel job size is rounded to a power of two.
    pub pow2_prob: f64,
    /// Lower breakpoint of the two-stage log₂-size distribution.
    pub size_log2_low: f64,
    /// Middle breakpoint of the two-stage log₂-size distribution.
    pub size_log2_med: f64,
    /// Probability of the lower band in the two-stage size distribution.
    pub size_log2_prob: f64,
    /// Shape of the short-job log-runtime Gamma component.
    pub rt_shape1: f64,
    /// Scale of the short-job log-runtime Gamma component.
    pub rt_scale1: f64,
    /// Shape of the long-job log-runtime Gamma component.
    pub rt_shape2: f64,
    /// Scale of the long-job log-runtime Gamma component.
    pub rt_scale2: f64,
    /// Slope of `p(n) = pa·n + pb`, the probability of the short
    /// component as a function of node count.
    pub rt_pa: f64,
    /// Intercept of `p(n)`.
    pub rt_pb: f64,
    /// Multiplier applied to runtimes after the hyper-Gamma draw — the
    /// single calibration knob for offered load (see DESIGN.md).
    pub runtime_scale: f64,
    /// Runtimes are clamped below by this bound.
    pub min_runtime: Duration,
    /// Runtimes are clamped above by this bound (the original model also
    /// caps runtimes at the machine's policy limit).
    pub max_runtime: Duration,
    /// Cluster size: jobs never request more nodes than this.
    pub max_nodes: u32,
}

impl LublinConfig {
    /// The calibrated configuration used throughout the paper-reproduction
    /// experiments: a 128-node cluster with the paper's peak-hour arrival
    /// process.
    pub fn paper_2006() -> Self {
        LublinConfig {
            interarrival_shape: 10.23,
            interarrival_scale: 0.49,
            serial_prob: 0.55,
            pow2_prob: 0.75,
            size_log2_low: 0.8,
            size_log2_med: 2.5,
            size_log2_prob: 0.86,
            rt_shape1: 100.0,
            rt_scale1: 0.04,
            rt_shape2: 100.0,
            rt_scale2: 0.055,
            rt_pa: -0.0054,
            rt_pb: 0.78,
            runtime_scale: 1.0,
            min_runtime: Duration::from_secs(1.0),
            max_runtime: Duration::from_secs(36_000.0),
            max_nodes: 128,
        }
    }

    /// Same model on a cluster of a different size (Table 3 draws cluster
    /// sizes from {16, 32, 64, 128, 256}).
    pub fn with_max_nodes(mut self, max_nodes: u32) -> Self {
        assert!(max_nodes >= 1, "cluster must have at least one node");
        self.max_nodes = max_nodes;
        self
    }

    /// Changes the interarrival shape α, keeping β — exactly the Figure 3
    /// sweep ("we vary the value of α from 4 to 20, leading to interarrival
    /// times between approximately 2 and 10 seconds").
    pub fn with_interarrival_shape(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "interarrival shape must be positive");
        self.interarrival_shape = alpha;
        self
    }

    /// Rescales β so that the mean interarrival time equals `mean`
    /// seconds (Table 3 draws cluster arrival rates from U(2 s, 20 s)).
    pub fn with_mean_interarrival(mut self, mean: f64) -> Self {
        assert!(mean > 0.0, "mean interarrival must be positive");
        self.interarrival_scale = mean / self.interarrival_shape;
        self
    }

    /// Mean interarrival time α·β in seconds.
    pub fn mean_interarrival(&self) -> f64 {
        self.interarrival_shape * self.interarrival_scale
    }
}

/// A sampler for the Lublin model.
#[derive(Clone, Debug)]
pub struct LublinModel {
    config: LublinConfig,
    interarrival: Gamma,
    size_log2: TwoStageUniform,
    runtime_log: HyperGamma,
}

impl LublinModel {
    /// Builds a sampler from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is internally inconsistent (e.g. the
    /// size breakpoints exceed `log₂(max_nodes)`).
    pub fn new(config: LublinConfig) -> Self {
        let hi = (config.max_nodes as f64).log2();
        let med = config.size_log2_med.min(hi);
        let low = config.size_log2_low.min(med);
        LublinModel {
            interarrival: Gamma::new(config.interarrival_shape, config.interarrival_scale),
            size_log2: TwoStageUniform::new(low, med, hi, config.size_log2_prob),
            runtime_log: HyperGamma::new(
                config.rt_shape1,
                config.rt_scale1,
                config.rt_shape2,
                config.rt_scale2,
                1.0,
            ),
            config,
        }
    }

    /// The configuration this sampler was built from.
    pub fn config(&self) -> &LublinConfig {
        &self.config
    }

    /// Draws one interarrival gap.
    pub fn sample_interarrival<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        Duration::from_secs(self.interarrival.sample(rng).max(1e-6))
    }

    /// Draws one job size (node count).
    pub fn sample_nodes<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if self.config.max_nodes == 1 || unit(rng) < self.config.serial_prob {
            return 1;
        }
        let l = self.size_log2.sample(rng);
        let nodes = if unit(rng) < self.config.pow2_prob {
            // Round in log space → nearest power of two.
            1u64 << (l.round().max(0.0) as u32)
        } else {
            (2f64.powf(l)).round().max(1.0) as u64
        };
        (nodes.min(self.config.max_nodes as u64) as u32).max(1)
    }

    /// Draws one runtime for a job of the given size.
    pub fn sample_runtime<R: Rng + ?Sized>(&self, rng: &mut R, nodes: u32) -> Duration {
        let p = (self.config.rt_pa * nodes as f64 + self.config.rt_pb).clamp(0.0, 1.0);
        let log_rt = self.runtime_log.with_p(p).sample(rng);
        // Clamp in seconds space between the configured policy bounds.
        let secs = log_rt.exp() * self.config.runtime_scale;
        let rt = Duration::from_secs(secs.min(self.config.max_runtime.as_secs()));
        rt.max(self.config.min_runtime).min(self.config.max_runtime)
    }

    /// Draws one complete job arriving at `arrival`.
    pub fn sample_job<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        arrival: SimTime,
        estimate_model: &EstimateModel,
    ) -> JobSpec {
        let nodes = self.sample_nodes(rng);
        let runtime = self.sample_runtime(rng, nodes);
        let estimate = estimate_model.estimate(runtime, rng);
        JobSpec::new(arrival, nodes, runtime, estimate)
    }

    /// Streams the jobs arriving during `[0, window)` lazily, one at a
    /// time, in exactly the draw order of [`LublinModel::generate`] —
    /// the same seed produces the identical job sequence whether
    /// collected or streamed. Loadgen and large campaigns use this to
    /// replay arrival streams without materializing a full trace.
    pub fn stream<'a, R: Rng + ?Sized>(
        &'a self,
        rng: &'a mut R,
        window: Duration,
        estimate_model: &'a EstimateModel,
    ) -> JobStream<'a, R> {
        JobStream {
            model: self,
            rng,
            estimate_model,
            window,
            t: SimTime::ZERO,
            done: false,
        }
    }

    /// Generates the stream of jobs arriving during `[0, window)`.
    ///
    /// This is the paper's "6 hours of job submissions": arrivals stop at
    /// the window; the simulation later runs until all jobs complete.
    /// A thin collect of [`LublinModel::stream`].
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        window: Duration,
        estimate_model: &EstimateModel,
    ) -> Vec<JobSpec> {
        self.stream(rng, window, estimate_model).collect()
    }

    /// Expected offered load ρ = E[nodes·runtime] / (max_nodes · mean
    /// interarrival), estimated by Monte-Carlo with `n` samples.
    ///
    /// Used in calibration tests: ρ slightly above 1 reproduces the
    /// paper's "queues grow during peak hours" regime.
    pub fn offered_load<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> f64 {
        let mut area = 0.0;
        for _ in 0..n {
            let nodes = self.sample_nodes(rng);
            let rt = self.sample_runtime(rng, nodes);
            area += nodes as f64 * rt.as_secs();
        }
        area / n as f64 / (self.config.max_nodes as f64 * self.config.mean_interarrival())
    }
}

/// Lazy iterator over a Lublin arrival stream: each `next()` draws one
/// interarrival gap and, if the arrival still falls inside the window,
/// one complete job. Ends (permanently) at the first arrival past the
/// window, leaving the borrowed rng positioned exactly where
/// [`LublinModel::generate`] would have left it.
pub struct JobStream<'a, R: Rng + ?Sized> {
    model: &'a LublinModel,
    rng: &'a mut R,
    estimate_model: &'a EstimateModel,
    window: Duration,
    t: SimTime,
    done: bool,
}

impl<R: Rng + ?Sized> Iterator for JobStream<'_, R> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        if self.done {
            return None;
        }
        self.t += self.model.sample_interarrival(self.rng);
        if self.t.since(SimTime::ZERO) >= self.window {
            self.done = true;
            return None;
        }
        Some(self.model.sample_job(self.rng, self.t, self.estimate_model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_simcore::SeedSequence;

    fn model() -> LublinModel {
        LublinModel::new(LublinConfig::paper_2006())
    }

    #[test]
    fn interarrival_mean_matches_paper() {
        let m = model();
        assert!((m.config().mean_interarrival() - 5.0127).abs() < 1e-9);
        let mut rng = SeedSequence::new(40).rng();
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_interarrival(&mut rng).as_secs())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.01).abs() < 0.05, "mean interarrival {mean}");
    }

    #[test]
    fn six_hour_window_yields_about_4000_jobs() {
        let m = model();
        let mut rng = SeedSequence::new(41).rng();
        let jobs = m.generate(&mut rng, Duration::from_hours(6), &EstimateModel::Exact);
        // 21600 s / 5.01 s ≈ 4311 expected.
        assert!(
            (4100..4550).contains(&jobs.len()),
            "got {} jobs",
            jobs.len()
        );
        // Arrivals are sorted and inside the window.
        for w in jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(jobs.last().unwrap().arrival < SimTime::ZERO + Duration::from_hours(6));
    }

    #[test]
    fn node_counts_respect_cluster_size() {
        for max in [1u32, 16, 128, 256] {
            let m = LublinModel::new(LublinConfig::paper_2006().with_max_nodes(max));
            let mut rng = SeedSequence::new(42).rng();
            for _ in 0..20_000 {
                let n = m.sample_nodes(&mut rng);
                assert!((1..=max).contains(&n), "size {n} on {max}-node cluster");
            }
        }
    }

    #[test]
    fn sizes_are_biased_to_powers_of_two() {
        let m = model();
        let mut rng = SeedSequence::new(43).rng();
        let n = 50_000;
        let pow2 = (0..n)
            .map(|_| m.sample_nodes(&mut rng))
            .filter(|s| s.is_power_of_two())
            .count();
        let frac = pow2 as f64 / n as f64;
        // serial (always pow2) + 75 % of parallel jobs, plus accidental
        // power-of-two roundings: well above 0.7.
        assert!(frac > 0.7, "power-of-two fraction {frac}");
    }

    #[test]
    fn serial_fraction_matches_config() {
        let m = model();
        let mut rng = SeedSequence::new(44).rng();
        let n = 100_000;
        let serial = (0..n)
            .map(|_| m.sample_nodes(&mut rng))
            .filter(|&s| s == 1)
            .count();
        let frac = serial as f64 / n as f64;
        // serial_prob plus a tiny mass of parallel jobs rounded down to 1.
        let expected = LublinConfig::paper_2006().serial_prob;
        assert!(
            (expected - 0.01..expected + 0.08).contains(&frac),
            "serial fraction {frac}"
        );
    }

    #[test]
    fn runtimes_are_clamped() {
        let m = model();
        let cfg = *m.config();
        let mut rng = SeedSequence::new(45).rng();
        for _ in 0..50_000 {
            let rt = m.sample_runtime(&mut rng, 8);
            assert!(rt >= cfg.min_runtime && rt <= cfg.max_runtime);
        }
    }

    #[test]
    fn bigger_jobs_run_longer_on_average() {
        let m = model();
        let mut rng = SeedSequence::new(46).rng();
        let n = 40_000;
        let mean_rt = |nodes: u32, rng: &mut rand::rngs::StdRng| {
            (0..n)
                .map(|_| m.sample_runtime(rng, nodes).as_secs())
                .sum::<f64>()
                / n as f64
        };
        let small = mean_rt(1, &mut rng);
        let large = mean_rt(120, &mut rng);
        assert!(
            large > small,
            "p(n) coupling: 120-node mean {large} should exceed 1-node mean {small}"
        );
    }

    #[test]
    fn offered_load_is_moderate_overload() {
        // Calibration guard: the paper's regime is an overloaded peak
        // window. Keep ρ in a band that yields growing queues but O(10)
        // baseline stretches.
        let m = model();
        let mut rng = SeedSequence::new(47).rng();
        let rho = m.offered_load(&mut rng, 200_000);
        assert!(
            (1.05..1.2).contains(&rho),
            "offered load {rho} outside calibration band"
        );
    }

    #[test]
    fn figure3_sweep_changes_mean_interarrival() {
        let c4 = LublinConfig::paper_2006().with_interarrival_shape(4.0);
        let c20 = LublinConfig::paper_2006().with_interarrival_shape(20.0);
        assert!((c4.mean_interarrival() - 1.96).abs() < 1e-9);
        assert!((c20.mean_interarrival() - 9.8).abs() < 1e-9);
    }

    #[test]
    fn with_mean_interarrival_hits_target() {
        let c = LublinConfig::paper_2006().with_mean_interarrival(12.5);
        assert!((c.mean_interarrival() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn estimates_applied_by_sample_job() {
        let m = model();
        let mut rng = SeedSequence::new(48).rng();
        let j = m.sample_job(&mut rng, SimTime::ZERO, &EstimateModel::paper_real());
        assert!(j.estimate >= j.runtime);
    }

    #[test]
    fn stream_is_draw_for_draw_equivalent_to_generate() {
        let m = model();
        let window = Duration::from_secs(3_600.0);
        let est = EstimateModel::paper_real();
        let collected = m.generate(&mut SeedSequence::new(50).rng(), window, &est);
        let mut rng = SeedSequence::new(50).rng();
        let streamed: Vec<JobSpec> = m.stream(&mut rng, window, &est).collect();
        assert_eq!(collected, streamed);
        // The stream leaves the rng exactly where generate would: the
        // next draws from both rngs coincide.
        let mut after_generate = SeedSequence::new(50).rng();
        let _ = m.generate(&mut after_generate, window, &est);
        assert_eq!(
            m.sample_interarrival(&mut rng),
            m.sample_interarrival(&mut after_generate)
        );
    }

    #[test]
    fn stream_is_fused_at_the_window() {
        let m = model();
        let mut rng = SeedSequence::new(51).rng();
        let mut s = m.stream(&mut rng, Duration::from_secs(60.0), &EstimateModel::Exact);
        while s.next().is_some() {}
        assert!(s.next().is_none(), "ended stream must stay ended");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model();
        let a = m.generate(
            &mut SeedSequence::new(49).rng(),
            Duration::from_secs(600.0),
            &EstimateModel::Exact,
        );
        let b = m.generate(
            &mut SeedSequence::new(49).rng(),
            Duration::from_secs(600.0),
            &EstimateModel::Exact,
        );
        assert_eq!(a, b);
    }
}
