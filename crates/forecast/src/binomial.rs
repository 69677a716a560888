//! The Binomial Method quantile-bound predictor.
//!
//! Given `n` historical observations, the `k`-th order statistic (sorted
//! ascending, 1-based) is an upper bound on the population's `q`-quantile
//! with confidence equal to the probability that a Binomial(n, q) draw is
//! strictly less than `k`. The predictor keeps a sliding window of
//! observations and returns the smallest order statistic achieving the
//! requested confidence — exactly the machinery proposed for
//! batch-queue delay bounds by Brevik, Nurmi & Wolski (PPoPP 2006).

use std::collections::VecDeque;

/// Sliding-window binomial quantile-bound predictor.
///
/// The window is kept twice: in arrival order, to know which wait to
/// evict, and sorted, so a prediction is one index. Equal waits (`0.0`
/// and `-0.0` among them) sit in the sorted copy in arrival order, the
/// order a stable sort of the window would give: the oldest is evicted
/// from the front of its run of equals and a new wait joins at the back.
#[derive(Clone, Debug)]
pub struct QuantilePredictor {
    quantile: f64,
    confidence: f64,
    capacity: usize,
    history: VecDeque<f64>,
    sorted: Vec<f64>,
    /// The bound's 1-based order statistic at the current window
    /// length; `None` while no order statistic reaches the confidence.
    rank: Option<usize>,
}

impl QuantilePredictor {
    /// Creates a predictor for an upper bound on the `quantile`-quantile
    /// with the given `confidence`, over a sliding window of at most
    /// `capacity` observations.
    ///
    /// # Panics
    /// Panics unless `quantile` and `confidence` are in `(0, 1)` and
    /// `capacity > 0`.
    pub fn new(quantile: f64, confidence: f64, capacity: usize) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1), got {quantile}"
        );
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1), got {confidence}"
        );
        assert!(capacity > 0, "window capacity must be positive");
        QuantilePredictor {
            quantile,
            confidence,
            capacity,
            history: VecDeque::new(),
            sorted: Vec::new(),
            rank: None,
        }
    }

    /// The canonical configuration of the original work: an upper bound
    /// on the 95th-percentile wait with 95 % confidence.
    pub fn qbets_default() -> Self {
        QuantilePredictor::new(0.95, 0.95, 512)
    }

    /// Records one observed wait (seconds).
    ///
    /// # Panics
    /// Panics on negative or non-finite observations.
    pub fn observe(&mut self, wait_secs: f64) {
        assert!(
            wait_secs.is_finite() && wait_secs >= 0.0,
            "waits must be finite and non-negative, got {wait_secs}"
        );
        if self.history.len() == self.capacity {
            let old = self.history.pop_front().expect("a full window");
            let at = self.sorted.partition_point(|&x| x < old);
            self.sorted.remove(at);
        } else {
            let n = self.history.len() + 1;
            self.rank = if n < self.min_observations() {
                None
            } else {
                smallest_k(n, self.quantile, self.confidence)
            };
        }
        self.history.push_back(wait_secs);
        let at = self.sorted.partition_point(|&x| x <= wait_secs);
        self.sorted.insert(at, wait_secs);
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The smallest number of observations at which a bound exists: the
    /// maximum order statistic must itself clear the confidence bar,
    /// i.e. `1 − q^n ≥ confidence`.
    pub fn min_observations(&self) -> usize {
        // n ≥ ln(1 − c) / ln(q)
        ((1.0 - self.confidence).ln() / self.quantile.ln()).ceil() as usize
    }

    /// The current upper bound on the target quantile of the next wait,
    /// or `None` if no order statistic of the window reaches the
    /// requested confidence.
    pub fn predict(&self) -> Option<f64> {
        self.rank.map(|k| self.sorted[k - 1])
    }
}

/// Smallest 1-based `k` such that `P[Binomial(n, q) < k] ≥ confidence`,
/// i.e. the k-th order statistic upper-bounds the q-quantile with the
/// requested confidence. `None` if even `k = n` does not reach it.
fn smallest_k(n: usize, q: f64, confidence: f64) -> Option<usize> {
    // Walk the binomial CDF with the standard recurrence in linear
    // space, stopping as soon as it crosses the confidence. The walk
    // starts from P[X = 0] = (1 − q)^n, which underflows for long
    // windows: at q = 0.95 it is subnormal at n = 248 and zero from
    // n = 249 on, and no bound exists from n = 248.
    let mut pmf = (1.0 - q).powi(n as i32); // P[X = 0]
    let mut cdf = pmf;
    if cdf >= confidence {
        return Some(1);
    }
    for x in 0..n {
        // pmf(x+1) = pmf(x) · (n−x)/(x+1) · q/(1−q)
        pmf *= (n - x) as f64 / (x + 1) as f64 * (q / (1.0 - q));
        cdf += pmf;
        let k = x + 2; // bound strictly above X = x+1 needs k = x+2
        if k > n {
            break;
        }
        if cdf >= confidence {
            return Some(k);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The computation the sorted window replaces: copy the window,
    /// stable-sort it and take the order statistic the binomial CDF
    /// picks.
    fn stable_sort_bound(p: &QuantilePredictor, window: &VecDeque<f64>) -> Option<f64> {
        let n = window.len();
        if n < p.min_observations() {
            return None;
        }
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("observations are finite"));
        let k = smallest_k(n, p.quantile, p.confidence)?;
        Some(sorted[k - 1])
    }

    /// Waits are drawn from the first `span` of these, so ties are
    /// common; `0.0` and `-0.0` compare equal but differ in their bits,
    /// and with `span = 2` every bound is one of them.
    const TIED_WAITS: [f64; 6] = [0.0, -0.0, 0.5, 1.0, 7.0, 3_600.0];

    proptest! {
        /// After every observation, `predict` returns the bits the
        /// stable sort of the window gives, through the warm-up, the
        /// window lengths with and without a bound, and three or more
        /// wraps of the window.
        #[test]
        fn sorted_window_matches_a_stable_sort(
            capacity in 0usize..5,
            params in 0usize..3,
            span in 2usize..=TIED_WAITS.len(),
            picks in prop::collection::vec(0usize..TIED_WAITS.len(), 3 * 512..=4 * 512),
        ) {
            let capacity = [1, 2, 59, 64, 512][capacity];
            let (q, c) = [(0.95, 0.95), (0.9, 0.9), (0.5, 0.8)][params];
            let mut p = QuantilePredictor::new(q, c, capacity);
            let mut window = VecDeque::new();
            for pick in picks {
                let w = TIED_WAITS[pick % span];
                p.observe(w);
                if window.len() == capacity {
                    window.pop_front();
                }
                window.push_back(w);
                prop_assert_eq!(
                    p.predict().map(f64::to_bits),
                    stable_sort_bound(&p, &window).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn smallest_k_matches_hand_computation() {
        // n = 3, q = 0.5: CDF at X<1 is 0.125, X<2 is 0.5, X<3 is 0.875.
        assert_eq!(smallest_k(3, 0.5, 0.8), Some(3));
        assert_eq!(smallest_k(3, 0.5, 0.4), Some(2));
        assert_eq!(smallest_k(3, 0.5, 0.9), None);
    }

    #[test]
    fn min_observations_for_qbets_default() {
        let p = QuantilePredictor::qbets_default();
        // 1 − 0.95^n ≥ 0.95 → n ≥ 59 (ln 0.05 / ln 0.95 ≈ 58.4).
        assert_eq!(p.min_observations(), 59);
    }

    #[test]
    fn no_prediction_until_enough_history() {
        let mut p = QuantilePredictor::qbets_default();
        for i in 0..58 {
            p.observe(i as f64);
            assert!(p.predict().is_none(), "premature bound at n = {}", i + 1);
        }
        p.observe(58.0);
        assert!(p.predict().is_some());
    }

    #[test]
    fn bound_is_an_upper_order_statistic() {
        let mut p = QuantilePredictor::new(0.5, 0.9, 1_000);
        for i in 1..=100 {
            p.observe(i as f64);
        }
        let bound = p.predict().expect("enough history");
        // Median bound with 90% confidence over 1..=100: above the median,
        // at most the maximum.
        assert!(bound > 50.0 && bound <= 100.0, "bound {bound}");
    }

    #[test]
    fn sliding_window_forgets_old_observations() {
        let mut p = QuantilePredictor::new(0.5, 0.8, 100);
        for _ in 0..100 {
            p.observe(1_000.0);
        }
        for _ in 0..100 {
            p.observe(1.0);
        }
        assert_eq!(p.len(), 100);
        let bound = p.predict().unwrap();
        assert_eq!(bound, 1.0, "window must have slid past the large waits");
    }

    /// Empirical coverage: for iid waits, the bound must cover the true
    /// quantile at least `confidence` of the time.
    #[test]
    fn empirical_coverage_holds() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut covered = 0;
        let trials = 300;
        for _ in 0..trials {
            let mut p = QuantilePredictor::new(0.8, 0.9, 512);
            for _ in 0..200 {
                p.observe(rng.random::<f64>()); // U(0,1): 0.8-quantile = 0.8
            }
            if p.predict().unwrap() >= 0.8 {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate >= 0.85, "coverage {rate} below confidence");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_wait_rejected() {
        let mut p = QuantilePredictor::qbets_default();
        p.observe(-1.0);
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn invalid_quantile_rejected() {
        let _ = QuantilePredictor::new(1.0, 0.9, 10);
    }
}
