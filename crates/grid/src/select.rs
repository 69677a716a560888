//! Remote-cluster selection policies.
//!
//! The paper's default "merely reflects the fact that different users have
//! accounts on different clusters": remote targets are drawn uniformly at
//! random. Table 2 repeats the experiment with a heavily biased
//! (geometric) account distribution. The least-loaded policy reproduces
//! the metascheduler behaviour of the related work (Subramani et al.) as
//! a comparison baseline.

use rand::Rng;
use rbr_simcore::unit;

/// How a redundant job picks its remote clusters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectionPolicy {
    /// Uniformly at random among eligible remote clusters.
    Uniform,
    /// Geometrically biased by cluster index: cluster `C₁` is `ratio`
    /// times as likely as `C₂`, which is `ratio` times as likely as `C₃`,
    /// and so on (the paper's Table 2 uses `ratio = 2`).
    Biased {
        /// Successive likelihood ratio (> 1 biases towards low-index
        /// clusters).
        ratio: f64,
    },
    /// The metascheduler baseline: pick the eligible clusters with the
    /// shortest batch queues (ties broken by cluster index).
    LeastLoaded,
}

/// Reusable buffers for [`SelectionPolicy::choose_into`]. Selection runs
/// once per redundant job, so the driver-side protocols keep one of these
/// alive for the whole run instead of allocating per call.
#[derive(Clone, Debug, Default)]
pub struct SelectionScratch {
    pool: Vec<usize>,
    weights: Vec<f64>,
}

impl SelectionPolicy {
    /// Chooses up to `k` distinct clusters from `eligible` (global cluster
    /// indices). `queue_lens[c]` is the current queue length of cluster
    /// `c`, used only by `LeastLoaded`.
    ///
    /// Returns fewer than `k` targets when fewer clusters are eligible.
    pub fn choose<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        eligible: &[usize],
        k: usize,
        queue_lens: &[usize],
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.choose_into(
            rng,
            eligible,
            k,
            queue_lens,
            &mut SelectionScratch::default(),
            &mut out,
        );
        out
    }

    /// [`SelectionPolicy::choose`] without per-call allocation: chosen
    /// clusters are appended to `out` (draw sequence and result order are
    /// identical to `choose`).
    pub fn choose_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        eligible: &[usize],
        k: usize,
        queue_lens: &[usize],
        scratch: &mut SelectionScratch,
        out: &mut Vec<usize>,
    ) {
        let k = k.min(eligible.len());
        if k == 0 {
            return;
        }
        match *self {
            SelectionPolicy::Uniform => {
                weighted_without_replacement(rng, eligible, k, |_| 1.0, scratch, out)
            }
            SelectionPolicy::Biased { ratio } => {
                assert!(
                    ratio.is_finite() && ratio > 0.0,
                    "bias ratio must be positive, got {ratio}"
                );
                // Weight 1/ratio^index, normalized implicitly.
                weighted_without_replacement(
                    rng,
                    eligible,
                    k,
                    |c| ratio.powi(-(c as i32)),
                    scratch,
                    out,
                )
            }
            SelectionPolicy::LeastLoaded => {
                scratch.pool.clear();
                scratch.pool.extend_from_slice(eligible);
                scratch
                    .pool
                    .sort_by_key(|&c| (queue_lens.get(c).copied().unwrap_or(usize::MAX), c));
                out.extend_from_slice(&scratch.pool[..k]);
            }
        }
    }
}

/// Weighted sampling of `k` distinct items by sequential draws, appended
/// to `out`.
fn weighted_without_replacement<R: Rng + ?Sized>(
    rng: &mut R,
    items: &[usize],
    k: usize,
    weight: impl Fn(usize) -> f64,
    scratch: &mut SelectionScratch,
    out: &mut Vec<usize>,
) {
    let SelectionScratch { pool, weights } = scratch;
    pool.clear();
    pool.extend_from_slice(items);
    weights.clear();
    weights.extend(items.iter().map(|&c| weight(c)));
    for _ in 0..k {
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0, "selection weights summed to zero");
        let mut x = unit(rng) * total;
        let mut idx = pool.len() - 1; // fall back to last under rounding
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                idx = i;
                break;
            }
            x -= w;
        }
        out.push(pool.swap_remove(idx));
        weights.swap_remove(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_simcore::SeedSequence;

    #[test]
    fn uniform_returns_distinct_targets() {
        let mut rng = SeedSequence::new(60).rng();
        let eligible: Vec<usize> = (0..10).collect();
        for _ in 0..1000 {
            let picks = SelectionPolicy::Uniform.choose(&mut rng, &eligible, 4, &[]);
            assert_eq!(picks.len(), 4);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicate target in {picks:?}");
        }
    }

    #[test]
    fn k_capped_by_eligible_count() {
        let mut rng = SeedSequence::new(61).rng();
        let picks = SelectionPolicy::Uniform.choose(&mut rng, &[3, 7], 5, &[]);
        assert_eq!(picks.len(), 2);
        assert!(SelectionPolicy::Uniform
            .choose(&mut rng, &[], 3, &[])
            .is_empty());
    }

    #[test]
    fn uniform_is_roughly_balanced() {
        let mut rng = SeedSequence::new(62).rng();
        let eligible: Vec<usize> = (0..5).collect();
        let mut counts = [0u32; 5];
        let n = 50_000;
        for _ in 0..n {
            for c in SelectionPolicy::Uniform.choose(&mut rng, &eligible, 1, &[]) {
                counts[c] += 1;
            }
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.01, "fraction {frac}");
        }
    }

    #[test]
    fn biased_prefers_low_indices_geometrically() {
        let mut rng = SeedSequence::new(63).rng();
        let eligible: Vec<usize> = (0..8).collect();
        let mut counts = [0u32; 8];
        let n = 200_000;
        let policy = SelectionPolicy::Biased { ratio: 2.0 };
        for _ in 0..n {
            for c in policy.choose(&mut rng, &eligible, 1, &[]) {
                counts[c] += 1;
            }
        }
        // P(C_i) should be ≈ 2 × P(C_{i+1}).
        for i in 0..6 {
            let ratio = counts[i] as f64 / counts[i + 1] as f64;
            assert!(
                (1.8..2.2).contains(&ratio),
                "cluster {i} vs {}: ratio {ratio}",
                i + 1
            );
        }
    }

    #[test]
    fn least_loaded_picks_shortest_queues() {
        let mut rng = SeedSequence::new(64).rng();
        let queue_lens = vec![9, 2, 7, 0, 5];
        let picks = SelectionPolicy::LeastLoaded.choose(&mut rng, &[0, 1, 2, 3, 4], 2, &queue_lens);
        assert_eq!(picks, vec![3, 1]);
    }

    #[test]
    fn least_loaded_breaks_ties_by_index() {
        let mut rng = SeedSequence::new(65).rng();
        let queue_lens = vec![1, 1, 1];
        let picks = SelectionPolicy::LeastLoaded.choose(&mut rng, &[2, 0, 1], 2, &queue_lens);
        assert_eq!(picks, vec![0, 1]);
    }
}
