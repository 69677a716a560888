//! Redundant-request schemes.
//!
//! Section 3.3 evaluates five schemes — R2, R3, R4, HALF, ALL — "in which
//! a request is sent to 2, 3, 4, half, and all clusters, respectively.
//! One request is always sent to the local cluster."

/// How many clusters a redundant job submits to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No redundancy: the local cluster only (the paper's baseline).
    None,
    /// A fixed number of clusters, local included (`R(2)` = the paper's
    /// R2, and so on).
    R(u32),
    /// Half of the clusters (rounded down, minimum 1).
    Half,
    /// Every cluster.
    All,
}

impl Scheme {
    /// The five redundant schemes of Figure 1, in plot order.
    pub fn paper_schemes() -> [Scheme; 5] {
        [
            Scheme::R(2),
            Scheme::R(3),
            Scheme::R(4),
            Scheme::Half,
            Scheme::All,
        ]
    }

    /// Total number of requests (local copy included) on a platform of
    /// `n_clusters` clusters. Always in `[1, n_clusters]`.
    ///
    /// # Panics
    /// Panics if `n_clusters == 0` or the scheme is `R(0)`.
    pub fn copies(&self, n_clusters: usize) -> usize {
        assert!(n_clusters > 0, "a platform needs at least one cluster");
        let raw = match *self {
            Scheme::None => 1,
            Scheme::R(k) => {
                assert!(k > 0, "R(0) is not a scheme");
                k as usize
            }
            Scheme::Half => (n_clusters / 2).max(1),
            Scheme::All => n_clusters,
        };
        raw.min(n_clusters)
    }

    /// True if the scheme sends more than the local request on a platform
    /// of `n_clusters`.
    pub fn is_redundant(&self, n_clusters: usize) -> bool {
        self.copies(n_clusters) > 1
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::None => write!(f, "NONE"),
            Scheme::R(k) => write!(f, "R{k}"),
            Scheme::Half => write!(f, "HALF"),
            Scheme::All => write!(f, "ALL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_match_paper_definitions() {
        assert_eq!(Scheme::None.copies(10), 1);
        assert_eq!(Scheme::R(2).copies(10), 2);
        assert_eq!(Scheme::R(4).copies(10), 4);
        assert_eq!(Scheme::Half.copies(10), 5);
        assert_eq!(Scheme::All.copies(10), 10);
        assert_eq!(Scheme::Half.copies(20), 10);
    }

    #[test]
    fn copies_capped_by_platform_size() {
        assert_eq!(Scheme::R(4).copies(2), 2);
        assert_eq!(Scheme::All.copies(1), 1);
        assert_eq!(Scheme::Half.copies(1), 1);
        assert_eq!(Scheme::Half.copies(3), 1);
    }

    #[test]
    fn redundancy_flag() {
        assert!(!Scheme::None.is_redundant(10));
        assert!(Scheme::R(2).is_redundant(10));
        assert!(!Scheme::R(4).is_redundant(1));
        assert!(!Scheme::Half.is_redundant(2)); // half of 2 = 1 cluster
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = Scheme::paper_schemes()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(names, vec!["R2", "R3", "R4", "HALF", "ALL"]);
        assert_eq!(Scheme::None.to_string(), "NONE");
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_rejected() {
        let _ = Scheme::All.copies(0);
    }
}
