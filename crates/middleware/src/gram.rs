//! The WS-GRAM middleware model.
//!
//! The paper cites DiPerf measurements (Raicu, 2005) of the Globus GT4
//! WS-GRAM service on a 2.16 GHz AMD K7: a sustained rate of "slightly
//! under 60 transactions per minute", i.e. under one transaction per
//! second — two orders of magnitude below the batch scheduler itself.

/// Transaction-rate model of a grid job-submission middleware service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GramModel {
    /// Sustained transactions per minute (a transaction is one job
    /// submission or one cancellation).
    pub transactions_per_minute: f64,
}

impl GramModel {
    /// GT4 WS-GRAM as measured by DiPerf in 2005.
    pub fn gt4_ws_gram() -> Self {
        GramModel {
            transactions_per_minute: 57.0,
        }
    }

    /// Pre-web-services GRAM (GT2) was measured several times faster; the
    /// paper's analysis uses the WS flavour, but the model lets the
    /// capacity analysis explore alternatives.
    pub fn with_rate(transactions_per_minute: f64) -> Self {
        assert!(
            transactions_per_minute > 0.0,
            "transaction rate must be positive"
        );
        GramModel {
            transactions_per_minute,
        }
    }

    /// Transactions per second.
    pub fn transactions_per_sec(&self) -> f64 {
        self.transactions_per_minute / 60.0
    }

    /// Sustainable job **submissions** per second assuming each job also
    /// costs one cancellation ("if a job cancellation causes roughly the
    /// same overhead as a job submission ... then .5 job submissions and
    /// .5 job cancellations can be processed per second").
    pub fn submissions_per_sec(&self) -> f64 {
        self.transactions_per_sec() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gt4_is_just_under_one_per_second() {
        let m = GramModel::gt4_ws_gram();
        assert!(m.transactions_per_sec() < 1.0);
        assert!(m.transactions_per_sec() > 0.9);
        assert!((m.submissions_per_sec() - 0.475).abs() < 1e-9);
    }

    #[test]
    fn custom_rate() {
        let m = GramModel::with_rate(120.0);
        assert!((m.transactions_per_sec() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = GramModel::with_rate(0.0);
    }
}
