//! The SOAP-layer model.
//!
//! Section 4.2 cites gSOAP benchmark results (Head et al., SC'05):
//! marshalling/unmarshalling arrays of 30 000 three-field structures
//! (two ints + one double, > 450 KB total — "many more bytes than needed
//! for a batch request submission") at a rate "significantly higher than
//! 12 per second" on a dual Pentium 4 Xeon. Conclusion: raw SOAP
//! processing is not the bottleneck; the full WS-GRAM stack is.

/// Cost model for SOAP marshalling of batch-request messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GsoapModel {
    /// Benchmark transaction rate (transactions/s) at the benchmark
    /// payload size.
    pub benchmark_rate: f64,
    /// Payload size of the benchmark transactions, in bytes.
    pub benchmark_payload: u64,
}

impl GsoapModel {
    /// The SC'05 gSOAP benchmark configuration: 30 000 structures of
    /// 16 bytes ≈ 480 KB, conservatively rated at 20 transactions/s
    /// ("significantly higher than 12 per second").
    pub fn sc05_benchmark() -> Self {
        GsoapModel {
            benchmark_rate: 20.0,
            benchmark_payload: 30_000 * 16,
        }
    }

    /// Estimated transaction rate for messages of `payload` bytes,
    /// assuming cost scales linearly with payload (conservative for the
    /// small messages of batch submissions, whose fixed costs dominate —
    /// capped at 10× the benchmark rate).
    pub fn rate_for_payload(&self, payload: u64) -> f64 {
        if payload == 0 {
            return self.benchmark_rate * 10.0;
        }
        (self.benchmark_rate * self.benchmark_payload as f64 / payload as f64)
            .min(self.benchmark_rate * 10.0)
    }

    /// True if the SOAP layer can sustain the given operation rate for
    /// batch-request-sized messages (`payload` bytes).
    pub fn sustains(&self, ops_per_sec: f64, payload: u64) -> bool {
        self.rate_for_payload(payload) >= ops_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_rate_beats_scheduler_demand() {
        // The paper's point: 12 ops/s (the empty-queue scheduler rate)
        // is comfortably below what gSOAP sustains even at 450 KB.
        let m = GsoapModel::sc05_benchmark();
        assert!(m.sustains(12.0, m.benchmark_payload));
    }

    #[test]
    fn small_messages_are_faster_but_capped() {
        let m = GsoapModel::sc05_benchmark();
        let small = m.rate_for_payload(1_000);
        assert!(small > m.benchmark_rate);
        assert!(small <= m.benchmark_rate * 10.0);
        assert_eq!(m.rate_for_payload(0), m.benchmark_rate * 10.0);
    }

    #[test]
    fn huge_messages_slow_down() {
        let m = GsoapModel::sc05_benchmark();
        assert!(m.rate_for_payload(10 * m.benchmark_payload) < m.benchmark_rate);
    }
}
