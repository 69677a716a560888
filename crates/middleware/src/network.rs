//! The network model.
//!
//! Section 4.2: "Even if the network payload of a job submission or
//! cancellation were on the order of hundreds of KBytes (for instance
//! large SOAP messages), most networks connecting a batch scheduler to
//! the Internet can easily support tens of such interactions per second."

use rbr_simcore::Duration;

/// A simple store-and-forward link model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

impl NetworkModel {
    /// A 2006-era 100 Mbit/s institutional uplink.
    pub fn fast_ethernet() -> Self {
        NetworkModel {
            bandwidth_bps: 100e6,
            latency_s: 0.010,
        }
    }

    /// Time to deliver one message of `payload` bytes.
    pub fn transfer_time(&self, payload: u64) -> Duration {
        assert!(self.bandwidth_bps > 0.0, "bandwidth must be positive");
        Duration::from_secs(self.latency_s + payload as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Sustainable messages per second at the given payload (pipelined,
    /// bandwidth-bound).
    pub fn messages_per_sec(&self, payload: u64) -> f64 {
        if payload == 0 {
            return f64::INFINITY;
        }
        self.bandwidth_bps / (payload as f64 * 8.0)
    }

    /// The paper's check: can this network carry `ops_per_sec` request
    /// operations of `payload` bytes each?
    pub fn sustains(&self, ops_per_sec: f64, payload: u64) -> bool {
        self.messages_per_sec(payload) >= ops_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundreds_of_kb_at_tens_per_second() {
        // The paper's claim verbatim: hundreds-of-KB SOAP messages, tens
        // of interactions per second, on an ordinary network.
        let net = NetworkModel::fast_ethernet();
        assert!(net.sustains(30.0, 300 * 1024));
    }

    #[test]
    fn transfer_time_includes_latency() {
        let net = NetworkModel {
            bandwidth_bps: 8e6, // 1 MB/s
            latency_s: 0.5,
        };
        let t = net.transfer_time(1_000_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_payload_is_latency_only() {
        let net = NetworkModel::fast_ethernet();
        assert!((net.transfer_time(0).as_secs() - 0.010).abs() < 1e-9);
        assert!(net.sustains(1e9, 0));
    }
}
