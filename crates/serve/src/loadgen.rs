//! The load generator: replays a Lublin–Feitelson arrival stream
//! against a running service.
//!
//! Jobs come from `rbr-workload`'s streaming iterator — nothing is
//! materialized — with every arrival timestamp divided by the rate
//! multiple, so `--rate 2` offers the service twice the calibrated
//! arrival rate on the workload clock. Requests are pipelined on one
//! connection while a reader thread drains acks (the server's
//! per-connection backpressure would otherwise deadlock a single-
//! threaded client at high job counts), and the run ends with a
//! `drain`, whose report is cross-checked against the client's own
//! counts.

use std::io::{Read, Write};
use std::net::TcpStream;

use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::{EstimateModel, LublinConfig, LublinModel};

use crate::wire::{encode_frame, FrameReader, Request, Response, Verdict};

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Number of jobs to replay.
    pub jobs: usize,
    /// Arrival-rate multiple (2.0 = twice the calibrated rate).
    pub rate: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7206".to_string(),
            jobs: 1_000,
            rate: 1.0,
            seed: 2006,
        }
    }
}

/// What came back from a replay.
#[derive(Clone, Debug, Default)]
pub struct LoadgenStats {
    /// Jobs submitted.
    pub submits: u64,
    /// Submit acks received.
    pub acks: u64,
    /// Acks with a redundant verdict.
    pub redundant: u64,
    /// Acks with a single-copy verdict.
    pub single: u64,
    /// Acks with a shed verdict.
    pub shed: u64,
    /// Highest transaction serial observed.
    pub transactions: u64,
    /// The server's drain report, if the drain completed.
    pub drained: Option<(u64, u64, u64, u64)>,
}

impl LoadgenStats {
    /// True when every submit was acked and the server's drain report
    /// agrees with the client's counts.
    pub fn clean(&self) -> bool {
        match self.drained {
            None => false,
            Some((submits, acks, _txns, shed)) => {
                self.acks == self.submits
                    && submits == self.submits
                    && acks == self.acks
                    && shed == self.shed
            }
        }
    }
}

/// Replays the workload against the service. `Err` means a transport
/// failure or a dirty drain — callers should exit non-zero.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenStats, String> {
    assert!(config.rate > 0.0, "rate multiple must be positive");
    let stream = TcpStream::connect(&config.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", config.addr))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;

    // Reader thread: drains acks until the drain report, keeping the
    // server's write buffer (and ours) from filling up.
    let reader_handle = std::thread::spawn(move || -> Result<LoadgenStats, String> {
        let mut stream = stream;
        let mut reader = FrameReader::new();
        let mut stats = LoadgenStats::default();
        let mut buf = [0u8; 16 * 1024];
        loop {
            while let Some(frame) = reader.next_frame()? {
                match Response::from_json(frame)? {
                    Response::Ack {
                        verdict,
                        txn: serial,
                        ..
                    } => {
                        stats.acks += 1;
                        stats.transactions = stats.transactions.max(serial);
                        match verdict {
                            Verdict::Redundant => stats.redundant += 1,
                            Verdict::Single => stats.single += 1,
                            Verdict::Shed => stats.shed += 1,
                        }
                    }
                    Response::CancelAck { txn: serial, .. } => {
                        stats.transactions = stats.transactions.max(serial);
                    }
                    Response::Drained {
                        submits,
                        acks,
                        transactions,
                        shed,
                    } => {
                        stats.drained = Some((submits, acks, transactions, shed));
                        return Ok(stats);
                    }
                }
            }
            let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server hung up before the drain report".to_string());
            }
            reader.extend(&buf[..n]);
        }
    });

    // Replay the stream: the Lublin model's own arrival process, with
    // timestamps compressed by the rate multiple.
    let model = LublinModel::new(LublinConfig::paper_2006());
    let estimates = EstimateModel::paper_real();
    let mut rng = SeedSequence::new(config.seed).rng();
    let mut submits = 0u64;
    for (id, job) in model
        .stream(&mut rng, Duration::MAX, &estimates)
        .take(config.jobs)
        .enumerate()
    {
        let req = Request::Submit {
            id: id as u64,
            arrival_secs: job.arrival.as_secs() / config.rate,
            nodes: job.nodes,
            runtime_secs: job.runtime.as_secs(),
        };
        writer
            .write_all(&encode_frame(&req.to_json()))
            .map_err(|e| format!("write: {e}"))?;
        submits += 1;
    }
    writer
        .write_all(&encode_frame(&Request::Drain.to_json()))
        .map_err(|e| format!("write: {e}"))?;
    writer.flush().map_err(|e| format!("flush: {e}"))?;

    let mut stats = reader_handle
        .join()
        .map_err(|_| "reader thread panicked".to_string())??;
    stats.submits = submits;
    if !stats.clean() {
        return Err(format!(
            "dirty drain: sent {} submit(s), got {} ack(s), report {:?}",
            stats.submits, stats.acks, stats.drained
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_requires_matching_counts() {
        let mut s = LoadgenStats {
            submits: 10,
            acks: 10,
            shed: 2,
            drained: Some((10, 10, 3, 2)),
            ..LoadgenStats::default()
        };
        assert!(s.clean());
        s.acks = 9;
        assert!(!s.clean());
        s.acks = 10;
        s.drained = None;
        assert!(!s.clean());
    }
}
