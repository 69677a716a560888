//! The wire protocol: length-prefixed JSON frames and the request /
//! response vocabulary.
//!
//! A frame is `<len>:<json>\n` — the payload's byte length in ASCII
//! decimal, a colon, the JSON document, and a terminating newline. The
//! prefix lets a reader allocate exactly once and never scan JSON for
//! frame boundaries; the newline keeps captures greppable and makes a
//! torn frame detectable.

use rbr_obs::json::{self, Json};

/// Upper bound on a single frame payload; anything larger is a protocol
/// error, not a buffering request.
pub const MAX_FRAME: usize = 64 * 1024;

/// What the admission controller decided for one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted with more than one copy.
    Redundant,
    /// Admitted with a single copy (load too high for redundancy).
    Single,
    /// Rejected outright: the rate limiter had no token for even one
    /// copy.
    Shed,
}

impl Verdict {
    /// Stable wire / log spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Redundant => "redundant",
            Verdict::Single => "single",
            Verdict::Shed => "shed",
        }
    }

    fn parse(s: &str) -> Option<Verdict> {
        match s {
            "redundant" => Some(Verdict::Redundant),
            "single" => Some(Verdict::Single),
            "shed" => Some(Verdict::Shed),
            _ => None,
        }
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit one job. `arrival_secs` is the job's position on the
    /// workload's clock; in virtual-clock mode it *is* the service
    /// clock.
    Submit {
        /// Client-chosen job id, echoed in the ack.
        id: u64,
        /// Arrival instant (seconds on the workload clock).
        arrival_secs: f64,
        /// Nodes requested.
        nodes: u32,
        /// Requested runtime (seconds).
        runtime_secs: f64,
    },
    /// Cancel a previously submitted job's redundant copies.
    Cancel {
        /// The job id being cancelled.
        id: u64,
        /// Cancel instant (seconds on the workload clock).
        arrival_secs: f64,
    },
    /// Flush everything, report totals, and shut the service down.
    Drain,
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A submission's admission outcome. Sent when the op's transaction
    /// flushes (shed submissions never join a transaction and are acked
    /// immediately with `txn = 0`).
    Ack {
        /// The submitted job id.
        id: u64,
        /// Copies admitted (0 when shed).
        redundancy: u32,
        /// Admission verdict.
        verdict: Verdict,
        /// Transaction serial the op rode in (0 when shed).
        txn: u64,
    },
    /// A cancel's transaction receipt.
    CancelAck {
        /// The cancelled job id.
        id: u64,
        /// Transaction serial the cancel rode in.
        txn: u64,
    },
    /// Terminal drain report.
    Drained {
        /// Submissions received over the service's lifetime.
        submits: u64,
        /// Acks sent (must equal `submits` + cancels for a clean drain).
        acks: u64,
        /// Transactions dispatched.
        transactions: u64,
        /// Submissions shed by the rate limiter.
        shed: u64,
    },
}

impl Request {
    /// Renders as a JSON document (no framing).
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit {
                id,
                arrival_secs,
                nodes,
                runtime_secs,
            } => Json::obj(vec![
                ("type", Json::Str("submit".to_string())),
                ("id", Json::int(*id)),
                ("arrival", Json::num(*arrival_secs)),
                ("nodes", Json::int(u64::from(*nodes))),
                ("runtime", Json::num(*runtime_secs)),
            ])
            .render(),
            Request::Cancel { id, arrival_secs } => Json::obj(vec![
                ("type", Json::Str("cancel".to_string())),
                ("id", Json::int(*id)),
                ("arrival", Json::num(*arrival_secs)),
            ])
            .render(),
            Request::Drain => Json::obj(vec![("type", Json::Str("drain".to_string()))]).render(),
        }
    }

    /// Parses a JSON document into a request.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let v = json::parse(text)?;
        match v.field("type", Json::as_str)? {
            "submit" => Ok(Request::Submit {
                id: v.field("id", Json::as_u64)?,
                arrival_secs: v.field("arrival", Json::as_f64)?,
                nodes: u32_field(&v, "nodes")?,
                runtime_secs: v.field("runtime", Json::as_f64)?,
            }),
            "cancel" => Ok(Request::Cancel {
                id: v.field("id", Json::as_u64)?,
                arrival_secs: v.field("arrival", Json::as_f64)?,
            }),
            "drain" => Ok(Request::Drain),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

impl Response {
    /// Renders as a JSON document (no framing).
    pub fn to_json(&self) -> String {
        match self {
            Response::Ack {
                id,
                redundancy,
                verdict,
                txn,
            } => Json::obj(vec![
                ("type", Json::Str("ack".to_string())),
                ("id", Json::int(*id)),
                ("redundancy", Json::int(u64::from(*redundancy))),
                ("verdict", Json::Str(verdict.as_str().to_string())),
                ("txn", Json::int(*txn)),
            ])
            .render(),
            Response::CancelAck { id, txn } => Json::obj(vec![
                ("type", Json::Str("cancel-ack".to_string())),
                ("id", Json::int(*id)),
                ("txn", Json::int(*txn)),
            ])
            .render(),
            Response::Drained {
                submits,
                acks,
                transactions,
                shed,
            } => Json::obj(vec![
                ("type", Json::Str("drained".to_string())),
                ("submits", Json::int(*submits)),
                ("acks", Json::int(*acks)),
                ("transactions", Json::int(*transactions)),
                ("shed", Json::int(*shed)),
            ])
            .render(),
        }
    }

    /// Parses a JSON document into a response.
    pub fn from_json(text: &str) -> Result<Response, String> {
        let v = json::parse(text)?;
        let int = |key| v.field(key, Json::as_u64);
        match v.field("type", Json::as_str)? {
            "ack" => Ok(Response::Ack {
                id: int("id")?,
                redundancy: u32_field(&v, "redundancy")?,
                verdict: Verdict::parse(v.field("verdict", Json::as_str)?).ok_or("bad verdict")?,
                txn: int("txn")?,
            }),
            "cancel-ack" => Ok(Response::CancelAck {
                id: int("id")?,
                txn: int("txn")?,
            }),
            "drained" => Ok(Response::Drained {
                submits: int("submits")?,
                acks: int("acks")?,
                transactions: int("transactions")?,
                shed: int("shed")?,
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// The unsigned integer at `key`, which must fit a `u32`.
fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(v.field(key, Json::as_u64)?).map_err(|_| format!("{key:?} out of range"))
}

/// Wraps a JSON document in a `<len>:<json>\n` frame.
pub fn encode_frame(json: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(json.len() + 12);
    out.extend_from_slice(json.len().to_string().as_bytes());
    out.push(b':');
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
    out
}

/// Incremental frame decoder over a byte stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed (non-zero after EOF = torn
    /// frame).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete frame's JSON payload, or `None` if
    /// more bytes are needed. A malformed prefix is a hard error.
    pub fn next_frame(&mut self) -> Result<Option<String>, String> {
        let colon = match self.buf.iter().position(|&b| b == b':') {
            Some(i) => i,
            None => {
                if self.buf.len() > 20 {
                    return Err("frame prefix too long".to_string());
                }
                return Ok(None);
            }
        };
        let prefix = std::str::from_utf8(&self.buf[..colon]).map_err(|e| e.to_string())?;
        let len: usize = prefix
            .parse()
            .map_err(|e| format!("bad frame length {prefix:?}: {e}"))?;
        if len > MAX_FRAME {
            return Err(format!("frame of {len} bytes exceeds {MAX_FRAME}"));
        }
        let total = colon + 1 + len + 1; // prefix, ':', payload, '\n'
        if self.buf.len() < total {
            return Ok(None);
        }
        if self.buf[total - 1] != b'\n' {
            return Err("frame missing trailing newline".to_string());
        }
        let payload = std::str::from_utf8(&self.buf[colon + 1..total - 1])
            .map_err(|e| e.to_string())?
            .to_string();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Submit {
                id: 7,
                arrival_secs: 12.5,
                nodes: 32,
                runtime_secs: 600.0,
            },
            Request::Cancel {
                id: 7,
                arrival_secs: 13.0,
            },
            Request::Drain,
        ] {
            assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Ack {
                id: 7,
                redundancy: 3,
                verdict: Verdict::Redundant,
                txn: 11,
            },
            Response::Ack {
                id: 8,
                redundancy: 0,
                verdict: Verdict::Shed,
                txn: 0,
            },
            Response::CancelAck { id: 7, txn: 12 },
            Response::Drained {
                submits: 100,
                acks: 100,
                transactions: 13,
                shed: 4,
            },
        ] {
            assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
        }
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Admission logs and the benchmark's ack digests depend on these
        // exact bytes: sorted keys, integer ids, shortest floats.
        let requests = [
            Request::Submit {
                id: 4_503_599_627_370_497,
                arrival_secs: 0.1 + 0.2,
                nodes: 32,
                runtime_secs: 600.0,
            },
            Request::Cancel {
                id: 7,
                arrival_secs: 1e21,
            },
            Request::Drain,
        ];
        let responses = [
            Response::Ack {
                id: 7,
                redundancy: 3,
                verdict: Verdict::Redundant,
                txn: 11,
            },
            Response::Ack {
                id: 8,
                redundancy: 1,
                verdict: Verdict::Single,
                txn: 12,
            },
            Response::Ack {
                id: 9,
                redundancy: 0,
                verdict: Verdict::Shed,
                txn: 0,
            },
            Response::CancelAck { id: 7, txn: 12 },
            Response::Drained {
                submits: 100,
                acks: 130,
                transactions: 13,
                shed: 4,
            },
        ];
        let text: Vec<String> = requests
            .iter()
            .map(Request::to_json)
            .chain(responses.iter().map(Response::to_json))
            .collect();
        assert_eq!(
            text,
            [
                "{\"arrival\":0.30000000000000004,\"id\":4503599627370497,\"nodes\":32,\"runtime\":600,\"type\":\"submit\"}",
                "{\"arrival\":1000000000000000000000,\"id\":7,\"type\":\"cancel\"}",
                "{\"type\":\"drain\"}",
                "{\"id\":7,\"redundancy\":3,\"txn\":11,\"type\":\"ack\",\"verdict\":\"redundant\"}",
                "{\"id\":8,\"redundancy\":1,\"txn\":12,\"type\":\"ack\",\"verdict\":\"single\"}",
                "{\"id\":9,\"redundancy\":0,\"txn\":0,\"type\":\"ack\",\"verdict\":\"shed\"}",
                "{\"id\":7,\"txn\":12,\"type\":\"cancel-ack\"}",
                "{\"acks\":130,\"shed\":4,\"submits\":100,\"transactions\":13,\"type\":\"drained\"}",
            ]
        );
    }

    #[test]
    fn ids_and_counts_are_exact_at_any_size() {
        let req = Request::Cancel {
            id: u64::MAX,
            arrival_secs: 0.5,
        };
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
        let too_many_nodes =
            "{\"arrival\":1,\"id\":1,\"nodes\":4294967296,\"runtime\":1,\"type\":\"submit\"}";
        assert!(Request::from_json(too_many_nodes).is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // A client may send a whole frame of '['; a parser that recursed
        // once per bracket would overflow the stack.
        let frame = "[".repeat(MAX_FRAME);
        let parsed = std::thread::spawn(move || Request::from_json(&frame).is_err())
            .join()
            .expect("parser thread survived");
        assert!(parsed);
    }

    #[test]
    fn frames_reassemble_from_arbitrary_chunking() {
        let a = encode_frame(&Request::Drain.to_json());
        let b = encode_frame(
            &Request::Submit {
                id: 1,
                arrival_secs: 0.5,
                nodes: 1,
                runtime_secs: 1.0,
            }
            .to_json(),
        );
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        // Feed one byte at a time: framing must not care about chunk
        // boundaries.
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for byte in stream {
            reader.extend(&[byte]);
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(Request::from_json(&frames[0]).unwrap(), Request::Drain);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn bad_prefixes_are_hard_errors() {
        let mut reader = FrameReader::new();
        reader.extend(b"xx:{}\n");
        assert!(reader.next_frame().is_err());
        let mut reader = FrameReader::new();
        reader.extend(b"999999999:");
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn torn_frames_are_visible() {
        let mut reader = FrameReader::new();
        reader.extend(b"10:{\"a\"");
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(reader.buffered() > 0);
    }
}
