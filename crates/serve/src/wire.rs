//! The wire protocol: length-prefixed JSON frames and the request /
//! response vocabulary.
//!
//! A frame is `<len>:<json>\n` — the payload's byte length in ASCII
//! decimal, a colon, the JSON document, and a terminating newline. The
//! prefix lets a reader allocate exactly once and never scan JSON for
//! frame boundaries; the newline keeps captures greppable and makes a
//! torn frame detectable.

use rbr_obs::json::{self, Token};

use crate::decimal::{u64_digits, write_u64};

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
        let mut out = String::with_capacity(128);
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON document (no framing) to `out`, keys sorted.
    pub fn write_json(&self, out: &mut String) {
        match *self {
            Request::Submit {
                id,
                arrival_secs,
                nodes,
                runtime_secs,
            } => {
                out.push_str("{\"arrival\":");
                json::write_f64(out, arrival_secs, "null");
                push_int(out, ",\"id\":", id);
                push_int(out, ",\"nodes\":", nodes.into());
                out.push_str(",\"runtime\":");
                json::write_f64(out, runtime_secs, "null");
                out.push_str(",\"type\":\"submit\"}");
            }
            Request::Cancel { id, arrival_secs } => {
                out.push_str("{\"arrival\":");
                json::write_f64(out, arrival_secs, "null");
                push_int(out, ",\"id\":", id);
                out.push_str(",\"type\":\"cancel\"}");
            }
            Request::Drain => out.push_str("{\"type\":\"drain\"}"),
        }
    }

    /// Parses a JSON document into a request.
    ///
    /// A document in the exact shape [`write_json`](Request::write_json)
    /// writes is read left to right in one pass that allocates nothing.
    /// Any other document, and a canonical one holding a value that
    /// reads as an error, goes to `json::read_fields`. Both paths give
    /// the same request, floats bit for bit, or the same error.
    pub fn from_json(text: &str) -> Result<Request, String> {
        if let Some(req) = Request::from_canonical(text) {
            return Ok(req);
        }
        let [kind, id, arrival, nodes, runtime] =
            json::read_fields(text, ["type", "id", "arrival", "nodes", "runtime"])?;
        match field(&kind, "type", Token::as_str)? {
            "submit" => Ok(Request::Submit {
                id: field(&id, "id", Token::as_u64)?,
                arrival_secs: field(&arrival, "arrival", Token::as_f64)?,
                nodes: u32_field(&nodes, "nodes")?,
                runtime_secs: field(&runtime, "runtime", Token::as_f64)?,
            }),
            "cancel" => Ok(Request::Cancel {
                id: field(&id, "id", Token::as_u64)?,
                arrival_secs: field(&arrival, "arrival", Token::as_f64)?,
            }),
            "drain" => Ok(Request::Drain),
            other => Err(format!("unknown request type {other:?}")),
        }
    }

    /// The request `text` holds if it is exactly what `write_json`
    /// writes for one: keys sorted, no whitespace, no escapes, numbers
    /// split by the codec's grammar and read by [`Token`]'s rules.
    /// `None` for any other document and for a value out of range.
    fn from_canonical(text: &str) -> Option<Request> {
        if text == "{\"type\":\"drain\"}" {
            return Some(Request::Drain);
        }
        let (arrival, rest) = number_after(text, "{\"arrival\":")?;
        let (id, rest) = number_after(rest, ",\"id\":")?;
        let (id, arrival_secs) = (id.as_u64()?, arrival.as_f64()?);
        if rest == ",\"type\":\"cancel\"}" {
            return Some(Request::Cancel { id, arrival_secs });
        }
        let (nodes, rest) = number_after(rest, ",\"nodes\":")?;
        let (runtime, rest) = number_after(rest, ",\"runtime\":")?;
        if rest != ",\"type\":\"submit\"}" {
            return None;
        }
        Some(Request::Submit {
            id,
            arrival_secs,
            nodes: u32::try_from(nodes.as_u64()?).ok()?,
            runtime_secs: runtime.as_f64()?,
        })
    }
}

/// The number token right after the literal `key` at the head of
/// `text`, and the text after it.
fn number_after<'a>(text: &'a str, key: &str) -> Option<(Token<'a>, &'a str)> {
    let (number, rest) = json::split_number(text.strip_prefix(key)?).ok()?;
    Some((Token::Num(number), rest))
}

impl Response {
    /// Renders as a JSON document (no framing).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON document (no framing) to `out`, keys sorted.
    pub fn write_json(&self, out: &mut String) {
        match *self {
            Response::Ack {
                id,
                redundancy,
                verdict,
                txn,
            } => {
                push_int(out, "{\"id\":", id);
                push_int(out, ",\"redundancy\":", redundancy.into());
                push_int(out, ",\"txn\":", txn);
                out.push_str(",\"type\":\"ack\",\"verdict\":\"");
                out.push_str(verdict.as_str());
                out.push_str("\"}");
            }
            Response::CancelAck { id, txn } => {
                push_int(out, "{\"id\":", id);
                push_int(out, ",\"txn\":", txn);
                out.push_str(",\"type\":\"cancel-ack\"}");
            }
            Response::Drained {
                submits,
                acks,
                transactions,
                shed,
            } => {
                push_int(out, "{\"acks\":", acks);
                push_int(out, ",\"shed\":", shed);
                push_int(out, ",\"submits\":", submits);
                push_int(out, ",\"transactions\":", transactions);
                out.push_str(",\"type\":\"drained\"}");
            }
        }
    }

    /// Parses a JSON document into a response.
    pub fn from_json(text: &str) -> Result<Response, String> {
        let [kind, id, redundancy, verdict, txn, submits, acks, transactions, shed] =
            json::read_fields(
                text,
                [
                    "type",
                    "id",
                    "redundancy",
                    "verdict",
                    "txn",
                    "submits",
                    "acks",
                    "transactions",
                    "shed",
                ],
            )?;
        let int = |slot: &Option<Token>, key| field(slot, key, Token::as_u64);
        match field(&kind, "type", Token::as_str)? {
            "ack" => Ok(Response::Ack {
                id: int(&id, "id")?,
                redundancy: u32_field(&redundancy, "redundancy")?,
                verdict: Verdict::parse(field(&verdict, "verdict", Token::as_str)?)
                    .ok_or("bad verdict")?,
                txn: int(&txn, "txn")?,
            }),
            "cancel-ack" => Ok(Response::CancelAck {
                id: int(&id, "id")?,
                txn: int(&txn, "txn")?,
            }),
            "drained" => Ok(Response::Drained {
                submits: int(&submits, "submits")?,
                acks: int(&acks, "acks")?,
                transactions: int(&transactions, "transactions")?,
                shed: int(&shed, "shed")?,
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// Appends `text`, then `n` in decimal.
fn push_int(out: &mut String, text: &str, n: u64) {
    out.push_str(text);
    write_u64(out, n);
}

/// The field `key` read from its slot through `read` (one of
/// [`Token`]'s `as_*` accessors); missing or mistyped is an error
/// naming `key`.
fn field<'t, 'a, T>(
    slot: &'t Option<Token<'a>>,
    key: &str,
    read: fn(&'t Token<'a>) -> Option<T>,
) -> Result<T, String> {
    slot.as_ref()
        .and_then(read)
        .ok_or_else(|| format!("missing or mistyped field {key:?}"))
}

/// The unsigned integer in `slot`, which must fit a `u32`.
fn u32_field(slot: &Option<Token>, key: &str) -> Result<u32, String> {
    u32::try_from(field(slot, key, Token::as_u64)?).map_err(|_| format!("{key:?} out of range"))
}

/// Wraps a JSON document in a `<len>:<json>\n` frame.
pub fn encode_frame(json: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(json.len() + 12);
    encode_frame_into(&mut out, json);
    out
}

/// Appends a JSON document to `out` as one `<len>:<json>\n` frame.
pub fn encode_frame_into(out: &mut Vec<u8>, json: &str) {
    out.extend_from_slice(u64_digits(json.len() as u64, &mut [0; 20]));
    out.push(b':');
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
}

/// Incremental frame decoder over a byte stream.
///
/// Framed bytes stay in the buffer behind a read cursor until the next
/// [`extend`](FrameReader::extend) drops them all at once, so draining
/// many frames from one read takes time linear in its bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already returned as frames.
    consumed: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed (non-zero after EOF = torn
    /// frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Extracts the next complete frame's JSON payload, borrowed from
    /// the buffer, or `None` if more bytes are needed. A malformed
    /// prefix is a hard error.
    pub fn next_frame(&mut self) -> Result<Option<&str>, String> {
        let buf = &self.buf[self.consumed..];
        let colon = match buf.iter().position(|&b| b == b':') {
            Some(i) => i,
            None => {
                if buf.len() > 20 {
                    return Err("frame prefix too long".to_string());
                }
                return Ok(None);
            }
        };
        let prefix = std::str::from_utf8(&buf[..colon]).map_err(|e| e.to_string())?;
        let len: usize = prefix
            .parse()
            .map_err(|e| format!("bad frame length {prefix:?}: {e}"))?;
        if len > MAX_FRAME {
            return Err(format!("frame of {len} bytes exceeds {MAX_FRAME}"));
        }
        let total = colon + 1 + len + 1; // prefix, ':', payload, '\n'
        if buf.len() < total {
            return Ok(None);
        }
        if buf[total - 1] != b'\n' {
            return Err("frame missing trailing newline".to_string());
        }
        let payload = std::str::from_utf8(&buf[colon + 1..total - 1]).map_err(|e| e.to_string())?;
        self.consumed += total;
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
    fn what_the_writer_writes_reads_in_one_pass() {
        for req in [
            Request::Submit {
                id: u64::MAX,
                arrival_secs: 0.1 + 0.2,
                nodes: u32::MAX,
                runtime_secs: f64::MAX,
            },
            Request::Submit {
                id: 0,
                arrival_secs: -0.0,
                nodes: 0,
                runtime_secs: 5e-324,
            },
            Request::Cancel {
                id: 7,
                arrival_secs: 1e21,
            },
            Request::Drain,
        ] {
            let text = req.to_json();
            let read = Request::from_canonical(&text).expect("a canonical request");
            assert_eq!(format!("{read:?}"), format!("{req:?}"), "{text}");
        }
        // Another shape, or a value that reads as an error, is left to
        // the general reader.
        for text in [
            "{\"type\":\"drain\"} ",
            " {\"type\":\"drain\"}",
            "{\"arrival\":1,\"type\":\"cancel\",\"id\":1}",
            "{\"arrival\":1,\"i\\u0064\":1,\"type\":\"cancel\"}",
            "{\"arrival\":1,\"id\":1,\"type\":\"cancel\",\"x\":0}",
            "{\"arrival\":1,\"id\":1,\"nodes\":4294967296,\"runtime\":1,\"type\":\"submit\"}",
            "{\"arrival\":1e400,\"id\":1,\"type\":\"cancel\"}",
            "{\"arrival\":1,\"id\":-0,\"type\":\"cancel\"}",
            "{\"arrival\":1,\"id\":1.0,\"type\":\"cancel\"}",
            "{\"arrival\":1.,\"id\":1,\"type\":\"cancel\"}",
            "{\"arrival\":1,\"id\":1,\"nodes\":2,\"runtime\":1,\"type\":\"cancel\"}",
        ] {
            assert_eq!(Request::from_canonical(text), None, "{text}");
        }
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
                frames.push(f.to_owned());
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

    /// A socket parser must never go quadratic: 4 MiB of frames handed
    /// over in one read drain in linear time, even in a debug build.
    #[test]
    fn many_frames_from_one_read_drain_in_linear_time() {
        let json = Request::Submit {
            id: 42,
            arrival_secs: 1234.5,
            nodes: 16,
            runtime_secs: 3600.0,
        }
        .to_json();
        let frame = encode_frame(&json);
        let count = (4 << 20) / frame.len() + 1;
        let stream = frame.repeat(count);
        let mut reader = FrameReader::new();
        let started = std::time::Instant::now();
        reader.extend(&stream);
        let mut frames = 0;
        while let Some(payload) = reader.next_frame().unwrap() {
            assert_eq!(payload, json);
            frames += 1;
        }
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(frames, count);
        assert_eq!(reader.buffered(), 0);
        assert!(secs < 2.0, "4 MiB of frames took {secs:.2} s to drain");
    }
}
