//! Property tests for the wire reader. `Request::from_json` and
//! `Response::from_json` read a frame's top-level fields where they lie;
//! on every document they must give what a whole `Json` tree read with
//! `Json::field` gives — the same value, floats bit for bit, or an error
//! for an error. The tree path is the oracle here.
//!
//! Documents start from random messages written canonically or not
//! (reordered keys, whitespace, escaped keys, unknown nested fields,
//! repeated keys, values out of range or of the wrong type) and are then
//! mutated: bytes deleted, inserted or replaced, and spans spliced.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rbr_obs::json::{self, Json, MAX_DEPTH};
use rbr_serve::wire::{Request, Response, Verdict};

/// Mutants checked per base document.
const MUTANTS: usize = 32;

fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(v.field(key, Json::as_u64)?).map_err(|_| format!("{key:?} out of range"))
}

fn request_oracle(text: &str) -> Result<Request, String> {
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

fn response_oracle(text: &str) -> Result<Response, String> {
    let v = json::parse(text)?;
    let int = |key| v.field(key, Json::as_u64);
    match v.field("type", Json::as_str)? {
        "ack" => Ok(Response::Ack {
            id: int("id")?,
            redundancy: u32_field(&v, "redundancy")?,
            verdict: match v.field("verdict", Json::as_str)? {
                "redundant" => Verdict::Redundant,
                "single" => Verdict::Single,
                "shed" => Verdict::Shed,
                _ => return Err("bad verdict".to_string()),
            },
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

/// A request with its floats as bits, so equality is bit equality.
fn request_bits(r: &Request) -> (u8, u64, u64, u32, u64) {
    match *r {
        Request::Submit {
            id,
            arrival_secs,
            nodes,
            runtime_secs,
        } => (0, id, arrival_secs.to_bits(), nodes, runtime_secs.to_bits()),
        Request::Cancel { id, arrival_secs } => (1, id, arrival_secs.to_bits(), 0, 0),
        Request::Drain => (2, 0, 0, 0, 0),
    }
}

fn check_request(text: &str) -> Result<(), TestCaseError> {
    match (Request::from_json(text), request_oracle(text)) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(request_bits(&got), request_bits(&want), "{:?}", text);
            Ok(())
        }
        (Err(_), Err(_)) => Ok(()),
        (got, want) => Err(TestCaseError::new(format!(
            "{text:?}: read in place {got:?}, tree {want:?}"
        ))),
    }
}

fn check_response(text: &str) -> Result<(), TestCaseError> {
    match (Response::from_json(text), response_oracle(text)) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(got, want, "{:?}", text);
            Ok(())
        }
        (Err(_), Err(_)) => Ok(()),
        (got, want) => Err(TestCaseError::new(format!(
            "{text:?}: read in place {got:?}, tree {want:?}"
        ))),
    }
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// Any float: arbitrary bits (NaN, infinities and subnormals too), edge
/// values, integral values and plain fractions.
fn any_f64(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => f64::from_bits(rng.next_u64()),
        1 => pick(
            rng,
            &[
                0.0,
                -0.0,
                0.1 + 0.2,
                1e21,
                1e-7,
                f64::MAX,
                f64::MIN_POSITIVE,
                5e-324,
            ],
        ),
        2 => rng.below(1 << 20) as f64,
        _ => rng.unit_f64() * 1e6,
    }
}

fn finite_f64(rng: &mut TestRng) -> f64 {
    let x = any_f64(rng);
    if x.is_finite() {
        x
    } else {
        0.5
    }
}

fn any_u64(rng: &mut TestRng) -> u64 {
    match rng.below(3) {
        0 => rng.next_u64(),
        1 => u64::MAX - rng.below(2),
        _ => rng.below(100_000),
    }
}

fn any_u32(rng: &mut TestRng) -> u32 {
    match rng.below(3) {
        0 => rng.next_u64() as u32,
        1 => u32::MAX,
        _ => rng.below(1024) as u32,
    }
}

fn any_request(rng: &mut TestRng, float: fn(&mut TestRng) -> f64) -> Request {
    match rng.below(5) {
        0..=2 => Request::Submit {
            id: any_u64(rng),
            arrival_secs: float(rng),
            nodes: any_u32(rng),
            runtime_secs: float(rng),
        },
        3 => Request::Cancel {
            id: any_u64(rng),
            arrival_secs: float(rng),
        },
        _ => Request::Drain,
    }
}

fn any_response(rng: &mut TestRng) -> Response {
    match rng.below(4) {
        0 | 1 => Response::Ack {
            id: any_u64(rng),
            redundancy: any_u32(rng),
            verdict: pick(rng, &[Verdict::Redundant, Verdict::Single, Verdict::Shed]),
            txn: any_u64(rng),
        },
        2 => Response::CancelAck {
            id: any_u64(rng),
            txn: any_u64(rng),
        },
        _ => Response::Drained {
            submits: any_u64(rng),
            acks: any_u64(rng),
            transactions: any_u64(rng),
            shed: any_u64(rng),
        },
    }
}

/// Requests with finite floats, the values the wire round-trips.
struct Requests;

impl Strategy for Requests {
    type Value = Request;

    fn generate(&self, rng: &mut TestRng) -> Request {
        any_request(rng, finite_f64)
    }
}

struct Responses;

impl Strategy for Responses {
    type Value = Response;

    fn generate(&self, rng: &mut TestRng) -> Response {
        any_response(rng)
    }
}

/// A message as its top-level members: each key's literal, quotes
/// included, and its value's text.
type Members = Vec<(String, String)>;

/// The members of a message's canonical document. No canonical key or
/// value holds a comma or a colon.
fn members(doc: &str) -> Members {
    doc[1..doc.len() - 1]
        .split(',')
        .map(|member| {
            let (key, value) = member.split_once(':').expect("a canonical member");
            (key.to_string(), value.to_string())
        })
        .collect()
}

/// Values that are out of range, non-finite, of the wrong type or
/// spelled unusually.
const ODD_VALUES: &[&str] = &[
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1e999",
    "-1e999",
    "1e-400",
    "-0",
    "3.0",
    "1E2",
    "-1",
    "\"12\"",
    "null",
    "true",
    "[1]",
    "{}",
    "\"submit\"",
    "\"cancel\"",
    "\"drain\"",
    "\"ack\"",
    "\"cancel-ack\"",
    "\"drained\"",
    "\"single\"",
    "\"Shed\"",
];

/// Fields no message has, some nested, one at the nesting limit.
fn unknown_member(rng: &mut TestRng) -> (String, String) {
    let key = pick(
        rng,
        &["\"extra\"", "\"note\"", "\"n\"", "\"id2\"", "\"\\u00e9\""],
    );
    let at_limit = || {
        // The document is the first level; this value fills the rest.
        let levels = MAX_DEPTH - 1;
        format!("{}{}", "[".repeat(levels), "]".repeat(levels))
    };
    let value = match rng.below(6) {
        0 => "{\"a\":[1,2,{\"b\":null}],\"c\":\"d\"}".to_string(),
        1 => "\"x\\ny \\u00e9\"".to_string(),
        2 => "-1.5e3".to_string(),
        3 => "[[[]],{}]".to_string(),
        4 => at_limit(),
        _ => format!("[{}]", at_limit()),
    };
    (key.to_string(), value)
}

/// Spells one character of a key as a `\u` escape: the same key.
fn escape_a_char(key: &str, rng: &mut TestRng) -> String {
    let inner = &key[1..key.len() - 1];
    if inner.is_empty() || !inner.is_ascii() || inner.contains('\\') {
        return key.to_string();
    }
    let i = rng.below(inner.len() as u64) as usize;
    let c = inner.as_bytes()[i];
    format!("\"{}\\u{:04x}{}\"", &inner[..i], c, &inner[i + 1..])
}

/// Rewrites a message's members non-canonically, then writes them out
/// with random whitespace.
fn reshape(mut doc: Members, rng: &mut TestRng) -> String {
    if rng.below(4) == 0 {
        let i = rng.below(doc.len() as u64) as usize;
        doc[i].1 = pick(rng, ODD_VALUES).to_string();
    }
    for _ in 0..rng.below(3) {
        let member = unknown_member(rng);
        doc.push(member);
    }
    if rng.below(8) == 0 {
        let i = rng.below(doc.len() as u64) as usize;
        let mut repeat = doc[i].clone();
        if rng.below(2) == 0 {
            repeat.1 = pick(rng, ODD_VALUES).to_string();
        }
        doc.push(repeat);
    }
    if rng.below(4) == 0 {
        let i = rng.below(doc.len() as u64) as usize;
        doc[i].0 = escape_a_char(&doc[i].0, rng);
    }
    if rng.below(2) == 0 {
        for i in (1..doc.len()).rev() {
            doc.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    let spaced = rng.below(2) == 0;
    let mut ws = || {
        if spaced {
            pick(rng, &["", "", " ", "\n", "\t", "\r\n  "])
        } else {
            ""
        }
    };
    let mut out = String::from(ws());
    out.push('{');
    for (i, (key, value)) in doc.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        for part in [ws(), key.as_str(), ws(), ":", ws(), value.as_str(), ws()] {
            out.push_str(part);
        }
    }
    out.push('}');
    out.push_str(ws());
    out
}

/// One to three byte-level edits of `doc`: deletions, insertions and
/// replacements from JSON's own alphabet, and spliced spans.
fn mutate(doc: &str, rng: &mut TestRng) -> String {
    const ALPHABET: &[u8] = b"{}[]\":,\\ \n0123456789.eE+-abtnrfuly";
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len() as u64;
        let at = rng.below(len + 1) as usize;
        match rng.below(5) {
            0 if at < bytes.len() => {
                let n = (1 + rng.below(4) as usize).min(bytes.len() - at);
                bytes.drain(at..at + n);
            }
            1 => {
                let n = 1 + rng.below(3);
                let new: Vec<u8> = (0..n).map(|_| pick(rng, ALPHABET)).collect();
                bytes.splice(at..at, new);
            }
            2 if at < bytes.len() => {
                bytes[at] = match rng.below(8) {
                    0 => 0x01,
                    1 => 0xC3, // half of a two-byte char: lossy below
                    _ => pick(rng, ALPHABET),
                };
            }
            3 => {
                let from = rng.below(len + 1) as usize;
                let to = (from + 1 + rng.below(12) as usize).min(bytes.len());
                let span = bytes[from..to].to_vec();
                bytes.splice(at..at, span);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A random message's document, reshaped, followed by [`MUTANTS`]
/// mutants of it.
struct Docs {
    message: fn(&mut TestRng) -> String,
}

impl Strategy for Docs {
    type Value = Vec<String>;

    fn generate(&self, rng: &mut TestRng) -> Vec<String> {
        let base = reshape(members(&(self.message)(rng)), rng);
        let mut docs = Vec::with_capacity(MUTANTS + 1);
        for _ in 0..MUTANTS {
            docs.push(mutate(&base, rng));
        }
        docs.push(base);
        docs
    }
}

fn request_docs() -> Docs {
    Docs {
        message: |rng| any_request(rng, any_f64).to_json(),
    }
}

fn response_docs() -> Docs {
    Docs {
        message: |rng| any_response(rng).to_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request document, canonical, reshaped or mutated, reads
    /// in place as it reads through the tree.
    #[test]
    fn request_reader_matches_the_tree(docs in request_docs()) {
        for doc in &docs {
            check_request(doc)?;
        }
    }

    /// The same for responses.
    #[test]
    fn response_reader_matches_the_tree(docs in response_docs()) {
        for doc in &docs {
            check_response(doc)?;
        }
    }

    /// What the wire writes it reads back: ids and counts exact, floats
    /// bit for bit.
    #[test]
    fn messages_round_trip(req in Requests, resp in Responses) {
        let back = Request::from_json(&req.to_json()).map_err(TestCaseError::new)?;
        prop_assert_eq!(request_bits(&back), request_bits(&req));
        let back = Response::from_json(&resp.to_json()).map_err(TestCaseError::new)?;
        prop_assert_eq!(back, resp);
    }
}

/// The hand-picked cases the generators aim at, each checked against
/// the oracle and pinned to the verdict it must get.
#[test]
fn pinned_cases_read_as_the_tree_does() {
    let submit = "\"arrival\":1,\"id\":1,\"nodes\":2,\"runtime\":3";
    for (doc, accepted) in [
        (format!("{{{submit},\"type\":\"submit\"}}"), true),
        (
            format!(" {{\"ty\\u0070e\" : \"submit\" ,{submit}}}\n"),
            true,
        ),
        (
            format!("{{{submit},\"type\":\"submit\",\"x\":{{\"y\":[1]}}}}"),
            true,
        ),
        (
            format!("{{{submit},\"type\":\"submit\",\"ty\\u0070e\":\"submit\"}}"),
            false,
        ),
        (
            format!("{{{submit},\"type\":\"submit\",\"x\":1,\"x\":1}}"),
            false,
        ),
        (format!("{{{submit},\"type\":\"submit\"}} x"), false),
        (
            "{\"arrival\":1,\"id\":18446744073709551615,\"type\":\"cancel\"}".to_string(),
            true,
        ),
        (
            "{\"arrival\":1,\"id\":18446744073709551616,\"type\":\"cancel\"}".to_string(),
            false,
        ),
        (
            "{\"arrival\":1e999,\"id\":1,\"type\":\"cancel\"}".to_string(),
            false,
        ),
        (
            "{\"arrival\":1,\"id\":1,\"nodes\":4294967296,\"runtime\":1,\"type\":\"submit\"}"
                .to_string(),
            false,
        ),
        (
            "{\"arrival\":1,\"id\":1,\"nodes\":\"x\",\"type\":\"cancel\"}".to_string(),
            true,
        ),
        ("{\"type\":\"drain\",\"id\":null}".to_string(), true),
        ("[\"type\",\"drain\"]".to_string(), false),
        // Documents in the writer's exact shape: the one-pass reader
        // takes them or leaves them to the general one.
        ("{\"type\":\"drain\"}".to_string(), true),
        (
            "{\"arrival\":1,\"id\":1,\"type\":\"cancel\"}".to_string(),
            true,
        ),
        (
            "{\"arrival\":1,\"id\":1,\"type\":\"cancel\"}\n".to_string(),
            true,
        ),
        (
            "{\"arrival\":1,\"id\":1,\"type\":\"cancel\"}}".to_string(),
            false,
        ),
        ("{\"type\":\"drain\"}]".to_string(), false),
        (
            "{\"arrival\":1,\"id\":1,\"nodes\":4294967295,\"runtime\":1,\"type\":\"submit\"}"
                .to_string(),
            true,
        ),
        (
            "{\"arrival\":1e400,\"id\":1,\"type\":\"cancel\"}".to_string(),
            false,
        ),
        (
            "{\"arrival\":1,\"id\":1,\"nodes\":2,\"runtime\":1e400,\"type\":\"submit\"}"
                .to_string(),
            false,
        ),
        (
            "{\"arrival\":1,\"id\":-0,\"type\":\"cancel\"}".to_string(),
            false,
        ),
        (
            "{\"arrival\":1,\"id\":01,\"type\":\"cancel\"}".to_string(),
            true,
        ),
        (
            "{\"arrival\":-0,\"id\":01,\"nodes\":02,\"runtime\":1,\"type\":\"submit\"}".to_string(),
            true,
        ),
        (
            "{\"arrival\":1E+2,\"id\":1,\"nodes\":2,\"runtime\":1e-2,\"type\":\"submit\"}"
                .to_string(),
            true,
        ),
        (
            "{\"arrival\":1,\"id\":1E+2,\"type\":\"cancel\"}".to_string(),
            false,
        ),
        (
            "{\"arrival\":1,\"id\":1,\"nodes\":1E+2,\"runtime\":1,\"type\":\"submit\"}".to_string(),
            false,
        ),
        (format!("{{{submit},\"type\":\"submit\"}} "), true),
        (format!("{{{submit},\"type\":\"submit\"}}\n"), true),
        (
            "{\"arrival\":1,\"id\":1,\"type\":\"submit\"}".to_string(),
            false,
        ),
        (format!("{{{submit},\"type\":\"cancel\"}}"), true),
    ] {
        check_request(&doc).unwrap();
        assert_eq!(Request::from_json(&doc).is_ok(), accepted, "{doc}");
    }
}
