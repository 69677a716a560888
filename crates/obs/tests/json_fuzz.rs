//! Hostile bytes for the one JSON codec. Every byte reader in the
//! workspace (trace files, metrics snapshots, reports, journals, cache
//! entries, wire frames) ends in `json::parse` or `json::read_fields`,
//! so both must answer any input with `Ok` or `Err`: no panic, no stack
//! overflow, nothing slower than linear.
//!
//! Inputs are random bytes, mutants of valid documents (bytes deleted,
//! inserted or replaced and spans spliced, as `wire_props.rs` mutates
//! wire documents), nesting bombs past `MAX_DEPTH`, and inputs of 1 MiB.
//! Each input is also held to the readers' contract: `read_fields`
//! accepts exactly the documents `parse` accepts whose top level is an
//! object. Mutants also go through the metrics-snapshot loader.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use proptest::test_runner::TestRng;
use rbr_obs::json::{self, Json, MAX_DEPTH};

/// Keys `read_fields` keeps: the wire's, a trace record's and a report's.
const KEYS: [&str; 6] = ["type", "id", "arrival", "kind", "t", "meta"];

/// Valid documents of every kind the workspace reads: trace records,
/// a report and wire messages.
const DOCS: &[&str] = &[
    "{\"kind\":\"event\",\"clock\":\"sim\",\"t\":12.5,\"name\":\"grid.submit\",\
     \"fields\":{\"cluster\":3,\"proto\":\"R2\",\"load\":0.75,\"delta\":-2}}",
    "{\"kind\":\"phase\",\"scope\":\"grid.run\",\"name\":\"queue-ops\",\"secs\":0.042}",
    "{\"kind\":\"span\",\"name\":\"exec.fold\",\"secs\":1.5e-5}",
    "{\"meta\":{\"experiment\":\"sample\",\"paper_section\":\"§0\",\"scale\":\"smoke\",\
     \"seed\":18446744073709551615,\"replications\":2,\"sim_runs\":4,\"jobs\":123,\
     \"events\":4567,\"wall_time_secs\":0.25},\"tables\":[{\"name\":\"Sample — \\\"quoted\\\", \
     comma\",\"columns\":[\"label\",\"n\",\"metric\"],\"rows\":[[\"plain\",42,0.8125],\
     [\"esc \\\\ \\\"\\n\\ttab · π\",-7,null],[\"pct\",0,0.875]]}]}",
    "{\"arrival\":0.30000000000000004,\"id\":4503599627370497,\"nodes\":32,\"runtime\":600,\
     \"type\":\"submit\"}",
    "{\"arrival\":1000000000000000000000,\"id\":7,\"type\":\"cancel\"}",
    "{\"type\":\"drain\"}",
    "{\"id\":7,\"redundancy\":3,\"txn\":11,\"type\":\"ack\",\"verdict\":\"redundant\"}",
    "{\"acks\":130,\"shed\":4,\"submits\":100,\"transactions\":13,\"type\":\"drained\"}",
    "{\"ty\\u0070e\":\"drain\",\"x\":[{\"\\ud83d\\ude00\":true},false,null,-0.0e+1]}",
];

/// Framed wire messages: not JSON as a whole, so each is refused.
const FRAMES: &[&str] = &[
    "37:{\"id\":7,\"txn\":12,\"type\":\"cancel-ack\"}\n",
    "16:{\"type\":\"drain\"}\n",
];

/// A metrics snapshot from the registry.
fn snapshot() -> String {
    rbr_obs::metrics::set_enabled(true);
    rbr_obs::metrics::counter("fuzz.counter").add(12);
    rbr_obs::metrics::gauge("fuzz.gauge").set(-0.5);
    let h = rbr_obs::metrics::histogram("fuzz.histogram");
    for v in [0, 3, 900, u64::MAX] {
        h.observe(v);
    }
    rbr_obs::metrics::snapshot().render_json()
}

/// Every seed input: the documents, the frames and a snapshot.
fn corpus() -> Vec<String> {
    let seeds = DOCS.iter().chain(FRAMES).map(|d| d.to_string());
    seeds.chain([snapshot()]).collect()
}

/// The head of `text`, for a failure message.
fn head(text: &str) -> String {
    text.chars().take(120).collect()
}

/// Reads `text` with both readers: a panic in either fails the test
/// naming the input, and so does a disagreement on whether it is an
/// object document.
fn read_both(text: &str) -> Result<Json, String> {
    let (tree, fields) = catch_unwind(AssertUnwindSafe(|| {
        (json::parse(text), json::read_fields(text, KEYS))
    }))
    .unwrap_or_else(|_| panic!("a reader panicked on {:?}", head(text)));
    assert_eq!(
        fields.is_ok(),
        matches!(tree, Ok(Json::Obj(_))),
        "the readers disagree on {:?}: {fields:?}",
        head(text)
    );
    tree
}

/// Reads `text` as a metrics snapshot (`rbr obs metrics`'s loader,
/// which reads through `parse`): a panic fails the test naming the
/// input. True when it loads.
fn read_snapshot(text: &str) -> bool {
    catch_unwind(|| rbr_obs::report::parse_snapshot(text).is_ok())
        .unwrap_or_else(|_| panic!("the snapshot loader panicked on {:?}", head(text)))
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// One to three edits of `doc`, as `wire_props.rs` mutates documents:
/// bytes deleted, inserted or replaced (now and then with a control
/// byte or half of a two-byte char), or a span of the document spliced
/// in elsewhere.
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
                    1 => 0xC3,
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

#[test]
fn the_seed_documents_are_valid() {
    for doc in DOCS.iter().copied().chain([snapshot().as_str()]) {
        assert!(read_both(doc).is_ok(), "{doc}");
    }
    assert!(read_snapshot(&snapshot()));
    for frame in FRAMES {
        assert!(read_both(frame).is_err(), "{frame}");
    }
}

#[test]
fn random_bytes_are_answered_without_a_panic() {
    const ALPHABET: &[u8] = b"{}[]\":,\\ \t\n0123456789.eE+-abtnrfulsy";
    let mut rng = TestRng::for_test("random_bytes_are_answered_without_a_panic");
    for _ in 0..20_000 {
        let len = rng.below(48) as usize;
        let bytes: Vec<u8> = if rng.below(2) == 0 {
            (0..len).map(|_| rng.next_u64() as u8).collect()
        } else {
            (0..len).map(|_| pick(&mut rng, ALPHABET)).collect()
        };
        let _ = read_both(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn mutated_documents_are_answered_without_a_panic() {
    let mut rng = TestRng::for_test("mutated_documents_are_answered_without_a_panic");
    let docs = corpus();
    let mut accepted = 0;
    let mut total = 0;
    for doc in &docs {
        for _ in 0..600 {
            // A chain of mutants drifts further from the document.
            let mut text = mutate(doc, &mut rng);
            for _ in 0..rng.below(3) {
                text = mutate(&text, &mut rng);
            }
            let parsed = read_both(&text).is_ok();
            assert!(parsed || !read_snapshot(&text), "{:?}", head(&text));
            accepted += usize::from(parsed);
            total += 1;
        }
    }
    // Some mutants stay valid (an edit inside a string or a number), so
    // the accepting paths run too.
    assert!(accepted > total / 50, "{accepted} of {total} accepted");
}

#[test]
fn nesting_bombs_are_errors() {
    let over = MAX_DEPTH + 1;
    for depth in [over, 2 * MAX_DEPTH, 1_000, 100_000, 1 << 20] {
        let arrays = "[".repeat(depth);
        let objects = "{\"a\":".repeat(depth);
        let mixed = "[{\"a\":".repeat(depth.div_ceil(2));
        let closed = format!("{arrays}{}", "]".repeat(depth));
        let in_a_field = format!("{{\"type\":{arrays}");
        let in_another = format!("{{\"other\":{closed}}}");
        for bomb in [arrays, objects, mixed, closed, in_a_field, in_another] {
            let err = read_both(&bomb).unwrap_err();
            assert!(err.contains("nested deeper"), "{err} on {:?}", head(&bomb));
        }
    }
}

/// 1 MiB inputs of every shape the grammar has, each read by both
/// readers in under 2 s even in a debug build, where the tree reader's
/// allocation per value takes up to a quarter of that; a quadratic scan
/// would take hours.
#[test]
fn megabyte_inputs_are_read_in_linear_time() {
    const MIB: usize = 1 << 20;
    let numbers: Vec<String> = (0..MIB / 8).map(|i| format!("{i}.5e-3")).collect();
    let keys: Vec<String> = (0..MIB / 16).map(|i| format!("\"key{i}\":{i}")).collect();
    let legal_depth = format!(
        "[{}]",
        vec![format!("{}{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1)); MIB / 64]
            .join(",")
    );
    let inputs = [
        format!("[{}]", numbers.join(",")),
        format!("{{{}}}", keys.join(",")),
        format!("{{{},\"key0\":0}}", keys.join(",")),
        legal_depth,
        format!("\"{}\"", "\\u00e9\\n".repeat(MIB / 8)),
        format!("{{\"kind\":\"{}\"}}", "é".repeat(MIB / 2)),
        format!("1{}", "0".repeat(MIB)),
        format!("{}{{}}{}", " ".repeat(MIB / 2), "\n".repeat(MIB / 2)),
        mutate(
            &format!("[{}]", numbers.join(",")),
            &mut TestRng::for_test("mib"),
        ),
    ];
    for text in &inputs {
        let start = Instant::now();
        let _ = read_both(text);
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{took:?} on {} bytes of {:?}",
            text.len(),
            head(text)
        );
    }
}
