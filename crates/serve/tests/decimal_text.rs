//! The service's number writers against `core::fmt`. `rbr_serve::decimal`
//! writes the admission log's fixed-precision floats and every integer
//! of the wire without `core::fmt`; each must give the bytes `core::fmt`
//! gives. The `*_reference` functions below are the `format!` / `write!`
//! expressions the writers replaced, kept here as the oracle.

use std::fmt::Write as _;

use proptest::test_runner::TestRng;
use rbr_obs::json;
use rbr_serve::decimal::{u64_digits, write_fixed, write_u64};
use rbr_serve::wire::{encode_frame, Request, Response, Verdict};
use rbr_serve::Decision;

fn fixed<const P: u32>(x: f64) -> String {
    let mut out = String::new();
    write_fixed::<P>(&mut out, x);
    out
}

/// `write_fixed` against `format!` at every precision the log uses, and
/// at 0 places.
fn check_fixed(x: f64) {
    assert_eq!(
        fixed::<0>(x),
        format!("{x:.0}"),
        "{x:e} ({:#x})",
        x.to_bits()
    );
    assert_eq!(
        fixed::<3>(x),
        format!("{x:.3}"),
        "{x:e} ({:#x})",
        x.to_bits()
    );
    assert_eq!(
        fixed::<4>(x),
        format!("{x:.4}"),
        "{x:e} ({:#x})",
        x.to_bits()
    );
}

#[test]
fn fixed_matches_format_on_random_bit_patterns() {
    let mut rng = TestRng::for_test("fixed_matches_format_on_random_bit_patterns");
    for _ in 0..3_000 {
        // Any pattern: mostly huge or tiny, with NaNs and infinities.
        check_fixed(f64::from_bits(rng.next_u64()));
        // Subnormals, either sign.
        check_fixed(f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff));
        // Exponents from 2^-40 to 2^55, where the digits are written
        // here rather than by the fallback.
        let exponent = 1023 - 40 + rng.below(96);
        let bits = (rng.next_u64() & 0x800f_ffff_ffff_ffff) | exponent << 52;
        check_fixed(f64::from_bits(bits));
    }
}

#[test]
fn fixed_matches_format_next_to_rounding_midpoints() {
    let mut rng = TestRng::for_test("fixed_matches_format_next_to_rounding_midpoints");
    for places in [0, 3, 4] {
        let scale = 10f64.powi(places);
        for _ in 0..400 {
            // Midpoints (k + ½)·10^-p of every magnitude below 1e15.
            let digits = 1 + rng.below(15 + places as u64) as u32;
            let k = rng.below(10u64.pow(digits));
            let mid = (k as f64 + 0.5) / scale;
            for step in -4i64..=4 {
                let bits = mid.to_bits() as i64 + step;
                check_fixed(f64::from_bits(bits as u64));
                check_fixed(-f64::from_bits(bits as u64));
            }
        }
    }
}

#[test]
fn exact_ties_round_half_to_even() {
    assert_eq!(fixed::<3>(0.0625), "0.062");
    assert_eq!(fixed::<3>(0.1875), "0.188");
    assert_eq!(fixed::<3>(0.3125), "0.312");
    assert_eq!(fixed::<0>(2.5), "2");
    assert_eq!(fixed::<0>(3.5), "4");
    assert_eq!(fixed::<4>(0.03125), "0.0312");
    for x in [
        0.0625,
        0.1875,
        0.3125,
        2.5,
        0.5,
        1.5,
        0.03125,
        0.09375,
        1e14 + 0.5,
    ] {
        check_fixed(x);
        check_fixed(-x);
    }
}

#[test]
fn fixed_matches_format_on_special_values() {
    assert_eq!(fixed::<3>(-0.0), "-0.000");
    assert_eq!(fixed::<3>(-0.0001), "-0.000");
    for x in [
        0.0,
        -0.0,
        -1.0,
        -0.0004,
        -123.4567,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        1e15 - 0.125,
        -(1e15 - 0.125),
    ] {
        check_fixed(x);
    }
    for e in 15..=300 {
        let x = 10f64.powi(e);
        check_fixed(x);
        check_fixed(-x);
        check_fixed(x * 1.5);
    }
}

#[test]
fn digits_match_to_string() {
    let mut cases = vec![0, u64::MAX, u64::MAX - 1];
    for k in 0..20 {
        let p = 10u64.pow(k);
        cases.extend([p - 1, p, p + 1]);
    }
    for n in cases {
        let mut out = String::from("x");
        write_u64(&mut out, n);
        assert_eq!(out, format!("x{n}"));
        assert_eq!(u64_digits(n, &mut [0; 20]), n.to_string().as_bytes());
    }
}

/// The log line as `format!` wrote it.
fn log_line_reference(d: &Decision) -> String {
    let bound = match d.bound_secs {
        None => "-".to_string(),
        Some(b) => format!("{b:.3}"),
    };
    format!(
        "job={} r={} verdict={} load={:.4} wait={:.3} bound={}",
        d.id,
        d.redundancy,
        d.verdict.as_str(),
        d.load,
        d.wait_est_secs,
        bound
    )
}

fn request_reference(req: &Request) -> String {
    let mut out = String::new();
    match *req {
        Request::Submit {
            id,
            arrival_secs,
            nodes,
            runtime_secs,
        } => {
            out.push_str("{\"arrival\":");
            json::write_f64(&mut out, arrival_secs, "null");
            let _ = write!(out, ",\"id\":{id},\"nodes\":{nodes},\"runtime\":");
            json::write_f64(&mut out, runtime_secs, "null");
            out.push_str(",\"type\":\"submit\"}");
        }
        Request::Cancel { id, arrival_secs } => {
            out.push_str("{\"arrival\":");
            json::write_f64(&mut out, arrival_secs, "null");
            let _ = write!(out, ",\"id\":{id},\"type\":\"cancel\"}}");
        }
        Request::Drain => out.push_str("{\"type\":\"drain\"}"),
    }
    out
}

fn response_reference(resp: &Response) -> String {
    match *resp {
        Response::Ack {
            id,
            redundancy,
            verdict,
            txn,
        } => format!(
            "{{\"id\":{id},\"redundancy\":{redundancy},\"txn\":{txn},\
             \"type\":\"ack\",\"verdict\":\"{}\"}}",
            verdict.as_str()
        ),
        Response::CancelAck { id, txn } => {
            format!("{{\"id\":{id},\"txn\":{txn},\"type\":\"cancel-ack\"}}")
        }
        Response::Drained {
            submits,
            acks,
            transactions,
            shed,
        } => format!(
            "{{\"acks\":{acks},\"shed\":{shed},\"submits\":{submits},\
             \"transactions\":{transactions},\"type\":\"drained\"}}"
        ),
    }
}

/// An integer of any size, small ones most often.
fn int(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => rng.below(10),
        1 => rng.below(100_000),
        2 => rng.next_u64() >> rng.below(64),
        _ => rng.next_u64(),
    }
}

/// A float as the service sees them (loads, waits, arrival instants),
/// or any bit pattern at all.
fn float(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => rng.unit_f64() * 2.0,
        1 => (rng.unit_f64() * 1e6).floor() / 8.0,
        2 => rng.unit_f64() * 10f64.powi(rng.below(16) as i32),
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn verdict(rng: &mut TestRng) -> Verdict {
    [Verdict::Redundant, Verdict::Single, Verdict::Shed][rng.below(3) as usize]
}

#[test]
fn log_lines_match_the_format_reference() {
    let mut rng = TestRng::for_test("log_lines_match_the_format_reference");
    for i in 0..4_000 {
        let d = Decision {
            id: int(&mut rng),
            redundancy: int(&mut rng) as u32,
            verdict: verdict(&mut rng),
            load: float(&mut rng),
            wait_est_secs: float(&mut rng),
            bound_secs: (i % 2 == 1).then(|| float(&mut rng)),
        };
        let (line, reference) = (d.log_line(), log_line_reference(&d));
        assert_eq!(line, reference, "{d:?}");
        // The same capacity too: the log's heap must not depend on how
        // a line is built. Past 140 bytes (magnitudes of 1e15 and up
        // only) the two grow in different steps.
        if reference.len() <= 140 {
            assert_eq!(line.capacity(), reference.capacity(), "{line}");
        }
    }
}

#[test]
fn wire_writes_match_the_write_reference() {
    let mut rng = TestRng::for_test("wire_writes_match_the_write_reference");
    for _ in 0..4_000 {
        let req = match rng.below(3) {
            0 => Request::Submit {
                id: int(&mut rng),
                arrival_secs: float(&mut rng),
                nodes: int(&mut rng) as u32,
                runtime_secs: float(&mut rng),
            },
            1 => Request::Cancel {
                id: int(&mut rng),
                arrival_secs: float(&mut rng),
            },
            _ => Request::Drain,
        };
        assert_eq!(req.to_json(), request_reference(&req));
        let resp = match rng.below(3) {
            0 => Response::Ack {
                id: int(&mut rng),
                redundancy: int(&mut rng) as u32,
                verdict: verdict(&mut rng),
                txn: int(&mut rng),
            },
            1 => Response::CancelAck {
                id: int(&mut rng),
                txn: int(&mut rng),
            },
            _ => Response::Drained {
                submits: int(&mut rng),
                acks: int(&mut rng),
                transactions: int(&mut rng),
                shed: int(&mut rng),
            },
        };
        assert_eq!(resp.to_json(), response_reference(&resp));
    }
}

#[test]
fn frame_prefixes_match_the_write_reference() {
    for len in [0, 1, 9, 10, 11, 99, 100, 999, 1_000, 65_535, 65_536] {
        let json = "x".repeat(len);
        assert_eq!(encode_frame(&json), format!("{len}:{json}\n").into_bytes());
    }
}
