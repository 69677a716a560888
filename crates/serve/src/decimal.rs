//! Decimal text for the numbers the service writes on every request:
//! the integers of acks, requests and frame prefixes, and the
//! fixed-precision floats of the admission log.
//!
//! Both writers give the bytes `core::fmt` gives, without going through
//! it. `{:.3}` and `{:.4}` send each float down `core::fmt`'s
//! exact-precision path (Grisu with a Dragon bignum fallback), and every
//! `write!` pays for `fmt::Arguments` and a `Formatter`; `rbr serve`
//! would pay for both on every submit and every ack.

use std::fmt::Write as _;

/// The decimal digits of `n`, as `n.to_string()` spells them, written
/// into the tail of `buf`.
pub fn u64_digits(n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    let mut rest = n;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            return &buf[at..];
        }
    }
}

/// Appends `n` in decimal, as `write!(out, "{n}")` does.
pub fn write_u64(out: &mut String, n: u64) {
    let mut buf = [0; 20];
    out.push_str(std::str::from_utf8(u64_digits(n, &mut buf)).expect("decimal digits are ASCII"));
}

/// Appends `x` rounded to `P` decimal places, byte for byte as
/// `write!(out, "{x:.P$}")` does.
///
/// `x = m·2^e` is taken exactly: `m·10^P` is formed in a `u128` and
/// shifted right by `−e`, and the bits shifted out round the quotient
/// half to even, as `core::fmt` rounds (`0.0625` → `"0.062"`, `0.1875`
/// → `"0.188"`). The sign bit writes a leading `-`, so `-0.0` and
/// negatives that round to zero keep it. NaN, ±inf and magnitudes of
/// `1e15` and up go through `core::fmt`; the service never writes them.
pub fn write_fixed<const P: u32>(out: &mut String, x: f64) {
    // |x| < 1e15 and P ≤ 4 keep the scaled value below 1e19 < 2^64.
    const { assert!(P <= 4, "at most 4 places") };
    if x.is_nan() || x.abs() >= 1e15 {
        let _ = write!(out, "{x:.places$}", places = P as usize);
        return;
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as u32;
    let fraction = bits & ((1 << 52) - 1);
    // x = m·2^-shift; |x| < 2^50 makes shift at least 3. Past 127 bits
    // the quotient is 0 and the remainder (under 2^67) below half, as
    // it is at 127, so the clamp changes no digit.
    let (m, shift) = match biased {
        0 => (fraction, 1074),
        _ => (fraction | 1 << 52, 1075 - biased),
    };
    let shift = shift.min(127);
    let scale = 10u64.pow(P);
    let scaled = u128::from(m) * u128::from(scale);
    let floor = scaled >> shift;
    let rem = scaled - (floor << shift);
    let half = 1u128 << (shift - 1);
    let round_up = rem > half || (rem == half && floor & 1 == 1);
    let q = (floor + u128::from(round_up)) as u64;
    if x.is_sign_negative() {
        out.push('-');
    }
    write_u64(out, q / scale);
    if P > 0 {
        // `scale + frac` is a 1 followed by the P fraction digits,
        // zero-padded.
        let mut buf = [0; 20];
        let digits = u64_digits(scale + q % scale, &mut buf);
        out.push('.');
        out.push_str(std::str::from_utf8(&digits[1..]).expect("decimal digits are ASCII"));
    }
}
