//! Simulated time.
//!
//! Time is measured in integer microseconds from the start of the
//! simulation. Integer time gives the kernel a total order that is exact
//! and platform-independent, which floating-point timestamps cannot
//! guarantee once values are produced by transcendental sampling code.
//! One microsecond of resolution is far below anything the study measures
//! (queue waits are minutes to days), and `u64` microseconds overflow
//! after ~584 000 years of simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const MICROS_PER_SEC: f64 = 1_000_000.0;

/// An absolute instant in simulated time (microseconds since t = 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel
    /// in availability profiles.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from (non-negative, finite) seconds, rounding to
    /// the nearest microsecond.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }

    /// Raw microseconds since t = 0.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated causality never
    /// runs backwards, so such a call is a logic error.
    pub fn since(self, earlier: SimTime) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: {earlier} is after {self}"
        );
        Duration(self.0 - earlier.0)
    }

    /// Saturating addition of a span (saturates at `SimTime::MAX`).
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Builds a span from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Builds a span from (non-negative, finite) seconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs(secs: f64) -> Self {
        Duration(secs_to_micros(secs))
    }

    /// Builds a span from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        Duration(hours * 3_600 * 1_000_000)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two spans.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Multiplies the span by a non-negative factor, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN.
    pub fn scale(self, factor: f64) -> Duration {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "Duration::scale: invalid factor {factor}"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "simulated time must be finite and non-negative, got {secs}"
    );
    let us = (secs * MICROS_PER_SEC).round();
    assert!(us <= u64::MAX as f64, "simulated time overflow: {secs} s");
    us as u64
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                .expect("SimTime overflow: instant + span"),
        )
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(d.0)
                .expect("SimTime underflow: span larger than instant"),
        )
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(
            self.0
                .checked_add(other.0)
                .expect("Duration overflow in addition"),
        )
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        *self = *self + other;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, other: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(other.0)
                .expect("Duration underflow in subtraction"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, other: Duration) {
        *self = *self - other;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, k: u64) -> Duration {
        Duration(self.0.checked_mul(k).expect("Duration overflow in mul"))
    }
}

impl Div<Duration> for Duration {
    /// Ratio of two spans, e.g. `turnaround / runtime` when computing
    /// stretch.
    type Output = f64;
    fn div(self, other: Duration) -> f64 {
        assert!(!other.is_zero(), "division by zero Duration");
        self.0 as f64 / other.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_seconds() {
        let t = SimTime::from_secs(12.345678);
        assert!((t.as_secs() - 12.345678).abs() < 1e-9);
    }

    #[test]
    fn rounding_to_nearest_microsecond() {
        assert_eq!(SimTime::from_secs(1e-7).as_micros(), 0);
        assert_eq!(SimTime::from_secs(6e-7).as_micros(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + Duration::from_secs(5.0);
        assert_eq!(t, SimTime::from_secs(15.0));
        assert_eq!(t.since(SimTime::from_secs(4.0)), Duration::from_secs(11.0));
        assert_eq!(Duration::from_secs(4.0) / Duration::from_secs(2.0), 2.0);
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    #[should_panic(expected = "since")]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::from_secs(1.0).since(SimTime::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_rejected() {
        let _ = Duration::from_secs(-1.0);
    }

    #[test]
    fn scale_rounds() {
        let d = Duration::from_secs(10.0).scale(1.5);
        assert_eq!(d, Duration::from_secs(15.0));
        assert_eq!(Duration::from_secs(1.0).scale(0.0), Duration::ZERO);
    }

    #[test]
    fn hours_helper() {
        assert_eq!(Duration::from_hours(6), Duration::from_secs(21_600.0));
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(Duration::from_secs(1.0)),
            SimTime::MAX
        );
    }
}
