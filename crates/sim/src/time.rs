//! Virtual time: nanosecond-resolution instants and durations.
//!
//! All DeLiBA-K experiments report microsecond latencies (Table II) and
//! MB/s / KIOPS rates (Figs. 3–9), so a `u64` nanosecond clock gives more
//! than 500 years of range with sub-cycle precision for a 235 MHz FPGA
//! clock (4.26 ns period).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Round a non-negative float to the nearest integer, half away from
/// zero — bit-identical to `v.round() as u64` for every representable
/// `v` in `[0, 2^52)` — without the libm `round` call, which profiles
/// at several percent of the closed-loop wall clock (every link
/// serialization and every OSD service draw rounds once).
///
/// Exactness: truncation is exact, and for `0 ≤ v < 2^52` the fraction
/// `v - trunc(v)` is representable (it is a multiple of `v`'s own ulp
/// below 1.0), so the subtraction introduces no rounding and the
/// `≥ 0.5` test agrees with `round`'s half-away-from-zero rule.  Note
/// the popular `floor(v + 0.5)` shortcut is *not* exact — it rounds
/// `0.49999999999999994` up — which is why the comparison form is used.
#[inline]
pub fn round_nonneg(v: f64) -> u64 {
    debug_assert!((0.0..4.5e15).contains(&v), "round_nonneg domain: {v}");
    let t = v as u64; // truncate toward zero
    t + ((v - t as f64) >= 0.5) as u64
}

/// An instant on the simulation clock, in nanoseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch, as a float (for reporting).
    #[inline]
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch, as a float (for rates).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`; saturates at zero instead of
    /// underflowing so that ordering bugs surface in assertions, not
    /// panics deep inside the event loop.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nearest ns).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimDuration(round_nonneg(s * 1e9))
    }

    /// Nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scale by an integer factor.
    #[inline]
    pub const fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs >= 0.0);
        SimDuration(round_nonneg(self.0 as f64 * rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}µs", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        assert_eq!(t.as_nanos(), 10_000);
        let t2 = t + SimDuration::from_micros(5);
        assert_eq!((t2 - t).as_nanos(), 5_000);
        assert_eq!(
            (SimDuration::from_micros(7) - SimDuration::from_micros(3)).as_nanos(),
            4_000
        );
        assert_eq!((SimDuration::from_micros(3) * 4).as_nanos(), 12_000);
        assert_eq!((SimDuration::from_micros(12) / 4).as_nanos(), 3_000);
    }

    #[test]
    fn saturating_since_is_zero_for_future() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(200);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 100);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_micros(3);
        let b = SimDuration::from_micros(4);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn float_scaling() {
        let d = SimDuration::from_micros(10) * 1.5;
        assert_eq!(d.as_nanos(), 15_000);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000µs");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_nanos(), 10_000);
    }

    #[test]
    fn round_nonneg_matches_libm_round() {
        // The adversarial cases first: exact halves (away from zero),
        // the value just below 0.5 that floor(v + 0.5) gets wrong, and
        // values adjacent to halves.
        for v in [
            0.0,
            0.25,
            0.49999999999999994,
            0.5,
            0.75,
            1.5,
            2.5,
            2.4999999999999996,
            1e9 + 0.5,
            123_456_789.000_000_1,
            4.0e15,
        ] {
            assert_eq!(round_nonneg(v), v.round() as u64, "v = {v:?}");
        }
        // And a deterministic pseudo-random sweep across magnitudes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 12) as f64 / (1u64 << 20) as f64; // [0, 2^32) with fractions
            assert_eq!(round_nonneg(v), v.round() as u64, "v = {v:?}");
        }
    }
}
