//! Simulation time types.
//!
//! The simulator keeps a single global timeline in integer nanoseconds.
//! Nanosecond resolution keeps every quantity in the paper's range —
//! microsecond collective phases up to multi-hour cron periods — exactly
//! representable without rounding drift (u64 nanoseconds covers ~584 years).
//!
//! Two newtypes keep instants and durations from being mixed up:
//! [`SimTime`] is a point on the timeline, [`SimDur`] is a length of time.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An instant on the simulation timeline, in nanoseconds since the epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulation time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline sentinel.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Instant `n` nanoseconds after the epoch.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }
    /// Instant `us` microseconds after the epoch.
    ///
    /// # Panics
    /// Panics if the instant is not representable in u64 nanoseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(checked_ns(us, 1_000, "µs"))
    }
    /// Instant `ms` milliseconds after the epoch.
    ///
    /// # Panics
    /// Panics if the instant is not representable in u64 nanoseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(checked_ns(ms, 1_000_000, "ms"))
    }
    /// Instant `s` seconds after the epoch.
    ///
    /// # Panics
    /// Panics if the instant is not representable in u64 nanoseconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(checked_ns(s, 1_000_000_000, "s"))
    }

    /// Raw nanosecond count.
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// Whole microseconds (truncating).
    pub const fn micros(self) -> u64 {
        self.0 / 1_000
    }
    /// Time as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// Time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`; saturates to zero if `earlier`
    /// is in this instant's future.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The next instant at or after `self` that is an exact multiple of
    /// `period` from `phase`. Used for tick alignment and for the
    /// co-scheduler's second-boundary alignment (§4 of the paper).
    ///
    /// If `self` already lies on a boundary, `self` is returned.
    pub fn align_up(self, period: SimDur, phase: SimDur) -> SimTime {
        assert!(period.0 > 0, "alignment period must be nonzero");
        let p = period.0;
        let ph = phase.0 % p;
        let t = self.0;
        // Smallest x >= t with x ≡ ph (mod p).
        let rem = (t + p - ph % p) % p; // distance past the previous boundary
        let _ = rem;
        let base = t.saturating_sub(ph) / p * p + ph;
        if base >= t {
            SimTime(base)
        } else {
            SimTime(base + p)
        }
    }

    /// The next *strictly later* boundary (see [`SimTime::align_up`]).
    pub fn next_boundary(self, period: SimDur, phase: SimDur) -> SimTime {
        let aligned = self.align_up(period, phase);
        if aligned > self {
            aligned
        } else {
            aligned + period
        }
    }
}

impl SimDur {
    /// A zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Duration of `n` nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDur(n)
    }
    /// Duration of `us` microseconds.
    ///
    /// # Panics
    /// Panics if the duration is not representable in u64 nanoseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDur(checked_ns(us, 1_000, "µs"))
    }
    /// Duration of `ms` milliseconds.
    ///
    /// # Panics
    /// Panics if the duration is not representable in u64 nanoseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDur(checked_ns(ms, 1_000_000, "ms"))
    }
    /// Duration of `s` seconds.
    ///
    /// # Panics
    /// Panics if the duration is not representable in u64 nanoseconds.
    pub fn from_secs(s: u64) -> Self {
        SimDur(checked_ns(s, 1_000_000_000, "s"))
    }

    /// Raw nanosecond count.
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// Whole microseconds (truncating).
    pub const fn micros(self) -> u64 {
        self.0 / 1_000
    }
    /// Duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// Duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// True iff this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative float (used for duty cycles and jitter).
    ///
    /// The multiply runs in u128 fixed point (the factor is held as a
    /// rounded 64.64 binary fraction), so durations above 2^53 ns do not
    /// lose nanoseconds to an f64 round-trip.
    ///
    /// # Panics
    /// Panics if `k` is negative/non-finite or the product overflows u64
    /// nanoseconds.
    pub fn mul_f64(self, k: f64) -> SimDur {
        assert!(
            k >= 0.0 && k.is_finite(),
            "scale factor must be finite and non-negative, got {k}"
        );
        // k as a 64.64 fixed-point fraction. Splitting off the integer
        // part first keeps the fractional scale exact for any finite k
        // (the 2^64 shift is a power of two, so `fract * 2^64` only
        // rescales the mantissa).
        let int = k.trunc() as u128;
        let frac = (k.fract() * 18_446_744_073_709_551_616.0).round() as u128; // 2^64
        let n = u128::from(self.0);
        let scaled = n
            .checked_mul(int)
            .and_then(|whole| {
                let part = (n * frac + (1u128 << 63)) >> 64; // round to nearest ns
                whole.checked_add(part)
            })
            .unwrap_or_else(|| panic!("duration overflow: {} ns * {k}", self.0));
        assert!(
            scaled <= u128::from(u64::MAX),
            "duration overflow: {} ns * {k} exceeds u64 nanoseconds",
            self.0
        );
        SimDur(scaled as u64)
    }
}

/// `value * ns_per_unit` with overflow reported against the offending
/// value, for the unit-suffixed constructors.
fn checked_ns(value: u64, ns_per_unit: u64, unit: &str) -> u64 {
    value.checked_mul(ns_per_unit).unwrap_or_else(|| {
        panic!("time value {value}{unit} overflows u64 nanoseconds (~584 years)")
    })
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}
impl Rem<SimDur> for SimTime {
    type Output = SimDur;
    fn rem(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 % rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}
impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}
impl SubAssign for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}
impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}
impl Div<SimDur> for SimDur {
    type Output = u64;
    fn div(self, rhs: SimDur) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}
impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

/// Human-scaled rendering of a nanosecond count (e.g. `350.0µs`, `1.315s`).
fn fmt_ns(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.3}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimDur::from_secs(1).nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_micros(100);
        let d = SimDur::from_micros(40);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        let mut u = t;
        u += d;
        assert_eq!(u, SimTime::from_micros(140));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(b.since(a), SimDur::from_micros(4));
        assert_eq!(a.since(b), SimDur::ZERO);
    }

    #[test]
    fn align_up_on_boundary_is_identity() {
        let p = SimDur::from_millis(10);
        let t = SimTime::from_millis(30);
        assert_eq!(t.align_up(p, SimDur::ZERO), t);
    }

    #[test]
    fn align_up_rounds_up() {
        let p = SimDur::from_millis(10);
        assert_eq!(
            SimTime::from_millis(31).align_up(p, SimDur::ZERO),
            SimTime::from_millis(40)
        );
        // Phase of 1ms: boundaries at 1, 11, 21, ... (the staggered-tick layout).
        assert_eq!(
            SimTime::from_millis(31).align_up(p, SimDur::from_millis(1)),
            SimTime::from_millis(31)
        );
        assert_eq!(
            SimTime::from_millis(32).align_up(p, SimDur::from_millis(1)),
            SimTime::from_millis(41)
        );
    }

    #[test]
    fn next_boundary_is_strictly_later() {
        let p = SimDur::from_secs(1);
        let t = SimTime::from_secs(10);
        assert_eq!(t.next_boundary(p, SimDur::ZERO), SimTime::from_secs(11));
        let t2 = SimTime::from_millis(10_500);
        assert_eq!(t2.next_boundary(p, SimDur::ZERO), SimTime::from_secs(11));
    }

    #[test]
    fn duty_cycle_scaling() {
        let w = SimDur::from_secs(5);
        assert_eq!(w.mul_f64(0.9), SimDur::from_millis(4_500));
        assert_eq!(w.mul_f64(0.0), SimDur::ZERO);
    }

    #[test]
    fn mul_f64_is_exact_above_f64_precision() {
        // 2^53 + 1 ns is not representable in f64; the old f64 round-trip
        // lost the low bit even at k = 1.0.
        let d = SimDur::from_nanos((1 << 53) + 1);
        assert_eq!(d.mul_f64(1.0), d);
        // Halving is a power-of-two scale: exact at any magnitude.
        let big = SimDur::from_nanos(u64::MAX - 1);
        assert_eq!(big.mul_f64(0.5), SimDur::from_nanos((u64::MAX - 1) / 2));
    }

    #[test]
    #[should_panic(expected = "overflows u64 nanoseconds")]
    fn from_secs_overflow_panics() {
        // Would silently wrap with the old unchecked multiply.
        let _ = SimDur::from_secs(18_500_000_000);
    }

    #[test]
    #[should_panic(expected = "duration overflow")]
    fn mul_f64_overflow_panics() {
        let _ = SimDur::from_nanos(u64::MAX).mul_f64(2.0);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", SimDur::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", SimDur::from_micros(350)), "350.0µs");
        assert_eq!(format!("{}", SimDur::from_millis(600)), "600.000ms");
        assert_eq!(format!("{}", SimDur::from_secs(1315)), "1315.000s");
    }

    #[test]
    fn div_counts_periods() {
        assert_eq!(SimDur::from_secs(1) / SimDur::from_millis(10), 100);
    }
}
