//! Virtual time.
//!
//! The simulation clock is a `u64` count of nanoseconds since the start of
//! the run. Nanosecond resolution leaves headroom for both the paper's
//! real-time staleness bounds (milliseconds to seconds) and for very long
//! horizons (a `u64` of nanoseconds spans ~584 years).
//!
//! [`SimTime`] is a point on that clock; [`SimDuration`] is a distance
//! between two points. Keeping them as distinct newtypes catches the usual
//! "added two timestamps" class of bug at compile time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input — simulated time never runs backwards.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "SimTime must be finite and non-negative, got {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (lossy above 2^53 ns; fine for any
    /// realistic horizon).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Saturates to zero instead of
    /// panicking so that metric code can be written without ordering
    /// pre-checks.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Index of the batching interval containing this instant, for
    /// intervals of length `t` aligned to the origin. The paper buffers
    /// writes and flushes them "at the end of each interval of `T`"; this
    /// is the canonical mapping from an instant to its interval.
    ///
    /// Panics if `t` is zero.
    #[inline]
    pub fn interval_index(self, t: SimDuration) -> u64 {
        assert!(t.0 > 0, "interval length must be positive");
        self.0 / t.0
    }

    /// The instant at which the interval containing `self` ends (i.e. the
    /// next flush deadline at or after `self`, exclusive start).
    #[inline]
    pub fn interval_end(self, t: SimDuration) -> SimTime {
        SimTime((self.interval_index(t) + 1).saturating_mul(t.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "SimDuration must be finite and non-negative, got {s}");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
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

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_micros(250).as_nanos(), 250_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_secs_f64(), 0.25);
    }

    #[test]
    fn time_duration_arithmetic() {
        let t0 = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t0 + d, SimTime::from_secs(14));
        assert_eq!((t0 + d) - t0, d);
        assert_eq!(t0 - d, SimTime::from_secs(6));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_since_does_not_underflow() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn interval_math_matches_paper_batching() {
        // Interval length T = 2s aligned at the origin.
        let t = SimDuration::from_secs(2);
        assert_eq!(SimTime::from_secs(0).interval_index(t), 0);
        assert_eq!(SimTime::from_millis(1999).interval_index(t), 0);
        assert_eq!(SimTime::from_secs(2).interval_index(t), 1);
        assert_eq!(SimTime::from_millis(500).interval_end(t), SimTime::from_secs(2));
        assert_eq!(SimTime::from_secs(2).interval_end(t), SimTime::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "interval length must be positive")]
    fn zero_interval_panics() {
        let _ = SimTime::from_secs(1).interval_index(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(3)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }
}
