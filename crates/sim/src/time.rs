//! Simulated time: millisecond-resolution instants and durations.
//!
//! All experiment clocks in the workspace are simulated — wall-clock time
//! never leaks in, which keeps every run bit-for-bit reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (milliseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1000)
    }

    /// Raw milliseconds since simulation start.
    pub const fn as_millis(&self) -> u64 {
        self.0
    }

    /// Seconds since simulation start (fractional).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be after `self`"),
        )
    }

    /// Saturating duration since another instant (zero if `other` is later).
    #[cfg(test)]
    fn saturating_since(&self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1000)
    }

    /// Creates a duration from fractional seconds (rounded to ms).
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s >= 0.0 && s.is_finite(), "duration must be non-negative");
        SimDuration((s * 1000.0).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.0
    }

    /// Seconds (fractional).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Scales a duration by an integer factor.
    pub fn saturating_mul(&self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(500);
        assert_eq!((t + d).as_millis(), 10_500);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t + d - t, d);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a).as_millis(), 1000);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_negative() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
        assert!((SimTime::from_millis(2500).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::from_millis(1234).to_string(), "1.234s");
    }
}
