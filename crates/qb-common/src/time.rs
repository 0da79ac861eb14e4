//! Logical simulation time.
//!
//! The whole reproduction runs against a logical clock measured in
//! microseconds. Latency models add to it; nothing reads the wall clock, so
//! experiment output is identical across machines and runs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimInstant(pub u64);

/// A span of simulated time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimInstant {
    /// Simulation start.
    pub const ZERO: SimInstant = SimInstant(0);

    /// Microseconds since simulation start.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier` (saturating).
    pub fn since(&self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Build from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Build from seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Build from fractional milliseconds (rounds to the nearest microsecond).
    pub fn from_millis_f64(ms: f64) -> SimDuration {
        SimDuration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// Microseconds.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds as floating point (for reporting).
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as floating point (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Maximum of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimInstant::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        let t2 = t + SimDuration::from_secs(1);
        assert_eq!((t2 - t).as_micros(), 1_000_000);
        assert_eq!(t2.since(t).as_secs_f64(), 1.0);
        // Saturating subtraction: earlier.since(later) == 0.
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_millis_f64(), 3.0);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(-1.0).as_micros(), 0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(500).to_string(), "500us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn max_picks_the_longer_duration() {
        let a = SimDuration::from_millis(2);
        let b = SimDuration::from_millis(5);
        assert_eq!(a.max(b), b);
    }
}
