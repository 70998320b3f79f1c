//! Virtual time: [`SimTime`] instants and [`SimDuration`] spans.
//!
//! Both are microsecond-granular `u64`s. Microseconds comfortably cover
//! the paper's longest runs (1000 lookups × 600 s ≈ 6·10^8 µs) with room
//! to spare, while keeping every arithmetic operation exact — no floating
//! point drift between runs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub};

/// An instant of simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant `ms` milliseconds after the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant `s` seconds after the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub(crate) fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier.0 <= self.0, "duration_since of a later instant");
        SimDuration(self.0 - earlier.0)
    }

    /// The span since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` for the zero span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `rhs` spans fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_on_inversion() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn division_and_modulo() {
        let period = SimDuration::from_secs(60);
        let elapsed = SimDuration::from_secs(150);
        assert_eq!(elapsed / period, 2);
        assert_eq!(elapsed % period, SimDuration::from_secs(30));
        assert_eq!(period * 3, SimDuration::from_secs(180));
        assert_eq!(period / 2, SimDuration::from_secs(30));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }
}
