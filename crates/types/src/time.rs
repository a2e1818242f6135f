//! Virtual time for the discrete-event simulation.
//!
//! SimDC runs entirely on a virtual clock so that simulating 100,000 devices
//! takes milliseconds of wall time and is exactly reproducible. Time is kept
//! in integer microseconds; [`SimInstant`] is a point on the virtual
//! timeline, [`SimDuration`] a span between points.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of microseconds per second.
const MICROS_PER_SEC: u64 = 1_000_000;
/// Number of microseconds per millisecond.
const MICROS_PER_MILLI: u64 = 1_000;

/// A span of virtual time, stored as integer microseconds.
///
/// ```
/// use simdc_types::SimDuration;
/// let d = SimDuration::from_millis(1_500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d * 4, SimDuration::from_secs(6));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A duration of length zero.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * MICROS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from whole minutes.
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * MICROS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, saturating on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let micros = secs * MICROS_PER_SEC as f64;
        if micros >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(micros.round() as u64)
        }
    }

    /// Returns the duration in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MILLI
    }

    /// Returns the duration in whole seconds (truncating).
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Returns the duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns the duration in fractional minutes.
    #[must_use]
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Whether the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two durations, saturating at [`SimDuration::MAX`].
    #[must_use]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Subtracts `rhs`, saturating at zero.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
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

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 60.0 {
            write!(f, "{:.2}min", secs / 60.0)
        } else if secs >= 1.0 {
            write!(f, "{secs:.3}s")
        } else {
            write!(f, "{:.3}ms", self.0 as f64 / MICROS_PER_MILLI as f64)
        }
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc.saturating_add(d))
    }
}

/// A point on the virtual timeline (microseconds since simulation start).
///
/// ```
/// use simdc_types::{SimDuration, SimInstant};
/// let t0 = SimInstant::EPOCH;
/// let t1 = t0 + SimDuration::from_secs(3);
/// assert_eq!(t1.duration_since(t0), SimDuration::from_secs(3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The start of simulated time.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant from microseconds since the epoch.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimInstant(micros)
    }

    /// Microseconds since the epoch.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant ({} > {})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the span from `earlier` to `self`, or zero if `earlier` is
    /// later.
    #[must_use]
    pub const fn saturating_duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds `rhs`, saturating at the last representable instant.
    #[must_use]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.0)
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
    fn conversions_are_consistent() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(2_000).as_secs(), 2);
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert_eq!(SimDuration::from_micros(1_500_000).as_secs_f64(), 1.5);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(1.0).as_secs(), 1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_secs(1)),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimInstant::from_micros(5).saturating_add(SimDuration::MAX),
            SimInstant::from_micros(u64::MAX)
        );
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimInstant::EPOCH + SimDuration::from_secs(10);
        assert_eq!(t.as_secs_f64(), 10.0);
        assert_eq!(
            t.duration_since(SimInstant::EPOCH),
            SimDuration::from_secs(10)
        );
        assert_eq!(
            SimInstant::EPOCH.saturating_duration_since(t),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_on_reversed_order() {
        let t = SimInstant::EPOCH + SimDuration::from_secs(1);
        let _ = SimInstant::EPOCH.duration_since(t);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimDuration::from_mins(2).to_string(), "2.00min");
        assert_eq!(
            (SimInstant::EPOCH + SimDuration::from_secs(1)).to_string(),
            "t+1.000s"
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn mul_div_scalars() {
        assert_eq!(SimDuration::from_secs(3) * 2, SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(6) / 2, SimDuration::from_secs(3));
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.5),
            SimDuration::from_secs(5)
        );
    }
}
