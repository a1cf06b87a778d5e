//! Simulation time: a `u64` microsecond counter with ergonomic conversions.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in whole microseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators treat it as a plain count. Subtraction saturates at
/// zero rather than panicking so that defensive "time remaining" computations
/// are safe.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SimTime(pub u64);

// The bodies `derive(PartialOrd, Ord)` generate, written out because the
// derived `PartialOrd` calls the banned `partial_cmp` (clippy.toml).
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub(crate) const MICROS_PER_MILLI: u64 = 1_000;
    pub(crate) const MICROS_PER_SEC: u64 = 1_000_000;
    pub const MICROS_PER_HOUR: u64 = 3_600_000_000;

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * Self::MICROS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * Self::MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * Self::MICROS_PER_SEC as f64).round() as u64)
    }

    /// Construct from fractional hours (the paper reports battery lifetimes
    /// in hours).
    #[inline]
    pub fn from_hours_f64(h: f64) -> Self {
        Self::from_secs_f64(h * 3600.0)
    }

    /// Whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / Self::MICROS_PER_SEC as f64
    }

    /// Fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / Self::MICROS_PER_HOUR as f64
    }

    /// Saturating subtraction (`self - other`, floored at zero).
    #[inline]
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub(crate) const fn checked_add(self, other: SimTime) -> Option<SimTime> {
        match self.0.checked_add(other.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Scale a duration by a dimensionless factor (e.g. a slowdown ratio),
    /// rounding to the nearest microsecond. Negative factors clamp to zero.
    #[inline]
    pub fn scale_f64(self, factor: f64) -> SimTime {
        if !factor.is_finite() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturating: simulation code frequently computes "remaining" spans.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    /// Human-friendly: chooses µs / ms / s / h scale.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < Self::MICROS_PER_MILLI {
            write!(f, "{us}µs")
        } else if us < Self::MICROS_PER_SEC {
            write!(f, "{:.3}ms", us as f64 / 1e3)
        } else if us < Self::MICROS_PER_HOUR {
            write!(f, "{:.3}s", us as f64 / 1e6)
        } else {
            write!(f, "{:.3}h", self.as_hours_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_millis(2300).as_secs_f64(), 2.3);
        assert_eq!(SimTime::from_secs(3600).as_hours_f64(), 1.0);
        assert_eq!(SimTime::from_secs_f64(2.3).as_micros(), 2_300_000);
        assert_eq!(SimTime::from_hours_f64(6.13).as_hours_f64(), 6.13);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_secs(1));
    }

    #[test]
    fn scale_rounds_and_clamps() {
        let d = SimTime::from_secs(1);
        assert_eq!(d.scale_f64(0.5), SimTime::from_millis(500));
        assert_eq!(d.scale_f64(-3.0), SimTime::ZERO);
        assert_eq!(d.scale_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", SimTime::from_micros(10)), "10µs");
        assert_eq!(format!("{}", SimTime::from_millis(10)), "10.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(10)), "10.000s");
        assert_eq!(format!("{}", SimTime::from_secs(7200)), "2.000h");
    }

    #[test]
    fn mul_div_scalars() {
        let d = SimTime::from_secs(3);
        assert_eq!(d * 2, SimTime::from_secs(6));
        assert_eq!(d / 3, SimTime::from_secs(1));
    }
}
