#![forbid(unsafe_code)]
//! `dles-units` — zero-cost typed physical quantities.
//!
//! The reproduction's arithmetic is unit-dense: the Fig. 7 current model
//! mixes mA, MHz and V²; the battery models integrate mA over hours into
//! mAh; the energy accounts integrate W over seconds into J. A silent
//! mA·s-vs-mAh or ms-vs-s slip produces plausible-looking but wrong
//! lifetimes, so each quantity gets a `#[repr(transparent)]` newtype over
//! `f64` and only the dimensionally valid operator impls exist:
//!
//! ```
//! use dles_units::{Hours, MilliAmps, Seconds, Volts};
//! let i = MilliAmps::new(46.5);
//! let mah = i * Hours::new(2.0);            // MilliAmpHours
//! let p = i * Volts::new(4.0);              // MilliWatts
//! let e = p * Seconds::new(120.0);          // MilliJoules
//! let w = p.to_watts();                     // explicit /1000 conversion
//! assert_eq!(mah.get(), 46.5 * 2.0);
//! assert_eq!(e.get(), 46.5 * 4.0 * 120.0);
//! assert_eq!(w.get(), 46.5 * 4.0 / 1000.0);
//! ```
//!
//! Design constraints, in order of priority:
//!
//! 1. **Bit-transparency.** Every impl forwards to exactly one `f64`
//!    operation, so a migrated call site performs the same operations in
//!    the same order as the bare-`f64` expression it replaced and every
//!    serialized trace/report byte is unchanged. `min`/`max` forward to
//!    `f64::min`/`f64::max` (IEEE NaN semantics) for the same reason.
//! 2. **No conversion without a name.** Scale changes (`/ 1000.0`)
//!    only happen inside `to_*` methods, never implicitly in
//!    an operator, so wherever scales meet the code names the
//!    conversion and the types reject a missing one.
//! 3. **Zero cost.** `#[repr(transparent)]`, `Copy`, `const fn`
//!    constructors; the optimizer sees plain `f64`s.

use core::cmp::Ordering;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Define one quantity newtype with its same-dimension algebra:
/// `Add`/`Sub` (+ assign forms), scalar `Mul`/`Div` by `f64` (+ assign
/// forms and the commuted `f64 * Q`), unitless ratio `Q / Q -> f64`,
/// `Neg`, `Sum`, and total-order helpers.
macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        #[repr(transparent)]
        pub struct $name(f64);

        // The body `derive(PartialOrd)` generates, written out so the one
        // sanctioned float `partial_cmp` carries its reason.
        impl PartialOrd for $name {
            #[inline]
            #[expect(
                clippy::disallowed_methods,
                reason = "IEEE order for `<`/`>` on quantities; sorts use total_cmp"
            )]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }

        impl $name {
            pub const ZERO: Self = Self(0.0);

            /// Wrap a raw value already expressed in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The raw value in this unit.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// IEEE `f64::min` semantics (a NaN operand is ignored).
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// IEEE `f64::max` semantics (a NaN operand is ignored).
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Unitless ratio of two like quantities.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            #[inline]
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

/// `$lhs * $rhs -> $out` (both operand orders; IEEE multiplication is
/// commutative, so the result is bit-identical either way).
macro_rules! dim_mul {
    ($lhs:ident * $rhs:ident = $out:ident) => {
        impl Mul<$rhs> for $lhs {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $rhs) -> $out {
                $out(self.0 * rhs.0)
            }
        }

        impl Mul<$lhs> for $rhs {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $lhs) -> $out {
                $out(self.0 * rhs.0)
            }
        }
    };
}

quantity!(
    /// Duration in seconds.
    Seconds
);
quantity!(
    /// Duration in hours (the battery models' native integration unit).
    Hours
);
quantity!(
    /// CPU clock frequency, **carried in MHz** — the SA-1100 operating
    /// points, megacycle budgets and the Fig. 7 current model all work in
    /// MHz, so that is the stored scale.
    Hertz
);
quantity!(
    /// Electric potential in volts.
    Volts
);
quantity!(
    /// Current in milliamps.
    MilliAmps
);
quantity!(
    /// Current in amps.
    Amps
);
quantity!(
    /// Charge in milliamp-hours (battery capacity unit).
    MilliAmpHours
);
quantity!(
    /// Power in watts.
    Watts
);
quantity!(
    /// Power in milliwatts.
    MilliWatts
);
quantity!(
    /// Energy in joules.
    Joules
);
quantity!(
    /// Energy in millijoules.
    MilliJoules
);
quantity!(
    /// Battery state of charge as a fraction of nominally extractable
    /// capacity, in `[0, 1]`. Dimensionless, but typed: adaptive
    /// scheduling policies compare SoC estimates against thresholds, and
    /// a silent percent-vs-fraction slip would flip every rotation
    /// decision.
    StateOfCharge
);

// Dimensional algebra. Every line is one physical identity; nothing else
// type-checks.
dim_mul!(MilliAmps * Hours = MilliAmpHours);
dim_mul!(MilliAmps * Volts = MilliWatts);
dim_mul!(Amps * Volts = Watts);
dim_mul!(Watts * Seconds = Joules);
dim_mul!(MilliWatts * Seconds = MilliJoules);

impl Div<MilliAmps> for MilliAmpHours {
    type Output = Hours;
    #[inline]
    fn div(self, rhs: MilliAmps) -> Hours {
        Hours(self.0 / rhs.0)
    }
}

// Named scale conversions. These are the only places a scale factor
// appears; each forwards to a single f64 operation so migrated call
// sites stay bit-identical with the `/ 1000.0`-style code they replace.
impl Hertz {
    /// `const` constructor from a MHz value (the stored scale).
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Self(mhz)
    }

    /// The frequency in MHz.
    #[inline]
    pub const fn mhz(self) -> f64 {
        self.0
    }
}

impl MilliAmps {
    /// Lossless `/ 1000` rescale.
    #[inline]
    pub fn to_amps(self) -> Amps {
        Amps(self.0 / 1000.0)
    }
}

impl MilliWatts {
    /// Lossless `/ 1000` rescale.
    #[inline]
    pub fn to_watts(self) -> Watts {
        Watts(self.0 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_layout() {
        assert_eq!(
            core::mem::size_of::<MilliAmps>(),
            core::mem::size_of::<f64>()
        );
        assert_eq!(
            core::mem::align_of::<Joules>(),
            core::mem::align_of::<f64>()
        );
    }

    #[test]
    fn const_constructors_work_in_const_context() {
        const PEAK: Hertz = Hertz::from_mhz(206.4);
        const VCC: Volts = Volts::new(4.0);
        assert_eq!(PEAK.mhz(), 206.4);
        assert_eq!(VCC.get(), 4.0);
    }

    #[test]
    fn same_type_arithmetic() {
        let a = Joules::new(1.5);
        let b = Joules::new(2.25);
        assert_eq!((a + b).get(), 3.75);
        assert_eq!((b - a).get(), 0.75);
        assert_eq!((a * 2.0).get(), 3.0);
        assert_eq!((2.0 * a).get(), 3.0);
        assert_eq!((b / 2.0).get(), 1.125);
        assert_eq!(b / a, 1.5);
        assert_eq!((-a).get(), -1.5);
        let mut acc = Joules::ZERO;
        acc += a;
        acc -= b;
        assert_eq!(acc.get(), 1.5 - 2.25);
    }

    #[test]
    fn soc_scales_capacity_like_the_raw_expression() {
        let soc = StateOfCharge::new(0.37);
        let cap = MilliAmpHours::new(992.7);
        let remaining = cap * soc.get();
        assert_eq!(remaining.get(), 992.7 * 0.37);
        assert_eq!(remaining / cap, 992.7 * 0.37 / 992.7);
        let skew = StateOfCharge::new(0.41) - StateOfCharge::new(0.37);
        assert_eq!(skew.get(), 0.41 - 0.37);
        assert!(StateOfCharge::new(0.5) > StateOfCharge::new(0.25));
    }

    #[test]
    fn dimensional_products_match_raw_f64_expressions() {
        let i = MilliAmps::new(46.5);
        let t = Seconds::new(120.0);
        let v = Volts::new(4.0);
        assert_eq!((i * v).get(), 46.5 * 4.0);
        assert_eq!((v * i).get(), 4.0 * 46.5);
        assert_eq!((i.to_amps() * v).get(), 46.5 / 1000.0 * 4.0);
        assert_eq!(
            (i.to_amps() * v * t).get(),
            46.5 / 1000.0 * 4.0 * 120.0,
            "W·s accumulation must match the historical op order"
        );
    }

    #[test]
    fn charge_conversions_are_the_historical_expressions() {
        let i = MilliAmps::new(130.0);
        assert_eq!((i * Hours::new(2.5)).get(), 130.0 * 2.5);
        assert_eq!((Hours::new(2.5) * i).get(), 2.5 * 130.0);
    }

    #[test]
    fn quotients_recover_their_factors() {
        let cap = MilliAmpHours::new(992.7);
        let i = MilliAmps::new(55.0);
        assert_eq!((cap / i).get(), 992.7 / 55.0);
    }

    #[test]
    fn min_max_keep_ieee_nan_semantics() {
        let nan = Seconds::new(f64::NAN);
        let one = Seconds::new(1.0);
        // f64::max ignores a NaN operand.
        assert_eq!(nan.max(one).get(), 1.0);
        assert_eq!(one.max(nan).get(), 1.0);
        assert!(!nan.is_finite());
        assert!(one.is_finite());
    }

    #[test]
    fn sum_matches_sequential_accumulation() {
        let xs = [0.1, 0.2, 0.3, 0.4];
        let typed: Joules = xs.iter().map(|&x| Joules::new(x)).sum();
        let raw: f64 = xs.iter().sum();
        assert_eq!(typed.get(), raw, "Sum must fold in iteration order");
    }
}
