//! A minimal complex number type for the FFT kernels.
//!
//! Written from scratch (no `num-complex` dependency).

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    #[cfg(test)]
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A real number embedded in ℂ.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `r · e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// The unit phasor `e^{iθ}` — FFT twiddle factors.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[cfg(test)]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn field_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert!(close(a + b, Complex::new(4.0, 1.0)));
        assert!(close(a - b, Complex::new(-2.0, 3.0)));
        assert!(close(a * b, Complex::new(5.0, 5.0)));
        assert!(close((a * b) / b, a));
        assert!(close(-a, Complex::new(-1.0, -2.0)));
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = Complex::new(0.0, 1.0);
        assert!(close(i * i, -Complex::ONE));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.conj(), Complex::real(25.0)));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.im.atan2(z.re) - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let theta = k as f64 * 0.3;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scale_is_real_multiplication() {
        let z = Complex::new(1.5, -2.5);
        assert!(close(z.scale(2.0), Complex::new(3.0, -5.0)));
    }
}
