//! Property tests for `dles-units`, seeded-loop style (the workspace is
//! offline, so no proptest/quickcheck — a splitmix64 generator drives a
//! fixed number of cases per property, fully deterministic).
//!
//! The crate's contract is **bit-transparency**: every operator and every
//! named `to_*` conversion forwards to exactly one `f64` operation, so
//! typed arithmetic must be *bit-identical* (`to_bits`) to the raw
//! expression it replaced, including NaN/∞ cases.

use dles_units::{
    Amps, Hours, Joules, MilliAmpHours, MilliAmps, MilliWatts, Seconds, Volts, Watts,
};

/// splitmix64 — the same finalizer `dles-sim`'s RNG uses.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A value spanning the magnitudes the simulator actually produces
    /// (µA-scale leakage up to multi-MJ energies), either sign.
    fn value(&mut self) -> f64 {
        let mag = 10f64.powf(self.unit() * 12.0 - 6.0);
        if self.next_u64() & 1 == 0 {
            mag
        } else {
            -mag
        }
    }

    /// Occasionally a special value: the bit-transparency property must
    /// hold for NaN and infinities too, not just finite inputs.
    fn value_or_special(&mut self) -> f64 {
        match self.next_u64() % 16 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            _ => self.value(),
        }
    }
}

const CASES: usize = 2_000;

/// Bit-identical equality: NaN payloads and signed zeros included.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[test]
fn same_type_operators_are_bit_transparent() {
    let mut rng = Rng(0xD1E5_0001);
    for case in 0..CASES {
        let (x, y, k) = (
            rng.value_or_special(),
            rng.value_or_special(),
            rng.value_or_special(),
        );
        let (a, b) = (Joules::new(x), Joules::new(y));
        assert!(bits_eq((a + b).get(), x + y), "case {case}: add {x} {y}");
        assert!(bits_eq((a - b).get(), x - y), "case {case}: sub {x} {y}");
        assert!(bits_eq((a * k).get(), x * k), "case {case}: mul {x} {k}");
        assert!(bits_eq((k * a).get(), k * x), "case {case}: rmul {k} {x}");
        assert!(bits_eq((a / k).get(), x / k), "case {case}: div {x} {k}");
        assert!(bits_eq(a / b, x / y), "case {case}: ratio {x} {y}");
        assert!(bits_eq((-a).get(), -x), "case {case}: neg {x}");
        assert!(bits_eq(a.min(b).get(), x.min(y)), "case {case}: min");
        assert!(bits_eq(a.max(b).get(), x.max(y)), "case {case}: max");
        assert!(bits_eq(a.abs().get(), x.abs()), "case {case}: abs");
        let mut acc = a;
        acc += b;
        assert!(bits_eq(acc.get(), x + y), "case {case}: add_assign");
        acc -= b;
        assert!(bits_eq(acc.get(), x + y - y), "case {case}: sub_assign");
    }
}

#[test]
fn dimensional_products_and_quotients_are_bit_transparent() {
    let mut rng = Rng(0xD1E5_0002);
    for case in 0..CASES {
        let (i, t, v, h) = (rng.value(), rng.value(), rng.value(), rng.value());
        let ma = MilliAmps::new(i);
        let s = Seconds::new(t);
        let volts = Volts::new(v);
        let hours = Hours::new(h);

        assert!(bits_eq((ma * hours).get(), i * h), "case {case}: mA·h");
        assert!(bits_eq((ma * volts).get(), i * v), "case {case}: mA·V");
        assert!(
            bits_eq((Amps::new(i) * volts).get(), i * v),
            "case {case}: A·V"
        );
        assert!(
            bits_eq((Watts::new(v) * s).get(), v * t),
            "case {case}: W·s"
        );
        assert!(
            bits_eq((MilliWatts::new(v) * s).get(), v * t),
            "case {case}: mW·s"
        );
        // Both operand orders of a dim_mul! are the same f64 product.
        assert!(
            bits_eq((ma * volts).get(), (volts * ma).get()),
            "case {case}: comm"
        );

        let cap = MilliAmpHours::new(h);
        assert!(bits_eq((cap / ma).get(), h / i), "case {case}: mAh/mA");
    }
}

#[test]
fn named_conversions_match_the_historical_expressions() {
    let mut rng = Rng(0xD1E5_0003);
    for case in 0..CASES {
        let x = rng.value();
        assert!(
            bits_eq(MilliAmps::new(x).to_amps().get(), x / 1000.0),
            "case {case}: mA→A"
        );
        assert!(
            bits_eq(MilliWatts::new(x).to_watts().get(), x / 1000.0),
            "case {case}: mW→W"
        );
    }
}

#[test]
fn sum_folds_in_iteration_order() {
    let mut rng = Rng(0xD1E5_0006);
    for case in 0..200 {
        let xs: Vec<f64> = (0..50).map(|_| rng.value()).collect();
        let typed: Seconds = xs.iter().map(|&x| Seconds::new(x)).sum();
        let raw: f64 = xs.iter().sum();
        assert!(bits_eq(typed.get(), raw), "case {case}");
    }
}
