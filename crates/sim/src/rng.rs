//! Deterministic randomness for simulations.
//!
//! Every stochastic quantity in the workspace (serial-transaction startup
//! jitter, injected faults) draws from a [`SimRng`] seeded explicitly,
//! so experiment runs are reproducible bit-for-bit.

/// A seedable RNG with convenience samplers used across the workspace.
///
/// Implements xoshiro256++ (Blackman & Vigna) with SplitMix64 state
/// expansion — dependency-free, portable, and stable across platforms, so
/// recorded traces stay byte-identical wherever they are regenerated.
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step: advances `x` and returns the next output.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        SimRng { state, seed }
    }

    /// Derive an independent child RNG; `salt` distinguishes siblings.
    ///
    /// Used to give each simulated component its own stream so adding a
    /// component does not perturb the draws of the others.
    pub fn fork(&self, salt: u64) -> SimRng {
        // SplitMix64 finalizer over (seed, salt) — cheap, well distributed.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. `lo == hi` returns `lo`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_f64 with lo > hi");
        if lo == hi {
            return lo;
        }
        // lo + u·(hi−lo) can round up to hi for u just below 1; clamp to
        // keep the documented half-open interval.
        let v = lo + self.unit_f64() * (hi - lo);
        if v >= hi {
            lo.max(hi - (hi - lo) * f64::EPSILON)
        } else {
            v
        }
    }

    /// Uniform `u64` in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64 with lo > hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let first = self.next_u64();
        lo + self.finish_below(first, span + 1)
    }

    /// The value of a `uniform_u64(0, n − 1)` draw whose first raw word
    /// was `first`: rejection sampling over the largest multiple of `n`
    /// that is ≤ 2^64, for an unbiased draw.
    fn finish_below(&mut self, first: u64, n: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        let mut v = first;
        while v > zone {
            v = self.next_u64();
        }
        v % n
    }

    /// A `uniform_u64(0, n − 1)` draw for an `n` in `1..=n_max` that is
    /// costly to compute, returned as a word `w` whose residue `w % n` is
    /// the draw's value. The draw consumes exactly the raw words that
    /// `uniform_u64(0, n − 1)` would.
    ///
    /// `uniform_u64` rejects a raw word only above `2^64 − 1 − (2^64 mod
    /// n)`, and `2^64 mod n < n ≤ n_max`. So a word `v ≤ 2^64 − n_max` is
    /// accepted for every such `n`, and is the answer whatever `n` turns
    /// out to be. Only a word in the top `n_max − 1` of the range, which
    /// comes with probability below `n_max / 2^64`, calls `n`, to finish
    /// the draw exactly.
    pub fn uniform_below_deferred(&mut self, n_max: u64, n: impl FnOnce() -> u64) -> u64 {
        assert!(n_max > 0, "uniform_below_deferred over an empty range");
        let first = self.next_u64();
        if first <= u64::MAX - (n_max - 1) {
            return first;
        }
        let n = n();
        assert!(
            (1..=n_max).contains(&n),
            "uniform_below_deferred: n = {n} outside 1..={n_max}"
        );
        self.finish_below(first, n)
    }

    /// Standard normal via Box–Muller (no distribution crate needed).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u1 = self.unit_f64().max(f64::MIN_POSITIVE);
            let u2 = self.unit_f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let v = r * (std::f64::consts::TAU * u2).cos();
            if v.is_finite() {
                return v;
            }
        }
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn matches_xoshiro256plusplus_reference() {
        // State {1, 2, 3, 4} — first outputs of the reference C
        // implementation (prng.di.unimi.it), guarding the generator
        // against accidental drift that would invalidate golden traces.
        let mut r = SimRng {
            state: [1, 2, 3, 4],
            seed: 0,
        };
        let expect = [
            41943041u64,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expect {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_salted() {
        let parent = SimRng::seed_from_u64(99);
        let mut c1 = parent.fork(0);
        let mut c1b = parent.fork(0);
        let mut c2 = parent.fork(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.uniform_f64(0.05, 0.1);
            assert!((0.05..0.1).contains(&v));
            let u = r.uniform_u64(10, 12);
            assert!((10..=12).contains(&u));
        }
        assert_eq!(r.uniform_f64(4.0, 4.0), 4.0);
    }

    #[test]
    fn uniform_u64_covers_range() {
        let mut r = SimRng::seed_from_u64(11);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(r.uniform_u64(10, 12) - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// A generator whose next raw word is `word`: xoshiro256++ outputs
    /// `rotl(s0 + s3, 23) + s0`, which is `word` for `s0 = 0` and
    /// `s3 = rotr(word, 23)`.
    fn rng_emitting(word: u64) -> SimRng {
        SimRng {
            state: [0, 0x1234_5678, 0x9ABC_DEF0, word.rotate_right(23)],
            seed: 0,
        }
    }

    #[test]
    fn deferred_draw_matches_uniform_u64_in_and_out_of_the_tail() {
        let n_max = 8 * (2 * 10_342 + 6);
        let edge = u64::MAX - (n_max - 1);
        // Every span up to `n_max` accepts a word at the edge, so `n` is
        // never asked for there.
        assert_eq!(rng_emitting(edge).next_u64(), edge);
        for n in [1, 2, 3, 48, 1000, 82_872, n_max - 1, n_max] {
            assert!(edge <= u64::MAX - (u64::MAX - n + 1) % n, "n = {n}");
            let w = rng_emitting(edge).uniform_below_deferred(n_max, || unreachable!());
            assert_eq!(w % n, rng_emitting(edge).uniform_u64(0, n - 1), "n = {n}");
        }
        // Words in the tail: some spans reject them, so the draw is
        // finished with the exact `n` and must leave the generator where
        // `uniform_u64` leaves it.
        for word in [edge + 1, u64::MAX - 7, u64::MAX] {
            for n in [48, 81_920, 82_872, n_max - 1, n_max] {
                let mut deferred = rng_emitting(word);
                let mut direct = rng_emitting(word);
                let w = deferred.uniform_below_deferred(n_max, || n);
                assert_eq!(w % n, direct.uniform_u64(0, n - 1), "word {word:#x} n {n}");
                assert_eq!(
                    deferred.next_u64(),
                    direct.next_u64(),
                    "word {word:#x} n {n}"
                );
            }
        }
        // u64::MAX is rejected for n = 48 (2^64 mod 48 = 16), so that draw
        // really did consume a second word.
        let mut r = rng_emitting(u64::MAX);
        r.next_u64();
        let second = r.next_u64();
        assert_eq!(
            rng_emitting(u64::MAX).uniform_below_deferred(n_max, || 48),
            second % 48
        );
    }

    #[test]
    fn deferred_draw_matches_uniform_u64_on_a_stream() {
        let mut deferred = SimRng::seed_from_u64(23);
        let mut direct = SimRng::seed_from_u64(23);
        for i in 0..1000u64 {
            let n = 48 + i * 97;
            let w = deferred.uniform_below_deferred(n + i % 3, || n);
            assert_eq!(w % n, direct.uniform_u64(0, n - 1));
        }
        assert_eq!(deferred.next_u64(), direct.next_u64());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = SimRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| 10.0 + 2.0 * r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = SimRng::seed_from_u64(17);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03, "hits {hits}");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
