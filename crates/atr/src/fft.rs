//! Radix-2 Cooley–Tukey FFT, 1-D and 2-D, written from scratch.
//!
//! The kernel of the ATR's FFT / IFFT blocks (Fig. 1). Iterative, in-place,
//! with bit-reversal permutation; the inverse transform conjugates the
//! twiddles and normalizes by `1/N`, so `ifft(fft(x)) = x`.
//!
//! Every public entry point returns the number of floating-point operations
//! it performed. No simulated or reported number reads this module: the
//! simulator charges the FFT blocks their Fig. 6 latencies ([`crate::AtrProfile`]).

use crate::complexnum::Complex;

/// Flops per radix-2 butterfly: one complex multiply (6) + two complex
/// additions (4).
const FLOPS_PER_BUTTERFLY: u64 = 10;

/// In-place 1-D FFT (or inverse FFT) of a power-of-two-length buffer.
///
/// Returns the flop count. Panics if the length is not a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) -> u64 {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    if n <= 1 {
        return 0;
    }
    bit_reverse_permute(data);

    let sign = if inverse { 1.0 } else { -1.0 };
    let mut flops = 0u64;
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let half = len / 2;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = Complex::cis(ang * k as f64);
                let a = data[start + k];
                let b = data[start + k + half] * w;
                data[start + k] = a + b;
                data[start + k + half] = a - b;
            }
        }
        flops += (n / 2) as u64 * FLOPS_PER_BUTTERFLY;
        len <<= 1;
    }

    if inverse {
        let scale = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
        flops += 2 * n as u64;
    }
    flops
}

/// Bit-reversal permutation (the standard iterative-FFT reordering).
fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// In-place 2-D FFT of a `width × height` row-major buffer: 1-D transforms
/// over every row, then every column. Returns the flop count.
pub fn fft2d_in_place(data: &mut [Complex], width: usize, height: usize, inverse: bool) -> u64 {
    assert_eq!(data.len(), width * height, "buffer/dimension mismatch");
    assert!(
        width.is_power_of_two() && height.is_power_of_two(),
        "2-D FFT dimensions must be powers of two"
    );
    let mut flops = 0u64;
    // Rows.
    for row in data.chunks_exact_mut(width) {
        flops += fft_in_place(row, inverse);
    }
    // Columns, via a scratch column buffer.
    let mut col = vec![Complex::ZERO; height];
    for x in 0..width {
        for (y, c) in col.iter_mut().enumerate() {
            *c = data[y * width + x];
        }
        flops += fft_in_place(&mut col, inverse);
        for (y, c) in col.iter().enumerate() {
            data[y * width + x] = *c;
        }
    }
    flops
}

/// Forward 2-D FFT of a real-valued image patch (convenience wrapper):
/// embeds the reals into ℂ and transforms. Returns `(spectrum, flops)`.
pub fn fft2d_real(pixels: &[f64], width: usize, height: usize) -> (Vec<Complex>, u64) {
    assert_eq!(pixels.len(), width * height);
    let mut buf: Vec<Complex> = pixels.iter().map(|&p| Complex::real(p)).collect();
    let flops = fft2d_in_place(&mut buf, width, height, false);
    (buf, flops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    /// Naive O(n²) DFT for cross-validation.
    fn dft(data: &[Complex]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in data.iter().enumerate() {
                    acc += x * Complex::cis(-std::f64::consts::TAU * (k * j) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let data: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let mut fast = data.clone();
        fft_in_place(&mut fast, false);
        let slow = dft(&data);
        assert!(max_err(&fast, &slow) < 1e-9);
    }

    #[test]
    fn roundtrip_identity() {
        let data: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.1).cos()))
            .collect();
        let mut buf = data.clone();
        fft_in_place(&mut buf, false);
        fft_in_place(&mut buf, true);
        assert!(max_err(&buf, &data) < 1e-10);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut buf = vec![Complex::ZERO; 64];
        buf[0] = Complex::ONE;
        fft_in_place(&mut buf, false);
        for z in &buf {
            assert!((*z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let data: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.31).cos(), 0.0))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = data;
        fft_in_place(&mut buf, false);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn flop_count_is_nlogn() {
        let mut buf = vec![Complex::ONE; 1024];
        let flops = fft_in_place(&mut buf, false);
        // 1024/2 butterflies × 10 stages × 10 flops.
        assert_eq!(flops, 512 * 10 * 10);
    }

    #[test]
    fn fft2d_roundtrip() {
        let (w, h) = (16, 8);
        let data: Vec<Complex> = (0..w * h)
            .map(|i| Complex::new((i as f64 * 0.17).sin(), (i % 7) as f64))
            .collect();
        let mut buf = data.clone();
        fft2d_in_place(&mut buf, w, h, false);
        fft2d_in_place(&mut buf, w, h, true);
        assert!(max_err(&buf, &data) < 1e-10);
    }

    #[test]
    fn fft2d_dc_component_is_sum() {
        let (w, h) = (8, 8);
        let pixels = vec![2.0; w * h];
        let (spec, _) = fft2d_real(&pixels, w, h);
        assert!((spec[0].re - 2.0 * (w * h) as f64).abs() < 1e-9);
        assert!(spec[0].im.abs() < 1e-9);
        // All other bins of a constant image are zero.
        for z in &spec[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn real_input_spectrum_is_hermitian() {
        let (w, h) = (16, 16);
        let pixels: Vec<f64> = (0..w * h).map(|i| ((i * 37) % 11) as f64).collect();
        let (spec, _) = fft2d_real(&pixels, w, h);
        for y in 0..h {
            for x in 0..w {
                let a = spec[y * w + x];
                let b = spec[((h - y) % h) * w + ((w - x) % w)];
                assert!((a - b.conj()).abs() < 1e-8, "Hermitian broken at ({x},{y})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut buf = vec![Complex::ZERO; 12];
        fft_in_place(&mut buf, false);
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized tests (deterministic, framework-free).

    use super::*;
    use dles_sim::SimRng;

    fn random_signal(rng: &mut SimRng, max_log2: u64) -> Vec<Complex> {
        let log2 = rng.uniform_u64(1, max_log2);
        (0..1usize << log2)
            .map(|_| {
                Complex::new(
                    rng.uniform_f64(-100.0, 100.0),
                    rng.uniform_f64(-100.0, 100.0),
                )
            })
            .collect()
    }

    /// `ifft(fft(x)) == x` for arbitrary power-of-two signals.
    #[test]
    fn prop_roundtrip() {
        let mut rng = SimRng::seed_from_u64(0xFF7);
        for _ in 0..64 {
            let signal = random_signal(&mut rng, 9);
            let mut buf = signal.clone();
            fft_in_place(&mut buf, false);
            fft_in_place(&mut buf, true);
            for (a, b) in buf.iter().zip(&signal) {
                assert!((*a - *b).abs() < 1e-8);
            }
        }
    }

    /// Linearity: fft(a·x + y) == a·fft(x) + fft(y).
    #[test]
    fn prop_linearity() {
        let mut rng = SimRng::seed_from_u64(0x11EA);
        for _ in 0..64 {
            let x = random_signal(&mut rng, 7);
            let scale = rng.uniform_f64(-10.0, 10.0);
            let n = x.len();
            let y: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64, -(i as f64)))
                .collect();
            let combined: Vec<Complex> =
                x.iter().zip(&y).map(|(a, b)| a.scale(scale) + *b).collect();
            let mut f_comb = combined;
            fft_in_place(&mut f_comb, false);
            let mut fx = x.clone();
            fft_in_place(&mut fx, false);
            let mut fy = y;
            fft_in_place(&mut fy, false);
            for i in 0..n {
                let expect = fx[i].scale(scale) + fy[i];
                assert!((f_comb[i] - expect).abs() < 1e-6 * (1.0 + expect.abs()));
            }
        }
    }

    /// Parseval's theorem for arbitrary signals.
    #[test]
    fn prop_parseval() {
        let mut rng = SimRng::seed_from_u64(0x9A25);
        for _ in 0..64 {
            let signal = random_signal(&mut rng, 8);
            let n = signal.len() as f64;
            let e_time: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
            let mut buf = signal;
            fft_in_place(&mut buf, false);
            let e_freq: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
            assert!((e_time - e_freq).abs() < 1e-7 * (1.0 + e_time));
        }
    }

    /// Time shift ⇒ phase ramp: |fft(shift(x))| == |fft(x)|.
    #[test]
    fn prop_shift_preserves_magnitude() {
        let mut rng = SimRng::seed_from_u64(0x5F1F);
        for _ in 0..64 {
            let signal = random_signal(&mut rng, 7);
            let n = signal.len();
            let shift = rng.uniform_u64(0, 63) as usize % n;
            let mut shifted = signal.clone();
            shifted.rotate_right(shift);
            let mut fa = signal;
            fft_in_place(&mut fa, false);
            let mut fb = shifted;
            fft_in_place(&mut fb, false);
            for (a, b) in fa.iter().zip(&fb) {
                assert!((a.abs() - b.abs()).abs() < 1e-6 * (1.0 + a.abs()));
            }
        }
    }
}
