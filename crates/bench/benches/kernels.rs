//! Microbenchmarks of kernels under the simulator: PPP framing of a
//! 7.5 KB payload, KiBaM stepping and a pulsed discharge to exhaustion,
//! and the Nelder–Mead optimizer behind battery calibration. These are
//! synthetic timings, not numbers from a simulated run (see `e2e`).

use dles_battery::{simulate_lifetime, Battery, KibamBattery, LoadProfile, LoadStep, NelderMead};
use dles_bench::bench;
use dles_net::ppp::{decode_frames, encode_frame};
use dles_sim::SimTime;
use std::hint::black_box;

/// Timed samples per label.
const SAMPLES: usize = 20;

fn ppp() {
    // The paper's 7.5 KB intermediate payload.
    let payload: Vec<u8> = (0..7_680u32).map(|i| (i % 253) as u8).collect();
    bench("ppp/encode_7.5k", SAMPLES, || {
        encode_frame(black_box(&payload))
    });
    let wire = encode_frame(&payload);
    bench("ppp/decode_7.5k", SAMPLES, || {
        decode_frames(black_box(&wire))
    });
}

fn battery() {
    let mut batt = KibamBattery::new(1000.0, 0.6, 0.2);
    bench("battery/kibam_step", SAMPLES, || {
        if batt.is_exhausted() {
            batt.reset();
        }
        batt.discharge(
            SimTime::from_secs_f64(2.3),
            black_box(dles_units::MilliAmps::new(80.0)),
        )
    });
    // Full discharge of the experiment-1A frame shape.
    let profile = LoadProfile::repeating(vec![
        LoadStep::from_secs(1.1, 130.0),
        LoadStep::from_secs(1.2, 40.0),
    ]);
    bench("battery/kibam_lifetime_pulsed", SAMPLES, || {
        let mut batt = KibamBattery::new(963.2, 0.6412, 0.1672);
        simulate_lifetime(&mut batt, black_box(&profile))
    });
}

fn optimizer() {
    let f =
        |x: &[f64; 3]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2) + x[2] * x[2];
    bench("nelder_mead_rosenbrock", SAMPLES, || {
        let mut nm = NelderMead::new(black_box([-1.2, 1.0, 0.5]), 0.5);
        nm.minimize(&f, 500, 1e-12);
        nm.best_value()
    });
}

fn main() {
    ppp();
    battery();
    optimizer();
}
