//! Microbenchmarks of the computational kernels underlying the
//! reproduction: the four real ATR blocks of Fig. 6 and a full ATR
//! frame, FFTs, PPP framing, battery stepping, scene generation, and the
//! calibration optimizer.
//!
//! The Fig. 6 table itself is printed by `repro --fig6`; the `fig6_*`
//! labels time the real implementation that the profile numbers model.

use dles_atr::complexnum::Complex;
use dles_atr::detect::{detect_targets, DetectConfig};
use dles_atr::distance::{compute_distance, DEFAULT_SCALES};
use dles_atr::fft::{fft2d_in_place, fft_in_place};
use dles_atr::filter::{fft_block, ifft_block, TemplateSpectra};
use dles_atr::scene::SceneBuilder;
use dles_atr::template::Template;
use dles_battery::{simulate_lifetime, Battery, KibamBattery, LoadProfile, LoadStep, NelderMead};
use dles_bench::bench;
use dles_net::ppp::{decode_frames, encode_frame};
use dles_sim::SimTime;
use std::hint::black_box;

/// Timed samples per label.
const SAMPLES: usize = 20;

fn atr_blocks() {
    let scene = SceneBuilder::new(128, 80).seed(5).targets(1).build();
    let spectra = TemplateSpectra::build(&Template::bank());
    let cfg = DetectConfig::default();
    let (rois, _) = detect_targets(&scene.image, &cfg);
    let roi = rois.first().copied().expect("scene 5 has a detection");
    let patch = roi.extract(&scene.image);
    let (filtered, _) = fft_block(&patch, &spectra);
    let (matched, _) = ifft_block(&filtered);

    bench("fig6_blocks/target_detection", SAMPLES, || {
        detect_targets(black_box(&scene.image), &cfg)
    });
    bench("fig6_blocks/fft", SAMPLES, || {
        fft_block(black_box(&patch), &spectra)
    });
    bench("fig6_blocks/ifft", SAMPLES, || {
        ifft_block(black_box(&filtered))
    });
    bench("fig6_blocks/compute_distance", SAMPLES, || {
        compute_distance(black_box(&patch), matched.class, &DEFAULT_SCALES)
    });
    let pipeline = dles_atr::AtrPipeline::standard();
    bench("fig6_full_atr_frame", SAMPLES, || {
        pipeline.run(black_box(&scene.image))
    });
}

fn fft() {
    for log2 in [8u32, 10, 12] {
        let n = 1usize << log2;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        bench(&format!("fft/fft_1d/{n}"), SAMPLES, || {
            let mut buf = signal.clone();
            fft_in_place(black_box(&mut buf), false)
        });
    }
    let (w, h) = (64usize, 64usize);
    let img: Vec<Complex> = (0..w * h)
        .map(|i| Complex::real(((i * 37) % 251) as f64))
        .collect();
    bench("fft/fft_2d_64x64", SAMPLES, || {
        let mut buf = img.clone();
        fft2d_in_place(black_box(&mut buf), w, h, false)
    });
}

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

fn scene() {
    let mut seed = 0u64;
    bench("scene_gen_128x80", SAMPLES, || {
        seed += 1;
        SceneBuilder::new(128, 80).seed(seed).targets(1).build()
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
    atr_blocks();
    fft();
    ppp();
    battery();
    scene();
    optimizer();
}
