//! # dles-bench — benchmark harness and reproduction binaries
//!
//! * `repro` — regenerates every table and figure of the paper
//!   (`cargo run -p dles-bench --bin repro --release`);
//! * `calibrate_packs` — re-runs the battery calibration behind
//!   `dles_battery::packs`;
//! * two benches (`cargo bench -p dles-bench --bench kernels` and
//!   `--bench sweep_parallel`) — the ATR-block, FFT, PPP and battery
//!   kernel timings, and the sweep engine's multi-core speedup. End-to-end
//!   timings of real runs live in the `e2e` ledger (`src/bin/e2e/`).
//!
//! This library crate only hosts [`bench()`], the timing loop both benches
//! share.
#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Duration;

/// Warmup calls made before the timed samples.
const WARMUP: usize = 3;

/// Time `f`: three untimed warmup calls, then `samples` timed ones. Prints
/// `label median mean (N samples)` and returns the median.
pub fn bench<O>(label: &str, samples: usize, mut f: impl FnMut() -> O) -> Duration {
    for _ in 0..WARMUP {
        black_box(f());
    }
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            #[expect(
                clippy::disallowed_types,
                clippy::disallowed_methods,
                reason = "the bench timer: wall time is what it measures, and nothing simulated reads it"
            )]
            let t0 = std::time::Instant::now();
            black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    println!(
        "{label:<40} median {median:>12?}  mean {mean:>12?}  ({} samples)",
        times.len()
    );
    median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_calls_the_closure_warmups_plus_samples_times() {
        let mut calls = 0usize;
        bench("count", 5, || calls += 1);
        assert_eq!(calls, WARMUP + 5);
    }
}
