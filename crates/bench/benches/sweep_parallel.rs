//! Sweep scaling bench: the N-node scaling-study job set run through
//! `dles_core::run_jobs`, the way `repro --sweep` runs it, serially
//! (`--threads 1`) and with one worker per core.
//!
//! Besides printing one timing line per label, `main` writes the measured
//! medians and the parallel speedup to `BENCH_sweep.json` at the repo
//! root — the committed baseline the docs quote. Horizons are capped so a
//! sample is one bounded slice of the real pipeline physics rather than a
//! full multi-hour discharge.

use dles_bench::bench;
use dles_core::partition::best_partition;
use dles_core::policy::DvsPolicy;
use dles_core::sweep::partition_config;
use dles_core::{run_jobs, PipelineConfig, SystemConfig, Technique};
use dles_sim::SimTime;
use std::hint::black_box;

/// Timed samples per label.
const SAMPLES: usize = 10;

/// The scaling-study job set (1..=4 nodes, static and, from two nodes on,
/// rotation variants: seven jobs), horizon-capped to keep one serial pass
/// under a tenth of a second.
fn scaling_jobs() -> Vec<PipelineConfig> {
    let sys = SystemConfig::paper();
    let mut jobs = Vec::new();
    for n in 1..=4 {
        let best = best_partition(&sys, n).expect("paper system is feasible at 1..=4 nodes");
        let cfg = PipelineConfig {
            policy: DvsPolicy::DvsDuringIo,
            horizon: SimTime::from_secs(1800),
            ..partition_config(&sys, &best).expect("best partitions are feasible")
        };
        if n >= 2 {
            jobs.push(PipelineConfig {
                technique: Some(Technique::PAPER_ROTATION),
                ..cfg.clone()
            });
        }
        jobs.push(cfg);
    }
    jobs
}

fn main() {
    let jobs = scaling_jobs();
    let sweep = |threads| run_jobs(black_box(&jobs), threads);
    let serial = bench("sweep_parallel/serial_1thread", SAMPLES, || sweep(1));
    let parallel = bench("sweep_parallel/parallel_all_cores", SAMPLES, || sweep(0));

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (serial, parallel) = (serial.as_nanos(), parallel.as_nanos());
    // One core runs "parallel" serially: that is no measurement of a
    // parallel speedup, so say so instead of writing 1.00.
    let speedup = if cores == 1 {
        "null,\n  \"not_measured\": \"1 core\"".to_owned()
    } else {
        format!("{:.2}", serial as f64 / parallel as f64)
    };
    let json = format!(
        "{{\n  \"bench\": \"sweep_parallel\",\n  \"cores\": {cores},\n  \"jobs\": {jobs},\n  \
         \"serial_1thread_median_ns\": {serial},\n  \"parallel_all_cores_median_ns\": {parallel},\n  \
         \"parallel_speedup\": {speedup}\n}}\n",
        jobs = jobs.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, &json).expect("write BENCH_sweep.json");
    println!("wrote {path}:\n{json}");
}
