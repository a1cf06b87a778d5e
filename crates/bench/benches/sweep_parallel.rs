//! Sweep-engine scaling bench: the Fig. 10 scaling-study job set pushed
//! through `dles_core::sweep::SweepEngine` serially (`--threads 1`),
//! with one worker per core, and again against a warm cache.
//!
//! Besides printing the usual criterion lines, `main` writes the measured
//! medians and the parallel speedup to `BENCH_sweep.json` at the repo
//! root — the committed baseline the docs quote. Horizons are capped so a
//! sample is one bounded slice of the real pipeline physics rather than a
//! full multi-hour discharge.

use criterion::{black_box, Criterion};
use dles_core::policy::DvsPolicy;
use dles_core::rotation::RotationConfig;
use dles_core::scale::n_node_config;
use dles_core::sweep::SweepEngine;
use dles_core::{PipelineConfig, SystemConfig};
use dles_sim::SimTime;

/// The scaling-study fan-out (1..=4 nodes, static and rotation variants),
/// horizon-capped to keep one serial pass around a second.
fn scaling_jobs() -> Vec<PipelineConfig> {
    let sys = SystemConfig::paper();
    let mut jobs = Vec::new();
    for n in 1..=4 {
        let mut variants = vec![n_node_config(&sys, n, DvsPolicy::DvsDuringIo, None)];
        if n >= 2 {
            variants.push(n_node_config(
                &sys,
                n,
                DvsPolicy::DvsDuringIo,
                Some(RotationConfig::paper()),
            ));
        }
        for (v, cfg) in variants.into_iter().enumerate() {
            let mut cfg = cfg.expect("paper system is feasible at 1..=4 nodes");
            cfg.label = format!("bench {n}-node v{v}");
            cfg.horizon = SimTime::from_secs(1800);
            jobs.push(cfg);
        }
    }
    jobs
}

fn bench_sweep(c: &mut Criterion) {
    let jobs = scaling_jobs();
    let mut group = c.benchmark_group("sweep_parallel");
    group.sample_size(10);
    group.bench_function("serial_1thread", |b| {
        b.iter(|| SweepEngine::new().run(black_box(&jobs), 1))
    });
    group.bench_function("parallel_all_cores", |b| {
        b.iter(|| SweepEngine::new().run(black_box(&jobs), 0))
    });
    let warm = SweepEngine::new();
    warm.run(&jobs, 0); // populate the cache once, outside the timing loop
    group.bench_function("warm_cache", |b| b.iter(|| warm.run(black_box(&jobs), 0)));
    group.finish();
}

fn write_baseline(c: &Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let median_ns = |label: &str| {
        c.results()
            .iter()
            .find(|s| s.label == format!("sweep_parallel/{label}"))
            .map(|s| s.median.as_nanos())
            .unwrap_or(0)
    };
    let serial = median_ns("serial_1thread");
    let parallel = median_ns("parallel_all_cores");
    let warm = median_ns("warm_cache");
    // One core runs "parallel" serially: that is no measurement of a
    // parallel speedup, so say so instead of writing 1.00.
    let speedup = if cores == 1 {
        "null,\n  \"not_measured\": \"1 core\"".to_owned()
    } else if parallel > 0 {
        format!("{:.2}", serial as f64 / parallel as f64)
    } else {
        "0.00".to_owned()
    };
    let json = format!(
        "{{\n  \"bench\": \"sweep_parallel\",\n  \"cores\": {cores},\n  \"jobs\": {jobs},\n  \
         \"serial_1thread_median_ns\": {serial},\n  \"parallel_all_cores_median_ns\": {parallel},\n  \
         \"warm_cache_median_ns\": {warm},\n  \"parallel_speedup\": {speedup}\n}}\n",
        jobs = scaling_jobs().len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, &json).expect("write BENCH_sweep.json");
    println!("wrote {path}:\n{json}");
}

fn main() {
    let mut c = Criterion::default();
    bench_sweep(&mut c);
    write_baseline(&c);
}
