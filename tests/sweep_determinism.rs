//! End-to-end determinism of the parallel sweeps.
//!
//! A sweep's contract is that the *rendered report* — not just the
//! numbers — is byte-identical for any worker count, and that the
//! parallel rewiring of the Monte Carlo and trace paths changed no output
//! byte (pinned against `tests/goldens/`).

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dles_core::experiment::Experiment;
use dles_core::faults::FaultProfile;
use dles_core::montecarlo::{render_montecarlo, run_monte_carlo, MonteCarloConfig};
use dles_core::pipeline::{run_pipeline_with, PipelineConfig};
use dles_core::{run_jobs, Technique};
use dles_sim::{JsonlRecorder, SimTime};
use std::num::NonZeroU64;

/// A short Exp2-shaped job: real pipeline physics, capped horizon.
fn job(label: &str, horizon_s: u64, seed: u64) -> PipelineConfig {
    let mut cfg = Experiment::Exp2.config();
    cfg.label = label.to_owned();
    cfg.horizon = SimTime::from_secs(horizon_s);
    cfg.jitter_seed = Some(seed);
    cfg
}

/// Render a sweep the way `repro --sweep` fans it out: every job through
/// `run_jobs`, one result line per job in job order.
fn sweep_report(jobs: &[PipelineConfig], threads: usize) -> String {
    run_jobs(jobs, threads)
        .iter()
        .map(|r| {
            format!(
                "{} lifetime={:?} frames={} misses={} counters={:?}\n",
                r.label, r.lifetime, r.frames_completed, r.deadline_misses, r.counters
            )
        })
        .collect()
}

#[test]
fn sweep_report_is_byte_identical_across_worker_counts() {
    let jobs = vec![
        job("a", 300, 1),
        job("b", 450, 2),
        job("c", 300, 1), // duplicate of `a` under a different label
        job("d", 600, 3),
        job("e", 150, 4),
    ];
    let baseline = sweep_report(&jobs, 1);
    let lines: Vec<&str> = baseline.lines().collect();
    let (a, c) = (lines[0].strip_prefix("a "), lines[2].strip_prefix("c "));
    assert!(
        c.is_some(),
        "duplicate job `c` keeps its own label: {}",
        lines[2]
    );
    assert_eq!(
        c, a,
        "duplicate job `c` must return `a`'s lifetime, frames and counters"
    );
    for threads in [3, 8] {
        assert_eq!(
            baseline,
            sweep_report(&jobs, threads),
            "sweep report must not depend on the worker count ({threads} threads)"
        );
    }
}

// ---- golden pins: the parallel rewiring changed no output byte ----

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name)
}

#[test]
fn exp2c_trace_golden_survives_the_sweep_rewiring() {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let out = buf.clone();
    let mut cfg = Experiment::Exp2C.config();
    cfg.jitter_seed = Some(0x5EED);
    cfg.technique = Some(Technique::Rotation {
        period_frames: NonZeroU64::new(10).unwrap(),
    });
    cfg.horizon = SimTime::from_secs(230);
    let _ = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(out))));
    let actual = buf.0.lock().unwrap().clone();
    let golden = std::fs::read(golden_path("exp2c_trace_230s.jsonl")).expect("golden missing");
    assert!(
        actual == golden,
        "seeded EXP-2C trace diverged ({} vs {} bytes)",
        actual.len(),
        golden.len()
    );
}

#[test]
fn mc16_golden_survives_the_par_map_rewiring() {
    let mut base = Experiment::Exp2B.config();
    base.horizon = SimTime::from_secs(3600);
    // Explicitly vary the worker count: the report must match the golden
    // (captured pre-rewiring) at every thread setting, not just the default.
    for threads in [1, 3] {
        let report = run_monte_carlo(&MonteCarloConfig {
            base: base.clone(),
            trials: 16,
            master_seed: 42,
            profile: FaultProfile::lossy_link(),
            threads,
        });
        let golden =
            std::fs::read_to_string(golden_path("mc16_report_3600s.txt")).expect("golden missing");
        assert_eq!(
            render_montecarlo(&report),
            golden,
            "16-trial Monte Carlo report diverged at {threads} threads"
        );
    }
}
