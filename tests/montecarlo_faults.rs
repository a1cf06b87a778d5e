//! Integration tests for the fault-injection layer and the Monte Carlo
//! robustness harness: thread-count-independent reproducibility, the
//! recovery protocol actually earning its cost on a lossy link, and
//! corrupted PPP frames driving retries rather than garbage delivery.

use dles_core::experiment::Experiment;
use dles_core::faults::{FaultPlan, FaultProfile};
use dles_core::montecarlo::{render_montecarlo, run_monte_carlo, MonteCarloConfig};
use dles_core::pipeline::run_pipeline;
use dles_core::PipelineConfig;
use dles_sim::{MemoryRecorder, SimTime};

/// Experiment 2B (two nodes + §5.4 recovery) capped to a short horizon so
/// a trial measures fault handling, not a full battery discharge.
fn short_2b() -> PipelineConfig {
    let mut cfg = Experiment::Exp2B.config();
    cfg.horizon = SimTime::from_secs(7200);
    cfg
}

#[test]
fn montecarlo_identical_across_thread_counts() {
    let mc = |threads: usize| MonteCarloConfig {
        base: short_2b(),
        trials: 16,
        master_seed: 2024,
        profile: FaultProfile::lossy_link(),
        threads,
    };
    let serial = run_monte_carlo(&mc(1));
    let parallel = run_monte_carlo(&mc(8));
    // 3 does not divide 16 trials: the uneven work split must not reorder
    // anything either.
    let uneven = run_monte_carlo(&mc(3));
    assert_eq!(serial.trials, parallel.trials, "per-trial outcomes differ");
    assert_eq!(serial.lifetime_h, parallel.lifetime_h);
    assert_eq!(serial.frames, parallel.frames);
    assert_eq!(serial.misses, parallel.misses);
    assert_eq!(serial.counters, parallel.counters);
    let reference = render_montecarlo(&serial);
    assert_eq!(
        reference,
        render_montecarlo(&parallel),
        "rendered reports must be byte-identical across thread counts"
    );
    assert_eq!(
        reference,
        render_montecarlo(&uneven),
        "rendered reports must be byte-identical for uneven trial splits"
    );
    assert!(serial.lifetime_h.mean > 0.0);
    assert_eq!(serial.trials.len(), 16);
}

#[test]
fn recovery_beats_no_recovery_on_lossy_link() {
    let with = run_monte_carlo(&MonteCarloConfig {
        base: short_2b(),
        trials: 16,
        master_seed: 7,
        profile: FaultProfile::lossy_link(),
        threads: 0,
    });
    let mut base = short_2b();
    base.technique = None;
    base.label = format!("{} (no recovery)", base.label);
    let without = run_monte_carlo(&MonteCarloConfig {
        base,
        trials: 16,
        master_seed: 7,
        profile: FaultProfile::lossy_link(),
        threads: 0,
    });
    assert!(
        with.frames.mean > without.frames.mean,
        "recovery {} frames vs bare {} frames",
        with.frames.mean,
        without.frames.mean
    );
    assert!(with.counters.get("retransmissions") > 0);
    assert_eq!(without.counters.get("retransmissions"), 0);
}

#[test]
fn corrupted_ppp_frames_drive_retries_not_garbage() {
    let mut cfg = short_2b();
    cfg.horizon = SimTime::from_secs(1800);
    cfg.jitter_seed = Some(1);
    // Bit errors only, hot enough that multi-KB transfers get hit often.
    cfg.faults = Some(FaultPlan::new(
        FaultProfile {
            bit_error_rate: 1e-5,
            ..FaultProfile::none()
        },
        99,
    ));
    let r = run_pipeline(cfg.clone());
    assert!(
        r.counters.get("fault_bit_errors") > 0,
        "no corruption drawn"
    );
    assert!(
        r.counters.get("retransmissions") > 0,
        "losses never retried"
    );
    assert!(r.frames_completed > 0, "pipeline starved");
    assert!(
        r.frames_completed <= r.counters.get("frames_emitted"),
        "more frames delivered than emitted: duplicates leaked through"
    );
    // The structured trace labels every injected fault.
    cfg.horizon = SimTime::from_secs(600);
    let mut engine = dles_core::build_engine_with(cfg, Box::new(MemoryRecorder::new()));
    engine.run_until(SimTime::from_secs(600));
    let records = engine.recorder_mut().take_records();
    assert!(
        records
            .iter()
            .any(|rec| rec.kind == "fault_injected" && rec.str_field("fault").is_some()),
        "no fault_injected record emitted"
    );
}

#[test]
fn brownouts_interrupt_but_do_not_kill() {
    let mut cfg = short_2b();
    cfg.jitter_seed = Some(3);
    cfg.faults = Some(FaultPlan::new(
        FaultProfile {
            brownout_mean_interval: SimTime::from_secs(120),
            brownout_duration: SimTime::from_secs(3),
            ..FaultProfile::none()
        },
        5,
    ));
    let r = run_pipeline(cfg);
    assert!(r.counters.get("fault_brownouts") > 0, "no brownout fired");
    assert!(
        r.frames_completed > 100,
        "pipeline should keep delivering between brownouts: {}",
        r.frames_completed
    );
    assert_eq!(
        r.counters.get("node_deaths"),
        0,
        "brownouts are transient, not battery deaths"
    );
}
