//! Monte Carlo robustness harness.
//!
//! Runs N seeded trials of one pipeline configuration under a
//! [`FaultProfile`], as one batch across scoped worker threads, and
//! aggregates the lifetime / frames / deadline-miss distributions.
//!
//! Determinism contract: each trial's seeds are a pure function of
//! `(master_seed, trial index)` — `trial_seeds` forks the master stream
//! per trial — and the trials run through [`run_jobs`] (results in job
//! order), so the aggregated report is **byte-identical regardless of the
//! worker count**.

use crate::faults::{FaultPlan, FaultProfile};
use crate::pipeline::PipelineConfig;
use crate::sweep::run_jobs;
use dles_sim::{CounterSet, DistSummary, SimRng};

/// Configuration of one Monte Carlo study.
#[derive(Debug, Clone)]
pub struct MonteCarloConfig {
    /// The configuration every trial perturbs (label, shares, recovery…).
    pub base: PipelineConfig,
    /// Number of trials.
    pub trials: usize,
    /// Master seed; each trial's jitter and fault seeds derive from it.
    pub master_seed: u64,
    /// Fault environment applied to every trial.
    pub profile: FaultProfile,
    /// Worker threads; `0` = one per available core. The report does not
    /// depend on this.
    pub threads: usize,
}

/// The `(jitter_seed, fault_seed)` pair of one trial: a pure function of
/// the master seed and the trial index.
pub(crate) fn trial_seeds(master_seed: u64, trial: usize) -> (u64, u64) {
    let mut stream = SimRng::seed_from_u64(master_seed).fork(trial as u64);
    (stream.next_u64(), stream.next_u64())
}

/// Build trial `trial`'s pipeline configuration.
pub fn trial_config(
    base: &PipelineConfig,
    profile: FaultProfile,
    master_seed: u64,
    trial: usize,
) -> PipelineConfig {
    let (jitter_seed, fault_seed) = trial_seeds(master_seed, trial);
    let mut cfg = base.clone();
    cfg.label = format!("{} mc#{trial}", base.label);
    cfg.jitter_seed = Some(jitter_seed);
    cfg.faults = Some(FaultPlan::new(profile, fault_seed));
    cfg
}

/// What one trial produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    pub trial: usize,
    pub jitter_seed: u64,
    pub fault_seed: u64,
    pub lifetime_h: dles_units::Hours,
    pub frames_completed: u64,
    pub deadline_misses: u64,
    pub counters: CounterSet,
}

/// The aggregated study.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    pub label: String,
    pub master_seed: u64,
    pub profile: FaultProfile,
    /// Per-trial outcomes, in trial order.
    pub trials: Vec<TrialOutcome>,
    pub lifetime_h: DistSummary,
    pub frames: DistSummary,
    pub misses: DistSummary,
    /// Event counters summed over all trials.
    pub counters: CounterSet,
}

/// Run the study. Trials run as one [`run_jobs`] batch on `threads`
/// workers and are aggregated in trial order, so the result is
/// independent of scheduling.
pub fn run_monte_carlo(cfg: &MonteCarloConfig) -> MonteCarloReport {
    assert!(cfg.trials > 0, "at least one trial required");
    let jobs: Vec<PipelineConfig> = (0..cfg.trials)
        .map(|trial| trial_config(&cfg.base, cfg.profile, cfg.master_seed, trial))
        .collect();
    let trials: Vec<TrialOutcome> = run_jobs(&jobs, cfg.threads)
        .into_iter()
        .enumerate()
        .map(|(trial, r)| {
            let (jitter_seed, fault_seed) = trial_seeds(cfg.master_seed, trial);
            TrialOutcome {
                trial,
                jitter_seed,
                fault_seed,
                lifetime_h: dles_units::Hours::new(r.life_hours()),
                frames_completed: r.frames_completed,
                deadline_misses: r.deadline_misses,
                counters: r.counters,
            }
        })
        .collect();
    let lifetimes: Vec<f64> = trials.iter().map(|t| t.lifetime_h.get()).collect();
    let frames: Vec<f64> = trials.iter().map(|t| t.frames_completed as f64).collect();
    let misses: Vec<f64> = trials.iter().map(|t| t.deadline_misses as f64).collect();
    let mut counters = CounterSet::new();
    for t in &trials {
        counters.merge(&t.counters);
    }
    MonteCarloReport {
        label: cfg.base.label.clone(),
        master_seed: cfg.master_seed,
        profile: cfg.profile,
        lifetime_h: DistSummary::from_values(&lifetimes),
        frames: DistSummary::from_values(&frames),
        misses: DistSummary::from_values(&misses),
        counters,
        trials,
    }
}

/// Counters worth surfacing in the summary, in report order.
const REPORTED_COUNTERS: [&str; 12] = [
    "fault_drops",
    "fault_bit_errors",
    "fault_delays",
    "fault_brownouts",
    "retransmissions",
    "ack_timeouts",
    "recv_timeouts",
    "sends_abandoned",
    "duplicate_frames_dropped",
    "transfers_lost",
    "migrations",
    "node_deaths",
];

/// Render the report as a text table.
pub fn render_montecarlo(report: &MonteCarloReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Monte Carlo study: {} (master seed {})",
        report.label, report.master_seed
    );
    let _ = writeln!(out, "trials completed: {}", report.trials.len());
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "metric", "mean", "std", "p5", "p50", "p95", "min", "max"
    );
    let _ = writeln!(out, "{}", "-".repeat(92));
    for (name, d) in [
        ("lifetime (h)", &report.lifetime_h),
        ("frames", &report.frames),
        ("misses", &report.misses),
    ] {
        let _ = writeln!(
            out,
            "{:<14} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            name, d.mean, d.std_dev, d.p05, d.p50, d.p95, d.min, d.max
        );
    }
    let _ = writeln!(out, "\nfault / recovery counters (all trials):");
    for name in REPORTED_COUNTERS {
        let _ = writeln!(out, "  {:<26} {:>12}", name, report.counters.get(name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_pure_and_distinct() {
        assert_eq!(trial_seeds(42, 3), trial_seeds(42, 3));
        assert_ne!(trial_seeds(42, 3), trial_seeds(42, 4));
        assert_ne!(trial_seeds(42, 3), trial_seeds(43, 3));
    }

    #[test]
    fn trial_config_labels_and_seeds_each_trial() {
        let base = crate::experiment::Experiment::Exp2B.config();
        let cfg = trial_config(&base, FaultProfile::lossy_link(), 7, 5);
        assert_eq!(cfg.label, format!("{} mc#5", base.label));
        let (j, f) = trial_seeds(7, 5);
        assert_eq!(cfg.jitter_seed, Some(j));
        assert_eq!(cfg.faults.as_ref().unwrap().seed, f);
    }
}
