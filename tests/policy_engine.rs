//! End-to-end determinism of the adaptive scheduling-policy engine.
//!
//! The policy layer observes per-node SoC estimates and moves the §5.5
//! rotation boundary online, which makes its event stream far more
//! irregular than the fixed-period schedule — exactly the situation where
//! a worker-count-dependent result would hide. The contract stays the
//! same as for the static sweeps: rendered reports are byte-identical for
//! any worker count, and `Static` is indistinguishable from the paper's
//! fixed configuration field for field.

use dles_core::experiment::{policy_config, Experiment};
use dles_core::faults::FaultProfile;
use dles_core::montecarlo::{render_montecarlo, run_monte_carlo, MonteCarloConfig};
use dles_core::pipeline::PipelineConfig;
use dles_core::policy::SchedulingPolicy;
use dles_core::run_jobs;
use dles_sim::SimTime;

/// One horizon-capped job per policy: real 2C physics, bounded runtime.
fn policy_jobs(horizon_s: u64) -> Vec<PipelineConfig> {
    SchedulingPolicy::ALL
        .into_iter()
        .map(|policy| PipelineConfig {
            horizon: SimTime::from_secs(horizon_s),
            ..policy_config(policy)
        })
        .collect()
}

/// Render a sweep the way `repro --sweep policy` fans it out underneath:
/// every job through `run_jobs`, one result line per job in job order.
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
fn adaptive_policy_sweep_is_byte_identical_across_worker_counts() {
    let jobs = policy_jobs(1800);
    let baseline = sweep_report(&jobs, 1);
    assert!(
        baseline.contains("2C+soc-skew") && baseline.contains("2C+adaptive"),
        "sweep must actually exercise the adaptive policies:\n{baseline}"
    );
    for threads in [3, 8] {
        assert_eq!(
            baseline,
            sweep_report(&jobs, threads),
            "policy sweep report must not depend on the worker count ({threads} threads)"
        );
    }
}

#[test]
fn adaptive_montecarlo_report_does_not_depend_on_worker_count() {
    let mut base = policy_config(SchedulingPolicy::AdaptivePeriod);
    base.horizon = SimTime::from_secs(1800);
    let render = |threads: usize| {
        render_montecarlo(&run_monte_carlo(&MonteCarloConfig {
            base: base.clone(),
            trials: 6,
            master_seed: 42,
            profile: FaultProfile::lossy_link(),
            threads,
        }))
    };
    let baseline = render(1);
    for threads in [3, 8] {
        assert_eq!(
            baseline,
            render(threads),
            "adaptive Monte Carlo report diverged at {threads} threads"
        );
    }
}

#[test]
fn static_policy_is_the_paper_configuration_down_to_the_cache_key() {
    // `Static` must not merely behave like experiment 2C — it must *be*
    // 2C field for field (the label aside, which names a run and changes
    // no physics), so golden traces carry over unchanged.
    let paper = Experiment::Exp2C.config();
    let same_label = |mut cfg: PipelineConfig| {
        cfg.label = paper.label.clone();
        format!("{cfg:?}")
    };
    let paper_key = format!("{paper:?}");
    assert_eq!(
        same_label(policy_config(SchedulingPolicy::Static)),
        paper_key
    );
    for policy in SchedulingPolicy::ALL.into_iter().filter(|p| !p.is_static()) {
        assert_ne!(
            same_label(policy_config(policy)),
            paper_key,
            "{} must differ from the static baseline",
            policy.name()
        );
    }
}
