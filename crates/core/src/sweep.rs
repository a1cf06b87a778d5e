//! Deterministic parallel sweeps over pipeline configurations.
//!
//! The paper's sweeps — the Fig. 8 partition schemes, the §5.3 N-node
//! scaling study ([`crate::scale`]) and the scheduling-policy comparison —
//! are small fan-outs of distinct configurations, each simulated to
//! battery exhaustion. They run through the same scoped-thread work-pull
//! as every other study ([`dles_sim::par_map_slice`]: shared index,
//! index-ordered result slots), so the returned rows are in job order and
//! byte-identical for any worker count.

use crate::metrics::ExperimentResult;
use crate::pipeline::{run_pipeline, Counter, PipelineConfig};
use crate::workload::SystemConfig;
use dles_sim::par_map_slice;
use dles_units::{Hertz, Hours};

/// Simulate every job, in parallel, and return one result per job in job
/// order; `threads` = 0 means one worker per core and never affects the
/// output. The heaviest simulations start first so the work-pull packs
/// them tightly: jobs are sorted by descending node count, stable on job
/// order. That is purely a scheduling hint — results are put back in job
/// order, so the output cannot observe it.
pub(crate) fn run_jobs(jobs: &[PipelineConfig], threads: usize) -> Vec<ExperimentResult> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].n_nodes()));
    let results = par_map_slice(&order, threads, |_, &i| run_pipeline(jobs[i].clone()));
    let mut indexed: Vec<(usize, ExperimentResult)> = order.into_iter().zip(results).collect();
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// One row of the Fig. 8 lifetime sweep: a partition scheme simulated to
/// battery exhaustion (or marked infeasible — the scheme cannot meet the
/// frame deadline at any DVS level, so there is nothing to simulate).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Scheme number in the figure's order (1-based).
    pub scheme: usize,
    pub feasible: bool,
    /// Chosen DVS levels (empty when infeasible).
    pub levels_mhz: Vec<Hertz>,
    /// Exact per-node required clock before rounding up to a level.
    pub required_mhz: Vec<Hertz>,
    /// Simulated lifetime (zero when infeasible).
    pub lifetime_h: Hours,
    pub frames_completed: u64,
    pub deadline_misses: u64,
}

/// Simulate every Fig. 8 partition scheme to battery exhaustion, in the
/// figure's order. Infeasible schemes produce an
/// explicit marker row instead of being dropped, so the table always has
/// one row per scheme.
pub fn fig8_lifetime_sweep(sys: &SystemConfig, threads: usize) -> Vec<Fig8Row> {
    use crate::experiment::Experiment;
    use crate::partition::fig8_schemes;
    let schemes = fig8_schemes(sys);
    let mut jobs: Vec<PipelineConfig> = Vec::new();
    let mut job_of_scheme: Vec<Option<usize>> = Vec::new();
    for (i, scheme) in schemes.iter().enumerate() {
        if scheme.is_feasible() {
            let mut cfg = Experiment::Exp2.config();
            cfg.label = format!("fig8 scheme {}", i + 1);
            cfg.sys = sys.clone();
            cfg.shares = scheme.shares.clone();
            cfg.levels = scheme.levels.iter().map(|l| l.expect("feasible")).collect();
            job_of_scheme.push(Some(jobs.len()));
            jobs.push(cfg);
        } else {
            job_of_scheme.push(None);
        }
    }
    let results = run_jobs(&jobs, threads);
    schemes
        .iter()
        .enumerate()
        .map(|(i, scheme)| match job_of_scheme[i] {
            Some(j) => {
                let r = &results[j];
                Fig8Row {
                    scheme: i + 1,
                    feasible: true,
                    levels_mhz: scheme
                        .levels
                        .iter()
                        .map(|l| l.expect("feasible").freq_mhz)
                        .collect(),
                    required_mhz: scheme.required_mhz.clone(),
                    lifetime_h: Hours::new(r.life_hours()),
                    frames_completed: r.frames_completed,
                    deadline_misses: r.deadline_misses,
                }
            }
            None => Fig8Row {
                scheme: i + 1,
                feasible: false,
                levels_mhz: Vec::new(),
                required_mhz: scheme.required_mhz.clone(),
                lifetime_h: Hours::ZERO,
                frames_completed: 0,
                deadline_misses: 0,
            },
        })
        .collect()
}

/// Render the Fig. 8 lifetime sweep as a text table.
pub fn render_fig8_sweep(rows: &[Fig8Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8 schemes ranked by simulated lifetime\n\
         {:>6} {:<20} {:<20} {:>8} {:>8} {:>7}",
        "scheme", "levels (MHz)", "required (MHz)", "T (h)", "frames", "misses"
    );
    let _ = writeln!(out, "{}", "-".repeat(76));
    for r in rows {
        let required: Vec<String> = r
            .required_mhz
            .iter()
            .map(|f| format!("{:.1}", f.mhz()))
            .collect();
        if r.feasible {
            let levels: Vec<String> = r
                .levels_mhz
                .iter()
                .map(|f| format!("{:.1}", f.mhz()))
                .collect();
            let _ = writeln!(
                out,
                "{:>6} {:<20} {:<20} {:>8.2} {:>8} {:>7}",
                r.scheme,
                levels.join("/"),
                required.join("/"),
                r.lifetime_h.get(),
                r.frames_completed,
                r.deadline_misses
            );
        } else {
            let _ = writeln!(
                out,
                "{:>6} {:<20} {:<20} {:>8} {:>8} {:>7}",
                r.scheme,
                "infeasible",
                required.join("/"),
                "-",
                "-",
                "-"
            );
        }
    }
    out
}

/// One row of the scheduling-policy comparison: a policy run on the
/// paper's 2C rotation workload to battery exhaustion.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// CLI name of the policy (`static`, `soc-skew`, `adaptive`).
    pub name: &'static str,
    pub lifetime_h: Hours,
    pub frames_completed: u64,
    pub deadline_misses: u64,
    /// Rotation waves actually launched.
    pub rotations: u64,
    /// Lifetime delta vs the `static` fixed-100 baseline, percent.
    pub delta_percent: f64,
}

/// Simulate every scheduling policy on the 2C workload and compare against
/// the paper's fixed rotation-100 baseline (always the first row).
pub fn policy_lifetime_sweep(threads: usize) -> Vec<PolicyRow> {
    use crate::experiment::policy_config;
    use crate::policy::SchedulingPolicy;
    let jobs: Vec<PipelineConfig> = SchedulingPolicy::NAMES
        .iter()
        .map(|name| policy_config(SchedulingPolicy::by_name(name).expect("NAMES entries resolve")))
        .collect();
    let results = run_jobs(&jobs, threads);
    let base_h = results[0].life_hours();
    SchedulingPolicy::NAMES
        .iter()
        .zip(&results)
        .map(|(name, r)| {
            let h = r.life_hours();
            PolicyRow {
                name,
                lifetime_h: Hours::new(h),
                frames_completed: r.frames_completed,
                deadline_misses: r.deadline_misses,
                rotations: r.counters.get(Counter::Rotations.key()),
                delta_percent: if base_h > 0.0 {
                    100.0 * (h - base_h) / base_h
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Render the policy comparison as a text table.
pub fn render_policy_sweep(rows: &[PolicyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scheduling policies on the 2C workload (baseline: static rotation-100)\n\
         {:<10} {:>8} {:>8} {:>7} {:>10} {:>12}",
        "policy", "T (h)", "frames", "misses", "rotations", "vs static"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>8.2} {:>8} {:>7} {:>10} {:>+11.2}%",
            r.name,
            r.lifetime_h.get(),
            r.frames_completed,
            r.deadline_misses,
            r.rotations,
            r.delta_percent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use dles_sim::SimTime;

    fn short(label: &str, horizon_s: u64) -> PipelineConfig {
        let mut cfg = Experiment::Exp2.config();
        cfg.label = label.to_owned();
        cfg.horizon = SimTime::from_secs(horizon_s);
        cfg
    }

    #[test]
    fn results_are_worker_count_invariant() {
        let sys = SystemConfig::paper();
        let n_node = |n| {
            let policy = crate::policy::DvsPolicy::DvsDuringIo;
            let mut cfg = crate::scale::n_node_config(&sys, n, policy, None).unwrap();
            cfg.horizon = SimTime::from_secs(300);
            cfg
        };
        // Mixed node counts, so the heaviest-first start order differs
        // from job order and the results must be put back.
        let jobs = vec![
            short("a", 300),
            n_node(1),
            short("b", 450),
            short("c", 300),
            n_node(3),
            short("d", 600),
        ];
        let baseline = run_jobs(&jobs, 1);
        let labels: Vec<&str> = baseline.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["a", "1-node", "b", "c", "3-node", "d"]);
        for threads in [2, 3, 8] {
            let out = run_jobs(&jobs, threads);
            for (l, r) in baseline.iter().zip(&out) {
                assert_eq!(l.label, r.label);
                assert_eq!(l.lifetime, r.lifetime);
                assert_eq!(l.frames_completed, r.frames_completed);
                assert_eq!(l.counters, r.counters);
            }
        }
    }

    #[test]
    fn fig8_sweep_emits_one_row_per_scheme() {
        let sys = SystemConfig::paper();
        let rows = fig8_lifetime_sweep(&sys, 0);
        assert_eq!(rows.len(), 3, "one row per Fig. 8 scheme, always");
        assert!(rows[0].feasible && rows[1].feasible);
        assert!(!rows[2].feasible, "scheme 3 needs ~380 MHz — infeasible");
        assert!(rows[0].lifetime_h.get() > rows[1].lifetime_h.get());
        let text = render_fig8_sweep(&rows);
        assert!(text.contains("infeasible"));
        assert!(text.contains("59.0/103.2"));
    }

    #[test]
    fn policy_sweep_adaptive_beats_the_fixed_baseline() {
        let rows = policy_lifetime_sweep(0);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, "static");
        assert_eq!(rows[0].delta_percent, 0.0, "baseline is its own reference");
        let best = rows
            .iter()
            .skip(1)
            .map(|r| r.delta_percent)
            .fold(f64::MIN, f64::max);
        assert!(
            best > 0.0,
            "at least one adaptive policy must beat fixed-100: {rows:?}"
        );
        let text = render_policy_sweep(&rows);
        assert!(text.contains("soc-skew") && text.contains("adaptive"));
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        assert!(run_jobs(&[], 4).is_empty());
    }
}
