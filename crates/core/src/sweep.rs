//! Deterministic batches of pipeline runs, and the studies built on them.
//!
//! Every result the paper reports is a batch of independent whole-pipeline
//! runs: the §6 experiments (Fig. 10), the Fig. 8 partition schemes and the
//! §5.3 N-node generalization; the ablations, the scheduling-policy
//! comparison and the Monte Carlo trials are batches too. [`run_jobs`] is
//! the one way to run such a batch. It fans the configurations out through
//! [`dles_sim::par_map`] (shared index, index-ordered result slots), so the
//! results are in job order and byte-identical for any worker count.
//!
//! §5.3: "We experiment with two Itsy nodes, although the results do
//! generalize to more nodes." [`partition_config`] turns any analyzed
//! partition into its EXP-2 configuration; the Fig. 8 sweep and the
//! N-node [`scaling_study`] simulate those to battery exhaustion.

use crate::experiment::{policy_config, Experiment};
use crate::metrics::ExperimentResult;
use crate::partition::{best_partition, fig8_schemes, PartitionAnalysis};
use crate::pipeline::{run_pipeline, Counter, PipelineConfig, Technique};
use crate::policy::{DvsPolicy, SchedulingPolicy};
use crate::workload::SystemConfig;
use dles_sim::par_map;
use dles_units::Hertz;

/// Simulate every job, in parallel, and return one result per job in job
/// order; `threads` = 0 means one worker per core and never affects the
/// output. The heaviest simulations start first so the work-pull packs
/// them tightly: jobs are sorted by descending node count, stable on job
/// order. That is purely a scheduling hint — results are put back in job
/// order, so the output cannot observe it.
pub fn run_jobs(jobs: &[PipelineConfig], threads: usize) -> Vec<ExperimentResult> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].n_nodes()));
    let results = par_map(&order, threads, |&i| run_pipeline(jobs[i].clone()));
    let mut indexed: Vec<(usize, ExperimentResult)> = order.into_iter().zip(results).collect();
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// [`run_jobs`] over the `Some` jobs; a `None` job stays `None` in place.
fn run_feasible(jobs: &[Option<PipelineConfig>], threads: usize) -> Vec<Option<ExperimentResult>> {
    let feasible: Vec<PipelineConfig> = jobs.iter().flatten().cloned().collect();
    let mut results = run_jobs(&feasible, threads).into_iter();
    jobs.iter()
        .map(|job| job.as_ref().and_then(|_| results.next()))
        .collect()
}

/// EXP-2 on an analyzed partition: its shares at its chosen DVS levels,
/// under `sys`, labelled `"{n}-node"`. `None` when the partition is
/// infeasible — some node cannot meet the frame deadline at any DVS
/// level, so there is nothing to simulate.
pub fn partition_config(sys: &SystemConfig, p: &PartitionAnalysis) -> Option<PipelineConfig> {
    let levels: Vec<_> = p.levels.iter().copied().collect::<Option<_>>()?;
    Some(PipelineConfig {
        label: format!("{}-node", levels.len()),
        sys: sys.clone(),
        shares: p.shares.clone(),
        levels,
        ..Experiment::Exp2.config()
    })
}

/// Clocks as `a/b/c`, one decimal each.
fn join_mhz(clocks: impl Iterator<Item = Hertz>) -> String {
    let text: Vec<String> = clocks.map(|f| format!("{:.1}", f.mhz())).collect();
    text.join("/")
}

/// A partition's chosen DVS levels as `a/b/c` (infeasible nodes left out).
fn join_levels(p: &PartitionAnalysis) -> String {
    join_mhz(p.levels.iter().flatten().map(|l| l.freq_mhz))
}

/// One row of the Fig. 8 lifetime sweep: a partition scheme and its run to
/// battery exhaustion.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Scheme number in the figure's order (1-based).
    pub scheme: usize,
    /// The scheme's partition: its shares, chosen DVS levels and exact
    /// required clocks.
    pub partition: PartitionAnalysis,
    /// The simulated run; `None` when the scheme cannot meet the frame
    /// deadline at any DVS level, so there was nothing to simulate.
    pub result: Option<ExperimentResult>,
}

/// Simulate every Fig. 8 partition scheme to battery exhaustion, in the
/// figure's order. An infeasible scheme keeps its row, with no result, so
/// the table always has one row per scheme.
pub fn fig8_lifetime_sweep(sys: &SystemConfig, threads: usize) -> Vec<Fig8Row> {
    let schemes = fig8_schemes(sys);
    let jobs: Vec<Option<PipelineConfig>> =
        schemes.iter().map(|p| partition_config(sys, p)).collect();
    let results = run_feasible(&jobs, threads);
    schemes
        .into_iter()
        .zip(results)
        .enumerate()
        .map(|(i, (partition, result))| Fig8Row {
            scheme: i + 1,
            partition,
            result,
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
    for row in rows {
        let required = join_mhz(row.partition.required_mhz.iter().copied());
        let _ = match &row.result {
            Some(r) => writeln!(
                out,
                "{:>6} {:<20} {:<20} {:>8.2} {:>8} {:>7}",
                row.scheme,
                join_levels(&row.partition),
                required,
                r.life_hours(),
                r.frames_completed,
                r.deadline_misses
            ),
            None => writeln!(
                out,
                "{:>6} {:<20} {:<20} {:>8} {:>8} {:>7}",
                row.scheme, "infeasible", required, "-", "-", "-"
            ),
        };
    }
    out
}

/// One row of the N-node scaling study. A node count with no feasible
/// partition still gets its rows, with no result, so the Fig. 10-style
/// table never silently renumbers: every `n` in `1..=max_nodes` appears.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    pub n_nodes: usize,
    pub technique: &'static str,
    /// The best feasible partition across `n_nodes`; `None` when there is
    /// none.
    pub partition: Option<PartitionAnalysis>,
    /// The simulated run; `None` when no partition of the chain across
    /// `n_nodes` meets the frame deadline, so nothing was simulated.
    pub result: Option<ExperimentResult>,
}

/// Run the scaling study: for each node count, the best feasible
/// partition with DVS during I/O, statically and (from two nodes on) with
/// §5.5 rotation, to battery exhaustion. The rows come in `(n_nodes,
/// technique)` order and are byte-identical for any `threads` (0 = one
/// worker per core).
pub fn scaling_study(sys: &SystemConfig, max_nodes: usize, threads: usize) -> Vec<ScaleRow> {
    assert!((1..=4).contains(&max_nodes), "1..=4 nodes supported");
    // Planned in table order: "rotation …" sorts before "static …".
    let mut plan: Vec<(usize, &'static str, Option<PartitionAnalysis>)> = Vec::new();
    let mut jobs: Vec<Option<PipelineConfig>> = Vec::new();
    for n in 1..=max_nodes {
        let best = best_partition(sys, n);
        let base = best
            .as_ref()
            .and_then(|p| partition_config(sys, p))
            .map(|cfg| PipelineConfig {
                policy: DvsPolicy::DvsDuringIo,
                ..cfg
            });
        if n >= 2 {
            plan.push((n, "rotation + DVS during I/O", best.clone()));
            jobs.push(base.clone().map(|cfg| PipelineConfig {
                technique: Some(Technique::PAPER_ROTATION),
                ..cfg
            }));
        }
        plan.push((n, "static + DVS during I/O", best));
        jobs.push(base);
    }
    let results = run_feasible(&jobs, threads);
    plan.into_iter()
        .zip(results)
        .map(|((n_nodes, technique, partition), result)| ScaleRow {
            n_nodes,
            technique,
            partition,
            result,
        })
        .collect()
}

/// Render the scaling study as a text table.
pub fn render_scaling(rows: &[ScaleRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N-node scaling study (best feasible partitions)\n\
         {:>2} {:<28} {:<28} {:>8} {:>8} {:>8} {:>7}",
        "N", "technique", "levels (MHz)", "T (h)", "T/N (h)", "frames", "misses"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for row in rows {
        let _ = match (&row.partition, &row.result) {
            (Some(p), Some(r)) => writeln!(
                out,
                "{:>2} {:<28} {:<28} {:>8.2} {:>8.2} {:>8} {:>7}",
                row.n_nodes,
                row.technique,
                join_levels(p),
                r.life_hours(),
                r.normalized_life_hours(),
                r.frames_completed,
                r.deadline_misses
            ),
            _ => writeln!(
                out,
                "{:>2} {:<28} {:<28} {:>8} {:>8} {:>8} {:>7}",
                row.n_nodes, row.technique, "infeasible", "-", "-", "-", "-"
            ),
        };
    }
    out
}

/// One row of the scheduling-policy comparison: a policy run on the
/// paper's 2C rotation workload to battery exhaustion.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    pub policy: SchedulingPolicy,
    pub result: ExperimentResult,
}

/// Simulate every scheduling policy on the 2C workload, in
/// [`SchedulingPolicy::ALL`] order, so the paper's fixed rotation-100
/// baseline (`static`) is always the first row.
pub fn policy_lifetime_sweep(threads: usize) -> Vec<PolicyRow> {
    let jobs: Vec<PipelineConfig> = SchedulingPolicy::ALL.map(policy_config).into();
    SchedulingPolicy::ALL
        .into_iter()
        .zip(run_jobs(&jobs, threads))
        .map(|(policy, result)| PolicyRow { policy, result })
        .collect()
}

/// Render the policy comparison as a text table, with each lifetime's
/// delta against the first row's, in percent.
pub fn render_policy_sweep(rows: &[PolicyRow]) -> String {
    use std::fmt::Write as _;
    let base_h = rows.first().map_or(0.0, |r| r.result.life_hours());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scheduling policies on the 2C workload (baseline: static rotation-100)\n\
         {:<10} {:>8} {:>8} {:>7} {:>10} {:>12}",
        "policy", "T (h)", "frames", "misses", "rotations", "vs static"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for row in rows {
        let r = &row.result;
        let h = r.life_hours();
        let delta_percent = if base_h > 0.0 {
            100.0 * (h - base_h) / base_h
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8.2} {:>8} {:>7} {:>10} {:>+11.2}%",
            row.policy.name(),
            h,
            r.frames_completed,
            r.deadline_misses,
            r.counters.get(Counter::Rotations.key()),
            delta_percent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dles_sim::SimTime;

    fn short(label: &str, horizon_s: u64) -> PipelineConfig {
        let mut cfg = Experiment::Exp2.config();
        cfg.label = label.to_owned();
        cfg.horizon = SimTime::from_secs(horizon_s);
        cfg
    }

    /// EXP-2 on the best `n`-node partition of the paper's system.
    fn n_node(n: usize) -> PipelineConfig {
        let sys = SystemConfig::paper();
        let best = best_partition(&sys, n)
            .unwrap_or_else(|| panic!("{n}-node partition should be feasible"));
        partition_config(&sys, &best).expect("the best partition is feasible")
    }

    #[test]
    fn results_are_worker_count_invariant() {
        let capped = |n| PipelineConfig {
            horizon: SimTime::from_secs(300),
            ..n_node(n)
        };
        // Mixed node counts, so the heaviest-first start order differs
        // from job order and the results must be put back.
        let jobs = vec![
            short("a", 300),
            capped(1),
            short("b", 450),
            short("c", 300),
            capped(3),
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
    fn n_node_configs_build_for_all_supported_sizes() {
        for n in 1..=4 {
            assert_eq!(n_node(n).n_nodes(), n);
        }
        let sys = SystemConfig::paper();
        let infeasible = &fig8_schemes(&sys)[2];
        assert!(!infeasible.is_feasible());
        assert!(partition_config(&sys, infeasible).is_none());
    }

    #[test]
    fn fig8_sweep_emits_one_row_per_scheme() {
        let sys = SystemConfig::paper();
        let rows = fig8_lifetime_sweep(&sys, 0);
        assert_eq!(rows.len(), 3, "one row per Fig. 8 scheme, always");
        let hours: Vec<Option<f64>> = rows
            .iter()
            .map(|r| r.result.as_ref().map(ExperimentResult::life_hours))
            .collect();
        let (Some(h1), Some(h2), None) = (hours[0], hours[1], hours[2]) else {
            panic!("schemes 1 and 2 are feasible, scheme 3 needs ~380 MHz: {hours:?}");
        };
        assert!(h1 > h2);
        let text = render_fig8_sweep(&rows);
        assert!(text.contains("infeasible"));
        assert!(text.contains("59.0/103.2"));
    }

    #[test]
    fn scaling_study_never_drops_a_node_count() {
        // Pre-fix, a node count whose best partition was infeasible was
        // silently skipped and the Fig. 10-style table misnumbered its
        // rows. Starve the serial link so the frame traffic cannot fit in
        // the deadline: partitioned configurations (which must ship the
        // 10 KB frame over the serial line) become infeasible, and those
        // node counts must now surface as explicit marker rows.
        let mut sys = SystemConfig::paper();
        sys.serial = sys.serial.with_effective_bps(4_000.0);
        let max_nodes = 3;
        let rows = scaling_study(&sys, max_nodes, 0);
        assert_eq!(
            rows.len(),
            1 + 2 * (max_nodes - 1),
            "one static row per n plus one rotation row per n >= 2: {rows:?}"
        );
        for n in 1..=max_nodes {
            assert!(
                rows.iter().any(|r| r.n_nodes == n),
                "node count {n} missing from {rows:?}"
            );
        }
        assert!(
            rows.iter().any(|r| r.result.is_none()),
            "the starved link must make at least one row infeasible: {rows:?}"
        );
        let text = render_scaling(&rows);
        assert!(text.contains("infeasible"));
    }

    #[test]
    fn render_scaling_formats() {
        let sys = SystemConfig::paper();
        let best = best_partition(&sys, 2).expect("a feasible 2-node partition");
        let cfg = PipelineConfig {
            horizon: SimTime::from_secs(300),
            ..partition_config(&sys, &best).expect("the best partition is feasible")
        };
        let result = run_pipeline(cfg);
        let hours = format!("{:.2}", result.life_hours());
        let rows = vec![ScaleRow {
            n_nodes: 2,
            technique: "rotation",
            partition: Some(best),
            result: Some(result),
        }];
        let text = render_scaling(&rows);
        assert!(text.contains("59.0/103.2"));
        assert!(text.contains(&hours));
    }

    #[test]
    fn policy_sweep_adaptive_beats_the_fixed_baseline() {
        let rows = policy_lifetime_sweep(0);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].policy, SchedulingPolicy::Static);
        let base = rows[0].result.life_hours();
        let best = rows
            .iter()
            .skip(1)
            .map(|r| r.result.life_hours())
            .fold(f64::MIN, f64::max);
        assert!(
            best > base,
            "at least one adaptive policy must beat fixed-100: {rows:?}"
        );
        let text = render_policy_sweep(&rows);
        assert!(text.contains("soc-skew") && text.contains("adaptive"));
        let static_line = text.lines().find(|l| l.starts_with("static"));
        assert!(
            static_line.is_some_and(|l| l.ends_with(" +0.00%")),
            "baseline is its own reference:\n{text}"
        );
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        assert!(run_jobs(&[], 4).is_empty());
    }
}
