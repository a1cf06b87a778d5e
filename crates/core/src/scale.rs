//! Generalization beyond two nodes.
//!
//! §5.3: "We experiment with two Itsy nodes, although the results do
//! generalize to more nodes." This module builds the N-node counterparts
//! of the §6 configurations — best feasible partition, optional DVS during
//! I/O, optional rotation — and runs them to battery exhaustion as one
//! [`crate::sweep`] fan-out: in parallel across configurations, with
//! byte-identical output for any worker count.

use crate::experiment::Experiment;
use crate::pipeline::{PipelineConfig, Technique};
use crate::policy::DvsPolicy;
use crate::sweep::run_jobs;
use crate::workload::SystemConfig;
use dles_units::Hours;

/// One row of the N-node scaling study. Node counts with no feasible
/// partition still get a row (`feasible == false`) so the Fig. 10-style
/// table never silently renumbers: every `n` in `1..=max_nodes` appears.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    pub n_nodes: usize,
    pub technique: String,
    /// `false` marks an explicit infeasible row: no partition of the
    /// chain across `n_nodes` meets the frame deadline, nothing was
    /// simulated, and the numeric columns are zero.
    pub feasible: bool,
    /// DVS levels of the chosen partition (empty when infeasible).
    pub levels_mhz: Vec<dles_units::Hertz>,
    pub life_hours: Hours,
    pub normalized_hours: Hours,
    pub frames_completed: u64,
    pub deadline_misses: u64,
}

/// Build the N-node configuration for a technique, using the best
/// feasible partition. Returns `None` when no partition is feasible.
pub fn n_node_config(
    sys: &SystemConfig,
    n: usize,
    policy: DvsPolicy,
    technique: Option<Technique>,
) -> Option<PipelineConfig> {
    let best = crate::partition::best_partition(sys, n)?;
    let mut cfg = Experiment::Exp2.config();
    cfg.label = format!("{n}-node");
    cfg.sys = sys.clone();
    cfg.shares = best.shares.clone();
    cfg.levels = best.levels.iter().map(|l| l.expect("feasible")).collect();
    cfg.policy = policy;
    cfg.technique = technique;
    Some(cfg)
}

/// Run the scaling study: for each node count, static partitioning and
/// partitioning + rotation (+ DVS during I/O), to battery exhaustion. The
/// returned rows are byte-identical for any `threads` (0 = one worker per
/// core).
pub fn scaling_study(sys: &SystemConfig, max_nodes: usize, threads: usize) -> Vec<ScaleRow> {
    assert!((1..=4).contains(&max_nodes), "1..=4 nodes supported");
    // One planned row per (n, technique) — infeasible ones keep a `None`
    // job so they surface as explicit marker rows instead of vanishing.
    let mut plan: Vec<(usize, String, Option<PipelineConfig>)> = Vec::new();
    for n in 1..=max_nodes {
        plan.push((
            n,
            "static + DVS during I/O".into(),
            n_node_config(sys, n, DvsPolicy::DvsDuringIo, None),
        ));
        if n >= 2 {
            plan.push((
                n,
                "rotation + DVS during I/O".into(),
                n_node_config(
                    sys,
                    n,
                    DvsPolicy::DvsDuringIo,
                    Some(Technique::PAPER_ROTATION),
                ),
            ));
        }
    }
    let jobs: Vec<PipelineConfig> = plan.iter().filter_map(|(_, _, cfg)| cfg.clone()).collect();
    let mut results = run_jobs(&jobs, threads).into_iter();
    let mut rows: Vec<ScaleRow> = plan
        .into_iter()
        .map(|(n, technique, cfg)| match cfg {
            Some(cfg) => {
                let r = results.next().expect("one result per feasible job");
                ScaleRow {
                    n_nodes: n,
                    technique,
                    feasible: true,
                    levels_mhz: cfg.levels.iter().map(|l| l.freq_mhz).collect(),
                    life_hours: Hours::new(r.life_hours()),
                    normalized_hours: Hours::new(r.normalized_life_hours()),
                    frames_completed: r.frames_completed,
                    deadline_misses: r.deadline_misses,
                }
            }
            None => ScaleRow {
                n_nodes: n,
                technique,
                feasible: false,
                levels_mhz: Vec::new(),
                life_hours: Hours::ZERO,
                normalized_hours: Hours::ZERO,
                frames_completed: 0,
                deadline_misses: 0,
            },
        })
        .collect();
    rows.sort_by(|a, b| (a.n_nodes, &a.technique).cmp(&(b.n_nodes, &b.technique)));
    rows
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
    for r in rows {
        if !r.feasible {
            let _ = writeln!(
                out,
                "{:>2} {:<28} {:<28} {:>8} {:>8} {:>8} {:>7}",
                r.n_nodes, r.technique, "infeasible", "-", "-", "-", "-"
            );
            continue;
        }
        let levels: Vec<String> = r
            .levels_mhz
            .iter()
            .map(|f| format!("{:.1}", f.mhz()))
            .collect();
        let _ = writeln!(
            out,
            "{:>2} {:<28} {:<28} {:>8.2} {:>8.2} {:>8} {:>7}",
            r.n_nodes,
            r.technique,
            levels.join("/"),
            r.life_hours.get(),
            r.normalized_hours.get(),
            r.frames_completed,
            r.deadline_misses
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_node_configs_build_for_all_supported_sizes() {
        let sys = SystemConfig::paper();
        for n in 1..=4 {
            let cfg = n_node_config(&sys, n, DvsPolicy::DvsDuringIo, None)
                .unwrap_or_else(|| panic!("{n}-node partition should be feasible"));
            assert_eq!(cfg.n_nodes(), n);
        }
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
            rows.iter().any(|r| !r.feasible),
            "the starved link must make at least one row infeasible: {rows:?}"
        );
        let text = render_scaling(&rows);
        assert!(text.contains("infeasible"));
    }

    #[test]
    fn render_scaling_formats() {
        let rows = vec![ScaleRow {
            n_nodes: 2,
            technique: "rotation".into(),
            feasible: true,
            levels_mhz: vec![
                dles_units::Hertz::from_mhz(59.0),
                dles_units::Hertz::from_mhz(103.2),
            ],
            life_hours: Hours::new(17.5),
            normalized_hours: Hours::new(8.75),
            frames_completed: 27_000,
            deadline_misses: 0,
        }];
        let text = render_scaling(&rows);
        assert!(text.contains("59.0/103.2"));
        assert!(text.contains("17.50"));
    }
}
