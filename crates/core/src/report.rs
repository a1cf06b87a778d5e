//! Regenerating the paper's tables and figures as text reports.
//!
//! Each `render_*` function returns a formatted table. The paper's summary
//! bar chart (Fig. 10: absolute + normalized battery life with normalized
//! ratios annotated) renders straight from the `(Experiment, run)` pairs,
//! as text ([`render_fig10`]) or as JSON ([`to_json`]).

use crate::experiment::Experiment;
use crate::metrics::ExperimentResult;
use crate::partition::fig8_schemes;
use crate::workload::SystemConfig;
use dles_net::Endpoint;
use dles_power::{CurrentModel, Mode};
use dles_sim::FieldValue;
use std::fmt::Write as _;

/// The run Fig. 10 normalizes against: experiment 1, the baseline.
fn fig10_baseline(runs: &[(Experiment, ExperimentResult)]) -> &ExperimentResult {
    runs.iter()
        .find(|(e, _)| *e == Experiment::Exp1)
        .map(|(_, r)| r)
        .expect("baseline (experiment 1) required for normalization")
}

/// Render the Fig. 10 comparison of each experiment's run with the
/// paper's figures as a text table; `runs` must include experiment 1,
/// the normalization baseline.
pub fn render_fig10(runs: &[(Experiment, ExperimentResult)]) -> String {
    let baseline = fig10_baseline(runs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 10 — Experiment results (simulated vs. paper)\n\
         {:<4} {:<44} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "exp", "configuration", "T sim", "T paper", "Rn sim", "Rn paper", "F sim", "F paper"
    );
    let _ = writeln!(out, "{}", "-".repeat(104));
    for (e, r) in runs {
        let paper_rn = e
            .paper_rnorm_percent()
            .map(|p| format!("{p:>7.0}%"))
            .unwrap_or_else(|| "      --".into());
        let _ = writeln!(
            out,
            "{:<4} {:<44} {:>7.2}h {:>7.2}h {:>7.0}% {} {:>6.1}K {:>6.1}K",
            e.label(),
            e.description(),
            r.life_hours(),
            e.paper_hours(),
            100.0 * r.normalized_ratio(baseline),
            paper_rn,
            r.kframes(),
            e.paper_kframes()
        );
    }
    out
}

/// Render the Fig. 6 performance profile.
pub fn render_fig6(sys: &SystemConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 6 — ATR performance profile (Itsy @206.4 MHz)\n\
         {:<16} {:>10} {:>12} {:>14}",
        "block", "PROC (s)", "output (KB)", "transfer (s)"
    );
    let _ = writeln!(out, "{}", "-".repeat(56));
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>12.1} {:>14.2}",
        "input frame",
        "--",
        sys.profile.input_bytes as f64 / 1024.0,
        sys.serial.transfer_secs(sys.profile.input_bytes)
    );
    for b in dles_atr::Block::ALL {
        let p = sys.profile.block(b);
        let _ = writeln!(
            out,
            "{:<16} {:>10.3} {:>12.1} {:>14.2}",
            b.name(),
            p.peak_secs,
            p.output_bytes as f64 / 1024.0,
            sys.serial.transfer_secs(p.output_bytes)
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>10.3}",
        "total",
        sys.profile.total_peak_secs()
    );
    out
}

/// Render the Fig. 7 power profile: current per mode at each DVS level.
pub fn render_fig7(sys: &SystemConfig, model: &CurrentModel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 7 — Power profile of ATR on Itsy (mA at 4 V)\n\
         {:>10} {:>8} {:>8} {:>14} {:>13}",
        "freq (MHz)", "volt (V)", "idle", "communication", "computation"
    );
    let _ = writeln!(out, "{}", "-".repeat(58));
    for level in sys.dvs.iter() {
        let _ = writeln!(
            out,
            "{:>10.1} {:>8.3} {:>8.1} {:>14.1} {:>13.1}",
            level.freq_mhz.mhz(),
            level.volts.get(),
            model.current_ma(Mode::Idle, level).get(),
            model.current_ma(Mode::Communication, level).get(),
            model.current_ma(Mode::Computation, level).get()
        );
    }
    out
}

/// Render the Fig. 8 partitioning table.
pub fn render_fig8(sys: &SystemConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8 — Two-node partitioning schemes (D = {:.1} s)\n\
         {:<52} {:>10} {:>10} {:>10} {:>10}",
        sys.frame_delay.as_secs_f64(),
        "scheme (Node1)(Node2)",
        "N1 MHz",
        "N2 MHz",
        "N1 KB",
        "N2 KB"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for scheme in fig8_schemes(sys) {
        let name = format!("{}{}", scheme.shares[0].range, scheme.shares[1].range);
        let lvl = |i: usize| match scheme.levels[i] {
            Some(l) => format!("{:>10.1}", l.freq_mhz.mhz()),
            None => format!("{:>10}", format!("> {:.1}", 206.4)),
        };
        let _ = writeln!(
            out,
            "{:<52} {} {} {:>10.1} {:>10.1}",
            name,
            lvl(0),
            lvl(1),
            scheme.shares[0].comm_payload_bytes() as f64 / 1024.0,
            scheme.shares[1].comm_payload_bytes() as f64 / 1024.0
        );
    }
    out
}

/// Render a detailed per-experiment result (per-node breakdown).
pub fn render_experiment_detail(e: Experiment, r: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment ({}) {} — T = {:.2} h, F = {:.1}K frames, {} deadline misses, \
         latency mean {:.2} s / p95 {:.2} s",
        e.label(),
        e.description(),
        r.life_hours(),
        r.kframes(),
        r.deadline_misses,
        r.mean_frame_latency_s.get(),
        r.p95_frame_latency_s.get()
    );
    for (i, n) in r.nodes.iter().enumerate() {
        let death = n
            .death_time
            .map(|t| format!("{:.2} h", t.as_hours_f64()))
            .unwrap_or_else(|| "alive".into());
        let _ = writeln!(
            out,
            "  {}: death {}, delivered {:.0} mAh, stranded {:.0} mAh, \
             mean {:.1} mA, comm {:.0} J / comp {:.0} J / idle {:.0} J",
            Endpoint::Node(i),
            death,
            n.delivered_mah.get(),
            n.stranded_mah.get(),
            n.mean_current_ma.get(),
            n.energy.energy_j(Mode::Communication).get(),
            n.energy.energy_j(Mode::Computation).get(),
            n.energy.energy_j(Mode::Idle).get(),
        );
    }
    out
}

/// Render the monotonic event counters of a run as a two-column table.
pub fn render_counters(label: &str, counters: &dles_sim::CounterSet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Event counters ({label})");
    let _ = writeln!(out, "{}", "-".repeat(40));
    if counters.is_empty() {
        let _ = writeln!(out, "  (no events recorded)");
    }
    for (name, value) in counters.iter() {
        let _ = writeln!(out, "  {name:<28} {value:>10}");
    }
    out
}

/// Serialize the Fig. 10 comparison to pretty JSON (for machine-readable
/// artifacts), one object per run; `runs` must include experiment 1.
/// Values render as trace fields do: strings escaped, non-finite numbers
/// as `null`.
pub fn to_json(runs: &[(Experiment, ExperimentResult)]) -> String {
    let baseline = fig10_baseline(runs);
    let num = FieldValue::F64;
    let mut out = String::from("[");
    for (i, (e, r)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\n");
        let _ = writeln!(out, "    \"label\": {},", FieldValue::from(e.label()));
        let _ = writeln!(
            out,
            "    \"description\": {},",
            FieldValue::from(e.description())
        );
        let _ = writeln!(out, "    \"absolute_hours\": {},", num(r.life_hours()));
        let _ = writeln!(
            out,
            "    \"normalized_hours\": {},",
            num(r.normalized_life_hours())
        );
        let rnorm = 100.0 * r.normalized_ratio(baseline);
        let _ = writeln!(out, "    \"rnorm_percent\": {},", num(rnorm));
        let _ = writeln!(out, "    \"paper_hours\": {},", num(e.paper_hours()));
        // No paper figure renders as `null`, as a non-finite number does.
        let paper_rn = num(e.paper_rnorm_percent().unwrap_or(f64::NAN));
        let _ = writeln!(out, "    \"paper_rnorm_percent\": {paper_rn},");
        let _ = writeln!(out, "    \"kframes\": {},", num(r.kframes()));
        let _ = writeln!(out, "    \"paper_kframes\": {}", num(e.paper_kframes()));
        out.push_str("  }");
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExperimentResult;
    use dles_sim::SimTime;

    fn fake_result(hours: f64, n: usize) -> ExperimentResult {
        ExperimentResult {
            label: "x".into(),
            n_nodes: n,
            lifetime: SimTime::from_hours_f64(hours),
            frames_completed: (hours * 3600.0 / 2.3) as u64,
            deadline_misses: 0,
            mean_frame_latency_s: dles_units::Seconds::ZERO,
            p95_frame_latency_s: dles_units::Seconds::ZERO,
            nodes: vec![],
            counters: dles_sim::CounterSet::new(),
        }
    }

    #[test]
    fn fig10_rows_normalize_against_baseline() {
        let runs = [
            (Experiment::Exp1, fake_result(6.0, 1)),
            (Experiment::Exp2, fake_result(13.8, 2)),
        ];
        let json = to_json(&runs);
        let rnorm: Vec<f64> = json
            .lines()
            .filter_map(|l| l.trim().strip_prefix("\"rnorm_percent\": "))
            .map(|v| v.trim_end_matches(',').parse().unwrap())
            .collect();
        assert_eq!(rnorm.len(), 2);
        assert!((rnorm[0] - 100.0).abs() < 1e-9);
        assert!((rnorm[1] - 115.0).abs() < 1e-9);
        let text = render_fig10(&runs);
        assert!(text.contains("baseline"));
        assert!(text.contains("partitioning"));
        assert!(text.contains("    100% "), "{text}");
        assert!(text.contains("    115% "), "{text}");
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn fig10_requires_baseline() {
        let _ = render_fig10(&[(Experiment::Exp2, fake_result(13.8, 2))]);
    }

    #[test]
    fn static_tables_render() {
        let sys = SystemConfig::paper();
        let model = CurrentModel::itsy();
        let f6 = render_fig6(&sys);
        assert!(f6.contains("Target Detect.") && f6.contains("10.1"));
        let f7 = render_fig7(&sys, &model);
        assert!(f7.contains("206.4") && f7.contains("59.0"));
        let f8 = render_fig8(&sys);
        assert!(f8.contains("> 206.4"), "infeasible row marker: {f8}");
        assert!(f8.contains("10.7"), "Fig.8 payload column: {f8}");
    }

    #[test]
    fn counter_table_renders_in_order() {
        let mut engine = crate::pipeline::build_engine(Experiment::Exp2.config());
        engine.run_until(SimTime::from_secs(12));
        let cs = engine.world().counters();
        let text = render_counters("2", cs);
        assert!(text.contains("Event counters (2)"));
        let rows: Vec<(&str, u64)> = text
            .lines()
            .skip(2)
            .filter_map(|l| {
                let (name, value) = l.trim().split_once(' ')?;
                Some((name, value.trim().parse().ok()?))
            })
            .collect();
        let expected: Vec<(&str, u64)> = cs.iter().collect();
        assert!(expected.len() > 2, "{text}");
        assert_eq!(rows, expected, "first-increment order preserved:\n{text}");
        assert!(render_counters("x", &dles_sim::CounterSet::new()).contains("no events"));
    }

    #[test]
    fn json_roundtrip() {
        let json = to_json(&[(Experiment::Exp1, fake_result(6.0, 1))]);
        assert!(json.contains("\"rnorm_percent\""));
    }
}
