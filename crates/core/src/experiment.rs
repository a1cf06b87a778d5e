//! The eight experiments of §6, as ready-made configurations.
//!
//! | id  | §    | configuration                                            |
//! |-----|------|----------------------------------------------------------|
//! | 0A  | §6.1 | one node, no I/O, full speed (206.4 MHz)                 |
//! | 0B  | §6.1 | one node, no I/O, half speed (103.2 MHz)                 |
//! | 1   | §6.2 | baseline: one node @206.4, D = 2.3 s                     |
//! | 1A  | §6.3 | DVS during I/O (comm @59)                                |
//! | 2   | §6.4 | two nodes, scheme-1 partitioning @59/@103.2              |
//! | 2A  | §6.5 | partitioning + DVS during I/O                            |
//! | 2B  | §6.6 | partitioning + power-failure recovery @73.7/@118         |
//! | 2C  | §6.7 | partitioning + DVS during I/O + rotation every 100 frames|
//!
//! Experiments 0A/0B use battery pack A, the rest pack B (§6.1 marks the
//! no-I/O runs as not comparable with the pipelined series; see
//! `dles_battery::packs`).

use crate::node::BatterySpec;
use crate::pipeline::{PipelineConfig, Technique};
use crate::policy::{DvsPolicy, SchedulingPolicy};
use crate::workload::{NodeShare, SystemConfig};
use dles_atr::BlockRange;
use dles_battery::packs::{itsy_pack_a, itsy_pack_b};
use dles_power::CurrentModel;
use dles_sim::SimTime;

/// The paper's data for each experiment, in [`Experiment::ALL`] order:
/// label, description, measured lifetime (h, §6), frames completed (×1000,
/// as published) and Fig. 10's normalized battery-life ratio (%).
const PAPER: [(&str, &str, f64, f64, Option<f64>); 8] = [
    ("0A", "no I/O, full speed", 3.4, 11.5, None),
    ("0B", "no I/O, half speed", 12.9, 22.5, None),
    ("1", "baseline", 6.13, 9.6, Some(100.0)),
    ("1A", "DVS during I/O", 7.6, 11.9, Some(124.0)),
    (
        "2",
        "distributed DVS with partitioning",
        14.1,
        22.1,
        Some(115.0),
    ),
    ("2A", "distributed DVS during I/O", 14.44, 22.6, Some(118.0)),
    (
        "2B",
        "distributed DVS with power failure recovery",
        15.72,
        24.5,
        Some(128.0),
    ),
    (
        "2C",
        "distributed DVS with node rotation",
        17.82,
        27.9,
        Some(145.0),
    ),
];

/// The experiments of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experiment {
    Exp0A,
    Exp0B,
    Exp1,
    Exp1A,
    Exp2,
    Exp2A,
    Exp2B,
    Exp2C,
}

impl Experiment {
    /// All experiments in the paper's order.
    pub const ALL: [Experiment; 8] = [
        Experiment::Exp0A,
        Experiment::Exp0B,
        Experiment::Exp1,
        Experiment::Exp1A,
        Experiment::Exp2,
        Experiment::Exp2A,
        Experiment::Exp2B,
        Experiment::Exp2C,
    ];

    /// The I/O-bound series summarized in Fig. 10.
    pub const FIG10: [Experiment; 6] = [
        Experiment::Exp1,
        Experiment::Exp1A,
        Experiment::Exp2,
        Experiment::Exp2A,
        Experiment::Exp2B,
        Experiment::Exp2C,
    ];

    pub fn label(self) -> &'static str {
        PAPER[self as usize].0
    }

    pub fn description(self) -> &'static str {
        PAPER[self as usize].1
    }

    /// The lifetime the paper measured, hours (§6).
    pub fn paper_hours(self) -> f64 {
        PAPER[self as usize].2
    }

    /// Frames the paper reports completed (×1000 rounded as published).
    pub fn paper_kframes(self) -> f64 {
        PAPER[self as usize].3
    }

    /// The paper's normalized battery-life ratio, percent (Fig. 10);
    /// `None` for the non-comparable no-I/O runs.
    pub(crate) fn paper_rnorm_percent(self) -> Option<f64> {
        PAPER[self as usize].4
    }

    /// Build the configuration for this experiment.
    pub fn config(self) -> PipelineConfig {
        let sys = SystemConfig::paper();
        let full = NodeShare::from_profile(&sys.profile, BlockRange::full());
        let scheme1 = (
            NodeShare::from_profile(&sys.profile, BlockRange::new(0, 1)),
            NodeShare::from_profile(&sys.profile, BlockRange::new(1, 4)),
        );
        let dvs = sys.dvs.clone();
        // Static paper table: every frequency looked up here is taken from
        // the DVS table itself, and the golden tests exercise every
        // experiment, so the expect cannot fire.
        let level = move |mhz: f64| {
            dvs.by_freq(dles_units::Hertz::from_mhz(mhz))
                .expect("paper level in table")
        };
        let base = PipelineConfig {
            label: self.label().to_owned(),
            shares: vec![full],
            levels: vec![sys.dvs.highest()],
            policy: DvsPolicy::FixedLevel,
            scheduling: SchedulingPolicy::Static,
            battery: BatterySpec::Kibam(itsy_pack_b().kibam),
            current_model: CurrentModel::itsy(),
            technique: None,
            io_enabled: true,
            jitter_seed: None,
            faults: None,
            battery_scales: None,
            horizon: SimTime::from_secs(3600 * 500),
            sys,
        };
        match self {
            Experiment::Exp0A => PipelineConfig {
                battery: BatterySpec::Kibam(itsy_pack_a().kibam),
                io_enabled: false,
                ..base
            },
            Experiment::Exp0B => PipelineConfig {
                battery: BatterySpec::Kibam(itsy_pack_a().kibam),
                io_enabled: false,
                levels: vec![level(103.2)],
                ..base
            },
            Experiment::Exp1 => base,
            Experiment::Exp1A => PipelineConfig {
                policy: DvsPolicy::DvsDuringIo,
                ..base
            },
            Experiment::Exp2 => PipelineConfig {
                shares: vec![scheme1.0, scheme1.1],
                levels: vec![level(59.0), level(103.2)],
                ..base
            },
            Experiment::Exp2A => PipelineConfig {
                shares: vec![scheme1.0, scheme1.1],
                levels: vec![level(59.0), level(103.2)],
                policy: DvsPolicy::DvsDuringIo,
                ..base
            },
            Experiment::Exp2B => PipelineConfig {
                shares: vec![scheme1.0, scheme1.1],
                // §6.6: the control traffic forces both nodes faster —
                // the paper measured 73.7 and 118 MHz.
                levels: vec![level(73.7), level(118.0)],
                policy: DvsPolicy::DvsDuringIo,
                technique: Some(Technique::Recovery),
                ..base
            },
            Experiment::Exp2C => PipelineConfig {
                shares: vec![scheme1.0, scheme1.1],
                levels: vec![level(59.0), level(103.2)],
                policy: DvsPolicy::DvsDuringIo,
                technique: Some(Technique::PAPER_ROTATION),
                ..base
            },
        }
    }
}

/// The 2C rotation workload under a scheduling policy. The adaptive
/// policies need the §5.5 wave mechanics, so they are layered onto the
/// paper's rotation experiment; `Static` returns 2C exactly.
pub fn policy_config(policy: SchedulingPolicy) -> PipelineConfig {
    let mut cfg = Experiment::Exp2C.config();
    cfg.scheduling = policy;
    if !policy.is_static() {
        cfg.label = format!("2C+{}", policy.name());
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;

    #[test]
    fn configs_have_expected_shapes() {
        assert_eq!(Experiment::Exp1.config().n_nodes(), 1);
        assert_eq!(Experiment::Exp2.config().n_nodes(), 2);
        assert!(!Experiment::Exp0A.config().io_enabled);
        assert_eq!(
            Experiment::Exp2B.config().technique,
            Some(Technique::Recovery)
        );
        assert_eq!(
            Experiment::Exp2C.config().technique,
            Some(Technique::PAPER_ROTATION)
        );
        assert_eq!(Experiment::Exp2C.config().policy, DvsPolicy::DvsDuringIo);
    }

    #[test]
    fn paper_numbers_are_consistent() {
        // T(N) ≈ F(N) × D for the pipelined series (§4.5).
        for e in Experiment::FIG10 {
            let t = e.paper_hours() * 3600.0;
            let f = e.paper_kframes() * 1000.0;
            let rel = (t - f * 2.3).abs() / t;
            assert!(rel < 0.03, "{}: T {} vs F·D {}", e.label(), t, f * 2.3);
        }
    }

    #[test]
    fn labels_unique() {
        // `PAPER` is indexed by discriminant, so it must follow `ALL`.
        for (i, e) in Experiment::ALL.into_iter().enumerate() {
            assert_eq!(e as usize, i);
        }
        let mut labels: Vec<&str> = Experiment::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn exp0a_reproduces_paper_lifetime() {
        let r = run_pipeline(Experiment::Exp0A.config());
        let hours = r.lifetime.as_hours_f64();
        assert!(
            (hours - 3.4).abs() < 0.35,
            "0A simulated {hours} h vs paper 3.4 h"
        );
        // ~11.5K frames.
        let kf = r.kframes();
        assert!((kf - 11.5).abs() < 1.3, "0A frames {kf}K vs 11.5K");
    }

    #[test]
    fn exp0b_reproduces_paper_lifetime() {
        let r = run_pipeline(Experiment::Exp0B.config());
        let hours = r.lifetime.as_hours_f64();
        assert!(
            (hours - 12.9).abs() < 1.3,
            "0B simulated {hours} h vs paper 12.9 h"
        );
    }
}
