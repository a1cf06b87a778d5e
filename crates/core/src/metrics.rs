//! The paper's evaluation metrics (§4.5).
//!
//! * `T(N)` — absolute battery life of the N-node system;
//! * `F(N)` — frames completed before battery exhaustion;
//! * `T_norm(N) = T(N)/N` — normalized battery life ("the total lifetime
//!   of N batteries should be at least N times that of a single battery,
//!   or else they are less energy efficient");
//! * `R_norm(N) = T_norm(N)/T(1)` — normalized battery-life ratio against
//!   the baseline.

use dles_power::EnergyAccount;
use dles_sim::{CounterSet, SimTime};
use dles_units::{MilliAmpHours, MilliAmps, Seconds};

/// Per-node outcome of an experiment.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// When this node's battery died (`None` = still alive at the end).
    pub death_time: Option<SimTime>,
    /// Charge delivered by this node's battery.
    pub delivered_mah: MilliAmpHours,
    /// Charge stranded in the battery at the end (the paper's "loss of
    /// battery capacities").
    pub stranded_mah: MilliAmpHours,
    /// Time-weighted mean current.
    pub mean_current_ma: MilliAmps,
    /// Energy split by mode.
    pub energy: EnergyAccount,
    /// DVS transitions performed.
    pub dvs_transitions: u64,
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment label, e.g. `"2C"`.
    pub label: String,
    /// Number of nodes (and batteries), `N`.
    pub n_nodes: usize,
    /// `T(N)`: when the system stopped delivering results.
    pub lifetime: SimTime,
    /// `F(N)`: frames whose final results reached the destination.
    pub frames_completed: u64,
    /// Frames that missed the frame-delay constraint.
    pub deadline_misses: u64,
    /// Mean end-to-end frame latency (emission → result delivery).
    pub mean_frame_latency_s: Seconds,
    /// 95th-percentile end-to-end frame latency.
    pub p95_frame_latency_s: Seconds,
    /// Per-node details.
    pub nodes: Vec<NodeOutcome>,
    /// Monotonic event counters accumulated during the run (frames
    /// emitted/completed, transfers, timeouts, rotations, migrations, …).
    pub counters: CounterSet,
}

impl ExperimentResult {
    /// `T(N)` in hours.
    pub fn life_hours(&self) -> f64 {
        self.lifetime.as_hours_f64()
    }

    /// `F(N)` in thousands of frames, as the paper reports it.
    pub fn kframes(&self) -> f64 {
        self.frames_completed as f64 / 1000.0
    }

    /// `T_norm(N) = T(N) / N` in hours.
    pub fn normalized_life_hours(&self) -> f64 {
        self.life_hours() / self.n_nodes as f64
    }

    /// `R_norm(N) = T_norm(N) / T(1)` against a baseline lifetime.
    pub fn normalized_ratio(&self, baseline: &ExperimentResult) -> f64 {
        self.normalized_life_hours() / baseline.life_hours()
    }

    /// Index and time of the first node death, if any node died.
    pub fn first_death(&self) -> Option<(usize, SimTime)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.death_time.map(|t| (i, t)))
            .min_by_key(|&(_, t)| t)
    }

    /// Total charge stranded across all batteries.
    pub fn total_stranded_mah(&self) -> MilliAmpHours {
        self.nodes.iter().map(|n| n.stranded_mah).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(label: &str, n: usize, hours: f64) -> ExperimentResult {
        ExperimentResult {
            label: label.into(),
            n_nodes: n,
            lifetime: SimTime::from_hours_f64(hours),
            frames_completed: 0,
            deadline_misses: 0,
            mean_frame_latency_s: Seconds::ZERO,
            p95_frame_latency_s: Seconds::ZERO,
            nodes: vec![],
            counters: CounterSet::new(),
        }
    }

    #[test]
    fn paper_metric_arithmetic() {
        // §6.4: T(2) = 14.1 h, T(1) = 6.13 h ⇒ T_norm = 7.05, R_norm = 115%.
        let baseline = result("1", 1, 6.13);
        let two = result("2", 2, 14.1);
        assert!((two.normalized_life_hours() - 7.05).abs() < 1e-9);
        assert!((two.normalized_ratio(&baseline) - 1.1501).abs() < 1e-3);
        assert!((baseline.normalized_ratio(&baseline) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_death_picks_earliest() {
        let mut r = result("x", 2, 10.0);
        r.nodes = vec![
            NodeOutcome {
                death_time: Some(SimTime::from_hours_f64(12.0)),
                delivered_mah: MilliAmpHours::ZERO,
                stranded_mah: MilliAmpHours::new(5.0),
                mean_current_ma: MilliAmps::ZERO,
                energy: EnergyAccount::new(),
                dvs_transitions: 0,
            },
            NodeOutcome {
                death_time: Some(SimTime::from_hours_f64(10.0)),
                delivered_mah: MilliAmpHours::ZERO,
                stranded_mah: MilliAmpHours::new(7.0),
                mean_current_ma: MilliAmps::ZERO,
                energy: EnergyAccount::new(),
                dvs_transitions: 0,
            },
        ];
        let (idx, t) = r.first_death().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(t, SimTime::from_hours_f64(10.0));
        assert!((r.total_stranded_mah().get() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn no_deaths_is_none() {
        let r = result("y", 1, 5.0);
        assert!(r.first_death().is_none());
    }
}
