//! Per-node workload under the frame deadline.
//!
//! §3: each node performs RECV → PROC → SEND, fully serialized, and the
//! triple must complete within the frame delay `D`. §5.1 fixes
//! `D = 2.3 s` for all experiments: 1.1 s RECV + 1.1 s PROC + 0.1 s SEND
//! for the baseline single node.

use dles_atr::{AtrProfile, BlockRange};
use dles_net::SerialConfig;
use dles_power::{DvsTable, FreqLevel};
use dles_sim::SimTime;
use dles_units::{Hertz, Seconds};

/// The system-level constants shared by every experiment.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The frame delay (performance constraint), seconds.
    pub frame_delay: SimTime,
    /// The ATR performance profile (Fig. 6).
    pub profile: AtrProfile,
    /// Serial link timing (§4.3).
    pub serial: SerialConfig,
    /// The DVS operating-point table (Fig. 7 x-axis).
    pub dvs: DvsTable,
}

impl SystemConfig {
    /// The paper's configuration: D = 2.3 s, Fig. 6 profile, measured
    /// serial timing, SA-1100 DVS table.
    pub fn paper() -> Self {
        SystemConfig {
            frame_delay: SimTime::from_secs_f64(2.3),
            profile: AtrProfile::paper(),
            serial: SerialConfig::paper(),
            dvs: DvsTable::sa1100(),
        }
    }
}

/// One node's share of the algorithm, with derived per-frame timing.
#[derive(Debug, Clone, Copy)]
pub struct NodeShare {
    /// The contiguous blocks this node runs.
    pub range: BlockRange,
    /// Bytes received per frame.
    pub recv_bytes: u64,
    /// Bytes sent per frame.
    pub send_bytes: u64,
    /// Computation latency at the peak clock.
    pub proc_peak_secs: Seconds,
}

impl NodeShare {
    /// Derive a share from the profile.
    pub(crate) fn from_profile(profile: &AtrProfile, range: BlockRange) -> Self {
        NodeShare {
            range,
            recv_bytes: profile.recv_bytes(range),
            send_bytes: profile.send_bytes(range),
            proc_peak_secs: Seconds::new(profile.peak_secs(range)),
        }
    }

    /// Deterministic RECV latency under `serial`.
    pub(crate) fn recv_time(&self, serial: &SerialConfig) -> SimTime {
        serial.transfer_time(self.recv_bytes, None)
    }

    /// Deterministic SEND latency under `serial`.
    pub(crate) fn send_time(&self, serial: &SerialConfig) -> SimTime {
        serial.transfer_time(self.send_bytes, None)
    }

    /// PROC latency at DVS level `at` (linear scaling, §4.3).
    pub(crate) fn proc_time(&self, dvs: &DvsTable, at: FreqLevel) -> SimTime {
        dvs.scale_from_peak(SimTime::from_secs_f64(self.proc_peak_secs.get()), at)
    }

    /// Slack available for computation within the deadline, after I/O and
    /// `ack_overhead` (extra control transactions per frame) are paid.
    pub(crate) fn proc_slack(&self, sys: &SystemConfig, ack_overhead: SimTime) -> SimTime {
        sys.frame_delay
            .saturating_sub(self.recv_time(&sys.serial))
            .saturating_sub(self.send_time(&sys.serial))
            .saturating_sub(ack_overhead)
    }

    /// The minimum clock frequency that fits PROC into the slack;
    /// infinite when there is no slack at all.
    pub(crate) fn required_mhz(&self, sys: &SystemConfig, ack_overhead: SimTime) -> Hertz {
        let slack = self.proc_slack(sys, ack_overhead).as_secs_f64();
        if slack <= 0.0 {
            return Hertz::from_mhz(f64::INFINITY);
        }
        sys.dvs.highest().freq_mhz * self.proc_peak_secs.get() / slack
    }

    /// The slowest DVS level that meets the deadline, if any.
    pub(crate) fn min_feasible_level(
        &self,
        sys: &SystemConfig,
        ack_overhead: SimTime,
    ) -> Option<FreqLevel> {
        let required = self.required_mhz(sys, ack_overhead);
        if !required.is_finite() {
            return None;
        }
        sys.dvs.min_level_at_least(required)
    }

    /// Total communication payload per frame, bytes (Fig. 8 column).
    pub(crate) fn comm_payload_bytes(&self) -> u64 {
        self.recv_bytes + self.send_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemConfig {
        SystemConfig::paper()
    }

    #[test]
    fn baseline_share_reproduces_section_5_1() {
        let sys = sys();
        let share = NodeShare::from_profile(&sys.profile, BlockRange::full());
        // §5.1: 1.1 s to receive, 1.1 s PROC, 0.1 s to send, D = 2.3 s.
        assert!((share.recv_time(&sys.serial).as_secs_f64() - 1.1).abs() < 0.05);
        assert!((share.proc_peak_secs.get() - 1.1).abs() < 1e-9);
        assert!((share.send_time(&sys.serial).as_secs_f64() - 0.1).abs() < 0.02);
        // Exactly fits at the peak level.
        let level = share.min_feasible_level(&sys, SimTime::ZERO);
        assert_eq!(level.expect("feasible").freq_mhz.mhz(), 206.4);
    }

    #[test]
    fn scheme1_levels_match_fig8() {
        let sys = sys();
        let node1 = NodeShare::from_profile(&sys.profile, BlockRange::new(0, 1));
        let node2 = NodeShare::from_profile(&sys.profile, BlockRange::new(1, 4));
        // Fig. 8 row 1: 59 MHz and 103.2 MHz.
        assert_eq!(
            node1
                .min_feasible_level(&sys, SimTime::ZERO)
                .unwrap()
                .freq_mhz
                .mhz(),
            59.0
        );
        assert_eq!(
            node2
                .min_feasible_level(&sys, SimTime::ZERO)
                .unwrap()
                .freq_mhz
                .mhz(),
            103.2
        );
    }

    #[test]
    fn scheme3_node1_is_infeasible_at_about_380mhz() {
        let sys = sys();
        let node1 = NodeShare::from_profile(&sys.profile, BlockRange::new(0, 3));
        let required = node1.required_mhz(&sys, SimTime::ZERO).mhz();
        // Fig. 8: "> 206.4" — the paper's text says 380 MHz.
        assert!(required > 206.4);
        assert!((required - 380.0).abs() < 25.0, "required {required}");
        assert!(node1.min_feasible_level(&sys, SimTime::ZERO).is_none());
    }

    #[test]
    fn payloads_match_fig8() {
        let sys = sys();
        let kb = |b: u64| b as f64 / 1024.0;
        let n1 = NodeShare::from_profile(&sys.profile, BlockRange::new(0, 1));
        let n2 = NodeShare::from_profile(&sys.profile, BlockRange::new(1, 4));
        assert!((kb(n1.comm_payload_bytes()) - 10.7).abs() < 0.05);
        assert!((kb(n2.comm_payload_bytes()) - 0.7).abs() < 0.05);
    }

    #[test]
    fn ack_overhead_raises_required_frequency() {
        let sys = sys();
        let share = NodeShare::from_profile(&sys.profile, BlockRange::new(1, 4));
        let without = share.required_mhz(&sys, SimTime::ZERO);
        let with = share.required_mhz(&sys, SimTime::from_millis(300));
        assert!(with > without);
    }

    /// Payload direction: every block shrinks or grows the data exactly as
    /// the profile's recv/send accounting assumes, for every partition.
    #[test]
    fn partition_payload_conservation() {
        let profile = sys().profile;
        for n in 1..=4 {
            for ranges in dles_atr::blocks::partitions(n) {
                // Adjacent stages agree on the handoff size.
                for w in ranges.windows(2) {
                    assert_eq!(
                        profile.send_bytes(w[0]),
                        profile.recv_bytes(w[1]),
                        "handoff mismatch at {:?}",
                        w
                    );
                }
                // Chain ends are the frame input and final result.
                assert_eq!(profile.recv_bytes(ranges[0]), profile.input_bytes);
                assert_eq!(
                    profile.send_bytes(*ranges.last().unwrap()),
                    profile.block(dles_atr::Block::ComputeDistance).output_bytes
                );
            }
        }
    }

    /// The profile's whole-pipeline latency at peak equals §4.3's 1.1 s and
    /// the serial model reproduces the baseline's 1.1/0.1 s I/O split.
    #[test]
    fn baseline_frame_budget_reconstructs() {
        let SystemConfig {
            profile, serial, ..
        } = sys();
        let full = BlockRange::full();
        let recv = serial.transfer_secs(profile.recv_bytes(full));
        let proc = profile.peak_secs(full);
        let send = serial.transfer_secs(profile.send_bytes(full));
        let total = recv + proc + send;
        assert!((recv - 1.1).abs() < 0.05, "recv {recv}");
        assert!((proc - 1.1).abs() < 1e-9, "proc {proc}");
        assert!((send - 0.1).abs() < 0.02, "send {send}");
        // §5.1: "the total time to process one frame is D = 2.3 seconds".
        assert!((total - 2.3).abs() < 0.05, "total {total}");
    }

    #[test]
    fn zero_slack_is_infeasible() {
        let sys = sys();
        let share = NodeShare::from_profile(&sys.profile, BlockRange::full());
        assert_eq!(
            share.required_mhz(&sys, SimTime::from_secs(3)).mhz(),
            f64::INFINITY
        );
        assert!(share
            .min_feasible_level(&sys, SimTime::from_secs(3))
            .is_none());
    }
}
