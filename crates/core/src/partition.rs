//! Partitioning analysis: the machinery behind Fig. 8 (§5.3).
//!
//! For every way to split the ATR chain across `n` nodes, compute each
//! node's required clock rate and communication payload, determine
//! feasibility under the frame deadline, and rank the feasible schemes by
//! the CMOS power proxy `Σ f·V²` of their chosen levels. The paper's
//! conclusion — scheme 1, with nodes at 59 and 103.2 MHz, is "clearly the
//! best among all three solutions" — falls out of this analysis.

use crate::workload::{NodeShare, SystemConfig};
use dles_atr::blocks::{partitions, BlockRange};
use dles_power::FreqLevel;
use dles_sim::SimTime;
use dles_units::Hertz;

/// Analysis of one candidate partitioning.
#[derive(Debug, Clone)]
pub struct PartitionAnalysis {
    /// Each node's share, in pipeline order.
    pub shares: Vec<NodeShare>,
    /// Minimum feasible DVS level per node (`None` = cannot meet D).
    pub levels: Vec<Option<FreqLevel>>,
    /// The exact required clock per node before rounding up to a
    /// level — Fig. 8's "> 206.4" row corresponds to ~380 MHz here.
    pub required_mhz: Vec<Hertz>,
}

impl PartitionAnalysis {
    /// All nodes can meet the deadline.
    pub fn is_feasible(&self) -> bool {
        self.levels.iter().all(|l| l.is_some())
    }

    /// The CMOS power proxy of the chosen levels: `Σ f·V²`. Lower is
    /// better; infeasible partitions rank as infinity.
    pub fn power_proxy(&self) -> f64 {
        if !self.is_feasible() {
            return f64::INFINITY;
        }
        self.levels
            .iter()
            .map(|l| l.expect("feasible").switching_activity())
            .sum()
    }

    /// Total cross-link payload per frame, bytes (internal + external).
    pub(crate) fn total_comm_payload(&self) -> u64 {
        self.shares.iter().map(|s| s.comm_payload_bytes()).sum()
    }
}

/// Analyze one partitioning under `sys`, with no control traffic beyond
/// the data transfers (the §5.3 analysis; a recovery migration costs its
/// acks into the merged share's level itself).
pub fn analyze_partition(sys: &SystemConfig, ranges: &[BlockRange]) -> PartitionAnalysis {
    assert!(!ranges.is_empty(), "empty partition");
    let shares: Vec<NodeShare> = ranges
        .iter()
        .map(|&r| NodeShare::from_profile(&sys.profile, r))
        .collect();
    let levels = shares
        .iter()
        .map(|s| s.min_feasible_level(sys, SimTime::ZERO))
        .collect();
    let required_mhz = shares
        .iter()
        .map(|s| s.required_mhz(sys, SimTime::ZERO))
        .collect();
    PartitionAnalysis {
        shares,
        levels,
        required_mhz,
    }
}

/// The three 2-node schemes of Fig. 8, analyzed, in the figure's order.
pub(crate) fn fig8_schemes(sys: &SystemConfig) -> Vec<PartitionAnalysis> {
    partitions(2)
        .iter()
        .map(|ranges| analyze_partition(sys, ranges))
        .collect()
}

/// The best feasible partitioning over `n_nodes` (lowest power proxy;
/// ties broken toward less communication). `None` when nothing is
/// feasible — which the paper warns happens under excessive internal
/// communication (§5.3).
pub fn best_partition(sys: &SystemConfig, n_nodes: usize) -> Option<PartitionAnalysis> {
    partitions(n_nodes)
        .iter()
        .map(|ranges| analyze_partition(sys, ranges))
        .filter(PartitionAnalysis::is_feasible)
        .min_by(|a, b| {
            rank_order(
                (a.power_proxy(), a.total_comm_payload()),
                (b.power_proxy(), b.total_comm_payload()),
            )
        })
}

/// Deterministic preference between two `(power proxy, comm payload)`
/// keys: lower proxy wins, ties break toward less communication.
/// `total_cmp` keeps the order total even for a NaN proxy — NaN ranks
/// last (worst), so a degenerate candidate can never panic the search
/// or, worse, win it.
fn rank_order(a: (f64, u64), b: (f64, u64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemConfig {
        SystemConfig::paper()
    }

    #[test]
    fn rank_order_is_total_under_nan_proxies() {
        use std::cmp::Ordering;
        // Before total_cmp a NaN power proxy panicked best_partition; now it must
        // rank strictly worse than any finite or infinite proxy.
        assert_eq!(rank_order((f64::NAN, 0), (1.0, 9)), Ordering::Greater);
        assert_eq!(rank_order((1.0, 9), (f64::NAN, 0)), Ordering::Less);
        assert_eq!(
            rank_order((f64::INFINITY, 0), (f64::NAN, 0)),
            Ordering::Less
        );
        // Equal proxies: fewer communicated bytes win.
        assert_eq!(rank_order((2.0, 10), (2.0, 20)), Ordering::Less);
        // NaN vs NaN is still deterministic (Equal), never a panic.
        assert_eq!(rank_order((f64::NAN, 3), (f64::NAN, 3)), Ordering::Equal);
    }

    #[test]
    fn fig8_has_three_schemes_with_correct_feasibility() {
        let schemes = fig8_schemes(&sys());
        assert_eq!(schemes.len(), 3);
        assert!(schemes[0].is_feasible(), "scheme 1 must be feasible");
        assert!(
            !schemes[2].is_feasible(),
            "scheme 3 must be infeasible (Node1 needs ~380 MHz)"
        );
    }

    #[test]
    fn scheme1_is_the_best_partition() {
        let s = sys();
        let best = best_partition(&s, 2).expect("a feasible 2-node partition exists");
        // The winner is (Target Detect.)(FFT+IFFT+Comp. Distance) at
        // 59 / 103.2 MHz — Fig. 8 row 1.
        assert_eq!(best.shares[0].range, BlockRange::new(0, 1));
        assert_eq!(best.shares[1].range, BlockRange::new(1, 4));
        let levels: Vec<f64> = best
            .levels
            .iter()
            .map(|l| l.unwrap().freq_mhz.mhz())
            .collect();
        assert_eq!(levels, vec![59.0, 103.2]);
    }

    #[test]
    fn single_node_partition_is_the_baseline() {
        let s = sys();
        let best = best_partition(&s, 1).expect("baseline feasible");
        assert_eq!(best.shares.len(), 1);
        assert_eq!(
            best.levels[0].unwrap().freq_mhz.mhz(),
            206.4,
            "the whole algorithm only fits at the peak clock"
        );
    }

    #[test]
    fn power_proxy_ranks_scheme1_below_scheme2() {
        let schemes = fig8_schemes(&sys());
        assert!(
            schemes[0].power_proxy() < schemes[1].power_proxy(),
            "scheme 1 ({}) should beat scheme 2 ({})",
            schemes[0].power_proxy(),
            schemes[1].power_proxy()
        );
        assert_eq!(schemes[2].power_proxy(), f64::INFINITY);
    }

    #[test]
    fn node1_dominates_communication_in_scheme1() {
        // §5.3: Node1 "takes more than 90% of the total communication
        // payload in addition to its 10% share of the total computation".
        let schemes = fig8_schemes(&sys());
        let s1 = &schemes[0];
        let n1_comm = s1.shares[0].comm_payload_bytes() as f64;
        let total = s1.total_comm_payload() as f64;
        assert!(n1_comm / total > 0.9, "Node1 share {}", n1_comm / total);
        let n1_comp = s1.shares[0].proc_peak_secs.get();
        let total_comp: f64 = s1.shares.iter().map(|s| s.proc_peak_secs.get()).sum();
        assert!((n1_comp / total_comp - 0.15).abs() < 0.1);
    }

    #[test]
    fn ack_overhead_forces_faster_levels() {
        // §5.4 / §6.6: with recovery's control messages both nodes must run
        // faster than the 59/103.2 of plain partitioning.
        let s = sys();
        let ranges = [BlockRange::new(0, 1), BlockRange::new(1, 4)];
        let plain = analyze_partition(&s, &ranges);
        let with_acks: Vec<FreqLevel> = plain
            .shares
            .iter()
            .map(|share| {
                share
                    .min_feasible_level(&s, SimTime::from_millis(450))
                    .unwrap()
            })
            .collect();
        for (p, a) in plain.levels.iter().zip(&with_acks) {
            assert!(a.freq_mhz >= p.unwrap().freq_mhz);
        }
        assert!(
            with_acks[1].freq_mhz > plain.levels[1].unwrap().freq_mhz,
            "Node2 must be forced up"
        );
    }

    #[test]
    fn four_node_partition_feasibility() {
        // With 4 nodes every node runs one block; internal 7.5 KB payloads
        // make middle nodes I/O-heavy, but the configuration remains
        // feasible under D = 2.3 s.
        let s = sys();
        let best = best_partition(&s, 4);
        assert!(best.is_some());
        let best = best.unwrap();
        assert_eq!(best.shares.len(), 4);
        // Every node at or below the scheme-1 Node2 level's successor —
        // distributed DVS opportunity widens with more nodes.
        for l in &best.levels {
            assert!(l.unwrap().freq_mhz.mhz() <= 118.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty partition")]
    fn empty_partition_rejected() {
        let _ = analyze_partition(&sys(), &[]);
    }
}
