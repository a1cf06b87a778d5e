//! Scheduling policies: which operating point a node uses in each mode,
//! and — for the adaptive variants — when the ring rotates.
//!
//! §5.2: with the workload tightly constrained there is little room for
//! DVS on computation, but the long serial transactions can run at the
//! slowest level — "I/O can operate at a significantly low-power level at
//! the slowest frequency of 59 MHz" — without lengthening them, because
//! communication latency is frequency-independent (§6.3).
//!
//! The paper's rotation (§5.5/§6.7) uses a *fixed* period of 100 frames.
//! [`SchedulingPolicy`] generalizes that: adaptive variants observe the
//! per-node state-of-charge estimates
//! (`SimNode::soc_estimate`) and decide online when the
//! next rotation wave should launch. The `Static` variant defers entirely
//! to the configured [`DvsPolicy`] and the rotation period of
//! [`crate::pipeline::Technique::Rotation`], reproducing the paper's
//! behaviour byte-for-byte. Each adaptive variant has one fixed setting,
//! the constants below.

use dles_power::{DvsTable, FreqLevel, Mode};
use dles_units::StateOfCharge;

/// A node's DVS policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DvsPolicy {
    /// Run every mode at the node's base level (the baseline behaviour).
    FixedLevel,
    /// Drop to the table's lowest level during communication and idle
    /// periods; compute at the base level (§5.2, experiments 1A/2A/2C).
    DvsDuringIo,
}

impl DvsPolicy {
    /// The level used for `mode` given the node's base level.
    pub fn level_for(self, mode: Mode, base: FreqLevel, table: &DvsTable) -> FreqLevel {
        match (self, mode) {
            (DvsPolicy::FixedLevel, _) => base,
            (DvsPolicy::DvsDuringIo, Mode::Computation) => base,
            (DvsPolicy::DvsDuringIo, Mode::Communication | Mode::Idle) => table.lowest(),
        }
    }
}

/// `soc-skew`: the max–min spread of the alive nodes' SoC estimates that
/// launches a wave. The tail node drains ~3e-5 SoC per frame faster than
/// the head under EXP-2C currents, so 1e-4 rotates every few frames.
pub(crate) const SOC_SKEW_THRESHOLD: StateOfCharge = StateOfCharge::new(1e-4);

/// `soc-skew`: the least gap between two waves, in frames.
pub(crate) const SOC_SKEW_MIN_GAP_FRAMES: u64 = 1;

/// `adaptive`: the skew the period controller steers toward at each wave.
pub(crate) const ADAPTIVE_TARGET_SKEW: StateOfCharge = StateOfCharge::new(1e-4);

/// `adaptive`: the floor of the adapted period, in frames.
pub(crate) const ADAPTIVE_MIN_PERIOD_FRAMES: u64 = 8;

/// `adaptive`: the ceiling of the adapted period, in frames.
pub(crate) const ADAPTIVE_MAX_PERIOD_FRAMES: u64 = 2000;

/// A battery-state-aware scheduling policy layered over the fixed
/// [`DvsPolicy`] and rotation period.
///
/// All decisions are pure functions of the simulated event history (the
/// SoC estimates are settled model state, never wall-clock or RNG), so a
/// policy cannot break the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// No adaptation: the configured `DvsPolicy` and rotation period apply
    /// verbatim. This is the paper's behaviour (1A/2A/2C, rotation-100)
    /// and must stay byte-identical to the pre-policy-engine engine.
    Static,
    /// Rotate as soon as the SoC skew reaches `SOC_SKEW_THRESHOLD` and at
    /// least `SOC_SKEW_MIN_GAP_FRAMES` frames have passed since the last
    /// wave. Communication and idle run at the lowest DVS level, as
    /// in experiment 2C.
    RotateOnSocSkew,
    /// Keep a rotation period, but halve it while the observed SoC skew at
    /// rotation time exceeds `ADAPTIVE_TARGET_SKEW` and double it while
    /// skew stays under half the target, between
    /// `ADAPTIVE_MIN_PERIOD_FRAMES` and `ADAPTIVE_MAX_PERIOD_FRAMES`: a
    /// feedback loop converging on the cheapest period that still holds
    /// the ring balanced.
    AdaptivePeriod,
}

impl SchedulingPolicy {
    /// Every policy, the paper's `Static` first.
    pub const ALL: [SchedulingPolicy; 3] = [
        SchedulingPolicy::Static,
        SchedulingPolicy::RotateOnSocSkew,
        SchedulingPolicy::AdaptivePeriod,
    ];

    /// Resolve a CLI name (one of [`Self::name`]'s spellings) to its
    /// policy.
    pub fn by_name(name: &str) -> Option<SchedulingPolicy> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The CLI spelling of this policy.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::Static => "static",
            SchedulingPolicy::RotateOnSocSkew => "soc-skew",
            SchedulingPolicy::AdaptivePeriod => "adaptive",
        }
    }

    /// `true` for the paper-exact variant that must not perturb goldens.
    pub fn is_static(&self) -> bool {
        matches!(self, SchedulingPolicy::Static)
    }

    /// The per-mode DVS rule this policy applies. `Static` defers to the
    /// experiment's configured rule; the adaptive variants always drop
    /// communication/idle to the lowest level (there is no scenario in
    /// which holding I/O at a high level helps lifetime — §6.3).
    pub fn dvs_policy(&self, configured: DvsPolicy) -> DvsPolicy {
        match self {
            SchedulingPolicy::Static => configured,
            _ => DvsPolicy::DvsDuringIo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_level_never_switches() {
        let t = DvsTable::sa1100();
        let base = t.by_freq(dles_units::Hertz::from_mhz(103.2)).unwrap();
        for mode in Mode::ALL {
            assert_eq!(
                DvsPolicy::FixedLevel
                    .level_for(mode, base, &t)
                    .freq_mhz
                    .mhz(),
                103.2
            );
        }
    }

    #[test]
    fn dvs_during_io_drops_comm_and_idle_to_59() {
        let t = DvsTable::sa1100();
        let base = t.highest();
        let p = DvsPolicy::DvsDuringIo;
        assert_eq!(
            p.level_for(Mode::Computation, base, &t).freq_mhz.mhz(),
            206.4
        );
        assert_eq!(
            p.level_for(Mode::Communication, base, &t).freq_mhz.mhz(),
            59.0
        );
        assert_eq!(p.level_for(Mode::Idle, base, &t).freq_mhz.mhz(), 59.0);
    }

    #[test]
    fn by_name_round_trips_every_cli_spelling() {
        for (name, p) in [
            ("static", SchedulingPolicy::Static),
            ("soc-skew", SchedulingPolicy::RotateOnSocSkew),
            ("adaptive", SchedulingPolicy::AdaptivePeriod),
        ] {
            assert_eq!(SchedulingPolicy::by_name(name), Some(p));
            assert_eq!(p.name(), name);
        }
        assert_eq!(SchedulingPolicy::by_name("bogus"), None);
        assert!(SchedulingPolicy::by_name("static").unwrap().is_static());
        assert!(!SchedulingPolicy::by_name("soc-skew").unwrap().is_static());
    }

    #[test]
    fn every_policy_round_trips_through_its_name() {
        for p in SchedulingPolicy::ALL {
            assert_eq!(SchedulingPolicy::by_name(p.name()), Some(p), "{p:?}");
        }
        // `ALL` lists each policy once, so every name stays reachable.
        for (i, p) in SchedulingPolicy::ALL.iter().enumerate() {
            assert!(!SchedulingPolicy::ALL[..i].contains(p), "{p:?} twice");
        }
    }

    #[test]
    fn static_defers_dvs_while_adaptive_forces_dvs_during_io() {
        let s = SchedulingPolicy::Static;
        assert_eq!(s.dvs_policy(DvsPolicy::FixedLevel), DvsPolicy::FixedLevel);
        assert_eq!(s.dvs_policy(DvsPolicy::DvsDuringIo), DvsPolicy::DvsDuringIo);
        for p in [
            SchedulingPolicy::RotateOnSocSkew,
            SchedulingPolicy::AdaptivePeriod,
        ] {
            assert_eq!(p.dvs_policy(DvsPolicy::FixedLevel), DvsPolicy::DvsDuringIo);
        }
    }

    #[test]
    fn dvs_during_io_is_identity_at_the_lowest_base() {
        // Experiment 2A observation: Node1 already runs at 59 MHz, so the
        // policy cannot reduce anything further.
        let t = DvsTable::sa1100();
        let base = t.lowest();
        let p = DvsPolicy::DvsDuringIo;
        for mode in Mode::ALL {
            assert_eq!(p.level_for(mode, base, &t).freq_mhz.mhz(), 59.0);
        }
    }
}
