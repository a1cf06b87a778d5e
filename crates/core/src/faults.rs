//! Seeded fault injection for the pipeline simulation.
//!
//! The recovery protocol of §5.4 only earns its cost when transfers can
//! actually be lost. This module defines the environment's misbehavior:
//! serial bit errors (judged against the PPP framing in `dles-net`),
//! dropped and delayed transactions, transient node brownouts (offline for
//! a bounded interval, distinct from battery death), and per-node battery
//! capacity / initial-charge variance.
//!
//! Everything draws from [`dles_sim::SimRng`] streams forked from a single
//! plan seed, so a trial is a pure function of `(config, FaultPlan)` —
//! which is what lets the Monte Carlo driver in [`crate::montecarlo`]
//! shard trials across threads without changing any result.
// A panic mid-dispatch leaves a half-applied world state; the few
// protocol invariants that may panic carry an `#[expect]` with a reason.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use dles_sim::{SimRng, SimTime};

/// Knobs of one fault environment. All probabilities are per transfer
/// unless stated otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Per-wire-bit error probability on every serial transfer. The chance
    /// a transfer is hit is `1 − (1 − ber)^bits`; a hit flips 1–3 random
    /// wire bits of the transfer's PPP frame, and the framing catches it
    /// unless the flips undo each other (the flip-parity rule of
    /// `dles_net::fault`, which the codec's tests prove).
    pub bit_error_rate: f64,
    /// Probability a transfer is dropped outright (receiver never sees it).
    pub drop_prob: f64,
    /// Probability a transfer is delayed by up to [`Self::delay_max`].
    pub delay_prob: f64,
    /// Maximum extra latency added to a delayed transfer.
    pub delay_max: SimTime,
    /// Mean interval between brownouts per node; `SimTime::ZERO` disables
    /// brownouts. Actual intervals are uniform in `[0.5, 1.5] × mean`.
    pub brownout_mean_interval: SimTime,
    /// How long a browned-out node stays offline.
    pub brownout_duration: SimTime,
    /// Relative standard deviation of per-node battery capacity
    /// (manufacturing variance), clamped to ±40 %.
    pub capacity_std_frac: f64,
    /// Maximum relative initial-charge deficit per node, uniform in
    /// `[0, charge_spread_frac]` (modelled as a capacity reduction).
    pub charge_spread_frac: f64,
}

impl FaultProfile {
    /// No faults at all (the seed behavior).
    pub const fn none() -> Self {
        FaultProfile {
            bit_error_rate: 0.0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_max: SimTime::ZERO,
            brownout_mean_interval: SimTime::ZERO,
            brownout_duration: SimTime::ZERO,
            capacity_std_frac: 0.0,
            charge_spread_frac: 0.0,
        }
    }

    /// A lossy serial link: bit errors, drops, and delays, healthy nodes.
    pub const fn lossy_link() -> Self {
        FaultProfile {
            bit_error_rate: 1e-6,
            drop_prob: 0.03,
            delay_prob: 0.05,
            delay_max: SimTime::from_millis(150),
            ..FaultProfile::none()
        }
    }

    /// Healthy links, flaky power: periodic transient brownouts.
    pub(crate) const fn brownout() -> Self {
        FaultProfile {
            brownout_mean_interval: SimTime::from_secs(600),
            brownout_duration: SimTime::from_secs(5),
            ..FaultProfile::none()
        }
    }

    /// Per-node battery variance only (manufacturing + state-of-charge).
    const fn battery_variance() -> Self {
        FaultProfile {
            capacity_std_frac: 0.05,
            charge_spread_frac: 0.05,
            ..FaultProfile::none()
        }
    }

    /// Everything at once.
    pub(crate) const fn harsh() -> Self {
        FaultProfile {
            brownout_mean_interval: SimTime::from_secs(900),
            brownout_duration: SimTime::from_secs(5),
            capacity_std_frac: 0.05,
            charge_spread_frac: 0.05,
            ..FaultProfile::lossy_link()
        }
    }

    /// The named profiles of the `repro --faults NAME` CLI.
    pub const PRESETS: [(&'static str, FaultProfile); 5] = [
        ("none", Self::none()),
        ("lossy", Self::lossy_link()),
        ("brownout", Self::brownout()),
        ("battery", Self::battery_variance()),
        ("harsh", Self::harsh()),
    ];

    /// Look up one of the [`Self::PRESETS`] by name, ignoring ASCII case.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::PRESETS
            .into_iter()
            .find(|(preset, _)| preset.eq_ignore_ascii_case(name))
            .map(|(_, profile)| profile)
    }

    /// Whether any link-level fault can occur.
    pub fn has_link_faults(&self) -> bool {
        self.bit_error_rate > 0.0 || self.drop_prob > 0.0 || self.delay_prob > 0.0
    }

    /// Whether brownouts are enabled.
    pub(crate) fn has_brownouts(&self) -> bool {
        self.brownout_mean_interval > SimTime::ZERO && self.brownout_duration > SimTime::ZERO
    }
}

/// A fault environment bound to a seed: the complete description of one
/// trial's misbehavior.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub profile: FaultProfile,
    pub seed: u64,
}

impl FaultPlan {
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultPlan { profile, seed }
    }
}

/// What the fault layer decided to do to one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The receiver never sees the transfer.
    Dropped,
    /// Bit errors the PPP framing detects (by the flip-parity rule of
    /// `dles_net::fault`); the payload is discarded at the receiver.
    /// `flipped_bits` records how many wire bits flipped.
    Corrupted { flipped_bits: u32 },
    /// The transfer arrives late by the carried extra duration.
    Delayed(SimTime),
}

/// Live per-run fault state: the RNG streams and brownout bookkeeping.
/// Owned by the pipeline world; all draws happen in deterministic event
/// order within a single trial.
pub struct FaultState {
    pub profile: FaultProfile,
    /// Stream for link-fault decisions (drop/corrupt/delay + bit flips).
    link_rng: SimRng,
    /// Stream for brownout interval scheduling.
    brownout_rng: SimRng,
    /// Per node: offline until this instant (ZERO = online).
    pub offline_until: Vec<SimTime>,
}

impl FaultState {
    /// Build from a plan; `n` is the node count.
    pub fn new(plan: &FaultPlan, n: usize) -> Self {
        let root = SimRng::seed_from_u64(plan.seed);
        FaultState {
            profile: plan.profile,
            link_rng: root.fork(1),
            brownout_rng: root.fork(2),
            offline_until: vec![SimTime::ZERO; n],
        }
    }

    /// Per-node battery scale factors (capacity variance × initial-charge
    /// deficit), drawn from a stream independent of the event order.
    pub fn battery_scales(plan: &FaultPlan, n: usize) -> Vec<f64> {
        let root = SimRng::seed_from_u64(plan.seed);
        (0..n)
            .map(|i| {
                let mut rng = root.fork(0xBA77_0000 + i as u64);
                let cap = if plan.profile.capacity_std_frac > 0.0 {
                    (1.0 + plan.profile.capacity_std_frac * rng.standard_normal()).clamp(0.6, 1.4)
                } else {
                    1.0
                };
                let charge = if plan.profile.charge_spread_frac > 0.0 {
                    1.0 - rng.uniform_f64(0.0, plan.profile.charge_spread_frac)
                } else {
                    1.0
                };
                cap * charge
            })
            .collect()
    }

    /// Decide the fate of one serial transfer of `bytes` payload bytes for
    /// `frame`. Precedence: drop > bit errors > delay; one category per
    /// transfer. A bit-error hit flips 1–3 wire bits of the PPP frame; by
    /// the flip-parity rule of `dles_net::fault`, which the codec's tests
    /// prove, the frame decodes intact only if two flips hit the same bit,
    /// and then the transfer survives unharmed.
    pub fn draw_transfer_fault(&mut self, bytes: u64, frame: u64) -> Option<LinkFault> {
        let p = self.profile;
        if p.drop_prob > 0.0 && self.link_rng.chance(p.drop_prob) {
            return Some(LinkFault::Dropped);
        }
        if p.bit_error_rate > 0.0 {
            // PPP adds 2 FCS bytes + 2 flags; stuffing overhead is payload
            // dependent and second-order for the hit probability.
            let wire_bits = 8.0 * (bytes as f64 + 4.0);
            let p_hit = 1.0 - (1.0 - p.bit_error_rate).powf(wire_bits);
            if self.link_rng.chance(p_hit) {
                let flips = self.link_rng.uniform_u64(1, 3) as u32;
                if dles_net::fault::frame_corrupted_by_flips(
                    bytes,
                    frame,
                    flips,
                    &mut self.link_rng,
                ) {
                    return Some(LinkFault::Corrupted {
                        flipped_bits: flips,
                    });
                }
                // The framing provably survived these flips.
            }
        }
        if p.delay_prob > 0.0 && self.link_rng.chance(p.delay_prob) {
            let extra = self.link_rng.uniform_u64(0, p.delay_max.as_micros());
            if extra > 0 {
                return Some(LinkFault::Delayed(SimTime::from_micros(extra)));
            }
        }
        None
    }

    /// The next brownout arrival interval: uniform in `[0.5, 1.5] × mean`.
    pub(crate) fn next_brownout_interval(&mut self) -> SimTime {
        let mean = self.profile.brownout_mean_interval.as_micros();
        SimTime::from_micros(self.brownout_rng.uniform_u64(mean / 2, mean + mean / 2))
    }

    /// Whether `node` is browned out at `now`.
    pub(crate) fn is_offline(&self, node: usize, now: SimTime) -> bool {
        self.offline_until[node] > now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_resolve() {
        for (name, profile) in FaultProfile::PRESETS {
            assert_eq!(FaultProfile::by_name(name), Some(profile), "profile {name}");
        }
        assert!(FaultProfile::by_name("LOSSY").is_some(), "case-insensitive");
        assert!(FaultProfile::by_name("bogus").is_none());
        assert!(FaultProfile::harsh().has_brownouts());
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let plan = FaultPlan::new(FaultProfile::lossy_link(), 77);
        let mut a = FaultState::new(&plan, 2);
        let mut b = FaultState::new(&plan, 2);
        for i in 0..200 {
            assert_eq!(
                a.draw_transfer_fault(1000, i),
                b.draw_transfer_fault(1000, i)
            );
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(
            FaultProfile {
                drop_prob: 0.25,
                ..FaultProfile::none()
            },
            3,
        );
        let mut fs = FaultState::new(&plan, 1);
        let drops = (0..4000)
            .filter(|&i| fs.draw_transfer_fault(100, i) == Some(LinkFault::Dropped))
            .count();
        let rate = drops as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn bit_errors_corrupt_large_transfers() {
        // BER high enough that a 10 KB transfer is almost surely hit.
        let plan = FaultPlan::new(
            FaultProfile {
                bit_error_rate: 1e-3,
                ..FaultProfile::none()
            },
            9,
        );
        let mut fs = FaultState::new(&plan, 1);
        let corrupted = (0..100)
            .filter(|&i| {
                matches!(
                    fs.draw_transfer_fault(10_342, i),
                    Some(LinkFault::Corrupted { .. })
                )
            })
            .count();
        assert!(corrupted > 90, "corrupted {corrupted}/100");
    }

    #[test]
    fn battery_scales_stay_positive_and_deterministic() {
        let plan = FaultPlan::new(FaultProfile::harsh(), 5);
        let a = FaultState::battery_scales(&plan, 4);
        let b = FaultState::battery_scales(&plan, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s > 0.5 && s <= 1.4));
        // Variance actually present: not all identical.
        assert!(a.iter().any(|&s| (s - a[0]).abs() > 1e-9) || a[0] != 1.0);
    }

    #[test]
    fn brownout_intervals_bracket_the_mean() {
        let plan = FaultPlan::new(FaultProfile::brownout(), 11);
        let mut fs = FaultState::new(&plan, 2);
        for _ in 0..100 {
            let iv = fs.next_brownout_interval().as_secs_f64();
            assert!((300.0..=900.0).contains(&iv), "interval {iv}");
        }
    }
}
