//! Calibrated parameter sets for the Itsy's 4 V lithium-ion pack.
//!
//! The paper itself warns (§6.1) that the no-I/O experiments (0A)/(0B)
//! "are not to be compared with other experiments": their implied charge
//! delivery is inconsistent with the pipelined series under any single
//! battery state (different packs, cycle ageing, temperature). We therefore
//! keep **two** parameter sets:
//!
//! * **pack A** — fits the no-I/O anchors (0A: 3.4 h at full-speed
//!   computation; 0B: 12.9 h at half speed), exhibiting the strong
//!   rate-capacity fade those two points imply;
//! * **pack B** — fits the I/O-bound series anchored on the baseline
//!   (1: 6.13 h) and partitioned (2: 14.1 h) experiments.
//!
//! The constants below were produced by [`calibrate_kibam`](crate::calibrate_kibam):
//! `dles-bench`'s `calibrate_packs` binary re-runs the fit and prints its
//! residuals, and `repro --calibrate` prints the constants themselves.
//! `tests/experiments_integration.rs` (`calibrated_anchors_match_paper_lifetimes`)
//! checks them against the anchors.

use crate::kibam::{KibamBattery, KibamParams};
use dles_units::MilliAmpHours;

/// A named, calibrated battery parameter set.
#[derive(Debug, Clone, Copy)]
pub struct PackParams {
    pub name: &'static str,
    pub kibam: KibamParams,
}

/// Pack A: the battery state of the no-I/O experiments (0A)/(0B).
///
/// A tiny available well with a fast valve: sustained delivery is limited
/// by the valve's steady-state flow, producing the strong rate-capacity
/// fade the 0A/0B pair implies (fit residuals: 0A 3.42 h vs 3.4 h
/// measured; 0B 12.61 h vs 12.9 h).
pub fn itsy_pack_a() -> PackParams {
    PackParams {
        name: "itsy-pack-A",
        kibam: KibamParams {
            capacity_mah: MilliAmpHours::new(992.7),
            c: 0.039_43,
            k: 5.773,
        },
    }
}

/// Pack B: the battery state of the I/O-bound pipelined series (1…2C).
///
/// Milder rate-capacity fade and a slower valve (τ ≈ 6 h), fit to the
/// baseline, partitioning and rotation anchors (residuals: exp 1 — 5.95 h
/// vs 6.13 h; exp 2 — 14.02 h vs 14.1 h; exp 2C — 17.44 h vs 17.82 h; the
/// 1A anchor is deliberately down-weighted, see `calibrate_packs`).
pub fn itsy_pack_b() -> PackParams {
    PackParams {
        name: "itsy-pack-B",
        kibam: KibamParams {
            capacity_mah: MilliAmpHours::new(963.2),
            c: 0.641_2,
            k: 0.167_2,
        },
    }
}

impl PackParams {
    /// A fresh battery with these parameters.
    pub fn fresh(&self) -> KibamBattery {
        KibamBattery::from_params(self.kibam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Battery;

    #[test]
    fn packs_construct_valid_batteries() {
        for pack in [itsy_pack_a(), itsy_pack_b()] {
            let b = pack.fresh();
            assert!(!b.is_exhausted());
            assert!(pack.kibam.c > 0.0 && pack.kibam.c < 1.0);
        }
    }

    #[test]
    fn pack_a_shows_strong_rate_capacity_fade() {
        use crate::model::Battery;
        use crate::profile::{simulate_lifetime, LoadProfile};
        let mut fast = itsy_pack_a().fresh();
        let fast_life = simulate_lifetime(&mut fast, &LoadProfile::constant(130.0));
        let mut slow = itsy_pack_a().fresh();
        let slow_life = simulate_lifetime(&mut slow, &LoadProfile::constant(59.0));
        // 0B delivered ~1.6× the charge of 0A in the paper.
        let ratio = slow_life.delivered_mah / fast_life.delivered_mah;
        assert!(ratio > 1.3, "charge ratio {ratio}");
        let _ = fast.delivered_mah();
    }
}
