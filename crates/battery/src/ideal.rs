//! The ideal battery: a coulomb counter.
//!
//! Delivers exactly its rated capacity regardless of rate or load shape —
//! the implicit assumption of CPU-centric DVS analyses that the paper's
//! measurements contradict. Used as the "what a naive model predicts"
//! baseline in the ablation benches.

use crate::model::{Battery, DischargeOutcome};
use dles_sim::SimTime;
use dles_units::{Hours, MilliAmpHours, MilliAmps};

/// Coulomb-counting battery with no rate or recovery effects.
#[derive(Debug, Clone)]
pub struct IdealBattery {
    capacity_mah: MilliAmpHours,
    remaining_mah: MilliAmpHours,
}

impl IdealBattery {
    /// A fresh battery of `capacity_mah`.
    pub fn new(capacity_mah: f64) -> Self {
        assert!(capacity_mah > 0.0, "capacity must be positive");
        IdealBattery {
            capacity_mah: MilliAmpHours::new(capacity_mah),
            remaining_mah: MilliAmpHours::new(capacity_mah),
        }
    }
}

impl Battery for IdealBattery {
    fn discharge(&mut self, duration: SimTime, current_ma: MilliAmps) -> DischargeOutcome {
        assert!(current_ma.get() >= 0.0, "negative discharge current");
        if self.is_exhausted() {
            return DischargeOutcome::Exhausted {
                after: SimTime::ZERO,
            };
        }
        let draw_mah = current_ma * Hours::new(duration.as_hours_f64());
        if draw_mah <= self.remaining_mah || current_ma.get() == 0.0 {
            self.remaining_mah -= draw_mah;
            DischargeOutcome::Survived
        } else {
            let hours_left = self.remaining_mah / current_ma;
            self.remaining_mah = MilliAmpHours::ZERO;
            DischargeOutcome::Exhausted {
                after: SimTime::from_hours_f64(hours_left.get()).min(duration),
            }
        }
    }

    fn is_exhausted(&self) -> bool {
        self.remaining_mah.get() <= 1e-12
    }

    fn state_of_charge(&self) -> f64 {
        (self.remaining_mah.get() / self.capacity_mah.get()).clamp(0.0, 1.0)
    }

    fn nominal_capacity_mah(&self) -> MilliAmpHours {
        self.capacity_mah
    }

    fn delivered_mah(&self) -> MilliAmpHours {
        self.capacity_mah - self.remaining_mah
    }

    fn reset(&mut self) {
        self.remaining_mah = self.capacity_mah;
    }

    fn time_to_exhaustion(&self, current_ma: MilliAmps) -> Option<SimTime> {
        assert!(current_ma.get() >= 0.0, "negative discharge current");
        if current_ma.get() == 0.0 {
            return None;
        }
        Some(SimTime::from_hours_f64(
            (self.remaining_mah / current_ma).get().max(0.0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(v: f64) -> MilliAmps {
        MilliAmps::new(v)
    }

    #[test]
    fn lifetime_is_capacity_over_current() {
        let mut b = IdealBattery::new(100.0);
        // 100 mAh at 50 mA: survives 1 h, dies 1 h into the next 2 h.
        assert_eq!(
            b.discharge(SimTime::from_secs(3600), ma(50.0)),
            DischargeOutcome::Survived
        );
        match b.discharge(SimTime::from_secs(7200), ma(50.0)) {
            DischargeOutcome::Exhausted { after } => {
                assert!((after.as_hours_f64() - 1.0).abs() < 1e-9);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert!(b.is_exhausted());
        assert!((b.delivered_mah().get() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rate_independence() {
        // Same total charge delivered at any current — the defining
        // (unrealistic) property of the ideal model.
        for i in [10.0, 100.0, 1000.0] {
            let mut b = IdealBattery::new(500.0);
            let mut delivered_h = 0.0;
            loop {
                match b.discharge(SimTime::from_secs(60), ma(i)) {
                    DischargeOutcome::Survived => delivered_h += 60.0 / 3600.0,
                    DischargeOutcome::Exhausted { after } => {
                        delivered_h += after.as_hours_f64();
                        break;
                    }
                }
            }
            assert!((delivered_h * i - 500.0).abs() < 1e-6, "at {i} mA");
        }
    }

    #[test]
    fn zero_current_is_free() {
        let mut b = IdealBattery::new(10.0);
        assert_eq!(
            b.discharge(SimTime::from_secs(1_000_000), ma(0.0)),
            DischargeOutcome::Survived
        );
        assert_eq!(b.state_of_charge(), 1.0);
    }

    #[test]
    fn exhausted_battery_reports_immediately() {
        let mut b = IdealBattery::new(1.0);
        b.discharge(SimTime::from_secs(36_000), ma(100.0));
        assert!(b.is_exhausted());
        assert_eq!(
            b.discharge(SimTime::from_secs(1), ma(5.0)),
            DischargeOutcome::Exhausted {
                after: SimTime::ZERO
            }
        );
    }

    #[test]
    fn reset_restores_full() {
        let mut b = IdealBattery::new(10.0);
        b.discharge(SimTime::from_secs(3600), ma(5.0));
        b.reset();
        assert_eq!(b.state_of_charge(), 1.0);
        assert_eq!(b.delivered_mah(), MilliAmpHours::ZERO);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = IdealBattery::new(0.0);
    }
}
