//! The [`Battery`] trait: what the node simulator needs from a battery.

use dles_sim::SimTime;
use dles_units::{MilliAmpHours, MilliAmps, StateOfCharge};

/// Result of asking a battery to sustain a constant current for a duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DischargeOutcome {
    /// The battery survived the whole segment.
    Survived,
    /// The battery was exhausted `after` into the segment (`after` ≤ the
    /// requested duration). The node powering from it dies at that instant.
    Exhausted { after: SimTime },
}

impl DischargeOutcome {
    pub fn is_exhausted(&self) -> bool {
        matches!(self, DischargeOutcome::Exhausted { .. })
    }
}

/// A battery that can be discharged by piecewise-constant currents.
///
/// All implementations are deterministic and support *rests* (zero or low
/// current segments); whether a rest recovers capacity depends on the model.
pub trait Battery {
    /// Draw `current_ma` for `duration`. If the battery dies mid-segment,
    /// the internal state is left exactly at the point of death and the
    /// offset is reported; subsequent calls keep reporting exhaustion at
    /// offset zero.
    fn discharge(&mut self, duration: SimTime, current_ma: MilliAmps) -> DischargeOutcome;

    /// `true` once the battery can no longer deliver current.
    fn is_exhausted(&self) -> bool;

    /// Remaining fraction of *nominally extractable* charge in `[0, 1]`.
    ///
    /// For the two-well model this is total stored charge over nominal
    /// capacity — it can be positive at death (bound charge that could not
    /// be extracted fast enough: the paper's "loss of battery capacities").
    fn state_of_charge(&self) -> f64;

    /// [`Battery::state_of_charge`] as a typed quantity — the SoC
    /// estimator the adaptive scheduling policies observe. It reads the
    /// model state settled at the last discharge segment (an estimate, not
    /// an oracle: a node mid-segment reports the SoC at its last
    /// transition), which keeps policy decisions a pure function of the
    /// event history.
    fn soc_estimate(&self) -> StateOfCharge {
        StateOfCharge::new(self.state_of_charge())
    }

    /// Nominal (rated, low-rate) capacity.
    fn nominal_capacity_mah(&self) -> MilliAmpHours;

    /// Total charge actually delivered so far.
    fn delivered_mah(&self) -> MilliAmpHours;

    /// Restore the battery to full (a fresh pack of the same parameters).
    fn reset(&mut self);

    /// How long the battery could sustain a constant `current_ma` from its
    /// current state before exhaustion. `None` means "indefinitely"
    /// (zero current). Must be consistent with [`Battery::discharge`]:
    /// discharging for strictly less than this duration survives.
    /// The answer is the death time rounded to the nearest microsecond
    /// (`SimTime`'s resolution), so the battery can die up to half a
    /// microsecond before or after it.
    ///
    /// The simulator uses this to schedule a node's death *proactively*,
    /// so exhaustion never has to be discovered retroactively: near death
    /// it re-arms the death event with this on every change of draw, and
    /// further out it waits on [`Battery::death_lower_bound`].
    fn time_to_exhaustion(&self, current_ma: MilliAmps) -> Option<SimTime>;

    /// A span from the present state that the battery outlives under
    /// *any* load of at most `i_max`, however it varies. `None`, the
    /// default, means the model proves no such bound, so the simulator
    /// re-arms the exact [`Battery::time_to_exhaustion`] on every change
    /// of draw.
    fn death_lower_bound(&self, _i_max: MilliAmps) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicate() {
        assert!(!DischargeOutcome::Survived.is_exhausted());
        assert!(DischargeOutcome::Exhausted {
            after: SimTime::ZERO
        }
        .is_exhausted());
    }

    #[test]
    fn soc_estimate_wraps_state_of_charge() {
        let mut b = crate::IdealBattery::new(10.0);
        assert_eq!(b.soc_estimate().get(), 1.0);
        b.discharge(SimTime::from_secs(3600), MilliAmps::new(5.0));
        assert_eq!(b.soc_estimate().get(), b.state_of_charge());
        assert_eq!(b.soc_estimate(), StateOfCharge::new(0.5));
    }
}
