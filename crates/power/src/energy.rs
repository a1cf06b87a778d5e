//! Per-mode energy bookkeeping.
//!
//! The paper's analysis repeatedly splits a node's energy between
//! computation, communication, and idle (e.g. §4.4: "I/O energy becomes a
//! primary target to optimize in addition to DVS on computation").
//! [`EnergyAccount`] attributes each discharge segment to its mode so
//! reports can print that split.

use crate::current::Mode;
use crate::sa1100::BATTERY_VOLTS;
use dles_sim::SimTime;
use dles_units::{Joules, MilliAmps, Seconds};

/// Energy attributed to each of the three modes.
#[derive(Debug, Clone, Default)]
pub struct EnergyAccount {
    /// Energy per mode, indexed [idle, communication, computation].
    energy_j: [Joules; 3],
}

impl EnergyAccount {
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(mode: Mode) -> usize {
        match mode {
            Mode::Idle => 0,
            Mode::Communication => 1,
            Mode::Computation => 2,
        }
    }

    /// Attribute a segment of `duration` at `current_ma` to `mode`.
    pub fn add(&mut self, mode: Mode, duration: SimTime, current_ma: MilliAmps) {
        let secs = Seconds::new(duration.as_secs_f64());
        let watts = current_ma.to_amps() * BATTERY_VOLTS;
        self.energy_j[Self::idx(mode)] += watts * secs;
    }

    /// Energy consumed in `mode`.
    pub fn energy_j(&self, mode: Mode) -> Joules {
        self.energy_j[Self::idx(mode)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_and_totals() {
        let mut a = EnergyAccount::new();
        a.add(
            Mode::Computation,
            SimTime::from_secs_f64(1.1),
            MilliAmps::new(130.0),
        );
        a.add(
            Mode::Communication,
            SimTime::from_secs_f64(1.2),
            MilliAmps::new(110.0),
        );
        a.add(
            Mode::Communication,
            SimTime::from_secs_f64(0.5),
            MilliAmps::new(110.0),
        );
        let e_comp = 0.130 * 4.0 * 1.1;
        let e_comm = 0.110 * 4.0 * 1.7;
        assert!((a.energy_j(Mode::Computation).get() - e_comp).abs() < 1e-12);
        assert!((a.energy_j(Mode::Communication).get() - e_comm).abs() < 1e-12);
        assert_eq!(a.energy_j(Mode::Idle), Joules::ZERO);
    }
}
