//! The power-state machine of a node: (mode, DVS level) over time.
//!
//! A node is always in exactly one of the Fig. 7 modes at one DVS level; the
//! schedule of §3 (RECV → PROC → SEND, then idle until the next frame) is a
//! walk through these states. The state machine timestamps transitions and
//! exposes the resulting piecewise-constant current waveform.

use crate::current::{CurrentModel, Mode};
use crate::dvs::FreqLevel;
use dles_sim::SimTime;
use dles_units::MilliAmps;

/// Tracks the (mode, level) of one node and the current it implies.
#[derive(Debug, Clone)]
pub struct PowerState {
    model: CurrentModel,
    mode: Mode,
    level: FreqLevel,
    since: SimTime,
    transitions: u64,
}

impl PowerState {
    /// Start in `mode` at `level` at time zero.
    pub fn new(model: CurrentModel, mode: Mode, level: FreqLevel) -> Self {
        PowerState {
            model,
            mode,
            level,
            since: SimTime::ZERO,
            transitions: 0,
        }
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    pub fn level(&self) -> FreqLevel {
        self.level
    }

    /// When the present segment began: the last transition or finish.
    pub fn since(&self) -> SimTime {
        self.since
    }

    /// Number of state transitions so far (a DVS-switching-overhead proxy).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Current draw in the present state.
    pub fn current_ma(&self) -> MilliAmps {
        self.model.current_ma(self.mode, self.level)
    }

    /// Enter a new state at `now`. Returns the segment just completed:
    /// `(duration, current_ma)` — the caller feeds this to the battery and
    /// the power monitor. A zero-duration segment is returned as-is (the
    /// caller may skip it).
    pub fn transition(
        &mut self,
        now: SimTime,
        mode: Mode,
        level: FreqLevel,
    ) -> (SimTime, MilliAmps) {
        debug_assert!(now >= self.since, "power state going backwards in time");
        let seg = (now.saturating_sub(self.since), self.current_ma());
        if mode != self.mode || level.index != self.level.index {
            self.transitions += 1;
        }
        self.mode = mode;
        self.level = level;
        self.since = now;
        seg
    }

    /// Close the waveform at `now` without changing state (end of
    /// experiment). Returns the final segment.
    pub fn finish(&mut self, now: SimTime) -> (SimTime, MilliAmps) {
        let seg = (now.saturating_sub(self.since), self.current_ma());
        self.since = now;
        seg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvs::DvsTable;

    #[test]
    fn transitions_emit_completed_segments() {
        let t = DvsTable::sa1100();
        let mut ps = PowerState::new(CurrentModel::itsy(), Mode::Idle, t.lowest());
        let i_idle = ps.current_ma();

        let (d1, i1) = ps.transition(SimTime::from_secs(2), Mode::Computation, t.highest());
        assert_eq!(d1, SimTime::from_secs(2));
        assert_eq!(i1, i_idle);

        let (d2, i2) = ps.transition(SimTime::from_secs(3), Mode::Idle, t.lowest());
        assert_eq!(d2, SimTime::from_secs(1));
        assert!((i2.get() - 130.0).abs() < 1.0);
        assert_eq!(ps.transitions(), 2);
    }

    #[test]
    fn same_state_transition_not_counted() {
        let t = DvsTable::sa1100();
        let mut ps = PowerState::new(CurrentModel::itsy(), Mode::Idle, t.lowest());
        ps.transition(SimTime::from_secs(1), Mode::Idle, t.lowest());
        assert_eq!(ps.transitions(), 0);
    }

    #[test]
    fn finish_closes_waveform() {
        let t = DvsTable::sa1100();
        let mut ps = PowerState::new(CurrentModel::itsy(), Mode::Communication, t.highest());
        let (d, i) = ps.finish(SimTime::from_secs(5));
        assert_eq!(d, SimTime::from_secs(5));
        assert!((i.get() - 110.0).abs() < 1.0);
        // A second finish at the same instant yields a zero-length segment.
        let (d2, _) = ps.finish(SimTime::from_secs(5));
        assert_eq!(d2, SimTime::ZERO);
    }
}
