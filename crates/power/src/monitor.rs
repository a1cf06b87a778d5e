//! The power monitor: software model of Itsy's on-board instrumentation.
//!
//! §1: "We also use Itsy's on-board power instrumentation features to
//! collect data for the power characteristics." The monitor consumes the
//! piecewise-constant current segments emitted by
//! [`PowerState`](crate::state::PowerState) and keeps their time-weighted
//! mean current.

use dles_sim::SimTime;
use dles_units::MilliAmps;

/// Integrates a node's discharge waveform into its time-weighted mean
/// current, the one figure of Itsy's instrumentation a run reports.
#[derive(Debug, Clone, Default)]
pub struct PowerMonitor {
    /// ∫ I dt over every recorded segment, in mA·s.
    charge_ma_s: f64,
    /// Seconds recorded.
    recorded_s: f64,
}

impl PowerMonitor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed segment of `duration` at `current_ma`, ending at
    /// `_end`. A node's segments are contiguous, so the mean depends on the
    /// durations alone.
    pub fn record(&mut self, _end: SimTime, duration: SimTime, current_ma: MilliAmps) {
        let dt = duration.as_secs_f64();
        self.charge_ma_s += current_ma.get() * dt;
        self.recorded_s += dt;
    }

    /// Time-weighted mean current over everything recorded (0 if nothing
    /// was).
    pub fn mean_current_ma(&self) -> MilliAmps {
        if self.recorded_s > 0.0 {
            MilliAmps::new(self.charge_ma_s / self.recorded_s)
        } else {
            MilliAmps::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_integral_is_exact() {
        let mut m = PowerMonitor::new();
        // 1.1 s at 130 mA + 1.2 s at 40 mA (the experiment 1A frame shape).
        m.record(
            SimTime::from_secs_f64(1.1),
            SimTime::from_secs_f64(1.1),
            MilliAmps::new(130.0),
        );
        m.record(
            SimTime::from_secs_f64(2.3),
            SimTime::from_secs_f64(1.2),
            MilliAmps::new(40.0),
        );
        let mean = (130.0 * 1.1 + 40.0 * 1.2) / 2.3;
        assert!((m.mean_current_ma().get() - mean).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_segments_ignored() {
        let mut m = PowerMonitor::new();
        m.record(SimTime::from_secs(1), SimTime::ZERO, MilliAmps::new(500.0));
        assert_eq!(m.mean_current_ma(), MilliAmps::ZERO);
        m.record(
            SimTime::from_secs(2),
            SimTime::from_secs(1),
            MilliAmps::new(100.0),
        );
        m.record(SimTime::from_secs(2), SimTime::ZERO, MilliAmps::new(500.0));
        assert_eq!(m.mean_current_ma(), MilliAmps::new(100.0));
    }
}
