//! The power monitor: software model of Itsy's on-board instrumentation.
//!
//! §1: "We also use Itsy's on-board power instrumentation features to
//! collect data for the power characteristics." The monitor consumes the
//! piecewise-constant current segments emitted by
//! [`PowerState`](crate::state::PowerState) and keeps their time-weighted
//! mean current.

use crate::sa1100::BATTERY_VOLTS;
use dles_sim::{SimTime, TraceEvent, TraceRecord};
use dles_units::{Hertz, MilliAmps, MilliJoules, Seconds};

/// One piecewise-constant piece of a current waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSegment {
    /// When the segment began.
    pub start: SimTime,
    /// How long the current held.
    pub duration: SimTime,
    /// Constant current over the segment.
    pub current_ma: MilliAmps,
}

impl LoadSegment {
    /// Energy drawn over the segment at the pack voltage.
    pub(crate) fn energy_mj(&self) -> MilliJoules {
        self.current_ma * BATTERY_VOLTS * Seconds::new(self.duration.as_secs_f64())
    }

    /// Structured trace record for this segment, stamped at the segment's
    /// end (when the draw is known); `mode`/`freq_mhz` describe the power
    /// state that produced it.
    pub fn trace_record(
        &self,
        component: impl Into<String>,
        mode: &'static str,
        freq_mhz: Hertz,
    ) -> TraceRecord {
        TraceEvent::PowerSegment {
            mode,
            freq_mhz: freq_mhz.mhz(),
            duration: self.duration,
            current_ma: self.current_ma.get(),
            energy_mj: self.energy_mj().get(),
        }
        .record(self.start + self.duration, component)
    }
}

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
    fn segment_trace_record_carries_power_fields() {
        let seg = LoadSegment {
            start: SimTime::from_secs(1),
            duration: SimTime::from_secs(2),
            current_ma: MilliAmps::new(100.0),
        };
        // 100 mA × 4 V × 2 s = 800 mJ.
        assert!((seg.energy_mj().get() - 800.0).abs() < 1e-9);
        let rec = seg.trace_record("node1", "computation", Hertz::from_mhz(103.2));
        assert_eq!(rec.time, SimTime::from_secs(3));
        assert_eq!(rec.kind, "power_segment");
        assert_eq!(rec.str_field("mode"), Some("computation"));
        assert_eq!(rec.u64_field("duration_us"), Some(2_000_000));
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
