//! The power monitor: software model of Itsy's on-board instrumentation.
//!
//! §1: "We also use Itsy's on-board power instrumentation features to
//! collect data for the power characteristics." The monitor consumes the
//! piecewise-constant current segments emitted by
//! [`PowerState`](crate::state::PowerState) and maintains the charge
//! integral, time-weighted mean current, and (optionally) the full waveform
//! for trace-style figures.

use crate::sa1100::BATTERY_VOLTS;
use dles_sim::{SimTime, TimeWeighted, TraceEvent, TraceRecord};
use dles_units::{Hertz, MilliAmpHours, MilliAmps, MilliJoules, Seconds};

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
    pub fn energy_mj(&self) -> MilliJoules {
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

/// Accumulates a node's discharge waveform.
#[derive(Debug, Clone)]
pub struct PowerMonitor {
    tw: TimeWeighted,
    charge_mah: MilliAmpHours,
    clock: SimTime,
    waveform: Option<Vec<LoadSegment>>,
}

impl PowerMonitor {
    /// A monitor that keeps aggregates only (suitable for multi-hour runs).
    pub fn new() -> Self {
        PowerMonitor {
            tw: TimeWeighted::new(),
            charge_mah: MilliAmpHours::ZERO,
            clock: SimTime::ZERO,
            waveform: None,
        }
    }

    /// A monitor that additionally records every segment (for figures).
    pub fn with_waveform() -> Self {
        PowerMonitor {
            waveform: Some(Vec::new()),
            ..Self::new()
        }
    }

    /// Record a completed segment ending at `end`.
    pub fn record(&mut self, end: SimTime, duration: SimTime, current_ma: MilliAmps) {
        if duration == SimTime::ZERO {
            return;
        }
        let start = end.saturating_sub(duration);
        self.tw.set(start, current_ma.get());
        self.tw.finish(end);
        self.charge_mah += (current_ma * Seconds::new(duration.as_secs_f64())).to_milli_amp_hours();
        self.clock = end;
        if let Some(w) = &mut self.waveform {
            w.push(LoadSegment {
                start,
                duration,
                current_ma,
            });
        }
    }

    /// Total charge drawn so far.
    pub fn charge_mah(&self) -> MilliAmpHours {
        self.charge_mah
    }

    /// Time-weighted mean current over everything recorded.
    pub fn mean_current_ma(&self) -> MilliAmps {
        MilliAmps::new(self.tw.mean())
    }

    /// Peak current seen.
    pub fn peak_current_ma(&self) -> MilliAmps {
        MilliAmps::new(self.tw.max())
    }

    /// Last time a segment ended.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The recorded waveform, if waveform capture was enabled.
    pub fn waveform(&self) -> Option<&[LoadSegment]> {
        self.waveform.as_deref()
    }
}

impl Default for PowerMonitor {
    fn default() -> Self {
        Self::new()
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
        let expect = (130.0 * 1.1 + 40.0 * 1.2) / 3600.0;
        assert!((m.charge_mah().get() - expect).abs() < 1e-12);
        let mean = (130.0 * 1.1 + 40.0 * 1.2) / 2.3;
        assert!((m.mean_current_ma().get() - mean).abs() < 1e-9);
        assert_eq!(m.peak_current_ma(), MilliAmps::new(130.0));
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
        assert_eq!(m.charge_mah(), MilliAmpHours::ZERO);
        assert_eq!(m.peak_current_ma(), MilliAmps::ZERO);
    }

    #[test]
    fn waveform_capture() {
        let mut m = PowerMonitor::with_waveform();
        m.record(
            SimTime::from_secs(1),
            SimTime::from_secs(1),
            MilliAmps::new(100.0),
        );
        m.record(
            SimTime::from_secs(2),
            SimTime::from_secs(1),
            MilliAmps::new(50.0),
        );
        let w = m.waveform().unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].start, SimTime::ZERO);
        assert_eq!(w[1].start, SimTime::from_secs(1));
        assert_eq!(w[1].current_ma, MilliAmps::new(50.0));
    }

    #[test]
    fn aggregate_only_monitor_stores_no_waveform() {
        let mut m = PowerMonitor::new();
        m.record(
            SimTime::from_secs(1),
            SimTime::from_secs(1),
            MilliAmps::new(100.0),
        );
        assert!(m.waveform().is_none());
    }
}
