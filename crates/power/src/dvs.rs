//! The DVS frequency/voltage table and performance scaling.
//!
//! §4.3: "When the clock rate is reduced, the performance degrades linearly
//! with the clock rate" — computation at level `f` takes `t · f_peak / f`.
//! Communication latency is *frequency-independent* (§6.3: "communication
//! delay does not increase at a lower clock rate"); that is modelled in
//! `dles-net`, not here.

use crate::sa1100::SA1100_OPERATING_POINTS;
use dles_sim::SimTime;
use dles_units::{Hertz, Volts};
use std::fmt;

/// One DVS operating point: a (frequency, core voltage) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqLevel {
    /// Index into the owning [`DvsTable`] (0 = slowest).
    pub index: usize,
    /// Clock frequency.
    pub freq_mhz: Hertz,
    /// Core voltage.
    pub volts: Volts,
}

impl FreqLevel {
    /// The dynamic-power proxy `f · V²` (MHz·V²) that the current model
    /// scales; CMOS dynamic power is `∝ f V²` (§1). Unitless by
    /// convention — the current model's `k` absorbs the dimensions.
    #[inline]
    pub fn switching_activity(&self) -> f64 {
        self.freq_mhz.mhz() * self.volts.get() * self.volts.get()
    }
}

impl fmt::Display for FreqLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} MHz @ {:.3} V",
            self.freq_mhz.mhz(),
            self.volts.get()
        )
    }
}

/// An ordered table of DVS operating points (slowest first).
#[derive(Debug, Clone)]
pub struct DvsTable {
    levels: Vec<FreqLevel>,
}

impl DvsTable {
    /// The Itsy / SA-1100 table of Fig. 7.
    pub fn sa1100() -> Self {
        Self::from_points(&SA1100_OPERATING_POINTS)
    }

    /// Build a table from raw (MHz, V) pairs; must be sorted by frequency.
    pub(crate) fn from_points(points: &[(f64, f64)]) -> Self {
        assert!(!points.is_empty(), "empty DVS table");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "DVS table must be strictly increasing in frequency"
        );
        DvsTable {
            levels: points
                .iter()
                .enumerate()
                .map(|(index, &(mhz, v))| FreqLevel {
                    index,
                    freq_mhz: Hertz::from_mhz(mhz),
                    volts: Volts::new(v),
                })
                .collect(),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = FreqLevel> + '_ {
        self.levels.iter().copied()
    }

    /// Operating point by index; panics on out-of-range (model bug).
    pub fn level(&self, index: usize) -> FreqLevel {
        self.levels[index]
    }

    /// The slowest operating point (59 MHz on Itsy).
    pub fn lowest(&self) -> FreqLevel {
        self.levels[0]
    }

    /// The fastest operating point (206.4 MHz on Itsy).
    pub fn highest(&self) -> FreqLevel {
        *self.levels.last().expect("non-empty table")
    }

    /// The operating point whose frequency equals `freq_mhz` (within
    /// 0.05 MHz), if any. Convenient for writing experiments in the paper's
    /// own terms ("Node2 at 103.2 MHz").
    pub fn by_freq(&self, freq_mhz: Hertz) -> Option<FreqLevel> {
        self.levels
            .iter()
            .copied()
            .find(|l| (l.freq_mhz - freq_mhz).abs().mhz() < 0.05)
    }

    /// The slowest level that still delivers at least `freq_mhz` of clock —
    /// the level a deadline-feasibility analysis selects. `None` if even the
    /// top level is too slow (the ">206.4 MHz" row of Fig. 8).
    pub fn min_level_at_least(&self, freq_mhz: Hertz) -> Option<FreqLevel> {
        self.levels
            .iter()
            .copied()
            .find(|l| l.freq_mhz.mhz() + 1e-9 >= freq_mhz.mhz())
    }

    /// Scale a duration measured at the peak level to level `at`:
    /// `t · f_peak / f_at` (linear performance degradation, §4.3).
    pub fn scale_from_peak(&self, at_peak: SimTime, at: FreqLevel) -> SimTime {
        at_peak.scale_f64(self.highest().freq_mhz / at.freq_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa1100_table_shape() {
        let t = DvsTable::sa1100();
        assert_eq!(t.levels.len(), 11);
        assert_eq!(t.lowest().freq_mhz.mhz(), 59.0);
        assert_eq!(t.highest().freq_mhz.mhz(), 206.4);
        assert_eq!(t.level(3).freq_mhz.mhz(), 103.2);
    }

    #[test]
    fn by_freq_finds_paper_levels() {
        let t = DvsTable::sa1100();
        for f in [59.0, 73.7, 103.2, 118.0, 132.7, 191.7, 206.4] {
            assert_eq!(t.by_freq(Hertz::from_mhz(f)).unwrap().freq_mhz.mhz(), f);
        }
        assert!(t.by_freq(Hertz::from_mhz(100.0)).is_none());
    }

    #[test]
    fn min_level_at_least_rounds_up() {
        let t = DvsTable::sa1100();
        // Needing 94.9 MHz selects 103.2 (the scheme-1 Node2 analysis).
        let at_least = |mhz: f64| t.min_level_at_least(Hertz::from_mhz(mhz));
        assert_eq!(at_least(94.9).unwrap().freq_mhz.mhz(), 103.2);
        // Needing exactly 59 selects 59.
        assert_eq!(at_least(59.0).unwrap().freq_mhz.mhz(), 59.0);
        // Needing 380 MHz (scheme-3 Node1) is infeasible.
        assert!(at_least(380.0).is_none());
    }

    #[test]
    fn performance_scales_linearly() {
        let t = DvsTable::sa1100();
        let half = t.by_freq(Hertz::from_mhz(103.2)).unwrap();
        let at_peak = SimTime::from_secs_f64(1.1);
        let scaled = t.scale_from_peak(at_peak, half);
        assert!((scaled.as_secs_f64() - 2.2).abs() < 1e-3);
    }

    #[test]
    fn switching_activity_is_fv2() {
        let t = DvsTable::sa1100();
        let top = t.highest();
        assert!((top.switching_activity() - 206.4 * 1.393 * 1.393).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_table_rejected() {
        let _ = DvsTable::from_points(&[(100.0, 1.0), (50.0, 0.9)]);
    }
}
