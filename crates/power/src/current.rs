//! The three-mode current model of Fig. 7.
//!
//! The paper reports net battery current for three modes of operation at
//! each of the 11 DVS levels. We reconstruct the three curves with an
//! analytic model
//!
//! ```text
//! I(mode, f, V) = I_base(mode) + k(mode) · f · V²      [mA; f in MHz]
//! ```
//!
//! anchored to every numeric current the paper states:
//!
//! * computation @ 206.4 MHz ≈ 130 mA (Fig. 7 top of range; §6.3),
//! * communication @ 206.4 MHz = 110 mA (§6.3),
//! * communication @ 103.2 MHz = 55 mA (§6.5),
//! * communication @ 59 MHz = 40 mA (§6.3, §6.5),
//! * idle @ 59 MHz = 30 mA (Fig. 7 bottom of range),
//! * overall range 30–130 mA ⇒ 0.12–0.52 W at 4 V (§4.4).
//!
//! The `f · V²` form is the CMOS dynamic-power law the paper's DVS argument
//! rests on (§1); the base terms capture leakage plus the always-on system
//! components (DRAM refresh, UART) that make Itsy's *net* current non-zero
//! even at idle.

use crate::dvs::FreqLevel;
use dles_units::MilliAmps;

/// Operating mode of a node, as in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// No I/O and no computation workload.
    Idle,
    /// Sending or receiving on the serial port.
    Communication,
    /// Executing the ATR algorithm.
    Computation,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Idle, Mode::Communication, Mode::Computation];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Idle => "idle",
            Mode::Communication => "communication",
            Mode::Computation => "computation",
        }
    }
}

/// Per-mode affine-in-`f·V²` current model.
#[derive(Debug, Clone)]
pub struct CurrentModel {
    /// Base (frequency-independent) current per mode.
    pub base_ma: [MilliAmps; 3],
    /// Slope per mode, mA per (MHz·V²) — the model constant that absorbs
    /// the dimensions of the switching-activity proxy.
    pub k: [f64; 3],
}

impl CurrentModel {
    /// The Itsy model fitted to the paper's published anchors (see module
    /// docs). Fit residuals are checked in the unit tests below.
    pub fn itsy() -> Self {
        // Anchors (mode, f·V², mA):
        //   compute: (400.52, 130), and ≥ comm at every level so that
        //            "computation always dominates" (§4.4) holds — the
        //            compute floor sits just above the 40 mA comm current
        //            at 59 MHz
        //   comm:    (400.52, 110), (117.48, ~55), (49.83, 40)
        //   idle:    (49.83, 30) with a 25 mA system floor
        CurrentModel {
            base_ma: [
                MilliAmps::new(25.0),
                MilliAmps::new(30.055),
                MilliAmps::new(29.5),
            ],
            k: [0.100_4, 0.199_5, 0.250_9],
        }
    }

    fn mode_idx(mode: Mode) -> usize {
        match mode {
            Mode::Idle => 0,
            Mode::Communication => 1,
            Mode::Computation => 2,
        }
    }

    /// Net battery current for `mode` at operating point `level`.
    pub fn current_ma(&self, mode: Mode, level: FreqLevel) -> MilliAmps {
        let i = Self::mode_idx(mode);
        self.base_ma[i] + MilliAmps::new(self.k[i] * level.switching_activity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvs::DvsTable;
    use crate::sa1100::BATTERY_VOLTS;
    use dles_units::Hertz;

    fn table() -> DvsTable {
        DvsTable::sa1100()
    }

    #[test]
    fn computation_anchor_130ma_at_peak() {
        let m = CurrentModel::itsy();
        let i = m.current_ma(Mode::Computation, table().highest()).get();
        assert!((i - 130.0).abs() < 1.0, "got {i}");
    }

    #[test]
    fn communication_anchors() {
        let m = CurrentModel::itsy();
        let t = table();
        let at = |f: f64| {
            m.current_ma(Mode::Communication, t.by_freq(Hertz::from_mhz(f)).unwrap())
                .get()
        };
        assert!((at(206.4) - 110.0).abs() < 1.0, "peak comm {}", at(206.4));
        assert!((at(59.0) - 40.0).abs() < 1.0, "min comm {}", at(59.0));
        assert!((at(103.2) - 55.0).abs() < 2.0, "mid comm {}", at(103.2));
    }

    #[test]
    fn idle_anchor_30ma_at_min() {
        let m = CurrentModel::itsy();
        let i = m.current_ma(Mode::Idle, table().lowest()).get();
        assert!((i - 30.0).abs() < 1.0, "got {i}");
    }

    #[test]
    fn overall_range_matches_fig7() {
        // §4.4: "the three curves range from 30 mA to 130 mA, indicating a
        // power range from 0.1W to 0.5W".
        let m = CurrentModel::itsy();
        let t = table();
        let mut lo = MilliAmps::new(f64::INFINITY);
        let mut hi = MilliAmps::new(f64::NEG_INFINITY);
        for level in t.iter() {
            for mode in Mode::ALL {
                let i = m.current_ma(mode, level);
                lo = lo.min(i);
                hi = hi.max(i);
            }
        }
        assert!((lo.get() - 30.0).abs() < 1.5, "min {}", lo.get());
        assert!((hi.get() - 130.0).abs() < 1.5, "max {}", hi.get());
        let p_lo = (lo * BATTERY_VOLTS).to_watts().get();
        let p_hi = (hi * BATTERY_VOLTS).to_watts().get();
        assert!((0.1..0.15).contains(&p_lo));
        assert!((0.45..0.55).contains(&p_hi));
    }

    #[test]
    fn computation_dominates_each_level() {
        // §4.4: "The computation always dominates the power consumption."
        let m = CurrentModel::itsy();
        for level in table().iter() {
            let idle = m.current_ma(Mode::Idle, level);
            let comm = m.current_ma(Mode::Communication, level);
            let comp = m.current_ma(Mode::Computation, level);
            assert!(comp > comm && comm > idle, "ordering broken at {level}");
        }
    }

    #[test]
    fn curves_monotone_in_frequency() {
        let m = CurrentModel::itsy();
        let t = table();
        for mode in Mode::ALL {
            let mut prev = MilliAmps::ZERO;
            for level in t.iter() {
                let i = m.current_ma(mode, level);
                assert!(i > prev, "{mode:?} not monotone at {level}");
                prev = i;
            }
        }
    }
}
