//! StrongARM SA-1100 / Itsy platform constants, straight from the paper.
//!
//! §4.1: "It supports DVS on the StrongARM SA-1100 processor with 11
//! frequency levels from 59 – 206.4 MHz over 43 different voltage levels.
//! … The power supply is a 4V lithium-ion battery pack."
//!
//! The 11 (frequency, voltage) operating points are the x-axis labels of
//! Fig. 7.

use dles_units::Volts;

/// The 11 SA-1100 operating points used by Itsy: raw (MHz, V) pairs, the
/// form [`DvsTable::from_points`](crate::dvs::DvsTable::from_points)
/// ingests before typing them as ([`Hertz`], [`Volts`]).
pub(crate) const SA1100_OPERATING_POINTS: [(f64, f64); 11] = [
    (59.0, 0.919),
    (73.7, 0.978),
    (88.5, 1.067),
    (103.2, 1.067),
    (118.0, 1.126),
    (132.7, 1.156),
    (147.5, 1.156),
    (162.2, 1.215),
    (176.9, 1.304),
    (191.7, 1.363),
    (206.4, 1.393),
];

/// Nominal battery pack voltage (4 V lithium-ion, §4.1). Used to convert
/// current draw (mA) into power (mW): `P = V_BATT · I`.
pub const BATTERY_VOLTS: Volts = Volts::new(4.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_levels_monotone_in_frequency() {
        assert_eq!(SA1100_OPERATING_POINTS.len(), 11);
        for w in SA1100_OPERATING_POINTS.windows(2) {
            assert!(w[0].0 < w[1].0, "frequencies must strictly increase");
            assert!(w[0].1 <= w[1].1, "voltage must be non-decreasing");
        }
    }

    #[test]
    fn endpoints_match_paper() {
        // 59 MHz is the "DVS during I/O" level (§5.2); 206.4 MHz the peak.
        assert_eq!(SA1100_OPERATING_POINTS[0], (59.0, 0.919));
        assert_eq!(SA1100_OPERATING_POINTS[10], (206.4, 1.393));
    }
}
