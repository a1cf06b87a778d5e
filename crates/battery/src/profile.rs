//! Piecewise-constant load profiles and lifetime simulation.
//!
//! A node's discharge waveform over one frame period is a short sequence of
//! constant-current steps (Fig. 2: RECV, PROC, SEND, idle). Repeating it
//! until the battery dies is exactly the paper's experimental procedure:
//! "keep the Itsy node(s) running until the battery is fully discharged"
//! (§4.5).

use crate::model::{Battery, DischargeOutcome};
use dles_sim::SimTime;
use dles_units::{MilliAmpHours, MilliAmps};

/// One constant-current step of a load profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStep {
    pub duration: SimTime,
    pub current_ma: MilliAmps,
}

impl LoadStep {
    pub fn from_secs(secs: f64, current_ma: f64) -> Self {
        LoadStep {
            duration: SimTime::from_secs_f64(secs),
            current_ma: MilliAmps::new(current_ma),
        }
    }
}

/// A load profile: a step sequence repeated until exhaustion.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    steps: Vec<LoadStep>,
}

impl LoadProfile {
    /// Cycle the steps until the battery dies.
    pub fn repeating(steps: Vec<LoadStep>) -> Self {
        assert!(!steps.is_empty(), "empty load profile");
        assert!(
            steps.iter().any(|s| s.duration > SimTime::ZERO),
            "repeating profile must have positive total duration"
        );
        LoadProfile { steps }
    }

    /// A single constant-current profile repeated forever.
    pub fn constant(current_ma: f64) -> Self {
        Self::repeating(vec![LoadStep::from_secs(60.0, current_ma)])
    }

    pub(crate) fn steps(&self) -> &[LoadStep] {
        &self.steps
    }

    /// Duration of one pass through the steps.
    pub(crate) fn period(&self) -> SimTime {
        self.steps
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.duration)
    }

    /// Time-weighted mean current over one period.
    pub fn mean_current_ma(&self) -> MilliAmps {
        let total = self.period().as_secs_f64();
        if total == 0.0 {
            return MilliAmps::ZERO;
        }
        MilliAmps::new(
            self.steps
                .iter()
                .map(|s| s.current_ma.get() * s.duration.as_secs_f64())
                .sum::<f64>()
                / total,
        )
    }
}

/// Result of discharging a battery through a profile.
#[derive(Debug, Clone, Copy)]
pub struct Lifetime {
    /// Time until exhaustion (or the 10-year cut-off).
    pub lifetime: SimTime,
    /// Whole profile periods completed before death.
    pub full_periods: u64,
    /// Charge delivered.
    pub delivered_mah: MilliAmpHours,
    /// Whether the battery actually died (false only at the cut-off).
    pub exhausted: bool,
}

/// Discharge `battery` through `profile` and report the lifetime.
///
/// This runs until the battery is exhausted; a pathological profile that
/// never exhausts the battery (e.g. all-zero current) is cut off at 10
/// years of simulated time.
pub fn simulate_lifetime(battery: &mut dyn Battery, profile: &LoadProfile) -> Lifetime {
    const HORIZON: SimTime = SimTime(10 * 365 * 24 * SimTime::MICROS_PER_HOUR);
    let mut elapsed = SimTime::ZERO;
    let mut full_periods = 0u64;
    'outer: loop {
        for step in profile.steps() {
            match battery.discharge(step.duration, step.current_ma) {
                DischargeOutcome::Survived => elapsed += step.duration,
                DischargeOutcome::Exhausted { after } => {
                    elapsed += after;
                    break 'outer;
                }
            }
        }
        full_periods += 1;
        if elapsed >= HORIZON {
            break;
        }
    }
    Lifetime {
        lifetime: elapsed,
        full_periods,
        delivered_mah: battery.delivered_mah(),
        exhausted: battery.is_exhausted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::IdealBattery;
    use crate::kibam::KibamBattery;

    #[test]
    fn profile_aggregates() {
        let p = LoadProfile::repeating(vec![
            LoadStep::from_secs(1.1, 130.0),
            LoadStep::from_secs(1.2, 40.0),
        ]);
        assert!((p.period().as_secs_f64() - 2.3).abs() < 1e-9);
        let mean = (1.1 * 130.0 + 1.2 * 40.0) / 2.3;
        assert!((p.mean_current_ma().get() - mean).abs() < 1e-9);
    }

    #[test]
    fn ideal_lifetime_matches_arithmetic() {
        let mut b = IdealBattery::new(100.0);
        let p = LoadProfile::constant(50.0);
        let life = simulate_lifetime(&mut b, &p);
        assert!((life.lifetime.as_hours_f64() - 2.0).abs() < 1e-6);
        assert!(life.exhausted);
        assert!((life.delivered_mah.get() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn full_periods_counted() {
        let mut b = IdealBattery::new(10.0);
        // One period = 2 steps of 30 min at 10 mA → 10 mAh per hour-long period.
        let p = LoadProfile::repeating(vec![
            LoadStep::from_secs(1800.0, 10.0),
            LoadStep::from_secs(1800.0, 10.0),
        ]);
        let life = simulate_lifetime(&mut b, &p);
        // Dies exactly at the end of the first period (boundary: the second
        // step exhausts it); at most one full period can be counted.
        assert!(life.full_periods <= 1);
        assert!((life.lifetime.as_hours_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn kibam_pulsed_profile_outlives_constant_mean() {
        // Recovery effect at the profile level: the pulsed 1A-style frame
        // must outlive a constant load at the same *on* current's average.
        let pulsed = LoadProfile::repeating(vec![
            LoadStep::from_secs(1.1, 130.0),
            LoadStep::from_secs(1.2, 40.0),
        ]);
        let mut b1 = KibamBattery::new(800.0, 0.4, 0.5);
        let l_pulsed = simulate_lifetime(&mut b1, &pulsed);
        let mut b2 = KibamBattery::new(800.0, 0.4, 0.5);
        let l_const = simulate_lifetime(&mut b2, &LoadProfile::constant(130.0));
        assert!(l_pulsed.lifetime > l_const.lifetime);
    }

    #[test]
    fn zero_current_repeating_profile_hits_horizon() {
        let mut b = IdealBattery::new(1.0);
        let p = LoadProfile::repeating(vec![LoadStep::from_secs(86_400.0, 0.0)]);
        let life = simulate_lifetime(&mut b, &p);
        assert!(!life.exhausted);
        assert!(life.lifetime.as_hours_f64() >= 10.0 * 365.0 * 24.0 - 25.0);
    }

    #[test]
    #[should_panic(expected = "empty load profile")]
    fn empty_profile_rejected() {
        let _ = LoadProfile::repeating(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive total duration")]
    fn zero_duration_repeating_rejected() {
        let _ = LoadProfile::repeating(vec![LoadStep::from_secs(0.0, 10.0)]);
    }
}
