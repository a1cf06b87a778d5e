//! The Rakhmatov–Vrudhula analytical diffusion battery model.
//!
//! An alternative high-fidelity model to [`KibamBattery`](crate::KibamBattery):
//! the electrolyte is a 1-D diffusion medium, and the *apparent* charge
//! consumed by time `t` is
//!
//! ```text
//! σ(t) = l(t) + 2 Σ_{m=1..∞} ∫ i(τ) e^{−β²m²(t−τ)} dτ
//! ```
//!
//! where `l(t)` is the delivered charge. The battery fails when `σ`
//! reaches the capacity parameter `α`. The infinite sum is truncated to
//! `M` exponential modes, each of which obeys the linear ODE
//! `y_m' = i − β²m² y_m`, so piecewise-constant loads step in closed form
//! (no history kept, O(M) per segment).
//!
//! Like KiBaM, the model exhibits the rate-capacity effect (high current
//! piles up unavailable charge) and the recovery effect (the modes decay
//! during rests). It is included for cross-model validation: the paper's
//! qualitative conclusions must not depend on which non-ideal battery
//! model is chosen.

use crate::model::{Battery, DischargeOutcome};
use dles_sim::SimTime;
use dles_units::{Hours, MilliAmpHours, MilliAmps};

/// Parameters of a Rakhmatov–Vrudhula battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RvParams {
    /// Capacity parameter `α`: apparent charge the cell can source.
    pub alpha_mah: MilliAmpHours,
    /// Diffusion rate `β²`, in 1/hour. Small values = sluggish diffusion
    /// = strong rate dependence.
    pub beta_sq: f64,
    /// Number of exponential modes retained (10 is plenty: the m-th mode
    /// decays `m²` times faster than the first).
    pub modes: usize,
}

impl RvParams {
    /// The same diffusion dynamics with the apparent capacity scaled by
    /// `factor` — manufacturing variance or a partial initial charge.
    pub fn scaled(&self, factor: f64) -> RvParams {
        assert!(factor > 0.0, "capacity scale must be positive");
        RvParams {
            alpha_mah: self.alpha_mah * factor,
            ..*self
        }
    }
}

/// Diffusion battery with truncated modal state.
#[derive(Debug, Clone)]
pub struct RakhmatovBattery {
    params: RvParams,
    /// Modal states `y_m`, mAh.
    y: Vec<f64>,
    /// Tail factor: `2 Σ_{m>M} 1/(β²m²)` — modes beyond the truncation
    /// equilibrate essentially instantly, contributing `I · tail` of
    /// unavailable charge at the present current.
    tail_h: Hours,
    delivered_mah: MilliAmpHours,
    dead: bool,
}

impl RakhmatovBattery {
    pub fn from_params(params: RvParams) -> Self {
        assert!(params.alpha_mah.get() > 0.0, "alpha must be positive");
        assert!(params.beta_sq > 0.0, "beta^2 must be positive");
        assert!(params.modes > 0, "need at least one mode");
        let sum_trunc: f64 = (1..=params.modes).map(|m| 1.0 / (m * m) as f64).sum();
        let tail_h =
            Hours::new(2.0 * (std::f64::consts::PI.powi(2) / 6.0 - sum_trunc) / params.beta_sq);
        RakhmatovBattery {
            y: vec![0.0; params.modes],
            tail_h,
            params,
            delivered_mah: MilliAmpHours::ZERO,
            dead: false,
        }
    }

    /// Charge currently *unavailable* due to diffusion gradients
    /// (resolved modes only; the tail is attributed at the instantaneous
    /// current inside `sigma_at`).
    pub(crate) fn unavailable_mah(&self) -> MilliAmpHours {
        MilliAmpHours::new(2.0 * self.y.iter().sum::<f64>())
    }

    /// Apparent charge consumed (`σ`) while drawing `i_ma`.
    fn sigma_at(&self, i_ma: f64) -> f64 {
        self.delivered_mah.get() + self.unavailable_mah().get() + i_ma * self.tail_h.get()
    }

    /// Modal states and sigma after drawing `i_ma` for `t_h` hours.
    fn advanced(&self, i_ma: f64, t_h: f64) -> (Vec<f64>, f64) {
        let mut y = self.y.clone();
        for (m, ym) in y.iter_mut().enumerate() {
            let lambda = self.params.beta_sq * ((m + 1) * (m + 1)) as f64;
            let decay = (-lambda * t_h).exp();
            *ym = *ym * decay + i_ma * (1.0 - decay) / lambda;
        }
        let delivered = self.delivered_mah.get() + i_ma * t_h;
        let sigma = delivered + 2.0 * y.iter().sum::<f64>() + i_ma * self.tail_h.get();
        (y, sigma)
    }

    /// First time in `(0, t_h]` at which σ reaches α, given it does by
    /// `t_h`. σ is strictly increasing under constant positive current.
    fn death_time(&self, i_ma: f64, t_h: f64) -> f64 {
        let mut lo = 0.0f64;
        let mut hi = t_h;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            // Adjacent floats: the bracket is a fixed point from here on.
            if mid == lo || mid == hi {
                break;
            }
            if self.advanced(i_ma, mid).1 < self.params.alpha_mah.get() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

impl Battery for RakhmatovBattery {
    fn discharge(&mut self, duration: SimTime, current_ma: MilliAmps) -> DischargeOutcome {
        assert!(current_ma.get() >= 0.0, "negative discharge current");
        if self.dead {
            return DischargeOutcome::Exhausted {
                after: SimTime::ZERO,
            };
        }
        let t_h = duration.as_hours_f64();
        if t_h == 0.0 {
            return DischargeOutcome::Survived;
        }
        let (y, sigma) = self.advanced(current_ma.get(), t_h);
        if sigma < self.params.alpha_mah.get() || current_ma.get() == 0.0 {
            self.y = y;
            self.delivered_mah += current_ma * Hours::new(t_h);
            DischargeOutcome::Survived
        } else {
            let td = self.death_time(current_ma.get(), t_h);
            let (yd, _) = self.advanced(current_ma.get(), td);
            self.y = yd;
            self.delivered_mah += current_ma * Hours::new(td);
            self.dead = true;
            DischargeOutcome::Exhausted {
                after: SimTime::from_hours_f64(td).min(duration),
            }
        }
    }

    fn is_exhausted(&self) -> bool {
        self.dead
    }

    fn state_of_charge(&self) -> f64 {
        // At rest the tail term vanishes (fast modes equilibrate).
        (1.0 - self.sigma_at(0.0) / self.params.alpha_mah.get()).clamp(0.0, 1.0)
    }

    fn nominal_capacity_mah(&self) -> MilliAmpHours {
        self.params.alpha_mah
    }

    fn delivered_mah(&self) -> MilliAmpHours {
        self.delivered_mah
    }

    fn reset(&mut self) {
        self.y.iter_mut().for_each(|y| *y = 0.0);
        self.delivered_mah = MilliAmpHours::ZERO;
        self.dead = false;
    }

    fn time_to_exhaustion(&self, current_ma: MilliAmps) -> Option<SimTime> {
        assert!(current_ma.get() >= 0.0, "negative discharge current");
        if self.dead {
            return Some(SimTime::ZERO);
        }
        if current_ma.get() == 0.0 {
            // σ only decays at rest; the battery never dies idle.
            return None;
        }
        // σ(t) ≥ delivered + I·t, so by t = (α − delivered)/I it has
        // crossed α (σ also includes the non-negative unavailable term).
        let t_upper = ((self.params.alpha_mah - self.delivered_mah) / current_ma)
            .get()
            .max(0.0)
            + 1e-9;
        debug_assert!(self.advanced(current_ma.get(), t_upper).1 >= self.params.alpha_mah.get());
        Some(SimTime::from_hours_f64(
            self.death_time(current_ma.get(), t_upper),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(v: f64) -> MilliAmps {
        MilliAmps::new(v)
    }

    fn battery(alpha_mah: f64, beta_sq: f64) -> RakhmatovBattery {
        RakhmatovBattery::from_params(RvParams {
            alpha_mah: MilliAmpHours::new(alpha_mah),
            beta_sq,
            modes: 10,
        })
    }

    fn test_battery() -> RakhmatovBattery {
        battery(1000.0, 2.0)
    }

    fn run_to_death(b: &mut RakhmatovBattery, current: f64, step_s: u64) -> f64 {
        let mut h = 0.0;
        loop {
            match b.discharge(SimTime::from_secs(step_s), ma(current)) {
                DischargeOutcome::Survived => h += step_s as f64 / 3600.0,
                DischargeOutcome::Exhausted { after } => return h + after.as_hours_f64(),
            }
        }
    }

    #[test]
    fn rate_capacity_effect() {
        let q = |i: f64| {
            let mut b = test_battery();
            run_to_death(&mut b, i, 60) * i
        };
        let q_slow = q(30.0);
        let q_fast = q(400.0);
        assert!(
            q_slow > q_fast + 50.0,
            "slow {q_slow} mAh vs fast {q_fast} mAh"
        );
        // At low rate nearly the whole α is extractable.
        assert!(q_slow > 0.9 * 1000.0, "q_slow {q_slow}");
    }

    #[test]
    fn recovery_effect() {
        // Pulsed load with rests outlives continuous at the same
        // on-current (total on-time compared).
        let continuous = {
            let mut b = test_battery();
            run_to_death(&mut b, 400.0, 10)
        };
        let pulsed = {
            let mut b = test_battery();
            let mut on_h = 0.0;
            loop {
                match b.discharge(SimTime::from_secs(10), ma(400.0)) {
                    DischargeOutcome::Survived => on_h += 10.0 / 3600.0,
                    DischargeOutcome::Exhausted { after } => {
                        on_h += after.as_hours_f64();
                        break;
                    }
                }
                b.discharge(SimTime::from_secs(10), ma(0.0));
            }
            on_h
        };
        assert!(
            pulsed > continuous * 1.02,
            "pulsed {pulsed} h vs continuous {continuous} h"
        );
    }

    #[test]
    fn rest_recovers_apparent_charge() {
        let mut b = test_battery();
        let outcome = b.discharge(SimTime::from_secs(1800), ma(300.0));
        assert_eq!(outcome, DischargeOutcome::Survived, "prep discharge died");
        let unavailable_before = b.unavailable_mah().get();
        assert!(unavailable_before > 1.0);
        b.discharge(SimTime::from_secs(7200), ma(0.0));
        assert!(
            b.unavailable_mah().get() < 0.2 * unavailable_before,
            "rest barely recovered: {} -> {}",
            unavailable_before,
            b.unavailable_mah().get()
        );
        // Delivered charge is untouched by the rest.
        assert!((b.delivered_mah().get() - 150.0).abs() < 1e-6);
    }

    #[test]
    fn time_to_exhaustion_consistent_with_discharge() {
        for current in [60.0, 130.0, 500.0] {
            let mut b = test_battery();
            b.discharge(SimTime::from_secs(1800), ma(200.0));
            let ttd = b.time_to_exhaustion(ma(current)).expect("finite");
            let mut survivor = b.clone();
            assert_eq!(
                survivor.discharge(ttd.scale_f64(0.999), ma(current)),
                DischargeOutcome::Survived,
                "at {current} mA"
            );
            let mut victim = b.clone();
            assert!(victim
                .discharge(ttd + SimTime::from_secs(5), ma(current))
                .is_exhausted());
        }
    }

    #[test]
    fn segment_size_invariance() {
        let fine = {
            let mut b = test_battery();
            run_to_death(&mut b, 150.0, 1)
        };
        let coarse = {
            let mut b = test_battery();
            run_to_death(&mut b, 150.0, 300)
        };
        assert!(
            (fine - coarse).abs() < 0.1,
            "fine {fine} vs coarse {coarse}"
        );
    }

    #[test]
    fn zero_current_never_dies() {
        let b = test_battery();
        assert!(b.time_to_exhaustion(ma(0.0)).is_none());
        let mut b2 = test_battery();
        assert_eq!(
            b2.discharge(SimTime::from_secs(1_000_000), ma(0.0)),
            DischargeOutcome::Survived
        );
    }

    #[test]
    fn reset_restores() {
        let mut b = test_battery();
        run_to_death(&mut b, 300.0, 60);
        assert!(b.is_exhausted());
        b.reset();
        assert!(!b.is_exhausted());
        assert_eq!(b.state_of_charge(), 1.0);
        assert_eq!(b.unavailable_mah().get(), 0.0);
    }

    #[test]
    fn mode_truncation_converges() {
        // Lifetimes with 10 vs 30 modes agree closely (fast mode decay).
        let life = |modes: usize| {
            let mut b = RakhmatovBattery::from_params(RvParams {
                alpha_mah: MilliAmpHours::new(1000.0),
                beta_sq: 2.0,
                modes,
            });
            run_to_death(&mut b, 200.0, 60)
        };
        let l5 = life(5);
        let l10 = life(10);
        let l30 = life(30);
        assert!((l10 - l30).abs() / l30 < 0.01, "10 modes {l10} vs 30 {l30}");
        assert!((l5 - l30).abs() / l30 < 0.02, "5 modes {l5} vs 30 {l30}");
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn invalid_alpha_rejected() {
        let _ = battery(0.0, 0.3);
    }
}
