//! The Kinetic Battery Model (KiBaM) of Manwell & McGowan.
//!
//! Charge is held in two wells: an *available* well (fraction `c` of
//! capacity) that supplies the load directly, and a *bound* well that feeds
//! the available well through a "valve" with rate constant `k`. The model
//! reproduces both battery phenomena the paper's measurements exhibit:
//!
//! * **rate-capacity effect** — at high current the available well drains
//!   faster than the bound well can refill it, so the battery dies with
//!   bound charge stranded (delivered capacity shrinks with rate);
//! * **recovery effect** — during a rest, bound charge seeps into the
//!   available well and the battery can sustain a subsequent burst
//!   (§6.3: "if the discharge current can drop to a lower level, the lost
//!   capacity can be partially recovered").
//!
//! Each constant-current segment is advanced with the model's *exact*
//! closed-form solution (no ODE integration error). Under constant current
//! the available charge is either concave or convex and falling, so it
//! crosses zero once, and two searches locate that crossing:
//!
//! * [`Battery::discharge`] finds a death inside a segment by bisection.
//!   The f64 death time it finds sets the final well contents, so it must
//!   be the bisection's answer to the last bit.
//! * [`Battery::time_to_exhaustion`] only reports the death time rounded
//!   to the microsecond. It runs Newton's method on the available charge,
//!   from the side where the iterates move monotonically onto the root.
//!   A guard accepts the root only when a band around it lies inside one
//!   microsecond and the closed form's sign at the band's ends exceeds its
//!   float error: the bisection must then end inside the band, so both
//!   round alike. Otherwise it falls back to the bisection.

use crate::model::{Battery, DischargeOutcome};
use dles_sim::SimTime;
use dles_units::{Hours, MilliAmpHours, MilliAmps};

/// Parameters of a KiBaM battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KibamParams {
    /// Total nominal capacity (both wells).
    pub capacity_mah: MilliAmpHours,
    /// Fraction of capacity in the available well, `0 < c < 1`.
    pub c: f64,
    /// Modified rate constant `k' = k / (c (1 − c))`, in 1/hour.
    pub k: f64,
}

impl KibamParams {
    /// The same cell chemistry (`c`, `k` unchanged) with capacity scaled
    /// by `factor` — manufacturing variance or a partial initial charge.
    pub fn scaled(&self, factor: f64) -> KibamParams {
        assert!(factor > 0.0, "capacity scale must be positive");
        KibamParams {
            capacity_mah: self.capacity_mah * factor,
            ..*self
        }
    }
}

/// Two-well kinetic battery.
#[derive(Debug, Clone)]
pub struct KibamBattery {
    params: KibamParams,
    /// Available charge, mAh (raw: the closed-form well math below works
    /// on bare values; the typed boundary is the public API).
    q1: f64,
    /// Bound charge, mAh.
    q2: f64,
    delivered_mah: MilliAmpHours,
    dead: bool,
}

impl KibamBattery {
    /// A fresh battery: `capacity_mah` total, split `c` available /
    /// `1 − c` bound, with modified rate constant `k` (1/h).
    pub fn new(capacity_mah: f64, c: f64, k: f64) -> Self {
        Self::from_params(KibamParams {
            capacity_mah: MilliAmpHours::new(capacity_mah),
            c,
            k,
        })
    }

    pub fn from_params(params: KibamParams) -> Self {
        assert!(
            params.capacity_mah > MilliAmpHours::ZERO,
            "capacity must be positive"
        );
        assert!(
            params.c > 0.0 && params.c < 1.0,
            "well fraction c must be in (0, 1)"
        );
        assert!(params.k > 0.0, "rate constant must be positive");
        KibamBattery {
            q1: params.c * params.capacity_mah.get(),
            q2: (1.0 - params.c) * params.capacity_mah.get(),
            params,
            delivered_mah: MilliAmpHours::ZERO,
            dead: false,
        }
    }

    /// Charge stranded in the battery (both wells) right now — at death
    /// this is the paper's "loss of battery capacities".
    pub(crate) fn stranded_mah(&self) -> MilliAmpHours {
        MilliAmpHours::new(self.q1 + self.q2)
    }

    /// Closed-form well contents after drawing `current` for `t` from the
    /// current state (Manwell–McGowan). Raw mAh out: the wells are internal.
    fn wells_after(&self, current: MilliAmps, t: Hours) -> (f64, f64) {
        let KibamParams { c, k, .. } = self.params;
        let i_ma = current.get();
        let t_h = t.get();
        let q0 = self.q1 + self.q2;
        let kt = k * t_h;
        let r = (-kt).exp();
        let em1 = (-kt).exp_m1();
        let one_minus_r = -em1;
        // kt − 1 + e^{−kt}; ≥ 0, ~kt²/2 for small kt.
        let kt_term = kt + em1;
        let q1 = self.q1 * r + (q0 * k * c - i_ma) * one_minus_r / k - i_ma * c * kt_term / k;
        let q2 = self.q2 * r + q0 * (1.0 - c) * one_minus_r - i_ma * (1.0 - c) * kt_term / k;
        (q1, q2)
    }

    /// First time in `(0, t]` at which the available well empties, given
    /// `q1(t) ≤ 0`. Bisection; `q1` crosses zero once under constant
    /// current (see [`KibamBattery::newton_root`]).
    fn death_time(&self, current: MilliAmps, t: Hours) -> Hours {
        let mut lo = 0.0f64;
        let mut hi = t.get();
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            // Adjacent floats: the bracket is a fixed point from here on.
            if mid == lo || mid == hi {
                break;
            }
            if self.wells_after(current, Hours::new(mid)).0 > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Hours::new(hi)
    }

    /// A time at which the available well is empty under a constant
    /// `current`, from conservation: by `(q1 + q2) / I` no charge is left.
    /// `None` when that bound lies beyond any representable horizon.
    fn exhaustion_bound(&self, current: MilliAmps) -> Option<Hours> {
        // Near-zero currents push the bound beyond any representable
        // horizon (and to ±inf/NaN in the closed form): treat those as a
        // battery that never dies rather than saturating SimTime and
        // overflowing callers' event schedules.
        const MAX_HORIZON_H: f64 = 1.0e9; // ~114 000 years ≫ any experiment
        let mut t_upper = (self.stranded_mah() / current).get();
        if !t_upper.is_finite() || t_upper > MAX_HORIZON_H {
            return None;
        }
        // Nudge past the exact conservation bound, then widen geometrically
        // if rounding still leaves q1 marginally positive there (the old
        // fixed +1e-9 offset was not enough for multi-thousand-hour bounds).
        t_upper = t_upper * (1.0 + 1e-12) + 1e-9;
        let mut widen = 0;
        while self.wells_after(current, Hours::new(t_upper)).0 > 0.0 {
            t_upper *= 2.0;
            widen += 1;
            if widen > 64 || t_upper > MAX_HORIZON_H {
                return None;
            }
        }
        Some(Hours::new(t_upper))
    }

    /// `q1(t)` and `dq1/dt` under a constant `current`, for Newton's
    /// method, with the sum of the magnitudes of `q1`'s three closed-form
    /// terms, which bounds the float error of evaluating it. One `exp_m1`
    /// serves all three; only [`KibamBattery::guarded_exhaustion`] needs
    /// `wells_after`'s exact arithmetic.
    fn q1_and_slope(&self, current: MilliAmps, t: f64) -> (f64, f64, f64) {
        let KibamParams { c, k, .. } = self.params;
        let i_ma = current.get();
        let q0 = self.q1 + self.q2;
        let kt = k * t;
        let one_minus_r = -(-kt).exp_m1();
        let r = 1.0 - one_minus_r;
        let flow = q0 * k * c - i_ma;
        let (held, fed, drawn) = (
            self.q1 * r,
            flow * one_minus_r / k,
            i_ma * c * (kt - one_minus_r) / k,
        );
        let slope = (flow - k * self.q1) * r - i_ma * c * one_minus_r;
        let scale = held.abs() + fed.abs() + drawn.abs();
        (held + fed - drawn, slope, scale)
    }

    /// Newton's method on `q1` over `(0, t_upper]`, where `q1(t_upper) ≤ 0`.
    ///
    /// Under constant current `q1'' = −k·e^{−kt}·(k(c·q0 − q1₀) − I(1 − c))`
    /// keeps one sign. If `q1` is concave it falls after the root, so the
    /// iteration starts from `t_upper` and each tangent lands at or right
    /// of the root. If it is convex it falls everywhere (its slope rises
    /// towards `−I·c`), so the iteration starts from 0 and each tangent
    /// lands at or left of the root. Either way the iterates move
    /// monotonically onto the root. `None` if the iteration misbehaves.
    fn newton_root(&self, current: MilliAmps, t_upper: Hours) -> Option<NewtonRoot> {
        const MAX_STEPS: usize = 64;
        let KibamParams { c, k, .. } = self.params;
        let i_ma = current.get();
        let concave = k * (c * (self.q1 + self.q2) - self.q1) > i_ma * (1.0 - c);
        let t_upper = t_upper.get();
        let mut t = if concave { t_upper } else { 0.0 };
        for _ in 0..MAX_STEPS {
            let (q1, slope, scale) = self.q1_and_slope(current, t);
            if slope.is_nan() || slope >= 0.0 {
                return None;
            }
            let step = q1 / slope;
            t -= step;
            if !(t > 0.0 && t <= t_upper) {
                return None;
            }
            // Converged once the step is down to an ulp of `t` or to the
            // float noise of `q1` itself.
            if step.abs() <= f64::EPSILON * t.max(scale / -slope) {
                return Some(NewtonRoot { t, slope, scale });
            }
        }
        None
    }

    /// The microsecond the bisection over `(0, t_upper]` rounds to, when the
    /// Newton root is close enough to prove it; `None` otherwise.
    ///
    /// Let `m` bound the float error of evaluating `q1` near the root (its
    /// terms' scale times 32 ε). The guard places a band `root.t ± δ`, with
    /// `δ` at least 1e-12 h (3.6 ns), 4 ulps of `t` and `3m / |slope|`,
    /// and checks with `wells_after`, as the bisection evaluates `q1`:
    ///
    /// * `q1 > m` at the band's left end and `q1 < −m` at its right end.
    ///   `q1` only falls after the root and, left of it, stays above the
    ///   smaller of its ends (concave) or falls (convex); with `q1₀ > m`
    ///   too, every evaluation outside the band has the right sign, so
    ///   the bisection's bracket closes inside the band;
    /// * the band, widened on the right by the bisection's final bracket
    ///   width `t_upper / 2^80`, rounds to a single microsecond.
    fn guarded_exhaustion(
        &self,
        current: MilliAmps,
        t_upper: Hours,
        root: NewtonRoot,
    ) -> Option<SimTime> {
        let margin = 32.0 * f64::EPSILON * root.scale;
        let delta = (1e-12f64)
            .max(4.0 * f64::EPSILON * root.t)
            .max(3.0 * margin / -root.slope);
        let (lo, hi) = (root.t - delta, root.t + delta);
        let bracket = t_upper.get() * (-80.0f64).exp2();
        let rounded = SimTime::from_hours_f64(lo);
        let proven = self.q1 > margin
            && lo > 0.0
            && rounded == SimTime::from_hours_f64(hi + bracket)
            && self.wells_after(current, Hours::new(lo)).0 > margin
            && self.wells_after(current, Hours::new(hi)).0 < -margin;
        proven.then_some(rounded)
    }
}

/// A root of `q1` found by [`KibamBattery::newton_root`].
#[derive(Debug, Clone, Copy)]
struct NewtonRoot {
    /// The root, hours.
    t: f64,
    /// `dq1/dt` at the last iterate, mA.
    slope: f64,
    /// Sum of the magnitudes of `q1`'s closed-form terms there, mAh.
    scale: f64,
}

impl Battery for KibamBattery {
    fn discharge(&mut self, duration: SimTime, current_ma: MilliAmps) -> DischargeOutcome {
        assert!(current_ma >= MilliAmps::ZERO, "negative discharge current");
        if self.dead {
            return DischargeOutcome::Exhausted {
                after: SimTime::ZERO,
            };
        }
        let t = Hours::new(duration.as_hours_f64());
        if t == Hours::ZERO {
            return DischargeOutcome::Survived;
        }
        let (q1, q2) = self.wells_after(current_ma, t);
        if q1 > 0.0 {
            self.q1 = q1;
            self.q2 = q2.max(0.0);
            self.delivered_mah += current_ma * t;
            DischargeOutcome::Survived
        } else {
            let td = self.death_time(current_ma, t);
            let (q1d, q2d) = self.wells_after(current_ma, td);
            self.q1 = q1d.max(0.0);
            self.q2 = q2d.max(0.0);
            self.delivered_mah += current_ma * td;
            self.dead = true;
            DischargeOutcome::Exhausted {
                after: SimTime::from_hours_f64(td.get()).min(duration),
            }
        }
    }

    fn is_exhausted(&self) -> bool {
        self.dead
    }

    fn state_of_charge(&self) -> f64 {
        ((self.q1 + self.q2) / self.params.capacity_mah.get()).clamp(0.0, 1.0)
    }

    fn nominal_capacity_mah(&self) -> MilliAmpHours {
        self.params.capacity_mah
    }

    fn delivered_mah(&self) -> MilliAmpHours {
        self.delivered_mah
    }

    fn reset(&mut self) {
        self.q1 = self.params.c * self.params.capacity_mah.get();
        self.q2 = (1.0 - self.params.c) * self.params.capacity_mah.get();
        self.delivered_mah = MilliAmpHours::ZERO;
        self.dead = false;
    }

    fn time_to_exhaustion(&self, current_ma: MilliAmps) -> Option<SimTime> {
        assert!(current_ma >= MilliAmps::ZERO, "negative discharge current");
        if self.dead {
            return Some(SimTime::ZERO);
        }
        if current_ma == MilliAmps::ZERO {
            return None;
        }
        let t_upper = self.exhaustion_bound(current_ma)?;
        let bisected = || SimTime::from_hours_f64(self.death_time(current_ma, t_upper).get());
        let newton = self
            .newton_root(current_ma, t_upper)
            .and_then(|root| self.guarded_exhaustion(current_ma, t_upper, root));
        Some(newton.unwrap_or_else(bisected))
    }

    /// [`Battery::time_to_exhaustion`] at `i_max`, less a 1 ms margin.
    ///
    /// The model is linear in the load, and the closed form of
    /// `wells_after` gives the available charge's response to current
    /// held over a span `τ` as `∂q1/∂I = −∫₀^τ (c + (1 − c)e^{−ks}) ds < 0`:
    /// a positive kernel. By superposition, any load at or below `i_max`
    /// leaves `q1` at or above its path under a constant `i_max` at every
    /// instant, so it cannot empty first. The margin absorbs the answer's
    /// microsecond rounding and the float error of stepping the same path
    /// segment by segment.
    fn death_lower_bound(&self, i_max: MilliAmps) -> Option<SimTime> {
        self.time_to_exhaustion(i_max)
            .map(|t| t.saturating_sub(BOUND_MARGIN))
    }
}

/// Slack [`KibamBattery`]'s [`Battery::death_lower_bound`] leaves below
/// the constant-`i_max` death.
const BOUND_MARGIN: SimTime = SimTime::from_millis(1);

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(v: f64) -> MilliAmps {
        MilliAmps::new(v)
    }

    fn test_battery() -> KibamBattery {
        KibamBattery::new(1000.0, 0.5, 1.0)
    }

    fn run_to_death(b: &mut KibamBattery, current: f64, step_s: u64) -> f64 {
        let mut h = 0.0;
        loop {
            match b.discharge(SimTime::from_secs(step_s), ma(current)) {
                DischargeOutcome::Survived => h += step_s as f64 / 3600.0,
                DischargeOutcome::Exhausted { after } => return h + after.as_hours_f64(),
            }
        }
    }

    #[test]
    fn charge_is_conserved() {
        let mut b = test_battery();
        let before = b.stranded_mah().get();
        b.discharge(SimTime::from_secs(1800), ma(120.0));
        let drawn = 120.0 * 0.5;
        assert!((before - b.stranded_mah().get() - drawn).abs() < 1e-9);
    }

    #[test]
    fn zero_current_conserves_total_but_rebalances() {
        let mut b = test_battery();
        b.discharge(SimTime::from_secs(3600), ma(300.0));
        let total = b.stranded_mah().get();
        let q1_before = b.q1;
        b.discharge(SimTime::from_secs(3600), ma(0.0));
        assert!((b.stranded_mah().get() - total).abs() < 1e-9);
        assert!(b.q1 > q1_before, "rest must refill the available well");
    }

    #[test]
    fn long_rest_reaches_equilibrium_split() {
        let mut b = test_battery();
        b.discharge(SimTime::from_secs(3600), ma(300.0));
        let total = b.stranded_mah().get();
        // Rest for a very long time: q1 → c·total.
        b.discharge(SimTime::from_secs(200 * 3600), ma(0.0));
        assert!((b.q1 - 0.5 * total).abs() < 1e-6);
    }

    #[test]
    fn rate_capacity_effect() {
        let q_slow = {
            let mut b = test_battery();
            let t = run_to_death(&mut b, 50.0, 60);
            50.0 * t
        };
        let q_fast = {
            let mut b = test_battery();
            let t = run_to_death(&mut b, 500.0, 60);
            500.0 * t
        };
        assert!(
            q_slow > q_fast + 50.0,
            "slow {q_slow} mAh should beat fast {q_fast} mAh"
        );
        // Low-rate discharge extracts nearly the nominal capacity.
        assert!(q_slow > 0.9 * 1000.0);
    }

    #[test]
    fn recovery_effect_pulsed_beats_continuous() {
        // Same on-current; pulsed load interleaves rests. Total *on-time*
        // to death must be longer for the pulsed battery.
        let continuous_on_h = {
            let mut b = test_battery();
            run_to_death(&mut b, 400.0, 10)
        };
        let pulsed_on_h = {
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
            pulsed_on_h > continuous_on_h * 1.05,
            "pulsed {pulsed_on_h} h vs continuous {continuous_on_h} h"
        );
    }

    #[test]
    fn death_leaves_stranded_bound_charge() {
        let mut b = test_battery();
        run_to_death(&mut b, 800.0, 10);
        assert!(b.is_exhausted());
        assert!(b.q1 < 1e-6);
        assert!(
            b.q2 > 10.0,
            "high-rate death must strand bound charge, got {}",
            b.q2
        );
        assert!(b.delivered_mah().get() + b.stranded_mah().get() < 1000.0 + 1e-6);
    }

    #[test]
    fn death_time_bisection_is_tight() {
        let mut b = test_battery();
        // One huge segment; death happens inside it.
        match b.discharge(SimTime::from_secs(1_000_000), ma(200.0)) {
            DischargeOutcome::Exhausted { after } => {
                // At the reported instant the available well is empty.
                assert!(b.q1.abs() < 1e-6);
                assert!(after > SimTime::ZERO);
            }
            DischargeOutcome::Survived => panic!("battery should have died"),
        }
    }

    #[test]
    fn segment_size_invariance() {
        // Stepping in 1 s or 100 s chunks must give the same lifetime
        // (closed-form stepping is exact).
        let t_fine = {
            let mut b = test_battery();
            run_to_death(&mut b, 230.0, 1)
        };
        let t_coarse = {
            let mut b = test_battery();
            run_to_death(&mut b, 230.0, 100)
        };
        assert!(
            (t_fine - t_coarse).abs() < 0.03,
            "fine {t_fine} vs coarse {t_coarse}"
        );
    }

    #[test]
    fn death_is_terminal() {
        let mut b = test_battery();
        run_to_death(&mut b, 500.0, 60);
        // Even after a long rest the battery stays dead (the pipeline's view
        // of a failed node, §5.4).
        b.discharge(SimTime::from_secs(36_000), ma(0.0));
        assert!(b.is_exhausted());
        assert_eq!(
            b.discharge(SimTime::from_secs(1), ma(1.0)),
            DischargeOutcome::Exhausted {
                after: SimTime::ZERO
            }
        );
    }

    #[test]
    fn reset_restores_wells() {
        let mut b = test_battery();
        run_to_death(&mut b, 500.0, 60);
        b.reset();
        assert!(!b.is_exhausted());
        assert_eq!(b.q1, 500.0);
        assert_eq!(b.q2, 500.0);
    }

    #[test]
    #[should_panic(expected = "well fraction")]
    fn invalid_c_rejected() {
        let _ = KibamBattery::new(100.0, 1.5, 1.0);
    }

    #[test]
    fn time_to_exhaustion_consistent_with_discharge() {
        for current in [50.0, 130.0, 400.0] {
            let mut b = test_battery();
            // Partially discharge first so the state is non-trivial.
            b.discharge(SimTime::from_secs(1800), ma(200.0));
            let ttd = b.time_to_exhaustion(ma(current)).expect("finite");
            let mut survivor = b.clone();
            assert_eq!(
                survivor.discharge(ttd.scale_f64(0.999), ma(current)),
                DischargeOutcome::Survived,
                "at {current} mA"
            );
            let mut victim = b.clone();
            assert!(
                victim
                    .discharge(ttd + SimTime::from_secs(5), ma(current))
                    .is_exhausted(),
                "at {current} mA"
            );
        }
    }

    #[test]
    fn time_to_exhaustion_zero_current_is_forever() {
        let b = test_battery();
        assert!(b.time_to_exhaustion(ma(0.0)).is_none());
    }

    #[test]
    fn time_to_exhaustion_near_zero_current_is_forever() {
        // (q1+q2)/I for these currents exceeds any representable horizon;
        // the old closed-form bound produced inf/NaN or saturated SimTime,
        // which overflowed callers' event schedules.
        let b = test_battery();
        for i in [1e-300, 1e-12, 1e-7] {
            assert!(b.time_to_exhaustion(ma(i)).is_none(), "current {i} mA");
        }
        // A small but meaningful current still gets a finite answer.
        let ttd = b.time_to_exhaustion(ma(0.1)).expect("finite");
        assert!(ttd.as_hours_f64() > 9000.0 && ttd.as_hours_f64() < 10_100.0);
    }

    #[test]
    fn death_exactly_on_segment_boundary() {
        // Discharge for exactly the predicted time to death: the segment
        // must report exhaustion at (or within rounding of) its end, with
        // the available well empty — not survive, panic, or overshoot.
        let mut b = test_battery();
        b.discharge(SimTime::from_secs(1800), ma(200.0));
        let ttd = b.time_to_exhaustion(ma(300.0)).expect("finite");
        match b.discharge(ttd, ma(300.0)) {
            DischargeOutcome::Exhausted { after } => {
                assert!(after <= ttd);
                assert!(ttd.as_hours_f64() - after.as_hours_f64() < 1e-6);
                assert!(b.q1.abs() < 1e-6);
            }
            DischargeOutcome::Survived => {
                // Bisection rounding may land death one microsecond past the
                // segment; the very next instant must kill it.
                assert!(b
                    .discharge(SimTime::from_micros(2), ma(300.0))
                    .is_exhausted());
            }
        }
        assert!(b.is_exhausted());
    }

    #[test]
    fn pulsed_profile_with_zero_current_rest_segments() {
        // Regression for the zero/near-zero-current guard: a pulsed load
        // with explicit rest segments must advance cleanly (rests rebalance
        // the wells, never divide by zero) and conserve charge to death.
        let mut b = test_battery();
        let mut pulses = 0u32;
        loop {
            let out = b.discharge(SimTime::from_secs(60), ma(450.0));
            if out.is_exhausted() {
                break;
            }
            assert!(b.time_to_exhaustion(ma(1e-9)).is_none());
            b.discharge(SimTime::from_secs(30), ma(0.0));
            pulses += 1;
            assert!(pulses < 100_000, "battery never died");
        }
        assert!(pulses > 10, "unexpectedly short pulsed life: {pulses}");
        let total = b.delivered_mah().get() + b.stranded_mah().get();
        assert!((total - 1000.0).abs() < 1e-6 * 1000.0, "total {total}");
    }

    #[test]
    fn guard_falls_back_on_a_half_microsecond_boundary() {
        let mut b = test_battery();
        b.discharge(SimTime::from_secs(1800), ma(200.0));
        // q1(t) is affine in the current, so pick the current whose root
        // sits exactly halfway between two microseconds.
        let root_h = 7_200_000_000.5 / SimTime::MICROS_PER_HOUR as f64;
        let at = |i: f64| b.wells_after(ma(i), Hours::new(root_h)).0;
        let i = ma(at(0.0) / (at(0.0) - at(1.0)));
        let t_upper = b.exhaustion_bound(i).expect("finite");
        let root = b.newton_root(i, t_upper).expect("converges");
        assert!((root.t - root_h).abs() < 1e-13, "Newton root {} h", root.t);
        assert_eq!(b.guarded_exhaustion(i, t_upper, root), None);
        // The fallback still answers with the bisection's microsecond.
        assert_eq!(
            b.time_to_exhaustion(i),
            Some(SimTime::from_hours_f64(b.death_time(i, t_upper).get()))
        );
        // A root well inside a microsecond passes the guard.
        let t_upper = b.exhaustion_bound(ma(300.0)).expect("finite");
        let root = b.newton_root(ma(300.0), t_upper).expect("converges");
        assert!(b.guarded_exhaustion(ma(300.0), t_upper, root).is_some());
    }

    #[test]
    fn time_to_exhaustion_dead_battery_is_zero() {
        let mut b = test_battery();
        run_to_death(&mut b, 500.0, 60);
        assert_eq!(b.time_to_exhaustion(ma(10.0)), Some(SimTime::ZERO));
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized tests (deterministic, framework-free).

    use super::*;
    use dles_sim::SimRng;

    fn ma(v: f64) -> MilliAmps {
        MilliAmps::new(v)
    }

    /// Total charge is conserved under any random segment sequence:
    /// initial = delivered + stranded (within accumulated fp error).
    #[test]
    fn charge_conservation() {
        let mut rng = SimRng::seed_from_u64(0xC0A5);
        for round in 0..64 {
            let cap = 1000.0;
            let c = rng.uniform_f64(0.1, 0.9);
            let k = rng.uniform_f64(0.05, 5.0);
            let mut b = KibamBattery::new(cap, c, k);
            let n = rng.uniform_u64(1, 49) as usize;
            for _ in 0..n {
                let secs = rng.uniform_u64(1, 3599);
                let i = rng.uniform_f64(0.0, 400.0);
                if b.discharge(SimTime::from_secs(secs), ma(i)).is_exhausted() {
                    break;
                }
            }
            let total = b.delivered_mah().get() + b.stranded_mah().get();
            assert!(
                (total - cap).abs() < 1e-6 * cap,
                "round {round}: delivered {} + stranded {} != {cap}",
                b.delivered_mah().get(),
                b.stranded_mah().get()
            );
        }
    }

    /// Wells never go negative and delivered charge never exceeds the
    /// nominal capacity.
    #[test]
    fn wells_stay_physical() {
        let mut rng = SimRng::seed_from_u64(0x9EE1);
        for _ in 0..64 {
            let mut b = KibamBattery::new(500.0, 0.4, 0.8);
            let n = rng.uniform_u64(1, 39) as usize;
            for _ in 0..n {
                let secs = rng.uniform_u64(1, 7199);
                let i = rng.uniform_f64(0.0, 1000.0);
                b.discharge(SimTime::from_secs(secs), ma(i));
                assert!(b.q1 >= -1e-9);
                assert!(b.q2 >= -1e-9);
                assert!(b.delivered_mah().get() <= 500.0 + 1e-6);
                if b.is_exhausted() {
                    break;
                }
            }
        }
    }

    /// The bisection answer [`Battery::time_to_exhaustion`] must match.
    fn oracle(b: &KibamBattery, i: MilliAmps) -> Option<SimTime> {
        b.exhaustion_bound(i)
            .map(|t| SimTime::from_hours_f64(b.death_time(i, t).get()))
    }

    /// Checked states and how many of them the Newton guard rejected.
    #[derive(Default)]
    struct Tally {
        states: u64,
        fallbacks: u64,
    }

    impl Tally {
        fn check(&mut self, b: &KibamBattery, i: MilliAmps, what: &str) {
            assert!(!b.is_exhausted() && i > MilliAmps::ZERO);
            let expected = oracle(b, i);
            assert_eq!(
                b.time_to_exhaustion(i),
                expected,
                "{what}: {:?} at {i:?}",
                b.params
            );
            self.states += 1;
            if let Some(t_upper) = b.exhaustion_bound(i) {
                match b
                    .newton_root(i, t_upper)
                    .and_then(|root| b.guarded_exhaustion(i, t_upper, root))
                {
                    Some(t) => assert_eq!(Some(t), expected, "{what}"),
                    None => self.fallbacks += 1,
                }
            }
        }
    }

    fn log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
        rng.uniform_f64(lo.ln(), hi.ln()).exp()
    }

    /// A battery of random chemistry and capacity after a random history
    /// of loads and rests that it survives.
    fn random_state(rng: &mut SimRng) -> KibamBattery {
        let cap = log_uniform(rng, 1.0, 5000.0);
        let c = rng.uniform_f64(0.02, 0.98);
        let k = log_uniform(rng, 0.01, 20.0);
        let mut b = KibamBattery::new(cap, c, k);
        for _ in 0..rng.uniform_u64(0, 6) {
            let secs = rng.uniform_u64(1, 36_000);
            let i = if rng.chance(0.25) {
                0.0
            } else {
                log_uniform(rng, 1e-3 * cap, 2.0 * cap)
            };
            let mut next = b.clone();
            if next
                .discharge(SimTime::from_secs(secs), ma(i))
                .is_exhausted()
            {
                break;
            }
            b = next;
        }
        b
    }

    /// Newton plus guard returns the bisection's microsecond on every
    /// state, and falls back to the bisection rarely.
    #[test]
    fn time_to_exhaustion_matches_bisection() {
        let mut rng = SimRng::seed_from_u64(0x7E57);
        let mut tally = Tally::default();
        for _ in 0..100_000 {
            let b = random_state(&mut rng);
            let q0 = b.stranded_mah().get();
            // Conservation bounds between 6 minutes and 1000 hours.
            let i = q0 / log_uniform(&mut rng, 0.1, 1000.0);
            tally.check(&b, ma(i), "random state");
        }
        for _ in 0..500 {
            let cap = log_uniform(&mut rng, 1.0, 5000.0);
            let c = rng.uniform_f64(0.02, 0.98);
            let k = log_uniform(&mut rng, 0.01, 20.0);
            let i = ma(log_uniform(&mut rng, 1e-3 * cap, 10.0 * cap));
            // A fresh pack.
            let fresh = KibamBattery::new(cap, c, k);
            tally.check(&fresh, i, "fresh pack");
            // A nearly empty available well: stop just short of death.
            let ttd = fresh.time_to_exhaustion(i).expect("finite");
            let short = SimTime::from_micros(rng.uniform_u64(1, 1_000_000)).min(ttd);
            let mut low = fresh.clone();
            if !low.discharge(ttd - short, i).is_exhausted() {
                tally.check(&low, i, "nearly empty");
                tally.check(&low, i * 0.1, "nearly empty, lighter load");
            }
            // A long rest that rebalanced the wells.
            let mut rested = random_state(&mut rng);
            rested.discharge(SimTime::from_secs(10_000 * 3600), MilliAmps::ZERO);
            tally.check(&rested, i, "long rest");
            // The paper's pack B at a sliver of its capacity.
            let tiny = KibamBattery::from_params(crate::packs::itsy_pack_b().kibam.scaled(0.002));
            tally.check(&tiny, ma(rng.uniform_f64(20.0, 400.0)), "pack B × 0.002");
            // Currents that put the conservation bound near the horizon.
            let q0 = rested.stranded_mah().get();
            let far = ma(q0 / 1.0e9 * rng.uniform_f64(0.5, 2.0));
            tally.check(&rested, far, "near the horizon");
        }
        assert!(tally.states >= 100_000);
        assert!(
            tally.fallbacks * 10 < tally.states,
            "{} of {} states fell back to bisection",
            tally.fallbacks,
            tally.states
        );
    }

    /// Step `b` through random segments of random loads drawn by `load`
    /// until it dies, returning its death time, or `None` once `limit`
    /// has passed alive.
    fn steps_to_death(
        rng: &mut SimRng,
        b: &mut KibamBattery,
        limit: SimTime,
        mut load: impl FnMut(&mut SimRng) -> MilliAmps,
    ) -> Option<SimTime> {
        let mut elapsed = SimTime::ZERO;
        while elapsed <= limit {
            // Some segments far shorter than the bound, some a sizeable
            // share of it, as a node's power states are.
            let longest = if rng.chance(0.5) {
                1_000_000
            } else {
                (limit.as_micros() / 4).max(1)
            };
            let seg = SimTime::from_micros(rng.uniform_u64(1, longest));
            match b.discharge(seg, load(rng)) {
                DischargeOutcome::Survived => elapsed += seg,
                DischargeOutcome::Exhausted { after } => return Some(elapsed + after),
            }
        }
        None
    }

    /// The proof obligation of [`Battery::death_lower_bound`]: from a
    /// random state, no piecewise-constant load in `[0, I_max]` kills the
    /// battery before the bound, and a constant `I_max` kills it within
    /// the margin after it.
    #[test]
    fn death_lower_bound_holds_under_any_bounded_load() {
        let mut rng = SimRng::seed_from_u64(0xB0DE);
        let mut varied_deaths = 0u32;
        for _ in 0..2_000 {
            let start = random_state(&mut rng);
            let q0 = start.stranded_mah().get();
            let i_max = ma(q0 / log_uniform(&mut rng, 0.1, 1000.0));
            let bound = start.death_lower_bound(i_max).expect("finite");

            let mut b = start.clone();
            let varied = steps_to_death(&mut rng, &mut b, bound * 2, |rng| {
                if rng.chance(0.5) {
                    i_max
                } else {
                    ma(rng.uniform_f64(0.0, i_max.get()))
                }
            });
            if let Some(death) = varied {
                assert!(death >= bound, "died at {death:?}, bound {bound:?}");
                varied_deaths += 1;
            }

            let mut b = start.clone();
            let limit = bound + BOUND_MARGIN + SimTime::from_secs(1);
            let death = steps_to_death(&mut rng, &mut b, limit, |_| i_max).expect("dies");
            assert!(
                death >= bound && death <= bound + BOUND_MARGIN + SimTime::from_micros(2),
                "constant I_max died at {death:?}, bound {bound:?}"
            );
        }
        assert!(
            varied_deaths > 200,
            "only {varied_deaths} varied loads died by twice the bound"
        );
    }

    /// Lifetime at constant current is antitone in the current.
    #[test]
    fn lifetime_monotone_in_current() {
        let life = |i: f64| {
            let mut b = KibamBattery::new(800.0, 0.5, 1.0);
            let mut h = 0.0;
            loop {
                match b.discharge(SimTime::from_secs(600), ma(i)) {
                    DischargeOutcome::Survived => h += 600.0 / 3600.0,
                    DischargeOutcome::Exhausted { after } => return h + after.as_hours_f64(),
                }
            }
        };
        let mut rng = SimRng::seed_from_u64(0x10AD);
        for _ in 0..32 {
            let i1 = rng.uniform_f64(50.0, 300.0);
            let di = rng.uniform_f64(10.0, 300.0);
            assert!(life(i1) > life(i1 + di), "i1 {i1} di {di}");
        }
    }
}
