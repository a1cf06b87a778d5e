//! Fitting battery parameters to measured lifetime anchors.
//!
//! The paper publishes, for each experiment, the load shape (from the power
//! profile) and the measured battery lifetime. [`calibrate_kibam`] fits the
//! three KiBaM parameters (capacity, well split `c`, rate constant `k`) to
//! any set of such anchors by minimizing the mean squared *relative*
//! lifetime error with Nelder–Mead in an unconstrained reparameterization
//! (`ln C`, `logit c`, `ln k`). Anchor lifetimes are evaluated in parallel
//! through the deterministic work-pull map [`dles_sim::par_map`] —
//! each anchor's discharge simulation is independent, and the objective
//! value does not depend on the worker count.

use crate::kibam::{KibamBattery, KibamParams};
use crate::profile::{simulate_lifetime, LoadProfile};
use dles_units::MilliAmpHours;

/// One calibration anchor: a load and the lifetime the paper measured.
#[derive(Debug, Clone)]
pub struct Anchor {
    /// Experiment label, e.g. `"1A"` (for reporting).
    pub label: String,
    /// The discharge load.
    pub profile: LoadProfile,
    /// The measured battery lifetime in hours.
    pub measured_hours: f64,
    /// Relative weight of this anchor in the objective.
    pub weight: f64,
}

impl Anchor {
    pub fn new(label: &str, profile: LoadProfile, measured_hours: f64) -> Self {
        assert!(measured_hours > 0.0, "measured lifetime must be positive");
        Anchor {
            label: label.to_owned(),
            profile,
            measured_hours,
            weight: 1.0,
        }
    }

    pub fn weighted(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// Outcome of a calibration run.
#[derive(Debug, Clone)]
pub struct CalibrationResult {
    pub params: KibamParams,
    /// Final objective value (weighted mean squared relative error).
    pub objective: f64,
    /// Per-anchor (label, predicted hours, measured hours).
    pub residuals: Vec<(String, f64, f64)>,
    pub iterations: usize,
}

/// Predicted lifetime (hours) of a KiBaM battery under a profile.
pub(crate) fn predict_hours(params: KibamParams, profile: &LoadProfile) -> f64 {
    let mut b = KibamBattery::from_params(params);
    simulate_lifetime(&mut b, profile).lifetime.as_hours_f64()
}

fn objective(params: KibamParams, anchors: &[Anchor]) -> f64 {
    // Evaluate anchors in parallel; battery discharge sims are independent.
    let total_weight: f64 = anchors.iter().map(|a| a.weight).sum();
    let errors = dles_sim::par_map(anchors, 0, |anchor| {
        let predicted = predict_hours(params, &anchor.profile);
        let rel = (predicted - anchor.measured_hours) / anchor.measured_hours;
        anchor.weight * rel * rel
    });
    let sum: f64 = errors.iter().sum();
    sum / total_weight
}

fn decode(x: &[f64; 3]) -> KibamParams {
    KibamParams {
        capacity_mah: MilliAmpHours::new(x[0].exp()),
        c: 1.0 / (1.0 + (-x[1]).exp()),
        k: x[2].exp(),
    }
}

fn encode(p: KibamParams) -> [f64; 3] {
    [
        p.capacity_mah.get().ln(),
        (p.c / (1.0 - p.c)).ln(),
        p.k.ln(),
    ]
}

/// Fit KiBaM parameters to `anchors`, starting from `initial`.
pub fn calibrate_kibam(
    anchors: &[Anchor],
    initial: KibamParams,
    max_iters: usize,
) -> CalibrationResult {
    assert!(!anchors.is_empty(), "need at least one anchor");
    let f = |x: &[f64; 3]| objective(decode(x), anchors);
    let mut nm = NelderMead::new(encode(initial), 0.25);
    let iterations = nm.minimize(&f, max_iters, 1e-10);
    let params = decode(&nm.best_point());
    let residuals = anchors
        .iter()
        .map(|a| {
            (
                a.label.clone(),
                predict_hours(params, &a.profile),
                a.measured_hours,
            )
        })
        .collect();
    CalibrationResult {
        params,
        objective: nm.best_value(),
        residuals,
        iterations,
    }
}

/// A small, dependency-free Nelder–Mead simplex minimizer over ℝ³.
///
/// Standard coefficients: reflection 1, expansion 2, contraction ½,
/// shrink ½. Exposed publicly so other crates can reuse it for their own
/// small fits (e.g. fitting the serial-link startup latency).
pub struct NelderMead {
    simplex: Vec<([f64; 3], f64)>,
    initialized: bool,
    step: f64,
}

impl NelderMead {
    pub fn new(start: [f64; 3], step: f64) -> Self {
        let mut simplex = Vec::with_capacity(4);
        simplex.push((start, f64::INFINITY));
        for i in 0..3 {
            let mut v = start;
            v[i] += step;
            simplex.push((v, f64::INFINITY));
        }
        NelderMead {
            simplex,
            initialized: false,
            step,
        }
    }

    pub(crate) fn best_point(&self) -> [f64; 3] {
        self.simplex[0].0
    }

    pub fn best_value(&self) -> f64 {
        self.simplex[0].1
    }

    /// Run up to `max_iters` iterations or until the simplex's value spread
    /// drops below `tol`. Returns the iteration count used.
    pub fn minimize<F: Fn(&[f64; 3]) -> f64>(
        &mut self,
        f: &F,
        max_iters: usize,
        tol: f64,
    ) -> usize {
        if !self.initialized {
            for entry in &mut self.simplex {
                entry.1 = f(&entry.0);
            }
            self.initialized = true;
        }
        let _ = self.step;
        for iter in 0..max_iters {
            // `total_cmp` ranks a NaN objective as worst (it sorts last),
            // so a pathological parameter region cannot panic the fit.
            self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
            let spread = self.simplex[3].1 - self.simplex[0].1;
            if spread.abs() < tol {
                return iter;
            }
            // Centroid of the best three.
            let mut centroid = [0.0; 3];
            for (p, _) in &self.simplex[..3] {
                for (c, v) in centroid.iter_mut().zip(p) {
                    *c += v / 3.0;
                }
            }
            let worst = self.simplex[3];
            let reflect = Self::combine(&centroid, &worst.0, 1.0);
            let f_reflect = f(&reflect);
            if f_reflect < self.simplex[0].1 {
                // Try to expand.
                let expand = Self::combine(&centroid, &worst.0, 2.0);
                let f_expand = f(&expand);
                self.simplex[3] = if f_expand < f_reflect {
                    (expand, f_expand)
                } else {
                    (reflect, f_reflect)
                };
            } else if f_reflect < self.simplex[2].1 {
                self.simplex[3] = (reflect, f_reflect);
            } else {
                // Contract toward the centroid.
                let contract = Self::combine(&centroid, &worst.0, -0.5);
                let f_contract = f(&contract);
                if f_contract < worst.1 {
                    self.simplex[3] = (contract, f_contract);
                } else {
                    // Shrink toward the best vertex.
                    let best = self.simplex[0].0;
                    for entry in &mut self.simplex[1..] {
                        for (x, b) in entry.0.iter_mut().zip(&best) {
                            *x = b + 0.5 * (*x - b);
                        }
                        entry.1 = f(&entry.0);
                    }
                }
            }
        }
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        max_iters
    }

    /// `centroid + coeff · (centroid − worst)`; negative `coeff` contracts.
    fn combine(centroid: &[f64; 3], worst: &[f64; 3], coeff: f64) -> [f64; 3] {
        let mut out = [0.0; 3];
        for i in 0..3 {
            out[i] = centroid[i] + coeff * (centroid[i] - worst[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LoadStep;

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let f = |x: &[f64; 3]| {
            (x[0] - 1.0).powi(2) + 2.0 * (x[1] + 2.0).powi(2) + 0.5 * (x[2] - 3.0).powi(2)
        };
        let mut nm = NelderMead::new([0.0, 0.0, 0.0], 0.5);
        nm.minimize(&f, 2000, 1e-14);
        let p = nm.best_point();
        assert!((p[0] - 1.0).abs() < 1e-4, "{p:?}");
        assert!((p[1] + 2.0).abs() < 1e-4, "{p:?}");
        assert!((p[2] - 3.0).abs() < 1e-4, "{p:?}");
    }

    #[test]
    fn nelder_mead_survives_nan_objective_regions() {
        // Before total_cmp this panicked ("NaN objective") the first time the
        // simplex wandered into the invalid region; with total_cmp the NaN
        // vertex just ranks worst and the fit walks away from it.
        let f = |x: &[f64; 3]| {
            if x[0] < -0.5 {
                f64::NAN
            } else {
                (x[0] - 1.0).powi(2) + x[1] * x[1] + x[2] * x[2]
            }
        };
        let mut nm = NelderMead::new([-0.4, 1.0, 1.0], 0.8);
        nm.minimize(&f, 2000, 1e-12);
        let p = nm.best_point();
        assert!(nm.best_value().is_finite(), "best must never be NaN");
        assert!((p[0] - 1.0).abs() < 1e-3, "{p:?}");
    }

    #[test]
    fn nelder_mead_all_nan_batch_terminates() {
        // Even a fully degenerate objective must terminate deterministically.
        let f = |_: &[f64; 3]| f64::NAN;
        let mut nm = NelderMead::new([0.0, 0.0, 0.0], 0.5);
        let iters = nm.minimize(&f, 50, 1e-12);
        assert!(iters <= 50);
    }

    #[test]
    fn nelder_mead_rosenbrock_2d() {
        // Classic banana function embedded in the first two coords.
        let f = |x: &[f64; 3]| {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2) + x[2] * x[2]
        };
        let mut nm = NelderMead::new([-1.2, 1.0, 0.5], 0.5);
        nm.minimize(&f, 5000, 1e-16);
        let p = nm.best_point();
        assert!(
            (p[0] - 1.0).abs() < 1e-2 && (p[1] - 1.0).abs() < 1e-2,
            "{p:?}"
        );
    }

    #[test]
    fn calibration_recovers_known_parameters() {
        // Generate synthetic anchors from a ground-truth battery, then check
        // the fit reproduces the anchor lifetimes (parameters themselves may
        // be weakly identified; lifetimes are what matter downstream).
        let truth = KibamParams {
            capacity_mah: MilliAmpHours::new(900.0),
            c: 0.55,
            k: 1.4,
        };
        let profiles = [
            LoadProfile::constant(130.0),
            LoadProfile::constant(60.0),
            LoadProfile::repeating(vec![
                LoadStep::from_secs(1.1, 130.0),
                LoadStep::from_secs(1.2, 40.0),
            ]),
        ];
        let anchors: Vec<Anchor> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| Anchor::new(&format!("a{i}"), p.clone(), predict_hours(truth, p)))
            .collect();
        let start = KibamParams {
            capacity_mah: MilliAmpHours::new(600.0),
            c: 0.4,
            k: 0.5,
        };
        let result = calibrate_kibam(&anchors, start, 300);
        for (label, predicted, measured) in &result.residuals {
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.02,
                "{label}: predicted {predicted}, measured {measured}"
            );
        }
        assert!(result.objective < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least one anchor")]
    fn empty_anchor_set_rejected() {
        let start = KibamParams {
            capacity_mah: MilliAmpHours::new(100.0),
            c: 0.5,
            k: 1.0,
        };
        let _ = calibrate_kibam(&[], start, 10);
    }
}
