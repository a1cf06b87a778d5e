//! The Compute Distance block: estimate target range by scale sweep.
//!
//! Apparent size is inversely proportional to distance, so the block
//! correlates the region of interest against renditions of the recognized
//! class at a ladder of scales (each a full frequency-domain correlation)
//! and converts the best-responding scale into a range estimate, refined
//! by parabolic interpolation over the score curve. The sweep makes this
//! the most expensive block — matching its position in the paper's Fig. 6
//! profile (0.53 s, the largest share).

use crate::complexnum::Complex;
use crate::detect::ROI_SIZE;
use crate::fft::{fft2d_in_place, fft2d_real};
use crate::image::Image;
use crate::template::{TargetClass, Template};

/// The default scale ladder swept by the block, pixels.
pub const DEFAULT_SCALES: [usize; 8] = [8, 10, 12, 14, 16, 20, 24, 28];

/// A range estimate for one recognized target.
#[derive(Debug, Clone, Copy)]
pub struct DistanceEstimate {
    pub class: TargetClass,
    /// Estimated range, metres.
    pub distance_m: f64,
    /// The scale (pixels) that responded best.
    pub best_size: usize,
    /// Peak correlation at the best scale.
    pub score: f64,
}

/// Correlate `patch` against renditions of `class` at each scale in
/// `scales` and estimate the distance. Returns the estimate and the block's
/// work count.
pub fn compute_distance(
    patch: &Image,
    class: TargetClass,
    scales: &[usize],
) -> (DistanceEstimate, u64) {
    assert_eq!(patch.width(), ROI_SIZE);
    assert_eq!(patch.height(), ROI_SIZE);
    assert!(!scales.is_empty(), "empty scale ladder");

    let template = Template::render(class);
    let normalized = patch.normalized();
    let (patch_spec, mut flops) = fft2d_real(normalized.pixels(), ROI_SIZE, ROI_SIZE);

    let mut responses: Vec<(usize, f64)> = Vec::with_capacity(scales.len());
    // One matched-filter buffer reused across the scale ladder, instead of
    // a fresh `collect` per scale.
    let mut product: Vec<Complex> = Vec::with_capacity(patch_spec.len());
    for &size in scales {
        let size = size.min(ROI_SIZE);
        // Render, normalize and pad the scaled template.
        let scaled = template.scaled(size).normalized();
        let mut tile = Image::zeros(ROI_SIZE, ROI_SIZE);
        for y in 0..size {
            for x in 0..size {
                tile.set(x, y, scaled.get(x, y));
            }
        }
        // Forward transform of the rendition.
        let (tmpl_spec, f) = fft2d_real(tile.pixels(), ROI_SIZE, ROI_SIZE);
        flops += f;
        // Matched filter product and inverse transform.
        product.clear();
        product.extend(
            patch_spec
                .iter()
                .zip(&tmpl_spec)
                .map(|(a, b)| *a * b.conj()),
        );
        flops += 6 * (ROI_SIZE * ROI_SIZE) as u64;
        flops += fft2d_in_place(&mut product, ROI_SIZE, ROI_SIZE, true);
        // Peak response at this scale.
        let peak = product
            .iter()
            .map(|z| z.re)
            .fold(f64::NEG_INFINITY, f64::max);
        flops += (ROI_SIZE * ROI_SIZE) as u64;
        responses.push((size, peak));
    }

    // Pick the best scale and refine with a parabolic fit over the
    // (index, score) curve when interior.
    let best_idx = responses
        .iter()
        .enumerate()
        // `total_cmp`: a NaN response ranks above all finite scores, so a
        // degenerate correlation stays deterministic instead of panicking.
        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map(|(i, _)| i)
        // Non-empty invariant: the scale ladder is asserted non-empty
        // above and every scale pushes one response, so this cannot fire.
        .expect("non-empty responses");
    let (best_size, best_score) = responses[best_idx];

    let refined_size = if best_idx > 0 && best_idx + 1 < responses.len() {
        let (s0, y0) = responses[best_idx - 1];
        let (s1, y1) = responses[best_idx];
        let (s2, y2) = responses[best_idx + 1];
        parabolic_vertex(s0 as f64, y0, s1 as f64, y1, s2 as f64, y2)
    } else {
        best_size as f64
    };

    let distance_m = template.reference_distance_m * crate::template::TEMPLATE_SIZE as f64
        / refined_size.max(1.0);

    (
        DistanceEstimate {
            class,
            distance_m,
            best_size,
            score: best_score,
        },
        flops,
    )
}

/// Vertex abscissa of the parabola through three points; falls back to the
/// middle point when the points are collinear.
fn parabolic_vertex(x0: f64, y0: f64, x1: f64, y1: f64, x2: f64, y2: f64) -> f64 {
    // Newton form: p(x) = y0 + d1(x−x0) + c(x−x0)(x−x1);
    // p'(x) = 0 at (x0+x1)/2 − d1/(2c).
    let d1 = (y1 - y0) / (x1 - x0);
    let d2 = (y2 - y1) / (x2 - x1);
    let curvature = (d2 - d1) / (x2 - x0);
    if curvature.abs() < 1e-12 {
        return x1;
    }
    let vertex = (x0 + x1) / 2.0 - d1 / (2.0 * curvature);
    vertex.clamp(x0, x2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A patch with `class` rendered at exactly `size` pixels.
    fn patch_at_scale(class: TargetClass, size: usize) -> Image {
        let t = Template::render(class).scaled(size);
        let mut img = Image::zeros(ROI_SIZE, ROI_SIZE);
        let off = (ROI_SIZE - size) / 2;
        for y in 0..size {
            for x in 0..size {
                img.set(x + off, y + off, t.get(x, y) + 40.0);
            }
        }
        img
    }

    #[test]
    fn recovers_the_rendered_scale() {
        for &size in &[10usize, 16, 24] {
            let patch = patch_at_scale(TargetClass::Tank, size);
            let (est, _) = compute_distance(&patch, TargetClass::Tank, &DEFAULT_SCALES);
            assert!(
                (est.best_size as i64 - size as i64).unsigned_abs() <= 2,
                "rendered {size}, best {}",
                est.best_size
            );
        }
    }

    #[test]
    fn distance_decreases_with_apparent_size() {
        let (near, _) = compute_distance(
            &patch_at_scale(TargetClass::Truck, 24),
            TargetClass::Truck,
            &DEFAULT_SCALES,
        );
        let (far, _) = compute_distance(
            &patch_at_scale(TargetClass::Truck, 10),
            TargetClass::Truck,
            &DEFAULT_SCALES,
        );
        assert!(
            near.distance_m < far.distance_m,
            "near {} m vs far {} m",
            near.distance_m,
            far.distance_m
        );
    }

    #[test]
    fn distance_is_physically_calibrated() {
        // Reference scale (16 px) maps to the reference distance (500 m)
        // within the ladder's resolution.
        let patch = patch_at_scale(TargetClass::Bunker, 16);
        let (est, _) = compute_distance(&patch, TargetClass::Bunker, &DEFAULT_SCALES);
        assert!(
            (est.distance_m - 500.0).abs() < 120.0,
            "estimated {} m",
            est.distance_m
        );
    }

    #[test]
    fn sweep_cost_scales_with_ladder_length() {
        let patch = patch_at_scale(TargetClass::Tank, 16);
        let (_, f_small) = compute_distance(&patch, TargetClass::Tank, &DEFAULT_SCALES[..2]);
        let (_, f_full) = compute_distance(&patch, TargetClass::Tank, &DEFAULT_SCALES);
        assert!(f_full > 3 * f_small, "full {f_full} vs small {f_small}");
    }

    #[test]
    fn parabolic_vertex_exact_on_parabola() {
        // y = -(x-5)² + 3 sampled at 4, 5, 6.
        let f = |x: f64| -(x - 5.0) * (x - 5.0) + 3.0;
        let v = parabolic_vertex(4.0, f(4.0), 5.0, f(5.0), 6.0, f(6.0));
        assert!((v - 5.0).abs() < 1e-12);
        // Asymmetric sampling still recovers the vertex.
        let v2 = parabolic_vertex(3.0, f(3.0), 5.0, f(5.0), 6.0, f(6.0));
        assert!((v2 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn collinear_points_fall_back_to_middle() {
        let v = parabolic_vertex(1.0, 1.0, 2.0, 2.0, 3.0, 3.0);
        assert_eq!(v, 2.0);
    }

    #[test]
    #[should_panic(expected = "empty scale ladder")]
    fn empty_ladder_rejected() {
        let patch = patch_at_scale(TargetClass::Tank, 16);
        let _ = compute_distance(&patch, TargetClass::Tank, &[]);
    }
}
