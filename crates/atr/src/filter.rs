//! The FFT and IFFT blocks: frequency-domain matched filtering.
//!
//! "For each target, a region of interest is extracted and filtered by
//! templates" (§3). The FFT block transforms the ROI and multiplies its
//! spectrum by the conjugate spectrum of each template (a matched filter);
//! the IFFT block inverts the products and scans the correlation surfaces
//! for the best-matching class and alignment.

use crate::complexnum::Complex;
use crate::detect::ROI_SIZE;
use crate::fft::{fft2d_in_place, fft2d_real};
use crate::image::Image;
use crate::template::{TargetClass, Template};

/// Pre-computed conjugate template spectra at ROI scale — built once per
/// pipeline, not counted against per-frame block work (the paper's nodes
/// likewise load their code/tables once).
#[derive(Debug, Clone)]
pub struct TemplateSpectra {
    entries: Vec<(TargetClass, Vec<Complex>)>,
}

impl TemplateSpectra {
    /// Build from a template bank: each template is normalized, zero-padded
    /// into an ROI-sized tile, transformed, and conjugated.
    pub fn build(bank: &[Template]) -> Self {
        let entries = bank
            .iter()
            .map(|t| {
                let mut tile = Image::zeros(ROI_SIZE, ROI_SIZE);
                let norm = t.image.normalized();
                for y in 0..norm.height().min(ROI_SIZE) {
                    for x in 0..norm.width().min(ROI_SIZE) {
                        tile.set(x, y, norm.get(x, y));
                    }
                }
                let (spec, _) = fft2d_real(tile.pixels(), ROI_SIZE, ROI_SIZE);
                let conj: Vec<Complex> = spec.into_iter().map(Complex::conj).collect();
                (t.class, conj)
            })
            .collect();
        TemplateSpectra { entries }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Output of the FFT block: one filtered spectrum per template class.
#[derive(Debug, Clone)]
pub struct FilteredSpectra {
    products: Vec<(TargetClass, Vec<Complex>)>,
}

/// The FFT block: transform a (normalized) ROI patch and apply each
/// matched filter in the frequency domain. Returns the filtered spectra
/// and the block's work count.
pub fn fft_block(patch: &Image, spectra: &TemplateSpectra) -> (FilteredSpectra, u64) {
    assert_eq!(patch.width(), ROI_SIZE);
    assert_eq!(patch.height(), ROI_SIZE);
    let normalized = patch.normalized();
    let (patch_spec, mut flops) = fft2d_real(normalized.pixels(), ROI_SIZE, ROI_SIZE);
    flops += 4 * (ROI_SIZE * ROI_SIZE) as u64; // normalization pass

    let products = spectra
        .entries
        .iter()
        .map(|(class, conj_spec)| {
            let product: Vec<Complex> = patch_spec
                .iter()
                .zip(conj_spec)
                .map(|(a, b)| *a * *b)
                .collect();
            (*class, product)
        })
        .collect();
    flops += 6 * (spectra.len() * ROI_SIZE * ROI_SIZE) as u64; // complex muls

    (FilteredSpectra { products }, flops)
}

/// Best correlation match found by the IFFT block.
#[derive(Debug, Clone, Copy)]
pub struct MatchResult {
    pub class: TargetClass,
    /// Peak normalized-correlation value.
    pub score: f64,
    /// Circular correlation peak offset within the ROI.
    pub dx: usize,
    pub dy: usize,
}

/// The IFFT block: invert each filtered spectrum and scan the correlation
/// surfaces for the global peak. Returns the best match and the block's
/// work count.
pub fn ifft_block(filtered: &FilteredSpectra) -> (MatchResult, u64) {
    assert!(!filtered.products.is_empty(), "no filtered spectra");
    let mut flops = 0u64;
    let mut best: Option<MatchResult> = None;
    // One inversion buffer reused across classes, instead of cloning each
    // product spectrum.
    let mut surface: Vec<Complex> = Vec::new();
    for (class, product) in &filtered.products {
        surface.clear();
        surface.extend_from_slice(product);
        flops += fft2d_in_place(&mut surface, ROI_SIZE, ROI_SIZE, true);
        for (i, z) in surface.iter().enumerate() {
            let v = z.re; // correlation of real signals is real up to fp noise
            if best.is_none_or(|b| v > b.score) {
                best = Some(MatchResult {
                    class: *class,
                    score: v,
                    dx: i % ROI_SIZE,
                    dy: i / ROI_SIZE,
                });
            }
        }
        flops += (ROI_SIZE * ROI_SIZE) as u64; // peak scan
    }
    // Non-empty invariant: the pipeline's template bank is statically
    // non-empty and the assert above rejects an empty input, so some
    // surface cell always sets `best` and this cannot fire.
    (best.expect("at least one product"), flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneBuilder;
    use crate::template::Template;

    fn spectra() -> TemplateSpectra {
        TemplateSpectra::build(&Template::bank())
    }

    /// A patch containing exactly one rendered template at reference scale.
    fn patch_with(class: TargetClass) -> Image {
        let t = Template::render(class);
        let mut img = Image::zeros(ROI_SIZE, ROI_SIZE);
        for y in 0..t.image.height() {
            for x in 0..t.image.width() {
                img.set(x + 8, y + 8, t.image.get(x, y) + 50.0);
            }
        }
        img
    }

    #[test]
    fn matched_filter_identifies_the_right_class() {
        let s = spectra();
        for class in TargetClass::ALL {
            let patch = patch_with(class);
            let (filtered, _) = fft_block(&patch, &s);
            let (m, _) = ifft_block(&filtered);
            assert_eq!(m.class, class, "misclassified {}", class.name());
        }
    }

    #[test]
    fn correlation_score_is_near_one_for_exact_match() {
        // Normalized template correlated with itself peaks at ~1 (both
        // sides unit-energy; circular correlation at zero lag = inner
        // product). Build the patch exactly as the spectra were built:
        // per-template normalization, then zero-padding — so the tile is
        // already zero-mean/unit-energy and `fft_block`'s normalization is
        // the identity.
        let s = spectra();
        let t = Template::render(TargetClass::Tank);
        let norm = t.image.normalized();
        let mut tile = Image::zeros(ROI_SIZE, ROI_SIZE);
        for y in 0..norm.height() {
            for x in 0..norm.width() {
                tile.set(x, y, norm.get(x, y));
            }
        }
        let (filtered, _) = fft_block(&tile, &s);
        let (m, _) = ifft_block(&filtered);
        assert_eq!(m.class, TargetClass::Tank);
        assert!(m.score > 0.9, "score {}", m.score);
        assert_eq!((m.dx, m.dy), (0, 0));
    }

    #[test]
    fn peak_offset_tracks_target_shift() {
        let s = spectra();
        let t = Template::render(TargetClass::Bunker);
        let (sx, sy) = (5usize, 9usize);
        let mut tile = Image::zeros(ROI_SIZE, ROI_SIZE);
        for y in 0..t.image.height() {
            for x in 0..t.image.width() {
                tile.set(x + sx, y + sy, t.image.get(x, y));
            }
        }
        let (filtered, _) = fft_block(&tile, &s);
        let (m, _) = ifft_block(&filtered);
        assert_eq!((m.dx, m.dy), (sx, sy), "peak at wrong lag");
    }

    #[test]
    fn works_on_generated_scenes() {
        let scene = SceneBuilder::new(128, 80)
            .seed(5)
            .targets(1)
            .noise_sigma(4.0)
            .build();
        let truth = &scene.truth[0];
        let patch = scene.image.patch(
            truth.x as isize - 4,
            truth.y as isize - 4,
            ROI_SIZE,
            ROI_SIZE,
        );
        let (filtered, _) = fft_block(&patch, &spectra());
        let (m, _) = ifft_block(&filtered);
        assert!(m.score > 0.2, "weak correlation {}", m.score);
    }

    #[test]
    fn ifft_block_costs_more_than_fft_block() {
        // Fig. 6 rank: IFFT (0.32 s) > FFT (0.19 s). Our implementation
        // mirrors that: one forward transform vs. one inverse per template.
        let s = spectra();
        let patch = patch_with(TargetClass::Truck);
        let (filtered, fft_flops) = fft_block(&patch, &s);
        let (_, ifft_flops) = ifft_block(&filtered);
        assert!(
            ifft_flops > fft_flops,
            "ifft {ifft_flops} <= fft {fft_flops}"
        );
    }
}
