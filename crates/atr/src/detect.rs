//! The Target Detection block: find candidate regions of interest.
//!
//! A cheap two-stage detector, deliberately the lightest block of the
//! pipeline (Fig. 6 gives it the smallest latency): box-downsample the
//! frame, score local contrast against the frame statistics, and return
//! non-overlapping peaks as fixed-size regions of interest for the
//! matched-filter stages.

use crate::image::Image;

/// Edge length of the square region of interest handed to the FFT block.
/// Power of two (the FFT requirement) and large enough to contain the
/// biggest rendition the scene generator paints (24 px) plus margin.
pub(crate) const ROI_SIZE: usize = 32;

/// A detected candidate region, centred on `(cx, cy)` in frame coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roi {
    pub cx: usize,
    pub cy: usize,
    /// Detection score (local contrast in σ units).
    pub score: f64,
}

impl Roi {
    /// Extract this ROI's `ROI_SIZE × ROI_SIZE` patch (zero-padded at the
    /// frame edges).
    pub fn extract(&self, frame: &Image) -> Image {
        let half = (ROI_SIZE / 2) as isize;
        frame.patch(
            self.cx as isize - half,
            self.cy as isize - half,
            ROI_SIZE,
            ROI_SIZE,
        )
    }
}

/// Detection configuration.
#[derive(Debug, Clone, Copy)]
pub struct DetectConfig {
    /// Box-downsampling factor of the coarse pass.
    pub downsample: usize,
    /// Detection threshold in units of frame σ.
    pub threshold_sigma: f64,
    /// Maximum candidates to return (best first).
    pub max_targets: usize,
    /// Minimum separation between accepted peaks, full-res pixels.
    pub min_separation: usize,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            downsample: 2,
            threshold_sigma: 1.6,
            max_targets: 4,
            min_separation: ROI_SIZE / 2,
        }
    }
}

/// Run target detection. Returns the candidate ROIs (highest score first)
/// and the arithmetic-work count of the block.
pub fn detect_targets(frame: &Image, config: &DetectConfig) -> (Vec<Roi>, u64) {
    let mut flops = 0u64;

    // Coarse pass: box downsample.
    let coarse = frame.downsample(config.downsample);
    flops += (frame.width() * frame.height()) as u64; // one add per pixel

    // Frame statistics on the coarse image.
    let mean = coarse.mean();
    let sigma = coarse.variance().sqrt().max(1e-9);
    flops += 3 * (coarse.width() * coarse.height()) as u64;

    // Score: 3×3-smoothed contrast above the mean, in σ units.
    let (cw, ch) = (coarse.width(), coarse.height());
    let mut scores = vec![0.0f64; cw * ch];
    for y in 0..ch {
        for x in 0..cw {
            let mut acc = 0.0;
            let mut n = 0.0;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let sx = x as i64 + dx;
                    let sy = y as i64 + dy;
                    if sx >= 0 && sy >= 0 && (sx as usize) < cw && (sy as usize) < ch {
                        acc += coarse.get(sx as usize, sy as usize);
                        n += 1.0;
                    }
                }
            }
            scores[y * cw + x] = (acc / n - mean) / sigma;
        }
    }
    flops += 11 * (cw * ch) as u64;

    // Peak picking with greedy non-max suppression.
    let mut candidates: Vec<(f64, usize, usize)> = scores
        .iter()
        .enumerate()
        .filter(|(_, &s)| s >= config.threshold_sigma)
        .map(|(i, &s)| (s, i % cw, i / cw))
        .collect();
    // Descending by score; `total_cmp` keeps the order total (a NaN score
    // sorts first, as the largest value) instead of panicking.
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    flops += (candidates.len().max(1) as u64).ilog2() as u64 * candidates.len() as u64;

    let mut accepted: Vec<Roi> = Vec::new();
    let min_sep = config.min_separation as f64;
    for (score, cx, cy) in candidates {
        if accepted.len() >= config.max_targets {
            break;
        }
        let fx = cx * config.downsample + config.downsample / 2;
        let fy = cy * config.downsample + config.downsample / 2;
        let far_enough = accepted.iter().all(|r| {
            let dx = r.cx as f64 - fx as f64;
            let dy = r.cy as f64 - fy as f64;
            (dx * dx + dy * dy).sqrt() >= min_sep
        });
        if far_enough {
            accepted.push(Roi {
                cx: fx,
                cy: fy,
                score,
            });
        }
    }

    (accepted, flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneBuilder;

    fn hit(roi: &Roi, tx: usize, ty: usize, tsize: usize) -> bool {
        // ROI centre within the target's bounding box, with a small margin.
        let margin = 6isize;
        let cx = roi.cx as isize;
        let cy = roi.cy as isize;
        cx >= tx as isize - margin
            && cx <= (tx + tsize) as isize + margin
            && cy >= ty as isize - margin
            && cy <= (ty + tsize) as isize + margin
    }

    #[test]
    fn finds_a_clear_target() {
        let scene = SceneBuilder::new(128, 80)
            .seed(5)
            .targets(1)
            .noise_sigma(4.0)
            .build();
        let (rois, flops) = detect_targets(&scene.image, &DetectConfig::default());
        assert!(!rois.is_empty(), "no candidates found");
        let t = &scene.truth[0];
        assert!(
            rois.iter().any(|r| hit(r, t.x, t.y, t.size)),
            "no ROI near the target at ({}, {}); rois: {rois:?}",
            t.x,
            t.y
        );
        assert!(flops > 0);
    }

    #[test]
    fn detection_rate_across_seeds() {
        let mut hits = 0;
        let n = 30;
        for seed in 0..n {
            let scene = SceneBuilder::new(128, 80).seed(seed).targets(1).build();
            let (rois, _) = detect_targets(&scene.image, &DetectConfig::default());
            let t = &scene.truth[0];
            if rois.iter().any(|r| hit(r, t.x, t.y, t.size)) {
                hits += 1;
            }
        }
        assert!(hits >= n * 8 / 10, "detection rate too low: {hits}/{n}");
    }

    #[test]
    fn empty_scene_yields_few_candidates() {
        let scene = SceneBuilder::new(128, 80)
            .seed(13)
            .targets(0)
            .clutter_blobs(0)
            .build();
        let (rois, _) = detect_targets(&scene.image, &DetectConfig::default());
        assert!(rois.len() <= 1, "noise-only scene produced {rois:?}");
    }

    #[test]
    fn respects_max_targets() {
        let scene = SceneBuilder::new(128, 80).seed(21).targets(4).build();
        let cfg = DetectConfig {
            max_targets: 2,
            ..DetectConfig::default()
        };
        let (rois, _) = detect_targets(&scene.image, &cfg);
        assert!(rois.len() <= 2);
    }

    #[test]
    fn candidates_are_separated() {
        let scene = SceneBuilder::new(128, 80).seed(8).targets(3).build();
        let cfg = DetectConfig::default();
        let (rois, _) = detect_targets(&scene.image, &cfg);
        for i in 0..rois.len() {
            for j in (i + 1)..rois.len() {
                let dx = rois[i].cx as f64 - rois[j].cx as f64;
                let dy = rois[i].cy as f64 - rois[j].cy as f64;
                assert!(
                    (dx * dx + dy * dy).sqrt() >= cfg.min_separation as f64,
                    "peaks {i} and {j} too close"
                );
            }
        }
    }

    #[test]
    fn roi_extraction_is_roi_sized() {
        let scene = SceneBuilder::new(128, 80).seed(5).targets(1).build();
        let (rois, _) = detect_targets(&scene.image, &DetectConfig::default());
        let patch = rois[0].extract(&scene.image);
        assert_eq!(patch.width(), ROI_SIZE);
        assert_eq!(patch.height(), ROI_SIZE);
    }

    #[test]
    fn scores_sorted_descending() {
        let scene = SceneBuilder::new(128, 80).seed(17).targets(3).build();
        let (rois, _) = detect_targets(&scene.image, &DetectConfig::default());
        for w in rois.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
