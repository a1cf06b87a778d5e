//! The composed ATR pipeline: Target Detection → FFT → IFFT → Compute
//! Distance, with per-block work accounting.

use crate::blocks::Block;
use crate::detect::{detect_targets, DetectConfig, Roi};
use crate::distance::{compute_distance, DistanceEstimate, DEFAULT_SCALES};
use crate::filter::{fft_block, ifft_block, TemplateSpectra};
use crate::image::Image;
use crate::template::{TargetClass, Template};

/// A fully processed target: where it is, what it is, how far away.
#[derive(Debug, Clone)]
pub struct DetectedTarget {
    pub class: TargetClass,
    /// ROI centre in frame coordinates.
    pub cx: usize,
    pub cy: usize,
    /// Matched-filter score.
    pub match_score: f64,
    /// Estimated range, metres.
    pub distance_m: f64,
}

/// Result of one frame through the pipeline.
#[derive(Debug, Clone)]
pub struct AtrReport {
    pub targets: Vec<DetectedTarget>,
    /// Arithmetic work per block, indexed by [`Block::index`].
    pub block_flops: [u64; Block::COUNT],
}

impl AtrReport {
    pub fn flops(&self, block: Block) -> u64 {
        self.block_flops[block.index()]
    }
}

/// The configured pipeline: template bank, spectra, scale ladder.
#[derive(Debug, Clone)]
pub struct AtrPipeline {
    detect: DetectConfig,
    spectra: TemplateSpectra,
    scales: Vec<usize>,
}

impl AtrPipeline {
    /// Standard configuration: full template bank, default detector, the
    /// 8-step scale ladder.
    pub fn standard() -> Self {
        AtrPipeline {
            detect: DetectConfig::default(),
            spectra: TemplateSpectra::build(&Template::bank()),
            scales: DEFAULT_SCALES.to_vec(),
        }
    }

    /// Process one frame end to end.
    pub fn run(&self, frame: &Image) -> AtrReport {
        let mut block_flops = [0u64; Block::COUNT];

        // Block 1: Target Detection.
        let (rois, f_td) = detect_targets(frame, &self.detect);
        block_flops[Block::TargetDetection.index()] += f_td;

        let mut targets = Vec::with_capacity(rois.len());
        for roi in &rois {
            let patch = roi.extract(frame);

            // Block 2: FFT (+ matched-filter products).
            let (filtered, f_fft) = fft_block(&patch, &self.spectra);
            block_flops[Block::Fft.index()] += f_fft;

            // Block 3: IFFT (+ peak scan).
            let (matched, f_ifft) = ifft_block(&filtered);
            block_flops[Block::Ifft.index()] += f_ifft;

            // Block 4: Compute Distance.
            let (estimate, f_cd): (DistanceEstimate, u64) =
                compute_distance(&patch, matched.class, &self.scales);
            block_flops[Block::ComputeDistance.index()] += f_cd;

            targets.push(DetectedTarget {
                class: matched.class,
                cx: roi.cx,
                cy: roi.cy,
                match_score: matched.score,
                distance_m: estimate.distance_m,
            });
        }

        AtrReport {
            targets,
            block_flops,
        }
    }

    /// Run detection only (the share of a Node1 in the paper's best
    /// partitioning scheme). Returns ROIs for forwarding downstream.
    pub fn run_detection(&self, frame: &Image) -> (Vec<Roi>, u64) {
        detect_targets(frame, &self.detect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneBuilder;

    #[test]
    fn end_to_end_finds_and_ranges_a_target() {
        let scene = SceneBuilder::new(128, 80)
            .seed(5)
            .targets(1)
            .noise_sigma(4.0)
            .build();
        let report = AtrPipeline::standard().run(&scene.image);
        assert!(!report.targets.is_empty(), "nothing detected");
        let truth = &scene.truth[0];
        let t = &report.targets[0];
        // Position within half an ROI of truth centre.
        let tx = truth.x as f64 + truth.size as f64 / 2.0;
        let ty = truth.y as f64 + truth.size as f64 / 2.0;
        let dist = ((t.cx as f64 - tx).powi(2) + (t.cy as f64 - ty).powi(2)).sqrt();
        assert!(dist < 16.0, "detection {dist} px off");
        assert!(t.distance_m > 0.0);
    }

    #[test]
    fn classification_accuracy_over_seeds() {
        let mut correct = 0;
        let mut detected = 0;
        let n = 25;
        let pipeline = AtrPipeline::standard();
        for seed in 100..100 + n {
            let scene = SceneBuilder::new(128, 80)
                .seed(seed)
                .targets(1)
                .noise_sigma(4.0)
                .size_range(14, 20)
                .build();
            let report = pipeline.run(&scene.image);
            let truth = &scene.truth[0];
            // Find the report target nearest the truth.
            if let Some(t) = report.targets.iter().min_by_key(|t| {
                let dx = t.cx as i64 - (truth.x + truth.size / 2) as i64;
                let dy = t.cy as i64 - (truth.y + truth.size / 2) as i64;
                dx * dx + dy * dy
            }) {
                detected += 1;
                if t.class == truth.class {
                    correct += 1;
                }
            }
        }
        assert!(detected >= n * 7 / 10, "detected {detected}/{n}");
        assert!(
            correct * 3 >= detected * 2,
            "classification {correct}/{detected}"
        );
    }

    #[test]
    fn block_work_rank_matches_fig6() {
        // Fig. 6 latency rank: Compute Distance > IFFT > FFT > Target
        // Detection. The real implementation must reproduce the rank — the
        // deterministic substitute for wall-clock profiling.
        let scene = SceneBuilder::new(128, 80).seed(5).targets(1).build();
        let report = AtrPipeline::standard().run(&scene.image);
        let td = report.flops(Block::TargetDetection);
        let fft = report.flops(Block::Fft);
        let ifft = report.flops(Block::Ifft);
        let cd = report.flops(Block::ComputeDistance);
        assert!(td > 0 && fft > 0 && ifft > 0 && cd > 0);
        assert!(cd > ifft, "CD {cd} <= IFFT {ifft}");
        assert!(ifft > fft, "IFFT {ifft} <= FFT {fft}");
        assert!(fft > td, "FFT {fft} <= TD {td}");
    }

    #[test]
    fn empty_scene_costs_only_detection() {
        let scene = SceneBuilder::new(128, 80)
            .seed(13)
            .targets(0)
            .clutter_blobs(0)
            .build();
        let report = AtrPipeline::standard().run(&scene.image);
        if report.targets.is_empty() {
            assert_eq!(report.flops(Block::Fft), 0);
            assert_eq!(report.flops(Block::ComputeDistance), 0);
            assert!(report.flops(Block::TargetDetection) > 0);
        }
    }

    #[test]
    fn multi_target_scenes_yield_multiple_detections() {
        // The paper notes "a multi-frame, multi-target version of the
        // algorithm is also available" (§3); the pipeline handles any
        // number of ROIs per frame.
        let pipeline = AtrPipeline::standard();
        let mut multi_hits = 0;
        for seed in 300..315 {
            let scene = SceneBuilder::new(128, 80)
                .seed(seed)
                .targets(3)
                .noise_sigma(4.0)
                .build();
            let report = pipeline.run(&scene.image);
            if report.targets.len() >= 2 {
                multi_hits += 1;
            }
            // Per-ROI work scales the filter/distance blocks.
            if report.targets.len() >= 2 {
                let per_roi = report.flops(Block::Fft) / report.targets.len() as u64;
                assert!(per_roi > 0);
            }
        }
        assert!(
            multi_hits >= 8,
            "only {multi_hits}/15 scenes gave ≥2 detections"
        );
    }

    #[test]
    fn block_work_scales_linearly_with_detections() {
        let pipeline = AtrPipeline::standard();
        let one = SceneBuilder::new(128, 80).seed(5).targets(1).build();
        let r1 = pipeline.run(&one.image);
        let many = SceneBuilder::new(128, 80).seed(21).targets(4).build();
        let r4 = pipeline.run(&many.image);
        if r4.targets.len() > r1.targets.len() && !r1.targets.is_empty() {
            let per1 = r1.flops(Block::ComputeDistance) as f64 / r1.targets.len() as f64;
            let per4 = r4.flops(Block::ComputeDistance) as f64 / r4.targets.len() as f64;
            let rel = (per1 - per4).abs() / per1;
            assert!(rel < 0.01, "per-ROI CD cost differs: {per1} vs {per4}");
        }
    }

    #[test]
    fn distance_estimates_are_in_range_ballpark() {
        // With ladder sizes 8..28 and reference 500 m @16 px, estimates
        // should land within [250, 1100] m for in-range renditions.
        let pipeline = AtrPipeline::standard();
        let mut checked = 0;
        for seed in 200..220 {
            let scene = SceneBuilder::new(128, 80)
                .seed(seed)
                .targets(1)
                .size_range(10, 24)
                .build();
            let report = pipeline.run(&scene.image);
            for t in &report.targets {
                assert!(
                    (150.0..1500.0).contains(&t.distance_m),
                    "distance {} m out of ballpark",
                    t.distance_m
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
