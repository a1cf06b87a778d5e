//! Synthetic scene generation: the "camera/sensor" data source.
//!
//! The paper's frames come from an external source over the network (§3);
//! we synthesize them — targets painted at known positions and scales over
//! clutter and sensor noise — so every experiment has ground truth to score
//! detection against.

use crate::image::Image;
use crate::template::{TargetClass, Template};
use dles_sim::SimRng;

/// Ground truth for one painted target.
#[derive(Debug, Clone)]
pub struct PlacedTarget {
    pub class: TargetClass,
    /// Top-left corner of the rendition in the frame.
    pub x: usize,
    pub y: usize,
    /// Rendition edge length, pixels.
    pub size: usize,
    /// True distance implied by the rendition scale, metres.
    pub distance_m: f64,
}

/// A generated frame plus its ground truth.
#[derive(Debug, Clone)]
pub struct Scene {
    pub image: Image,
    pub truth: Vec<PlacedTarget>,
}

/// Deterministic scene generator.
#[derive(Debug, Clone)]
pub struct SceneBuilder {
    width: usize,
    height: usize,
    seed: u64,
    targets: usize,
    noise_sigma: f64,
    clutter_blobs: usize,
    background: f64,
    size_range: (usize, usize),
}

impl SceneBuilder {
    /// Default frame: the paper's ~10.1 KB input is a 128 × 80 frame at
    /// 8 bpp; moderate sensor noise and a little clutter.
    pub fn new(width: usize, height: usize) -> Self {
        SceneBuilder {
            width,
            height,
            seed: 0,
            targets: 1,
            noise_sigma: 8.0,
            clutter_blobs: 3,
            background: 60.0,
            size_range: (12, 24),
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of targets to paint. The paper's experiments process "one
    /// image and one target at a time" (§3) but a multi-target variant is
    /// mentioned; both are supported.
    pub fn targets(mut self, n: usize) -> Self {
        self.targets = n;
        self
    }

    pub fn noise_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        self.noise_sigma = sigma;
        self
    }

    #[cfg(test)]
    pub(crate) fn clutter_blobs(mut self, n: usize) -> Self {
        self.clutter_blobs = n;
        self
    }

    /// Allowed rendition sizes (min, max) in pixels.
    #[cfg(test)]
    pub(crate) fn size_range(mut self, min: usize, max: usize) -> Self {
        assert!(min > 0 && min <= max, "invalid size range");
        self.size_range = (min, max);
        self
    }

    /// Generate the scene.
    pub fn build(&self) -> Scene {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut img = Image::zeros(self.width, self.height);

        // Background level + sensor noise.
        for y in 0..self.height {
            for x in 0..self.width {
                let v = self.background + rng.normal(0.0, self.noise_sigma);
                img.set(x, y, v.clamp(0.0, 255.0));
            }
        }

        // Low-contrast clutter blobs (rocks, bushes).
        for _ in 0..self.clutter_blobs {
            let cx = rng.uniform_u64(0, self.width as u64 - 1) as isize;
            let cy = rng.uniform_u64(0, self.height as u64 - 1) as isize;
            let r = rng.uniform_u64(2, 6) as isize;
            let amp = rng.uniform_f64(15.0, 35.0);
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx * dx + dy * dy <= r * r {
                        img.add_clipped(cx + dx, cy + dy, amp);
                    }
                }
            }
        }

        // Targets.
        let bank = Template::bank();
        let mut truth = Vec::with_capacity(self.targets);
        for _ in 0..self.targets {
            let template = &bank[rng.uniform_u64(0, bank.len() as u64 - 1) as usize];
            let size = rng.uniform_u64(self.size_range.0 as u64, self.size_range.1 as u64) as usize;
            let size = size
                .min(self.width.min(self.height).saturating_sub(2))
                .max(1);
            let x = rng.uniform_u64(0, (self.width - size) as u64) as usize;
            let y = rng.uniform_u64(0, (self.height - size) as u64) as usize;
            let rendition = template.scaled(size);
            for dy in 0..size {
                for dx in 0..size {
                    let v = rendition.get(dx, dy);
                    if v > 0.0 {
                        img.add_clipped((x + dx) as isize, (y + dy) as isize, v);
                    }
                }
            }
            truth.push(PlacedTarget {
                class: template.class,
                x,
                y,
                size,
                distance_m: template.distance_for_size(size),
            });
        }

        Scene { image: img, truth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = SceneBuilder::new(64, 48).seed(42).targets(2).build();
        let b = SceneBuilder::new(64, 48).seed(42).targets(2).build();
        assert_eq!(a.image.pixels(), b.image.pixels());
        assert_eq!(a.truth.len(), b.truth.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SceneBuilder::new(64, 48).seed(1).build();
        let b = SceneBuilder::new(64, 48).seed(2).build();
        assert_ne!(a.image.pixels(), b.image.pixels());
    }

    #[test]
    fn targets_are_within_frame() {
        let s = SceneBuilder::new(128, 80).seed(3).targets(4).build();
        assert_eq!(s.truth.len(), 4);
        for t in &s.truth {
            assert!(t.x + t.size <= 128);
            assert!(t.y + t.size <= 80);
            assert!(t.distance_m > 0.0);
        }
    }

    #[test]
    fn target_region_is_brighter_than_background() {
        let s = SceneBuilder::new(128, 80)
            .seed(7)
            .targets(1)
            .noise_sigma(2.0)
            .build();
        let t = &s.truth[0];
        let patch = s.image.patch(t.x as isize, t.y as isize, t.size, t.size);
        assert!(
            patch.mean() > s.image.mean() + 10.0,
            "target patch mean {} vs frame mean {}",
            patch.mean(),
            s.image.mean()
        );
    }

    #[test]
    fn zero_targets_supported() {
        let s = SceneBuilder::new(32, 32).seed(9).targets(0).build();
        assert!(s.truth.is_empty());
    }

    #[test]
    fn noise_free_scene_is_smooth() {
        let s = SceneBuilder::new(32, 32)
            .seed(11)
            .targets(0)
            .noise_sigma(0.0)
            .clutter_blobs(0)
            .build();
        assert!(s.image.variance() < 1e-9);
    }
}
