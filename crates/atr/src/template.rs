//! The pre-defined target templates the ATR algorithm matches against.
//!
//! The paper's targets are "pre-defined" (§3); we model three vehicle-like
//! shapes painted procedurally at a reference scale. Scaled renditions of a
//! template (for the distance sweep in the Compute Distance block) are
//! produced by nearest-neighbour resampling of the reference rendition.

use crate::image::Image;

/// The kinds of target the recognizer knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetClass {
    /// Wide hull with a turret block on top.
    Tank,
    /// Long box with a cab block at one end.
    Truck,
    /// Square emplacement with a hollow centre.
    Bunker,
}

impl TargetClass {
    pub(crate) const ALL: [TargetClass; 3] =
        [TargetClass::Tank, TargetClass::Truck, TargetClass::Bunker];

    pub fn name(self) -> &'static str {
        match self {
            TargetClass::Tank => "tank",
            TargetClass::Truck => "truck",
            TargetClass::Bunker => "bunker",
        }
    }
}

/// A rendered template: the reference appearance of a target class.
#[derive(Debug, Clone)]
pub struct Template {
    pub class: TargetClass,
    pub image: Image,
    /// Physical width of the real-world target, metres (used by the
    /// distance estimator: apparent size ∝ 1/distance).
    pub physical_width_m: f64,
    /// Distance at which the reference rendition's scale is correct, m.
    pub reference_distance_m: f64,
}

/// Reference template edge length in pixels (square renditions).
pub(crate) const TEMPLATE_SIZE: usize = 16;

impl Template {
    /// Render the reference template for `class`.
    pub(crate) fn render(class: TargetClass) -> Template {
        let s = TEMPLATE_SIZE;
        let mut img = Image::zeros(s, s);
        match class {
            TargetClass::Tank => {
                // Hull: rows 8..14, full width margin 1.
                fill(&mut img, 1, 8, s - 2, 6, 200.0);
                // Turret: centered block rows 4..9.
                fill(&mut img, 5, 4, 6, 5, 255.0);
                // Barrel: thin line from turret to the right edge.
                fill(&mut img, 11, 5, 4, 1, 180.0);
            }
            TargetClass::Truck => {
                // Cargo box: long and low.
                fill(&mut img, 1, 6, 10, 7, 190.0);
                // Cab at the right end, slightly taller.
                fill(&mut img, 11, 4, 4, 9, 240.0);
            }
            TargetClass::Bunker => {
                // Square walls with a hollow interior.
                fill(&mut img, 2, 2, s - 4, s - 4, 210.0);
                fill(&mut img, 5, 5, s - 10, s - 10, 40.0);
            }
        }
        let (physical_width_m, reference_distance_m) = match class {
            TargetClass::Tank => (7.0, 500.0),
            TargetClass::Truck => (9.0, 500.0),
            TargetClass::Bunker => (12.0, 500.0),
        };
        Template {
            class,
            image: img,
            physical_width_m,
            reference_distance_m,
        }
    }

    /// The full template bank.
    pub fn bank() -> Vec<Template> {
        TargetClass::ALL.iter().map(|&c| Self::render(c)).collect()
    }

    /// Nearest-neighbour resampling of the reference rendition to
    /// `size × size` pixels — the appearance of this target at distance
    /// `reference_distance_m · TEMPLATE_SIZE / size`.
    pub(crate) fn scaled(&self, size: usize) -> Image {
        assert!(size > 0, "template scale must be positive");
        let src = &self.image;
        let mut out = Image::zeros(size, size);
        for y in 0..size {
            for x in 0..size {
                let sx = x * src.width() / size;
                let sy = y * src.height() / size;
                out.set(x, y, src.get(sx, sy));
            }
        }
        out
    }

    /// Distance (metres) implied by an apparent rendition of `size` pixels.
    pub(crate) fn distance_for_size(&self, size: usize) -> f64 {
        assert!(size > 0);
        self.reference_distance_m * TEMPLATE_SIZE as f64 / size as f64
    }
}

fn fill(img: &mut Image, x0: usize, y0: usize, w: usize, h: usize, v: f64) {
    for y in y0..(y0 + h).min(img.height()) {
        for x in x0..(x0 + w).min(img.width()) {
            img.set(x, y, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_has_all_classes() {
        let bank = Template::bank();
        assert_eq!(bank.len(), 3);
        let classes: Vec<_> = bank.iter().map(|t| t.class).collect();
        assert_eq!(classes, TargetClass::ALL);
    }

    #[test]
    fn templates_are_distinct() {
        let bank = Template::bank();
        for i in 0..bank.len() {
            for j in (i + 1)..bank.len() {
                assert_ne!(
                    bank[i].image.pixels(),
                    bank[j].image.pixels(),
                    "{} and {} render identically",
                    bank[i].class.name(),
                    bank[j].class.name()
                );
            }
        }
    }

    #[test]
    fn templates_have_signal() {
        for t in Template::bank() {
            assert!(t.image.variance() > 100.0, "{} too flat", t.class.name());
        }
    }

    #[test]
    fn scaling_preserves_shape_roughly() {
        let t = Template::render(TargetClass::Tank);
        let up = t.scaled(32);
        assert_eq!(up.width(), 32);
        // Identity scale reproduces the original.
        let same = t.scaled(TEMPLATE_SIZE);
        assert_eq!(same.pixels(), t.image.pixels());
    }

    #[test]
    fn distance_size_relation_is_inverse() {
        let t = Template::render(TargetClass::Truck);
        let d16 = t.distance_for_size(16);
        let d32 = t.distance_for_size(32);
        let d8 = t.distance_for_size(8);
        assert!((d16 - 500.0).abs() < 1e-9);
        assert!((d32 - 250.0).abs() < 1e-9);
        assert!((d8 - 1000.0).abs() < 1e-9);
    }
}
