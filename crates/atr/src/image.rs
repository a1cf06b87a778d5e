//! Grayscale images: the data the ATR blocks operate on.
//!
//! The paper's input frames are ~10.1 KB (Fig. 6); at 8 bits per pixel that
//! is a 128 × 80 frame. The simulator never builds one: it moves only the
//! frame's byte count ([`crate::AtrProfile`]).

/// A row-major grayscale image with `f64` pixels (nominally in `[0, 255]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl Image {
    /// An all-zero image.
    pub fn zeros(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "degenerate image dimensions");
        Image {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Wrap an existing pixel buffer (row-major, `width × height`).
    #[cfg(test)]
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<f64>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel buffer size mismatch");
        Image {
            width,
            height,
            pixels,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x] = v;
    }

    /// Add `v` to the pixel, ignoring out-of-bounds coordinates (used when
    /// painting targets that overlap the frame edge).
    pub fn add_clipped(&mut self, x: isize, y: isize, v: f64) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.pixels[y as usize * self.width + x as usize] += v;
        }
    }

    /// Extract a `w × h` patch with its top-left corner at `(x0, y0)`,
    /// zero-padding where the patch exceeds the frame.
    pub fn patch(&self, x0: isize, y0: isize, w: usize, h: usize) -> Image {
        let mut out = Image::zeros(w, h);
        for dy in 0..h {
            let sy = y0 + dy as isize;
            if sy < 0 || sy as usize >= self.height {
                continue;
            }
            for dx in 0..w {
                let sx = x0 + dx as isize;
                if sx < 0 || sx as usize >= self.width {
                    continue;
                }
                out.pixels[dy * w + dx] = self.pixels[sy as usize * self.width + sx as usize];
            }
        }
        out
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        self.pixels.iter().sum::<f64>() / self.pixels.len() as f64
    }

    /// Population variance of the pixel values.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.pixels.iter().map(|p| (p - m) * (p - m)).sum::<f64>() / self.pixels.len() as f64
    }

    /// Subtract the mean and scale to unit energy (zero image stays zero).
    pub fn normalized(&self) -> Image {
        let m = self.mean();
        let energy: f64 = self.pixels.iter().map(|p| (p - m) * (p - m)).sum();
        let scale = if energy > 0.0 {
            energy.sqrt().recip()
        } else {
            0.0
        };
        Image {
            width: self.width,
            height: self.height,
            pixels: self.pixels.iter().map(|p| (p - m) * scale).collect(),
        }
    }

    /// Downsample by integer factor `f` (box filter).
    pub fn downsample(&self, f: usize) -> Image {
        assert!(f > 0, "downsample factor must be positive");
        let w = (self.width / f).max(1);
        let h = (self.height / f).max(1);
        let mut out = Image::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                let mut count = 0.0;
                for sy in y * f..((y + 1) * f).min(self.height) {
                    for sx in x * f..((x + 1) * f).min(self.width) {
                        acc += self.pixels[sy * self.width + sx];
                        count += 1.0;
                    }
                }
                out.pixels[y * w + x] = acc / count;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = Image::zeros(4, 3);
        img.set(2, 1, 7.0);
        assert_eq!(img.get(2, 1), 7.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn patch_zero_pads_out_of_bounds() {
        let mut img = Image::zeros(4, 4);
        img.set(0, 0, 5.0);
        let p = img.patch(-1, -1, 3, 3);
        assert_eq!(p.get(0, 0), 0.0);
        assert_eq!(p.get(1, 1), 5.0);
    }

    #[test]
    fn add_clipped_ignores_outside() {
        let mut img = Image::zeros(2, 2);
        img.add_clipped(-1, 0, 9.0);
        img.add_clipped(5, 5, 9.0);
        img.add_clipped(1, 1, 9.0);
        assert_eq!(img.pixels().iter().sum::<f64>(), 9.0);
    }

    #[test]
    fn statistics() {
        let img = Image::from_pixels(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(img.mean(), 2.5);
        assert_eq!(img.variance(), 1.25);
    }

    #[test]
    fn normalized_has_zero_mean_unit_energy() {
        let img = Image::from_pixels(2, 2, vec![1.0, 2.0, 3.0, 10.0]);
        let n = img.normalized();
        assert!(n.mean().abs() < 1e-12);
        let energy: f64 = n.pixels().iter().map(|p| p * p).sum();
        assert!((energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalizing_constant_image_is_safe() {
        let img = Image::from_pixels(2, 2, vec![3.0; 4]);
        let n = img.normalized();
        assert!(n.pixels().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn downsample_box_filter() {
        let img = Image::from_pixels(4, 2, vec![1.0, 3.0, 5.0, 7.0, 1.0, 3.0, 5.0, 7.0]);
        let d = img.downsample(2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 1);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_rejected() {
        let _ = Image::from_pixels(3, 3, vec![0.0; 8]);
    }
}
