//! # dles-atr — the automatic target recognition workload
//!
//! The paper's motivating application (§3, Fig. 1): an image-processing
//! pipeline of four functional blocks —
//!
//! ```text
//! Target Detection → FFT → IFFT → Compute Distance
//! ```
//!
//! — that detects pre-defined targets on an input image, extracts a region
//! of interest per target, filters it against templates in the frequency
//! domain, and finally computes the distance of each target.
//!
//! The battery-lifetime simulator sees the workload only through the
//! *measured profile* the paper publishes in Fig. 6 ([`AtrProfile`]):
//! per-block latency at 206.4 MHz and payload bytes. [`blocks`] holds the
//! block/partition algebra. No image is processed: every reported number
//! depends on the profile alone.
//!
//! The crate also keeps the signal-processing primitives of the FFT / IFFT
//! blocks, each with its own tests: a complex type ([`complexnum`]), a
//! radix-2 1-D/2-D FFT written from scratch ([`fft`]) and a grayscale image
//! ([`image`]). Nothing else in the workspace calls them.
//!
//! ```
//! use dles_atr::{AtrProfile, BlockRange};
//!
//! // §4.3: the whole algorithm takes 1.1 s at the peak clock.
//! let profile = AtrProfile::paper();
//! assert!((profile.peak_secs(BlockRange::full()) - 1.1).abs() < 1e-12);
//! ```
#![forbid(unsafe_code)]

pub mod blocks;
pub mod complexnum;
pub mod fft;
pub mod image;
pub(crate) mod profile;

pub use blocks::{Block, BlockRange};
pub use profile::AtrProfile;
