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
//! This crate contains **two coupled representations** of that workload:
//!
//! 1. A *real, runnable implementation*: synthetic scene generation
//!    ([`scene`]), a radix-2 1-D/2-D FFT written from scratch ([`fft`]),
//!    frequency-domain matched filtering ([`filter`]), detection
//!    ([`detect`]) and distance estimation over a template scale sweep
//!    ([`distance`]), composed in [`pipeline`]. Every block counts its
//!    arithmetic work, so the relative block costs can be checked against
//!    the paper's measurements deterministically.
//! 2. The *measured profile* of Fig. 6 ([`AtrProfile`]): per-block latency at
//!    206.4 MHz and communication payload bytes, which is what the
//!    battery-lifetime simulator consumes.
//!
//! The block/partition algebra shared by both lives in [`blocks`].
//!
//! ```
//! use dles_atr::{scene::SceneBuilder, pipeline::AtrPipeline};
//!
//! let scene = SceneBuilder::new(128, 80).seed(7).targets(1).build();
//! let pipeline = AtrPipeline::standard();
//! let report = pipeline.run(&scene.image);
//! assert!(!report.targets.is_empty());
//! ```
#![forbid(unsafe_code)]

pub mod blocks;
pub mod complexnum;
pub mod detect;
pub mod distance;
pub mod fft;
pub mod filter;
pub(crate) mod image;
pub mod pipeline;
pub(crate) mod profile;
pub mod scene;
pub mod template;

pub use blocks::{Block, BlockRange};
pub use pipeline::AtrPipeline;
pub use profile::AtrProfile;
