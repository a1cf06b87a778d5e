//! # dles-battery — analytic battery models with calibration
//!
//! The experiments of Liu & Chou (IPPS 2004) measure *battery lifetime*
//! under piecewise-constant current loads. Two non-ideal battery phenomena
//! carry the paper's conclusions:
//!
//! * **Rate-capacity effect** — a battery delivers less total charge at a
//!   higher discharge rate (visible between experiments 0A and 0B);
//! * **Recovery effect** — capacity "lost" to heavy discharge is partially
//!   recovered during low-current rests (the paper's §6.3 explanation for
//!   F(1A) > F(0A), and part of why node rotation wins in §6.7).
//!
//! This crate provides three interchangeable models behind the [`Battery`]
//! trait:
//!
//! * [`IdealBattery`] — a coulomb counter (no rate effects); the baseline a
//!   CPU-centric DVS analysis implicitly assumes,
//! * [`PeukertBattery`] — rate-capacity via Peukert's law (no recovery),
//! * [`KibamBattery`] — the Kinetic Battery Model (Manwell–McGowan), a
//!   two-well model exhibiting both effects, stepped with its exact
//!   closed-form solution per constant-current segment,
//! * [`RakhmatovBattery`] — the Rakhmatov–Vrudhula diffusion model
//!   (truncated modal form), for cross-model validation of the
//!   conclusions.
//!
//! [`calibrate_kibam`] fits model parameters to measured lifetime anchors
//! with Nelder–Mead, and [`packs`] holds the calibrated parameter sets for the
//! Itsy's 4 V lithium-ion pack.
//!
//! ```
//! use dles_battery::{Battery, KibamBattery, LoadProfile, LoadStep, simulate_lifetime};
//!
//! // A 1000 mAh two-well battery discharged by the experiment-1A frame
//! // shape: 1.1 s of computation at 130 mA, then 1.2 s of low-power I/O.
//! let mut batt = KibamBattery::new(1000.0, 0.6, 1.0);
//! let frame = LoadProfile::repeating(vec![
//!     LoadStep::from_secs(1.1, 130.0),
//!     LoadStep::from_secs(1.2, 40.0),
//! ]);
//! let life = simulate_lifetime(&mut batt, &frame);
//! assert!(life.lifetime.as_hours_f64() > 5.0);
//! ```
#![forbid(unsafe_code)]

pub(crate) mod calibrate;
pub(crate) mod ideal;
pub mod kibam;
pub(crate) mod model;
pub mod packs;
pub(crate) mod peukert;
pub(crate) mod profile;
pub mod rakhmatov;

pub use calibrate::{calibrate_kibam, Anchor, NelderMead};
pub use ideal::IdealBattery;
pub use kibam::KibamBattery;
pub use model::Battery;
pub use peukert::PeukertBattery;
pub use profile::{simulate_lifetime, LoadProfile, LoadStep};
pub use rakhmatov::{RakhmatovBattery, RvParams};
