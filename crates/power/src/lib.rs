//! # dles-power — DVS CPU and power models for the Itsy pocket computer
//!
//! Reproduces the power-relevant behaviour of the Itsy's StrongARM SA-1100
//! as published in Liu & Chou (IPPS 2004):
//!
//! * the 11-level frequency/voltage table of Fig. 7 ([`DvsTable`], [`sa1100`]);
//! * the three-mode (idle / communication / computation) current profile of
//!   Fig. 7, via an analytic `I = I_base + k · f · V²` model fitted to every
//!   current value the paper states ([`CurrentModel`]);
//! * linear performance scaling with clock frequency (§4.3);
//! * a power-state machine whose piecewise-constant current waveform a
//!   monitor reduces to the node's mean current, the one figure of Itsy's
//!   built-in power monitor a run reports ([`PowerState`],
//!   [`PowerMonitor`]), plus the per-mode energy split ([`EnergyAccount`]).
//!
//! ```
//! use dles_power::{DvsTable, Mode, CurrentModel};
//!
//! let table = DvsTable::sa1100();
//! let top = table.highest();
//! assert_eq!(top.freq_mhz.mhz(), 206.4);
//!
//! let model = CurrentModel::itsy();
//! let i = model.current_ma(Mode::Computation, top);
//! assert!((i.get() - 130.0).abs() < 1.0); // Fig. 7: ~130 mA computing at 206.4 MHz
//! ```
#![forbid(unsafe_code)]

pub(crate) mod current;
pub(crate) mod dvs;
pub(crate) mod energy;
pub(crate) mod monitor;
pub mod sa1100;
pub(crate) mod state;

pub use current::{CurrentModel, Mode};
pub use dvs::{DvsTable, FreqLevel};
pub use energy::EnergyAccount;
pub use monitor::PowerMonitor;
pub use state::PowerState;
