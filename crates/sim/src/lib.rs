//! # dles-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the `dles` workspace: a minimal, fully deterministic
//! discrete-event simulator used to reproduce the battery-lifetime
//! experiments of Liu & Chou, *"Distributed Embedded Systems for Low Power:
//! A Case Study"* (IPPS 2004).
//!
//! Design goals:
//!
//! * **Determinism.** Same seed + same configuration ⇒ bit-identical event
//!   order and results. Ties in event time are broken by insertion order.
//! * **Microsecond resolution.** [`SimTime`] wraps a `u64` count of
//!   microseconds; experiments run for tens of simulated hours without
//!   precision loss (u64 µs covers ~584 000 years).
//! * **No hidden global state.** The engine owns the clock and queue; the
//!   world (model state) is a user type implementing [`World`].
//!
//! ```
//! use dles_sim::{Engine, SimTime, World, Ctx};
//!
//! struct Counter { fired: u32 }
//! #[derive(Debug)]
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<Ev>, _ev: Ev) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             ctx.schedule_in(SimTime::from_millis(100), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.schedule_at(SimTime::ZERO, Ev::Tick);
//! engine.run_until(SimTime::MAX);
//! assert_eq!(engine.world().fired, 10);
//! assert_eq!(engine.now(), SimTime::from_millis(900));
//! ```
#![forbid(unsafe_code)]

pub(crate) mod engine;
pub(crate) mod event;
pub(crate) mod par;
#[cfg(test)]
mod proptests;
pub(crate) mod rng;
pub(crate) mod stats;
pub(crate) mod time;
pub(crate) mod trace;

pub use engine::{Ctx, Engine, RunOutcome, World};
pub use event::{EventId, EventQueue};
pub use par::par_map;
pub use rng::SimRng;
pub use stats::{CounterSet, DistSummary, Histogram};
pub use time::SimTime;
pub use trace::{
    FieldValue, InjectedFault, JsonlRecorder, LinkFaultKind, MemoryRecorder, NullRecorder,
    Recorder, TraceEvent, TraceRecord,
};
