//! # dles-net — the serial-link network substrate
//!
//! Models the paper's interconnect (§4.2): each Itsy node hangs off the
//! host computer on a dedicated RS-232 serial line carrying PPP; the host
//! runs IP forwarding so nodes can reach each other "transparently as if
//! they were on the same TCP/IP network" (Fig. 5).
//!
//! Layers, bottom-up:
//!
//! * [`SerialConfig`] — UART timing: 115.2 kbps line rate, ~80 kbps measured
//!   effective throughput, and the 50–100 ms per-transaction startup cost
//!   the paper repeatedly charges (§4.3), for data and acknowledgment
//!   transfers alike;
//! * [`ppp`] — an HDLC/PPP-style framing codec (flag bytes, byte stuffing,
//!   FCS-16) actually implemented and property-tested;
//! * [`Endpoint`] and [`Route`] — endpoints (host / node *i*, defined in
//!   `dles-sim`, whose trace components name them) and the links a
//!   transfer occupies under host-side IP forwarding;
//! * [`LinkSchedule`] — link occupancy bookkeeping: reserving the serial lines a
//!   transfer needs, with cut-through forwarding across the hub;
//! * [`fault`] — link-fault hooks: whether flipped wire bits corrupt a PPP
//!   frame, decided by the framing's flip-parity rule that the codec's
//!   tests prove.
//!
//! The reliable-transaction protocol of §5.4 (acknowledgments, ack and
//! receive timeouts, retransmission) lives in `dles-core::pipeline`, which
//! plans its data and ack transfers over these layers.
//!
//! ```
//! use dles_net::SerialConfig;
//!
//! let cfg = SerialConfig::paper();
//! // The paper's Fig. 6: a 10.1 KB frame takes ~1.1 s to transfer.
//! let t = cfg.transfer_secs(10_342);
//! assert!((t - 1.1).abs() < 0.05);
//! ```
#![forbid(unsafe_code)]

pub mod fault;
pub(crate) mod hub;
pub mod ppp;
pub(crate) mod serial;
pub(crate) mod topology;

pub use dles_sim::Endpoint;
pub use hub::LinkSchedule;
pub use serial::SerialConfig;
pub use topology::Route;
