//! The reliable-transaction layer (§5.4).
//!
//! "Each sending transaction must be acknowledged by the receiver. A
//! timeout mechanism is used on each node to detect the failure of the
//! neighboring nodes." A [`Transaction`] describes one payload or
//! acknowledgment movement between endpoints; its latency comes from the
//! serial configuration and its route from the topology.

use crate::serial::SerialConfig;
use crate::topology::{Endpoint, Route};
use dles_sim::{SimRng, SimTime, TraceEvent, TraceRecord};

/// What a transaction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransactionKind {
    /// A data payload (frame, intermediate result, or final result).
    Payload,
    /// A zero-payload acknowledgment (power-failure-recovery protocol).
    Ack,
}

impl TransactionKind {
    pub fn name(self) -> &'static str {
        match self {
            TransactionKind::Payload => "data",
            TransactionKind::Ack => "ack",
        }
    }
}

/// One point-to-point transfer over the serial network.
#[derive(Debug, Clone)]
pub struct Transaction {
    pub from: Endpoint,
    pub to: Endpoint,
    pub kind: TransactionKind,
    /// Payload size (0 for acks).
    pub bytes: u64,
}

impl Transaction {
    pub fn payload(from: Endpoint, to: Endpoint, bytes: u64) -> Self {
        Transaction {
            from,
            to,
            kind: TransactionKind::Payload,
            bytes,
        }
    }

    pub fn ack(from: Endpoint, to: Endpoint) -> Self {
        Transaction {
            from,
            to,
            kind: TransactionKind::Ack,
            bytes: 0,
        }
    }

    /// The serial lines this transaction occupies.
    pub fn route(&self) -> Route {
        Route::between(self.from, self.to)
    }

    /// Transfer latency under `cfg`; deterministic when `rng` is `None`.
    pub fn latency(&self, cfg: &SerialConfig, rng: Option<&mut SimRng>) -> SimTime {
        cfg.transfer_time(self.bytes, rng)
    }

    /// Latency of this transaction plus its acknowledgment — the §5.4
    /// cost of one *reliable* delivery.
    pub fn reliable_latency(&self, cfg: &SerialConfig, mut rng: Option<&mut SimRng>) -> SimTime {
        let data = cfg.transfer_time(self.bytes, rng.as_deref_mut());
        let ack = cfg.ack_time(rng);
        data + ack
    }

    /// The component name of the link this transaction travels, in the
    /// README-documented `a->b` convention (`host->node2`): directed
    /// endpoint pair, `->` separator, no spaces.
    pub fn component(&self) -> String {
        link_component(self.from, self.to)
    }

    /// Structured trace record for a lifecycle `event` of this transaction
    /// (`"start"`, `"delivered"`, `"retransmit"`, `"timeout"`), tagged with
    /// the frame it carries.
    pub fn trace_record(&self, time: SimTime, event: &'static str, frame: u64) -> TraceRecord {
        TraceEvent::Transaction {
            event,
            payload: self.kind.name(),
            bytes: self.bytes,
            frame,
            waiter: None,
            upstream_alive: None,
        }
        .record(time, self.component())
    }
}

/// Build an `a->b` link component name from a directed endpoint pair —
/// the single place the convention is spelled, so every emitter agrees
/// on it.
pub fn link_component(from: Endpoint, to: Endpoint) -> String {
    format!("{from}->{to}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_vs_ack_costs() {
        let cfg = SerialConfig::paper();
        let data = Transaction::payload(Endpoint::Host, Endpoint::Node(0), 10_342);
        let ack = Transaction::ack(Endpoint::Node(0), Endpoint::Host);
        let t_data = data.latency(&cfg, None);
        let t_ack = ack.latency(&cfg, None);
        assert!(t_data > SimTime::from_secs(1));
        assert_eq!(t_ack, cfg.startup_nominal());
    }

    #[test]
    fn reliable_delivery_adds_one_ack() {
        let cfg = SerialConfig::paper();
        let tx = Transaction::payload(Endpoint::Node(0), Endpoint::Node(1), 614);
        let plain = tx.latency(&cfg, None);
        let reliable = tx.reliable_latency(&cfg, None);
        assert_eq!(reliable, plain + cfg.ack_time(None));
        // §5.4: the ack adds 50–100 ms on top of the payload transfer.
        let extra = (reliable - plain).as_secs_f64();
        assert!((0.05..=0.1).contains(&extra));
    }

    #[test]
    fn trace_record_names_the_link() {
        let tx = Transaction::payload(Endpoint::Host, Endpoint::Node(1), 614);
        let rec = tx.trace_record(SimTime::from_secs(5), "start", 12);
        assert_eq!(rec.component, "host->node2");
        assert_eq!(rec.kind, "transaction");
        assert_eq!(rec.str_field("event"), Some("start"));
        assert_eq!(rec.str_field("payload"), Some("data"));
        assert_eq!(rec.u64_field("bytes"), Some(614));
        assert_eq!(rec.u64_field("frame"), Some(12));
        let ack = Transaction::ack(Endpoint::Node(1), Endpoint::Host);
        assert_eq!(
            ack.trace_record(SimTime::ZERO, "delivered", 0)
                .str_field("payload"),
            Some("ack")
        );
    }

    #[test]
    fn route_derivation() {
        let tx = Transaction::payload(Endpoint::Node(0), Endpoint::Node(1), 100);
        assert!(tx.route().is_forwarded());
        let tx2 = Transaction::payload(Endpoint::Host, Endpoint::Node(1), 100);
        assert!(!tx2.route().is_forwarded());
    }

    #[test]
    fn jittered_latency_in_window() {
        let cfg = SerialConfig::paper();
        let tx = Transaction::payload(Endpoint::Host, Endpoint::Node(0), 1000);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            let t = tx.latency(&cfg, Some(&mut rng)).as_secs_f64();
            let wire = 1000.0 * 8.0 / 80_000.0;
            assert!(t >= wire + 0.05 && t <= wire + 0.1);
        }
    }
}
