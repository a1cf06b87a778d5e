//! One transfer of the §5.4 reliable-transaction protocol: a data
//! payload or the separate acknowledgment transaction that confirms it.
//!
//! "Each sending transaction must be acknowledged by the receiver." The
//! protocol around a [`Transfer`] (outstanding sends, ack and receive
//! timeouts, retransmission) is driven by [`crate::pipeline`]; this module
//! holds what one transfer is, what it costs on the serial line, and the
//! `transaction` record it leaves in the trace.

use crate::faults::LinkFault;
use dles_net::{link_component, Endpoint, SerialConfig};
use dles_sim::{SimRng, SimTime, TraceEvent, TraceRecord};

/// What a transfer carries: a data payload (frame, intermediate or final
/// result) or a zero-payload §5.4 acknowledgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransferKind {
    Data,
    Ack,
}

impl TransferKind {
    /// The `payload` label of transaction, io and timeout records.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TransferKind::Data => "data",
            TransferKind::Ack => "ack",
        }
    }
}

/// One planned movement between two endpoints over the serial hub.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    pub(crate) from: Endpoint,
    pub(crate) to: Endpoint,
    pub(crate) bytes: u64,
    pub(crate) kind: TransferKind,
    pub(crate) frame: u64,
    /// For data to a node: the share it should run on arrival.
    pub(crate) next_share: Option<usize>,
    /// Share-map epoch at planning time; stale transfers are dropped.
    pub(crate) epoch: u64,
    /// For acks: start this PROC on the acking node once the ack is out.
    pub(crate) then_proc: Option<(usize, u64, usize)>,
    /// For reliable data sends (recovery): the sender's outstanding-send
    /// sequence number this transfer carries.
    pub(crate) seq: Option<u64>,
    /// For acks: the data sequence number being acknowledged.
    pub(crate) ack_of: Option<u64>,
    /// Injected link fault, decided at planning time from the fault plan.
    pub(crate) fault: Option<LinkFault>,
}

impl Transfer {
    /// `bytes` of `frame`'s data; `next_share` is the share a receiving
    /// node runs on arrival, `seq` the sender's reliable-send number.
    pub(crate) fn data(
        from: Endpoint,
        to: Endpoint,
        bytes: u64,
        frame: u64,
        next_share: Option<usize>,
        seq: Option<u64>,
    ) -> Transfer {
        Transfer {
            from,
            to,
            bytes,
            kind: TransferKind::Data,
            frame,
            next_share,
            epoch: 0,
            then_proc: None,
            seq,
            ack_of: None,
            fault: None,
        }
    }

    /// The acknowledgment of `frame`'s data send `ack_of`; `then_proc` is
    /// the PROC the acking node starts once the ack is out.
    pub(crate) fn ack(
        from: Endpoint,
        to: Endpoint,
        frame: u64,
        ack_of: Option<u64>,
        then_proc: Option<(usize, u64, usize)>,
    ) -> Transfer {
        Transfer {
            from,
            to,
            bytes: 0,
            kind: TransferKind::Ack,
            frame,
            next_share: None,
            epoch: 0,
            then_proc,
            seq: None,
            ack_of,
            fault: None,
        }
    }

    /// Wire time plus startup of this transfer under `cfg`: the §4.3
    /// 50–100 ms startup is jittered when `rng` is given, nominal
    /// otherwise.
    pub(crate) fn latency(&self, cfg: &SerialConfig, rng: Option<&mut SimRng>) -> SimTime {
        cfg.transfer_time(self.bytes, rng)
    }

    /// The `transaction` record of lifecycle `event` (`"start"`,
    /// `"delivered"`) of this transfer, on its `a->b` link.
    pub(crate) fn trace_record(&self, time: SimTime, event: &'static str) -> TraceRecord {
        TraceEvent::Transaction {
            event,
            payload: self.kind.name(),
            bytes: self.bytes,
            frame: self.frame,
            waiter: None,
            upstream_alive: None,
        }
        .record(time, link_component(self.from, self.to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_record_names_the_link() {
        let tx = Transfer::data(Endpoint::Host, Endpoint::Node(1), 614, 12, None, None);
        let rec = tx.trace_record(SimTime::from_secs(5), "start");
        assert_eq!(rec.component, "host->node2");
        assert_eq!(rec.kind, "transaction");
        assert_eq!(rec.str_field("event"), Some("start"));
        assert_eq!(rec.str_field("payload"), Some("data"));
        assert_eq!(rec.u64_field("bytes"), Some(614));
        assert_eq!(rec.u64_field("frame"), Some(12));
        let ack = Transfer::ack(Endpoint::Node(1), Endpoint::Host, 0, None, None);
        let rec = ack.trace_record(SimTime::ZERO, "delivered");
        assert_eq!(rec.component, "node2->host");
        assert_eq!(rec.str_field("payload"), Some("ack"));
        assert_eq!(rec.u64_field("bytes"), Some(0));
    }

    #[test]
    fn jittered_latency_in_window() {
        let cfg = SerialConfig::paper();
        let tx = Transfer::data(Endpoint::Host, Endpoint::Node(0), 1000, 0, None, None);
        let mut rng = SimRng::seed_from_u64(4);
        let wire = 1000.0 * 8.0 / 80_000.0;
        for _ in 0..100 {
            let t = tx.latency(&cfg, Some(&mut rng)).as_secs_f64();
            assert!(t >= wire + 0.05 && t <= wire + 0.1);
        }
        assert_eq!(tx.latency(&cfg, None), cfg.transfer_time(1000, None));
    }
}
