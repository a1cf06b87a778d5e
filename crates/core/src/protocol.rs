//! The §5.4 power-failure recovery protocol: "Each sending transaction
//! must be acknowledged by the receiver. A timeout mechanism is used on
//! each node to detect the failure of the neighboring nodes. The
//! computation share of the failed node will then migrate to one of its
//! neighboring nodes."
//!
//! A [`Transfer`]'s [`Payload`] says whether it is data or an ack, and to
//! which kind of receiver. Only a run that applies recovery carries the
//! protocol's state, one [`Recovery`]. [`PipelineWorld::deliver`] decides
//! each ended transfer's [`Fate`] once and matches (receiver, kind, fate)
//! with no wildcard arm, so an unhandled combination fails to compile.
//!
//! Known behaviour, kept because the pinned outputs depend on it:
//! - a node re-acks a duplicate without checking that its sender is
//!   alive, while the host does check;
//! - a node that drops a duplicate is not returned to idle;
//! - data sent to the host is never stale;
//! - [`ACK_WAIT`] fires on acks that are only late (see its doc).

use super::{Counter, Ev, PipelineWorld};
use crate::faults::LinkFault;
use crate::workload::NodeShare;
use dles_net::Endpoint;
use dles_power::Mode;
use dles_sim::{Component, Ctx, SimTime, TraceEvent};

/// How long a sender waits for an acknowledgment before it declares the
/// receiver dead: twice the latency of an ack alone on an idle link
/// (100 ms).
///
/// Under faults that is too short. An ack queues for its link behind the
/// acking side's earlier transfers, re-acks of duplicates among them, so
/// one late ack starts a cycle that sustains itself: the sender
/// retransmits, and the re-ack of that duplicate delays the next frame's
/// ack past its timer too. After a brownout, healthy links cycle for minutes.
pub(super) const ACK_WAIT: SimTime = SimTime::from_millis(200);

/// How many frame delays a mid-pipeline node tolerates hearing nothing
/// from upstream before it checks whether its neighbour died.
pub(super) const RECV_TIMEOUT_FRAMES: u64 = 2;

/// Idle time a survivor spends reloading code when it absorbs a dead
/// neighbour's share.
const MIGRATION_DELAY: SimTime = SimTime::from_millis(100);

/// How many times an unacknowledged transfer to a live receiver is
/// retransmitted before its frame is abandoned.
const MAX_RETRIES: u32 = 4;

/// How many recent frames a receiver remembers, to drop duplicates.
const DEDUP_WINDOW: usize = 32;

/// The protocol state of a run that applies recovery.
#[derive(Debug, Default)]
pub(super) struct Recovery {
    /// Share-map epoch; bumped by migration.
    epoch: u64,
    pub(super) nodes: Vec<NodeRecovery>,
    pub(super) host_seen: DedupWindow,
    /// (first frame emitted at this depth, depth) after each migration.
    depth_history: Vec<(u64, usize)>,
}

/// One node's protocol state.
#[derive(Debug, Clone, Default)]
pub(super) struct NodeRecovery {
    /// Bumped per fresh delivery; an older receive timeout stands down.
    recv_seq: u64,
    pub(super) send_seq: u64,
    /// Sends awaiting their ack, each with its own target.
    pub(super) outstanding: Vec<OutstandingSend>,
    pub(super) seen: DedupWindow,
    /// No DVS: its merged share misses the deadline even at the peak clock.
    pub(super) flat_out: bool,
}

/// A reliable data send awaiting its ack: the transfer as planned, which
/// a retransmission plans again.
#[derive(Debug, Clone, Copy)]
pub(super) struct OutstandingSend {
    pub(super) send: Transfer,
    pub(super) retries: u32,
}

/// The last [`DEDUP_WINDOW`] frames a receiver got, oldest first.
#[derive(Debug, Clone, Default)]
pub(super) struct DedupWindow(Vec<u64>);

impl DedupWindow {
    pub(super) fn contains(&self, frame: u64) -> bool {
        self.0.contains(&frame)
    }

    pub(super) fn remember(&mut self, frame: u64) {
        if self.0.len() == DEDUP_WINDOW {
            self.0.remove(0);
        }
        self.0.push(frame);
    }
}

/// What became of a transfer at its receiver, decided in this order.
enum Fate {
    ReceiverDead,
    ReceiverOffline,
    /// Dropped in flight or rejected by the PPP FCS.
    Lost,
    /// Data routed to a node under a pre-migration share map.
    Stale,
    /// Data the receiver already got: a retransmission after a loss.
    Duplicate,
    Fresh,
}

impl Recovery {
    pub(super) fn new(n: usize) -> Self {
        Recovery {
            nodes: vec![NodeRecovery::default(); n],
            ..Recovery::default()
        }
    }

    /// A reliable data send from node `n`, built by `t` with the node's
    /// next send number and kept until its ack clears it or its ack
    /// timeout gives it up.
    pub(super) fn send(&mut self, n: usize, t: impl FnOnce(Option<u64>) -> Transfer) -> Transfer {
        let state = &mut self.nodes[n];
        let mut send = t(Some(state.send_seq));
        send.epoch = self.epoch;
        state.send_seq += 1;
        state.outstanding.push(OutstandingSend { send, retries: 0 });
        send
    }
}

impl PipelineWorld {
    /// The share-map epoch: 0 until a migration.
    pub(super) fn epoch(&self) -> u64 {
        self.recovery.as_ref().map_or(0, |rec| rec.epoch)
    }

    /// The pipeline depth in force when `frame` was emitted, for deadline
    /// accounting: a frame emitted into an n-stage pipeline is due n frame
    /// periods later even if a migration shrinks the pipeline mid-flight.
    pub(super) fn depth_at_emission(&self, frame: u64) -> u64 {
        let history: &[_] = self.recovery.as_ref().map_or(&[], |r| &r.depth_history);
        let at = history.iter().rev().find(|(first, _)| *first <= frame);
        at.map_or(self.nodes.len(), |&(_, depth)| depth) as u64
    }

    /// The fate of `t` at its receiver, at `now`.
    fn fate(&self, now: SimTime, t: &Transfer) -> Fate {
        match t.to() {
            Endpoint::Node(r) if !self.nodes[r].alive() => return Fate::ReceiverDead,
            Endpoint::Node(r) if self.is_offline(now, r) => return Fate::ReceiverOffline,
            Endpoint::Node(_) | Endpoint::Host if t.lost() => return Fate::Lost,
            Endpoint::Node(_) | Endpoint::Host => {}
        }
        // Without recovery nothing goes stale or arrives twice.
        let Some(rec) = &self.recovery else {
            return Fate::Fresh;
        };
        let seen = match t.payload {
            Payload::DataToNode { .. } if t.epoch != rec.epoch => return Fate::Stale,
            Payload::DataToNode { node, .. } => &rec.nodes[node].seen,
            Payload::DataToHost { .. } => &rec.host_seen,
            Payload::Ack { .. } => return Fate::Fresh,
        };
        if seen.contains(t.frame) {
            Fate::Duplicate
        } else {
            Fate::Fresh
        }
    }

    /// The receive side of a transfer that ended.
    pub(super) fn deliver(&mut self, ctx: &mut Ctx<Ev>, t: Transfer) {
        use Endpoint::{Host, Node};
        use Fate::*;
        use Payload::*;
        let (from, frame) = (t.from, t.frame);
        match (t.payload, self.fate(ctx.now(), &t)) {
            // Nothing is heard; the sender's ack timeout fires.
            (DataToNode { .. } | DataToHost { .. } | Ack { .. }, ReceiverDead) => {}
            (DataToNode { .. } | DataToHost { .. } | Ack { .. }, ReceiverOffline) => {
                self.count(Counter::TransfersLostOffline);
            }
            (DataToNode { node, .. } | Ack { to: Node(node), .. }, Lost) => {
                self.count(Counter::TransfersLost);
                self.set_node_state(ctx, node, Mode::Idle);
            }
            (DataToHost { .. }, Lost) => self.count(Counter::TransfersLost),
            (Ack { to: Host, .. }, Lost) => self.count(Counter::AcksLostToHost),
            // Stale data is dropped; `fate` finds none for the host.
            (DataToNode { node, .. }, Stale) => self.set_node_state(ctx, node, Mode::Idle),
            (DataToHost { .. }, Stale) => {}
            // Re-ack a duplicate, unprocessed, so that its sender stands down.
            (DataToNode { node, seq, .. }, Duplicate) => {
                self.count(Counter::DuplicateFramesDropped);
                let ack = Transfer::ack(Node(node), from, frame, seq, None);
                self.plan_transfer(ctx, ack);
            }
            (DataToHost { seq }, Duplicate) => {
                self.count(Counter::DuplicateFramesDropped);
                self.host_ack(ctx, from, frame, seq);
            }
            (DataToNode { node, share, seq }, Fresh) => match &mut self.recovery {
                None => self.start_proc(ctx, node, frame, share),
                // Re-arm the upstream-silence watchdog, acknowledge, then
                // process once the ack is out.
                Some(rec) => {
                    let state = &mut rec.nodes[node];
                    state.seen.remember(frame);
                    state.recv_seq += 1;
                    let watch = state.recv_seq;
                    let wait = self.cfg.sys.frame_delay * RECV_TIMEOUT_FRAMES;
                    ctx.schedule_in(wait, Ev::RecvTimeout { node, seq: watch });
                    let ack = Transfer::ack(Node(node), from, frame, seq, Some(share));
                    self.plan_transfer(ctx, ack);
                }
            },
            (DataToHost { seq }, Fresh) => {
                self.complete_frame(ctx, frame);
                if let Some(rec) = &mut self.recovery {
                    rec.host_seen.remember(frame);
                    self.host_ack(ctx, from, frame, seq);
                }
            }
            // An ack is honoured once heard; the host keeps no sends.
            (
                Ack {
                    to: Node(node), of, ..
                },
                Stale | Duplicate | Fresh,
            ) => {
                // Every outstanding send is numbered, so an unnumbered
                // ack clears none.
                if let Some(rec) = &mut self.recovery {
                    let sends = &mut rec.nodes[node].outstanding;
                    sends.retain(|o| o.send.payload.seq() != of);
                }
                self.set_node_state(ctx, node, Mode::Idle);
            }
            (Ack { to: Host, .. }, Stale | Duplicate | Fresh) => {}
        }
    }

    /// The host acknowledges a delivered result back to its sender.
    fn host_ack(&mut self, ctx: &mut Ctx<Ev>, to: Endpoint, frame: u64, of: Option<u64>) {
        if let Endpoint::Node(sender) = to {
            if self.nodes[sender].alive() {
                self.plan_transfer(ctx, Transfer::ack(Endpoint::Host, to, frame, of, None));
            }
        }
    }

    /// A survivor absorbs an adjacent dead stage's share; only recovery
    /// timeouts call this.
    fn migrate(&mut self, ctx: &mut Ctx<Ev>, survivor: usize, dead: usize) {
        let Some(s_surv) = self.share_of_node(survivor) else {
            return;
        };
        let Some(s_dead) = self.share_of_node(dead) else {
            return; // already migrated away
        };
        assert!(!self.nodes[dead].alive(), "migrating from a living node");
        // Merge the two adjacent ranges.
        let (lo, hi) = (s_surv.min(s_dead), s_surv.max(s_dead));
        assert_eq!(hi - lo, 1, "only adjacent shares can merge");
        let merged_range = self.cfg.shares[lo]
            .range
            .merge_with_next(self.cfg.shares[hi].range);
        let merged = NodeShare::from_profile(&self.cfg.sys.profile, merged_range);
        // The slowest level feasible with the same ack overhead, else the
        // peak clock.
        let feasible = merged.min_feasible_level(&self.cfg.sys, SimTime::from_millis(150));
        let level = feasible.unwrap_or_else(|| self.cfg.sys.dvs.highest());
        // The survivor's share becomes the merged one; the dead stage
        // leaves every share-indexed table.
        self.cfg.shares[s_surv] = merged;
        self.cfg.levels[s_surv] = level;
        self.cfg.shares.remove(s_dead);
        self.cfg.levels.remove(s_dead);
        self.node_of_share.remove(s_dead);
        if let Some(rec) = &mut self.recovery {
            // In-flight data against the old share map is lost, and so are
            // the survivor's pending sends: their ack timeouts stand down.
            rec.epoch += 1;
            rec.nodes[survivor].flat_out |= feasible.is_none();
            rec.nodes[survivor].outstanding.clear();
            // Frames emitted from here on traverse the shrunken pipeline.
            let depth = (self.next_frame, self.cfg.shares.len());
            rec.depth_history.push(depth);
        }
        self.count(Counter::Migrations);
        if ctx.tracing() {
            ctx.emit(
                Component::Node(survivor),
                TraceEvent::Migration {
                    dead: Endpoint::Node(dead),
                    merged_freq_mhz: level.freq_mhz.mhz(),
                    feasible: feasible.is_some(),
                },
            );
        }
        let t = self.nodes[survivor].busy_until.max(ctx.now()) + MIGRATION_DELAY;
        self.nodes[survivor].busy_until = t;
        self.set_node_state(ctx, survivor, Mode::Idle);
    }

    pub(super) fn on_ack_timeout(&mut self, ctx: &mut Ctx<Ev>, node: usize, seq: u64) {
        let offline = self.is_offline(ctx.now(), node);
        // Armed only under recovery; a sender that died since does nothing.
        let Some(rec) = self.recovery.as_mut().filter(|_| self.nodes[node].alive()) else {
            return;
        };
        // Each send carries its own target, so a newer send to a different
        // endpoint can't steal the attribution.
        let sends = &mut rec.nodes[node].outstanding;
        let Some(pos) = sends.iter().position(|o| o.send.payload.seq() == Some(seq)) else {
            return; // the ack arrived
        };
        let OutstandingSend { send, retries } = sends.remove(pos);
        if send.epoch != rec.epoch {
            return; // planned against a pre-migration share map
        }
        let to = send.to();
        let dead_target = match to {
            Endpoint::Node(target) if !self.nodes[target].alive() => Some(target),
            Endpoint::Node(_) | Endpoint::Host => None,
        };
        // A live target (or the host) means a transient loss: retransmit,
        // up to the retry budget.
        let retry = !offline && dead_target.is_none() && retries < MAX_RETRIES;
        if retry {
            let retries = retries + 1;
            sends.insert(pos, OutstandingSend { send, retries });
        }
        self.count(Counter::AckTimeouts);
        if ctx.tracing() {
            ctx.emit(
                Component::Wire(to, Endpoint::Node(node)),
                TraceEvent::Transaction {
                    event: "timeout",
                    payload: "ack",
                    bytes: 0,
                    frame: send.frame,
                    waiter: Some(Endpoint::Node(node)),
                    upstream_alive: None,
                },
            );
        }
        if offline {
            // A browned-out sender can't retransmit; give the frame up.
            self.count(Counter::SendsAbandoned);
        } else if let Some(target) = dead_target {
            self.migrate(ctx, node, target);
        } else if retry {
            self.count(Counter::Retransmissions);
            self.plan_transfer(ctx, send);
        } else {
            self.count(Counter::SendsAbandoned);
        }
    }

    pub(super) fn on_recv_timeout(&mut self, ctx: &mut Ctx<Ev>, node: usize, seq: u64) {
        // Armed only under recovery.
        let Some(rec) = &self.recovery else {
            return;
        };
        if seq != rec.nodes[node].recv_seq || !self.nodes[node].alive() {
            return;
        }
        self.count(Counter::RecvTimeouts);
        let Some(share) = self.share_of_node(node) else {
            return;
        };
        if share == 0 {
            return; // upstream is the host, which never dies
        }
        let upstream = self.node_of_share[share - 1];
        let upstream_alive = self.nodes[upstream].alive();
        if ctx.tracing() {
            ctx.emit(
                Component::Wire(Endpoint::Node(upstream), Endpoint::Node(node)),
                TraceEvent::Transaction {
                    event: "timeout",
                    payload: "data",
                    bytes: 0,
                    frame: 0,
                    waiter: None,
                    upstream_alive: Some(upstream_alive),
                },
            );
        }
        if upstream_alive {
            // Upstream is alive but slow; keep watching.
            let wait = self.cfg.sys.frame_delay * RECV_TIMEOUT_FRAMES;
            ctx.schedule_in(wait, Ev::RecvTimeout { node, seq });
        } else {
            self.migrate(ctx, node, upstream);
        }
    }
}

/// What a transfer carries, and to which kind of receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Payload {
    /// A frame's data for `node`, which runs `share` of it on arrival;
    /// `seq` is the sender's reliable-send number under recovery.
    DataToNode {
        node: usize,
        share: usize,
        seq: Option<u64>,
    },
    /// A frame's result for the host.
    DataToHost { seq: Option<u64> },
    /// The zero-byte acknowledgment to `to` of its data send `of` (the
    /// host's data is not numbered). The acking node then runs
    /// `then_proc`, the share of the frame it acknowledged.
    Ack {
        to: Endpoint,
        of: Option<u64>,
        then_proc: Option<usize>,
    },
}

impl Payload {
    /// The `payload` label of transaction, io and timeout records.
    pub(super) fn name(self) -> &'static str {
        match self {
            Payload::DataToNode { .. } | Payload::DataToHost { .. } => "data",
            Payload::Ack { .. } => "ack",
        }
    }

    /// The sender's reliable-send number of data.
    pub(super) fn seq(self) -> Option<u64> {
        match self {
            Payload::DataToNode { seq, .. } | Payload::DataToHost { seq } => seq,
            Payload::Ack { .. } => None,
        }
    }

    /// The share an ack's sender runs once the ack is out.
    pub(super) fn then_proc(self) -> Option<usize> {
        match self {
            Payload::Ack { then_proc, .. } => then_proc,
            Payload::DataToNode { .. } | Payload::DataToHost { .. } => None,
        }
    }
}

/// One planned movement between two endpoints over the serial hub.
#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    pub(super) from: Endpoint,
    pub(super) bytes: u64,
    pub(super) frame: u64,
    pub(super) payload: Payload,
    /// Share-map epoch at planning time; stale transfers are dropped.
    pub(super) epoch: u64,
    /// Injected link fault, decided at planning time from the fault plan.
    pub(super) fault: Option<LinkFault>,
}

impl Transfer {
    /// `bytes` of `frame` carrying `payload`.
    pub(super) fn new(from: Endpoint, bytes: u64, frame: u64, payload: Payload) -> Self {
        Transfer {
            from,
            bytes,
            frame,
            payload,
            epoch: 0,
            fault: None,
        }
    }

    /// The acknowledgment of `frame`'s data send `of`; `then_proc` is the
    /// share the acking node runs once the ack is out.
    pub(super) fn ack(
        from: Endpoint,
        to: Endpoint,
        frame: u64,
        of: Option<u64>,
        then_proc: Option<usize>,
    ) -> Self {
        Transfer::new(from, 0, frame, Payload::Ack { to, of, then_proc })
    }

    /// The receiving endpoint.
    pub(super) fn to(&self) -> Endpoint {
        match self.payload {
            Payload::DataToNode { node, .. } => Endpoint::Node(node),
            Payload::DataToHost { .. } => Endpoint::Host,
            Payload::Ack { to, .. } => to,
        }
    }

    /// Whether an injected fault destroys the payload in flight. Delays
    /// only stretch the wire time; drops and corruptions (detected by the
    /// PPP FCS at the receiver) suppress delivery.
    pub(super) fn lost(&self) -> bool {
        matches!(
            self.fault,
            Some(LinkFault::Dropped | LinkFault::Corrupted { .. })
        )
    }

    /// The `transaction` event of lifecycle `event` (`"start"`,
    /// `"delivered"`) of this transfer, with its `a->b` wire.
    pub(super) fn trace_event(&self, event: &'static str) -> (Component, TraceEvent) {
        let transaction = TraceEvent::Transaction {
            event,
            payload: self.payload.name(),
            bytes: self.bytes,
            frame: self.frame,
            waiter: None,
            upstream_alive: None,
        };
        (Component::Wire(self.from, self.to()), transaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::faults::FaultProfile;
    use crate::montecarlo::trial_config;
    use crate::pipeline::{build_engine, PipelineConfig, Technique};
    use dles_net::SerialConfig;
    use dles_sim::SimRng;

    /// The host and every node keep the same window: the last
    /// [`DEDUP_WINDOW`] frames, the oldest forgotten first.
    #[test]
    fn dedup_window_evicts_the_oldest_frame_for_host_and_node() {
        let mut engine = build_engine(Experiment::Exp2B.config());
        let rec = engine.world_mut().recovery.as_mut().unwrap();
        let last = DEDUP_WINDOW as u64;
        for frame in 0..=last {
            rec.host_seen.remember(frame);
            rec.nodes[1].seen.remember(frame);
        }
        for window in [&rec.host_seen, &rec.nodes[1].seen] {
            assert!(!window.contains(0), "the oldest frame is forgotten");
            assert!((1..=last).all(|f| window.contains(f)));
        }
        assert!(!rec.nodes[0].seen.contains(1), "each node has its own");
    }

    /// On a lossy link with no deaths and no brownouts every drop or bit
    /// error destroys exactly one transfer, which is counted once at its
    /// end: as a lost transfer, or as a lost ack to the host. Transfers
    /// still in flight when the run stops have not ended yet.
    #[test]
    fn every_destroyed_transfer_is_counted_once() {
        for technique in [Some(Technique::Recovery), None] {
            let base = PipelineConfig {
                technique,
                ..Experiment::Exp2B.config()
            };
            for trial in 0..4 {
                let cfg = trial_config(&base, FaultProfile::lossy_link(), 7, trial);
                let mut engine = build_engine(cfg);
                engine.run_until(SimTime::from_secs(3600));
                let w = engine.world();
                let count = |key| w.counters().get(key);
                assert_eq!(count("node_deaths") + count("fault_brownouts"), 0);
                let in_flight = (0..w.transfers.len())
                    .filter(|id| !w.free_transfers.contains(id))
                    .filter(|&id| w.transfers[id].lost())
                    .count() as u64;
                assert_eq!(
                    count("fault_drops") + count("fault_bit_errors"),
                    count("transfers_lost") + count("acks_lost_to_host") + in_flight,
                    "{technique:?} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn trace_record_names_the_link() {
        let to = Payload::DataToNode {
            node: 1,
            share: 0,
            seq: None,
        };
        let tx = Transfer::new(Endpoint::Host, 614, 12, to);
        let (wire, event) = tx.trace_event("start");
        let rec = event.record(SimTime::from_secs(5), wire);
        assert_eq!(rec.component, "host->node2");
        assert_eq!(rec.kind, "transaction");
        assert_eq!(rec.str_field("event"), Some("start"));
        assert_eq!(rec.str_field("payload"), Some("data"));
        assert_eq!(rec.u64_field("bytes"), Some(614));
        assert_eq!(rec.u64_field("frame"), Some(12));
        let ack = Transfer::ack(Endpoint::Node(1), Endpoint::Host, 0, None, None);
        let (wire, event) = ack.trace_event("delivered");
        let rec = event.record(SimTime::ZERO, wire);
        assert_eq!(rec.component, "node2->host");
        assert_eq!(rec.str_field("payload"), Some("ack"));
        assert_eq!(rec.u64_field("bytes"), Some(0));
    }

    #[test]
    fn jittered_latency_in_window() {
        let cfg = SerialConfig::paper();
        let to = Payload::DataToNode {
            node: 0,
            share: 0,
            seq: None,
        };
        let tx = Transfer::new(Endpoint::Host, 1000, 0, to);
        let mut rng = SimRng::seed_from_u64(4);
        let wire = 1000.0 * 8.0 / 80_000.0;
        for _ in 0..100 {
            let t = cfg.transfer_time(tx.bytes, Some(&mut rng)).as_secs_f64();
            assert!(t >= wire + 0.05 && t <= wire + 0.1);
        }
    }
}
