//! The discrete-event model of the distributed system (§3, Figs. 2–3, 9).
//!
//! A host computer (mains-powered, never dies) emits one frame every `D`
//! seconds to the node at the head of the pipeline and collects one result
//! every `D` from the tail. Each node runs its serialized
//! RECV → PROC → SEND triple, drawing battery current according to its
//! power state; serial lines are reserved through the hub's
//! [`LinkSchedule`]; node deaths are scheduled *proactively* from the
//! battery's time-to-exhaustion under the present draw, so exhaustion is
//! located exactly. Far from death a node waits on a sentinel at a lower
//! bound of its death instead, so its transitions query the battery only
//! once they come near it.
//!
//! The same world implements all four techniques: DVS during I/O is a
//! [`DvsPolicy`]; partitioning is the share/level assignment; power-failure
//! recovery adds acknowledgment transactions, timeouts and share
//! migration; node rotation periodically shifts every node's role by one
//! with the §5.5 doubling trick that preserves throughput.
// A panic mid-dispatch leaves a half-applied world state; the few
// protocol invariants that may panic carry an `#[expect]` with a reason.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::faults::{FaultPlan, FaultState, LinkFault};
use crate::metrics::ExperimentResult;
use crate::node::{BatterySpec, DeathArm, SimNode};
use crate::policy::{
    DvsPolicy, SchedulingPolicy, ADAPTIVE_MAX_PERIOD_FRAMES, ADAPTIVE_MIN_PERIOD_FRAMES,
    ADAPTIVE_TARGET_SKEW, SOC_SKEW_MIN_GAP_FRAMES, SOC_SKEW_THRESHOLD,
};
use crate::workload::{NodeShare, SystemConfig};
use dles_net::{Endpoint, LinkSchedule};
use dles_power::{CurrentModel, FreqLevel, Mode};
use dles_sim::{
    Component, Ctx, Engine, EventId, InjectedFault, LinkFaultKind, Recorder, RunOutcome, SimRng,
    SimTime, TraceEvent, World,
};
use dles_units::MilliAmps;
use std::num::NonZeroU64;

/// Tolerance added to the per-frame deadline before counting a miss
/// (absorbs sub-millisecond rounding in transfer times).
const DEADLINE_TOLERANCE: SimTime = SimTime(50_000); // 50 ms

// The §5.4 protocol: a child module, so its handlers reach world state.
#[path = "protocol.rs"]
mod protocol;
use protocol::{Payload, Recovery, Transfer, ACK_WAIT};

/// §5.5: idle time a node spends loading its new role's code at a
/// rotation ("It should be sufficient for both nodes to load the new code
/// into memory").
const RECONFIG_DELAY: SimTime = SimTime::from_millis(50);

/// How near its death sentinel a node must come before the sentinel is
/// recomputed, and how near its bound before it re-arms exactly.
const DEATH_WINDOW: SimTime = SimTime::from_secs(60);

/// The technique a run adds on top of partitioning and DVS. The paper
/// treats power-failure recovery and node rotation as alternatives, so a
/// run applies at most one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Power-failure recovery (§5.4): "Each sending transaction must be
    /// acknowledged by the receiver. A timeout mechanism is used on each
    /// node to detect the failure of the neighboring nodes. The
    /// computation share of the failed node will then migrate to one of
    /// its neighboring nodes." Every ack is a serial transaction of its
    /// own, so the nodes must run at faster DVS levels to meet the frame
    /// delay.
    Recovery,
    /// Node rotation (§5.5): once every `period_frames` frames the node
    /// at the head of the pipeline processes its own share and the next
    /// one on the same frame, with its data already local. That removes
    /// one SEND/RECV pair, and every node's role shifts by one, the tail
    /// node rotating to the front. The host still emits one frame and
    /// receives one result every `D`.
    Rotation {
        /// Frames between rotations. Frame 0 never rotates.
        period_frames: NonZeroU64,
    },
}

impl Technique {
    /// The paper's §6.7 rotation: once every 100 frames.
    pub const PAPER_ROTATION: Technique = Technique::Rotation {
        period_frames: NonZeroU64::new(100).expect("100 is not zero"),
    };
}

/// Whether a rotation every `period_frames` frames falls on `frame`.
/// Frame 0 never rotates: there is nothing to balance yet.
fn rotates_on(period_frames: NonZeroU64, frame: u64) -> bool {
    frame > 0 && frame % period_frames == 0
}

/// Complete configuration of one pipeline experiment.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Experiment label for reports.
    pub label: String,
    /// System constants (D, profile, serial, DVS table).
    pub sys: SystemConfig,
    /// Share of the algorithm per pipeline stage (stage = role index).
    pub shares: Vec<NodeShare>,
    /// Computation DVS level per stage.
    pub levels: Vec<FreqLevel>,
    /// The DVS policy applied on every node.
    pub policy: DvsPolicy,
    /// The battery-state-aware scheduling policy layered on top.
    /// [`SchedulingPolicy::Static`] reproduces the paper's fixed behaviour
    /// byte-for-byte; the adaptive variants observe per-node SoC estimates
    /// and decide online when the next §5.5 rotation wave launches.
    pub scheduling: SchedulingPolicy,
    /// Battery model per node (every node gets a fresh one).
    pub battery: BatterySpec,
    /// The CPU current model.
    pub current_model: CurrentModel,
    /// Recovery (§5.4) or rotation (§5.5), if either.
    pub technique: Option<Technique>,
    /// `false` for the no-I/O experiments 0A/0B: nodes loop PROC locally.
    pub io_enabled: bool,
    /// Seed for startup-latency jitter; `None` = deterministic nominal.
    pub jitter_seed: Option<u64>,
    /// Seeded fault injection (link faults, brownouts, battery variance);
    /// `None` = the ideal environment.
    pub faults: Option<FaultPlan>,
    /// Explicit per-node battery capacity scale factors (length = node
    /// count), multiplied with any fault-profile variance. `None` = 1.0.
    pub battery_scales: Option<Vec<f64>>,
    /// Safety horizon; the batteries always die long before this.
    pub horizon: SimTime,
}

impl PipelineConfig {
    pub fn n_nodes(&self) -> usize {
        self.shares.len()
    }

    /// The rotation period, if the run applies §5.5 rotation.
    fn rotation_period(&self) -> Option<NonZeroU64> {
        match self.technique {
            Some(Technique::Rotation { period_frames }) => Some(period_frames),
            _ => None,
        }
    }

    fn validate(&self) {
        assert!(!self.shares.is_empty(), "pipeline needs at least one stage");
        assert_eq!(
            self.shares.len(),
            self.levels.len(),
            "one DVS level per stage required"
        );
        if self.rotation_period().is_some() {
            assert!(
                self.shares.len() >= 2,
                "rotation requires at least two nodes"
            );
        } else {
            assert!(
                self.scheduling.is_static(),
                "adaptive scheduling policies decide *when* to rotate and \
                 need the rotation technique for the wave mechanics"
            );
        }
        if let Some(scales) = &self.battery_scales {
            assert_eq!(
                scales.len(),
                self.shares.len(),
                "one battery scale per node required"
            );
            assert!(
                scales.iter().all(|&s| s > 0.0),
                "battery scales must be positive"
            );
        }
    }
}

/// Events of the pipeline world.
#[derive(Debug)]
pub enum Ev {
    HostEmit,
    XferStart(usize),
    XferEnd(usize),
    ProcEnd {
        node: usize,
        frame: u64,
        share: usize,
    },
    /// Start the second PROC of a rotation-doubled frame.
    DoubleProc {
        node: usize,
        frame: u64,
        share: usize,
    },
    /// The no-I/O local computation loop (experiments 0A/0B).
    LocalLoop {
        node: usize,
    },
    NodeDeath(usize),
    /// A node's death sentinel: its battery outlives this instant under
    /// any draw, so the handler only re-arms the node's death from the
    /// state settled at its last transition. It settles nothing, traces
    /// nothing and counts nothing.
    DeathBound(usize),
    AckTimeout {
        node: usize,
        seq: u64,
    },
    RecvTimeout {
        node: usize,
        seq: u64,
    },
    /// Fault injection: the node goes offline for a bounded interval.
    BrownoutStart(usize),
    /// Fault injection: the node comes back online.
    BrownoutEnd(usize),
}

/// The event counters a run reports under `repro --counters`, one variant
/// per key; each doc comment says what the counter counts. Every key is
/// emitted through [`PipelineWorld::count`], the one `CounterSet::incr`
/// call that `clippy.toml` lets through. The enum is crate-private, so a
/// variant nothing constructs fails the build as `dead_code`. A read
/// outside tests constructs its variant too, which would hide a variant
/// nothing emits, so typed reads are kept to the tallies a run reports:
/// `FramesCompleted`, `DeadlineMisses` and `Rotations` here, which have no
/// other store, and `Rotations` in `sweep.rs`. The Monte Carlo report
/// reads its counters by key string.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    /// Sensor frames injected into the pipeline.
    FramesEmitted,
    /// Frames delivered to the host end to end.
    FramesCompleted,
    /// Completed frames that arrived after their deadline.
    DeadlineMisses,
    /// Retransmitted frames the host had already received.
    DuplicateFramesDropped,
    /// Frames abandoned because their node was browned out.
    FramesLostBrownout,
    /// Data transfers placed on the serial link.
    TransfersData,
    /// Acknowledgement transfers placed on the serial link.
    TransfersAck,
    /// Transfers to a node, and data to the host, dropped or failing the FCS.
    TransfersLost,
    /// Acks to the host dropped in flight or failing the PPP FCS.
    AcksLostToHost,
    /// Transfers unheard because the receiver was browned out.
    TransfersLostOffline,
    /// Data transfers re-sent after an ack timeout.
    Retransmissions,
    /// Ack-wait expirations observed by senders.
    AckTimeouts,
    /// Receive-side timeouts while waiting on an upstream node.
    RecvTimeouts,
    /// Transfers given up (retry budget spent or sender offline).
    SendsAbandoned,
    /// Node power-state changes (idle/compute/transfer/sleep).
    StateTransitions,
    /// Role rotations performed.
    Rotations,
    /// Rotations postponed by policy hysteresis.
    RotationsDeferred,
    /// Role migrations off a dead or dying node.
    Migrations,
    /// Nodes whose battery reached exhaustion.
    NodeDeaths,
    /// Scheduling-policy evaluations at decision points.
    PolicyDecisions,
    /// Injected link-level frame drops.
    FaultDrops,
    /// Injected link bit errors that corrupted the PPP frame.
    FaultBitErrors,
    /// Injected link delivery delays.
    FaultDelays,
    /// Injected transient node brownouts.
    FaultBrownouts,
}

impl Counter {
    /// The key the counter is stored and printed under.
    pub(crate) const fn key(self) -> &'static str {
        match self {
            Counter::FramesEmitted => "frames_emitted",
            Counter::FramesCompleted => "frames_completed",
            Counter::DeadlineMisses => "deadline_misses",
            Counter::DuplicateFramesDropped => "duplicate_frames_dropped",
            Counter::FramesLostBrownout => "frames_lost_brownout",
            Counter::TransfersData => "transfers_data",
            Counter::TransfersAck => "transfers_ack",
            Counter::TransfersLost => "transfers_lost",
            Counter::AcksLostToHost => "acks_lost_to_host",
            Counter::TransfersLostOffline => "transfers_lost_offline",
            Counter::Retransmissions => "retransmissions",
            Counter::AckTimeouts => "ack_timeouts",
            Counter::RecvTimeouts => "recv_timeouts",
            Counter::SendsAbandoned => "sends_abandoned",
            Counter::StateTransitions => "state_transitions",
            Counter::Rotations => "rotations",
            Counter::RotationsDeferred => "rotations_deferred",
            Counter::Migrations => "migrations",
            Counter::NodeDeaths => "node_deaths",
            Counter::PolicyDecisions => "policy_decisions",
            Counter::FaultDrops => "fault_drops",
            Counter::FaultBitErrors => "fault_bit_errors",
            Counter::FaultDelays => "fault_delays",
            Counter::FaultBrownouts => "fault_brownouts",
        }
    }
}

/// The simulated distributed system.
pub struct PipelineWorld {
    cfg: PipelineConfig,
    nodes: Vec<SimNode>,
    /// stage/share index → node index; a node whose share migrated away
    /// is in no entry.
    node_of_share: Vec<usize>,
    links: LinkSchedule,
    rng: Option<SimRng>,
    /// Planned transfers by id; a slot is reused once its `XferEnd` has
    /// copied it out (its `XferStart`, pushed earlier and no later, has
    /// popped by then), so the table holds only transfers in flight.
    transfers: Vec<Transfer>,
    /// Ids of the free `transfers` slots.
    free_transfers: Vec<usize>,
    next_frame: u64,
    /// Rotation wave (§5.5): for each node, the share it held when the
    /// rotation triggered; at its next `ProcEnd` of that share it
    /// continues with the next share locally instead of sending.
    double_from_share: Vec<Option<usize>>,
    /// Doublings of the current rotation wave not yet resolved (one per
    /// tag set). A new wave may not launch while this is nonzero:
    /// overwriting an unconsumed tag loses the wave and can double the
    /// wrong share.
    wave_outstanding: u64,
    /// Frame index of the last rotation launched (adaptive policies gate
    /// their next decision on the gap since this).
    last_rotation_frame: u64,
    /// Current period of [`SchedulingPolicy::AdaptivePeriod`], adapted at
    /// each wave from the observed SoC skew.
    adaptive_period: u64,
    /// The highest current any node can draw, over every mode and DVS
    /// level: the load under which a battery's death lower bound holds.
    i_max: MilliAmps,
    /// Time of the last event other than a death sentinel; a run cut by
    /// its horizon closes here.
    last_event: SimTime,
    /// The §5.4 protocol state; `Some` exactly when the run applies
    /// [`Technique::Recovery`].
    recovery: Option<Recovery>,
    /// Seeded fault-injection state (None = ideal environment).
    faults: Option<FaultState>,
    /// End-to-end frame latency distribution (emission → delivery), s.
    /// Built at the first delivery: its 600 bins are most of a new
    /// world's heap, and a run's set-up need not pay for them.
    latency: Option<dles_sim::Histogram>,
    stopped_at: Option<SimTime>,
    /// Monotonic event counters, reported with the experiment result.
    counters: dles_sim::CounterSet,
}

impl PipelineWorld {
    fn new(cfg: PipelineConfig) -> Self {
        cfg.validate();
        let n = cfg.n_nodes();
        let variance_scales = cfg
            .faults
            .as_ref()
            .map(|plan| FaultState::battery_scales(plan, n));
        let nodes: Vec<SimNode> = (0..n)
            .map(|i| {
                let idle_level = cfg.scheduling.dvs_policy(cfg.policy).level_for(
                    Mode::Idle,
                    cfg.levels[i],
                    &cfg.sys.dvs,
                );
                let scale = cfg.battery_scales.as_ref().map_or(1.0, |s| s[i])
                    * variance_scales.as_ref().map_or(1.0, |vs| vs[i]);
                let spec = if scale == 1.0 {
                    cfg.battery
                } else {
                    cfg.battery.scaled(scale)
                };
                SimNode::new(&spec, cfg.current_model.clone(), idle_level)
            })
            .collect();
        let i_max = Mode::ALL
            .iter()
            .flat_map(|&mode| cfg.sys.dvs.iter().map(move |level| (mode, level)))
            .map(|(mode, level)| cfg.current_model.current_ma(mode, level))
            .fold(MilliAmps::ZERO, MilliAmps::max);
        let rng = cfg.jitter_seed.map(SimRng::seed_from_u64);
        let faults = cfg.faults.as_ref().map(|plan| FaultState::new(plan, n));
        let recovery = (cfg.technique == Some(Technique::Recovery)).then(|| Recovery::new(n));
        PipelineWorld {
            nodes,
            node_of_share: (0..n).collect(),
            links: LinkSchedule::new(n),
            rng,
            transfers: Vec::new(),
            free_transfers: Vec::new(),
            next_frame: 0,
            double_from_share: vec![None; n],
            wave_outstanding: 0,
            last_rotation_frame: 0,
            adaptive_period: cfg.rotation_period().map_or(0, NonZeroU64::get),
            i_max,
            last_event: SimTime::ZERO,
            recovery,
            faults,
            latency: None,
            stopped_at: None,
            counters: dles_sim::CounterSet::new(),
            cfg,
        }
    }

    /// The share `node` currently holds; `None` once its share migrated
    /// away.
    fn share_of_node(&self, node: usize) -> Option<usize> {
        self.node_of_share.iter().position(|&n| n == node)
    }

    /// The base (computation) level of a node's current role; nodes whose
    /// share migrated away idle at the lowest level.
    fn base_level(&self, node: usize) -> FreqLevel {
        match self.share_of_node(node) {
            Some(s) => self.cfg.levels[s],
            None => self.cfg.sys.dvs.lowest(),
        }
    }

    /// The DVS policy in force on a node: the scheduling policy's rule
    /// over the configured one, unless a migration left it flat out.
    fn policy_for(&self, node: usize) -> DvsPolicy {
        let flat_out = self
            .recovery
            .as_ref()
            .is_some_and(|r| r.nodes[node].flat_out);
        if flat_out {
            DvsPolicy::FixedLevel
        } else {
            self.cfg.scheduling.dvs_policy(self.cfg.policy)
        }
    }

    /// Max–min spread of the alive nodes' SoC estimates — the imbalance
    /// signal the adaptive policies act on. Zero with fewer than two
    /// nodes alive.
    fn soc_skew(&self) -> dles_units::StateOfCharge {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for n in self.nodes.iter().filter(|n| n.alive()) {
            let soc = n.soc_estimate().get();
            lo = lo.min(soc);
            hi = hi.max(soc);
        }
        dles_units::StateOfCharge::new(if hi > lo { hi - lo } else { 0.0 })
    }

    /// Whether the scheduling policy wants a rotation wave at `frame`.
    /// Pure function of event history (frame counters and settled battery
    /// state), so the decision is deterministic at any thread count.
    fn rotation_due(&self, frame: u64) -> bool {
        let Some(period_frames) = self.cfg.rotation_period() else {
            return false;
        };
        match self.cfg.scheduling {
            SchedulingPolicy::Static => rotates_on(period_frames, frame),
            SchedulingPolicy::RotateOnSocSkew => {
                frame > 0
                    && frame - self.last_rotation_frame >= SOC_SKEW_MIN_GAP_FRAMES
                    && self.soc_skew() >= SOC_SKEW_THRESHOLD
            }
            SchedulingPolicy::AdaptivePeriod => {
                frame > 0 && frame - self.last_rotation_frame >= self.adaptive_period
            }
        }
    }

    /// One doubling of the current rotation wave resolved (executed, lost
    /// to a brownout, or passed by). Saturating: tests may inject bare
    /// `DoubleProc` events with no wave open.
    fn wave_resolve_one(&mut self) {
        self.wave_outstanding = self.wave_outstanding.saturating_sub(1);
    }

    /// Whether a node is browned out (transiently offline) right now.
    fn is_offline(&self, now: SimTime, node: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.is_offline(node, now))
    }

    /// Bump one event counter.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one emit site: every counter key is a `Counter` variant"
    )]
    fn count(&mut self, c: Counter) {
        self.counters.incr(c.key());
    }

    /// Transition a node and reschedule its death event.
    fn set_node_state(&mut self, ctx: &mut Ctx<Ev>, node: usize, mode: Mode) {
        if !self.nodes[node].alive() {
            return;
        }
        let base = self.base_level(node);
        let policy = self.policy_for(node);
        let level = policy.level_for(mode, base, &self.cfg.sys.dvs);
        self.enter(ctx, node, mode, level, None, None);
    }

    /// Move a live node into `mode` at `level`: count and trace the
    /// transition, then re-arm the node's death event if it is near.
    fn enter(
        &mut self,
        ctx: &mut Ctx<Ev>,
        node: usize,
        mode: Mode,
        level: FreqLevel,
        share: Option<usize>,
        frame: Option<u64>,
    ) {
        self.count(Counter::StateTransitions);
        if ctx.tracing() {
            ctx.emit(
                Component::Node(node),
                TraceEvent::StateTransition {
                    mode: mode.name(),
                    freq_mhz: level.freq_mhz.mhz(),
                    share,
                    frame,
                },
            );
        }
        self.nodes[node].transition_recorded(ctx.now(), mode, level, ctx.recorder(), node);
        // Exact mode follows the new draw. Bound mode leaves a sentinel
        // beyond the window alone: no draw can bring the death before it.
        let next = match self.nodes[node].death {
            DeathArm::Bound { at, .. } if ctx.now() + DEATH_WINDOW < at => return,
            DeathArm::Bound { id, .. } => {
                ctx.cancel(id);
                self.death_event(node, ctx.now())
            }
            DeathArm::Exact(pending) => {
                if let Some(id) = pending {
                    ctx.cancel(id);
                }
                self.exact_death_event(node)
            }
        };
        self.nodes[node].death = push_death(next, |at, ev| ctx.schedule_at(at, ev));
    }

    /// The event that arms `node`'s death at `now`, from its battery as
    /// settled at its last transition: a sentinel at the battery's death
    /// lower bound while that lies beyond [`DEATH_WINDOW`], else the exact
    /// death.
    fn death_event(&self, node: usize, now: SimTime) -> Option<(SimTime, Ev)> {
        #[cfg(test)]
        if tests::exact_only() {
            return self.exact_death_event(node);
        }
        let n = &self.nodes[node];
        let bound = n.battery.death_lower_bound(self.i_max);
        match bound.map(|b| n.power.since() + b) {
            Some(at) if at > now + DEATH_WINDOW => Some((at, Ev::DeathBound(node))),
            _ => self.exact_death_event(node),
        }
    }

    /// `node`'s death under its present draw, from its battery as settled
    /// at its last transition; `None` if that draw never exhausts it.
    fn exact_death_event(&self, node: usize) -> Option<(SimTime, Ev)> {
        let n = &self.nodes[node];
        n.time_to_death()
            .map(|ttd| (n.power.since() + ttd, Ev::NodeDeath(node)))
    }

    /// Plan a transfer: find the earliest slot where its serial lines and
    /// both endpoints are free, reserve, and schedule its start/end.
    fn plan_transfer(&mut self, ctx: &mut Ctx<Ev>, mut t: Transfer) {
        let to = t.to();
        let route = dles_net::Route::between(t.from, to);
        let mut earliest = ctx.now();
        for ep in [t.from, to] {
            if let Endpoint::Node(i) = ep {
                earliest = earliest.max(self.nodes[i].busy_until);
            }
        }
        let start = self.links.earliest_start(&route, earliest);
        let serial = &self.cfg.sys.serial;
        let mut duration = serial.transfer_time(t.bytes, self.rng.as_mut());
        if let Some(fs) = self.faults.as_mut() {
            if fs.profile.has_link_faults() {
                t.fault = fs.draw_transfer_fault(t.bytes, t.frame);
                match t.fault {
                    Some(LinkFault::Dropped) => self.count(Counter::FaultDrops),
                    Some(LinkFault::Corrupted { .. }) => self.count(Counter::FaultBitErrors),
                    Some(LinkFault::Delayed(extra)) => {
                        self.count(Counter::FaultDelays);
                        duration += extra;
                    }
                    None => {}
                }
                if let Some(fault) = t.fault {
                    if ctx.tracing() {
                        let fault = match fault {
                            LinkFault::Dropped => LinkFaultKind::Drop,
                            LinkFault::Corrupted { flipped_bits } => LinkFaultKind::BitError {
                                flipped_bits: flipped_bits as u64,
                            },
                            LinkFault::Delayed(delay) => LinkFaultKind::Delay { delay },
                        };
                        ctx.emit(
                            Component::Link,
                            TraceEvent::FaultInjected(InjectedFault::Link {
                                from: t.from,
                                to,
                                frame: t.frame,
                                bytes: t.bytes,
                                fault,
                            }),
                        );
                    }
                }
            }
        }
        let end = self.links.reserve(&route, start, duration);
        for ep in [t.from, to] {
            if let Endpoint::Node(i) = ep {
                self.nodes[i].busy_until = self.nodes[i].busy_until.max(end);
            }
        }
        t.epoch = self.epoch();
        self.count(match t.payload {
            Payload::DataToNode { .. } | Payload::DataToHost { .. } => Counter::TransfersData,
            Payload::Ack { .. } => Counter::TransfersAck,
        });
        let id = self.free_transfers.pop().unwrap_or(self.transfers.len());
        if id < self.transfers.len() {
            self.transfers[id] = t;
        } else {
            self.transfers.push(t);
        }
        ctx.schedule_at(start, Ev::XferStart(id));
        ctx.schedule_at(end, Ev::XferEnd(id));
    }

    /// Begin PROC of `share` for `frame` on `node`.
    fn start_proc(&mut self, ctx: &mut Ctx<Ev>, node: usize, frame: u64, share: usize) {
        if !self.nodes[node].alive() {
            return;
        }
        let level = self.cfg.levels[share];
        let dur = self.cfg.shares[share].proc_time(&self.cfg.sys.dvs, level);
        // PROC always runs at the share's level regardless of policy.
        self.enter(
            ctx,
            node,
            Mode::Computation,
            level,
            Some(share),
            Some(frame),
        );
        self.nodes[node].busy_until = ctx.now() + dur;
        ctx.schedule_in(dur, Ev::ProcEnd { node, frame, share });
    }

    /// Send `frame`'s data onward after completing `share` on `node`: to
    /// the node now holding the next share (the §5.5 rotation wave makes
    /// the new map right for every frame), or out to the host. Under
    /// recovery the send is reliable.
    fn send_onward(&mut self, ctx: &mut Ctx<Ev>, node: usize, frame: u64, share: usize) {
        let bytes = self.cfg.shares[share].send_bytes;
        let next = self.node_of_share.get(share + 1).map(|&to| (to, share + 1));
        let data = |seq| {
            let payload = match next {
                Some((node, share)) => Payload::DataToNode { node, share, seq },
                None => Payload::DataToHost { seq },
            };
            Transfer::new(Endpoint::Node(node), bytes, frame, payload)
        };
        let t = match &mut self.recovery {
            Some(rec) => rec.send(node, data),
            None => data(None),
        };
        self.plan_transfer(ctx, t);
    }

    /// Rotate roles by one: the tail node moves to the head (§5.5).
    fn rotate_roles(&mut self) {
        // The node that held share s now holds share s+1; the tail holder
        // becomes the head.
        self.node_of_share.rotate_right(1);
        self.count(Counter::Rotations);
    }

    /// Adaptive-policy bookkeeping for a wave just launched at `frame`:
    /// update the `AdaptivePeriod` feedback loop from the observed skew
    /// and emit the `policy_decision` record. No-op under `Static`, so
    /// the paper-exact traces stay byte-identical.
    fn on_policy_rotation(&mut self, ctx: &mut Ctx<Ev>, frame: u64) {
        if self.cfg.scheduling.is_static() {
            return;
        }
        let skew = self.soc_skew();
        let mut action = "rotate";
        let adaptive = self.cfg.scheduling == SchedulingPolicy::AdaptivePeriod;
        if adaptive {
            if skew > ADAPTIVE_TARGET_SKEW {
                self.adaptive_period = (self.adaptive_period / 2).max(ADAPTIVE_MIN_PERIOD_FRAMES);
                action = "rotate_shrink";
            } else if skew.get() < ADAPTIVE_TARGET_SKEW.get() / 2.0 {
                self.adaptive_period = (self.adaptive_period * 2).min(ADAPTIVE_MAX_PERIOD_FRAMES);
                action = "rotate_stretch";
            }
        }
        self.count(Counter::PolicyDecisions);
        if ctx.tracing() {
            ctx.emit(
                Component::Pipeline,
                TraceEvent::PolicyDecision {
                    policy: self.cfg.scheduling.name(),
                    frame,
                    skew_soc: skew.get(),
                    action,
                    next_period_frames: adaptive.then_some(self.adaptive_period),
                },
            );
        }
    }

    /// Collect the experiment result; `now` is the end of observation.
    fn result(&mut self, now: SimTime) -> ExperimentResult {
        for node in &mut self.nodes {
            node.finish(now);
        }
        let lifetime = self.stopped_at.unwrap_or(now);
        ExperimentResult {
            label: self.cfg.label.clone(),
            n_nodes: self.nodes.len(),
            lifetime,
            frames_completed: self.counters.get(Counter::FramesCompleted.key()),
            deadline_misses: self.counters.get(Counter::DeadlineMisses.key()),
            mean_frame_latency_s: dles_units::Seconds::new(
                self.latency.as_ref().map_or(0.0, |h| h.mean()),
            ),
            p95_frame_latency_s: dles_units::Seconds::new(
                self.latency.as_ref().map_or(0.0, |h| h.quantile(0.95)),
            ),
            nodes: self.nodes.iter().map(SimNode::outcome).collect(),
            counters: self.counters.clone(),
        }
    }

    /// The monotonic event counters accumulated so far.
    pub fn counters(&self) -> &dles_sim::CounterSet {
        &self.counters
    }
}

impl World for PipelineWorld {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
        if !matches!(ev, Ev::DeathBound(_)) {
            self.last_event = ctx.now();
        }
        match ev {
            Ev::HostEmit => self.on_host_emit(ctx),
            Ev::XferStart(id) => self.on_xfer_start(ctx, id),
            Ev::XferEnd(id) => self.on_xfer_end(ctx, id),
            Ev::ProcEnd { node, frame, share } => self.on_proc_end(ctx, node, frame, share),
            Ev::DoubleProc { node, frame, share } => {
                // The reconfig window ends here either way: the wave's
                // doubling is resolved even when the node can't run it,
                // else the next rotation would be deferred forever.
                self.wave_resolve_one();
                if !self.nodes[node].alive() {
                    // Death stops a rotation pipeline; nothing to do.
                } else if self.is_offline(ctx.now(), node) {
                    // Brownout hit during reconfig: the doubled frame's
                    // work is lost, but the node already holds its *new*
                    // role in the share map and rejoins there when the
                    // brownout lifts.
                    self.count(Counter::FramesLostBrownout);
                } else {
                    self.start_proc(ctx, node, frame, share);
                }
            }
            Ev::LocalLoop { node } => self.on_local_loop(ctx, node),
            Ev::NodeDeath(node) => self.on_node_death(ctx, node),
            Ev::DeathBound(node) => self.on_death_bound(ctx, node),
            Ev::AckTimeout { node, seq } => self.on_ack_timeout(ctx, node, seq),
            Ev::RecvTimeout { node, seq } => self.on_recv_timeout(ctx, node, seq),
            Ev::BrownoutStart(node) => self.on_brownout_start(ctx, node),
            Ev::BrownoutEnd(node) => self.on_brownout_end(ctx, node),
        }
    }
}

impl PipelineWorld {
    fn on_host_emit(&mut self, ctx: &mut Ctx<Ev>) {
        let frame = self.next_frame;
        self.next_frame += 1;
        self.count(Counter::FramesEmitted);
        // Keep emitting one frame per D (the external source's rate).
        ctx.schedule_in(self.cfg.sys.frame_delay, Ev::HostEmit);

        // Rotation trigger (§5.5): every node except the old tail will
        // double — continue its current frame into the next share locally,
        // eliminating one SEND/RECV pair — and all roles shift by one. The
        // tagged frame still routes to the *old* head, which doubles it.
        // Whether a wave is due at this frame is the scheduling policy's
        // call (fixed period for `Static`, SoC-driven otherwise).
        let mut head = self.node_of_share[0];
        if self.rotation_due(frame) {
            if self.wave_outstanding > 0 {
                // The previous wave has unresolved doublings: launching
                // another now would overwrite unconsumed tags, losing the
                // wave and doubling the wrong share. Wait for the next
                // emission.
                self.count(Counter::RotationsDeferred);
            } else {
                let n = self.node_of_share.len();
                for s in 0..n - 1 {
                    let node = self.node_of_share[s];
                    if self.nodes[node].alive() {
                        self.double_from_share[node] = Some(s);
                        self.wave_outstanding += 1;
                    }
                }
                head = self.node_of_share[0];
                self.rotate_roles();
                self.last_rotation_frame = frame;
                self.on_policy_rotation(ctx, frame);
                if ctx.tracing() {
                    ctx.emit(
                        Component::Pipeline,
                        TraceEvent::Rotation {
                            frame,
                            rotations: self.counters.get(Counter::Rotations.key()),
                        },
                    );
                }
            }
        }

        if !self.nodes[head].alive() {
            return; // frame lost; recovery timeouts handle failover
        }
        let bytes = self.cfg.shares[0].recv_bytes;
        let (node, share, seq) = (head, 0, None);
        let to = Payload::DataToNode { node, share, seq };
        self.plan_transfer(ctx, Transfer::new(Endpoint::Host, bytes, frame, to));
    }

    fn on_xfer_start(&mut self, ctx: &mut Ctx<Ev>, id: usize) {
        let t = self.transfers[id];
        let (from, to, frame) = (t.from, t.to(), t.frame);
        if ctx.tracing() {
            let (wire, event) = t.trace_event("start");
            ctx.emit(wire, event);
        }
        for ep in [from, to] {
            if let Endpoint::Node(i) = ep {
                self.set_node_state(ctx, i, Mode::Communication);
                // Direction marker for the Fig. 2/3/9 timeline renderer.
                if ctx.tracing() {
                    ctx.emit(
                        Component::Node(i),
                        TraceEvent::Io {
                            dir: if ep == from { "send" } else { "recv" },
                            payload: t.payload.name(),
                            frame,
                        },
                    );
                }
            }
        }
    }

    fn on_xfer_end(&mut self, ctx: &mut Ctx<Ev>, id: usize) {
        let t = self.transfers[id];
        self.free_transfers.push(id);
        if ctx.tracing() {
            let (wire, event) = t.trace_event("delivered");
            ctx.emit(wire, event);
        }
        // Sender side returns to idle (or awaits its ack).
        if let Endpoint::Node(s) = t.from {
            if self.nodes[s].alive() {
                self.set_node_state(ctx, s, Mode::Idle);
                // This was an ack the sender owed; now it can PROC.
                if let Some(share) = t.payload.then_proc() {
                    if self.is_offline(ctx.now(), s) {
                        self.count(Counter::FramesLostBrownout);
                    } else if t.epoch == self.epoch() {
                        self.start_proc(ctx, s, t.frame, share);
                    }
                }
                // A reliable send: watch for its ack by its sequence number.
                if let Some(seq) = t.payload.seq() {
                    ctx.schedule_in(ACK_WAIT, Ev::AckTimeout { node: s, seq });
                }
            }
        }
        self.deliver(ctx, t);
    }

    /// Account a frame's result delivered to the host.
    fn complete_frame(&mut self, ctx: &mut Ctx<Ev>, frame: u64) {
        self.count(Counter::FramesCompleted);
        let d = self.cfg.sys.frame_delay.as_micros();
        let latency_s = (ctx.now() - SimTime::from_micros(frame * d)).as_secs_f64();
        self.latency
            .get_or_insert_with(|| dles_sim::Histogram::new(0.0, 60.0, 600))
            .record(latency_s);
        let deadline = (frame + self.depth_at_emission(frame)) * d;
        let missed = ctx.now() > SimTime::from_micros(deadline) + DEADLINE_TOLERANCE;
        if missed {
            self.count(Counter::DeadlineMisses);
        }
        if ctx.tracing() {
            ctx.emit(
                Component::Host,
                TraceEvent::FrameComplete {
                    frame,
                    latency_s,
                    deadline_missed: missed,
                },
            );
        }
    }

    fn on_proc_end(&mut self, ctx: &mut Ctx<Ev>, node: usize, frame: u64, share: usize) {
        if !self.nodes[node].alive() {
            return;
        }
        if self.is_offline(ctx.now(), node) {
            // Brownout hit mid-PROC: the frame's work is lost. A pending
            // doubling tag is forfeited with it — leaving it would let a
            // later frame of a recycled share index spuriously match.
            self.count(Counter::FramesLostBrownout);
            if self.double_from_share[node].take().is_some() {
                self.wave_resolve_one();
            }
            return;
        }
        // §5.5 rotation wave: a node that held `share` when the rotation
        // triggered continues its current frame into `share + 1` locally
        // (its data is already in memory), pausing only to reload code.
        if let Some(from) = self.double_from_share[node].take() {
            if from == share {
                self.set_node_state(ctx, node, Mode::Idle);
                self.nodes[node].busy_until = ctx.now() + RECONFIG_DELAY;
                // The wave's doubling resolves when the DoubleProc fires,
                // so the reconfig window itself holds the wave open.
                ctx.schedule_in(
                    RECONFIG_DELAY,
                    Ev::DoubleProc {
                        node,
                        frame,
                        share: share + 1,
                    },
                );
                return;
            }
            // The wave passed this node by (it is already doing new-role
            // work); the taken flag stays cleared and its doubling is
            // resolved as skipped.
            self.wave_resolve_one();
        }
        self.set_node_state(ctx, node, Mode::Idle);
        // Under recovery, a migration may have renumbered the share table
        // while this frame was mid-PROC, making the event's `share` index
        // stale. The node's computed range is still the one it holds, so
        // forward under its *current* index. Under rotation the event index
        // stays authoritative: the §5.5 wave reassigns nodes to different
        // shares mid-PROC without renumbering them.
        #[expect(
            clippy::expect_used,
            reason = "invariant: migrate unassigns only the dead node, and a dead node returned above"
        )]
        let cur = if self.recovery.is_some() {
            self.share_of_node(node)
                .expect("a live node keeps its share")
        } else {
            share
        };
        self.send_onward(ctx, node, frame, cur);
    }

    fn on_local_loop(&mut self, ctx: &mut Ctx<Ev>, node: usize) {
        if !self.nodes[node].alive() {
            return;
        }
        if self.is_offline(ctx.now(), node) {
            // Resume the loop when the brownout lifts.
            let resume = self.faults.as_ref().map(|f| f.offline_until[node]);
            if let Some(at) = resume {
                ctx.schedule_at(at, Ev::LocalLoop { node });
            }
            return;
        }
        // One full local iteration finished (except the very first call,
        // which starts the loop at t = 0).
        if ctx.now() > SimTime::ZERO {
            self.count(Counter::FramesCompleted);
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: LocalLoop runs only without I/O, where no transfer, timeout or migration ever clears a share"
        )]
        let share = self
            .share_of_node(node)
            .expect("local node keeps its share");
        let level = self.cfg.levels[share];
        let dur = self.cfg.shares[share].proc_time(&self.cfg.sys.dvs, level);
        self.enter(ctx, node, Mode::Computation, level, Some(share), None);
        ctx.schedule_in(dur, Ev::LocalLoop { node });
    }

    /// No transition of `node` came near its sentinel. Its battery has not
    /// changed since its last transition, so re-arming from that state
    /// gives the death time a transition there would have armed.
    fn on_death_bound(&mut self, ctx: &mut Ctx<Ev>, node: usize) {
        let next = self.death_event(node, ctx.now());
        self.nodes[node].death = push_death(next, |at, ev| ctx.schedule_at(at, ev));
    }

    fn on_node_death(&mut self, ctx: &mut Ctx<Ev>, node: usize) {
        if !self.nodes[node].alive() {
            return;
        }
        self.count(Counter::NodeDeaths);
        self.nodes[node].die_recorded(ctx.now(), ctx.recorder(), node);
        if ctx.tracing() {
            ctx.emit(
                Component::Node(node),
                TraceEvent::NodeDeath {
                    delivered_mah: self.nodes[node].battery.delivered_mah().get(),
                    stranded_mah: self.nodes[node].stranded_mah().get(),
                },
            );
        }
        self.nodes[node].death = DeathArm::Exact(None);
        // A dead node can never run its pending doubling.
        if self.double_from_share[node].take().is_some() {
            self.wave_resolve_one();
        }
        // Without recovery the pipeline stalls at the first failure (§6.4):
        // the system's battery life ends here. With recovery and survivors,
        // detection happens through the ack / receive timeouts.
        if self.recovery.is_none() || self.nodes.iter().all(|n| !n.alive()) {
            self.stopped_at = Some(ctx.now());
            ctx.request_stop();
        }
    }

    fn on_brownout_start(&mut self, ctx: &mut Ctx<Ev>, node: usize) {
        let Some(duration) = self.faults.as_ref().map(|f| f.profile.brownout_duration) else {
            return;
        };
        if self.nodes[node].alive() {
            self.count(Counter::FaultBrownouts);
            let until = ctx.now() + duration;
            if let Some(fs) = self.faults.as_mut() {
                fs.offline_until[node] = until;
            }
            if ctx.tracing() {
                ctx.emit(
                    Component::Node(node),
                    TraceEvent::FaultInjected(InjectedFault::Brownout { duration }),
                );
            }
            self.set_node_state(ctx, node, Mode::Idle);
        }
        ctx.schedule_in(duration, Ev::BrownoutEnd(node));
    }

    fn on_brownout_end(&mut self, ctx: &mut Ctx<Ev>, node: usize) {
        let Some(next) = self.faults.as_mut().map(|f| f.next_brownout_interval()) else {
            return;
        };
        if self.nodes[node].alive() {
            self.set_node_state(ctx, node, Mode::Idle);
        }
        ctx.schedule_in(next, Ev::BrownoutStart(node));
    }
}

/// Build the engine for a configuration: nodes idle, initial death events
/// armed, and either the host emission loop or the local loops scheduled.
pub fn build_engine(cfg: PipelineConfig) -> Engine<PipelineWorld> {
    build_engine_with(cfg, Box::new(dles_sim::NullRecorder))
}

/// [`build_engine`] with an explicit trace recorder (JSONL file, memory
/// buffer for the timeline renderer, …).
pub fn build_engine_with(
    cfg: PipelineConfig,
    recorder: Box<dyn Recorder>,
) -> Engine<PipelineWorld> {
    let io = cfg.io_enabled;
    let n = cfg.n_nodes();
    let world = PipelineWorld::new(cfg);
    let mut engine = Engine::with_recorder(world, recorder);
    // Arm initial death events for the idle draw.
    for i in 0..n {
        let next = engine.world().death_event(i, SimTime::ZERO);
        let death = push_death(next, |at, ev| engine.schedule_at(at, ev));
        engine.world_mut().nodes[i].death = death;
    }
    // Arm the first brownout per node when the fault plan injects them.
    for i in 0..n {
        let faults = engine.world_mut().faults.as_mut();
        let Some(f) = faults.filter(|f| f.profile.has_brownouts()) else {
            break;
        };
        let at = f.next_brownout_interval();
        engine.schedule_at(at, Ev::BrownoutStart(i));
    }
    if io {
        engine.schedule_at(SimTime::ZERO, Ev::HostEmit);
    } else {
        for i in 0..n {
            engine.schedule_at(SimTime::ZERO, Ev::LocalLoop { node: i });
        }
    }
    engine
}

/// Run a pipeline configuration to completion and report the result.
pub fn run_pipeline(cfg: PipelineConfig) -> ExperimentResult {
    run_pipeline_with(cfg, Box::new(dles_sim::NullRecorder))
}

/// [`run_pipeline`] with an explicit trace recorder. The recorder receives
/// every structured event of the run (power segments, transactions, state
/// transitions, rotations, failures). Its sink's errors are not checked:
/// a recorder writing to a sink that can fail runs through
/// [`run_pipeline_traced`].
pub fn run_pipeline_with(cfg: PipelineConfig, recorder: Box<dyn Recorder>) -> ExperimentResult {
    run_to_horizon(&mut build_engine_with(cfg, recorder))
}

/// [`run_pipeline_with`], then [`Recorder::finish`]: the run's result, or
/// the first error the recorder's sink reported.
pub fn run_pipeline_traced(
    cfg: PipelineConfig,
    recorder: Box<dyn Recorder>,
) -> std::io::Result<ExperimentResult> {
    let mut engine = build_engine_with(cfg, recorder);
    let result = run_to_horizon(&mut engine);
    engine.recorder_mut().finish()?;
    Ok(result)
}

/// Run a freshly built engine to its configured horizon and report.
fn run_to_horizon(engine: &mut Engine<PipelineWorld>) -> ExperimentResult {
    let outcome = engine.run_until(engine.world().cfg.horizon);
    debug_assert_ne!(
        outcome,
        RunOutcome::QueueEmpty,
        "pipeline drained unexpectedly"
    );
    // A death sentinel is no event of the run: close at the last other.
    let now = engine.world().last_event;
    engine.world_mut().result(now)
}

/// Push a node's next death event, if any, and say how it is armed.
fn push_death(next: Option<(SimTime, Ev)>, push: impl FnOnce(SimTime, Ev) -> EventId) -> DeathArm {
    match next {
        Some((at, ev @ Ev::DeathBound(_))) => DeathArm::Bound {
            at,
            id: push(at, ev),
        },
        Some((at, ev)) => DeathArm::Exact(Some(push(at, ev))),
        None => DeathArm::Exact(None),
    }
}

#[cfg(test)]
mod tests {
    use super::protocol::{OutstandingSend, RECV_TIMEOUT_FRAMES};
    use super::*;
    use crate::workload::NodeShare;
    use dles_atr::BlockRange;
    use dles_battery::packs::itsy_pack_b;
    use std::cell::Cell;
    use std::rc::Rc;

    thread_local! {
        /// Arm every death exactly, as if no battery had a lower bound.
        static EXACT_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether this test thread forces the exact death path.
    pub(super) fn exact_only() -> bool {
        EXACT_ONLY.with(Cell::get)
    }

    #[test]
    fn ack_wait_exceeds_worst_case_ack() {
        assert!(ACK_WAIT > SimTime::from_millis(100));
        let d = SystemConfig::paper().frame_delay;
        assert!(d * RECV_TIMEOUT_FRAMES > d);
    }

    #[test]
    fn paper_config_rotates_every_100() {
        let Technique::Rotation { period_frames } = Technique::PAPER_ROTATION else {
            panic!("the paper's rotation is a rotation");
        };
        assert!(!rotates_on(period_frames, 0));
        assert!(!rotates_on(period_frames, 99));
        assert!(rotates_on(period_frames, 100));
        assert!(rotates_on(period_frames, 200));
        assert!(!rotates_on(period_frames, 150));
    }

    #[test]
    fn custom_period() {
        assert!(rotates_on(NonZeroU64::MIN, 1));
        assert!(rotates_on(NonZeroU64::MIN, 2));
        assert!(!rotates_on(NonZeroU64::MIN, 0));
    }

    fn base_config(label: &str) -> PipelineConfig {
        let sys = SystemConfig::paper();
        let share = NodeShare::from_profile(&sys.profile, BlockRange::full());
        let level = sys.dvs.highest();
        PipelineConfig {
            label: label.into(),
            shares: vec![share],
            levels: vec![level],
            policy: DvsPolicy::FixedLevel,
            scheduling: SchedulingPolicy::Static,
            battery: BatterySpec::Kibam(itsy_pack_b().kibam),
            current_model: CurrentModel::itsy(),
            technique: None,
            io_enabled: true,
            jitter_seed: None,
            faults: None,
            battery_scales: None,
            horizon: SimTime::from_secs(3600 * 200),
            sys,
        }
    }

    fn two_node_config(label: &str) -> PipelineConfig {
        let mut cfg = base_config(label);
        let s1 = NodeShare::from_profile(&cfg.sys.profile, BlockRange::new(0, 1));
        let s2 = NodeShare::from_profile(&cfg.sys.profile, BlockRange::new(1, 4));
        cfg.shares = vec![s1, s2];
        cfg.levels = vec![
            cfg.sys
                .dvs
                .by_freq(dles_units::Hertz::from_mhz(59.0))
                .unwrap(),
            cfg.sys
                .dvs
                .by_freq(dles_units::Hertz::from_mhz(103.2))
                .unwrap(),
        ];
        cfg
    }

    #[test]
    fn baseline_runs_to_exhaustion_with_correct_throughput() {
        let r = run_pipeline(base_config("1"));
        assert_eq!(r.n_nodes, 1);
        assert!(r.frames_completed > 1000);
        assert_eq!(r.deadline_misses, 0, "baseline fits D exactly");
        // One result per D: F ≈ T / D.
        let expect_frames = r.lifetime.as_secs_f64() / 2.3;
        let rel = (r.frames_completed as f64 - expect_frames).abs() / expect_frames;
        assert!(
            rel < 0.01,
            "F {} vs T/D {}",
            r.frames_completed,
            expect_frames
        );
        assert!(r.nodes[0].death_time.is_some());
    }

    #[test]
    fn dvs_during_io_extends_baseline_life() {
        let plain = run_pipeline(base_config("1"));
        let mut cfg = base_config("1A");
        cfg.policy = DvsPolicy::DvsDuringIo;
        let dvs = run_pipeline(cfg);
        assert!(
            dvs.lifetime.as_hours_f64() > plain.lifetime.as_hours_f64() * 1.1,
            "1A {} h vs 1 {} h",
            dvs.lifetime.as_hours_f64(),
            plain.lifetime.as_hours_f64()
        );
        assert_eq!(
            dvs.deadline_misses, 0,
            "comm latency is frequency-independent"
        );
    }

    #[test]
    fn two_node_pipeline_node2_dies_first() {
        let r = run_pipeline(two_node_config("2"));
        assert_eq!(r.n_nodes, 2);
        let (first, _) = r.first_death().expect("someone died");
        assert_eq!(first, 1, "§6.4: Node2 always fails first");
        assert_eq!(r.deadline_misses, 0);
        // Node1 still has substantial charge left when the pipeline stalls.
        assert!(
            r.nodes[0].stranded_mah > 0.3 * itsy_pack_b().kibam.capacity_mah,
            "Node1 stranded only {} mAh",
            r.nodes[0].stranded_mah.get()
        );
    }

    #[test]
    fn two_node_lifetime_beats_baseline_absolute_but_not_2x_normalized() {
        let one = run_pipeline(base_config("1"));
        let two = run_pipeline(two_node_config("2"));
        let t1 = one.lifetime.as_hours_f64();
        let t2 = two.lifetime.as_hours_f64();
        assert!(t2 > 2.0 * t1, "absolute life should more than double");
        // But normalized improvement is modest (§6.4: only 15%).
        let rnorm = two.normalized_ratio(&one);
        assert!(rnorm > 1.02 && rnorm < 1.35, "R_norm {rnorm}");
    }

    #[test]
    fn rotation_balances_discharge() {
        let mut cfg = two_node_config("2C");
        cfg.policy = DvsPolicy::DvsDuringIo;
        cfg.technique = Some(Technique::PAPER_ROTATION);
        let r = run_pipeline(cfg);
        // Both nodes die close together: balanced load.
        let deaths: Vec<f64> = r
            .nodes
            .iter()
            .map(|n| n.death_time.map(|t| t.as_hours_f64()).unwrap_or(f64::MAX))
            .collect();
        let first = deaths.iter().cloned().fold(f64::MAX, f64::min);
        // The second node may outlive the stall; compare delivered charge.
        let d0 = r.nodes[0].delivered_mah.get();
        let d1 = r.nodes[1].delivered_mah.get();
        let imbalance = (d0 - d1).abs() / d0.max(d1);
        assert!(imbalance < 0.15, "delivered {d0} vs {d1}");
        assert!(first > 0.0);
        assert!(
            r.deadline_misses <= r.frames_completed / 200,
            "rotation should not wreck throughput: {} misses / {} frames",
            r.deadline_misses,
            r.frames_completed
        );
    }

    #[test]
    fn rotation_beats_plain_partitioning() {
        let plain = run_pipeline(two_node_config("2"));
        let mut cfg = two_node_config("2C");
        cfg.policy = DvsPolicy::DvsDuringIo;
        cfg.technique = Some(Technique::PAPER_ROTATION);
        let rot = run_pipeline(cfg);
        assert!(
            rot.lifetime.as_hours_f64() > plain.lifetime.as_hours_f64() * 1.1,
            "2C {} h vs 2 {} h",
            rot.lifetime.as_hours_f64(),
            plain.lifetime.as_hours_f64()
        );
    }

    #[test]
    fn recovery_survivor_continues_after_first_death() {
        let mut cfg = two_node_config("2B");
        cfg.policy = DvsPolicy::DvsDuringIo;
        cfg.levels = vec![
            cfg.sys
                .dvs
                .by_freq(dles_units::Hertz::from_mhz(73.7))
                .unwrap(),
            cfg.sys
                .dvs
                .by_freq(dles_units::Hertz::from_mhz(118.0))
                .unwrap(),
        ];
        cfg.technique = Some(Technique::Recovery);
        let r = run_pipeline(cfg);
        // Both nodes eventually die; lifetime is the second death.
        assert!(r.nodes.iter().all(|n| n.death_time.is_some()));
        let deaths: Vec<SimTime> = r.nodes.iter().map(|n| n.death_time.unwrap()).collect();
        let last = deaths.iter().max().unwrap();
        let first = deaths.iter().min().unwrap();
        assert!(last > first, "survivor must outlive the first failure");
        assert_eq!(r.lifetime, *last);
        // Frames continue to complete after the first death.
        let frames_by_first = first.as_secs_f64() / 2.3;
        assert!(
            (r.frames_completed as f64) > frames_by_first + 100.0,
            "survivor picked up {} vs {}",
            r.frames_completed,
            frames_by_first
        );
    }

    #[test]
    fn no_io_local_loop_counts_frames() {
        let mut cfg = base_config("0A");
        cfg.io_enabled = false;
        let r = run_pipeline(cfg);
        assert!(r.frames_completed > 1000);
        // F ≈ T / 1.1 s (back-to-back full-speed iterations).
        let expect = r.lifetime.as_secs_f64() / 1.1;
        let rel = (r.frames_completed as f64 - expect).abs() / expect;
        assert!(rel < 0.01, "F {} vs {}", r.frames_completed, expect);
    }

    #[test]
    fn jitter_changes_results_but_stays_feasible() {
        let mut cfg = base_config("1-jitter");
        cfg.jitter_seed = Some(42);
        let r = run_pipeline(cfg);
        assert!(r.frames_completed > 1000);
        // With 50–100 ms startup jitter the 2.294 s frame occasionally
        // exceeds D = 2.3 s; misses must stay a small minority.
        assert!(
            (r.deadline_misses as f64) < 0.6 * r.frames_completed as f64,
            "{} misses / {}",
            r.deadline_misses,
            r.frames_completed
        );
        // Deterministic for the same seed.
        let mut cfg2 = base_config("1-jitter");
        cfg2.jitter_seed = Some(42);
        let r2 = run_pipeline(cfg2);
        assert_eq!(r.frames_completed, r2.frames_completed);
        assert_eq!(r.lifetime, r2.lifetime);
    }

    #[test]
    fn counters_agree_with_result_metrics() {
        let r = run_pipeline(two_node_config("2"));
        assert_eq!(r.counters.get("node_deaths"), 1, "Node2 dies, run stops");
        // Every completed frame needed 3 data transfers (host→1→2→host).
        assert!(r.counters.get("transfers_data") >= 3 * r.frames_completed);
        assert!(r.counters.get("frames_emitted") >= r.frames_completed);
        assert!(r.counters.get("state_transitions") > 0);
    }

    #[test]
    fn traced_run_emits_structured_records() {
        use dles_sim::MemoryRecorder;
        let mut cfg = two_node_config("2");
        cfg.horizon = SimTime::from_secs(12); // ~5 frames
        let mut engine = build_engine_with(cfg, Box::new(MemoryRecorder::new()));
        engine.run_until(SimTime::from_secs(12));
        let records = engine.recorder_mut().take_records();
        let kinds: Vec<&str> = records.iter().map(|r| r.kind).collect();
        for expect in [
            "transaction",
            "io",
            "state_transition",
            "power_segment",
            "frame_complete",
        ] {
            assert!(kinds.contains(&expect), "missing kind {expect}");
        }
        // Records arrive in nondecreasing time order.
        assert!(records.windows(2).all(|w| w[0].time <= w[1].time));
        // Power segments on node1 account for the elapsed time.
        let node1_us: u64 = records
            .iter()
            .filter(|r| r.kind == "power_segment" && r.component == "node1")
            .filter_map(|r| r.u64_field("duration_us"))
            .sum();
        assert!(node1_us > 10_000_000, "node1 covered {node1_us} µs");
    }

    /// Regression (pre-fix-failing): a rotation due while the previous
    /// wave still has unresolved doublings must *defer*, not launch. The
    /// pre-fix code launched unconditionally, overwriting the in-flight
    /// wave's unconsumed tags — the wave was lost and a later frame of a
    /// recycled share index could spuriously double. This only manifests
    /// when the rotation boundary moves to arbitrary frames (adaptive
    /// policies, or periods shorter than a wave), never on the fixed
    /// 100-frame grid.
    #[test]
    fn rotation_defers_while_a_wave_is_still_reconfiguring() {
        let mut cfg = two_node_config("overlap");
        cfg.policy = DvsPolicy::DvsDuringIo;
        cfg.technique = Some(Technique::Rotation {
            period_frames: NonZeroU64::MIN,
        });
        let mut engine = build_engine(cfg);
        {
            // A wave is mid-reconfig: its tag is consumed (DoubleProc
            // pending) but the doubling has not resolved yet.
            let w = engine.world_mut();
            w.wave_outstanding = 1;
        }
        // Frame 1 at t = D triggers a period-1 rotation.
        engine.run_until(SimTime::from_secs(3));
        let w = engine.world();
        assert_eq!(
            w.counters().get("rotations"),
            0,
            "a new wave must not launch over an unresolved one"
        );
        assert!(
            w.counters().get("rotations_deferred") >= 1,
            "the deferral must be accounted"
        );
        assert_eq!(
            w.double_from_share,
            vec![None, None],
            "no doubling tags may be planted while deferring"
        );
    }

    /// Companion: with an *irregular* (SoC-driven) rotation schedule the
    /// frame accounting stays sound — every completed frame is delivered
    /// exactly once and waves keep resolving (no deferral deadlock).
    #[test]
    fn irregular_rotation_schedule_keeps_frame_accounting_sound() {
        use dles_sim::MemoryRecorder;
        let mut cfg = two_node_config("2C-skew");
        cfg.policy = DvsPolicy::DvsDuringIo;
        cfg.technique = Some(Technique::PAPER_ROTATION);
        // The adaptive-period feedback loop shrinks the period step by
        // step (100 → 50 → 25 → …), so the early rotation gaps genuinely
        // vary and the boundary leaves the fixed grid.
        cfg.scheduling = SchedulingPolicy::AdaptivePeriod;
        cfg.horizon = SimTime::from_secs(900);
        let mut engine = build_engine_with(cfg, Box::new(MemoryRecorder::new()));
        engine.run_until(SimTime::from_secs(900));
        let records = engine.recorder_mut().take_records();
        let mut completed: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == "frame_complete")
            .map(|r| r.u64_field("frame").unwrap())
            .collect();
        let total = completed.len();
        assert!(total > 100, "only {total} frames in 900 s");
        completed.sort_unstable();
        completed.dedup();
        assert_eq!(
            completed.len(),
            total,
            "duplicate frame completions under irregular rotation"
        );
        let w = engine.world();
        let rotations = w.counters().get("rotations");
        assert!(rotations > 5, "only {rotations} rotations");
        assert_eq!(w.wave_outstanding, 0, "all waves must have resolved");
        // The schedule really is irregular: rotation frames are not a
        // single fixed stride apart.
        let rot_frames: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == "rotation")
            .map(|r| r.u64_field("frame").unwrap())
            .collect();
        let gaps: Vec<u64> = rot_frames.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).any(|g| g[0] != g[1]),
            "gaps {gaps:?} look like a fixed period"
        );
        // And the boundary really left the configured 100-frame grid.
        assert!(
            rot_frames.iter().any(|f| f % 100 != 0),
            "rotation frames {rot_frames:?} stayed on the fixed grid"
        );
    }

    /// Regression (pre-fix-failing): a brownout that lands *inside* the
    /// `reconfig_delay` window silently swallowed the doubled frame — the
    /// DoubleProc was skipped with no accounting and (with wave tracking)
    /// the wave would never resolve, deferring every later rotation. The
    /// node must rejoin in its *new* role and the loss must be counted.
    #[test]
    fn brownout_during_reconfig_rejoins_in_the_new_role() {
        use crate::faults::FaultProfile;
        let mut cfg = two_node_config("reconfig-brownout");
        cfg.policy = DvsPolicy::DvsDuringIo;
        cfg.technique = Some(Technique::PAPER_ROTATION);
        cfg.faults = Some(FaultPlan::new(FaultProfile::brownout(), 1));
        cfg.horizon = SimTime::from_secs(1200);
        let mut engine = build_engine(cfg);
        {
            // Reproduce the post-rotation state: roles already shifted
            // (node0 → share 1, node1 → share 0), node0 mid-reconfig with
            // its doubling pending, when a brownout knocks it offline.
            let w = engine.world_mut();
            w.node_of_share = vec![1, 0];
            w.wave_outstanding = 1;
            w.faults.as_mut().unwrap().offline_until[0] = SimTime::from_millis(100);
        }
        engine.schedule_at(
            SimTime::from_millis(60),
            Ev::DoubleProc {
                node: 0,
                frame: 0,
                share: 1,
            },
        );
        engine.run_until(SimTime::from_millis(200));
        {
            let w = engine.world();
            assert_eq!(
                w.counters().get("frames_lost_brownout"),
                1,
                "the doubled frame lost to the brownout must be counted"
            );
            assert_eq!(w.wave_outstanding, 0, "the wave must resolve anyway");
            assert_eq!(
                w.share_of_node(0),
                Some(1),
                "the node keeps its new role through the brownout"
            );
        }
        // And the system keeps operating: the rejoined node serves its
        // new share and later (fixed-period) rotations still launch.
        engine.run_until(SimTime::from_secs(1200));
        let w = engine.world();
        let rotations = w.counters().get("rotations");
        assert!(rotations >= 2, "later rotations deadlocked: {rotations}");
        assert!(
            w.counters().get("frames_completed") > 100,
            "pipeline stalled after the reconfig brownout"
        );
    }

    /// Regression: with two sends in flight to *different* endpoints, the
    /// ack timeout of the earlier send must be attributed to that send's
    /// own target. The pre-fix code kept only `last_send_target[node]`, so
    /// the newer send (here: to the host) overwrote the dead node and the
    /// failover migration never happened.
    #[test]
    fn ack_timeout_attributes_to_the_per_seq_target() {
        let sys = SystemConfig::paper();
        let part = crate::partition::best_partition(&sys, 3).expect("3-way partition");
        let mut cfg = base_config("attribution");
        cfg.levels = part
            .levels
            .iter()
            .map(|l| l.unwrap_or(sys.dvs.highest()))
            .collect();
        cfg.shares = part.shares;
        cfg.technique = Some(Technique::Recovery);
        cfg.sys = sys;
        let mut engine = build_engine(cfg);
        {
            let w = engine.world_mut();
            // Node 3 is gone (never drew down its battery: direct kill).
            w.nodes[2].death_time = Some(SimTime::ZERO);
            // Node 2 has seq 0 outstanding to dead node 3 and a *newer*
            // seq 1 outstanding to the host.
            let node2 = &mut w.recovery.as_mut().unwrap().nodes[1];
            let to_node3 = Payload::DataToNode {
                node: 2,
                share: 2,
                seq: Some(0),
            };
            let to_host = Payload::DataToHost { seq: Some(1) };
            for (frame, payload) in [(0, to_node3), (1, to_host)] {
                let send = Transfer::new(Endpoint::Node(1), 100, frame, payload);
                node2.outstanding.push(OutstandingSend { send, retries: 0 });
            }
            node2.send_seq = 2;
        }
        engine.schedule_at(SimTime::from_millis(1), Ev::AckTimeout { node: 1, seq: 0 });
        engine.run_until(SimTime::from_millis(2));
        let w = engine.world();
        assert_eq!(
            w.counters().get("migrations"),
            1,
            "seq 0's dead target must migrate"
        );
        assert_eq!(w.share_of_node(2), None, "dead node's share absorbed");
    }

    /// Regression companion: a timed-out send to a *live* endpoint is a
    /// transient loss — it must retransmit, never migrate.
    #[test]
    fn ack_timeout_to_live_target_retransmits() {
        let mut cfg = two_node_config("retry");
        cfg.technique = Some(Technique::Recovery);
        let mut engine = build_engine(cfg);
        {
            let node1 = &mut engine.world_mut().recovery.as_mut().unwrap().nodes[0];
            let to = Payload::DataToNode {
                node: 1,
                share: 1,
                seq: Some(0),
            };
            let send = Transfer::new(Endpoint::Node(0), 100, 0, to);
            node1.outstanding.push(OutstandingSend { send, retries: 0 });
            node1.send_seq = 1;
        }
        engine.schedule_at(SimTime::from_millis(1), Ev::AckTimeout { node: 0, seq: 0 });
        engine.run_until(SimTime::from_millis(2));
        let w = engine.world();
        assert_eq!(w.counters().get("retransmissions"), 1);
        assert_eq!(
            w.counters().get("migrations"),
            0,
            "live target must not trigger failover"
        );
        let node1 = &w.recovery.as_ref().unwrap().nodes[0];
        assert_eq!(node1.outstanding[0].retries, 1);
    }

    /// Regression: a frame emitted into an n-deep pipeline keeps its
    /// n-period deadline even if a migration shrinks the pipeline while it
    /// is in flight. The pre-fix code read `cfg.shares.len()` (the
    /// *current* depth) at completion time, so straddling frames were
    /// falsely counted as deadline misses.
    #[test]
    fn post_migration_deadlines_use_emission_depth() {
        use dles_sim::MemoryRecorder;
        // Three stages; killing the *middle* node leaves the frame that sits
        // in the tail's PROC at migration time to complete through the
        // normal tail -> host hop, i.e. with the full 3-stage latency
        // (~5.15 s). That lands between the shrunken 2-deep deadline
        // (2D + tol = 4.65 s) and the emission-depth deadline (3D + tol =
        // 6.95 s), so it discriminates the two accountings.
        let sys = SystemConfig::paper();
        let part = crate::partition::best_partition(&sys, 3).expect("3-way partition");
        let mut cfg = base_config("depth");
        // Slowest levels that stay feasible *with* the §5.4 ack overhead:
        // the bare minimum-feasible levels leave no budget for acks and the
        // pipeline collapses into a retransmission storm.
        cfg.levels = part
            .shares
            .iter()
            .map(|sh| {
                sh.min_feasible_level(&sys, SimTime::from_millis(150))
                    .unwrap_or_else(|| sys.dvs.highest())
            })
            .collect();
        cfg.shares = part.shares;
        cfg.policy = DvsPolicy::DvsDuringIo;
        cfg.technique = Some(Technique::Recovery);
        // A tiny battery on the middle node forces an early death + migration.
        cfg.battery_scales = Some(vec![1.0, 0.02, 1.0]);
        cfg.horizon = SimTime::from_secs(3600);
        cfg.sys = sys;
        let mut engine = build_engine_with(cfg, Box::new(MemoryRecorder::new()));
        engine.run_until(SimTime::from_secs(3600));
        let records = engine.recorder_mut().take_records();
        let t_mig = records
            .iter()
            .find(|r| r.kind == "migration")
            .map(|r| r.time)
            .expect("the tail dies early enough to migrate");
        let d = 2_300_000u64;
        let tol = DEADLINE_TOLERANCE.as_micros();
        let mut checked = 0;
        for r in records.iter().filter(|r| r.kind == "frame_complete") {
            if r.time <= t_mig {
                continue;
            }
            let frame = r.u64_field("frame").unwrap();
            if SimTime::from_micros(frame * d) >= t_mig {
                continue; // emitted post-migration: 2-deep deadline applies
            }
            let done = r.time.as_micros();
            let due_shrunk = (frame + 2) * d + tol;
            let due_emitted = (frame + 3) * d + tol;
            if done > due_shrunk && done <= due_emitted {
                // Late for the shrunken pipeline, on time for the 3-deep
                // pipeline it was emitted into.
                assert_eq!(
                    r.bool_field("deadline_missed"),
                    Some(false),
                    "frame {frame} straddling the migration counted missed"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no in-flight frame straddled the migration");
    }

    /// Each `XferEnd` frees its transfer's slot for the next plan, so over
    /// a whole discharge the table holds only transfers in flight: 3 slots
    /// for 144k transfers fault-free, 12 for 238k over the lossy link.
    #[test]
    fn transfer_table_stays_bounded_over_a_full_run() {
        use crate::experiment::Experiment;
        use crate::faults::FaultProfile;
        let lossy = FaultPlan::new(FaultProfile::lossy_link(), 42);
        for (faults, bound) in [(None, 4), (Some(lossy), 16)] {
            let cfg = PipelineConfig {
                faults,
                ..Experiment::Exp2B.config()
            };
            let mut engine = build_engine(cfg);
            engine.run_until(SimTime::MAX);
            let w = engine.world();
            let planned = w.counters().get("transfers_data") + w.counters().get("transfers_ack");
            let slots = w.transfers.len();
            assert!(planned > 100_000, "only {planned} transfers");
            assert!(slots <= bound, "{slots} slots for {planned} transfers");
        }
    }

    /// Two variants sharing a key would silently merge their counts.
    #[test]
    fn counter_keys_are_distinct() {
        use Counter::*;
        let all = [
            FramesEmitted,
            FramesCompleted,
            DeadlineMisses,
            DuplicateFramesDropped,
            FramesLostBrownout,
            TransfersData,
            TransfersAck,
            TransfersLost,
            AcksLostToHost,
            TransfersLostOffline,
            Retransmissions,
            AckTimeouts,
            RecvTimeouts,
            SendsAbandoned,
            StateTransitions,
            Rotations,
            RotationsDeferred,
            Migrations,
            NodeDeaths,
            PolicyDecisions,
            FaultDrops,
            FaultBitErrors,
            FaultDelays,
            FaultBrownouts,
        ];
        assert!(
            all.iter().enumerate().all(|(i, &c)| c as usize == i),
            "list every variant, in declaration order"
        );
        let mut seen = std::collections::BTreeSet::new();
        for c in all {
            assert!(seen.insert(c.key()), "{c:?} reuses the key {:?}", c.key());
        }
    }

    /// A trace sink that keeps only an FNV-1a hash and a byte count of
    /// what it is written, so two full traces compare without a buffer.
    #[derive(Clone)]
    struct TraceHash(Rc<Cell<(u64, u64)>>);

    impl TraceHash {
        fn new() -> Self {
            TraceHash(Rc::new(Cell::new((0xcbf2_9ce4_8422_2325, 0))))
        }
    }

    impl std::io::Write for TraceHash {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let (mut hash, len) = self.0.get();
            for &b in buf {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            self.0.set((hash, len + buf.len() as u64));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `cfg`'s full result, and its JSONL trace's hash and length when
    /// `traced`, with deaths armed through the bound or, if `exact`,
    /// exactly on every transition.
    fn run_mode(cfg: &PipelineConfig, traced: bool, exact: bool) -> (String, Option<(u64, u64)>) {
        EXACT_ONLY.with(|e| e.set(exact));
        let sink = TraceHash::new();
        let recorder: Box<dyn Recorder> = if traced {
            Box::new(dles_sim::JsonlRecorder::to_writer(Box::new(sink.clone())))
        } else {
            Box::new(dles_sim::NullRecorder)
        };
        let result = run_pipeline_with(cfg.clone(), recorder);
        EXACT_ONLY.with(|e| e.set(false));
        (format!("{result:?}"), traced.then(|| sink.0.get()))
    }

    /// Bounded and exact arming must give the same run to the bit.
    fn assert_modes_agree(cfg: &PipelineConfig, traced: bool) {
        let bounded = run_mode(cfg, traced, false);
        let exact = run_mode(cfg, traced, true);
        assert!(
            bounded == exact,
            "{}: bounded and exact arming differ",
            cfg.label
        );
    }

    /// Bounded and exact arming give the same result on each of the
    /// paper's experiments, run to battery death.
    #[test]
    fn bounded_death_arming_matches_exact_on_experiments_0a_to_2a() {
        use crate::experiment::Experiment;
        for e in &Experiment::ALL[..6] {
            assert_modes_agree(&e.config(), false);
        }
    }

    #[test]
    fn bounded_death_arming_matches_exact_on_experiments_2b_2c() {
        use crate::experiment::Experiment;
        for e in &Experiment::ALL[6..] {
            assert_modes_agree(&e.config(), false);
        }
    }

    /// `cfg` on a tenth of its pack: the same schedule to an earlier
    /// death, so a dev-profile test can afford its full JSONL trace.
    fn small_pack(mut cfg: PipelineConfig) -> PipelineConfig {
        cfg.battery = cfg.battery.scaled(0.1);
        cfg
    }

    /// Bounded and exact arming give byte-identical traces.
    #[test]
    fn bounded_death_arming_matches_exact_traces() {
        use crate::experiment::{policy_config, Experiment};
        use crate::faults::FaultProfile;
        for policy in SchedulingPolicy::ALL {
            assert_modes_agree(&small_pack(policy_config(policy)), true);
        }
        let base = small_pack(Experiment::Exp2B.config());
        let trial = crate::montecarlo::trial_config(&base, FaultProfile::lossy_link(), 42, 0);
        assert_modes_agree(&trial, true);
    }

    #[test]
    fn horizon_just_after_a_death_sentinel_closes_at_the_last_event() {
        // Frames 200 s apart leave nodes idle for longer than the death
        // window, so their sentinels fire between transitions.
        let mut cfg = base_config("sparse");
        cfg.sys.frame_delay = SimTime::from_secs(200);
        let mut engine = build_engine(cfg.clone());
        let fired = loop {
            let before = engine.world().nodes[0].death;
            assert!(engine.step(), "queue drained before any sentinel fired");
            if let DeathArm::Bound { at, .. } = before {
                if engine.now() == at {
                    break at;
                }
            }
        };
        cfg.horizon = fired;
        assert_modes_agree(&cfg, true);
        let r = run_pipeline(cfg);
        assert!(
            r.lifetime < fired,
            "closed at the sentinel, {:?}",
            r.lifetime
        );
    }
}
