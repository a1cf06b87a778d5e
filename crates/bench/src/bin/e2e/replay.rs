//! The replay: fresh instances of each layer, built from the run's config,
//! driven with the probe's operation streams through their public
//! functions. Each layer's loop is timed as one span over its whole op
//! array; single calls are never timed, because reading the clock costs
//! more than one `CounterSet::incr`.

use std::hint::black_box;

use dles_battery::Battery;
use dles_core::faults::FaultState;
use dles_core::pipeline::Ev;
use dles_core::PipelineConfig;
use dles_net::{LinkSchedule, Route};
use dles_power::{EnergyAccount, Mode, PowerMonitor, PowerState};
use dles_sim::{CounterSet, EventQueue, SimRng, SimTime};
use dles_units::MilliAmps;

use crate::clock::Spans;
use crate::probe::{Capture, NodeOp};

/// What the replay needs from one traced simulation.
pub struct Run<'a> {
    pub cfg: &'a PipelineConfig,
    pub capture: &'a Capture,
    /// The run's final counters.
    pub counters: &'a CounterSet,
    pub events_handled: u64,
    /// Simulated time the run stopped at; survivors are settled here.
    pub end: SimTime,
}

/// Operation counts of one replay, plus what the fidelity checks compare.
#[derive(Debug, Default)]
pub struct Replayed {
    pub push_calls: u64,
    pub pop_calls: u64,
    pub cancel_calls: u64,
    pub transition_calls: u64,
    pub discharge_calls: u64,
    /// Discharges that settle a segment the run reported as a
    /// `power_segment` record (final survivor settles and death nudges
    /// are not reported).
    pub segment_discharges: u64,
    pub tte_calls: u64,
    pub reserve_calls: u64,
    pub draw_calls: u64,
    pub incr_calls: u64,
    /// Charge each replayed battery delivered, per node.
    pub delivered_mah: Vec<f64>,
    /// Whether the replayed `CounterSet` equals the run's.
    pub counters_match: bool,
}

/// Replay every layer of one run, recording one span per layer under
/// `parent`.
pub fn replay(run: &Run, spans: &mut Spans, parent: &'static str) -> Replayed {
    let mut out = Replayed::default();
    let segs = power_state(run, spans, parent, &mut out);
    battery(run, &segs, spans, parent, &mut out);
    discharge_only(run, &segs, spans, parent);
    event_queue(run, spans, parent, &mut out);
    net_hub(run, spans, parent, &mut out);
    faults(run, spans, parent, &mut out);
    stats(run, spans, parent, &mut out);
    out
}

/// A settled power segment as the battery sees it.
#[derive(Debug, Clone, Copy)]
enum Seg {
    /// `build_engine` arms each node's death event at the idle draw.
    Arm { next: MilliAmps },
    /// `SimNode::transition_recorded`: settle, then ask how long the new
    /// draw can last.
    Step {
        dur: SimTime,
        current: MilliAmps,
        next: MilliAmps,
    },
    /// `SimNode::die_recorded`: settle, then nudge the battery over.
    Death { dur: SimTime, current: MilliAmps },
    /// `SimNode::finish`: settle a survivor at the end of the run.
    Finish { dur: SimTime, current: MilliAmps },
}

/// `power.state`: `PowerState::transition`, `PowerMonitor::record` and
/// `EnergyAccount::add`, in the order `SimNode` calls them. Returns the
/// settled segments the battery replay consumes.
fn power_state(
    run: &Run,
    spans: &mut Spans,
    parent: &'static str,
    out: &mut Replayed,
) -> Vec<Vec<Seg>> {
    let cfg = run.cfg;
    let dvs = cfg.scheduling.dvs_policy(cfg.policy);
    let mut nodes: Vec<(PowerState, PowerMonitor, EnergyAccount)> = (0..cfg.n_nodes())
        .map(|i| {
            let idle = dvs.level_for(Mode::Idle, cfg.levels[i], &cfg.sys.dvs);
            (
                PowerState::new(cfg.current_model.clone(), Mode::Idle, idle),
                PowerMonitor::new(),
                EnergyAccount::new(),
            )
        })
        .collect();
    let ops = &run.capture.nodes;
    let mut segs: Vec<Vec<Seg>> = ops
        .iter()
        .map(|o| Vec::with_capacity(o.len() + 2))
        .collect();
    out.transition_calls = ops
        .iter()
        .flatten()
        .filter(|op| matches!(op, NodeOp::Transition { .. }))
        .count() as u64;

    let start = spans.clock.now_ns();
    for ((ops, (ps, monitor, energy)), segs) in ops.iter().zip(&mut nodes).zip(&mut segs) {
        segs.push(Seg::Arm {
            next: ps.current_ma(),
        });
        let mut settle =
            |ps: &mut PowerState, at: SimTime, to: Option<(Mode, dles_power::FreqLevel)>| {
                let prev = ps.mode();
                let (dur, current) = match to {
                    Some((mode, level)) => ps.transition(at, mode, level),
                    None => ps.finish(at),
                };
                if dur > SimTime::ZERO {
                    monitor.record(at, dur, current);
                    energy.add(prev, dur, current);
                }
                (dur, current)
            };
        let mut alive = true;
        for op in ops {
            match *op {
                NodeOp::Transition { at, mode, level } => {
                    let (dur, current) = settle(ps, at, Some((mode, level)));
                    segs.push(Seg::Step {
                        dur,
                        current,
                        next: ps.current_ma(),
                    });
                }
                NodeOp::Death { at } => {
                    let (dur, current) = settle(ps, at, None);
                    segs.push(Seg::Death { dur, current });
                    alive = false;
                }
            }
        }
        if alive {
            let (dur, current) = settle(ps, run.end, None);
            segs.push(Seg::Finish { dur, current });
        }
    }
    spans.close("power.state", parent, start, out.transition_calls);
    black_box(&nodes);
    segs
}

/// Fresh batteries, scaled exactly as `PipelineWorld` scales them.
fn batteries(cfg: &PipelineConfig) -> Vec<Box<dyn Battery>> {
    let n = cfg.n_nodes();
    let variance = cfg
        .faults
        .as_ref()
        .map(|plan| FaultState::battery_scales(plan, n));
    (0..n)
        .map(|i| {
            let mut scale = cfg.battery_scales.as_ref().map_or(1.0, |s| s[i]);
            if let Some(v) = &variance {
                scale *= v[i];
            }
            let spec = if scale == 1.0 {
                cfg.battery
            } else {
                cfg.battery.scaled(scale)
            };
            spec.build()
        })
        .collect()
}

/// `battery`: `discharge` for every settled segment, then
/// `time_to_exhaustion` at the new draw, as the run called them.
fn battery(
    run: &Run,
    segs: &[Vec<Seg>],
    spans: &mut Spans,
    parent: &'static str,
    out: &mut Replayed,
) {
    let mut cells = batteries(run.cfg);
    let mut discharges = 0u64;
    let mut segment_discharges = 0u64;
    let mut ttes = 0u64;
    let start = spans.clock.now_ns();
    for (b, segs) in cells.iter_mut().zip(segs) {
        for seg in segs {
            match *seg {
                Seg::Arm { next } => {
                    black_box(b.time_to_exhaustion(next));
                    ttes += 1;
                }
                Seg::Step { dur, current, next } => {
                    if dur > SimTime::ZERO {
                        black_box(b.discharge(dur, current));
                        discharges += 1;
                        segment_discharges += 1;
                    }
                    black_box(b.time_to_exhaustion(next));
                    ttes += 1;
                }
                Seg::Death { dur, current } => {
                    if dur > SimTime::ZERO {
                        black_box(b.discharge(dur, current));
                        discharges += 1;
                        segment_discharges += 1;
                    }
                    discharges += nudge_over(b.as_mut(), current);
                }
                Seg::Finish { dur, current } => {
                    if dur > SimTime::ZERO {
                        black_box(b.discharge(dur, current));
                        discharges += 1;
                    }
                }
            }
        }
    }
    spans.close("battery", parent, start, discharges + ttes);
    out.discharge_calls = discharges;
    out.segment_discharges = segment_discharges;
    out.tte_calls = ttes;
    out.delivered_mah = cells.iter().map(|b| b.delivered_mah().get()).collect();
}

/// `SimNode::die_recorded`'s guard: a death time rounded to the
/// microsecond can leave the battery a hair short of exhaustion.
fn nudge_over(b: &mut dyn Battery, current: MilliAmps) -> u64 {
    let mut calls = 0;
    while !b.is_exhausted() && calls < 10 {
        black_box(b.discharge(SimTime::from_millis(1), current.max(MilliAmps::new(1.0))));
        calls += 1;
    }
    calls
}

/// The battery loop again without `time_to_exhaustion`, which splits the
/// layer's time between its two calls: `ns_per_tte` is the difference.
fn discharge_only(run: &Run, segs: &[Vec<Seg>], spans: &mut Spans, parent: &'static str) {
    let mut cells = batteries(run.cfg);
    let mut discharges = 0u64;
    let start = spans.clock.now_ns();
    for (b, segs) in cells.iter_mut().zip(segs) {
        for seg in segs {
            match *seg {
                Seg::Arm { .. } => {}
                Seg::Step { dur, current, .. } | Seg::Finish { dur, current } => {
                    if dur > SimTime::ZERO {
                        black_box(b.discharge(dur, current));
                        discharges += 1;
                    }
                }
                Seg::Death { dur, current } => {
                    if dur > SimTime::ZERO {
                        black_box(b.discharge(dur, current));
                        discharges += 1;
                    }
                    discharges += nudge_over(b.as_mut(), current);
                }
            }
        }
    }
    spans.close("battery.discharge_only", parent, start, discharges);
    black_box(&cells);
}

/// `sim.event`: the run's queue traffic on a fresh `EventQueue` of the
/// pipeline's own event type. `events_handled` pops, each replaced by a
/// push so `n_nodes + 2` events stay pending, and one cancel plus
/// re-push of a node's death event per state transition. Cancelled death
/// events lie far ahead, so their tombstones stay in the heap as they do
/// in a discharge run.
fn event_queue(run: &Run, spans: &mut Spans, parent: &'static str, out: &mut Replayed) {
    const STEP: SimTime = SimTime::from_millis(1);
    const FAR: SimTime = SimTime::from_secs(1_000 * 3600);
    let n = run.cfg.n_nodes();
    let pops = run.events_handled;
    let cancels = run.counters.get("state_transitions");
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut pushes = 0u64;
    let mut cancelled = 0u64;

    let start = spans.clock.now_ns();
    let mut deaths: Vec<_> = (0..n).map(|i| q.push(FAR, Ev::NodeDeath(i))).collect();
    q.push(SimTime::ZERO, Ev::HostEmit);
    q.push(STEP, Ev::XferStart(0));
    pushes += n as u64 + 2;
    for k in 0..pops {
        let Some(entry) = q.pop() else {
            break;
        };
        let now = entry.time;
        q.push(now + STEP, entry.event);
        pushes += 1;
        let due = (k + 1) * cancels / pops;
        while cancelled < due {
            let node = (cancelled % n as u64) as usize;
            q.cancel(deaths[node]);
            deaths[node] = q.push(now + FAR, Ev::NodeDeath(node));
            pushes += 1;
            cancelled += 1;
        }
    }
    spans.close("sim.event", parent, start, pushes + pops + cancelled);
    black_box(&q);
    out.push_calls = pushes;
    out.pop_calls = pops;
    out.cancel_calls = cancelled;
}

/// `net.hub`: `Route::between`, `LinkSchedule::earliest_start` and
/// `reserve`, and `SerialConfig::transfer_time`, per transfer in start
/// order.
fn net_hub(run: &Run, spans: &mut Spans, parent: &'static str, out: &mut Replayed) {
    let cfg = run.cfg;
    let mut links = LinkSchedule::new(cfg.n_nodes());
    let mut rng = cfg.jitter_seed.map(SimRng::seed_from_u64);
    let xfers = &run.capture.xfers;
    let start = spans.clock.now_ns();
    for x in xfers {
        let route = Route::between(x.from, x.to);
        let at = links.earliest_start(&route, x.at);
        let duration = cfg.sys.serial.transfer_time(x.bytes, rng.as_mut());
        black_box(links.reserve(&route, at, duration));
    }
    spans.close("net.hub", parent, start, xfers.len() as u64);
    out.reserve_calls = xfers.len() as u64;
}

/// `core.faults`: one `FaultState::draw_transfer_fault` per transfer when
/// the run injects link faults; an empty span otherwise.
fn faults(run: &Run, spans: &mut Spans, parent: &'static str, out: &mut Replayed) {
    let plan = run
        .cfg
        .faults
        .as_ref()
        .filter(|plan| plan.profile.has_link_faults());
    let mut state = plan.map(|plan| FaultState::new(plan, run.cfg.n_nodes()));
    let mut draws = 0u64;
    let start = spans.clock.now_ns();
    if let Some(state) = state.as_mut() {
        for x in &run.capture.xfers {
            black_box(state.draw_transfer_fault(x.bytes, x.frame));
        }
        draws = run.capture.xfers.len() as u64;
    }
    spans.close("core.faults", parent, start, draws);
    out.draw_calls = draws;
}

/// `sim.stats`: every key of the run's final counters incremented that
/// many times, round-robin, on a fresh `CounterSet`.
fn stats(run: &Run, spans: &mut Spans, parent: &'static str, out: &mut Replayed) {
    let keys: Vec<(&str, u64)> = run.counters.iter().collect();
    let rounds = keys.iter().map(|&(_, n)| n).max().unwrap_or(0);
    let mut order: Vec<usize> = Vec::with_capacity(keys.iter().map(|&(_, n)| n as usize).sum());
    for round in 0..rounds {
        order.extend((0..keys.len()).filter(|&i| keys[i].1 > round));
    }
    let mut replayed = CounterSet::new();
    let start = spans.clock.now_ns();
    for &i in &order {
        replayed.incr(keys[i].0); // lint: allow(D010) — replays the run's own keys; their literal emit sites live in dles-core
    }
    spans.close("sim.stats", parent, start, order.len() as u64);
    out.incr_calls = order.len() as u64;
    out.counters_match = replayed == *run.counters;
}
