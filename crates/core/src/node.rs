//! The simulated Itsy node: CPU power state + battery + instrumentation.
//!
//! A node is "a full-fledged computer system with a voltage-scalable
//! processor, I/O devices, and memory" (§3). For the lifetime experiments
//! its observable state is the (mode, DVS level) power waveform it draws
//! from its dedicated battery.

use dles_battery::kibam::KibamParams;
use dles_battery::rakhmatov::RvParams;
use dles_battery::{Battery, IdealBattery, KibamBattery, PeukertBattery, RakhmatovBattery};
use dles_net::Endpoint;
use dles_power::sa1100::BATTERY_VOLTS;
use dles_power::{CurrentModel, EnergyAccount, FreqLevel, Mode, PowerMonitor, PowerState};
use dles_sim::{EventId, NullRecorder, Recorder, SimTime, TraceEvent};
use dles_units::{MilliAmpHours, MilliAmps, Seconds};

use crate::metrics::NodeOutcome;

/// Which battery model powers a node — KiBaM for reproduction, ideal and
/// Peukert for the "what would a naive battery model predict" ablations.
#[derive(Debug, Clone, Copy)]
pub enum BatterySpec {
    Kibam(KibamParams),
    Rakhmatov(RvParams),
    Ideal {
        capacity_mah: MilliAmpHours,
    },
    Peukert {
        capacity_mah: MilliAmpHours,
        reference_ma: MilliAmps,
        exponent: f64,
    },
}

impl BatterySpec {
    pub fn build(&self) -> Box<dyn Battery> {
        match *self {
            BatterySpec::Kibam(p) => Box::new(KibamBattery::from_params(p)),
            BatterySpec::Rakhmatov(p) => Box::new(RakhmatovBattery::from_params(p)),
            BatterySpec::Ideal { capacity_mah } => Box::new(IdealBattery::new(capacity_mah.get())),
            BatterySpec::Peukert {
                capacity_mah,
                reference_ma,
                exponent,
            } => Box::new(PeukertBattery::new(
                capacity_mah.get(),
                reference_ma.get(),
                exponent,
            )),
        }
    }

    /// The same chemistry with its capacity scaled by `factor` — per-node
    /// manufacturing variance or a reduced initial state of charge (the
    /// fault-injection layer models both as a smaller pack).
    pub fn scaled(&self, factor: f64) -> BatterySpec {
        assert!(factor > 0.0, "battery scale must be positive");
        match *self {
            BatterySpec::Kibam(p) => BatterySpec::Kibam(p.scaled(factor)),
            BatterySpec::Rakhmatov(p) => BatterySpec::Rakhmatov(p.scaled(factor)),
            BatterySpec::Ideal { capacity_mah } => BatterySpec::Ideal {
                capacity_mah: capacity_mah * factor,
            },
            BatterySpec::Peukert {
                capacity_mah,
                reference_ma,
                exponent,
            } => BatterySpec::Peukert {
                capacity_mah: capacity_mah * factor,
                reference_ma,
                exponent,
            },
        }
    }
}

/// How a node's pending death event is armed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeathArm {
    /// Far from death: a sentinel at `at`, which the battery outlives
    /// under any draw the node can make ([`Battery::death_lower_bound`]).
    /// Transitions leave it alone until they come near it.
    Bound { at: SimTime, id: EventId },
    /// Near death, or for a battery with no bound: the death under the
    /// present draw, re-armed on every transition; `None` while the draw
    /// never exhausts the battery, or once the node is dead.
    Exact(Option<EventId>),
}

/// One simulated node.
pub(crate) struct SimNode {
    /// The node's battery (dies with it).
    pub battery: Box<dyn Battery>,
    /// CPU power state machine.
    pub power: PowerState,
    /// Discharge instrumentation (Itsy's power monitor).
    pub monitor: PowerMonitor,
    /// Energy attribution by mode.
    pub energy: EnergyAccount,
    /// When the node's current activity completes (scheduling hint).
    pub busy_until: SimTime,
    /// Time of battery exhaustion, once dead; `None` while the battery
    /// still has charge.
    pub death_time: Option<SimTime>,
    /// The node's pending death event.
    pub(crate) death: DeathArm,
}

impl SimNode {
    /// A fresh node idling at `idle_level`.
    pub(crate) fn new(spec: &BatterySpec, model: CurrentModel, idle_level: FreqLevel) -> Self {
        SimNode {
            battery: spec.build(),
            power: PowerState::new(model, Mode::Idle, idle_level),
            monitor: PowerMonitor::new(),
            energy: EnergyAccount::new(),
            busy_until: SimTime::ZERO,
            death_time: None,
            death: DeathArm::Exact(None),
        }
    }

    /// Whether the battery still has charge.
    pub(crate) fn alive(&self) -> bool {
        self.death_time.is_none()
    }

    /// How long the battery, as settled at the node's last transition, can
    /// sustain the present draw; `None` means indefinitely. An exactly
    /// armed death event fires this far after that transition.
    pub(crate) fn time_to_death(&self) -> Option<SimTime> {
        self.battery.time_to_exhaustion(self.power.current_ma())
    }

    /// Transition to `(mode, level)` at `now`. Settles the completed power
    /// segment (emitted as a `power_segment` trace record of node index
    /// `node`). It computes no time to death: the caller re-arms the
    /// node's death event only when it is near. Must not be called on a
    /// dead node.
    pub(crate) fn transition_recorded(
        &mut self,
        now: SimTime,
        mode: Mode,
        level: FreqLevel,
        recorder: &mut dyn Recorder,
        node: usize,
    ) {
        assert!(self.alive(), "transition on a dead node");
        self.settle(now, Some((mode, level)), recorder, node);
    }

    /// The battery is exhausted at exactly `now`: settle the final segment,
    /// emit its `power_segment` record and mark the node dead.
    pub(crate) fn die_recorded(&mut self, now: SimTime, recorder: &mut dyn Recorder, node: usize) {
        assert!(self.alive(), "node died twice");
        let current = self.settle(now, None, recorder, node);
        // `now` came from time_to_exhaustion rounded to the microsecond, so
        // the battery may sit a hair short of exhaustion; nudge it over.
        let mut guard = 0;
        while !self.battery.is_exhausted() && guard < 10 {
            let _ = self
                .battery
                .discharge(SimTime::from_millis(1), current.max(MilliAmps::new(1.0)));
            guard += 1;
        }
        debug_assert!(
            self.battery.is_exhausted(),
            "death event fired far from actual exhaustion"
        );
        self.death_time = Some(now);
    }

    /// Close instrumentation at the end of an experiment for a node that
    /// survived.
    pub(crate) fn finish(&mut self, now: SimTime) {
        if self.alive() {
            self.settle(now, None, &mut NullRecorder, 0);
        }
    }

    /// Settle the power segment ending at `now` — moving to `next`, or
    /// holding the present state when `None` — against the battery, the
    /// monitor and the energy account, and trace it (naming the node only
    /// when the recorder is on, so untraced runs format nothing). Returns
    /// the settled segment's current.
    fn settle(
        &mut self,
        now: SimTime,
        next: Option<(Mode, FreqLevel)>,
        recorder: &mut dyn Recorder,
        node: usize,
    ) -> MilliAmps {
        let prev_mode = self.power.mode();
        let prev_level = self.power.level();
        let (dur, current) = match next {
            Some((mode, level)) => self.power.transition(now, mode, level),
            None => self.power.finish(now),
        };
        if dur > SimTime::ZERO {
            // A final segment (death or end of run) may exhaust the battery
            // at its end; a transition's may not.
            let outcome = self.battery.discharge(dur, current);
            debug_assert!(
                next.is_none() || !outcome.is_exhausted(),
                "battery died before its scheduled death event"
            );
            self.monitor.record(now, dur, current);
            self.energy.add(prev_mode, dur, current);
            if recorder.enabled() {
                let energy = current * BATTERY_VOLTS * Seconds::new(dur.as_secs_f64());
                recorder.record(
                    TraceEvent::PowerSegment {
                        mode: prev_mode.name(),
                        freq_mhz: prev_level.freq_mhz.mhz(),
                        duration: dur,
                        current_ma: current.get(),
                        energy_mj: energy.get(),
                    }
                    .record(now, Endpoint::Node(node).to_string()),
                );
            }
        }
        current
    }

    /// The node's estimated state of charge — what an adaptive scheduling
    /// policy observes. Settled as of the node's last power transition
    /// (the estimator is deterministic, not clairvoyant: mid-segment draw
    /// has not been integrated yet).
    pub(crate) fn soc_estimate(&self) -> dles_units::StateOfCharge {
        self.battery.soc_estimate()
    }

    /// Charge remaining in the battery (both wells / equivalent).
    pub(crate) fn stranded_mah(&self) -> MilliAmpHours {
        self.battery.state_of_charge() * self.battery.nominal_capacity_mah()
    }

    /// Snapshot the node's outcome for reporting.
    pub(crate) fn outcome(&self) -> NodeOutcome {
        NodeOutcome {
            death_time: self.death_time,
            delivered_mah: self.battery.delivered_mah(),
            stranded_mah: self.stranded_mah(),
            mean_current_ma: self.monitor.mean_current_ma(),
            energy: self.energy.clone(),
            dvs_transitions: self.power.transitions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DvsPolicy;
    use dles_battery::packs::itsy_pack_b;
    use dles_power::DvsTable;

    fn node() -> SimNode {
        let table = DvsTable::sa1100();
        SimNode::new(
            &BatterySpec::Kibam(itsy_pack_b().kibam),
            CurrentModel::itsy(),
            table.lowest(),
        )
    }

    /// Untraced transition of `n` at `secs`; returns the time to death
    /// under the new draw.
    fn enter(n: &mut SimNode, secs: u64, mode: Mode, level: FreqLevel) -> Option<SimTime> {
        n.transition_recorded(SimTime::from_secs(secs), mode, level, &mut NullRecorder, 0);
        n.time_to_death()
    }

    #[test]
    fn transitions_settle_battery_and_monitor() {
        let table = DvsTable::sa1100();
        let mut n = node();
        let full = n.battery.state_of_charge();
        enter(&mut n, 10, Mode::Computation, table.highest());
        assert!(
            n.battery.state_of_charge() < full,
            "idle draw must discharge"
        );
        assert!(n.monitor.mean_current_ma().get() > 0.0);
        assert!(n.energy.energy_j(Mode::Idle).get() > 0.0);
        assert_eq!(n.energy.energy_j(Mode::Computation).get(), 0.0);
    }

    #[test]
    fn ttd_shrinks_with_higher_draw() {
        let table = DvsTable::sa1100();
        let mut a = node();
        let ttd_idle = enter(&mut a, 1, Mode::Idle, table.lowest()).unwrap();
        let mut b = node();
        let ttd_compute = enter(&mut b, 1, Mode::Computation, table.highest()).unwrap();
        assert!(ttd_compute < ttd_idle);
    }

    #[test]
    fn death_finalizes_state() {
        let table = DvsTable::sa1100();
        let mut n = node();
        let ttd = enter(&mut n, 0, Mode::Computation, table.highest()).unwrap();
        n.die_recorded(ttd, &mut NullRecorder, 0);
        assert!(!n.alive());
        assert_eq!(n.death_time, Some(ttd));
        assert!(n.battery.is_exhausted());
        let o = n.outcome();
        assert!(o.delivered_mah.get() > 0.0);
        // KiBaM strands bound charge at a 130 mA death.
        assert!(o.stranded_mah.get() > 1.0);
    }

    #[test]
    fn policy_transition_picks_comm_level() {
        let table = DvsTable::sa1100();
        let mut n = node();
        let level = DvsPolicy::DvsDuringIo.level_for(Mode::Communication, table.highest(), &table);
        enter(&mut n, 1, Mode::Communication, level);
        assert_eq!(n.power.level().freq_mhz.mhz(), 59.0);
        assert_eq!(n.power.mode(), Mode::Communication);
    }

    #[test]
    fn recorded_transitions_emit_power_segments() {
        use dles_sim::MemoryRecorder;
        let table = DvsTable::sa1100();
        let mut n = node();
        let mut rec = MemoryRecorder::new();
        n.transition_recorded(
            SimTime::from_secs(2),
            Mode::Computation,
            table.highest(),
            &mut rec,
            0,
        );
        n.transition_recorded(
            SimTime::from_secs(3),
            Mode::Idle,
            table.lowest(),
            &mut rec,
            0,
        );
        let records = rec.take_records();
        assert_eq!(records.len(), 2);
        // First segment: the 2 s of idle before the transition.
        assert_eq!(records[0].kind, "power_segment");
        assert_eq!(records[0].component, "node1");
        assert_eq!(records[0].str_field("mode"), Some("idle"));
        assert_eq!(records[0].u64_field("duration_us"), Some(2_000_000));
        // Second: the 1 s of computation closed by the next transition.
        assert_eq!(records[1].str_field("mode"), Some("computation"));
        assert_eq!(records[1].u64_field("duration_us"), Some(1_000_000));
    }

    #[test]
    fn settled_segment_record_carries_power_fields() {
        use dles_sim::{FieldValue, MemoryRecorder};
        let table = DvsTable::sa1100();
        let mut n = node();
        enter(&mut n, 1, Mode::Computation, table.highest());
        let mut rec = MemoryRecorder::new();
        n.transition_recorded(
            SimTime::from_secs(3),
            Mode::Idle,
            table.lowest(),
            &mut rec,
            0,
        );
        let records = rec.take_records();
        assert_eq!(records.len(), 1);
        // The 2 s of computation from 1 s, stamped at its end, when its
        // draw is known.
        let seg = &records[0];
        assert_eq!(seg.time, SimTime::from_secs(3));
        assert_eq!(seg.kind, "power_segment");
        assert_eq!(seg.str_field("mode"), Some("computation"));
        assert_eq!(seg.field("freq_mhz"), Some(&FieldValue::F64(206.4)));
        assert_eq!(seg.u64_field("duration_us"), Some(2_000_000));
        let Some(&FieldValue::F64(current_ma)) = seg.field("current_ma") else {
            panic!("current_ma is a number: {seg:?}");
        };
        assert!((current_ma - 130.0).abs() < 1.0, "Fig. 7 peak {current_ma}");
        // mA × 4 V × 2 s, in that order, so the energy keeps its bits.
        let energy_mj = current_ma * 4.0 * 2.0;
        assert_eq!(seg.field("energy_mj"), Some(&FieldValue::F64(energy_mj)));
    }

    #[test]
    fn battery_spec_builders() {
        assert!(
            BatterySpec::Ideal {
                capacity_mah: MilliAmpHours::new(5.0)
            }
            .build()
            .state_of_charge()
                == 1.0
        );
        let p = BatterySpec::Peukert {
            capacity_mah: MilliAmpHours::new(10.0),
            reference_ma: MilliAmps::new(5.0),
            exponent: 1.2,
        };
        assert_eq!(p.build().nominal_capacity_mah(), MilliAmpHours::new(10.0));
        assert!(p.build().time_to_exhaustion(MilliAmps::new(5.0)).is_some());
    }

    #[test]
    fn scaled_specs_shrink_capacity_only() {
        let spec = BatterySpec::Kibam(itsy_pack_b().kibam);
        let half = spec.scaled(0.5);
        assert!(
            (half.build().nominal_capacity_mah() - spec.build().nominal_capacity_mah() * 0.5)
                .abs()
                .get()
                < 1e-9
        );
        if let (BatterySpec::Kibam(a), BatterySpec::Kibam(b)) = (spec, half) {
            assert_eq!(a.c, b.c);
            assert_eq!(a.k, b.k);
        }
        let ideal = BatterySpec::Ideal {
            capacity_mah: MilliAmpHours::new(8.0),
        }
        .scaled(0.25);
        assert_eq!(
            ideal.build().nominal_capacity_mah(),
            MilliAmpHours::new(2.0)
        );
    }
}
