//! The simulation engine: clock + event queue + world dispatch loop.

use crate::event::{EventId, EventQueue};
use crate::time::SimTime;
use crate::trace::{NullRecorder, Recorder, TraceRecord};

/// Model state driven by the engine.
///
/// The engine pops the next event, advances the clock, and calls
/// [`World::handle`]; the handler may schedule further events through the
/// [`Ctx`].
pub trait World {
    type Event;
    fn handle(&mut self, ctx: &mut Ctx<Self::Event>, event: Self::Event);
}

/// Scheduling context passed to event handlers.
///
/// Borrows the engine's queue and clock so handlers can schedule or cancel
/// events without owning the engine.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
    recorder: &'a mut dyn Recorder,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// model bug; it panics rather than silently reordering causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past: at={at:?} now={:?}",
            self.now
        );
        self.queue.push(at, event)
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventId {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.queue.push(at, event)
    }

    /// Cancel a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Ask the engine to stop after the current handler returns (e.g. the
    /// terminating condition — a dead battery — has been reached).
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Whether the engine's recorder wants records at all. Handlers should
    /// guard record construction behind this so tracing is free when off.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.recorder.enabled()
    }

    /// Submit a trace record to the engine's recorder.
    pub fn emit(&mut self, record: TraceRecord) {
        self.recorder.record(record);
    }

    /// Direct access to the recorder (for bulk emitters).
    pub fn recorder(&mut self) -> &mut dyn Recorder {
        self.recorder
    }
}

/// Why a [`Engine::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained.
    QueueEmpty,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// A handler called [`Ctx::request_stop`].
    Stopped,
}

/// The discrete-event engine.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
    recorder: Box<dyn Recorder>,
}

impl<W: World> Engine<W> {
    pub fn new(world: W) -> Self {
        Self::with_recorder(world, Box::new(NullRecorder))
    }

    /// Build an engine whose handlers emit trace records into `recorder`.
    pub fn with_recorder(world: W, recorder: Box<dyn Recorder>) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            recorder,
        }
    }

    /// Access the recorder, e.g. to drain a memory recorder's records.
    pub fn recorder_mut(&mut self) -> &mut dyn Recorder {
        &mut *self.recorder
    }

    /// Current simulation time (time of the most recently handled event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the model (for setup and inspection between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Schedule an event from outside a handler (setup phase).
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) -> EventId {
        assert!(at >= self.now, "schedule_at in the past");
        self.queue.push(at, event)
    }

    /// Handle exactly one event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.dispatch_next().is_some()
    }

    /// Run until the queue drains, a handler requests a stop, or the next
    /// event would be strictly after `horizon` (the clock then rests at the
    /// last handled event; pending events stay queued).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        while self.queue.peek_time().is_some_and(|next| next <= horizon) {
            if self.dispatch_next() == Some(true) {
                return RunOutcome::Stopped;
            }
        }
        if self.queue.is_empty() {
            RunOutcome::QueueEmpty
        } else {
            RunOutcome::HorizonReached
        }
    }

    /// Pop the next event, advance the clock to it and hand it to the
    /// world. `None` if the queue was empty, else whether the handler
    /// requested a stop.
    fn dispatch_next(&mut self) -> Option<bool> {
        let entry = self.queue.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.processed += 1;
        let mut stop = false;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
            stop_requested: &mut stop,
            recorder: &mut *self.recorder,
        };
        self.world.handle(&mut ctx, entry.event);
        Some(stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        seen: Vec<(SimTime, u32)>,
        respawn: bool,
    }

    impl World for Probe {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
            self.seen.push((ctx.now(), ev));
            if self.respawn && ev < 5 {
                ctx.schedule_in(SimTime::from_micros(10), ev + 1);
            }
        }
    }

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let mut e = Engine::new(Probe {
            seen: vec![],
            respawn: false,
        });
        e.schedule_at(SimTime::from_micros(5), 1);
        e.schedule_at(SimTime::from_micros(3), 2);
        assert_eq!(e.run_until(SimTime::MAX), RunOutcome::QueueEmpty);
        assert_eq!(
            e.world().seen,
            vec![(SimTime::from_micros(3), 2), (SimTime::from_micros(5), 1)]
        );
        assert_eq!(e.now(), SimTime::from_micros(5));
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut e = Engine::new(Probe {
            seen: vec![],
            respawn: true,
        });
        e.schedule_at(SimTime::ZERO, 0);
        e.run_until(SimTime::MAX);
        assert_eq!(e.world().seen.len(), 6);
        assert_eq!(e.now(), SimTime::from_micros(50));
    }

    #[test]
    fn horizon_pauses_without_dropping_events() {
        let mut e = Engine::new(Probe {
            seen: vec![],
            respawn: false,
        });
        e.schedule_at(SimTime::from_micros(10), 1);
        e.schedule_at(SimTime::from_micros(30), 2);
        assert_eq!(
            e.run_until(SimTime::from_micros(20)),
            RunOutcome::HorizonReached
        );
        assert_eq!(e.world().seen.len(), 1);
        // Resume: the pending event is still there.
        assert_eq!(e.run_until(SimTime::MAX), RunOutcome::QueueEmpty);
        assert_eq!(e.world().seen.len(), 2);
    }

    struct Stopper {
        count: u32,
    }
    impl World for Stopper {
        type Event = ();
        fn handle(&mut self, ctx: &mut Ctx<()>, _: ()) {
            self.count += 1;
            if self.count == 3 {
                ctx.request_stop();
            } else {
                ctx.schedule_in(SimTime::from_micros(1), ());
            }
        }
    }

    #[test]
    fn request_stop_halts_the_loop() {
        let mut e = Engine::new(Stopper { count: 0 });
        e.schedule_at(SimTime::ZERO, ());
        assert_eq!(e.run_until(SimTime::MAX), RunOutcome::Stopped);
        assert_eq!(e.world().count, 3);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<()>, _: ()) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut e = Engine::new(Bad);
        e.schedule_at(SimTime::from_micros(10), ());
        e.run_until(SimTime::MAX);
    }

    #[test]
    fn handlers_emit_through_the_engine_recorder() {
        use crate::trace::MemoryRecorder;
        struct Emitter;
        impl World for Emitter {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
                if ctx.tracing() {
                    let rec = TraceRecord::new(ctx.now(), "emitter", "tick").with("ev", ev as u64);
                    ctx.emit(rec);
                }
            }
        }
        // Default engine: NullRecorder → tracing() is false, nothing kept.
        let mut off = Engine::new(Emitter);
        off.schedule_at(SimTime::ZERO, 1);
        off.run_until(SimTime::MAX);
        assert!(off.recorder_mut().take_records().is_empty());

        // Memory recorder: records come back out in order.
        let mut on = Engine::with_recorder(Emitter, Box::new(MemoryRecorder::new()));
        on.schedule_at(SimTime::from_micros(3), 7);
        on.schedule_at(SimTime::from_micros(9), 8);
        on.run_until(SimTime::MAX);
        let records = on.recorder_mut().take_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].u64_field("ev"), Some(7));
        assert_eq!(records[1].u64_field("ev"), Some(8));
        assert_eq!(records[1].time, SimTime::from_micros(9));
    }

    #[test]
    fn same_time_events_dispatch_fifo_not_by_discriminant() {
        // Regression pin for the parallel-sweep audit: three events at the
        // same instant must fire in *scheduling* order, not in enum
        // discriminant (or any other value-dependent) order. Seed goldens
        // and N-thread sweep comparisons rely on this.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Ev {
            High = 2,
            Low = 0,
            Mid = 1,
        }
        struct Order {
            seen: Vec<Ev>,
        }
        impl World for Order {
            type Event = Ev;
            fn handle(&mut self, _ctx: &mut Ctx<Ev>, ev: Ev) {
                self.seen.push(ev);
            }
        }
        let mut e = Engine::new(Order { seen: vec![] });
        let t = SimTime::from_micros(77);
        // Scheduled High, Low, Mid — discriminant order would yield
        // Low, Mid, High; reverse-discriminant would yield High, Mid, Low
        // only by accident of this insertion, hence the third probe below.
        e.schedule_at(t, Ev::High);
        e.schedule_at(t, Ev::Low);
        e.schedule_at(t, Ev::Mid);
        e.schedule_at(t, Ev::Low);
        assert_eq!(e.run_until(SimTime::MAX), RunOutcome::QueueEmpty);
        assert_eq!(e.world().seen, vec![Ev::High, Ev::Low, Ev::Mid, Ev::Low]);
    }

    #[test]
    fn step_handles_one_event() {
        let mut e = Engine::new(Probe {
            seen: vec![],
            respawn: false,
        });
        e.schedule_at(SimTime::from_micros(1), 7);
        assert!(e.step());
        assert!(!e.step());
        assert_eq!(e.world().seen, vec![(SimTime::from_micros(1), 7)]);
    }
}
