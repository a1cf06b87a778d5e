//! Cross-module randomized tests for the simulation kernel (seeded, so
//! deterministic — no external property-testing framework).

#![cfg(test)]

use crate::engine::{Ctx, Engine, World};
use crate::event::{EventId, EventQueue};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Differential test against a sorted-`Vec` oracle over random
/// interleavings of push, pop and cancel. Pops come out in (time,
/// insertion) order, each exactly once; `cancel` is `true` exactly when the
/// event was pending, whether the id is pending, popped, already cancelled
/// or was never issued; `len()` is the pending count after every operation.
#[test]
fn queue_pops_sorted_and_complete() {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Pending,
        Popped,
        Cancelled,
    }
    let mut rng = SimRng::seed_from_u64(0xD1CE);
    // An id from another queue, at a time the queue under test never uses.
    let never_issued: EventId = EventQueue::new().push(SimTime::MAX, 0);
    // Cancels seen per target: pending, popped, cancelled, never issued.
    let mut cancels = [0u32; 4];
    for round in 0..64 {
        let mut q = EventQueue::new();
        // Pending events as (time µs, insertion index), sorted.
        let mut oracle: Vec<(u64, usize)> = Vec::new();
        // Every id issued this round, its event's time and its state.
        let mut issued: Vec<(EventId, u64, State)> = Vec::new();
        for _ in 0..rng.uniform_u64(1, 400) {
            let op = rng.uniform_u64(0, 99);
            if op < 50 {
                // Few distinct times, so ties are common.
                let t = rng.uniform_u64(0, 99);
                let i = issued.len();
                issued.push((q.push(SimTime::from_micros(t), i), t, State::Pending));
                let at = oracle.partition_point(|&e| e < (t, i));
                oracle.insert(at, (t, i));
            } else if op < 75 {
                let got = q.pop().map(|e| (e.time.as_micros(), e.event));
                let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                assert_eq!(got, want, "round {round}: pop");
                if let Some((_, i)) = want {
                    issued[i].2 = State::Popped;
                }
            } else {
                let i = rng.uniform_u64(0, issued.len() as u64) as usize;
                let (id, case, pending) = match issued.get(i) {
                    Some(&(id, t, state)) => {
                        let pending = state == State::Pending;
                        if pending {
                            oracle.retain(|&e| e != (t, i));
                            issued[i].2 = State::Cancelled;
                        }
                        (id, state as usize, pending)
                    }
                    None => (never_issued, 3, false),
                };
                cancels[case] += 1;
                assert_eq!(q.cancel(id), pending, "round {round}: case {case}");
            }
            assert_eq!(q.len(), oracle.len(), "round {round}: len");
            assert_eq!(
                q.peek_time().map(SimTime::as_micros),
                oracle.first().map(|&(t, _)| t),
                "round {round}: peek_time"
            );
        }
        while let Some(e) = q.pop() {
            assert_eq!((e.time.as_micros(), e.event), oracle.remove(0));
        }
        assert!(oracle.is_empty(), "round {round}: events lost");
    }
    assert!(cancels.iter().all(|&n| n > 0), "{cancels:?}");
}

/// SimTime arithmetic: conversions are monotone and sub saturates.
#[test]
fn simtime_arithmetic() {
    let mut rng = SimRng::seed_from_u64(0x71AE);
    for _ in 0..512 {
        let a = rng.uniform_u64(0, u64::MAX / 4);
        let b = rng.uniform_u64(0, u64::MAX / 4);
        let ta = SimTime::from_micros(a);
        let tb = SimTime::from_micros(b);
        assert_eq!((ta + tb).as_micros(), a + b);
        assert_eq!((ta - tb).as_micros(), a.saturating_sub(b));
        assert_eq!(ta.max(tb).as_micros(), a.max(b));
        assert_eq!(ta.min(tb).as_micros(), a.min(b));
        // Seconds roundtrip within 1 µs of rounding (for spans inside
        // f64's exact-integer range; experiments live well inside it).
        let small = rng.uniform_u64(0, (1 << 52) - 1);
        let ts = SimTime::from_micros(small);
        let rt = SimTime::from_secs_f64(ts.as_secs_f64());
        assert!(rt.as_micros().abs_diff(small) <= 1);
    }
}

/// The engine's clock never runs backwards regardless of the schedule.
#[test]
fn engine_clock_monotone() {
    struct Chain {
        delays: Vec<u64>,
        idx: usize,
        times: Vec<SimTime>,
    }
    impl World for Chain {
        type Event = ();
        fn handle(&mut self, ctx: &mut Ctx<()>, _: ()) {
            self.times.push(ctx.now());
            if self.idx < self.delays.len() {
                let d = self.delays[self.idx];
                self.idx += 1;
                ctx.schedule_in(SimTime::from_micros(d), ());
            }
        }
    }
    let mut rng = SimRng::seed_from_u64(0xC10C);
    for _ in 0..64 {
        let n = rng.uniform_u64(1, 100) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 9_999)).collect();
        let mut engine = Engine::new(Chain {
            delays,
            idx: 0,
            times: vec![],
        });
        engine.schedule_at(SimTime::ZERO, ());
        engine.run_until(SimTime::MAX);
        let times = &engine.world().times;
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times.len() as u64, engine.processed());
    }
}
