//! The pending-event set: a priority queue ordered by (time, insertion seq).
//!
//! Insertion order breaks ties so that two events scheduled for the same
//! instant always fire in the order they were scheduled — the property that
//! makes the whole simulator deterministic.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Opaque handle to a scheduled event, usable for cancellation. It is the
/// event's key in the queue, so a cancel is one exact lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    time: SimTime,
    seq: u64,
}

/// A scheduled occurrence: fire `event` at `time`.
#[derive(Debug)]
pub struct EventEntry<E> {
    pub time: SimTime,
    pub id: EventId,
    pub event: E,
}

/// Deterministic pending-event queue with O(log n) push, pop and cancel.
/// It holds exactly the pending events: a popped or cancelled event leaves
/// nothing behind.
pub struct EventQueue<E> {
    pending: BTreeMap<(SimTime, u64), E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            pending: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Schedule `event` at absolute time `time`; returns a cancellation
    /// handle.
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert((time, seq), event);
        EventId { time, seq }
    }

    /// Cancel a previously scheduled event. Returns `true` if and only if
    /// the event was still pending (and is now guaranteed not to fire).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.pending.remove(&(id.time, id.seq)).is_some()
    }

    /// Time of the next pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(&(time, _), _)| time)
    }

    /// Pop the next pending event in deterministic order.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let ((time, seq), event) = self.pending.pop_first()?;
        Some(EventEntry {
            time,
            id: EventId { time, seq },
            event,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn cancellation_suppresses_event() {
        let mut q = EventQueue::new();
        let _a = q.push(SimTime::from_micros(1), "a");
        let b = q.push(SimTime::from_micros(2), "b");
        let _c = q.push(SimTime::from_micros(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double-cancel must report false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId {
            time: SimTime::ZERO,
            seq: 42
        }));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), "a");
        q.push(SimTime::from_micros(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }
}
