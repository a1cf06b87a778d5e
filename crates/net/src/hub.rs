//! Serial-line occupancy: when can a transfer actually start?
//!
//! Each node's serial line is a single half-duplex resource in our model
//! (the paper's nodes fully serialize RECV/PROC/SEND anyway, §3). The
//! [`LinkSchedule`] tracks, per line, the time it becomes free, and admits
//! a transfer only when *every* line on its route is free — this is where
//! "additional communication can potentially saturate the network" (§5.3)
//! becomes observable in the simulator.

use crate::topology::Route;
use dles_sim::SimTime;

/// Busy-until bookkeeping for the hub's serial lines.
#[derive(Debug, Clone)]
pub struct LinkSchedule {
    free_at: Vec<SimTime>,
}

impl LinkSchedule {
    /// A hub with `n_nodes` serial lines, all idle.
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "hub needs at least one line");
        LinkSchedule {
            free_at: vec![SimTime::ZERO; n_nodes],
        }
    }

    /// Earliest time at or after `earliest` when every line on `route` is
    /// free.
    pub fn earliest_start(&self, route: &Route, earliest: SimTime) -> SimTime {
        route
            .links()
            .iter()
            .fold(earliest, |acc, &l| acc.max(self.free_at[l]))
    }

    /// Reserve every line on `route` from `start` for `duration`; returns
    /// the transfer's end time. Panics if a line is still busy at `start`
    /// (callers must use [`earliest_start`](Self::earliest_start) first) —
    /// silently overlapping reservations would corrupt the timing model.
    pub fn reserve(&mut self, route: &Route, start: SimTime, duration: SimTime) -> SimTime {
        for &l in route.links() {
            assert!(
                self.free_at[l] <= start,
                "link {l} busy until {:?} but reservation starts at {start:?}",
                self.free_at[l]
            );
        }
        let end = start + duration;
        for &l in route.links() {
            self.free_at[l] = end;
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Endpoint, Route};

    #[test]
    fn independent_lines_do_not_block() {
        let mut s = LinkSchedule::new(2);
        let r0 = Route::between(Endpoint::Host, Endpoint::Node(0));
        let r1 = Route::between(Endpoint::Host, Endpoint::Node(1));
        s.reserve(&r0, SimTime::ZERO, SimTime::from_secs(1));
        // Line 1 is still free at t=0.
        assert_eq!(s.earliest_start(&r1, SimTime::ZERO), SimTime::ZERO);
        s.reserve(&r1, SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(s.free_at[0], SimTime::from_secs(1));
        assert_eq!(s.free_at[1], SimTime::from_secs(2));
    }

    #[test]
    fn forwarded_transfer_blocks_both_lines() {
        let mut s = LinkSchedule::new(2);
        let fwd = Route::between(Endpoint::Node(0), Endpoint::Node(1));
        s.reserve(&fwd, SimTime::ZERO, SimTime::from_secs(3));
        let r0 = Route::between(Endpoint::Host, Endpoint::Node(0));
        let r1 = Route::between(Endpoint::Host, Endpoint::Node(1));
        assert_eq!(s.earliest_start(&r0, SimTime::ZERO), SimTime::from_secs(3));
        assert_eq!(s.earliest_start(&r1, SimTime::ZERO), SimTime::from_secs(3));
    }

    #[test]
    fn earliest_start_respects_caller_floor() {
        let s = LinkSchedule::new(1);
        let r = Route::between(Endpoint::Host, Endpoint::Node(0));
        assert_eq!(
            s.earliest_start(&r, SimTime::from_secs(5)),
            SimTime::from_secs(5)
        );
    }

    #[test]
    fn sequential_reservations_queue() {
        let mut s = LinkSchedule::new(1);
        let r = Route::between(Endpoint::Host, Endpoint::Node(0));
        let end1 = s.reserve(&r, SimTime::ZERO, SimTime::from_secs(1));
        let start2 = s.earliest_start(&r, SimTime::ZERO);
        assert_eq!(start2, end1);
        let end2 = s.reserve(&r, start2, SimTime::from_secs(1));
        assert_eq!(end2, SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "busy until")]
    fn overlapping_reservation_panics() {
        let mut s = LinkSchedule::new(1);
        let r = Route::between(Endpoint::Host, Endpoint::Node(0));
        s.reserve(&r, SimTime::ZERO, SimTime::from_secs(2));
        s.reserve(&r, SimTime::from_secs(1), SimTime::from_secs(1));
    }
}
