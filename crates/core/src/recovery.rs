//! Power-failure recovery configuration (§5.4).
//!
//! "Each sending transaction must be acknowledged by the receiver. A
//! timeout mechanism is used on each node to detect the failure of the
//! neighboring nodes. The computation share of the failed node will then
//! migrate to one of its neighboring nodes."
//!
//! The protocol is expensive by design: every acknowledgment is a separate
//! 50–100 ms serial transaction, so the nodes must run at faster DVS
//! levels to stay within the frame delay — "the node will fail even
//! sooner" per transaction, traded for the ability to keep computing after
//! a neighbor dies.
// A panic mid-dispatch leaves a half-applied world state; the few
// protocol invariants that may panic carry an `#[expect]` with a reason.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use dles_sim::SimTime;

/// Recovery-protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// How long a sender waits for an acknowledgment before declaring the
    /// receiver dead. Must exceed the worst-case ack latency (100 ms).
    pub ack_wait: SimTime,
    /// How long a mid-pipeline node tolerates receiving no data before
    /// checking whether its upstream neighbor died.
    pub recv_timeout: SimTime,
    /// Idle time spent reloading code when a survivor absorbs a dead
    /// neighbor's share.
    pub migration_delay: SimTime,
    /// How many times an unacknowledged transfer is retransmitted to a
    /// live receiver before the frame is abandoned. Retransmission only
    /// matters on lossy links; on a healthy link the first ack timeout
    /// against a live target never fires.
    pub max_retries: u32,
}

impl RecoveryConfig {
    /// Defaults scaled to the paper's timing: ack wait of 2× the
    /// worst-case ack, receive timeout of two frame delays.
    pub(crate) fn paper() -> Self {
        RecoveryConfig {
            ack_wait: SimTime::from_millis(200),
            recv_timeout: SimTime::from_secs_f64(2.0 * 2.3),
            migration_delay: SimTime::from_millis(100),
            max_retries: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_wait_exceeds_worst_case_ack() {
        let r = RecoveryConfig::paper();
        assert!(r.ack_wait > SimTime::from_millis(100));
        assert!(r.recv_timeout > SimTime::from_secs_f64(2.3));
    }
}
