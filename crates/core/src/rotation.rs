//! Node-rotation configuration (§5.5).
//!
//! "If we can shuffle the workload on all nodes, such that the
//! lightly-loaded nodes will have more workload and the heavily-loaded
//! nodes can rest, then the workload on each node will be evened out
//! after a few shuffles."
//!
//! Mechanics implemented in [`pipeline`](crate::pipeline): every
//! `period_frames` frames, one frame is tagged as the rotation frame. The
//! node at the head of the pipeline processes its own share *and* the next
//! share on that frame (with its data already local), eliminating one
//! SEND/RECV pair, and every node's role shifts by one — the tail node
//! rotates to the front. Throughput is preserved: the host still emits one
//! frame and receives one result every `D`.

use dles_sim::SimTime;

/// Rotation parameters.
#[derive(Debug, Clone, Copy)]
pub struct RotationConfig {
    /// Rotate once every this many frames (the paper uses 100, §6.7).
    pub period_frames: u64,
    /// Idle time a node spends reloading code while reconfiguring into its
    /// new role ("It should be sufficient for both nodes to load the new
    /// code into memory", §5.5).
    pub reconfig_delay: SimTime,
}

impl RotationConfig {
    /// The paper's §6.7 configuration: rotate every 100 frames.
    pub fn paper() -> Self {
        RotationConfig {
            period_frames: 100,
            reconfig_delay: SimTime::from_millis(50),
        }
    }

    /// Rotation with a custom period (ablation sweeps).
    pub fn every(period_frames: u64) -> Self {
        assert!(period_frames > 0, "rotation period must be positive");
        RotationConfig {
            period_frames,
            ..Self::paper()
        }
    }

    /// Is `frame` a rotation frame? Frame 0 never rotates (nothing to
    /// balance yet).
    pub(crate) fn triggers_on(&self, frame: u64) -> bool {
        frame > 0 && frame % self.period_frames == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_rotates_every_100() {
        let r = RotationConfig::paper();
        assert!(!r.triggers_on(0));
        assert!(!r.triggers_on(99));
        assert!(r.triggers_on(100));
        assert!(r.triggers_on(200));
        assert!(!r.triggers_on(150));
    }

    #[test]
    fn custom_period() {
        let r = RotationConfig::every(1);
        assert!(r.triggers_on(1));
        assert!(r.triggers_on(2));
        assert!(!r.triggers_on(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = RotationConfig::every(0);
    }
}
