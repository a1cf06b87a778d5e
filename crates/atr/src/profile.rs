//! The measured ATR performance profile of Fig. 6.
//!
//! For each functional block the paper publishes its latency on an Itsy at
//! the 206.4 MHz peak clock and the size of its output payload:
//!
//! ```text
//!   input frame                    10.1 KB
//!   Target Detection   0.18 s  →    0.6 KB
//!   FFT                0.19 s  →    7.5 KB
//!   IFFT               0.32 s  →    7.5 KB
//!   Compute Distance   0.53 s  →    0.1 KB (final result)
//! ```
//!
//! §4.3 also states the *whole* algorithm takes **1.1 s** at peak clock,
//! while the published block latencies sum to 1.22 s. The default profile
//! therefore scales the block latencies by `1.1 / 1.22` so the end-to-end
//! time matches the number every lifetime experiment depends on;
//! [`AtrProfile::paper_unscaled`] keeps the raw figures for sensitivity
//! checks. (This reconstruction reproduces Fig. 8 well: e.g. scheme 3's
//! Node1 computes to a required ≈378 MHz vs. the paper's "380 MHz".)

use crate::blocks::{Block, BlockRange};

/// Profile of a single functional block.
#[derive(Debug, Clone, Copy)]
pub struct BlockProfile {
    pub block: Block,
    /// Latency at the 206.4 MHz peak clock, seconds.
    pub peak_secs: f64,
    /// Output payload, bytes.
    pub output_bytes: u64,
}

/// The full algorithm profile.
#[derive(Debug, Clone)]
pub struct AtrProfile {
    blocks: [BlockProfile; Block::COUNT],
    /// Raw input frame size, bytes.
    pub input_bytes: u64,
}

const KB: f64 = 1024.0;

fn kb(x: f64) -> u64 {
    (x * KB).round() as u64
}

impl AtrProfile {
    /// Fig. 6 profile with block latencies scaled so they sum to the 1.1 s
    /// whole-algorithm measurement of §4.3 (see module docs).
    pub fn paper() -> Self {
        let raw = Self::paper_unscaled();
        let scale = 1.1 / raw.total_peak_secs();
        let blocks = raw.blocks.map(|b| BlockProfile {
            peak_secs: b.peak_secs * scale,
            ..b
        });
        AtrProfile {
            blocks,
            input_bytes: raw.input_bytes,
        }
    }

    /// Fig. 6 profile with the raw published per-block latencies
    /// (summing to 1.22 s).
    pub(crate) fn paper_unscaled() -> Self {
        AtrProfile {
            blocks: [
                BlockProfile {
                    block: Block::TargetDetection,
                    peak_secs: 0.18,
                    output_bytes: kb(0.6),
                },
                BlockProfile {
                    block: Block::Fft,
                    peak_secs: 0.19,
                    output_bytes: kb(7.5),
                },
                BlockProfile {
                    block: Block::Ifft,
                    peak_secs: 0.32,
                    output_bytes: kb(7.5),
                },
                BlockProfile {
                    block: Block::ComputeDistance,
                    peak_secs: 0.53,
                    output_bytes: kb(0.1),
                },
            ],
            input_bytes: kb(10.1),
        }
    }

    pub fn block(&self, b: Block) -> BlockProfile {
        self.blocks[b.index()]
    }

    /// Sum of all block latencies at peak clock, seconds.
    pub fn total_peak_secs(&self) -> f64 {
        self.blocks.iter().map(|b| b.peak_secs).sum()
    }

    /// Computation latency at peak clock of one node's share, seconds.
    pub fn peak_secs(&self, range: BlockRange) -> f64 {
        range.blocks().map(|b| self.block(b).peak_secs).sum()
    }

    /// Bytes a node running `range` receives per frame: the raw frame for
    /// the first node, else the previous block's output.
    pub fn recv_bytes(&self, range: BlockRange) -> u64 {
        if range.is_first() {
            self.input_bytes
        } else {
            self.blocks[range.start() - 1].output_bytes
        }
    }

    /// Bytes a node running `range` sends per frame: its last block's
    /// output (the final result for the last node).
    pub fn send_bytes(&self, range: BlockRange) -> u64 {
        self.block(range.last_block()).output_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscaled_matches_fig6_raw_numbers() {
        let p = AtrProfile::paper_unscaled();
        assert_eq!(p.block(Block::TargetDetection).peak_secs, 0.18);
        assert_eq!(p.block(Block::Fft).peak_secs, 0.19);
        assert_eq!(p.block(Block::Ifft).peak_secs, 0.32);
        assert_eq!(p.block(Block::ComputeDistance).peak_secs, 0.53);
        assert!((p.total_peak_secs() - 1.22).abs() < 1e-12);
        assert_eq!(p.input_bytes, 10_342);
        assert_eq!(p.block(Block::TargetDetection).output_bytes, 614);
        assert_eq!(p.block(Block::Fft).output_bytes, 7_680);
        assert_eq!(p.block(Block::ComputeDistance).output_bytes, 102);
    }

    #[test]
    fn scaled_profile_sums_to_1_1s() {
        let p = AtrProfile::paper();
        assert!((p.total_peak_secs() - 1.1).abs() < 1e-12);
        // Relative shares preserved.
        let raw = AtrProfile::paper_unscaled();
        for b in Block::ALL {
            let ratio = p.block(b).peak_secs / raw.block(b).peak_secs;
            assert!((ratio - 1.1 / 1.22).abs() < 1e-12);
        }
    }

    #[test]
    fn payloads_reproduce_fig8_columns() {
        let p = AtrProfile::paper();
        // A node's "comm. payload" column is what it receives plus what it sends.
        let payload_kb = |r| (p.recv_bytes(r) + p.send_bytes(r)) as f64 / 1024.0;
        // Scheme 1: Node1 = (TD): 10.1 + 0.6 = 10.7 KB; Node2: 0.6 + 0.1 = 0.7 KB.
        let s1n1 = BlockRange::new(0, 1);
        let s1n2 = BlockRange::new(1, 4);
        assert!((payload_kb(s1n1) - 10.7).abs() < 0.05);
        assert!((payload_kb(s1n2) - 0.7).abs() < 0.05);
        // Scheme 2: Node1 = (TD+FFT): 10.1 + 7.5 = 17.6; Node2: 7.5 + 0.1 = 7.6.
        let s2n1 = BlockRange::new(0, 2);
        let s2n2 = BlockRange::new(2, 4);
        assert!((payload_kb(s2n1) - 17.6).abs() < 0.05);
        assert!((payload_kb(s2n2) - 7.6).abs() < 0.05);
        // Scheme 3 repeats the 17.6 / 7.6 split (Fig. 8, third row).
        let s3n1 = BlockRange::new(0, 3);
        let s3n2 = BlockRange::new(3, 4);
        assert!((payload_kb(s3n1) - 17.6).abs() < 0.05);
        assert!((payload_kb(s3n2) - 7.6).abs() < 0.05);
    }

    #[test]
    fn full_range_io_is_frame_in_result_out() {
        let p = AtrProfile::paper();
        let full = BlockRange::full();
        assert_eq!(p.recv_bytes(full), 10_342);
        assert_eq!(p.send_bytes(full), 102);
        assert!((p.peak_secs(full) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn share_latencies_partition_the_total() {
        let p = AtrProfile::paper();
        for parts in crate::blocks::partitions(3) {
            let sum: f64 = parts.iter().map(|&r| p.peak_secs(r)).sum();
            assert!((sum - 1.1).abs() < 1e-9);
        }
    }
}
