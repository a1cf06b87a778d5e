//! The functional-block algebra of the ATR pipeline.
//!
//! The four blocks of Fig. 1 can be "all combined into one node or
//! distributed onto multiple nodes in a pipeline" (§4.3) — always as
//! *contiguous* runs, because the data flow is a chain. [`BlockRange`]
//! represents one node's share; [`partitions`] enumerates every way to
//! split the chain across `n` nodes (the candidate set behind Fig. 8).

use std::fmt;

/// One functional block of the ATR algorithm (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Block {
    TargetDetection,
    Fft,
    Ifft,
    ComputeDistance,
}

impl Block {
    /// All blocks in dataflow order.
    pub const ALL: [Block; 4] = [
        Block::TargetDetection,
        Block::Fft,
        Block::Ifft,
        Block::ComputeDistance,
    ];

    pub const COUNT: usize = 4;

    /// Position in the dataflow chain (0-based).
    pub fn index(self) -> usize {
        match self {
            Block::TargetDetection => 0,
            Block::Fft => 1,
            Block::Ifft => 2,
            Block::ComputeDistance => 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Block::TargetDetection => "Target Detect.",
            Block::Fft => "FFT",
            Block::Ifft => "IFFT",
            Block::ComputeDistance => "Comp. Distance",
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A contiguous, non-empty run of blocks `[start, end)` — one node's share
/// of the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRange {
    start: usize,
    end: usize,
}

impl BlockRange {
    /// Blocks `[start, end)`; must be non-empty and within the chain.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end && end <= Block::COUNT, "invalid block range");
        BlockRange { start, end }
    }

    /// The whole algorithm on one node.
    pub fn full() -> Self {
        BlockRange {
            start: 0,
            end: Block::COUNT,
        }
    }

    pub(crate) fn start(&self) -> usize {
        self.start
    }

    /// `true` if this range starts the chain (receives raw frames).
    pub(crate) fn is_first(&self) -> bool {
        self.start == 0
    }

    /// The blocks in this range, in dataflow order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        Block::ALL[self.start..self.end].iter().copied()
    }

    pub(crate) fn last_block(&self) -> Block {
        Block::ALL[self.end - 1]
    }

    /// The range a node adopts when it absorbs the next node's share
    /// (power-failure recovery, §5.4): `[self.start, other.end)`.
    /// Panics unless `other` immediately follows `self`.
    pub fn merge_with_next(&self, other: BlockRange) -> BlockRange {
        assert_eq!(self.end, other.start, "ranges are not adjacent");
        BlockRange {
            start: self.start,
            end: other.end,
        }
    }
}

impl fmt::Display for BlockRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, b) in self.blocks().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, ")")
    }
}

/// Every way to split the 4-block chain into `n_nodes` contiguous,
/// non-empty shares (compositions of 4 into `n_nodes` parts). For
/// `n_nodes = 2` this yields exactly the three schemes of Fig. 8.
pub fn partitions(n_nodes: usize) -> Vec<Vec<BlockRange>> {
    assert!(
        (1..=Block::COUNT).contains(&n_nodes),
        "node count must be in 1..={}",
        Block::COUNT
    );
    let mut out = Vec::new();
    // Choose n_nodes-1 cut points among the 3 interior boundaries.
    let cuts = n_nodes - 1;
    let mut chosen = Vec::with_capacity(cuts);
    fn recurse(
        next: usize,
        remaining: usize,
        chosen: &mut Vec<usize>,
        out: &mut Vec<Vec<BlockRange>>,
    ) {
        if remaining == 0 {
            let mut ranges = Vec::with_capacity(chosen.len() + 1);
            let mut start = 0;
            for &cut in chosen.iter() {
                ranges.push(BlockRange::new(start, cut));
                start = cut;
            }
            ranges.push(BlockRange::new(start, Block::COUNT));
            out.push(ranges);
            return;
        }
        for cut in next..Block::COUNT {
            chosen.push(cut);
            recurse(cut + 1, remaining - 1, chosen, out);
            chosen.pop();
        }
    }
    recurse(1, cuts, &mut chosen, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_order_and_indices() {
        for (i, b) in Block::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn full_range_covers_everything() {
        let r = BlockRange::full();
        assert!(r.is_first() && r.end == Block::COUNT);
        assert_eq!(r.blocks().count(), 4);
        assert_eq!(r.blocks().next(), Some(Block::TargetDetection));
        assert_eq!(r.last_block(), Block::ComputeDistance);
    }

    #[test]
    fn two_node_partitions_are_the_three_fig8_schemes() {
        let parts = partitions(2);
        assert_eq!(parts.len(), 3);
        // Scheme 1: (TD) (FFT+IFFT+CD)
        assert_eq!(parts[0][0], BlockRange::new(0, 1));
        assert_eq!(parts[0][1], BlockRange::new(1, 4));
        // Scheme 2: (TD+FFT) (IFFT+CD)
        assert_eq!(parts[1][0], BlockRange::new(0, 2));
        assert_eq!(parts[1][1], BlockRange::new(2, 4));
        // Scheme 3: (TD+FFT+IFFT) (CD)
        assert_eq!(parts[2][0], BlockRange::new(0, 3));
        assert_eq!(parts[2][1], BlockRange::new(3, 4));
    }

    #[test]
    fn partition_counts_are_binomial() {
        assert_eq!(partitions(1).len(), 1);
        assert_eq!(partitions(2).len(), 3);
        assert_eq!(partitions(3).len(), 3);
        assert_eq!(partitions(4).len(), 1);
    }

    #[test]
    fn partitions_tile_the_chain() {
        for n in 1..=4 {
            for p in partitions(n) {
                assert_eq!(p.len(), n);
                assert!(p[0].is_first());
                assert_eq!(p[n - 1].end, Block::COUNT);
                for w in p.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "gap in partition");
                }
                let total: usize = p.iter().map(|r| r.blocks().count()).sum();
                assert_eq!(total, Block::COUNT);
            }
        }
    }

    #[test]
    fn merge_with_next_joins_adjacent() {
        let a = BlockRange::new(0, 1);
        let b = BlockRange::new(1, 4);
        let merged = a.merge_with_next(b);
        assert_eq!(merged, BlockRange::full());
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn merge_rejects_non_adjacent() {
        let a = BlockRange::new(0, 1);
        let c = BlockRange::new(2, 4);
        let _ = a.merge_with_next(c);
    }

    #[test]
    fn display_matches_fig8_notation() {
        let s = format!("{}", BlockRange::new(1, 4));
        assert_eq!(s, "(FFT + IFFT + Comp. Distance)");
    }

    #[test]
    #[should_panic(expected = "invalid block range")]
    fn empty_range_rejected() {
        let _ = BlockRange::new(2, 2);
    }
}
