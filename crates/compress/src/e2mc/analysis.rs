//! The shared per-block analysis artifact of the SLC pipeline.
//!
//! Every SLC decision — the Fig. 4 budget comparison and the Fig. 5
//! truncation selection — is a pure function of a block's per-symbol
//! canonical-Huffman code lengths, the very lengths E2MC sums to size the
//! block before encoding it. [`BlockAnalysis`] captures exactly that
//! (lengths + their sum, no payload), so one cheap [`E2mc::analyze`] pass
//! can serve any number of consumers: the E2MC size model, N SLC schemes
//! at different MAGs/thresholds/variants, ratio studies and burst
//! accounting — the phase split cuSZ and the GPU Huffman-decode work use
//! to separate histogram/codebook construction from coding.
//!
//! [`E2mc::analyze`]: super::E2mc::analyze

use crate::symbols::SYMBOLS_PER_BLOCK;
use crate::BLOCK_BITS;

use super::HEADER_BITS;

/// Aligned sums of the Fig. 5 adder tree above its leaf level: 32 pair
/// sums, 16 sums of 4, 8 of 8, 4 of 16, 2 of 32 and the 64-symbol root,
/// concatenated level by level.
pub const TREE_SUM_NODES: usize = SYMBOLS_PER_BLOCK - 1;

/// Per-symbol code lengths, the Fig. 5 tree's level sums and their total
/// for one analysed block.
///
/// Produced by [`E2mc::analyze`](super::E2mc::analyze) in a single pass
/// over the dense width table; carries **no payload**, only the sizing
/// facts every downstream decision needs. All derived quantities
/// (`slc-core`'s budget decision and tree selection, burst counts, ratio
/// accumulators) are deterministic functions of this value, so computing
/// it once per block and sharing the artifact is bit-identical to
/// re-deriving it at every consumer. The adder tree's intermediate sums
/// are part of the artifact: the hardware computes them anyway while
/// summing the block size, so every scheme/MAG/threshold sweep that
/// re-decides over a shared analysis reads the tree instead of rebuilding
/// it per decision.
///
/// Lengths are stored as bytes (the widest encoding is the escape code
/// plus 16 raw bits, well under 256) and tree sums as `u16` (the root is
/// at most 64 × 255 = 16320 bits), keeping the artifact at 196 bytes so
/// snapshot-level caches of hundreds of thousands of analyses stay cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAnalysis {
    /// Encoded length of each of the 64 symbols in bits (escape symbols
    /// cost their escape codeword plus 16 raw bits).
    lengths: [u8; SYMBOLS_PER_BLOCK],
    /// The adder tree's aligned sums above the leaf level, levels
    /// concatenated bottom-up (see [`TREE_SUM_NODES`]).
    tree_sums: [u16; TREE_SUM_NODES],
    /// Sum of `lengths` — the data portion of every framing's size.
    total_code_bits: u32,
}

impl BlockAnalysis {
    /// Builds an analysis from per-symbol widths as the dense table
    /// stores them (the [`E2mc::analyze`](super::E2mc::analyze) path).
    pub(super) fn from_widths(lengths: [u8; SYMBOLS_PER_BLOCK]) -> Self {
        let mut tree_sums = [0u16; TREE_SUM_NODES];
        for i in 0..SYMBOLS_PER_BLOCK / 2 {
            tree_sums[i] = u16::from(lengths[2 * i]) + u16::from(lengths[2 * i + 1]);
        }
        let (mut prev, mut out, mut width) = (0usize, SYMBOLS_PER_BLOCK / 2, SYMBOLS_PER_BLOCK / 4);
        while width >= 1 {
            for i in 0..width {
                tree_sums[out + i] = tree_sums[prev + 2 * i] + tree_sums[prev + 2 * i + 1];
            }
            prev = out;
            out += width;
            width /= 2;
        }
        let total_code_bits = u32::from(tree_sums[TREE_SUM_NODES - 1]);
        Self { lengths, tree_sums, total_code_bits }
    }

    /// Builds an analysis from raw per-symbol code lengths.
    ///
    /// Exposed for tests and tools that synthesise length patterns; the
    /// production path is [`E2mc::analyze`](super::E2mc::analyze).
    ///
    /// # Panics
    ///
    /// Panics if a length exceeds 255 bits (no real encoding comes close:
    /// the maximum is the escape codeword plus 16 raw bits).
    pub fn from_lengths(lengths: [u32; SYMBOLS_PER_BLOCK]) -> Self {
        let mut widths = [0u8; SYMBOLS_PER_BLOCK];
        #[expect(
            clippy::expect_used,
            reason = "documented contract of a test-and-tool constructor; E2mc::analyze never comes through here"
        )]
        for (w, &l) in widths.iter_mut().zip(&lengths) {
            *w = u8::try_from(l).expect("code length exceeds 255 bits");
        }
        Self::from_widths(widths)
    }

    /// Per-symbol code lengths as stored (one byte each) — the zero-copy
    /// sibling of [`code_lengths`](Self::code_lengths) for consumers that
    /// widen on the fly.
    pub fn lengths_u8(&self) -> &[u8; SYMBOLS_PER_BLOCK] {
        &self.lengths
    }

    /// Per-symbol code lengths — the inputs of the Fig. 5 adder tree.
    pub fn code_lengths(&self) -> [u32; SYMBOLS_PER_BLOCK] {
        let mut out = [0u32; SYMBOLS_PER_BLOCK];
        for (o, &w) in out.iter_mut().zip(&self.lengths) {
            *o = u32::from(w);
        }
        out
    }

    /// The Fig. 5 adder tree's aligned sums above the leaf level, levels
    /// concatenated bottom-up: 32 pair sums, then 16 sums of 4 symbols,
    /// 8 of 8, 4 of 16, 2 of 32 and finally the 64-symbol root. Computed
    /// once at analysis time; `slc-core`'s tree construction copies these
    /// instead of re-adding 63 nodes per decision.
    pub fn tree_sums(&self) -> &[u16; TREE_SUM_NODES] {
        &self.tree_sums
    }

    /// Sum of all code lengths (the tree's root, before any header).
    pub fn total_code_bits(&self) -> u32 {
        self.total_code_bits
    }

    /// Lossless compressed size under E2MC's framing: mode bit + pdps +
    /// code lengths. Matches
    /// [`E2mc::lossless_size_bits`](super::E2mc::lossless_size_bits).
    pub fn lossless_size_bits(&self) -> u32 {
        HEADER_BITS + self.total_code_bits
    }

    /// The E2MC stored size: the lossless size capped at the verbatim
    /// block (incompressible blocks are stored raw). Matches
    /// [`BlockCompressor::size_bits`](crate::BlockCompressor::size_bits)
    /// on [`E2mc`](super::E2mc).
    pub fn e2mc_size_bits(&self) -> u32 {
        self.lossless_size_bits().min(BLOCK_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lengths_sums_and_frames() {
        let mut lengths = [3u32; SYMBOLS_PER_BLOCK];
        lengths[0] = 19;
        let a = BlockAnalysis::from_lengths(lengths);
        assert_eq!(a.total_code_bits(), 3 * 63 + 19);
        assert_eq!(a.code_lengths(), lengths);
        assert_eq!(a.lossless_size_bits(), HEADER_BITS + a.total_code_bits());
        assert_eq!(a.e2mc_size_bits(), a.lossless_size_bits());
    }

    #[test]
    fn e2mc_size_is_capped_at_the_block() {
        let a = BlockAnalysis::from_lengths([28; SYMBOLS_PER_BLOCK]);
        assert!(a.lossless_size_bits() > BLOCK_BITS);
        assert_eq!(a.e2mc_size_bits(), BLOCK_BITS);
    }

    #[test]
    #[should_panic(expected = "exceeds 255")]
    fn oversized_lengths_are_rejected() {
        BlockAnalysis::from_lengths([256; SYMBOLS_PER_BLOCK]);
    }

    #[test]
    fn tree_sums_match_a_scalar_rebuild() {
        let mut lengths = [0u32; SYMBOLS_PER_BLOCK];
        for (i, l) in lengths.iter_mut().enumerate() {
            *l = (i as u32 * 7 + 3) % 29;
        }
        let a = BlockAnalysis::from_lengths(lengths);
        let sums = a.tree_sums();
        // Level by level: node k of width w sums lengths[k*w..(k+1)*w].
        let (mut offset, mut width) = (0usize, 2usize);
        while width <= SYMBOLS_PER_BLOCK {
            for node in 0..SYMBOLS_PER_BLOCK / width {
                let want: u32 = lengths[node * width..(node + 1) * width].iter().sum();
                assert_eq!(u32::from(sums[offset + node]), want, "width {width} node {node}");
            }
            offset += SYMBOLS_PER_BLOCK / width;
            width *= 2;
        }
        assert_eq!(offset, TREE_SUM_NODES);
        assert_eq!(u32::from(sums[TREE_SUM_NODES - 1]), a.total_code_bits());
    }

    #[test]
    fn tree_sums_cannot_overflow_u16() {
        // The widest per-symbol encoding is 255 bits; the root is 64 × 255.
        let a = BlockAnalysis::from_lengths([255; SYMBOLS_PER_BLOCK]);
        assert_eq!(a.total_code_bits(), 255 * SYMBOLS_PER_BLOCK as u32);
        assert_eq!(u32::from(a.tree_sums()[TREE_SUM_NODES - 1]), 16320);
    }
}
