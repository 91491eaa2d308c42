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

/// `u64` words [`BlockAnalysis::tree_sums`] packs the Fig. 5 adder
/// tree's 63 sums above the leaf level into, four `u16` lanes a word.
pub const TREE_SUM_WORDS: usize = SYMBOLS_PER_BLOCK / 4;

/// One level of the adder tree on four `u16` lanes: the sums of lanes
/// 0 + 1 and 2 + 3, in lanes 0 and 1 (no sum of the tree passes 16 320,
/// so neither carries out of its lane).
fn add_adjacent(lanes: u64) -> u64 {
    const EVEN_LANES: u64 = 0x0000_ffff_0000_ffff;
    let sums = (lanes & EVEN_LANES) + ((lanes >> 16) & EVEN_LANES);
    (sums & 0xffff) | ((sums >> 16) & 0xffff_0000)
}

/// Per-symbol code lengths and their total for one analysed block.
///
/// Produced by [`E2mc::analyze`](super::E2mc::analyze) in a single pass
/// over the dense width table — the hardware's 64 length-ROM reads —
/// and carries **no payload**, only what every downstream decision
/// reads. All derived quantities (`slc-core`'s budget decision and tree
/// selection, burst counts, ratio accumulators) are deterministic
/// functions of this value, so computing it once per block and sharing
/// the artifact is bit-identical to re-deriving it at every consumer.
/// The adder tree's intermediate sums are *not* part of it: more than
/// half of all blocks never consult the tree, so
/// [`tree_sums`](Self::tree_sums) adds them up where a block does.
///
/// Lengths are stored as bytes (the widest encoding is the escape code
/// plus 16 raw bits, well under 256), keeping the artifact at 68 bytes so
/// snapshot-level caches of hundreds of thousands of analyses stay cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAnalysis {
    /// Encoded length of each of the 64 symbols in bits (escape symbols
    /// cost their escape codeword plus 16 raw bits).
    lengths: [u8; SYMBOLS_PER_BLOCK],
    /// Sum of `lengths` — the data portion of every framing's size.
    total_code_bits: u32,
}

impl BlockAnalysis {
    /// Builds an analysis from per-symbol widths in bits, as the dense
    /// width table stores them: the [`E2mc::analyze`](super::E2mc::analyze)
    /// path, and tests and tools that synthesise length patterns.
    pub fn from_widths(lengths: [u8; SYMBOLS_PER_BLOCK]) -> Self {
        let total_code_bits = lengths.iter().map(|&w| u32::from(w)).sum();
        Self { lengths, total_code_bits }
    }

    /// Replaces the widths of the symbols from `start` on with `widths`
    /// and adjusts the total — what is left to do for a block of which
    /// only those symbols were rewritten
    /// ([`E2mc::reanalyze`](super::E2mc::reanalyze)).
    pub(super) fn rewrite(&mut self, start: usize, widths: impl Iterator<Item = u8>) {
        for (old, new) in self.lengths[start..].iter_mut().zip(widths) {
            self.total_code_bits = self.total_code_bits - u32::from(*old) + u32::from(new);
            *old = new;
        }
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
    /// concatenated bottom-up — 32 pair sums, 16 sums of 4 symbols, 8 of
    /// 8, 4 of 16, 2 of 32, the 64-symbol root — packed as the adders
    /// produce them: node `i` of that order is `u16` lane `i % 4` of word
    /// `i / 4` (the lane past the root is zero), so levels 2 to 5 are
    /// whole words and a consumer compares four nodes at a time. Added up
    /// here, on demand, one mask-shift-add step per level.
    pub fn tree_sums(&self) -> [u64; TREE_SUM_WORDS] {
        const EVEN_BYTES: u64 = 0x00ff_00ff_00ff_00ff;
        const PAIR_WORDS: usize = SYMBOLS_PER_BLOCK / 8;
        let mut words = [0u64; TREE_SUM_WORDS];
        for (pairs, lengths) in words.iter_mut().zip(self.lengths.as_chunks::<8>().0) {
            let eight = u64::from_le_bytes(*lengths);
            *pairs = (eight & EVEN_BYTES) + ((eight >> 8) & EVEN_BYTES);
        }
        // Halving levels laid end to end: the nodes of word `w` are the
        // adjacent sums of words `2 (w - 8)` and `2 (w - 8) + 1`; the
        // last word is its own second child, still zero, and takes the
        // root from the two half-block sums it then holds.
        for w in PAIR_WORDS..TREE_SUM_WORDS {
            let below = 2 * (w - PAIR_WORDS);
            words[w] = add_adjacent(words[below]) | add_adjacent(words[below + 1]) << 32;
        }
        words[TREE_SUM_WORDS - 1] |= add_adjacent(words[TREE_SUM_WORDS - 1]) << 32;
        words
    }

    /// Sum of all code lengths (the tree's root, before any header).
    pub fn total_code_bits(&self) -> u32 {
        self.total_code_bits
    }

    /// Lossless compressed size under E2MC's framing: mode bit + pdps +
    /// code lengths.
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
    fn from_widths_sums_and_frames() {
        let mut lengths = [3u8; SYMBOLS_PER_BLOCK];
        lengths[0] = 19;
        let a = BlockAnalysis::from_widths(lengths);
        assert_eq!(a.total_code_bits(), 3 * 63 + 19);
        assert_eq!(a.code_lengths(), lengths.map(u32::from));
        assert_eq!(a.lossless_size_bits(), HEADER_BITS + a.total_code_bits());
        assert_eq!(a.e2mc_size_bits(), a.lossless_size_bits());
    }

    #[test]
    fn e2mc_size_is_capped_at_the_block() {
        let a = BlockAnalysis::from_widths([28; SYMBOLS_PER_BLOCK]);
        assert!(a.lossless_size_bits() > BLOCK_BITS);
        assert_eq!(a.e2mc_size_bits(), BLOCK_BITS);
    }

    /// Nodes of the tree above its leaves: 32 + 16 + 8 + 4 + 2 + 1.
    const TREE_SUM_NODES: usize = SYMBOLS_PER_BLOCK - 1;

    /// [`BlockAnalysis::tree_sums`], one node per element.
    fn unpacked(a: &BlockAnalysis) -> [u16; SYMBOLS_PER_BLOCK] {
        let words = a.tree_sums();
        std::array::from_fn(|i| (words[i / 4] >> (16 * (i % 4))) as u16)
    }

    #[test]
    fn tree_sums_match_a_scalar_rebuild() {
        let mut ramp = [0u8; SYMBOLS_PER_BLOCK];
        for (i, l) in ramp.iter_mut().enumerate() {
            *l = ((i * 7 + 3) % 29) as u8;
        }
        // All-255: every lane of the word-wide sums at its maximum, so a
        // carry into the neighbouring lane would show.
        for lengths in [ramp, [255; SYMBOLS_PER_BLOCK]] {
            let a = BlockAnalysis::from_widths(lengths);
            let sums = unpacked(&a);
            assert_eq!(sums[TREE_SUM_NODES], 0, "the lane past the root");
            // Level by level: node k of width w sums lengths[k*w..(k+1)*w].
            let (mut offset, mut width) = (0usize, 2usize);
            while width <= SYMBOLS_PER_BLOCK {
                for node in 0..SYMBOLS_PER_BLOCK / width {
                    let want: u32 = lengths[node * width..(node + 1) * width]
                        .iter()
                        .map(|&l| u32::from(l))
                        .sum();
                    assert_eq!(u32::from(sums[offset + node]), want, "width {width} node {node}");
                }
                offset += SYMBOLS_PER_BLOCK / width;
                width *= 2;
            }
            assert_eq!(offset, TREE_SUM_NODES);
            assert_eq!(u32::from(sums[TREE_SUM_NODES - 1]), a.total_code_bits());
        }
    }

    #[test]
    fn tree_sums_cannot_overflow_u16() {
        // The widest per-symbol encoding is 255 bits; the root is 64 × 255.
        let a = BlockAnalysis::from_widths([255; SYMBOLS_PER_BLOCK]);
        assert_eq!(a.total_code_bits(), 255 * SYMBOLS_PER_BLOCK as u32);
        assert_eq!(u32::from(unpacked(&a)[TREE_SUM_NODES - 1]), 16320);
    }

    #[test]
    fn the_artifact_is_68_bytes() {
        // Lengths and their sum, nothing else: what the docs, ROADMAP and
        // `slc-workloads`' snapshot entry size quote.
        assert_eq!(std::mem::size_of::<BlockAnalysis>(), 68);
    }

    #[test]
    fn rewriting_a_run_of_widths_keeps_the_total() {
        let mut a = BlockAnalysis::from_widths([9; SYMBOLS_PER_BLOCK]);
        a.rewrite(60, [0u8, 255, 17, 3].into_iter());
        let mut want = [9u8; SYMBOLS_PER_BLOCK];
        want[60..].copy_from_slice(&[0, 255, 17, 3]);
        assert_eq!(a, BlockAnalysis::from_widths(want));
    }
}
