//! Online symbol-frequency sampling for E2MC.
//!
//! E2MC estimates symbol probabilities by sampling the application's memory
//! traffic (the paper uses an online sampling phase of 20 M instructions
//! and then freezes the code tables). This module is the software
//! equivalent: feed it blocks, then build a [`SymbolTable`](super::SymbolTable).

use crate::symbols::block_to_symbols;
use crate::Block;

/// Accumulates 16-bit symbol frequencies over sampled blocks.
#[derive(Clone)]
pub struct SymbolSampler {
    counts: Vec<u64>,
    blocks: u64,
    max_blocks: Option<u64>,
}

impl std::fmt::Debug for SymbolSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolSampler")
            .field("blocks", &self.blocks)
            .field("distinct_symbols", &self.distinct_symbols())
            .field("max_blocks", &self.max_blocks)
            .finish()
    }
}

impl Default for SymbolSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolSampler {
    /// Creates an unbounded sampler.
    pub fn new() -> Self {
        Self { counts: vec![0; 1 << 16], blocks: 0, max_blocks: None }
    }

    /// Creates a sampler that ignores blocks after the first `max_blocks`
    /// (the online-sampling cutoff).
    pub fn with_limit(max_blocks: u64) -> Self {
        Self { max_blocks: Some(max_blocks), ..Self::new() }
    }

    /// Records the 64 symbols of one block; returns `false` once the
    /// sampling window is exhausted.
    pub fn sample_block(&mut self, block: &Block) -> bool {
        if let Some(limit) = self.max_blocks {
            if self.blocks >= limit {
                return false;
            }
        }
        self.blocks += 1;
        for s in block_to_symbols(block) {
            self.counts[s as usize] += 1;
        }
        true
    }

    /// Records every block of a byte buffer (zero-padding the tail block).
    pub fn sample_bytes(&mut self, bytes: &[u8]) {
        for block in crate::symbols::blocks_of(bytes) {
            if !self.sample_block(&block) {
                break;
            }
        }
    }

    /// Number of blocks sampled so far.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Frequency of one symbol.
    pub fn count(&self, symbol: u16) -> u64 {
        self.counts[symbol as usize]
    }

    /// Number of distinct symbols observed.
    pub fn distinct_symbols(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// The `k` most frequent symbols, most frequent first; ties broken by
    /// symbol value for determinism.
    pub fn top_symbols(&self, k: usize) -> Vec<(u16, u64)> {
        // Sized once: collected from a filter, the list would grow by
        // doubling, through copies of up to 256 KiB.
        let mut live = Vec::with_capacity(self.distinct_symbols());
        live.extend(
            self.counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(s, &c)| (s as u16, c)),
        );
        live.sort_by_key(|&(s, c)| (std::cmp::Reverse(c), s));
        live.truncate(k);
        live
    }

    /// Total symbol occurrences recorded.
    pub fn total(&self) -> u64 {
        self.blocks * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BLOCK_BYTES;

    fn block_of_symbol(sym: u16) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for c in b.chunks_exact_mut(2) {
            c.copy_from_slice(&sym.to_le_bytes());
        }
        b
    }

    #[test]
    fn counts_accumulate() {
        let mut s = SymbolSampler::new();
        s.sample_block(&block_of_symbol(7));
        s.sample_block(&block_of_symbol(7));
        s.sample_block(&block_of_symbol(9));
        assert_eq!(s.count(7), 128);
        assert_eq!(s.count(9), 64);
        assert_eq!(s.blocks(), 3);
        assert_eq!(s.total(), 192);
        assert_eq!(s.distinct_symbols(), 2);
    }

    #[test]
    fn limit_stops_sampling() {
        let mut s = SymbolSampler::with_limit(1);
        assert!(s.sample_block(&block_of_symbol(1)));
        assert!(!s.sample_block(&block_of_symbol(2)));
        assert_eq!(s.count(2), 0);
        assert_eq!(s.blocks(), 1);
    }

    #[test]
    fn top_symbols_orders_by_frequency_then_value() {
        let mut s = SymbolSampler::new();
        s.sample_block(&block_of_symbol(5));
        s.sample_block(&block_of_symbol(3));
        let top = s.top_symbols(10);
        // Equal counts: smaller symbol first.
        assert_eq!(top, vec![(3, 64), (5, 64)]);
        assert_eq!(s.top_symbols(1).len(), 1);
    }

    #[test]
    fn sample_bytes_pads_tail() {
        let mut s = SymbolSampler::new();
        s.sample_bytes(&[0xff; 2]);
        assert_eq!(s.blocks(), 1);
        assert_eq!(s.count(0xffff), 1);
        assert_eq!(s.count(0), 63);
    }
}
