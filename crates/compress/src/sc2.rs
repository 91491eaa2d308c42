//! SC2: statistical cache compression (Huffman over 32-bit words).
//!
//! Arelakis & Stenström, ISCA 2014. The SLC paper argues (Section II-A)
//! that SC2 "is similar to E2MC because both are based on Huffman
//! encoding ... Therefore, SC2 will suffer due to MAG". This
//! implementation — per-application value-frequency tables over 32-bit
//! words with an escape code — lets the claim be checked quantitatively
//! (see the extended Fig. 1 output).

use crate::bitstream::{BitReader, BitWriter};
use crate::e2mc::{CanonicalCode, MAX_CODE_LEN};
use crate::symbols::{block_to_words, words_to_block, WORDS_PER_BLOCK};
use crate::{load_verbatim, store_verbatim, Block, BlockCompressor, DecodeError, BLOCK_BITS};
use std::collections::HashMap;

/// Number of most-frequent words granted Huffman codes.
pub const DEFAULT_TOP_K: usize = 1023;

/// The SC2 block compressor with a trained word-frequency table.
#[derive(Debug, Clone)]
pub struct Sc2 {
    /// Entry index -> word value.
    words: Vec<u32>,
    /// Word value -> entry index.
    lookup: HashMap<u32, u32>,
    code: CanonicalCode,
    escape_entry: usize,
}

impl Sc2 {
    /// Trains a table on sampled bytes (value-frequency profiling).
    pub fn train_on_bytes(bytes: &[u8], top_k: usize) -> Self {
        let mut counts: HashMap<u32, u64> = HashMap::new();
        let mut total = 0u64;
        for block in crate::symbols::blocks_of(bytes) {
            for w in block_to_words(&block) {
                *counts.entry(w).or_insert(0) += 1;
                total += 1;
            }
        }
        let mut live: Vec<(u32, u64)> = counts.into_iter().collect();
        live.sort_by_key(|&(w, c)| (std::cmp::Reverse(c), w));
        live.truncate(top_k);
        let covered: u64 = live.iter().map(|&(_, c)| c).sum();
        let mut freqs: Vec<u64> = live.iter().map(|&(_, c)| c).collect();
        freqs.push((total - covered).max(1)); // escape
        let code = CanonicalCode::from_frequencies(&freqs, MAX_CODE_LEN);
        let words: Vec<u32> = live.iter().map(|&(w, _)| w).collect();
        let lookup = words.iter().enumerate().map(|(i, &w)| (w, i as u32)).collect();
        Self { escape_entry: words.len(), words, lookup, code }
    }

    fn word_bits(&self, w: u32) -> u32 {
        match self.lookup.get(&w) {
            Some(&e) => self.code.length(e as usize),
            None => self.code.length(self.escape_entry) + 32,
        }
    }
}

impl BlockCompressor for Sc2 {
    fn name(&self) -> &'static str {
        "sc2"
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        if self.size_bits(block) >= BLOCK_BITS {
            return store_verbatim(block, out);
        }
        let mut wtr = BitWriter::new(out);
        for w in block_to_words(block) {
            match self.lookup.get(&w) {
                Some(&e) => {
                    wtr.write(self.code.code(e as usize) as u64, self.code.length(e as usize));
                }
                None => {
                    let e = self.escape_entry;
                    wtr.write(self.code.code(e) as u64, self.code.length(e));
                    wtr.write(u64::from(w), 32);
                }
            }
        }
        wtr.finish_block(block)
    }

    fn decompress_into(
        &self,
        size_bits: u32,
        compressed: bool,
        payload: &[u8],
        out: &mut Block,
    ) -> Result<(), DecodeError> {
        if !compressed {
            return load_verbatim(payload, out);
        }
        let mut r = BitReader::new(payload, size_bits);
        let mut words = [0u32; WORDS_PER_BLOCK];
        for w in words.iter_mut() {
            let window = r.peek_padded(MAX_CODE_LEN) as u32;
            let (entry, len) = self.code.decode(window).ok_or(DecodeError::NoCodeword)?;
            r.skip(len);
            *w = if entry as usize == self.escape_entry {
                r.read(32) as u32
            } else {
                self.words[entry as usize]
            };
        }
        *out = words_to_block(&words);
        r.check()
    }

    fn size_bits(&self, block: &Block) -> u32 {
        let bits: u32 = block_to_words(block).iter().map(|&w| self.word_bits(w)).sum();
        bits.min(BLOCK_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BLOCK_BYTES;
    use proptest::prelude::*;

    fn training() -> Vec<u8> {
        (0..1u32 << 14).flat_map(|i| ((i % 300) * 7).to_le_bytes()).collect()
    }

    fn block_from(f: impl Fn(usize) -> u32) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..WORDS_PER_BLOCK {
            b[i * 4..i * 4 + 4].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    }

    #[test]
    fn in_distribution_words_compress() {
        let sc2 = Sc2::train_on_bytes(&training(), DEFAULT_TOP_K);
        let block = block_from(|i| (i as u32 % 300) * 7);
        let c = sc2.compress(&block);
        assert!(c.size_bits() < BLOCK_BITS / 2, "got {}", c.size_bits());
        assert_eq!(sc2.decompress(&c), block);
    }

    #[test]
    fn escapes_roundtrip() {
        let sc2 = Sc2::train_on_bytes(&training(), DEFAULT_TOP_K);
        let block = block_from(|i| if i % 2 == 0 { 7 } else { 0xdead_0000 + i as u32 });
        let c = sc2.compress(&block);
        assert_eq!(sc2.decompress(&c), block);
    }

    #[test]
    fn out_of_distribution_stays_verbatim() {
        let sc2 = Sc2::train_on_bytes(&training(), DEFAULT_TOP_K);
        let block = block_from(|i| 0x8000_0000 | (i as u32).wrapping_mul(2654435761));
        let c = sc2.compress(&block);
        assert_eq!(c.size_bits(), BLOCK_BITS);
        assert_eq!(sc2.decompress(&c), block);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_roundtrip(words in proptest::collection::vec(0u32..2100, WORDS_PER_BLOCK)) {
            let sc2 = Sc2::train_on_bytes(&training(), DEFAULT_TOP_K);
            let mut block = [0u8; BLOCK_BYTES];
            for (i, w) in words.iter().enumerate() {
                block[i*4..i*4+4].copy_from_slice(&w.to_le_bytes());
            }
            prop_assert_eq!(sc2.decompress(&sc2.compress(&block)), block);
            prop_assert!(sc2.size_bits(&block) <= BLOCK_BITS);
        }
    }
}
