//! C-PACK (Cache Packer) compression.
//!
//! Chen et al., "C-Pack: A High-Performance Microprocessor Cache Compression
//! Algorithm", IEEE TVLSI 2010 — third baseline of the SLC paper's Figure 1.
//!
//! C-PACK combines static patterns for frequent words with a small FIFO
//! dictionary of recently seen words. Every 32-bit word emits one of six
//! codes; words that do not fully match the dictionary are pushed into it,
//! and the decompressor reconstructs the same dictionary as it decodes, so
//! no dictionary bits travel with the block.

use crate::bitstream::{BitReader, BitWriter};
use crate::symbols::{block_to_words, words_to_block, WORDS_PER_BLOCK};
use crate::{load_verbatim, Block, BlockCompressor, CodecId, DecodeError};

/// Number of dictionary entries (4-bit index as in the original design).
pub const DICT_ENTRIES: usize = 16;

/// C-PACK word codes and their total encoded sizes in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpackCode {
    /// `00`: zero word (2 bits).
    Zzzz,
    /// `01` + 32 raw bits: no pattern matched (34 bits). Pushed to dict.
    Xxxx,
    /// `10` + 4-bit index: full dictionary match (6 bits).
    Mmmm,
    /// `1100` + 4-bit index + 16 raw bits: upper halfword matches a
    /// dictionary entry (24 bits). Pushed to dict.
    Mmxx,
    /// `1101` + 8 raw bits: three zero bytes, one literal low byte (12 bits).
    Zzzx,
    /// `1110` + 4-bit index + 8 raw bits: upper three bytes match a
    /// dictionary entry (16 bits). Pushed to dict.
    Mmmx,
}

impl CpackCode {
    /// Encoded size (prefix + index + literal bits).
    pub fn size_bits(self) -> u32 {
        match self {
            CpackCode::Zzzz => 2,
            CpackCode::Xxxx => 34,
            CpackCode::Mmmm => 6,
            CpackCode::Mmxx => 24,
            CpackCode::Zzzx => 12,
            CpackCode::Mmmx => 16,
        }
    }
}

/// FIFO dictionary shared (by construction) by compressor and decompressor.
/// Fixed-size storage: building one costs no allocation per block.
#[derive(Debug, Clone)]
struct Dictionary {
    entries: [u32; DICT_ENTRIES],
    next: usize,
}

impl Dictionary {
    fn new() -> Self {
        Self { entries: [0; DICT_ENTRIES], next: 0 }
    }

    fn push(&mut self, word: u32) {
        self.entries[self.next] = word;
        self.next = (self.next + 1) % DICT_ENTRIES;
    }

    /// Compares `word` against *all* 16 entries in one branchless pass,
    /// returning `(full, upper3, upper2)` match bitmaps (bit `i` set =
    /// entry `i` matches at that granularity). The hardware probes every
    /// dictionary entry in parallel; this is the software equivalent,
    /// replacing three early-exit scans whose worst case (the common
    /// no-match word) walked the whole FIFO three times. Each entry is
    /// loaded once and compared at all three granularities, so a partial
    /// hit costs no second pass.
    ///
    /// `bitmap.trailing_zeros()` recovers the lowest matching index, which
    /// is exactly what the sequential `position` probe returned.
    ///
    /// This SSE2 body, the workspace's one `unsafe` block, stays because
    /// it is measured faster than the portable one below. Encoding 32 Ki
    /// mixed blocks on a two-core Xeon, ten alternating pairs of runs,
    /// took a median 332 ns/block with it against 579 ns/block with the
    /// portable body. The portable body was faster in 0 of 10 pairs, and
    /// both wrote identical bytes.
    #[cfg(target_arch = "x86_64")]
    fn match_masks(&self, word: u32) -> (u32, u32, u32) {
        // Four 4-lane load/compare/movemask rounds (SSE2 is part of the
        // x86-64 baseline, so no runtime feature detection). A whole-FIFO
        // probe at every granularity costs about what one early-exit hit
        // at index 0 cost the scalar scan.
        use std::arch::x86_64::{
            __m128i, _mm_and_si128, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128,
            _mm_movemask_ps, _mm_set1_epi32,
        };
        // SAFETY: SSE2 is unconditionally available on x86_64, and the
        // unaligned loads stay inside `entries` (4 lanes x 4 chunks = 16).
        unsafe {
            let w_full = _mm_set1_epi32(word as i32);
            let w_u3 = _mm_set1_epi32((word & 0xffff_ff00) as i32);
            let w_u2 = _mm_set1_epi32((word & 0xffff_0000) as i32);
            let m3 = _mm_set1_epi32(0xffff_ff00u32 as i32);
            let m2 = _mm_set1_epi32(0xffff_0000u32 as i32);
            let mut full = 0u32;
            let mut upper3 = 0u32;
            let mut upper2 = 0u32;
            for i in 0..DICT_ENTRIES / 4 {
                let e = _mm_loadu_si128(self.entries.as_ptr().add(4 * i).cast::<__m128i>());
                let f = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(e, w_full))) as u32;
                let a =
                    _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(_mm_and_si128(e, m3), w_u3)))
                        as u32;
                let b =
                    _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(_mm_and_si128(e, m2), w_u2)))
                        as u32;
                full |= f << (4 * i);
                upper3 |= a << (4 * i);
                upper2 |= b << (4 * i);
            }
            (full, upper3, upper2)
        }
    }

    /// Portable fallback of [`match_masks`](Self::match_masks)
    /// (identical bitmaps).
    #[cfg(not(target_arch = "x86_64"))]
    fn match_masks(&self, word: u32) -> (u32, u32, u32) {
        let mut full = 0u32;
        let mut upper3 = 0u32;
        let mut upper2 = 0u32;
        for (i, &e) in self.entries.iter().enumerate() {
            let x = e ^ word;
            full |= u32::from(x == 0) << i;
            upper3 |= u32::from(x & 0xffff_ff00 == 0) << i;
            upper2 |= u32::from(x & 0xffff_0000 == 0) << i;
        }
        (full, upper3, upper2)
    }
}

/// The C-PACK block compressor.
///
/// ```
/// use slc_compress::{BlockCompressor, cpack::Cpack};
///
/// let cpack = Cpack::new();
/// // A block repeating one word: first word is a miss, the rest are
/// // 6-bit full dictionary matches.
/// let mut block = [0u8; 128];
/// for c in block.chunks_exact_mut(4) {
///     c.copy_from_slice(&0xCAFE_F00Du32.to_le_bytes());
/// }
/// let (mut payload, mut out) = (Vec::new(), [0u8; 128]);
/// let (bits, coded) = cpack.compress_into(&block, &mut payload);
/// assert_eq!((bits, coded), (34 + 31 * 6, true));
/// cpack.decompress_into(bits, coded, &payload, &mut out).unwrap();
/// assert_eq!(out, block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpack {
    _private: (),
}

impl Cpack {
    /// Creates a C-PACK codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies `word` and forms its complete wire token in one cascade:
    /// `(bits, width, push)` where `bits`/`width` are the fused
    /// prefix+index+literal encoding ready for a single writer `write`
    /// and `push` says whether the decoder will push the word into its
    /// FIFO. Widths are unique per code, so they double as the code
    /// identity (see [`CpackCode::size_bits`]).
    fn token(dict: &Dictionary, word: u32) -> (u64, u32, bool) {
        if word == 0 {
            return (0b00, 2, false);
        }
        if word & 0xffff_ff00 == 0 {
            // The original priority checks the full dictionary match
            // before ZZZX, but the dictionary provably never holds a value
            // in 1..=0xff (entries are 0 initially, and every pushed word
            // already failed this check, so it is >= 0x100) — a ZZZX word
            // cannot full-match, and skipping the probe is exact.
            return ((0b1101 << 8) | word as u64, 12, false);
        }
        // One whole-FIFO probe yields every granularity's bitmap; the
        // priority cascade below only inspects bitmaps.
        let (full, upper3, upper2) = dict.match_masks(word);
        if full != 0 {
            let idx = full.trailing_zeros() as u64;
            return ((0b10 << 4) | idx, 6, false);
        }
        if upper3 != 0 {
            let idx = upper3.trailing_zeros() as u64;
            ((0b1110 << 12) | (idx << 8) | (word & 0xff) as u64, 16, true)
        } else if upper2 != 0 {
            let idx = upper2.trailing_zeros() as u64;
            ((0b1100 << 20) | (idx << 16) | (word & 0xffff) as u64, 24, true)
        } else {
            ((0b01 << 32) | word as u64, 34, true)
        }
    }
}

impl BlockCompressor for Cpack {
    fn id(&self) -> CodecId {
        CodecId::Cpack
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        let words = block_to_words(block);
        let mut dict = Dictionary::new();
        let mut w = BitWriter::new(out);
        for &word in &words {
            // Prefix, index and literal bits fuse into one write per word
            // (bit-identical to the field-by-field layout); the token
            // cascade already resolved which code won.
            let (bits, width, push) = Self::token(&dict, word);
            w.write(bits, width);
            if push {
                dict.push(word);
            }
        }
        w.finish_block(block)
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
        let mut dict = Dictionary::new();
        let mut words = [0u32; WORDS_PER_BLOCK];
        for slot in words.iter_mut() {
            // One 34-bit peek covers the widest token, so prefix, index and
            // literal all come from the same window; a single skip then
            // consumes the token.
            let tok = r.peek_padded(34);
            let word = match (tok >> 32) as u32 {
                0b00 => {
                    r.skip(2);
                    0
                }
                0b01 => {
                    r.skip(34);
                    let w = tok as u32;
                    dict.push(w);
                    w
                }
                0b10 => {
                    r.skip(6);
                    dict.entries[(tok >> 28) as usize & 0xf]
                }
                _ => match (tok >> 30) as u32 & 0b11 {
                    0b00 => {
                        r.skip(24);
                        let idx = (tok >> 26) as usize & 0xf;
                        let w = (dict.entries[idx] & 0xffff_0000) | ((tok >> 10) as u32 & 0xffff);
                        dict.push(w);
                        w
                    }
                    0b01 => {
                        r.skip(12);
                        (tok >> 22) as u32 & 0xff
                    }
                    0b10 => {
                        r.skip(16);
                        let idx = (tok >> 26) as usize & 0xf;
                        let w = (dict.entries[idx] & 0xffff_ff00) | ((tok >> 18) as u32 & 0xff);
                        dict.push(w);
                        w
                    }
                    // Prefix 1111 is the code space's one unassigned leaf.
                    _ => return Err(DecodeError::UnknownTag),
                },
            };
            *slot = word;
        }
        *out = words_to_block(&words);
        r.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{decode, encode, roundtrip};
    use crate::{BLOCK_BITS, BLOCK_BYTES};
    use proptest::prelude::*;

    fn block_from_u32s(f: impl Fn(usize) -> u32) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..WORDS_PER_BLOCK {
            b[i * 4..i * 4 + 4].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    }

    #[test]
    fn zero_block_is_two_bits_per_word() {
        let cpack = Cpack::new();
        let (bits, coded, payload) = encode(&cpack, &[0u8; BLOCK_BYTES]);
        assert_eq!(bits, 2 * WORDS_PER_BLOCK as u32);
        assert_eq!(decode(&cpack, bits, coded, &payload), [0u8; BLOCK_BYTES]);
    }

    #[test]
    fn partial_matches_share_upper_bytes() {
        let cpack = Cpack::new();
        // Same upper 3 bytes, differing low byte: one miss then mmmx codes.
        let block = block_from_u32s(|i| 0x1234_5600 | i as u32);
        let (bits, coded, payload) = encode(&cpack, &block);
        assert_eq!(bits, 34 + 31 * 16);
        assert_eq!(decode(&cpack, bits, coded, &payload), block);
    }

    #[test]
    fn small_bytes_use_zzzx() {
        let cpack = Cpack::new();
        let block = block_from_u32s(|i| (i as u32 % 255) + 1);
        let (bits, coded, payload) = encode(&cpack, &block);
        assert_eq!(decode(&cpack, bits, coded, &payload), block);
        assert_eq!(bits, 32 * 12);
    }

    #[test]
    fn dictionary_is_fifo() {
        let cpack = Cpack::new();
        // 17 distinct upper-halves fill the 16-entry FIFO and evict the
        // first; re-encountering word 0's upper half is then a miss.
        let block = block_from_u32s(|i| {
            let base = (i as u32 % 17) << 16;
            base | 0x00ff
        });
        assert_eq!(roundtrip(&cpack, &block), block);
    }

    #[test]
    fn incompressible_falls_back() {
        let cpack = Cpack::new();
        let mut block = [0u8; BLOCK_BYTES];
        let mut state = 7u64;
        for b in block.iter_mut() {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            *b = (state >> 40) as u8;
        }
        let (bits, coded, payload) = encode(&cpack, &block);
        assert_eq!(decode(&cpack, bits, coded, &payload), block);
        // All-miss blocks cost 34 bits/word > 32: stored raw.
        assert_eq!(bits, BLOCK_BITS);
    }

    #[test]
    fn code_sizes_match_paper_table() {
        assert_eq!(CpackCode::Zzzz.size_bits(), 2);
        assert_eq!(CpackCode::Xxxx.size_bits(), 34);
        assert_eq!(CpackCode::Mmmm.size_bits(), 6);
        assert_eq!(CpackCode::Mmxx.size_bits(), 24);
        assert_eq!(CpackCode::Zzzx.size_bits(), 12);
        assert_eq!(CpackCode::Mmmx.size_bits(), 16);
    }

    proptest! {
        #[test]
        fn prop_bitmap_probe_matches_sequential_scan(
            entries in proptest::collection::vec(any::<u32>(), DICT_ENTRIES),
            word in any::<u32>(),
        ) {
            // The bulk (SIMD on x86-64) probe must agree bit-for-bit with
            // the reference per-entry scan at every granularity.
            let mut d = Dictionary::new();
            d.entries.copy_from_slice(&entries);
            let (full, upper3, upper2) = d.match_masks(word);
            let mut rf = 0u32;
            let mut r3 = 0u32;
            let mut r2 = 0u32;
            for (i, &e) in entries.iter().enumerate() {
                rf |= u32::from(e == word) << i;
                r3 |= u32::from(e >> 8 == word >> 8) << i;
                r2 |= u32::from(e >> 16 == word >> 16) << i;
            }
            prop_assert_eq!(full, rf);
            prop_assert_eq!(upper3, r3);
            prop_assert_eq!(upper2, r2);
            // trailing_zeros reproduces the sequential `position` probe.
            prop_assert_eq!(
                (full != 0).then(|| full.trailing_zeros() as usize),
                entries.iter().position(|&e| e == word)
            );
        }

        #[test]
        fn prop_roundtrip_random(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let cpack = Cpack::new();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert_eq!(roundtrip(&cpack, &block), block);
        }

        #[test]
        fn prop_roundtrip_clustered(bases in proptest::collection::vec(any::<u32>(), 1..4),
                                    picks in proptest::collection::vec((0usize..4, any::<u8>()), WORDS_PER_BLOCK)) {
            // Words drawn from a few clusters exercise every dict path.
            let cpack = Cpack::new();
            let mut block = [0u8; BLOCK_BYTES];
            for (i, &(which, low)) in picks.iter().enumerate() {
                let base = bases[which % bases.len()];
                let w = (base & 0xffff_ff00) | low as u32;
                block[i*4..i*4+4].copy_from_slice(&w.to_le_bytes());
            }
            prop_assert_eq!(roundtrip(&cpack, &block), block);
        }
    }
}
