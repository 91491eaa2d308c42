//! Frequent Pattern Compression (FPC).
//!
//! Alameldeen & Wood, "Frequent Pattern Compression: A Significance-Based
//! Compression Scheme for L2 Caches", UW-Madison TR, 2004 — second baseline
//! of the SLC paper's Figure 1.
//!
//! Each 32-bit word is encoded as a 3-bit prefix plus variable-length data;
//! runs of zero words collapse into a single prefix with a 3-bit run length.

use crate::bitstream::{BitReader, BitWriter};
use crate::symbols::{block_to_words, words_to_block, WORDS_PER_BLOCK};
use crate::{load_verbatim, Block, BlockCompressor, CodecId, DecodeError};

/// FPC word patterns with their 3-bit prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpcPattern {
    /// `000`: run of 1–8 zero words (3-bit run length stored).
    ZeroRun,
    /// `001`: 4-bit sign-extended.
    Se4,
    /// `010`: 8-bit sign-extended.
    Se8,
    /// `011`: 16-bit sign-extended.
    Se16,
    /// `100`: upper 16 bits significant, lower halfword zero.
    PaddedHalf,
    /// `101`: two halfwords, each a sign-extended byte.
    TwoSeBytes,
    /// `110`: four identical bytes.
    RepeatedBytes,
    /// `111`: uncompressed 32-bit word.
    Raw,
}

impl FpcPattern {
    /// The 3-bit wire prefix.
    pub fn prefix(self) -> u8 {
        match self {
            FpcPattern::ZeroRun => 0b000,
            FpcPattern::Se4 => 0b001,
            FpcPattern::Se8 => 0b010,
            FpcPattern::Se16 => 0b011,
            FpcPattern::PaddedHalf => 0b100,
            FpcPattern::TwoSeBytes => 0b101,
            FpcPattern::RepeatedBytes => 0b110,
            FpcPattern::Raw => 0b111,
        }
    }

    /// Payload bits following the prefix.
    pub fn data_bits(self) -> u32 {
        match self {
            FpcPattern::ZeroRun => 3,
            FpcPattern::Se4 => 4,
            FpcPattern::Se8 => 8,
            FpcPattern::Se16 => 16,
            FpcPattern::PaddedHalf => 16,
            FpcPattern::TwoSeBytes => 16,
            FpcPattern::RepeatedBytes => 8,
            FpcPattern::Raw => 32,
        }
    }
}

fn fits_se(word: u32, bits: u32) -> bool {
    let v = word as i32;
    let min = -(1i32 << (bits - 1));
    let max = (1i32 << (bits - 1)) - 1;
    (min..=max).contains(&v)
}

/// Classifies a single word outside a zero run, returning its pattern
/// and the payload bits that follow the prefix on the wire (the low
/// [`data_bits`](FpcPattern::data_bits) of the value).
pub fn classify_word(word: u32) -> (FpcPattern, u64) {
    let word64 = u64::from(word);
    if fits_se(word, 4) {
        (FpcPattern::Se4, word64 & 0xf)
    } else if fits_se(word, 8) {
        (FpcPattern::Se8, word64 & 0xff)
    } else if fits_se(word, 16) {
        (FpcPattern::Se16, word64 & 0xffff)
    } else if word & 0xffff == 0 {
        (FpcPattern::PaddedHalf, word64 >> 16)
    } else if halfwords_are_se_bytes(word) {
        (FpcPattern::TwoSeBytes, ((word64 >> 16) & 0xff) << 8 | (word64 & 0xff))
    } else if repeated_bytes(word) {
        (FpcPattern::RepeatedBytes, word64 & 0xff)
    } else {
        (FpcPattern::Raw, word64)
    }
}

fn halfwords_are_se_bytes(word: u32) -> bool {
    let lo = (word & 0xffff) as u16;
    let hi = (word >> 16) as u16;
    let se = |h: u16| {
        let v = h as i16;
        (-128..=127).contains(&v)
    };
    se(lo) && se(hi)
}

fn repeated_bytes(word: u32) -> bool {
    let b = word & 0xff;
    word == b * 0x0101_0101
}

/// The FPC block compressor.
///
/// ```
/// use slc_compress::{BlockCompressor, fpc::Fpc};
///
/// let fpc = Fpc::new();
/// let block = [0u8; 128]; // 32 zero words -> 4 zero-run tokens
/// let (mut payload, mut out) = (Vec::new(), [0u8; 128]);
/// let (bits, coded) = fpc.compress_into(&block, &mut payload);
/// assert_eq!((bits, coded), (4 * 6, true));
/// fpc.decompress_into(bits, coded, &payload, &mut out).unwrap();
/// assert_eq!(out, block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpc {
    _private: (),
}

impl Fpc {
    /// Creates an FPC codec.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlockCompressor for Fpc {
    fn id(&self) -> CodecId {
        CodecId::Fpc
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        let words = block_to_words(block);
        let mut w = BitWriter::new(out);
        let mut i = 0;
        while i < WORDS_PER_BLOCK {
            let word = words[i];
            if word == 0 {
                let mut run = 1usize;
                while i + run < WORDS_PER_BLOCK && words[i + run] == 0 && run < 8 {
                    run += 1;
                }
                // Prefix and run length fused into one 6-bit write.
                w.write(((FpcPattern::ZeroRun.prefix() as u64) << 3) | (run as u64 - 1), 6);
                i += run;
                continue;
            }
            let (p, data) = classify_word(word);
            // One write per token: 3-bit prefix immediately followed by the
            // payload (bit-identical to writing them separately).
            let bits = p.data_bits();
            w.write(((p.prefix() as u64) << bits) | data, 3 + bits);
            i += 1;
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
        let mut words = [0u32; WORDS_PER_BLOCK];
        let mut i = 0;
        while i < WORDS_PER_BLOCK {
            // One 35-bit peek covers the widest token (prefix + 32 raw
            // bits): prefix and payload come from the same window, then a
            // single skip consumes the token.
            let tok = r.peek_padded(35);
            let prefix = (tok >> 32) as u8;
            let payload = |bits: u32| ((tok >> (32 - bits)) & ((1u64 << bits) - 1)) as u32;
            match prefix {
                0b000 => {
                    let run = payload(3) as usize + 1;
                    r.skip(6);
                    i += run; // words are pre-zeroed
                    continue;
                }
                0b001 => {
                    words[i] = sign_extend32(payload(4), 4);
                    r.skip(7);
                }
                0b010 => {
                    words[i] = sign_extend32(payload(8), 8);
                    r.skip(11);
                }
                0b011 => {
                    words[i] = sign_extend32(payload(16), 16);
                    r.skip(19);
                }
                0b100 => {
                    words[i] = payload(16) << 16;
                    r.skip(19);
                }
                0b101 => {
                    let data = payload(16);
                    let hi = sign_extend32(data >> 8, 8) & 0xffff;
                    let lo = sign_extend32(data & 0xff, 8) & 0xffff;
                    words[i] = (hi << 16) | lo;
                    r.skip(19);
                }
                0b110 => {
                    words[i] = payload(8) * 0x0101_0101;
                    r.skip(11);
                }
                0b111 => {
                    words[i] = payload(32);
                    r.skip(35);
                }
                // A 3-bit prefix has no ninth value.
                _ => return Err(DecodeError::UnknownTag),
            }
            i += 1;
        }
        *out = words_to_block(&words);
        r.check()
    }
}

fn sign_extend32(v: u32, bits: u32) -> u32 {
    let shift = 32 - bits;
    (((v << shift) as i32) >> shift) as u32
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
    fn zero_block_collapses_to_runs() {
        let fpc = Fpc::new();
        let (bits, coded, payload) = encode(&fpc, &[0u8; BLOCK_BYTES]);
        // 32 zero words = 4 runs of 8, each 6 bits.
        assert_eq!(bits, 24);
        assert_eq!(decode(&fpc, bits, coded, &payload), [0u8; BLOCK_BYTES]);
    }

    #[test]
    fn classification_matches_patterns() {
        let cases = [
            (0x0000_0003, FpcPattern::Se4, 0x3),
            (0xffff_fffc, FpcPattern::Se4, 0xc), // -4
            (0x0000_007f, FpcPattern::Se8, 0x7f),
            (0x0000_7fff, FpcPattern::Se16, 0x7fff),
            (0xabcd_0000, FpcPattern::PaddedHalf, 0xabcd),
            (0x0011_0022, FpcPattern::TwoSeBytes, 0x1122),
            (0x5a5a_5a5a, FpcPattern::RepeatedBytes, 0x5a),
            (0x1234_5678, FpcPattern::Raw, 0x1234_5678),
        ];
        for (word, pattern, payload) in cases {
            assert_eq!(classify_word(word), (pattern, payload), "{word:#010x}");
        }
    }

    #[test]
    fn negative_halfwords_roundtrip() {
        let fpc = Fpc::new();
        // halfwords 0xffe0 (-32) and 0x0010 (16): TwoSeBytes territory.
        let block = block_from_u32s(|_| 0xffe0_0010);
        assert_eq!(classify_word(0xffe0_0010), (FpcPattern::TwoSeBytes, 0xe010));
        assert_eq!(roundtrip(&fpc, &block), block);
    }

    #[test]
    fn small_integers_compress_well() {
        let fpc = Fpc::new();
        let block = block_from_u32s(|i| i as u32 % 8);
        let (bits, coded, payload) = encode(&fpc, &block);
        // Mixture of zero-runs and 4-bit tokens: far below 1024 bits.
        assert!(bits < 300, "got {bits}");
        assert_eq!(decode(&fpc, bits, coded, &payload), block);
    }

    #[test]
    fn incompressible_falls_back_to_raw_block() {
        let fpc = Fpc::new();
        let mut block = [0u8; BLOCK_BYTES];
        let mut state = 99u64;
        for b in block.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        let (bits, coded, payload) = encode(&fpc, &block);
        // 32 raw words would cost 32*35 = 1120 > 1024 bits.
        assert_eq!(bits, BLOCK_BITS);
        assert_eq!(decode(&fpc, bits, coded, &payload), block);
    }

    #[test]
    fn zero_run_splits_at_eight() {
        let fpc = Fpc::new();
        // 9 zero words then data: run(8) + run(1) + tokens.
        let block = block_from_u32s(|i| if i < 9 { 0 } else { 0x1234_5678 });
        let (bits, coded, payload) = encode(&fpc, &block);
        assert_eq!(decode(&fpc, bits, coded, &payload), block);
        assert_eq!(bits, 6 + 6 + 23 * 35);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_random(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let fpc = Fpc::new();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert_eq!(roundtrip(&fpc, &block), block);
        }

        #[test]
        fn prop_roundtrip_patterned(words in proptest::collection::vec(
            prop_oneof![
                Just(0u32),
                (0u32..16).prop_map(|v| v.wrapping_sub(8)),
                any::<u8>().prop_map(|b| b as u32 * 0x0101_0101),
                any::<u16>().prop_map(|h| (h as u32) << 16),
                any::<u32>(),
            ], WORDS_PER_BLOCK)) {
            let fpc = Fpc::new();
            let mut block = [0u8; BLOCK_BYTES];
            for (i, w) in words.iter().enumerate() {
                block[i*4..i*4+4].copy_from_slice(&w.to_le_bytes());
            }
            prop_assert_eq!(roundtrip(&fpc, &block), block);
        }

        #[test]
        fn prop_size_bounded(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let fpc = Fpc::new();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert!(fpc.size_bits(&block) <= BLOCK_BITS);
        }
    }
}
