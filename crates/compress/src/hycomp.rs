//! HyComp and FP-H: data-type-aware hybrid compression.
//!
//! Arelakis, Dahlgren & Stenström, MICRO 2015. HyComp predicts a block's
//! data type and dispatches to a type-specific method; FP-H is its
//! floating-point path, which "divides a floating-point number into three
//! fields and then employs SC2" on each. The SLC paper argues (Section
//! II-A) that both inherit MAG sensitivity from their constituent
//! methods; these implementations make the claim measurable.

use crate::bdi::Bdi;
use crate::bitstream::{BitReader, BitWriter};
use crate::e2mc::{CanonicalCode, MAX_CODE_LEN};
use crate::sc2::Sc2;
use crate::symbols::{block_to_words, words_to_block, WORDS_PER_BLOCK};
use crate::{
    load_verbatim, store_verbatim, Block, BlockCompressor, DecodeError, BLOCK_BITS, BLOCK_BYTES,
};

/// One Huffman-coded field of an `f32` word (FP-H splits words into
/// sign+exponent / mantissa-high / mantissa-low).
#[derive(Debug, Clone)]
struct FieldCode {
    code: CanonicalCode,
    bits: u32,
    shift: u32,
}

impl FieldCode {
    fn train(words: &[u32], bits: u32, shift: u32) -> Self {
        let mut freqs = vec![1u64; 1 << bits];
        for &w in words {
            freqs[((w >> shift) & ((1 << bits) - 1)) as usize] += 1;
        }
        Self { code: CanonicalCode::from_frequencies(&freqs, MAX_CODE_LEN), bits, shift }
    }

    fn field_of(&self, w: u32) -> u32 {
        (w >> self.shift) & ((1 << self.bits) - 1)
    }

    fn encode(&self, wtr: &mut BitWriter<'_>, w: u32) {
        let f = self.field_of(w) as usize;
        wtr.write(self.code.code(f) as u64, self.code.length(f));
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        let window = r.peek_padded(MAX_CODE_LEN) as u32;
        let (entry, len) = self.code.decode(window).ok_or(DecodeError::NoCodeword)?;
        r.skip(len);
        Ok(entry << self.shift)
    }

    fn size(&self, w: u32) -> u32 {
        self.code.length(self.field_of(w) as usize)
    }
}

/// FP-H: per-field Huffman coding of `f32` words.
///
/// Fields: sign+exponent (9 bits), mantissa-high (12 bits), mantissa-low
/// (11 bits). Exponents cluster tightly in real data, mantissa-high less
/// so, mantissa-low barely — each field gets its own code.
#[derive(Debug, Clone)]
pub struct FpH {
    fields: [FieldCode; 3],
}

impl FpH {
    /// Trains the three field tables on sampled bytes.
    pub fn train_on_bytes(bytes: &[u8]) -> Self {
        let mut words = Vec::new();
        for block in crate::symbols::blocks_of(bytes) {
            words.extend(block_to_words(&block));
        }
        Self {
            fields: [
                FieldCode::train(&words, 9, 23),
                FieldCode::train(&words, 12, 11),
                FieldCode::train(&words, 11, 0),
            ],
        }
    }
}

impl BlockCompressor for FpH {
    fn name(&self) -> &'static str {
        "fp-h"
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        if self.size_bits(block) >= BLOCK_BITS {
            return store_verbatim(block, out);
        }
        let mut wtr = BitWriter::new(out);
        for w in block_to_words(block) {
            for f in &self.fields {
                f.encode(&mut wtr, w);
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
            for f in &self.fields {
                *w |= f.decode(&mut r)?;
            }
        }
        *out = words_to_block(&words);
        r.check()
    }

    fn size_bits(&self, block: &Block) -> u32 {
        let bits: u32 = block_to_words(block)
            .iter()
            .map(|&w| self.fields.iter().map(|f| f.size(w)).sum::<u32>())
            .sum();
        bits.min(BLOCK_BITS)
    }
}

/// Which method HyComp dispatched to (2-bit wire tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HyChoice {
    FpH,
    Bdi,
    Sc2,
}

impl HyChoice {
    fn tag(self) -> u64 {
        match self {
            HyChoice::FpH => 0,
            HyChoice::Bdi => 1,
            HyChoice::Sc2 => 2,
        }
    }
}

const TAG_BITS: u32 = 2;

/// HyComp: data-type prediction + method dispatch.
#[derive(Debug, Clone)]
pub struct HyComp {
    fph: FpH,
    sc2: Sc2,
    bdi: Bdi,
}

impl HyComp {
    /// Trains the statistical sub-methods on sampled bytes.
    pub fn train_on_bytes(bytes: &[u8]) -> Self {
        Self {
            fph: FpH::train_on_bytes(bytes),
            sc2: Sc2::train_on_bytes(bytes, crate::sc2::DEFAULT_TOP_K),
            bdi: Bdi::new(),
        }
    }

    /// The MICRO'15 idea in miniature: predict the block's data type from
    /// value shape, then pick that type's method; fall back to whichever
    /// of the trained methods is smallest when the prediction is weak.
    fn choose(&self, block: &Block) -> HyChoice {
        let words = block_to_words(block);
        let floats = words
            .iter()
            .filter(|&&w| {
                let exp = (w >> 23) & 0xff;
                (90..=160).contains(&exp) // |value| within ~1e-11..1e12
            })
            .count();
        if floats * 4 >= WORDS_PER_BLOCK * 3 {
            return HyChoice::FpH;
        }
        // Integers/pointers: BDI if it fires, else statistical.
        let bdi_bits = self.bdi.size_bits(block);
        let sc2_bits = self.sc2.size_bits(block);
        if bdi_bits < BLOCK_BITS && bdi_bits <= sc2_bits {
            HyChoice::Bdi
        } else {
            HyChoice::Sc2
        }
    }

    fn method(&self, c: HyChoice) -> &dyn BlockCompressor {
        match c {
            HyChoice::FpH => &self.fph,
            HyChoice::Bdi => &self.bdi,
            HyChoice::Sc2 => &self.sc2,
        }
    }
}

impl BlockCompressor for HyComp {
    fn name(&self) -> &'static str {
        "hycomp"
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        let choice = self.choose(block);
        // The sub-codec stays a black box behind the trait: it encodes
        // onto the sink, then its stream is re-framed behind the tag.
        let start = out.len();
        let (inner_bits, coded) = self.method(choice).compress_into(block, out);
        if !coded || inner_bits + TAG_BITS >= BLOCK_BITS {
            out.truncate(start);
            return store_verbatim(block, out);
        }
        let mut inner = [0u8; BLOCK_BYTES];
        let inner_len = out.len() - start;
        inner[..inner_len].copy_from_slice(&out[start..]);
        out.truncate(start);
        let mut wtr = BitWriter::new(out);
        wtr.write(choice.tag(), TAG_BITS);
        wtr.append(&inner, inner_bits);
        (wtr.finish(), true)
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
        // The size is wire data: a stream too short for its own tag has
        // no inner stream to frame.
        let inner_bits = size_bits.checked_sub(TAG_BITS).ok_or(DecodeError::Truncated)?;
        let mut r = BitReader::new(payload, size_bits);
        let choice = match r.read(TAG_BITS) {
            0 => HyChoice::FpH,
            1 => HyChoice::Bdi,
            2 => HyChoice::Sc2,
            _ => return Err(DecodeError::UnknownTag),
        };
        // Re-frame the remaining bits for the sub-decoder: realigned to
        // bit 0 of a stack buffer, one left-justified 64-bit word per read
        // (the last store's zero padding is why the buffer has 8 bytes of
        // slack past a block).
        let mut inner = [0u8; BLOCK_BYTES + 8];
        let mut remaining = inner_bits;
        for word in inner.chunks_exact_mut(8) {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(64);
            word.copy_from_slice(&(r.read(take) << (64 - take)).to_be_bytes());
            remaining -= take;
        }
        r.check()?;
        self.method(choice).decompress_into(inner_bits.max(1), true, &inner, out)
    }

    fn size_bits(&self, block: &Block) -> u32 {
        let inner = self.method(self.choose(block)).size_bits(block);
        (inner + TAG_BITS).min(BLOCK_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn float_training() -> Vec<u8> {
        (0..1u32 << 14).flat_map(|i| (100.0f32 + (i % 1024) as f32 * 0.25).to_le_bytes()).collect()
    }

    fn float_block(offset: f32) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..WORDS_PER_BLOCK {
            let v = 100.0f32 + offset + (i as f32) * 0.25;
            b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    fn int_block(f: impl Fn(usize) -> u32) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..WORDS_PER_BLOCK {
            b[i * 4..i * 4 + 4].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    }

    #[test]
    fn fph_compresses_float_blocks() {
        let fph = FpH::train_on_bytes(&float_training());
        let block = float_block(8.0);
        let c = fph.compress(&block);
        assert!(c.size_bits() < BLOCK_BITS, "floats should compress");
        assert_eq!(fph.decompress(&c), block);
    }

    #[test]
    fn fph_exponent_field_is_cheap() {
        // Exponents cluster: the sign+exponent field must cost far fewer
        // than its raw 9 bits.
        let fph = FpH::train_on_bytes(&float_training());
        let w = 100.5f32.to_bits();
        assert!(fph.fields[0].size(w) <= 3, "got {}", fph.fields[0].size(w));
    }

    #[test]
    fn hycomp_picks_fph_for_floats_and_bdi_for_ints() {
        let hy = HyComp::train_on_bytes(&float_training());
        assert_eq!(hy.choose(&float_block(4.0)), HyChoice::FpH);
        // 0x1000_0000-based values have exponent byte 0x20: pointer-like,
        // not float-like.
        let ints = int_block(|i| 0x1000_0000 + i as u32);
        assert_eq!(hy.choose(&ints), HyChoice::Bdi);
    }

    #[test]
    fn hycomp_roundtrips_all_paths() {
        let hy = HyComp::train_on_bytes(&float_training());
        for block in [
            float_block(2.0),
            int_block(|i| 0x1000_0000 + i as u32),
            int_block(|i| ((i as u32 % 1024) as f32 * 0.25 + 100.0).to_bits()),
            [0u8; BLOCK_BYTES],
        ] {
            let c = hy.compress(&block);
            assert_eq!(hy.decompress(&c), block);
            assert!(c.size_bits() <= BLOCK_BITS);
        }
    }

    #[test]
    fn hycomp_beats_single_methods_on_mixed_data() {
        // The MICRO'15 pitch: dispatching by type wins over any one method
        // across a mixed working set.
        let hy = HyComp::train_on_bytes(&float_training());
        let blocks = [float_block(1.0), int_block(|i| 0x1000_0000 + 3 * i as u32)];
        let hy_total: u32 = blocks.iter().map(|b| hy.size_bits(b)).sum();
        let bdi_total: u32 = blocks.iter().map(|b| hy.bdi.size_bits(b)).sum();
        let fph_total: u32 = blocks.iter().map(|b| hy.fph.size_bits(b)).sum();
        assert!(hy_total <= bdi_total.min(fph_total) + 2 * TAG_BITS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_fph_roundtrip(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let fph = FpH::train_on_bytes(&float_training());
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert_eq!(fph.decompress(&fph.compress(&block)), block);
        }

        #[test]
        fn prop_hycomp_roundtrip(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let hy = HyComp::train_on_bytes(&float_training());
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert_eq!(hy.decompress(&hy.compress(&block)), block);
        }
    }
}
