//! Base-Delta-Immediate (BDI) compression.
//!
//! Pekhimenko et al., "Base-Delta-Immediate Compression: Practical Data
//! Compression for On-chip Caches", PACT 2012 — one of the four baselines of
//! the SLC paper's Figure 1.
//!
//! A block is viewed as `128 / k` values of `k ∈ {8, 4, 2}` bytes. Each
//! value is stored either as a small signed delta against one arbitrary
//! base (the first value not representable from zero) or against an
//! *implicit zero base* (the "immediate" part). A per-value mask selects
//! the base. Special encodings cover the all-zero block and a block that
//! repeats a single 8-byte value.
//!
//! # Choosing an encoding
//!
//! After the two special cases, the six base+delta arms are tried in
//! [`BdiEncoding::BASE_DELTA_VARIANTS`] order, smallest first, and the
//! first that represents the block wins: every value that is not a delta
//! from zero must be one from the first such value, the arm's base. Each
//! arm checks and writes in one pass (`Arm::encode`): it packs the deltas
//! into 64-bit groups that go straight to their offsets in a stack window,
//! and leaves at the first value that fits neither base, so an
//! incompressible block costs a few values per arm. `compress_into`,
//! `choose_encoding` and `size_bits` all run this pass.
//!
//! # Decoding
//!
//! Every encoding has a fixed length, so its fields sit at fixed bit
//! offsets: a 4-bit tag, then (for an arm) the base, one mask bit per
//! value and the 64-bit delta groups `Arm::encode` puts. Every field after
//! the tag starts at bit 4 of a byte, so the decoder needs no bit cursor:
//! it checks once that the stream holds the tag's
//! [`size_bits`](BdiEncoding::size_bits), copies those bytes into a
//! zero-padded stack window, and `Arm::read` loads each field at an offset
//! the arm fixes and stores the block a 64-bit word at a time. No offset
//! or length comes from the wire, so past the one length check nothing can
//! fail. The `BitReader` decoder this replaced is kept in the tests as the
//! oracle: both give the same `Result` and, on `Ok`, the same block, on
//! every encoder output and on arbitrary payloads.

use crate::{
    load_verbatim, store_verbatim, Block, BlockCompressor, CodecId, DecodeError, BLOCK_BITS,
    BLOCK_BYTES,
};

/// Width of the wire tag that opens every coded BDI stream.
const TAG_BITS: u32 = 4;

/// The block's sixteen 64-bit words, little-endian.
type Words = [u64; BLOCK_BYTES / 8];

/// Bytes in a stream window: the longest coded stream (B8D4 and B2D1,
/// 596 bits) in whole bytes.
const WINDOW: usize = 75;

/// A coded stream's bytes, zero-padded: the encoder stores and the
/// decoder loads every field at a compile-time offset.
type Window = [u8; WINDOW];

/// The first `len` bytes of `stream` in a [`Window`], or `Truncated`
/// when it holds fewer.
#[inline(always)]
fn window(stream: &[u8], len: usize) -> Result<Window, DecodeError> {
    let mut win = [0u8; WINDOW];
    win[..len].copy_from_slice(stream.get(..len).ok_or(DecodeError::Truncated)?);
    Ok(win)
}

/// The 64 stream bits that follow the tag and `byte` more whole bytes:
/// stream bits `4 + 8 * byte ..`, i.e. the low nibble of window byte
/// `byte`, the next seven bytes and the high nibble of the ninth.
#[inline(always)]
fn field(win: &Window, byte: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&win[byte..byte + 8]);
    (u64::from_be_bytes(word) << TAG_BITS) | u64::from(win[byte + 8] >> (8 - TAG_BITS))
}

/// ORs `x` into the 64 stream bits [`field`] reads at `byte`, and into
/// no other bit of the window.
#[inline(always)]
fn put(win: &mut Window, byte: usize, x: u64) {
    let mut word = [0u8; 8];
    word.copy_from_slice(&win[byte..byte + 8]);
    let word = u64::from_be_bytes(word) | (x >> TAG_BITS);
    win[byte..byte + 8].copy_from_slice(&word.to_be_bytes());
    win[byte + 8] |= (x << (8 - TAG_BITS)) as u8;
}

/// The BDI encoding chosen for a block, ordered by decreasing specificity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BdiEncoding {
    /// Every byte is zero.
    Zeros,
    /// One 8-byte value repeated across the block.
    Repeat,
    /// Base size 8, delta size 1.
    B8D1,
    /// Base size 8, delta size 2.
    B8D2,
    /// Base size 8, delta size 4.
    B8D4,
    /// Base size 4, delta size 1.
    B4D1,
    /// Base size 4, delta size 2.
    B4D2,
    /// Base size 2, delta size 1.
    B2D1,
    /// Stored verbatim.
    Uncompressed,
}

impl BdiEncoding {
    /// All base+delta variants as `(encoding, base bytes, delta bytes)`,
    /// smallest compressed size first: the order the planner tries them
    /// in. B2D1 and B8D4 tie at 596 bits, and B2D1 wins the tie.
    pub const BASE_DELTA_VARIANTS: [(BdiEncoding, usize, usize); 6] = [
        (BdiEncoding::B8D1, 8, 1),
        (BdiEncoding::B4D1, 4, 1),
        (BdiEncoding::B8D2, 8, 2),
        (BdiEncoding::B4D2, 4, 2),
        (BdiEncoding::B2D1, 2, 1),
        (BdiEncoding::B8D4, 8, 4),
    ];

    /// 4-bit wire tag for the encoding.
    pub fn tag(self) -> u8 {
        match self {
            BdiEncoding::Zeros => 0,
            BdiEncoding::Repeat => 1,
            BdiEncoding::B8D1 => 2,
            BdiEncoding::B8D2 => 3,
            BdiEncoding::B8D4 => 4,
            BdiEncoding::B4D1 => 5,
            BdiEncoding::B4D2 => 6,
            BdiEncoding::B2D1 => 7,
            BdiEncoding::Uncompressed => 8,
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for a tag no encoding owns.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => BdiEncoding::Zeros,
            1 => BdiEncoding::Repeat,
            2 => BdiEncoding::B8D1,
            3 => BdiEncoding::B8D2,
            4 => BdiEncoding::B8D4,
            5 => BdiEncoding::B4D1,
            6 => BdiEncoding::B4D2,
            7 => BdiEncoding::B2D1,
            8 => BdiEncoding::Uncompressed,
            _ => return None,
        })
    }

    /// Compressed size in bits for this encoding on a 128 B block
    /// (tag + base + mask + deltas).
    pub fn size_bits(self) -> u32 {
        match self {
            BdiEncoding::Zeros => TAG_BITS,
            BdiEncoding::Repeat => TAG_BITS + 64,
            BdiEncoding::B8D1 => Arm::<8, 1>::BITS,
            BdiEncoding::B8D2 => Arm::<8, 2>::BITS,
            BdiEncoding::B8D4 => Arm::<8, 4>::BITS,
            BdiEncoding::B4D1 => Arm::<4, 1>::BITS,
            BdiEncoding::B4D2 => Arm::<4, 2>::BITS,
            BdiEncoding::B2D1 => Arm::<2, 1>::BITS,
            BdiEncoding::Uncompressed => BLOCK_BITS,
        }
    }

    /// Whether this base+delta arm represents the block, with its stream
    /// after the tag in the zeroed `win` if so (see [`Arm::encode`]);
    /// `false` for every encoding that is not a base+delta arm.
    #[inline(always)]
    fn encode_arm(self, v8: &Words, win: &mut Window) -> bool {
        match self {
            BdiEncoding::B8D1 => Arm::<8, 1>::encode(v8, win),
            BdiEncoding::B8D2 => Arm::<8, 2>::encode(v8, win),
            BdiEncoding::B8D4 => Arm::<8, 4>::encode(v8, win),
            BdiEncoding::B4D1 => Arm::<4, 1>::encode(v8, win),
            BdiEncoding::B4D2 => Arm::<4, 2>::encode(v8, win),
            BdiEncoding::B2D1 => Arm::<2, 1>::encode(v8, win),
            BdiEncoding::Zeros | BdiEncoding::Repeat | BdiEncoding::Uncompressed => false,
        }
    }
}

/// The BDI block compressor.
///
/// ```
/// use slc_compress::{BlockCompressor, bdi::Bdi};
///
/// let bdi = Bdi::new();
/// // 32 similar f32 values: ideal base-delta material.
/// let mut block = [0u8; 128];
/// for i in 0..32 {
///     block[i * 4..i * 4 + 4].copy_from_slice(&(1000u32 + i as u32).to_le_bytes());
/// }
/// let (mut payload, mut out) = (Vec::new(), [0u8; 128]);
/// let (bits, coded) = bdi.compress_into(&block, &mut payload);
/// assert!(coded && bits < 128 * 8);
/// bdi.decompress_into(bits, coded, &payload, &mut out).unwrap();
/// assert_eq!(out, block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Bdi {
    _private: (),
}

impl Bdi {
    /// Creates a BDI codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoding [`compress_into`](BlockCompressor::compress_into)
    /// gives `block`: the same pass, appending nothing.
    pub fn choose_encoding(&self, block: &Block) -> BdiEncoding {
        encode(block, None)
    }
}

/// The block's encoding: Zeros, Repeat, the first base+delta arm that
/// represents the block, else Uncompressed. A coded encoding's stream is
/// appended to `out` when there is one.
#[inline(always)]
fn encode(block: &Block, out: Option<&mut Vec<u8>>) -> BdiEncoding {
    // One load pass feeds the Zeros/Repeat checks and every arm's values.
    let v8: &Words = &std::array::from_fn(|i| u64::from_le_bytes(block.as_chunks().0[i]));
    let tag = |enc: BdiEncoding| enc.tag() << (8 - TAG_BITS);
    if v8.iter().fold(0, |acc, &w| acc | w) == 0 {
        if let Some(out) = out {
            out.push(tag(BdiEncoding::Zeros));
        }
        return BdiEncoding::Zeros;
    }
    if v8.iter().all(|&w| w == v8[0]) {
        // The tag and the value, 9 bytes: no window to zero.
        if let Some(out) = out {
            let mut stream = [tag(BdiEncoding::Repeat) | (v8[0] >> 60) as u8; 9];
            stream[1..].copy_from_slice(&(v8[0] << TAG_BITS).to_be_bytes());
            out.extend_from_slice(&stream);
        }
        return BdiEncoding::Repeat;
    }
    let mut win = [0; WINDOW];
    let mut arms = BdiEncoding::BASE_DELTA_VARIANTS.iter();
    let Some(&(enc, ..)) = arms.find(|&&(enc, ..)| enc.encode_arm(v8, &mut win)) else {
        return BdiEncoding::Uncompressed;
    };
    win[0] |= tag(enc);
    if let Some(out) = out {
        out.extend_from_slice(&win[..enc.size_bits().div_ceil(8) as usize]);
    }
    enc
}

/// One base+delta arm: the block as `BLOCK_BYTES / BASE` values of
/// `BASE` bytes, each stored as a `DELTA`-byte signed delta from zero or
/// from the arm's one explicit base.
struct Arm<const BASE: usize, const DELTA: usize>;

impl<const BASE: usize, const DELTA: usize> Arm<BASE, DELTA> {
    /// Values in a block.
    const N: usize = BLOCK_BYTES / BASE;
    /// Values in one of the block's 64-bit words.
    const PER_WORD: usize = 8 / BASE;
    /// Deltas packed into one 64-bit group.
    const PER_WRITE: usize = 8 / DELTA;
    /// Tag, base, one mask bit and one delta per value.
    const BITS: u32 = TAG_BITS + 8 * BASE as u32 + Self::N as u32 * (1 + 8 * DELTA as u32);
    /// The stream in whole bytes: what [`read`](Self::read) copies.
    const BYTES: usize = {
        let bytes = Self::BITS.div_ceil(8) as usize;
        assert!(bytes <= WINDOW, "an arm's stream fits the window");
        bytes
    };
    /// Where the deltas start, in whole bytes past the tag (see
    /// [`field`]): after the base and the mask.
    const DELTAS_AT: usize = BASE + Self::N / 8;
    const VALUE_MASK: u64 = u64::MAX >> (64 - 8 * BASE);
    const DELTA_MASK: u64 = u64::MAX >> (64 - 8 * DELTA);

    /// Value `i`, little-endian.
    #[inline(always)]
    fn value(v8: &Words, i: usize) -> u64 {
        (v8[i / Self::PER_WORD] >> (8 * BASE * (i % Self::PER_WORD))) & Self::VALUE_MASK
    }

    /// Whether `d`, a difference of two values taken modulo `2^(8 *
    /// BASE)`, is a signed `DELTA`-byte delta: `d ∈ [-2^(8 * DELTA - 1),
    /// 2^(8 * DELTA - 1))`, tested as `d + 2^(8 * DELTA - 1)` landing in
    /// the delta's unsigned range.
    #[inline(always)]
    fn fits(d: u64) -> bool {
        d.wrapping_add(Self::DELTA_MASK / 2 + 1) & Self::VALUE_MASK <= Self::DELTA_MASK
    }

    /// Whether the arm represents the block, writing its stream after the
    /// tag into the zeroed `win` as it checks (and leaving `win` zero if
    /// not): each group of deltas, MSB-first, goes to the offset
    /// [`read`](Self::read) loads it from. Out of line: inlined into the
    /// arm loop, it would have every arm checked before the first exits.
    #[inline(never)]
    fn encode(v8: &Words, win: &mut Window) -> bool {
        // Found first, so that no value's check waits on the one before.
        let base = (0..Self::N).map(|i| Self::value(v8, i)).find(|&v| !Self::fits(v)).unwrap_or(0);
        let mut mask = 0u64;
        for g in 0..Self::N / Self::PER_WRITE {
            let mut group = 0u64;
            for j in 0..Self::PER_WRITE {
                let i = g * Self::PER_WRITE + j;
                let v = Self::value(v8, i);
                // All-ones when value `i` deltas from the base. The low
                // `8 * DELTA` bits of the wrapping difference are the
                // signed delta's.
                let sel = u64::from(Self::fits(v)).wrapping_sub(1);
                let delta = v.wrapping_sub(base & sel);
                if !Self::fits(delta) {
                    if g > 0 {
                        *win = [0; WINDOW];
                    }
                    return false;
                }
                mask |= (sel & 1) << i;
                group |= (delta & Self::DELTA_MASK) << (8 * DELTA * (Self::PER_WRITE - 1 - j));
            }
            put(win, Self::DELTAS_AT + 8 * g, group);
        }
        put(win, 0, base << (64 - 8 * BASE));
        // Value 0's flag goes first on the wire (MSB of the field).
        put(win, BASE, mask.reverse_bits());
        true
    }

    /// Decodes the block from the arm's stream, which the caller has
    /// checked holds [`BITS`](Self::BITS) bits: the twin of
    /// [`encode`](Self::encode). A delta is shifted to the top of its
    /// group and arithmetic-shifted back down, which sign-extends it, and
    /// its mask bit, shifted to the sign, selects the base as all-ones or
    /// zero.
    #[inline(always)]
    fn read(stream: &[u8], out: &mut Block) -> Result<(), DecodeError> {
        let win = window(stream, Self::BYTES)?;
        let base = field(&win, 0) >> (64 - 8 * BASE);
        // Value `i`'s flag is bit `63 - i` (value 0's goes first); each
        // group shifts its flags out of the top.
        let mut mask = field(&win, BASE);
        // A group's deltas fill `BASE / DELTA` of the block's words.
        let (words, _) = out.as_chunks_mut::<8>();
        for (g, group_words) in words.chunks_exact_mut(BASE / DELTA).enumerate() {
            let group = field(&win, Self::DELTAS_AT + 8 * g);
            for (k, word) in group_words.iter_mut().enumerate() {
                let mut w = 0u64;
                for t in 0..Self::PER_WORD {
                    let at = k * Self::PER_WORD + t;
                    let delta = ((group << (8 * DELTA * at)) as i64 >> (64 - 8 * DELTA)) as u64;
                    let sel = ((mask << at) as i64 >> 63) as u64;
                    w |= ((base & sel).wrapping_add(delta) & Self::VALUE_MASK) << (8 * BASE * t);
                }
                *word = w.to_le_bytes();
            }
            mask <<= Self::PER_WRITE;
        }
        Ok(())
    }
}

impl BlockCompressor for Bdi {
    fn id(&self) -> CodecId {
        CodecId::Bdi
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        match encode(block, Some(&mut *out)) {
            BdiEncoding::Uncompressed => store_verbatim(block, out),
            enc => (enc.size_bits(), true),
        }
    }

    /// Decodes one stream without a bit cursor (see the module's
    /// "Decoding"). The stream is the first `size_bits` bits of
    /// `payload`, cut to the bits the payload holds:
    ///
    /// * fewer than 4 bits: [`DecodeError::Truncated`];
    /// * a tag of 8 to 15: [`DecodeError::UnknownTag`] (8 is
    ///   Uncompressed, which travels with the coded flag clear);
    /// * fewer bits than the tag's encoding needs: `Truncated`;
    /// * otherwise `Ok`, and bits past the encoding's end are ignored.
    ///
    /// A verbatim block (`compressed` clear) needs a whole block of
    /// payload. Nothing here allocates or panics.
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
        let held = u64::from(size_bits).min((payload.len() as u64).saturating_mul(8));
        let tag = match payload.first() {
            Some(&byte) if held >= u64::from(TAG_BITS) => byte >> (8 - TAG_BITS),
            _ => return Err(DecodeError::Truncated),
        };
        let enc = match BdiEncoding::from_tag(tag) {
            None | Some(BdiEncoding::Uncompressed) => return Err(DecodeError::UnknownTag),
            Some(enc) => enc,
        };
        if held < u64::from(enc.size_bits()) {
            return Err(DecodeError::Truncated);
        }
        match enc {
            BdiEncoding::Zeros => out.fill(0),
            BdiEncoding::Repeat => {
                // The tag and one 64-bit value: 9 bytes.
                let v = field(&window(payload, 9)?, 0).to_le_bytes();
                for word in out.as_chunks_mut::<8>().0 {
                    *word = v;
                }
            }
            BdiEncoding::B8D1 => Arm::<8, 1>::read(payload, out)?,
            BdiEncoding::B8D2 => Arm::<8, 2>::read(payload, out)?,
            BdiEncoding::B8D4 => Arm::<8, 4>::read(payload, out)?,
            BdiEncoding::B4D1 => Arm::<4, 1>::read(payload, out)?,
            BdiEncoding::B4D2 => Arm::<4, 2>::read(payload, out)?,
            BdiEncoding::B2D1 => Arm::<2, 1>::read(payload, out)?,
            BdiEncoding::Uncompressed => return Err(DecodeError::UnknownTag),
        }
        Ok(())
    }

    fn size_bits(&self, block: &Block) -> u32 {
        self.choose_encoding(block).size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{BitReader, BitWriter};
    use crate::testing::{decode, encode, roundtrip};
    use proptest::prelude::*;

    fn mask_for(bytes: usize) -> u64 {
        u64::MAX >> (64 - 8 * bytes)
    }

    fn words_of(block: &Block) -> Words {
        std::array::from_fn(|i| u64::from_le_bytes(block.as_chunks().0[i]))
    }

    fn is_zero(v8: &Words) -> bool {
        v8.iter().fold(0u64, |acc, &w| acc | w) == 0
    }

    fn is_repeat8(v8: &Words) -> bool {
        v8.iter().all(|&w| w == v8[0])
    }

    fn block_from_u32s(f: impl Fn(usize) -> u32) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..BLOCK_BYTES / 4 {
            b[i * 4..i * 4 + 4].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    }

    #[test]
    fn zero_block_uses_zeros_encoding() {
        let bdi = Bdi::new();
        let block = [0u8; BLOCK_BYTES];
        assert_eq!(bdi.choose_encoding(&block), BdiEncoding::Zeros);
        let (bits, coded, payload) = encode(&bdi, &block);
        assert_eq!(bits, 4);
        assert_eq!(decode(&bdi, bits, coded, &payload), block);
    }

    #[test]
    fn repeated_value_uses_repeat_encoding() {
        let bdi = Bdi::new();
        let mut block = [0u8; BLOCK_BYTES];
        for chunk in block.chunks_exact_mut(8) {
            chunk.copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        }
        assert_eq!(bdi.choose_encoding(&block), BdiEncoding::Repeat);
        let (bits, coded, payload) = encode(&bdi, &block);
        assert_eq!(bits, 68);
        assert_eq!(decode(&bdi, bits, coded, &payload), block);
    }

    #[test]
    fn close_u32_values_pick_b4d1() {
        let bdi = Bdi::new();
        let block = block_from_u32s(|i| 0x4000_0000 + i as u32);
        assert_eq!(bdi.choose_encoding(&block), BdiEncoding::B4D1);
        let (bits, coded, payload) = encode(&bdi, &block);
        assert_eq!(bits, BdiEncoding::B4D1.size_bits());
        assert_eq!(decode(&bdi, bits, coded, &payload), block);
    }

    #[test]
    fn close_u16_values_pick_b2d1() {
        let bdi = Bdi::new();
        let mut block = [0u8; BLOCK_BYTES];
        for i in 0..BLOCK_BYTES / 2 {
            let v = 0x4100u16 + (i as u16 % 96);
            block[i * 2..i * 2 + 2].copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bdi.choose_encoding(&block), BdiEncoding::B2D1);
        let (bits, coded, payload) = encode(&bdi, &block);
        assert_eq!(bits, BdiEncoding::B2D1.size_bits());
        assert_eq!(decode(&bdi, bits, coded, &payload), block);
    }

    #[test]
    fn mixed_small_and_large_values_use_zero_base() {
        // Alternating small immediates and values near one large base: the
        // dual-base scheme captures this, a single base could not.
        let bdi = Bdi::new();
        let block = block_from_u32s(|i| if i % 2 == 0 { i as u32 } else { 0x7fff_0000 + i as u32 });
        let enc = bdi.choose_encoding(&block);
        assert_ne!(enc, BdiEncoding::Uncompressed);
        assert_eq!(roundtrip(&bdi, &block), block);
    }

    #[test]
    fn high_entropy_block_is_uncompressed() {
        let bdi = Bdi::new();
        let mut block = [0u8; BLOCK_BYTES];
        let mut state = 0x12345678u64;
        for b in block.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        let (bits, coded, payload) = encode(&bdi, &block);
        assert_eq!(bits, BLOCK_BITS);
        assert!(!coded);
        assert_eq!(decode(&bdi, bits, coded, &payload), block);
    }

    #[test]
    fn size_bits_matches_compress() {
        let bdi = Bdi::new();
        let block = block_from_u32s(|i| 7 * i as u32);
        assert_eq!(bdi.size_bits(&block), encode(&bdi, &block).0);
    }

    #[test]
    fn encoding_sizes_match_formula() {
        // n = 128/base values: tag(4) + base*8 + n + n*delta*8.
        assert_eq!(BdiEncoding::B8D1.size_bits(), 4 + 64 + 16 + 16 * 8);
        assert_eq!(BdiEncoding::B4D2.size_bits(), 4 + 32 + 32 + 32 * 16);
        assert_eq!(BdiEncoding::B2D1.size_bits(), 4 + 16 + 64 + 64 * 8);
        for (enc, base, delta) in BdiEncoding::BASE_DELTA_VARIANTS {
            let n = (BLOCK_BYTES / base) as u32;
            assert_eq!(enc.size_bits(), 4 + base as u32 * 8 + n + n * delta as u32 * 8, "{enc:?}");
        }
    }

    #[test]
    fn tag_roundtrip() {
        for enc in [
            BdiEncoding::Zeros,
            BdiEncoding::Repeat,
            BdiEncoding::B8D1,
            BdiEncoding::B8D2,
            BdiEncoding::B8D4,
            BdiEncoding::B4D1,
            BdiEncoding::B4D2,
            BdiEncoding::B2D1,
            BdiEncoding::Uncompressed,
        ] {
            assert_eq!(BdiEncoding::from_tag(enc.tag()), Some(enc));
        }
        assert!((9..=u8::MAX).all(|tag| BdiEncoding::from_tag(tag).is_none()));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_random(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let bdi = Bdi::new();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert_eq!(roundtrip(&bdi, &block), block);
        }

        #[test]
        fn prop_roundtrip_low_entropy(base in any::<u32>(), spread in 0u32..256,
                                      seeds in proptest::collection::vec(0u32..256, 32)) {
            let bdi = Bdi::new();
            let mut block = [0u8; BLOCK_BYTES];
            for (i, s) in seeds.iter().enumerate() {
                let v = base.wrapping_add(s % spread.max(1));
                block[i*4..i*4+4].copy_from_slice(&v.to_le_bytes());
            }
            let (bits, coded, payload) = encode(&bdi, &block);
            prop_assert_eq!(decode(&bdi, bits, coded, &payload), block);
            // Low-spread data must compress.
            if spread <= 64 {
                prop_assert!(bits < BLOCK_BITS);
            }
        }

        #[test]
        fn prop_compress_into_matches_compress(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let bdi = Bdi::new();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            let (bits, coded, payload) = encode(&bdi, &block);
            prop_assert_eq!(payload.len(), bits.div_ceil(8) as usize);
            let mut out = vec![0xa5u8; 3];
            prop_assert_eq!(bdi.compress_into(&block, &mut out), (bits, coded));
            prop_assert_eq!(&out[..3], &[0xa5u8; 3][..], "append-only");
            prop_assert_eq!(&out[3..], &payload[..]);
        }

        #[test]
        fn prop_size_never_exceeds_block(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let bdi = Bdi::new();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert!(bdi.size_bits(&block) <= BLOCK_BITS);
        }
    }

    // The SWAR lane planner and delta writer this module's first fit
    // replaced, kept verbatim as the byte oracle (only the list they scan
    // is renamed: `PARENT_VARIANTS` is the order they shipped with).

    const PARENT_VARIANTS: [(BdiEncoding, usize, usize); 6] = [
        (BdiEncoding::B8D1, 8, 1),
        (BdiEncoding::B4D1, 4, 1),
        (BdiEncoding::B8D2, 8, 2),
        (BdiEncoding::B2D1, 2, 1),
        (BdiEncoding::B4D2, 4, 2),
        (BdiEncoding::B8D4, 8, 4),
    ];

    /// The oracle's `choose_encoding`.
    fn swar_choose_encoding(block: &Block) -> BdiEncoding {
        let v8 = words_of(block);
        if is_zero(&v8) {
            return BdiEncoding::Zeros;
        }
        if is_repeat8(&v8) {
            return BdiEncoding::Repeat;
        }
        match best_base_delta(&v8) {
            Some((enc, ..)) => enc,
            None => BdiEncoding::Uncompressed,
        }
    }

    /// The oracle's `compress_into`.
    fn swar_compress_into(block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        let v8 = words_of(block);
        if is_zero(&v8) {
            let mut w = BitWriter::new(out);
            w.write(BdiEncoding::Zeros.tag() as u64, 4);
            return (w.finish(), true);
        }
        if is_repeat8(&v8) {
            let mut w = BitWriter::new(out);
            w.write(BdiEncoding::Repeat.tag() as u64, 4);
            w.write(v8[0], 64);
            return (w.finish(), true);
        }
        let Some((enc, base_bytes, delta_bytes, base, mask)) = best_base_delta(&v8) else {
            return store_verbatim(block, out);
        };
        let n = BLOCK_BYTES / base_bytes;
        let mut w = BitWriter::new(out);
        w.write(enc.tag() as u64, 4);
        w.write(base & mask_for(base_bytes), base_bytes as u32 * 8);
        w.write(mask.reverse_bits() >> (64 - n), n as u32);
        match (base_bytes, delta_bytes) {
            (8, 1) => encode_deltas::<8, 1>(&v8, base, mask, &mut w),
            (8, 2) => encode_deltas::<8, 2>(&v8, base, mask, &mut w),
            (8, 4) => encode_deltas::<8, 4>(&v8, base, mask, &mut w),
            (4, 1) => encode_deltas::<4, 1>(&split4(&v8), base, mask, &mut w),
            (4, 2) => encode_deltas::<4, 2>(&split4(&v8), base, mask, &mut w),
            (2, 1) => encode_deltas::<2, 1>(&split2(&v8), base, mask, &mut w),
            _ => unreachable!("not a BDI geometry"),
        }
        (w.finish(), true)
    }

    /// The block's 4-byte values, little-endian, in memory order (lane 0 of
    /// each staging word is its low half). Only materialised when a 4-byte
    /// arm wins and its deltas must actually be written.
    fn split4(v8: &[u64; BLOCK_BYTES / 8]) -> [u64; BLOCK_BYTES / 4] {
        let mut v4 = [0u64; BLOCK_BYTES / 4];
        for (i, &w) in v8.iter().enumerate() {
            v4[2 * i] = w & 0xffff_ffff;
            v4[2 * i + 1] = w >> 32;
        }
        v4
    }

    /// The block's 2-byte values, little-endian, in memory order. Only
    /// materialised when the B2D1 arm wins.
    fn split2(v8: &[u64; BLOCK_BYTES / 8]) -> [u64; BLOCK_BYTES / 2] {
        let mut v2 = [0u64; BLOCK_BYTES / 2];
        for (i, &w) in v8.iter().enumerate() {
            for j in 0..4 {
                v2[4 * i + j] = (w >> (16 * j)) & 0xffff;
            }
        }
        v2
    }

    /// Best representable base+delta variant with its full plan
    /// `(enc, base_bytes, delta_bytes, base, mask)`, or `None` when no
    /// geometry fits. Arms are evaluated in the hardware's listed order with
    /// a strict improvement test on compressed size, so the winner is
    /// identical to the sequential evaluation. All six arms plan directly on
    /// the 64-bit staging words ([`plan_arm`] treats them as packed lanes),
    /// so no per-width value array is built unless an arm actually wins.
    fn best_base_delta(
        v8: &[u64; BLOCK_BYTES / 8],
    ) -> Option<(BdiEncoding, usize, usize, u64, u64)> {
        let mut best: Option<(BdiEncoding, usize, usize, u64, u64)> = None;
        let mut best_bits = BLOCK_BITS;
        // Arms sharing a base width share one fused zero-fit pass over the
        // staging words; computed on first use since pruning below can skip a
        // whole width.
        let mut zf8: Option<[u64; 3]> = None;
        let mut zf4: Option<[u64; 2]> = None;
        for (enc, base_bytes, delta_bytes) in PARENT_VARIANTS {
            // Sizes are static per arm, so an arm that cannot beat the current
            // winner needs no planning at all (iteration follows the listed
            // order, so "strictly fewer bits" also reproduces the order
            // tiebreak of the sequential evaluation).
            let bits = enc.size_bits();
            if bits >= best_bits {
                continue;
            }
            let plan = match base_bytes {
                8 => {
                    let zf = zf8.get_or_insert_with(|| zero_fit8(v8));
                    let d = delta_bytes.trailing_zeros() as usize; // 1/2/4 -> 0/1/2
                    plan_arm::<1>(v8, delta_bytes, zf[d])
                }
                4 => {
                    let zf = zf4.get_or_insert_with(|| zero_fit4(v8));
                    plan_arm::<2>(v8, delta_bytes, zf[delta_bytes - 1])
                }
                _ => {
                    // W = 16, d = 1: bias 2^7, overflow bits 8..16.
                    let zf = zero_fit_pass::<4>(v8, splat::<4>(1 << 7), splat::<4>(0xff00));
                    plan_arm::<4>(v8, delta_bytes, zf)
                }
            };
            let Some((base, mask)) = plan else {
                continue;
            };
            best = Some((enc, base_bytes, delta_bytes, base, mask));
            best_bits = bits;
        }
        best
    }

    /// Zero-fit bitmaps for all three 8-byte-base arms (delta 1, 2, 4) in a
    /// single pass: a 64-bit value fits a `d`-byte signed delta from zero iff
    /// its sign-folded magnitude `w XOR sign_splat(w)` clears bits
    /// `8d - 1..`, which is the same predicate as the lane add/mask test
    /// (`w ∈ [-2^(8d-1), 2^(8d-1))` either way) with the bias add and the
    /// three separate word loads factored out.
    fn zero_fit8(words: &[u64; BLOCK_BYTES / 8]) -> [u64; 3] {
        let (mut f1, mut f2, mut f4) = (0u64, 0u64, 0u64);
        for (i, &w) in words.iter().enumerate() {
            let mag = w ^ (((w as i64) >> 63) as u64);
            f1 |= u64::from(mag >> 7 == 0) << i;
            f2 |= u64::from(mag >> 15 == 0) << i;
            f4 |= u64::from(mag >> 31 == 0) << i;
        }
        [f1, f2, f4]
    }

    /// Zero-fit bitmaps for both 4-byte-base arms (delta 1, 2), sharing one
    /// pass over the staging words.
    fn zero_fit4(words: &[u64; BLOCK_BYTES / 8]) -> [u64; 2] {
        let tops = splat::<2>(1 << 31);
        let (b1, h1) = (splat::<2>(1 << 7), splat::<2>(0xffff_ff00));
        let (b2, h2) = (splat::<2>(1 << 15), splat::<2>(0xffff_0000));
        let (mut f1, mut f2) = (0u64, 0u64);
        for (i, &w) in words.iter().enumerate() {
            f1 |= (0b11 & !nonzero_lanes::<2>(lane_add::<2>(w, b1, tops) & h1, tops)) << (2 * i);
            f2 |= (0b11 & !nonzero_lanes::<2>(lane_add::<2>(w, b2, tops) & h2, tops)) << (2 * i);
        }
        [f1, f2]
    }

    /// One generic zero-fit pass: bit `i` of the result is set when value
    /// `i` (lane `i % LANES` of word `i / LANES`) fits the arm's delta from
    /// the implicit zero base.
    fn zero_fit_pass<const LANES: usize>(
        words: &[u64; BLOCK_BYTES / 8],
        bias: u64,
        hi: u64,
    ) -> u64 {
        let wbits = (64 / LANES) as u32;
        let tops = splat::<LANES>(1u64 << (wbits - 1));
        let lmask = (1u64 << LANES) - 1;
        let mut zero_fit = 0u64;
        for (w, &word) in words.iter().enumerate() {
            let fits =
                lmask & !nonzero_lanes::<LANES>(lane_add::<LANES>(word, bias, tops) & hi, tops);
            zero_fit |= fits << (LANES * w);
        }
        zero_fit
    }

    /// Repeats the low `64 / LANES` bits of `v` across every lane.
    #[inline(always)]
    fn splat<const LANES: usize>(v: u64) -> u64 {
        let mut s = v;
        let mut i = 1;
        while i < LANES {
            s |= v << (i * (64 / LANES));
            i += 1;
        }
        s
    }

    /// Lane-wise `(a + b) mod 2^W` for `LANES` lanes of `W = 64 / LANES`
    /// bits: the carry chain is cut at each lane's MSB by adding the low
    /// `W - 1` bits (which cannot carry across the MSB position, as each
    /// side is at most `2^(W-1) - 1`) and fixing the MSBs up with XOR.
    #[inline(always)]
    fn lane_add<const LANES: usize>(a: u64, b: u64, tops: u64) -> u64 {
        if LANES == 1 {
            a.wrapping_add(b)
        } else {
            ((a & !tops).wrapping_add(b & !tops)) ^ ((a ^ b) & tops)
        }
    }

    /// Per-lane nonzero test, gathered: bit `k` of the result is set when
    /// lane `k` of `u` is nonzero. Adding `2^(W-1) - 1` to each lane's low
    /// bits carries into the lane's MSB position exactly when those bits are
    /// nonzero (and never across the lane boundary); OR-ing `u` back in
    /// covers a set MSB itself. One multiply then shifts each lane's MSB to
    /// bit `k` — every partial product lands on a distinct bit position, so
    /// no carries corrupt the gather.
    #[inline(always)]
    fn nonzero_lanes<const LANES: usize>(u: u64, tops: u64) -> u64 {
        if LANES == 1 {
            u64::from(u != 0)
        } else {
            let msbs = ((u & !tops).wrapping_add(!tops) | u) & tops;
            msbs.wrapping_mul(gather_mul(LANES)) >> (64 - LANES)
        }
    }

    /// Multiply constant moving lane `k`'s MSB (bit `(k + 1) * W - 1`) to
    /// bit `64 - LANES + k`, so a single shift right by `64 - LANES` yields
    /// the lane bitmap.
    const fn gather_mul(lanes: usize) -> u64 {
        let w = 64 / lanes;
        let mut m = 0u64;
        let mut k = 0;
        while k < lanes {
            m |= 1u64 << ((64 - lanes + k) - ((k + 1) * w - 1));
            k += 1;
        }
        m
    }

    /// Plans one base+delta arm with two branchless bitmap passes (the "bulk
    /// delta encode": every value's fit is computed with the same
    /// add/mask/test, no per-value control flow), directly on the block's
    /// sixteen 64-bit staging words: a word holds `LANES` values of
    /// `W = 64 / LANES` bits, and each SWAR step tests a whole word's lanes
    /// at once — the hardware evaluates all geometries in parallel from the
    /// same staging register the same way.
    ///
    /// `zero_fit` is the precomputed pass-1 bitmap — bit `i` set when value
    /// `i` is representable from the implicit zero base (arms sharing a base
    /// width share one fused pass, see [`best_base_delta`]). The arm's
    /// explicit base is the first value that bitmap misses (it deltas
    /// against itself). Pass 2 computes the *base-fit* bitmap against that
    /// base; the arm is representable iff every zero-miss is a base-hit — a
    /// word holding a value that fits neither sinks the arm immediately, so
    /// a doomed arm (the common case on incompressible blocks) pays for one
    /// word of pass 2, not the whole lane. The returned mask is exactly the
    /// zero-miss bitmap: bit `i` set = value `i` deltas against the explicit
    /// base, clear = against zero, matching the wire format.
    ///
    /// "Delta fits `d` signed bytes" is tested as
    /// `((v - base + 2^(8d-1)) mod 2^W) & hi == 0` with `hi` the lane's bits
    /// `8d..W` — a lane-wise add and mask instead of sign-extension
    /// arithmetic.
    fn plan_arm<const LANES: usize>(
        words: &[u64; BLOCK_BYTES / 8],
        delta_bytes: usize,
        zero_fit: u64,
    ) -> Option<(u64, u64)> {
        let wbits = (64 / LANES) as u32;
        let wmask = if LANES == 1 { u64::MAX } else { (1u64 << wbits) - 1 };
        let half = 1u64 << (delta_bytes as u32 * 8 - 1);
        let full = 1u64 << (delta_bytes as u32 * 8);
        // `(x & wmask) < full` == "no bits of x in the lane above the delta".
        let hi = splat::<LANES>(wmask & !(full - 1));
        let tops = splat::<LANES>(1u64 << (wbits - 1));
        let lmask = (1u64 << LANES) - 1;
        let live = if LANES == 4 { u64::MAX } else { (1u64 << (16 * LANES)) - 1 };
        let need = !zero_fit & live;
        if need == 0 {
            // Every value fits the zero base; no explicit base is consumed
            // (base field stays 0, as in the sequential evaluation).
            return Some((0, 0));
        }
        let idx = need.trailing_zeros() as usize;
        let base = (words[idx / LANES] >> (wbits * (idx % LANES) as u32)) & wmask;
        let bias = splat::<LANES>(half.wrapping_sub(base) & wmask);
        for (w, &word) in words.iter().enumerate() {
            let fits =
                lmask & !nonzero_lanes::<LANES>(lane_add::<LANES>(word, bias, tops) & hi, tops);
            // A zero-miss in this word that the base also misses makes the
            // arm unrepresentable — no later value can change that.
            if (need >> (LANES * w)) & lmask & !fits != 0 {
                return None;
            }
        }
        Some((base, need))
    }

    /// Writes the delta section of one `BASE`/`DELTA` geometry: every
    /// `64 / delta_bits` deltas are packed into a single `u64` staging word
    /// (MSB-first, mirroring [`decode_base_delta`]'s fetch layout exactly)
    /// with a branchless base select, so the writer is touched once per word
    /// instead of once per value. Monomorphised per arm like the decoder, so
    /// the trip counts, shifts and masks are compile-time constants.
    fn encode_deltas<const BASE: usize, const DELTA: usize>(
        values: &[u64],
        base: u64,
        mask: u64,
        w: &mut BitWriter<'_>,
    ) {
        let n = BLOCK_BYTES / BASE;
        debug_assert_eq!(values.len(), n);
        let dbits = DELTA as u32 * 8;
        let per_write = (64 / dbits) as usize;
        debug_assert_eq!(n % per_write, 0, "every BDI geometry batches evenly");
        let dmask = mask_for(DELTA);
        for chunk in 0..n / per_write {
            let mut raw = 0u64;
            for t in 0..per_write {
                let idx = chunk * per_write + t;
                // All-ones when the mask selects the explicit base. The low
                // `delta_bits` of the wrapping difference equal the
                // sign-extended delta's low bits for every DELTA <= BASE.
                let sel = 0u64.wrapping_sub((mask >> idx) & 1);
                let delta = values[idx].wrapping_sub(base & sel) & dmask;
                raw |= delta << ((per_write - 1 - t) as u32 * dbits);
            }
            w.write(raw, per_write as u32 * dbits);
        }
    }

    /// A block shaped around the arms' edges. `shape` 0 is all zeros, 1
    /// repeats `base` as an 8-byte value and 2 is noise. Otherwise
    /// `geometry` (0..9) picks a value width of 2, 4 or 8 bytes and a delta
    /// width `d` of 1, 2 or 4 bytes below it, and each value takes one
    /// `draws` entry, which picks a zero, an immediate, a delta from
    /// `base`, a delta at or one past ±2^(8d − 1) (from zero or from
    /// `base`), or, when `shape` is 3, sometimes noise. `shape` 4 then
    /// sets every odd value to one small constant, so the doubled width
    /// sees `base`'s structure in its low half under a small high half.
    fn structured_block(shape: u32, geometry: usize, base: u64, draws: &[u64]) -> Block {
        let base_bytes = [2, 4, 8][geometry / 3];
        let delta_bytes = [1, 2, 4][geometry % 3].min(base_bytes / 2);
        let mut block = [0u8; BLOCK_BYTES];
        match shape {
            0 => return block,
            1 => {
                for word in block.chunks_exact_mut(8) {
                    word.copy_from_slice(&base.to_le_bytes());
                }
                return block;
            }
            _ => {}
        }
        let half = 1i64 << (8 * delta_bytes - 1);
        for (i, value) in block.chunks_exact_mut(base_bytes).enumerate() {
            let d = draws[i % draws.len()];
            let small = ((d >> 8) as i64 % (2 * half) - half) as u64;
            let edge = [-half - 1, -half, half - 1, half][(d >> 4) as usize % 4] as u64;
            let v = match (shape, d % 64) {
                (2, _) | (3, 18) => d.rotate_left(23),
                (4, _) if i % 2 == 1 => 1 + draws[0] % 127,
                (_, 0..8) => 0,
                (_, 8..16) => small,
                (_, 16) => edge,
                (_, 17) => base.wrapping_add(edge),
                _ => base.wrapping_add(small),
            };
            value.copy_from_slice(&v.to_le_bytes()[..base_bytes]);
        }
        block
    }

    fn structured() -> impl Strategy<Value = Block> {
        (0u32..8, 0usize..9, any::<u64>(), proptest::collection::vec(any::<u64>(), 64)).prop_map(
            |(shape, geometry, base, draws)| structured_block(shape, geometry, base, &draws),
        )
    }

    #[test]
    fn base_delta_variants_are_in_size_order() {
        let bits: Vec<u32> =
            BdiEncoding::BASE_DELTA_VARIANTS.iter().map(|&(enc, ..)| enc.size_bits()).collect();
        assert!(bits.windows(2).all(|pair| pair[0] <= pair[1]), "{bits:?}");
    }

    #[test]
    fn structured_blocks_reach_every_encoding() {
        // The oracle proptest below is only as strong as its inputs: its
        // generator must reach every encoding, Uncompressed included.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2048 {
            let (shape, geometry, base) = (next() % 8, next() % 9, next());
            let draws: Vec<u64> = (0..64).map(|_| next()).collect();
            let block = structured_block(shape as u32, geometry as usize, base, &draws);
            seen.insert(Bdi::new().choose_encoding(&block));
        }
        assert_eq!(seen.len(), 9, "{seen:?}");
    }

    /// The offsets an arm's fields sit at: the base, the mask and each
    /// delta group.
    fn arm_offsets<const BASE: usize, const DELTA: usize>() -> Vec<usize> {
        let groups = Arm::<BASE, DELTA>::N / Arm::<BASE, DELTA>::PER_WRITE;
        let deltas = (0..groups).map(|g| Arm::<BASE, DELTA>::DELTAS_AT + 8 * g);
        [0, BASE].into_iter().chain(deltas).collect()
    }

    #[test]
    fn put_writes_what_field_reads_and_nothing_else() {
        let offsets = [
            arm_offsets::<8, 1>(),
            arm_offsets::<8, 2>(),
            arm_offsets::<8, 4>(),
            arm_offsets::<4, 1>(),
            arm_offsets::<4, 2>(),
            arm_offsets::<2, 1>(),
        ]
        .concat();
        for byte in offsets {
            assert!(byte + 8 < WINDOW, "a field at {byte} ends past the window");
            // The field's 64 bits and no others: the low nibble of `byte`,
            // seven whole bytes and the high nibble of `byte + 8`.
            let mut bits = [0u8; WINDOW];
            put(&mut bits, byte, u64::MAX);
            for (i, &got) in bits.iter().enumerate() {
                let want = match i.wrapping_sub(byte) {
                    0 => 0x0f,
                    1..=7 => 0xff,
                    8 => 0xf0,
                    _ => 0,
                };
                assert_eq!(got, want, "put at {byte} wrote byte {i}");
            }
            for x in [0, 1, 0xf, 0xf << 60, 1 << 63, 0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210] {
                let mut win = [0u8; WINDOW];
                put(&mut win, byte, x);
                assert_eq!(field(&win, byte), x, "at {byte}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn prop_entry_points_agree_on_the_size(block in structured()) {
            let bdi = Bdi::new();
            let bits = bdi.size_bits(&block);
            prop_assert_eq!(bdi.compress_into(&block, &mut Vec::new()).0, bits);
            prop_assert_eq!(bdi.choose_encoding(&block).size_bits(), bits);
        }

        #[test]
        fn prop_first_fit_equals_the_swar_planner(block in structured()) {
            let bdi = Bdi::new();
            prop_assert_eq!(bdi.choose_encoding(&block), swar_choose_encoding(&block));
            let (mut got, mut want) = (vec![0x5au8; 5], vec![0x5au8; 5]);
            prop_assert_eq!(bdi.compress_into(&block, &mut got), swar_compress_into(&block, &mut want));
            prop_assert_eq!(got, want);
        }
    }

    // The `BitReader` decoder that fixed-offset decoding replaced, kept
    // verbatim as the oracle (`decompress_into` became a free function).

    /// The oracle's `decompress_into`.
    fn bit_reader_decompress_into(
        size_bits: u32,
        compressed: bool,
        payload: &[u8],
        out: &mut Block,
    ) -> Result<(), DecodeError> {
        if !compressed {
            return load_verbatim(payload, out);
        }
        let mut r = BitReader::new(payload, size_bits);
        let enc = BdiEncoding::from_tag(r.read(4) as u8).ok_or(DecodeError::UnknownTag)?;
        // The caller's buffer may hold stale bytes; the zero-run and
        // masked-delta arms rely on a zeroed canvas.
        out.fill(0);
        match enc {
            BdiEncoding::Zeros => {}
            BdiEncoding::Repeat => {
                let v = r.read(64).to_le_bytes();
                for chunk in out.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&v);
                }
            }
            // Verbatim blocks travel with the coded flag clear; no
            // encoder writes this tag into a coded stream.
            BdiEncoding::Uncompressed => return Err(DecodeError::UnknownTag),
            BdiEncoding::B8D1 => decode_base_delta::<8, 1>(&mut r, out),
            BdiEncoding::B8D2 => decode_base_delta::<8, 2>(&mut r, out),
            BdiEncoding::B8D4 => decode_base_delta::<8, 4>(&mut r, out),
            BdiEncoding::B4D1 => decode_base_delta::<4, 1>(&mut r, out),
            BdiEncoding::B4D2 => decode_base_delta::<4, 2>(&mut r, out),
            BdiEncoding::B2D1 => decode_base_delta::<2, 1>(&mut r, out),
        }
        r.check()
    }

    /// Decodes the base + mask + delta section of one `BASE`/`DELTA` geometry
    /// into `out` (the tag has already been consumed).
    ///
    /// Monomorphised per arm so the value count, the batch width and every
    /// shift and mask below are compile-time constants: deltas arrive in full
    /// 64-bit reader fetches (the value count is always a multiple of the
    /// per-fetch batch) and the fixed-trip inner loop unrolls into straight
    /// shift/add/store code — the decode twin of the delta groups
    /// [`Arm::encode`] puts.
    fn decode_base_delta<const BASE: usize, const DELTA: usize>(
        r: &mut BitReader<'_>,
        out: &mut Block,
    ) {
        let n = BLOCK_BYTES / BASE;
        let dbits = DELTA as u32 * 8;
        let per_read = (64 / dbits) as usize;
        debug_assert_eq!(n % per_read, 0, "every BDI geometry batches evenly");
        let dmask = mask_for(DELTA);
        let wmask = mask_for(BASE);
        let base = r.read(BASE as u32 * 8);
        // n <= 64, so the whole mask is one bitmap read.
        let mask = r.read(n as u32);
        for chunk in 0..n / per_read {
            let raw = r.read(per_read as u32 * dbits);
            for t in 0..per_read {
                let idx = chunk * per_read + t;
                let v_raw = (raw >> ((per_read - 1 - t) as u32 * dbits)) & dmask;
                let delta = sign_extend(v_raw, DELTA);
                let b = if (mask >> (n - 1 - idx)) & 1 == 1 { base } else { 0 };
                let v = b.wrapping_add(delta as u64) & wmask;
                out[idx * BASE..(idx + 1) * BASE].copy_from_slice(&v.to_le_bytes()[..BASE]);
            }
        }
    }

    fn sign_extend(raw: u64, bytes: usize) -> i64 {
        let shift = 64 - bytes as u32 * 8;
        ((raw << shift) as i64) >> shift
    }

    /// Both decoders on one input: the same `Result`, and the same block
    /// on `Ok` (on `Err` the block is unspecified).
    fn assert_decoders_agree(size_bits: u32, compressed: bool, payload: &[u8]) {
        let (mut got, mut want) = ([0xa5u8; BLOCK_BYTES], [0x5au8; BLOCK_BYTES]);
        let got_result = Bdi::new().decompress_into(size_bits, compressed, payload, &mut got);
        let want_result = bit_reader_decompress_into(size_bits, compressed, payload, &mut want);
        assert_eq!(got_result, want_result, "size_bits {size_bits}, payload {payload:02x?}");
        if got_result.is_ok() {
            assert_eq!(got, want, "size_bits {size_bits}, payload {payload:02x?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn prop_fixed_offsets_decode_like_the_bit_reader(block in structured()) {
            let (bits, coded, payload) = encode(&Bdi::new(), &block);
            assert_decoders_agree(bits, coded, &payload);
        }

        #[test]
        fn prop_fixed_offsets_reject_like_the_bit_reader(
            tag in 0u8..16,
            size_bits in 0u32..=1100,
            len in 0usize..81,
            noise in proptest::collection::vec(any::<u8>(), 80),
        ) {
            let mut payload = noise;
            payload[0] = (tag << 4) | (payload[0] & 0x0f);
            // The payload cut to `len` bytes, and whole: every encoding
            // fits 80 bytes, so the whole one decodes noise as the tag's
            // encoding whenever `size_bits` covers it.
            assert_decoders_agree(size_bits, true, &payload[..len]);
            assert_decoders_agree(size_bits, true, &payload);
        }
    }
}
