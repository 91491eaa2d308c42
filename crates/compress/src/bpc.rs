//! Bit-Plane Compression (BPC).
//!
//! Kim et al., "Bit-Plane Compression: Transforming Data for Better
//! Compression in Many-core Architectures", ISCA 2016. The SLC paper argues
//! qualitatively (Section II-A) that BPC also suffers from MAG because its
//! run-length and frequent-pattern encodings exploit the same patterns as
//! FPC/C-PACK; this implementation lets us check that claim quantitatively.
//!
//! Pipeline: delta transform over the 32 words of a block, bit-plane
//! rotation of the 31 deltas (33-bit signed), XOR of adjacent planes (DBX),
//! then per-plane pattern encoding. The exact code table below follows the
//! structure of the original (zero-run / all-zero / all-one / single-one /
//! two-consecutive-ones / raw); code assignments are this crate's own
//! prefix-free set, documented per symbol.

use crate::bitstream::{BitReader, BitWriter};
use crate::symbols::{block_to_words, words_to_block, WORDS_PER_BLOCK};
use crate::{load_verbatim, Block, BlockCompressor, CodecId, DecodeError};

/// Number of deltas per block (words - 1).
const DELTAS: usize = WORDS_PER_BLOCK - 1;

/// Number of bit planes: 33 (a delta of two 32-bit words needs 33 bits).
const PLANES: usize = 33;

/// The BPC block compressor.
///
/// ```
/// use slc_compress::{BlockCompressor, bpc::Bpc};
///
/// let bpc = Bpc::new();
/// // A linear ramp has constant deltas: all DBX planes collapse.
/// let mut block = [0u8; 128];
/// for i in 0..32 {
///     block[i * 4..i * 4 + 4].copy_from_slice(&(100 + 3 * i as u32).to_le_bytes());
/// }
/// let c = bpc.compress(&block);
/// assert!(c.size_bits() < 128);
/// assert_eq!(bpc.decompress(&c), block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Bpc {
    _private: (),
}

impl Bpc {
    /// Creates a BPC codec.
    pub fn new() -> Self {
        Self::default()
    }
}

/// In-place 32×32 bit-matrix transpose (Hacker's Delight §7-3): 5 swap
/// rounds of 32-bit ops instead of the naive 32×32 single-bit walk.
fn transpose32(a: &mut [u32; 32]) {
    let mut j = 16u32;
    let mut m = 0x0000_ffffu32;
    while j != 0 {
        let mut k = 0usize;
        while k < 32 {
            let t = (a[k] ^ (a[k + j as usize] >> j)) & m;
            a[k] ^= t;
            a[k + j as usize] ^= t << j;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Computes the 31-bit DBP planes (bit `j` of plane `k` = bit `k` of
/// delta `j`) followed by the DBX transform.
///
/// The bit-plane rotation is a bit-matrix transpose: planes 0..32 come
/// from one [`transpose32`] over the deltas' low words (the row/bit
/// reversals below adapt the transpose's MSB-first orientation), and the
/// 33rd plane gathers the sign bits directly.
fn dbx_planes(words: &[u32; WORDS_PER_BLOCK]) -> [u32; PLANES] {
    let mut deltas = [0i64; DELTAS];
    for i in 0..DELTAS {
        deltas[i] = words[i + 1] as i64 - words[i] as i64;
    }
    let mut m = [0u32; 32];
    for (j, &d) in deltas.iter().enumerate() {
        m[31 - j] = d as u32;
    }
    transpose32(&mut m);
    let mut dbp = [0u32; PLANES];
    for k in 0..32 {
        dbp[k] = m[31 - k];
    }
    let mut top = 0u32;
    for (j, &d) in deltas.iter().enumerate() {
        top |= (((d >> 32) & 1) as u32) << j;
    }
    dbp[PLANES - 1] = top;
    let mut dbx = [0u32; PLANES];
    dbx[PLANES - 1] = dbp[PLANES - 1];
    for k in 0..PLANES - 1 {
        dbx[k] = dbp[k] ^ dbp[k + 1];
    }
    dbx
}

/// Inverts [`dbx_planes`]: reconstructs the words from base + planes.
fn undo_dbx(base: u32, dbx: &[u32; PLANES]) -> [u32; WORDS_PER_BLOCK] {
    let mut dbp = [0u32; PLANES];
    dbp[PLANES - 1] = dbx[PLANES - 1];
    for k in (0..PLANES - 1).rev() {
        dbp[k] = dbx[k] ^ dbp[k + 1];
    }
    // Transpose the 32 low planes back into the deltas' low words; bit 32
    // comes from the top plane and sign-extends the rest.
    let mut m = [0u32; 32];
    for (k, &plane) in dbp[..32].iter().enumerate() {
        m[31 - k] = plane;
    }
    transpose32(&mut m);
    let mut words = [0u32; WORDS_PER_BLOCK];
    words[0] = base;
    for j in 0..DELTAS {
        let low = m[31 - j] as u64;
        let bit32 = ((dbp[PLANES - 1] >> j) & 1) as u64;
        let d = ((bit32 << 32) | low) as i64;
        // Sign-extend from bit 32.
        let d = (d << (64 - PLANES)) >> (64 - PLANES);
        words[j + 1] = (words[j] as i64 + d) as u32;
    }
    words
}

const PLANE_MASK: u32 = (1u32 << DELTAS) - 1;

fn write_plane_run(w: &mut BitWriter<'_>, run: u32) {
    if run == 1 {
        w.write(0b01, 2); // single all-zero plane
    } else {
        // Zero-run of 2..=33 planes: '001' + 5-bit length, one write.
        w.write(u64::from((0b001 << 5) | (run - 2)), 8);
    }
}

impl BlockCompressor for Bpc {
    fn id(&self) -> CodecId {
        CodecId::Bpc
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        let words = block_to_words(block);
        let dbx = dbx_planes(&words);
        let mut w = BitWriter::new(out);
        // Base word: '00' zero | '01' + 16 LSBs when upper half zero | '1' + raw.
        let base = words[0];
        if base == 0 {
            w.write(0b00, 2);
        } else if base <= 0xffff {
            w.write((0b01 << 16) | base as u64, 18);
        } else {
            w.write((1 << 32) | base as u64, 33);
        }
        let mut k = 0;
        while k < PLANES {
            let plane = dbx[k];
            if plane == 0 {
                let mut run = 1;
                while k + run < PLANES && dbx[k + run] == 0 && run < PLANES {
                    run += 1;
                }
                write_plane_run(&mut w, run as u32);
                k += run;
                continue;
            }
            if plane == PLANE_MASK {
                w.write(0b0001, 4);
            } else if plane.count_ones() == 1 {
                w.write(u64::from((0b00001 << 5) | plane.trailing_zeros()), 10);
            } else if plane.count_ones() == 2 && (plane >> plane.trailing_zeros()) == 0b11 {
                w.write(u64::from((0b000001 << 5) | plane.trailing_zeros()), 11);
            } else {
                w.write((1 << DELTAS) | u64::from(plane), 1 + DELTAS as u32);
            }
            k += 1;
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
        let base = if r.read_bit() {
            r.read(32) as u32
        } else if r.read_bit() {
            r.read(16) as u32
        } else {
            0
        };
        let mut dbx = [0u32; PLANES];
        let mut k = 0;
        while k < PLANES {
            // One 6-bit peek resolves any prefix; one read then fetches
            // prefix + payload together.
            let p = r.peek_padded(6) as u32;
            if p & 0b100000 != 0 {
                // '1' + raw plane
                dbx[k] = r.read(1 + DELTAS as u32) as u32 & PLANE_MASK;
                k += 1;
            } else if p & 0b010000 != 0 {
                // '01': single zero plane
                r.skip(2);
                k += 1;
            } else if p & 0b001000 != 0 {
                // '001' + 5: zero run
                let run = (r.read(8) as usize & 0x1f) + 2;
                k += run;
            } else if p & 0b000100 != 0 {
                // '0001': all ones
                r.skip(4);
                dbx[k] = PLANE_MASK;
                k += 1;
            } else if p & 0b000010 != 0 {
                // '00001' + 5: single one
                let pos = r.read(10) as u32 & 0x1f;
                dbx[k] = 1 << pos;
                k += 1;
            } else if p & 0b000001 != 0 {
                // '000001' + 5: two consecutive ones
                let pos = r.read(11) as u32 & 0x1f;
                dbx[k] = 0b11 << pos;
                k += 1;
            } else {
                // Prefix 000000 is unassigned — and what the zero
                // padding past a truncated stream reads as.
                return Err(DecodeError::UnknownTag);
            }
        }
        *out = words_to_block(&undo_dbx(base, &dbx));
        r.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn zero_block_is_tiny() {
        let bpc = Bpc::new();
        let c = bpc.compress(&[0u8; BLOCK_BYTES]);
        // base '00' + one zero-run of 33 planes (3 + 5 bits) = 10 bits.
        assert_eq!(c.size_bits(), 10);
        assert_eq!(bpc.decompress(&c), [0u8; BLOCK_BYTES]);
    }

    #[test]
    fn linear_ramp_collapses() {
        let bpc = Bpc::new();
        let block = block_from_u32s(|i| 1_000_000 + 17 * i as u32);
        let c = bpc.compress(&block);
        assert!(c.size_bits() < 128, "ramp should collapse, got {} bits", c.size_bits());
        assert_eq!(bpc.decompress(&c), block);
    }

    #[test]
    fn negative_deltas_roundtrip() {
        let bpc = Bpc::new();
        let block = block_from_u32s(|i| 5_000_000u32.wrapping_sub(123 * i as u32));
        let c = bpc.compress(&block);
        assert_eq!(bpc.decompress(&c), block);
    }

    #[test]
    fn wrapping_word_values_roundtrip() {
        let bpc = Bpc::new();
        let block = block_from_u32s(|i| if i % 2 == 0 { u32::MAX } else { 0 });
        let c = bpc.compress(&block);
        assert_eq!(bpc.decompress(&c), block);
    }

    #[test]
    fn random_block_falls_back_to_raw() {
        let bpc = Bpc::new();
        let mut block = [0u8; BLOCK_BYTES];
        let mut state = 42u64;
        for b in block.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 48) as u8;
        }
        let c = bpc.compress(&block);
        assert_eq!(bpc.decompress(&c), block);
        // 33 mostly-raw planes exceed the block size.
        assert_eq!(c.size_bits(), BLOCK_BITS);
    }

    #[test]
    fn two_consecutive_ones_plane_roundtrips() {
        // Regression: the '000001' code's decoder must consume its full
        // 6-bit prefix. Craft deltas so one DBX plane is exactly two
        // adjacent ones: words 0,1,3,1,1,... gives deltas +1,+2,-2,0,...
        let bpc = Bpc::new();
        let mut block = [0u8; BLOCK_BYTES];
        let words: Vec<u32> = (0..WORDS_PER_BLOCK as u32)
            .map(|i| match i {
                0 => 0,
                1 => 1,
                2 => 3,
                _ => 1,
            })
            .collect();
        for (i, w) in words.iter().enumerate() {
            block[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        let c = bpc.compress(&block);
        assert_eq!(bpc.decompress(&c), block);
    }

    #[test]
    fn dbx_is_involutive() {
        let words = {
            let mut w = [0u32; WORDS_PER_BLOCK];
            for (i, v) in w.iter_mut().enumerate() {
                *v = (i as u32).wrapping_mul(0x9e37_79b9);
            }
            w
        };
        let dbx = dbx_planes(&words);
        assert_eq!(undo_dbx(words[0], &dbx), words);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_random(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let bpc = Bpc::new();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert_eq!(bpc.decompress(&bpc.compress(&block)), block);
        }

        #[test]
        fn prop_roundtrip_smooth(start in any::<u32>(), step in 0u32..1024,
                                 noise in proptest::collection::vec(0u32..4, WORDS_PER_BLOCK)) {
            let bpc = Bpc::new();
            let mut block = [0u8; BLOCK_BYTES];
            for i in 0..WORDS_PER_BLOCK {
                let v = start.wrapping_add(step * i as u32).wrapping_add(noise[i]);
                block[i*4..i*4+4].copy_from_slice(&v.to_le_bytes());
            }
            let c = bpc.compress(&block);
            prop_assert_eq!(bpc.decompress(&c), block);
        }

        #[test]
        fn prop_transform_roundtrip(words in proptest::collection::vec(any::<u32>(), WORDS_PER_BLOCK)) {
            let mut arr = [0u32; WORDS_PER_BLOCK];
            arr.copy_from_slice(&words);
            let dbx = dbx_planes(&arr);
            prop_assert_eq!(undo_dbx(arr[0], &dbx), arr);
        }
    }
}
