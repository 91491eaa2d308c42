//! The compressed-block header (paper Fig. 6).
//!
//! `| m | ss | len | pdp | compressed data`
//!
//! * `m` (1 bit) — compression mode: 0 lossless, 1 lossy.
//! * `ss` (6 bits, lossy only) — index of the first approximated symbol.
//! * `len` (4 bits, lossy only) — number of approximated symbols minus one
//!   ("the maximum number of approximated symbols is 16, thus we need
//!   4-bit").
//! * `pdp` ×3 — parallel decoding pointers for the 4 decoding ways. We
//!   store bit-granular 10-bit pointers (see [`slc_compress::e2mc::PDP_BITS`]).
//!
//! Uncompressed blocks carry **no header**: the metadata cache's burst
//! count already identifies them (4 bursts ⇒ verbatim).

use slc_compress::bitstream::{BitReader, BitWriter};
use slc_compress::e2mc::{PDP_BITS, WAYS};
use slc_compress::symbols::SYMBOLS_PER_BLOCK;
use slc_compress::DecodeError;

/// Header bits for a lossless block: `m` + 3 pdps.
pub const LOSSLESS_HEADER_BITS: u32 = 1 + (WAYS as u32 - 1) * PDP_BITS;

/// Header bits for a lossy block: `m` + `ss` + `len` + 3 pdps.
pub const LOSSY_HEADER_BITS: u32 = LOSSLESS_HEADER_BITS + 6 + 4;

/// Extra header cost the lossy mode pays over the lossless mode; the tree
/// selector must free these bits *in addition to* the extra bits.
pub const LOSSY_HEADER_DELTA: u32 = LOSSY_HEADER_BITS - LOSSLESS_HEADER_BITS;

/// Decoded form of the Fig. 6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlcHeader {
    /// Losslessly compressed block.
    Lossless {
        /// Bit offsets of ways 1..=3 within the data section.
        pdps: [u32; WAYS - 1],
    },
    /// Lossy block with symbols `ss .. ss + len` approximated away.
    Lossy {
        /// First approximated symbol index (0..64).
        ss: u8,
        /// Number of approximated symbols (1..=16).
        len: u8,
        /// Bit offsets of ways 1..=3 within the data section.
        pdps: [u32; WAYS - 1],
    },
}

impl SlcHeader {
    /// Size of this header on the wire.
    pub fn size_bits(&self) -> u32 {
        match self {
            SlcHeader::Lossless { .. } => LOSSLESS_HEADER_BITS,
            SlcHeader::Lossy { .. } => LOSSY_HEADER_BITS,
        }
    }

    /// Serialises the header.
    ///
    /// # Panics
    ///
    /// Panics if a lossy header's fields are out of range (`ss ≥ 64`,
    /// `len ∉ 1..=16`, or a pdp too wide).
    pub fn write(&self, w: &mut BitWriter<'_>) {
        match *self {
            SlcHeader::Lossless { pdps } => {
                w.write(0, 1);
                for p in pdps {
                    w.write(p as u64, PDP_BITS);
                }
            }
            SlcHeader::Lossy { ss, len, pdps } => {
                assert!((ss as usize) < SYMBOLS_PER_BLOCK, "ss {ss} out of range");
                assert!((1..=16).contains(&len), "len {len} out of range");
                w.write(1, 1);
                w.write(ss as u64, 6);
                w.write(len as u64 - 1, 4);
                for p in pdps {
                    w.write(p as u64, PDP_BITS);
                }
            }
        }
    }

    /// Deserialises a header from the start of a compressed block.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the stream is shorter than the
    /// header, [`DecodeError::BadLayout`] for a lossy header whose hole
    /// `ss .. ss + len` runs past the block — a header
    /// [`write`](Self::write) can serialise but no compressor produces.
    pub fn read(r: &mut BitReader<'_>) -> Result<Self, DecodeError> {
        let hole = if r.read_bit() {
            let ss = r.read(6) as u8;
            let len = r.read(4) as u8 + 1;
            if usize::from(ss) + usize::from(len) > SYMBOLS_PER_BLOCK {
                return Err(DecodeError::BadLayout);
            }
            Some((ss, len))
        } else {
            None
        };
        let mut pdps = [0u32; WAYS - 1];
        for p in pdps.iter_mut() {
            *p = r.read(PDP_BITS) as u32;
        }
        r.check()?;
        Ok(match hole {
            Some((ss, len)) => SlcHeader::Lossy { ss, len, pdps },
            None => SlcHeader::Lossless { pdps },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Writes `h` and reads back the first `bits` bits of it.
    fn read_back(h: SlcHeader, bits: u32) -> Result<SlcHeader, DecodeError> {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        h.write(&mut w);
        assert_eq!(w.len_bits(), h.size_bits());
        let written = w.finish();
        SlcHeader::read(&mut BitReader::new(&bytes, bits.min(written)))
    }

    fn roundtrip(h: SlcHeader) -> SlcHeader {
        read_back(h, u32::MAX).expect("a written header reads back")
    }

    #[test]
    fn lossless_header_roundtrips() {
        let h = SlcHeader::Lossless { pdps: [100, 200, 300] };
        assert_eq!(roundtrip(h), h);
        assert_eq!(h.size_bits(), 31);
    }

    #[test]
    fn lossy_header_roundtrips() {
        let h = SlcHeader::Lossy { ss: 42, len: 16, pdps: [1, 2, 1023] };
        assert_eq!(roundtrip(h), h);
        assert_eq!(h.size_bits(), 41);
    }

    #[test]
    fn len_encodes_one_to_sixteen_in_four_bits() {
        for len in 1..=16u8 {
            let h = SlcHeader::Lossy { ss: 0, len, pdps: [0; 3] };
            assert_eq!(roundtrip(h), h);
        }
    }

    #[test]
    #[should_panic(expected = "len")]
    fn zero_len_lossy_header_rejected() {
        let h = SlcHeader::Lossy { ss: 0, len: 0, pdps: [0; 3] };
        h.write(&mut BitWriter::new(&mut Vec::new()));
    }

    #[test]
    #[should_panic(expected = "ss")]
    fn out_of_range_ss_rejected() {
        let h = SlcHeader::Lossy { ss: 64, len: 1, pdps: [0; 3] };
        h.write(&mut BitWriter::new(&mut Vec::new()));
    }

    #[test]
    fn a_hole_running_past_the_block_is_rejected_at_read() {
        // Every (ss, len) the 6 + 4 header bits can express — all of
        // which `write` serialises: the hole must end inside the block.
        for ss in 0..SYMBOLS_PER_BLOCK as u8 {
            for len in 1..=16u8 {
                let h = SlcHeader::Lossy { ss, len, pdps: [7, 8, 9] };
                let fits = usize::from(ss) + usize::from(len) <= SYMBOLS_PER_BLOCK;
                let expect = if fits { Ok(h) } else { Err(DecodeError::BadLayout) };
                assert_eq!(read_back(h, u32::MAX), expect, "ss {ss} len {len}");
            }
        }
    }

    #[test]
    fn a_stream_shorter_than_its_header_is_truncated() {
        for h in [
            SlcHeader::Lossless { pdps: [100, 200, 300] },
            SlcHeader::Lossy { ss: 3, len: 4, pdps: [1, 2, 3] },
        ] {
            for cut in 0..h.size_bits() {
                assert_eq!(read_back(h, cut), Err(DecodeError::Truncated), "{h:?} cut to {cut}");
            }
        }
    }

    #[test]
    fn header_delta_is_ten_bits() {
        assert_eq!(LOSSY_HEADER_DELTA, 10);
    }

    proptest! {
        #[test]
        fn prop_header_roundtrip(ss in 0u8..64, len in 1u8..=16,
                                 pdps in proptest::array::uniform3(0u32..1024),
                                 lossy in any::<bool>()) {
            // `write` takes any in-range ss and len; `read` also wants
            // the hole to end inside the block.
            let ss = ss.min(SYMBOLS_PER_BLOCK as u8 - len);
            let h = if lossy {
                SlcHeader::Lossy { ss, len, pdps }
            } else {
                SlcHeader::Lossless { pdps }
            };
            prop_assert_eq!(roundtrip(h), h);
        }
    }
}
