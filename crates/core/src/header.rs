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
use std::ops::Range;

/// Header bits for a lossless block: `m` + 3 pdps.
pub const LOSSLESS_HEADER_BITS: u32 = 1 + (WAYS as u32 - 1) * PDP_BITS;

/// Header bits for a lossy block: `m` + `ss` + `len` + 3 pdps.
pub const LOSSY_HEADER_BITS: u32 = LOSSLESS_HEADER_BITS + 6 + 4;

/// Extra header cost the lossy mode pays over the lossless mode; the tree
/// selector must free these bits *in addition to* the extra bits.
pub const LOSSY_HEADER_DELTA: u32 = LOSSY_HEADER_BITS - LOSSLESS_HEADER_BITS;

/// The approximated run of a lossy block: 1 to 16 contiguous symbols (the
/// 4-bit `len`) that end inside the block. [`Hole::new`] is the only way
/// to make one, so every hole is one the header carries and the predictor fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hole {
    start: u8,
    len: u8,
}

impl Hole {
    /// The run of `len` symbols from `start`, or `None` when `len` is not
    /// in `1..=16` or the run ends past the block's 64 symbols.
    pub fn new(start: usize, len: usize) -> Option<Hole> {
        let fits = (1..=16).contains(&len) && start <= SYMBOLS_PER_BLOCK - len;
        fits.then_some(Hole { start: start as u8, len: len as u8 })
    }

    /// The symbol indices the hole covers.
    pub fn symbols(self) -> Range<usize> {
        usize::from(self.start)..usize::from(self.start + self.len)
    }
}

/// Decoded form of the Fig. 6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlcHeader {
    /// Losslessly compressed block.
    Lossless {
        /// Bit offsets of ways 1..=3 within the data section.
        pdps: [u32; WAYS - 1],
    },
    /// Lossy block with the symbols of `hole` approximated away.
    Lossy {
        /// The approximated symbols (`ss` and `len` on the wire).
        hole: Hole,
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
    pub fn write(&self, w: &mut BitWriter<'_>) {
        let pdps = match *self {
            SlcHeader::Lossless { pdps } => {
                w.write(0, 1);
                pdps
            }
            SlcHeader::Lossy { hole, pdps } => {
                w.write(1, 1);
                w.write(u64::from(hole.start), 6);
                w.write(u64::from(hole.len) - 1, 4);
                pdps
            }
        };
        for p in pdps {
            w.write(u64::from(p), PDP_BITS);
        }
    }

    /// Deserialises a header from the start of a compressed block.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the stream is shorter than the
    /// header, [`DecodeError::BadLayout`] for a lossy header whose
    /// `ss .. ss + len` is no [`Hole`]: it runs past the block.
    pub fn read(r: &mut BitReader<'_>) -> Result<Self, DecodeError> {
        let hole = if r.read_bit() {
            let ss = r.read(6) as usize;
            let len = r.read(4) as usize + 1;
            Some(Hole::new(ss, len).ok_or(DecodeError::BadLayout)?)
        } else {
            None
        };
        let mut pdps = [0u32; WAYS - 1];
        for p in pdps.iter_mut() {
            *p = r.read(PDP_BITS) as u32;
        }
        r.check()?;
        Ok(match hole {
            Some(hole) => SlcHeader::Lossy { hole, pdps },
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

    fn lossy(ss: usize, len: usize, pdps: [u32; WAYS - 1]) -> SlcHeader {
        SlcHeader::Lossy { hole: Hole::new(ss, len).expect("a hole"), pdps }
    }

    #[test]
    fn a_hole_is_one_to_sixteen_symbols_inside_the_block() {
        for start in 0..=80 {
            for len in 0..=20 {
                let fits = (1..=16).contains(&len) && start + len <= SYMBOLS_PER_BLOCK;
                let hole = Hole::new(start, len);
                assert_eq!(hole.is_some(), fits, "start {start} len {len}");
                if let Some(hole) = hole {
                    assert_eq!(hole.symbols(), start..start + len);
                }
            }
        }
    }

    #[test]
    fn lossless_header_roundtrips() {
        let h = SlcHeader::Lossless { pdps: [100, 200, 300] };
        assert_eq!(roundtrip(h), h);
        assert_eq!(h.size_bits(), 31);
    }

    #[test]
    fn lossy_header_roundtrips() {
        let h = lossy(42, 16, [1, 2, 1023]);
        assert_eq!(roundtrip(h), h);
        assert_eq!(h.size_bits(), 41);
    }

    #[test]
    fn len_encodes_one_to_sixteen_in_four_bits() {
        for len in 1..=16 {
            let h = lossy(0, len, [0; 3]);
            assert_eq!(roundtrip(h), h);
        }
    }

    #[test]
    fn a_hole_running_past_the_block_is_rejected_at_read() {
        // Every (ss, len) the 6 + 4 header bits can express, written by
        // hand: `read` accepts exactly the pairs that make a `Hole`.
        for ss in 0..SYMBOLS_PER_BLOCK {
            for len in 1..=16 {
                let mut bytes = Vec::new();
                let mut w = BitWriter::new(&mut bytes);
                w.write(1, 1);
                w.write(ss as u64, 6);
                w.write(len as u64 - 1, 4);
                for p in [7, 8, 9] {
                    w.write(p, PDP_BITS);
                }
                let bits = w.finish();
                let expect = match Hole::new(ss, len) {
                    Some(hole) => Ok(SlcHeader::Lossy { hole, pdps: [7, 8, 9] }),
                    None => Err(DecodeError::BadLayout),
                };
                let got = SlcHeader::read(&mut BitReader::new(&bytes, bits));
                assert_eq!(got, expect, "ss {ss} len {len}");
            }
        }
    }

    #[test]
    fn a_stream_shorter_than_its_header_is_truncated() {
        for h in [SlcHeader::Lossless { pdps: [100, 200, 300] }, lossy(3, 4, [1, 2, 3])] {
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
        fn prop_header_roundtrip(hole in (0usize..64, 1usize..=16).prop_map(|(ss, len)| {
                                     Hole::new(ss % (SYMBOLS_PER_BLOCK + 1 - len), len).expect("a hole")
                                 }),
                                 pdps in proptest::array::uniform3(0u32..1024),
                                 lossy in any::<bool>()) {
            let h = if lossy {
                SlcHeader::Lossy { hole, pdps }
            } else {
                SlcHeader::Lossless { pdps }
            };
            prop_assert_eq!(roundtrip(h), h);
        }
    }
}
