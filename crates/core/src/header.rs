//! SLC's fields of the compressed-block header (paper Fig. 6).
//!
//! `| m | ss | len | pdp | compressed data`
//!
//! * `m` (1 bit) — compression mode: 0 lossless, 1 lossy.
//! * `ss` (6 bits, lossy only) — index of the first approximated symbol.
//! * `len` (4 bits, lossy only) — number of approximated symbols minus one
//!   ("the maximum number of approximated symbols is 16, thus we need
//!   4-bit").
//!
//! These mode fields are all SLC adds to E2MC's block. The parallel
//! decoding pointers and the ways they point into are E2MC's, written by
//! [`SymbolTable::write_ways`](slc_compress::e2mc::SymbolTable::write_ways)
//! and read by [`SymbolTable::read_ways`](slc_compress::e2mc::SymbolTable::read_ways)
//! right after the mode fields, for both modes.
//!
//! Uncompressed blocks carry **no header**: the metadata cache's burst
//! count already identifies them (4 bursts ⇒ verbatim).

use slc_compress::bitstream::BitReader;
use slc_compress::e2mc::HEADER_BITS;
use slc_compress::symbols::SYMBOLS_PER_BLOCK;
use slc_compress::DecodeError;
use std::ops::Range;

/// Header bits for a lossy block: E2MC's header (`m` and the pdps) plus
/// `ss` and `len`.
pub const LOSSY_HEADER_BITS: u32 = HEADER_BITS + 6 + 4;

/// Extra header cost the lossy mode pays over the lossless mode; the tree
/// selector must free these bits *in addition to* the extra bits.
pub const LOSSY_HEADER_DELTA: u32 = LOSSY_HEADER_BITS - HEADER_BITS;

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

/// The mode fields as `(value, bits)`, the prefix
/// [`SymbolTable::write_ways`](slc_compress::e2mc::SymbolTable::write_ways)
/// puts before the pdps: `m = 0` for a lossless block, `m = 1`, `ss` and
/// `len` for one with `hole` approximated away.
pub fn prefix(hole: Option<Hole>) -> (u64, u32) {
    match hole {
        None => (0, 1),
        Some(hole) => (1 << 10 | u64::from(hole.start) << 4 | u64::from(hole.len - 1), 11),
    }
}

/// Reads the mode fields at the start of a compressed block: `None` for
/// a lossless block, the approximated [`Hole`] for a lossy one.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the stream ends inside the fields,
/// [`DecodeError::BadLayout`] when `ss .. ss + len` is no [`Hole`]: it
/// runs past the block.
pub fn read(r: &mut BitReader<'_>) -> Result<Option<Hole>, DecodeError> {
    let fields = r.read_bit().then(|| (r.read(6) as usize, r.read(4) as usize + 1));
    r.check()?;
    fields.map(|(ss, len)| Hole::new(ss, len).ok_or(DecodeError::BadLayout)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slc_compress::bitstream::BitWriter;

    /// Writes `hole`'s mode fields and reads back the first `bits` bits.
    fn read_back(hole: Option<Hole>, bits: u32) -> Result<Option<Hole>, DecodeError> {
        let (value, width) = prefix(hole);
        assert_eq!(width, if hole.is_some() { 11 } else { 1 });
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write(value, width);
        let written = w.finish();
        read(&mut BitReader::new(&bytes, bits.min(written)))
    }

    fn roundtrip(hole: Option<Hole>) -> Option<Hole> {
        read_back(hole, u32::MAX).expect("written mode fields read back")
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
        assert_eq!(prefix(None), (0, 1));
        assert_eq!(roundtrip(None), None);
    }

    #[test]
    fn lossy_header_roundtrips() {
        let hole = Hole::new(42, 16);
        assert_eq!(roundtrip(hole), hole);
    }

    #[test]
    fn len_encodes_one_to_sixteen_in_four_bits() {
        for len in 1..=16 {
            let hole = Hole::new(0, len);
            assert_eq!(roundtrip(hole), hole);
        }
    }

    #[test]
    fn a_hole_running_past_the_block_is_rejected_at_read() {
        // Every (ss, len) the 6 + 4 header bits can express, written by
        // hand: `read` accepts exactly the pairs that make a `Hole`, and
        // for those `prefix` is the same bits.
        for ss in 0..SYMBOLS_PER_BLOCK {
            for len in 1..=16 {
                let mut bytes = Vec::new();
                let mut w = BitWriter::new(&mut bytes);
                w.write(1, 1);
                w.write(ss as u64, 6);
                w.write(len as u64 - 1, 4);
                let bits = w.finish();
                let hole = Hole::new(ss, len);
                let got = read(&mut BitReader::new(&bytes, bits));
                assert_eq!(got, hole.map(Some).ok_or(DecodeError::BadLayout), "ss {ss} len {len}");
                if hole.is_some() {
                    let by_hand = (1 << 10 | (ss as u64) << 4 | (len as u64 - 1), 11);
                    assert_eq!(prefix(hole), by_hand, "ss {ss} len {len}");
                }
            }
        }
    }

    #[test]
    fn a_stream_shorter_than_its_header_is_truncated() {
        for hole in [None, Hole::new(3, 4), Hole::new(48, 16)] {
            let bits = if hole.is_some() { 11 } else { 1 };
            for cut in 0..bits {
                assert_eq!(
                    read_back(hole, cut),
                    Err(DecodeError::Truncated),
                    "{hole:?} cut to {cut}"
                );
            }
        }
    }

    #[test]
    fn header_delta_is_ten_bits() {
        assert_eq!(LOSSY_HEADER_DELTA, 10);
        assert_eq!(LOSSY_HEADER_BITS, 41);
    }

    proptest! {
        #[test]
        fn prop_header_roundtrip(hole in (0usize..64, 1usize..=16).prop_map(|(ss, len)| {
                                     Hole::new(ss % (SYMBOLS_PER_BLOCK + 1 - len), len)
                                 }),
                                 lossy in any::<bool>(), tail in any::<u64>()) {
            // What follows the mode fields is E2MC's: `read` consumes the
            // fields and not a bit more.
            let hole = hole.filter(|_| lossy);
            let mut bytes = Vec::new();
            let mut w = BitWriter::new(&mut bytes);
            let (value, width) = prefix(hole);
            w.write(value, width);
            w.write(tail, 64);
            let bits = w.finish();
            let mut r = BitReader::new(&bytes, bits);
            prop_assert_eq!(read(&mut r), Ok(hole));
            prop_assert_eq!(r.read(64), tail);
            prop_assert_eq!(r.check(), Ok(()));
        }
    }
}
