//! Bit-granular stream writer/reader used by the codecs in this crate.
//!
//! Bits are packed MSB-first within each byte, which mirrors how a hardware
//! shifter would serialise variable-length codewords onto a bus and keeps
//! the packed streams byte-comparable across codecs.
//!
//! # Performance
//!
//! Both halves work a machine word at a time instead of bit-by-bit:
//!
//! * [`BitWriter`] serialises every codec but E2MC (whose ways
//!   [`write_ways`](crate::e2mc::SymbolTable::write_ways) packs) and BDI
//!   (whose fixed-length fields go straight to their offsets): it
//!   borrows the caller's `Vec<u8>` sink and stages pending bits in a
//!   128-bit register. A write of any width up to 64 is one shift and
//!   OR; only when 64 bits are pending does it append one big-endian
//!   8-byte word to the sink. So the sink is touched once per 64 bits
//!   written, never past the stream's end, and the writer has no buffer
//!   of its own.
//! * [`BitReader`] serves a `read`/`peek` whose bits lie inside one
//!   8-byte big-endian load (bit offset in its byte plus width at most
//!   64: every field up to 57 bits, and a 64-bit one on a byte boundary)
//!   with that load, a shift and a mask. A misaligned field wider than
//!   that spans 9 bytes and goes through a 16-byte window filled by a
//!   variable-length copy, which costs several times as much. It never
//!   fails mid-stream: a read past the end yields zeros and latches a
//!   flag the decoder checks once per block ([`BitReader::check`]).
//!
//! The hot-path argument checks in [`BitWriter::write`] are
//! `debug_assert!`s: release builds trust the codecs (every call site
//! masks its value to `width` bits), debug builds and the test suite keep
//! the guard rails.

use crate::{store_verbatim, Block, DecodeError, BLOCK_BITS, BLOCK_BYTES};

/// Append-only bit writer over a caller-supplied sink.
///
/// Bits go onto the end of the borrowed `Vec<u8>` in whole 8-byte words;
/// whatever the sink already holds is left untouched. Fewer than 64 bits
/// are pending between writes. [`finish`](Self::finish) appends them,
/// zero-padded to a whole byte, and returns the bit length, so a writer
/// must always be finished: a dropped one loses its pending bits.
///
/// ```
/// use slc_compress::bitstream::{BitWriter, BitReader};
///
/// let mut bytes = Vec::new();
/// let mut w = BitWriter::new(&mut bytes);
/// w.write(0b101, 3);
/// w.write(0xABCD, 16);
/// let len = w.finish();
/// assert_eq!(len, 19);
/// let mut r = BitReader::new(&bytes, len);
/// assert_eq!(r.read(3), 0b101);
/// assert_eq!(r.read(16), 0xABCD);
/// ```
#[derive(Debug)]
pub struct BitWriter<'a> {
    sink: &'a mut Vec<u8>,
    /// Sink length at construction; the stream's bit 0 lives here.
    start: usize,
    /// Staging register: the low `pending` bits are output not yet in the
    /// sink, MSB-first (the oldest is the highest of them). Bits above
    /// those are stale and never read.
    acc: u128,
    /// Number of pending bits in `acc` (always `< 64` between calls).
    pending: u32,
}

impl<'a> BitWriter<'a> {
    /// Creates a writer appending to `sink`.
    pub fn new(sink: &'a mut Vec<u8>) -> Self {
        let start = sink.len();
        Self { sink, start, acc: 0, pending: 0 }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> u32 {
        (self.sink.len() - self.start) as u32 * 8 + self.pending
    }

    /// Appends the `width` low-order bits of `value`, MSB first.
    ///
    /// # Invariants
    ///
    /// `width` must be `<= 64` and `value` must fit in `width` bits; both
    /// are checked with `debug_assert!` only, since every codec call site
    /// masks its values. Note that for `width == 64` every `u64` fits, so
    /// the value check applies only to `width < 64` (`(1u64 << 64)` would
    /// overflow — the guard must never be written as a single shift).
    /// Release builds additionally mask `value` to `width` bits, so a
    /// contract violation corrupts at most its own field, never the
    /// pending bits of earlier writes.
    #[inline]
    pub fn write(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64, "width {width} exceeds 64");
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        // At most 63 + 64 bits are pending here, so nothing is lost off
        // the top of the register.
        self.acc = (self.acc << width) | (u128::from(value) & ((1u128 << width) - 1));
        self.pending += width;
        if self.pending >= 64 {
            self.pending -= 64;
            self.sink.extend_from_slice(&((self.acc >> self.pending) as u64).to_be_bytes());
        }
    }

    /// Appends the pending bits, zero-padded to a whole byte, and returns
    /// the stream's length in bits.
    pub fn finish(self) -> u32 {
        let bits = self.len_bits();
        // Left-aligns the pending bits in a u64 (no bits at all when none
        // are pending).
        let tail = ((self.acc << (64 - self.pending)) as u64).to_be_bytes();
        self.sink.extend_from_slice(&tail[..self.pending.div_ceil(8) as usize]);
        bits
    }

    /// [`finish`](Self::finish) for a block encode, returning
    /// `(size_bits, is_compressed)`: a stream that does not beat the
    /// verbatim `block` is replaced by it (the "store uncompressed" leg
    /// of the paper's Figure 4, decided here once for every codec).
    pub(crate) fn finish_block(self, block: &Block) -> (u32, bool) {
        if self.len_bits() >= BLOCK_BITS {
            self.sink.truncate(self.start);
            return store_verbatim(block, self.sink);
        }
        (self.finish(), true)
    }
}

/// Sequential bit reader over a packed stream, trusted or not.
///
/// The reader is total: [`read`](Self::read) and [`skip`](Self::skip)
/// past the end of the stream yield zeros, leave the cursor where it is
/// and latch a sticky overrun flag instead of failing on the spot. A
/// decoder runs its fixed-trip block loop with no error handling of its
/// own per read and asks [`check`](Self::check) once when it is done.
/// (The one rarely-taken compare per read is the old bounds assert's;
/// written as two selects instead it measured 5 % slower.)
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len_bits: u32,
    pos: u32,
    overrun: bool,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over the first `len_bits` bits of `bytes`. A
    /// slice too short to hold that many is read as the truncated stream
    /// it is: the bits it lacks are past the end.
    pub fn new(bytes: &'a [u8], len_bits: u32) -> Self {
        let held = u32::try_from(bytes.len().saturating_mul(8)).unwrap_or(u32::MAX);
        Self { bytes, len_bits: len_bits.min(held), pos: 0, overrun: false }
    }

    /// Number of unread bits.
    pub fn remaining(&self) -> u32 {
        self.len_bits - self.pos
    }

    /// Loads `width <= 64` bits starting at bit `pos`; bytes past the end
    /// of the slice read as zero.
    ///
    /// Fast path: `offset + width <= 64` (always true for `width <= 57`)
    /// is one 8-byte big-endian load plus a shift; only wider misaligned
    /// reads pay for a 16-byte window.
    #[inline]
    fn window(&self, pos: u32, width: u32) -> u64 {
        let start = (pos / 8) as usize;
        let offset = pos % 8;
        let span = offset + width;
        if span <= 64 {
            let word = if start + 8 <= self.bytes.len() {
                let mut w = [0u8; 8];
                w.copy_from_slice(&self.bytes[start..start + 8]);
                u64::from_be_bytes(w)
            } else {
                let mut buf = [0u8; 8];
                let avail = self.bytes.len() - start;
                buf[..avail].copy_from_slice(&self.bytes[start..]);
                u64::from_be_bytes(buf)
            };
            let shifted = word >> (64 - span);
            if width == 64 {
                shifted
            } else {
                shifted & ((1u64 << width) - 1)
            }
        } else {
            let mut buf = [0u8; 16];
            let end = self.bytes.len().min(start + 16);
            buf[..end - start].copy_from_slice(&self.bytes[start..end]);
            let window = u128::from_be_bytes(buf);
            // offset <= 7 and width <= 64, so the shift is >= 57 and the
            // result fits in 64 bits after masking.
            let shifted = (window >> (128 - span)) as u64;
            if width == 64 {
                shifted
            } else {
                shifted & ((1u64 << width) - 1)
            }
        }
    }

    /// Reads `width` bits MSB-first. With fewer than `width` bits left
    /// it returns 0, does not advance and latches the overrun flag.
    pub fn read(&mut self, width: u32) -> u64 {
        // Width is a compile-time constant at every call site.
        debug_assert!(width <= 64);
        if width == 0 {
            return 0;
        }
        if width > self.remaining() {
            self.overrun = true;
            return 0;
        }
        let out = self.window(self.pos, width);
        self.pos += width;
        out
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> bool {
        self.read(1) == 1
    }

    /// Peeks up to `width` bits without advancing, zero-padding past the end.
    ///
    /// This is the lookup-window primitive a table-driven Huffman decoder
    /// uses: near the end of the stream the window is padded with zeros.
    pub fn peek_padded(&self, width: u32) -> u64 {
        // Width is a compile-time constant at every call site.
        debug_assert!(width <= 57, "peek window limited to 57 bits");
        if width == 0 {
            return 0;
        }
        // Bits past `len_bits` must read as zero even when the backing
        // slice carries data there, so load only the valid span and pad.
        let take = width.min(self.remaining());
        if take == 0 {
            return 0;
        }
        self.window(self.pos, take) << (width - take)
    }

    /// Overwrites `copy` with the whole stream followed by zeros and
    /// returns the stream's length in bits, for decoders that keep several
    /// cursors of their own (E2MC's way decoder): any 8-byte load at a
    /// byte offset `<= BLOCK_BYTES` stays inside the copy, and every bit
    /// past the stream's end — slack in the last byte, whatever follows it
    /// in the backing slice — reads as zero. Block streams are at most
    /// [`BLOCK_BITS`] long; a longer one is cut there.
    pub fn pad_into<const N: usize>(&self, copy: &mut [u8; N]) -> u32 {
        const { assert!(N >= BLOCK_BYTES + 8) };
        *copy = [0; N];
        let bits = self.len_bits.min(BLOCK_BITS);
        let (whole, slack) = ((bits / 8) as usize, bits % 8);
        copy[..whole].copy_from_slice(&self.bytes[..whole]);
        if slack > 0 {
            copy[whole] = self.bytes[whole] & !(0xff >> slack);
        }
        self.len_bits
    }

    /// Advances the cursor by `width` bits (used together with
    /// [`peek_padded`](Self::peek_padded)). With fewer than `width` bits
    /// left it does not advance and latches the overrun flag.
    pub fn skip(&mut self, width: u32) {
        if width > self.remaining() {
            self.overrun = true;
            return;
        }
        self.pos += width;
    }

    /// `Err` if any [`read`](Self::read) or [`skip`](Self::skip) so far
    /// ran past the end of the stream — everything decoded since then
    /// came from zeros, not from the wire.
    pub fn check(&self) -> Result<(), DecodeError> {
        if self.overrun {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write(1, 1);
        w.write(0, 2);
        w.write(0b1011, 4);
        w.write(0xdead_beef, 32);
        w.write(0x3ff, 10);
        let len = w.finish();
        assert_eq!(len, 49);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(1), 1);
        assert_eq!(r.read(2), 0);
        assert_eq!(r.read(4), 0b1011);
        assert_eq!(r.read(32), 0xdead_beef);
        assert_eq!(r.read(10), 0x3ff);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write(0, 0);
        w.write(0b11, 2);
        w.write(0, 0);
        let len = w.finish();
        assert_eq!(len, 2);
        assert_eq!(bytes, vec![0b1100_0000]);
    }

    #[test]
    fn full_width_64_bit_writes_roundtrip() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write(1, 1);
        w.write(u64::MAX, 64);
        w.write(0, 64);
        w.write(0x0123_4567_89ab_cdef, 64);
        let len = w.finish();
        assert_eq!(len, 193);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(1), 1);
        assert_eq!(r.read(64), u64::MAX);
        assert_eq!(r.read(64), 0);
        assert_eq!(r.read(64), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn peek_padded_pads_with_zeros() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write(0b1, 1);
        let len = w.finish();
        let r = BitReader::new(&bytes, len);
        assert_eq!(r.peek_padded(4), 0b1000);
    }

    #[test]
    fn peek_padded_ignores_slack_bytes_past_len() {
        // The backing slice carries set bits beyond len_bits; the padded
        // window must still read them as zero.
        let bytes = [0xffu8, 0xff];
        let r = BitReader::new(&bytes, 3);
        assert_eq!(r.peek_padded(8), 0b1110_0000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit")]
    fn write_rejects_oversized_value() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write(4, 2);
    }

    #[test]
    fn read_past_end_yields_zeros_and_latches_overrun() {
        // 16 bits declared, 8 held: the second byte is past the end for
        // every primitive, and nothing indexes past the slice.
        let bytes = [0xabu8];
        let mut r = BitReader::new(&bytes, 16);
        assert_eq!(r.peek_padded(16), 0xab00);
        let mut copy = [0xffu8; BLOCK_BYTES + 8];
        assert_eq!((r.pad_into(&mut copy), &copy[..2]), (8, &[0xab, 0][..]));
        assert_eq!(r.read(5), 0x15);
        assert_eq!(r.check(), Ok(()));
        // Three bits left: a wider read gets zeros and stays put, as does
        // a wider skip; the flag outlives the reads that do fit.
        assert_eq!((r.read(4), r.remaining()), (0, 3));
        assert_eq!(r.check(), Err(DecodeError::Truncated));
        assert_eq!(r.read(3), 0b011);
        assert_eq!(r.check(), Err(DecodeError::Truncated));
        let mut r = BitReader::new(&bytes, 8);
        r.skip(9);
        assert_eq!((r.remaining(), r.check()), (8, Err(DecodeError::Truncated)));
    }

    /// The reference serialiser: appends `fields` to `prefix` one bit at a
    /// time, MSB-first, zero-padding the last byte.
    fn bit_at_a_time(prefix: &[u8], fields: &[(u64, u32)]) -> (Vec<u8>, u32) {
        let mut bytes = prefix.to_vec();
        let mut bits = 0u32;
        for &(value, width) in fields {
            for i in (0..width).rev() {
                if bits.is_multiple_of(8) {
                    bytes.push(0);
                }
                let last = bytes.last_mut().expect("a byte was pushed above");
                *last |= (((value >> i) & 1) as u8) << (7 - bits % 8);
                bits += 1;
            }
        }
        (bytes, bits)
    }

    proptest! {
        #[test]
        fn prop_matches_a_bit_at_a_time_writer(
            prefix in proptest::collection::vec(any::<u8>(), 0..12),
            fields in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..48),
        ) {
            // Widths 0 and 64 are in range, and a non-empty prefix checks
            // that the writer only appends.
            let fields: Vec<(u64, u32)> = fields
                .into_iter()
                .map(|(v, width)| (if width == 64 { v } else { v & ((1u64 << width) - 1) }, width))
                .collect();
            let mut bytes = prefix.clone();
            let mut w = BitWriter::new(&mut bytes);
            for &(v, width) in &fields {
                w.write(v, width);
            }
            let len = w.finish();
            let (expect, expect_len) = bit_at_a_time(&prefix, &fields);
            prop_assert_eq!(len, expect_len);
            prop_assert_eq!(bytes, expect);
        }

        #[test]
        fn prop_roundtrip(fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..64)) {
            let mut bytes = Vec::new();
            let mut w = BitWriter::new(&mut bytes);
            let mut expect = Vec::new();
            for &(v, width) in &fields {
                let masked = if width == 64 { v } else { v & ((1u64 << width) - 1) };
                w.write(masked, width);
                expect.push((masked, width));
            }
            let total: u32 = fields.iter().map(|&(_, w)| w).sum();
            let len = w.finish();
            prop_assert_eq!(len, total);
            let mut r = BitReader::new(&bytes, len);
            for (v, width) in expect {
                prop_assert_eq!(r.read(width), v);
            }
        }

        #[test]
        fn prop_peek_matches_read(data in proptest::collection::vec(any::<u8>(), 1..32), win in 1u32..32) {
            let len = (data.len() * 8) as u32;
            let mut r = BitReader::new(&data, len);
            let peeked = r.peek_padded(win.min(57));
            let take = win.min(len);
            let read = r.read(take) << (win - take);
            prop_assert_eq!(peeked, read);
        }
    }
}
