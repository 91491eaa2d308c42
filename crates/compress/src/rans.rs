//! Interleaved byte-oriented rANS entropy coding (order-0).
//!
//! The entropy substrate of the batch engine: a range Asymmetric Numeral
//! System over raw bytes, the scheme GPU entropy coders use for
//! numerical data (DietGPU's general byte-wise codec; see SNIPPETS §3).
//! Where the dictionary codecs (BDI/FPC/C-PACK) exploit *structure*, a
//! byte-oriented order-0 model exploits the skewed byte histograms of
//! floating-point tensors — exponent and high-mantissa bytes concentrate
//! on a handful of values — without any alignment or type assumptions,
//! which is exactly why it composes with GPU-style numerical data: the
//! model never needs to know where a float starts.
//!
//! # Coding parameters
//!
//! * **Frequency scale** — per-symbol frequencies are normalised to a
//!   [`RANS_SCALE`] = 2^12 total, the DietGPU/ryg sweet spot: a
//!   4096-slot decode table (symbol; frequency and slot offset: 20 KiB
//!   on the stack, two independent loads per symbol) and at most 12
//!   bits of state growth.
//! * **State** — 32-bit per-lane state `x ∈ [2^16, 2^32)` with 16-bit
//!   renormalisation. The interval ratio (`2^16`) times the scale
//!   (`2^12`) stays below the state ceiling, so **exactly zero or one**
//!   16-bit word moves per symbol on either side — renormalisation is a
//!   compare plus a conditionally-advanced cursor, never a loop, which
//!   is what keeps the inner loops branch-free (load/shift/mask only).
//! * **Interleave** — [`RANS_LANES`] = 4 independent states share one
//!   muxed word stream (lane of symbol `i` is `i mod 4`). The encoder
//!   runs backwards so the decoder consumes symbols and words strictly
//!   forwards; four in-flight states hide the serial multiply latency
//!   of a single rANS chain.
//! * **Division-free encode** — the per-symbol `x / freq` is the high
//!   half of one 64×64 multiply by `ceil(2^64 / freq)` (exact for every
//!   `x < 2^32`, `freq <= 4096`), read from one 32-byte entry per
//!   symbol, so the encode step is also multiply/shift/add only.
//!
//! # Stream layout
//!
//! ```text
//! [table][states][words]
//! table  := n-1 (u8) | n symbol bytes, ascending | n × 12-bit (freq-1)
//! states := RANS_LANES × u32 LE (final encoder states)
//! words  := 16-bit renormalisation words, LE, in decode order
//! ```
//!
//! The table is serialised sparsely (only present symbols) and
//! re-validated on parse: ascending symbols, frequencies summing to
//! exactly [`RANS_SCALE`]. Decode never reads out of bounds and never
//! panics — corrupt streams surface as a [`DecodeError`], at stream and
//! at block granularity alike.
//!
//! # Two coding granularities
//!
//! [`Rans`] implements [`BlockCompressor`] per 128 B block (each block
//! stream carries its own table), which is what the registry and the
//! hardening barrages exercise.
//! But the natural unit for an entropy coder is the engine *chunk*: one
//! frequency gather and one shared table amortised over all blocks of a
//! 64 KiB chunk. [`Rans`] therefore also implements
//! [`ChunkCoder`], and the engine routes whole
//! chunks through [`encode_stream`]/[`decode_stream`] — zero container
//! format changes, because a `Coded` chunk's byte interpretation belongs
//! to the codec named in the header.

use crate::bitstream::{BitReader, BitWriter};
use crate::codec::ChunkCoder;
use crate::{
    load_verbatim, store_verbatim, Block, BlockCompressor, CodecId, DecodeError, BLOCK_BYTES,
};

/// log2 of the frequency scale: frequencies are normalised to 2^12.
pub const RANS_SCALE_BITS: u32 = 12;

/// The frequency scale every serialised table sums to.
pub const RANS_SCALE: u32 = 1 << RANS_SCALE_BITS;

/// Number of interleaved coder lanes sharing one word stream.
pub const RANS_LANES: usize = 4;

/// Lower bound of the normalised state interval (16-bit renorm).
const RANS_L: u32 = 1 << 16;

/// Serialised size of the lane-state section.
const STATE_BYTES: usize = RANS_LANES * 4;

/// Normalises a byte histogram to frequencies summing to exactly
/// [`RANS_SCALE`]; `None` when every count is zero. Deterministic: every
/// present symbol gets `max(1, floor(count * SCALE / total))`, then the
/// rounding error is settled against the most frequent symbol(s), which
/// absorb it with the least ratio distortion.
pub fn normalize_freqs(counts: &[u32; 256]) -> Option<[u16; 256]> {
    let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    if total == 0 {
        return None;
    }
    let mut freq = [0u16; 256];
    let mut sum = 0u32;
    for (f, &c) in freq.iter_mut().zip(counts) {
        if c > 0 {
            *f = ((u64::from(c) * u64::from(RANS_SCALE) / total) as u16).max(1);
            sum += u32::from(*f);
        }
    }
    // Initial sum is within ±256 of the scale (≤ 4096 from the floors,
    // plus one per bumped-from-zero symbol); settle the difference
    // against the current largest frequency until exact.
    while sum > RANS_SCALE {
        let i = argmax(&freq);
        let take = (sum - RANS_SCALE).min(u32::from(freq[i]) - 1);
        freq[i] -= take as u16;
        sum -= take;
    }
    if sum < RANS_SCALE {
        let i = argmax(&freq);
        freq[i] += (RANS_SCALE - sum) as u16;
    }
    Some(freq)
}

/// First index of the largest frequency (deterministic tiebreak).
fn argmax(freq: &[u16; 256]) -> usize {
    let mut best = 0usize;
    for (i, &f) in freq.iter().enumerate() {
        if f > freq[best] {
            best = i;
        }
    }
    best
}

/// Four-way unrolled byte histogram (split counters avoid the
/// store-to-load dependency of a single table on streaky data).
fn histogram(data: &[u8]) -> [u32; 256] {
    let mut c = [[0u32; 256]; 4];
    let mut it = data.chunks_exact(4);
    for quad in &mut it {
        c[0][quad[0] as usize] += 1;
        c[1][quad[1] as usize] += 1;
        c[2][quad[2] as usize] += 1;
        c[3][quad[3] as usize] += 1;
    }
    for &b in it.remainder() {
        c[0][b as usize] += 1;
    }
    let mut out = [0u32; 256];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = c[0][i] + c[1][i] + c[2][i] + c[3][i];
    }
    out
}

/// One encoder entry per symbol, 32 bytes so one load brings all of it:
/// the `ceil(2^64 / freq)` reciprocal, the bias added to the state (the
/// cumulative start, see [`EncSym::new`]), the scale complement
/// `SCALE - freq` and the renormalisation bound `freq << 4`.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
struct EncSym {
    rcp: u64,
    bias: u32,
    cmpl: u32,
    bound: u32,
}

impl EncSym {
    /// The entry of a symbol of frequency `f` in `1..=RANS_SCALE` whose
    /// slots start at `cum`.
    fn new(f: u32, cum: u32) -> Self {
        let cmpl = RANS_SCALE - f;
        // ceil(2^64 / f) makes `x / f` the high half of one 64×64 multiply,
        // exact for every x < 2^32 because x * (ceil - 2^64/f) < 2^64 / f.
        // For f = 1 it is 2^64: u64::MAX makes the high half x - 1 instead,
        // and the bias puts the missing `cmpl` back.
        let (rcp, bias) =
            if f == 1 { (u64::MAX, cum + cmpl) } else { (u64::MAX / u64::from(f) + 1, cum) };
        EncSym { rcp, bias, cmpl, bound: f << 4 }
    }
}

/// The 256 encoder entries of a normalised table (absent symbols zeroed).
fn enc_table(freq: &[u16; 256]) -> [EncSym; 256] {
    let mut t = [EncSym::default(); 256];
    let mut cum = 0u32;
    for (e, &f) in t.iter_mut().zip(freq) {
        if f > 0 {
            *e = EncSym::new(u32::from(f), cum);
        }
        cum += u32::from(f);
    }
    debug_assert_eq!(cum, RANS_SCALE);
    t
}

/// A decode slot's frequency and `bias = slot - cum`.
#[derive(Clone, Copy, Default)]
#[repr(C, align(4))]
struct DecSlot {
    freq: u16,
    bias: u16,
}

/// The decode table, one entry per state slot `x mod RANS_SCALE`: its
/// symbol and its [`DecSlot`], two loads that depend only on the state.
/// 20 KiB on the stack, built once per stream (chunk or coded block).
struct DecTable {
    sym: [u8; RANS_SCALE as usize],
    slot: [DecSlot; RANS_SCALE as usize],
}

fn dec_table(freq: &[u16; 256]) -> DecTable {
    const SLOTS: usize = RANS_SCALE as usize;
    let mut t = DecTable { sym: [0; SLOTS], slot: [DecSlot::default(); SLOTS] };
    let mut at = 0usize;
    for (s, &f) in (0..=u8::MAX).zip(freq) {
        let slots = at..at + usize::from(f);
        t.sym[slots.clone()].fill(s);
        for (bias, d) in (0..f).zip(&mut t.slot[slots]) {
            *d = DecSlot { freq: f, bias };
        }
        at += usize::from(f);
    }
    debug_assert_eq!(at, SLOTS);
    t
}

/// Serialised size of a table of `n` present symbols: the count byte,
/// the symbols and their 12-bit frequencies, packed.
fn table_bytes(n: usize) -> usize {
    1 + n + (n * RANS_SCALE_BITS as usize).div_ceil(8)
}

/// Serialises the sparse frequency table (see the module docs layout):
/// the count, then the symbols and the frequencies, one pass each.
fn write_table(freq: &[u16; 256], out: &mut Vec<u8>) {
    let n = freq.iter().filter(|&&f| f > 0).count();
    debug_assert!(n > 0);
    out.push((n - 1) as u8);
    out.extend((0..=u8::MAX).zip(freq).filter(|&(_, &f)| f > 0).map(|(s, _)| s));
    let mut w = BitWriter::new(out);
    for &f in freq.iter().filter(|&&f| f > 0) {
        // freq - 1 so the single-symbol table's 4096 fits the 12-bit field.
        w.write(u64::from(f) - 1, RANS_SCALE_BITS);
    }
    w.finish();
}

/// Parses and validates a serialised table; returns the frequencies and
/// the bytes that follow it. A table that survives the length,
/// ascending-symbol and frequency-sum checks is safe to decode against.
///
/// Every field is attacker-controlled, so the table comes off the front
/// of `src` by checked splits and no wire integer is an index or an
/// unchecked operand (the two denied lints keep it that way). The count
/// byte stores `n - 1` and each 12-bit field `freq - 1`, so `n` is
/// `1..=256` and a frequency `1..=RANS_SCALE`: the `saturating_*` below
/// never saturate, they only spell that out for the lint.
#[deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)]
fn parse_table(src: &[u8]) -> Result<([u16; 256], &[u8]), DecodeError> {
    let (&n_minus_1, rest) = src.split_first().ok_or(DecodeError::Truncated)?;
    let n = u32::from(n_minus_1).saturating_add(1);
    let (syms, rest) = rest.split_at_checked(n as usize).ok_or(DecodeError::Truncated)?;
    let freq_bits = n.saturating_mul(RANS_SCALE_BITS);
    let (packed, rest) =
        rest.split_at_checked(freq_bits.div_ceil(8) as usize).ok_or(DecodeError::Truncated)?;
    let mut r = BitReader::new(packed, freq_bits);
    let mut freq = [0u16; 256];
    // What is left of the scale: running over it or short of it is a bad
    // table.
    let mut unassigned = RANS_SCALE;
    let mut prev = None;
    for &s in syms {
        if prev.is_some_and(|p| s <= p) {
            return Err(DecodeError::BadTable);
        }
        prev = Some(s);
        let f = (r.read(RANS_SCALE_BITS) as u32).saturating_add(1);
        unassigned = unassigned.checked_sub(f).ok_or(DecodeError::BadTable)?;
        if let Some(slot) = freq.get_mut(usize::from(s)) {
            *slot = f as u16;
        }
    }
    if unassigned != 0 {
        return Err(DecodeError::BadTable);
    }
    Ok((freq, rest))
}

/// One encoder step for the symbol of entry `e` on state `x`: branchless
/// renorm (an unconditional store of the low word just below `words[free..]`,
/// the words kept so far, with `free` moved down over it only when it is
/// kept; `x >= freq << 20` tested as `x >> 16 >= freq << 4` on the
/// shifted state a renorm keeps), then the reciprocal-multiply update.
#[inline(always)]
fn enc_step(x: u32, e: &EncSym, words: &mut [[u8; 2]], free: &mut usize) -> u32 {
    debug_assert!(e.bound > 0, "encoding a symbol absent from the table");
    let hi = x >> 16;
    let renorm = hi >= e.bound;
    words[*free - 1] = (x as u16).to_le_bytes();
    *free -= renorm as usize;
    let x = if renorm { hi } else { x };
    let q = ((u128::from(x) * u128::from(e.rcp)) >> 64) as u32;
    // x' = (x/f) << 12 | (x%f) + cum  ==  x + cum + (x/f) * (SCALE - f)
    x.wrapping_add(e.bias).wrapping_add(q.wrapping_mul(e.cmpl))
}

/// Encodes `data` with `t`, appending `[states][words]` to `out`, and
/// returns true; or false, with `out` for the caller to cut back, once
/// more than `max_words` words would follow the states.
///
/// Symbols are processed back to front (lane of symbol `i` is
/// `i % RANS_LANES`), so the words come out in reverse decode order.
/// They are stored from the top of a region of `out` downwards, where
/// they read in decode order, and slid down behind the states at the
/// end. The region is `out`'s own: nothing else is allocated. Past
/// `max_words` the stream is given up before the next lane group, so the
/// region holds `max_words`, one group and the unconditional store.
fn rans_encode(data: &[u8], t: &[EncSym; 256], max_words: usize, out: &mut Vec<u8>) -> bool {
    let start = out.len();
    let words_at = start + STATE_BYTES;
    // At most one word per symbol, plus the unconditional store's slot.
    let cap = (data.len() + 1).min(max_words.saturating_add(RANS_LANES));
    // `free` below `floor`: more than `max_words` words kept.
    let floor = cap.saturating_sub(max_words);
    out.resize(words_at + 2 * cap, 0);
    let (words, _) = out[words_at..].as_chunks_mut::<2>();
    let mut free = cap;
    let (groups, tail) = data.as_chunks::<RANS_LANES>();
    // Ragged tail first (backwards), then whole groups, lanes 3, 2, 1, 0.
    let mut states = [RANS_L; RANS_LANES];
    for (x, &s) in states.iter_mut().zip(tail).rev() {
        *x = enc_step(*x, &t[usize::from(s)], words, &mut free);
    }
    let [mut x0, mut x1, mut x2, mut x3] = states;
    for &[s0, s1, s2, s3] in groups.iter().rev() {
        if free < floor {
            break;
        }
        x3 = enc_step(x3, &t[usize::from(s3)], words, &mut free);
        x2 = enc_step(x2, &t[usize::from(s2)], words, &mut free);
        x1 = enc_step(x1, &t[usize::from(s1)], words, &mut free);
        x0 = enc_step(x0, &t[usize::from(s0)], words, &mut free);
    }
    if free < floor {
        return false;
    }
    for (dst, x) in out[start..words_at].as_chunks_mut().0.iter_mut().zip([x0, x1, x2, x3]) {
        *dst = x.to_le_bytes();
    }
    out.copy_within(words_at + 2 * free..words_at + 2 * cap, words_at);
    out.truncate(words_at + 2 * (cap - free));
    true
}

/// Encodes `data` as one self-contained rANS stream
/// (`[table][states][words]`, see the module docs) and appends it to
/// `out` if it is shorter than `limit` bytes; returns whether it did.
/// A stream that cannot come in under `limit` is given up as soon as
/// that is certain, and `out` keeps its length: a caller that stores
/// such data verbatim (the engine's raw chunk, [`Rans`]' verbatim block)
/// does not code it to the end. `usize::MAX` takes any stream.
///
/// The frequency table is gathered from `data` itself, one per stream:
/// a whole engine chunk ([`ChunkCoder`]) or one 128 B block ([`Rans`]).
/// Empty `data` takes the one-symbol table (symbol 0) and no words.
pub fn encode_stream(data: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
    let freq = normalize_freqs(&histogram(data)).unwrap_or_else(|| {
        let mut one = [0; 256];
        one[0] = RANS_SCALE as u16;
        one
    });
    let table = table_bytes(freq.iter().filter(|&&f| f > 0).count());
    // Word bytes that keep the stream under `limit`.
    let Some(room) = limit.checked_sub(table + STATE_BYTES + 1) else {
        return false;
    };
    let start = out.len();
    write_table(&freq, out);
    if rans_encode(data, &enc_table(&freq), room / 2, out) {
        return true;
    }
    out.truncate(start);
    false
}

/// Decodes a stream produced by [`encode_stream`] into `dst` (whose
/// length is the original data length — the engine knows it from the
/// container geometry). Corrupt input yields `Err`, never a panic or an
/// out-of-bounds access; a full-size but wrong decode is impossible
/// because the word cursor and final lane states are checked.
pub fn decode_stream(src: &[u8], dst: &mut [u8]) -> Result<(), DecodeError> {
    let (freq, body) = parse_table(src)?;
    let dec = dec_table(&freq);
    if body.len() < STATE_BYTES {
        return Err(DecodeError::Truncated);
    }
    let mut states = [0u32; RANS_LANES];
    let (state_words, _) = body.as_chunks::<4>();
    for (s, c) in states.iter_mut().zip(state_words) {
        *s = u32::from_le_bytes(*c);
    }
    if states.iter().any(|&x| x < RANS_L) {
        return Err(DecodeError::BadState);
    }
    let words = &body[STATE_BYTES..];
    let limit = words.len();
    if !limit.is_multiple_of(2) {
        return Err(DecodeError::BadLayout);
    }
    let mut pos = 0usize;
    let slot_mask = RANS_SCALE - 1;
    // One step per lane, branch-free: two independent table loads,
    // multiply/add state update, speculative word load with a
    // conditionally-advanced cursor. A corrupt stream can only
    // desynchronise the cursor or the states, both checked after the loop.
    let mut step = |x: u32, out: &mut u8| {
        let slot = (x & slot_mask) as usize;
        *out = dec.sym[slot];
        let d = dec.slot[slot];
        let x =
            u32::from(d.freq).wrapping_mul(x >> RANS_SCALE_BITS).wrapping_add(u32::from(d.bias));
        let w = if pos + 2 <= limit {
            u32::from(u16::from_le_bytes([words[pos], words[pos + 1]]))
        } else {
            0
        };
        let refill = x < RANS_L;
        pos += 2 * refill as usize;
        if refill {
            (x << 16) | w
        } else {
            x
        }
    };
    let mut chunks = dst.chunks_exact_mut(RANS_LANES);
    for group in &mut chunks {
        // Fixed trip count: unrolls to four independent lane steps.
        for (lane, out) in group.iter_mut().enumerate() {
            states[lane] = step(states[lane], out);
        }
    }
    for (lane, out) in chunks.into_remainder().iter_mut().enumerate() {
        states[lane] = step(states[lane], out);
    }
    if pos != limit {
        return Err(DecodeError::BadLayout);
    }
    if states.iter().any(|&x| x != RANS_L) {
        return Err(DecodeError::BadState);
    }
    Ok(())
}

/// The rANS block codec (and whole-chunk coder — see the module docs).
///
/// ```
/// use slc_compress::{BlockCompressor, rans::Rans};
///
/// let rans = Rans::new();
/// let block = [0x42u8; 128]; // one symbol: near-zero entropy
/// let (mut payload, mut out) = (Vec::new(), [0u8; 128]);
/// let (bits, coded) = rans.compress_into(&block, &mut payload);
/// assert!(coded && bits < 128 * 8);
/// rans.decompress_into(bits, coded, &payload, &mut out).unwrap();
/// assert_eq!(out, block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Rans {
    _private: (),
}

impl Rans {
    /// Creates a rANS codec.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlockCompressor for Rans {
    fn id(&self) -> CodecId {
        CodecId::Rans
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        let start = out.len();
        if encode_stream(block, block.len(), out) {
            return (((out.len() - start) * 8) as u32, true);
        }
        store_verbatim(block, out)
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
        let src = payload.get(..(size_bits as usize).div_ceil(8)).ok_or(DecodeError::Truncated)?;
        decode_stream(src, out)
    }

    /// One [`compress_into`](BlockCompressor::compress_into) into a
    /// buffer it never outgrows: the block and the 7 bytes rANS' words
    /// may reserve past it.
    fn size_bits(&self, block: &Block) -> u32 {
        self.compress_into(block, &mut Vec::with_capacity(SIZE_BUFFER)).0
    }

    fn chunk_coder(&self) -> Option<&dyn ChunkCoder> {
        Some(self)
    }
}

/// The most a block encode writes into an empty buffer. A verbatim block
/// is [`BLOCK_BYTES`]. A coded attempt writes its `table` bytes, the
/// states and [`rans_encode`]'s word region of `2 * cap` bytes, with
/// `cap <= room / 2 + RANS_LANES` and `room = BLOCK_BYTES - table -
/// STATE_BYTES - 1` ([`encode_stream`] at a limit of one block): at most
/// `BLOCK_BYTES - 1 + 2 * RANS_LANES` bytes, 7 past the block.
const SIZE_BUFFER: usize = BLOCK_BYTES - 1 + 2 * RANS_LANES;

impl ChunkCoder for Rans {
    fn encode_chunk_into(&self, chunk: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
        encode_stream(chunk, limit, out)
    }

    fn decode_chunk(&self, src: &[u8], dst: &mut [u8]) -> Result<(), DecodeError> {
        decode_stream(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{decode, encode};
    use proptest::prelude::*;

    /// Scalar reference decoder: one symbol at a time, linear-search symbol
    /// lookup, branchy renormalisation — a direct transcription of the rANS
    /// decode recurrence sharing none of [`decode_stream`]'s lane buffering,
    /// LUT or branchless tricks. `roundtrip` pins the interleaved decoder
    /// byte-identical to this.
    fn decode_reference(src: &[u8], dst: &mut [u8]) -> Result<(), DecodeError> {
        let (freq, body) = parse_table(src)?;
        let mut cum = [0u32; 257];
        for s in 0..256 {
            cum[s + 1] = cum[s] + u32::from(freq[s]);
        }
        if body.len() < STATE_BYTES {
            return Err(DecodeError::Truncated);
        }
        if !(body.len() - STATE_BYTES).is_multiple_of(2) {
            return Err(DecodeError::BadLayout);
        }
        let mut states = [0u32; RANS_LANES];
        let (state_words, _) = body.as_chunks::<4>();
        for (s, c) in states.iter_mut().zip(state_words) {
            *s = u32::from_le_bytes(*c);
        }
        let words = &body[STATE_BYTES..];
        let mut pos = 0usize;
        for (i, out) in dst.iter_mut().enumerate() {
            let x = &mut states[i % RANS_LANES];
            let slot = *x & (RANS_SCALE - 1);
            let s = (0usize..256).find(|&s| slot < cum[s + 1]).expect("cum[256] is the scale");
            *x = u32::from(freq[s]) * (*x >> RANS_SCALE_BITS) + slot - cum[s];
            if *x < RANS_L {
                if pos + 2 > words.len() {
                    return Err(DecodeError::BadLayout);
                }
                *x = (*x << 16) | u32::from(u16::from_le_bytes([words[pos], words[pos + 1]]));
                pos += 2;
            }
            *out = s as u8;
        }
        if pos != words.len() {
            return Err(DecodeError::BadLayout);
        }
        if states.iter().any(|&x| x != RANS_L) {
            return Err(DecodeError::BadState);
        }
        Ok(())
    }

    /// The retired encoder, kept as the oracle for [`encode_stream`]'s
    /// bytes: four 256-entry arrays and `x / f` as bits 48–79 of a `u128`
    /// product with the `ceil(2^48 / f)` reciprocal, one lane-array
    /// index per step, and the table written through a `present` list.
    fn encode_reference(data: &[u8]) -> Vec<u8> {
        struct EncTable {
            freq: [u32; 256],
            cum: [u32; 256],
            cmpl: [u32; 256],
            rcp: [u64; 256],
        }
        fn enc_step(x: u32, s: u8, t: &EncTable, words: &mut [u16], wpos: &mut usize) -> u32 {
            let i = s as usize;
            let x_max = u64::from(t.freq[i]) << 20;
            words[*wpos] = x as u16;
            let renorm = u64::from(x) >= x_max;
            *wpos += renorm as usize;
            let x = if renorm { x >> 16 } else { x };
            let q = ((u128::from(x) * u128::from(t.rcp[i])) >> 48) as u32;
            x.wrapping_add(t.cum[i]).wrapping_add(q.wrapping_mul(t.cmpl[i]))
        }
        let freq = normalize_freqs(&histogram(data)).expect("non-empty data");
        let mut t = EncTable { freq: [0; 256], cum: [0; 256], cmpl: [0; 256], rcp: [0; 256] };
        let mut cum = 0u32;
        for (s, &fr) in freq.iter().enumerate() {
            let f = u32::from(fr);
            t.freq[s] = f;
            t.cum[s] = cum;
            t.cmpl[s] = RANS_SCALE - f;
            if f > 0 {
                t.rcp[s] = ((1u128 << 48).div_ceil(u128::from(f))) as u64;
            }
            cum += f;
        }
        let mut out = Vec::new();
        let present: Vec<u8> =
            (0u16..256).filter(|&s| freq[s as usize] > 0).map(|s| s as u8).collect();
        out.push((present.len() - 1) as u8);
        out.extend_from_slice(&present);
        let mut w = BitWriter::new(&mut out);
        for &s in &present {
            w.write(u64::from(freq[s as usize]) - 1, RANS_SCALE_BITS);
        }
        w.finish();
        let n = data.len();
        let mut states = [RANS_L; RANS_LANES];
        let mut words = vec![0u16; n + 1];
        let mut wpos = 0usize;
        let mut i = n;
        while !i.is_multiple_of(RANS_LANES) {
            i -= 1;
            states[i % RANS_LANES] =
                enc_step(states[i % RANS_LANES], data[i], &t, &mut words, &mut wpos);
        }
        while i > 0 {
            i -= RANS_LANES;
            for lane in (0..RANS_LANES).rev() {
                states[lane] = enc_step(states[lane], data[i + lane], &t, &mut words, &mut wpos);
            }
        }
        for &s in &states {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for w in words[..wpos].iter().rev() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// [`encode_reference`], and for empty data the one-symbol stream.
    fn encode_reference_or_empty(data: &[u8]) -> Vec<u8> {
        if data.is_empty() {
            let mut stream = Vec::new();
            assert!(encode_stream(data, usize::MAX, &mut stream));
            return stream;
        }
        encode_reference(data)
    }

    /// Every frequency, at the edges of the state range and 64 seeded
    /// states: the one-entry step stores the low word, keeps it exactly
    /// when `x >= f << 20`, and its state is
    /// `((x / f) << 12) + x % f + cum` of the kept state. Each `f` is
    /// checked at the first and the last `cum` it can have.
    #[test]
    fn enc_step_is_exact_for_every_frequency() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for f in 1..=RANS_SCALE {
            let edges = [
                RANS_L,
                16 * f,
                ((u64::from(f) << 20) - 1).min(u64::from(u32::MAX)) as u32,
                u32::MAX,
            ];
            let randoms = (0..64).map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng >> 32) as u32
            });
            for x in edges.into_iter().chain(randoms) {
                for cum in [0, RANS_SCALE - f] {
                    let mut words = [[0u8; 2]; 2];
                    let mut free = 2;
                    let got = enc_step(x, &EncSym::new(f, cum), &mut words, &mut free);
                    let renorm = u64::from(x) >= u64::from(f) << 20;
                    let kept = if renorm { x >> 16 } else { x };
                    let want = ((kept / f) << 12) + kept % f + cum;
                    let stored = (2 - free, got);
                    assert_eq!(stored, (usize::from(renorm), want), "f={f} cum={cum} x={x}");
                    let low = (x as u16).to_le_bytes();
                    assert_eq!(words[1], low, "f={f} x={x}: the low word is stored");
                }
            }
        }
    }

    #[test]
    fn empty_stream_roundtrips() {
        let mut stream = Vec::new();
        assert!(encode_stream(&[], usize::MAX, &mut stream));
        // The one-symbol table (symbol 0, freq 4096: 1 + 1 + 2 bytes) and
        // the four initial states, no words.
        let mut want = vec![0, 0, 0xff, 0xf0];
        want.extend(RANS_L.to_le_bytes().repeat(RANS_LANES));
        assert_eq!(stream, want);
        roundtrip(&[]);
    }

    fn roundtrip(data: &[u8]) {
        let stream = Rans::new().encode_chunk(data);
        let mut out = vec![0u8; data.len()];
        decode_stream(&stream, &mut out).expect("own stream decodes");
        assert_eq!(out, data, "roundtrip of {} bytes", data.len());
        let mut scalar = vec![0u8; data.len()];
        decode_reference(&stream, &mut scalar).expect("reference decodes");
        assert_eq!(scalar, out, "interleaved and scalar decoders agree");
    }

    #[test]
    fn single_symbol_stream_is_table_plus_states_only() {
        let data = vec![0xabu8; 1000];
        let stream = Rans::new().encode_chunk(&data);
        // n=1 table: 1 + 1 + 2 bytes, then 16 state bytes, zero words
        // (freq 4096 never renormalises).
        assert_eq!(stream.len(), 4 + STATE_BYTES);
        roundtrip(&data);
    }

    #[test]
    fn ragged_tails_roundtrip() {
        let data: Vec<u8> = (0..1031u32).map(|i| (i * 7 % 40) as u8).collect();
        for len in [1usize, 2, 3, 4, 5, 7, 127, 128, 129, 1023, 1031] {
            roundtrip(&data[..len]);
        }
    }

    #[test]
    fn uniform_256_roundtrips() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 256) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 4095:1 skew — near-zero entropy, must compress hard.
        let mut data = vec![7u8; 8192];
        data[100] = 200;
        data[5000] = 200;
        let stream = Rans::new().encode_chunk(&data);
        assert!(stream.len() < data.len() / 8, "skewed stream must compress: {}", stream.len());
        roundtrip(&data);
    }

    #[test]
    fn normalization_is_exact_and_deterministic() {
        let mut counts = [0u32; 256];
        counts[0] = 1;
        counts[1] = 1_000_000;
        counts[255] = 3;
        let freq = normalize_freqs(&counts).unwrap();
        assert_eq!(freq.iter().map(|&f| u32::from(f)).sum::<u32>(), RANS_SCALE);
        assert!(freq[0] >= 1 && freq[255] >= 1, "present symbols keep a nonzero slot");
        assert_eq!(normalize_freqs(&counts).unwrap(), freq, "deterministic");
        assert_eq!(normalize_freqs(&[0u32; 256]), None);
        let mut single = [0u32; 256];
        single[42] = 17;
        let freq = normalize_freqs(&single).unwrap();
        assert_eq!(u32::from(freq[42]), RANS_SCALE);
    }

    #[test]
    fn table_roundtrips_and_rejects_corruption() {
        let data: Vec<u8> = (0..512u32).map(|i| (i % 11) as u8).collect();
        let freq = normalize_freqs(&histogram(&data)).unwrap();
        let mut bytes = Vec::new();
        write_table(&freq, &mut bytes);
        let (parsed, rest) = parse_table(&bytes).unwrap();
        assert!(rest.is_empty());
        assert_eq!(parsed, freq);
        // Truncations and a broken frequency sum must be rejected.
        for cut in 0..bytes.len() {
            assert!(parse_table(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(parse_table(&[]).is_err());
        let mut unsorted = bytes.clone();
        unsorted.swap(1, 2);
        assert!(parse_table(&unsorted).is_err(), "non-ascending symbols rejected");
    }

    #[test]
    fn corrupt_streams_error_out() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 17) as u8).collect();
        let stream = Rans::new().encode_chunk(&data);
        let mut out = vec![0u8; data.len()];
        // Truncation at every boundary: error, never a panic.
        for cut in 0..stream.len() {
            assert!(
                decode_stream(&stream[..cut], &mut out).is_err(),
                "truncation at {cut} must error"
            );
        }
        // Dropping trailing words desynchronises the cursor check even
        // when the table still parses.
        let mut short = stream.clone();
        short.truncate(stream.len() - 2);
        assert!(decode_stream(&short, &mut out).is_err());
    }

    #[test]
    fn block_codec_roundtrips_and_registers() {
        let rans = Rans::new();
        assert_eq!(rans.id(), CodecId::Rans);
        assert!(rans.chunk_coder().is_some(), "rans codes whole chunks");
        let mut block = [0u8; crate::BLOCK_BYTES];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i % 9) as u8;
        }
        let (bits, coded, payload) = encode(&rans, &block);
        assert!(coded, "9-symbol block must compress");
        assert_eq!(decode(&rans, bits, coded, &payload), block);
        // Noise block: per-block table overhead forces verbatim storage.
        let mut state = 0x1234_5678u64;
        for b in block.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        let (bits, coded, payload) = encode(&rans, &block);
        assert!(!coded);
        assert_eq!(decode(&rans, bits, coded, &payload), block);
    }

    proptest! {
        #[test]
        fn prop_random_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 1..4096)) {
            roundtrip(&data);
            prop_assert_eq!(Rans::new().encode_chunk(&data), encode_reference(&data));
        }

        #[test]
        fn prop_skewed_bytes_roundtrip(
            seeds in proptest::collection::vec(0u8..4, 1..2048),
            lo in any::<u8>(),
        ) {
            // Tiny alphabets at arbitrary offsets: the adversarial case
            // for normalisation (huge frequencies, few slots).
            let data: Vec<u8> = seeds.iter().map(|&s| lo.wrapping_add(s)).collect();
            roundtrip(&data);
            prop_assert_eq!(Rans::new().encode_chunk(&data), encode_reference(&data));
        }

        #[test]
        fn prop_a_block_encode_never_outgrows_the_size_buffer(
            seeds in proptest::collection::vec(any::<u8>(), BLOCK_BYTES),
            alphabet in 1u8..=255,
        ) {
            // One symbol (the shortest table, the most room for words) to
            // noise (a table that leaves none): `size_bits`' buffer holds
            // every encode without growing.
            let mut block = [0u8; BLOCK_BYTES];
            for (b, &s) in block.iter_mut().zip(&seeds) {
                *b = s % alphabet;
            }
            let mut out = Vec::with_capacity(SIZE_BUFFER);
            Rans::new().compress_into(&block, &mut out);
            prop_assert_eq!(out.capacity(), SIZE_BUFFER);
        }

        #[test]
        fn prop_a_limit_keeps_the_whole_stream_or_nothing(
            seeds in proptest::collection::vec(any::<u8>(), 0..600),
            alphabet in 1u8..=255,
        ) {
            // Below, at and above the stream's length, and where the table
            // alone reaches the limit: the stream is appended whole exactly
            // when it is shorter than the limit, and otherwise `out` is
            // back at its length with its bytes untouched.
            let data: Vec<u8> = seeds.iter().map(|&s| s % alphabet).collect();
            let whole = encode_reference_or_empty(&data);
            let mut limits: Vec<usize> = (0..=24).collect();
            limits.extend(whole.len().saturating_sub(12)..whole.len() + 12);
            for limit in limits {
                let mut out = vec![0x5a; 3];
                let kept = encode_stream(&data, limit, &mut out);
                prop_assert_eq!(kept, whole.len() < limit, "limit {}", limit);
                prop_assert_eq!(&out[..3], &[0x5a; 3][..]);
                let want: &[u8] = if kept { &whole } else { &[] };
                prop_assert_eq!(&out[3..], want, "limit {}", limit);
            }
        }

        #[test]
        fn prop_normalized_tables_sum_to_scale(counts in proptest::collection::vec(0u32..=u32::MAX / 256, 256)) {
            let arr: [u32; 256] = counts.try_into().unwrap();
            if let Some(freq) = normalize_freqs(&arr) {
                prop_assert_eq!(freq.iter().map(|&f| u32::from(f)).sum::<u32>(), RANS_SCALE);
                for s in 0..256 {
                    prop_assert_eq!(arr[s] > 0, freq[s] > 0, "support preserved at {}", s);
                }
            }
        }
    }
}
