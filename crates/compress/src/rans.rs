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
//!   [`RANS_SCALE`] = 2^12 total, the DietGPU/ryg sweet spot: a 4096-slot
//!   decode LUT (4 KiB, L1-resident) and at most 12 bits of per-symbol
//!   state growth.
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
//! * **Division-free encode** — the per-symbol `x / freq` is a 64×64
//!   reciprocal multiply (`ceil(2^48 / freq)`, exact for every
//!   `x < 2^32`, `freq <= 4096`), so the encode step is also
//!   multiply/shift/add only.
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
    load_verbatim, store_verbatim, Block, BlockCompressor, CodecId, DecodeError, BLOCK_BITS,
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

/// Per-symbol encoder tables: frequency, cumulative start, the scale
/// complement (`SCALE - freq`, so the encode step is one fused
/// multiply-add) and the `ceil(2^48 / freq)` reciprocal.
struct EncTable {
    freq: [u32; 256],
    cum: [u32; 256],
    cmpl: [u32; 256],
    rcp: [u64; 256],
}

impl EncTable {
    fn build(freq: &[u16; 256]) -> Self {
        let mut t = EncTable { freq: [0; 256], cum: [0; 256], cmpl: [0; 256], rcp: [0; 256] };
        let mut cum = 0u32;
        for (s, &fr) in freq.iter().enumerate() {
            let f = u32::from(fr);
            t.freq[s] = f;
            t.cum[s] = cum;
            t.cmpl[s] = RANS_SCALE - f;
            if f > 0 {
                // ceil(2^48 / f): exact floor division for every state
                // below 2^32 because x * (ceil - 2^48/f) < 2^48.
                t.rcp[s] = ((1u128 << 48).div_ceil(u128::from(f))) as u64;
            }
            cum += f;
        }
        debug_assert_eq!(cum, RANS_SCALE);
        t
    }
}

/// Decoder tables: the 4096-slot symbol LUT plus per-symbol freq/cum.
struct DecTable {
    slot_sym: Box<[u8; RANS_SCALE as usize]>,
    freq: [u16; 256],
    cum: [u16; 256],
}

impl DecTable {
    fn build(freq: &[u16; 256]) -> Self {
        // One 4 KiB table per stream: per engine chunk, or per coded block.
        let mut slot_sym = Box::new([0u8; RANS_SCALE as usize]);
        let mut cum = [0u16; 256];
        let mut at = 0usize;
        for s in 0..256 {
            cum[s] = at as u16;
            let f = freq[s] as usize;
            slot_sym[at..at + f].fill(s as u8);
            at += f;
        }
        debug_assert_eq!(at, RANS_SCALE as usize);
        DecTable { slot_sym, freq: *freq, cum }
    }
}

/// Serialises the sparse frequency table (see the module docs layout).
fn write_table(freq: &[u16; 256], out: &mut Vec<u8>) {
    // Grows as it collects: up to six allocations per stream, chunk or block.
    let present: Vec<u8> = (0u16..256).filter(|&s| freq[s as usize] > 0).map(|s| s as u8).collect();
    debug_assert!(!present.is_empty());
    out.push((present.len() - 1) as u8);
    out.extend_from_slice(&present);
    let mut w = BitWriter::new(out);
    for &s in &present {
        // freq - 1 so the single-symbol table's 4096 fits the 12-bit field.
        w.write(u64::from(freq[s as usize]) - 1, RANS_SCALE_BITS);
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

/// One encoder step for symbol `s` on state `x`: branchless renorm (an
/// unconditional word store with a conditionally-advanced cursor), then
/// the reciprocal-multiply state update.
#[inline(always)]
fn enc_step(x: u32, s: u8, t: &EncTable, words: &mut [u16], wpos: &mut usize) -> u32 {
    let i = s as usize;
    debug_assert!(t.freq[i] > 0, "encoding a symbol absent from the table");
    let x_max = u64::from(t.freq[i]) << 20;
    words[*wpos] = x as u16;
    let renorm = u64::from(x) >= x_max;
    *wpos += renorm as usize;
    let x = if renorm { x >> 16 } else { x };
    let q = ((u128::from(x) * u128::from(t.rcp[i])) >> 48) as u32;
    // x' = (x/f) << 12 | (x%f) + cum  ==  x + cum + (x/f) * (SCALE - f)
    x.wrapping_add(t.cum[i]).wrapping_add(q.wrapping_mul(t.cmpl[i]))
}

/// Encodes `data` with `t`, appending `[states][words]` to `out`.
///
/// Symbols are processed back to front (lane of symbol `i` is
/// `i % RANS_LANES`) and the word buffer is emitted reversed, so the
/// decoder walks both symbols and words strictly forwards.
fn rans_encode(data: &[u8], t: &EncTable, out: &mut Vec<u8>) {
    let n = data.len();
    let mut states = [RANS_L; RANS_LANES];
    // At most one 16-bit word per symbol, plus one slot of slack for the
    // unconditional store in enc_step.
    // Per-stream word staging buffer, one allocation.
    let mut words = vec![0u16; n + 1];
    let mut wpos = 0usize;
    let mut i = n;
    // Ragged head first (in backward order), then whole lane groups.
    while !i.is_multiple_of(RANS_LANES) {
        i -= 1;
        states[i % RANS_LANES] =
            enc_step(states[i % RANS_LANES], data[i], t, &mut words, &mut wpos);
    }
    while i > 0 {
        i -= RANS_LANES;
        // Descending symbol order within the group: lanes 3, 2, 1, 0.
        for lane in (0..RANS_LANES).rev() {
            states[lane] = enc_step(states[lane], data[i + lane], t, &mut words, &mut wpos);
        }
    }
    out.reserve(STATE_BYTES + wpos * 2);
    for &s in &states {
        out.extend_from_slice(&s.to_le_bytes());
    }
    for w in words[..wpos].iter().rev() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Encodes `data` as one self-contained rANS stream
/// (`[table][states][words]`, see the module docs), appended to `out`.
/// The frequency table is gathered from `data` itself, one per stream:
/// a whole engine chunk ([`ChunkCoder`]) or one 128 B block ([`Rans`]).
///
/// # Panics
///
/// Panics on empty input (no meaningful table exists).
pub fn encode_stream(data: &[u8], out: &mut Vec<u8>) {
    assert!(!data.is_empty(), "rANS stream encode needs at least one byte");
    let counts = histogram(data);
    #[expect(
        clippy::expect_used,
        reason = "infallible after the non-empty assert — a non-empty histogram always has a non-zero count"
    )]
    let freq = normalize_freqs(&counts).expect("non-empty data has a non-zero count");
    let enc = EncTable::build(&freq);
    write_table(&freq, out);
    rans_encode(data, &enc, out);
}

/// Decodes a stream produced by [`encode_stream`] into `dst` (whose
/// length is the original data length — the engine knows it from the
/// container geometry). Corrupt input yields `Err`, never a panic or an
/// out-of-bounds access; a full-size but wrong decode is impossible
/// because the word cursor and final lane states are checked.
pub fn decode_stream(src: &[u8], dst: &mut [u8]) -> Result<(), DecodeError> {
    let (freq, body) = parse_table(src)?;
    let dec = DecTable::build(&freq);
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
    // One step per lane, branch-free: LUT symbol lookup, multiply/shift
    // state update, speculative word load with a conditionally-advanced
    // cursor. A corrupt stream can only desynchronise the cursor or the
    // states, both checked after the loop.
    let mut step = |x: u32, out: &mut u8| {
        let slot = x & slot_mask;
        let s = dec.slot_sym[slot as usize];
        *out = s;
        let f = u32::from(dec.freq[s as usize]);
        let c = u32::from(dec.cum[s as usize]);
        // slot ∈ [cum, cum+f) by LUT construction, so no underflow.
        let x = f.wrapping_mul(x >> RANS_SCALE_BITS).wrapping_add(slot - c);
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
        encode_stream(block, out);
        let bits = ((out.len() - start) * 8) as u32;
        if bits >= BLOCK_BITS {
            out.truncate(start);
            return store_verbatim(block, out);
        }
        (bits, true)
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

    fn chunk_coder(&self) -> Option<&dyn ChunkCoder> {
        Some(self)
    }
}

impl ChunkCoder for Rans {
    fn encode_chunk(&self, chunk: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(chunk.len() / 2 + 64);
        encode_stream(chunk, &mut out);
        out
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
