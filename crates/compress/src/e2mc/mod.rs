//! E2MC: entropy-encoding based memory compression for GPUs.
//!
//! Lal et al., "E2MC: Entropy Encoding Based Memory Compression for GPUs",
//! IPDPS 2017 — the highest-ratio lossless baseline in the SLC paper and the
//! substrate SLC itself extends.
//!
//! A 128 B block is 64 16-bit symbols. A per-application canonical Huffman
//! table (built from sampled traffic, see [`SymbolSampler`]) covers the
//! `top_k` most probable symbols; everything else is sent as an escape code
//! followed by the 16 raw bits. Symbols are split into 4 **parallel
//! decoding ways** (PDWs) of 16 symbols, each an independently
//! addressable sub-stream: the block header carries one *parallel
//! decoding pointer* (pdp) per non-first way. Both framings, E2MC's and
//! SLC's (which puts its `ss`/`len` between the mode bit and the pdps),
//! write the pdps and ways through [`SymbolTable::write_ways`] and read
//! them through [`SymbolTable::read_ways`]. The hardware puts one decoder
//! on each way; `read_ways` does the same with four cursors advanced in
//! lock step, so the ways' table loads overlap in the pipeline, and it
//! rejects a block whose ways do not tile the data section exactly.
//!
//! The compressed size of a block is just the sum of its code lengths plus
//! the header — the property SLC's bit-budgeting exploits (the paper's
//! parallel tree adder computes the same sum).
//!
//! ```
//! use slc_compress::{BlockCompressor, e2mc::{E2mc, E2mcConfig}};
//!
//! // Train on data representative of the app's traffic...
//! let training: Vec<u8> = (0..4096u32).flat_map(|i| (i % 97).to_le_bytes()).collect();
//! let e2mc = E2mc::train_on_bytes(&training, &E2mcConfig::default());
//! // ...then compress blocks of the same distribution.
//! let mut block = [0u8; 128];
//! for (i, c) in block.chunks_exact_mut(4).enumerate() {
//!     c.copy_from_slice(&((i as u32) % 97).to_le_bytes());
//! }
//! let (mut payload, mut out) = (Vec::new(), [0u8; 128]);
//! let (bits, coded) = e2mc.compress_into(&block, &mut payload);
//! assert!(coded && bits < 512, "low-entropy data compresses > 2x");
//! e2mc.decompress_into(bits, coded, &payload, &mut out).unwrap();
//! assert_eq!(out, block);
//! ```

mod analysis;
mod huffman;
mod sampler;

pub use analysis::{BlockAnalysis, TREE_SUM_WORDS};
pub use huffman::{CanonicalCode, MAX_CODE_LEN};
pub use sampler::SymbolSampler;

use std::ops::Range;
use std::sync::Arc;

use crate::bitstream::{BitReader, BitWriter};
use crate::symbols::{block_to_symbols, symbols_to_block, SYMBOLS_PER_BLOCK};
use crate::{
    load_verbatim, store_verbatim, Block, BlockCompressor, CodecId, DecodeError, BLOCK_BITS,
    BLOCK_BYTES,
};

/// Number of parallel decoding ways (the paper's best configuration).
pub const WAYS: usize = 4;

/// Symbols per way.
pub const WAY_SYMBOLS: usize = SYMBOLS_PER_BLOCK / WAYS;

/// Width of one parallel decoding pointer in bits.
///
/// A pdp addresses a bit offset inside the compressed data section, which
/// is always shorter than the 1024-bit block, so 10 bits suffice. (The
/// paper stores byte-addressed 7-bit pdps; we keep ways bit-packed and
/// spend 3 extra bits per pointer instead of padding each way to a byte
/// boundary — the totals differ by under a byte per block.)
pub const PDP_BITS: u32 = 10;

/// Header of a losslessly compressed E2MC block: mode bit + 3 pdps.
pub const HEADER_BITS: u32 = 1 + (WAYS as u32 - 1) * PDP_BITS;

/// Configuration for table training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E2mcConfig {
    /// Number of most-frequent symbols granted Huffman codes.
    pub top_k: usize,
    /// Online-sampling block budget; `None` samples everything offered.
    pub sample_blocks: Option<u64>,
}

impl Default for E2mcConfig {
    fn default() -> Self {
        Self { top_k: 1024, sample_blocks: None }
    }
}

/// A trained symbol table: canonical codes for the top-k symbols plus an
/// escape entry for the rest.
///
/// Tables are frozen after the one-shot sampling phase (the paper trains
/// once and never retrains), so they carry no interior mutability, and
/// the ~840 KB of precomputed tables below are immutable for the life of
/// the run: the 512 KB encode table, the one 256 KB decode table, the
/// 64 KB width table, and about 8 KB of canonical code and symbols.
/// [`E2mc`] therefore holds the table behind an [`Arc`]: cloning a
/// trained codec — and every [`crate::BlockCompressor`] or SLC scheme
/// built on it — shares this one allocation instead of deep-copying it.
#[derive(Clone)]
pub struct SymbolTable {
    code: CanonicalCode,
    /// Entry index -> symbol value, for entries `0..top.len()`.
    top: Vec<u16>,
    escape_entry: usize,
    /// Symbol value -> packed `(bits << 8) | width`, where `bits` is the
    /// complete wire encoding (codeword, or escape codeword followed by the
    /// 16 raw symbol bits) and `width <= 32` its length. Precomputed so
    /// [`stash_encodings`](Self::stash_encodings) is one table load per
    /// symbol.
    enc: Vec<u64>,
    /// The one decode table: a left-aligned `MAX_CODE_LEN`-bit window ->
    /// packed `(symbol << 16) | (escape << 8) | code_length`, the flat
    /// longest-code-indexed table of Rivera et al. and cuSZ+. It fuses
    /// the canonical decode and the entry-to-symbol lookup into one load
    /// per symbol; length 0 marks windows no codeword covers (corrupt
    /// stream).
    dec: Box<[u32; 1 << MAX_CODE_LEN]>,
    /// Symbol value -> encoded width in bits. Duplicates the width byte of
    /// `enc` at 1/8th the footprint (64 KB vs 512 KB): the size-only paths
    /// (code-length sums, SLC's tree adder) touch symbols randomly, so the
    /// denser table keeps them in cache.
    bits: Box<[u8; 1 << 16]>,
}

impl std::fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolTable")
            .field("entries", &self.top.len())
            .field("escape_bits", &self.escape_bits())
            .finish()
    }
}

impl SymbolTable {
    /// Builds a table from sampled frequencies.
    pub fn from_sampler(sampler: &SymbolSampler, config: &E2mcConfig) -> Self {
        let top = sampler.top_symbols(config.top_k);
        let covered: u64 = top.iter().map(|&(_, c)| c).sum();
        let escape_freq = (sampler.total() - covered).max(1);
        let mut freqs: Vec<u64> = top.iter().map(|&(_, c)| c).collect();
        freqs.push(escape_freq);
        // Every frequency is positive, so every entry gets a codeword.
        let code = CanonicalCode::from_frequencies(&freqs, MAX_CODE_LEN);
        let symbols: Vec<u16> = top.iter().map(|&(s, _)| s).collect();
        let escape_entry = symbols.len();
        let esc_code = u64::from(code.code(escape_entry));
        let esc_len = code.length(escape_entry);
        // A symbol outside the top k is its escape codeword immediately
        // followed by its 16 raw bits, fused into one write.
        let mut enc: Vec<u64> = (0..1u64 << 16)
            .map(|symbol| ((esc_code << 16 | symbol) << 8) | u64::from(esc_len + 16))
            .collect();
        let mut dec = Box::new([0u32; 1 << MAX_CODE_LEN]);
        for entry in 0..=escape_entry {
            let (codeword, len) = (code.code(entry), code.length(entry));
            let packed = match symbols.get(entry) {
                Some(&s) => {
                    enc[usize::from(s)] = u64::from(codeword) << 8 | u64::from(len);
                    u32::from(s) << 16 | len
                }
                None => 1 << 8 | len,
            };
            // Every window whose top `len` bits are this codeword decodes
            // to this entry: fill its 2^(MAX_CODE_LEN - len) slots.
            let base = usize::from(codeword) << (MAX_CODE_LEN - len);
            dec[base..base + (1 << (MAX_CODE_LEN - len))].fill(packed);
        }
        let mut bits = Box::new([0u8; 1 << 16]);
        for (width, &packed) in bits.iter_mut().zip(&enc) {
            *width = (packed & 0xff) as u8;
        }
        Self { code, escape_entry, top: symbols, enc, dec, bits }
    }

    /// Total cost of an escaped symbol.
    pub fn escape_bits(&self) -> u32 {
        self.code.length(self.escape_entry) + 16
    }

    /// Stashes every symbol's packed wire encoding in one table pass, for
    /// the size-then-write pipeline shared by E2MC and SLC: size the ways
    /// from the stash ([`way_bits`](Self::way_bits)), then write the pdps
    /// and the stash without touching the table again
    /// ([`write_ways`](Self::write_ways)). A zero entry has width 0 and
    /// writes nothing (SLC zeroes its truncated hole this way).
    pub fn stash_encodings(&self, symbols: &[u16; SYMBOLS_PER_BLOCK]) -> [u64; SYMBOLS_PER_BLOCK] {
        let mut out = [0u64; SYMBOLS_PER_BLOCK];
        for (e, &s) in out.iter_mut().zip(symbols) {
            *e = self.enc[s as usize];
        }
        out
    }

    /// Encoded bit count of each parallel decoding way of a stash: what
    /// [`write_ways`](Self::write_ways) takes, and what E2MC sums first to
    /// choose between coding a block and storing it verbatim.
    pub fn way_bits(encodings: &[u64; SYMBOLS_PER_BLOCK]) -> [u32; WAYS] {
        let mut way_bits = [0u32; WAYS];
        for (bits, chunk) in way_bits.iter_mut().zip(encodings.chunks_exact(WAY_SYMBOLS)) {
            *bits = chunk.iter().map(|&e| (e & 0xff) as u32).sum();
        }
        way_bits
    }

    /// Writes the three pdps — prefix sums of `way_bits`, the
    /// [`way_bits`](Self::way_bits) of `encodings` — and then the stash.
    /// Ways lie back to back, so the stash written in order is exactly the
    /// concatenated per-way streams the pdps point into. A [`PDP_BITS`]
    /// pdp holds the offsets of a stream shorter than a block, the only
    /// kind a caller writes.
    pub fn write_ways(
        w: &mut BitWriter<'_>,
        encodings: &[u64; SYMBOLS_PER_BLOCK],
        way_bits: [u32; WAYS],
    ) {
        let mut offset = 0u32;
        for bits in &way_bits[..WAYS - 1] {
            offset += bits;
            w.write(u64::from(offset), PDP_BITS);
        }
        // Codewords are concatenated MSB-first in a local word and handed
        // to the writer up to 64 bits at a time, exactly as writing each
        // one would lay them out: a writer call per codeword makes E2MC
        // encode about a third slower.
        let mut acc = 0u64;
        let mut acc_w = 0u32;
        for &e in encodings {
            let width = (e & 0xff) as u32;
            if acc_w + width > 64 {
                w.write(acc, acc_w);
                acc = 0;
                acc_w = 0;
            }
            acc = (acc << width) | (e >> 8);
            acc_w += width;
        }
        w.write(acc, acc_w);
    }

    /// Reads the three pdps at `r`'s cursor and decodes the four parallel
    /// decoding ways after them side by side, as the paper's four hardware
    /// decoders would: way 0 starts right after the last pdp, way `w > 0`
    /// that many bits further on as pdp `w` says, and way `w` holds
    /// symbols `w * WAY_SYMBOLS..(w + 1) * WAY_SYMBOLS` of `out`, minus
    /// those in `hole` (SLC's truncated run: never on the wire, left
    /// untouched here; E2MC passes an empty range). `r` is left past the
    /// pdps.
    ///
    /// The four cursors advance in lock step — symbol *i* of every way per
    /// iteration — so the four table loads are independent and overlap
    /// instead of queueing behind one load→shift chain. Each symbol
    /// rebuilds its window with one unconditional 8-byte load from
    /// [`BitReader::pad_into`]'s copy: no refill branch, no slice-end
    /// check, and bits past the stream's end read as zero (a symbol takes
    /// at most escape + 16 raw bits = 32 of the load's 57 aligned bits).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] for a stream that ends inside the pdps.
    /// Past them, one verdict after the loop:
    /// [`DecodeError::NoCodeword`] for a window no codeword covers,
    /// [`DecodeError::BadLayout`] for a way that does not end exactly
    /// where the next one starts (the last one at the stream's end).
    /// Cursors only move forward from way 0's start, so that one check
    /// also bounds every start and end by the stream length.
    pub fn read_ways(
        &self,
        r: &mut BitReader<'_>,
        hole: Range<usize>,
        out: &mut [u16; SYMBOLS_PER_BLOCK],
    ) -> Result<(), DecodeError> {
        let mut pdps = [0u32; WAYS];
        for pdp in &mut pdps[1..] {
            *pdp = r.read(PDP_BITS) as u32;
        }
        r.check()?;
        let mut stream = [0u8; BLOCK_BYTES + 8];
        let len_bits = r.pad_into(&mut stream);
        let way0 = len_bits - r.remaining();
        let starts = pdps.map(|pdp| way0 + pdp);
        // One wrapped subtraction tests both ends of the hole; spelled
        // `hole.contains(&slot)` the loop is a fifth slower.
        let (hole_start, hole_len) = (hole.start, hole.len());
        let mut pos = starts;
        let mut covered = true;
        'decode: for i in 0..WAY_SYMBOLS {
            for (way, pos) in pos.iter_mut().enumerate() {
                let slot = way * WAY_SYMBOLS + i;
                if slot.wrapping_sub(hole_start) < hole_len {
                    continue;
                }
                // Past the block every bit is padding, so clamping the
                // load keeps a corrupt pdp inside the copy at no cost to
                // the bits it reads.
                let byte = (*pos as usize / 8).min(BLOCK_BYTES);
                let mut word = [0u8; 8];
                word.copy_from_slice(&stream[byte..byte + 8]);
                let buf = u64::from_be_bytes(word) << (*pos % 8);
                let Some((symbol, bits)) = self.decode_symbol((buf >> 32) as u32) else {
                    covered = false;
                    break 'decode;
                };
                out[slot] = symbol;
                *pos += bits;
            }
        }
        if !covered {
            return Err(DecodeError::NoCodeword);
        }
        if pos != [starts[1], starts[2], starts[3], len_bits] {
            return Err(DecodeError::BadLayout);
        }
        Ok(())
    }

    /// Decodes the symbol that starts the left-aligned 32-bit `window` with
    /// one table load — [`read_ways`](Self::read_ways)' decode step: the
    /// symbol and the bits it takes (an escape's codeword plus the 16 raw
    /// bits after it), or `None` where no codeword starts the window.
    #[inline]
    pub fn decode_symbol(&self, window: u32) -> Option<(u16, u32)> {
        let packed = self.dec[(window >> (32 - MAX_CODE_LEN)) as usize];
        let len = packed & 0xff;
        if len == 0 {
            None
        } else if packed & 0x100 != 0 {
            // Escape: the 16 raw bits follow the codeword.
            Some(((window >> (16 - len)) as u16, len + 16))
        } else {
            Some(((packed >> 16) as u16, len))
        }
    }

    /// The underlying canonical code: each entry's length and codeword,
    /// the top-k symbols' entries first and the escape's last.
    pub fn canonical_code(&self) -> &CanonicalCode {
        &self.code
    }
}

/// The E2MC block compressor with a trained [`SymbolTable`].
///
/// The table lives behind an [`Arc`]: `E2mc::clone` is a refcount bump,
/// never a copy of the precomputed tables, so schemes, harness artifacts
/// and many concurrent compressor instances all share one trained model
/// (the paper's frozen per-application code table).
#[derive(Debug, Clone)]
pub struct E2mc {
    table: Arc<SymbolTable>,
}

impl E2mc {
    /// Wraps a pre-trained table.
    pub fn new(table: SymbolTable) -> Self {
        Self::from_shared(Arc::new(table))
    }

    /// Wraps an already-shared pre-trained table without re-wrapping it.
    pub fn from_shared(table: Arc<SymbolTable>) -> Self {
        Self { table }
    }

    /// Trains a table by sampling `bytes` (the online sampling phase).
    pub fn train_on_bytes(bytes: &[u8], config: &E2mcConfig) -> Self {
        let mut sampler = match config.sample_blocks {
            Some(limit) => SymbolSampler::with_limit(limit),
            None => SymbolSampler::new(),
        };
        sampler.sample_bytes(bytes);
        Self::new(SymbolTable::from_sampler(&sampler, config))
    }

    /// Trains a table from an iterator of blocks.
    pub fn train_on_blocks<'a>(
        blocks: impl IntoIterator<Item = &'a Block>,
        config: &E2mcConfig,
    ) -> Self {
        let mut sampler = match config.sample_blocks {
            Some(limit) => SymbolSampler::with_limit(limit),
            None => SymbolSampler::new(),
        };
        for b in blocks {
            if !sampler.sample_block(b) {
                break;
            }
        }
        Self::new(SymbolTable::from_sampler(&sampler, config))
    }

    /// The trained symbol table (shared with the SLC layer).
    pub fn table(&self) -> &SymbolTable {
        &self.table
    }

    /// The shared handle to the trained table. Clones of it (and of the
    /// codec) point at the same allocation — the property the harness
    /// relies on to instantiate many schemes per trained model.
    pub fn shared_table(&self) -> &Arc<SymbolTable> {
        &self.table
    }

    /// Analyses one block without encoding anything: one pass over the
    /// dense width table — the hardware's 64 length-ROM reads — yields the
    /// per-symbol code lengths and their sum, everything the paper's tree
    /// adder, the Fig. 4 budget decision and all burst accounting need.
    /// The returned [`BlockAnalysis`] is the shared artifact of the SLC
    /// pipeline: produce it once per block, then let any number of
    /// schemes, thresholds and figures consume it (see the `slc-core`
    /// crate docs for the sharing contract).
    pub fn analyze(&self, block: &Block) -> BlockAnalysis {
        let widths = block_to_symbols(block).map(|s| self.table.bits[usize::from(s)]);
        BlockAnalysis::from_widths(widths)
    }

    /// Brings `analysis` up to date with a `block` of which only the
    /// symbols `rewritten` changed since it was analysed (SLC refilling
    /// a truncated hole): those are looked up again, their new widths go
    /// in and the total is adjusted — only the rewritten symbols re-enter
    /// the adder tree. Equals `analyze(block)`; the other symbols' widths
    /// are taken on trust.
    ///
    /// # Panics
    ///
    /// Panics if `rewritten` runs past the block's 64 symbols.
    pub fn reanalyze(&self, analysis: &mut BlockAnalysis, block: &Block, rewritten: Range<usize>) {
        let symbols = &block_to_symbols(block)[rewritten.clone()];
        analysis.rewrite(rewritten.start, symbols.iter().map(|&s| self.table.bits[usize::from(s)]));
    }
}

impl BlockCompressor for E2mc {
    fn id(&self) -> CodecId {
        CodecId::E2mc
    }

    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
        let symbols = block_to_symbols(block);
        // Size-then-write over one stashed table pass (shared with SLC's
        // framing; see SymbolTable::stash_encodings) — replaces the seed's
        // four scratch writers + append.
        let encodings = self.table.stash_encodings(&symbols);
        let way_bits = SymbolTable::way_bits(&encodings);
        let total = HEADER_BITS + way_bits.iter().sum::<u32>();
        if total >= BLOCK_BITS {
            return store_verbatim(block, out);
        }
        let mut w = BitWriter::new(out);
        w.write(1, 1); // mode: compressed
        SymbolTable::write_ways(&mut w, &encodings, way_bits);
        debug_assert_eq!(w.len_bits(), total);
        debug_assert_eq!(total, self.analyze(block).lossless_size_bits());
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
        if !r.read_bit() {
            // Mode bit clear on a block flagged as coded.
            return Err(DecodeError::UnknownTag);
        }
        let mut symbols = [0u16; SYMBOLS_PER_BLOCK];
        self.table.read_ways(&mut r, 0..0, &mut symbols)?;
        *out = symbols_to_block(&symbols);
        Ok(())
    }

    /// The E2MC stored size of `block` — `min(header + Σ code lengths,`
    /// [`BLOCK_BITS`]`)`, equal to `analyze(block).e2mc_size_bits()` — as
    /// one running sum over the dense width table, with no per-symbol
    /// length array materialised: what size-only consumers read (the
    /// E2MC-baseline size cache in `slc-workloads`, the batch engine's
    /// skip-incompressible hint).
    fn size_bits(&self, block: &Block) -> u32 {
        let code_bits: u32 =
            block_to_symbols(block).iter().map(|&s| u32::from(self.table.bits[s as usize])).sum();
        (HEADER_BITS + code_bits).min(BLOCK_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::huffman::tests::BitSerialWalk;
    use super::*;
    use crate::testing::{decode, encode, roundtrip};
    use proptest::prelude::*;

    fn ramp_bytes(n: u32, modulo: u32) -> Vec<u8> {
        (0..n).flat_map(|i| (i % modulo).to_le_bytes()).collect()
    }

    fn block_from_u32s(f: impl Fn(usize) -> u32) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..BLOCK_BYTES / 4 {
            b[i * 4..i * 4 + 4].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    }

    fn trained() -> E2mc {
        E2mc::train_on_bytes(&ramp_bytes(8192, 97), &E2mcConfig::default())
    }

    #[test]
    fn roundtrip_in_distribution_block() {
        let e = trained();
        let block = block_from_u32s(|i| (i as u32 * 7) % 97);
        let (bits, coded, payload) = encode(&e, &block);
        assert!(coded);
        assert_eq!(decode(&e, bits, coded, &payload), block);
    }

    #[test]
    fn roundtrip_with_escapes() {
        let e = trained();
        // Half the words are far outside the trained distribution.
        let block = block_from_u32s(|i| if i % 2 == 0 { 13 } else { 0xdead_0000 + i as u32 });
        assert_eq!(roundtrip(&e, &block), block);
    }

    #[test]
    fn size_bits_equals_compress_size() {
        let e = trained();
        for seed in 0..16u32 {
            let block = block_from_u32s(|i| (seed.wrapping_mul(2654435761) ^ i as u32) % 200);
            assert_eq!(e.size_bits(&block), encode(&e, &block).0);
        }
    }

    #[test]
    fn lossless_size_is_header_plus_code_lengths() {
        let e = trained();
        let block = block_from_u32s(|i| i as u32 % 97);
        let a = e.analyze(&block);
        let total: u32 = a.code_lengths().iter().sum();
        assert_eq!(a.lossless_size_bits(), HEADER_BITS + total);
    }

    #[test]
    fn analyze_agrees_with_size_and_length_paths() {
        let e = trained();
        for seed in 0..16u32 {
            let block =
                block_from_u32s(|i| (seed.wrapping_mul(2654435761) ^ (i as u32 * 31)) % 400);
            let a = e.analyze(&block);
            assert_eq!(a.total_code_bits(), a.code_lengths().iter().sum::<u32>());
            assert_eq!(a.e2mc_size_bits(), e.size_bits(&block));
        }
    }

    #[test]
    fn stored_size_direct_sum_equals_the_analysis_path() {
        // The size cache's running sum must agree bit-for-bit with the
        // full artifact, including the incompressible cap.
        let e = trained();
        for seed in 0..32u32 {
            let block = block_from_u32s(|i| {
                let x = seed.wrapping_mul(2654435761) ^ (i as u32).wrapping_mul(0x9e3779b9);
                if seed % 4 == 3 {
                    x // out of distribution: exercises the BLOCK_BITS cap
                } else {
                    x % 400
                }
            });
            assert_eq!(e.size_bits(&block), e.analyze(&block).e2mc_size_bits());
            assert_eq!(e.size_bits(&block), encode(&e, &block).0);
        }
    }

    #[test]
    fn out_of_distribution_block_stays_uncompressed() {
        let e = trained();
        let mut block = [0u8; BLOCK_BYTES];
        let mut state = 0xfeedu64;
        for b in block.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        let (bits, coded, payload) = encode(&e, &block);
        // 64 escapes at >16 bits each exceed the block size.
        assert_eq!(bits, BLOCK_BITS);
        assert_eq!(decode(&e, bits, coded, &payload), block);
    }

    #[test]
    fn zero_block_compresses_to_near_header() {
        let e = trained();
        let (bits, coded, payload) = encode(&e, &[0u8; BLOCK_BYTES]);
        // Symbol 0 dominates training (upper halves of small u32s), so the
        // zero block should approach header + 64 * short code.
        assert!(bits < 200, "got {bits}");
        assert_eq!(decode(&e, bits, coded, &payload), [0u8; BLOCK_BYTES]);
    }

    #[test]
    fn ways_are_independently_seekable() {
        // The decoder starts a cursor at each pdp; a roundtrip of a block whose
        // ways have distinct content exercises all four pointers.
        let e = trained();
        let block = block_from_u32s(|i| (i as u32 / 16) * 31 % 97);
        assert_eq!(roundtrip(&e, &block), block);
    }

    /// Sentinel for slots a decoder must leave alone.
    const UNTOUCHED: u16 = 0xa5a5;

    /// The pdps and ways of `symbols` minus `hole`, as the one writer
    /// every in-tree producer calls lays them down: bytes and bit length.
    /// `None` for a stream longer than a block, which no producer writes.
    fn way_stream(
        table: &SymbolTable,
        symbols: &[u16; SYMBOLS_PER_BLOCK],
        hole: Range<usize>,
    ) -> Option<(Vec<u8>, u32)> {
        let mut encodings = table.stash_encodings(symbols);
        encodings[hole].fill(0);
        let way_bits = SymbolTable::way_bits(&encodings);
        if (WAYS as u32 - 1) * PDP_BITS + way_bits.iter().sum::<u32>() > BLOCK_BITS {
            return None;
        }
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        SymbolTable::write_ways(&mut w, &encodings, way_bits);
        let len_bits = w.finish();
        Some((bytes, len_bits))
    }

    /// Scalar reference for `read_ways`: one bit at a time, the pdps off
    /// the wire, then one symbol at a time through the bit-serial walk of
    /// the canonical code, way after way. `None` where the stream is
    /// corrupt.
    fn reference_decode(
        table: &SymbolTable,
        bytes: &[u8],
        len_bits: u32,
        hole: Range<usize>,
    ) -> Option<[u16; SYMBOLS_PER_BLOCK]> {
        let bits = |pos: u32, n: u32| {
            (pos..pos + n).fold(0u32, |acc, i| {
                let bit = i < len_bits && bytes[i as usize / 8] >> (7 - i % 8) & 1 == 1;
                acc << 1 | u32::from(bit)
            })
        };
        let way0 = (WAYS as u32 - 1) * PDP_BITS;
        if len_bits < way0 {
            return None;
        }
        let mut starts = [way0; WAYS];
        for (way, start) in starts.iter_mut().enumerate().skip(1) {
            *start += bits((way as u32 - 1) * PDP_BITS, PDP_BITS);
        }
        let walk = BitSerialWalk::new(&table.code);
        let mut out = [UNTOUCHED; SYMBOLS_PER_BLOCK];
        for (way, symbols) in out.chunks_exact_mut(WAY_SYMBOLS).enumerate() {
            let mut pos = starts[way];
            for (i, symbol) in symbols.iter_mut().enumerate() {
                if hole.contains(&(way * WAY_SYMBOLS + i)) {
                    continue;
                }
                let (entry, len) = walk.decode(bits(pos, MAX_CODE_LEN))?;
                pos += len;
                *symbol = if entry == table.escape_entry {
                    pos += 16;
                    bits(pos - 16, 16) as u16
                } else {
                    table.top[entry]
                };
            }
            let end = if way + 1 < WAYS { starts[way + 1] } else { len_bits };
            if pos != end {
                return None;
            }
        }
        Some(out)
    }

    /// Runs both decoders on the stream, handed over as a slice of exactly
    /// `ceil(len_bits / 8)` bytes inside a dirty buffer with the slack
    /// bits of its last byte set; they must agree on accept-vs-reject and
    /// on every slot.
    fn decode_both(
        table: &SymbolTable,
        bytes: &[u8],
        len_bits: u32,
        hole: Range<usize>,
    ) -> Option<[u16; SYMBOLS_PER_BLOCK]> {
        let n = len_bits.div_ceil(8) as usize;
        let mut dirty = vec![0xa5u8; n + 32];
        dirty[16..16 + n].copy_from_slice(&bytes[..n]);
        let slack = (8 - len_bits % 8) % 8;
        dirty[16 + n - 1] |= (1 << slack) - 1;
        let stream = &dirty[16..16 + n];
        let expect = reference_decode(table, stream, len_bits, hole.clone());
        let mut out = [UNTOUCHED; SYMBOLS_PER_BLOCK];
        let got = table
            .read_ways(&mut BitReader::new(stream, len_bits), hole, &mut out)
            .ok()
            .map(|()| out);
        assert_eq!(got, expect, "decoders disagree");
        got
    }

    /// What a correct decode of `symbols` minus `hole` looks like.
    fn punched(symbols: &[u16; SYMBOLS_PER_BLOCK], hole: Range<usize>) -> [u16; SYMBOLS_PER_BLOCK] {
        let mut expect = *symbols;
        expect[hole].fill(UNTOUCHED);
        expect
    }

    /// Symbols drawn from the trained ramp, with every slot whose bit is
    /// set in `escapes` replaced by an out-of-table value.
    fn mixed_symbols(seed: u32, escapes: u64) -> [u16; SYMBOLS_PER_BLOCK] {
        let mut symbols = block_to_symbols(&block_from_u32s(|i| {
            (seed.wrapping_mul(2654435761) ^ (i as u32 * 31)) % 97
        }));
        for (slot, s) in symbols.iter_mut().enumerate() {
            if escapes >> slot & 1 == 1 {
                *s = 0xc000 | (seed as u16).wrapping_mul(257).wrapping_add(slot as u16 * 3);
            }
        }
        symbols
    }

    #[test]
    fn every_hole_decodes_like_the_scalar_reference() {
        // In-distribution, escape-heavy and all-escape (incompressible,
        // coded only where the hole makes room) blocks under every hole,
        // including holes at slot 0 / 63 and holes that swallow whole ways.
        let e = trained();
        for escapes in [0, 0x8421_1248_8001_4002, u64::MAX] {
            let symbols = mixed_symbols(7, escapes);
            for start in 0..=SYMBOLS_PER_BLOCK {
                for end in start..=SYMBOLS_PER_BLOCK {
                    let Some((bytes, len_bits)) = way_stream(e.table(), &symbols, start..end)
                    else {
                        continue;
                    };
                    let got = decode_both(e.table(), &bytes, len_bits, start..end);
                    assert_eq!(got, Some(punched(&symbols, start..end)), "hole {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn a_pdp_off_its_way_boundary_is_rejected() {
        // Way 1's codewords still parse from one bit further on, which the
        // per-way decoder accepted as garbage; way 0 ending off that start
        // is the tell.
        let e = trained();
        let symbols = mixed_symbols(3, 0);
        let (mut bytes, len_bits) = way_stream(e.table(), &symbols, 0..0).expect("coded");
        assert!(decode_both(e.table(), &bytes, len_bits, 0..0).is_some());
        // The first pdp is the stream's top 10 bits: one more on the wire.
        let pdp = u16::from_be_bytes([bytes[0], bytes[1]]) >> 6;
        let [hi, lo] = ((pdp + 1) << 6 | u16::from(bytes[1] & 0x3f)).to_be_bytes();
        (bytes[0], bytes[1]) = (hi, lo);
        assert_eq!(decode_both(e.table(), &bytes, len_bits, 0..0), None);
    }

    #[test]
    fn small_top_k_forces_more_escapes() {
        let bytes = ramp_bytes(8192, 997);
        let big = E2mc::train_on_bytes(&bytes, &E2mcConfig::default());
        let small = E2mc::train_on_bytes(&bytes, &E2mcConfig { top_k: 8, ..Default::default() });
        let block = block_from_u32s(|i| (i as u32 * 13) % 997);
        assert!(small.size_bits(&block) >= big.size_bits(&block));
    }

    #[test]
    fn clone_shares_the_trained_table() {
        // E2mc::clone must be an Arc refcount bump, not a deep copy of the
        // ~840 KB of precomputed tables: both handles point at the same
        // SymbolTable allocation.
        let a = trained();
        let b = a.clone();
        assert!(std::ptr::eq(a.table(), b.table()), "clone deep-copied the symbol table");
        assert!(Arc::ptr_eq(a.shared_table(), b.shared_table()));
    }

    #[test]
    fn from_shared_adopts_without_copying() {
        let a = trained();
        let c = E2mc::from_shared(Arc::clone(a.shared_table()));
        assert!(std::ptr::eq(a.table(), c.table()));
        // And the adopted codec is fully functional.
        let block = block_from_u32s(|i| (i as u32 * 7) % 97);
        assert_eq!(roundtrip(&c, &block), block);
    }

    #[test]
    fn sampling_limit_is_respected() {
        let bytes = ramp_bytes(8192, 97);
        let cfg = E2mcConfig { sample_blocks: Some(2), ..Default::default() };
        let e = E2mc::train_on_bytes(&bytes, &cfg);
        // Trained on two blocks only: still functional, just fewer codes.
        let block = block_from_u32s(|i| i as u32 % 97);
        assert_eq!(roundtrip(&e, &block), block);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_roundtrip_random_blocks(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let e = trained();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert_eq!(roundtrip(&e, &block), block);
        }

        #[test]
        fn prop_roundtrip_in_distribution(words in proptest::collection::vec(0u32..97, BLOCK_BYTES / 4)) {
            let e = trained();
            let mut block = [0u8; BLOCK_BYTES];
            for (i, w) in words.iter().enumerate() {
                block[i*4..i*4+4].copy_from_slice(&w.to_le_bytes());
            }
            let (bits, coded, payload) = encode(&e, &block);
            prop_assert!(coded);
            prop_assert_eq!(decode(&e, bits, coded, &payload), block);
        }

        #[test]
        fn prop_produced_ways_tile_the_stream(seed in any::<u32>(), escapes in any::<u64>(),
                                              a in 0usize..=SYMBOLS_PER_BLOCK, b in 0usize..=SYMBOLS_PER_BLOCK) {
            // What the encoders write, the decoder accepts: every way ends
            // exactly on the next one's start, whatever the hole.
            let e = trained();
            let symbols = mixed_symbols(seed, escapes);
            let hole = a.min(b)..a.max(b);
            let stream = way_stream(e.table(), &symbols, hole.clone());
            prop_assume!(stream.is_some());
            let (bytes, len_bits) = stream.expect("assumed");
            let got = decode_both(e.table(), &bytes, len_bits, hole.clone());
            prop_assert_eq!(got, Some(punched(&symbols, hole)));
        }

        #[test]
        fn prop_flipped_streams_decode_like_the_scalar_reference(seed in any::<u32>(), escapes in any::<u64>(),
                                                                 a in 0usize..=SYMBOLS_PER_BLOCK, len in 0usize..=16,
                                                                 flip in any::<u32>()) {
            let e = trained();
            let symbols = mixed_symbols(seed, escapes & escapes.rotate_left(7));
            let hole = a..(a + len).min(SYMBOLS_PER_BLOCK);
            let stream = way_stream(e.table(), &symbols, hole.clone());
            prop_assume!(stream.is_some());
            let (mut bytes, len_bits) = stream.expect("assumed");
            // Any bit, the pdps' included: accept or reject, decode_both
            // holds the two decoders to the same verdict and the same
            // symbols.
            let bit = flip % len_bits;
            bytes[bit as usize / 8] ^= 0x80 >> (bit % 8);
            decode_both(e.table(), &bytes, len_bits, hole);
        }

        #[test]
        fn prop_size_bits_bounded(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
            let e = trained();
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&data);
            prop_assert!(e.size_bits(&block) <= BLOCK_BITS);
        }
    }
}
