//! Lossless GPU memory compression substrates.
//!
//! This crate implements the four state-of-the-art memory compression
//! techniques the SLC paper (Lal et al., DATE 2019) evaluates in Figure 1 —
//! [`bdi`] (Base-Delta-Immediate), [`fpc`] (Frequent Pattern Compression),
//! [`cpack`] (C-PACK) and [`e2mc`] (entropy-encoding based memory
//! compression) — plus [`bpc`] (Bit-Plane Compression), which the paper
//! discusses only qualitatively in Section II-A, so that claim can be
//! checked quantitatively. E2MC is the crate's one Huffman codec.
//!
//! All compressors operate on fixed-size memory blocks (128 B in current
//! GPUs) and implement the [`BlockCompressor`] trait. Compressed sizes are
//! tracked in **bits**, because SLC's budgeting logic (crate `slc-core`)
//! reasons about bit-granular code lengths.
//!
//! # Raw vs effective compression ratio
//!
//! DRAM can only transfer multiples of the memory access granularity
//! ([`Mag`]); the *effective* size of a compressed block is its size rounded
//! up to the next MAG multiple. [`Mag::round_up_bytes`] and
//! [`ratio::RatioAccumulator`] implement the paper's two ratio definitions.
//!
//! ```
//! use slc_compress::{BlockCompressor, bdi::Bdi, mag::Mag, BLOCK_BYTES};
//!
//! let block = [0u8; BLOCK_BYTES]; // an all-zero block compresses extremely well
//! let bdi = Bdi::new();
//! let mut payload = Vec::new();
//! let (bits, coded) = bdi.compress_into(&block, &mut payload);
//! assert!(coded && bits < 8 * BLOCK_BYTES as u32);
//! assert_eq!(payload.len(), bits.div_ceil(8) as usize);
//! assert_eq!(Mag::GDDR5.round_up_bytes(bits.div_ceil(8)), 32);
//!
//! let mut out = [0xffu8; BLOCK_BYTES];
//! bdi.decompress_into(bits, coded, &payload, &mut out).unwrap();
//! assert_eq!(out, block);
//! ```
//!
//! # Performance
//!
//! The per-block hot paths are engineered to work a machine word at a
//! time rather than bit by bit:
//!
//! * **Staging-register bitstream, one sink** — [`bitstream::BitWriter`]
//!   stages bits in a 128-bit register and only appends to the `Vec<u8>`
//!   handed to [`BlockCompressor::compress_into`], one 8-byte word per 64
//!   bits; [`bitstream::BitReader`] serves a read or peek from one 8-byte
//!   load, and from a 16-byte window only a field that reaches past the
//!   8 bytes from its first (a misaligned 64-bit one). BDI decodes with
//!   no reader: its fields sit at fixed offsets (see [`bdi`]'s
//!   "Decoding"). Codecs fuse each token's prefix, index
//!   and literal fields into one `write`/`peek` pair, so a C-PACK word or
//!   an FPC pattern costs two bitstream calls end to end. E2MC's and SLC's
//!   Fig. 6 streams skip the writer: [`e2mc::SymbolTable::write_ways`]
//!   packs codeword pairs in a register into a stack buffer, with no
//!   branch per codeword, and appends the stream once. The wire format is
//!   bit-identical to the original byte-loop implementation (see
//!   `tests/bitstream_equivalence.rs`).
//! * **LUT Huffman decode** — [`e2mc::SymbolTable`] span-fills its one
//!   decode table, indexed by a [`e2mc::MAX_CODE_LEN`]-bit window, from
//!   the canonical code's lengths and codewords at training time;
//!   decoding a symbol is one table load (plus a raw 16-bit read for
//!   escapes) instead of a bit-serial canonical walk, the scheme used by
//!   GPU Huffman decoders (cuSZ+, Rivera et al.). Encoding uses a
//!   per-symbol `(codeword, length)` table with the escape's raw bits
//!   pre-fused, so every symbol is one table load.
//! * **Zero-alloc block codecs** — per-block state lives in fixed-size
//!   arrays (BDI value/mask bitmaps, C-PACK's FIFO dictionary, BPC's
//!   planes, E2MC's stream buffer, its pdps patched in after the ways).
//!   Neither [`BlockCompressor::compress_into`] nor
//!   [`BlockCompressor::decompress_into`], the one encode and the one
//!   decode entry, allocates per block: both work on the caller's buffers.
//! * **Transposed bit-planes** — BPC's DBP rotation runs as a 32×32
//!   bit-matrix transpose (Hacker's Delight §7-3), ~5 word-ops per plane
//!   instead of a 33×31 single-bit gather.
//! * **Shared trained artifacts** — [`e2mc::E2mc`] holds its trained
//!   [`e2mc::SymbolTable`] behind an `Arc`. Training builds the code and
//!   the 64 KB width table that every size-only path reads; the 512 KB
//!   encode and 256 KB decode tables are built the first time a stream is
//!   written or read, so a table that only sizes blocks (staging, the
//!   size cache, burst accounting) never holds them. Cloning a trained
//!   codec, or any scheme built on one, is an O(1) refcount bump,
//!   **never** a copy, so harnesses instantiate one scheme per variant,
//!   threshold or worker thread against a single
//!   frozen model (the paper's one-shot sampling phase). A unit test pins
//!   pointer identity across clones.
//! * **Shared block analyses** — [`e2mc::E2mc::analyze`] captures a
//!   block's per-symbol code lengths and their sum as an
//!   [`e2mc::BlockAnalysis`] (68 bytes, no payload) in one pass over the
//!   dense width table. Every size-only consumer — SLC's budget decision
//!   and Fig. 5 tree in `slc-core`, burst accounting and ratio studies in
//!   the workload harness — takes the artifact instead of re-deriving the
//!   lengths, so one analysis per block serves any number of schemes,
//!   MAGs and thresholds (pinned bit-identical to the direct path by
//!   property tests).
//! * **Bulk dictionary/geometry scans** — C-PACK probes all 16 FIFO
//!   entries at every match granularity in one branchless pass (SSE2
//!   compare+movemask on x86-64, a scalar bitmap loop elsewhere) instead
//!   of three early-exit scans.
//! * **First-fit BDI** — [`bdi`] tries its six base+delta arms in size
//!   order and takes the first that fits, leaving an arm at the first
//!   value that fits neither base. Each arm is monomorphised for its
//!   planner, its delta writer and its decoder, so every trip count and
//!   shift is a compile-time constant, and the writer packs every
//!   `64 / delta_bits` deltas into one 64-bit write.
//! * **Interleaved rANS entropy substrate** — [`rans`] adds a 4-lane
//!   byte-oriented rANS coder whose encode/decode inner loops are
//!   branch-free (reciprocal-multiply encode, 4096-slot LUT decode,
//!   speculative word refill), with a whole-chunk mode
//!   ([`ChunkCoder`]) that gathers one frequency table per engine chunk
//!   instead of per 128 B block.
//!
//! The `benchmark/` ledger measures these paths from outside the crate
//! (`compress.{encode,decode,analyze}_ns_per_block` on `mixed_bdi`,
//! `snap_e2mc` and `mixed_rans`; see `benchmark/README.md`). Per-block
//! FPC, C-PACK and BPC have no ledger row yet (ROADMAP item 1a).

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod bdi;
pub mod bitstream;
pub mod bpc;
pub mod codec;
pub mod cpack;
pub mod e2mc;
pub mod fpc;
pub mod mag;
pub mod rans;
pub mod ratio;
pub mod symbols;

pub use codec::{BlockCodec, ChunkCoder, CodecId};
pub use mag::Mag;

/// Size of an uncompressed memory block in bytes (typical GPU block size).
pub const BLOCK_BYTES: usize = 128;

/// Size of an uncompressed memory block in bits.
pub const BLOCK_BITS: u32 = (BLOCK_BYTES as u32) * 8;

/// A memory block, the unit of compression (one 128 B L2 line / DRAM block).
pub type Block = [u8; BLOCK_BYTES];

/// Why a decoder rejected its input — the one failure channel of every
/// decode function in this crate, from [`bitstream::BitReader`] up to
/// [`BlockCompressor::decompress_into`] and [`ChunkCoder::decode_chunk`].
/// Corrupt bytes are an expected input on the load path, so they are
/// reported by value, never by panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeError {
    /// The stream ends before the decode does: a read ran past the
    /// declared bit length, or a section is shorter than its header says.
    Truncated,
    /// A tag, prefix or mode field holds a value no encoder writes.
    UnknownTag,
    /// No codeword matches the bits at the cursor.
    NoCodeword,
    /// Header fields or section boundaries do not fit the stream (an E2MC
    /// way ending off the next one's start, an SLC hole past the block,
    /// a rANS word stream of the wrong length).
    BadLayout,
    /// A rANS frequency table not ascending or not summing to the scale.
    BadTable,
    /// A rANS lane state outside its interval, or not back at its
    /// initial value when the stream ends.
    BadState,
}

impl DecodeError {
    /// A fixed one-line description (what the engine reports as a
    /// corrupt chunk's `reason`).
    pub fn reason(self) -> &'static str {
        match self {
            DecodeError::Truncated => "stream ends before the decode does",
            DecodeError::UnknownTag => "tag or prefix no encoder writes",
            DecodeError::NoCodeword => "no codeword matches the stream",
            DecodeError::BadLayout => "header fields or section boundaries do not fit the stream",
            DecodeError::BadTable => "rANS frequency table invalid",
            DecodeError::BadState => "rANS lane state outside its interval",
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for DecodeError {}

/// A block compressor/decompressor pair.
///
/// Implementations must be lossless: [`decompress_into`] of what
/// [`compress_into`] wrote gives back the block, for every block. This
/// invariant is checked by property tests in every codec module and by
/// the cross-codec integration tests.
///
/// [`compress_into`]: Self::compress_into
/// [`decompress_into`]: Self::decompress_into
pub trait BlockCompressor {
    /// The codec's wire identity, the byte a container header names it
    /// by ([`CodecId::name`] is its short name, e.g. `"bdi"`).
    fn id(&self) -> CodecId;

    /// Compresses one block, appending exactly `size_bits.div_ceil(8)`
    /// payload bytes to `out` — the coded stream, or the verbatim block
    /// when coding does not pay — and returning `(size_bits,
    /// is_compressed)`. Bytes already in `out` are left untouched.
    ///
    /// This is the one encode path: every codec appends to `out` itself,
    /// so the engine's per-block loop lands payload bytes straight in the
    /// chunk buffer and nothing allocates per block.
    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool);

    /// Reconstructs the original block into a caller-provided buffer
    /// from what [`compress_into`](Self::compress_into) returned and
    /// wrote, so the engine's chunk decoder feeds wire bytes straight in
    /// and nothing allocates per block.
    ///
    /// This is the one decode path, and it is total: for *any*
    /// `size_bits`, flag and `payload` — wire bytes, another codec's
    /// stream, a payload shorter than `size_bits` claims — it returns
    /// `Ok` with `out` fully overwritten or a [`DecodeError`] with `out`
    /// unspecified, and never panics or reads out of bounds.
    fn decompress_into(
        &self,
        size_bits: u32,
        compressed: bool,
        payload: &[u8],
        out: &mut Block,
    ) -> Result<(), DecodeError>;

    /// Compressed size in bits.
    ///
    /// The default encodes the block once through
    /// [`compress_into`](Self::compress_into) into a block-sized buffer
    /// it then drops; codecs with a cheap size path (e.g. E2MC's
    /// code-length adder) override it.
    fn size_bits(&self, block: &Block) -> u32 {
        self.compress_into(block, &mut Vec::with_capacity(BLOCK_BYTES)).0
    }

    /// The codec's whole-chunk coding mode, if it has one.
    ///
    /// `None` (the default) means the engine codes chunk blocks
    /// individually; a codec that amortises per-stream model setup over
    /// a whole engine chunk (rANS: one frequency table per chunk)
    /// returns itself. See [`codec::ChunkCoder`].
    fn chunk_coder(&self) -> Option<&dyn codec::ChunkCoder> {
        None
    }
}

/// The "store uncompressed" leg of the paper's Figure 4, shared by every
/// codec's [`compress_into`](BlockCompressor::compress_into): appends the
/// verbatim block.
pub(crate) fn store_verbatim(block: &Block, out: &mut Vec<u8>) -> (u32, bool) {
    out.extend_from_slice(block);
    (BLOCK_BITS, false)
}

/// The decode twin of [`store_verbatim`], shared by every codec's
/// [`decompress_into`](BlockCompressor::decompress_into): copies the
/// verbatim block out of `payload`, which must hold a whole one.
pub(crate) fn load_verbatim(payload: &[u8], out: &mut Block) -> Result<(), DecodeError> {
    *out = *payload.first_chunk().ok_or(DecodeError::Truncated)?;
    Ok(())
}

/// The unit tests' shorthand for the one encode and the one decode entry.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Block, BlockCompressor, BLOCK_BYTES};

    /// [`BlockCompressor::compress_into`] on an empty buffer of its own:
    /// `(size_bits, is_compressed, payload)`.
    pub(crate) fn encode(codec: &impl BlockCompressor, block: &Block) -> (u32, bool, Vec<u8>) {
        let mut payload = Vec::new();
        let (bits, coded) = codec.compress_into(block, &mut payload);
        (bits, coded, payload)
    }

    /// [`BlockCompressor::decompress_into`] of a stream the codec wrote.
    pub(crate) fn decode(
        codec: &impl BlockCompressor,
        bits: u32,
        coded: bool,
        payload: &[u8],
    ) -> Block {
        let mut out = [0u8; BLOCK_BYTES];
        codec.decompress_into(bits, coded, payload, &mut out).unwrap();
        out
    }

    /// `block` after an encode → decode round trip.
    pub(crate) fn roundtrip(codec: &impl BlockCompressor, block: &Block) -> Block {
        let (bits, coded, payload) = encode(codec, block);
        decode(codec, bits, coded, &payload)
    }
}
