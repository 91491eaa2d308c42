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
//! let block = [0u8; 128]; // an all-zero block compresses extremely well
//! let compressed = Bdi::new().compress(&block);
//! assert!(compressed.size_bits() < 8 * BLOCK_BYTES as u32);
//! let eff = Mag::GDDR5.round_up_bytes(compressed.size_bytes());
//! assert_eq!(eff % 32, 0);
//! ```
//!
//! # Performance
//!
//! The per-block hot paths are engineered to work a machine word at a
//! time rather than bit by bit:
//!
//! * **Staging-register bitstream** — [`bitstream::BitWriter`] stages
//!   bits in a 128-bit register and appends one 8-byte word to its sink
//!   per 64 bits written; [`bitstream::BitReader`] serves any read or
//!   peek from a single (at most 16-byte) window load. Codecs fuse each
//!   token's prefix, index and literal fields into one `write`/`peek`
//!   pair, so a C-PACK word or an FPC pattern costs two bitstream calls
//!   end to end. The wire format is bit-identical to the original
//!   byte-loop implementation (see `tests/bitstream_equivalence.rs`).
//! * **LUT Huffman decode** — [`e2mc::SymbolTable`] span-fills its one
//!   decode table, indexed by a [`e2mc::MAX_CODE_LEN`]-bit window, from
//!   the canonical code's lengths and codewords at training time;
//!   decoding a symbol is one table load (plus a raw 16-bit read for
//!   escapes) instead of a bit-serial canonical walk, the scheme used by
//!   GPU Huffman decoders (cuSZ+, Rivera et al.). Encoding uses a
//!   per-symbol `(codeword, length)` table with the escape's raw bits
//!   pre-fused, so every symbol is exactly one `write`.
//! * **Zero-alloc block codecs** — per-block state lives in fixed-size
//!   arrays (BDI value/mask bitmaps, C-PACK's FIFO dictionary, BPC's
//!   planes, E2MC's way sizes), and E2MC computes its parallel-decoding
//!   pointers from code-length sums *before* encoding, eliminating the
//!   per-way scratch writers. Encoding through
//!   [`BlockCompressor::compress_into`] allocates nothing per block; the
//!   owned [`BlockCompressor::compress`] wrapper allocates its payload.
//! * **Transposed bit-planes** — BPC's DBP rotation runs as a 32×32
//!   bit-matrix transpose (Hacker's Delight §7-3), ~5 word-ops per plane
//!   instead of a 33×31 single-bit gather.
//! * **Shared trained artifacts** — [`e2mc::E2mc`] holds its trained
//!   [`e2mc::SymbolTable`] (~840 KB of precomputed tables: encode,
//!   width and the one decode table) behind an `Arc`. The clone-cost
//!   contract: cloning a trained codec —
//!   or any scheme built on one — is an O(1) refcount bump, **never** a
//!   copy of the tables, so harnesses instantiate one scheme per variant,
//!   threshold or worker thread against a single frozen model (the
//!   paper's one-shot sampling phase freezes the table for the life of a
//!   run). `E2mc::shared_table` exposes the handle, and a unit
//!   test pins pointer identity across clones.
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
//! * **One writer over the caller's sink** — every codec serialises
//!   through the same [`bitstream::BitWriter`], which borrows the
//!   `Vec<u8>` handed to [`BlockCompressor::compress_into`] and only
//!   ever appends to it. There is no staging buffer to size, allocate or
//!   copy out of: the engine's per-block loop gets payload bytes straight
//!   in its chunk buffer, and the "coded stream vs verbatim block"
//!   decision is taken once, in the writer's block finish.
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

/// Outcome of compressing one block.
///
/// A `Compressed` value records the exact bit-size of the encoding and the
/// packed payload. A compressor that cannot beat the uncompressed size
/// reports `size_bits == BLOCK_BITS` and stores the block verbatim
/// (`is_compressed() == false`), matching the "store uncompressed" leg of
/// the paper's Figure 4 flow chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compressed {
    size_bits: u32,
    payload: Vec<u8>,
    compressed: bool,
}

impl Compressed {
    /// Wraps a compressed payload of `size_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is too short to hold `size_bits` bits.
    pub fn new(size_bits: u32, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() * 8 >= size_bits as usize,
            "payload of {} bytes cannot hold {} bits",
            payload.len(),
            size_bits
        );
        Self { size_bits, payload, compressed: true }
    }

    /// Wraps a block stored verbatim because compression did not pay off.
    pub fn uncompressed(block: &Block) -> Self {
        Self { size_bits: BLOCK_BITS, payload: block.to_vec(), compressed: false }
    }

    /// Exact size of the encoding in bits.
    pub fn size_bits(&self) -> u32 {
        self.size_bits
    }

    /// Size of the encoding in whole bytes (rounded up).
    pub fn size_bytes(&self) -> u32 {
        self.size_bits.div_ceil(8)
    }

    /// `true` if the block is stored in compressed form, `false` if verbatim.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// The packed payload bytes (compressed stream, or the raw block when
    /// [`is_compressed`](Self::is_compressed) is `false`).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }
}

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
/// Implementations must be lossless: `decompress(compress(b)) == b` for every
/// block `b`. This invariant is checked by property tests in every codec
/// module and by the cross-codec integration tests.
pub trait BlockCompressor {
    /// The codec's wire identity, the byte a container header names it
    /// by ([`CodecId::name`] is its short name, e.g. `"bdi"`).
    fn id(&self) -> CodecId;

    /// Compresses one block, appending exactly
    /// [`size_bytes`](Compressed::size_bytes) payload bytes to `out` —
    /// the coded stream, or the verbatim block when coding does not pay
    /// — and returning `(size_bits, is_compressed)`. Bytes already in
    /// `out` are left untouched.
    ///
    /// This is the one encode path: every codec serialises through a
    /// [`bitstream::BitWriter`] over `out` itself, so the engine's
    /// per-block loop lands payload bytes straight in the chunk buffer
    /// and nothing allocates per block.
    fn compress_into(&self, block: &Block, out: &mut Vec<u8>) -> (u32, bool);

    /// Compresses one block into an owned [`Compressed`] (convenience
    /// wrapper over [`compress_into`](Self::compress_into) for cold paths
    /// and tests; its payload is the wrapper's one allocation).
    fn compress(&self, block: &Block) -> Compressed {
        let mut payload = Vec::with_capacity(BLOCK_BYTES);
        let (size_bits, compressed) = self.compress_into(block, &mut payload);
        Compressed { size_bits, payload, compressed }
    }

    /// Reconstructs the original block into a caller-provided buffer.
    ///
    /// The arguments are the deconstructed fields of a [`Compressed`]
    /// value; taking them apart lets the engine's chunk decoder feed
    /// wire bytes straight in — no owned `Compressed` (and no payload
    /// allocation) on the hot decode path.
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

    /// Reconstructs the original block (owned convenience wrapper over
    /// [`decompress_into`](Self::decompress_into); cold paths and tests).
    ///
    /// # Panics
    ///
    /// Panics if `c` was not produced by this compressor and does not
    /// decode; untrusted bytes go through
    /// [`decompress_into`](Self::decompress_into).
    fn decompress(&self, c: &Compressed) -> Block {
        let mut out = [0u8; BLOCK_BYTES];
        #[expect(
            clippy::expect_used,
            reason = "documented contract of the owned wrapper: only this codec's own streams go in, untrusted bytes take decompress_into"
        )]
        self.decompress_into(c.size_bits(), c.is_compressed(), c.payload(), &mut out)
            .expect("a stream this codec produced decodes");
        out
    }

    /// Compressed size in bits without materialising the payload.
    ///
    /// The default delegates to [`compress`](Self::compress); codecs with a
    /// cheap size path (e.g. E2MC's code-length adder) override it.
    fn size_bits(&self, block: &Block) -> u32 {
        self.compress(block).size_bits()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_size_bytes_rounds_up() {
        let c = Compressed::new(9, vec![0xff, 0x80]);
        assert_eq!(c.size_bytes(), 2);
        assert_eq!(c.size_bits(), 9);
        assert!(c.is_compressed());
    }

    #[test]
    fn uncompressed_block_is_verbatim() {
        let block = [0xabu8; BLOCK_BYTES];
        let c = Compressed::uncompressed(&block);
        assert_eq!(c.size_bits(), BLOCK_BITS);
        assert!(!c.is_compressed());
        assert_eq!(c.payload(), &block[..]);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn new_rejects_short_payload() {
        let _ = Compressed::new(64, vec![0u8; 4]);
    }
}
