//! Batch/streaming compression engine over the block codecs.
//!
//! Every codec in `slc-compress` works one 128 B block at a time — the
//! granularity GPU memory-compression hardware sees. This crate is the
//! batch front end above them: an [`Engine`] takes an arbitrary byte
//! stream, shards it into fixed-size chunks, compresses the
//! chunks in parallel via `slc-par`, and emits the self-describing
//! framed container of [`container`] (magic + version + codec id +
//! chunk geometry + a per-chunk `(offset, encoded_bits, storage_mode)`
//! directory). Decode is the mirror image: parse + validate the frame
//! once, then decode chunks in parallel, each seeking straight to its
//! payload span — no scan dependency between chunks, the gap-array trick
//! of GPU Huffman decoders applied at chunk granularity.
//!
//! # In-chunk block framing
//!
//! A `Coded` chunk is a byte-aligned sequence of blocks, each:
//!
//! ```text
//! tag: u16 LE = size_bits (15 bits) | coded_flag << 15
//! body: ceil(size_bits / 8) bytes (the codec payload, or the raw block
//!       when coded_flag is clear — size_bits is then exactly 1024)
//! ```
//!
//! A chunk whose coded form would be at least its raw size is stored
//! `Raw` (verbatim bytes, no tags), so containers never blow up on
//! incompressible data. A ragged tail block (stream length not a block
//! multiple) is zero-padded for the codec; the decoder truncates back
//! to the header's exact `total_len`.
//!
//! Codecs that implement [`slc_compress::codec::ChunkCoder`] (rANS)
//! replace the per-block framing of a `Coded` chunk with **one stream per
//! chunk**, amortising model setup (one frequency table per 64 KiB
//! chunk instead of per 128 B block). This changes nothing in the
//! container format: the frame never interprets a `Coded` chunk's
//! bytes — they belong to the codec named in the header — and the raw
//! fallback applies identically.
//!
//! For serving scenarios where the raw stream never exists in one
//! buffer, [`Engine::stream_encoder`] offers an incremental `push`
//! API whose output is byte-identical to [`Engine::compress`] while
//! holding at most one chunk of raw input at a time.
//!
//! # Determinism and safety contracts
//!
//! * Parallel and serial compress produce **byte-identical** containers
//!   (`slc-par` is order-preserving and chunks are independent), and
//!   parallel decode is byte-identical to serial decode — both pinned by
//!   property tests across every codec.
//! * [`Engine::decompress`] never panics on arbitrary input, and not
//!   because anything is caught: the frame is fully validated before any
//!   chunk decodes, every payload index is pre-bounded, and the codecs'
//!   decode functions are total — a corrupt block or chunk stream comes
//!   back as a [`slc_compress::DecodeError`], which the
//!   chunk worker reports as [`ContainerError::ChunkCorrupt`]. The
//!   workspace therefore also runs built with `panic = "abort"`.
//! * [`Engine::compress_with_sizes`] is the no-re-analysis path for
//!   callers that already know each block's stored size (the harness'
//!   cached snapshot analyses — see `slc_workloads::engine` for the
//!   sharing contract): blocks whose stored size says "incompressible"
//!   skip the codec entirely and the output is byte-identical to
//!   [`Engine::compress`].

#![forbid(unsafe_code)]
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

pub mod container;

pub use container::{ContainerError, DirEntry, Frame, Header, StorageMode};
pub use container::{DIR_ENTRY_BYTES, HEADER_BYTES, MAGIC, MAX_CHUNK_BYTES, VERSION};
/// How a batch call fans out across threads (one chunk per item).
pub use slc_par::Threads;

use slc_compress::{Block, BlockCodec, CodecId, DecodeError, BLOCK_BITS, BLOCK_BYTES};
use slc_par::par_map;
use std::sync::Arc;

/// Tag bit marking a block stored in coded (compressed) form.
const TAG_CODED: u16 = 1 << 15;

/// A batch compression/decompression engine bound to one block codec.
///
/// Cloning an `Engine` clones the `Arc`, not the codec (for trained
/// codecs that is the same refcount-bump contract as `E2mc::clone`).
#[derive(Clone)]
pub struct Engine {
    codec: Arc<dyn BlockCodec>,
    chunk_bytes: usize,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("codec", &self.codec.id().name())
            .field("chunk_bytes", &self.chunk_bytes)
            .finish()
    }
}

impl Engine {
    /// Default chunk size: 64 KiB = 512 blocks, coarse enough to amortise
    /// the pool hand-off, fine enough that a snapshot fans out widely.
    pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

    /// Builds an engine around `codec` at the default chunk size. The
    /// container header names the codec by its
    /// [`id`](slc_compress::BlockCompressor::id).
    pub fn new(codec: Arc<dyn BlockCodec>) -> Self {
        Self { codec, chunk_bytes: Self::DEFAULT_CHUNK_BYTES }
    }

    /// Overrides the chunk size.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk_bytes` is a non-zero multiple of
    /// [`BLOCK_BYTES`] no larger than [`MAX_CHUNK_BYTES`] (what
    /// [`Frame::parse`] will accept back).
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        assert!(
            chunk_bytes > 0
                && chunk_bytes.is_multiple_of(BLOCK_BYTES)
                && chunk_bytes <= MAX_CHUNK_BYTES,
            "chunk_bytes {chunk_bytes} must be a non-zero multiple of {BLOCK_BYTES} \
             at most {MAX_CHUNK_BYTES}"
        );
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// The wire identity of the engine's codec.
    pub fn codec_id(&self) -> CodecId {
        self.codec.id()
    }

    /// The configured chunk size in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Compresses `bytes` into a framed container ([`Threads::Auto`]).
    pub fn compress(&self, bytes: &[u8]) -> Vec<u8> {
        self.compress_threads(bytes, Threads::Auto)
    }

    /// [`compress`](Self::compress) with an explicit thread policy.
    /// Output bytes are identical whatever the policy.
    pub fn compress_threads(&self, bytes: &[u8], threads: Threads) -> Vec<u8> {
        self.compress_impl(bytes, None, threads)
    }

    /// Compresses a block-aligned stream whose per-block stored sizes are
    /// already known, skipping the codec for every block the sizes call
    /// incompressible (`>= BLOCK_BITS` → stored verbatim).
    ///
    /// The contract: `stored_bits[i]` must equal the codec's own
    /// `size_bits` for block `i` — then the output is **byte-identical**
    /// to [`compress`](Self::compress) (pinned by tests). This is how the
    /// workload harness feeds its cached `SnapshotAnalysis` sizes through
    /// the engine without re-analysing a single block; lying sizes
    /// produce a valid container whose raw/coded split is merely
    /// suboptimal for `< BLOCK_BITS` lies, or wrong (expanded verbatim
    /// blocks) for `>= BLOCK_BITS` lies about compressible data.
    ///
    /// Codecs with a whole-chunk mode (`chunk_coder()`, e.g. rANS)
    /// ignore the sizes — their chunk streams are not block-framed, so
    /// there is no per-block decision to skip and the output is
    /// trivially identical to [`compress`](Self::compress).
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is not block-aligned or `stored_bits` has a
    /// different block count.
    pub fn compress_with_sizes(
        &self,
        bytes: &[u8],
        stored_bits: &[u32],
        threads: Threads,
    ) -> Vec<u8> {
        assert_eq!(bytes.len() % BLOCK_BYTES, 0, "sized compression needs block-aligned input");
        assert_eq!(
            stored_bits.len(),
            bytes.len() / BLOCK_BYTES,
            "one stored size per block required"
        );
        self.compress_impl(bytes, Some(stored_bits), threads)
    }

    fn compress_impl(&self, bytes: &[u8], hints: Option<&[u32]>, threads: Threads) -> Vec<u8> {
        let blocks_per_chunk = self.chunk_bytes / BLOCK_BYTES;
        let codec = &*self.codec;
        let chunks: Vec<(usize, &[u8])> = bytes.chunks(self.chunk_bytes).enumerate().collect();
        let encoded: Vec<(Vec<u8>, StorageMode)> = par_map(chunks, threads, |(ci, chunk)| {
            let chunk_hints = hints.map(|h| {
                let lo = ci * blocks_per_chunk;
                &h[lo..lo + chunk.len().div_ceil(BLOCK_BYTES)]
            });
            encode_chunk(codec, chunk, chunk_hints)
        });
        // A raw chunk's buffer comes back empty (see `encode_chunk`): its
        // stored bytes are the chunk's own slice of the input.
        let stored: Vec<(&[u8], StorageMode)> = encoded
            .iter()
            .zip(bytes.chunks(self.chunk_bytes))
            .map(|((data, mode), chunk)| {
                (if *mode == StorageMode::Raw { chunk } else { &data[..] }, *mode)
            })
            .collect();
        let dir: Vec<_> = stored.iter().map(|&(s, mode)| (s.len(), mode)).collect();
        let mut out = self.frame_head(bytes.len() as u64, &dir);
        for (s, _) in stored {
            out.extend_from_slice(s);
        }
        out
    }

    /// Starts a container: the header and one directory entry per chunk
    /// of the given stored length and mode (offsets are the running
    /// payload length), with room reserved for the payload the caller
    /// then appends chunk by chunk.
    fn frame_head(&self, total_len: u64, chunks: &[(usize, StorageMode)]) -> Vec<u8> {
        let payload_len: usize = chunks.iter().map(|&(len, _)| len).sum();
        let mut out =
            Vec::with_capacity(HEADER_BYTES + chunks.len() * DIR_ENTRY_BYTES + payload_len);
        Header {
            codec: self.codec.id(),
            chunk_bytes: self.chunk_bytes as u32,
            chunk_count: chunks.len() as u32,
            total_len,
        }
        .write_to(&mut out);
        let mut offset = 0u64;
        for &(len, mode) in chunks {
            DirEntry { offset, encoded_bits: (len * 8) as u32, mode }.write_to(&mut out);
            offset += len as u64;
        }
        out
    }

    /// Decompresses a framed container ([`Threads::Auto`]).
    ///
    /// Never panics on arbitrary input — see the crate docs.
    pub fn decompress(&self, container: &[u8]) -> Result<Vec<u8>, ContainerError> {
        self.decompress_threads(container, Threads::Auto)
    }

    /// [`decompress`](Self::decompress) with an explicit thread policy.
    /// Output bytes are identical whatever the policy.
    pub fn decompress_threads(
        &self,
        container: &[u8],
        threads: Threads,
    ) -> Result<Vec<u8>, ContainerError> {
        let frame = self.parse_own(container)?;
        // `total_len` is a wire field no payload byte has vouched for
        // yet: reserve fallibly, so a header that claims terabytes is an
        // `Err`, not an allocator abort.
        let total_len = frame.header.total_len;
        let alloc_failed = ContainerError::OutputAllocFailed { total_len };
        let len = usize::try_from(total_len).map_err(|_| alloc_failed)?;
        let mut out = Vec::new();
        out.try_reserve_exact(len).map_err(|_| alloc_failed)?;
        out.resize(len, 0);
        self.decode_frame(&frame, &mut out, threads)?;
        Ok(out)
    }

    /// Decompresses a framed container into a caller-provided buffer —
    /// the borrowed mirror of [`decompress`](Self::decompress) for
    /// callers that reuse output storage across calls (buffer pools,
    /// arenas, pinned staging memory). Nothing allocates per block:
    /// every chunk decodes straight into its span of `out` through
    /// [`decompress_into`](slc_compress::BlockCompressor::decompress_into).
    ///
    /// `out.len()` must equal the container's decoded length (the
    /// header's `total_len`, also [`FrameInfo::total_len`]); any other
    /// length is [`ContainerError::OutputLenMismatch`]. On success the
    /// buffer is fully overwritten; after an error its contents are
    /// unspecified (chunks decoded before the failure remain).
    ///
    /// Byte-identity with the owned path is pinned by property tests:
    /// `decompress_into` fills `out` with exactly the bytes
    /// [`decompress`](Self::decompress) would return.
    pub fn decompress_into(&self, container: &[u8], out: &mut [u8]) -> Result<(), ContainerError> {
        self.decompress_into_threads(container, out, Threads::Auto)
    }

    /// [`decompress_into`](Self::decompress_into) with an explicit
    /// thread policy. Output bytes are identical whatever the policy.
    pub fn decompress_into_threads(
        &self,
        container: &[u8],
        out: &mut [u8],
        threads: Threads,
    ) -> Result<(), ContainerError> {
        let frame = self.parse_own(container)?;
        if out.len() as u64 != frame.header.total_len {
            return Err(ContainerError::OutputLenMismatch {
                total_len: frame.header.total_len,
                out_len: out.len(),
            });
        }
        self.decode_frame(&frame, out, threads)
    }

    /// Parses `container` and checks its header names this engine's
    /// codec.
    fn parse_own<'a>(&self, container: &'a [u8]) -> Result<Frame<'a>, ContainerError> {
        let frame = Frame::parse(container)?;
        if frame.header.codec != self.codec.id() {
            return Err(ContainerError::CodecMismatch {
                container: frame.header.codec,
                engine: self.codec.id(),
            });
        }
        Ok(frame)
    }

    /// Decodes a validated frame's chunks into `out`, whose length both
    /// callers have already pinned to the header's `total_len`.
    fn decode_frame(
        &self,
        frame: &Frame<'_>,
        out: &mut [u8],
        threads: Threads,
    ) -> Result<(), ContainerError> {
        let chunk_bytes = frame.header.chunk_bytes as usize;
        let payload = frame.payload;
        let codec = &*self.codec;
        // Frame::parse pinned chunk_count == ceil(total_len / chunk_bytes),
        // so the zip below is exact: one directory entry per output chunk.
        let work: Vec<(usize, DirEntry, &mut [u8])> = out
            .chunks_mut(chunk_bytes)
            .zip(frame.directory.iter())
            .enumerate()
            .map(|(i, (dst, &entry))| (i, entry, dst))
            .collect();
        let results =
            par_map(work, threads, |(i, entry, dst)| decode_chunk(codec, payload, entry, dst, i));
        for r in results {
            r?;
        }
        Ok(())
    }

    /// Starts a streaming encode: feed bytes in arbitrary-sized pieces
    /// via [`StreamEncoder::push`], finish with
    /// [`StreamEncoder::finish`]. The container is **byte-identical** to
    /// [`compress`](Self::compress) over the concatenated input (pinned
    /// by property tests), but the raw stream never has to exist in one
    /// buffer: each chunk is encoded the moment it fills, so live
    /// working memory beyond the compressed output is one chunk.
    pub fn stream_encoder(&self) -> StreamEncoder {
        StreamEncoder {
            engine: self.clone(),
            pending: Vec::with_capacity(self.chunk_bytes),
            dir: Vec::new(),
            payload: Vec::new(),
            total_len: 0,
        }
    }
}

/// Incremental, bounded-memory encoder for serving scenarios (built by
/// [`Engine::stream_encoder`]).
///
/// The one-shot [`Engine::compress`] needs the whole raw stream in
/// memory; `StreamEncoder` accepts it piecewise. Chunks are encoded as
/// soon as they fill (serially, in arrival order), so the encoder only
/// ever holds the compressed payload, a 13-byte directory entry per
/// chunk, and at most one chunk of raw tail — a few tens of KiB of
/// working state however long the stream runs.
#[derive(Debug)]
pub struct StreamEncoder {
    engine: Engine,
    /// Raw tail shorter than one chunk, awaiting more input.
    pending: Vec<u8>,
    /// Stored length and mode of every chunk encoded so far.
    dir: Vec<(usize, StorageMode)>,
    payload: Vec<u8>,
    total_len: u64,
}

impl StreamEncoder {
    /// Appends `bytes` to the stream, encoding every chunk that fills.
    pub fn push(&mut self, bytes: &[u8]) {
        let chunk_bytes = self.engine.chunk_bytes;
        self.total_len += bytes.len() as u64;
        let mut rest = bytes;
        if !self.pending.is_empty() {
            let need = chunk_bytes - self.pending.len();
            let take = need.min(rest.len());
            self.pending.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.pending.len() == chunk_bytes {
                let chunk = std::mem::take(&mut self.pending);
                self.encode_one(&chunk);
                self.pending = chunk;
                self.pending.clear();
            }
        }
        // Full chunks encode straight from the caller's buffer — no copy
        // through `pending`.
        let mut full = rest.chunks_exact(chunk_bytes);
        for chunk in &mut full {
            self.encode_one(chunk);
        }
        self.pending.extend_from_slice(full.remainder());
    }

    /// Encodes any pending tail and assembles the framed container.
    pub fn finish(mut self) -> Vec<u8> {
        if !self.pending.is_empty() {
            let chunk = std::mem::take(&mut self.pending);
            self.encode_one(&chunk);
        }
        let mut out = self.engine.frame_head(self.total_len, &self.dir);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Bytes accepted so far.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    fn encode_one(&mut self, chunk: &[u8]) {
        let (data, mode) = encode_chunk(&*self.engine.codec, chunk, None);
        // A raw chunk's buffer comes back empty (see `encode_chunk`): its
        // stored bytes are the caller's chunk itself.
        let stored: &[u8] = if mode == StorageMode::Raw { chunk } else { &data };
        self.dir.push((stored.len(), mode));
        self.payload.extend_from_slice(stored);
    }
}

/// Summary of one container's frame, for reports and probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Codec named by the header.
    pub codec: CodecId,
    /// Chunk size in bytes.
    pub chunk_bytes: u32,
    /// Number of chunks.
    pub chunk_count: u32,
    /// Decoded length in bytes.
    pub total_len: u64,
    /// Payload section length in bytes.
    pub payload_bytes: u64,
    /// Whole container length in bytes (header + directory + payload).
    pub container_bytes: u64,
    /// Chunks stored verbatim.
    pub raw_chunks: u32,
    /// Chunks stored coded.
    pub coded_chunks: u32,
}

impl FrameInfo {
    /// End-to-end compression ratio (decoded / container bytes, > 1 is
    /// a win); 0 for an empty stream.
    pub fn ratio(&self) -> f64 {
        if self.container_bytes == 0 {
            return 0.0;
        }
        self.total_len as f64 / self.container_bytes as f64
    }
}

/// Parses a container's frame without decoding any chunk.
pub fn frame_info(container: &[u8]) -> Result<FrameInfo, ContainerError> {
    let frame = Frame::parse(container)?;
    let coded = frame.directory.iter().filter(|e| e.mode == StorageMode::Coded).count() as u32;
    Ok(FrameInfo {
        codec: frame.header.codec,
        chunk_bytes: frame.header.chunk_bytes,
        chunk_count: frame.header.chunk_count,
        total_len: frame.header.total_len,
        payload_bytes: frame.payload.len() as u64,
        container_bytes: container.len() as u64,
        raw_chunks: frame.header.chunk_count - coded,
        coded_chunks: coded,
    })
}

/// Encodes one chunk, with a raw fallback when the coded stream does not
/// beat the chunk's verbatim bytes.
///
/// A raw decision returns an **empty** buffer: the chunk's verbatim
/// bytes already live in the caller's input, so the assembly stage
/// ([`Engine::compress_impl`], [`StreamEncoder::encode_one`]) copies
/// them from there instead of through a second per-chunk allocation.
///
/// Codecs with a whole-chunk mode ([`ChunkCoder`]) encode the chunk as
/// one stream (size hints do not apply — the stream is not block-framed);
/// everything else goes through the per-block tag + body framing, encoded
/// straight into the chunk buffer via
/// [`compress_into`](slc_compress::BlockCompressor::compress_into) (the
/// tag is back-patched once the body size is known).
fn encode_chunk(
    codec: &dyn BlockCodec,
    chunk: &[u8],
    hints: Option<&[u32]>,
) -> (Vec<u8>, StorageMode) {
    if let Some(cc) = codec.chunk_coder() {
        let mut coded = cc.encode_chunk(chunk);
        return if coded.len() >= chunk.len() {
            coded.clear();
            (coded, StorageMode::Raw)
        } else {
            (coded, StorageMode::Coded)
        };
    }
    let nblocks = chunk.len().div_ceil(BLOCK_BYTES);
    let mut coded = Vec::with_capacity(chunk.len() + 2 * nblocks);
    for (i, raw) in chunk.chunks(BLOCK_BYTES).enumerate() {
        // Borrow full blocks in place; only a ragged tail needs the
        // zero-padded copy.
        let mut tail = [0u8; BLOCK_BYTES];
        let block: &Block = match raw.try_into() {
            Ok(full) => full,
            Err(_) => {
                tail[..raw.len()].copy_from_slice(raw);
                &tail
            }
        };
        // A hint of >= BLOCK_BITS means "stored verbatim": identical to
        // what the codec would decide, minus the encode work.
        let skip = hints.is_some_and(|h| h[i] >= BLOCK_BITS);
        let tag_at = coded.len();
        coded.extend_from_slice(&[0, 0]);
        let (mut bits, mut is_coded) = if skip {
            coded.extend_from_slice(block);
            (BLOCK_BITS, false)
        } else {
            codec.compress_into(block, &mut coded)
        };
        // Defensive: the tag has 15 size bits and every codec caps at the
        // verbatim block; store raw if one ever misbehaves.
        if bits > BLOCK_BITS {
            coded.truncate(tag_at + 2);
            coded.extend_from_slice(block);
            (bits, is_coded) = (BLOCK_BITS, false);
        }
        let tag = (bits as u16) | if is_coded { TAG_CODED } else { 0 };
        coded[tag_at..tag_at + 2].copy_from_slice(&tag.to_le_bytes());
    }
    if coded.len() >= chunk.len() {
        coded.clear();
        (coded, StorageMode::Raw)
    } else {
        (coded, StorageMode::Coded)
    }
}

/// Decodes one chunk into its output slice.
///
/// `entry`'s payload span was bounds-checked by [`Frame::parse`]; what
/// the span holds is the codec's to judge, and its verdict — the chunk
/// coder's for a whole-chunk stream, [`decode_blocks`]' for block
/// framing — is reported as [`ContainerError::ChunkCorrupt`].
fn decode_chunk(
    codec: &dyn BlockCodec,
    payload: &[u8],
    entry: DirEntry,
    dst: &mut [u8],
    chunk: usize,
) -> Result<(), ContainerError> {
    let src = &payload[entry.offset as usize..(entry.offset + entry.encoded_bytes()) as usize];
    match entry.mode {
        StorageMode::Raw => {
            // Frame::parse pinned the raw length to the chunk's exact
            // raw length, which is dst's length by construction.
            debug_assert_eq!(src.len(), dst.len());
            dst.copy_from_slice(src);
            Ok(())
        }
        StorageMode::Coded => {
            let decoded = match codec.chunk_coder() {
                Some(cc) => cc.decode_chunk(src, dst).map_err(DecodeError::reason),
                None => decode_blocks(codec, src, dst),
            };
            decoded.map_err(|reason| ContainerError::ChunkCorrupt { chunk, reason })
        }
    }
}

/// Decodes a block-framed chunk: walks the tags, re-validating each one
/// and its body span (the chunk span being in bounds says nothing about
/// its contents), and hands every coded body to the codec.
///
/// The tag is attacker-controlled, so `src` is walked as a shrinking
/// slice: the tag and the body it sizes come off the front by checked
/// splits and the size bits never become an index (the two denied lints
/// keep it that way).
///
/// Coded blocks decode **in place**: each full block's span of `dst`
/// is handed to the codec as the output buffer
/// ([`decompress_into`](slc_compress::BlockCompressor::decompress_into)).
/// Only a ragged tail block (stream length not a block multiple) bounces
/// through a stack block before its prefix is copied out.
#[deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)]
fn decode_blocks(
    codec: &dyn BlockCodec,
    mut src: &[u8],
    dst: &mut [u8],
) -> Result<(), &'static str> {
    for span in dst.chunks_mut(BLOCK_BYTES) {
        let Some((tag, rest)) = src.split_first_chunk::<2>() else {
            return Err("block tag past end of chunk");
        };
        let tag = u16::from_le_bytes(*tag);
        let bits = u32::from(tag & !TAG_CODED);
        let is_coded = tag & TAG_CODED != 0;
        if bits > BLOCK_BITS || (!is_coded && bits != BLOCK_BITS) {
            return Err("invalid block tag");
        }
        let Some((body, rest)) = rest.split_at_checked(bits.div_ceil(8) as usize) else {
            return Err("block body past end of chunk");
        };
        src = rest;
        // Full blocks decode straight into dst; only a ragged tail takes
        // the stack bounce.
        let mut tail = [0u8; BLOCK_BYTES];
        let out: &mut Block = match span.first_chunk_mut::<BLOCK_BYTES>() {
            Some(full) => full,
            None => &mut tail,
        };
        if is_coded {
            codec.decompress_into(bits, true, body, out).map_err(DecodeError::reason)?;
        } else {
            *out = *body.first_chunk().ok_or("verbatim body is not exactly one block")?;
        }
        if span.len() < BLOCK_BYTES {
            for (d, s) in span.iter_mut().zip(tail) {
                *d = s;
            }
        }
    }
    if !src.is_empty() {
        return Err("trailing bytes after last block");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_compress::bdi::Bdi;
    use slc_compress::e2mc::{E2mc, E2mcConfig};
    use slc_compress::BlockCompressor;

    fn bdi_engine(chunk: usize) -> Engine {
        Engine::new(Arc::new(Bdi::new())).with_chunk_bytes(chunk)
    }

    fn sample_bytes(len: usize) -> Vec<u8> {
        // Mixed compressibility: ramps (BDI material) with noise stripes.
        (0..len)
            .map(|i| {
                if (i / 96) % 5 == 4 {
                    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23) as u8
                } else {
                    (i / 4) as u8
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_basic() {
        let e = bdi_engine(256);
        for len in [0usize, 1, 127, 128, 129, 255, 256, 257, 1000, 4096] {
            let data = sample_bytes(len);
            let c = e.compress(&data);
            assert_eq!(e.decompress(&c).unwrap(), data, "len {len}");
            let info = frame_info(&c).unwrap();
            assert_eq!(info.total_len, len as u64);
            assert_eq!(info.chunk_count as u64, (len as u64).div_ceil(256));
        }
    }

    #[test]
    fn container_is_self_describing() {
        let e = bdi_engine(512);
        let data = sample_bytes(2000);
        let c = e.compress(&data);
        let info = frame_info(&c).unwrap();
        assert_eq!(info.codec, CodecId::Bdi);
        assert_eq!(info.chunk_bytes, 512);
        assert_eq!(info.raw_chunks + info.coded_chunks, info.chunk_count);
        assert!(info.ratio() > 0.0);
    }

    #[test]
    fn incompressible_chunks_fall_back_to_raw() {
        let e = bdi_engine(256);
        let mut noise = vec![0u8; 1024];
        let mut state = 0x1234_5678_9abc_def0u64;
        for b in noise.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        let c = e.compress(&noise);
        let info = frame_info(&c).unwrap();
        assert_eq!(info.coded_chunks, 0, "noise must store raw, not expand");
        // Raw storage bounds the overhead to header + directory.
        assert_eq!(
            c.len(),
            HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES + noise.len()
        );
        assert_eq!(e.decompress(&c).unwrap(), noise);
    }

    #[test]
    fn codec_mismatch_is_rejected() {
        let data = sample_bytes(512);
        let c = bdi_engine(256).compress(&data);
        let other = Engine::new(Arc::new(slc_compress::fpc::Fpc::new())).with_chunk_bytes(256);
        assert_eq!(
            other.decompress(&c),
            Err(ContainerError::CodecMismatch { container: CodecId::Bdi, engine: CodecId::Fpc })
        );
    }

    #[test]
    fn sized_path_is_byte_identical_for_e2mc() {
        let training: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect();
        let e2mc = E2mc::train_on_bytes(&training, &E2mcConfig::default());
        let mut data: Vec<u8> =
            (0..2048u32).flat_map(|i| (((i * 3) % 257) as f32).to_le_bytes()).collect();
        // Salt a stripe of noise so some blocks are genuinely
        // incompressible and the skip hint actually fires.
        let mut state = 0xfeedu64;
        for b in data[1024..2048].iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        let sizes: Vec<u32> =
            data.chunks_exact(BLOCK_BYTES).map(|c| e2mc.size_bits(c.try_into().unwrap())).collect();
        assert!(sizes.iter().any(|&s| s >= BLOCK_BITS), "need at least one verbatim block");
        let engine = Engine::new(Arc::new(e2mc)).with_chunk_bytes(512);
        let plain = engine.compress(&data);
        let sized = engine.compress_with_sizes(&data, &sizes, Threads::Serial);
        assert_eq!(plain, sized, "truthful sizes must not change a single byte");
        assert_eq!(engine.decompress(&sized).unwrap(), data);
    }

    #[test]
    fn decompress_into_matches_owned_path() {
        let e = bdi_engine(256);
        for len in [0usize, 1, 127, 128, 255, 256, 1000, 4096] {
            let data = sample_bytes(len);
            let c = e.compress(&data);
            let owned = e.decompress(&c).unwrap();
            let mut borrowed = vec![0xa5u8; len];
            e.decompress_into(&c, &mut borrowed).unwrap();
            assert_eq!(borrowed, owned, "len {len}");
        }
    }

    #[test]
    fn decompress_into_rejects_wrong_buffer_length() {
        let e = bdi_engine(256);
        let c = e.compress(&sample_bytes(300));
        for bad in [0usize, 299, 301] {
            let mut out = vec![0u8; bad];
            assert_eq!(
                e.decompress_into(&c, &mut out),
                Err(ContainerError::OutputLenMismatch { total_len: 300, out_len: bad }),
                "buffer of {bad} bytes must be rejected"
            );
        }
    }

    #[test]
    fn clone_shares_the_codec() {
        let e = bdi_engine(256);
        let f = e.clone();
        assert!(Arc::ptr_eq(&e.codec, &f.codec));
    }

    #[test]
    #[should_panic(expected = "multiple of 128")]
    fn chunk_size_must_be_block_aligned() {
        let _ = bdi_engine(100);
    }

    #[test]
    #[should_panic(expected = "one stored size per block")]
    fn sized_path_checks_block_count() {
        let e = bdi_engine(256);
        let _ = e.compress_with_sizes(&[0u8; 256], &[0u32; 3], Threads::Serial);
    }

    /// The wire freeze: evaluated constants and the bytes the two frame
    /// writers emit for fixed inputs (`CodecId`'s names and numbers:
    /// `slc_compress::codec::tests::wire_values_are_stable`). A wire change
    /// edits this test in the commit that documents it.
    #[test]
    fn wire_format_is_frozen() {
        assert_eq!((BLOCK_BYTES, BLOCK_BITS), (128, 1024));
        assert_eq!((HEADER_BYTES, DIR_ENTRY_BYTES), (24, 13));
        assert_eq!((MAGIC, VERSION), (*b"SLC1", 1));
        assert_eq!((MAX_CHUNK_BYTES, TAG_CODED), (16 * 1024 * 1024, 0x8000));

        // Every field holds distinct bytes, so a swapped pair of writes or
        // a flipped byte order shows. The matches are exhaustive on
        // purpose: a new variant does not compile until it has a number.
        for codec in CodecId::ALL {
            let codec_byte = match codec {
                CodecId::Bdi => 0,
                CodecId::Fpc => 1,
                CodecId::Cpack => 2,
                CodecId::Bpc => 3,
                CodecId::E2mc => 4,
                CodecId::Rans => 7,
            };
            let header = Header {
                codec,
                chunk_bytes: 0x1413_1211,
                chunk_count: 0x2423_2221,
                total_len: 0x3837_3635_3433_3231,
            };
            let mut bytes = Vec::new();
            header.write_to(&mut bytes);
            let golden = [
                b'S', b'L', b'C', b'1', 1, 0, codec_byte, 0, // magic, version, codec, flags
                0x11, 0x12, 0x13, 0x14, // chunk_bytes
                0x21, 0x22, 0x23, 0x24, // chunk_count
                0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, // total_len
            ];
            assert_eq!(bytes, golden, "{codec:?}");
        }
        for mode in [StorageMode::Raw, StorageMode::Coded] {
            let mode_byte = match mode {
                StorageMode::Raw => 0,
                StorageMode::Coded => 1,
            };
            let entry = DirEntry { offset: 0x4847_4645_4443_4241, encoded_bits: 0x5453_5251, mode };
            let mut bytes = Vec::new();
            entry.write_to(&mut bytes);
            let golden = [
                0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, // offset
                0x51, 0x52, 0x53, 0x54, // encoded_bits
                mode_byte,
            ];
            assert_eq!(bytes, golden, "{mode:?}");
            assert_eq!(StorageMode::from_u8(mode_byte), Some(mode));
        }
    }
}
