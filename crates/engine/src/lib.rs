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
//! Each entry names its [`Threads`] policy: [`Engine::compress_threads`],
//! [`Engine::decompress_threads`] and [`Engine::decompress_into_threads`].
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
//! # One copy of the payload
//!
//! Compress writes each chunk once, through one chunk writer that
//! appends the chunk's stored form to the buffer that becomes the
//! container: the coded form in place, or the raw bytes once the coded
//! form is certain not to be shorter. A serial compress reserves
//! header, directory and input length once and holds no other copy of
//! its payload. With more workers each codes one contiguous run of chunks,
//! the first into the container and each later one into a buffer of its
//! own that is appended once.
//!
//! # Determinism and safety contracts
//!
//! * Parallel and serial compress produce **byte-identical** containers
//!   (`slc-par` is order-preserving and chunks are independent), and
//!   parallel decode is byte-identical to serial decode — both pinned by
//!   property tests across every codec.
//! * Decode never panics on arbitrary input, and not because anything
//!   is caught: the frame is fully validated before any
//!   chunk decodes, every payload index is pre-bounded, and the codecs'
//!   decode functions are total — a corrupt block or chunk stream comes
//!   back as a [`slc_compress::DecodeError`], which the
//!   chunk worker reports as [`ContainerError::ChunkCorrupt`]. The
//!   workspace therefore also runs built with `panic = "abort"`.

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
use std::ops::Range;
use std::sync::Arc;

/// Tag bit marking a block stored in coded (compressed) form.
const TAG_CODED: u16 = 1 << 15;

/// Room a container or a run's buffer is reserved with past its input
/// length: what a chunk's writer may hold beyond the chunk's own length
/// before it gives the coded form up — one block's tag and a codec's
/// stream for it, or the last lane group of a rANS stream.
const ENCODE_SLACK: usize = 4 * BLOCK_BYTES;

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

    /// Compresses `bytes` into a framed container, fanning its chunks
    /// out by `threads`. Output bytes are identical whatever the policy.
    ///
    /// The one-copy writer of the crate docs: the header and a
    /// placeholder directory, then every chunk appended behind them by
    /// `encode_chunk`, in one contiguous run of chunks per worker
    /// ([`slc_par::worker_count`], so a nested call is one run). A later
    /// run's buffer is appended once, its entries moved by where its
    /// payload lands.
    pub fn compress_threads(&self, bytes: &[u8], threads: Threads) -> Vec<u8> {
        let chunks = bytes.len().div_ceil(self.chunk_bytes);
        let payload_at = HEADER_BYTES + chunks * DIR_ENTRY_BYTES;
        let mut out = Vec::with_capacity(payload_at + bytes.len() + ENCODE_SLACK);
        self.header(chunks, bytes.len() as u64).write_to(&mut out);
        out.resize(payload_at, 0);
        let runs = slc_par::worker_count(threads, chunks);
        // Run r holds chunks first(r)..first(r + 1).
        let first = |r: usize| r * chunks / runs;
        let run_dir = |r: usize| (first(r + 1) - first(r)) * DIR_ENTRY_BYTES;
        // A later run's buffer starts with its own directory entries.
        let mut later: Vec<Vec<u8>> = (1..runs)
            .map(|r| {
                let input = (first(r + 1) * self.chunk_bytes).min(bytes.len())
                    - first(r) * self.chunk_bytes;
                let mut buf = Vec::with_capacity(run_dir(r) + input + ENCODE_SLACK);
                buf.resize(run_dir(r), 0);
                buf
            })
            .collect();
        let work: Vec<(usize, &mut Vec<u8>, usize)> = std::iter::once((0, &mut out, HEADER_BYTES))
            .chain(later.iter_mut().enumerate().map(|(i, buf)| (i + 1, buf, 0)))
            .collect();
        par_map(work, threads, |(r, buf, dir_at)| {
            self.encode_run(bytes, first(r)..first(r + 1), buf, dir_at);
        });
        for (r, buf) in (1..).zip(&later) {
            let base = (out.len() - payload_at) as u64;
            let (dir, payload) = buf.split_at(run_dir(r));
            let slots = &mut out[HEADER_BYTES + first(r) * DIR_ENTRY_BYTES..payload_at];
            for (slot, entry) in
                slots.as_chunks_mut::<DIR_ENTRY_BYTES>().0.iter_mut().zip(dir.as_chunks().0)
            {
                *slot = *entry;
                let [offset @ .., _, _, _, _, _] = slot;
                *offset = (u64::from_le_bytes(*offset) + base).to_le_bytes();
            }
            out.extend_from_slice(payload);
        }
        out
    }

    /// Appends the stored form of each of `bytes`' chunks `run` to `buf`,
    /// and writes each one's directory entry at `buf[dir_at..]`, its
    /// offset counted from where the run's payload starts (`buf`'s length
    /// on entry).
    fn encode_run(&self, bytes: &[u8], run: Range<usize>, buf: &mut Vec<u8>, dir_at: usize) {
        let base = buf.len();
        for (i, ci) in run.enumerate() {
            let lo = ci * self.chunk_bytes;
            let chunk = &bytes[lo..(lo + self.chunk_bytes).min(bytes.len())];
            let at = buf.len();
            let mode = encode_chunk(&*self.codec, chunk, buf);
            let entry = DirEntry {
                offset: (at - base) as u64,
                encoded_bits: ((buf.len() - at) * 8) as u32,
                mode,
            };
            let slot = dir_at + i * DIR_ENTRY_BYTES;
            buf[slot..slot + DIR_ENTRY_BYTES].copy_from_slice(&entry.to_bytes());
        }
    }

    /// The header of a container of `chunk_count` chunks holding
    /// `total_len` bytes.
    fn header(&self, chunk_count: usize, total_len: u64) -> Header {
        Header {
            codec: self.codec.id(),
            chunk_bytes: self.chunk_bytes as u32,
            chunk_count: chunk_count as u32,
            total_len,
        }
    }

    /// Decompresses a framed container into a new buffer. Output bytes
    /// are identical whatever the `threads` policy.
    ///
    /// Never panics on arbitrary input — see the crate docs.
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
    /// the borrowed mirror of
    /// [`decompress_threads`](Self::decompress_threads) for callers that
    /// reuse output storage across calls (buffer pools, arenas, pinned
    /// staging memory). Nothing allocates per block: every chunk decodes
    /// straight into its span of `out` through
    /// [`decompress_into`](slc_compress::BlockCompressor::decompress_into).
    ///
    /// `out.len()` must equal the container's decoded length (the
    /// header's `total_len`, also [`FrameInfo::total_len`]); any other
    /// length is [`ContainerError::OutputLenMismatch`]. On success the
    /// buffer is fully overwritten; after an error its contents are
    /// unspecified (chunks decoded before the failure remain).
    ///
    /// Byte-identity with the owned path is pinned by property tests:
    /// `out` ends up holding exactly the bytes
    /// [`decompress_threads`](Self::decompress_threads) would return.
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

    /// Starts a [`StreamEncoder`].
    #[doc(hidden)]
    pub fn stream_encoder(&self) -> StreamEncoder {
        StreamEncoder { engine: self.clone(), bytes: Vec::new() }
    }
}

/// Kept for `benchmark/`; ROADMAP item 19 deletes it. Buffers every
/// pushed byte and compresses them at [`finish`](Self::finish), so its
/// container is [`Engine::compress_threads`]' over the concatenated input.
#[doc(hidden)]
#[derive(Debug)]
pub struct StreamEncoder {
    engine: Engine,
    bytes: Vec<u8>,
}

impl StreamEncoder {
    /// Appends `bytes` to the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// The framed container of everything pushed, compressed serially.
    pub fn finish(self) -> Vec<u8> {
        self.engine.compress_threads(&self.bytes, Threads::Serial)
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

/// Appends one chunk's stored form to `out` and returns its mode: the
/// coded form when it is shorter than the chunk, else the chunk's
/// verbatim bytes. This is the one chunk writer, behind
/// [`Engine::compress_threads`].
///
/// The coded form is written in place at the end of `out`; once it is
/// certain not to come in under the chunk's length the coder stops,
/// `out` is truncated back and the raw bytes go in instead. Codecs with a
/// whole-chunk mode ([`ChunkCoder`]) write the chunk as one stream;
/// everything else goes through the per-block tag + body framing of
/// [`encode_blocks`].
///
/// [`ChunkCoder`]: slc_compress::codec::ChunkCoder
fn encode_chunk(codec: &dyn BlockCodec, chunk: &[u8], out: &mut Vec<u8>) -> StorageMode {
    let start = out.len();
    let coded = match codec.chunk_coder() {
        Some(cc) => cc.encode_chunk_into(chunk, chunk.len(), out),
        None => encode_blocks(codec, chunk, out),
    };
    if coded {
        return StorageMode::Coded;
    }
    out.truncate(start);
    out.extend_from_slice(chunk);
    StorageMode::Raw
}

/// Appends `chunk`'s blocks to `out` in the tag + body framing and
/// returns true, or returns false as soon as the framing has reached the
/// chunk's own length (the chunk is then stored raw).
///
/// Each body is encoded straight into `out` via
/// [`compress_into`](slc_compress::BlockCompressor::compress_into) (the
/// tag is back-patched once the body size is known).
fn encode_blocks(codec: &dyn BlockCodec, chunk: &[u8], out: &mut Vec<u8>) -> bool {
    let start = out.len();
    // Borrow full blocks in place; only a ragged tail, the last block,
    // needs the zero-padded copy.
    let mut tail = [0u8; BLOCK_BYTES];
    for raw in chunk.chunks(BLOCK_BYTES) {
        let block: &Block = match raw.try_into() {
            Ok(full) => full,
            Err(_) => {
                tail[..raw.len()].copy_from_slice(raw);
                &tail
            }
        };
        let tag_at = out.len();
        out.extend_from_slice(&[0, 0]);
        let (mut bits, mut is_coded) = codec.compress_into(block, out);
        // Defensive: the tag has 15 size bits and every codec caps at the
        // verbatim block; store raw if one ever misbehaves.
        if bits > BLOCK_BITS {
            out.truncate(tag_at + 2);
            out.extend_from_slice(block);
            (bits, is_coded) = (BLOCK_BITS, false);
        }
        let tag = (bits as u16) | if is_coded { TAG_CODED } else { 0 };
        out[tag_at..tag_at + 2].copy_from_slice(&tag.to_le_bytes());
        if out.len() - start >= chunk.len() {
            return false;
        }
    }
    true
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
    // Full blocks decode straight into dst; only a ragged tail, the last
    // block, takes the stack bounce.
    let mut tail = [0u8; BLOCK_BYTES];
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
            let c = e.compress_threads(&data, Threads::Auto);
            assert_eq!(e.decompress_threads(&c, Threads::Auto).unwrap(), data, "len {len}");
            let info = frame_info(&c).unwrap();
            assert_eq!(info.total_len, len as u64);
            assert_eq!(info.chunk_count as u64, (len as u64).div_ceil(256));
        }
    }

    #[test]
    fn container_is_self_describing() {
        let e = bdi_engine(512);
        let data = sample_bytes(2000);
        let c = e.compress_threads(&data, Threads::Auto);
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
        let c = e.compress_threads(&noise, Threads::Auto);
        let info = frame_info(&c).unwrap();
        assert_eq!(info.coded_chunks, 0, "noise must store raw, not expand");
        // Raw storage bounds the overhead to header + directory.
        assert_eq!(
            c.len(),
            HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES + noise.len()
        );
        assert_eq!(e.decompress_threads(&c, Threads::Auto).unwrap(), noise);
    }

    #[test]
    fn codec_mismatch_is_rejected() {
        let data = sample_bytes(512);
        let c = bdi_engine(256).compress_threads(&data, Threads::Auto);
        let other = Engine::new(Arc::new(slc_compress::fpc::Fpc::new())).with_chunk_bytes(256);
        assert_eq!(
            other.decompress_threads(&c, Threads::Auto),
            Err(ContainerError::CodecMismatch { container: CodecId::Bdi, engine: CodecId::Fpc })
        );
    }

    #[test]
    fn decompress_into_matches_owned_path() {
        let e = bdi_engine(256);
        for len in [0usize, 1, 127, 128, 255, 256, 1000, 4096] {
            let data = sample_bytes(len);
            let c = e.compress_threads(&data, Threads::Auto);
            let owned = e.decompress_threads(&c, Threads::Auto).unwrap();
            let mut borrowed = vec![0xa5u8; len];
            e.decompress_into_threads(&c, &mut borrowed, Threads::Auto).unwrap();
            assert_eq!(borrowed, owned, "len {len}");
        }
    }

    #[test]
    fn decompress_into_rejects_wrong_buffer_length() {
        let e = bdi_engine(256);
        let c = e.compress_threads(&sample_bytes(300), Threads::Auto);
        for bad in [0usize, 299, 301] {
            let mut out = vec![0u8; bad];
            assert_eq!(
                e.decompress_into_threads(&c, &mut out, Threads::Auto),
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
            let bytes = entry.to_bytes();
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
