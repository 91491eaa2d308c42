//! The self-describing framed container format.
//!
//! A container is one contiguous byte string in three sections:
//!
//! ```text
//! ┌──────────────────── header (24 B) ────────────────────┐
//! │ magic "SLC1" │ version │ codec │ flags │ chunk_bytes  │
//! │   4 B LE     │  2 B LE │  1 B  │  1 B  │    4 B LE    │
//! │ chunk_count  │ total_len                              │
//! │   4 B LE     │   8 B LE                               │
//! ├────────────── directory (chunk_count × 13 B) ─────────┤
//! │ entry[i] = offset (8 B LE) │ encoded_bits (4 B LE)    │
//! │            │ storage_mode (1 B)                       │
//! ├──────────────────────── payload ──────────────────────┤
//! │ chunk 0 encoding │ chunk 1 encoding │ …               │
//! └───────────────────────────────────────────────────────┘
//! ```
//!
//! Every directory entry names its chunk's payload span *absolutely*
//! (`offset` is a byte offset into the payload section, `encoded_bits/8`
//! its length), so a decoder seeks straight to any chunk with zero scan
//! dependency on its predecessors — the property that makes decode
//! chunk-parallel (the same trick as the gap arrays of GPU Huffman
//! decoding: pay a few metadata bytes per chunk, get embarrassing
//! parallelism back).
//!
//! [`Frame::parse`] is the single validation gate: it checks the magic,
//! version, codec byte, chunk geometry and **every** directory span
//! against the real buffer before any decoding starts, so the per-chunk
//! decoders only ever index pre-validated ranges. Parsing never panics
//! on arbitrary bytes — corrupt input comes back as a [`ContainerError`].

use slc_compress::{CodecId, BLOCK_BYTES};
use std::fmt;

/// First four container bytes: `b"SLC1"`.
pub const MAGIC: [u8; 4] = *b"SLC1";

/// Container format version this crate reads and writes.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 24;

/// Size of one directory entry in bytes.
pub const DIR_ENTRY_BYTES: usize = 13;

/// Upper bound on `chunk_bytes` (16 MiB). Bounds the per-chunk working
/// set and keeps `encoded_bits` comfortably inside its `u32` field even
/// for a worst-case coded chunk (every block verbatim plus per-block
/// tags).
pub const MAX_CHUNK_BYTES: usize = 1 << 24;

/// How one chunk is stored in the payload section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// The chunk's original bytes, verbatim — chosen whenever the coded
    /// form would be at least as large, so a container never expands a
    /// chunk beyond its raw size (plus directory overhead).
    Raw,
    /// The per-block coded stream (see the crate docs for the in-chunk
    /// block framing).
    Coded,
}

impl StorageMode {
    /// The directory byte.
    pub fn as_u8(self) -> u8 {
        match self {
            StorageMode::Raw => 0,
            StorageMode::Coded => 1,
        }
    }

    /// Parses a directory byte; `None` for values no mode owns.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(StorageMode::Raw),
            1 => Some(StorageMode::Coded),
            _ => None,
        }
    }
}

/// One directory entry: where a chunk's encoding lives in the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// Byte offset of the chunk's encoding inside the payload section.
    pub offset: u64,
    /// Exact stored size in bits. The container's block framing is
    /// byte-aligned, so this is always a multiple of 8; the directory
    /// still records bits to keep the field future-proof for bit-packed
    /// chunk encodings.
    pub encoded_bits: u32,
    /// Raw or coded storage.
    pub mode: StorageMode,
}

impl DirEntry {
    /// Stored length in whole bytes.
    pub fn encoded_bytes(&self) -> u64 {
        u64::from(self.encoded_bits) / 8
    }

    /// The entry's 13 wire bytes.
    pub(crate) fn to_bytes(self) -> [u8; DIR_ENTRY_BYTES] {
        let [o0, o1, o2, o3, o4, o5, o6, o7] = self.offset.to_le_bytes();
        let [e0, e1, e2, e3] = self.encoded_bits.to_le_bytes();
        [o0, o1, o2, o3, o4, o5, o6, o7, e0, e1, e2, e3, self.mode.as_u8()]
    }
}

/// The fixed container header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Codec the payload was encoded with.
    pub codec: CodecId,
    /// Fixed chunk size in bytes (the last chunk may be shorter).
    pub chunk_bytes: u32,
    /// Number of chunks == directory entries.
    pub chunk_count: u32,
    /// Exact decoded length in bytes.
    pub total_len: u64,
}

impl Header {
    /// Serialises the 24-byte header.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.codec.as_u8());
        out.push(0); // flags, reserved
        out.extend_from_slice(&self.chunk_bytes.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
    }
}

/// A parsed, fully validated container view (borrowing the input).
#[derive(Debug)]
pub struct Frame<'a> {
    /// The validated header.
    pub header: Header,
    /// One validated entry per chunk, in chunk order.
    pub directory: Vec<DirEntry>,
    /// The payload section (everything after the directory).
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parses and validates a container.
    ///
    /// On success, every directory entry's span is guaranteed to lie
    /// inside [`Frame::payload`], raw entries are guaranteed to match
    /// their chunk's exact raw length, and `chunk_count` is consistent
    /// with `total_len` / `chunk_bytes` — the invariants the per-chunk
    /// decoders index under. Never panics, whatever the input bytes: the
    /// header and every directory entry are taken off the input as
    /// fixed-size arrays by checked splits, so no wire integer is ever
    /// an index or an unchecked operand (the two denied lints below
    /// keep it that way).
    #[deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)]
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ContainerError> {
        let Some((head, rest)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
            return Err(ContainerError::TooShort { need: HEADER_BYTES, have: bytes.len() });
        };
        let &[m0, m1, m2, m3, v0, v1, codec, flags, ref geometry @ ..] = head;
        let &[b0, b1, b2, b3, c0, c1, c2, c3, ref total_len @ ..] = geometry;
        let magic = [m0, m1, m2, m3];
        if magic != MAGIC {
            return Err(ContainerError::BadMagic(magic));
        }
        let version = u16::from_le_bytes([v0, v1]);
        if version != VERSION {
            return Err(ContainerError::BadVersion(version));
        }
        let codec = CodecId::from_u8(codec).ok_or(ContainerError::UnknownCodec(codec))?;
        if flags != 0 {
            return Err(ContainerError::BadFlags(flags));
        }
        let chunk_bytes = u32::from_le_bytes([b0, b1, b2, b3]);
        let chunk_count = u32::from_le_bytes([c0, c1, c2, c3]);
        let total_len = u64::from_le_bytes(*total_len);
        if chunk_bytes == 0
            || !(chunk_bytes as usize).is_multiple_of(BLOCK_BYTES)
            || chunk_bytes as usize > MAX_CHUNK_BYTES
        {
            return Err(ContainerError::BadChunkSize(chunk_bytes));
        }
        let expected_chunks = total_len.div_ceil(u64::from(chunk_bytes));
        if u64::from(chunk_count) != expected_chunks {
            return Err(ContainerError::BadChunkCount {
                declared: chunk_count,
                expected: expected_chunks,
            });
        }
        let dir_len = (chunk_count as usize).checked_mul(DIR_ENTRY_BYTES);
        let Some((dir, payload)) = dir_len.and_then(|len| rest.split_at_checked(len)) else {
            let need = dir_len.and_then(|len| len.checked_add(HEADER_BYTES)).unwrap_or(usize::MAX);
            return Err(ContainerError::DirectoryTruncated { need, have: bytes.len() });
        };
        let (entries, _) = dir.as_chunks::<DIR_ENTRY_BYTES>();
        let mut directory = Vec::with_capacity(entries.len());
        for (chunk, &[ref offset @ .., e0, e1, e2, e3, mode]) in entries.iter().enumerate() {
            let offset = u64::from_le_bytes(*offset);
            let encoded_bits = u32::from_le_bytes([e0, e1, e2, e3]);
            let mode = StorageMode::from_u8(mode)
                .ok_or(ContainerError::InvalidEntry { chunk, reason: "unknown storage mode" })?;
            let entry = DirEntry { offset, encoded_bits, mode };
            if !encoded_bits.is_multiple_of(8) {
                return Err(ContainerError::InvalidEntry {
                    chunk,
                    reason: "encoded_bits not a whole number of bytes",
                });
            }
            let end = entry
                .offset
                .checked_add(entry.encoded_bytes())
                .ok_or(ContainerError::InvalidEntry { chunk, reason: "payload span overflows" })?;
            if end > payload.len() as u64 {
                return Err(ContainerError::InvalidEntry {
                    chunk,
                    reason: "payload span out of bounds",
                });
            }
            if entry.mode == StorageMode::Raw {
                // A raw chunk stores its exact raw length; anything else
                // is a lying directory (caught here, before any copy).
                let raw_len = raw_chunk_len(total_len, chunk_bytes, chunk);
                if entry.encoded_bytes() != raw_len {
                    return Err(ContainerError::InvalidEntry {
                        chunk,
                        reason: "raw chunk length mismatch",
                    });
                }
            }
            directory.push(entry);
        }
        Ok(Self {
            header: Header { codec, chunk_bytes, chunk_count, total_len },
            directory,
            payload,
        })
    }
}

/// Raw (decoded) length in bytes of chunk `index` of a stream of
/// `total_len` bytes sharded at `chunk_bytes`.
fn raw_chunk_len(total_len: u64, chunk_bytes: u32, index: usize) -> u64 {
    let start = index as u64 * u64::from(chunk_bytes);
    total_len.saturating_sub(start).min(u64::from(chunk_bytes))
}

/// Why a container failed to parse or decode.
///
/// Every variant is a *returned* failure, end to end: the decode path
/// is panic-free for arbitrary input, and a codec that rejects a block
/// or chunk stream says so with a
/// [`DecodeError`](slc_compress::DecodeError) that surfaces as
/// [`ChunkCorrupt`](Self::ChunkCorrupt) — nothing is caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerError {
    /// Input shorter than the fixed header.
    TooShort {
        /// Bytes the header needs.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The magic bytes are not `b"SLC1"`.
    BadMagic([u8; 4]),
    /// A version this crate does not read.
    BadVersion(u16),
    /// Reserved flags byte is non-zero.
    BadFlags(u8),
    /// The codec byte names no known codec.
    UnknownCodec(u8),
    /// The container was encoded with a different codec than the engine
    /// decoding it holds.
    CodecMismatch {
        /// Codec named by the container header.
        container: CodecId,
        /// Codec the decoding engine holds.
        engine: CodecId,
    },
    /// `chunk_bytes` is zero, not a block multiple, or over
    /// [`MAX_CHUNK_BYTES`].
    BadChunkSize(u32),
    /// `chunk_count` disagrees with `total_len / chunk_bytes`.
    BadChunkCount {
        /// Count in the header.
        declared: u32,
        /// Count implied by `total_len` and `chunk_bytes`.
        expected: u64,
    },
    /// The directory extends past the end of the input.
    DirectoryTruncated {
        /// Bytes header + directory need.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// A directory entry is structurally invalid (bad mode byte, span
    /// outside the payload, lying raw length).
    InvalidEntry {
        /// Chunk index of the offending entry.
        chunk: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A chunk's payload bytes do not decode: the block framing is
    /// broken (bad tag, short body, trailing bytes) or the codec
    /// rejected a stream.
    ChunkCorrupt {
        /// Chunk index that failed to decode.
        chunk: usize,
        /// What was wrong with it: the framing fault, or the codec's
        /// [`DecodeError::reason`](slc_compress::DecodeError::reason).
        reason: &'static str,
    },
    /// The caller-provided output buffer of
    /// [`decompress_into_threads`](crate::Engine::decompress_into_threads)
    /// does not match the container's decoded length.
    OutputLenMismatch {
        /// Decoded byte length from the header.
        total_len: u64,
        /// Length of the buffer the caller supplied.
        out_len: usize,
    },
    /// The owned output of
    /// [`decompress_threads`](crate::Engine::decompress_threads) could
    /// not be allocated: the header's `total_len` asks for more memory
    /// than the allocator will give.
    OutputAllocFailed {
        /// Decoded byte length from the header.
        total_len: u64,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ContainerError::TooShort { need, have } => {
                write!(f, "container too short: {have} bytes, header needs {need}")
            }
            ContainerError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::BadFlags(v) => write!(f, "reserved flags byte is {v:#04x}"),
            ContainerError::UnknownCodec(v) => write!(f, "unknown codec id {v}"),
            ContainerError::CodecMismatch { container, engine } => write!(
                f,
                "container encoded with {} but engine holds {}",
                container.name(),
                engine.name()
            ),
            ContainerError::BadChunkSize(v) => write!(f, "invalid chunk size {v}"),
            ContainerError::BadChunkCount { declared, expected } => {
                write!(f, "header declares {declared} chunks, geometry implies {expected}")
            }
            ContainerError::DirectoryTruncated { need, have } => {
                write!(f, "directory truncated: {have} bytes, need {need}")
            }
            ContainerError::InvalidEntry { chunk, reason } => {
                write!(f, "directory entry {chunk} invalid: {reason}")
            }
            ContainerError::ChunkCorrupt { chunk, reason } => {
                write!(f, "chunk {chunk} corrupt: {reason}")
            }
            ContainerError::OutputLenMismatch { total_len, out_len } => {
                write!(f, "output buffer holds {out_len} bytes, container decodes to {total_len}")
            }
            ContainerError::OutputAllocFailed { total_len } => {
                write!(f, "cannot allocate the {total_len} bytes the container decodes to")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn header_bytes(codec: u8, chunk_bytes: u32, chunk_count: u32, total_len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(codec);
        out.push(0);
        out.extend_from_slice(&chunk_bytes.to_le_bytes());
        out.extend_from_slice(&chunk_count.to_le_bytes());
        out.extend_from_slice(&total_len.to_le_bytes());
        out
    }

    #[test]
    fn empty_stream_parses() {
        let bytes = header_bytes(0, 128, 0, 0);
        let frame = Frame::parse(&bytes).expect("empty container is valid");
        assert_eq!(frame.header.total_len, 0);
        assert!(frame.directory.is_empty());
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn header_validation_catches_each_field() {
        assert!(matches!(Frame::parse(&[]), Err(ContainerError::TooShort { .. })));
        let mut b = header_bytes(0, 128, 0, 0);
        b[0] = b'X';
        assert!(matches!(Frame::parse(&b), Err(ContainerError::BadMagic(_))));
        let mut b = header_bytes(0, 128, 0, 0);
        b[4] = 9;
        assert!(matches!(Frame::parse(&b), Err(ContainerError::BadVersion(9))));
        let b = header_bytes(200, 128, 0, 0);
        assert!(matches!(Frame::parse(&b), Err(ContainerError::UnknownCodec(200))));
        let mut b = header_bytes(0, 128, 0, 0);
        b[7] = 1;
        assert!(matches!(Frame::parse(&b), Err(ContainerError::BadFlags(1))));
        for bad_chunk in [0u32, 64, 100, (MAX_CHUNK_BYTES as u32) * 2] {
            let b = header_bytes(0, bad_chunk, 0, 0);
            assert!(
                matches!(Frame::parse(&b), Err(ContainerError::BadChunkSize(_))),
                "chunk_bytes {bad_chunk} must be rejected"
            );
        }
        let b = header_bytes(0, 128, 3, 128);
        assert!(matches!(Frame::parse(&b), Err(ContainerError::BadChunkCount { .. })));
        // Count consistent but directory bytes missing entirely.
        let b = header_bytes(0, 128, 1, 128);
        assert!(matches!(Frame::parse(&b), Err(ContainerError::DirectoryTruncated { .. })));
    }

    #[test]
    fn directory_spans_are_bounds_checked() {
        // One raw chunk of 128 bytes whose entry points past the payload.
        let mut b = header_bytes(0, 128, 1, 128);
        let entry = DirEntry { offset: 1, encoded_bits: 128 * 8, mode: StorageMode::Raw };
        b.extend_from_slice(&entry.to_bytes());
        b.extend_from_slice(&[0u8; 128]); // 128 payload bytes, span needs 129
        assert!(matches!(Frame::parse(&b), Err(ContainerError::InvalidEntry { .. })));
        // Overflowing span.
        let mut b = header_bytes(0, 128, 1, 128);
        let entry = DirEntry { offset: u64::MAX, encoded_bits: 128 * 8, mode: StorageMode::Raw };
        b.extend_from_slice(&entry.to_bytes());
        b.extend_from_slice(&[0u8; 128]);
        assert!(matches!(
            Frame::parse(&b),
            Err(ContainerError::InvalidEntry { reason: "payload span overflows", .. })
        ));
        // Raw chunk lying about its length.
        let mut b = header_bytes(0, 128, 1, 128);
        let entry = DirEntry { offset: 0, encoded_bits: 64 * 8, mode: StorageMode::Raw };
        b.extend_from_slice(&entry.to_bytes());
        b.extend_from_slice(&[0u8; 128]);
        assert!(matches!(
            Frame::parse(&b),
            Err(ContainerError::InvalidEntry { reason: "raw chunk length mismatch", .. })
        ));
        // Unknown storage mode byte.
        let mut b = header_bytes(0, 128, 1, 128);
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&(128u32 * 8).to_le_bytes());
        b.push(7);
        b.extend_from_slice(&[0u8; 128]);
        assert!(matches!(
            Frame::parse(&b),
            Err(ContainerError::InvalidEntry { reason: "unknown storage mode", .. })
        ));
    }

    #[test]
    fn raw_chunk_len_covers_ragged_tails() {
        assert_eq!(raw_chunk_len(1000, 256, 0), 256);
        assert_eq!(raw_chunk_len(1000, 256, 3), 232);
        assert_eq!(raw_chunk_len(1000, 256, 4), 0);
        assert_eq!(raw_chunk_len(0, 256, 0), 0);
        assert_eq!(raw_chunk_len(256, 256, 0), 256);
    }

    #[test]
    fn errors_display_without_panicking() {
        let errors = [
            ContainerError::TooShort { need: 24, have: 3 },
            ContainerError::BadMagic(*b"nope"),
            ContainerError::BadVersion(2),
            ContainerError::BadFlags(0xff),
            ContainerError::UnknownCodec(42),
            ContainerError::CodecMismatch { container: CodecId::Bdi, engine: CodecId::Fpc },
            ContainerError::BadChunkSize(13),
            ContainerError::BadChunkCount { declared: 2, expected: 5 },
            ContainerError::DirectoryTruncated { need: 50, have: 30 },
            ContainerError::InvalidEntry { chunk: 1, reason: "test" },
            ContainerError::ChunkCorrupt { chunk: 0, reason: "test" },
            ContainerError::OutputLenMismatch { total_len: 9, out_len: 4 },
            ContainerError::OutputAllocFailed { total_len: u64::MAX },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
