//! Chunk-oriented codec dispatch for the batch engine.
//!
//! The `slc-engine` crate shards a byte stream into chunks and hands each
//! chunk's blocks to *some* codec behind a trait object. Two things make
//! that possible without the engine naming concrete types:
//!
//! * [`BlockCodec`] — the object-safe surface the engine compresses
//!   through. It is [`BlockCompressor`] plus the `Send + Sync` bounds a
//!   parallel fan-out needs, with a blanket impl, so every existing codec
//!   (and every future one) is a `BlockCodec` automatically.
//! * [`CodecId`] — the stable one-byte wire identity written into a
//!   container header, so a decoder can verify it was handed the codec
//!   the stream was encoded with. Wire values are append-only: retiring
//!   a codec retires its number, it is never reused.

use crate::{BlockCompressor, DecodeError};

/// Stable wire identity of a block codec (one byte in container headers).
///
/// The discriminants are the on-disk format: they must never be renumbered,
/// only appended to. Every codec names its own id
/// ([`BlockCompressor::id`]), which is how the engine derives the header
/// byte from whatever codec it was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Base-Delta-Immediate.
    Bdi = 0,
    /// Frequent Pattern Compression.
    Fpc = 1,
    /// C-PACK.
    Cpack = 2,
    /// Bit-Plane Compression.
    Bpc = 3,
    /// Entropy-encoding based memory compression (trained).
    E2mc = 4,
    // 5 and 6 are reserved: they named SC2 and HyComp, which are retired.
    /// Interleaved byte-oriented rANS entropy coding.
    Rans = 7,
}

impl CodecId {
    /// Every codec id, in wire order.
    pub const ALL: [CodecId; 6] =
        [CodecId::Bdi, CodecId::Fpc, CodecId::Cpack, CodecId::Bpc, CodecId::E2mc, CodecId::Rans];

    /// The header byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses a header byte; `None` for values no codec owns (a corrupt
    /// or future-format container, or a reserved number).
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(CodecId::Bdi),
            1 => Some(CodecId::Fpc),
            2 => Some(CodecId::Cpack),
            3 => Some(CodecId::Bpc),
            4 => Some(CodecId::E2mc),
            7 => Some(CodecId::Rans),
            _ => None,
        }
    }

    /// The codec's short machine-friendly name (e.g. `"bdi"`, `"e2mc"`).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Bdi => "bdi",
            CodecId::Fpc => "fpc",
            CodecId::Cpack => "cpack",
            CodecId::Bpc => "bpc",
            CodecId::E2mc => "e2mc",
            CodecId::Rans => "rans",
        }
    }
}

/// The object-safe codec surface of the batch engine: a block codec that
/// can be shared across the engine's worker threads.
///
/// Blanket-implemented for every `BlockCompressor + Send + Sync`, so the
/// codecs need no per-type opt-in and the engine takes
/// `Arc<dyn BlockCodec>` without caring which one it holds.
pub trait BlockCodec: BlockCompressor + Send + Sync {}

impl<T: BlockCompressor + Send + Sync + ?Sized> BlockCodec for T {}

/// Whole-chunk coding capability: a codec that prefers to encode an
/// engine chunk as one stream (amortising model setup — e.g. one rANS
/// frequency table per 64 KiB chunk instead of per 128 B block) opts in
/// by returning itself from [`BlockCompressor::chunk_coder`].
///
/// The container format is untouched by this capability: a `Coded`
/// chunk's byte interpretation always belongs to the codec named in the
/// header, and the frame parser never looks inside chunk payloads. The
/// engine's raw fallback (store the chunk verbatim when coding does not
/// pay) applies to chunk coders exactly as to per-block coding.
///
/// `decode_chunk` must be total, like
/// [`BlockCompressor::decompress_into`]: for arbitrary `src` bytes it
/// returns a [`DecodeError`] or fills `dst` completely — never a panic,
/// never an out-of-bounds access. The engine calls it with no guard
/// around it.
pub trait ChunkCoder: Send + Sync {
    /// Encodes `chunk` as one self-contained stream and appends it to
    /// `out` if it is shorter than `limit` bytes; returns whether it did.
    /// Otherwise `out` keeps its length, and the coder may stop as soon
    /// as the stream cannot come in under `limit`: the engine passes the
    /// chunk's own length and stores a chunk whose stream is not shorter
    /// verbatim. `usize::MAX` takes any stream.
    fn encode_chunk_into(&self, chunk: &[u8], limit: usize, out: &mut Vec<u8>) -> bool;

    /// Encodes `chunk` as one self-contained stream of its own, however
    /// long: [`encode_chunk_into`](Self::encode_chunk_into) with no
    /// limit, into a buffer cut back to the stream (the coder may have
    /// used room past it while encoding).
    fn encode_chunk(&self, chunk: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_chunk_into(chunk, usize::MAX, &mut out);
        out.shrink_to_fit();
        out
    }

    /// Decodes a stream produced by
    /// [`encode_chunk_into`](Self::encode_chunk_into) into `dst`, whose
    /// length is the original chunk length.
    fn decode_chunk(&self, src: &[u8], dst: &mut [u8]) -> Result<(), DecodeError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_values_are_stable() {
        // These are the on-disk format: renumbering them would silently
        // invalidate every existing container.
        let expected =
            [("bdi", 0u8), ("fpc", 1), ("cpack", 2), ("bpc", 3), ("e2mc", 4), ("rans", 7)];
        assert_eq!(CodecId::ALL.map(|id| (id.name(), id.as_u8())), expected);
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_u8(id.as_u8()), Some(id));
        }
    }

    #[test]
    fn unknown_bytes_and_names_are_rejected() {
        // 5 and 6 named SC2 and HyComp; retired numbers are never reused,
        // and no codec answers to a retired name.
        for byte in [5, 6, 8, 255] {
            assert_eq!(CodecId::from_u8(byte), None, "{byte}");
        }
        for name in ["sc2", "hycomp", "fp-h", ""] {
            assert!(CodecId::ALL.iter().all(|id| id.name() != name), "{name:?}");
        }
    }

    #[test]
    fn every_codec_is_a_block_codec() {
        // Compile-time: the blanket impl covers the stateless codecs and
        // trait objects alike.
        fn takes(_: &dyn BlockCodec) {}
        takes(&crate::bdi::Bdi::new());
        takes(&crate::fpc::Fpc::new());
        let boxed: Box<dyn BlockCodec> = Box::new(crate::cpack::Cpack::new());
        assert_eq!(boxed.id(), CodecId::Cpack);
    }
}
