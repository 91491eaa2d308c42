//! Decode hardening: truncation, bit-flip, lying-size and wrong-codec
//! barrages over every block codec, straight through
//! [`BlockCompressor::decompress_into`] with nothing around the call to
//! catch a panic. A corrupt stream must come back as a [`DecodeError`]
//! or decode to *some* full block — never panic, never index out of
//! bounds — and the [`Compressed`] boundary must reject payloads that
//! cannot hold their declared bit length. E2MC's parallel decoding
//! pointers are held to more: a flipped pdp is always rejected, at the
//! codec and as `ChunkCorrupt` through the engine.

use slc::slc_compress::bdi::Bdi;
use slc::slc_compress::bpc::Bpc;
use slc::slc_compress::cpack::Cpack;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig, HEADER_BITS};
use slc::slc_compress::fpc::Fpc;
use slc::slc_compress::rans::Rans;
use slc::slc_compress::{Block, BlockCompressor, Compressed, DecodeError, BLOCK_BITS, BLOCK_BYTES};
use slc::slc_engine::{ContainerError, Engine, Frame, StorageMode};
use std::panic::catch_unwind;
use std::sync::Arc;

/// Deterministic corruption source (xorshift64*), so a failing flip is
/// reproducible from the test output alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn training_bytes() -> Vec<u8> {
    (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect()
}

/// All six block codecs, E2MC trained on the sample.
fn codecs() -> Vec<Box<dyn BlockCompressor>> {
    let bytes = training_bytes();
    vec![
        Box::new(Bdi::new()),
        Box::new(Fpc::new()),
        Box::new(Cpack::new()),
        Box::new(Bpc::new()),
        Box::new(E2mc::train_on_bytes(&bytes, &E2mcConfig::default())),
        Box::new(Rans::new()),
    ]
}

/// Candidate contents with real variation (no all-zeros: a zero-padded
/// partial decode of a constant block could masquerade as a roundtrip).
fn candidate_blocks() -> Vec<[u8; BLOCK_BYTES]> {
    let mut float_ramp = [0u8; BLOCK_BYTES];
    for (i, c) in float_ramp.chunks_exact_mut(4).enumerate() {
        c.copy_from_slice(&(((i * 3) % 257) as f32).to_le_bytes());
    }
    let mut int_deltas = [0u8; BLOCK_BYTES];
    for (i, c) in int_deltas.chunks_exact_mut(4).enumerate() {
        c.copy_from_slice(&(0x1000_0000u32 + 3 * i as u32).to_le_bytes());
    }
    let mut repeats = [0u8; BLOCK_BYTES];
    for (i, c) in repeats.chunks_exact_mut(4).enumerate() {
        let w: u32 = if i % 2 == 0 { 0xdead_beef } else { 0x0000_00ff + i as u32 % 4 };
        c.copy_from_slice(&w.to_le_bytes());
    }
    vec![float_ramp, int_deltas, repeats]
}

/// The first candidate `codec` actually compresses (every codec fires on
/// at least one — pinned by `all_codecs_roundtrip_a_sample`).
fn compressible_block_for(codec: &dyn BlockCompressor) -> [u8; BLOCK_BYTES] {
    candidate_blocks()
        .into_iter()
        .find(|b| codec.compress(b).is_compressed())
        .unwrap_or_else(|| panic!("{}: no candidate block compresses", codec.id().name()))
}

#[test]
fn all_codecs_roundtrip_a_sample() {
    for codec in codecs() {
        let block = compressible_block_for(codec.as_ref());
        let c = codec.compress(&block);
        assert!(c.is_compressed());
        assert_eq!(codec.decompress(&c), block, "{}: lossless roundtrip", codec.id().name());
    }
}

/// One hostile decode, called bare: a panic fails the test. `Ok` hands
/// back the block the codec filled.
fn decode(
    codec: &dyn BlockCompressor,
    size_bits: u32,
    compressed: bool,
    payload: &[u8],
) -> Result<Block, DecodeError> {
    let mut out = [0xa5u8; BLOCK_BYTES];
    codec.decompress_into(size_bits, compressed, payload, &mut out).map(|()| out)
}

#[test]
fn truncated_streams_never_decode_silently_to_the_original() {
    // Chopping the declared length in half must either be rejected (the
    // reader's overrun flag, a way off its boundary) or, where a codec's
    // layout happens to decode a prefix, produce a block that is *not*
    // the original — silence plus the original bytes would mean the
    // length field is ignored entirely.
    for codec in codecs() {
        let block = compressible_block_for(codec.as_ref());
        let c = codec.compress(&block);
        if let Ok(out) = decode(codec.as_ref(), c.size_bits() / 2, true, c.payload()) {
            assert_ne!(
                out,
                block,
                "{}: half the stream silently decoded to the full block",
                codec.id().name()
            );
        }
    }
}

#[test]
fn seeded_bit_flips_are_contained() {
    // 64 seeded single-bit flips per codec: every corrupted stream must
    // come back as an `Err` or decode to some full block. Nothing may
    // panic, loop forever, or index out of bounds.
    let mut rng = Rng(0x5eed_f417);
    for codec in codecs() {
        let block = compressible_block_for(codec.as_ref());
        let c = codec.compress(&block);
        let mut rejected = 0u32;
        for _ in 0..64 {
            let mut bytes = c.payload().to_vec();
            let bit = (rng.next() as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            rejected += u32::from(decode(codec.as_ref(), c.size_bits(), true, &bytes).is_err());
        }
        assert_eq!(codec.decompress(&c), block, "{}: pristine stream", codec.id().name());
        println!("{}: {rejected}/64 flips rejected", codec.id().name());
    }
}

#[test]
fn lying_sizes_and_short_payloads_are_contained() {
    // The (size, flag, payload) triple is wire data and its parts need
    // not agree: every declared size from 0 to past a block, coded and
    // verbatim, over the whole payload and over one cut short of what
    // the size claims.
    for codec in codecs() {
        let block = compressible_block_for(codec.as_ref());
        let c = codec.compress(&block);
        let payload = c.payload();
        for size_bits in 0..=BLOCK_BITS + 64 {
            for compressed in [true, false] {
                let _ = decode(codec.as_ref(), size_bits, compressed, payload);
                let _ =
                    decode(codec.as_ref(), size_bits, compressed, &payload[..payload.len() / 2]);
                let _ = decode(codec.as_ref(), size_bits, compressed, &[]);
            }
        }
        // A verbatim block needs a whole block behind it.
        assert_eq!(
            decode(codec.as_ref(), BLOCK_BITS, false, &block[..BLOCK_BYTES - 1]),
            Err(DecodeError::Truncated),
            "{}",
            codec.id().name()
        );
        assert_eq!(decode(codec.as_ref(), BLOCK_BITS, false, &block), Ok(block));
    }
}

#[test]
fn every_codecs_streams_are_contained_by_every_other_codec() {
    // Differential decode across the registry: a stream one codec wrote
    // is structured, plausible and wrong for the other five. Each must
    // reject it or fill the block; its own codec must still round-trip.
    let codecs = codecs();
    for writer in &codecs {
        for block in candidate_blocks() {
            let c = writer.compress(&block);
            for reader in &codecs {
                let got = decode(reader.as_ref(), c.size_bits(), c.is_compressed(), c.payload());
                if reader.id() == writer.id() || !c.is_compressed() {
                    assert_eq!(
                        got,
                        Ok(block),
                        "{} read by {}",
                        writer.id().name(),
                        reader.id().name()
                    );
                }
            }
        }
    }
}

/// Flips stream bit `bit` (MSB-first, as the codecs number them).
fn flip_stream_bit(bytes: &mut [u8], bit: u32) {
    bytes[bit as usize / 8] ^= 0x80 >> (bit % 8);
}

#[test]
fn e2mc_pdp_flips_are_rejected() {
    // A flipped pdp still points at parseable codewords, so "decodes to
    // some block" used to be the outcome; the way before it no longer
    // ending on it is what the decoder now rejects. Seeded blocks, every
    // bit of all three pdps (stream bits 1..HEADER_BITS).
    let e = E2mc::train_on_bytes(&training_bytes(), &E2mcConfig::default());
    let mut rng = Rng(0x9d9_f11b);
    for _ in 0..16 {
        let mut block = [0u8; BLOCK_BYTES];
        for c in block.chunks_exact_mut(4) {
            c.copy_from_slice(&((rng.next() % 257) as f32).to_le_bytes());
        }
        let c = e.compress(&block);
        assert!(c.is_compressed());
        for bit in 1..HEADER_BITS {
            let mut bytes = c.payload().to_vec();
            flip_stream_bit(&mut bytes, bit);
            assert!(
                decode(&e, c.size_bits(), true, &bytes).is_err(),
                "pdp bit {bit} flipped, block still decoded"
            );
        }
        assert_eq!(e.decompress(&c), block);
    }
}

#[test]
fn e2mc_pdp_flips_surface_as_chunk_corrupt_through_the_engine() {
    let e = E2mc::train_on_bytes(&training_bytes(), &E2mcConfig::default());
    let engine = Engine::new(Arc::new(e)).with_chunk_bytes(4 * BLOCK_BYTES);
    let data: Vec<u8> = (0..8 * BLOCK_BYTES as u32 / 4)
        .flat_map(|i| (((i * 3) % 257) as f32).to_le_bytes())
        .collect();
    let container = engine.compress(&data);
    let frame = Frame::parse(&container).unwrap();
    let payload_at = container.len() - frame.payload.len();
    let mut rng = Rng(0x9d9_c0de);
    for (chunk, entry) in frame.directory.iter().enumerate() {
        assert_eq!(entry.mode, StorageMode::Coded);
        // The chunk's first block: a u16 tag (bit 15 = coded), then the
        // stream whose bits 1..HEADER_BITS are the pdps.
        let tag_at = payload_at + entry.offset as usize;
        assert!(container[tag_at + 1] & 0x80 != 0, "first block of chunk {chunk} is coded");
        for _ in 0..8 {
            let bit = 1 + (rng.next() % u64::from(HEADER_BITS - 1)) as u32;
            let mut corrupt = container.clone();
            flip_stream_bit(&mut corrupt[tag_at + 2..], bit);
            match engine.decompress(&corrupt) {
                Err(ContainerError::ChunkCorrupt { chunk: at, .. }) => assert_eq!(at, chunk),
                other => {
                    panic!("chunk {chunk}, pdp bit {bit}: expected ChunkCorrupt, got {other:?}")
                }
            }
        }
    }
    assert_eq!(engine.decompress(&container).unwrap(), data);
}

#[test]
fn compressed_boundary_validates_the_stored_length() {
    // The declared bit length must fit the payload: a short payload is
    // rejected at construction, before any decoder can run off its end.
    assert!(catch_unwind(|| Compressed::new(65, vec![0u8; 8])).is_err());
    assert!(catch_unwind(|| Compressed::new(64, vec![0u8; 8])).is_ok());
    // And a stream truncated by dropping payload bytes (length kept) is
    // caught at the same boundary.
    let e = E2mc::train_on_bytes(&training_bytes(), &E2mcConfig::default());
    let c = e.compress(&candidate_blocks()[0]);
    let mut short = c.payload().to_vec();
    short.truncate(short.len() / 2);
    let bits = c.size_bits();
    assert!(
        catch_unwind(move || Compressed::new(bits, short)).is_err(),
        "dropped payload bytes must be rejected at the Compressed boundary"
    );
}
