//! Decode hardening: truncation, bit-flip, lying-size and wrong-codec
//! barrages over every block codec, straight through
//! [`BlockCompressor::decompress_into`] with nothing around the call to
//! catch a panic. A corrupt stream must come back as a [`DecodeError`]
//! or decode to *some* full block — never panic, never index out of
//! bounds — also when the payload is shorter than its declared bit
//! length. E2MC's parallel decoding
//! pointers are held to more: a flipped pdp is always rejected, at the
//! codec and as `ChunkCorrupt` through the engine.

use slc::slc_compress::bdi::Bdi;
use slc::slc_compress::bpc::Bpc;
use slc::slc_compress::cpack::Cpack;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig, HEADER_BITS};
use slc::slc_compress::fpc::Fpc;
use slc::slc_compress::rans::Rans;
use slc::slc_compress::{Block, BlockCompressor, DecodeError, BLOCK_BITS, BLOCK_BYTES};
use slc::slc_engine::{ContainerError, Engine, Frame, StorageMode, Threads};
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
        .find(|b| encode(codec, b).1)
        .unwrap_or_else(|| panic!("{}: no candidate block compresses", codec.id().name()))
}

#[test]
fn all_codecs_roundtrip_a_sample() {
    for codec in codecs() {
        let block = compressible_block_for(codec.as_ref());
        let (bits, coded, payload) = encode(codec.as_ref(), &block);
        assert!(coded);
        let out = decode(codec.as_ref(), bits, coded, &payload);
        assert_eq!(out, Ok(block), "{}: lossless roundtrip", codec.id().name());
    }
}

/// `block` through the one encode entry: `(size_bits, is_compressed,
/// payload)`.
fn encode(codec: &dyn BlockCompressor, block: &Block) -> (u32, bool, Vec<u8>) {
    let mut payload = Vec::new();
    let (bits, coded) = codec.compress_into(block, &mut payload);
    (bits, coded, payload)
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
        let (bits, _, payload) = encode(codec.as_ref(), &block);
        if let Ok(out) = decode(codec.as_ref(), bits / 2, true, &payload) {
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
        let (bits, _, payload) = encode(codec.as_ref(), &block);
        let mut rejected = 0u32;
        for _ in 0..64 {
            let mut bytes = payload.clone();
            let bit = (rng.next() as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            rejected += u32::from(decode(codec.as_ref(), bits, true, &bytes).is_err());
        }
        let pristine = decode(codec.as_ref(), bits, true, &payload);
        assert_eq!(pristine, Ok(block), "{}: pristine stream", codec.id().name());
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
        let (_, _, payload) = encode(codec.as_ref(), &block);
        let payload = &payload[..];
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
            let (bits, coded, payload) = encode(writer.as_ref(), &block);
            for reader in &codecs {
                let got = decode(reader.as_ref(), bits, coded, &payload);
                if reader.id() == writer.id() || !coded {
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

#[test]
fn bdi_error_contract_holds_at_every_tag_and_length_edge() {
    use DecodeError::{Truncated, UnknownTag};
    // (tag, size_bits, payload bytes, result). An encoding needs its
    // fixed length: Zeros 4 bits (1 byte), Repeat 68 (9), B8D1 212 (27),
    // B8D2 340 (43), B8D4 596 (75), B4D1 324 (41), B4D2 580 (73), B2D1
    // 596 (75). Each is met at one bit short, exact and one bit long, and
    // at a payload one byte short and one byte long. Fewer than 4 bits
    // leave no tag; tags 8 to 15 are unknown whatever the length.
    const CONTRACT: [(u8, u32, usize, Result<(), DecodeError>); 59] = [
        (0, 3, 1, Err(Truncated)),
        (0, 4, 1, Ok(())),
        (0, 5, 1, Ok(())),
        (0, 4, 0, Err(Truncated)),
        (0, 4, 2, Ok(())),
        (1, 67, 9, Err(Truncated)),
        (1, 68, 9, Ok(())),
        (1, 69, 9, Ok(())),
        (1, 68, 8, Err(Truncated)),
        (1, 68, 10, Ok(())),
        (2, 211, 27, Err(Truncated)),
        (2, 212, 27, Ok(())),
        (2, 213, 27, Ok(())),
        (2, 212, 26, Err(Truncated)),
        (2, 212, 28, Ok(())),
        (3, 339, 43, Err(Truncated)),
        (3, 340, 43, Ok(())),
        (3, 341, 43, Ok(())),
        (3, 340, 42, Err(Truncated)),
        (3, 340, 44, Ok(())),
        (4, 595, 75, Err(Truncated)),
        (4, 596, 75, Ok(())),
        (4, 597, 75, Ok(())),
        (4, 596, 74, Err(Truncated)),
        (4, 596, 76, Ok(())),
        (5, 323, 41, Err(Truncated)),
        (5, 324, 41, Ok(())),
        (5, 325, 41, Ok(())),
        (5, 324, 40, Err(Truncated)),
        (5, 324, 42, Ok(())),
        (6, 579, 73, Err(Truncated)),
        (6, 580, 73, Ok(())),
        (6, 581, 73, Ok(())),
        (6, 580, 72, Err(Truncated)),
        (6, 580, 74, Ok(())),
        (7, 595, 75, Err(Truncated)),
        (7, 596, 75, Ok(())),
        (7, 597, 75, Ok(())),
        (7, 596, 74, Err(Truncated)),
        (7, 596, 76, Ok(())),
        (8, 3, 1, Err(Truncated)),
        (8, 4, 1, Err(UnknownTag)),
        (8, 1100, 80, Err(UnknownTag)),
        (9, 4, 1, Err(UnknownTag)),
        (9, 1100, 80, Err(UnknownTag)),
        (10, 4, 1, Err(UnknownTag)),
        (10, 1100, 80, Err(UnknownTag)),
        (11, 4, 1, Err(UnknownTag)),
        (11, 1100, 80, Err(UnknownTag)),
        (12, 4, 1, Err(UnknownTag)),
        (12, 1100, 80, Err(UnknownTag)),
        (13, 4, 1, Err(UnknownTag)),
        (13, 1100, 80, Err(UnknownTag)),
        (14, 4, 1, Err(UnknownTag)),
        (14, 1100, 80, Err(UnknownTag)),
        (15, 3, 1, Err(Truncated)),
        (15, 4, 1, Err(UnknownTag)),
        (15, 1100, 80, Err(UnknownTag)),
        (15, u32::MAX, 0, Err(Truncated)),
    ];
    let mut rng = Rng(0xb0d1_c0de);
    let noise: Vec<u8> = (0..80).map(|_| rng.next() as u8).collect();
    let bdi = Bdi::new();
    // The block each tag's stream decodes to at its exact length.
    let mut exact = [None; 16];
    for (tag, size_bits, len, want) in CONTRACT {
        let mut payload = noise[..len].to_vec();
        if let Some(first) = payload.first_mut() {
            *first = (tag << 4) | (*first & 0x0f);
        }
        let got = decode(&bdi, size_bits, true, &payload);
        assert_eq!(got.map(|_| ()), want, "tag {tag}, {size_bits} bits, {len} bytes");
        // Surplus bits and bytes are ignored: every `Ok` of a tag is the
        // same block.
        if let Ok(block) = got {
            assert_eq!(*exact[usize::from(tag)].get_or_insert(block), block, "tag {tag}");
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
        let (bits, coded, payload) = encode(&e, &block);
        assert!(coded);
        for bit in 1..HEADER_BITS {
            let mut bytes = payload.clone();
            flip_stream_bit(&mut bytes, bit);
            assert!(
                decode(&e, bits, true, &bytes).is_err(),
                "pdp bit {bit} flipped, block still decoded"
            );
        }
        assert_eq!(decode(&e, bits, true, &payload), Ok(block));
    }
}

#[test]
fn e2mc_pdp_flips_surface_as_chunk_corrupt_through_the_engine() {
    let e = E2mc::train_on_bytes(&training_bytes(), &E2mcConfig::default());
    let engine = Engine::new(Arc::new(e)).with_chunk_bytes(4 * BLOCK_BYTES);
    let data: Vec<u8> = (0..8 * BLOCK_BYTES as u32 / 4)
        .flat_map(|i| (((i * 3) % 257) as f32).to_le_bytes())
        .collect();
    let container = engine.compress_threads(&data, Threads::Auto);
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
            match engine.decompress_threads(&corrupt, Threads::Auto) {
                Err(ContainerError::ChunkCorrupt { chunk: at, .. }) => assert_eq!(at, chunk),
                other => {
                    panic!("chunk {chunk}, pdp bit {bit}: expected ChunkCorrupt, got {other:?}")
                }
            }
        }
    }
    assert_eq!(engine.decompress_threads(&container, Threads::Auto).unwrap(), data);
}
