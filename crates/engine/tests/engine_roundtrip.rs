//! Property tests pinning the engine's two load-bearing equivalences for
//! **every** codec, random chunk sizes and ragged tail chunks:
//!
//! 1. The engine's container is byte-identical to a hand-rolled
//!    *sequential per-block* encode of the same stream (the reference
//!    implementation below shares no code with the engine's chunk
//!    encoder), and parallel compression emits the identical container.
//! 2. Parallel decode is byte-identical to serial decode, and both
//!    reproduce the original stream exactly.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use slc_compress::bdi::Bdi;
use slc_compress::bpc::Bpc;
use slc_compress::cpack::Cpack;
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::fpc::Fpc;
use slc_compress::rans::Rans;
use slc_compress::{BlockCodec, ChunkCoder, BLOCK_BITS, BLOCK_BYTES};
use slc_engine::{ContainerError, Engine, Header, StorageMode, Threads};
use std::sync::{Arc, OnceLock};

/// Every registered codec, trained once for the whole test binary (training
/// E2MC per proptest case would dominate the runtime).
fn codecs() -> &'static [Arc<dyn BlockCodec>] {
    static CODECS: OnceLock<Vec<Arc<dyn BlockCodec>>> = OnceLock::new();
    CODECS.get_or_init(|| {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect();
        vec![
            Arc::new(Bdi::new()),
            Arc::new(Fpc::new()),
            Arc::new(Cpack::new()),
            Arc::new(Bpc::new()),
            Arc::new(E2mc::train_on_bytes(&bytes, &E2mcConfig::default())),
        ]
    })
}

/// Reference container builder: a plain sequential loop over blocks and
/// chunks — per-block `compress_into`, u16 tag, raw fallback — independently
/// restating the format spec the engine must match byte for byte.
fn reference_container(codec: &dyn BlockCodec, bytes: &[u8], chunk_bytes: usize) -> Vec<u8> {
    let mut chunks: Vec<(Vec<u8>, StorageMode)> = Vec::new();
    for chunk in bytes.chunks(chunk_bytes) {
        let mut coded = Vec::new();
        for raw in chunk.chunks(BLOCK_BYTES) {
            let mut block = [0u8; BLOCK_BYTES];
            block[..raw.len()].copy_from_slice(raw);
            let mut payload = Vec::new();
            let (mut bits, mut is_coded) = codec.compress_into(&block, &mut payload);
            if bits > BLOCK_BITS {
                (bits, is_coded, payload) = (BLOCK_BITS, false, block.to_vec());
            }
            let tag = (bits as u16) | if is_coded { 1u16 << 15 } else { 0 };
            coded.extend_from_slice(&tag.to_le_bytes());
            coded.extend_from_slice(&payload[..bits.div_ceil(8) as usize]);
        }
        if coded.len() >= chunk.len() {
            chunks.push((chunk.to_vec(), StorageMode::Raw));
        } else {
            chunks.push((coded, StorageMode::Coded));
        }
    }
    let stored: Vec<_> = chunks.iter().map(|(data, mode)| (&data[..], *mode)).collect();
    assemble(codec, bytes.len(), chunk_bytes, &stored)
}

/// The format spec restated: the header, one directory entry per stored
/// chunk with offsets running over the payload, then the stored chunks.
fn assemble(
    codec: &dyn BlockCodec,
    total_len: usize,
    chunk_bytes: usize,
    stored: &[(&[u8], StorageMode)],
) -> Vec<u8> {
    let mut out = Vec::new();
    Header {
        codec: codec.id(),
        chunk_bytes: chunk_bytes as u32,
        chunk_count: stored.len() as u32,
        total_len: total_len as u64,
    }
    .write_to(&mut out);
    let mut offset = 0u64;
    for &(data, mode) in stored {
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&((data.len() * 8) as u32).to_le_bytes());
        out.push(mode.as_u8());
        offset += data.len() as u64;
    }
    for (data, _) in stored {
        out.extend_from_slice(data);
    }
    out
}

/// Mixed-compressibility stream: f32 ramps in-distribution for the
/// trained codecs, interleaved with raw noise stripes, sliced to an
/// arbitrary (ragged) length.
fn stream(len: usize, salt: u64, noise_period: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 4);
    let mut i = 0u32;
    let mut state = salt | 1;
    while out.len() < len {
        if noise_period > 0 && (out.len() / BLOCK_BYTES) % noise_period == noise_period - 1 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            out.extend_from_slice(&state.to_le_bytes());
        } else {
            out.extend_from_slice(&(((i * 3) % 257) as f32).to_le_bytes());
        }
        i += 1;
    }
    out.truncate(len);
    out
}

fn check_roundtrip(bytes: &[u8], chunk_blocks: usize) {
    let chunk_bytes = chunk_blocks * BLOCK_BYTES;
    for codec in codecs() {
        let name = codec.id().name();
        let engine = Engine::new(Arc::clone(codec)).with_chunk_bytes(chunk_bytes);
        let serial = engine.compress_threads(bytes, Threads::Serial);
        let parallel = engine.compress_threads(bytes, Threads::Exact(3));
        assert_eq!(serial, parallel, "{name}: parallel compress must be byte-identical");
        let reference = reference_container(codec.as_ref(), bytes, chunk_bytes);
        assert_eq!(
            serial, reference,
            "{name}: engine container must equal the sequential per-block reference"
        );
        let d_serial = engine.decompress_threads(&serial, Threads::Serial).unwrap();
        let d_parallel = engine.decompress_threads(&serial, Threads::Exact(3)).unwrap();
        assert_eq!(d_serial, d_parallel, "{name}: parallel decode must equal serial");
        assert_eq!(d_serial, bytes, "{name}: roundtrip must reproduce the stream");
        // Borrowed decode into a deliberately dirty buffer must overwrite
        // every byte with exactly what the owned path returned.
        let mut borrowed = vec![0xa5u8; bytes.len()];
        engine.decompress_into_threads(&serial, &mut borrowed, Threads::Auto).unwrap();
        assert_eq!(borrowed, d_serial, "{name}: decompress_into must equal decompress");
    }
}

#[test]
fn edge_case_lengths_roundtrip() {
    // Empty stream, sub-block, exactly one block, one chunk ± 1 byte.
    for len in [0usize, 1, 127, 128, 129, 512, 513, 511] {
        check_roundtrip(&stream(len, 7, 3), 4);
    }
}

#[test]
fn truncating_a_container_is_an_error_not_a_panic() {
    let engine = Engine::new(Arc::new(Bdi::new())).with_chunk_bytes(256);
    let data = stream(1000, 3, 2);
    let container = engine.compress_threads(&data, Threads::Auto);
    for cut in 0..container.len() {
        match engine.decompress_threads(&container[..cut], Threads::Auto) {
            Err(_) => {}
            Ok(out) => assert_eq!(out, data[..0], "only a full parse may succeed"),
        }
    }
    assert_eq!(engine.decompress_threads(&container, Threads::Auto).unwrap(), data);
}

#[test]
fn exact_worker_counts_agree_everywhere() {
    // Exercise several explicit worker counts (including more workers
    // than chunks) against the serial reference, for a cheap block codec,
    // the trained per-block codec and the whole-chunk coder.
    let data = stream(1500, 11, 4);
    let e2mc = E2mc::train_on_bytes(&data, &E2mcConfig::default());
    let codecs: [Arc<dyn BlockCodec>; 4] =
        [Arc::new(Fpc::new()), Arc::new(Bdi::new()), Arc::new(e2mc), Arc::new(Rans::new())];
    for codec in codecs {
        let name = codec.id().name();
        let engine = Engine::new(codec).with_chunk_bytes(128);
        let serial = engine.compress_threads(&data, Threads::Serial);
        for threads in [1usize, 2, 3, 8, 64].map(Threads::Exact).into_iter().chain([Threads::Auto])
        {
            assert_eq!(engine.compress_threads(&data, threads), serial, "{name}, {threads:?}");
            assert_eq!(
                engine.decompress_threads(&serial, threads).unwrap(),
                data,
                "{name}, {threads:?}"
            );
        }
    }
}

#[test]
fn chunk_corruption_surfaces_as_chunk_corrupt() {
    // Stomp a coded chunk's first tag with an impossible size: the
    // decoder must return ChunkCorrupt for that chunk, not panic.
    let bytes: Vec<u8> = stream(1024, 5, 0);
    let engine = Engine::new(Arc::new(Bdi::new())).with_chunk_bytes(256);
    let mut container = engine.compress_threads(&bytes, Threads::Auto);
    let info = slc_engine::frame_info(&container).unwrap();
    assert!(info.coded_chunks > 0, "need a coded chunk to corrupt");
    let dir_end =
        slc_engine::HEADER_BYTES + info.chunk_count as usize * slc_engine::DIR_ENTRY_BYTES;
    // First coded chunk starts at payload offset 0 (chunk 0 is coded:
    // the ramp compresses under BDI).
    container[dir_end] = 0xff;
    container[dir_end + 1] = 0x7f; // tag = size_bits 0x7fff, not coded
    match engine.decompress_threads(&container, Threads::Auto) {
        Err(ContainerError::ChunkCorrupt { .. }) => {}
        other => panic!("expected ChunkCorrupt, got {other:?}"),
    }
}

/// Reference container for a whole-chunk codec: one `encode_chunk`
/// stream per chunk with the engine's raw fallback (`coded >= chunk`
/// stores verbatim) and the same framing spec restated sequentially.
/// The chunk stream bytes themselves are pinned against a scalar
/// reference decoder inside `slc_compress::rans`; this reference pins
/// where the engine is allowed to put them.
fn reference_container_chunked(
    codec: &dyn BlockCodec,
    coder: &dyn ChunkCoder,
    bytes: &[u8],
    chunk_bytes: usize,
) -> Vec<u8> {
    let mut chunks: Vec<(Vec<u8>, StorageMode)> = Vec::new();
    for chunk in bytes.chunks(chunk_bytes) {
        let coded = coder.encode_chunk(chunk);
        if coded.len() >= chunk.len() {
            chunks.push((chunk.to_vec(), StorageMode::Raw));
        } else {
            chunks.push((coded, StorageMode::Coded));
        }
    }
    let stored: Vec<_> = chunks.iter().map(|(data, mode)| (&data[..], *mode)).collect();
    assemble(codec, bytes.len(), chunk_bytes, &stored)
}

#[test]
fn rans_engine_equals_chunk_level_reference() {
    // rANS opts into whole-chunk coding, so the per-block reference does
    // not apply: the container must instead hold one rANS stream (or a
    // raw chunk) per directory entry.
    let rans = Arc::new(Rans::new());
    for (len, chunk_blocks, noise_period) in
        [(0usize, 4usize, 0usize), (1, 2, 0), (640, 2, 0), (1024, 4, 2), (5000, 8, 3), (129, 1, 0)]
    {
        let data = stream(len, 23, noise_period);
        let chunk_bytes = chunk_blocks * BLOCK_BYTES;
        let engine =
            Engine::new(Arc::clone(&rans) as Arc<dyn BlockCodec>).with_chunk_bytes(chunk_bytes);
        let serial = engine.compress_threads(&data, Threads::Serial);
        let parallel = engine.compress_threads(&data, Threads::Exact(3));
        assert_eq!(serial, parallel, "rans: parallel compress must be byte-identical");
        let reference =
            reference_container_chunked(rans.as_ref(), rans.as_ref(), &data, chunk_bytes);
        assert_eq!(
            serial, reference,
            "rans: engine container must equal the sequential chunk-level reference \
             (len {len}, chunk_blocks {chunk_blocks})"
        );
        assert_eq!(
            engine.decompress_threads(&serial, Threads::Auto).unwrap(),
            data,
            "rans: roundtrip"
        );
        let mut borrowed = vec![0xa5u8; data.len()];
        engine.decompress_into_threads(&serial, &mut borrowed, Threads::Auto).unwrap();
        assert_eq!(borrowed, data, "rans: decompress_into must equal decompress");
    }
}

/// The retired chunk encoder, kept as the oracle for the in-place
/// writer: each chunk into a buffer of its own, reserved at the chunk
/// plus its tags, and an empty buffer for a raw chunk, whose bytes the
/// assembly takes from the input.
fn retired_encode_chunk(codec: &dyn BlockCodec, chunk: &[u8]) -> (Vec<u8>, StorageMode) {
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
    for raw in chunk.chunks(BLOCK_BYTES) {
        let mut block = [0u8; BLOCK_BYTES];
        block[..raw.len()].copy_from_slice(raw);
        let tag_at = coded.len();
        coded.extend_from_slice(&[0, 0]);
        let (mut bits, mut is_coded) = codec.compress_into(&block, &mut coded);
        if bits > BLOCK_BITS {
            coded.truncate(tag_at + 2);
            coded.extend_from_slice(&block);
            (bits, is_coded) = (BLOCK_BITS, false);
        }
        let tag = (bits as u16) | if is_coded { 1u16 << 15 } else { 0 };
        coded[tag_at..tag_at + 2].copy_from_slice(&tag.to_le_bytes());
    }
    if coded.len() >= chunk.len() {
        coded.clear();
        (coded, StorageMode::Raw)
    } else {
        (coded, StorageMode::Coded)
    }
}

/// The retired assembly: every chunk encoded into its own buffer first,
/// then header, directory and the stored chunks copied into a second
/// buffer.
fn retired_compress(codec: &dyn BlockCodec, bytes: &[u8], chunk_bytes: usize) -> Vec<u8> {
    let encoded: Vec<(Vec<u8>, StorageMode)> =
        bytes.chunks(chunk_bytes).map(|chunk| retired_encode_chunk(codec, chunk)).collect();
    let stored: Vec<(&[u8], StorageMode)> = encoded
        .iter()
        .zip(bytes.chunks(chunk_bytes))
        .map(|((data, mode), chunk)| {
            (if *mode == StorageMode::Raw { chunk } else { &data[..] }, *mode)
        })
        .collect();
    assemble(codec, bytes.len(), chunk_bytes, &stored)
}

#[test]
fn compress_equals_the_retired_assembly() {
    // Coded chunks, whole chunks of noise that go raw, a mixed stretch
    // and a ragged tail, over one, four and eight blocks a chunk.
    let mut data = stream(2048, 5, 0);
    data.extend(stream(1024, 9, 1));
    data.extend(stream(2100, 3, 3));
    let mut all: Vec<Arc<dyn BlockCodec>> = codecs().to_vec();
    all.push(Arc::new(Rans::new()));
    let policies = [Threads::Serial, Threads::Exact(2), Threads::Exact(8)];
    for codec in &all {
        let name = codec.id().name();
        for chunk_blocks in [1, 4, 8] {
            let chunk_bytes = chunk_blocks * BLOCK_BYTES;
            let engine = Engine::new(Arc::clone(codec)).with_chunk_bytes(chunk_bytes);
            for len in [0, 1, BLOCK_BYTES - 1, data.len()] {
                let input = &data[..len];
                let want = retired_compress(codec.as_ref(), input, chunk_bytes);
                for threads in policies {
                    let at = format!("{name}, {len} bytes, {chunk_blocks} blocks, {threads:?}");
                    assert_eq!(engine.compress_threads(input, threads), want, "{at}");
                }
            }
            let whole = engine.compress_threads(&data, Threads::Serial);
            let frame = slc_engine::Frame::parse(&whole).unwrap();
            let modes: Vec<_> = frame.directory.iter().map(|e| e.mode).collect();
            assert!(modes.contains(&StorageMode::Raw), "{name}: no raw chunk");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_stream_encoder_matches_compress(
        len in 0usize..4096,
        chunk_blocks in 1usize..=4,
        salt in any::<u64>(),
        noise_period in 0usize..4,
        cuts in proptest::collection::vec(1usize..700, 0..8),
    ) {
        // Bounded-memory streaming encode: pushing the stream in
        // arbitrary-sized pieces must emit the exact container
        // `compress` builds from the whole buffer, for a per-block codec
        // and for a whole-chunk codec alike.
        let data = stream(len, salt, noise_period);
        let codecs: [Arc<dyn BlockCodec>; 2] = [Arc::new(Bdi::new()), Arc::new(Rans::new())];
        for codec in codecs {
            let engine = Engine::new(codec).with_chunk_bytes(chunk_blocks * BLOCK_BYTES);
            let whole = engine.compress_threads(&data, Threads::Auto);
            let mut enc = engine.stream_encoder();
            let mut rest: &[u8] = &data;
            for &cut in &cuts {
                let take = cut.min(rest.len());
                let (head, tail) = rest.split_at(take);
                enc.push(head);
                rest = tail;
            }
            enc.push(rest);
            prop_assert_eq!(&enc.finish(), &whole, "streamed container must match compress");
        }
    }

    #[test]
    fn prop_engine_equals_sequential_reference(
        len in 0usize..4096,
        chunk_blocks in 1usize..=8,
        salt in any::<u64>(),
        noise_period in 0usize..5,
    ) {
        check_roundtrip(&stream(len, salt, noise_period), chunk_blocks);
    }

    #[test]
    fn prop_random_bytes_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk_blocks in 1usize..=4,
    ) {
        check_roundtrip(&data, chunk_blocks);
    }
}
