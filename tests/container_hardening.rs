//! Container hardening: corruption barrages against the framed
//! container format. Whatever the corruption — truncation at any byte
//! boundary, bit flips anywhere, directory entries lying about offsets,
//! sizes or modes, header geometry, directory bytes, block tags and rANS
//! table fields swept over every value they can hold, a header naming
//! the wrong codec —
//! [`Engine::decompress_threads`] must return an error or decode to *some*
//! full-size buffer. It must never panic (nothing here would catch
//! one), read out of bounds, or allocate from a lying length field.

use slc::slc_compress::bdi::Bdi;
use slc::slc_compress::bpc::Bpc;
use slc::slc_compress::cpack::Cpack;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig};
use slc::slc_compress::fpc::Fpc;
use slc::slc_compress::rans::{Rans, RANS_SCALE_BITS};
use slc::slc_compress::{BlockCodec, CodecId, BLOCK_BITS};
use slc::slc_engine::{
    frame_info, ContainerError, Engine, Frame, StorageMode, Threads, DIR_ENTRY_BYTES, HEADER_BYTES,
    MAX_CHUNK_BYTES,
};
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

/// Mixed stream: compressible f32 ramp with a noise stripe, so the
/// container carries both coded and raw chunks.
fn sample_stream() -> Vec<u8> {
    let mut out: Vec<u8> =
        (0..512u32).flat_map(|i| (((i * 3) % 257) as f32).to_le_bytes()).collect();
    let mut state = 0x0dd_ba11u64;
    for b in out[768..1536].iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (state >> 33) as u8;
    }
    out
}

/// Four 256-byte chunks, of which every registered codec codes at least
/// one: an f32 ramp (E2MC's and rANS' material), small
/// integers (FPC, C-PACK, BPC), a pointer-like arithmetic run (BDI) and
/// noise that stays raw. Small, because the sweeps below decode it
/// hundreds of thousands of times.
fn registry_stream() -> Vec<u8> {
    let mut out: Vec<u8> =
        (0..64u32).flat_map(|i| (((i * 3) % 257) as f32).to_le_bytes()).collect();
    out.extend((0..64u32).flat_map(|i| (i % 7).to_le_bytes()));
    out.extend((0..64u32).flat_map(|i| (0x1000_0000 + 3 * i).to_le_bytes()));
    out.extend_from_slice(&sample_stream()[768..1024]);
    out
}

fn bdi_engine() -> Engine {
    Engine::new(Arc::new(Bdi::new())).with_chunk_bytes(256)
}

fn training_bytes() -> Vec<u8> {
    (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect()
}

/// An engine per registered codec, in `CodecId::ALL` order, E2MC
/// trained on the sample.
fn engines() -> Vec<Engine> {
    let bytes = training_bytes();
    let codecs: Vec<Arc<dyn BlockCodec>> = vec![
        Arc::new(Bdi::new()),
        Arc::new(Fpc::new()),
        Arc::new(Cpack::new()),
        Arc::new(Bpc::new()),
        Arc::new(E2mc::train_on_bytes(&bytes, &E2mcConfig::default())),
        Arc::new(Rans::new()),
    ];
    let engines: Vec<Engine> =
        codecs.into_iter().map(|c| Engine::new(c).with_chunk_bytes(256)).collect();
    assert!(engines.iter().map(Engine::codec_id).eq(CodecId::ALL), "one engine per codec id");
    engines
}

/// Byte offset of the payload section, and the directory, of a pristine
/// container.
fn payload_and_directory(container: &[u8]) -> (usize, Vec<slc::slc_engine::DirEntry>) {
    let frame = Frame::parse(container).expect("pristine container parses");
    (container.len() - frame.payload.len(), frame.directory)
}

const BOTH: [Threads; 2] = [Threads::Serial, Threads::Exact(3)];

/// One corrupted decode attempt per thread policy, called bare: Ok must
/// mean a full-size buffer, Err is fine, a panic fails the test.
fn assert_contained_under(
    engine: &Engine,
    container: &[u8],
    expect_len: usize,
    threads: &[Threads],
    what: impl Fn() -> String,
) {
    for &threads in threads {
        if let Ok(out) = engine.decompress_threads(container, threads) {
            assert_eq!(
                out.len(),
                expect_len,
                "{}: a successful decode must be a full-size buffer",
                what()
            );
        }
    }
}

fn assert_contained(engine: &Engine, container: &[u8], expect_len: usize, what: &str) {
    assert_contained_under(engine, container, expect_len, &BOTH, || what.to_string());
}

#[test]
fn truncation_at_every_header_and_directory_boundary() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress_threads(&data, Threads::Auto);
    let info = frame_info(&container).unwrap();
    let dir_end = HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES;
    // Every byte boundary of the header + directory: all structurally
    // fatal, so the parse must error (no partial metadata is usable).
    for cut in 0..dir_end {
        assert!(
            engine.decompress_threads(&container[..cut], Threads::Auto).is_err(),
            "cut at metadata byte {cut} must be an error"
        );
    }
    // Payload truncation, every boundary: the directory now points past
    // the end, which parse rejects up front.
    for cut in dir_end..container.len() {
        assert_contained(&engine, &container[..cut], data.len(), &format!("payload cut {cut}"));
        assert!(
            engine.decompress_threads(&container[..cut], Threads::Auto).is_err(),
            "payload cut {cut} leaves a dangling directory span"
        );
    }
    assert_eq!(
        engine.decompress_threads(&container, Threads::Auto).unwrap(),
        data,
        "uncut container still decodes"
    );
}

#[test]
fn seeded_bit_flip_barrage_is_contained() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress_threads(&data, Threads::Auto);
    let mut rng = Rng(0xc0de_f11b_5eed);
    let mut errors = 0u32;
    const FLIPS: usize = 512;
    for i in 0..FLIPS {
        let mut corrupt = container.clone();
        let bit = (rng.next() as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert_contained(&engine, &corrupt, data.len(), &format!("flip {i} (bit {bit})"));
        if engine.decompress_threads(&corrupt, Threads::Auto).is_err() {
            errors += 1;
        }
    }
    // Sanity: some flips must trip validation (header/directory bits are
    // ~7% of this container). Most flips land in payload bytes, where a
    // changed-but-full-size decode is the correct contained outcome —
    // flipping a verbatim byte simply decodes to different data.
    assert!(errors > 0, "no flip was ever detected ({FLIPS} tried)");
    assert_eq!(
        engine.decompress_threads(&container, Threads::Auto).unwrap(),
        data,
        "pristine container unaffected"
    );
}

#[test]
fn double_flips_across_trained_codec_payloads_are_contained() {
    // E2MC's decode path (Huffman tables + escapes) sees the barrage
    // too: flips in coded payloads must surface as ChunkCorrupt, not as
    // a panic in a worker thread.
    let engine =
        Engine::new(Arc::new(E2mc::train_on_bytes(&training_bytes(), &E2mcConfig::default())))
            .with_chunk_bytes(256);
    let data = sample_stream();
    let container = engine.compress_threads(&data, Threads::Auto);
    let info = frame_info(&container).unwrap();
    assert!(info.coded_chunks > 0, "need coded chunks to corrupt");
    let dir_end = HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES;
    let mut rng = Rng(0x5eed_cafe);
    for i in 0..128 {
        let mut corrupt = container.clone();
        let payload_bits = (corrupt.len() - dir_end) * 8;
        for _ in 0..2 {
            let bit = dir_end * 8 + (rng.next() as usize) % payload_bits;
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
        assert_contained(&engine, &corrupt, data.len(), &format!("payload flip pair {i}"));
    }
}

#[test]
fn rans_chunk_streams_survive_the_barrage() {
    // The whole-chunk rANS path decodes through the chunk-coder dispatch
    // (table parse + interleaved stream walk), not the per-block tag
    // walk: flips and truncations in its payload must surface as
    // ChunkCorrupt or decode to a full-size buffer — never as a panic
    // in a worker or an out-of-bounds read.
    let engine = Engine::new(Arc::new(Rans::new())).with_chunk_bytes(256);
    let data = sample_stream();
    let container = engine.compress_threads(&data, Threads::Auto);
    let info = frame_info(&container).unwrap();
    assert!(info.coded_chunks > 0, "need rANS-coded chunks to corrupt");
    let dir_end = HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES;

    // Payload truncation at every byte boundary.
    for cut in dir_end..container.len() {
        assert_contained(&engine, &container[..cut], data.len(), &format!("rans cut {cut}"));
    }

    // Seeded single flips across the whole container, plus double flips
    // confined to the payload (past the metadata validation).
    let mut rng = Rng(0xa125_0b5e_55ed);
    for i in 0..256 {
        let mut corrupt = container.clone();
        let bit = (rng.next() as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert_contained(&engine, &corrupt, data.len(), &format!("rans flip {i} (bit {bit})"));
    }
    for i in 0..128 {
        let mut corrupt = container.clone();
        let payload_bits = (corrupt.len() - dir_end) * 8;
        for _ in 0..2 {
            let bit = dir_end * 8 + (rng.next() as usize) % payload_bits;
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
        assert_contained(&engine, &corrupt, data.len(), &format!("rans payload pair {i}"));
    }
    assert_eq!(
        engine.decompress_threads(&container, Threads::Auto).unwrap(),
        data,
        "pristine rANS container decodes"
    );
}

#[test]
fn lying_directory_entries_are_rejected_or_contained() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress_threads(&data, Threads::Auto);
    let info = frame_info(&container).unwrap();
    assert!(info.chunk_count >= 2);
    let entry_at = |chunk: usize| HEADER_BYTES + chunk * DIR_ENTRY_BYTES;

    // Offset pointing far past the payload.
    let mut lying = container.clone();
    lying[entry_at(0)..entry_at(0) + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        engine.decompress_threads(&lying, Threads::Auto),
        Err(ContainerError::InvalidEntry { chunk: 0, .. })
    ));

    // encoded_bits puffed up beyond the payload section.
    let mut lying = container.clone();
    lying[entry_at(0) + 8..entry_at(0) + 12].copy_from_slice(&(!7u32).to_le_bytes());
    assert!(matches!(
        engine.decompress_threads(&lying, Threads::Auto),
        Err(ContainerError::InvalidEntry { chunk: 0, .. })
    ));

    // encoded_bits not byte-aligned.
    let mut lying = container.clone();
    lying[entry_at(0) + 8..entry_at(0) + 12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        engine.decompress_threads(&lying, Threads::Auto),
        Err(ContainerError::InvalidEntry { chunk: 0, .. })
    ));

    // Unknown storage mode byte.
    let mut lying = container.clone();
    lying[entry_at(1) + 12] = 0x7e;
    assert!(matches!(
        engine.decompress_threads(&lying, Threads::Auto),
        Err(ContainerError::InvalidEntry { chunk: 1, .. })
    ));

    // A coded entry relabelled Raw with the wrong length for its chunk.
    let coded_chunk = (0..info.chunk_count as usize)
        .find(|&c| {
            let mode = container[entry_at(c) + 12];
            mode == StorageMode::Coded.as_u8()
        })
        .expect("a coded chunk exists");
    let mut lying = container.clone();
    lying[entry_at(coded_chunk) + 12] = StorageMode::Raw.as_u8();
    assert_contained(&engine, &lying, data.len(), "coded chunk relabelled raw");

    // Lying chunk_count (header) — inconsistent with total_len.
    let mut lying = container.clone();
    lying[12..16].copy_from_slice(&(info.chunk_count + 1).to_le_bytes());
    assert!(matches!(
        engine.decompress_threads(&lying, Threads::Auto),
        Err(ContainerError::BadChunkCount { .. })
    ));

    // Two entries aliasing the same span: structurally valid (both in
    // bounds) — must decode to a full-size buffer or error, never OOB.
    let mut aliased = container.clone();
    let (a, b) = (entry_at(0), entry_at(1));
    let first: Vec<u8> = aliased[a..a + DIR_ENTRY_BYTES].to_vec();
    aliased[b..b + DIR_ENTRY_BYTES].copy_from_slice(&first);
    assert_contained(&engine, &aliased, data.len(), "aliased directory entries");
}

#[test]
fn header_field_tampering_is_rejected() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress_threads(&data, Threads::Auto);

    let mut bad = container.clone();
    bad[0..4].copy_from_slice(b"SLX1");
    assert!(matches!(
        engine.decompress_threads(&bad, Threads::Auto),
        Err(ContainerError::BadMagic(_))
    ));

    let mut bad = container.clone();
    bad[4] = 99;
    assert!(matches!(
        engine.decompress_threads(&bad, Threads::Auto),
        Err(ContainerError::BadVersion(_))
    ));

    let mut bad = container.clone();
    bad[6] = 200;
    assert!(matches!(
        engine.decompress_threads(&bad, Threads::Auto),
        Err(ContainerError::UnknownCodec(200))
    ));

    let mut bad = container.clone();
    bad[7] = 1;
    assert!(matches!(
        engine.decompress_threads(&bad, Threads::Auto),
        Err(ContainerError::BadFlags(1))
    ));

    // Wrong-but-known codec byte: the engine must refuse to decode a
    // container labelled for a different codec.
    let mut bad = container.clone();
    bad[6] = slc::slc_compress::CodecId::Fpc.as_u8();
    assert!(matches!(
        engine.decompress_threads(&bad, Threads::Auto),
        Err(ContainerError::CodecMismatch { .. })
    ));

    // total_len tampering desynchronises the chunk-count invariant.
    let mut bad = container.clone();
    bad[16..24].copy_from_slice(&(data.len() as u64 * 1000).to_le_bytes());
    assert!(matches!(
        engine.decompress_threads(&bad, Threads::Auto),
        Err(ContainerError::BadChunkCount { .. })
    ));
}

#[test]
fn header_geometry_and_directory_bytes_swept_over_all_values() {
    // The integers `Frame::parse` reads — `chunk_bytes`, `chunk_count`,
    // `total_len` (header bytes 8..24) and all 13 bytes of every
    // directory entry — one byte at a time over all 256 values. A raw
    // chunk, coded chunks and a ragged coded tail, so a tampered
    // `total_len` that keeps the chunk count reaches the block walk with
    // a different output length.
    let mut data = registry_stream();
    data.rotate_right(256);
    data.truncate(956);
    let bytes = training_bytes();
    let codecs: [Arc<dyn BlockCodec>; 3] = [
        Arc::new(Bdi::new()),
        Arc::new(E2mc::train_on_bytes(&bytes, &E2mcConfig::default())),
        Arc::new(Rans::new()),
    ];
    for codec in codecs {
        let engine = Engine::new(codec).with_chunk_bytes(256);
        let name = engine.codec_id().name();
        let container = engine.compress_threads(&data, Threads::Auto);
        let info = frame_info(&container).unwrap();
        assert!(info.raw_chunks > 0 && info.coded_chunks > 0, "{name}: need both storage modes");
        let dir_end = HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES;
        let mut hostile = container.clone();
        for at in 8..dir_end {
            for value in 0..=u8::MAX {
                hostile[at] = value;
                // A decode that succeeds owes the length its header claims.
                let claimed = u64::from_le_bytes(*hostile[16..].first_chunk().unwrap());
                assert_contained_under(&engine, &hostile, claimed as usize, &BOTH, || {
                    format!("{name}: metadata byte {at} = {value:#04x}")
                });
            }
            hostile[at] = container[at];
        }
        assert_eq!(
            engine.decompress_threads(&hostile, Threads::Auto).unwrap(),
            data,
            "{name}: sweep restores"
        );
    }
}

#[test]
fn header_claiming_terabytes_is_an_error_not_an_abort() {
    // 1,300,024 bytes that `Frame::parse` accepts: 100,000 empty coded
    // chunks of the largest legal chunk size, 1.5 TiB decoded. The owned
    // output is sized by that header field alone.
    let (chunk_bytes, chunk_count) = (MAX_CHUNK_BYTES as u32, 100_000u32);
    let total_len = u64::from(chunk_bytes) * u64::from(chunk_count);
    let mut hostile = b"SLC1".to_vec();
    hostile.extend_from_slice(&1u16.to_le_bytes());
    hostile.extend_from_slice(&[CodecId::Bdi.as_u8(), 0]);
    hostile.extend_from_slice(&chunk_bytes.to_le_bytes());
    hostile.extend_from_slice(&chunk_count.to_le_bytes());
    hostile.extend_from_slice(&total_len.to_le_bytes());
    for _ in 0..chunk_count {
        hostile.extend_from_slice(&0u64.to_le_bytes());
        hostile.extend_from_slice(&0u32.to_le_bytes());
        hostile.push(StorageMode::Coded.as_u8());
    }
    assert_eq!(hostile.len(), 1_300_024);
    assert_eq!(frame_info(&hostile).unwrap().total_len, total_len);
    let engine = bdi_engine();
    let refused = Err(ContainerError::OutputAllocFailed { total_len });
    assert_eq!(engine.decompress_threads(&hostile, Threads::Auto), refused);
    for threads in BOTH {
        assert_eq!(engine.decompress_threads(&hostile, threads), refused, "{threads:?}");
    }
    // The borrowed path never allocates from the header: the caller's
    // buffer is simply the wrong size.
    let mut small = [0u8; 256];
    assert_eq!(
        engine.decompress_into_threads(&hostile, &mut small, Threads::Auto),
        Err(ContainerError::OutputLenMismatch { total_len, out_len: 256 })
    );
}

#[test]
fn first_two_bytes_of_every_coded_chunk_swept_over_all_values() {
    // Structure-aware mutation: frame and directory stay valid, and the
    // first two bytes of each coded chunk take every value they can. For
    // the five block-framed codecs that is the first block's tag — all
    // 15-bit sizes x the coded flag, so the codec sees every size the
    // wire can declare over a body that never matches it. For rANS it is
    // the table's count byte and first symbol.
    let data = registry_stream();
    for engine in engines() {
        let name = engine.codec_id().name();
        let container = engine.compress_threads(&data, Threads::Auto);
        let (payload_at, directory) = payload_and_directory(&container);
        let coded: Vec<_> = directory.iter().filter(|e| e.mode == StorageMode::Coded).collect();
        assert!(!coded.is_empty(), "{name}: need coded chunks to mutate");
        let mut hostile = container.clone();
        for entry in coded {
            let at = payload_at + entry.offset as usize;
            for value in 0..=u16::MAX {
                hostile[at..at + 2].copy_from_slice(&value.to_le_bytes());
                // Serial decodes every value; the workers (same decode,
                // other threads) see the sizes around the edges of the
                // valid range and a stride of the rest.
                let bits = u32::from(value & 0x7fff);
                let edge = bits <= 1 || bits.abs_diff(BLOCK_BITS) <= 1;
                let threads = if edge || value % 251 == 0 { &BOTH[..] } else { &BOTH[..1] };
                assert_contained_under(&engine, &hostile, data.len(), threads, || {
                    format!("{name}: chunk at {} starts {value:#06x}", entry.offset)
                });
            }
            hostile[at..at + 2].copy_from_slice(&container[at..at + 2]);
        }
        assert_eq!(hostile, container, "{name}: sweep restores the container");
    }
}

#[test]
fn rans_table_fields_swept_over_all_values() {
    // Every wire integer `parse_table` reads, each over its whole range
    // in every coded chunk: the count byte, and every 12-bit frequency
    // field.
    let engine = Engine::new(Arc::new(Rans::new())).with_chunk_bytes(256);
    let data = sample_stream();
    let container = engine.compress_threads(&data, Threads::Auto);
    let (payload_at, directory) = payload_and_directory(&container);
    let mut hostile = container.clone();
    let mut fields = 0usize;
    for entry in directory.iter().filter(|e| e.mode == StorageMode::Coded) {
        let at = payload_at + entry.offset as usize;
        for count in 0..=u8::MAX {
            hostile[at] = count;
            assert_contained_under(&engine, &hostile, data.len(), &BOTH, || {
                format!("rans chunk at {}: count byte {count}", entry.offset)
            });
        }
        hostile[at] = container[at];
        // [count - 1][count symbols][count x 12-bit freq - 1], MSB first.
        let count = container[at] as usize + 1;
        let freqs_at = at + 1 + count;
        for field in 0..count {
            let bit = field * RANS_SCALE_BITS as usize;
            let (byte, odd) = (freqs_at + bit / 8, !bit.is_multiple_of(8));
            for value in 0..1u16 << RANS_SCALE_BITS {
                if odd {
                    hostile[byte] = (container[byte] & 0xf0) | (value >> 8) as u8;
                    hostile[byte + 1] = value as u8;
                } else {
                    hostile[byte] = (value >> 4) as u8;
                    hostile[byte + 1] = (container[byte + 1] & 0x0f) | (value << 4) as u8;
                }
                assert_contained_under(&engine, &hostile, data.len(), &BOTH[..1], || {
                    format!("rans chunk at {}: freq field {field} = {value}", entry.offset)
                });
            }
            hostile[byte..byte + 2].copy_from_slice(&container[byte..byte + 2]);
            fields += 1;
        }
    }
    assert!(fields > 0, "need rANS-coded chunks to mutate");
    assert_eq!(hostile, container, "sweep restores the container");
}

#[test]
fn containers_relabelled_for_every_other_codec_are_contained() {
    // Differential decode at container level: a valid frame whose header
    // names the wrong codec reaches that codec's decoder with chunk
    // bytes another codec wrote — structured, plausible and wrong. Each
    // writer's own id, one per codec, is what its header carries.
    let data = registry_stream();
    let engines = engines();
    for writer in &engines {
        let container = writer.compress_threads(&data, Threads::Auto);
        let header = Frame::parse(&container).expect("pristine container parses").header;
        assert_eq!(header.codec, writer.codec_id());
        for reader in &engines {
            let mut relabelled = container.clone();
            relabelled[6] = reader.codec_id().as_u8();
            let what = format!(
                "{} container relabelled {}",
                writer.codec_id().name(),
                reader.codec_id().name()
            );
            assert_contained(reader, &relabelled, data.len(), &what);
            if reader.codec_id() == writer.codec_id() {
                assert_eq!(
                    reader.decompress_threads(&relabelled, Threads::Auto).as_deref(),
                    Ok(&data[..]),
                    "{what}"
                );
            } else {
                assert!(matches!(
                    writer.decompress_threads(&relabelled, Threads::Auto),
                    Err(ContainerError::CodecMismatch { .. })
                ));
            }
        }
        // The retired SC2 and HyComp numbers name no codec at all.
        for reserved in [5u8, 6] {
            let mut relabelled = container.clone();
            relabelled[6] = reserved;
            assert_eq!(
                writer.decompress_threads(&relabelled, Threads::Auto),
                Err(ContainerError::UnknownCodec(reserved)),
                "{} container relabelled {reserved}",
                writer.codec_id().name()
            );
        }
    }
}
