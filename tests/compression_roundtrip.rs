//! Cross-crate integration: every lossless codec round-trips every kind
//! of data the workloads generate, and their sizes respect the MAG
//! arithmetic used by the figures.

use slc::slc_compress::bdi::Bdi;
use slc::slc_compress::bpc::Bpc;
use slc::slc_compress::cpack::Cpack;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig};
use slc::slc_compress::fpc::Fpc;
use slc::slc_compress::ratio::RatioAccumulator;
use slc::slc_compress::{Block, BlockCompressor, Mag, BLOCK_BITS, BLOCK_BYTES};
use slc::slc_workloads::{all_workloads, Scale};

fn workload_blocks() -> Vec<Block> {
    let mut blocks = Vec::new();
    for w in all_workloads(Scale::Tiny) {
        let mem = w.build(7);
        // A slice of each benchmark's initial memory.
        blocks.extend(mem.all_blocks().map(|(_, b)| b).step_by(17).take(64));
    }
    blocks
}

#[test]
fn every_codec_roundtrips_every_workload_block() {
    let blocks = workload_blocks();
    assert!(blocks.len() > 300, "expected a broad sample, got {}", blocks.len());
    let training: Vec<u8> = blocks.iter().flat_map(|b| b.iter().copied()).collect();
    let e2mc = E2mc::train_on_bytes(&training, &E2mcConfig::default());
    let bdi = Bdi::new();
    let fpc = Fpc::new();
    let cpack = Cpack::new();
    let bpc = Bpc::new();
    let codecs: [&dyn BlockCompressor; 5] = [&bdi, &fpc, &cpack, &bpc, &e2mc];
    let (mut payload, mut out) = (Vec::new(), [0u8; BLOCK_BYTES]);
    for (i, block) in blocks.iter().enumerate() {
        for codec in codecs {
            payload.clear();
            let (bits, coded) = codec.compress_into(block, &mut payload);
            codec.decompress_into(bits, coded, &payload, &mut out).unwrap();
            assert_eq!(out, *block, "{} failed roundtrip on workload block {i}", codec.id().name());
            assert!(bits <= BLOCK_BITS);
            assert_eq!(codec.size_bits(block), bits, "{} size model drift", codec.id().name());
        }
    }
}

#[test]
fn effective_ratio_is_consistent_across_codecs() {
    let blocks = workload_blocks();
    let training: Vec<u8> = blocks.iter().flat_map(|b| b.iter().copied()).collect();
    let e2mc = E2mc::train_on_bytes(&training, &E2mcConfig::default());
    for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
        let mut acc = RatioAccumulator::new(mag, BLOCK_BYTES as u32);
        for b in &blocks {
            acc.record_bits(e2mc.size_bits(b));
        }
        assert!(acc.effective_ratio() <= acc.raw_ratio() + 1e-12);
        assert!(acc.effective_ratio() >= 1.0);
    }
}

#[test]
fn trained_tables_beat_untrained_on_their_own_data() {
    // The whole point of E2MC's sampling: per-application tables.
    let w = all_workloads(Scale::Tiny).remove(4); // TP: smooth matrix
    let mem = w.build(3);
    let own: Vec<u8> = mem.all_blocks().flat_map(|(_, b)| b.to_vec()).collect();
    let foreign: Vec<u8> =
        (0..1u32 << 14).flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes()).collect();
    let own_table = E2mc::train_on_bytes(&own, &E2mcConfig::default());
    let foreign_table = E2mc::train_on_bytes(&foreign, &E2mcConfig::default());
    let mut own_total = 0u64;
    let mut foreign_total = 0u64;
    for (_, b) in mem.all_blocks() {
        own_total += u64::from(own_table.size_bits(&b));
        foreign_total += u64::from(foreign_table.size_bits(&b));
    }
    assert!(
        own_total < foreign_total,
        "own-table {own_total} should beat foreign-table {foreign_total}"
    );
}
