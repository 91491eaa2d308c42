//! Engine-backed snapshot containers: a whole [`GpuMemory`] image through
//! the `slc-engine` batch path, **reusing** cached analyses.
//!
//! # The sharing contract with [`SnapshotAnalysis`]
//!
//! A snapshot that has been analysed once (the shared pipeline of
//! [`crate::analysis`]) already knows every block's E2MC stored size.
//! The batch engine's [`Engine::compress_with_sizes`] consumes exactly
//! that: a truthful per-block size lets it skip the codec for every
//! incompressible block while producing output **byte-identical** to the
//! plain path. Three preconditions make the hand-off sound, and
//! [`compress_snapshot`] checks all of them:
//!
//! 1. **Same trained table.** Sizes are only meaningful against the
//!    table that produced them — verified via
//!    [`SnapshotAnalysis::matches`] (`Arc` identity, not value
//!    equality).
//! 2. **Same bytes, same order.** The engine's input stream must be the
//!    byte image whose blocks the snapshot analysed, in the snapshot's
//!    entry order. [`snapshot_bytes`] builds it by concatenating
//!    [`GpuMemory::region_bytes`] in region-table order — precisely the
//!    order [`GpuMemory::all_blocks`] (and therefore
//!    [`SnapshotAnalysis::capture`]) walks, and every region is a whole
//!    number of blocks because `malloc` pads to block multiples.
//! 3. **One size per block.** Checked by length: `entries × 128 B`
//!    must equal the byte image.
//!
//! Under that contract the engine performs zero re-analysis: the one
//! `analyze` pass per snapshot that the harness already paid is the only
//! one that ever runs, whether the snapshot feeds burst sweeps, ratio
//! studies or a framed container on disk.

use crate::analysis::SnapshotAnalysis;
use slc_compress::e2mc::E2mc;
use slc_compress::BLOCK_BYTES;
use slc_engine::{Engine, Threads};
use slc_sim::GpuMemory;
use std::sync::Arc;

/// The full byte image of `mem`'s regions, in region-table order — the
/// stream form of the snapshot that [`SnapshotAnalysis::capture`]
/// analyses block by block. Always a multiple of [`BLOCK_BYTES`]
/// (`malloc` pads every region to whole blocks).
pub fn snapshot_bytes(mem: &GpuMemory) -> Vec<u8> {
    let mut out = Vec::with_capacity(mem.len());
    for region in mem.regions() {
        out.extend_from_slice(mem.region_bytes(region));
    }
    debug_assert_eq!(out.len() % BLOCK_BYTES, 0, "regions are block-padded");
    out
}

/// Builds an E2MC batch engine sharing `e2mc`'s trained table (an `Arc`
/// refcount bump, the same clone-cost contract as `Scheme` building).
pub fn snapshot_engine(e2mc: &E2mc) -> Engine {
    Engine::new(Arc::new(e2mc.clone()))
}

/// Compresses a snapshot byte image into a framed container, feeding the
/// engine the snapshot's **cached** per-block sizes instead of letting it
/// re-analyse — see the module docs for the sharing contract. The
/// container is byte-identical to `engine.compress_threads(bytes, threads)`.
///
/// # Panics
///
/// Panics when any leg of the contract is violated: foreign trained
/// table, or a byte image whose block count disagrees with the
/// snapshot's entries.
pub fn compress_snapshot(
    engine: &Engine,
    e2mc: &E2mc,
    bytes: &[u8],
    snapshot: &SnapshotAnalysis,
    threads: Threads,
) -> Vec<u8> {
    assert!(
        snapshot.matches(e2mc),
        "snapshot analysed under a different trained table than the engine's codec"
    );
    assert_eq!(
        snapshot.entries().len() * BLOCK_BYTES,
        bytes.len(),
        "byte image and snapshot disagree on the block count"
    );
    let sizes: Vec<u32> = snapshot.entries().iter().map(|b| b.analysis.e2mc_size_bits()).collect();
    engine.compress_with_sizes(bytes, &sizes, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_compress::e2mc::E2mcConfig;
    use slc_engine::frame_info;

    fn trained() -> E2mc {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 512) as f32).to_le_bytes()).collect();
        E2mc::train_on_bytes(&bytes, &E2mcConfig::default())
    }

    fn memory() -> GpuMemory {
        let mut m = GpuMemory::new();
        let a = m.malloc("approx", 2048, true);
        let e = m.malloc("exact", 1024, false);
        let vals: Vec<f32> = (0..512).map(|i| (i % 512) as f32).collect();
        m.write_f32(a, &vals);
        m.write_f32(e, &vals[..256]);
        m
    }

    #[test]
    fn snapshot_bytes_match_the_block_walk() {
        let mem = memory();
        let bytes = snapshot_bytes(&mem);
        assert_eq!(bytes.len(), mem.len());
        let walked: Vec<u8> =
            mem.blocks_with_addr().flat_map(|(_, _, block)| block.to_vec()).collect();
        assert_eq!(bytes, walked, "stream order must equal analysis entry order");
    }

    #[test]
    fn cached_sizes_reproduce_the_plain_container_exactly() {
        let e2mc = trained();
        let mem = memory();
        let snapshot = SnapshotAnalysis::capture(&e2mc, &mem);
        let engine = snapshot_engine(&e2mc);
        let bytes = snapshot_bytes(&mem);
        let plain = engine.compress_threads(&bytes, Threads::Auto);
        let cached = compress_snapshot(&engine, &e2mc, &bytes, &snapshot, Threads::Serial);
        assert_eq!(plain, cached, "the no-re-analysis path must not change a single byte");
        assert_eq!(engine.decompress_threads(&cached, Threads::Auto).unwrap(), bytes);
        let info = frame_info(&cached).unwrap();
        assert!(info.ratio() > 1.0, "in-distribution snapshot should compress");
    }

    #[test]
    #[should_panic(expected = "different trained table")]
    fn foreign_tables_are_rejected() {
        let e2mc = trained();
        let mem = memory();
        let snapshot = SnapshotAnalysis::capture(&trained(), &mem);
        let engine = snapshot_engine(&e2mc);
        let bytes = snapshot_bytes(&mem);
        let _ = compress_snapshot(&engine, &e2mc, &bytes, &snapshot, Threads::Serial);
    }

    #[test]
    #[should_panic(expected = "disagree on the block count")]
    fn truncated_images_are_rejected() {
        let e2mc = trained();
        let mem = memory();
        let snapshot = SnapshotAnalysis::capture(&e2mc, &mem);
        let engine = snapshot_engine(&e2mc);
        let bytes = snapshot_bytes(&mem);
        let _ = compress_snapshot(
            &engine,
            &e2mc,
            &bytes[..bytes.len() - BLOCK_BYTES],
            &snapshot,
            Threads::Serial,
        );
    }
}
