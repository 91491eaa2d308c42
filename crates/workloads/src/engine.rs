//! Snapshot containers: a whole [`GpuMemory`] image through the
//! `slc-engine` batch path.

use crate::analysis::SnapshotAnalysis;
use slc_compress::e2mc::E2mc;
use slc_compress::BLOCK_BYTES;
use slc_engine::{Engine, Threads};
use slc_sim::GpuMemory;

/// The full byte image of `mem`'s regions, in region-table order — the
/// order [`GpuMemory::blocks_with_addr`] walks. Always a multiple of
/// [`BLOCK_BYTES`] (`malloc` pads every region to whole blocks).
pub fn snapshot_bytes(mem: &GpuMemory) -> Vec<u8> {
    let mut out = Vec::with_capacity(mem.len());
    for region in mem.regions() {
        out.extend_from_slice(mem.region_bytes(region));
    }
    debug_assert_eq!(out.len() % BLOCK_BYTES, 0, "regions are block-padded");
    out
}

/// Kept for `benchmark/`; ROADMAP item 19 deletes it. The container
/// `engine.compress_threads(bytes, threads)` returns: neither `e2mc` nor
/// `snapshot` is read.
#[doc(hidden)]
pub fn compress_snapshot(
    engine: &Engine,
    _e2mc: &E2mc,
    bytes: &[u8],
    _snapshot: &SnapshotAnalysis,
    threads: Threads,
) -> Vec<u8> {
    engine.compress_threads(bytes, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_compress::bdi::Bdi;
    use slc_compress::e2mc::E2mcConfig;
    use slc_compress::rans::Rans;
    use slc_compress::BlockCodec;
    use std::sync::Arc;

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
        assert_eq!(bytes, walked, "stream order must equal the block walk's");
    }

    /// The shim is `compress_threads`, whatever the engine's codec.
    #[test]
    fn cached_sizes_reproduce_the_plain_container_exactly() {
        let e2mc = trained();
        let mem = memory();
        let snapshot = SnapshotAnalysis::capture(&e2mc, &mem);
        let bytes = snapshot_bytes(&mem);
        let codecs: [Arc<dyn BlockCodec>; 3] =
            [Arc::new(e2mc.clone()), Arc::new(Rans::new()), Arc::new(Bdi::new())];
        for codec in codecs {
            let engine = Engine::new(codec);
            for threads in [Threads::Serial, Threads::Exact(2)] {
                let plain = engine.compress_threads(&bytes, threads);
                let shim = compress_snapshot(&engine, &e2mc, &bytes, &snapshot, threads);
                assert_eq!(plain, shim, "{:?} {threads:?}", engine.codec_id());
            }
        }
    }
}
