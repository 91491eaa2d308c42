//! Per-block E2MC analyses of one memory snapshot, captured in one walk.
//!
//! No figure or table path captures one: the replay's staging walk
//! ([`Scheme::stage_and_record`](crate::scheme::Scheme::stage_and_record))
//! analyses each block where it stages it, and the E2MC baseline keeps
//! one `u16` size a block
//! ([`BenchmarkArtifacts::exact_size_snapshots`](crate::harness::BenchmarkArtifacts::exact_size_snapshots)).
//! [`SnapshotAnalysis`] is kept for `benchmark/`; ROADMAP item 19 deletes it.

use slc_compress::e2mc::{BlockAnalysis, E2mc, SymbolTable};
use slc_compress::BLOCK_BYTES;
use slc_sim::GpuMemory;
use std::sync::Arc;

/// One analysed block of a snapshot; its index in
/// [`SnapshotAnalysis::entries`] is its block address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzedBlock {
    /// Whether the owning region is marked safe to approximate.
    pub approximable: bool,
    /// The block's shared analysis (code lengths + total bits).
    pub analysis: BlockAnalysis,
}

/// Per-block analyses of one memory snapshot under one trained table,
/// in the order [`GpuMemory::blocks_with_addr`] walks: entry `i` is
/// block `i`.
#[derive(Debug, Clone)]
pub struct SnapshotAnalysis {
    entries: Vec<AnalyzedBlock>,
    /// Identity of the trained model the entries were measured with.
    table: Arc<SymbolTable>,
}

impl SnapshotAnalysis {
    /// Kept for `benchmark/`; ROADMAP item 19 deletes it. Analyses every
    /// region block of `mem` under `e2mc` in one in-order pass into a
    /// buffer sized up front, the snapshot's only allocation.
    #[doc(hidden)]
    pub fn capture(e2mc: &E2mc, mem: &GpuMemory) -> Self {
        let mut entries = Vec::with_capacity(mem.len() / BLOCK_BYTES);
        for (region, _, block) in mem.blocks_with_addr() {
            let approximable = region.safe_to_approx;
            entries.push(AnalyzedBlock { approximable, analysis: e2mc.analyze(block) });
        }
        Self { entries, table: Arc::clone(e2mc.shared_table()) }
    }

    /// The analysed blocks, indexed by block address.
    pub fn entries(&self) -> &[AnalyzedBlock] {
        &self.entries
    }

    /// `true` when the snapshot was analysed with exactly `e2mc`'s
    /// trained table (the `Arc` allocation, not value equality) — the
    /// precondition for feeding it to any scheme built on that table.
    pub fn matches(&self, e2mc: &E2mc) -> bool {
        Arc::ptr_eq(&self.table, e2mc.shared_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_compress::e2mc::E2mcConfig;
    use slc_compress::Block;
    use slc_sim::BlockAddr;

    fn trained() -> E2mc {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 512) as f32).to_le_bytes()).collect();
        E2mc::train_on_bytes(&bytes, &E2mcConfig::default())
    }

    fn memory() -> GpuMemory {
        let mut m = GpuMemory::new();
        let a = m.malloc("approx", 512, true);
        let e = m.malloc("exact", 256, false);
        let vals: Vec<f32> = (0..128).map(|i| (i % 512) as f32).collect();
        m.write_f32(a, &vals);
        m.write_f32(e, &vals[..64]);
        m
    }

    #[test]
    fn capture_matches_a_direct_walk() {
        let e2mc = trained();
        let mem = memory();
        let snap = SnapshotAnalysis::capture(&e2mc, &mem);
        let direct: Vec<(BlockAddr, bool, BlockAnalysis)> = {
            let mut out = Vec::new();
            for region in mem.regions() {
                for (i, chunk) in mem.region_bytes(region).chunks_exact(BLOCK_BYTES).enumerate() {
                    let block: &Block = chunk.try_into().unwrap();
                    out.push((
                        region.base / BLOCK_BYTES as u64 + i as u64,
                        region.safe_to_approx,
                        e2mc.analyze(block),
                    ));
                }
            }
            out
        };
        assert_eq!(snap.entries().len(), direct.len());
        for (i, (got, want)) in snap.entries().iter().zip(&direct).enumerate() {
            assert_eq!(i as BlockAddr, want.0, "entry i is block i");
            assert_eq!(got.approximable, want.1);
            assert_eq!(got.analysis, want.2);
        }
    }

    #[test]
    fn an_analysis_is_68_bytes_and_an_entry_72() {
        // What a captured snapshot costs per 128 B block, as the docs and
        // ROADMAP quote it.
        assert_eq!(std::mem::size_of::<BlockAnalysis>(), 68);
        assert_eq!(std::mem::size_of::<AnalyzedBlock>(), 72);
    }

    #[test]
    fn matches_is_table_identity() {
        let e2mc = trained();
        let mem = memory();
        let snap = SnapshotAnalysis::capture(&e2mc, &mem);
        assert!(snap.matches(&e2mc));
        assert!(snap.matches(&e2mc.clone()), "clones share the table");
        let other = trained();
        assert!(!snap.matches(&other), "a retrained table is a different model");
    }
}
