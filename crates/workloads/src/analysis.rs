//! Snapshot-level sharing of per-block E2MC analyses.
//!
//! A memory snapshot (one kernel-boundary state of a [`GpuMemory`]) that
//! is read more than once is analysed **once** under the trained table —
//! one [`E2mc::analyze`] pass per block, in one serial walk over memory —
//! and the resulting [`SnapshotAnalysis`] then serves every consumer
//! that would otherwise re-derive the same code lengths:
//!
//! * the Fig. 2 heat map and the §V-C compression-ratio studies, which
//!   bucket the same per-block sizes;
//! * the Fig. 9 MAG/threshold sweeps, which re-decide but never
//!   re-encode;
//! * [`BurstsAccumulator::record`](crate::scheme::BurstsAccumulator::record)
//!   decision sweeps for any number of schemes, MAGs and thresholds over
//!   one captured image.
//!
//! The replay's staging points are not among them: each is read exactly
//! once, so [`Scheme::stage_and_record`](crate::scheme::Scheme::stage_and_record)
//! streams block by block and materialises no snapshot at all.
//!
//! Analyses are only meaningful against the trained table that produced
//! them, so a snapshot carries the `Arc` identity of its table and
//! consumers verify it with [`SnapshotAnalysis::matches`].

use slc_compress::e2mc::{BlockAnalysis, E2mc, SymbolTable};
use slc_compress::{Block, BLOCK_BYTES};
use slc_sim::{BlockAddr, GpuMemory};
use std::sync::Arc;

/// What a [`Snapshot`] keeps per block: measured once from the block's
/// bytes under the trained table, addressed for the run decomposition.
pub trait SnapshotBlock: Sized {
    /// Measures one block of a region with the given approximability.
    fn measure(e2mc: &E2mc, addr: BlockAddr, approximable: bool, block: &Block) -> Self;

    /// Block address (`region.base / BLOCK_BYTES + index`).
    fn addr(&self) -> BlockAddr;
}

/// One analysed block of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzedBlock {
    /// Block address (`region.base / BLOCK_BYTES + index`).
    pub addr: BlockAddr,
    /// Whether the owning region is marked safe to approximate.
    pub approximable: bool,
    /// The block's shared analysis (code lengths + total bits).
    pub analysis: BlockAnalysis,
}

impl SnapshotBlock for AnalyzedBlock {
    fn measure(e2mc: &E2mc, addr: BlockAddr, approximable: bool, block: &Block) -> Self {
        Self { addr, approximable, analysis: e2mc.analyze(block) }
    }

    fn addr(&self) -> BlockAddr {
        self.addr
    }
}

/// One block of a [`SizeSnapshot`]: address, region class and the E2MC
/// stored size — nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizedBlock {
    /// Block address (`region.base / BLOCK_BYTES + index`).
    pub addr: BlockAddr,
    /// Whether the owning region is marked safe to approximate.
    pub approximable: bool,
    /// E2MC stored size in bits, capped at the verbatim block
    /// (== [`BlockAnalysis::e2mc_size_bits`] of the full analysis).
    pub size_bits: u32,
}

impl SizedBlock {
    /// The block's E2MC stored size in bits — named to mirror
    /// [`BlockAnalysis::e2mc_size_bits`], so size-only consumers read
    /// identically against either representation.
    pub fn e2mc_size_bits(&self) -> u32 {
        self.size_bits
    }
}

impl SnapshotBlock for SizedBlock {
    /// [`E2mc::stored_size_bits`]: a dense-table sum, no tree walk.
    fn measure(e2mc: &E2mc, addr: BlockAddr, approximable: bool, block: &Block) -> Self {
        Self { addr, approximable, size_bits: e2mc.stored_size_bits(block) }
    }

    fn addr(&self) -> BlockAddr {
        self.addr
    }
}

/// Per-block measurements of one memory snapshot under one trained table.
///
/// Entries are ordered exactly as [`GpuMemory::all_blocks`] iterates
/// (region table order, ascending block offset within each region), so
/// order-sensitive consumers — floating-point ratio accumulators, report
/// rows — produce byte-identical output to a direct walk over memory.
#[derive(Debug, Clone)]
pub struct Snapshot<B> {
    entries: Vec<B>,
    /// Identity of the trained model the entries were measured with.
    table: Arc<SymbolTable>,
}

/// Full per-block analyses: what SLC staging decisions and the Fig. 2 /
/// §V-C studies read.
pub type SnapshotAnalysis = Snapshot<AnalyzedBlock>;

/// The size-bits-only snapshot.
///
/// A full [`BlockAnalysis`] is 68 B of per-symbol code lengths and their
/// sum, 80 B as an [`AnalyzedBlock`]; consumers that only ever read the
/// block's *stored size* — the E2MC-baseline burst sweep, the fault
/// ladder's reconciliation tests — pay for none of that here: a 16 B
/// [`SizedBlock`] per block (address, region class, size), a 5× smaller
/// footprint per cached snapshot, pinned to the size the full analysis
/// reports.
pub type SizeSnapshot = Snapshot<SizedBlock>;

impl<B: SnapshotBlock> Snapshot<B> {
    /// Measures every region block of `mem` under `e2mc` in one in-order
    /// pass, each entry written once into a buffer sized up front — the
    /// snapshot's only allocation. Serial on purpose: callers fan out
    /// over benchmarks, one level up, where a nested fan-out would run on
    /// the calling worker anyway.
    pub fn capture(e2mc: &E2mc, mem: &GpuMemory) -> Self {
        let mut entries = Vec::with_capacity(mem.len() / BLOCK_BYTES);
        for (region, addr, block) in mem.blocks_with_addr() {
            entries.push(B::measure(e2mc, addr, region.safe_to_approx, block));
        }
        Self { entries, table: Arc::clone(e2mc.shared_table()) }
    }

    /// The measured blocks, in [`GpuMemory::all_blocks`] order.
    pub fn entries(&self) -> &[B] {
        &self.entries
    }

    /// Maximal runs of entries with consecutive block addresses, in entry
    /// order — the dense-record fast path. Regions are block-contiguous
    /// and allocated back to back, so a snapshot usually decomposes into
    /// a single run; a dense accumulator materialises each run's cells
    /// once and sweeps them by index, with no per-entry map probe of any
    /// kind.
    pub fn runs(&self) -> impl Iterator<Item = &[B]> + '_ {
        self.entries.chunk_by(|a, b| b.addr() == a.addr() + 1)
    }

    /// `true` when the snapshot was measured with exactly `e2mc`'s
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

    fn trained() -> E2mc {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 512) as f32).to_le_bytes()).collect();
        E2mc::train_on_bytes(&bytes, &E2mcConfig::default())
    }

    fn memory() -> GpuMemory {
        let mut m = GpuMemory::new();
        let a = m.malloc("approx", 512, true, 16);
        let e = m.malloc("exact", 256, false, 0);
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
        for (got, want) in snap.entries().iter().zip(&direct) {
            assert_eq!(got.addr, want.0);
            assert_eq!(got.approximable, want.1);
            assert_eq!(got.analysis, want.2);
        }
    }

    #[test]
    fn size_snapshot_pins_the_full_analysis_sizes() {
        let e2mc = trained();
        let mem = memory();
        let full = SnapshotAnalysis::capture(&e2mc, &mem);
        let slim = SizeSnapshot::capture(&e2mc, &mem);
        assert_eq!(slim.entries().len(), full.entries().len());
        for (s, f) in slim.entries().iter().zip(full.entries()) {
            assert_eq!(s.addr, f.addr);
            assert_eq!(s.approximable, f.approximable);
            assert_eq!(s.e2mc_size_bits(), f.analysis.e2mc_size_bits(), "block {}", s.addr);
        }
        // Run decomposition is identical too.
        let full_runs: Vec<usize> = full.runs().map(<[AnalyzedBlock]>::len).collect();
        let slim_runs: Vec<usize> = slim.runs().map(<[SizedBlock]>::len).collect();
        assert_eq!(full_runs, slim_runs);
    }

    #[test]
    fn entries_are_16_and_80_bytes() {
        // What a cached snapshot costs per 128 B block, as the docs and
        // ROADMAP quote it.
        assert_eq!(std::mem::size_of::<SizedBlock>(), 16);
        assert_eq!(std::mem::size_of::<BlockAnalysis>(), 68);
        assert_eq!(std::mem::size_of::<AnalyzedBlock>(), 80);
    }

    #[test]
    fn size_snapshot_matches_is_table_identity() {
        let e2mc = trained();
        let snap = SizeSnapshot::capture(&e2mc, &memory());
        assert!(snap.matches(&e2mc.clone()));
        assert!(!snap.matches(&trained()));
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
