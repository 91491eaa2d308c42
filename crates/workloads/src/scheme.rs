//! Compression schemes as the memory system applies them.
//!
//! Lossless compression (E2MC here) applies to *all* DRAM traffic; the
//! lossy SLC mode additionally applies to blocks inside
//! safe-to-approximate regions. A [`Scheme`] bundles the functional
//! staging pass (what data looks like after a DRAM round-trip), the burst
//! accounting for the timing simulator, and the codec latencies of
//! Section IV-A.

use crate::analysis::SnapshotAnalysis;
use slc_compress::e2mc::E2mc;
use slc_compress::{BlockCompressor, Mag, BLOCK_BYTES};
use slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc_sim::mc::BurstsMap;
use slc_sim::{BlockAddr, GpuMemory, RegionBlocks};

/// Identifies a scheme in figures and tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No compression: every block moves at full burst count.
    Uncompressed,
    /// Lossless E2MC (the paper's baseline).
    E2mc,
    /// One of the TSLC variants.
    Slc(SlcVariant),
}

impl SchemeKind {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Uncompressed => "NOCOMP",
            SchemeKind::E2mc => "E2MC",
            SchemeKind::Slc(v) => v.label(),
        }
    }

    /// (compress, decompress) latency in SM cycles (paper §IV-A: E2MC
    /// 46/20, TSLC 60/20): what the timing simulator charges and Table II
    /// prints.
    pub fn codec_latency(self) -> (u64, u64) {
        match self {
            SchemeKind::Uncompressed => (0, 0),
            SchemeKind::E2mc => (46, 20),
            SchemeKind::Slc(_) => (60, 20),
        }
    }
}

/// A runnable compression scheme.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// No compression.
    Uncompressed,
    /// Lossless E2MC on all traffic.
    E2mc(E2mc),
    /// E2MC on all traffic; SLC lossy mode on safe-to-approximate regions.
    Slc(SlcCompressor),
}

impl Scheme {
    /// Builds the SLC scheme from a trained baseline.
    ///
    /// `e2mc` is a shared handle to the frozen symbol table (cloning one
    /// is an `Arc` refcount bump), so callers build as many schemes per
    /// trained model as they like — one per TSLC variant, per threshold,
    /// per thread — without ever copying the trained tables.
    pub fn slc(e2mc: E2mc, mag: Mag, threshold_bytes: u32, variant: SlcVariant) -> Self {
        Scheme::Slc(SlcCompressor::new(e2mc, SlcConfig::new(mag, threshold_bytes, variant)))
    }

    /// The scheme's identity.
    pub fn kind(&self) -> SchemeKind {
        match self {
            Scheme::Uncompressed => SchemeKind::Uncompressed,
            Scheme::E2mc(_) => SchemeKind::E2mc,
            Scheme::Slc(s) => SchemeKind::Slc(s.config().variant()),
        }
    }

    /// The trained lossless codec behind the scheme, if it has one.
    pub fn e2mc(&self) -> Option<&E2mc> {
        match self {
            Scheme::Uncompressed => None,
            Scheme::E2mc(e) => Some(e),
            Scheme::Slc(s) => Some(s.e2mc()),
        }
    }

    /// One kernel-boundary DRAM round trip of `mem`, recorded: every
    /// safe-to-approximate block an SLC scheme stores lossy is replaced
    /// by what a read returns, and the bursts of every block's stored
    /// form are folded into `acc` — one streamed pass, block by block, no
    /// snapshot in between; what the harness' replay runs at every
    /// staging point. Lossless schemes leave memory untouched;
    /// [`Scheme::Uncompressed`] records nothing.
    ///
    /// # Panics
    ///
    /// Panics when `acc` counts bursts of another MAG than an SLC
    /// scheme decides under.
    pub fn stage_and_record(&self, mem: &mut GpuMemory, acc: &mut BurstsAccumulator) {
        self.stage_walk(mem, Some(acc));
    }

    /// Kept for `benchmark/`; ROADMAP item 19 deletes it. Stages `mem`
    /// as [`Self::stage_and_record`] does, then captures the staged
    /// image; `None` for [`Scheme::Uncompressed`].
    #[doc(hidden)]
    pub fn stage_analyzed(&self, mem: &mut GpuMemory) -> Option<SnapshotAnalysis> {
        let e2mc = self.e2mc()?;
        self.stage_walk(mem, None);
        Some(SnapshotAnalysis::capture(e2mc, mem))
    }

    /// The one staging walk: a single in-order pass over `mem`'s regions
    /// whose working set is one block and one accumulator cell — no
    /// snapshot, no verdict list. Per block it settles the stored form
    /// and folds that form's bits into the region's cells of `acc`
    /// ([`BurstsAccumulator::fold_bits`]). An SLC scheme stages each
    /// block it is lent writable ([`RegionBlocks::Approx`]) in place on
    /// one analysis ([`SlcCompressor::stage_in_place`]): a lossy stored
    /// form becomes what a read returns, and costs what the next kernel
    /// boundary finds. Every other block keeps its bytes and costs its
    /// E2MC size. [`Scheme::Uncompressed`] neither stages nor records.
    fn stage_walk(&self, mem: &mut GpuMemory, mut acc: Option<&mut BurstsAccumulator>) {
        let Some(e2mc) = self.e2mc() else {
            return;
        };
        if let (Scheme::Slc(slc), Some(acc)) = (self, &acc) {
            assert_eq!(slc.config().mag(), acc.mag, "scheme and accumulator disagree on the MAG");
        }
        for (region, blocks) in mem.regions_mut() {
            let start = region.block_addr(0);
            match (self, blocks, acc.as_deref_mut()) {
                (Scheme::Slc(slc), RegionBlocks::Approx(blocks), acc) => {
                    let bits = blocks.iter_mut().map(|block| {
                        let mut analysis = slc.analysis(block);
                        slc.stage_in_place(block, &mut analysis)
                    });
                    match acc {
                        Some(acc) => acc.fold_bits(start, bits),
                        None => bits.for_each(drop),
                    }
                }
                (_, RegionBlocks::Approx(&mut ref b) | RegionBlocks::Exact(&ref b), Some(acc)) => {
                    acc.fold_bits(start, b.iter().map(|block| e2mc.size_bits(block)));
                }
                // Blocks kept exact, and no sizes to record.
                (.., None) => {}
            }
        }
    }
}

/// Averages per-block burst counts over multiple staging points.
///
/// Block contents — and therefore compressed sizes — evolve across
/// kernels (FWT's buffers hold the raw signal in pass 1 and fully
/// transformed data at the end). The timing simulator takes one static
/// burst map, so the harness counts every block's bursts at every
/// kernel-boundary DRAM round-trip and uses the per-block mean, which
/// weights each kernel's traffic equally.
///
/// Block addresses are the image's block ordinals, so the per-block
/// `(sum, folds)` cells are a vector indexed by address. The staging
/// walk ([`Scheme::stage_and_record`]) folds each block's stored bits
/// into its region's cells where it computes them; the E2MC baseline
/// sweeps a staging point's cached sizes as one run from block 0.
#[derive(Debug, Clone)]
pub struct BurstsAccumulator {
    mag: Mag,
    max: u32,
    /// Per-block (burst sum, fold count), indexed by block address; a
    /// block never folded reads (0, 0). A sum gains at most 16 bursts a
    /// staging point, so a `u32` cannot overflow.
    cells: Vec<(u32, u32)>,
}

impl BurstsAccumulator {
    /// Creates an accumulator for `mag`.
    pub fn new(mag: Mag) -> Self {
        let max = mag.bursts_for_bytes(BLOCK_BYTES as u32, BLOCK_BYTES as u32);
        Self { mag, max, cells: Vec::new() }
    }

    /// Folds the burst counts of one run of consecutive block addresses
    /// starting at `start` into the run's cells, growing the vector when
    /// the run ends past it.
    fn fold(&mut self, start: BlockAddr, bursts: impl ExactSizeIterator<Item = u32>) {
        let start = start as usize;
        let end = start + bursts.len();
        if end > self.cells.len() {
            self.cells.resize(end, (0, 0));
        }
        for (cell, b) in self.cells[start..end].iter_mut().zip(bursts) {
            cell.0 += b;
            cell.1 += 1;
        }
    }

    /// [`fold`](Self::fold) from stored sizes: each block's bits become
    /// its burst count under the accumulator's MAG — the one step from a
    /// stored size to a cell, shared by the staging walk and the E2MC
    /// baseline's sweep of the size cache.
    pub(crate) fn fold_bits(&mut self, start: BlockAddr, bits: impl ExactSizeIterator<Item = u32>) {
        let mag = self.mag;
        self.fold(start, bits.map(|b| mag.bursts_for_bits(b, BLOCK_BYTES as u32)));
    }

    /// Folds one block's burst count in directly, bypassing the scheme
    /// decision (differential tests record real encodes this way).
    pub fn record_one(&mut self, addr: BlockAddr, bursts: u32) {
        self.fold(addr, std::iter::once(bursts));
    }

    /// Kept for `benchmark/`; ROADMAP item 19 deletes it. Folds entry
    /// `i` of `snapshot` into cell `i` at the bursts `scheme` stores it
    /// in: SLC's for an approximable block, E2MC's otherwise.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot was analysed with a different trained
    /// table than the scheme's (the analyses would be meaningless).
    #[doc(hidden)]
    pub fn record(&mut self, scheme: &Scheme, snapshot: &SnapshotAnalysis) {
        let Some(e2mc) = scheme.e2mc() else {
            return; // Uncompressed has no table and records nothing.
        };
        assert!(
            snapshot.matches(e2mc),
            "snapshot analysed under a different trained table than the scheme's"
        );
        let mag = self.mag;
        self.fold(
            0,
            snapshot.entries().iter().map(|b| match scheme {
                Scheme::Slc(s) if b.approximable => s.stored_bursts_with(&b.analysis),
                _ => mag.bursts_for_bits(b.analysis.e2mc_size_bits(), BLOCK_BYTES as u32),
            }),
        );
    }

    /// Number of snapshots folded in: the minimum fold count over all
    /// recorded blocks (blocks first seen in a late snapshot report
    /// fewer folds).
    pub fn snapshots(&self) -> u32 {
        self.cells.iter().map(|&(_, n)| n).filter(|&n| n > 0).min().unwrap_or(0)
    }

    /// Finishes into a [`BurstsMap`] of per-block rounded means.
    ///
    /// **Every** recorded block is mapped, including those whose mean
    /// rounds to the uncompressed maximum (they resolve to the same
    /// burst count either way, so timing is unaffected) — the map then
    /// knows the full recorded population and
    /// [`BurstsMap::mean_bursts`] is a well-defined mean over *all*
    /// blocks of the snapshots, comparable across schemes that compress
    /// different subsets.
    pub fn into_map(self) -> BurstsMap {
        let max = self.max;
        let mean = |(sum, n): (u32, u32)| match n {
            0 => 0, // never folded: unmapped
            n => ((f64::from(sum) / f64::from(n)).round() as u32).clamp(1, max) as u8,
        };
        BurstsMap::from_cells(max, self.cells.into_iter().map(mean).collect())
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

    fn filled_memory() -> GpuMemory {
        let mut m = GpuMemory::new();
        let a = m.malloc("approx", 1024, true);
        let e = m.malloc("exact", 1024, false);
        let vals: Vec<f32> = (0..256).map(|i| (i % 512) as f32).collect();
        m.write_f32(a, &vals);
        m.write_f32(e, &vals);
        m
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SchemeKind::Uncompressed.label(), "NOCOMP");
        assert_eq!(SchemeKind::E2mc.label(), "E2MC");
        assert_eq!(SchemeKind::Slc(SlcVariant::TslcOpt).label(), "TSLC-OPT");
    }

    #[test]
    fn latencies_match_paper() {
        assert_eq!(Scheme::Uncompressed.kind().codec_latency(), (0, 0));
        assert_eq!(Scheme::E2mc(trained()).kind().codec_latency(), (46, 20));
        let s = Scheme::slc(trained(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        assert_eq!(s.kind().codec_latency(), (60, 20));
    }

    /// One recorded staging point of `mem` under `scheme`.
    fn walked_map(scheme: &Scheme, mem: &mut GpuMemory) -> BurstsMap {
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        scheme.stage_and_record(mem, &mut acc);
        acc.into_map()
    }

    #[test]
    fn lossless_schemes_never_mutate_memory() {
        let mut mem = filled_memory();
        let before = mem.read_f32(slc_sim::DevicePtr(0), 256);
        for scheme in [Scheme::Uncompressed, Scheme::E2mc(trained())] {
            walked_map(&scheme, &mut mem);
        }
        assert_eq!(mem.read_f32(slc_sim::DevicePtr(0), 256), before);
    }

    #[test]
    fn slc_stages_only_approx_regions() {
        let mut mem = filled_memory();
        let exact_before = mem.read_f32(slc_sim::DevicePtr(1024), 256);
        walked_map(&Scheme::slc(trained(), Mag::GDDR5, 16, SlcVariant::TslcSimp), &mut mem);
        assert_eq!(
            mem.read_f32(slc_sim::DevicePtr(1024), 256),
            exact_before,
            "exact region must be untouched"
        );
    }

    #[test]
    fn bursts_map_compresses_compressible_blocks() {
        let map = walked_map(&Scheme::E2mc(trained()), &mut filled_memory());
        assert!(!map.is_empty(), "in-distribution data should compress below 4 bursts");
        assert!(map.mean_bursts() < 4.0);
    }

    #[test]
    fn uncompressed_map_is_empty() {
        assert!(walked_map(&Scheme::Uncompressed, &mut filled_memory()).is_empty());
    }

    /// E2MC and the three TSLC variants.
    fn compressed_schemes(e: &E2mc) -> Vec<Scheme> {
        let mut schemes = vec![Scheme::E2mc(e.clone())];
        schemes.extend(
            [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt]
                .map(|v| Scheme::slc(e.clone(), Mag::GDDR5, 16, v)),
        );
        schemes
    }

    /// The `record` shim over a capture folds what the per-block public
    /// calls price each block at.
    #[test]
    fn record_sweep_equals_direct_snapshot() {
        let e = trained();
        let mem = filled_memory();
        for scheme in compressed_schemes(&e) {
            let mut direct = BurstsAccumulator::new(Mag::GDDR5);
            for (region, addr, block) in mem.blocks_with_addr() {
                let bursts = match &scheme {
                    Scheme::Slc(slc) if region.safe_to_approx => {
                        slc.stored_bursts_with(&slc.analysis(block))
                    }
                    _ => Mag::GDDR5.bursts_for_bits(e.size_bits(block), BLOCK_BYTES as u32),
                };
                direct.record_one(addr, bursts);
            }
            let mut swept = BurstsAccumulator::new(Mag::GDDR5);
            swept.record(&scheme, &SnapshotAnalysis::capture(&e, &mem));
            assert_eq!(direct.into_map(), swept.into_map(), "{:?}", scheme.kind());
        }
    }

    /// The `stage_analyzed` shim is the walk, then a capture of what it
    /// left.
    #[test]
    fn stage_analyzed_is_the_walk_then_a_capture() {
        let e = trained();
        let mut schemes = compressed_schemes(&e);
        schemes.push(Scheme::Uncompressed);
        for scheme in schemes {
            let (mut shim, mut walked) = (filled_memory(), filled_memory());
            let snapshot = scheme.stage_analyzed(&mut shim);
            walked_map(&scheme, &mut walked);
            assert!(shim.blocks_with_addr().eq(walked.blocks_with_addr()), "{:?}", scheme.kind());
            let entries = |s: SnapshotAnalysis| s.entries().to_vec();
            let want = scheme.e2mc().map(|e| SnapshotAnalysis::capture(e, &walked));
            assert_eq!(snapshot.map(entries), want.map(entries), "{:?}", scheme.kind());
        }
    }

    #[test]
    #[should_panic(expected = "different trained table")]
    fn record_rejects_foreign_tables() {
        let mem = filled_memory();
        let snap = SnapshotAnalysis::capture(&trained(), &mem);
        let scheme = Scheme::E2mc(trained()); // separately trained model
        BurstsAccumulator::new(Mag::GDDR5).record(&scheme, &snap);
    }

    #[test]
    fn snapshot_count_is_min_over_blocks() {
        let e = trained();
        let scheme = Scheme::E2mc(e.clone());
        let small = filled_memory();
        let mut bigger = filled_memory();
        let extra = bigger.malloc("late", 256, true);
        bigger.write_f32(extra, &vec![3.0f32; 64]);
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        scheme.stage_and_record(&mut small.clone(), &mut acc);
        assert_eq!(acc.snapshots(), 1);
        scheme.stage_and_record(&mut small.clone(), &mut acc);
        assert_eq!(acc.snapshots(), 2);
        // Blocks of the extra region have been folded only once; the
        // deterministic answer is the minimum, never whichever block the
        // hash map happens to yield first.
        scheme.stage_and_record(&mut bigger, &mut acc);
        assert_eq!(acc.snapshots(), 1);
    }

    #[test]
    fn slc_bursts_never_exceed_lossless() {
        let e = trained();
        let slc =
            SlcCompressor::new(e.clone(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
        let mut block = [0u8; BLOCK_BYTES];
        for (i, c) in block.chunks_exact_mut(4).enumerate() {
            c.copy_from_slice(&(((i * 3) % 512) as f32).to_le_bytes());
        }
        let a = slc.stored_bursts_with(&slc.analysis(&block));
        let b = Mag::GDDR5.bursts_for_bits(e.size_bits(&block), BLOCK_BYTES as u32);
        assert!(a <= b);
    }
}
