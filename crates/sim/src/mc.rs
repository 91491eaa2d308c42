//! The memory controller: L2 backside, MDC, (de)compression latency and
//! the DRAM channels (paper Fig. 3).
//!
//! "The compressor, decompressor, and metadata cache (MDC) are integrated
//! into the memory controller. The memory controller needs to fetch only
//! the required number of bursts for every compressed block."

use crate::cache::{Cache, CacheOutcome};
use crate::config::{GpuConfig, ICNT_LATENCY, L2_ASSOC, L2_HIT_LATENCY, L2_KB, MDC_ENTRIES};
use crate::dram::Dram;
use crate::stats::SimStats;
use crate::BlockAddr;
use slc_compress::BLOCK_BYTES;

/// Blocks covered by one metadata line: 32 B × 8 bits / 2 bits per block.
///
/// "As the number of bursts varies from 1 to 4, we store 2 bits in MDC."
/// Metadata lives in DRAM: one 32 B metadata line packs the 2-bit burst
/// counts of 128 consecutive blocks (16 KB of data). The MDC caches those
/// lines in the memory controller; a miss costs one extra metadata burst
/// on the channel the line's own DRAM address maps to (see
/// [`crate::dram::META_BLOCK_BASE`] for the addressing scheme).
const BLOCKS_PER_META_LINE: u64 = 128;

/// Supplies the per-block burst count the MDC would hold.
///
/// The timing simulator never sees data; the workload harness derives the
/// burst counts from the functional compression pass and hands them in
/// through this trait.
pub trait BurstsSource {
    /// Bursts needed to move `block` (1..=max for the MAG in use).
    fn bursts(&self, block: BlockAddr) -> u32;
}

/// Every block costs the same burst count (the uncompressed baseline).
#[derive(Debug, Clone, Copy)]
pub struct UniformBursts(pub u32);

impl BurstsSource for UniformBursts {
    fn bursts(&self, _block: BlockAddr) -> u32 {
        self.0
    }
}

/// Per-block burst counts, with a default for unmapped blocks.
///
/// Block addresses are the image's block ordinals
/// ([`GpuMemory::malloc`](crate::mem::GpuMemory::malloc)), so the map is
/// one byte per block, indexed by address: the timing hot loop
/// ([`MemorySystem::load`]) resolves a block's burst count with one
/// bounds-checked index per L2 miss. A stored block costs 1..=128 B / MAG
/// bursts (8 at MAG 16 B), so a cell of 0 marks a block the map holds no
/// count for.
///
/// `PartialEq` compares contents (default + the mapped block→bursts
/// pairs, in block order), which is what "byte-identical burst maps"
/// means for the analysis-pipeline equivalence tests; unmapped cells do
/// not participate.
#[derive(Debug, Clone)]
pub struct BurstsMap {
    default: u32,
    cells: Vec<u8>,
}

impl Default for BurstsMap {
    fn default() -> Self {
        Self::new(0)
    }
}

impl BurstsMap {
    /// Creates a map whose unmapped blocks cost `default` bursts.
    pub fn new(default: u32) -> Self {
        Self::from_cells(default, Vec::new())
    }

    /// A map whose block `addr` costs `cells[addr]` bursts; a cell of 0,
    /// or a block past the end, costs `default`.
    pub fn from_cells(default: u32, cells: Vec<u8>) -> Self {
        Self { default, cells }
    }

    /// Sets the burst count of one block.
    ///
    /// # Panics
    ///
    /// Panics unless `bursts` is in `1..=255`: 0 marks an unmapped block.
    pub fn insert(&mut self, block: BlockAddr, bursts: u32) {
        assert!((1..=255).contains(&bursts), "a burst count is 1..=255; 0 marks an unmapped block");
        let i = block as usize;
        if i >= self.cells.len() {
            self.cells.resize(i + 1, 0);
        }
        self.cells[i] = bursts as u8;
    }

    /// Number of explicitly mapped blocks.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no block is mapped.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Mapped blocks in ascending block-address order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, u32)> + '_ {
        let mapped = self.cells.iter().enumerate().filter(|&(_, &cell)| cell > 0);
        mapped.map(|(addr, &cell)| (addr as BlockAddr, u32::from(cell)))
    }

    /// Average bursts over the mapped blocks, i.e. the map's full known
    /// population — accumulator-built maps record **every** snapshot
    /// block (see `BurstsAccumulator::into_map` in `slc-workloads`), so
    /// two schemes' means over the same memory image average the same
    /// block set and compare apples to apples. An empty map reports the
    /// default (telemetry).
    pub fn mean_bursts(&self) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for (_, bursts) in self.iter() {
            sum += u64::from(bursts);
            n += 1;
        }
        if n == 0 {
            return f64::from(self.default);
        }
        sum as f64 / n as f64
    }
}

impl PartialEq for BurstsMap {
    fn eq(&self, other: &Self) -> bool {
        self.default == other.default && self.iter().eq(other.iter())
    }
}

impl Eq for BurstsMap {}

impl BurstsSource for BurstsMap {
    fn bursts(&self, block: BlockAddr) -> u32 {
        match self.cells.get(block as usize) {
            Some(&cell) if cell > 0 => u32::from(cell),
            _ => self.default,
        }
    }
}

/// L2 + memory controllers + DRAM: everything behind the interconnect.
pub struct MemorySystem<'a> {
    l2: Cache,
    /// The MDC: a write-back [`Cache`] of metadata lines, one way per set,
    /// tagged by line index. Write-backs *update* metadata (the block's
    /// burst count changes with its newly compressed size), so evicting a
    /// dirty line must store it back to DRAM — dropping it would lose the
    /// update — and whatever is dirty at end of kernel drains then.
    ///
    /// `None` when the configuration disables the MDC
    /// ([`GpuConfig::mdc_enabled`] = false): the controller of a GPU
    /// without compression hardware — every block costs `max_bursts` and
    /// no metadata traffic exists.
    mdc: Option<Cache>,
    dram: Dram,
    bursts: &'a dyn BurstsSource,
    stats: SimStats,
    max_bursts: u32,
    compress_latency: u64,
    decompress_latency: u64,
}

impl std::fmt::Debug for MemorySystem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem").field("stats", &self.stats).finish_non_exhaustive()
    }
}

impl<'a> MemorySystem<'a> {
    /// Builds the memory system from the configuration.
    pub fn new(cfg: &GpuConfig, bursts: &'a dyn BurstsSource) -> Self {
        Self {
            l2: Cache::new(L2_KB * 1024 / BLOCK_BYTES, L2_ASSOC),
            mdc: cfg.mdc_enabled.then(|| Cache::new(MDC_ENTRIES, 1)),
            dram: Dram::new(cfg),
            bursts,
            stats: SimStats::new(),
            max_bursts: cfg.max_bursts(),
            compress_latency: cfg.compress_latency,
            decompress_latency: cfg.decompress_latency,
        }
    }

    fn clamped_bursts(&self, block: BlockAddr) -> u32 {
        if self.mdc.is_none() {
            // No MDC ⇒ the controller cannot know a per-block burst
            // count; every block moves at the uncompressed maximum.
            return self.max_bursts;
        }
        self.bursts.bursts(block).clamp(1, self.max_bursts)
    }

    /// Resolves the MDC lookup for `block` at time `at`: on a miss the
    /// 32 B metadata line is fetched from DRAM — a real
    /// [`Dram::read_metadata_line`] in the dedicated metadata address range,
    /// so it occupies a channel's data bus and opens a metadata row
    /// (never the data row) — and the returned start time is the fetch's
    /// completion. With the MDC disabled there is no metadata machinery
    /// at all and the request proceeds at `at`.
    ///
    /// `dirty` marks the line updated (the write-back path changes the
    /// block's burst count); evicting a dirty line issues the 32 B store
    /// of the victim to DRAM — a real [`Dram::write_metadata_line`] the
    /// channel scheduler sequences like any other write — counted in
    /// `metadata_writeback_bursts`. The victim's store never delays this
    /// request: the controller services the demand fetch first.
    ///
    /// Hit/miss accounting lives inside the MDC's [`Cache`] — the single
    /// source of truth, surfaced into `SimStats` at harvest time — and
    /// row outcomes are counted by the channel servicing each access
    /// command (metadata lines included; see
    /// [`crate::dram::ChannelTelemetry`]). Both
    /// the fetch and writeback paths share this helper, so neither
    /// policy can drift between them.
    fn mdc_lookup(&mut self, block: BlockAddr, at: u64, dirty: bool) -> f64 {
        let Some(mdc) = &mut self.mdc else {
            return at as f64;
        };
        let line = block / BLOCKS_PER_META_LINE;
        match mdc.access(line, dirty) {
            CacheOutcome::Hit => at as f64,
            CacheOutcome::Miss { writeback } => {
                // Demand fetch first: the victim's store is handed to the
                // scheduler only after the fetch holds the bus, so it can
                // never delay the miss it was evicted for.
                self.stats.metadata_bursts += 1;
                let done = self.dram.read_metadata_line(line, at as f64).done;
                if let Some(victim) = writeback {
                    self.stats.metadata_writeback_bursts += 1;
                    self.dram.write_metadata_line(victim, at as f64);
                }
                done
            }
        }
    }

    /// Fetches `block` from DRAM (L2 already missed); returns completion.
    fn dram_fetch(&mut self, block: BlockAddr, at: u64) -> u64 {
        let bursts = self.clamped_bursts(block);
        let compressed = bursts < self.max_bursts;
        // MDC tells the MC how many bursts to fetch; a miss first pulls
        // the 32 B metadata line, which delays the data transfer.
        let start = self.mdc_lookup(block, at, false);
        let access = self.dram.read(block, bursts, start);
        self.stats.dram_reads += 1;
        self.stats.read_bursts += u64::from(bursts);
        let mut done = access.done.ceil() as u64;
        if compressed {
            self.stats.decompressed_blocks += 1;
            done += self.decompress_latency;
        }
        done
    }

    /// Writes `block` back to DRAM (fire-and-forget; the channel
    /// scheduler decides when the write actually occupies the bus).
    fn dram_writeback(&mut self, block: BlockAddr, at: u64) {
        let bursts = self.clamped_bursts(block);
        let compressed = bursts < self.max_bursts;
        let mut at = at;
        if compressed {
            self.stats.compressed_blocks += 1;
            at += self.compress_latency;
        }
        // Keep the metadata line resident for the updated burst count
        // (dirtying it); a miss pays the metadata fetch on the channel —
        // exactly like the fetch path — and delays the data transfer
        // behind it.
        let start = self.mdc_lookup(block, at, true);
        self.dram.write(block, bursts, start);
        self.stats.dram_writes += 1;
        self.stats.write_bursts += u64::from(bursts);
    }

    /// A coalesced load arriving from an SM at time `at`; returns the time
    /// the data is back at the SM.
    pub fn load(&mut self, block: BlockAddr, at: u64) -> u64 {
        let t = at + ICNT_LATENCY;
        match self.l2.access(block, false) {
            CacheOutcome::Hit => t + L2_HIT_LATENCY + ICNT_LATENCY,
            CacheOutcome::Miss { writeback } => {
                if let Some(victim) = writeback {
                    self.dram_writeback(victim, t + L2_HIT_LATENCY);
                }
                let done = self.dram_fetch(block, t + L2_HIT_LATENCY);
                let completion = done + ICNT_LATENCY;
                self.stats.read_latency_sum += completion - at;
                completion
            }
        }
    }

    /// A coalesced store arriving from an SM at time `at` (fully
    /// coalesced full-line store: allocates in L2 without a fetch).
    pub fn store(&mut self, block: BlockAddr, at: u64) {
        let t = at + ICNT_LATENCY;
        if let CacheOutcome::Miss { writeback: Some(victim) } = self.l2.access(block, true) {
            self.dram_writeback(victim, t + L2_HIT_LATENCY);
        }
    }

    /// Flushes all dirty L2 lines at end of kernel, streams the dirty
    /// metadata lines still resident in the MDC back to DRAM (their
    /// burst-count updates must land), drains every channel's buffered
    /// writes, and returns the DRAM horizon after the drain.
    pub fn flush(&mut self, at: u64) -> u64 {
        for victim in self.l2.flush_dirty() {
            self.dram_writeback(victim, at);
        }
        let dirty_lines = self.mdc.as_mut().map(Cache::flush_dirty).unwrap_or_default();
        for line in dirty_lines {
            self.stats.metadata_writeback_bursts += 1;
            self.dram.write_metadata_line(line, at as f64);
        }
        self.dram.drain_writes(at as f64);
        self.dram.horizon().ceil() as u64
    }

    /// Folds the distributed counters (L2 and MDC hit/miss, per-channel
    /// row outcomes and scheduler telemetry) into `base` — the one place
    /// the single-source counters surface as `SimStats`.
    fn harvest(&self, mut base: SimStats) -> SimStats {
        base.l2_hits = self.l2.hits();
        base.l2_misses = self.l2.misses();
        if let Some(mdc) = &self.mdc {
            base.mdc_hits = mdc.hits();
            base.mdc_misses = mdc.misses();
        }
        let t = self.dram.telemetry();
        base.row_hits = t.row_hits;
        base.row_misses = t.row_misses;
        base.queue_wait_cycles = t.queue_wait as u64;
        base.write_drains = t.write_drains;
        base.write_drain_forced = t.write_drain_forced;
        base
    }

    /// Statistics so far. Note buffered writes' row outcomes materialise
    /// only once serviced (watermark/idle drains or [`Self::flush`]).
    pub fn stats(&self) -> SimStats {
        self.harvest(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: the hand-written MDC the one-way [`Cache`] replaced,
    /// verbatim but for its outcome type (it returned its own enum of the
    /// same shape) and its unused hit rate.
    mod mdc_reference {
        use super::{BlockAddr, CacheOutcome, BLOCKS_PER_META_LINE};

        /// One resident metadata line.
        #[derive(Debug, Clone, Copy)]
        struct Entry {
            line: u64,
            dirty: bool,
        }

        /// Direct-mapped metadata cache with per-line dirty state.
        #[derive(Debug, Clone)]
        pub struct MetadataCache {
            entries: Vec<Option<Entry>>,
            hits: u64,
            misses: u64,
        }

        impl MetadataCache {
            /// Creates an MDC with `entries` metadata lines.
            ///
            /// # Panics
            ///
            /// Panics unless `entries` is a power of two.
            pub fn new(entries: usize) -> Self {
                assert!(entries.is_power_of_two(), "MDC entries must be a power of two");
                Self { entries: vec![None; entries], hits: 0, misses: 0 }
            }

            /// Metadata line index of a block.
            pub fn line_of(block: BlockAddr) -> u64 {
                block / BLOCKS_PER_META_LINE
            }

            /// Looks up the metadata line covering `block`, installing it on miss.
            /// `dirty` marks the line as updated (a write-back changed the
            /// block's burst count); fetch-path lookups pass `false`.
            pub fn access(&mut self, block: BlockAddr, dirty: bool) -> CacheOutcome {
                let line = Self::line_of(block);
                let idx = (line as usize) & (self.entries.len() - 1);
                if let Some(entry) = &mut self.entries[idx] {
                    if entry.line == line {
                        self.hits += 1;
                        entry.dirty |= dirty;
                        return CacheOutcome::Hit;
                    }
                }
                let evicted_dirty_line =
                    self.entries[idx].filter(|victim| victim.dirty).map(|victim| victim.line);
                self.entries[idx] = Some(Entry { line, dirty });
                self.misses += 1;
                CacheOutcome::Miss { writeback: evicted_dirty_line }
            }

            /// Marks every resident line clean and returns the lines that were
            /// dirty, in slot order — the end-of-kernel metadata drain.
            pub fn drain_dirty(&mut self) -> Vec<u64> {
                let mut dirty = Vec::new();
                for entry in self.entries.iter_mut().flatten() {
                    if entry.dirty {
                        entry.dirty = false;
                        dirty.push(entry.line);
                    }
                }
                dirty
            }

            /// Hits so far.
            pub fn hits(&self) -> u64 {
                self.hits
            }

            /// Misses so far.
            pub fn misses(&self) -> u64 {
                self.misses
            }
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn l2_hit_is_fast_path() {
        let cfg = cfg();
        let u = UniformBursts(4);
        let mut m = MemorySystem::new(&cfg, &u);
        let cold = m.load(7, 0);
        let warm_start = cold + 10;
        let warm = m.load(7, warm_start);
        assert_eq!(warm - warm_start, 2 * ICNT_LATENCY + L2_HIT_LATENCY);
        assert!(cold > warm - warm_start, "cold miss must be slower");
        assert_eq!(m.stats().l2_hits, 1);
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn compressed_blocks_cost_fewer_bursts_but_pay_decompression() {
        let cfg = cfg().with_codec_latency(46, 20);
        let one = UniformBursts(1);
        let four = UniformBursts(4);
        let mut m1 = MemorySystem::new(&cfg, &one);
        let mut m4 = MemorySystem::new(&cfg, &four);
        m1.load(0, 0);
        m4.load(0, 0);
        assert_eq!(m1.stats().read_bursts, 1);
        assert_eq!(m4.stats().read_bursts, 4);
        assert_eq!(m1.stats().decompressed_blocks, 1);
        assert_eq!(m4.stats().decompressed_blocks, 0, "4 bursts = verbatim, no decode");
    }

    #[test]
    fn mdc_miss_costs_a_metadata_burst() {
        let cfg = cfg();
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        m.load(0, 0);
        assert_eq!(m.stats().mdc_misses, 1);
        assert_eq!(m.stats().metadata_bursts, 1);
        // A neighbouring block shares the metadata line.
        m.load(1, 10_000);
        assert_eq!(m.stats().mdc_hits, 1);
        assert_eq!(m.stats().metadata_bursts, 1);
    }

    #[test]
    fn blocks_share_metadata_lines() {
        // 128 consecutive blocks share one metadata line: one MDC miss.
        let cfg = cfg();
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        for b in 0..BLOCKS_PER_META_LINE {
            m.load(b, 0);
        }
        assert_eq!((m.stats().mdc_misses, m.stats().mdc_hits), (1, BLOCKS_PER_META_LINE - 1));
        m.load(BLOCKS_PER_META_LINE, 0);
        assert_eq!(m.stats().mdc_misses, 2, "the next block starts the next line");
    }

    #[test]
    fn store_then_evict_writes_back_compressed() {
        let cfg = cfg().with_codec_latency(60, 20);
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        m.store(3, 0);
        assert_eq!(m.stats().dram_writes, 0, "write-back: nothing leaves yet");
        let horizon = m.flush(100);
        assert_eq!(m.stats().dram_writes, 1);
        assert_eq!(m.stats().write_bursts, 2);
        assert_eq!(m.stats().compressed_blocks, 1);
        assert!(horizon > 100);
    }

    #[test]
    fn burst_map_defaults_and_overrides() {
        let mut map = BurstsMap::new(4);
        assert!(map.is_empty());
        assert!((map.mean_bursts() - 4.0).abs() < 1e-12, "an empty map reports the default");
        map.insert(10, 1);
        assert_eq!(map.bursts(10), 1);
        assert_eq!(map.bursts(9), 4, "an unmapped block below a mapped one");
        assert_eq!(map.bursts(11), 4, "past the end");
        assert_eq!(map.len(), 1);
        assert!((map.mean_bursts() - 1.0).abs() < 1e-12);
        map.insert(10, 3);
        assert_eq!(map.bursts(10), 3, "an overwrite");
        map.insert(1_000_000, 8);
        assert_eq!(map.bursts(1_000_000), 8, "a far block after a near one");
        assert_eq!((map.bursts(999_999), map.bursts(u64::MAX)), (4, 4));
        assert_eq!(map.iter().collect::<Vec<_>>(), [(10, 3), (1_000_000, 8)]);
        assert!((map.mean_bursts() - 5.5).abs() < 1e-12);
        // Trailing vacancy does not take part in equality.
        let mut short = BurstsMap::new(4);
        short.insert(1, 2);
        assert_eq!(short, BurstsMap::from_cells(4, vec![0, 2, 0, 0]));
        assert_ne!(short, BurstsMap::new(4));
    }

    #[test]
    #[should_panic(expected = "0 marks an unmapped block")]
    fn burst_map_rejects_a_zero_count() {
        BurstsMap::new(4).insert(0, 0);
    }

    #[test]
    fn metadata_fetch_does_not_open_the_data_row() {
        let cfg = cfg();
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        // First load: MDC miss. The metadata line opens a *metadata* row,
        // so the data access that follows still pays its own activate —
        // two row misses, never a free data-row hit.
        m.load(0, 0);
        assert_eq!(m.stats().row_misses, 2, "metadata line + data row both activate");
        assert_eq!(m.stats().row_hits, 0);
        // Same-channel neighbour (channel stride apart): MDC hits, and the
        // open *data* row from the first access now hits for real.
        let stride = 12; // GpuConfig::default() has 12 channels
        let done = m.load(stride, 100_000);
        assert!(done > 100_000);
        assert_eq!(m.stats().mdc_hits, 1);
        assert_eq!(m.stats().row_hits, 1, "data-row locality survives the metadata fix");
        assert_eq!(m.stats().row_misses, 2);
    }

    #[test]
    fn writeback_mdc_miss_issues_the_metadata_access() {
        let cfg = cfg();
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        m.store(3, 0);
        let horizon = m.flush(100);
        // The write-back's MDC miss first moves the 32 B metadata line
        // (row miss + one burst on the line's own channel — line 0 maps
        // to channel 4, while block 3 lives on channel 3), and only when
        // it returns does the two-burst data transfer start on the data
        // block's cold channel, paying its own activate. The horizon
        // must include the full serial chain.
        let meta_done = cfg.row_miss_sm_cycles() + cfg.burst_sm_cycles();
        let expect = 100.0 + meta_done + cfg.row_miss_sm_cycles() + 2.0 * cfg.burst_sm_cycles();
        assert_eq!(horizon, expect.ceil() as u64);
        assert_eq!(m.stats().metadata_bursts, 1);
        assert_eq!(m.stats().row_misses, 2);
        assert_eq!(m.stats().dram_writes, 1);
    }

    #[test]
    fn writeback_metadata_hit_skips_the_metadata_access() {
        // Two dirty blocks sharing a metadata line: the second write-back
        // hits the MDC and pays no metadata burst, finishing earlier than
        // a cold write-back of the same shape would.
        let cfg = cfg();
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        m.store(3, 0);
        m.store(15, 0); // same metadata line (line 0), different channel
        m.flush(100);
        assert_eq!(m.stats().mdc_misses, 1);
        assert_eq!(m.stats().mdc_hits, 1);
        assert_eq!(m.stats().metadata_bursts, 1, "one line serves both write-backs");
    }

    #[test]
    fn disabled_mdc_runs_metadata_free() {
        // The NOCOMP controller: no MDC, no metadata traffic, every block
        // at the uncompressed maximum — even when the burst source claims
        // blocks compress (there is no metadata to say so in hardware).
        let cfg = cfg().without_mdc();
        let one = UniformBursts(1);
        let mut m = MemorySystem::new(&cfg, &one);
        m.load(0, 0);
        m.store(3, 10);
        m.flush(100_000);
        let s = m.stats();
        assert_eq!(s.mdc_hits + s.mdc_misses, 0, "no MDC to hit or miss");
        assert_eq!(s.metadata_bursts, 0);
        assert_eq!(s.metadata_writeback_bursts, 0);
        assert_eq!(s.read_bursts, 4, "max bursts, ignoring the burst source");
        assert_eq!(s.write_bursts, 4);
        assert_eq!(s.decompressed_blocks, 0);
        assert_eq!(s.compressed_blocks, 0);
    }

    #[test]
    fn dirty_mdc_eviction_writes_the_line_back() {
        // Metadata lines 0 and MDC_ENTRIES share the direct-mapped MDC's
        // slot 0: the second write-back's line evicts the first, whose
        // burst-count update must be stored to DRAM (one metadata
        // write-back burst), and the survivor drains at flush (the
        // second). Both stores reach the channels' write queues.
        let cfg = cfg();
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        m.store(0, 0); // metadata line 0
        m.store(MDC_ENTRIES as u64 * BLOCKS_PER_META_LINE, 0); // line MDC_ENTRIES
        let s = m.stats();
        assert_eq!(s.metadata_writeback_bursts, 0, "write-back: nothing leaves yet");
        m.flush(100);
        let s = m.stats();
        assert_eq!(s.mdc_misses, 2);
        assert_eq!(s.metadata_bursts, 2, "both lines fetched");
        assert_eq!(
            s.metadata_writeback_bursts, 2,
            "one dirty eviction + one dirty line at the final drain"
        );
        assert_eq!(s.total_bursts(), 2 + 2 + 2 * 2, "write-backs count on the pins");
        assert_eq!(s.write_drains, 2 + 2, "two data blocks and two metadata lines were written");
        m.load(1, 10_000); // line 0 again, through a block not in L2
        assert_eq!(m.stats().mdc_misses, 3, "line 0 was evicted, not drained in place");
    }

    #[test]
    fn clean_metadata_lines_never_write_back() {
        // Read-only traffic dirties nothing: the eviction of line 0 by
        // line MDC_ENTRIES (the same slot) and the final drain stay silent.
        let cfg = cfg();
        let u = UniformBursts(2);
        let mut m = MemorySystem::new(&cfg, &u);
        m.load(0, 0);
        m.load(MDC_ENTRIES as u64 * BLOCKS_PER_META_LINE, 50_000); // evicts line 0
        m.load(1, 100_000); // line 0 again, through a block not in L2: a miss
        m.flush(150_000);
        let s = m.stats();
        assert_eq!(s.mdc_misses, 3);
        assert_eq!(s.metadata_writeback_bursts, 0);
    }

    #[test]
    fn bursts_are_clamped_to_hardware_range() {
        let cfg = cfg();
        let silly = UniformBursts(99);
        let mut m = MemorySystem::new(&cfg, &silly);
        m.load(0, 0);
        assert_eq!(m.stats().read_bursts, 4);
    }

    proptest! {
        /// The MDC, `Cache` at one way over metadata-line indices, picks
        /// what the retired direct-mapped cache did: the same hit or miss,
        /// the same evicted dirty line, the same counters and the same
        /// drain list in the same order.
        #[test]
        fn prop_one_way_cache_equals_the_metadata_cache(
            ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..600)
        ) {
            for entries in [1usize, 2, 64, 512] {
                let mut cache = Cache::new(entries, 1);
                let mut reference = mdc_reference::MetadataCache::new(entries);
                // Twice the capacity: reuse, and a conflict in every slot.
                let window = 2 * entries as u64;
                for (i, &(kind, x)) in ops.iter().enumerate() {
                    // A line in the window, or any line a block reaches.
                    let line = if kind & 1 == 0 { x % window } else { x / BLOCKS_PER_META_LINE };
                    let block = line * BLOCKS_PER_META_LINE + x % BLOCKS_PER_META_LINE;
                    let dirty = kind & 2 != 0;
                    let (got, want) = (cache.access(line, dirty), reference.access(block, dirty));
                    prop_assert_eq!(got, want, "{entries} entries, op {i}, line {line:#x}");
                    if kind >> 2 == 0x3f {
                        prop_assert_eq!(cache.flush_dirty(), reference.drain_dirty(), "op {i}");
                    }
                }
                prop_assert_eq!((cache.hits(), cache.misses()), (reference.hits(), reference.misses()));
                prop_assert_eq!(cache.flush_dirty(), reference.drain_dirty());
            }
        }
    }

    #[test]
    fn read_latency_accumulates_only_on_misses() {
        let cfg = cfg();
        let u = UniformBursts(4);
        let mut m = MemorySystem::new(&cfg, &u);
        let done = m.load(5, 0);
        m.load(5, done);
        assert_eq!(m.stats().dram_reads, 1);
        assert!(m.stats().read_latency_sum > 0);
        assert!((m.stats().avg_read_latency() - m.stats().read_latency_sum as f64).abs() < 1e-9);
    }
}
