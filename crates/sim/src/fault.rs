//! Deterministic DRAM fault injection (RRCD-style, arXiv:2105.03859).
//!
//! A [`FaultMap`] marks DRAM rows as *permanently failed* at a configurable
//! density and spatial pattern. A block resident in a faulty row keeps only
//! the row's surviving capacity — a hard byte budget
//! ([`FaultConfig::budget_bytes`]) — so its data must compress below that
//! budget or move elsewhere. The workload harness walks a
//! *graceful-degradation ladder* per block (exact → lossless → deeper lossy
//! → remap to a bounded spare pool → uncorrectable) and records the outcome
//! in a [`FaultPlan`] that the timing side replays: remapped blocks pay an
//! extra pointer burst plus the spare region's own DRAM access through the
//! FR-FCFS channel model.
//!
//! # Seeding and determinism
//!
//! Faultiness is a pure function of `(seed, pattern, geometry key)`: the
//! key is hashed with a SplitMix64 chain and compared against
//! `density · 2^64`. Two properties follow by construction:
//!
//! * **Reproducible** — the same seed and configuration always yield the
//!   same fault set; no RNG state is threaded through the simulation.
//! * **Nested** — for a fixed seed, the fault set at density `d₁` is a
//!   subset of the set at any `d₂ ≥ d₁` (the hash is fixed, only the
//!   threshold moves). Capacity curves over a density sweep are therefore
//!   monotone by construction, never by luck.
//!
//! # Region granularity
//!
//! The geometry key mirrors the simulator's physical mapping exactly
//! (`Dram::map` + `Channel::locate`): channel = `block % channels`,
//! row-group = `(block / channels) / row_blocks`, bank =
//! `row_group % banks`, row = `row_group / banks`. [`FaultPattern`] picks
//! which level of that hierarchy fails as a unit.

use crate::config::GpuConfig;
use crate::stats::SimStats;
use crate::BlockAddr;

/// Spatial distribution of the injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPattern {
    /// Each physical DRAM row (one `(channel, bank, row)` tuple) fails
    /// independently with probability `density`.
    RandomRows,
    /// Whole banks fail: every row of a failed `(channel, bank)` pair is
    /// faulty. Models a dead bank-level structure (e.g. a broken local
    /// row decoder).
    WholeBanks,
    /// Like [`RandomRows`](Self::RandomRows), but the per-row failure
    /// probability is skewed linearly across channels — channel `c` of
    /// `n` fails at `density · 2(c+1)/(n+1)` (mean `density` over the
    /// pool). Models one worse-binned DRAM device on the board.
    ChannelSkew,
}

/// Fault-injection configuration, carried on [`GpuConfig::fault`].
///
/// `None` on the config means the fault subsystem is entirely absent —
/// the harness and memory controller take their fault-free paths, which
/// tests pin byte-identical to a present-but-zero-density map.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Spatial fault pattern.
    pub pattern: FaultPattern,
    /// Fraction of rows (or banks) failed, in `[0, 1]`.
    pub density: f64,
    /// Seed for the deterministic fault set.
    pub seed: u64,
    /// Spare-region pool size in 128 B blocks. Blocks whose data cannot
    /// be degraded under the byte budget are remapped here first-come
    /// first-served; once the pool is exhausted they are uncorrectable.
    pub spare_blocks: u32,
    /// Surviving capacity of a faulty row, per resident block, in bytes.
    /// A block in a faulty row may only store a compressed form of at
    /// most this many bytes. Must be below the 128 B block size for the
    /// faults to bite.
    pub budget_bytes: u32,
}

impl FaultConfig {
    /// A configuration with the default spare pool (64 blocks) and
    /// surviving capacity (64 B — half of each faulty row survives).
    pub fn new(pattern: FaultPattern, density: f64, seed: u64) -> Self {
        Self { pattern, density, seed, spare_blocks: 64, budget_bytes: 64 }
    }

    /// Overrides the spare-pool size.
    pub fn with_spare_blocks(mut self, spare_blocks: u32) -> Self {
        self.spare_blocks = spare_blocks;
        self
    }

    /// Overrides the surviving capacity per faulty-row block.
    pub fn with_budget_bytes(mut self, budget_bytes: u32) -> Self {
        self.budget_bytes = budget_bytes;
        self
    }

    /// The hard bit budget of a block resident in a faulty row.
    pub fn budget_bits(&self) -> u32 {
        self.budget_bytes * 8
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a two-component geometry key under a tagged seed.
fn hash_key(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let h = splitmix64(seed ^ tag);
    let h = splitmix64(h ^ a);
    splitmix64(h ^ b)
}

/// `hash < density · 2^64`, with exact short-circuits at the ends so
/// density 0.0 never fires and 1.0 always does.
fn below_threshold(hash: u64, density: f64) -> bool {
    if density <= 0.0 {
        false
    } else if density >= 1.0 {
        true
    } else {
        // The product is < 2^64 here, so the cast cannot saturate; the
        // cast truncates toward zero, keeping the threshold monotone in
        // `density`.
        hash < (density * 18_446_744_073_709_551_616.0) as u64
    }
}

const TAG_ROWS: u64 = 0x524f_5753; // "ROWS"
const TAG_BANK: u64 = 0x4241_4e4b; // "BANK"
const TAG_SKEW: u64 = 0x534b_4557; // "SKEW"

/// The deterministic fault set: which blocks sit in failed DRAM capacity
/// and how many bits of each such block survive.
///
/// Built from the geometry of a [`GpuConfig`] plus a [`FaultConfig`];
/// queries are pure (no interior state), so a map can be shared freely
/// between the functional ladder and analysis tooling.
#[derive(Debug, Clone)]
pub struct FaultMap {
    channels: u64,
    banks: u64,
    row_blocks: u64,
    config: FaultConfig,
}

impl FaultMap {
    /// Captures the geometry of `cfg` and the fault parameters of `fault`.
    pub fn build(cfg: &GpuConfig, fault: &FaultConfig) -> Self {
        Self {
            channels: cfg.channels() as u64,
            banks: cfg.banks_per_channel as u64,
            row_blocks: cfg.row_blocks,
            config: fault.clone(),
        }
    }

    /// Builds the map from the config's own `fault` field, if any.
    pub fn from_config(cfg: &GpuConfig) -> Option<Self> {
        cfg.fault.as_ref().map(|f| Self::build(cfg, f))
    }

    /// The fault parameters this map was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Decomposes a block address into `(channel, bank, row, row_group)`
    /// exactly as the DRAM model does.
    fn locate(&self, block: BlockAddr) -> (u64, u64, u64, u64) {
        let channel = block % self.channels;
        let local = block / self.channels;
        let row_group = local / self.row_blocks;
        let bank = row_group % self.banks;
        let row = row_group / self.banks;
        (channel, bank, row, row_group)
    }

    /// Whether `block` resides in failed DRAM capacity.
    pub fn is_faulty(&self, block: BlockAddr) -> bool {
        let (channel, bank, _row, row_group) = self.locate(block);
        let fc = &self.config;
        match fc.pattern {
            FaultPattern::RandomRows => {
                below_threshold(hash_key(fc.seed, TAG_ROWS, channel, row_group), fc.density)
            }
            FaultPattern::WholeBanks => {
                below_threshold(hash_key(fc.seed, TAG_BANK, channel, bank), fc.density)
            }
            FaultPattern::ChannelSkew => {
                let weight = 2.0 * (channel + 1) as f64 / (self.channels + 1) as f64;
                below_threshold(
                    hash_key(fc.seed, TAG_SKEW, channel, row_group),
                    fc.density * weight,
                )
            }
        }
    }

    /// The surviving bit budget of `block`: `None` for a healthy block
    /// (full capacity), `Some(bits)` when it sits in a faulty row.
    pub fn block_budget_bits(&self, block: BlockAddr) -> Option<u32> {
        self.is_faulty(block).then(|| self.config.budget_bits())
    }

    /// Counts faulty blocks over an address population.
    pub fn count_faulty(&self, blocks: impl IntoIterator<Item = BlockAddr>) -> u64 {
        blocks.into_iter().filter(|&b| self.is_faulty(b)).count() as u64
    }
}

/// First-come first-served assignment of faulty blocks to spare slots.
///
/// Slot `i` holds the `i`-th block remapped. Slots are never freed: a
/// permanent fault stays remapped for the life of the run, so the slot
/// count only grows and doubles as the pool's occupancy peak.
#[derive(Debug, Clone)]
pub struct RemapTable {
    capacity: u32,
    slots: Vec<BlockAddr>,
}

impl RemapTable {
    /// An empty table with `capacity` spare slots.
    pub fn new(capacity: u32) -> Self {
        Self { capacity, slots: Vec::new() }
    }

    /// The spare slot holding `block`'s data, if it was remapped.
    pub fn slot_of(&self, block: BlockAddr) -> Option<u32> {
        self.slots.iter().position(|&b| b == block).map(|slot| slot as u32)
    }

    /// Assigns `block` a spare slot, idempotently: an already-remapped
    /// block returns its existing slot. `None` once the pool is full.
    pub fn assign(&mut self, block: BlockAddr) -> Option<u32> {
        if let Some(slot) = self.slot_of(block) {
            return Some(slot);
        }
        if self.used() >= self.capacity {
            return None;
        }
        self.slots.push(block);
        Some(self.used() - 1)
    }

    /// Slots handed out so far.
    pub fn used(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Total pool size.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

/// Ladder counters, one per [`SimStats`] fault field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Per-(snapshot, block) decisions that had to *degrade below the
    /// fault-free stored form* (a deeper lossy truncation) to fit the
    /// surviving capacity.
    pub fault_escalations: u64,
    /// Distinct blocks remapped into the spare pool.
    pub remaps: u64,
    /// Peak spare-pool occupancy in blocks. Slots are never freed, so
    /// this equals [`remaps`](Self::remaps); kept separate so the
    /// invariant is observable (and survives a future eviction policy).
    pub spare_occupancy_peak: u64,
    /// Distinct blocks that could neither degrade under the budget nor
    /// obtain a spare slot. Their data is lost on real hardware; the
    /// functional model keeps it intact and only counts them, so the
    /// capacity curve reads `(total - uncorrectable) / total`.
    pub uncorrectable_blocks: u64,
}

/// The functional ladder's verdict, handed to the timing side.
///
/// Carries the remap table (so the memory controller can charge remapped
/// blocks their pointer burst plus the spare region's own access) and the
/// final counters (folded into [`SimStats`] at harvest).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    table: RemapTable,
    counters: FaultCounters,
}

impl FaultPlan {
    /// Packages a finished ladder pass.
    pub fn new(table: RemapTable, counters: FaultCounters) -> Self {
        Self { table, counters }
    }

    /// The spare slot of `block`, if the ladder remapped it.
    pub fn slot_of(&self, block: BlockAddr) -> Option<u32> {
        self.table.slot_of(block)
    }

    /// The ladder counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Copies the counters into their [`SimStats`] fields.
    pub fn fold_into(&self, stats: &mut SimStats) {
        stats.fault_escalations = self.counters.fault_escalations;
        stats.remaps = self.counters.remaps;
        stats.spare_occupancy_peak = self.counters.spare_occupancy_peak;
        stats.uncorrectable_blocks = self.counters.uncorrectable_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pattern: FaultPattern, density: f64, seed: u64) -> FaultMap {
        FaultMap::build(&GpuConfig::default(), &FaultConfig::new(pattern, density, seed))
    }

    const PATTERNS: [FaultPattern; 3] =
        [FaultPattern::RandomRows, FaultPattern::WholeBanks, FaultPattern::ChannelSkew];

    #[test]
    fn density_extremes() {
        for pattern in PATTERNS {
            let none = map(pattern, 0.0, 7);
            for block in 0..50_000u64 {
                assert!(!none.is_faulty(block), "{pattern:?} faulty at density 0");
            }
        }
        // Uniform patterns saturate completely at density 1.
        for pattern in [FaultPattern::RandomRows, FaultPattern::WholeBanks] {
            let all = map(pattern, 1.0, 7);
            for block in 0..50_000u64 {
                assert!(all.is_faulty(block), "{pattern:?} healthy at density 1");
            }
        }
        // ChannelSkew redistributes density across channels (weight
        // 2(c+1)/(n+1)), so only channels with weight >= 1 — the upper
        // half — are guaranteed saturated at density 1.
        let skew = map(FaultPattern::ChannelSkew, 1.0, 7);
        let channels = GpuConfig::default().channels() as u64;
        for group in 0..4_000u64 {
            assert!(
                skew.is_faulty(group * channels + (channels - 1)),
                "top skew channel must saturate at density 1"
            );
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        for pattern in PATTERNS {
            let a = map(pattern, 0.3, 42);
            let b = map(pattern, 0.3, 42);
            let c = map(pattern, 0.3, 43);
            let blocks = 0..50_000u64;
            assert_eq!(
                blocks.clone().map(|x| a.is_faulty(x)).collect::<Vec<_>>(),
                blocks.clone().map(|x| b.is_faulty(x)).collect::<Vec<_>>(),
            );
            assert_ne!(
                blocks.clone().map(|x| a.is_faulty(x)).collect::<Vec<_>>(),
                blocks.map(|x| c.is_faulty(x)).collect::<Vec<_>>(),
                "{pattern:?} ignores the seed"
            );
        }
    }

    #[test]
    fn fault_sets_nest_as_density_rises() {
        // The monotone-capacity guarantee: every block faulty at a lower
        // density stays faulty at any higher one (same seed and pattern).
        let densities = [0.0, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0];
        for pattern in PATTERNS {
            for pair in densities.windows(2) {
                let lo = map(pattern, pair[0], 99);
                let hi = map(pattern, pair[1], 99);
                for block in 0..50_000u64 {
                    assert!(
                        !lo.is_faulty(block) || hi.is_faulty(block),
                        "{pattern:?}: block {block} faulty at {} but not {}",
                        pair[0],
                        pair[1],
                    );
                }
            }
        }
    }

    #[test]
    fn density_tracks_observed_fraction() {
        for pattern in PATTERNS {
            let m = map(pattern, 0.25, 123);
            let total = 200_000u64;
            let faulty = m.count_faulty(0..total);
            let frac = faulty as f64 / total as f64;
            assert!((frac - 0.25).abs() < 0.05, "{pattern:?}: observed {frac}");
        }
    }

    #[test]
    fn whole_banks_fail_as_a_unit() {
        let m = map(FaultPattern::WholeBanks, 0.3, 5);
        // All blocks of one (channel, bank) share a fate; walk row groups.
        let cfg = GpuConfig::default();
        let channels = cfg.channels() as u64;
        for channel in 0..channels {
            for bank in 0..cfg.banks_per_channel as u64 {
                let probe = |row: u64| {
                    let row_group = row * cfg.banks_per_channel as u64 + bank;
                    m.is_faulty((row_group * cfg.row_blocks) * channels + channel)
                };
                let fate = probe(0);
                for row in 1..64 {
                    assert_eq!(probe(row), fate, "bank fate split across rows");
                }
            }
        }
    }

    #[test]
    fn channel_skew_loads_high_channels() {
        let m = map(FaultPattern::ChannelSkew, 0.2, 11);
        let cfg = GpuConfig::default();
        let channels = cfg.channels() as u64;
        let count =
            |channel: u64| (0..20_000u64).filter(|g| m.is_faulty(g * channels + channel)).count();
        assert!(
            count(channels - 1) > 2 * count(0),
            "last channel should carry ~11x the first's fault rate"
        );
    }

    #[test]
    fn budget_reported_only_for_faulty_blocks() {
        let m = map(FaultPattern::RandomRows, 0.5, 3);
        for block in 0..10_000u64 {
            match m.block_budget_bits(block) {
                Some(bits) => {
                    assert!(m.is_faulty(block));
                    assert_eq!(bits, 64 * 8);
                }
                None => assert!(!m.is_faulty(block)),
            }
        }
    }

    #[test]
    fn remap_table_is_bounded_and_idempotent() {
        let mut t = RemapTable::new(2);
        assert_eq!(t.slot_of(10), None);
        assert_eq!(t.assign(10), Some(0));
        assert_eq!(t.assign(10), Some(0), "re-assignment must be idempotent");
        assert_eq!(t.assign(20), Some(1));
        assert_eq!(t.used(), 2);
        assert_eq!(t.assign(30), None, "pool exhausted");
        assert_eq!(t.slot_of(20), Some(1));
        assert_eq!(t.used(), 2);
    }

    #[test]
    fn plan_folds_counters_into_stats() {
        let counters = FaultCounters {
            fault_escalations: 4,
            remaps: 3,
            spare_occupancy_peak: 3,
            uncorrectable_blocks: 2,
        };
        let plan = FaultPlan::new(RemapTable::new(8), counters);
        let mut stats = SimStats::new();
        plan.fold_into(&mut stats);
        assert_eq!(stats.fault_escalations, 4);
        assert_eq!(stats.remaps, 3);
        assert_eq!(stats.spare_occupancy_peak, 3);
        assert_eq!(stats.uncorrectable_blocks, 2);
    }
}
