//! Set-associative write-back cache model: the L1 of each SM, the shared
//! L2 and the memory controller's metadata cache.
//!
//! Replacement is exact LRU, kept as an order instead of stamps: each set
//! packs its way indices four bits apiece into one `u64`, least recent in
//! the low nibble. A miss evicts the low nibble's way and rotates it to
//! the top; a hit moves its way's nibble to the top. Both are O(1).

use crate::BlockAddr;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The block was present.
    Hit,
    /// The block was absent; `writeback` is the dirty victim to flush, if
    /// any. The block has been installed.
    Miss {
        /// Dirty victim evicted to make room.
        writeback: Option<BlockAddr>,
    },
}

impl CacheOutcome {
    /// `true` for a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Most ways a set may have: its recency order holds 16 nibbles.
const MAX_ASSOC: usize = 16;

/// A nibble of 1 in every position of a `u64`.
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// Replacement state of one set; its tags live in [`Cache`]'s tag array.
#[derive(Debug, Clone, Copy)]
struct Set {
    /// Way indices from least to most recently used, low nibble first.
    order: u64,
    /// Ways holding a line. Ways fill in index order and no line is ever
    /// invalidated, so ways `0..filled` are exactly the valid ones.
    filled: u8,
    /// Bit `w` set: way `w` holds a dirty line.
    dirty: u16,
}

/// A set-associative write-back LRU cache.
///
/// Tags are opaque line addresses and the caller picks the line size:
/// the L1 and L2 cache 128 B blocks by [`BlockAddr`], the MDC 32 B
/// metadata lines by line index.
#[derive(Debug, Clone)]
pub struct Cache {
    assoc: usize,
    /// `assoc` tags per set, set after set.
    tags: Vec<BlockAddr>,
    sets: Vec<Set>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `lines` lines with `assoc` ways. The set count
    /// is `lines / assoc`, rounded down, and need not be a power of two
    /// (the 768 KB L2 has 768 sets).
    ///
    /// # Panics
    ///
    /// Panics unless `assoc` is 1..=16 and the cache holds at least
    /// `assoc` lines.
    pub fn new(lines: usize, assoc: usize) -> Self {
        assert!(assoc > 0 && lines >= assoc, "degenerate cache geometry");
        assert!(assoc <= MAX_ASSOC, "at most {MAX_ASSOC} ways, got {assoc}");
        let sets = lines / assoc;
        // Ways 0, 1, … from least recent up: an empty set evicts way 0,
        // then way 1, … — the first invalid way, while the set fills.
        let order = (0..assoc as u64).fold(0, |order, way| order | way << (4 * way));
        let set = Set { order, filled: 0, dirty: 0 };
        Self { assoc, tags: vec![0; sets * assoc], sets: vec![set; sets], hits: 0, misses: 0 }
    }

    // Modulo indexing: GPU L2 slices are not power-of-two sized (768 KB).
    fn set_of(&self, block: BlockAddr) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    /// Accesses `block`; on a miss the block is installed (allocate on
    /// read and on write: GPU L2 lines are written back in full, and
    /// stores are assumed fully coalesced).
    pub fn access(&mut self, block: BlockAddr, write: bool) -> CacheOutcome {
        let index = self.set_of(block);
        let set = &mut self.sets[index];
        let tags = &mut self.tags[index * self.assoc..][..self.assoc];
        let top = 4 * (self.assoc - 1);
        if let Some(way) = tags[..usize::from(set.filled)].iter().position(|&t| t == block) {
            // `x` is zero in the way's nibble (and perhaps in the unused
            // nibbles above the order); subtracting 1 from every nibble
            // borrows first at the lowest zero one. The nibbles above the
            // way's then close up beneath the top.
            let x = set.order ^ (way as u64 * NIBBLES);
            let at = (x.wrapping_sub(NIBBLES) & !x & NIBBLES << 3).trailing_zeros() - 3;
            let below = set.order & ((1 << at) - 1);
            set.order = below | (set.order >> at >> 4) << at | (way as u64) << top;
            set.dirty |= u16::from(write) << way;
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        self.misses += 1;
        // Victim: the least recent way, the first invalid one while the
        // set fills. An invalid way is never dirty.
        let way = (set.order & 0xF) as usize;
        set.order = set.order >> 4 | (way as u64) << top;
        set.filled = set.filled.max(way as u8 + 1);
        let writeback = (set.dirty >> way & 1 != 0).then_some(tags[way]);
        tags[way] = block;
        set.dirty = set.dirty & !(1 << way) | u16::from(write) << way;
        CacheOutcome::Miss { writeback }
    }

    /// Drains every dirty line (end-of-kernel flush), returning them.
    pub fn flush_dirty(&mut self) -> Vec<BlockAddr> {
        let mut out = Vec::new();
        for (set, tags) in self.sets.iter_mut().zip(self.tags.chunks_exact(self.assoc)) {
            let dirty = tags.iter().enumerate().filter(|&(way, _)| set.dirty >> way & 1 != 0);
            out.extend(dirty.map(|(_, &tag)| tag));
            set.dirty = 0;
        }
        out
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Cache {
        /// Probes without installing or updating LRU.
        fn probe(&self, block: BlockAddr) -> bool {
            let index = self.set_of(block);
            let filled = usize::from(self.sets[index].filled);
            self.tags[index * self.assoc..][..filled].contains(&block)
        }
    }

    /// The reference: the cache as it was with per-line LRU stamps, a
    /// valid bit per line and victim scans (first invalid way, else the
    /// least recent stamp), verbatim but for the name.
    mod stamp_lru {
        use super::{BlockAddr, CacheOutcome};

        #[derive(Debug, Clone, Copy)]
        struct Line {
            tag: u64,
            valid: bool,
            dirty: bool,
            /// LRU stamp: higher = more recent.
            lru: u64,
        }

        const INVALID: Line = Line { tag: 0, valid: false, dirty: false, lru: 0 };

        /// A set-associative LRU cache of 128 B lines.
        #[derive(Debug, Clone)]
        pub struct StampCache {
            sets: usize,
            assoc: usize,
            lines: Vec<Line>,
            tick: u64,
            hits: u64,
            misses: u64,
        }

        impl StampCache {
            pub fn new(size_kb: u32, assoc: usize) -> Self {
                let lines = (size_kb as usize * 1024) / 128;
                assert!(assoc > 0 && lines >= assoc, "degenerate cache geometry");
                let sets = lines / assoc;
                assert!(sets > 0, "cache must have at least one set");
                Self {
                    sets,
                    assoc,
                    lines: vec![INVALID; sets * assoc],
                    tick: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            fn set_of(&self, block: BlockAddr) -> usize {
                (block % self.sets as u64) as usize
            }

            pub fn access(&mut self, block: BlockAddr, write: bool) -> CacheOutcome {
                self.tick += 1;
                let set = self.set_of(block);
                let base = set * self.assoc;
                let ways = &mut self.lines[base..base + self.assoc];
                if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == block) {
                    line.lru = self.tick;
                    line.dirty |= write;
                    self.hits += 1;
                    return CacheOutcome::Hit;
                }
                self.misses += 1;
                // Victim: invalid way first, else LRU.
                let victim = match ways.iter().position(|l| !l.valid) {
                    Some(i) => i,
                    None => {
                        let (i, _) =
                            ways.iter().enumerate().min_by_key(|(_, l)| l.lru).expect("assoc > 0");
                        i
                    }
                };
                let evicted = ways[victim];
                ways[victim] = Line { tag: block, valid: true, dirty: write, lru: self.tick };
                let writeback = (evicted.valid && evicted.dirty).then_some(evicted.tag);
                CacheOutcome::Miss { writeback }
            }

            pub fn flush_dirty(&mut self) -> Vec<BlockAddr> {
                let mut out = Vec::new();
                for l in &mut self.lines {
                    if l.valid && l.dirty {
                        out.push(l.tag);
                        l.dirty = false;
                    }
                }
                out
            }

            pub fn hits(&self) -> u64 {
                self.hits
            }

            pub fn misses(&self) -> u64 {
                self.misses
            }
        }
    }

    /// `(size_kb, assoc)`: every associativity from 1 to 16, each with
    /// power-of-two and other set counts, the 16 KB L1 and the 768-set L2.
    const GEOMETRIES: [(u32, usize); 15] = [
        (1, 1),   // 8 sets
        (3, 1),   // 24
        (2, 2),   // 8
        (3, 2),   // 12
        (2, 4),   // 4
        (5, 4),   // 10
        (16, 4),  // 32: the L1
        (1, 8),   // 1
        (5, 8),   // 5
        (768, 8), // 768: the L2
        (2, 16),  // 1
        (3, 16),  // 1, 24 lines rounded down
        (6, 16),  // 3
        (16, 16), // 8
        (64, 16), // 32
    ];

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn rejects_more_ways_than_the_order_holds() {
        let _ = Cache::new(512, MAX_ASSOC + 1);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(128, 4);
        assert!(!c.access(42, false).is_hit());
        assert!(c.access(42, false).is_hit());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 4 sets (16 lines / 4 ways) — pick 5 blocks mapping to set 0.
        let mut c = Cache::new(16, 4);
        let set0 = |i: u64| i * 4; // 4 sets: block % 4 == 0
        for i in 0..4 {
            c.access(set0(i), false);
        }
        // Touch block 0 to refresh it, then insert a 5th block.
        c.access(set0(0), false);
        c.access(set0(4), false);
        assert!(c.probe(set0(0)), "refreshed line survives");
        assert!(!c.probe(set0(1)), "LRU line evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(16, 1); // direct-mapped, 16 sets
        assert_eq!(c.access(0, true), CacheOutcome::Miss { writeback: None });
        match c.access(16, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(0)),
            CacheOutcome::Hit => panic!("expected conflict miss"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(16, 1);
        c.access(0, false);
        assert_eq!(c.access(16, false), CacheOutcome::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(16, 1);
        c.access(0, false);
        c.access(0, true);
        assert_eq!(c.flush_dirty(), vec![0]);
        assert!(c.flush_dirty().is_empty(), "flush clears dirty bits");
    }

    #[test]
    fn flush_returns_all_dirty_lines() {
        let mut c = Cache::new(128, 4);
        for b in [3, 77, 200] {
            c.access(b, true);
        }
        c.access(500, false);
        let mut dirty = c.flush_dirty();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![3, 77, 200]);
    }

    /// Addresses that a tag sentinel or a stolen tag bit would collide with.
    const EDGES: [u64; 7] = [0, 1, 1 << 63, (1 << 63) - 1, (1 << 63) + 1, u64::MAX - 1, u64::MAX];

    proptest! {
        /// The recency order picks the victim the stamps did, on every
        /// geometry: same hit or miss, same write-back victim, same
        /// counters and the same `flush_dirty` list in the same order.
        #[test]
        fn prop_cache_equals_the_stamp_lru_reference(
            ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..600)
        ) {
            for (size_kb, assoc) in GEOMETRIES {
                let mut cache = Cache::new(size_kb as usize * 1024 / 128, assoc);
                let mut reference = stamp_lru::StampCache::new(size_kb, assoc);
                // Twice the capacity: reuse, and conflict misses in every set.
                let window = 2 * (size_kb as u64 * 8 / assoc as u64) * assoc as u64;
                for (i, &(kind, x)) in ops.iter().enumerate() {
                    let block = match kind % 4 {
                        0 => x % window,
                        1 => x,
                        2 => EDGES[(x % EDGES.len() as u64) as usize],
                        _ => u64::MAX - x % window,
                    };
                    let write = kind & 4 != 0;
                    let (got, want) = (cache.access(block, write), reference.access(block, write));
                    prop_assert_eq!(got, want, "{size_kb} KB x {assoc}, op {i}, {block:#x}: {got:?}");
                    if kind >> 3 == 0x1f {
                        prop_assert_eq!(cache.flush_dirty(), reference.flush_dirty(), "op {i}");
                    }
                }
                prop_assert_eq!((cache.hits(), cache.misses()), (reference.hits(), reference.misses()));
                prop_assert_eq!(cache.flush_dirty(), reference.flush_dirty());
            }
        }

        #[test]
        fn prop_hits_plus_misses_equals_accesses(blocks in proptest::collection::vec(0u64..256, 1..500)) {
            let mut c = Cache::new(128, 8);
            for &b in &blocks {
                c.access(b, b % 3 == 0);
            }
            prop_assert_eq!(c.hits() + c.misses(), blocks.len() as u64);
        }

        #[test]
        fn prop_working_set_within_capacity_always_hits_second_pass(
            start in 0u64..1000) {
            // 128 lines; touch 64 distinct blocks twice.
            let mut c = Cache::new(128, 8);
            let blocks: Vec<u64> = (start..start + 64).collect();
            for &b in &blocks {
                c.access(b, false);
            }
            for &b in &blocks {
                prop_assert!(c.access(b, false).is_hit());
            }
        }
    }
}
