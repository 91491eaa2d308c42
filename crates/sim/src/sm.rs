//! SM front-end: executes one trace stream with bounded MSHRs.
//!
//! The SM abstracts a streaming multiprocessor's latency-hiding machinery:
//! loads are non-blocking until the MSHR file fills, `Sync` drains all
//! outstanding loads (a data dependency or barrier), and `Compute`
//! occupies the pipeline. Stall cycles — the quantity compression recovers
//! — are whatever the SM spends waiting on memory.

use crate::cache::Cache;
use crate::config::{L1_ASSOC, L1_KB, MSHRS_PER_SM};
use crate::mc::MemorySystem;
use crate::trace::{Op, PackedOp};
use slc_compress::BLOCK_BYTES;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-SM execution state.
#[derive(Debug)]
pub struct SmState {
    /// SM-local clock.
    time: u64,
    /// Next op index in the stream.
    pc: usize,
    /// Completion times of outstanding loads (min-heap).
    outstanding: BinaryHeap<Reverse<u64>>,
    /// Latest completion among outstanding loads (for `Sync`).
    newest_completion: u64,
    /// Private L1 cache; it counts its own hits and misses.
    l1: Cache,
    /// Cycles spent stalled.
    stall_cycles: u64,
    loads: u64,
    stores: u64,
    ops: u64,
}

impl Default for SmState {
    /// An SM with Table II's L1 and an empty MSHR file.
    fn default() -> Self {
        Self {
            time: 0,
            pc: 0,
            outstanding: BinaryHeap::new(),
            newest_completion: 0,
            l1: Cache::new(L1_KB * 1024 / BLOCK_BYTES, L1_ASSOC),
            stall_cycles: 0,
            loads: 0,
            stores: 0,
            ops: 0,
        }
    }
}

impl SmState {
    /// SM-local clock.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Whether the stream is exhausted.
    pub fn done(&self, stream: &[PackedOp]) -> bool {
        self.pc >= stream.len()
    }

    /// Executes exactly one op against the memory system, advancing the
    /// SM-local clock. Returns `false` when the stream was already done.
    pub fn step(&mut self, stream: &[PackedOp], mem: &mut MemorySystem<'_>) -> bool {
        let Some(&packed) = stream.get(self.pc) else {
            return false;
        };
        self.pc += 1;
        self.ops += 1;
        match packed.op() {
            Op::Compute(n) => {
                self.time += u64::from(n);
            }
            Op::Load(block) => {
                self.loads += 1;
                if self.l1.access(block, false).is_hit() {
                    self.time += 1;
                    return true;
                }
                // A full MSHR file blocks issue until the oldest miss
                // returns.
                if self.outstanding.len() >= MSHRS_PER_SM {
                    let Reverse(earliest) =
                        self.outstanding.pop().expect("mshrs > 0 implies non-empty");
                    if earliest > self.time {
                        self.stall_cycles += earliest - self.time;
                        self.time = earliest;
                    }
                }
                let completion = mem.load(block, self.time);
                self.newest_completion = self.newest_completion.max(completion);
                self.outstanding.push(Reverse(completion));
                self.time += 1;
            }
            Op::Store(block) => {
                self.stores += 1;
                mem.store(block, self.time);
                self.time += 1;
            }
            Op::Sync => {
                if self.newest_completion > self.time {
                    self.stall_cycles += self.newest_completion - self.time;
                    self.time = self.newest_completion;
                }
                self.outstanding.clear();
            }
        }
        true
    }

    /// Folds this SM's counters into aggregate statistics.
    pub fn accumulate(&self, stats: &mut crate::stats::SimStats) {
        stats.stall_cycles += self.stall_cycles;
        stats.l1_hits += self.l1.hits();
        stats.l1_misses += self.l1.misses();
        stats.loads += self.loads;
        stats.stores += self.stores;
        stats.ops += self.ops;
        stats.cycles = stats.cycles.max(self.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BANKS_PER_CHANNEL, ROW_BLOCKS};
    use crate::mc::UniformBursts;
    use crate::trace::Op;
    use crate::GpuConfig;

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn compute_advances_clock() {
        let cfg = cfg();
        let u = UniformBursts(4);
        let mut mem = MemorySystem::new(&cfg, &u);
        let mut sm = SmState::default();
        let stream = [Op::Compute(100)].map(Op::pack);
        assert!(sm.step(&stream, &mut mem));
        assert_eq!(sm.time(), 100);
        assert!(!sm.step(&stream, &mut mem), "stream exhausted");
    }

    #[test]
    fn sync_waits_for_loads() {
        let cfg = cfg();
        let u = UniformBursts(4);
        let mut mem = MemorySystem::new(&cfg, &u);
        let mut sm = SmState::default();
        let stream = [Op::Load(0), Op::Sync].map(Op::pack);
        sm.step(&stream, &mut mem);
        assert_eq!(sm.time(), 1, "load issue takes one cycle");
        sm.step(&stream, &mut mem);
        assert!(sm.time() > 100, "sync waited for DRAM, time = {}", sm.time());
    }

    #[test]
    fn l1_hits_do_not_touch_memory() {
        let cfg = cfg();
        let u = UniformBursts(4);
        let mut mem = MemorySystem::new(&cfg, &u);
        let mut sm = SmState::default();
        let stream = [Op::Load(9), Op::Sync, Op::Load(9), Op::Sync].map(Op::pack);
        for _ in 0..4 {
            sm.step(&stream, &mut mem);
        }
        assert_eq!(mem.stats().l2_misses, 1, "second load hits L1");
        let mut stats = crate::stats::SimStats::new();
        sm.accumulate(&mut stats);
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.l1_misses, 1);
        assert_eq!(stats.loads, 2);
    }

    #[test]
    fn full_mshr_file_stalls() {
        // MSHRS_PER_SM + 1 misses to successive rows of one bank: the bank
        // serialises them, so the first is still in flight when the last
        // finds the file full, and the SM waits exactly for it.
        let cfg = cfg();
        let u = UniformBursts(4);
        let row_stride = (cfg.channels() * BANKS_PER_CHANNEL) as u64 * ROW_BLOCKS;
        let stream: Vec<_> =
            (0..=MSHRS_PER_SM as u64).map(|row| Op::Load(row * row_stride).pack()).collect();
        let first = MemorySystem::new(&cfg, &u).load(0, 0);
        let issued = MSHRS_PER_SM as u64;
        assert!(first > issued, "the first miss returns after the file fills: {first}");
        let mut mem = MemorySystem::new(&cfg, &u);
        let mut sm = SmState::default();
        for _ in 0..stream.len() {
            sm.step(&stream, &mut mem);
        }
        let mut stats = crate::stats::SimStats::new();
        sm.accumulate(&mut stats);
        assert_eq!(stats.stall_cycles, first - issued, "the last miss waited for the first");
        assert_eq!(sm.time(), first + 1);
    }

    #[test]
    fn stores_are_fire_and_forget() {
        let cfg = cfg();
        let u = UniformBursts(4);
        let mut mem = MemorySystem::new(&cfg, &u);
        let mut sm = SmState::default();
        let stream = [Op::Store(4), Op::Store(5)].map(Op::pack);
        sm.step(&stream, &mut mem);
        sm.step(&stream, &mut mem);
        assert_eq!(sm.time(), 2, "stores never block the SM");
    }
}
