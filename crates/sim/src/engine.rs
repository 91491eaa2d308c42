//! The simulation engine: advances SMs in global time order.
//!
//! SMs interact only through the shared memory system, so correctness
//! requires memory requests to arrive in global time order. The engine
//! always steps the laggard — the SM with the smallest (local clock,
//! index), found at the root of a min-tree over one key per SM — which
//! bounds reordering to one op.

use crate::config::GpuConfig;
use crate::mc::{BurstsSource, MemorySystem};
use crate::sm::SmState;
use crate::stats::SimStats;
use crate::trace::Trace;

/// The timing simulator.
///
/// ```
/// use slc_sim::{Engine, GpuConfig, Trace, Op, mc::UniformBursts};
///
/// let cfg = GpuConfig::default();
/// let mut trace = Trace::new(cfg.sms);
/// for sm in 0..cfg.sms {
///     for i in 0..64u64 {
///         trace.push(sm, Op::Load(sm as u64 * 1000 + i));
///     }
///     trace.push(sm, Op::Sync);
/// }
/// let stats = Engine::new(cfg).run(&trace, &UniformBursts(4));
/// assert!(stats.cycles > 0);
/// assert_eq!(stats.loads, 16 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: GpuConfig,
}

impl Engine {
    /// Creates an engine for the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        Self { cfg }
    }

    /// Runs `trace` to completion and returns the statistics.
    ///
    /// `bursts` supplies the per-block burst counts (compression state);
    /// use [`crate::mc::UniformBursts`] with the MAG's maximum for the
    /// no-compression baseline.
    pub fn run(&self, trace: &Trace, bursts: &dyn BurstsSource) -> SimStats {
        let mut mem = MemorySystem::new(&self.cfg, bursts);
        let mut sms: Vec<SmState> = (0..trace.sms()).map(|_| SmState::default()).collect();
        // A tournament over one key per SM: its clock above its index, so
        // one integer compare orders keys as the (clock, index) tuple, and
        // `u64::MAX` once its stream is done. Leaf `i` is `tree[m + i]` and
        // every inner node the smaller child, so the root is the laggard.
        let shift = usize::BITS - trace.sms().leading_zeros();
        let m = trace.sms().next_power_of_two();
        let mut tree = vec![u64::MAX; 2 * m];
        for i in (0..trace.sms()).filter(|&i| !trace.stream(i).is_empty()) {
            tree[m + i] = i as u64;
        }
        for node in (1..m).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
        while tree[1] != u64::MAX {
            let i = (tree[1] & ((1 << shift) - 1)) as usize;
            let sm = &mut sms[i];
            let live = sm.step(trace.stream(i), &mut mem) && !sm.done(trace.stream(i));
            debug_assert!(sm.time() >> (64 - shift) == 0, "the clock overflows its key");
            let mut node = m + i;
            tree[node] = if live { sm.time() << shift | i as u64 } else { u64::MAX };
            while node > 1 {
                node /= 2;
                tree[node] = tree[2 * node].min(tree[2 * node + 1]);
            }
        }
        // End-of-kernel: drain dirty L2 lines and the channel write
        // buffers; execution ends when the last SM retires *and* the last
        // write-back leaves the pins.
        let end = sms.iter().map(SmState::time).max().unwrap_or(0);
        let horizon = mem.flush(end);
        // The memory system's counters are the starting point (no
        // field-by-field copy to drift); SM-side counters fold in on top.
        let mut stats = mem.stats();
        for sm in &sms {
            sm.accumulate(&mut stats);
        }
        stats.cycles = stats.cycles.max(horizon);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BANKS_PER_CHANNEL, ICNT_LATENCY, L2_HIT_LATENCY, ROW_BLOCKS};
    use crate::mc::{BurstsMap, UniformBursts};
    use crate::trace::{Op, TraceBuilder};

    /// A streaming sweep over blocks `0..blocks`, eight loads a tile and
    /// `compute_per_block` cycles per load, then a barrier. With
    /// `stores`, each tile also stores as many blocks of a second array
    /// that starts at block `blocks`.
    fn sweep(cfg: &GpuConfig, blocks: u64, compute_per_block: u32, stores: bool) -> Trace {
        let mut b = TraceBuilder::new(cfg.sms);
        for first in (0..blocks).step_by(8) {
            let loads: Vec<_> = (first..blocks.min(first + 8)).collect();
            let written: Vec<_> =
                if stores { loads.iter().map(|&l| l + blocks).collect() } else { Vec::new() };
            b.tile(&loads, compute_per_block * loads.len() as u32, &written);
        }
        b.barrier();
        b.build()
    }

    /// A memory-bound streaming trace over `blocks` blocks.
    fn streaming_trace(cfg: &GpuConfig, blocks: u64, compute_per_block: u32) -> Trace {
        sweep(cfg, blocks, compute_per_block, false)
    }

    #[test]
    fn empty_trace_finishes_at_zero() {
        let cfg = GpuConfig::default();
        let stats = Engine::new(cfg.clone()).run(&Trace::new(cfg.sms), &UniformBursts(4));
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.ops, 0);
    }

    #[test]
    fn fewer_bursts_means_fewer_cycles_when_memory_bound() {
        let cfg = GpuConfig::default();
        let trace = streaming_trace(&cfg, 6000, 2);
        let base = Engine::new(cfg.clone()).run(&trace, &UniformBursts(4));
        let half = Engine::new(cfg.clone()).run(&trace, &UniformBursts(2));
        assert!(
            half.cycles < base.cycles,
            "2-burst blocks must beat 4-burst: {} vs {}",
            half.cycles,
            base.cycles
        );
        assert_eq!(half.read_bursts * 2, base.read_bursts);
        // Memory-bound: halving traffic buys a sizeable speedup.
        let speedup = base.cycles as f64 / half.cycles as f64;
        assert!(speedup > 1.3, "speedup only {speedup:.3}");
    }

    #[test]
    fn compute_bound_traces_are_insensitive_to_compression() {
        let cfg = GpuConfig::default();
        let trace = streaming_trace(&cfg, 800, 2000);
        let base = Engine::new(cfg.clone()).run(&trace, &UniformBursts(4));
        let half = Engine::new(cfg.clone()).run(&trace, &UniformBursts(2));
        let speedup = base.cycles as f64 / half.cycles as f64;
        assert!(speedup < 1.02, "compute-bound speedup should vanish, got {speedup:.3}");
    }

    #[test]
    fn decompression_latency_is_charged() {
        let cfg = GpuConfig::default().with_codec_latency(46, 20);
        let trace = streaming_trace(&cfg, 2000, 2);
        let stats = Engine::new(cfg).run(&trace, &UniformBursts(2));
        assert_eq!(stats.decompressed_blocks, stats.dram_reads);
    }

    #[test]
    fn stores_generate_writeback_traffic() {
        let cfg = GpuConfig::default();
        // Load one array, store another, bigger than L2 (768 KB = 6144
        // blocks) so write-backs flow during the run.
        let trace = sweep(&cfg, 10_000, 2, true);
        let stats = Engine::new(cfg).run(&trace, &UniformBursts(4));
        assert_eq!(stats.stores, 10_000);
        assert_eq!(stats.dram_writes, 10_000, "every stored block is eventually written back");
        assert_eq!(stats.write_bursts, 4 * 10_000);
    }

    #[test]
    fn burst_map_reduces_only_mapped_traffic() {
        let cfg = GpuConfig::default();
        let trace = streaming_trace(&cfg, 4000, 2);
        let mut map = BurstsMap::new(4);
        for b in 0..2000 {
            map.insert(b, 1);
        }
        let stats = Engine::new(cfg).run(&trace, &map);
        assert_eq!(stats.read_bursts, 2000 + 4 * 2000);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = GpuConfig::default();
        let trace = streaming_trace(&cfg, 3000, 3);
        let a = Engine::new(cfg.clone()).run(&trace, &UniformBursts(3));
        let b = Engine::new(cfg).run(&trace, &UniformBursts(3));
        assert_eq!(a, b);
    }

    #[test]
    fn l2_captures_reuse() {
        let cfg = GpuConfig::default();
        let mut t = Trace::new(cfg.sms);
        // Same 64 blocks touched by every SM: first SM misses, rest hit L2.
        for sm in 0..cfg.sms {
            for i in 0..64 {
                t.push(sm, Op::Load(i));
            }
            t.push(sm, Op::Sync);
        }
        let stats = Engine::new(cfg).run(&t, &UniformBursts(4));
        assert_eq!(stats.dram_reads, 64);
        assert!(stats.l2_hits > 0);
    }

    #[test]
    fn a_dependent_load_chain_takes_its_hand_computed_latency() {
        // One SM loads, waits, loads again: each block a different row of
        // bank 0 on channel 0, so every load misses L1, L2 and the row
        // buffer, and none overlaps another. With the MDC off a load costs
        // the interconnect both ways, the L2 lookup, precharge + activate
        // + CAS and the block's bursts; the channel reports the data's
        // arrival in whole cycles.
        let base = GpuConfig::default().without_mdc();
        let per_row = (base.channels() * BANKS_PER_CHANNEL) as u64 * ROW_BLOCKS;
        let chain = 40;
        let mut t = Trace::new(base.sms);
        for row in 0..chain {
            t.push(0, Op::Load(row * per_row));
            t.push(0, Op::Sync);
        }
        for cfg in [base.clone(), base.with_sched_policy(crate::SchedPolicy::InOrder)] {
            let dram =
                cfg.row_miss_sm_cycles() + f64::from(cfg.max_bursts()) * cfg.burst_sm_cycles();
            let load = 2 * ICNT_LATENCY + L2_HIT_LATENCY + dram.ceil() as u64;
            let stats = Engine::new(cfg.clone()).run(&t, &UniformBursts(cfg.max_bursts()));
            assert_eq!((stats.row_misses, stats.dram_reads), (chain, chain));
            assert_eq!(stats.cycles, chain * load, "{:?}: {load} cycles a load", cfg.sched_policy);
        }
    }

    mod properties {
        use super::*;
        use crate::SchedPolicy;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// The reference: [`Engine::run`] as it was, every SM in a
        /// min-heap over (local clock, index), one step per pop.
        fn heap_run(cfg: &GpuConfig, trace: &Trace, bursts: &dyn BurstsSource) -> SimStats {
            let mut mem = MemorySystem::new(cfg, bursts);
            let mut sms: Vec<SmState> = (0..trace.sms()).map(|_| SmState::default()).collect();
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..trace.sms())
                .filter(|&i| !trace.stream(i).is_empty())
                .map(|i| Reverse((0u64, i)))
                .collect();
            while let Some(Reverse((_, i))) = heap.pop() {
                let sm = &mut sms[i];
                if sm.step(trace.stream(i), &mut mem) && !sm.done(trace.stream(i)) {
                    heap.push(Reverse((sm.time(), i)));
                }
            }
            let end = sms.iter().map(SmState::time).max().unwrap_or(0);
            let horizon = mem.flush(end);
            let mut stats = mem.stats();
            for sm in &sms {
                sm.accumulate(&mut stats);
            }
            stats.cycles = stats.cycles.max(horizon);
            stats
        }

        fn random_trace(ops: &[(u8, u64, u8)]) -> Trace {
            let cfg = GpuConfig::default();
            let mut t = Trace::new(cfg.sms);
            for &(sm, addr, kind) in ops {
                let sm = sm as usize % cfg.sms;
                match kind % 4 {
                    0 | 1 => t.push(sm, Op::Load(addr % 4096)),
                    2 => t.push(sm, Op::Store(addr % 4096)),
                    _ => t.push(sm, Op::Compute((addr % 64) as u32 + 1)),
                }
            }
            for sm in 0..cfg.sms {
                t.push(sm, Op::Sync);
            }
            t
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Fewer bursts per block can never make a run slower: the
            /// relation SLC's whole value proposition rests on.
            #[test]
            fn prop_cycles_monotone_in_bursts(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 50..400)
            ) {
                let cfg = GpuConfig::default();
                let trace = random_trace(&ops);
                let mut last = u64::MAX;
                for bursts in [4u32, 3, 2, 1] {
                    let stats = Engine::new(cfg.clone()).run(&trace, &UniformBursts(bursts));
                    prop_assert!(stats.cycles <= last,
                        "bursts {bursts} took {} > previous {}", stats.cycles, last);
                    last = stats.cycles;
                }
            }

            /// The laggard found by the min-tree steps the SMs in the
            /// order the heap did: silent SMs (empty streams),
            /// streams of every length, and — with `mirror`, every SM
            /// running the same ops — clocks tied all run long.
            #[test]
            fn prop_engine_equals_the_heap_loop(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..300),
                silent in any::<u16>(),
                mirror in any::<bool>(),
            ) {
                let cfg = GpuConfig::default();
                let mut t = Trace::new(cfg.sms);
                for &(sm, addr, kind) in &ops {
                    let op = match kind % 8 {
                        0..=3 => Op::Load(addr % 4096),
                        4 => Op::Store(addr % 4096),
                        5 | 6 => Op::Compute(u32::from(kind >> 6) + 1),
                        _ => Op::Sync,
                    };
                    let live = |i: usize| silent >> i & 1 == 0;
                    if mirror {
                        (0..cfg.sms).filter(|&i| live(i)).for_each(|i| t.push(i, op));
                    } else if live(sm as usize % cfg.sms) {
                        t.push(sm as usize % cfg.sms, op);
                    }
                }
                for cfg in [cfg.clone(), cfg.without_mdc().with_sched_policy(SchedPolicy::InOrder)] {
                    let bursts = UniformBursts(3);
                    prop_assert_eq!(Engine::new(cfg.clone()).run(&t, &bursts), heap_run(&cfg, &t, &bursts));
                }
            }

            /// No SM finishes before its own work: its compute cycles plus
            /// one issue cycle per load and store.
            #[test]
            fn prop_cycles_cover_every_sms_issue_work(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..400),
                bursts in 1u32..=4,
            ) {
                let cfg = GpuConfig::default();
                let trace = random_trace(&ops);
                let stats = Engine::new(cfg).run(&trace, &UniformBursts(bursts));
                for sm in 0..trace.sms() {
                    let work: u64 = trace.stream(sm).iter().map(|p| match p.op() {
                        Op::Compute(n) => u64::from(n),
                        Op::Load(_) | Op::Store(_) => 1,
                        Op::Sync => 0,
                    }).sum();
                    prop_assert!(stats.cycles >= work, "SM {sm}: {} < {work}", stats.cycles);
                }
            }

            /// Conservation: every issued load is either an L1 hit, an L2
            /// hit or a DRAM read; every store eventually writes back.
            #[test]
            fn prop_request_conservation(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 50..400)
            ) {
                let cfg = GpuConfig::default();
                let trace = random_trace(&ops);
                let stats = Engine::new(cfg).run(&trace, &UniformBursts(4));
                prop_assert_eq!(stats.loads, stats.l1_hits + stats.l1_misses);
                // L2 sees L1 misses plus stores.
                prop_assert_eq!(stats.l1_misses + stats.stores, stats.l2_hits + stats.l2_misses);
                prop_assert!(stats.dram_reads <= stats.l2_misses);
                prop_assert!(stats.dram_writes <= stats.stores + stats.loads);
            }
        }
    }

    #[test]
    fn cycles_cover_the_bus_time_of_every_burst() {
        // The busiest channel carries at least the average channel's
        // bursts, one after another: cycles × channels ≥ bursts × burst
        // cycles. Loads alone and with write-backs, at every burst count.
        // A streaming sweep of whole blocks runs within 8 % of the bound
        // (1.07 loads only, 1.03 with write-backs); one burst a block
        // leaves more room (1.30), row opens weighing more per burst.
        let cfg = GpuConfig::default();
        for stores in [false, true] {
            for bursts in 1..=cfg.max_bursts() {
                let trace = sweep(&cfg, 8000, 0, stores);
                let stats = Engine::new(cfg.clone()).run(&trace, &UniformBursts(bursts));
                let bus = stats.total_bursts() as f64 * cfg.burst_sm_cycles();
                let margin = stats.cycles as f64 * cfg.channels() as f64 / bus;
                let at = format!("stores {stores}, {bursts} bursts: {margin:.3}");
                assert!(margin >= 1.0, "{at}");
                assert!(bursts < cfg.max_bursts() || margin < 1.08, "{at}");
            }
        }
    }

    #[test]
    fn achieved_bandwidth_is_below_peak() {
        let cfg = GpuConfig::default();
        let trace = streaming_trace(&cfg, 8000, 0);
        let stats = Engine::new(cfg.clone()).run(&trace, &UniformBursts(4));
        let bw = stats.achieved_bandwidth_gbps(cfg.mag().bytes());
        assert!(bw > 0.3 * cfg.bandwidth_gbps(), "streaming should use bandwidth, got {bw:.1}");
        assert!(bw <= cfg.bandwidth_gbps() * 1.01, "cannot exceed peak, got {bw:.1}");
    }
}
