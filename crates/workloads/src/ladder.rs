//! The graceful-degradation ladder: fitting blocks into faulty DRAM rows.
//!
//! When [`slc_sim::GpuConfig::fault`] is set, the kernel-boundary staging
//! walk ([`Scheme::stage_and_record`]'s, the only one there is) asks this
//! ladder for a verdict on each block just before it stages it — block
//! by block, in the walk's own pass. The rungs, in order:
//!
//! 1. **Exact / natural** — healthy rows, and faulty rows whose
//!    fault-free stored form already fits the surviving capacity, take
//!    the ordinary pipeline path. A zero-density fault map therefore
//!    stages and records byte-identically to no fault map at all
//!    (pinned by integration tests).
//! 2. **Lossless squeeze** — SLC blocks the fault-free pipeline stores
//!    verbatim, but whose full lossless stream fits the budget: compress
//!    for capacity. No data loss, so this rung is *not* an escalation.
//! 3. **Deeper lossy** — a deeper truncation than the fault-free
//!    decision ([`slc_core::SlcCompressor::fit_within_with`]), decided
//!    from the block's [`BlockAnalysis`](slc_compress::e2mc::BlockAnalysis)
//!    — no block is ever re-encoded to make the decision. Counted per
//!    (snapshot, block) as a *fault escalation*.
//! 4. **Remap** — the block's data moves to a bounded spare pool
//!    (first-come first-served, never freed); the timing side charges
//!    the indirection — a pointer burst plus the spare row's own DRAM
//!    access through the FR-FCFS channel model.
//! 5. **Uncorrectable** — no stored form fits and the pool is
//!    exhausted. Real hardware loses the data; the functional model
//!    keeps it intact and only counts the block, so capacity curves
//!    read `1 - uncorrectable / total`.
//!
//! Resolution order is deterministic: blocks resolve in
//! [`GpuMemory::all_blocks`] order within each snapshot, so the spare
//! pool's FCFS assignment — and with it every counter — replays exactly
//! under a fixed seed.

use crate::scheme::{BurstsAccumulator, Scheme};
use slc_core::slc::FitOutcome;
use slc_sim::fault::{FaultCounters, FaultMap, RemapTable};
use slc_sim::{BlockAddr, FaultPlan, GpuConfig, GpuMemory};
use std::collections::HashSet;

/// One block's ladder verdict for one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LadderVerdict {
    /// Healthy row, or the fault-free stored form fits the surviving
    /// capacity: stage and record exactly as without faults.
    Intact,
    /// Store the form `fit` names in place of the fault-free one (SLC
    /// only): the full lossless stream of a verbatim block (no data
    /// loss, no escalation), or a deeper truncation than the fault-free
    /// decision (counted as a fault escalation).
    Refit(FitOutcome),
    /// The block lives in the spare pool; it stages and records its
    /// fault-free form (the spare row is healthy) and the timing side
    /// pays the indirection.
    Remapped,
    /// Lost on real hardware; kept intact and counted here.
    Uncorrectable,
}

/// Ladder state carried across the kernel-boundary snapshots of one
/// functional run: the fault map, the spare pool, the set of blocks
/// already given up on, and the running counters.
#[derive(Debug, Clone)]
pub struct LadderState {
    map: FaultMap,
    table: RemapTable,
    uncorrectable: HashSet<BlockAddr>,
    counters: FaultCounters,
}

impl LadderState {
    /// Builds the ladder from `cfg`'s fault configuration; `None` when
    /// the config carries none (the fault subsystem is absent).
    pub fn new(cfg: &GpuConfig) -> Option<Self> {
        let map = FaultMap::from_config(cfg)?;
        let spare = map.config().spare_blocks;
        Some(Self {
            map,
            table: RemapTable::new(spare),
            uncorrectable: HashSet::new(),
            counters: FaultCounters::default(),
        })
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Finishes the functional pass into the [`FaultPlan`] the timing
    /// side replays (remap table + final counters).
    pub fn into_plan(self) -> FaultPlan {
        FaultPlan::new(self.table, self.counters)
    }

    /// Resolves one block with a single stored form of `bits` — verbatim
    /// under the uncompressed scheme, the lossless stream under E2MC and
    /// under SLC in an exact region: it fits the row as it is or nothing
    /// does.
    pub(crate) fn resolve_sized(&mut self, addr: BlockAddr, bits: u32) -> LadderVerdict {
        self.resolve_fit(addr, |budget_bits| {
            if bits <= budget_bits {
                FitOutcome::Natural { bits, lossy: false }
            } else {
                FitOutcome::Unstorable
            }
        })
    }

    /// Walks one block down the ladder and updates the counters; `fit`
    /// fits the block's stored forms into a faulty row's surviving
    /// capacity — the same compressor under a tighter bit budget — and
    /// is only asked for blocks in faulty rows not yet given up on, so
    /// only those ever pay for an analysis.
    ///
    /// Remap and uncorrectable verdicts are sticky: a permanent fault
    /// stays remapped (or lost) for the rest of the run even if a later
    /// snapshot's content would fit, and is counted exactly once.
    /// Escalations, by contrast, are per-(snapshot, block) decisions —
    /// each snapshot a block must store a deeper truncation counts.
    pub(crate) fn resolve_fit(
        &mut self,
        addr: BlockAddr,
        fit: impl FnOnce(u32) -> FitOutcome,
    ) -> LadderVerdict {
        let Some(budget_bits) = self.map.block_budget_bits(addr) else {
            return LadderVerdict::Intact;
        };
        if self.table.slot_of(addr).is_some() {
            return LadderVerdict::Remapped;
        }
        if self.uncorrectable.contains(&addr) {
            return LadderVerdict::Uncorrectable;
        }
        match fit(budget_bits) {
            FitOutcome::Natural { .. } => return LadderVerdict::Intact,
            fit @ FitOutcome::Lossless { .. } => return LadderVerdict::Refit(fit),
            fit @ FitOutcome::Degraded { .. } => {
                self.counters.fault_escalations += 1;
                return LadderVerdict::Refit(fit);
            }
            FitOutcome::Unstorable => {}
        }
        match self.table.assign(addr) {
            Some(_) => {
                self.counters.remaps += 1;
                self.counters.spare_occupancy_peak = u64::from(self.table.used());
                LadderVerdict::Remapped
            }
            None => {
                self.uncorrectable.insert(addr);
                self.counters.uncorrectable_blocks += 1;
                LadderVerdict::Uncorrectable
            }
        }
    }

    /// The fault-aware stage-and-record pass: [`Scheme::stage_and_record`]
    /// with this ladder resolving every block of `mem` before it is
    /// staged, so the bursts folded into `acc` are those of the streams
    /// actually stored.
    ///
    /// With a zero-density map every block is intact and the pass is
    /// byte-identical to the fault-free one — same staging, same cells.
    pub fn stage_and_record(
        &mut self,
        scheme: &Scheme,
        mem: &mut GpuMemory,
        acc: &mut BurstsAccumulator,
    ) {
        scheme.stage_walk(mem, Some(acc), Some(self));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalyzedBlock, SnapshotAnalysis};
    use slc_compress::e2mc::{E2mc, E2mcConfig};
    use slc_compress::{Mag, BLOCK_BYTES};
    use slc_core::slc::SlcVariant;
    use slc_sim::mc::BurstsSource;
    use slc_sim::{DevicePtr, FaultConfig, FaultPattern};

    fn trained() -> E2mc {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 512) as f32).to_le_bytes()).collect();
        E2mc::train_on_bytes(&bytes, &E2mcConfig::default())
    }

    fn filled_memory() -> GpuMemory {
        let mut m = GpuMemory::new();
        let a = m.malloc("approx", 2048, true, 16);
        let e = m.malloc("exact", 1024, false, 0);
        let vals: Vec<f32> = (0..512).map(|i| (i % 512) as f32).collect();
        m.write_f32(a, &vals);
        m.write_f32(e, &vals[..256]);
        m
    }

    /// [`filled_memory`] with the approximable region off the trained
    /// grid: those floats cost escapes, close to but under a full block,
    /// so the fault-free pipeline stores some of them verbatim.
    fn off_grid_memory() -> GpuMemory {
        let mut m = filled_memory();
        let vals: Vec<f32> = (0..512).map(|i| (i % 512) as f32 + (i % 3) as f32 * 0.37).collect();
        m.write_f32(DevicePtr(0), &vals);
        m
    }

    fn faulty_config(density: f64, budget_bytes: u32, spare: u32) -> GpuConfig {
        GpuConfig::default().with_faults(
            FaultConfig::new(FaultPattern::RandomRows, density, 7)
                .with_budget_bytes(budget_bytes)
                .with_spare_blocks(spare),
        )
    }

    #[test]
    fn zero_density_matches_the_fault_free_pipeline() {
        let e = trained();
        for scheme in [
            Scheme::E2mc(e.clone()),
            Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt),
            Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcSimp),
        ] {
            let cfg = faulty_config(0.0, 64, 8);
            let mut ladder = LadderState::new(&cfg).unwrap();
            let mut faulty_mem = filled_memory();
            let mut faulty_acc = BurstsAccumulator::new(Mag::GDDR5);
            ladder.stage_and_record(&scheme, &mut faulty_mem, &mut faulty_acc);
            let mut plain_mem = filled_memory();
            let mut plain_acc = BurstsAccumulator::new(Mag::GDDR5);
            let snap = scheme.stage_analyzed(&mut plain_mem).unwrap();
            plain_acc.record(&scheme, &snap);
            assert_eq!(
                faulty_mem.read_f32(DevicePtr(0), 512),
                plain_mem.read_f32(DevicePtr(0), 512),
                "zero-density staging must be byte-identical"
            );
            assert_eq!(faulty_acc.into_map(), plain_acc.into_map());
            assert_eq!(*ladder.counters(), FaultCounters::default());
        }
    }

    #[test]
    fn hopeless_budget_splits_remaps_and_uncorrectable() {
        // A 2-byte budget is below any header, so every faulty block is
        // unstorable: the first `spare` blocks (in walk order) remap,
        // the rest are uncorrectable — and a second snapshot re-counts
        // none of them.
        let e = trained();
        let scheme = Scheme::E2mc(e);
        let cfg = faulty_config(1.0, 2, 3);
        let mut ladder = LadderState::new(&cfg).unwrap();
        let mut mem = filled_memory();
        let total = mem.blocks_with_addr().count() as u64;
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        let c = *ladder.counters();
        assert_eq!(c.remaps, 3);
        assert_eq!(c.spare_occupancy_peak, 3);
        assert_eq!(c.uncorrectable_blocks, total - 3);
        assert_eq!(c.fault_escalations, 0, "lossless schemes never escalate");
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert_eq!(*ladder.counters(), c, "remap/uncorrectable counts are per distinct block");
        // The functional model keeps data intact and records the plain
        // lossless bursts throughout.
        let plain = {
            let mut a = BurstsAccumulator::new(Mag::GDDR5);
            let snap = SnapshotAnalysis::capture(scheme.e2mc().unwrap(), &mem);
            a.record(&scheme, &snap);
            a.record(&scheme, &snap);
            a.into_map()
        };
        assert_eq!(acc.into_map(), plain);
    }

    #[test]
    fn escalations_reconcile_with_fit_verdicts_per_snapshot() {
        let e = trained();
        let slc = slc_core::slc::SlcCompressor::new(
            e.clone(),
            slc_core::slc::SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt),
        );
        let scheme = Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        // Find a budget that actually forces deeper truncations on this
        // memory (scan downward; with a generous spare pool nothing is
        // uncorrectable, so escalations are the only moving count).
        let mem0 = filled_memory();
        let snap = SnapshotAnalysis::capture(&e, &mem0);
        let mut chosen = None;
        for budget_bytes in (8..64).rev() {
            let degraded = snap
                .entries()
                .iter()
                .filter(|b| b.approximable)
                .filter(|b| {
                    matches!(
                        slc.fit_within_with(&b.analysis, budget_bytes * 8),
                        FitOutcome::Degraded { .. }
                    )
                })
                .count() as u64;
            if degraded > 0 {
                chosen = Some((budget_bytes, degraded));
                break;
            }
        }
        let (budget_bytes, expected) = chosen.expect("some budget must force a degradation");
        let cfg = faulty_config(1.0, budget_bytes, 4096);
        let mut ladder = LadderState::new(&cfg).unwrap();
        let mut mem = filled_memory();
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert_eq!(ladder.counters().fault_escalations, expected);
        assert_eq!(ladder.counters().uncorrectable_blocks, 0, "pool is oversized");
        // Escalations are per (snapshot, block): staging the (now
        // mutated) memory again may degrade again, and each decision
        // counts — the count can only grow.
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert!(ladder.counters().fault_escalations >= expected);
    }

    #[test]
    fn degraded_blocks_record_the_stream_they_actually_store() {
        // Under a tight budget the recorded bursts must reflect the
        // degraded stream (<= budget), not the fault-free decision.
        let e = trained();
        let scheme = Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        let budget_bytes = 32u32;
        let cfg = faulty_config(1.0, budget_bytes, 4096);
        let mut ladder = LadderState::new(&cfg).unwrap();
        let mut mem = filled_memory();
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert_eq!(ladder.counters().uncorrectable_blocks, 0);
        let plan = ladder.into_plan();
        let map = acc.into_map();
        let max_bursts = Mag::GDDR5.bursts_for_bytes(budget_bytes, BLOCK_BYTES as u32).max(1);
        for (region, addr, _) in mem.blocks_with_addr() {
            // Remapped blocks live in a healthy spare row at full
            // capacity; everything else must fit the faulty row.
            if region.safe_to_approx && plan.slot_of(addr).is_none() {
                assert!(
                    BurstsSource::bursts(&map, addr) <= max_bursts,
                    "block {addr} stored beyond the surviving capacity"
                );
            }
        }
    }

    #[test]
    fn fault_staged_bytes_and_bursts_match_a_real_encode_and_decode() {
        // The walk refills holes directly and prices a refit from its
        // verdict; the replay resolves the same blocks in the same order
        // and really encodes and decodes every one of them, on every rung.
        let e = trained();
        let scheme = Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        let Scheme::Slc(slc) = &scheme else { unreachable!() };
        let pristine = off_grid_memory();
        let before = SnapshotAnalysis::capture(&e, &pristine);
        let blocks = |m: &GpuMemory| m.all_blocks().map(|(_, b)| b).collect::<Vec<_>>();
        let pre = blocks(&pristine);
        let (mut squeezed, mut degraded, mut unstorable) = (0, 0, 0);
        for budget_bytes in (8..BLOCK_BYTES as u32).step_by(8) {
            let cfg = faulty_config(1.0, budget_bytes, 4);
            let mut ladder = LadderState::new(&cfg).unwrap();
            let mut staged = pristine.clone();
            let mut acc = BurstsAccumulator::new(Mag::GDDR5);
            ladder.stage_and_record(&scheme, &mut staged, &mut acc);
            let post = blocks(&staged);
            let recorded = acc.into_map();
            let mut replay = LadderState::new(&cfg).unwrap();
            for (i, b) in before.entries().iter().enumerate() {
                let addr = i as BlockAddr;
                let what = format!("budget {budget_bytes} B, block {addr}");
                let verdict = if b.approximable {
                    replay.resolve_fit(addr, |bits| slc.fit_within_with(&b.analysis, bits))
                } else {
                    replay.resolve_sized(addr, b.analysis.e2mc_size_bits())
                };
                match verdict {
                    LadderVerdict::Refit(FitOutcome::Lossless { .. }) => squeezed += 1,
                    LadderVerdict::Refit(_) => degraded += 1,
                    LadderVerdict::Remapped | LadderVerdict::Uncorrectable => unstorable += 1,
                    LadderVerdict::Intact => {}
                }
                // An imposed form costs its own stream; any other block
                // what encoding the staged bytes stores.
                let (stored, bursts) = match verdict {
                    LadderVerdict::Refit(fit) => {
                        let c = slc.compress_fitted(&pre[i], &b.analysis, fit);
                        (slc.decompress(&c), c.bursts())
                    }
                    _ if b.approximable => {
                        let stored = slc.decompress(&slc.compress_with(&pre[i], &b.analysis));
                        (stored, slc.compress(&stored).bursts())
                    }
                    _ => (pre[i], scheme.bursts_for_analysis(&b.analysis, Mag::GDDR5, false)),
                };
                assert_eq!(post[i], stored, "{what}: staged bytes");
                assert_eq!(BurstsSource::bursts(&recorded, addr), bursts, "{what}: bursts");
            }
            assert_eq!(ladder.counters(), replay.counters(), "budget {budget_bytes} B");
        }
        assert!(
            squeezed > 0 && degraded > 0 && unstorable > 0,
            "rungs missed: {squeezed} squeezed, {degraded} degraded, {unstorable} unstorable"
        );
    }

    #[test]
    fn verbatim_blocks_squeeze_lossless_through_the_walk() {
        // The one rung with no data loss and no escalation: a block the
        // fault-free pipeline stores verbatim (its lossless stream saves
        // no bursts) squeezes into a faulty row as that stream.
        use slc_core::header::LOSSLESS_HEADER_BITS;
        let e = trained();
        let scheme = Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        let Scheme::Slc(slc) = &scheme else { unreachable!() };
        let mut mem = off_grid_memory();
        let snap = SnapshotAnalysis::capture(&e, &mem);
        let approx = || {
            let entries = snap.entries().iter().enumerate();
            entries.filter(|(_, b)| b.approximable).map(|(i, b)| (i as BlockAddr, b))
        };
        let fit =
            |b: &AnalyzedBlock, budget_bytes| slc.fit_within_with(&b.analysis, budget_bytes * 8);
        let (budget_bytes, squeezed) = (8..BLOCK_BYTES as u32)
            .rev()
            .find_map(|budget| {
                let squeezed: Vec<_> = approx()
                    .filter(|(_, b)| matches!(fit(b, budget), FitOutcome::Lossless { .. }))
                    .collect();
                (!squeezed.is_empty()).then_some((budget, squeezed))
            })
            .expect("some budget must squeeze a verbatim block");
        let degraded = approx()
            .filter(|(_, b)| matches!(fit(b, budget_bytes), FitOutcome::Degraded { .. }))
            .count() as u64;
        let mut ladder = LadderState::new(&faulty_config(1.0, budget_bytes, 4096)).unwrap();
        let before = mem.clone();
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert_eq!(ladder.counters().fault_escalations, degraded, "a squeeze is no escalation");
        let map = acc.into_map();
        let block_at = |m: &GpuMemory, addr| {
            *m.blocks_with_addr().find(|&(_, a, _)| a == addr).expect("block is mapped").2
        };
        for (addr, b) in squeezed {
            assert_eq!(block_at(&mem, addr), block_at(&before, addr), "block {addr}");
            let stream_bits = LOSSLESS_HEADER_BITS + b.analysis.total_code_bits();
            assert_eq!(
                BurstsSource::bursts(&map, addr),
                Mag::GDDR5.bursts_for_bits(stream_bits, BLOCK_BYTES as u32),
                "block {addr} must record the stream it stores"
            );
        }
    }
}
