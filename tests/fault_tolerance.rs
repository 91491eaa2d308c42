//! Fault-injection integration: the graceful-degradation ladder across
//! the functional and timing stacks.
//!
//! Pins the PR's acceptance properties end to end:
//! * a present-but-zero-density fault map is byte-identical to no fault
//!   subsystem at all, for every scheme;
//! * a fixed seed reproduces the sweep exactly;
//! * uncorrectable/remap counts are monotone in density (the fault sets
//!   nest by construction, so demand can only grow);
//! * the ladder counters reconcile exactly with an independent per-block
//!   replay of the ladder decisions.

use slc::slc_core::slc::SlcVariant;
use slc::slc_sim::fault::FaultMap;
use slc::slc_sim::{FaultConfig, FaultPattern};
use slc::slc_workloads::{workload_by_name, Harness, Scale, Scheme};
use std::collections::HashSet;

fn harness() -> Harness {
    Harness::new(Scale::Tiny)
}

fn faulty(h: &Harness, fault: FaultConfig) -> Harness {
    h.clone().with_config(h.config.clone().with_faults(fault))
}

#[test]
fn zero_density_faults_are_byte_identical_to_no_faults() {
    let h = harness();
    let w = workload_by_name("NN", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let hf = faulty(&h, FaultConfig::new(FaultPattern::RandomRows, 0.0, 42));
    for scheme in [
        Scheme::Uncompressed,
        Scheme::E2mc(a.e2mc.clone()),
        Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt),
    ] {
        let (f0, t0) = h.evaluate(w.as_ref(), &a, &scheme);
        let (f1, t1) = hf.evaluate(w.as_ref(), &a, &scheme);
        let label = scheme.kind().label();
        assert_eq!(f0.error_pct, f1.error_pct, "{label}: functional error drifted");
        assert_eq!(f0.mre_pct, f1.mre_pct, "{label}: MRE drifted");
        assert_eq!(f0.psnr_db, f1.psnr_db, "{label}: PSNR drifted");
        assert_eq!(f0.max_abs_err, f1.max_abs_err, "{label}: max error drifted");
        assert_eq!(f0.bursts, f1.bursts, "{label}: burst map drifted");
        assert_eq!(t0.stats, t1.stats, "{label}: timing stats drifted");
        let plan = f1.fault.expect("faulty config must produce a plan");
        assert_eq!(plan.counters().remaps, 0);
        assert_eq!(plan.counters().uncorrectable_blocks, 0);
        assert_eq!(plan.counters().fault_escalations, 0);
        assert!(f0.fault.is_none(), "fault-free path must not build a plan");
    }
}

#[test]
fn fault_sweep_is_deterministic_under_a_fixed_seed() {
    let h = harness();
    let w = workload_by_name("BS", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let scheme = Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
    let fault = FaultConfig::new(FaultPattern::RandomRows, 0.2, 7);
    let hf = faulty(&h, fault);
    let (fa, ta) = hf.evaluate(w.as_ref(), &a, &scheme);
    let (fb, tb) = hf.evaluate(w.as_ref(), &a, &scheme);
    assert_eq!(fa.error_pct, fb.error_pct);
    assert_eq!(fa.psnr_db, fb.psnr_db);
    assert_eq!(fa.bursts, fb.bursts);
    assert_eq!(ta.stats, tb.stats);
    let (ca, cb) = (*fa.fault.expect("plan").counters(), *fb.fault.expect("plan").counters());
    assert_eq!(ca, cb);
    // Structural ladder invariants: the pool never frees slots, so the
    // occupancy peak is exactly the remap count and bounded by the pool.
    assert_eq!(ca.remaps, ca.spare_occupancy_peak);
    assert!(ca.spare_occupancy_peak <= u64::from(hf.config.fault.as_ref().unwrap().spare_blocks));
}

#[test]
fn demand_counters_are_monotone_in_density() {
    // Lossless staging is the identity, so every density sees the same
    // block contents and the nested fault sets make demand — and with it
    // remaps and uncorrectable counts — monotone, never by luck.
    let h = harness();
    let w = workload_by_name("NN", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let scheme = Scheme::E2mc(a.e2mc.clone());
    let mut last_remaps = 0u64;
    let mut last_uncorrectable = 0u64;
    for density in [0.0, 0.05, 0.2, 0.5, 1.0] {
        let fault = FaultConfig::new(FaultPattern::RandomRows, density, 9)
            .with_budget_bytes(8)
            .with_spare_blocks(16);
        let hf = faulty(&h, fault);
        let f = hf.run_functional(w.as_ref(), &a, &scheme);
        let c = *f.fault.expect("plan").counters();
        assert!(
            c.remaps >= last_remaps,
            "remaps fell from {last_remaps} to {} at density {density}",
            c.remaps
        );
        assert!(
            c.uncorrectable_blocks >= last_uncorrectable,
            "uncorrectable fell from {last_uncorrectable} to {} at density {density}",
            c.uncorrectable_blocks
        );
        last_remaps = c.remaps;
        last_uncorrectable = c.uncorrectable_blocks;
    }
    // The top of the sweep must have actually exercised both rungs.
    assert_eq!(last_remaps, 16, "a full-density sweep should exhaust the pool");
    assert!(last_uncorrectable > 0, "an exhausted pool must strand blocks");
}

#[test]
fn ladder_counters_reconcile_with_an_independent_replay() {
    // The lossless scheme never mutates memory, so the exact run's
    // cached per-boundary stored sizes are precisely what the ladder saw
    // — replay its decisions from first principles (fault map + stream
    // sizes + FCFS pool) and demand the counters match exactly.
    let h = harness();
    let w = workload_by_name("BS", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let scheme = Scheme::E2mc(a.e2mc.clone());
    let fault = FaultConfig::new(FaultPattern::RandomRows, 0.3, 11)
        .with_budget_bytes(8)
        .with_spare_blocks(4);
    let hf = faulty(&h, fault.clone());
    let f = hf.run_functional(w.as_ref(), &a, &scheme);
    let plan = f.fault.expect("plan");

    let map = FaultMap::build(&hf.config, &fault);
    let budget = fault.budget_bits();
    let mut remapped: HashSet<u64> = HashSet::new();
    let mut lost: HashSet<u64> = HashSet::new();
    for sizes in a.exact_size_snapshots(w.as_ref()) {
        for ((_, addr, _), &bits) in a.exact_memory.blocks_with_addr().zip(sizes.iter()) {
            if !map.is_faulty(addr)
                || remapped.contains(&addr)
                || lost.contains(&addr)
                || u32::from(bits) <= budget
            {
                continue;
            }
            if (remapped.len() as u32) < fault.spare_blocks {
                remapped.insert(addr);
            } else {
                lost.insert(addr);
            }
        }
    }
    let c = plan.counters();
    assert_eq!(c.fault_escalations, 0, "lossless blocks never escalate");
    assert_eq!(c.remaps, remapped.len() as u64);
    assert_eq!(c.spare_occupancy_peak, remapped.len() as u64);
    assert_eq!(c.uncorrectable_blocks, lost.len() as u64);
    assert!(c.remaps > 0 && c.uncorrectable_blocks > 0, "config must exercise both rungs");
    for addr in &remapped {
        assert!(plan.slot_of(*addr).is_some(), "replayed remap {addr} missing from the plan");
    }
    for addr in &lost {
        assert!(plan.slot_of(*addr).is_none(), "stranded block {addr} holds a slot");
    }
}

#[test]
fn remapped_blocks_pay_their_indirection_in_the_timing_run() {
    let h = harness();
    let w = workload_by_name("NN", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let scheme = Scheme::E2mc(a.e2mc.clone());
    let (f0, t0) = h.evaluate(w.as_ref(), &a, &scheme);
    // A 2 B budget is below any header: every faulty block must remap
    // (the pool is oversized), and each of its DRAM fetches then carries
    // an extra pointer burst the healthy run never pays.
    let fault = FaultConfig::new(FaultPattern::RandomRows, 1.0, 3)
        .with_budget_bytes(2)
        .with_spare_blocks(1 << 20);
    let hf = faulty(&h, fault);
    let (f1, t1) = hf.evaluate(w.as_ref(), &a, &scheme);
    assert_eq!(f0.bursts, f1.bursts, "lossless staging records the same stored forms");
    let c = f1.fault.as_ref().expect("plan").counters();
    assert!(c.remaps > 0);
    assert_eq!(c.uncorrectable_blocks, 0, "the oversized pool must absorb everything");
    assert_eq!(t1.stats.remaps, c.remaps, "counters must surface in SimStats");
    assert!(
        t1.stats.read_bursts > t0.stats.read_bursts,
        "remapped fetches must pay pointer bursts: {} vs {}",
        t1.stats.read_bursts,
        t0.stats.read_bursts
    );
}
