//! Cross-crate integration: SLC's paper-level invariants hold on real
//! workload data, end to end.

use slc::slc_compress::symbols::block_to_symbols;
use slc::slc_compress::{BlockCompressor, Mag};
use slc::slc_core::predict::PredictorKind;
use slc::slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant, StoredKind};
use slc::slc_sim::RegionBlocks;
use slc::slc_workloads::{all_workloads, Harness, Scale, Scheme, SnapshotAnalysis};

fn harness() -> Harness {
    Harness::new(Scale::Tiny)
}

#[test]
fn slc_never_costs_more_bursts_than_e2mc() {
    let h = harness();
    for w in all_workloads(Scale::Tiny) {
        let a = h.prepare(w.as_ref());
        let slc =
            SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
        for (region, block) in a.exact_memory.all_blocks() {
            if !region.safe_to_approx {
                continue;
            }
            let slc_bursts = slc.stored_bursts_with(&slc.analysis(&block));
            let e2mc_bursts = Mag::GDDR5.bursts_for_bits(a.e2mc.size_bits(&block), 128);
            assert!(
                slc_bursts <= e2mc_bursts,
                "{}: SLC {} > E2MC {} bursts",
                w.name(),
                slc_bursts,
                e2mc_bursts
            );
        }
    }
}

#[test]
fn lossy_blocks_differ_only_in_approximated_symbols() {
    let h = harness();
    let mut lossy_seen = 0usize;
    for w in all_workloads(Scale::Tiny) {
        let a = h.prepare(w.as_ref());
        let slc =
            SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
        for (region, block) in a.exact_memory.all_blocks().step_by(7) {
            if !region.safe_to_approx {
                continue;
            }
            let enc = slc.compress(&block);
            let out = slc.decompress(&enc);
            match enc.kind() {
                StoredKind::Lossy { selection } => {
                    lossy_seen += 1;
                    let orig = block_to_symbols(&block);
                    let dec = block_to_symbols(&out);
                    for i in (0..64).filter(|i| !selection.hole.symbols().contains(i)) {
                        assert_eq!(orig[i], dec[i], "{}: symbol {i} leaked", w.name());
                    }
                }
                _ => assert_eq!(out, block, "{}: lossless must be exact", w.name()),
            }
        }
    }
    assert!(lossy_seen > 50, "only {lossy_seen} lossy blocks across the suite");
}

#[test]
fn staging_honours_the_lossy_contract_at_the_memory_level() {
    // The same contract one level up, through the harness' staging walk:
    // whatever the variant and threshold, staging touches approximable
    // blocks only, and those only inside the hole the pre-stage analysis
    // selects; the snapshot it returns describes the staged memory.
    let h = harness();
    let mut changed = 0usize;
    for w in all_workloads(Scale::Tiny) {
        let a = h.prepare(w.as_ref());
        let before = SnapshotAnalysis::capture(&a.e2mc, &a.exact_memory);
        for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
            for threshold in 0..=32 {
                let scheme = Scheme::slc(a.e2mc.clone(), Mag::GDDR5, threshold, variant);
                let Scheme::Slc(slc) = &scheme else { unreachable!() };
                let what = format!("{} {variant:?} threshold {threshold}", w.name());
                let mut staged = a.exact_memory.clone();
                let snapshot = scheme.stage_analyzed(&mut staged).expect("SLC has a table");
                let blocks = a.exact_memory.blocks_with_addr().zip(staged.blocks_with_addr());
                for (((region, addr, pre), (_, _, post)), entry) in blocks.zip(before.entries()) {
                    if pre == post {
                        continue;
                    }
                    changed += 1;
                    assert!(region.safe_to_approx, "{what}: exact block {addr} changed");
                    assert_ne!(threshold, 0, "{what}: block {addr} changed");
                    let (_, selection) = slc.analyze_with(&entry.analysis);
                    let hole = selection.map_or(0..0, |s| s.hole.symbols());
                    let (orig, dec) = (block_to_symbols(pre), block_to_symbols(post));
                    for i in (0..64).filter(|i| !hole.contains(i)) {
                        assert_eq!(orig[i], dec[i], "{what}: block {addr} symbol {i} leaked");
                    }
                }
                let recaptured = SnapshotAnalysis::capture(&a.e2mc, &staged);
                assert_eq!(snapshot.entries(), recaptured.entries(), "{what}");
                // And the walk leaves what encode → decode per block returns.
                let mut oracle = a.exact_memory.clone();
                for (_, blocks) in oracle.regions_mut() {
                    let RegionBlocks::Approx(blocks) = blocks else { continue };
                    for block in blocks {
                        *block = slc.decompress(&slc.compress(block));
                    }
                }
                let same = staged.blocks_with_addr().eq(oracle.blocks_with_addr());
                assert!(same, "{what}: staged memory differs from the per-block round trip");
            }
        }
    }
    assert!(changed > 1000, "only {changed} staged blocks changed across the sweep");
}

#[test]
fn stored_size_respects_bit_budget() {
    let h = harness();
    for w in all_workloads(Scale::Tiny) {
        let a = h.prepare(w.as_ref());
        let slc =
            SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
        for (_, block) in a.exact_memory.all_blocks().step_by(11) {
            let enc = slc.compress(&block);
            if let StoredKind::Lossy { .. } = enc.kind() {
                assert!(
                    enc.size_bits() <= enc.decision().bit_budget,
                    "{}: lossy block {} bits over budget {}",
                    w.name(),
                    enc.size_bits(),
                    enc.decision().bit_budget
                );
            }
        }
    }
}

#[test]
fn predictors_order_by_quality_on_smooth_data() {
    // zero-fill <= first-symbol <= lane-matched on value-similar data.
    let h = harness();
    let w = all_workloads(Scale::Tiny).remove(6); // NN: random-walk tracks
    let a = h.prepare(w.as_ref());
    let mk = |p: PredictorKind| {
        SlcCompressor::new(
            a.e2mc.clone(),
            SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcPred).with_predictor(p),
        )
    };
    let zero = mk(PredictorKind::Zero);
    let lane = mk(PredictorKind::LaneMatched);
    let mut err_zero = 0.0f64;
    let mut err_lane = 0.0f64;
    let mut lossy = 0;
    for (region, block) in a.exact_memory.all_blocks() {
        if !region.safe_to_approx {
            continue;
        }
        let enc = zero.compress(&block);
        if !enc.is_lossy() {
            continue;
        }
        lossy += 1;
        let sq = |out: &[u8; 128]| -> f64 {
            block
                .chunks_exact(4)
                .zip(out.chunks_exact(4))
                .map(|(a, b)| {
                    let x = f32::from_le_bytes(a.try_into().unwrap());
                    let y = f32::from_le_bytes(b.try_into().unwrap());
                    if y.is_finite() {
                        (f64::from(x) - f64::from(y)).powi(2)
                    } else {
                        1e12
                    }
                })
                .sum()
        };
        err_zero += sq(&zero.decompress(&enc));
        let enc_lane = lane.compress(&block);
        err_lane += sq(&lane.decompress(&enc_lane));
    }
    assert!(lossy > 10, "need lossy blocks to compare, got {lossy}");
    assert!(err_lane < err_zero, "lane-matched {err_lane:.1} must beat zero-fill {err_zero:.1}");
}

#[test]
fn wider_mag_means_fewer_interior_budget_points() {
    // §V-C: the effective ratio falls as MAG grows because fewer sizes
    // admit any compression win.
    let h = harness();
    let w = all_workloads(Scale::Tiny).remove(4); // TP
    let a = h.prepare(w.as_ref());
    let mut gains = Vec::new();
    for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
        let slc = SlcCompressor::new(
            a.e2mc.clone(),
            SlcConfig::new(mag, mag.bytes() / 2, SlcVariant::TslcOpt),
        );
        let max = 128 / mag.bytes();
        let mut saved = 0u64;
        let mut total = 0u64;
        for (region, block) in a.exact_memory.all_blocks() {
            if !region.safe_to_approx {
                continue;
            }
            total += u64::from(max);
            saved += u64::from(max - slc.stored_bursts_with(&slc.analysis(&block)));
        }
        gains.push(saved as f64 / total as f64);
    }
    // Some benefit must exist at every MAG for this compressible workload.
    assert!(gains.iter().all(|&g| g > 0.0), "gains {gains:?}");
}
