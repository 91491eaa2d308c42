//! Ablations of the design choices DESIGN.md calls out:
//!
//! * TSLC-OPT's staggered extra nodes vs the plain tree (over-
//!   approximation reduction, §III-F).
//! * Predictor kind: zero-fill vs the paper's literal first-symbol rule
//!   vs lane-matched (§III-E and DESIGN.md's faithfulness note).
//! * Lossy threshold sweep (the programmer knob of §IV-C).
//! * Metadata cache size (Fig. 3's MDC).
//!
//! Each ablation prints its comparison table once, then benches one
//! representative configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use slc_compress::symbols::block_to_symbols;
use slc_compress::{Block, Mag};
use slc_core::predict::PredictorKind;
use slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc_sim::mdc::MetadataCache;
use slc_workloads::{workload_by_name, Harness, Scale, Scheme};

fn artifacts() -> (Harness, slc_workloads::BenchmarkArtifacts, Vec<Block>) {
    let h = Harness::new(Scale::Tiny);
    let w = workload_by_name("NN", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let blocks: Vec<Block> =
        a.exact_memory.all_blocks().filter(|(r, _)| r.safe_to_approx).map(|(_, b)| b).collect();
    (h, a, blocks)
}

fn ablate_opt_nodes(c: &mut Criterion) {
    let (_, a, blocks) = artifacts();
    println!("\n=== Ablation: TSLC-OPT extra tree nodes (over-approximation) ===");
    for (label, variant) in [
        ("plain tree (TSLC-PRED)", SlcVariant::TslcPred),
        ("extra nodes (TSLC-OPT)", SlcVariant::TslcOpt),
    ] {
        let slc = SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, variant));
        let mut lossy = 0u64;
        let mut symbols = 0u64;
        let mut over_bits = 0u64;
        for b in &blocks {
            let (decision, selection) = slc.analyze_with(&slc.analysis(b));
            if let Some(sel) = selection {
                lossy += 1;
                symbols += sel.symbols as u64;
                over_bits += u64::from(sel.freed_bits.saturating_sub(decision.extra_bits));
            }
        }
        println!(
            "{label:>24}: {lossy} lossy blocks, {:.2} symbols/block, {:.1} over-approximated bits/block",
            symbols as f64 / lossy.max(1) as f64,
            over_bits as f64 / lossy.max(1) as f64
        );
    }
    let slc =
        SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
    c.bench_function("ablation/analyze_opt", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % blocks.len();
            slc.analyze_with(&slc.analysis(&blocks[i]))
        })
    });
}

fn ablate_predictor(c: &mut Criterion) {
    let (_, a, blocks) = artifacts();
    println!("\n=== Ablation: predictor kind (decompression fill-in) ===");
    for (label, kind) in [
        ("zero-fill (TSLC-SIMP)", PredictorKind::Zero),
        ("first symbol (paper literal)", PredictorKind::FirstSymbol),
        ("lane-matched (default)", PredictorKind::LaneMatched),
    ] {
        let slc = SlcCompressor::new(
            a.e2mc.clone(),
            SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcPred).with_predictor(kind),
        );
        let mut sq = 0.0f64;
        let mut lossy = 0u64;
        for b in &blocks {
            let enc = slc.compress(b);
            if !enc.is_lossy() {
                continue;
            }
            lossy += 1;
            let out = slc.decompress(&enc);
            let orig = block_to_symbols(b);
            let dec = block_to_symbols(&out);
            for i in 0..64 {
                let d = f64::from(orig[i]) - f64::from(dec[i]);
                sq += d * d;
            }
        }
        println!(
            "{label:>30}: rms symbol error {:.1} over {lossy} lossy blocks",
            (sq / lossy.max(1) as f64).sqrt()
        );
    }
    let slc =
        SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcPred));
    let lossy: Vec<_> = blocks.iter().map(|b| slc.compress(b)).filter(|e| e.is_lossy()).collect();
    c.bench_function("ablation/decompress_lossy", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % lossy.len();
            slc.decompress(&lossy[i])
        })
    });
}

fn ablate_threshold(c: &mut Criterion) {
    let (h, a, _) = artifacts();
    let w = workload_by_name("NN", Scale::Tiny).expect("registered");
    println!("\n=== Ablation: lossy threshold sweep (MAG 32 B) ===");
    println!("{:>10} {:>12} {:>12}", "threshold", "mean bursts", "error %");
    for thr in [0u32, 4, 8, 16, 24, 32] {
        let scheme = Scheme::slc(a.e2mc.clone(), h.config.mag(), thr, SlcVariant::TslcOpt);
        let f = h.run_functional(w.as_ref(), &a, &scheme);
        println!("{:>9}B {:>12.3} {:>12.4}", thr, f.bursts.mean_bursts(), f.error_pct);
    }
    let scheme = Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.bench_function("functional_pass_thr16", |b| {
        b.iter(|| h.run_functional(w.as_ref(), &a, &scheme))
    });
    g.finish();
}

fn ablate_mdc(c: &mut Criterion) {
    println!("\n=== Ablation: metadata cache size (streaming 64k blocks) ===");
    println!("{:>10} {:>10}", "entries", "hit rate");
    for entries in [16usize, 64, 256, 512, 2048] {
        let mut mdc = MetadataCache::new(entries);
        // Two interleaved streams, as in a load+store kernel.
        for i in 0..32_768u64 {
            mdc.access(i, false);
            mdc.access(1 << 20 | i, false);
        }
        println!("{entries:>10} {:>9.2}%", mdc.hit_rate() * 100.0);
    }
    c.bench_function("ablation/mdc_access", |b| {
        let mut mdc = MetadataCache::new(512);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            mdc.access(i, false)
        })
    });
}

criterion_group!(benches, ablate_opt_nodes, ablate_predictor, ablate_threshold, ablate_mdc);
criterion_main!(benches);
