//! Ablations of the design choices the paper leaves open, on NN's
//! approximable blocks at tiny scale:
//!
//! * TSLC-OPT's staggered extra nodes vs the plain tree
//!   (over-approximation reduction, §III-F).
//! * Predictor kind: zero-fill vs the paper's literal first-symbol rule
//!   vs lane-matched (§III-E).
//! * Metadata cache size (Fig. 3's MDC).
//!
//! The lossy-threshold sweep lives in `threshold_explorer`.
//!
//! ```sh
//! cargo run --release --example ablation
//! ```

use slc::slc_compress::symbols::block_to_symbols;
use slc::slc_compress::{Block, Mag};
use slc::slc_core::predict::PredictorKind;
use slc::slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc::slc_sim::mdc::{MetadataCache, BLOCKS_PER_META_LINE};
use slc::slc_workloads::{workload_by_name, Harness, Scale};

fn main() {
    let w = workload_by_name("NN", Scale::Tiny).expect("registered");
    let a = Harness::new(Scale::Tiny).prepare(w.as_ref());
    let blocks: Vec<Block> =
        a.exact_memory.all_blocks().filter(|(r, _)| r.safe_to_approx).map(|(_, b)| b).collect();

    println!("=== Ablation: TSLC-OPT extra tree nodes (over-approximation) ===");
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
            let orig = block_to_symbols(b);
            let dec = block_to_symbols(&slc.decompress(&enc));
            for (o, d) in orig.iter().zip(&dec) {
                let diff = f64::from(*o) - f64::from(*d);
                sq += diff * diff;
            }
        }
        println!(
            "{label:>30}: rms symbol error {:.1} over {lossy} lossy blocks",
            (sq / lossy.max(1) as f64).sqrt()
        );
    }

    // A load and a store stream, each revisiting its own 512 metadata
    // lines in a seeded random order: a fixed working set of 1 Ki lines.
    // Laid out back to back, no two lines share a slot once the cache
    // holds the set, so the hit rate of the direct-mapped MDC rises as
    // entries / 1024 and saturates. Laid out 2^13 lines apart, every line
    // of one stream shares its slot with one of the other in any cache of
    // up to 2^13 lines: capacity cannot buy back a conflict.
    let hit_rate = |entries: usize, store_base_line: u64| {
        let mut mdc = MetadataCache::new(entries);
        let mut state = 42u64;
        for _ in 0..1 << 16 {
            for base_line in [0, store_base_line] {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                mdc.access((base_line + (state >> 33) % 512) * BLOCKS_PER_META_LINE, false);
            }
        }
        mdc.hit_rate() * 100.0
    };
    println!("\n=== Ablation: metadata cache size (two streams revisiting 1 Ki lines) ===");
    println!("{:>10} {:>10}", "entries", "hit rate");
    for entries in [16usize, 64, 256, 512, 1024, 2048] {
        println!("{entries:>10} {:>9.2}%", hit_rate(entries, 512));
    }
    println!("{:>10} {:>9.2}%  (aliasing: 2^13 lines apart)", 2048, hit_rate(2048, 1 << 13));
}
