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
use slc::slc_sim::mdc::MetadataCache;
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

    // Two interleaved streams, as in a load+store kernel. They sit 2^20
    // blocks (2^13 metadata lines) apart, so in a direct-mapped MDC of up
    // to 2^13 lines they share every slot and evict each other: the hit
    // rate is zero at every size — capacity cannot buy back a conflict.
    println!("\n=== Ablation: metadata cache size (streaming 64k blocks) ===");
    println!("{:>10} {:>10}", "entries", "hit rate");
    for entries in [16usize, 64, 256, 512, 2048] {
        let mut mdc = MetadataCache::new(entries);
        for i in 0..32_768u64 {
            mdc.access(i, false);
            mdc.access(1 << 20 | i, false);
        }
        println!("{entries:>10} {:>9.2}%", mdc.hit_rate() * 100.0);
    }
}
