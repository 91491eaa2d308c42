//! Diagnostic: per-region mean compressed sizes and Fig. 4 mode rates
//! (lossy / capacity-miss / lossless / verbatim), for the initial and
//! final memory images. Not a paper figure — a tuning aid.
use slc_compress::{BlockCompressor, BLOCK_BYTES};
use slc_core::budget::ModeChoice;
use slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc_workloads::{all_workloads, Harness, Scale};

fn main() {
    let scale = Scale::from_env();
    let h = Harness::new(scale);
    let mag = h.config.mag();
    for w in all_workloads(scale) {
        let a = h.prepare(w.as_ref());
        let slc = SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(mag, 16, SlcVariant::TslcOpt));
        println!("{}:", a.name);
        let initial = a.initial_memory();
        for (which, memref) in [("init", &initial), ("final", &a.exact_memory)] {
            for region in memref.regions() {
                let bytes = memref.region_bytes(region);
                let mut sizes = 0u64;
                let mut n = 0u64;
                let (mut lossy, mut lossless, mut uncomp, mut missed) = (0u64, 0u64, 0u64, 0u64);
                for chunk in bytes.chunks_exact(BLOCK_BYTES) {
                    let mut b = [0u8; BLOCK_BYTES];
                    b.copy_from_slice(chunk);
                    sizes += a.e2mc.size_bits(&b) as u64 / 8;
                    n += 1;
                    let (d, sel) = slc.analyze_with(&slc.analysis(&b));
                    match (d.mode, sel) {
                        (ModeChoice::Lossy, Some(_)) => lossy += 1,
                        (ModeChoice::Lossy, None) => missed += 1,
                        (ModeChoice::Uncompressed, _) => uncomp += 1,
                        _ => lossless += 1,
                    }
                }
                println!("  {which:>5} {:>20} mean {:>5.1}B  lossy {:>4.1}%  capacity-miss {:>4.1}%  lossless {:>4.1}%  uncomp {:>4.1}%",
                region.label, sizes as f64 / n as f64,
                100.0 * lossy as f64 / n as f64, 100.0 * missed as f64 / n as f64,
                100.0 * lossless as f64 / n as f64, 100.0 * uncomp as f64 / n as f64);
            }
        }
    }
}
