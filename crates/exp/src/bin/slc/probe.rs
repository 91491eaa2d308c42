//! `slc probe …`: diagnostics that are not paper figures — per-benchmark
//! bursts and region outcomes, the scheduler matrix, the framed-container
//! round trip, the ablations and the threshold sweep.

use std::sync::Arc;

use slc_compress::symbols::block_to_symbols;
use slc_compress::{Block, BlockCodec, BlockCompressor, BLOCK_BYTES};
use slc_core::budget::ModeChoice;
use slc_core::predict::PredictorKind;
use slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc_engine::{frame_info, Engine, Threads};
use slc_sim::cache::Cache;
use slc_sim::mc::UniformBursts;
use slc_sim::SchedPolicy;
use slc_workloads::benchmarks::nn::Nn;
use slc_workloads::harness::speedup;
use slc_workloads::{all_workloads, compress_snapshot, snapshot_bytes, snapshot_engine};
use slc_workloads::{Harness, Scale, Scheme, SnapshotAnalysis, Workload};

/// `bursts`: per-benchmark burst counts, bandwidth utilisation and
/// TSLC-OPT speedup at a glance.
pub fn bursts(scale: Scale) {
    let h = Harness::new(scale);
    let mag = h.config.mag();
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "bench", "e2mc_bur", "slc_bur", "nocomp", "bw_no", "bw_e2mc", "bw_slc", "speedup"
    );
    for w in all_workloads(scale) {
        let a = h.prepare(w.as_ref());
        let (_, t0) = h.evaluate(w.as_ref(), &a, &Scheme::Uncompressed);
        let e = Scheme::E2mc(a.e2mc.clone());
        let (f1, t1) = h.evaluate(w.as_ref(), &a, &e);
        let s = Scheme::slc(a.e2mc.clone(), mag, 16, SlcVariant::TslcOpt);
        let (f2, t2) = h.evaluate(w.as_ref(), &a, &s);
        let bw = |st: &slc_sim::SimStats| {
            st.achieved_bandwidth_gbps(mag.bytes()) / h.config.bandwidth_gbps()
        };
        println!(
            "{:>6} {:>9.3} {:>9.3} {:>9} {:>8.2} {:>8.2} {:>8.2} {:>7.3}",
            a.name,
            f1.bursts.mean_bursts(),
            f2.bursts.mean_bursts(),
            h.config.max_bursts(),
            bw(&t0.stats),
            bw(&t1.stats),
            bw(&t2.stats),
            speedup(&t1.stats, &t2.stats)
        );
    }
}

/// `regions`: per-region mean compressed sizes and Fig. 4 mode rates
/// (lossy / capacity-miss / lossless / verbatim), for the initial and
/// final memory images.
pub fn regions(scale: Scale) {
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
                for b in bytes.as_chunks::<BLOCK_BYTES>().0 {
                    sizes += a.e2mc.size_bits(b) as u64 / 8;
                    n += 1;
                    let (d, sel) = slc.analyze_with(&slc.analysis(b));
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

/// `sched`: cycles under the scheduler-policy matrix.
///
/// For every benchmark, NOCOMP cycles under {InOrder, FR-FCFS} × {MDC,
/// no MDC} and E2MC cycles under both policies, plus the FR-FCFS
/// write-drain telemetry of the E2MC run. The harness's NOCOMP run is
/// the `no_fr` column (FR-FCFS without an MDC); the other columns show
/// what an in-order channel and metadata traffic each add.
pub fn sched(scale: Scale) {
    let h = Harness::new(scale);
    println!("NOCOMP cycles per policy x MDC, E2MC cycles per policy (scale {scale:?})");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "bench",
        "no_in_mdc",
        "no_in",
        "no_fr_mdc",
        "no_fr",
        "e2mc_in",
        "e2mc_fr",
        "drains",
        "forced"
    );
    for w in all_workloads(scale) {
        let a = h.prepare(w.as_ref());
        let max = h.config.max_bursts();
        let nocomp = |policy: SchedPolicy, mdc: bool| {
            let mut cfg = h.config.clone().with_sched_policy(policy);
            if !mdc {
                cfg = cfg.without_mdc();
            }
            slc_sim::Engine::new(cfg).run(&a.trace, &UniformBursts(max)).cycles
        };
        let e2mc = Scheme::E2mc(a.e2mc.clone());
        let run_e2mc = |policy: SchedPolicy| {
            let h2 = h.clone().with_config(h.config.clone().with_sched_policy(policy));
            let f = h2.run_functional(w.as_ref(), &a, &e2mc);
            h2.run_timing(&a, &f, &e2mc).stats
        };
        let e2mc_in = run_e2mc(SchedPolicy::InOrder);
        let e2mc_fr = run_e2mc(SchedPolicy::FrFcfs);
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8}",
            a.name,
            nocomp(SchedPolicy::InOrder, true),
            nocomp(SchedPolicy::InOrder, false),
            nocomp(SchedPolicy::FrFcfs, true),
            nocomp(SchedPolicy::FrFcfs, false),
            e2mc_in.cycles,
            e2mc_fr.cycles,
            e2mc_fr.write_drains,
            e2mc_fr.write_drain_forced
        );
    }
}

/// Single-bit flips per container in the engine probe's hostile pass.
const HOSTILE_FLIPS: usize = 32;

/// Decodes `container` with one seeded bit flipped, [`HOSTILE_FLIPS`]
/// times; returns how many flips were rejected (the rest decoded to a
/// full-size buffer — a flip in a verbatim byte is just different data).
fn hostile_pass(engine: &Engine, container: &[u8], decoded_len: usize, seed: u64) -> usize {
    let mut hostile = container.to_vec();
    let mut state = seed | 1;
    let mut rejected = 0;
    for _ in 0..HOSTILE_FLIPS {
        // xorshift64*: reproducible from the seed alone.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let bit = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 16) as usize % (hostile.len() * 8);
        hostile[bit / 8] ^= 1 << (bit % 8);
        match engine.decompress_threads(&hostile, Threads::Auto) {
            Ok(out) => assert_eq!(out.len(), decoded_len, "bit {bit}: short decode"),
            Err(_) => rejected += 1,
        }
        hostile[bit / 8] ^= 1 << (bit % 8);
    }
    rejected
}

/// `engine`: every benchmark's exact snapshot through the batch engine,
/// the end-to-end check of the framed container path.
///
/// For each workload the probe concatenates the exact-region byte image
/// ([`snapshot_bytes`]), compresses it twice — once from scratch and
/// once through the cached-size fast path ([`compress_snapshot`]) — and
/// checks the two containers are byte-identical, that parallel decode
/// equals serial decode equals the original image, and prints the
/// image's size and the container's chunk count and compression ratio.
/// Any contract violation aborts the process, so a plain exit-0 run is
/// the pass signal. Nothing printed is timed, so the output is the same
/// bytes at any worker count; the container's throughput is the ledger's.
///
/// Each container then takes a seeded hostile pass: [`HOSTILE_FLIPS`]
/// single-bit flips, each decoded with nothing around the call — it
/// must come back `Err` or a buffer of the right size, and the counts
/// are printed. Built with `panic = "abort"` (CI does, through
/// `CARGO_PROFILE_RELEASE_PANIC`), a decode panic anywhere below the
/// engine kills the process instead of unwinding, which is how the
/// "decode never panics" contract is proven rather than caught.
///
/// `codec` swaps the substrate (`--codec rans|bdi`); `None` (`e2mc`, the
/// default) probes the trained snapshot codec. The cached-size identity
/// is asserted for every substrate — chunk coders document that they
/// ignore the size hints, and this is where that contract is exercised
/// end to end.
pub fn engine(scale: Scale, codec: Option<Arc<dyn BlockCodec>>) {
    let codec_name = codec.as_ref().map_or("e2mc", |c| c.id().name());
    let h = Harness::new(scale);
    println!(
        "Engine snapshot probe: framed container end-to-end (scale {scale:?}, codec {codec_name})"
    );
    println!("{:>6} {:>10} {:>8} {:>8} {:>9}", "bench", "bytes", "chunks", "ratio", "hostile");
    for w in all_workloads(scale) {
        let a = h.prepare(w.as_ref());
        let bytes = snapshot_bytes(&a.exact_memory);
        let engine = match &codec {
            Some(codec) => Engine::new(Arc::clone(codec)),
            None => snapshot_engine(&a.e2mc),
        };
        let snapshot = SnapshotAnalysis::capture(&a.e2mc, &a.exact_memory);

        let container = engine.compress_threads(&bytes, Threads::Auto);

        // The cached-size fast path must reproduce the container exactly:
        // per-block codecs because the hints equal their own size_bits,
        // chunk coders (rANS) because they ignore the hints entirely.
        let cached = compress_snapshot(&engine, &a.e2mc, &bytes, &snapshot, Threads::Auto);
        assert_eq!(
            container, cached,
            "{}: cached-size container differs from the from-scratch one",
            a.name
        );

        let parallel = engine
            .decompress_threads(&container, Threads::Auto)
            .expect("engine-produced container must decode");
        let serial = engine
            .decompress_threads(&container, Threads::Serial)
            .expect("engine-produced container must decode serially");
        assert_eq!(parallel, serial, "{}: parallel decode diverged from serial", a.name);
        assert_eq!(parallel, bytes, "{}: roundtrip is not byte-identical", a.name);

        let rejected = hostile_pass(&engine, &container, bytes.len(), bytes.len() as u64);
        let info = frame_info(&container).expect("engine-produced container must parse");
        println!(
            "{:>6} {:>10} {:>8} {:>8.3} {:>9}",
            a.name,
            bytes.len(),
            info.chunk_count,
            info.ratio(),
            format!("{rejected}/{HOSTILE_FLIPS}"),
        );
    }
    println!("all snapshots roundtripped byte-identically (parallel == serial == original)");
    println!(
        "hostile column: flips rejected / tried per container; every other flip decoded full-size"
    );
}

/// `ablation`: the design choices the paper leaves open, on NN's
/// approximable blocks:
///
/// * TSLC-OPT's staggered extra nodes vs the plain tree
///   (over-approximation reduction, §III-F).
/// * Predictor kind: zero-fill vs the paper's literal first-symbol rule
///   vs lane-matched (§III-E).
/// * Metadata cache size (Fig. 3's MDC).
///
/// The lossy-threshold sweep is [`threshold`].
pub fn ablation(scale: Scale) {
    let h = Harness::new(scale);
    let mag = h.config.mag();
    let a = h.prepare(&Nn::new(scale));
    let blocks: Vec<Block> =
        a.exact_memory.all_blocks().filter(|(r, _)| r.safe_to_approx).map(|(_, b)| b).collect();

    println!("=== Ablation: TSLC-OPT extra tree nodes (over-approximation) ===");
    for (label, variant) in [
        ("plain tree (TSLC-PRED)", SlcVariant::TslcPred),
        ("extra nodes (TSLC-OPT)", SlcVariant::TslcOpt),
    ] {
        let slc = SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(mag, 16, variant));
        let mut lossy = 0u64;
        let mut symbols = 0u64;
        let mut over_bits = 0u64;
        for b in &blocks {
            let (decision, selection) = slc.analyze_with(&slc.analysis(b));
            if let Some(sel) = selection {
                lossy += 1;
                symbols += sel.hole.symbols().len() as u64;
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
            SlcConfig::new(mag, 16, SlcVariant::TslcPred).with_predictor(kind),
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
        let mut mdc = Cache::new(entries, 1);
        let mut state = 42u64;
        for _ in 0..1 << 16 {
            for base_line in [0, store_base_line] {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                mdc.access(base_line + (state >> 33) % 512, false);
            }
        }
        mdc.hits() as f64 / (mdc.hits() + mdc.misses()) as f64 * 100.0
    };
    println!("\n=== Ablation: metadata cache size (two streams revisiting 1 Ki lines) ===");
    println!("{:>10} {:>10}", "entries", "hit rate");
    for entries in [16usize, 64, 256, 512, 1024, 2048] {
        println!("{entries:>10} {:>9.2}%", hit_rate(entries, 512));
    }
    println!("{:>10} {:>9.2}%  (aliasing: 2^13 lines apart)", 2048, hit_rate(2048, 1 << 13));
}

/// `threshold [BENCH]`: sweeps the programmer-specified lossy threshold
/// for one benchmark (default NN) to show the accuracy/traffic trade-off
/// move — the knob the paper's extended `cudaMalloc` exposes (§IV-C).
pub fn threshold(scale: Scale, w: &dyn Workload) {
    let h = Harness::new(scale);
    println!("Benchmark {} ({}), metric {}", w.name(), w.input_description(), w.metric().label());
    let a = h.prepare(w);
    let (_, t_base) = h.evaluate(w, &a, &Scheme::E2mc(a.e2mc.clone()));

    println!("\n{:>10}  {:>12}  {:>10}  {:>10}", "threshold", "mean bursts", "speedup", "error");
    for threshold in [0u32, 2, 4, 8, 12, 16, 24, 32] {
        let scheme = Scheme::slc(a.e2mc.clone(), h.config.mag(), threshold, SlcVariant::TslcOpt);
        let (f, t) = h.evaluate(w, &a, &scheme);
        println!(
            "{:>9}B  {:>12.3}  {:>10.3}  {:>9.4}%",
            threshold,
            f.bursts.mean_bursts(),
            speedup(&t_base.stats, &t.stats),
            f.error_pct
        );
    }
    println!("\nA larger threshold approximates more blocks: traffic and cycles fall,");
    println!("error rises. The paper picks 16 B at MAG 32 B (and MAG/2 elsewhere).");
}
