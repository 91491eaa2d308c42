//! Diagnostic: every benchmark's exact snapshot through the batch
//! engine. Not a paper figure — the end-to-end smoke for the framed
//! container path that CI runs at tiny scale.
//!
//! For each workload the probe concatenates the exact-region byte image
//! ([`snapshot_bytes`]), compresses it twice — once from scratch and
//! once through the cached-size fast path ([`compress_snapshot`]) — and
//! checks the two containers are byte-identical, that parallel decode
//! equals serial decode equals the original image, and prints the
//! container's compression ratio plus wall-clock GB/s for both
//! directions. Any contract violation aborts the process, so a plain
//! exit-0 run is the pass signal.
//!
//! Each container then takes a seeded hostile pass: [`HOSTILE_FLIPS`]
//! single-bit flips, each decoded with nothing around the call — it
//! must come back `Err` or a buffer of the right size, and the counts
//! are printed. Built with `panic = "abort"` (CI does, through
//! `CARGO_PROFILE_RELEASE_PANIC`), a decode panic anywhere below the
//! engine kills the process instead of unwinding, which is how the
//! "decode never panics" contract is proven rather than caught.
//!
//! `--codec <name>` swaps the substrate: `e2mc` (default) probes the
//! trained snapshot codec, `rans` the whole-chunk entropy coder and
//! `bdi` the base+delta codec. The cached-size identity is asserted for
//! every substrate — chunk coders document that they ignore the size
//! hints, and this is where that contract is exercised end to end.
//!
//! After the per-workload sweep the probe re-runs the largest snapshot
//! under `Threads::Exact(n)` for n = 1, 2, 4, 8, printing per-worker-
//! count GB/s (and asserting the containers stay byte-identical), so a
//! scheduling regression shows up as a flat or inverted scaling column
//! rather than a silent slowdown.

use std::sync::Arc;
use std::time::Instant;

use slc_compress::rans::Rans;
use slc_compress::{bdi::Bdi, BlockCodec};
use slc_engine::{frame_info, Engine, Threads};
use slc_workloads::{all_workloads, compress_snapshot, snapshot_bytes, snapshot_engine};
use slc_workloads::{Harness, Scale, SnapshotAnalysis};

/// Single-bit flips per container in the hostile pass.
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

/// Wall-clock GB/s for `bytes` processed in `seconds` (1 byte/ns = 1 GB/s).
fn gbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e9
}

/// Substrate selected by `--codec`; `None` means the per-workload
/// trained E2MC snapshot codec.
fn codec_arg() -> Option<Arc<dyn BlockCodec>> {
    let mut args = std::env::args().skip(1);
    if let Some(a) = args.next() {
        if a == "--codec" {
            let name = args.next().unwrap_or_else(|| {
                eprintln!("--codec needs a name (e2mc, rans, bdi)");
                std::process::exit(2);
            });
            return match name.as_str() {
                "e2mc" => None,
                "rans" => Some(Arc::new(Rans::new())),
                "bdi" => Some(Arc::new(Bdi::new())),
                other => {
                    eprintln!("unknown --codec {other:?} (expected e2mc, rans or bdi)");
                    std::process::exit(2);
                }
            };
        }
        eprintln!("unknown argument {a:?} (usage: probe_engine [--codec e2mc|rans|bdi])");
        std::process::exit(2);
    }
    None
}

fn main() {
    let scale = Scale::from_env();
    let override_codec = codec_arg();
    let codec_name = override_codec.as_ref().map_or("e2mc", |c| c.name());
    let h = Harness::new(scale);
    println!(
        "Engine snapshot probe: framed container end-to-end (scale {scale:?}, codec {codec_name})"
    );
    println!(
        "{:>6} {:>10} {:>8} {:>8} {:>12} {:>12} {:>9}",
        "bench", "bytes", "chunks", "ratio", "comp_GB/s", "decomp_GB/s", "hostile"
    );
    let mut largest: Option<(Vec<u8>, Engine)> = None;
    for w in all_workloads(scale) {
        let a = h.prepare(w.as_ref());
        let bytes = snapshot_bytes(&a.exact_memory);
        let engine = match &override_codec {
            Some(codec) => Engine::new(Arc::clone(codec)),
            None => snapshot_engine(&a.e2mc),
        };
        let snapshot = SnapshotAnalysis::capture(&a.e2mc, &a.exact_memory);

        let t = Instant::now();
        let container = engine.compress_threads(&bytes, Threads::Auto);
        let comp_s = t.elapsed().as_secs_f64();

        // The cached-size fast path must reproduce the container exactly:
        // per-block codecs because the hints equal their own size_bits,
        // chunk coders (rANS) because they ignore the hints entirely.
        let cached = compress_snapshot(&engine, &a.e2mc, &bytes, &snapshot, Threads::Auto);
        assert_eq!(
            container, cached,
            "{}: cached-size container differs from the from-scratch one",
            a.name
        );

        let t = Instant::now();
        let parallel = engine
            .decompress_threads(&container, Threads::Auto)
            .expect("engine-produced container must decode");
        let decomp_s = t.elapsed().as_secs_f64();
        let serial = engine
            .decompress_threads(&container, Threads::Serial)
            .expect("engine-produced container must decode serially");
        assert_eq!(parallel, serial, "{}: parallel decode diverged from serial", a.name);
        assert_eq!(parallel, bytes, "{}: roundtrip is not byte-identical", a.name);

        let rejected = hostile_pass(&engine, &container, bytes.len(), bytes.len() as u64);
        let info = frame_info(&container).expect("engine-produced container must parse");
        println!(
            "{:>6} {:>10} {:>8} {:>8.3} {:>12.3} {:>12.3} {:>9}",
            a.name,
            bytes.len(),
            info.chunk_count,
            info.ratio(),
            gbps(bytes.len(), comp_s),
            gbps(bytes.len(), decomp_s),
            format!("{rejected}/{HOSTILE_FLIPS}"),
        );
        if largest.as_ref().is_none_or(|(b, _)| b.len() < bytes.len()) {
            largest = Some((bytes, engine));
        }
    }

    // Worker-count scaling on the largest snapshot: output bytes are
    // policy-independent (asserted), only the wall clock may move.
    let (bytes, engine) = largest.expect("at least one workload at every scale");
    let reference = engine.compress_threads(&bytes, Threads::Serial);
    println!("worker scaling on largest snapshot ({} bytes, codec {codec_name}):", bytes.len());
    println!("{:>8} {:>12} {:>12}", "workers", "comp_GB/s", "decomp_GB/s");
    for n in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let container = engine.compress_threads(&bytes, Threads::Exact(n));
        let comp_s = t.elapsed().as_secs_f64();
        assert_eq!(container, reference, "Exact({n}) container diverged from serial");
        let t = Instant::now();
        let decoded = engine
            .decompress_threads(&container, Threads::Exact(n))
            .expect("engine-produced container must decode at any worker count");
        let decomp_s = t.elapsed().as_secs_f64();
        assert_eq!(decoded, bytes, "Exact({n}) decode is not byte-identical");
        println!(
            "{:>8} {:>12.3} {:>12.3}",
            n,
            gbps(bytes.len(), comp_s),
            gbps(bytes.len(), decomp_s)
        );
    }
    println!("all snapshots roundtripped byte-identically (parallel == serial == original)");
    println!(
        "hostile column: flips rejected / tried per container; every other flip decoded full-size"
    );
}
