//! Benchmark-only crate.
//!
//! Hosts the Criterion benches that regenerate every table and figure of
//! the paper (see `benches/`). The library holds the batch-engine
//! end-to-end rows (registered once, by `eval_pipeline`) and the JSON
//! baseline writer every custom bench `main` funnels through.

#![forbid(unsafe_code)]

use criterion::Criterion;
use slc_compress::bdi::Bdi;
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::rans::Rans;
use slc_engine::{Engine, Threads};
use std::sync::Arc;

pub use slc_exp as exp;

/// Byte size of the end-to-end engine corpus: large enough that one
/// iteration amortises thread-pool hand-off and the ns/iter ↔ GB/s
/// conversion is stable, small enough for CI's measurement window.
pub const ENGINE_CORPUS_BYTES: usize = 4 << 20;

/// Mixed-compressibility corpus for the engine rows: three blocks of
/// smooth f32 ramp (codec material) to every block of raw noise, so the
/// engine exercises both coded and raw chunk storage like real snapshot
/// traffic would.
pub fn engine_corpus(len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut i = 0u32;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    while out.len() < len {
        if (out.len() / 128) % 4 == 3 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            out.extend_from_slice(&state.to_le_bytes());
        } else {
            out.extend_from_slice(&(((i * 3) % 257) as f32).to_le_bytes());
            i += 1;
        }
    }
    out.truncate(len);
    out
}

/// End-to-end batch-engine throughput: compress/decompress a 4 MiB
/// stream into/from the framed container, parallel (`Threads::Auto`) and
/// serial, on the BDI substrate (the fastest codec, so the rows guard
/// the engine's own sharding/framing overhead rather than codec inner
/// loops — those have their own `compress_block`/`decompress_block`
/// rows). A fixed corpus size makes ns/iter read directly as GB/s
/// (bytes ÷ ns), printed alongside the rows.
pub fn bench_engine_e2e(c: &mut Criterion) {
    let data = engine_corpus(ENGINE_CORPUS_BYTES);
    let engine = Engine::new(Arc::new(Bdi::new()));
    let container = engine.compress(&data);
    assert_eq!(
        engine.decompress(&container).expect("bench container roundtrips"),
        data,
        "engine must roundtrip before being timed"
    );
    let mut g = c.benchmark_group("engine");
    g.bench_function("compress_e2e", |b| {
        b.iter(|| engine.compress_threads(&data, Threads::Auto).len())
    });
    g.bench_function("compress_e2e_serial", |b| {
        b.iter(|| engine.compress_threads(&data, Threads::Serial).len())
    });
    g.bench_function("decompress_e2e", |b| {
        b.iter(|| engine.decompress_threads(&container, Threads::Auto).expect("valid").len())
    });
    g.bench_function("decompress_e2e_serial", |b| {
        b.iter(|| engine.decompress_threads(&container, Threads::Serial).expect("valid").len())
    });

    // The rANS substrate on the same corpus: whole-chunk entropy coding
    // (one frequency table per 64 KiB chunk) instead of per-block
    // base+delta. Same container format, different CodecId.
    let rans_engine = Engine::new(Arc::new(Rans::new()));
    let rans_container = rans_engine.compress(&data);
    assert_eq!(
        rans_engine.decompress(&rans_container).expect("rANS container roundtrips"),
        data,
        "rANS engine must roundtrip before being timed"
    );
    g.bench_function("rans_compress_e2e", |b| {
        b.iter(|| rans_engine.compress_threads(&data, Threads::Auto).len())
    });
    g.bench_function("rans_decompress_e2e", |b| {
        b.iter(|| {
            rans_engine.decompress_threads(&rans_container, Threads::Auto).expect("valid").len()
        })
    });
    g.finish();

    // Competitive-ratio check on the mixed corpus: the order-0 byte rANS
    // substrate against the paper's E2MC baseline (and the BDI container
    // being timed above), printed next to the throughput rows so ratio
    // regressions show up in the same log.
    let e2mc_engine = Engine::new(Arc::new(E2mc::train_on_bytes(&data, &E2mcConfig::default())));
    let e2mc_container = e2mc_engine.compress(&data);
    for (name, clen) in
        [("bdi", container.len()), ("rans", rans_container.len()), ("e2mc", e2mc_container.len())]
    {
        println!(
            "engine corpus ratio {:<24} {:>10.3}x ({} -> {} bytes)",
            name,
            data.len() as f64 / clen as f64,
            data.len(),
            clen
        );
    }
    for r in c.results() {
        if r.id.starts_with("engine/") {
            // 1 byte/ns == 1 GB/s, so GB/s is simply bytes ÷ ns.
            let gbps = ENGINE_CORPUS_BYTES as f64 / r.ns_per_iter;
            println!("{:<44} {:>10.2} GB/s end-to-end", r.id, gbps);
        }
    }
}

/// Serialises `c`'s results as a regression-gate baseline
/// (`tools/check_bench_regression.py` format). The output path is
/// `env_var` when set, else `<repo root>/<default_file>`.
///
/// `engine/` rows carry an extra derived `gb_per_s` field (corpus bytes ÷
/// ns/iter) so the committed baseline documents absolute end-to-end
/// throughput, not just iteration time. The regression gate reads only
/// `id` and `ns_per_iter` and ignores derived fields by construction.
pub fn write_baseline(c: &Criterion, bench: &str, env_var: &str, default_file: &str) {
    let path = std::env::var(env_var)
        .unwrap_or_else(|_| format!("{}/../../{default_file}", env!("CARGO_MANIFEST_DIR")));
    let mut json =
        format!("{{\n  \"bench\": \"{bench}\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n");
    for (i, r) in c.results().iter().enumerate() {
        let sep = if i + 1 == c.results().len() { "" } else { "," };
        let gbps = if r.id.starts_with("engine/") {
            format!(", \"gb_per_s\": {:.3}", ENGINE_CORPUS_BYTES as f64 / r.ns_per_iter)
        } else {
            String::new()
        };
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iterations\": {}{}}}{}\n",
            r.id, r.ns_per_iter, r.iterations, gbps, sep
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(&path, json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_exact_length_and_mixed() {
        let corpus = engine_corpus(100_000);
        assert_eq!(corpus.len(), 100_000);
        // Both compressible and noisy stripes must be present: the BDI
        // container should be smaller than raw but nowhere near the
        // all-ramp best case.
        let engine = Engine::new(Arc::new(Bdi::new()));
        let container = engine.compress(&corpus);
        assert!(container.len() < corpus.len(), "corpus must compress overall");
        assert!(container.len() > corpus.len() / 8, "corpus must not be trivially uniform");
        assert_eq!(engine.decompress(&container).unwrap(), corpus);
    }
}
