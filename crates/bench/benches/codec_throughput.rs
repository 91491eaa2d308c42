//! Microbenchmarks: per-block compress/decompress throughput of every
//! codec, SLC's size-only fast path (the hardware's tree adder) and the
//! evaluation layer's shared-analysis burst-map sweep vs the per-scheme
//! re-encode it replaced. (The batch engine's end-to-end GB/s rows are
//! registered once, in the `eval_pipeline` bench.)
//!
//! The sample set mixes the block archetypes GPU traffic exhibits — zero
//! blocks, repeated values, integer ramps, small integers, smooth float
//! fields, pointer-like clustered words and incompressible noise — so
//! every codec exercises its real encode *and* decode paths (an
//! all-float-ramp set would let BDI/FPC fall back to verbatim storage and
//! "benchmark" a memcpy).
//!
//! Besides printing results, the bench writes a `BENCH_codec.json`
//! baseline to the repo root (override the path with `BENCH_CODEC_JSON`)
//! so future changes can be compared against the recorded trajectory.

use criterion::{BatchSize, Criterion};
use slc_compress::bdi::Bdi;
use slc_compress::bpc::Bpc;
use slc_compress::cpack::Cpack;
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::fpc::Fpc;
use slc_compress::rans::Rans;
use slc_compress::{Block, BlockCompressor, Mag, BLOCK_BYTES};
use slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc_sim::dram::Channel;
use slc_sim::{FaultConfig, FaultMap, FaultPattern, GpuConfig, GpuMemory, SchedPolicy};
use slc_workloads::analysis::SnapshotAnalysis;
use slc_workloads::scheme::{BurstsAccumulator, Scheme};

/// Deterministic per-block PRNG (SplitMix64) for the noise archetype.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn block_from_u32s(f: impl Fn(usize) -> u32) -> Block {
    let mut b = [0u8; BLOCK_BYTES];
    for (i, c) in b.chunks_exact_mut(4).enumerate() {
        c.copy_from_slice(&f(i).to_le_bytes());
    }
    b
}

fn sample_blocks() -> Vec<Block> {
    (0..64u64)
        .map(|k| match k % 8 {
            // All zero: best case everywhere.
            0 => [0u8; BLOCK_BYTES],
            // One repeated 8-byte value.
            1 => block_from_u32s(|i| if i % 2 == 0 { 0xCAFE_F00D } else { 0x1234_5678 }),
            // Dense u32 ramp: BDI base+delta material.
            2 => block_from_u32s(|i| 0x4000_0000 + (k as u32) * 977 + 3 * i as u32),
            // Small integers: FPC sign-extension patterns.
            3 => block_from_u32s(|i| ((i as u32 * 7 + k as u32) % 256).wrapping_sub(128)),
            // Smooth float field: E2MC/SLC traffic.
            4 => block_from_u32s(|i| {
                (100.0f32
                    + (k * 32 + i as u64) as f32 * 0.25
                    + if i % 7 == 0 { 0.001337 * k as f32 } else { 0.0 })
                .to_bits()
            }),
            // Clustered words sharing upper bytes: C-PACK dictionary hits.
            5 => block_from_u32s(|i| {
                let cluster = [0x8000_1200u32, 0x8000_3400, 0x9000_5600][i % 3];
                cluster | (mix(k * 64 + i as u64) & 0xff) as u32
            }),
            // Linear ramp with constant stride: BPC's DBX collapses.
            6 => block_from_u32s(|i| 1_000_000 + 17 * (k as u32 * 32 + i as u32)),
            // Incompressible noise: worst case / verbatim fallback.
            _ => {
                let mut b = [0u8; BLOCK_BYTES];
                for (i, byte) in b.iter_mut().enumerate() {
                    *byte = (mix(k * 128 + i as u64) >> 33) as u8;
                }
                b
            }
        })
        .collect()
}

fn trained_e2mc(blocks: &[Block]) -> E2mc {
    let training: Vec<u8> = blocks.iter().flat_map(|b| b.to_vec()).collect();
    E2mc::train_on_bytes(&training, &E2mcConfig::default())
}

fn bench_codecs(c: &mut Criterion) {
    let blocks = sample_blocks();
    let e2mc = trained_e2mc(&blocks);
    let bdi = Bdi::new();
    let fpc = Fpc::new();
    let cpack = Cpack::new();
    let bpc = Bpc::new();
    let rans = Rans::new();
    let codecs: [(&str, &dyn BlockCompressor); 6] = [
        ("bdi", &bdi),
        ("fpc", &fpc),
        ("cpack", &cpack),
        ("bpc", &bpc),
        ("e2mc", &e2mc),
        ("rans", &rans),
    ];
    let mut g = c.benchmark_group("compress_block");
    for (name, codec) in codecs {
        g.bench_function(name, |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % blocks.len();
                codec.compress(&blocks[i])
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("decompress_block");
    for (name, codec) in codecs {
        let compressed: Vec<_> = blocks.iter().map(|b| codec.compress(b)).collect();
        g.bench_function(name, |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % compressed.len();
                codec.decompress(&compressed[i])
            })
        });
    }
    g.finish();
}

fn bench_slc_paths(c: &mut Criterion) {
    let blocks = sample_blocks();
    let e2mc = trained_e2mc(&blocks);
    // Clone cost of a trained codec: an Arc refcount bump on the shared
    // symbol table, not a copy of the ~832 KB of precomputed tables. The
    // row keeps the O(1) clone contract visible in the baseline.
    let mut g = c.benchmark_group("setup");
    g.bench_function("e2mc_clone_shared", |b| b.iter(|| e2mc.clone()));
    g.finish();
    let slc = SlcCompressor::new(e2mc, SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
    let mut g = c.benchmark_group("slc");
    g.bench_function("stored_bits_fast_path", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % blocks.len();
            slc.stored_bits_with(&slc.analysis(&blocks[i]))
        })
    });
    g.bench_function("compress_full", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % blocks.len();
            slc.compress(&blocks[i])
        })
    });
    g.bench_function("roundtrip", |b| {
        let mut i = 0;
        b.iter_batched(
            || {
                i = (i + 1) % blocks.len();
                blocks[i]
            },
            |block| slc.decompress(&slc.compress(&block)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The shared-analysis win in the evaluation path: building burst maps
/// for N schemes (3 TSLC variants × 2 thresholds + the E2MC baseline)
/// over one memory snapshot.
///
/// `eval/bursts_map` analyses the snapshot **once** and sweeps all N
/// decisions over the shared [`SnapshotAnalysis`].
fn bench_eval_paths(c: &mut Criterion) {
    let blocks = sample_blocks();
    let e2mc = trained_e2mc(&blocks);
    let mut mem = GpuMemory::new();
    let approx = mem.malloc("approx", 32 * BLOCK_BYTES, true, 16);
    let exact = mem.malloc("exact", 32 * BLOCK_BYTES, false, 0);
    for (i, block) in blocks.iter().take(32).enumerate() {
        let vals: Vec<f32> =
            block.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        mem.write_f32(slc_sim::DevicePtr(approx.0 + (i * BLOCK_BYTES) as u64), &vals);
        mem.write_f32(slc_sim::DevicePtr(exact.0 + (i * BLOCK_BYTES) as u64), &vals);
    }
    let mut schemes = vec![Scheme::E2mc(e2mc.clone())];
    for threshold in [8, 16] {
        for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
            schemes.push(Scheme::slc(e2mc.clone(), Mag::GDDR5, threshold, variant));
        }
    }
    let mut g = c.benchmark_group("eval");
    g.bench_function("bursts_map", |b| {
        b.iter(|| {
            let snap = SnapshotAnalysis::capture(&e2mc, &mem);
            schemes
                .iter()
                .map(|s| {
                    let mut acc = BurstsAccumulator::new(Mag::GDDR5);
                    acc.record(s, &snap);
                    acc.into_map().len()
                })
                .sum::<usize>()
        })
    });
    g.finish();
}

/// The timing simulator's channel hot loop: one FR-FCFS channel
/// servicing a mixed request pattern — streaming row hits, periodic far
/// rows (bank conflicts), ~1/4 buffered writes — then draining. This is
/// the code every L2 miss of every timing pass runs through;
/// `sim/channel_frfcfs` guards the scheduler's arbitration cost.
fn bench_sim_paths(c: &mut Criterion) {
    let cfg = GpuConfig::default().with_sched_policy(SchedPolicy::FrFcfs);
    let ops: Vec<(u64, u32, f64, bool)> = (0..64u64)
        .map(|i| {
            let block = if i % 8 == 7 { 2048 + i } else { i * 2 };
            let bursts = 1 + (i % 4) as u32;
            (block, bursts, i as f64 * 4.0, i % 4 == 3)
        })
        .collect();
    let mut g = c.benchmark_group("sim");
    g.bench_function("channel_frfcfs", |b| {
        let proto = Channel::new(&cfg);
        b.iter_batched(
            || proto.clone(),
            |mut ch| {
                for &(block, bursts, at, write) in &ops {
                    if write {
                        ch.write(block, bursts, at);
                    } else {
                        ch.read(block, bursts, at);
                    }
                }
                ch.drain_writes(256.0);
                ch.free_at()
            },
            BatchSize::SmallInput,
        )
    });
    // The degradation ladder's per-block hot query: every block of every
    // snapshot asks the fault map "are you faulty, and what budget do I
    // get?". `sim/fault_sweep` guards the hash-chain lookup cost that
    // multiplies into every fault-injected functional run.
    let fault_cfg =
        GpuConfig::default().with_faults(FaultConfig::new(FaultPattern::RandomRows, 0.1, 7));
    let map = FaultMap::from_config(&fault_cfg).expect("fault config is set");
    g.bench_function("fault_sweep", |b| {
        b.iter(|| {
            let mut faulty = 0u64;
            let mut budget = 0u64;
            for addr in 0..4096u64 {
                if let Some(bits) = map.block_budget_bits(addr) {
                    faulty += 1;
                    budget += u64::from(bits);
                }
            }
            (faulty, budget)
        })
    });
    g.finish();
}

/// Guards the lint front end itself: `slc-lint` runs on every CI push,
/// so a quadratic blowup in the lexer or the shallow scanner would tax
/// each build. The corpus is synthetic but shaped like the workspace's
/// own sources — nested blocks, string literals, comments, call
/// chains — so the scanner's hot paths (lexing, fn extraction, call-site
/// resolution) all get exercised.
fn bench_lint_paths(c: &mut Criterion) {
    let files: Vec<(String, String)> = (0..24)
        .map(|i| {
            let path = format!("crates/synth/src/m{i}.rs");
            let mut src = String::from("//! Synthetic module for the lint scan bench.\n\n");
            for f in 0..12 {
                src.push_str(&format!(
                    "/// Mixes arithmetic, indexing and a call so the scanner\n\
                     /// sees realistic token variety. Variant {i}.{f}.\n\
                     pub fn f{f}(x: usize, buf: &[u8]) -> usize {{\n    \
                         let mut acc = x; // running total: \"{i}.{f}\"\n    \
                         for i in 0..buf.len() {{\n        \
                             if buf[i] > 7 {{\n            \
                                 acc = acc.wrapping_add(usize::from(buf[i]));\n        \
                             }}\n    \
                         }}\n    \
                         helper(acc)\n\
                     }}\n\n"
                ));
            }
            src.push_str("fn helper(n: usize) -> usize {\n    n.min(4096)\n}\n");
            (path, src)
        })
        .collect();
    let mounted: Vec<(&str, &str, &str)> =
        files.iter().map(|(p, s)| (p.as_str(), "synth", s.as_str())).collect();
    let mut g = c.benchmark_group("lint");
    g.bench_function("workspace_scan", |b| b.iter(|| slc_lint::Workspace::from_sources(&mounted)));
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_codecs(&mut c);
    bench_slc_paths(&mut c);
    bench_eval_paths(&mut c);
    bench_sim_paths(&mut c);
    bench_lint_paths(&mut c);
    slc_bench::write_baseline(&c, "codec_throughput", "BENCH_CODEC_JSON", "BENCH_codec.json");
}
