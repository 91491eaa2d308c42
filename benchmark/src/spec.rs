//! The benchmark's vocabulary: every workload and metric name the binary
//! emits, with unit, direction and bound. `BENCHMARK.json` at the repo
//! root is rendered from these tables (`spec-json`) and `selfcheck` holds
//! the two together.

use crate::json::Json;

/// Seconds one run measures; also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "one",
];

pub const PATHS: [&str; 1] = ["benchmark"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "snap_e2mc",
        why: "the paper path: per-benchmark trained E2MC behind the engine over the nine Table III snapshots; E2MC encode/decode and training do the work, engine framing is a few percent",
    },
    WorkloadSpec {
        name: "mixed_bdi",
        why: "Engine<Bdi> over a seeded 64 MiB mixed corpus: the codec is cheap, so engine sharding, tags, directory, assembly and memory traffic dominate; no E2MC work, an E2MC change must not move it",
    },
    WorkloadSpec {
        name: "mixed_rans",
        why: "Engine<Rans> on the same corpus: whole-chunk ChunkCoder dispatch, per-chunk table build, interleaved decode; the engine layer used per chunk instead of per block as in mixed_bdi",
    },
    WorkloadSpec {
        name: "eval_fig7",
        why: "slc_exp::evaluate at Scale::Small for the three TSLC variants, the Fig. 7/8 run users launch; slc-core and slc-workloads functional passes do most of the work, slc-sim little",
    },
    WorkloadSpec {
        name: "sim_sweep",
        why: "simulator only: 27 Harness::run_timing calls (nine benchmarks x NOCOMP, E2MC, TSLC-OPT) on artifacts built in set-up; slc-sim does all the work, the codecs none",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How much worse a median may get before `compare` calls it a
/// regression: `rel` × |baseline median| + `abs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs: f64,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics always have one (relative, mirrored in
    /// `BENCHMARK.json`). Per-layer metrics have one only when `compare`
    /// should gate on them; `BENCHMARK.json` cannot carry it.
    pub bound: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, rel: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(Bound { rel, abs: 0.0 }) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    rel: f64,
    abs: f64,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(Bound { rel, abs }) }
}

use Better::{Higher, Lower};

/// Metrics every workload reports from the untraced run. All three take
/// the widest bound the contract allows: the sandbox has interference modes
/// that last minutes (the same `evaluate` reads 1.75 s in one stretch of
/// runs and 2.0 s in the next), and `evaluate`'s two workers make the peak
/// RSS vary ±7 %. `compare` applies the tighter per-workload bounds below.
pub const END_TO_END: [MetricSpec; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Metrics of single layers and of single workloads. A workload reports 0
/// for a metric whose layer it does not exercise.
pub const PER_LAYER: [MetricSpec; 71] = [
    // What one workload's user sees; `compare` gates on these.
    gated("compress_gbps", "GB/s", Higher, 0.10, 0.0),
    gated("decompress_gbps", "GB/s", Higher, 0.10, 0.0),
    gated("stored_ratio", "ratio", Higher, 0.001, 0.0),
    gated("eval_wall_s", "s", Lower, 0.10, 0.0),
    gated("gm_speedup_opt_dev", "ratio", Lower, 0.0, 0.01),
    gated("gm_mre_opt_dev_pp", "pp", Lower, 0.0, 0.25),
    gated("gm_bandwidth_opt_dev", "ratio", Lower, 0.0, 0.01),
    gated("sim_mops_per_s", "Mops/s", Higher, 0.10, 0.0),
    gated("failed_share", "share", Lower, 0.0, 0.0),
    layer("bench.round_p50_ms", "ms", Lower),
    layer("bench.round_p90_ms", "ms", Lower),
    layer("bench.rounds", "count", Higher),
    layer("bench.min_samples", "count", Higher),
    layer("compress.encode_ns_per_block", "ns/block", Lower),
    layer("compress.decode_ns_per_block", "ns/block", Lower),
    layer("compress.analyze_ns_per_block", "ns/block", Lower),
    layer("compress.size_ns_per_block", "ns/block", Lower),
    layer("compress.train_ms", "ms", Lower),
    layer("compress.verbatim_block_share", "share", Lower),
    layer("compress.mean_bits_per_block", "bits/block", Lower),
    layer("engine.encode_overhead_ns_per_block", "ns/block", Lower),
    layer("engine.decode_overhead_ns_per_block", "ns/block", Lower),
    layer("engine.frame_parse_us", "us", Lower),
    layer("engine.cached_sizes_gbps", "GB/s", Higher),
    layer("engine.stream_encoder_gbps", "GB/s", Higher),
    layer("engine.decompress_owned_gbps", "GB/s", Higher),
    layer("engine.corrupt_decode_us", "us", Lower),
    layer("engine.raw_chunk_share", "share", Lower),
    layer("par.compress_auto_speedup", "x", Higher),
    layer("par.decompress_auto_speedup", "x", Higher),
    layer("par.eval_speedup", "x", Higher),
    layer("par.workers", "count", Higher),
    layer("core.decide_ns_per_block", "ns/block", Lower),
    layer("core.compress_ns_per_block", "ns/block", Lower),
    layer("core.decompress_ns_per_block", "ns/block", Lower),
    layer("core.tree_select_ns", "ns", Lower),
    layer("core.lossy_block_share", "share", Higher),
    layer("workloads.prepare_s", "s", Lower),
    layer("workloads.build_s", "s", Lower),
    layer("workloads.execute_exact_s", "s", Lower),
    layer("workloads.trace_build_s", "s", Lower),
    layer("workloads.functional_e2mc_s", "s", Lower),
    layer("workloads.functional_slc_s", "s", Lower),
    layer("workloads.capture_mblocks_per_s", "Mblocks/s", Higher),
    layer("workloads.stage_ns_per_block", "ns/block", Lower),
    layer("workloads.bursts_record_ns_per_block", "ns/block", Lower),
    layer("workloads.snapshots_per_eval", "count", Lower),
    layer("workloads.blocks_analyzed", "count", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.host_ns_per_op", "ns/op", Lower),
    layer("sim.host_ns_per_burst", "ns/burst", Lower),
    layer("sim.mcycles_per_s", "Mcycles/s", Higher),
    layer("sim.nocomp_mops_per_s", "Mops/s", Higher),
    layer("sim.e2mc_mops_per_s", "Mops/s", Higher),
    layer("sim.tslc_mops_per_s", "Mops/s", Higher),
    layer("sim.inorder_mops_per_s", "Mops/s", Higher),
    layer("sim.cycles", "cycles", Lower),
    layer("sim.total_bursts", "count", Lower),
    layer("sim.l2_miss_rate", "share", Lower),
    layer("sim.mdc_hit_rate", "share", Higher),
    layer("sim.row_hit_rate", "share", Higher),
    layer("sim.avg_read_latency_cycles", "cycles", Lower),
    layer("sim.queue_wait_cycles", "cycles", Lower),
    layer("sim.stall_cycles", "cycles", Lower),
    layer("power.evaluate_us", "us", Lower),
    layer("exp.prepare_all_s", "s", Lower),
    layer("exp.evaluate_prepared_s", "s", Lower),
    layer("exp.mag_sweep_s", "s", Lower),
    layer("exp.render_ms", "ms", Lower),
    layer("trace.coverage", "share", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json` as these tables define it.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::num(m.bound.expect("end-to-end bound").rel)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
