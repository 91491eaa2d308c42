//! `eval_fig7`: the Fig. 7/8 evaluation users launch.
//!
//! One op is one `slc_exp::evaluate(Scale::Small, &harness, 16, [SIMP,
//! PRED, OPT])`, keeping its default `slc-par` fan-out. The traced run
//! takes the same evaluation apart through the crates' public functions:
//! `prepare_all` + `evaluate_prepared`, the MAG 16/64 sweep on the same
//! artifacts, a serial per-benchmark replay (prepare, functional passes,
//! timing, energy), and per-block loops over each final snapshot.

use super::sim::{simulated_counters, THRESHOLD_BYTES};
use super::{finish_common, harness, train_op, training_blocks, Workload};
use crate::ctx::{ratio, Ctx, Outcome};
use crate::stats::Digest;
use slc_compress::e2mc::BlockAnalysis;
use slc_compress::{Block, BlockCompressor, Mag, BLOCK_BYTES};
use slc_core::slc::{SlcCompressed, SlcCompressor, SlcConfig, SlcVariant};
use slc_core::{BudgetDecision, CodeLengthTree, ModeChoice};
use slc_exp::eval::{evaluate, evaluate_prepared, prepare_all, Eval};
use slc_power::EnergyModel;
use slc_sim::{GpuMemory, SimStats};
use slc_workloads::scheme::BurstsAccumulator;
use slc_workloads::{all_workloads, BenchmarkArtifacts, Harness, Scale, Scheme, SnapshotAnalysis};
use std::hint::black_box;

const VARIANTS: [SlcVariant; 3] = [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt];
/// TSLC-OPT's position in [`VARIANTS`].
const OPT: usize = 2;

/// The paper's Fig. 7/8 geometric means for TSLC-OPT; the `gm_*_dev`
/// metrics are distances from these.
const PAPER_GM_SPEEDUP: f64 = 1.097;
const PAPER_GM_MRE_PCT: f64 = 0.99;
const PAPER_GM_BANDWIDTH: f64 = 0.86;

fn identity(eval: &Eval) -> String {
    Digest::of(format!("{:?}", eval.rows).as_bytes()).hex()
}

fn figures(eval: &Eval) -> String {
    eval.render_fig7() + &eval.render_fig8()
}

/// Counts the per-block loops of the traced run produce.
#[derive(Debug, Default, Clone, Copy)]
struct BlockCounts {
    blocks: u64,
    approx: u64,
    lossy: u64,
    tree_calls: u64,
    snapshots: u64,
    blocks_analyzed: u64,
}

pub struct EvalFig7 {
    scale: Scale,
    harness: Harness,
    /// Round 0's evaluation: what every later one must reproduce.
    reference: Eval,
    reference_id: String,
    reference_figures: String,
    /// Identity of the first MAG 16 / MAG 64 evaluation (traced run).
    mag_ids: [Option<String>; 2],
    counts: BlockCounts,
}

impl EvalFig7 {
    pub fn setup(ctx: &mut Ctx) -> EvalFig7 {
        let harness = harness(&ctx.opts);
        let scale = harness.scale;
        let (eval, _) =
            ctx.op("exp.evaluate", || evaluate(scale, &harness, THRESHOLD_BYTES, &VARIANTS));
        ctx.count(("round0", 0), eval.is_some());
        let reference = eval.expect("round 0 evaluation completes");
        EvalFig7 {
            scale,
            reference_id: identity(&reference),
            reference_figures: figures(&reference),
            reference,
            harness,
            mag_ids: [None, None],
            counts: BlockCounts::default(),
        }
    }

    /// `evaluate` taken apart at the `slc-exp` layer.
    fn exp_layer(&mut self, ctx: &mut Ctx) {
        ctx.rec.next_op();
        let (prepared, prepare_s) =
            ctx.step("exp.prepare_all", || prepare_all(self.scale, &self.harness));
        let Some(prepared) = prepared else {
            ctx.count(("prepare_all", 0), false);
            return;
        };
        let (eval, evaluate_s) = ctx.step("exp.evaluate_prepared", || {
            evaluate_prepared(&self.harness, THRESHOLD_BYTES, &VARIANTS, &prepared)
        });
        let ok = ctx.verify(|| eval.as_ref().is_some_and(|e| identity(e) == self.reference_id));
        ctx.book(("prepare_all", 0), prepare_s, ok);
        ctx.book(("evaluate_prepared", 0), evaluate_s, ok);
        ctx.book(("eval_split", 0), prepare_s + evaluate_s, ok);

        // The cached-analysis sweep: the same artifacts re-decided at
        // another MAG (threshold MAG/2, as Fig. 9), no kernel replay.
        for (k, mag) in [Mag::NARROW_16, Mag::WIDE_64].into_iter().enumerate() {
            let harness = self.harness.clone().with_config(self.harness.config.with_mag(mag));
            let swept = ctx.timed(
                "exp.mag_sweep",
                ("mag_sweep", k),
                || {
                    identity(&evaluate_prepared(
                        &harness,
                        mag.bytes() / 2,
                        &VARIANTS[OPT..],
                        &prepared,
                    ))
                },
                |id| self.mag_ids[k].as_ref().is_none_or(|first| first == id),
            );
            if self.mag_ids[k].is_none() {
                self.mag_ids[k] = swept;
            }
        }
        if let Some(eval) = eval {
            ctx.timed(
                "exp.render",
                ("render", 0),
                || figures(&eval),
                |text| *text == self.reference_figures,
            );
        }
    }

    /// One benchmark's share of `evaluate_prepared`, serially, through
    /// `slc-workloads`, `slc-sim` and `slc-power`; returns the artifacts
    /// for the per-block loops.
    fn serial_benchmark(
        &self,
        ctx: &mut Ctx,
        i: usize,
        w: &dyn slc_workloads::Workload,
    ) -> Option<BenchmarkArtifacts> {
        let h = &self.harness;
        let mag = h.config.mag();
        let row = &self.reference.rows[i];

        ctx.rec.next_op();
        let open = ctx.rec.begin("eval.serial_benchmark");
        let (artifacts, seconds) = ctx.step("workloads.prepare", || h.prepare(w));
        ctx.book(("prepare", i), seconds, artifacts.is_some());
        let mut stats: Vec<SimStats> = Vec::new();
        if let Some(a) = &artifacts {
            let mut schemes = vec![Scheme::Uncompressed, Scheme::E2mc(a.e2mc.clone())];
            schemes.extend(VARIANTS.map(|v| Scheme::slc(a.e2mc.clone(), mag, THRESHOLD_BYTES, v)));
            for (k, scheme) in schemes.iter().enumerate() {
                let (span, kind) = match scheme {
                    Scheme::Uncompressed => {
                        ("workloads.functional_nocomp", ("functional_nocomp", i))
                    }
                    Scheme::E2mc(_) => ("workloads.functional_e2mc", ("functional_e2mc", i)),
                    Scheme::Slc(_) => {
                        ("workloads.functional_slc", ("functional_slc", i * 3 + k - 2))
                    }
                };
                let (functional, seconds) = ctx.step(span, || h.run_functional(w, a, scheme));
                ctx.book(kind, seconds, functional.is_some());
                let Some(functional) = functional else { continue };
                let (timing, seconds) =
                    ctx.step("sim.run", || h.run_timing(a, &functional, scheme).stats);
                // NOCOMP's counters are not kept in the report; every other
                // scheme must reproduce round 0's.
                let expected = match k {
                    0 => None,
                    1 => Some(&row.baseline),
                    _ => Some(&row.variants[k - 2].stats),
                };
                let ok = timing.as_ref().is_some_and(|t| expected.is_none_or(|e| e == t));
                ctx.book(("sim_run", i * schemes.len() + k), seconds, ok);
                stats.extend(timing.filter(|_| k > 0));
            }
            let model = EnergyModel::default();
            for (k, st) in stats.iter().enumerate() {
                let (energy, seconds) =
                    ctx.step("power.evaluate", || model.evaluate(st, &h.config));
                ctx.book(("power", i * 4 + k), seconds, energy.is_some());
            }
        }
        let seconds = ctx.rec.end(open);
        ctx.book(("serial_benchmark", i), seconds, stats.len() == 1 + VARIANTS.len());

        // `Harness::prepare` taken apart: build, exact run, training,
        // trace construction.
        let a = artifacts.as_ref()?;
        let seed = h.seed;
        let initial = ctx.timed(
            "workloads.build",
            ("build", i),
            || w.build(seed),
            |m| m.len() == a.exact_memory.len(),
        )?;
        let mut mem = w.build(seed);
        let (ran, seconds) =
            ctx.op("workloads.execute_exact", || w.execute(&mut mem, &mut |_: &mut GpuMemory| {}));
        let ok = ctx.verify(|| ran.is_some() && w.output(&mem) == a.exact_output);
        ctx.book(("execute_exact", i), seconds, ok);
        train_op(ctx, i, &training_blocks(&initial, &mem), &a.e2mc);
        ctx.timed(
            "workloads.trace_build",
            ("trace_build", i),
            || w.trace(h.config.sms),
            |t| t.len() == a.trace.len(),
        );
        artifacts
    }

    /// Per-block loops over one benchmark's final snapshot: E2MC analysis
    /// and sizing, the TSLC-OPT decision, encode and decode (MAG 32 B,
    /// threshold 16 B, approximable blocks only, as the harness stages
    /// them), and the snapshot-level passes of `slc-workloads`.
    fn block_loops(
        &self,
        ctx: &mut Ctx,
        i: usize,
        a: &BenchmarkArtifacts,
        counts: &mut BlockCounts,
    ) {
        let e2mc = &a.e2mc;
        let mag = self.harness.config.mag();
        let blocks: Vec<(bool, &Block)> = a
            .exact_memory
            .blocks_with_addr()
            .map(|(region, _, block)| (region.safe_to_approx, block))
            .collect();
        let approx: Vec<usize> = (0..blocks.len()).filter(|&j| blocks[j].0).collect();
        counts.blocks += blocks.len() as u64;
        counts.approx += approx.len() as u64;

        let mut analyses: Vec<BlockAnalysis> = Vec::with_capacity(blocks.len());
        let (done, seconds) = ctx.op("compress.analyze", || {
            for (_, block) in &blocks {
                analyses.push(e2mc.analyze(block));
            }
        });
        ctx.book(("analyze", i), seconds, done.is_some() && analyses.len() == blocks.len());
        let sized: u64 = analyses.iter().map(|an| u64::from(an.e2mc_size_bits())).sum();
        ctx.timed(
            "compress.size",
            ("size", i),
            || blocks.iter().map(|(_, b)| u64::from(e2mc.size_bits(b))).sum::<u64>(),
            |bits| *bits == sized,
        );

        let config = SlcConfig::new(mag, THRESHOLD_BYTES, SlcVariant::TslcOpt);
        let slc = SlcCompressor::new(e2mc.clone(), config);
        let decided = ctx.timed(
            "core.decide",
            ("decide", i),
            || {
                approx.iter().fold((0u64, 0u64), |(bits, lossy), &j| {
                    let (stored, is_lossy) = slc.stored_bits_with(&analyses[j]);
                    (bits + u64::from(stored), lossy + u64::from(is_lossy))
                })
            },
            |_| true,
        );
        let mut stored: Vec<SlcCompressed> = Vec::with_capacity(approx.len());
        let (done, seconds) = ctx.op("core.compress", || {
            for &j in &approx {
                stored.push(slc.compress_with(blocks[j].1, &analyses[j]));
            }
        });
        let encoded = stored.iter().fold((0u64, 0u64), |(bits, lossy), c| {
            (bits + u64::from(c.size_bits()), lossy + u64::from(c.is_lossy()))
        });
        ctx.book(("core_compress", i), seconds, done.is_some() && decided == Some(encoded));
        counts.lossy += encoded.1;
        let (done, seconds) = ctx.op("core.decompress", || {
            for c in &stored {
                black_box(slc.decompress(c));
            }
        });
        // Exact modes reproduce the block bit for bit; spot-check them.
        let ok = ctx.verify(|| {
            done.is_some()
                && stored
                    .iter()
                    .zip(&approx)
                    .step_by(61)
                    .all(|(c, &j)| c.is_lossy() || slc.decompress(c) == *blocks[j].1)
        });
        ctx.book(("core_decompress", i), seconds, ok);

        // Fig. 5's tree alone, on the blocks the budget sends lossy.
        let needed: Vec<(usize, u32)> = approx
            .iter()
            .filter_map(|&j| {
                let d = BudgetDecision::for_analysis(&analyses[j], mag, config.threshold_bits());
                (d.mode == ModeChoice::Lossy)
                    .then_some((j, d.extra_bits + slc_core::header::LOSSY_HEADER_DELTA))
            })
            .collect();
        counts.tree_calls += needed.len() as u64;
        ctx.timed(
            "core.tree_select",
            ("tree_select", i),
            || {
                needed
                    .iter()
                    .filter(|&&(j, bits)| {
                        CodeLengthTree::from_analysis(&analyses[j]).select(bits, true).is_some()
                    })
                    .count() as u64
            },
            |selected| *selected == encoded.1,
        );

        ctx.timed(
            "workloads.capture",
            ("capture", i),
            || SnapshotAnalysis::capture(e2mc, &a.exact_memory),
            |snapshot| snapshot.entries().len() == blocks.len(),
        );
        let scheme = Scheme::Slc(slc.clone());
        let mut staged: GpuMemory = a.exact_memory.clone();
        let snapshot = ctx
            .timed(
                "workloads.stage",
                ("stage", i),
                || scheme.stage_analyzed(&mut staged),
                |snapshot| snapshot.as_ref().is_some_and(|s| s.entries().len() == blocks.len()),
            )
            .flatten();
        if let Some(snapshot) = snapshot {
            ctx.timed(
                "workloads.bursts_record",
                ("bursts_record", i),
                || {
                    let mut accumulator = BurstsAccumulator::new(mag);
                    accumulator.record(&scheme, &snapshot);
                    accumulator.into_map().len()
                },
                |mapped| *mapped == blocks.len(),
            );
        }
    }
}

impl Workload for EvalFig7 {
    fn round(&mut self, ctx: &mut Ctx) {
        ctx.timed(
            "exp.evaluate",
            ("evaluate", 0),
            || evaluate(self.scale, &self.harness, THRESHOLD_BYTES, &VARIANTS),
            |eval| identity(eval) == self.reference_id,
        );
        if !ctx.rec.enabled() {
            return;
        }
        self.exp_layer(ctx);
        let mut counts = BlockCounts::default();
        let workloads = all_workloads(self.scale);
        for (i, w) in workloads.iter().enumerate() {
            if let Some(a) = self.serial_benchmark(ctx, i, w.as_ref()) {
                self.block_loops(ctx, i, &a, &mut counts);
                // One sizing pass for the E2MC baseline plus one analysis
                // pass per TSLC variant, at every kernel boundary.
                let snapshots = a.exact_size_snapshots(w.as_ref()).len() as u64;
                let passes = 1 + VARIANTS.len() as u64;
                counts.snapshots += snapshots * passes;
                counts.blocks_analyzed +=
                    snapshots * passes * (a.exact_memory.len() / BLOCK_BYTES) as u64;
            }
        }
        self.counts = counts;
    }

    fn finish(self: Box<Self>, ctx: &Ctx, out: &mut Outcome) {
        let s = &ctx.samples;
        let m = &mut out.metrics;
        finish_common(ctx, &["evaluate"], &["eval_split"], &["evaluate"], m);
        let eval = &self.reference;
        m.set("eval_wall_s", s.p10("evaluate"));
        // Simulated quantities; the model is validated only against these
        // three paper figures.
        m.set("gm_speedup_opt_dev", (eval.gm_speedup(OPT) - PAPER_GM_SPEEDUP).abs());
        m.set("gm_mre_opt_dev_pp", (eval.gm_mre(OPT) - PAPER_GM_MRE_PCT).abs());
        m.set("gm_bandwidth_opt_dev", (eval.gm_bandwidth(OPT) - PAPER_GM_BANDWIDTH).abs());
        out.digests.insert("figure_digest", Digest::of(self.reference_figures.as_bytes()).hex());
        let kept = eval.rows.iter().flat_map(|row| {
            std::iter::once(&row.baseline).chain(row.variants.iter().map(|v| &v.stats))
        });
        simulated_counters(kept, m);
        if !ctx.rec.enabled() {
            return;
        }
        let c = self.counts;
        let per_ns = |group: &str, n: u64| ratio(s.p10(group) * 1e9, n as f64);
        m.set("exp.prepare_all_s", s.p10("prepare_all"));
        m.set("exp.evaluate_prepared_s", s.p10("evaluate_prepared"));
        m.set("exp.mag_sweep_s", s.p10("mag_sweep"));
        m.set("exp.render_ms", s.p10("render") * 1e3);
        m.set("par.eval_speedup", ratio(s.p10("serial_benchmark"), s.p10("evaluate")));
        m.set("workloads.prepare_s", s.p10("prepare"));
        m.set("workloads.build_s", s.p10("build"));
        m.set("workloads.execute_exact_s", s.p10("execute_exact"));
        m.set("workloads.trace_build_s", s.p10("trace_build"));
        m.set("workloads.functional_e2mc_s", s.p10("functional_e2mc"));
        m.set("workloads.functional_slc_s", s.p10("functional_slc"));
        m.set("workloads.capture_mblocks_per_s", ratio(c.blocks as f64, s.p10("capture")) / 1e6);
        m.set("workloads.stage_ns_per_block", per_ns("stage", c.blocks));
        m.set("workloads.bursts_record_ns_per_block", per_ns("bursts_record", c.blocks));
        m.set("workloads.snapshots_per_eval", c.snapshots as f64);
        m.set("workloads.blocks_analyzed", c.blocks_analyzed as f64);
        m.set("sim.run_s", s.p10("sim_run"));
        m.set("power.evaluate_us", ratio(s.p10("power") * 1e6, s.kinds("power") as f64));
        m.set("compress.train_ms", s.p10("train") * 1e3);
        m.set("compress.analyze_ns_per_block", per_ns("analyze", c.blocks));
        m.set("compress.size_ns_per_block", per_ns("size", c.blocks));
        m.set("core.decide_ns_per_block", per_ns("decide", c.approx));
        m.set("core.compress_ns_per_block", per_ns("core_compress", c.approx));
        m.set("core.decompress_ns_per_block", per_ns("core_decompress", c.approx));
        m.set("core.tree_select_ns", per_ns("tree_select", c.tree_calls));
        m.set("core.lossy_block_share", ratio(c.lossy as f64, c.approx as f64));
    }
}
