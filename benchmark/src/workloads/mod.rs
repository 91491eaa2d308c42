//! The five workloads. Each builds its inputs from the seed, makes round
//! 0 to obtain reference outputs (together: set-up), then runs rounds
//! that visit every op kind once.

pub mod container;
pub mod eval;
pub mod sim;

use crate::ctx::{ratio, Ctx, Metrics, Options, Outcome};
use crate::trace;
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::{Block, BlockCompressor};
use slc_sim::{GpuConfig, GpuMemory};
use slc_workloads::{Harness, Scale};

pub trait Workload {
    /// One round: every op kind once, each timed on its own and verified
    /// after its clock stopped.
    fn round(&mut self, ctx: &mut Ctx);

    /// Turns the samples, counts and spans into metrics and digests.
    fn finish(self: Box<Self>, ctx: &Ctx, out: &mut Outcome);
}

/// Builds the named workload's inputs and reference outputs.
pub fn setup(name: &str, ctx: &mut Ctx) -> Option<Box<dyn Workload>> {
    use container::{Containers, Flavor};
    Some(match name {
        "snap_e2mc" => Box::new(Containers::setup(Flavor::SnapE2mc, ctx)),
        "mixed_bdi" => Box::new(Containers::setup(Flavor::MixedBdi, ctx)),
        "mixed_rans" => Box::new(Containers::setup(Flavor::MixedRans, ctx)),
        "eval_fig7" => Box::new(eval::EvalFig7::setup(ctx)),
        "sim_sweep" => Box::new(sim::SimSweep::setup(ctx)),
        _ => return None,
    })
}

/// The harness every Table III workload is driven by: `--seed` is its
/// seed, `--smoke` shrinks `Scale::Small` to `Scale::Tiny`.
fn harness(opts: &Options) -> Harness {
    let scale = if opts.smoke { Scale::Tiny } else { Scale::Small };
    Harness { scale, seed: opts.seed, config: GpuConfig::default() }
}

/// What `Harness::prepare` trains E2MC on: the initial and the final
/// memory image of the exact run.
fn training_blocks(initial: &GpuMemory, last: &GpuMemory) -> Vec<Block> {
    initial.all_blocks().chain(last.all_blocks()).map(|(_, block)| block).collect()
}

/// Times one `E2mc::train_on_blocks` over `blocks`. Same samples, same
/// table: the retrained codec must size blocks exactly as `trained` does.
fn train_op(ctx: &mut Ctx, i: usize, blocks: &[Block], trained: &E2mc) {
    ctx.timed(
        "compress.train",
        ("train", i),
        || E2mc::train_on_blocks(blocks.iter(), &E2mcConfig::default()),
        |retrained| {
            blocks.iter().take(4096).all(|b| retrained.size_bits(b) == trained.size_bits(b))
        },
    );
}

/// Σ duration of every span called `name`, in seconds.
fn span_total(ctx: &Ctx, name: &str) -> f64 {
    ctx.rec.spans().iter().filter(|s| s.name == name).map(trace::Span::seconds).sum()
}

/// The metrics every workload derives the same way. `e2e` names the op
/// groups whose fastest-decile times add up to one round; in a traced
/// run, `traced` and `twin` name the groups that did the same work with
/// and without span recording.
fn finish_common(ctx: &Ctx, e2e: &[&str], traced: &[&str], twin: &[&str], m: &mut Metrics) {
    let s = &ctx.samples;
    let p10 = |groups: &[&str]| groups.iter().map(|g| s.p10(g)).sum::<f64>();
    m.set("round_ms", p10(e2e) * 1e3);
    m.set("bench.round_p50_ms", e2e.iter().map(|g| s.p50(g)).sum::<f64>() * 1e3);
    m.set("bench.round_p90_ms", e2e.iter().map(|g| s.p90(g)).sum::<f64>() * 1e3);
    m.set("bench.rounds", ctx.rounds as f64);
    m.set("bench.min_samples", e2e.iter().map(|g| s.min_samples(g)).min().unwrap_or(0) as f64);
    m.set("failed_share", ratio(ctx.tally.failed as f64, ctx.tally.attempted as f64));
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    m.set("par.workers", workers as f64);
    if ctx.rec.enabled() {
        m.set("trace.coverage", trace::coverage(ctx.rec.spans()));
        m.set("trace.overhead_pct", ratio(p10(traced) - p10(twin), p10(twin)) * 100.0);
    }
}
