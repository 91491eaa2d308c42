//! `sim_sweep`: the timing simulator alone.
//!
//! Set-up prepares the nine benchmarks and makes the functional pass of
//! each under NOCOMP, E2MC and TSLC-OPT; one op is then one
//! `Harness::run_timing` call on those artifacts. Footprints are 2–10 MB
//! against the modelled 768 KB L2, and every call starts with empty
//! modelled caches.

use super::{finish_common, harness, span_total, Workload};
use crate::ctx::{ratio, Ctx, Metrics, Outcome};
use crate::stats::Digest;
use slc_core::slc::SlcVariant;
use slc_sim::{SchedPolicy, SimStats};
use slc_workloads::{all_workloads, BenchmarkArtifacts, FunctionalOutcome, Harness, Scheme};

/// Lossy threshold of Figs. 7–8 at MAG 32 B.
pub const THRESHOLD_BYTES: u32 = 16;

/// Schemes per benchmark, in job order.
const SCHEMES: usize = 3;

struct Job {
    /// Index into `artifacts`.
    benchmark: usize,
    scheme: Scheme,
    functional: FunctionalOutcome,
    /// Round 0's counters: what every later run must reproduce.
    reference: SimStats,
    /// Round 0 under `SchedPolicy::InOrder` (traced run).
    reference_inorder: Option<SimStats>,
}

pub struct SimSweep {
    harness: Harness,
    inorder: Harness,
    artifacts: Vec<BenchmarkArtifacts>,
    jobs: Vec<Job>,
}

impl SimSweep {
    pub fn setup(ctx: &mut Ctx) -> SimSweep {
        let harness = harness(&ctx.opts);
        let inorder = harness
            .clone()
            .with_config(harness.config.clone().with_sched_policy(SchedPolicy::InOrder));
        // Serial on purpose: with `prepare_all`'s two workers the peak RSS
        // depends on which benchmarks happen to overlap (±10 % run to run).
        let mag = harness.config.mag();
        let mut artifacts = Vec::new();
        let mut jobs = Vec::new();
        for (benchmark, workload) in all_workloads(harness.scale).iter().enumerate() {
            let open = ctx.rec.begin("workloads.prepare");
            let a = harness.prepare(workload.as_ref());
            ctx.rec.end(open);
            let schemes = [
                ("workloads.functional_nocomp", Scheme::Uncompressed),
                ("workloads.functional_e2mc", Scheme::E2mc(a.e2mc.clone())),
                (
                    "workloads.functional_slc",
                    Scheme::slc(a.e2mc.clone(), mag, THRESHOLD_BYTES, SlcVariant::TslcOpt),
                ),
            ];
            for (span, scheme) in schemes {
                let open = ctx.rec.begin(span);
                let functional = harness.run_functional(workload.as_ref(), &a, &scheme);
                ctx.rec.end(open);
                jobs.push(Job {
                    benchmark,
                    scheme,
                    functional,
                    reference: SimStats::default(),
                    reference_inorder: None,
                });
            }
            artifacts.push(a);
        }

        for (i, job) in jobs.iter_mut().enumerate() {
            let a = &artifacts[job.benchmark];
            let (stats, _) =
                ctx.op("sim.run", || harness.run_timing(a, &job.functional, &job.scheme).stats);
            ctx.count(("round0", i), stats.is_some());
            job.reference = stats.unwrap_or_default();
            if ctx.opts.trace {
                let (stats, _) = ctx.op("sim.run_inorder", || {
                    inorder.run_timing(a, &job.functional, &job.scheme).stats
                });
                ctx.count(("round0_inorder", i), stats.is_some());
                job.reference_inorder = stats;
            }
        }
        SimSweep { harness, inorder, artifacts, jobs }
    }

    fn run(&self, ctx: &mut Ctx, group: &'static str, i: usize) {
        let job = &self.jobs[i];
        let a = &self.artifacts[job.benchmark];
        ctx.timed(
            "sim.run",
            (group, i),
            || self.harness.run_timing(a, &job.functional, &job.scheme).stats,
            |stats| *stats == job.reference,
        );
    }
}

/// The exact simulated counters, aggregated over `stats`.
pub fn simulated_counters<'a>(stats: impl Iterator<Item = &'a SimStats>, m: &mut Metrics) {
    let mut t = SimStats::default();
    for s in stats {
        t.cycles += s.cycles;
        t.stall_cycles += s.stall_cycles;
        t.l2_hits += s.l2_hits;
        t.l2_misses += s.l2_misses;
        t.mdc_hits += s.mdc_hits;
        t.mdc_misses += s.mdc_misses;
        t.row_hits += s.row_hits;
        t.row_misses += s.row_misses;
        t.dram_reads += s.dram_reads;
        t.read_latency_sum += s.read_latency_sum;
        t.queue_wait_cycles += s.queue_wait_cycles;
        // `total_bursts()` sums these four.
        t.read_bursts += s.read_bursts;
        t.write_bursts += s.write_bursts;
        t.metadata_bursts += s.metadata_bursts;
        t.metadata_writeback_bursts += s.metadata_writeback_bursts;
    }
    m.set("sim.cycles", t.cycles as f64);
    m.set("sim.total_bursts", t.total_bursts() as f64);
    m.set("sim.l2_miss_rate", t.l2_miss_rate());
    m.set("sim.mdc_hit_rate", t.mdc_hit_rate());
    m.set("sim.row_hit_rate", ratio(t.row_hits as f64, (t.row_hits + t.row_misses) as f64));
    m.set("sim.avg_read_latency_cycles", t.avg_read_latency());
    m.set("sim.queue_wait_cycles", t.queue_wait_cycles as f64);
    m.set("sim.stall_cycles", t.stall_cycles as f64);
}

impl Workload for SimSweep {
    /// Kind-major, as the container workloads: all 27 FR-FCFS runs, then
    /// (traced) all 27 in-order runs, then the untraced twins.
    fn round(&mut self, ctx: &mut Ctx) {
        let jobs = 0..self.jobs.len();
        for i in jobs.clone() {
            self.run(ctx, "sim", i);
        }
        if !ctx.rec.enabled() {
            return;
        }
        for i in jobs.clone() {
            let job = &self.jobs[i];
            let a = &self.artifacts[job.benchmark];
            ctx.timed(
                "sim.run_inorder",
                ("sim_inorder", i),
                || self.inorder.run_timing(a, &job.functional, &job.scheme).stats,
                |stats| Some(stats) == job.reference_inorder.as_ref(),
            );
        }
        ctx.untraced(|ctx| {
            for i in jobs {
                self.run(ctx, "twin.sim", i);
            }
        });
    }

    fn finish(self: Box<Self>, ctx: &Ctx, out: &mut Outcome) {
        let s = &ctx.samples;
        let m = &mut out.metrics;
        finish_common(ctx, &["sim"], &["sim"], &["twin.sim"], m);
        let total = |pick: &dyn Fn(&SimStats) -> u64| {
            self.jobs.iter().map(|j| pick(&j.reference) as f64).sum::<f64>()
        };
        let ops = total(&|st| st.ops);
        m.set("sim_mops_per_s", ratio(ops, s.p10("sim")) / 1e6);
        let mut digest = Digest::default();
        for job in &self.jobs {
            digest.feed(format!("{:?}", job.reference).as_bytes());
        }
        out.digests.insert("sim_stats_digest", digest.hex());
        simulated_counters(self.jobs.iter().map(|j| &j.reference), m);
        if !ctx.rec.enabled() {
            return;
        }
        m.set("sim.host_ns_per_op", ratio(s.p10("sim") * 1e9, ops));
        m.set("sim.host_ns_per_burst", ratio(s.p10("sim") * 1e9, total(&|st| st.total_bursts())));
        m.set("sim.mcycles_per_s", ratio(total(&|st| st.cycles), s.p10("sim")) / 1e6);
        for (scheme, name) in
            ["sim.nocomp_mops_per_s", "sim.e2mc_mops_per_s", "sim.tslc_mops_per_s"]
                .into_iter()
                .enumerate()
        {
            let ops: f64 = self
                .jobs
                .iter()
                .skip(scheme)
                .step_by(SCHEMES)
                .map(|j| j.reference.ops as f64)
                .sum();
            m.set(name, ratio(ops, s.p10_where("sim", |i| i % SCHEMES == scheme)) / 1e6);
        }
        m.set("sim.inorder_mops_per_s", ratio(ops, s.p10("sim_inorder")) / 1e6);
        m.set("workloads.prepare_s", span_total(ctx, "workloads.prepare"));
        m.set("workloads.functional_e2mc_s", span_total(ctx, "workloads.functional_e2mc"));
        m.set("workloads.functional_slc_s", span_total(ctx, "workloads.functional_slc"));
    }
}
