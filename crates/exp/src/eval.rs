//! The main SLC evaluation: every benchmark under E2MC and the TSLC
//! variants. Figures 7 and 8 are two views of these runs.

use crate::report::{err_pct, f3, TextTable};
use slc_compress::ratio::geometric_mean;
use slc_core::slc::SlcVariant;
use slc_par::{par_map, Threads};
use slc_power::{EnergyBreakdown, EnergyModel};
use slc_sim::SimStats;
use slc_workloads::harness::BenchmarkArtifacts;
use slc_workloads::harness::{normalized_bandwidth, speedup};
use slc_workloads::{all_workloads, Harness, Scale, Scheme, SchemeKind, Workload};

/// One scheme's results on one benchmark, normalised to the E2MC baseline.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Scheme identity.
    pub kind: SchemeKind,
    /// Speedup over E2MC (>1 = faster).
    pub speedup: f64,
    /// Application-specific error (percent).
    pub error_pct: f64,
    /// Uniform MRE (percent) for the cross-benchmark GM.
    pub mre_pct: f64,
    /// DRAM traffic normalised to E2MC (<1 = less).
    pub norm_bandwidth: f64,
    /// Energy normalised to E2MC.
    pub norm_energy: f64,
    /// EDP normalised to E2MC.
    pub norm_edp: f64,
    /// Raw counters.
    pub stats: SimStats,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

/// One benchmark's full evaluation.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Benchmark name.
    pub name: String,
    /// E2MC baseline counters.
    pub baseline: SimStats,
    /// E2MC baseline energy.
    pub baseline_energy: EnergyBreakdown,
    /// TSLC variants in the requested order.
    pub variants: Vec<VariantResult>,
}

/// The full evaluation.
#[derive(Debug, Clone)]
pub struct Eval {
    /// Per-benchmark rows in paper order.
    pub rows: Vec<EvalRow>,
    /// Variant order used.
    pub variants: Vec<SlcVariant>,
    /// Lossy threshold in bytes.
    pub threshold_bytes: u32,
    /// MAG in bytes.
    pub mag_bytes: u32,
}

/// The one driver of every figure: prepares each benchmark (exact run,
/// table training, trace), hands it to `row`, and drops its artifacts
/// before the worker takes the next one. One [`par_map`], rows
/// in the order of `workloads`.
pub(crate) fn per_benchmark<R: Send>(
    workloads: Vec<Box<dyn Workload>>,
    harness: &Harness,
    row: impl Fn(&dyn Workload, &BenchmarkArtifacts) -> R + Sync,
) -> Vec<R> {
    par_map(workloads, Threads::Auto, |w| row(w.as_ref(), &harness.prepare(w.as_ref())))
}

/// Runs the evaluation at `scale` for the given TSLC variants.
///
/// `config` fixes the MAG; the threshold follows the paper (16 B at MAG
/// 32 B in Figs. 7–8, MAG/2 in Fig. 9).
///
/// The nine benchmarks are independent, so they evaluate in parallel
/// ([`par_map`]) and one at a time per worker: each is prepared,
/// evaluated under every scheme and dropped before the worker takes the
/// next, so one benchmark's images per worker are resident, not all nine.
/// Results come back in paper order regardless of which workload finishes
/// first, keeping reports byte-identical to a serial run.
pub fn evaluate(
    scale: Scale,
    harness: &Harness,
    threshold_bytes: u32,
    variants: &[SlcVariant],
) -> Eval {
    let rows = per_benchmark(all_workloads(scale), harness, |w, artifacts| {
        row(harness, threshold_bytes, variants, w, artifacts)
    });
    let mag_bytes = harness.config.mag().bytes();
    Eval { rows, variants: variants.to_vec(), threshold_bytes, mag_bytes }
}

/// Kept for `benchmark/`; ROADMAP item 19 deletes it.
#[doc(hidden)]
pub fn prepare_all(
    scale: Scale,
    harness: &Harness,
) -> Vec<(Box<dyn Workload>, BenchmarkArtifacts)> {
    par_map(all_workloads(scale), Threads::Auto, |w| {
        let artifacts = harness.prepare(w.as_ref());
        (w, artifacts)
    })
}

/// Kept for `benchmark/`; ROADMAP item 19 deletes it.
#[doc(hidden)]
pub fn evaluate_prepared(
    harness: &Harness,
    threshold_bytes: u32,
    variants: &[SlcVariant],
    prepared: &[(Box<dyn Workload>, BenchmarkArtifacts)],
) -> Eval {
    let rows = par_map(prepared.iter().collect(), Threads::Auto, |(w, artifacts)| {
        row(harness, threshold_bytes, variants, w.as_ref(), artifacts)
    });
    let mag_bytes = harness.config.mag().bytes();
    Eval { rows, variants: variants.to_vec(), threshold_bytes, mag_bytes }
}

/// One benchmark's row: the E2MC baseline and every variant over one
/// working image ([`Harness::evaluate_schemes`]). Every scheme shares
/// the one trained table (cloning it is an Arc refcount bump), and the
/// E2MC baseline sweeps the artifacts' cached exact-run stored sizes (one
/// `u16` a block per staging point) instead of replaying the kernels (see
/// [`Harness::run_functional`]).
pub(crate) fn row(
    harness: &Harness,
    threshold_bytes: u32,
    variants: &[SlcVariant],
    w: &dyn Workload,
    artifacts: &BenchmarkArtifacts,
) -> EvalRow {
    let energy_model = EnergyModel;
    let slc = |&v| Scheme::slc(artifacts.e2mc.clone(), harness.config.mag(), threshold_bytes, v);
    let mut schemes = vec![Scheme::E2mc(artifacts.e2mc.clone())];
    schemes.extend(variants.iter().map(slc));
    // One outcome (and its burst map) alive at a time.
    let mut outcomes = harness.evaluate_schemes(w, artifacts, &schemes);
    let e2mc = outcomes.next().expect("the baseline leads the schemes").1.stats;
    let baseline_energy = energy_model.evaluate(&e2mc, &harness.config);
    let variants = outcomes
        .map(|(f, t)| {
            let energy = energy_model.evaluate(&t.stats, &harness.config);
            VariantResult {
                kind: t.kind,
                speedup: speedup(&e2mc, &t.stats),
                error_pct: f.error_pct,
                mre_pct: f.mre_pct,
                norm_bandwidth: normalized_bandwidth(&e2mc, &t.stats),
                norm_energy: energy.total_mj() / baseline_energy.total_mj(),
                norm_edp: energy.edp() / baseline_energy.edp(),
                stats: t.stats,
                energy,
            }
        })
        .collect();
    EvalRow { name: artifacts.name.clone(), baseline: e2mc, baseline_energy, variants }
}

impl Eval {
    /// Geometric mean of `metric` of variant `v` across benchmarks.
    fn gm(&self, v: usize, metric: impl Fn(&VariantResult) -> f64) -> f64 {
        geometric_mean(&self.rows.iter().map(|r| metric(&r.variants[v])).collect::<Vec<_>>())
    }

    /// Geometric-mean speedup of variant `v` across benchmarks.
    pub fn gm_speedup(&self, v: usize) -> f64 {
        self.gm(v, |r| r.speedup)
    }

    /// Geometric-mean normalised bandwidth of variant `v`.
    pub fn gm_bandwidth(&self, v: usize) -> f64 {
        self.gm(v, |r| r.norm_bandwidth)
    }

    /// Geometric-mean normalised energy of variant `v`.
    pub fn gm_energy(&self, v: usize) -> f64 {
        self.gm(v, |r| r.norm_energy)
    }

    /// Geometric-mean normalised EDP of variant `v`.
    pub fn gm_edp(&self, v: usize) -> f64 {
        self.gm(v, |r| r.norm_edp)
    }

    /// Geometric mean of the per-benchmark MREs of variant `v`, in percent
    /// (the paper reports 0.99 % for TSLC-OPT); zero errors are clamped to
    /// a 1e-6 % floor so the GM stays defined.
    pub fn gm_mre(&self, v: usize) -> f64 {
        self.gm(v, |r| r.mre_pct.max(1e-6))
    }

    /// One column per variant, labelled by the variant.
    fn variant_columns(&self) -> Vec<Column<'_>> {
        let label = |(v, variant): (usize, &SlcVariant)| (variant.label().to_owned(), self, v);
        self.variants.iter().enumerate().map(label).collect()
    }

    /// Renders Fig. 7 (speedup + error).
    pub fn render_fig7(&self) -> String {
        let table =
            grouped_table(&[SPEEDUP, ERROR], &self.variant_columns(), |m, l| format!("{l} {m}"));
        format!(
            "Fig. 7: speedup and error vs E2MC (MAG {} B, threshold {} B)\n{table}\n\
             (GM error row shows the geometric mean of per-benchmark MREs;\n paper: GM speedups \
             1.090/1.098/1.097, GM MRE 0.99% for TSLC-OPT)\n",
            self.mag_bytes, self.threshold_bytes
        )
    }

    /// Renders Fig. 8 (bandwidth, energy, EDP).
    pub fn render_fig8(&self) -> String {
        let metrics = [BANDWIDTH, ENERGY, EDP];
        let table = grouped_table(&metrics, &self.variant_columns(), |m, l| format!("{l} {m}"));
        format!(
            "Fig. 8: bandwidth, energy and EDP normalised to E2MC (MAG {} B, threshold {} B)\n\
             {table}\n(paper GMs: bandwidth ~0.86, energy ~0.917, EDP ~0.825)\n",
            self.mag_bytes, self.threshold_bytes
        )
    }
}

/// One column of a metric's group: its label, the evaluation and the
/// variant index in it.
pub(crate) type Column<'a> = (String, &'a Eval, usize);

/// A metric of Figs. 7–9: its header name, its cell format, one
/// benchmark's value and the GM row's.
pub(crate) struct Metric {
    name: &'static str,
    fmt: fn(f64) -> String,
    value: fn(&VariantResult) -> f64,
    gm: fn(&Eval, usize) -> f64,
}

pub(crate) const SPEEDUP: Metric =
    Metric { name: "speedup", fmt: f3, value: |r| r.speedup, gm: Eval::gm_speedup };
/// The error column's GM is the MREs'.
pub(crate) const ERROR: Metric =
    Metric { name: "err", fmt: err_pct, value: |r| r.error_pct, gm: Eval::gm_mre };
const BANDWIDTH: Metric =
    Metric { name: "BW", fmt: f3, value: |r| r.norm_bandwidth, gm: Eval::gm_bandwidth };
const ENERGY: Metric = Metric { name: "E", fmt: f3, value: |r| r.norm_energy, gm: Eval::gm_energy };
const EDP: Metric = Metric { name: "EDP", fmt: f3, value: |r| r.norm_edp, gm: Eval::gm_edp };

/// The table of Figs. 7, 8 and 9: a column per (metric, column),
/// metric-major, headed `header(metric name, label)`; a row per
/// benchmark of the first column's evaluation; then the GM row.
pub(crate) fn grouped_table(
    metrics: &[Metric],
    columns: &[Column<'_>],
    header: impl Fn(&str, &str) -> String,
) -> String {
    let line = |first: String, cell: &dyn Fn(&Metric, &Column<'_>) -> String| {
        let mut cells = vec![first];
        for m in metrics {
            cells.extend(columns.iter().map(|c| cell(m, c)));
        }
        cells
    };
    let mut t = TextTable::new(line("Bench".to_owned(), &|m, (l, ..)| header(m.name, l)));
    for (i, row) in columns[0].1.rows.iter().enumerate() {
        t.row(line(row.name.clone(), &|m, &(_, e, v)| (m.fmt)((m.value)(&e.rows[i].variants[v]))));
    }
    t.row(line("GM".to_owned(), &|m, &(_, e, v)| (m.fmt)((m.gm)(e, v))));
    t.render()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use slc_sim::{DevicePtr, GpuMemory, Trace};
    use slc_workloads::metrics::ErrorMetric;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// How often one benchmark was built and executed.
    #[derive(Debug, Default)]
    pub(crate) struct Calls {
        builds: AtomicUsize,
        executes: AtomicUsize,
    }

    impl Calls {
        /// `(build calls, execute calls)` so far.
        pub(crate) fn counts(&self) -> (usize, usize) {
            (self.builds.load(Ordering::Relaxed), self.executes.load(Ordering::Relaxed))
        }
    }

    /// Delegates everything to `inner` and counts `build` and `execute`.
    struct Counted {
        inner: Box<dyn Workload>,
        calls: Arc<Calls>,
    }

    impl Workload for Counted {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn description(&self) -> &'static str {
            self.inner.description()
        }

        fn metric(&self) -> ErrorMetric {
            self.inner.metric()
        }

        fn approx_regions(&self) -> usize {
            self.inner.approx_regions()
        }

        fn input_description(&self) -> String {
            self.inner.input_description()
        }

        fn build(&self, seed: u64) -> GpuMemory {
            self.calls.builds.fetch_add(1, Ordering::Relaxed);
            self.inner.build(seed)
        }

        fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
            self.calls.executes.fetch_add(1, Ordering::Relaxed);
            self.inner.execute(mem, stage);
        }

        fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
            self.inner.output_arrays()
        }

        fn trace(&self, sms: usize) -> Trace {
            self.inner.trace(sms)
        }
    }

    /// Table III at tiny behind counting wrappers, with each one's counter.
    pub(crate) fn counted_workloads() -> (Vec<Box<dyn Workload>>, Vec<Arc<Calls>>) {
        let wrap = |inner| {
            let calls = Arc::new(Calls::default());
            (Box::new(Counted { inner, calls: calls.clone() }) as Box<dyn Workload>, calls)
        };
        all_workloads(Scale::Tiny).into_iter().map(wrap).unzip()
    }

    const VARIANTS: [SlcVariant; 3] =
        [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt];

    #[test]
    fn evaluate_builds_each_benchmark_once_and_is_the_prepared_evaluation() {
        let harness = Harness::new(Scale::Tiny);
        // `evaluate`'s body over counting workloads: one build, and five
        // executes — the exact run, the E2MC size pass, three variants.
        let (workloads, calls) = counted_workloads();
        let counted = per_benchmark(workloads, &harness, |w, a| row(&harness, 16, &VARIANTS, w, a));
        for (row, calls) in counted.iter().zip(&calls) {
            assert_eq!(calls.counts(), (1, 5), "{}: (builds, executes)", row.name);
        }
        // Benchmark-major and phase-major are the same rows.
        let eval = evaluate(Scale::Tiny, &harness, 16, &VARIANTS);
        let prepared =
            evaluate_prepared(&harness, 16, &VARIANTS, &prepare_all(Scale::Tiny, &harness));
        assert_eq!(format!("{:?}", eval.rows), format!("{counted:?}"));
        assert_eq!(format!("{eval:?}"), format!("{prepared:?}"));
    }

    #[test]
    fn tiny_eval_produces_sane_numbers() {
        let harness = Harness::new(Scale::Tiny);
        let eval = evaluate(Scale::Tiny, &harness, 16, &[SlcVariant::TslcOpt]);
        assert_eq!(eval.rows.len(), 9);
        for row in &eval.rows {
            let v = &row.variants[0];
            assert!(v.speedup > 0.85, "{}: speedup {}", row.name, v.speedup);
            assert!(
                v.norm_bandwidth <= 1.02,
                "{}: TSLC must not add traffic ({})",
                row.name,
                v.norm_bandwidth
            );
            assert!(v.error_pct >= 0.0);
            assert!(v.norm_edp <= v.norm_energy + 1e-9 || v.speedup < 1.0);
        }
        let gm = eval.gm_speedup(0);
        assert!(gm >= 0.98, "GM speedup {gm}");
        let fig7 = eval.render_fig7();
        assert!(fig7.contains("GM"));
        let fig8 = eval.render_fig8();
        assert!(fig8.contains("EDP"));
    }
}
