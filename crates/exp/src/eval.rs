//! The main SLC evaluation: every benchmark under E2MC and the TSLC
//! variants. Figures 7 and 8 are two views of these runs.

use crate::report::{err_pct, f3, TextTable};
use slc_compress::ratio::geometric_mean;
use slc_core::slc::SlcVariant;
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
    /// Speedup of E2MC over *no compression* (context).
    pub e2mc_vs_nocomp: f64,
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

/// Runs the evaluation at `scale` for the given TSLC variants.
///
/// `config` fixes the MAG; the threshold follows the paper (16 B at MAG
/// 32 B in Figs. 7–8, MAG/2 in Fig. 9).
///
/// The nine benchmarks are independent, so they evaluate in parallel
/// ([`slc_par::par_map`]); results come back in paper order regardless of
/// which workload finishes first, keeping reports byte-identical to a
/// serial run.
pub fn evaluate(
    scale: Scale,
    harness: &Harness,
    threshold_bytes: u32,
    variants: &[SlcVariant],
) -> Eval {
    evaluate_prepared(harness, threshold_bytes, variants, &prepare_all(scale, harness))
}

/// Step 1+2 (exact run + table training) for every benchmark, in
/// parallel. Callers that need the artifacts for their own studies (e.g.
/// Fig. 9's ratio sweep) prepare once and pass the result to
/// [`evaluate_prepared`] instead of paying a second full prepare pass.
///
/// This is where each benchmark's inputs are generated, once: the
/// artifacts carry the seeded image
/// ([`BenchmarkArtifacts::initial_memory`]) and every functional pass of
/// every sweep replays over it. They also lazily cache the exact run's
/// per-snapshot E2MC stored sizes
/// ([`BenchmarkArtifacts::exact_size_snapshots`]): the artifacts are
/// MAG- and threshold-independent, so one prepared set serves any number
/// of [`evaluate_prepared`] sweeps and the E2MC baseline inside each is a
/// cheap decision sweep over the shared sizes, not a re-encode.
pub fn prepare_all(
    scale: Scale,
    harness: &Harness,
) -> Vec<(Box<dyn Workload>, BenchmarkArtifacts)> {
    slc_par::par_map(all_workloads(scale), |w| {
        let artifacts = harness.prepare(w.as_ref());
        (w, artifacts)
    })
}

/// [`evaluate`] over benchmarks that are already prepared.
pub fn evaluate_prepared(
    harness: &Harness,
    threshold_bytes: u32,
    variants: &[SlcVariant],
    prepared: &[(Box<dyn Workload>, BenchmarkArtifacts)],
) -> Eval {
    let energy_model = EnergyModel::default();
    let mag = harness.config.mag();
    let rows = slc_par::par_map(prepared.iter().collect(), |(w, artifacts)| {
        // Baselines. Cloning `artifacts.e2mc` into a scheme is an Arc
        // refcount bump (the trained table is shared), so every worker
        // and every variant below reuses the one trained model; the E2MC
        // baseline additionally sweeps the artifacts' cached exact-run
        // stored sizes instead of replaying the kernels (see
        // `Harness::run_functional`).
        let nocomp = Scheme::Uncompressed;
        let (_, t_nocomp) = harness.evaluate(w.as_ref(), artifacts, &nocomp);
        let e2mc_scheme = Scheme::E2mc(artifacts.e2mc.clone());
        let (_, t_e2mc) = harness.evaluate(w.as_ref(), artifacts, &e2mc_scheme);
        let baseline_energy = energy_model.evaluate(&t_e2mc.stats, &harness.config);
        // Variants.
        let mut results = Vec::new();
        for &variant in variants {
            let scheme = Scheme::slc(artifacts.e2mc.clone(), mag, threshold_bytes, variant);
            let (f, t) = harness.evaluate(w.as_ref(), artifacts, &scheme);
            let energy = energy_model.evaluate(&t.stats, &harness.config);
            results.push(VariantResult {
                kind: t.kind,
                speedup: speedup(&t_e2mc.stats, &t.stats),
                error_pct: f.error_pct,
                mre_pct: f.mre_pct,
                norm_bandwidth: normalized_bandwidth(&t_e2mc.stats, &t.stats),
                norm_energy: energy.total_mj() / baseline_energy.total_mj(),
                norm_edp: energy.edp() / baseline_energy.edp(),
                stats: t.stats,
                energy,
            });
        }
        EvalRow {
            name: artifacts.name.clone(),
            baseline: t_e2mc.stats.clone(),
            baseline_energy,
            e2mc_vs_nocomp: speedup(&t_nocomp.stats, &t_e2mc.stats),
            variants: results,
        }
    });
    Eval { rows, variants: variants.to_vec(), threshold_bytes, mag_bytes: mag.bytes() }
}

impl Eval {
    /// Geometric-mean speedup of variant `v` across benchmarks.
    pub fn gm_speedup(&self, v: usize) -> f64 {
        geometric_mean(&self.rows.iter().map(|r| r.variants[v].speedup).collect::<Vec<_>>())
    }

    /// Geometric-mean normalised bandwidth of variant `v`.
    pub fn gm_bandwidth(&self, v: usize) -> f64 {
        geometric_mean(&self.rows.iter().map(|r| r.variants[v].norm_bandwidth).collect::<Vec<_>>())
    }

    /// Geometric-mean normalised energy of variant `v`.
    pub fn gm_energy(&self, v: usize) -> f64 {
        geometric_mean(&self.rows.iter().map(|r| r.variants[v].norm_energy).collect::<Vec<_>>())
    }

    /// Geometric-mean normalised EDP of variant `v`.
    pub fn gm_edp(&self, v: usize) -> f64 {
        geometric_mean(&self.rows.iter().map(|r| r.variants[v].norm_edp).collect::<Vec<_>>())
    }

    /// Geometric mean of the per-benchmark MREs of variant `v`, in percent
    /// (the paper reports 0.99 % for TSLC-OPT); zero errors are clamped to
    /// a 1e-6 % floor so the GM stays defined.
    pub fn gm_mre(&self, v: usize) -> f64 {
        geometric_mean(
            &self.rows.iter().map(|r| r.variants[v].mre_pct.max(1e-6)).collect::<Vec<_>>(),
        )
    }

    /// Renders Fig. 7 (speedup + error).
    pub fn render_fig7(&self) -> String {
        let labels: Vec<&str> = self.variants.iter().map(|v| v.label()).collect();
        let mut header = vec!["Bench".to_owned()];
        for l in &labels {
            header.push(format!("{l} speedup"));
        }
        for l in &labels {
            header.push(format!("{l} err"));
        }
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let mut cells = vec![row.name.clone()];
            for v in &row.variants {
                cells.push(f3(v.speedup));
            }
            for v in &row.variants {
                cells.push(err_pct(v.error_pct));
            }
            t.row(cells);
        }
        let mut cells = vec!["GM".to_owned()];
        for v in 0..self.variants.len() {
            cells.push(f3(self.gm_speedup(v)));
        }
        for v in 0..self.variants.len() {
            cells.push(err_pct(self.gm_mre(v)));
        }
        t.row(cells);
        let mut out = format!(
            "Fig. 7: speedup and error vs E2MC (MAG {} B, threshold {} B)\n",
            self.mag_bytes, self.threshold_bytes
        );
        out.push_str(&t.render());
        out.push_str(
            "\n(GM error row shows the geometric mean of per-benchmark MREs;\n paper: GM speedups 1.090/1.098/1.097, GM MRE 0.99% for TSLC-OPT)\n",
        );
        out
    }

    /// Renders Fig. 8 (bandwidth, energy, EDP).
    pub fn render_fig8(&self) -> String {
        let labels: Vec<&str> = self.variants.iter().map(|v| v.label()).collect();
        let mut header = vec!["Bench".to_owned()];
        for l in &labels {
            header.push(format!("{l} BW"));
        }
        for l in &labels {
            header.push(format!("{l} E"));
        }
        for l in &labels {
            header.push(format!("{l} EDP"));
        }
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let mut cells = vec![row.name.clone()];
            for v in &row.variants {
                cells.push(f3(v.norm_bandwidth));
            }
            for v in &row.variants {
                cells.push(f3(v.norm_energy));
            }
            for v in &row.variants {
                cells.push(f3(v.norm_edp));
            }
            t.row(cells);
        }
        let mut cells = vec!["GM".to_owned()];
        for v in 0..self.variants.len() {
            cells.push(f3(self.gm_bandwidth(v)));
        }
        for v in 0..self.variants.len() {
            cells.push(f3(self.gm_energy(v)));
        }
        for v in 0..self.variants.len() {
            cells.push(f3(self.gm_edp(v)));
        }
        t.row(cells);
        let mut out = format!(
            "Fig. 8: bandwidth, energy and EDP normalised to E2MC (MAG {} B, threshold {} B)\n",
            self.mag_bytes, self.threshold_bytes
        );
        out.push_str(&t.render());
        out.push_str("\n(paper GMs: bandwidth ~0.86, energy ~0.917, EDP ~0.825)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
