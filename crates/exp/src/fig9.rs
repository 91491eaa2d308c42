//! Figure 9 + §V-C: SLC sensitivity to the memory access granularity.
//!
//! TSLC-OPT under MAG 16 B / 32 B / 64 B with the lossy threshold set to
//! MAG/2 ("one threshold across different MAGs is not suitable"), plus
//! the §V-C effective-compression-ratio study (paper: E2MC GM 1.41 / 1.31
//! / 1.16 at MAG 16/32/64 B, raw GM 1.54 independent of MAG).

use crate::eval::{self, grouped_table, per_benchmark, Eval, EvalRow, ERROR, SPEEDUP};
use slc_compress::ratio::{geometric_mean, RatioAccumulator};
use slc_compress::{BlockCompressor, Mag, BLOCK_BYTES};
use slc_core::slc::SlcVariant;
use slc_workloads::{all_workloads, BenchmarkArtifacts, Harness, Scale, Workload};

/// One MAG's column of Fig. 9.
#[derive(Debug, Clone)]
pub struct MagStudy {
    /// The MAG.
    pub mag: Mag,
    /// Threshold used (MAG/2).
    pub threshold_bytes: u32,
    /// The TSLC-OPT evaluation at this MAG.
    pub eval: Eval,
    /// §V-C: E2MC effective-ratio GM at this MAG.
    pub e2mc_effective_gm: f64,
    /// §V-C: E2MC raw-ratio GM (MAG-independent).
    pub e2mc_raw_gm: f64,
}

/// The whole sensitivity study.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One study per MAG, in 16/32/64 order.
    pub studies: Vec<MagStudy>,
}

/// The MAGs of Fig. 9, in column order.
const MAGS: [Mag; 3] = [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64];

/// One benchmark's share of one MAG's study: its TSLC-OPT row and its
/// §V-C (raw, effective) E2MC ratio.
pub(crate) type MagCell = (EvalRow, (f64, f64));

/// Runs Fig. 9 at `scale`, one benchmark at a time.
pub fn compute(scale: Scale) -> Fig9 {
    let harness = Harness::new(scale);
    Fig9::from_rows(per_benchmark(all_workloads(scale), &harness, |w, a| row(&harness, w, a, None)))
}

/// One benchmark under every MAG, in [`MAGS`] order. The exact run,
/// trained table, trace and size cache are all MAG-independent (only
/// burst accounting and the lossy budget see the MAG), so the three
/// studies re-decide over the one prepared benchmark, and one pass that
/// sizes the final image (as Fig. 1 does) feeds all three §V-C ratios.
/// `at_base_mag` is the TSLC-OPT row at `base`'s own MAG and threshold
/// MAG/2 when the caller has it already (Fig. 7 computes exactly that
/// column).
pub(crate) fn row(
    base: &Harness,
    w: &dyn Workload,
    artifacts: &BenchmarkArtifacts,
    at_base_mag: Option<&EvalRow>,
) -> Vec<MagCell> {
    let evals = MAGS.map(|mag| match at_base_mag {
        Some(known) if mag == base.config.mag() => known.clone(),
        _ => {
            let harness = base.clone().with_config(base.config.with_mag(mag));
            eval::row(&harness, mag.bytes() / 2, &[SlcVariant::TslcOpt], w, artifacts)
        }
    });
    let mut accs = MAGS.map(|mag| RatioAccumulator::new(mag, BLOCK_BYTES as u32));
    for (_, _, block) in artifacts.exact_memory.blocks_with_addr() {
        let bits = artifacts.e2mc.size_bits(block);
        accs.iter_mut().for_each(|acc| acc.record_bits(bits));
    }
    let ratios = accs.map(|acc| (acc.raw_ratio(), acc.effective_ratio()));
    evals.into_iter().zip(ratios).collect()
}

impl Fig9 {
    /// The study over per-benchmark [`row`]s (paper order).
    pub(crate) fn from_rows(rows: Vec<Vec<MagCell>>) -> Self {
        let study = |(m, &mag): (usize, &Mag)| {
            let (rows, (raw, effective)): (Vec<_>, (Vec<_>, Vec<_>)) =
                rows.iter().map(|cells| cells[m].clone()).unzip();
            let threshold_bytes = mag.bytes() / 2;
            let variants = vec![SlcVariant::TslcOpt];
            MagStudy {
                mag,
                threshold_bytes,
                eval: Eval { rows, variants, threshold_bytes, mag_bytes: mag.bytes() },
                e2mc_effective_gm: geometric_mean(&effective),
                e2mc_raw_gm: geometric_mean(&raw),
            }
        };
        Fig9 { studies: MAGS.iter().enumerate().map(study).collect() }
    }

    /// Renders speedups, errors and the §V-C ratios.
    pub fn render(&self) -> String {
        let columns: Vec<_> =
            self.studies.iter().map(|s| (s.mag.to_string(), &s.eval, 0)).collect();
        let table = grouped_table(&[SPEEDUP, ERROR], &columns, |m, l| format!("{m}@{l}"));
        let mut out =
            String::from("Fig. 9: TSLC-OPT speedup and error across MAGs (threshold = MAG/2)\n");
        out.push_str(&table);
        out.push_str("\n(paper GM speedups: 1.05 @16B, 1.097 @32B, 1.09 @64B; NN +35%, SRAD1 +27%, TP +21% @64B)\n");
        out.push_str(
            "\n§V-C: E2MC compression-ratio GM by MAG (paper: eff 1.41/1.31/1.16, raw 1.54):\n",
        );
        for s in &self.studies {
            out.push_str(&format!(
                "  MAG {:>3}: raw {:.2}  effective {:.2}\n",
                s.mag.to_string(),
                s.e2mc_raw_gm,
                s.e2mc_effective_gm
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_ratio_decreases_with_mag() {
        let fig = compute(Scale::Tiny);
        assert_eq!(fig.studies.len(), 3);
        let eff: Vec<f64> = fig.studies.iter().map(|s| s.e2mc_effective_gm).collect();
        assert!(eff[0] > eff[1] && eff[1] > eff[2], "effective GMs must fall with MAG: {eff:?}");
        // Raw GM is MAG-independent.
        let raw: Vec<f64> = fig.studies.iter().map(|s| s.e2mc_raw_gm).collect();
        assert!((raw[0] - raw[2]).abs() < 1e-9, "raw GM depends on MAG: {raw:?}");
        for s in &fig.studies {
            assert!(s.e2mc_raw_gm >= s.e2mc_effective_gm);
            assert_eq!(s.threshold_bytes, s.mag.bytes() / 2);
        }
        assert!(fig.render().contains("GM"));
    }
}
