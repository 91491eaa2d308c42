//! Figure 1: raw vs effective compression ratio of BDI, FPC, C-PACK and
//! E2MC at MAG 32 B — plus BPC, which the paper only argues about
//! qualitatively (Section II-A) and we measure. The other Section II-A
//! codecs (SC2, FP-H, HyComp) are not modelled; PAPER.md, "Deviations
//! from the paper", gives their measured MAG gaps.

use crate::eval::per_benchmark;
use crate::report::{f3, TextTable};
use slc_compress::bdi::Bdi;
use slc_compress::bpc::Bpc;
use slc_compress::cpack::Cpack;
use slc_compress::fpc::Fpc;
use slc_compress::ratio::{geometric_mean, RatioAccumulator};
use slc_compress::{BlockCompressor, Mag, BLOCK_BYTES};
use slc_workloads::{all_workloads, BenchmarkArtifacts, Harness, Scale};

/// Per-benchmark, per-codec ratio pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioPair {
    /// MAG-oblivious ratio.
    pub raw: f64,
    /// Ratio after rounding block sizes up to MAG multiples.
    pub effective: f64,
}

/// The codecs of Fig. 1 (+ BPC).
pub const CODECS: [&str; 5] = ["BDI", "FPC", "CPACK", "E2MC", "BPC"];

/// One benchmark's row.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Benchmark name.
    pub name: String,
    /// Ratios in `CODECS` order.
    pub ratios: Vec<RatioPair>,
}

/// The whole figure.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig1Row>,
    /// Geometric means in `CODECS` order.
    pub gm: Vec<RatioPair>,
    /// The MAG used.
    pub mag: Mag,
}

/// Computes Fig. 1 at `scale` under the simulated GPU's MAG (32 B), one
/// benchmark at a time.
pub fn compute(scale: Scale) -> Fig1 {
    let harness = Harness::new(scale);
    let mag = harness.config.mag();
    let rows = per_benchmark(all_workloads(scale), &harness, |_, a| row(a, mag));
    Fig1::from_rows(rows, mag)
}

/// One benchmark's Fig. 1 row: the raw and effective ratio of its final
/// image under each of the [`CODECS`].
pub(crate) fn row(artifacts: &BenchmarkArtifacts, mag: Mag) -> Fig1Row {
    let (bdi, fpc, cpack, bpc) = (Bdi::new(), Fpc::new(), Cpack::new(), Bpc::new());
    let codecs: [&dyn BlockCompressor; 5] = [&bdi, &fpc, &cpack, &artifacts.e2mc, &bpc];
    let mut accs = codecs.map(|_| RatioAccumulator::new(mag, BLOCK_BYTES as u32));
    for (_, block) in artifacts.exact_memory.all_blocks() {
        for (codec, acc) in codecs.iter().zip(accs.iter_mut()) {
            acc.record_bits(codec.size_bits(&block));
        }
    }
    Fig1Row {
        name: artifacts.name.clone(),
        ratios: accs
            .iter()
            .map(|a| RatioPair { raw: a.raw_ratio(), effective: a.effective_ratio() })
            .collect(),
    }
}

impl Fig1 {
    /// The figure over per-benchmark `rows` (paper order), with the
    /// geometric mean of every codec column.
    pub(crate) fn from_rows(rows: Vec<Fig1Row>, mag: Mag) -> Self {
        let gm = (0..rows.first().map_or(0, |r| r.ratios.len()))
            .map(|c| {
                let gm_of = |pick: fn(&RatioPair) -> f64| {
                    geometric_mean(&rows.iter().map(|r| pick(&r.ratios[c])).collect::<Vec<_>>())
                };
                RatioPair { raw: gm_of(|p| p.raw), effective: gm_of(|p| p.effective) }
            })
            .collect();
        Fig1 { rows, gm, mag }
    }

    /// Percentage by which the effective GM trails the raw GM per codec
    /// (the paper reports 22 / 19 / 18 / 23 % for BDI/FPC/C-PACK/E2MC).
    pub fn gm_gap_pct(&self) -> Vec<f64> {
        self.gm.iter().map(|p| (1.0 - p.effective / p.raw) * 100.0).collect()
    }

    /// The ratio table: a raw and an effective column per codec, then the
    /// GM row.
    fn table(&self) -> String {
        let mut header = vec!["Bench".to_owned()];
        for c in CODECS {
            header.push(format!("{c}-Raw"));
            header.push(format!("{c}-Eff"));
        }
        let mut t = TextTable::new(header);
        let gm = ("GM", &self.gm);
        for (name, ratios) in self.rows.iter().map(|r| (r.name.as_str(), &r.ratios)).chain([gm]) {
            let mut cells = vec![name.to_owned()];
            for p in ratios {
                cells.push(f3(p.raw));
                cells.push(f3(p.effective));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let mut out = format!("Fig. 1: raw vs effective compression ratio (MAG {})\n", self.mag);
        out.push_str(&self.table());
        out.push_str("\nGM effective-vs-raw gap per codec (paper: BDI 22%, FPC 19%, C-PACK 18%, E2MC 23%):\n");
        for (c, gap) in CODECS.iter().zip(self.gm_gap_pct()) {
            out.push_str(&format!("  {c}: {gap:.1}%\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_tiny_has_expected_shape() {
        let fig = compute(Scale::Tiny);
        assert_eq!(fig.rows.len(), 9);
        assert_eq!(fig.gm.len(), 5);
        for row in &fig.rows {
            for p in &row.ratios {
                assert!(p.raw >= 1.0, "{}: raw {}", row.name, p.raw);
                assert!(p.effective <= p.raw + 1e-9, "{}: eff > raw", row.name);
                assert!(p.effective >= 1.0);
            }
        }
        // Among the four Fig. 1 codecs, E2MC achieves the best raw GM, as
        // in the paper ("E2MC provides the highest compression ratio").
        // BPC is outside Fig. 1 and may win on delta-friendly data.
        let e2mc_gm = fig.gm[3].raw;
        for (name, gm) in CODECS.iter().zip(&fig.gm).take(3) {
            assert!(e2mc_gm >= gm.raw * 0.95, "E2MC GM {} vs {} {}", e2mc_gm, name, gm.raw);
        }
        // The MAG gap is material (the paper's headline motivation).
        let gaps = fig.gm_gap_pct();
        assert!(gaps[3] > 5.0, "E2MC gap {:.1}% too small to motivate SLC", gaps[3]);
        let render = fig.render();
        assert!(render.contains("GM"));
    }
}
