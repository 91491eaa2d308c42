//! Figure 2: heat map of the distribution of compressed blocks above
//! multiples of MAG (E2MC).
//!
//! "0B on the x-axis means a compressed block size is a multiple of MAG
//! ... all blocks with a compressed size < 32B are also included in the 0B
//! origin. 32B on the x-axis represents the percentage of uncompressed
//! blocks."

use crate::eval::per_benchmark;
use crate::report::shade;
use slc_compress::{BlockCompressor, Mag, BLOCK_BITS, BLOCK_BYTES};
use slc_workloads::{all_workloads, BenchmarkArtifacts, Harness, Scale};

/// One benchmark's distribution over bytes-above-MAG.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Benchmark name.
    pub name: String,
    /// `pct[b]` = percentage of blocks compressed to `b` bytes above a
    /// MAG multiple, for `b` in `0..mag`; the last entry (index `mag`)
    /// holds the uncompressed percentage.
    pub pct: Vec<f64>,
}

/// The whole heat map.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig2Row>,
    /// The MAG used (bucket count = mag + 1).
    pub mag: Mag,
}

/// Computes the Fig. 2 distribution at `scale` under the simulated GPU's
/// MAG (32 B), one benchmark at a time.
pub fn compute(scale: Scale) -> Fig2 {
    let harness = Harness::new(scale);
    let mag = harness.config.mag();
    let rows = per_benchmark(all_workloads(scale), &harness, |_, a| row(a, mag));
    Fig2 { rows, mag }
}

/// One benchmark's Fig. 2 row: its final image sized block by block
/// under the trained E2MC table, as Fig. 1 sizes it; nothing is encoded.
pub(crate) fn row(artifacts: &BenchmarkArtifacts, mag: Mag) -> Fig2Row {
    let mut counts = vec![0u64; mag.bytes() as usize + 1];
    let mut total = 0u64;
    for (_, _, block) in artifacts.exact_memory.blocks_with_addr() {
        let bits = artifacts.e2mc.size_bits(block);
        total += 1;
        if bits >= BLOCK_BITS || mag.round_up_bits(bits) >= BLOCK_BITS {
            counts[mag.bytes() as usize] += 1; // uncompressed bucket
        } else {
            let bytes = bits.div_ceil(8);
            let above = if bytes <= mag.bytes() {
                0 // "< 32B are also included in the 0B origin"
            } else {
                mag.bytes_above_multiple(bytes)
            };
            counts[above as usize] += 1;
        }
    }
    Fig2Row {
        name: artifacts.name.clone(),
        pct: counts.iter().map(|&c| c as f64 / total.max(1) as f64 * 100.0).collect(),
    }
}

impl Fig2 {
    /// Renders the heat map with one shaded cell per 2-byte bucket.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fig. 2: distribution of compressed blocks above MAG multiples (E2MC, MAG {}, block {} B)\n",
            self.mag,
            BLOCK_BYTES
        );
        out.push_str("        0B ");
        let cells = self.mag.bytes() as usize / 2;
        out.push_str(&" ".repeat(cells.saturating_sub(6)));
        out.push_str(&format!("{}B  uncomp\n", self.mag.bytes()));
        let max = self
            .rows
            .iter()
            .flat_map(|r| r.pct[..self.mag.bytes() as usize].iter())
            .fold(0.0f64, |a, &b| a.max(b));
        for row in &self.rows {
            let mut line = format!("{:>6}  ", row.name);
            for pair in row.pct[..self.mag.bytes() as usize].chunks(2) {
                let v: f64 = pair.iter().sum::<f64>() / pair.len() as f64;
                line.push(shade(v / max.max(1e-9)));
            }
            line.push_str(&format!("  {:5.1}%\n", row.pct[self.mag.bytes() as usize]));
            out.push_str(&line);
        }
        out.push_str("(cell shade = % of blocks at that bytes-above-MAG offset; rightmost column = uncompressed)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_hundred() {
        let fig = compute(Scale::Tiny);
        assert_eq!(fig.rows.len(), 9);
        for row in &fig.rows {
            assert_eq!(row.pct.len(), 33);
            let total: f64 = row.pct.iter().sum();
            assert!((total - 100.0).abs() < 1e-6, "{}: {total}", row.name);
        }
    }

    #[test]
    fn significant_mass_sits_just_above_mag() {
        // The paper's core observation: a significant percentage of blocks
        // land a few bytes above a multiple of MAG: 1 to 16 B above one,
        // exact multiples excluded, is SLC's opportunity mass.
        let fig = compute(Scale::Tiny);
        let avg_opportunity: f64 =
            fig.rows.iter().map(|r| r.pct[1..=16].iter().sum::<f64>()).sum::<f64>()
                / fig.rows.len() as f64;
        assert!(
            avg_opportunity > 10.0,
            "average opportunity {avg_opportunity:.1}% too small to motivate SLC"
        );
    }

    #[test]
    fn render_mentions_every_benchmark() {
        let fig = compute(Scale::Tiny);
        let s = fig.render();
        for name in ["JM", "BS", "DCT", "SRAD2"] {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
