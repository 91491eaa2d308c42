//! Event-based GPU energy model (GPUSimPow substitute).
//!
//! Energy decomposes into a time-proportional term (leakage, clocks, fans
//! — everything that burns power for as long as the kernel runs), an
//! op-proportional SM term, and per-event memory-system terms. SLC
//! affects the first through shorter runtime and the memory terms through
//! fewer bursts; the SM term is workload-constant. The constants
//! are calibrated so a GTX580-like baseline spends roughly half its
//! energy in the time-proportional term and a quarter in DRAM — the
//! regime in which the paper's 9.7 % speedup + 14 % traffic cut yield its
//! reported ~8.3 % energy and ~17.5 % EDP reductions.

use slc_sim::config::SM_CLOCK_MHZ;
use slc_sim::{GpuConfig, SimStats};

/// Time-proportional chip power (leakage + clock tree + board), W.
const STATIC_POWER_W: f64 = 95.0;
/// Energy per executed SM trace op (amortised warp instruction), nJ.
const ENERGY_PER_OP_NJ: f64 = 8.0;
/// Energy per L1 access, nJ.
const ENERGY_PER_L1_NJ: f64 = 0.15;
/// Energy per L2 access, nJ.
const ENERGY_PER_L2_NJ: f64 = 0.6;
/// Energy per DRAM data/metadata burst, nJ: 32 B at ~20 pJ/bit (GDDR5
/// I/O + core).
const ENERGY_PER_BURST_NJ: f64 = 5.2;
/// Energy per DRAM row activation, nJ.
const ENERGY_PER_ROW_ACT_NJ: f64 = 3.0;
/// Energy per block compression, nJ (Table I: 1.62 mW × 60 cycles /
/// 822 MHz ≈ 0.12 nJ).
const ENERGY_PER_COMPRESS_NJ: f64 = 0.12;
/// Energy per block decompression, nJ (Table I: 0.21 mW × 20 cycles /
/// 822 MHz ≈ 0.005 nJ).
const ENERGY_PER_DECOMPRESS_NJ: f64 = 0.005;

/// The energy model: its constants (energies in nanojoules, power in
/// watts) are this module's, calibrated once for Table II's GPU.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyModel;

/// Per-component energy of one run, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Time-proportional energy.
    pub static_mj: f64,
    /// SM dynamic energy.
    pub sm_mj: f64,
    /// L1 + L2 energy.
    pub cache_mj: f64,
    /// DRAM bursts + activations.
    pub dram_mj: f64,
    /// Compressor + decompressor energy.
    pub codec_mj: f64,
    /// Kernel runtime in seconds.
    pub seconds: f64,
}

impl EnergyBreakdown {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.static_mj + self.sm_mj + self.cache_mj + self.dram_mj + self.codec_mj
    }

    /// Energy-delay product in millijoule-seconds.
    pub fn edp(&self) -> f64 {
        self.total_mj() * self.seconds
    }
}

impl EnergyModel {
    /// Computes the breakdown of one simulated run at [`SM_CLOCK_MHZ`].
    /// `_cfg` changes nothing: every configuration runs at that clock.
    pub fn evaluate(&self, stats: &SimStats, _cfg: &GpuConfig) -> EnergyBreakdown {
        let seconds = stats.cycles as f64 / (SM_CLOCK_MHZ * 1e6);
        let nj_to_mj = 1e-6;
        let static_mj = STATIC_POWER_W * seconds * 1e3;
        let sm_mj = ENERGY_PER_OP_NJ * stats.ops as f64 * nj_to_mj;
        let cache_mj = (ENERGY_PER_L1_NJ * (stats.l1_hits + stats.l1_misses) as f64
            + ENERGY_PER_L2_NJ * (stats.l2_hits + stats.l2_misses) as f64)
            * nj_to_mj;
        let dram_mj = (ENERGY_PER_BURST_NJ * stats.total_bursts() as f64
            + ENERGY_PER_ROW_ACT_NJ * stats.row_misses as f64)
            * nj_to_mj;
        let codec_mj = (ENERGY_PER_COMPRESS_NJ * stats.compressed_blocks as f64
            + ENERGY_PER_DECOMPRESS_NJ * stats.decompressed_blocks as f64)
            * nj_to_mj;
        EnergyBreakdown { static_mj, sm_mj, cache_mj, dram_mj, codec_mj, seconds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats with the proportions of a bandwidth-saturated run: ~4 ops
    /// and ~1 L1 access per cycle, DRAM moving `bursts` total.
    fn stats(cycles: u64, bursts: u64) -> SimStats {
        SimStats {
            cycles,
            ops: 4 * cycles,
            l1_hits: cycles / 2,
            l1_misses: cycles / 2,
            l2_hits: cycles / 8,
            l2_misses: 3 * cycles / 8,
            dram_reads: bursts / 4,
            read_bursts: bursts,
            row_misses: bursts / 20,
            ..Default::default()
        }
    }

    #[test]
    fn energy_scales_with_runtime_and_traffic() {
        let m = EnergyModel;
        let cfg = GpuConfig::default();
        let base = m.evaluate(&stats(1_000_000, 120_000), &cfg);
        let faster = m.evaluate(&stats(900_000, 100_000), &cfg);
        assert!(faster.total_mj() < base.total_mj());
        assert!(faster.edp() < base.edp());
    }

    #[test]
    fn edp_is_energy_times_delay() {
        let m = EnergyModel;
        let cfg = GpuConfig::default();
        let b = m.evaluate(&stats(1_000_000, 120_000), &cfg);
        assert!((b.edp() - b.total_mj() * b.seconds).abs() < 1e-12);
    }

    #[test]
    fn calibration_puts_static_near_half() {
        // The Fig. 8b regime: time-proportional energy is the largest
        // share, DRAM a strong second, for a memory-bound run.
        let m = EnergyModel;
        let cfg = GpuConfig::default();
        // Saturated memory: ~7 bursts per cycle across 12 channels.
        let b = m.evaluate(&stats(1_000_000, 7_000_000), &cfg);
        let f_static = b.static_mj / b.total_mj();
        assert!((0.3..0.75).contains(&f_static), "static fraction {f_static}");
        let f_dram = b.dram_mj / b.total_mj();
        assert!((0.1..0.5).contains(&f_dram), "dram fraction {f_dram}");
    }

    #[test]
    fn codec_energy_is_negligible() {
        // "in terms of hardware overhead, SLC is feasible and very cheap".
        let m = EnergyModel;
        let cfg = GpuConfig::default();
        let mut s = stats(1_000_000, 120_000);
        s.compressed_blocks = 30_000;
        s.decompressed_blocks = 30_000;
        let b = m.evaluate(&s, &cfg);
        assert!(b.codec_mj / b.total_mj() < 0.01);
    }

    #[test]
    fn paper_regime_reproduces_figure_8b() {
        // 9.7 % faster + ~14 % fewer bursts should land near the paper's
        // 8.3 % energy and 17.5 % EDP reductions.
        let m = EnergyModel;
        let cfg = GpuConfig::default();
        let base = m.evaluate(&stats(1_000_000, 7_000_000), &cfg);
        let mut slc = stats(903_000, 6_020_000);
        slc.ops = 4_000_000; // same work, shorter runtime
        let slc = m.evaluate(&slc, &cfg);
        let e_red = 1.0 - slc.total_mj() / base.total_mj();
        let edp_red = 1.0 - slc.edp() / base.edp();
        assert!((0.04..0.13).contains(&e_red), "energy reduction {e_red}");
        assert!((0.12..0.22).contains(&edp_red), "EDP reduction {edp_red}");
    }
}
