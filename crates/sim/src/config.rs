//! Simulator configuration (paper Table II, GTX580-like).
//!
//! The paper evaluates one GPU, so Table II's values are constants here,
//! with the timing constants the table does not specify (cache
//! latencies, DRAM bank timing) at standard GDDR5/Fermi ballpark values.
//! Table II's thread, CTA, register and shared-memory limits configure
//! nothing in a trace-driven memory model and are not modelled (Table II
//! prints them as literals). [`GpuConfig`] holds only what a run varies.

use crate::dram::sched::SchedPolicy;
use slc_compress::Mag;

/// SM clock in MHz (Table II: 822).
pub const SM_CLOCK_MHZ: f64 = 822.0;
/// L1 cache per SM in KB (Table II: 16).
pub const L1_KB: usize = 16;
/// L1 associativity.
pub(crate) const L1_ASSOC: usize = 4;
/// Shared L2 size in KB (Table II: 768).
pub const L2_KB: usize = 768;
/// L2 associativity.
pub(crate) const L2_ASSOC: usize = 8;
/// L2 hit latency in SM cycles.
pub(crate) const L2_HIT_LATENCY: u64 = 30;
/// Interconnect latency each way in SM cycles.
pub(crate) const ICNT_LATENCY: u64 = 20;
/// MSHRs (outstanding misses) per SM; proxies the warp-level parallelism
/// that hides memory latency (48 warps x >2 loads).
pub(crate) const MSHRS_PER_SM: usize = 128;

/// Memory clock in MHz (Table II: 1002).
pub const MEM_CLOCK_MHZ: f64 = 1002.0;
/// Number of memory controllers (Table II: 6).
pub const MEMORY_CONTROLLERS: usize = 6;
/// Total DRAM bus width in bits (GTX580: 6 MCs × 2 channels × 32 bits),
/// shared out into channels of the MAG's width.
const TOTAL_BUS_BITS: u32 = 384;
/// Burst length (Table II: 8).
pub const BURST_LENGTH: u32 = 8;
/// DRAM banks per channel.
pub const BANKS_PER_CHANNEL: usize = 16;
/// Row-buffer size in blocks of 128 B (2 KB rows).
pub const ROW_BLOCKS: u64 = 16;
/// CAS latency in memory cycles.
const T_CAS: f64 = 12.0;
/// RAS-to-CAS delay in memory cycles.
const T_RCD: f64 = 12.0;
/// Row precharge in memory cycles.
const T_RP: f64 = 12.0;
/// FR-FCFS write-buffer entries per channel (the high watermark; a full
/// buffer drains to half capacity). Unused under `InOrder`.
pub const WRITE_BUFFER_ENTRIES: usize = 16;
/// FR-FCFS starvation cap in SM cycles: at every channel event (read or
/// write arrival) a buffered write older than this is serviced first,
/// ahead of row hits and the arriving request — arbitration never
/// reorders past the cap while traffic flows. Unused under `InOrder`.
pub const SCHED_AGE_CAP: u64 = 1000;
/// Metadata cache entries, one way per set (each entry covers one 32 B
/// metadata line = 128 blocks = 16 KB of data).
pub(crate) const MDC_ENTRIES: usize = 512;

const _: () =
    assert!(WRITE_BUFFER_ENTRIES >= 2, "FR-FCFS write buffer needs room to buffer and drain");
const _: () = assert!(MSHRS_PER_SM > 0, "an SM needs an MSHR to issue a miss");

/// What a run varies: the SM count, the MAG (Fig. 9), the codec
/// latencies (§IV-A), whether compression hardware exists, and the
/// channel scheduler.
///
/// Defaults reproduce the paper's Table II; everything else in the table
/// is a constant of this module.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (Table II: 16).
    pub sms: usize,
    /// The memory access granularity: bus width × burst length. The bus
    /// width and channel count follow from it (see [`Self::with_mag`]).
    pub mag: Mag,
    /// Channel request-scheduling policy (see [`SchedPolicy`]).
    pub sched_policy: SchedPolicy,
    /// Compression latency in SM cycles added on the write path
    /// (§IV-A: 46 for E2MC, 60 for TSLC, 0 for no compression).
    pub compress_latency: u64,
    /// Decompression latency in SM cycles added on the read-return path
    /// (§IV-A: 20 for both E2MC and TSLC).
    pub decompress_latency: u64,
    /// Whether the memory controller has an MDC at all. A GPU without
    /// compression has none — the NOCOMP baseline must neither consult it
    /// nor move metadata over the pins (every block costs the maximum
    /// burst count unconditionally). Disabled via [`Self::without_mdc`].
    pub mdc_enabled: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            sms: 16,
            mag: Mag::GDDR5,
            sched_policy: SchedPolicy::FrFcfs,
            compress_latency: 0,
            decompress_latency: 0,
            mdc_enabled: true,
        }
    }
}

impl GpuConfig {
    /// The memory access granularity: bus width × burst length.
    pub fn mag(&self) -> Mag {
        self.mag
    }

    /// Bus width per channel in bits (Table II: 32): the MAG over
    /// [`BURST_LENGTH`] beats.
    pub fn bus_bits(&self) -> u32 {
        self.mag.bytes() * 8 / BURST_LENGTH
    }

    /// Total number of channels: the fixed total bus in channels of
    /// [`Self::bus_bits`] each.
    pub fn channels(&self) -> usize {
        (TOTAL_BUS_BITS / self.bus_bits()) as usize
    }

    /// Bursts an uncompressed 128 B block costs.
    pub fn max_bursts(&self) -> u32 {
        128 / self.mag().bytes()
    }

    /// Aggregate theoretical bandwidth in GB/s (QDR GDDR5: 4 transfers per
    /// memory clock). The default configuration reproduces Table II's
    /// 192.4 GB/s within rounding.
    pub fn bandwidth_gbps(&self) -> f64 {
        let bytes_per_cycle_per_channel = f64::from(self.bus_bits()) / 8.0 * 4.0;
        self.channels() as f64 * bytes_per_cycle_per_channel * MEM_CLOCK_MHZ * 1e6 / 1e9
    }

    /// SM cycles per memory cycle (SM clock is slower than memory clock).
    pub fn sm_cycles_per_mem_cycle(&self) -> f64 {
        SM_CLOCK_MHZ / MEM_CLOCK_MHZ
    }

    /// Time one MAG burst occupies a channel's data bus, in SM cycles.
    ///
    /// GDDR5 moves `bus_bits/8 × 4` bytes per memory cycle, so a burst of
    /// [`BURST_LENGTH`] beats takes `BURST_LENGTH / 4` memory cycles.
    pub fn burst_sm_cycles(&self) -> f64 {
        f64::from(BURST_LENGTH) / 4.0 * self.sm_cycles_per_mem_cycle()
    }

    /// Row-hit access latency (CAS) in SM cycles.
    pub fn row_hit_sm_cycles(&self) -> f64 {
        T_CAS * self.sm_cycles_per_mem_cycle()
    }

    /// Row-miss access latency (precharge + activate + CAS) in SM cycles.
    pub fn row_miss_sm_cycles(&self) -> f64 {
        (T_RP + T_RCD + T_CAS) * self.sm_cycles_per_mem_cycle()
    }

    /// Derives a configuration with a different MAG but identical
    /// aggregate bandwidth, for the Fig. 9 sensitivity study: the burst
    /// length is held at 8 beats and the per-channel bus width scaled, so
    /// the fixed total bus splits into more or fewer channels.
    ///
    /// # Panics
    ///
    /// Panics if `mag` does not divide the channel pool evenly over the
    /// memory controllers.
    pub fn with_mag(&self, mag: Mag) -> Self {
        let cfg = Self { mag, ..self.clone() };
        let channels = cfg.channels();
        assert!(
            channels > 0 && channels.is_multiple_of(MEMORY_CONTROLLERS),
            "cannot evenly spread {channels} channels over {MEMORY_CONTROLLERS} MCs"
        );
        cfg
    }

    /// Applies a compression scheme's latencies (§IV-A).
    pub fn with_codec_latency(mut self, compress: u64, decompress: u64) -> Self {
        self.compress_latency = compress;
        self.decompress_latency = decompress;
        self
    }

    /// Selects the channel scheduling policy.
    pub fn with_sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.sched_policy = policy;
        self
    }

    /// Removes the metadata cache: the memory controller of a GPU without
    /// compression hardware. Every block moves at the full burst count and
    /// no metadata traffic ever reaches the pins.
    pub fn without_mdc(mut self) -> Self {
        self.mdc_enabled = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = GpuConfig::default();
        assert_eq!(c.sms, 16);
        assert_eq!(L2_KB, 768);
        assert_eq!(MEMORY_CONTROLLERS, 6);
        assert_eq!((c.bus_bits(), c.channels()), (32, 12));
        assert_eq!(c.mag(), Mag::GDDR5);
        assert_eq!(c.max_bursts(), 4);
        // 192.4 GB/s within a percent.
        assert!((c.bandwidth_gbps() - 192.4).abs() < 1.0, "got {}", c.bandwidth_gbps());
    }

    #[test]
    fn burst_cycles_track_clock_ratio() {
        let c = GpuConfig::default();
        // 2 memory cycles per 32 B burst, scaled to the slower SM clock.
        let expect = 2.0 * 822.0 / 1002.0;
        assert!((c.burst_sm_cycles() - expect).abs() < 1e-9);
    }

    #[test]
    fn with_mag_preserves_bandwidth() {
        let base = GpuConfig::default();
        for mag in [Mag::NARROW_16, Mag::WIDE_64] {
            let c = base.with_mag(mag);
            assert_eq!(c.mag(), mag);
            assert!((c.bandwidth_gbps() - base.bandwidth_gbps()).abs() < 1e-6);
            assert_eq!(c.max_bursts(), 128 / mag.bytes());
        }
    }

    #[test]
    #[should_panic(expected = "cannot evenly spread 3 channels over 6 MCs")]
    fn with_mag_rejects_an_uneven_channel_spread() {
        // A 128-bit channel leaves three channels for six controllers.
        GpuConfig::default().with_mag(Mag::new(128));
    }

    #[test]
    fn with_mag_scales_burst_time() {
        let base = GpuConfig::default();
        let wide = base.with_mag(Mag::WIDE_64);
        // Twice the bytes per burst on a twice-as-wide bus: same time.
        assert!((wide.burst_sm_cycles() - base.burst_sm_cycles()).abs() < 1e-9);
    }

    #[test]
    fn codec_latency_builder() {
        let c = GpuConfig::default().with_codec_latency(60, 20);
        assert_eq!(c.compress_latency, 60);
        assert_eq!(c.decompress_latency, 20);
    }
}
