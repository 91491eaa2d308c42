//! Simulator configuration (paper Table II, GTX580-like).

use crate::dram::sched::SchedPolicy;
use slc_compress::Mag;

/// Full GPU configuration.
///
/// Defaults reproduce the paper's Table II, less its thread, CTA,
/// register and shared-memory limits, which configure nothing in a
/// trace-driven memory model (Table II prints them as literals). Timing
/// constants the table does not specify (cache latencies, DRAM bank
/// timing) use standard GDDR5/Fermi ballpark values and are documented
/// per field.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (Table II: 16).
    pub sms: usize,
    /// SM clock in MHz (Table II: 822).
    pub sm_clock_mhz: f64,
    /// L1 cache per SM in KB (Table II: 16).
    pub l1_kb: u32,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// Shared L2 size in KB (Table II: 768).
    pub l2_kb: u32,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 hit latency in SM cycles.
    pub l2_hit_latency: u64,
    /// Interconnect latency each way in SM cycles.
    pub icnt_latency: u64,
    /// MSHRs (outstanding misses) per SM; proxies the warp-level
    /// parallelism that hides memory latency (48 warps x >2 loads).
    pub mshrs_per_sm: usize,

    /// Memory clock in MHz (Table II: 1002).
    pub mem_clock_mhz: f64,
    /// Number of memory controllers (Table II: 6).
    pub memory_controllers: usize,
    /// 32-bit channels per controller (GTX580: 384-bit total = 6 MCs × 2).
    pub channels_per_mc: usize,
    /// Bus width per channel in bits (Table II: 32).
    pub bus_bits: u32,
    /// Burst length (Table II: 8).
    pub burst_length: u32,
    /// DRAM banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in blocks of 128 B (2 KB rows).
    pub row_blocks: u64,
    /// CAS latency in memory cycles.
    pub t_cas: f64,
    /// RAS-to-CAS delay in memory cycles.
    pub t_rcd: f64,
    /// Row precharge in memory cycles.
    pub t_rp: f64,
    /// Channel request-scheduling policy (see [`SchedPolicy`]).
    pub sched_policy: SchedPolicy,
    /// FR-FCFS write-buffer entries per channel (the high watermark; a
    /// full buffer drains to half capacity). Ignored under `InOrder`.
    pub write_buffer_entries: usize,
    /// FR-FCFS starvation cap in SM cycles: at every channel event (read
    /// or write arrival) a buffered write older than this is serviced
    /// first, ahead of row hits and the arriving request — arbitration
    /// never reorders past the cap while traffic flows. Ignored under
    /// `InOrder`.
    pub sched_age_cap: u64,

    /// Compression latency in SM cycles added on the write path
    /// (§IV-A: 46 for E2MC, 60 for TSLC, 0 for no compression).
    pub compress_latency: u64,
    /// Decompression latency in SM cycles added on the read-return path
    /// (§IV-A: 20 for both E2MC and TSLC).
    pub decompress_latency: u64,
    /// Metadata cache entries, one way per set (each entry covers one
    /// 32 B metadata line = 128 blocks = 16 KB of data). At least 1.
    pub mdc_entries: usize,
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
            sm_clock_mhz: 822.0,
            l1_kb: 16,
            l1_assoc: 4,
            l2_kb: 768,
            l2_assoc: 8,
            l2_hit_latency: 30,
            icnt_latency: 20,
            mshrs_per_sm: 128,
            mem_clock_mhz: 1002.0,
            memory_controllers: 6,
            channels_per_mc: 2,
            bus_bits: 32,
            burst_length: 8,
            banks_per_channel: 16,
            row_blocks: 16,
            t_cas: 12.0,
            t_rcd: 12.0,
            t_rp: 12.0,
            sched_policy: SchedPolicy::FrFcfs,
            write_buffer_entries: 16,
            sched_age_cap: 1000,
            compress_latency: 0,
            decompress_latency: 0,
            mdc_entries: 512,
            mdc_enabled: true,
        }
    }
}

impl GpuConfig {
    /// The memory access granularity: bus width × burst length.
    pub fn mag(&self) -> Mag {
        Mag::new(self.bus_bits / 8 * self.burst_length)
    }

    /// Total number of channels.
    pub fn channels(&self) -> usize {
        self.memory_controllers * self.channels_per_mc
    }

    /// Bursts an uncompressed 128 B block costs.
    pub fn max_bursts(&self) -> u32 {
        128 / self.mag().bytes()
    }

    /// Aggregate theoretical bandwidth in GB/s (QDR GDDR5: 4 transfers per
    /// memory clock). The default configuration reproduces Table II's
    /// 192.4 GB/s within rounding.
    pub fn bandwidth_gbps(&self) -> f64 {
        let bytes_per_cycle_per_channel = f64::from(self.bus_bits) / 8.0 * 4.0;
        self.channels() as f64 * bytes_per_cycle_per_channel * self.mem_clock_mhz * 1e6 / 1e9
    }

    /// SM cycles per memory cycle (SM clock is slower than memory clock).
    pub fn sm_cycles_per_mem_cycle(&self) -> f64 {
        self.sm_clock_mhz / self.mem_clock_mhz
    }

    /// Time one MAG burst occupies a channel's data bus, in SM cycles.
    ///
    /// GDDR5 moves `bus_bits/8 × 4` bytes per memory cycle, so a burst of
    /// `burst_length` beats takes `burst_length / 4` memory cycles.
    pub fn burst_sm_cycles(&self) -> f64 {
        f64::from(self.burst_length) / 4.0 * self.sm_cycles_per_mem_cycle()
    }

    /// Row-hit access latency (CAS) in SM cycles.
    pub fn row_hit_sm_cycles(&self) -> f64 {
        self.t_cas * self.sm_cycles_per_mem_cycle()
    }

    /// Row-miss access latency (precharge + activate + CAS) in SM cycles.
    pub fn row_miss_sm_cycles(&self) -> f64 {
        (self.t_rp + self.t_rcd + self.t_cas) * self.sm_cycles_per_mem_cycle()
    }

    /// Derives a configuration with a different MAG but identical
    /// aggregate bandwidth, for the Fig. 9 sensitivity study: the burst
    /// length is held at 8 beats and the per-channel bus width scaled, with
    /// the channel count re-scaled to keep `bandwidth_gbps` constant.
    ///
    /// # Panics
    ///
    /// Panics if `mag` does not divide the channel pool evenly.
    pub fn with_mag(&self, mag: Mag) -> Self {
        let mut cfg = self.clone();
        let scale_num = self.mag().bytes();
        let scale_den = mag.bytes();
        cfg.bus_bits = mag.bytes() * 8 / self.burst_length;
        let channels = self.channels() as u32 * scale_num / scale_den;
        assert!(
            channels > 0 && channels.is_multiple_of(self.memory_controllers as u32),
            "cannot evenly spread {channels} channels over {} MCs",
            self.memory_controllers
        );
        cfg.channels_per_mc = (channels as usize) / self.memory_controllers;
        debug_assert_eq!(cfg.mag(), mag);
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
        assert_eq!(c.l2_kb, 768);
        assert_eq!(c.memory_controllers, 6);
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
