//! Simulation statistics.

use crate::config::SM_CLOCK_MHZ;

/// Counters produced by one simulation run.
///
/// All times are SM cycles. Energy is derived from these counters by
/// `slc-power`; the figures divide them against a baseline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total execution time (max over SMs of their finish time).
    pub cycles: u64,
    /// Per-SM cycles spent stalled on a full MSHR file or a sync.
    pub stall_cycles: u64,
    /// Trace operations executed.
    pub ops: u64,
    /// Load requests issued by SMs.
    pub loads: u64,
    /// Store requests issued by SMs.
    pub stores: u64,
    /// L1 hits / misses (aggregated over SMs).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM read accesses (block fetches).
    pub dram_reads: u64,
    /// DRAM write accesses (write-backs).
    pub dram_writes: u64,
    /// Data bursts moved for reads.
    pub read_bursts: u64,
    /// Data bursts moved for writes.
    pub write_bursts: u64,
    /// Extra bursts spent fetching compression metadata on MDC misses.
    pub metadata_bursts: u64,
    /// Bursts spent writing dirty metadata lines back to DRAM (MDC
    /// evictions and the end-of-kernel drain).
    pub metadata_writeback_bursts: u64,
    /// Metadata cache hits.
    pub mdc_hits: u64,
    /// Metadata cache misses.
    pub mdc_misses: u64,
    /// Blocks that paid the decompression latency.
    pub decompressed_blocks: u64,
    /// Blocks that paid the compression latency.
    pub compressed_blocks: u64,
    /// DRAM row-buffer hits, over every access command issued to a
    /// channel — data blocks *and* metadata lines (an activate costs the
    /// same row cycle either way, and these counters feed the
    /// row-activation energy term).
    pub row_hits: u64,
    /// DRAM row-buffer misses (same population as `row_hits`).
    pub row_misses: u64,
    /// Sum over read requests of (completion - issue), for latency stats.
    pub read_latency_sum: u64,
    /// SM cycles DRAM requests spent queued on a busy bank or data bus
    /// beyond the pure access latency (buffered writes count from
    /// arrival), summed over all channels and truncated to whole cycles.
    pub queue_wait_cycles: u64,
    /// Writes serviced out of the FR-FCFS write buffers (0 under the
    /// `InOrder` policy, where writes never buffer).
    pub write_drains: u64,
    /// Of [`write_drains`](Self::write_drains), those forced by a full
    /// buffer (high watermark) or the starvation age cap rather than an
    /// idle bus or the end-of-kernel drain.
    pub write_drain_forced: u64,
    // Always 0: the retired fault ladder's counters, kept while the ledger hashes this `Debug`.
    pub fault_escalations: u64,
    pub remaps: u64,
    pub spare_occupancy_peak: u64,
    pub uncorrectable_blocks: u64,
}

impl SimStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bursts over the pins (reads + writes + metadata fetches +
    /// metadata write-backs).
    pub fn total_bursts(&self) -> u64 {
        self.read_bursts + self.write_bursts + self.metadata_bursts + self.metadata_writeback_bursts
    }

    /// Bytes moved over the DRAM pins, given the MAG in bytes.
    pub fn dram_bytes(&self, mag_bytes: u32) -> u64 {
        self.total_bursts() * u64::from(mag_bytes)
    }

    /// Average read latency in cycles (0 when no reads completed).
    pub fn avg_read_latency(&self) -> f64 {
        if self.dram_reads == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.dram_reads as f64
        }
    }

    /// L2 miss rate in [0, 1].
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }

    /// MDC hit rate in [0, 1].
    pub fn mdc_hit_rate(&self) -> f64 {
        let total = self.mdc_hits + self.mdc_misses;
        if total == 0 {
            0.0
        } else {
            self.mdc_hits as f64 / total as f64
        }
    }

    /// Achieved DRAM bandwidth in GB/s for a run at [`SM_CLOCK_MHZ`].
    pub fn achieved_bandwidth_gbps(&self, mag_bytes: u32) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / (SM_CLOCK_MHZ * 1e6);
        self.dram_bytes(mag_bytes) as f64 / seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = SimStats {
            read_bursts: 10,
            write_bursts: 5,
            metadata_bursts: 1,
            l2_hits: 3,
            l2_misses: 1,
            mdc_hits: 9,
            mdc_misses: 1,
            dram_reads: 4,
            read_latency_sum: 400,
            cycles: 1000,
            ..Default::default()
        };
        assert_eq!(s.total_bursts(), 16);
        assert_eq!(s.dram_bytes(32), 512);
        assert!((s.l2_miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.mdc_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.avg_read_latency() - 100.0).abs() < 1e-12);
        let bw = s.achieved_bandwidth_gbps(32);
        assert!(bw > 0.0);
    }

    #[test]
    fn empty_stats_have_safe_rates() {
        let s = SimStats::new();
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.l2_miss_rate(), 0.0);
        assert_eq!(s.mdc_hit_rate(), 0.0);
        assert_eq!(s.achieved_bandwidth_gbps(32), 0.0);
    }
}
