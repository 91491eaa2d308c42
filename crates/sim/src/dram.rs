//! GDDR5 channel timing model with a per-channel request scheduler.
//!
//! Each 32-bit channel has its own command/data bus and banks with open
//! rows. A block access pays the row-hit (CAS) or row-miss
//! (precharge + activate + CAS) latency, then occupies the data bus for
//! `bursts × burst_time`. Bandwidth contention — the effect SLC exploits —
//! emerges from the data-bus occupancy; queueing delay from the bus
//! horizon and the write buffer.
//!
//! # Scheduling
//!
//! The channel arbitrates under a [`sched::SchedPolicy`] chosen by
//! [`GpuConfig::sched_policy`]:
//!
//! * [`InOrder`](sched::SchedPolicy::InOrder) — the legacy model: every
//!   request (read or write) is serviced immediately at arrival, so a
//!   write occupies the bus ahead of any younger read. Kept bit-exact so
//!   refactors can land verified against it before behaviour changes.
//! * [`FrFcfs`](sched::SchedPolicy::FrFcfs) — reads are serviced at
//!   arrival with read-over-write priority; writes buffer in a bounded
//!   per-channel [`sched::WriteQueue`] and drain row-hit-first
//!   (oldest-first among equals) when the high watermark is reached, when
//!   the bus is idle at the next arrival (read-idle drain), and fully at
//!   end of kernel. A starvation cap ([`SCHED_AGE_CAP`])
//!   promotes any write older than the cap over every row hit — and over
//!   an arriving read — so no request is reordered past its age bound.
//!
//! Row outcomes and queueing delay are counted **here**, at the moment a
//! request is actually serviced (under FR-FCFS a write's row outcome is
//! only decided at drain time); the memory controller harvests
//! [`ChannelTelemetry`] into `SimStats` rather than keeping parallel
//! counters.

pub mod sched;

use crate::config::{
    GpuConfig, BANKS_PER_CHANNEL, ROW_BLOCKS, SCHED_AGE_CAP, WRITE_BUFFER_ENTRIES,
};
use crate::BlockAddr;
use sched::{PendingWrite, SchedPolicy, WriteQueue};

/// First block address of the metadata region.
///
/// Compression metadata (the per-block burst counts, packed into 32 B
/// lines by the memory controller) lives in DRAM like any other data,
/// but **not** in the data blocks' rows: metadata line `l` resides at
/// block address `META_BLOCK_BASE + l` and is routed through the ordinary
/// channel interleaving — its *own* address picks its channel, bank and row,
/// exactly like any other DRAM resident. Consequently a metadata-line
/// access opens a metadata row (it can never turn the following data
/// access into a free row hit), consecutive lines spread round-robin
/// over all channels instead of hot-spotting the requester's channel,
/// and a metadata fetch may cross channels — the unified controller
/// model reads the line from wherever it lives. Data blocks stay far
/// below this base (2^40 blocks = 128 TiB).
pub const META_BLOCK_BASE: u64 = 1 << 40;

/// [`SCHED_AGE_CAP`] in the SM-cycle time base the channel keeps.
const AGE_CAP: f64 = SCHED_AGE_CAP as f64;

/// One DRAM bank: open row + availability horizon.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: f64,
}

/// Outcome of a channel access, in SM cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramAccess {
    /// When the data transfer completes.
    pub done: f64,
    /// Whether the open row matched.
    pub row_hit: bool,
}

/// Counters a channel accumulates while servicing requests.
///
/// Row outcomes are counted per serviced access command — data blocks
/// *and* metadata lines (an activate costs the same row cycle either way,
/// and the counters feed the row-activation energy term).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelTelemetry {
    /// Accesses that found their row open.
    pub row_hits: u64,
    /// Accesses that paid precharge + activate.
    pub row_misses: u64,
    /// SM cycles requests spent waiting on a busy bank or data bus beyond
    /// the pure access latency (queueing delay; buffered writes count
    /// from their arrival).
    pub queue_wait: f64,
    /// Writes serviced out of the FR-FCFS write buffer.
    pub write_drains: u64,
    /// Of [`write_drains`](Self::write_drains), those forced by the high
    /// watermark or the starvation age cap rather than an idle bus or the
    /// end-of-kernel drain.
    pub write_drain_forced: u64,
}

impl ChannelTelemetry {
    /// Folds another channel's counters into this one.
    pub fn add(&mut self, other: &ChannelTelemetry) {
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.queue_wait += other.queue_wait;
        self.write_drains += other.write_drains;
        self.write_drain_forced += other.write_drain_forced;
    }
}

/// One GDDR5 channel.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Vec<Bank>,
    /// Data bus horizon: the bus serialises all bursts.
    free_at: f64,
    burst_cycles: f64,
    row_hit_cycles: f64,
    row_miss_cycles: f64,
    policy: SchedPolicy,
    writes: WriteQueue,
    telemetry: ChannelTelemetry,
}

impl Channel {
    /// Creates a channel from the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        Self {
            banks: vec![Bank::default(); BANKS_PER_CHANNEL],
            free_at: 0.0,
            burst_cycles: cfg.burst_sm_cycles(),
            row_hit_cycles: cfg.row_hit_sm_cycles(),
            row_miss_cycles: cfg.row_miss_sm_cycles(),
            policy: cfg.sched_policy,
            writes: WriteQueue::new(),
            telemetry: ChannelTelemetry::default(),
        }
    }

    /// Bank and row of a channel-local block index.
    fn locate(&self, local_block: u64) -> (usize, u64) {
        let row_group = local_block / ROW_BLOCKS;
        let bank = (row_group as usize) % BANKS_PER_CHANNEL;
        let row = row_group / BANKS_PER_CHANNEL as u64;
        (bank, row)
    }

    /// Services one request to `row` of bank `bank` *now*: the bank opens
    /// the row (hit or miss), the data bus is granted once free, and the
    /// channel state advances. This is the legacy in-order arithmetic,
    /// shared verbatim by both policies — FR-FCFS only changes *which*
    /// request is serviced next.
    fn service(&mut self, bank: usize, row: u64, bursts: u32, at: f64) -> DramAccess {
        let bank = &mut self.banks[bank];
        let start = at.max(bank.ready_at);
        let row_hit = bank.open_row == Some(row);
        let access_latency = if row_hit { self.row_hit_cycles } else { self.row_miss_cycles };
        // Data leaves once the bank has the row open *and* the shared data
        // bus frees up. Column accesses pipeline: successive row hits are
        // serialised only by the data bus; a row miss occupies the bank
        // for precharge + activate before the next command.
        let data_start = (start + access_latency).max(self.free_at);
        let done = data_start + self.burst_cycles * f64::from(bursts);
        self.free_at = done;
        bank.open_row = Some(row);
        if !row_hit {
            bank.ready_at = start + (self.row_miss_cycles - self.row_hit_cycles);
        }
        if row_hit {
            self.telemetry.row_hits += 1;
        } else {
            self.telemetry.row_misses += 1;
        }
        self.telemetry.queue_wait += data_start - at - access_latency;
        DramAccess { done, row_hit }
    }

    /// Picks the next buffered write by FR-FCFS arbitration and services
    /// it at its arrival time (bank/bus maxima handle the waiting).
    fn service_next_write(&mut self, now: f64, forced: bool) {
        let banks = &self.banks;
        let Some(i) = self.writes.select(now, AGE_CAP, |b| banks[b].open_row) else {
            return;
        };
        let w = self.writes.remove(i);
        self.service(w.bank, w.row, w.bursts, w.arrival);
        self.telemetry.write_drains += 1;
        if forced {
            self.telemetry.write_drain_forced += 1;
        }
    }

    /// Drains buffered writes that must or may go ahead of a request
    /// arriving at `at`: overage writes first (starvation cap), then
    /// opportunistic drains while the bus is idle before the arrival.
    fn drain_before(&mut self, at: f64) {
        while self.writes.oldest_overage(at, AGE_CAP) {
            self.service_next_write(at, true);
        }
        // Read-idle drain: the bus has been idle since `free_at`, so
        // buffered writes soak up the dead time. The last one may overrun
        // slightly past `at` — the controller cannot see a future read
        // coming — which is exactly the overrun a real scheduler risks.
        while self.free_at < at && !self.writes.is_empty() {
            self.service_next_write(at, false);
        }
    }

    /// Services a read of `bursts` bursts to channel-local block
    /// `local_block`, arriving at time `at` (SM cycles). Reads resolve at
    /// arrival under both policies; under FR-FCFS they bypass every
    /// buffered write younger than the age cap.
    pub fn read(&mut self, local_block: u64, bursts: u32, at: f64) -> DramAccess {
        if self.policy == SchedPolicy::FrFcfs {
            self.drain_before(at);
        }
        let (bank, row) = self.locate(local_block);
        self.service(bank, row, bursts, at)
    }

    /// Accepts a write of `bursts` bursts to `local_block` at time `at`.
    ///
    /// Under `InOrder` the write is serviced immediately (legacy
    /// behaviour) and its outcome returned; under `FrFcfs` it buffers in
    /// the write queue — draining to half capacity first when the queue
    /// is at its high watermark — and `None` is returned (row outcome and
    /// bus occupancy materialise at drain time).
    pub fn write(&mut self, local_block: u64, bursts: u32, at: f64) -> Option<DramAccess> {
        let (bank, row) = self.locate(local_block);
        match self.policy {
            SchedPolicy::InOrder => Some(self.service(bank, row, bursts, at)),
            SchedPolicy::FrFcfs => {
                // The starvation cap is enforced at *every* channel event,
                // not just read arrivals: overage writes leave first.
                self.drain_before(at);
                self.writes.push(PendingWrite { bursts, arrival: at, bank, row });
                if self.writes.len() >= WRITE_BUFFER_ENTRIES {
                    while self.writes.len() > WRITE_BUFFER_ENTRIES / 2 {
                        self.service_next_write(at, true);
                    }
                }
                None
            }
        }
    }

    /// Drains every buffered write (end of kernel), in FR-FCFS order.
    pub fn drain_writes(&mut self, now: f64) {
        while !self.writes.is_empty() {
            self.service_next_write(now, false);
        }
    }

    /// Buffered writes not yet serviced.
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
    }

    /// Arrival time of the oldest buffered write, if any.
    pub fn oldest_pending_arrival(&self) -> Option<f64> {
        self.writes.oldest_arrival()
    }

    /// The data-bus horizon (for utilisation telemetry).
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Counters accumulated so far.
    pub fn telemetry(&self) -> &ChannelTelemetry {
        &self.telemetry
    }
}

/// The pool of channels with the global address interleaving.
#[derive(Debug, Clone)]
pub struct Dram {
    channels: Vec<Channel>,
}

impl Dram {
    /// Creates all channels of the configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        Self { channels: (0..cfg.channels()).map(|_| Channel::new(cfg)).collect() }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Channel index and channel-local block of a global block address
    /// (fine-grained block interleaving spreads streams over channels).
    pub fn map(&self, block: BlockAddr) -> (usize, u64) {
        let n = self.channels.len() as u64;
        ((block % n) as usize, block / n)
    }

    /// Services a read, returning its completion and row outcome.
    pub fn read(&mut self, block: BlockAddr, bursts: u32, at: f64) -> DramAccess {
        debug_assert!(block < META_BLOCK_BASE, "data block collides with the metadata region");
        let (ch, local) = self.map(block);
        self.channels[ch].read(local, bursts, at)
    }

    /// Hands a write to its channel's scheduler (serviced immediately
    /// under `InOrder`, buffered under `FrFcfs`).
    pub fn write(&mut self, block: BlockAddr, bursts: u32, at: f64) -> Option<DramAccess> {
        debug_assert!(block < META_BLOCK_BASE, "data block collides with the metadata region");
        let (ch, local) = self.map(block);
        self.channels[ch].write(local, bursts, at)
    }

    /// Services the one-burst fetch of 32 B metadata line `line`,
    /// returning its completion and row outcome.
    ///
    /// The line lives at [`META_BLOCK_BASE`]` + line` and takes the
    /// ordinary interleaved path: its own address picks the channel, bank
    /// and row (see [`META_BLOCK_BASE`]), so the burst contends with that
    /// channel's data bus and row machinery like any other access, and it
    /// never pre-opens the data block's row.
    pub fn read_metadata_line(&mut self, line: u64, at: f64) -> DramAccess {
        let meta = META_BLOCK_BASE + line;
        let (ch, local) = self.map(meta);
        self.channels[ch].read(local, 1, at)
    }

    /// Hands the one-burst write-back of metadata line `line` to the
    /// line's own channel (dirty MDC eviction). Routed exactly like
    /// [`read_metadata_line`](Self::read_metadata_line), just on the write path.
    pub fn write_metadata_line(&mut self, line: u64, at: f64) -> Option<DramAccess> {
        let meta = META_BLOCK_BASE + line;
        let (ch, local) = self.map(meta);
        self.channels[ch].write(local, 1, at)
    }

    /// Drains every channel's buffered writes (end of kernel).
    pub fn drain_writes(&mut self, now: f64) {
        for ch in &mut self.channels {
            ch.drain_writes(now);
        }
    }

    /// Buffered writes not yet serviced, over all channels.
    pub fn pending_writes(&self) -> usize {
        self.channels.iter().map(Channel::pending_writes).sum()
    }

    /// Summed counters over all channels.
    pub fn telemetry(&self) -> ChannelTelemetry {
        let mut total = ChannelTelemetry::default();
        for ch in &self.channels {
            total.add(ch.telemetry());
        }
        total
    }

    /// Latest data-bus horizon over all channels.
    ///
    /// Meaningful as an end-of-run horizon only once buffered writes are
    /// drained ([`drain_writes`](Self::drain_writes)).
    pub fn horizon(&self) -> f64 {
        self.channels.iter().map(Channel::free_at).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    fn cfg_with(policy: SchedPolicy) -> GpuConfig {
        GpuConfig { sched_policy: policy, ..GpuConfig::default() }
    }

    #[test]
    fn first_access_pays_row_miss() {
        for policy in [SchedPolicy::InOrder, SchedPolicy::FrFcfs] {
            let mut ch = Channel::new(&cfg_with(policy));
            let a = ch.read(0, 4, 0.0);
            assert!(!a.row_hit);
            let expect = cfg().row_miss_sm_cycles() + 4.0 * cfg().burst_sm_cycles();
            assert!((a.done - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn same_row_hits_after_open() {
        let mut ch = Channel::new(&cfg());
        ch.read(0, 4, 0.0);
        let a = ch.read(1, 4, 1000.0);
        assert!(a.row_hit, "block 1 lives in the same 2 KB row");
        assert_eq!(ch.telemetry().row_hits, 1);
        assert_eq!(ch.telemetry().row_misses, 1);
    }

    #[test]
    fn different_row_same_bank_misses() {
        let mut ch = Channel::new(&cfg());
        ch.read(0, 4, 0.0);
        // Same bank reappears after banks * row_blocks blocks.
        let stride = BANKS_PER_CHANNEL as u64 * ROW_BLOCKS;
        let a = ch.read(stride, 4, 1000.0);
        assert!(!a.row_hit);
    }

    #[test]
    fn data_bus_serialises_bursts() {
        let mut ch = Channel::new(&cfg());
        // Two simultaneous accesses to different banks: second waits for
        // the data bus.
        let a = ch.read(0, 4, 0.0);
        let b = ch.read(16, 4, 0.0); // different bank (row group 1)
        assert!(b.done >= a.done + 4.0 * cfg().burst_sm_cycles() - 1e-9);
        assert!(ch.telemetry().queue_wait > 0.0, "the second read queued on the bus");
    }

    #[test]
    fn fewer_bursts_finish_sooner() {
        let mut ch1 = Channel::new(&cfg());
        let mut ch4 = Channel::new(&cfg());
        let t1 = ch1.read(0, 1, 0.0).done;
        let t4 = ch4.read(0, 4, 0.0).done;
        assert!(t1 < t4);
        assert!((t4 - t1 - 3.0 * cfg().burst_sm_cycles()).abs() < 1e-9);
    }

    #[test]
    fn inorder_services_writes_immediately() {
        let mut ch = Channel::new(&cfg_with(SchedPolicy::InOrder));
        let a = ch.write(0, 4, 0.0).expect("InOrder writes are serviced at arrival");
        assert!(!a.row_hit);
        assert_eq!(ch.pending_writes(), 0);
        assert!(ch.free_at() > 0.0);
    }

    #[test]
    fn frfcfs_buffers_writes_until_drained() {
        let mut ch = Channel::new(&cfg_with(SchedPolicy::FrFcfs));
        assert!(ch.write(0, 4, 0.0).is_none(), "FR-FCFS buffers the write");
        assert_eq!(ch.pending_writes(), 1);
        assert_eq!(ch.free_at(), 0.0, "nothing has touched the bus yet");
        ch.drain_writes(0.0);
        assert_eq!(ch.pending_writes(), 0);
        assert!(ch.free_at() > 0.0);
        assert_eq!(ch.telemetry().write_drains, 1);
        assert_eq!(ch.telemetry().write_drain_forced, 0);
    }

    #[test]
    fn read_bypasses_buffered_writes() {
        // A queued write to a far row must not delay a younger read under
        // FR-FCFS; under InOrder the write occupies the bus first.
        let far = BANKS_PER_CHANNEL as u64 * ROW_BLOCKS;
        let in_order = {
            let mut ch = Channel::new(&cfg_with(SchedPolicy::InOrder));
            ch.write(far, 4, 0.0);
            ch.read(0, 4, 0.0).done
        };
        let frfcfs = {
            let mut ch = Channel::new(&cfg_with(SchedPolicy::FrFcfs));
            ch.write(far, 4, 0.0);
            ch.read(0, 4, 0.0).done
        };
        assert!(
            frfcfs < in_order,
            "read-over-write priority must shorten the read: {frfcfs} vs {in_order}"
        );
    }

    #[test]
    fn watermark_drains_to_half_capacity() {
        let cfg = cfg_with(SchedPolicy::FrFcfs);
        let mut ch = Channel::new(&cfg);
        for i in 0..WRITE_BUFFER_ENTRIES {
            ch.write(i as u64, 4, 0.0);
        }
        assert_eq!(
            ch.pending_writes(),
            WRITE_BUFFER_ENTRIES / 2,
            "hitting the high watermark drains to half capacity"
        );
        assert!(ch.telemetry().write_drain_forced > 0);
    }

    #[test]
    fn age_cap_forces_stale_writes_ahead_of_reads() {
        let cfg = cfg_with(SchedPolicy::FrFcfs);
        let mut ch = Channel::new(&cfg);
        // Saturate the bus so the idle drain never triggers: the write
        // can only leave via the starvation cap.
        for i in 0..400u64 {
            ch.read(i * 2, 4, 0.0);
        }
        assert!(ch.free_at() > AGE_CAP + 100.0);
        ch.write(1, 4, 10.0);
        // Just under the cap: reads keep bypassing the buffered write.
        ch.read(3, 4, 10.0 + AGE_CAP - 1.0);
        assert_eq!(ch.pending_writes(), 1);
        // Past the cap: the stale write is forced out ahead of the read.
        ch.read(5, 4, 11.0 + AGE_CAP);
        assert_eq!(ch.pending_writes(), 0);
        assert_eq!(ch.telemetry().write_drain_forced, 1);
    }

    #[test]
    fn idle_bus_drains_writes_before_a_read() {
        let cfg = cfg_with(SchedPolicy::FrFcfs);
        let mut ch = Channel::new(&cfg);
        ch.write(0, 4, 0.0);
        // The bus is idle between 0 and the read's arrival (which stays
        // inside the age cap), so the write drains opportunistically (not
        // force-counted) and the read still starts unobstructed.
        let at = 500.0;
        assert!(at < AGE_CAP);
        let read = ch.read(16, 4, at);
        assert_eq!(ch.pending_writes(), 0);
        assert_eq!(ch.telemetry().write_drains, 1);
        assert_eq!(ch.telemetry().write_drain_forced, 0);
        let expect = at + cfg.row_miss_sm_cycles() + 4.0 * cfg.burst_sm_cycles();
        assert!((read.done - expect).abs() < 1e-9, "read unobstructed: {}", read.done);
    }

    #[test]
    fn drain_groups_row_hits() {
        // Writes ping-ponging between two rows of one bank: buffered
        // FR-FCFS drain groups them per row, the in-order service
        // activates on every single write.
        let far = BANKS_PER_CHANNEL as u64 * ROW_BLOCKS;
        let mut in_order = Channel::new(&cfg_with(SchedPolicy::InOrder));
        let mut frfcfs = Channel::new(&cfg_with(SchedPolicy::FrFcfs));
        for i in 0..6u64 {
            let block = if i % 2 == 0 { i / 2 } else { far + i / 2 };
            in_order.write(block, 4, 0.0);
            frfcfs.write(block, 4, 0.0);
        }
        frfcfs.drain_writes(0.0);
        assert_eq!(in_order.telemetry().row_misses, 6, "ping-pong activates every time");
        assert!(
            frfcfs.telemetry().row_misses < 6,
            "row-hit-first drain must group rows: {} activates",
            frfcfs.telemetry().row_misses
        );
    }

    #[test]
    fn interleaving_spreads_consecutive_blocks() {
        let dram = Dram::new(&cfg());
        let n = dram.channels();
        assert_eq!(n, 12);
        let (c0, l0) = dram.map(0);
        let (c1, _) = dram.map(1);
        assert_ne!(c0, c1, "adjacent blocks go to different channels");
        assert_eq!(dram.map(n as u64), (c0, l0 + 1));
    }

    #[test]
    fn parallel_channels_do_not_serialise() {
        let mut dram = Dram::new(&cfg());
        let a = dram.read(0, 4, 0.0);
        let b = dram.read(1, 4, 0.0);
        // Different channels: both finish at the single-access time.
        assert!((a.done - b.done).abs() < 1e-9);
    }

    #[test]
    fn metadata_writeback_routes_by_line_address() {
        let mut dram = Dram::new(&cfg_with(SchedPolicy::FrFcfs));
        dram.write_metadata_line(0, 0.0);
        assert_eq!(dram.pending_writes(), 1);
        dram.drain_writes(0.0);
        assert_eq!(dram.pending_writes(), 0);
        let t = dram.telemetry();
        assert_eq!(t.row_misses, 1, "the line's own row activates");
    }

    #[test]
    fn throughput_matches_bandwidth() {
        // Saturate one channel with row hits and check achieved bytes per
        // SM cycle approaches the configured per-channel rate.
        let c = cfg();
        let mut ch = Channel::new(&c);
        let accesses = 10_000u64;
        let mut done = 0.0;
        for i in 0..accesses {
            done = ch.read(i, 4, 0.0).done;
        }
        let bytes = accesses as f64 * 128.0;
        let per_cycle = bytes / done;
        // Per channel: 16 B per memory cycle = 16 / ratio per SM cycle.
        let peak = 16.0 / c.sm_cycles_per_mem_cycle();
        assert!(per_cycle > 0.9 * peak, "achieved {per_cycle:.2} vs peak {peak:.2}");
        assert!(per_cycle <= peak + 1e-9);
    }
}
