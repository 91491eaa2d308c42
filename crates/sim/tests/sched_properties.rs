//! Property tests for the channel request scheduler.
//!
//! Three contracts pin the FR-FCFS refactor:
//!
//! 1. the `InOrder` policy is **bit-identical** to the pre-scheduler
//!    `Channel` (single `free_at` horizon, every request serviced at
//!    arrival) on randomized access sequences — the refactor changed the
//!    plumbing, never the legacy arithmetic;
//! 2. FR-FCFS never reorders past the starvation cap: at every read
//!    arrival, no buffered write older than `SCHED_AGE_CAP` survives the
//!    arbitration (the oldest request's completion is bounded);
//! 3. row-hit-first drain strictly reduces row activates against
//!    `InOrder` on bank-conflict write traffic.

use proptest::prelude::*;
use slc_sim::config::{BANKS_PER_CHANNEL, ROW_BLOCKS, SCHED_AGE_CAP, WRITE_BUFFER_ENTRIES};
use slc_sim::dram::sched::SchedPolicy;
use slc_sim::dram::Channel;
use slc_sim::GpuConfig;

/// The pre-scheduler channel model, reproduced verbatim from the PR 4
/// `Channel::access`: one bank array, one data-bus horizon, requests
/// serviced in arrival order with no read/write distinction.
struct LegacyChannel {
    open_row: Vec<Option<u64>>,
    ready_at: Vec<f64>,
    free_at: f64,
    burst_cycles: f64,
    row_hit_cycles: f64,
    row_miss_cycles: f64,
}

impl LegacyChannel {
    fn new(cfg: &GpuConfig) -> Self {
        Self {
            open_row: vec![None; BANKS_PER_CHANNEL],
            ready_at: vec![0.0; BANKS_PER_CHANNEL],
            free_at: 0.0,
            burst_cycles: cfg.burst_sm_cycles(),
            row_hit_cycles: cfg.row_hit_sm_cycles(),
            row_miss_cycles: cfg.row_miss_sm_cycles(),
        }
    }

    fn access(&mut self, local_block: u64, bursts: u32, at: f64) -> (f64, bool) {
        let row_group = local_block / ROW_BLOCKS;
        let bank = (row_group as usize) % self.open_row.len();
        let row = row_group / self.open_row.len() as u64;
        let start = at.max(self.ready_at[bank]);
        let row_hit = self.open_row[bank] == Some(row);
        let access_latency = if row_hit { self.row_hit_cycles } else { self.row_miss_cycles };
        let data_start = (start + access_latency).max(self.free_at);
        let done = data_start + self.burst_cycles * f64::from(bursts);
        self.free_at = done;
        self.open_row[bank] = Some(row);
        if !row_hit {
            self.ready_at[bank] = start + (self.row_miss_cycles - self.row_hit_cycles);
        }
        (done, row_hit)
    }
}

fn in_order_cfg() -> GpuConfig {
    GpuConfig { sched_policy: SchedPolicy::InOrder, ..GpuConfig::default() }
}

fn frfcfs_cfg() -> GpuConfig {
    GpuConfig { sched_policy: SchedPolicy::FrFcfs, ..GpuConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: `InOrder` reproduces the pre-scheduler channel bit for
    /// bit — completion times, row outcomes and the bus horizon.
    #[test]
    fn prop_in_order_matches_legacy_channel(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u16>(), any::<bool>()), 1..200)
    ) {
        let cfg = in_order_cfg();
        let mut legacy = LegacyChannel::new(&cfg);
        let mut channel = Channel::new(&cfg);
        let mut now = 0.0f64;
        for &(block, bursts, dt, is_write) in &ops {
            now += f64::from(dt % 256);
            let block = u64::from(block) % 4096;
            let bursts = u32::from(bursts % 4) + 1;
            let (want_done, want_hit) = legacy.access(block, bursts, now);
            let got = if is_write {
                channel.write(block, bursts, now).expect("InOrder writes service at arrival")
            } else {
                channel.read(block, bursts, now)
            };
            // Identical f64 arithmetic on identical state: exact equality.
            prop_assert_eq!(got.done.to_bits(), want_done.to_bits());
            prop_assert_eq!(got.row_hit, want_hit);
            prop_assert_eq!(channel.free_at().to_bits(), legacy.free_at.to_bits());
        }
        prop_assert_eq!(channel.pending_writes(), 0, "InOrder never buffers");
    }

    /// Contract 2: at every channel event (read *or* write arrival),
    /// every buffered write older than the age cap is forced out first —
    /// no request is reordered past its age bound while traffic flows,
    /// so the oldest request's completion stays within one drain of the
    /// cap.
    #[test]
    fn prop_age_cap_bounds_reordering(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u16>(), any::<bool>()), 1..300)
    ) {
        let cfg = frfcfs_cfg();
        let cap = SCHED_AGE_CAP as f64;
        let mut channel = Channel::new(&cfg);
        let mut now = 0.0f64;
        for &(block, bursts, dt, is_write) in &ops {
            now += f64::from(dt);
            let block = u64::from(block) % 4096;
            let bursts = u32::from(bursts % 4) + 1;
            if is_write {
                channel.write(block, bursts, now);
            } else {
                channel.read(block, bursts, now);
            }
            if let Some(oldest) = channel.oldest_pending_arrival() {
                prop_assert!(
                    now - oldest <= cap,
                    "write from {oldest} still buffered after event at {now} (cap {cap})"
                );
            }
            prop_assert!(channel.pending_writes() <= WRITE_BUFFER_ENTRIES);
        }
    }

    /// Contract 3: on ping-pong write traffic between conflicting rows of
    /// one bank, the row-hit-first drain strictly reduces row activates
    /// vs servicing in order (the whole point of FR-FCFS).
    #[test]
    fn prop_row_hit_first_reduces_activates(
        rows in proptest::collection::vec(any::<bool>(), 4..12),
        offsets in proptest::collection::vec(any::<u8>(), 4..12),
    ) {
        let alternations = rows.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assume!(alternations >= 3);
        let cfg_i = in_order_cfg();
        let cfg_f = frfcfs_cfg();
        // Two rows of bank 0: row 0 starts at block 0, row 1 after a full
        // sweep of every bank's first row group.
        let far = BANKS_PER_CHANNEL as u64 * ROW_BLOCKS;
        let mut in_order = Channel::new(&cfg_i);
        let mut frfcfs = Channel::new(&cfg_f);
        for (i, &second_row) in rows.iter().enumerate() {
            let offset = u64::from(offsets[i % offsets.len()]) % ROW_BLOCKS;
            let block = if second_row { far + offset } else { offset };
            // Same-instant arrivals: the burst of write-backs an L2 flush
            // emits, which is exactly where drain grouping pays.
            in_order.write(block, 4, 0.0);
            frfcfs.write(block, 4, 0.0);
        }
        frfcfs.drain_writes(0.0);
        prop_assert_eq!(in_order.pending_writes(), 0);
        prop_assert_eq!(frfcfs.pending_writes(), 0);
        prop_assert!(
            frfcfs.telemetry().row_misses < in_order.telemetry().row_misses,
            "row-hit-first must save activates: {} vs {}",
            frfcfs.telemetry().row_misses,
            in_order.telemetry().row_misses
        );
    }
}
