//! Trace-driven GPU memory-subsystem timing simulator.
//!
//! The SLC paper evaluates on gpgpu-sim configured as a GTX580. SLC's
//! performance effect is purely a memory-system effect — fewer 32 B DRAM
//! bursts per block ⇒ lower DRAM occupancy and queueing ⇒ fewer SM stalls
//! for memory-bound kernels — so this crate models exactly that path
//! (PAPER.md, "Timing model"):
//!
//! * [`sm`] — an SM front-end issuing coalesced 128 B requests from a
//!   trace, with bounded MSHRs and explicit sync points (latency hiding).
//! * [`cache`] — set-associative write-back caches: L1, L2 and the
//!   metadata cache (MDC) holding the 2-bit per-block burst counts (paper
//!   Fig. 3).
//! * [`dram`] — GDDR5 channels with banks, row-buffer timing and a data
//!   bus occupied per burst.
//! * [`mc`] — the memory controller binding MDC, (de)compression latency
//!   and the channels together.
//! * [`engine`] — the event loop, producing [`stats::SimStats`].
//! * [`mem`] — the functional device memory with *safe-to-approximate*
//!   regions (the paper's extended `cudaMalloc`).
//!
//! The timing side never touches data: per-block burst counts come from a
//! [`mc::BurstsSource`] the workload harness derives from the functional
//! compression pass.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod mc;
pub mod mem;
pub mod sm;
pub mod stats;
pub mod trace;

pub use config::GpuConfig;
pub use dram::sched::SchedPolicy;
pub use engine::Engine;
pub use mc::{BurstsMap, BurstsSource};
pub use mem::{DevicePtr, F32View, F32ViewMut, GpuMemory, Region, RegionBlocks};
pub use stats::SimStats;
pub use trace::{Op, Trace};

/// A 128 B-aligned block address (byte address >> 7).
pub type BlockAddr = u64;
