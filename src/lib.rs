//! Umbrella crate for the SLC reproduction.
//!
//! Re-exports every workspace crate under one roof so integration tests and
//! downstream users can depend on a single `slc` crate:
//!
//! * [`slc_core`] — the paper's contribution: MAG-aware selective lossy
//!   compression (TSLC) layered on E2MC.
//! * [`slc_compress`] — lossless substrates: BDI, FPC, C-PACK, E2MC, BPC.
//! * [`slc_engine`] — batch compression engine: shards byte streams into
//!   chunks, compresses them in parallel and emits a self-describing
//!   framed container with chunk-parallel decode.
//! * [`slc_sim`] — trace-driven GPU memory-subsystem timing simulator.
//! * [`slc_workloads`] — the nine paper benchmarks, traces and error metrics.
//! * [`slc_power`] — energy/EDP model and the 32 nm RTL cost model.
//! * [`slc_exp`] — harness regenerating every table and figure.

#![forbid(unsafe_code)]

pub use slc_compress;
pub use slc_core;
pub use slc_engine;
pub use slc_exp;
pub use slc_power;
pub use slc_sim;
pub use slc_workloads;
