//! The nine memory-bound, approximation-tolerant benchmarks of the SLC
//! paper (Table III), re-implemented functionally in Rust with synthetic
//! inputs, plus the machinery to run them under compression schemes.
//!
//! | Name  | Description                  | Error metric | #AR |
//! |-------|------------------------------|--------------|-----|
//! | JM    | Intersection of triangles    | Miss rate    | 6   |
//! | BS    | Options pricing              | MRE          | 4   |
//! | DCT   | Discrete cosine transform    | Image diff   | 2   |
//! | FWT   | Fast Walsh transform         | NRMSE        | 2   |
//! | TP    | Matrix transpose             | NRMSE        | 2   |
//! | BP    | Perceptron training          | MRE          | 6   |
//! | NN    | Nearest neighbors            | MRE          | 2   |
//! | SRAD1 | Anisotropic diffusion (v1)   | Image diff   | 8   |
//! | SRAD2 | Anisotropic diffusion (v2)   | Image diff   | 6   |
//!
//! Each benchmark provides (a) a seeded input generator, (b) the kernel
//! pipeline executed against [`slc_sim::GpuMemory`] with staging callbacks
//! at every kernel-boundary DRAM round-trip, (c) a memory trace with the
//! kernel's real access pattern, and (d) its error metric.
//!
//! [`harness`] glues benchmarks to compression [`scheme`]s and the timing
//! simulator; the `slc-exp` crate builds every paper figure from it.
//! [`engine`] turns a memory image into the byte stream the `slc-engine`
//! batch container path takes.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod benchmarks;
pub mod engine;
pub mod gen;
pub mod harness;
pub mod metrics;
pub mod scheme;
pub mod suite;

pub use analysis::SnapshotAnalysis;
pub use engine::{compress_snapshot, snapshot_bytes};
pub use harness::{BenchmarkArtifacts, FunctionalOutcome, Harness, TimingOutcome};
pub use scheme::{Scheme, SchemeKind};
pub use suite::{all_workloads, workload_by_name, Scale, Workload};
