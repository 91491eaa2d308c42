//! Experiment harness: regenerates every table and figure of the SLC
//! paper (see PAPER.md, "This reproduction").
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Fig. 1 (raw vs effective ratio) | [`fig1`] | `fig1_compression_ratio` |
//! | Fig. 2 (heat map) | [`fig2`] | `fig2_heatmap` |
//! | Figs. 7a/7b (speedup, error) | [`eval`] | `fig7_speedup_error` |
//! | Figs. 8a/8b (bandwidth, energy, EDP) | [`eval`] | `fig8_bandwidth_energy` |
//! | Figs. 9a/9b + §V-C (MAG sensitivity) | [`fig9`] | `fig9_mag_sensitivity` |
//! | All five figures, one pass over the benchmarks | [`all`] | `run_all` |
//! | Table I (hardware cost) | [`tables`] | `table1_hardware` |
//! | Table II (simulator config) | [`tables`] | `table2_config` |
//! | Table III (benchmarks) | [`tables`] | `table3_benchmarks` |
//!
//! Binaries read `SLC_SCALE` (`tiny` / `small` / `full`, default `small`)
//! and print paper-reference values next to measured ones.

#![forbid(unsafe_code)]

pub mod all;
pub mod eval;
pub mod fig1;
pub mod fig2;
pub mod fig9;
pub mod report;
pub mod tables;

pub use eval::{evaluate, Eval};
pub use report::TextTable;
