//! Experiment harness: regenerates every table and figure of the SLC
//! paper (see PAPER.md, "This reproduction").
//!
//! | Paper artefact | Module | Command |
//! |---|---|---|
//! | Fig. 1 (raw vs effective ratio) + BPC (§II-A) | [`fig1`] | `slc run fig1` |
//! | Fig. 2 (heat map) | [`fig2`] | `slc run fig2` |
//! | Figs. 7a/7b (speedup, error) | [`eval`] | `slc run fig7` |
//! | Figs. 8a/8b (bandwidth, energy, EDP) | [`eval`] | `slc run fig8` |
//! | Figs. 9a/9b + §V-C (MAG sensitivity) | [`fig9`] | `slc run fig9` |
//! | All five figures, one pass over the benchmarks | [`all`] | `slc run all` |
//! | Table I (hardware cost) | [`tables`] | `slc run table1` |
//! | Table II (simulator config) | [`tables`] | `slc run table2` |
//! | Table III (benchmarks) | [`tables`] | `slc run table3` |
//!
//! The `slc` binary reads `SLC_SCALE` (`tiny` / `small` / `full`, default
//! `small`) and prints paper-reference values next to measured ones.

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
