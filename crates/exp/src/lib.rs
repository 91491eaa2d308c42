//! Experiment harness: regenerates every table and figure of the SLC
//! paper. PAPER.md's "Map from the paper to the code" gives each artefact
//! its `slc` command, its entry point in this crate and the gate that pins
//! it.
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
