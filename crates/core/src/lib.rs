//! SLC — Memory Access Granularity aware Selective Lossy Compression.
//!
//! This crate is the primary contribution of Lal, Lucas & Juurlink,
//! "SLC: Memory Access Granularity Aware Selective Lossy Compression for
//! GPUs" (DATE 2019), reproduced as a software model faithful to the
//! paper's hardware:
//!
//! * [`budget`] — the Fig. 4 decision flow: compressed size → bit budget →
//!   extra bits → lossless/lossy mode choice.
//! * [`tree`] — the Fig. 5 parallel tree adder whose intermediate sums pick
//!   the sub-block of symbols to approximate (TSLC), including the extra
//!   middle-level nodes of TSLC-OPT.
//! * [`header`] — SLC's fields of the Fig. 6 block header (mode bit,
//!   start symbol, length), bit-exact. The parallel decoding pointers and
//!   the ways after them are E2MC's framing, written and read for both
//!   modes by [`SymbolTable`](slc_compress::e2mc::SymbolTable)'s
//!   `write_ways` / `read_ways`; [`header::prefix`] is what SLC hands
//!   `write_ways` to go before them.
//! * [`predict`] — the value-similarity predictor used by TSLC-PRED/OPT at
//!   decompression.
//! * [`slc`] — the end-to-end compressor/decompressor layered on E2MC.
//!
//! # The lossy contract
//!
//! SLC changes a block only within three bounds, each carried by a type:
//!
//! 1. **Only approximable regions.** The staging walk rewrites only the
//!    blocks `slc_sim::GpuMemory::regions_mut` lends as
//!    `slc_sim::RegionBlocks::Approx`; an exact region is lent read-only.
//! 2. **Only the symbols of one [`Hole`]:** 1 to 16 contiguous symbols
//!    inside the block, made only by [`Hole::new`] and held by the
//!    selection, the header and the predictor.
//! 3. **Only when the overshoot is within the threshold:** the extra bits
//!    of [`BudgetDecision`] within the threshold of [`SlcConfig`], which
//!    is one per scheme, not one per allocation as in §IV-C.
//!
//! # The shared block-analysis pipeline
//!
//! Every decision this crate makes — the Fig. 4 budget comparison, the
//! Fig. 5 truncation selection, stored sizes and burst counts — is a pure
//! function of one artifact: the block's per-symbol canonical-Huffman
//! code lengths, captured (with their sum) as
//! [`slc_compress::e2mc::BlockAnalysis`] by a single
//! [`E2mc::analyze`](slc_compress::e2mc::E2mc::analyze) pass.
//! [`slc::SlcCompressor::analysis`] produces it and every size-only
//! decision consumes it:
//! [`analyze_with`](slc::SlcCompressor::analyze_with),
//! [`stored_bits_with`](slc::SlcCompressor::stored_bits_with),
//! [`stored_bursts_with`](slc::SlcCompressor::stored_bursts_with),
//! [`compress_with`](slc::SlcCompressor::compress_with) and
//! [`stage_in_place`](slc::SlcCompressor::stage_in_place) take a
//! `&BlockAnalysis`; only [`compress`](slc::SlcCompressor::compress)
//! keeps a block-taking convenience that derives the analysis
//! internally.
//!
//! **Sharing contract:** an analysis is valid for any number of
//! consumers as long as (a) it was produced by the *same trained table*
//! (the `Arc`-shared [`slc_compress::e2mc::SymbolTable`]) and (b) the
//! block bytes have not changed. MAG, lossy threshold and TSLC variant
//! are *not* baked into the analysis — N schemes at different
//! configurations can sweep one analysis with N cheap decisions, which
//! is exactly what the workload harness' snapshot cache does (see
//! `slc-workloads::analysis`). `compress_with` is pinned bit-identical
//! to `compress` by unit and property tests, and `stage_in_place` —
//! the round trip without the entropy coder — to
//! `decompress(compress_with(..))`, which stays the codec and the
//! reference.
//!
//! A caller that reads each block once — the staging walk — makes one
//! table pass per visit, each step a stage of the paper's hardware:
//! `analyze` is the 64 reads of the code-length ROM;
//! [`BlockAnalysis::tree_sums`](slc_compress::e2mc::BlockAnalysis::tree_sums)
//! is the adder tree, run only for a block that reaches the selector;
//! [`CodeLengthTree::select`](tree::CodeLengthTree::select) is the
//! comparators and the priority encoder over its sums; and
//! [`stage_in_place`](slc::SlcCompressor::stage_in_place) is the whole
//! round trip on that one analysis — decide, refill the hole
//! in the block's own bytes, look up only the hole's rewritten symbols
//! again ([`E2mc::reanalyze`](slc_compress::e2mc::E2mc::reanalyze): only
//! they re-enter the tree) and decide once more, so contract (b) holds
//! again on return.
//!
//! # Quick start
//!
//! ```
//! use slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
//! use slc_compress::{e2mc::{E2mc, E2mcConfig}, Mag};
//!
//! // Train the lossless baseline on representative traffic.
//! let training: Vec<u8> = (0..1 << 14u32)
//!     .flat_map(|i: u32| ((i / 3) as f32).to_le_bytes())
//!     .collect();
//! let e2mc = E2mc::train_on_bytes(&training, &E2mcConfig::default());
//!
//! // Wrap it with SLC: MAG 32 B, lossy threshold 16 B (the paper default).
//! let slc = SlcCompressor::new(e2mc, SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
//!
//! let mut block = [0u8; 128];
//! for (i, c) in block.chunks_exact_mut(4).enumerate() {
//!     c.copy_from_slice(&(900.0f32 + i as f32).to_le_bytes());
//! }
//! let enc = slc.compress(&block);
//! let out = slc.decompress(&enc);
//! // The block either round-trips exactly (lossless mode) or differs only
//! // in the approximated symbols.
//! assert!(enc.bursts() <= 4);
//! # let _ = out;
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod budget;
pub mod header;
pub mod predict;
pub mod slc;
pub mod tree;

pub use budget::{BudgetDecision, ModeChoice};
pub use header::Hole;
pub use slc::{SlcCompressed, SlcCompressor, SlcConfig, SlcVariant, StoredKind};
pub use tree::{CodeLengthTree, Selection};
