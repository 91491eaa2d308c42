//! Sweep of `E2mcConfig::sample_blocks` (the online-sampling budget)
//! against the paper's sampling-phase claim.
//!
//! E2MC trains its code table during a short online sampling phase and
//! then freezes it (Lal et al., §IV-A: a 20 M-instruction window, a tiny
//! fraction of a run, suffices). The software analogue: a table trained
//! on a bounded prefix of the traffic must compress almost as well as a
//! table trained on everything. These tests sweep realistic budgets —
//! not just the tiny `Some(2)` smoke case in the unit tests — over a
//! smooth-float workload resembling the paper's benchmark traffic, and
//! pin the allowed compression-ratio degradation at each budget.

use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::{Block, BlockCompressor, BLOCK_BYTES};

/// Deterministic smooth f32 traffic whose blocks each sample across the
/// whole 1024-value distribution (a multiplicative stride walks the value
/// space), so any modest prefix is representative — the stationarity the
/// paper's online sampling phase assumes of real kernel traffic. No two
/// blocks are identical.
fn float_traffic(blocks: usize) -> Vec<Block> {
    (0..blocks)
        .map(|k| {
            let mut b = [0u8; BLOCK_BYTES];
            for i in 0..BLOCK_BYTES / 4 {
                let step = (k * 997 + i * 61) % 1024;
                let v = 1000.0f32 + step as f32 * 0.25;
                b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            b
        })
        .collect()
}

/// Mean lossless compressed size (bits/block) of `codec` over `blocks`.
fn mean_size_bits(codec: &E2mc, blocks: &[Block]) -> f64 {
    let total: u64 = blocks.iter().map(|b| u64::from(codec.size_bits(b))).sum();
    total as f64 / blocks.len() as f64
}

/// Trains at `budget` over the traffic and returns the mean compressed
/// size on the evaluation slice (the traffic tail: inside the unbounded
/// codec's training set but beyond every bounded sampling window, which
/// is exactly what the frozen-table claim is about — traffic the bounded
/// table never saw).
fn swept_size(traffic: &[Block], eval: &[Block], budget: Option<u64>) -> f64 {
    let config = E2mcConfig { sample_blocks: budget, ..E2mcConfig::default() };
    let codec = E2mc::train_on_blocks(traffic.iter(), &config);
    mean_size_bits(&codec, eval)
}

#[test]
fn bounded_sampling_budgets_stay_near_unbounded_ratio() {
    let traffic = float_traffic(2048);
    let eval = traffic[traffic.len() - 256..].to_vec();
    let unbounded = swept_size(&traffic, &eval, None);
    // Every budget's mean compressed size, relative to unbounded training.
    // The paper's claim is that a small sampling window loses almost
    // nothing; the bounds encode "within 10% beyond 64 blocks, within 2%
    // beyond 256" with margin for distribution drift.
    for (budget, allowed) in [(64u64, 1.10), (256, 1.02), (1024, 1.02)] {
        let limited = swept_size(&traffic, &eval, Some(budget));
        let ratio = limited / unbounded;
        assert!(
            ratio <= allowed,
            "budget {budget}: mean {limited:.1} bits vs unbounded {unbounded:.1} \
             ({ratio:.3}x > allowed {allowed}x)"
        );
        // Sanity: a bounded table must still compress (not degenerate to
        // escapes-everywhere / verbatim storage).
        assert!(
            limited < f64::from(slc_compress::BLOCK_BITS) / 2.0,
            "budget {budget} barely compresses"
        );
    }
}

#[test]
fn sampling_budget_degrades_monotonically_in_the_large() {
    // Larger budgets never make compression meaningfully worse: each
    // 4x budget step must stay within 1% of the next larger one.
    let traffic = float_traffic(2048);
    let eval = traffic[traffic.len() - 256..].to_vec();
    let sizes: Vec<f64> =
        [16u64, 64, 256, 1024].iter().map(|&b| swept_size(&traffic, &eval, Some(b))).collect();
    for pair in sizes.windows(2) {
        assert!(
            pair[1] <= pair[0] * 1.01,
            "larger budget compresses worse: {:.1} -> {:.1} bits",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn tiny_budgets_still_roundtrip_everything() {
    // Losslessness is budget-independent: even a starved table (heavy
    // escape traffic) must reconstruct exactly.
    let traffic = float_traffic(64);
    for budget in [1u64, 4, 16] {
        let config = E2mcConfig { sample_blocks: Some(budget), ..E2mcConfig::default() };
        let codec = E2mc::train_on_blocks(traffic.iter(), &config);
        let mut payload = Vec::new();
        for b in &traffic {
            payload.clear();
            let (bits, coded) = codec.compress_into(b, &mut payload);
            let mut out = [0u8; BLOCK_BYTES];
            codec.decompress_into(bits, coded, &payload, &mut out).unwrap();
            assert_eq!(out, *b, "budget {budget}");
        }
    }
}
