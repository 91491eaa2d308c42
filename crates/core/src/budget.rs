//! Bit budgets and the lossless/lossy mode decision (paper Fig. 4).
//!
//! SLC is "a budget-based compression technique which allows selection
//! between different compression modes depending upon comp size, bit
//! budget, extra bits, and a threshold". The *bit budget* is the closest
//! MAG multiple at or below the lossless compressed size; the *extra bits*
//! are what sticks out above it; the user-set *threshold* bounds how many
//! bits may be approximated away.

use slc_compress::e2mc::BlockAnalysis;
use slc_compress::{Mag, BLOCK_BITS};

/// Which compression mode the Fig. 4 flow selects for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModeChoice {
    /// Compressed size is no smaller than the block: store verbatim
    /// ("the block is always stored uncompressed and the bit budget is
    /// 128B").
    Uncompressed,
    /// Lossless compression; either the size already sits on a MAG
    /// multiple, is below one MAG, or the extra bits exceed the threshold.
    Lossless,
    /// Extra bits are within the threshold: approximate them away.
    Lossy,
}

/// The budget arithmetic for one block.
///
/// ```
/// use slc_core::budget::{BudgetDecision, ModeChoice};
/// use slc_compress::Mag;
///
/// // 36 bytes compressed = 288 bits: budget 256 (32 B), 32 extra bits.
/// let d = BudgetDecision::evaluate(288, Mag::GDDR5, 16 * 8);
/// assert_eq!(d.bit_budget, 256);
/// assert_eq!(d.extra_bits, 32);
/// assert_eq!(d.mode, ModeChoice::Lossy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetDecision {
    /// Lossless compressed size in bits (code lengths + header).
    pub comp_size_bits: u32,
    /// Closest MAG multiple ≤ `comp_size_bits`, clamped to `[MAG, block]`.
    pub bit_budget: u32,
    /// `comp_size_bits - bit_budget` (0 when the size is on a multiple).
    pub extra_bits: u32,
    /// Selected mode.
    pub mode: ModeChoice,
}

impl BudgetDecision {
    /// Runs the Fig. 4 decision flow.
    ///
    /// `threshold_bits` is the user-defined number of bits that may be
    /// safely approximated (the paper's `threshold`, one per [`SlcConfig`](crate::SlcConfig)).
    pub fn evaluate(comp_size_bits: u32, mag: Mag, threshold_bits: u32) -> Self {
        let mag_bits = mag.bits();
        // Incompressible: uncompressed, budget = whole block. Note this
        // tests the raw compressed size, not its MAG round-up: a block a
        // few bytes above the last interior MAG multiple is exactly what
        // the lossy mode is for (the storage layer falls back to verbatim
        // only after the lossy path declines — see `SlcCompressor`).
        if comp_size_bits >= BLOCK_BITS {
            return Self {
                comp_size_bits,
                bit_budget: BLOCK_BITS,
                extra_bits: 0,
                mode: ModeChoice::Uncompressed,
            };
        }
        // "it is not possible to fetch less than 32B from memory": sizes at
        // or below one MAG are lossless with a one-MAG budget.
        if comp_size_bits <= mag_bits {
            return Self {
                comp_size_bits,
                bit_budget: mag_bits,
                extra_bits: 0,
                mode: ModeChoice::Lossless,
            };
        }
        // A MAG is a power of two: the multiple at or below is a mask.
        let bit_budget = comp_size_bits & !(mag_bits - 1);
        let extra_bits = comp_size_bits - bit_budget;
        let mode = if extra_bits == 0 {
            ModeChoice::Lossless
        } else if extra_bits <= threshold_bits {
            ModeChoice::Lossy
        } else {
            ModeChoice::Lossless
        };
        Self { comp_size_bits, bit_budget, extra_bits, mode }
    }

    /// Runs the Fig. 4 flow for a block that has already been analysed:
    /// the lossless compressed size is
    /// [`BlockAnalysis::lossless_size_bits`], the header plus the
    /// precomputed code-length sum (the root of its stored adder tree),
    /// so the decision is a few compares on top of a shared analysis —
    /// no re-encoding, no re-summation.
    pub fn for_analysis(analysis: &BlockAnalysis, mag: Mag, threshold_bits: u32) -> Self {
        Self::evaluate(analysis.lossless_size_bits(), mag, threshold_bits)
    }

    /// Bursts the block costs if stored losslessly under `mag`.
    pub fn lossless_bursts(&self, mag: Mag) -> u32 {
        mag.bursts_for_bits(self.comp_size_bits, BLOCK_BITS / 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const THR_16B: u32 = 16 * 8;

    #[test]
    fn size_on_multiple_stays_lossless() {
        for mult in [256, 512, 768] {
            let d = BudgetDecision::evaluate(mult, Mag::GDDR5, THR_16B);
            assert_eq!(d.mode, ModeChoice::Lossless);
            assert_eq!(d.extra_bits, 0);
            assert_eq!(d.bit_budget, mult);
        }
    }

    #[test]
    fn tiny_blocks_are_lossless_with_one_mag_budget() {
        let d = BudgetDecision::evaluate(100, Mag::GDDR5, THR_16B);
        assert_eq!(d.mode, ModeChoice::Lossless);
        assert_eq!(d.bit_budget, 256);
        assert_eq!(d.extra_bits, 0);
        assert_eq!(d.lossless_bursts(Mag::GDDR5), 1);
    }

    #[test]
    fn few_extra_bits_go_lossy() {
        let d = BudgetDecision::evaluate(256 + 40, Mag::GDDR5, THR_16B);
        assert_eq!(d.mode, ModeChoice::Lossy);
        assert_eq!(d.extra_bits, 40);
        assert_eq!(d.lossless_bursts(Mag::GDDR5), 2);
    }

    #[test]
    fn many_extra_bits_stay_lossless() {
        let d = BudgetDecision::evaluate(256 + THR_16B + 1, Mag::GDDR5, THR_16B);
        assert_eq!(d.mode, ModeChoice::Lossless);
    }

    #[test]
    fn extra_exactly_at_threshold_goes_lossy() {
        // The paper uses "extra bits <= threshold".
        let d = BudgetDecision::evaluate(512 + THR_16B, Mag::GDDR5, THR_16B);
        assert_eq!(d.mode, ModeChoice::Lossy);
        assert_eq!(d.extra_bits, THR_16B);
    }

    #[test]
    fn sizes_just_above_the_last_interior_multiple_can_go_lossy() {
        // A 100 B block under MAG 32 moves 4 bursts losslessly, but the
        // lossy mode can round it down to 96 B (3 bursts).
        let d = BudgetDecision::evaluate(100 * 8, Mag::GDDR5, THR_16B);
        assert_eq!(d.mode, ModeChoice::Lossy);
        assert_eq!(d.bit_budget, 96 * 8);
        // Whole-block-or-more compressed sizes stay verbatim.
        let d = BudgetDecision::evaluate(2000, Mag::GDDR5, THR_16B);
        assert_eq!(d.mode, ModeChoice::Uncompressed);
    }

    #[test]
    fn wide_mag_has_one_interior_budget_point() {
        // Under MAG 64, 65..96 B is lossy-eligible down to the single
        // interior multiple (64 B); beyond the threshold it stays
        // lossless (and the storage layer falls back to verbatim).
        let d = BudgetDecision::evaluate(70 * 8, Mag::WIDE_64, 32 * 8);
        assert_eq!(d.mode, ModeChoice::Lossy);
        assert_eq!(d.bit_budget, 64 * 8);
        let d = BudgetDecision::evaluate(110 * 8, Mag::WIDE_64, 32 * 8);
        assert_eq!(d.mode, ModeChoice::Lossless);
        let d = BudgetDecision::evaluate(64 * 8, Mag::WIDE_64, THR_16B);
        assert_eq!(d.mode, ModeChoice::Lossless);
    }

    #[test]
    fn narrow_mag_offers_more_lossy_points() {
        // MAG 16: budgets at 16,32,...,112 B. 50 B -> budget 48, extra 2 B.
        let d = BudgetDecision::evaluate(50 * 8, Mag::NARROW_16, 8 * 8);
        assert_eq!(d.bit_budget, 48 * 8);
        assert_eq!(d.extra_bits, 16);
        assert_eq!(d.mode, ModeChoice::Lossy);
    }

    #[test]
    fn for_analysis_matches_evaluate_on_the_framed_size() {
        use slc_compress::e2mc::HEADER_BITS;
        use slc_compress::symbols::SYMBOLS_PER_BLOCK;
        for fill in [2u8, 5, 9, 14] {
            let a = BlockAnalysis::from_widths([fill; SYMBOLS_PER_BLOCK]);
            let via = BudgetDecision::for_analysis(&a, Mag::GDDR5, THR_16B);
            let direct = BudgetDecision::evaluate(
                HEADER_BITS + u32::from(fill) * SYMBOLS_PER_BLOCK as u32,
                Mag::GDDR5,
                THR_16B,
            );
            assert_eq!(via, direct);
        }
    }

    #[test]
    fn the_masked_budget_equals_the_division_it_replaces() {
        for mag_bytes in [8u32, 16, 32, 64, 128] {
            let mag = Mag::new(mag_bytes);
            for size in 0..=1400u32 {
                let d = BudgetDecision::evaluate(size, mag, THR_16B);
                let want = match size {
                    s if s >= BLOCK_BITS => BLOCK_BITS,
                    s if s <= mag.bits() => mag.bits(),
                    s => s / mag.bits() * mag.bits(),
                };
                assert_eq!(d.bit_budget, want, "MAG {mag_bytes}, {size} bits");
                let above = size > mag.bits() && size < BLOCK_BITS;
                assert_eq!(d.extra_bits, if above { size % mag.bits() } else { 0 });
            }
        }
    }

    proptest! {
        #[test]
        fn prop_budget_is_mag_multiple_at_or_below_size(size in 1u32..=1400, thr in 0u32..=256) {
            let d = BudgetDecision::evaluate(size, Mag::GDDR5, thr);
            prop_assert_eq!(d.bit_budget % Mag::GDDR5.bits(), 0);
            match d.mode {
                ModeChoice::Uncompressed => prop_assert_eq!(d.bit_budget, BLOCK_BITS),
                _ if size <= Mag::GDDR5.bits() => {
                    prop_assert_eq!(d.bit_budget, Mag::GDDR5.bits());
                    prop_assert_eq!(d.extra_bits, 0);
                }
                _ => {
                    prop_assert!(d.bit_budget <= size);
                    prop_assert_eq!(d.extra_bits, size - d.bit_budget);
                }
            }
        }

        #[test]
        fn prop_lossy_only_within_threshold(size in 1u32..=1400, thr in 0u32..=256) {
            let d = BudgetDecision::evaluate(size, Mag::GDDR5, thr);
            if d.mode == ModeChoice::Lossy {
                prop_assert!(d.extra_bits >= 1 && d.extra_bits <= thr);
            }
        }
    }
}
