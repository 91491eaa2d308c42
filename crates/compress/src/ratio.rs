//! Raw and effective compression-ratio bookkeeping (Fig. 1 semantics).
//!
//! * The **raw** ratio ignores MAG: `Σ uncompressed / Σ compressed`.
//! * The **effective** ratio scales every compressed size up to the nearest
//!   MAG multiple first, which is what the memory system actually transfers.

use crate::mag::Mag;

/// Accumulates per-block compressed sizes and reports raw/effective ratios.
///
/// ```
/// use slc_compress::{ratio::RatioAccumulator, mag::Mag};
///
/// let mut acc = RatioAccumulator::new(Mag::GDDR5, 128);
/// acc.record_bytes(36); // raw 3.56x, effective 2x for this block
/// assert!((acc.raw_ratio() - 128.0 / 36.0).abs() < 1e-9);
/// assert!((acc.effective_ratio() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RatioAccumulator {
    mag: Mag,
    block_bytes: u32,
    blocks: u64,
    raw_bytes: u64,
    effective_bytes: u64,
}

impl RatioAccumulator {
    /// Creates an accumulator for blocks of `block_bytes` under `mag`.
    pub fn new(mag: Mag, block_bytes: u32) -> Self {
        Self { mag, block_bytes, blocks: 0, raw_bytes: 0, effective_bytes: 0 }
    }

    /// Records one block compressed to `bytes`.
    pub fn record_bytes(&mut self, bytes: u32) {
        let capped = bytes.min(self.block_bytes);
        self.blocks += 1;
        self.raw_bytes += u64::from(capped);
        self.effective_bytes += u64::from(self.mag.round_up_bytes(capped).min(self.block_bytes));
    }

    /// Records one block compressed to `bits`.
    pub fn record_bits(&mut self, bits: u32) {
        self.record_bytes(bits.div_ceil(8));
    }

    /// Number of blocks recorded.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Raw compression ratio (MAG-oblivious). Returns 1.0 when empty.
    pub fn raw_ratio(&self) -> f64 {
        if self.blocks == 0 {
            return 1.0;
        }
        let original = self.blocks as f64 * f64::from(self.block_bytes);
        original / self.raw_bytes.max(1) as f64
    }

    /// Effective compression ratio (sizes rounded up to MAG multiples).
    pub fn effective_ratio(&self) -> f64 {
        if self.blocks == 0 {
            return 1.0;
        }
        let original = self.blocks as f64 * f64::from(self.block_bytes);
        original / self.effective_bytes.max(1) as f64
    }
}

/// Geometric mean of a slice of positive values; 0.0 for an empty slice.
///
/// The paper reports GM across benchmarks for every figure.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_accumulator_reports_unity() {
        let acc = RatioAccumulator::new(Mag::GDDR5, 128);
        assert_eq!(acc.raw_ratio(), 1.0);
        assert_eq!(acc.effective_ratio(), 1.0);
        assert_eq!(acc.blocks(), 0);
    }

    #[test]
    fn paper_intro_example() {
        // "a compression ratio that seems close to 4x (3.6x ...) is actually
        // only 2x" — 36 B out of 128 B.
        let mut acc = RatioAccumulator::new(Mag::GDDR5, 128);
        acc.record_bytes(36);
        assert!((acc.raw_ratio() - 3.5555).abs() < 1e-3);
        assert!((acc.effective_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_blocks_are_capped() {
        let mut acc = RatioAccumulator::new(Mag::GDDR5, 128);
        acc.record_bytes(200);
        assert_eq!(acc.raw_ratio(), 1.0);
        assert_eq!(acc.effective_ratio(), 1.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_effective_never_exceeds_raw(sizes in proptest::collection::vec(0u32..=128, 1..100)) {
            let mut acc = RatioAccumulator::new(Mag::GDDR5, 128);
            for s in sizes {
                acc.record_bytes(s);
            }
            // Rounding up sizes can only lower the ratio.
            prop_assert!(acc.effective_ratio() <= acc.raw_ratio() + 1e-12);
            prop_assert!(acc.effective_ratio() >= 1.0);
        }

        #[test]
        fn prop_gm_between_min_and_max(vals in proptest::collection::vec(0.1f64..10.0, 1..20)) {
            let gm = geometric_mean(&vals);
            let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = vals.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(gm >= min - 1e-12 && gm <= max + 1e-12);
        }
    }
}
