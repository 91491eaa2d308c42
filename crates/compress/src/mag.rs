//! Memory access granularity (MAG) arithmetic.
//!
//! MAG is the amount of data one DRAM read or write command moves:
//! `bus width × burst length`. GDDR5/5X/6 with a 32-bit bus and burst
//! length 8 has a MAG of 32 B, so a block compressed to 36 B still costs a
//! 64 B transfer. This module owns all rounding/burst math so the rest of
//! the workspace can never get it subtly wrong.

use std::fmt;

/// A memory access granularity in bytes.
///
/// ```
/// use slc_compress::mag::Mag;
///
/// let mag = Mag::GDDR5;             // 32 B
/// assert_eq!(mag.round_up_bytes(36), 64);
/// assert_eq!(mag.bursts_for_bytes(36, 128), 2);
/// assert_eq!(mag.round_up_bits(36 * 8), 64 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mag(u32);

impl Mag {
    /// GDDR5/5X/6: 32-bit bus × burst length 8 = 32 B (the paper's default).
    pub const GDDR5: Mag = Mag(32);

    /// Narrow-channel configuration studied in Fig. 9 (16 B).
    pub const NARROW_16: Mag = Mag(16);

    /// Wide-channel configuration studied in Fig. 9 (64 B).
    pub const WIDE_64: Mag = Mag(64);

    /// Creates a MAG of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a power of two in `8..=128` (a MAG is a
    /// bus-width × burst-length product and must divide the block size).
    pub fn new(bytes: u32) -> Self {
        assert!(
            bytes.is_power_of_two() && (8..=128).contains(&bytes),
            "MAG must be a power of two in 8..=128, got {bytes}"
        );
        Mag(bytes)
    }

    /// Granularity in bytes.
    pub fn bytes(self) -> u32 {
        self.0
    }

    /// Granularity in bits.
    pub fn bits(self) -> u32 {
        self.0 * 8
    }

    /// Rounds a byte size up to the next multiple of the MAG
    /// (the paper's *effective* compressed size). Zero stays zero-cost-free:
    /// any access moves at least one burst, so 0 rounds to one MAG.
    pub fn round_up_bytes(self, bytes: u32) -> u32 {
        (bytes.max(1) + self.0 - 1) & !(self.0 - 1)
    }

    /// Rounds a bit size up to the next multiple of the MAG, in bits.
    pub fn round_up_bits(self, bits: u32) -> u32 {
        self.round_up_bytes(bits.div_ceil(8)) * 8
    }

    /// Number of bursts needed to move `bytes` of a block of
    /// `block_bytes`, clamped to the uncompressed burst count.
    pub fn bursts_for_bytes(self, bytes: u32, block_bytes: u32) -> u32 {
        // A MAG is a power of two ([`Mag::new`]): divisions are shifts.
        let shift = self.0.trailing_zeros();
        let max = (block_bytes + self.0 - 1) >> shift;
        ((bytes + self.0 - 1) >> shift).clamp(1, max)
    }

    /// Number of bursts for a bit-sized payload.
    pub fn bursts_for_bits(self, bits: u32, block_bytes: u32) -> u32 {
        self.bursts_for_bytes(bits.div_ceil(8), block_bytes)
    }

    /// How many bytes of a compressed size are above the highest MAG
    /// multiple at or below it (the heat-map x-axis of Fig. 2).
    pub fn bytes_above_multiple(self, bytes: u32) -> u32 {
        bytes & (self.0 - 1)
    }
}

impl fmt::Display for Mag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

impl From<Mag> for u32 {
    fn from(m: Mag) -> u32 {
        m.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_36_bytes_fetches_64() {
        // "for a compressed size of 36B, we fetch 64B"
        assert_eq!(Mag::GDDR5.round_up_bytes(36), 64);
        assert_eq!(Mag::GDDR5.bursts_for_bytes(36, 128), 2);
    }

    #[test]
    fn exact_multiples_are_unchanged() {
        for m in [32, 64, 96, 128] {
            assert_eq!(Mag::GDDR5.round_up_bytes(m), m);
        }
    }

    #[test]
    fn zero_bytes_still_cost_one_burst() {
        assert_eq!(Mag::GDDR5.round_up_bytes(0), 32);
        assert_eq!(Mag::GDDR5.bursts_for_bytes(0, 128), 1);
    }

    #[test]
    fn bursts_clamp_at_uncompressed() {
        assert_eq!(Mag::GDDR5.bursts_for_bytes(1000, 128), 4);
        assert_eq!(Mag::WIDE_64.bursts_for_bytes(1000, 128), 2);
        assert_eq!(Mag::NARROW_16.bursts_for_bytes(128, 128), 8);
    }

    #[test]
    fn bytes_above_multiple_matches_modulo() {
        assert_eq!(Mag::GDDR5.bytes_above_multiple(36), 4);
        assert_eq!(Mag::GDDR5.bytes_above_multiple(64), 0);
    }

    #[test]
    fn masks_and_shifts_equal_the_divisions_they_replace() {
        for mag_bytes in [8u32, 16, 32, 64, 128] {
            let mag = Mag::new(mag_bytes);
            assert_eq!(mag.round_up_bytes(0), mag_bytes, "zero bytes still move one MAG");
            for bytes in 0..=160u32 {
                let at = format!("MAG {mag_bytes}, {bytes} B");
                assert_eq!(
                    mag.round_up_bytes(bytes),
                    bytes.max(1).div_ceil(mag_bytes) * mag_bytes,
                    "{at}"
                );
                assert_eq!(mag.bytes_above_multiple(bytes), bytes % mag_bytes, "{at}");
                for block_bytes in [bytes.max(1), 128] {
                    let max = block_bytes.div_ceil(mag_bytes);
                    let want = bytes.div_ceil(mag_bytes).clamp(1, max);
                    assert_eq!(mag.bursts_for_bytes(bytes, block_bytes), want, "{at}");
                }
            }
            for bits in 0..=1400u32 {
                let at = format!("MAG {mag_bytes}, {bits} bits");
                let bytes = bits.div_ceil(8);
                assert_eq!(
                    mag.round_up_bits(bits),
                    bytes.max(1).div_ceil(mag_bytes) * mag_bytes * 8,
                    "{at}"
                );
                let want = bytes.div_ceil(mag_bytes).clamp(1, 128 / mag_bytes);
                assert_eq!(mag.bursts_for_bits(bits, 128), want, "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Mag::new(48);
    }

    #[test]
    fn display_formats_bytes() {
        assert_eq!(Mag::GDDR5.to_string(), "32B");
    }

    proptest! {
        #[test]
        fn prop_round_up_is_minimal_multiple(bytes in 0u32..=512) {
            let m = Mag::GDDR5;
            let r = m.round_up_bytes(bytes);
            prop_assert_eq!(r % m.bytes(), 0);
            prop_assert!(r >= bytes.max(1));
            prop_assert!(r < bytes.max(1) + m.bytes());
        }

        #[test]
        fn prop_bits_and_bytes_agree(bits in 0u32..=1024) {
            let m = Mag::GDDR5;
            prop_assert_eq!(m.round_up_bits(bits), m.round_up_bytes(bits.div_ceil(8)) * 8);
            prop_assert_eq!(m.bursts_for_bits(bits, 128), m.bursts_for_bytes(bits.div_ceil(8), 128));
        }
    }
}
