//! Value-similarity prediction for approximated symbols (Section III-E).
//!
//! TSLC truncates the selected symbols during compression; at
//! decompression the hole must be filled. TSLC-SIMP inserts zeros. The
//! paper's TSLC-PRED exploits the high value similarity of adjacent GPU
//! threads and fills each truncated symbol with the value of a
//! non-truncated symbol of the same block — hardware only has to "generate
//! the index of the predicted value".
//!
//! The paper's wording picks "the first non-truncated symbol of the
//! block". With 16-bit symbols over little-endian `f32` arrays the symbol
//! stream interleaves mantissa-low and sign/exponent halves, so the
//! literal rule would cross byte lanes and destroy exponents. The default
//! here is therefore [`PredictorKind::LaneMatched`] — the nearest
//! non-truncated symbol of the same index parity, which is the same-cost
//! index generation and matches the paper's reported sub-percent errors.
//! The literal rule is kept as [`PredictorKind::FirstSymbol`] for the
//! ablation study.

use crate::header::Hole;
use slc_compress::symbols::SYMBOLS_PER_BLOCK;

/// How a truncated symbol's value is predicted at decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// Insert zero (TSLC-SIMP).
    Zero,
    /// The first non-truncated symbol of the block (the paper's literal
    /// wording; lane-oblivious).
    FirstSymbol,
    /// Nearest non-truncated symbol with the same index parity
    /// (lane-matched; the default for TSLC-PRED/TSLC-OPT).
    #[default]
    LaneMatched,
}

/// Fills the symbols of `hole` with predicted values.
///
/// The slice outside the hole must already contain the decoded symbols.
pub fn fill_approximated(symbols: &mut [u16; SYMBOLS_PER_BLOCK], hole: Hole, kind: PredictorKind) {
    let run = hole.symbols();
    match kind {
        PredictorKind::Zero => symbols[run].fill(0),
        PredictorKind::FirstSymbol => {
            let v = symbols[if run.start == 0 { run.end } else { 0 }];
            symbols[run].fill(v);
        }
        PredictorKind::LaneMatched => {
            for i in run {
                symbols[i] = symbols[lane_matched_index(i, hole)];
            }
        }
    }
}

/// Index of the nearest non-truncated symbol with the same parity as `i`:
/// searched before the hole first, then after it. A hole of at most 16
/// symbols always leaves one.
fn lane_matched_index(i: usize, hole: Hole) -> usize {
    let run = hole.symbols();
    debug_assert!(run.contains(&i));
    // Last same-parity index before the hole.
    if run.start > 0 {
        let before = run.start - 1;
        let candidate = if before % 2 == i % 2 { Some(before) } else { before.checked_sub(1) };
        if let Some(c) = candidate {
            return c;
        }
    }
    // Otherwise the first same-parity index after the hole.
    if run.end % 2 == i % 2 {
        run.end
    } else {
        run.end + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hole(ss: usize, len: usize) -> Hole {
        Hole::new(ss, len).expect("a hole")
    }

    fn base_symbols() -> [u16; SYMBOLS_PER_BLOCK] {
        let mut s = [0u16; SYMBOLS_PER_BLOCK];
        for (i, v) in s.iter_mut().enumerate() {
            // Even lanes look like mantissa halves, odd lanes like
            // exponent halves of nearby floats.
            *v = if i % 2 == 0 { 0x1000 + i as u16 } else { 0x4480 + (i as u16 >> 4) };
        }
        s
    }

    #[test]
    fn zero_fills_zeros() {
        let mut s = base_symbols();
        fill_approximated(&mut s, hole(10, 4), PredictorKind::Zero);
        assert!(s[10..14].iter().all(|&v| v == 0));
        assert_ne!(s[9], 0);
        assert_ne!(s[14], 0);
    }

    #[test]
    fn first_symbol_uses_index_zero_for_interior_holes() {
        let mut s = base_symbols();
        let first = s[0];
        fill_approximated(&mut s, hole(20, 8), PredictorKind::FirstSymbol);
        assert!(s[20..28].iter().all(|&v| v == first));
    }

    #[test]
    fn first_symbol_skips_hole_at_block_start() {
        let mut s = base_symbols();
        let after = s[4];
        fill_approximated(&mut s, hole(0, 4), PredictorKind::FirstSymbol);
        assert!(s[0..4].iter().all(|&v| v == after));
    }

    #[test]
    fn lane_matched_preserves_parity() {
        let mut s = base_symbols();
        let orig = s;
        fill_approximated(&mut s, hole(17, 6), PredictorKind::LaneMatched);
        for (i, &sym) in s.iter().enumerate().take(23).skip(17) {
            // Predicted from before the hole: indices 15/16.
            let src = if i % 2 == 0 { 16 } else { 15 };
            assert_eq!(sym, orig[src], "symbol {i}");
        }
    }

    #[test]
    fn lane_matched_hole_at_start_predicts_from_after() {
        let mut s = base_symbols();
        let orig = s;
        fill_approximated(&mut s, hole(0, 3), PredictorKind::LaneMatched);
        assert_eq!(s[0], orig[4]); // even lane: first even index after hole (3 is odd)
        assert_eq!(s[1], orig[3]); // odd lane
        assert_eq!(s[2], orig[4]);
    }

    #[test]
    fn lane_matched_is_good_for_float_blocks() {
        // Similar f32 values: lane-matched prediction reconstructs the
        // exponent halves exactly; the first-symbol rule does not.
        let mut block = [0u8; 128];
        for i in 0..32 {
            let v = 1234.5f32 + i as f32 * 0.001;
            block[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let orig = slc_compress::symbols::block_to_symbols(&block);
        let mut lane = orig;
        fill_approximated(&mut lane, hole(31, 4), PredictorKind::LaneMatched);
        let mut first = orig;
        fill_approximated(&mut first, hole(31, 4), PredictorKind::FirstSymbol);
        let err = |s: &[u16; 64]| -> f64 {
            let b = slc_compress::symbols::symbols_to_block(s);
            (0..32)
                .map(|i| {
                    let v = f32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap());
                    let o = f32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
                    ((v - o) as f64).abs()
                })
                .sum()
        };
        assert!(err(&lane) < err(&first), "lane {} vs first {}", err(&lane), err(&first));
    }

    /// Every hole: each length, each start it can take.
    fn any_hole() -> impl Strategy<Value = Hole> {
        (0usize..64, 1usize..=16)
            .prop_map(|(ss, len)| hole(ss % (SYMBOLS_PER_BLOCK + 1 - len), len))
    }

    proptest! {
        #[test]
        fn prop_fill_touches_only_hole(hole in any_hole(),
                                       kind in prop_oneof![Just(PredictorKind::Zero),
                                                           Just(PredictorKind::FirstSymbol),
                                                           Just(PredictorKind::LaneMatched)]) {
            let mut s = base_symbols();
            let orig = s;
            fill_approximated(&mut s, hole, kind);
            for i in (0..SYMBOLS_PER_BLOCK).filter(|i| !hole.symbols().contains(i)) {
                prop_assert_eq!(s[i], orig[i], "index {} outside hole changed", i);
            }
        }

        #[test]
        fn prop_lane_matched_source_is_outside_hole(hole in any_hole()) {
            for i in hole.symbols() {
                let src = lane_matched_index(i, hole);
                prop_assert!(!hole.symbols().contains(&src));
                prop_assert_eq!(src % 2, i % 2);
                prop_assert!(src < SYMBOLS_PER_BLOCK);
            }
        }
    }
}
