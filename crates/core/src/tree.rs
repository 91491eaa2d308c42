//! The parallel tree adder and sub-block selector (paper Fig. 5).
//!
//! The compressed size of an E2MC block is the sum of its 64 code lengths.
//! Hardware computes that sum with a binary adder tree; SLC reuses the
//! tree's **intermediate sums** to find the smallest contiguous group of
//! symbols whose codewords free at least `extra_bits` when dropped.
//!
//! Levels are numbered as in the paper: level *k* holds aligned sums of
//! `2^(k-1)` consecutive symbols, so level 1 is the code lengths
//! themselves, level 3 has 16 nodes of 4 symbols, level 4 has 8 nodes of
//! 8 symbols, and level 7 is the total compressed size. Because the block
//! header reserves 4 bits for the approximated-symbol count, at most 16
//! symbols (level 5) may be approximated.
//!
//! **TSLC-OPT** (Section III-F) adds "8 and 4 extra nodes ... at levels 3
//! and 4" to de-coarsen the middle of the tree. The paper does not give
//! their placement; we implement them as half-stride staggered windows
//! (eight 4-symbol windows starting at `2 + 8i`, four 8-symbol windows
//! starting at `4 + 16i`), the natural way to add finer sums with a few
//! extra adders. See PAPER.md, "This reproduction", for the rationale and
//! `examples/ablation.rs` for the measured effect.

use slc_compress::e2mc::BlockAnalysis;
use slc_compress::symbols::SYMBOLS_PER_BLOCK;

/// Highest level the selector may use (16 symbols; the header's 4-bit
/// `len` field caps approximation at 16 symbols).
pub const MAX_SELECT_LEVEL: u32 = 5;

/// Total number of levels for 64 symbols (level 7 = grand total).
pub const LEVELS: u32 = 7;

/// A contiguous group of symbols chosen for approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Index of the first approximated symbol (the header's `ss`).
    pub start: usize,
    /// Number of approximated symbols (the header's `len`).
    pub symbols: usize,
    /// Bits freed by dropping those symbols' codewords.
    pub freed_bits: u32,
    /// Tree level the node came from (1-based, paper numbering).
    pub level: u32,
    /// Whether the node is one of TSLC-OPT's staggered extras.
    pub staggered: bool,
}

/// Total node count of the complete tree (64 + 32 + ... + 1).
const NODES: usize = 2 * SYMBOLS_PER_BLOCK - 1;

/// Start offset of each level inside the flat node array.
const LEVEL_OFFSET: [usize; LEVELS as usize + 1] = [0, 64, 96, 112, 120, 124, 126, 127];

// The literal offsets encode SYMBOLS_PER_BLOCK == 64; fail the build, not
// the decoded data, if the block geometry ever changes.
const _: () = assert!(LEVEL_OFFSET[0] == 0 && LEVEL_OFFSET[1] == SYMBOLS_PER_BLOCK);
const _: () = assert!(LEVEL_OFFSET[LEVELS as usize] == NODES);

/// The adder tree over one block's code lengths.
///
/// Stored as one flat fixed-size array (levels concatenated), so building
/// a tree — which happens once per compressed block — allocates nothing.
#[derive(Debug, Clone)]
pub struct CodeLengthTree {
    /// `nodes[LEVEL_OFFSET[k-1]..LEVEL_OFFSET[k]]` = level `k`'s aligned
    /// sums of `2^(k-1)` symbols.
    nodes: [u32; NODES],
}

impl CodeLengthTree {
    /// Builds the tree from per-symbol code lengths.
    pub fn new(lengths: &[u32; SYMBOLS_PER_BLOCK]) -> Self {
        let mut nodes = [0u32; NODES];
        nodes[..SYMBOLS_PER_BLOCK].copy_from_slice(lengths);
        for level in 1..LEVELS as usize {
            let (prev, prev_end) = (LEVEL_OFFSET[level - 1], LEVEL_OFFSET[level]);
            let width = (prev_end - prev) / 2;
            for i in 0..width {
                nodes[prev_end + i] = nodes[prev + 2 * i] + nodes[prev + 2 * i + 1];
            }
        }
        Self { nodes }
    }

    /// Builds the tree from a shared [`BlockAnalysis`] — both the lengths
    /// and every intermediate sum were already computed at analysis time
    /// (the hardware's adder tree produces them while sizing the block),
    /// so this is a widening copy: no additions, no second table pass,
    /// and N schemes/MAGs/thresholds sweeping one analysis share one
    /// summation instead of re-adding 63 nodes per decision.
    pub fn from_analysis(analysis: &BlockAnalysis) -> Self {
        const _: () = assert!(NODES - SYMBOLS_PER_BLOCK == slc_compress::e2mc::TREE_SUM_NODES);
        let mut nodes = [0u32; NODES];
        for (node, &len) in nodes.iter_mut().zip(analysis.lengths_u8()) {
            *node = u32::from(len);
        }
        for (node, &sum) in nodes[SYMBOLS_PER_BLOCK..].iter_mut().zip(analysis.tree_sums()) {
            *node = u32::from(sum);
        }
        Self { nodes }
    }

    /// Sum of all code lengths (the last node of the tree, used as the
    /// data portion of *comp size*).
    pub fn total_bits(&self) -> u32 {
        self.nodes[NODES - 1]
    }

    /// The aligned intermediate sums at `level` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `1..=7`.
    pub fn level_sums(&self, level: u32) -> &[u32] {
        assert!((1..=LEVELS).contains(&level), "level {level} out of range");
        &self.nodes[LEVEL_OFFSET[level as usize - 1]..LEVEL_OFFSET[level as usize]]
    }

    /// Sum of code lengths over `start..start + len` (used for the
    /// staggered TSLC-OPT nodes; hardware adds a few extra adders).
    pub fn window_sum(&self, start: usize, len: usize) -> u32 {
        self.nodes[start..start + len].iter().sum()
    }

    /// Selects the sub-block to approximate for `needed_bits`.
    ///
    /// Implements the comparator + priority-encoder stages of Fig. 5: every
    /// node is compared against the target in parallel; per level the
    /// *first* qualifying node wins; the lowest qualifying level is chosen
    /// because it approximates the fewest symbols. With `opt_nodes` the
    /// staggered TSLC-OPT windows participate at levels 3 and 4.
    ///
    /// Returns `None` when no node of ≤ 16 symbols frees enough bits (the
    /// block then stays lossless).
    pub fn select(&self, needed_bits: u32, opt_nodes: bool) -> Option<Selection> {
        if needed_bits == 0 {
            return None;
        }
        for level in 1..=MAX_SELECT_LEVEL {
            let node_syms = 1usize << (level - 1);
            // Candidate nodes in priority-encoder order: aligned nodes
            // first-index-first, with staggered windows interleaved by
            // start position for TSLC-OPT.
            let aligned = self.level_sums(level);
            let mut best: Option<Selection> = None;
            for (i, &sum) in aligned.iter().enumerate() {
                if sum >= needed_bits {
                    best = Some(Selection {
                        start: i * node_syms,
                        symbols: node_syms,
                        freed_bits: sum,
                        level,
                        staggered: false,
                    });
                    break;
                }
            }
            if opt_nodes && (level == 3 || level == 4) {
                // Extra nodes: 8 windows of 4 symbols at starts 2+8i
                // (level 3), 4 windows of 8 symbols at starts 4+16i
                // (level 4).
                let (count, stride, offset) = if level == 3 { (8, 8, 2) } else { (4, 16, 4) };
                for j in 0..count {
                    let start = offset + j * stride;
                    let sum = self.window_sum(start, node_syms);
                    if sum >= needed_bits {
                        let cand = Selection {
                            start,
                            symbols: node_syms,
                            freed_bits: sum,
                            level,
                            staggered: true,
                        };
                        // Priority encoder across the level: first start
                        // wins; on a tie the aligned node wins.
                        best = match best {
                            Some(b) if b.start <= cand.start => Some(b),
                            _ => Some(cand),
                        };
                        break;
                    }
                }
            }
            if best.is_some() {
                return best;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform(len: u32) -> [u32; SYMBOLS_PER_BLOCK] {
        [len; SYMBOLS_PER_BLOCK]
    }

    #[test]
    fn total_is_sum_of_lengths() {
        let tree = CodeLengthTree::new(&uniform(5));
        assert_eq!(tree.total_bits(), 5 * 64);
    }

    #[test]
    fn level_shapes_match_paper() {
        let tree = CodeLengthTree::new(&uniform(1));
        assert_eq!(tree.level_sums(1).len(), 64);
        assert_eq!(tree.level_sums(2).len(), 32);
        assert_eq!(tree.level_sums(3).len(), 16); // "originally have 16"
        assert_eq!(tree.level_sums(4).len(), 8); // "... and 8 nodes"
        assert_eq!(tree.level_sums(5).len(), 4);
        assert_eq!(tree.level_sums(7).len(), 1);
    }

    #[test]
    fn intermediate_sums_double_per_level() {
        let tree = CodeLengthTree::new(&uniform(3));
        for level in 1..=MAX_SELECT_LEVEL {
            let syms = 1u32 << (level - 1);
            assert!(tree.level_sums(level).iter().all(|&s| s == 3 * syms));
        }
    }

    #[test]
    fn select_prefers_lowest_level() {
        // Uniform 8-bit codes: one symbol frees 8 bits.
        let tree = CodeLengthTree::new(&uniform(8));
        let sel = tree.select(8, false).expect("selectable");
        assert_eq!(sel.level, 1);
        assert_eq!(sel.symbols, 1);
        assert_eq!(sel.start, 0);
        assert_eq!(sel.freed_bits, 8);
        // Needing 9 bits forces a pair.
        let sel = tree.select(9, false).expect("selectable");
        assert_eq!(sel.level, 2);
        assert_eq!(sel.symbols, 2);
        assert_eq!(sel.freed_bits, 16);
    }

    #[test]
    fn select_honors_priority_encoder_order() {
        // Make symbol 40 the only long one; the first qualifying level-1
        // node is index 40.
        let mut lens = uniform(2);
        lens[40] = 30;
        let tree = CodeLengthTree::new(&lens);
        let sel = tree.select(25, false).expect("selectable");
        assert_eq!(sel.level, 1);
        assert_eq!(sel.start, 40);
        assert_eq!(sel.freed_bits, 30);
    }

    #[test]
    fn select_returns_none_beyond_level_five() {
        // 1-bit codes: even 16 symbols free only 16 bits; asking for more
        // must fail (the 4-bit len header cannot express 32 symbols).
        let tree = CodeLengthTree::new(&uniform(1));
        assert!(tree.select(17, false).is_none());
        assert!(tree.select(16, false).is_some());
    }

    #[test]
    fn select_zero_bits_is_none() {
        let tree = CodeLengthTree::new(&uniform(8));
        assert!(tree.select(0, false).is_none());
    }

    #[test]
    fn opt_nodes_catch_straddling_mass() {
        // Concentrate long codes across an aligned level-3 boundary:
        // symbols 2..6 are 20 bits each (sum 80), every aligned window of
        // four sums at most 2*20 + 2*2 = 44. Needing 60 bits, plain TSLC
        // must climb to level 4 (8 symbols); TSLC-OPT finds the staggered
        // window [2, 6) at level 3.
        let mut lens = uniform(2);
        lens[2..6].fill(20);
        let tree = CodeLengthTree::new(&lens);
        let plain = tree.select(60, false).expect("selectable");
        assert_eq!(plain.level, 4);
        assert_eq!(plain.symbols, 8);
        let opt = tree.select(60, true).expect("selectable");
        assert_eq!(opt.level, 3);
        assert_eq!(opt.symbols, 4);
        assert_eq!(opt.start, 2);
        assert!(opt.staggered);
        assert!(opt.freed_bits >= 60);
        // OPT approximates strictly fewer symbols here.
        assert!(opt.symbols < plain.symbols);
    }

    #[test]
    fn aligned_node_wins_ties_against_staggered() {
        let tree = CodeLengthTree::new(&uniform(8));
        // 4-symbol windows all sum 32; aligned start 0 beats staggered 2.
        let sel = tree.select(32, true).expect("selectable");
        assert_eq!(sel.start, 0);
        assert!(!sel.staggered);
    }

    #[test]
    fn from_analysis_matches_direct_construction() {
        let mut lens = uniform(2);
        lens[5] = 17;
        lens[40] = 9;
        let via_analysis = CodeLengthTree::from_analysis(&BlockAnalysis::from_lengths(lens));
        let direct = CodeLengthTree::new(&lens);
        assert_eq!(via_analysis.total_bits(), direct.total_bits());
        for level in 1..=LEVELS {
            assert_eq!(via_analysis.level_sums(level), direct.level_sums(level));
        }
        assert_eq!(via_analysis.select(20, true), direct.select(20, true));
    }

    #[test]
    fn window_sum_matches_manual_sum() {
        let mut lens = uniform(1);
        for (i, l) in lens.iter_mut().enumerate() {
            *l = i as u32;
        }
        let tree = CodeLengthTree::new(&lens);
        assert_eq!(tree.window_sum(10, 4), 10 + 11 + 12 + 13);
    }

    proptest! {
        #[test]
        fn prop_selection_frees_enough(lens in proptest::collection::vec(1u32..33, SYMBOLS_PER_BLOCK),
                                       needed in 1u32..200, opt in any::<bool>()) {
            let mut arr = [0u32; SYMBOLS_PER_BLOCK];
            arr.copy_from_slice(&lens);
            let tree = CodeLengthTree::new(&arr);
            if let Some(sel) = tree.select(needed, opt) {
                prop_assert!(sel.freed_bits >= needed);
                prop_assert_eq!(sel.freed_bits, tree.window_sum(sel.start, sel.symbols));
                prop_assert!(sel.symbols <= 16);
                prop_assert!(sel.start + sel.symbols <= SYMBOLS_PER_BLOCK);
            }
        }

        #[test]
        fn prop_opt_never_selects_higher_level(lens in proptest::collection::vec(1u32..33, SYMBOLS_PER_BLOCK),
                                               needed in 1u32..200) {
            let mut arr = [0u32; SYMBOLS_PER_BLOCK];
            arr.copy_from_slice(&lens);
            let tree = CodeLengthTree::new(&arr);
            match (tree.select(needed, false), tree.select(needed, true)) {
                (Some(plain), Some(opt)) => prop_assert!(opt.level <= plain.level),
                (Some(_), None) => prop_assert!(false, "opt lost a selection plain found"),
                _ => {}
            }
        }

        #[test]
        fn prop_total_matches_sum(lens in proptest::collection::vec(0u32..33, SYMBOLS_PER_BLOCK)) {
            let mut arr = [0u32; SYMBOLS_PER_BLOCK];
            arr.copy_from_slice(&lens);
            let tree = CodeLengthTree::new(&arr);
            prop_assert_eq!(tree.total_bits(), lens.iter().sum::<u32>());
        }
    }
}
