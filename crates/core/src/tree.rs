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
//! extra adders. Each is two sums of the level below — the window at
//! `2 + 8i` is pairs `4i + 1` and `4i + 2`, the one at `4 + 16i` quads
//! `4i + 1` and `4i + 2` — so a staggered node costs one adder. PAPER.md,
//! "Deviations from the paper", staggered nodes, lists this placement and
//! its measured effect, which `slc probe ablation` prints.
//!
//! Nothing is stored per block: [`BlockAnalysis::tree_sums`] adds the
//! levels up, four `u16` nodes to a `u64` word, when a block reaches the
//! selector — Fig. 5's comparators and priority encoder over those words
//! (one subtraction compares four nodes, `trailing_zeros` picks the
//! first), with level 1 compared straight off the code lengths.

use crate::header::Hole;
use slc_compress::e2mc::{BlockAnalysis, TREE_SUM_WORDS};
use slc_compress::symbols::SYMBOLS_PER_BLOCK;

/// Highest level the selector may use (16 symbols; the header's 4-bit
/// `len` field caps approximation at 16 symbols).
pub const MAX_SELECT_LEVEL: u32 = 5;

/// Total number of levels for 64 symbols (level 7 = grand total).
pub const LEVELS: u32 = 7;

/// A contiguous group of symbols chosen for approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The approximated symbols (the header's `ss` and `len`).
    pub hole: Hole,
    /// Bits freed by dropping those symbols' codewords.
    pub freed_bits: u32,
    /// Tree level the node came from (1-based, paper numbering).
    pub level: u32,
    /// Whether the node is one of TSLC-OPT's staggered extras.
    pub staggered: bool,
}

/// Where each selectable level above the leaves starts inside
/// [`BlockAnalysis::tree_sums`], in words of four nodes: level `k` in
/// `2..=5` is `LEVEL_WORDS[k - 2]..LEVEL_WORDS[k - 1]`.
const LEVEL_WORDS: [usize; MAX_SELECT_LEVEL as usize] = [0, 8, 12, 14, 15];

// The literal offsets encode SYMBOLS_PER_BLOCK == 64; fail the build, not
// the decoded data, if the block geometry ever changes.
const _: () = assert!(LEVEL_WORDS[1] == SYMBOLS_PER_BLOCK / 8);
const _: () = assert!(LEVEL_WORDS[MAX_SELECT_LEVEL as usize - 1] == TREE_SUM_WORDS - 1);

/// The most a selectable node can free (16 symbols of 255 bits): a
/// target at or below it leaves every `u16` lane's top bit to the
/// comparators.
const MAX_NODE_BITS: u32 = 16 * 255;

/// A one in each of a word's four `u16` lanes, and each lane's top bit.
const LANES: u64 = 0x0001_0001_0001_0001;
const LANE_TOPS: u64 = LANES << 15;

/// Fig. 5's comparators, four nodes at a time: the top bit of each `u16`
/// lane of the result is set where that lane of `nodes` is at least
/// `needed`'s (a target of at most [`MAX_NODE_BITS`] in every lane); each
/// lane is lent its top bit first, so nothing borrows across lanes.
fn comparators(nodes: u64, needed: u64) -> u64 {
    ((nodes | LANE_TOPS) - needed) & LANE_TOPS
}

/// One level's comparators and priority encoder: index and sum of the
/// first node of `level`, four to a word, that frees `needed` bits.
fn first_freeing(level: &[u64], needed: u64) -> Option<(usize, u32)> {
    level.iter().enumerate().find_map(|(w, &nodes)| {
        let freeing = comparators(nodes, needed);
        (freeing != 0).then(|| {
            let lane = freeing.trailing_zeros() / 16;
            (4 * w + lane as usize, (nodes >> (16 * lane)) as u32 & 0xffff)
        })
    })
}

/// Level 1's: the nodes are the code lengths themselves, eight `u8`s to
/// a word, compared as the word's even and its odd bytes.
fn first_freeing_symbol(lengths: &[u8; SYMBOLS_PER_BLOCK], needed: u64) -> Option<(usize, u32)> {
    const EVEN_BYTES: u64 = 0x00ff_00ff_00ff_00ff;
    lengths.as_chunks::<8>().0.iter().enumerate().find_map(|(w, eight)| {
        let nodes = u64::from_le_bytes(*eight);
        let freeing = (comparators(nodes & EVEN_BYTES, needed) >> 8)
            | comparators((nodes >> 8) & EVEN_BYTES, needed);
        (freeing != 0).then(|| {
            let symbol = 8 * w + freeing.trailing_zeros() as usize / 8;
            (symbol, u32::from(lengths[symbol]))
        })
    })
}

/// TSLC-OPT's staggered windows over the level whose words are `below`:
/// lanes 1 and 2 of every word added (nodes `4i + 1` and `4i + 2`),
/// packed like a level — window `i` in lane `i % 4` of word `i / 4`.
fn staggered_windows(below: &[u64]) -> [u64; 2] {
    let mut windows = [0u64; 2];
    for (i, &nodes) in below.iter().enumerate() {
        windows[i / 4] |= (((nodes >> 16) + (nodes >> 32)) & 0xffff) << (16 * (i % 4));
    }
    windows
}

/// The adder tree over one block's code lengths.
///
/// The block's 68-byte [`BlockAnalysis`] and nothing more: the sums
/// exist only while [`select`](Self::select) consults them.
#[derive(Debug, Clone)]
pub struct CodeLengthTree {
    analysis: BlockAnalysis,
}

impl CodeLengthTree {
    /// The tree over a shared [`BlockAnalysis`]: no table pass happens
    /// here, N schemes/MAGs/thresholds sweeping one analysis share its.
    pub fn from_analysis(analysis: &BlockAnalysis) -> Self {
        Self { analysis: analysis.clone() }
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
        if needed_bits == 0 || needed_bits > MAX_NODE_BITS {
            return None;
        }
        let needed = u64::from(needed_bits) * LANES;
        let node = |level: u32, (index, freed_bits): (usize, u32), staggered: bool| {
            let symbols = 1usize << (level - 1);
            // A staggered window starts half a node into every second
            // aligned node: 2 + 8i at level 3, 4 + 16i at level 4.
            let start = if staggered { symbols / 2 + 2 * symbols * index } else { symbols * index };
            Hole::new(start, symbols).map(|hole| Selection { hole, freed_bits, level, staggered })
        };
        let sums = self.analysis.tree_sums();
        let words =
            |level: u32| &sums[LEVEL_WORDS[level as usize - 2]..LEVEL_WORDS[level as usize - 1]];
        // Level 1 is the code lengths themselves, and its 64 comparators
        // can only fire under a pair that fires: a symbol that frees
        // enough makes its pair sum do so too.
        if let Some(pair) = first_freeing(words(2), needed) {
            let symbol = first_freeing_symbol(self.analysis.lengths_u8(), needed);
            return symbol.map_or_else(|| node(2, pair, false), |hit| node(1, hit, false));
        }
        (3..=MAX_SELECT_LEVEL).find_map(|level| {
            let aligned =
                first_freeing(words(level), needed).and_then(|hit| node(level, hit, false));
            let staggered = if opt_nodes && level < MAX_SELECT_LEVEL {
                first_freeing(&staggered_windows(words(level - 1)), needed)
                    .and_then(|hit| node(level, hit, true))
            } else {
                None
            };
            // Priority encoder across the level: first start wins; on a
            // tie the aligned node wins.
            match (aligned, staggered) {
                (Some(a), Some(s)) => {
                    Some(if a.hole.symbols().start <= s.hole.symbols().start { a } else { s })
                }
                (a, s) => a.or(s),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The selector this module had before it read the analysis directly,
    /// kept verbatim as the oracle: every node widened into one flat
    /// `[u32; 127]`, staggered windows re-added from the leaves.
    mod reference {
        use super::super::{Hole, Selection, LEVELS, MAX_SELECT_LEVEL};
        use slc_compress::symbols::SYMBOLS_PER_BLOCK;

        const NODES: usize = 2 * SYMBOLS_PER_BLOCK - 1;
        const LEVEL_OFFSET: [usize; LEVELS as usize + 1] = [0, 64, 96, 112, 120, 124, 126, 127];

        pub struct WidenedTree {
            nodes: [u32; NODES],
        }

        impl WidenedTree {
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

            pub fn level_sums(&self, level: u32) -> &[u32] {
                assert!((1..=LEVELS).contains(&level), "level {level} out of range");
                &self.nodes[LEVEL_OFFSET[level as usize - 1]..LEVEL_OFFSET[level as usize]]
            }

            pub fn window_sum(&self, start: usize, len: usize) -> u32 {
                self.nodes[start..start + len].iter().sum()
            }

            pub fn select(&self, needed_bits: u32, opt_nodes: bool) -> Option<Selection> {
                if needed_bits == 0 {
                    return None;
                }
                for level in 1..=MAX_SELECT_LEVEL {
                    let node_syms = 1usize << (level - 1);
                    let aligned = self.level_sums(level);
                    let mut best: Option<Selection> = None;
                    for (i, &sum) in aligned.iter().enumerate() {
                        if sum >= needed_bits {
                            best = Some(Selection {
                                hole: Hole::new(i * node_syms, node_syms).unwrap(),
                                freed_bits: sum,
                                level,
                                staggered: false,
                            });
                            break;
                        }
                    }
                    if opt_nodes && (level == 3 || level == 4) {
                        let (count, stride, offset) =
                            if level == 3 { (8, 8, 2) } else { (4, 16, 4) };
                        for j in 0..count {
                            let start = offset + j * stride;
                            let sum = self.window_sum(start, node_syms);
                            if sum >= needed_bits {
                                let cand = Selection {
                                    hole: Hole::new(start, node_syms).unwrap(),
                                    freed_bits: sum,
                                    level,
                                    staggered: true,
                                };
                                best = match best {
                                    Some(b) if b.hole.symbols().start <= start => Some(b),
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
    }
    use reference::WidenedTree;

    fn uniform(len: u32) -> [u32; SYMBOLS_PER_BLOCK] {
        [len; SYMBOLS_PER_BLOCK]
    }

    fn tree_of(lengths: &[u32; SYMBOLS_PER_BLOCK]) -> CodeLengthTree {
        let widths = lengths.map(|l| u8::try_from(l).expect("a test width fits a byte"));
        CodeLengthTree::from_analysis(&BlockAnalysis::from_widths(widths))
    }

    /// Level `level`'s aligned sums as the selector reads them: the
    /// lengths at level 1, lanes of the on-demand sums above.
    fn sums_at(tree: &CodeLengthTree, level: u32) -> Vec<u32> {
        if level == 1 {
            return tree.analysis.code_lengths().to_vec();
        }
        let words = tree.analysis.tree_sums();
        let first = SYMBOLS_PER_BLOCK - (SYMBOLS_PER_BLOCK >> (level - 2));
        (first..first + (SYMBOLS_PER_BLOCK >> (level - 1)))
            .map(|node| (words[node / 4] >> (16 * (node % 4))) as u32 & 0xffff)
            .collect()
    }

    #[test]
    fn total_is_sum_of_lengths() {
        let tree = tree_of(&uniform(5));
        assert_eq!(tree.analysis.total_code_bits(), 5 * 64);
    }

    #[test]
    fn level_shapes_match_paper() {
        let tree = tree_of(&uniform(1));
        assert_eq!(sums_at(&tree, 1).len(), 64);
        assert_eq!(sums_at(&tree, 2).len(), 32);
        assert_eq!(sums_at(&tree, 3).len(), 16); // "originally have 16"
        assert_eq!(sums_at(&tree, 4).len(), 8); // "... and 8 nodes"
        assert_eq!(sums_at(&tree, 5).len(), 4);
        assert_eq!(sums_at(&tree, 7), [64]);
    }

    #[test]
    fn intermediate_sums_double_per_level() {
        let tree = tree_of(&uniform(3));
        for level in 1..=MAX_SELECT_LEVEL {
            let syms = 1u32 << (level - 1);
            assert!(sums_at(&tree, level).iter().all(|&s| s == 3 * syms));
        }
    }

    #[test]
    fn select_prefers_lowest_level() {
        // Uniform 8-bit codes: one symbol frees 8 bits.
        let tree = tree_of(&uniform(8));
        let sel = tree.select(8, false).expect("selectable");
        assert_eq!(sel.level, 1);
        assert_eq!(sel.hole.symbols(), 0..1);
        assert_eq!(sel.freed_bits, 8);
        // Needing 9 bits forces a pair.
        let sel = tree.select(9, false).expect("selectable");
        assert_eq!(sel.level, 2);
        assert_eq!(sel.hole.symbols().len(), 2);
        assert_eq!(sel.freed_bits, 16);
    }

    #[test]
    fn select_honors_priority_encoder_order() {
        // Make symbol 40 the only long one; the first qualifying level-1
        // node is index 40.
        let mut lens = uniform(2);
        lens[40] = 30;
        let tree = tree_of(&lens);
        let sel = tree.select(25, false).expect("selectable");
        assert_eq!(sel.level, 1);
        assert_eq!(sel.hole.symbols().start, 40);
        assert_eq!(sel.freed_bits, 30);
    }

    #[test]
    fn select_returns_none_beyond_level_five() {
        // 1-bit codes: even 16 symbols free only 16 bits; asking for more
        // must fail (the 4-bit len header cannot express 32 symbols).
        let tree = tree_of(&uniform(1));
        assert!(tree.select(17, false).is_none());
        assert!(tree.select(16, false).is_some());
    }

    #[test]
    fn select_zero_bits_is_none() {
        let tree = tree_of(&uniform(8));
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
        let tree = tree_of(&lens);
        let plain = tree.select(60, false).expect("selectable");
        assert_eq!(plain.level, 4);
        assert_eq!(plain.hole.symbols().len(), 8);
        let opt = tree.select(60, true).expect("selectable");
        assert_eq!(opt.level, 3);
        assert_eq!(opt.hole.symbols(), 2..6);
        assert!(opt.staggered);
        assert!(opt.freed_bits >= 60);
    }

    #[test]
    fn aligned_node_wins_ties_against_staggered() {
        let tree = tree_of(&uniform(8));
        // 4-symbol windows all sum 32; aligned start 0 beats staggered 2.
        let sel = tree.select(32, true).expect("selectable");
        assert_eq!(sel.hole.symbols().start, 0);
        assert!(!sel.staggered);
    }

    #[test]
    fn from_analysis_matches_direct_construction() {
        let mut lens = uniform(2);
        lens[5] = 17;
        lens[40] = 9;
        let via_analysis = tree_of(&lens);
        let widened = WidenedTree::new(&lens);
        for level in 1..=LEVELS {
            assert_eq!(sums_at(&via_analysis, level), widened.level_sums(level));
        }
        assert_eq!(via_analysis.select(20, true), widened.select(20, true));
    }

    #[test]
    fn window_sum_matches_manual_sum() {
        // A staggered window is two sums of the level below; asked for
        // exactly the bits one frees, the selector must find it and report
        // the sum of its leaves. Rising lengths make the window the first
        // node of its level to qualify, lengths above 100 keep the levels
        // below out of reach.
        let mut lens = uniform(0);
        for (i, l) in lens.iter_mut().enumerate() {
            *l = 100 + i as u32;
        }
        let tree = tree_of(&lens);
        for (level, symbols, stride) in [(3, 4, 8), (4, 8, 16)] {
            for start in (symbols / 2..SYMBOLS_PER_BLOCK).step_by(stride) {
                let manual: u32 = lens[start..start + symbols].iter().sum();
                assert_eq!(manual, WidenedTree::new(&lens).window_sum(start, symbols));
                let hole = Hole::new(start, symbols).unwrap();
                let want = Selection { hole, freed_bits: manual, level, staggered: true };
                assert_eq!(tree.select(manual, true), Some(want));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_selection_frees_enough(lens in proptest::collection::vec(1u32..33, SYMBOLS_PER_BLOCK),
                                       needed in 1u32..200, opt in any::<bool>()) {
            let mut arr = [0u32; SYMBOLS_PER_BLOCK];
            arr.copy_from_slice(&lens);
            let tree = tree_of(&arr);
            if let Some(sel) = tree.select(needed, opt) {
                prop_assert!(sel.freed_bits >= needed);
                let leaves: u32 = arr[sel.hole.symbols()].iter().sum();
                prop_assert_eq!(sel.freed_bits, leaves);
            }
        }

        #[test]
        fn prop_opt_never_selects_higher_level(lens in proptest::collection::vec(1u32..33, SYMBOLS_PER_BLOCK),
                                               needed in 1u32..200) {
            let mut arr = [0u32; SYMBOLS_PER_BLOCK];
            arr.copy_from_slice(&lens);
            let tree = tree_of(&arr);
            match (tree.select(needed, false), tree.select(needed, true)) {
                (Some(plain), Some(opt)) => prop_assert!(opt.level <= plain.level),
                (Some(_), None) => prop_assert!(false, "opt lost a selection plain found"),
                _ => {}
            }
        }

        #[test]
        fn prop_selection_equals_the_widened_reference(
            lens in proptest::collection::vec(0u32..=255, SYMBOLS_PER_BLOCK),
            cap in 1u32..=80, needed in 0u32..=20_000, opt in any::<bool>()) {
            // Every length the artifact can hold, and a target past `u8`,
            // past the 16-symbol maximum (4 080) and past `u16`; half the
            // draws cap the lengths below 40 so targets in the hundreds
            // land on every level, not only the first.
            let mut arr = [0u32; SYMBOLS_PER_BLOCK];
            arr.copy_from_slice(&lens);
            if cap <= 40 {
                arr.iter_mut().for_each(|l| *l %= cap);
            }
            let (tree, widened) = (tree_of(&arr), WidenedTree::new(&arr));
            // The drawn target, and targets near what 1 to 16 average
            // symbols free, so every level and both kinds of node answer.
            let mean = arr.iter().sum::<u32>() / SYMBOLS_PER_BLOCK as u32;
            let near = [1, 2, 3, 4, 6, 8, 12, 16].map(|k| k * mean + needed % 16);
            for needed in [needed, needed % 512, needed % 64].into_iter().chain(near) {
                prop_assert_eq!(tree.select(needed, opt), widened.select(needed, opt), "{}", needed);
            }
        }

        #[test]
        fn prop_total_matches_sum(lens in proptest::collection::vec(0u32..33, SYMBOLS_PER_BLOCK)) {
            let mut arr = [0u32; SYMBOLS_PER_BLOCK];
            arr.copy_from_slice(&lens);
            let tree = tree_of(&arr);
            prop_assert_eq!(tree.analysis.total_code_bits(), lens.iter().sum::<u32>());
        }
    }
}
