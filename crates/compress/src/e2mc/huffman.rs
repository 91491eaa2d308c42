//! Length-limited canonical Huffman codes for E2MC.
//!
//! E2MC assigns Huffman codes to the most probable 16-bit symbols and an
//! escape code for the rest. Hardware decoders need a bounded code length;
//! we build plain Huffman lengths first and, when the depth exceeds the
//! limit, redistribute lengths with the classic zlib-style fix-up that
//! keeps the Kraft sum exactly complete.

/// Maximum codeword length supported by the hardware decode tables.
pub const MAX_CODE_LEN: u32 = 16;

/// Computes unrestricted Huffman code lengths for `freqs` (all > 0).
///
/// Deterministic: ties broken by insertion order.
fn huffman_lengths(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    assert!(n > 0, "huffman over empty alphabet");
    if n == 1 {
        return vec![1];
    }
    // Node arena: leaves 0..n, internal nodes after.
    let mut weight: Vec<u64> = freqs.to_vec();
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((freqs[i], i))).collect();
    while let (Some(Reverse((wa, a))), Some(Reverse((wb, b)))) = (heap.pop(), heap.pop()) {
        let node = weight.len();
        weight.push(wa + wb);
        parent.push(usize::MAX);
        parent[a] = node;
        parent[b] = node;
        heap.push(Reverse((wa + wb, node)));
    }
    // Depth of each leaf = number of parent hops.
    let mut lengths = vec![0u32; n];
    for (i, len) in lengths.iter_mut().enumerate() {
        let mut p = parent[i];
        let mut d = 0;
        while p != usize::MAX {
            d += 1;
            p = parent[p];
        }
        *len = d;
    }
    lengths
}

/// Restricts code lengths to `max_len`, preserving Kraft completeness.
///
/// Follows zlib's `gen_bitlen` overflow repair: clamp overlong codes, then
/// repeatedly split a shorter code to pay for each over-budget leaf.
/// Lengths are then re-assigned to symbols in frequency order (rarest
/// symbol gets the longest code) to stay near-optimal.
fn limit_lengths(freqs: &[u64], lengths: &[u32], max_len: u32) -> Vec<u32> {
    let n = lengths.len();
    debug_assert_eq!(freqs.len(), n);
    if lengths.iter().all(|&l| l <= max_len) {
        return lengths.to_vec();
    }
    let mut bl_count = vec![0u32; max_len as usize + 1];
    let mut overflow = 0u32;
    for &l in lengths {
        let c = l.min(max_len);
        bl_count[c as usize] += 1;
        if l > max_len {
            overflow += 1;
        }
    }
    while overflow > 0 {
        let mut bits = max_len - 1;
        while bl_count[bits as usize] == 0 {
            bits -= 1;
        }
        bl_count[bits as usize] -= 1;
        bl_count[bits as usize + 1] += 2;
        bl_count[max_len as usize] -= 1;
        overflow -= 1;
    }
    // Assign: rarest symbols get the longest codes. Deterministic ties.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (freqs[i], std::cmp::Reverse(i)));
    let mut out = vec![0u32; n];
    let mut cursor = 0usize;
    for len in (1..=max_len).rev() {
        for _ in 0..bl_count[len as usize] {
            out[order[cursor]] = len;
            cursor += 1;
        }
    }
    debug_assert_eq!(cursor, n);
    out
}

/// A canonical Huffman code over an arbitrary alphabet of `n` entries.
///
/// Entry indices are caller-defined (E2MC uses `0..k` for the top-k symbols
/// and `k` for the escape). Codes are MSB-first, ordered by `(length,
/// index)` as canonical codes require. The code holds each entry's length
/// and codeword only; E2MC's [`SymbolTable`](super::SymbolTable) builds
/// the one decode table from them.
#[derive(Debug, Clone)]
pub struct CanonicalCode {
    /// Code length per entry.
    lengths: Vec<u32>,
    /// Codeword per entry (low `lengths[i]` bits significant).
    codes: Vec<u16>,
}

impl CanonicalCode {
    /// Builds a length-limited canonical code from entry frequencies.
    ///
    /// Frequencies of zero are allowed and get no code (length 0); at least
    /// one frequency must be positive.
    ///
    /// # Panics
    ///
    /// Panics if every frequency is zero or `max_len > MAX_CODE_LEN`.
    pub fn from_frequencies(freqs: &[u64], max_len: u32) -> Self {
        assert!((1..=MAX_CODE_LEN).contains(&max_len));
        let live: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        assert!(!live.is_empty(), "canonical code needs at least one live entry");
        let live_freqs: Vec<u64> = live.iter().map(|&i| freqs[i]).collect();
        let raw = huffman_lengths(&live_freqs);
        let limited = limit_lengths(&live_freqs, &raw, max_len);
        let mut lengths = vec![0u32; freqs.len()];
        for (slot, &i) in live.iter().enumerate() {
            lengths[i] = limited[slot];
        }
        Self::from_lengths(lengths)
    }

    /// Assigns the canonical codewords for per-entry lengths: in `(length,
    /// index)` order, each code is the previous one plus one, shifted left
    /// by however much longer it is.
    fn from_lengths(lengths: Vec<u32>) -> Self {
        let mut sorted: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
        sorted.sort_by_key(|&i| (lengths[i], i));
        let mut codes = vec![0u16; lengths.len()];
        let (mut code, mut prev_len) = (0u32, 0u32);
        for &i in &sorted {
            code <<= lengths[i] - prev_len;
            codes[i] = code as u16;
            code += 1;
            prev_len = lengths[i];
        }
        // Kraft completeness check: the code must not overflow the space.
        debug_assert!({
            let kraft: u64 =
                lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (MAX_CODE_LEN - l)).sum();
            kraft <= 1u64 << MAX_CODE_LEN
        });
        Self { lengths, codes }
    }

    /// Number of entries in the alphabet (including zero-length ones).
    pub fn alphabet_len(&self) -> usize {
        self.lengths.len()
    }

    /// Code length of `entry` in bits; 0 means the entry has no code.
    pub fn length(&self, entry: usize) -> u32 {
        self.lengths[entry]
    }

    /// Codeword of `entry` (valid only when `length(entry) > 0`).
    pub fn code(&self, entry: usize) -> u16 {
        self.codes[entry]
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The test oracle for every decoder built from a [`CanonicalCode`]:
    /// the bit-serial walk, which takes one more bit of the window until
    /// the prefix taken so far is the codeword of an entry that long.
    pub(in crate::e2mc) struct BitSerialWalk(HashMap<(u32, u32), usize>);

    impl BitSerialWalk {
        pub(in crate::e2mc) fn new(code: &CanonicalCode) -> Self {
            let live = (0..code.alphabet_len()).filter(|&e| code.length(e) > 0);
            Self(live.map(|e| ((code.length(e), u32::from(code.code(e))), e)).collect())
        }

        /// `(entry, length)` of the codeword that starts the left-aligned
        /// `MAX_CODE_LEN`-bit `window`; `None` where no codeword does.
        pub(in crate::e2mc) fn decode(&self, window: u32) -> Option<(usize, u32)> {
            (1..=MAX_CODE_LEN).find_map(|len| {
                self.0.get(&(len, window >> (MAX_CODE_LEN - len))).map(|&e| (e, len))
            })
        }
    }

    fn max_length(code: &CanonicalCode) -> u32 {
        (0..code.alphabet_len()).map(|e| code.length(e)).max().unwrap_or(0)
    }

    fn roundtrip_all(code: &CanonicalCode) {
        let walk = BitSerialWalk::new(code);
        for entry in 0..code.alphabet_len() {
            if code.length(entry) == 0 {
                continue;
            }
            let len = code.length(entry);
            let window = (code.code(entry) as u32) << (MAX_CODE_LEN - len);
            assert_eq!(walk.decode(window), Some((entry, len)));
        }
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        let code = CanonicalCode::from_frequencies(&[5, 3], MAX_CODE_LEN);
        assert_eq!(code.length(0), 1);
        assert_eq!(code.length(1), 1);
        assert_ne!(code.code(0), code.code(1));
        roundtrip_all(&code);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let code = CanonicalCode::from_frequencies(&[42], MAX_CODE_LEN);
        assert_eq!(code.length(0), 1);
        roundtrip_all(&code);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let code = CanonicalCode::from_frequencies(&[1000, 10, 10, 1], MAX_CODE_LEN);
        assert!(code.length(0) < code.length(3));
        roundtrip_all(&code);
    }

    #[test]
    fn zero_frequency_entries_get_no_code() {
        let code = CanonicalCode::from_frequencies(&[10, 0, 5], MAX_CODE_LEN);
        assert_eq!(code.length(1), 0);
        roundtrip_all(&code);
    }

    #[test]
    fn skewed_distribution_respects_length_limit() {
        // Fibonacci-like frequencies force deep Huffman trees.
        let mut freqs = vec![1u64; 40];
        let mut a = 1u64;
        let mut b = 2u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let code = CanonicalCode::from_frequencies(&freqs, 8);
        assert!(max_length(&code) <= 8);
        roundtrip_all(&code);
    }

    #[test]
    fn kraft_sum_is_valid() {
        let freqs: Vec<u64> = (1..=300).map(|i| i * i).collect();
        let code = CanonicalCode::from_frequencies(&freqs, 12);
        let kraft: u64 =
            (0..300).filter(|&i| code.length(i) > 0).map(|i| 1u64 << (12 - code.length(i))).sum();
        assert!(kraft <= 1 << 12);
        roundtrip_all(&code);
    }

    proptest! {
        #[test]
        fn prop_all_codewords_decode(freqs in proptest::collection::vec(0u64..10_000, 1..200)) {
            prop_assume!(freqs.iter().any(|&f| f > 0));
            let code = CanonicalCode::from_frequencies(&freqs, MAX_CODE_LEN);
            roundtrip_all(&code);
        }

        #[test]
        fn prop_length_limit_holds(freqs in proptest::collection::vec(1u64..u32::MAX as u64, 2..500),
                                   max_len in 10u32..=16) {
            let code = CanonicalCode::from_frequencies(&freqs, max_len);
            prop_assert!(max_length(&code) <= max_len);
        }

        #[test]
        fn prop_codes_are_prefix_free(freqs in proptest::collection::vec(1u64..1000, 2..100)) {
            let code = CanonicalCode::from_frequencies(&freqs, MAX_CODE_LEN);
            let items: Vec<(u32, u16)> = (0..freqs.len())
                .map(|i| (code.length(i), code.code(i)))
                .collect();
            for (i, &(la, ca)) in items.iter().enumerate() {
                for &(lb, cb) in items.iter().skip(i + 1) {
                    let l = la.min(lb);
                    prop_assert!(ca >> (la - l) != cb >> (lb - l),
                        "prefix collision between lengths {la} and {lb}");
                }
            }
        }
    }
}
