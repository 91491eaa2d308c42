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
    #[expect(
        clippy::expect_used,
        reason = "training time, not per block: both pops follow the len > 1 check"
    )]
    while heap.len() > 1 {
        let Reverse((wa, a)) = heap.pop().expect("len > 1");
        let Reverse((wb, b)) = heap.pop().expect("len > 1");
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
/// index)` as canonical codes require.
#[derive(Debug, Clone)]
pub struct CanonicalCode {
    /// Code length per entry.
    lengths: Vec<u32>,
    /// Codeword per entry (low `lengths[i]` bits significant).
    codes: Vec<u16>,
    /// Single-lookup decode table, indexed by the top `lut_bits` bits of a
    /// left-aligned `MAX_CODE_LEN`-bit window. Each entry packs
    /// `(entry_index << 8) | code_length`; [`LUT_INVALID`] marks windows no
    /// codeword covers (corrupt stream). This is the flat
    /// max-code-length-indexed table of Rivera et al. / cuSZ+: one load
    /// replaces the bit-serial canonical walk.
    lut: Vec<u32>,
    /// Window bits the LUT is indexed by (= longest assigned code length).
    lut_bits: u32,
}

/// Sentinel for decode windows outside every codeword's range.
const LUT_INVALID: u32 = u32::MAX;

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

    /// Builds the canonical code tables from per-entry lengths.
    fn from_lengths(lengths: Vec<u32>) -> Self {
        let mut sorted: Vec<u32> =
            (0..lengths.len() as u32).filter(|&i| lengths[i as usize] > 0).collect();
        sorted.sort_by_key(|&i| (lengths[i as usize], i));
        let mut codes = vec![0u16; lengths.len()];
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &i in &sorted {
            count[lengths[i as usize] as usize] += 1;
        }
        let lut_bits =
            (1..=MAX_CODE_LEN).rev().find(|&l| count[l as usize] > 0).unwrap_or(1).max(1);
        let mut lut = vec![LUT_INVALID; 1usize << lut_bits];
        let mut code = 0u32;
        let mut index = 0u32;
        #[expect(clippy::needless_range_loop, reason = "`len` is arithmetic, not just an index")]
        for len in 1..=MAX_CODE_LEN as usize {
            code <<= 1;
            for _ in 0..count[len] {
                let entry = sorted[index as usize];
                codes[entry as usize] = code as u16;
                // Every window whose top `len` bits equal this codeword
                // decodes to this entry: fill its 2^(lut_bits - len) slots.
                let span = 1u32 << (lut_bits - len as u32);
                let base = code << (lut_bits - len as u32);
                let packed = (entry << 8) | len as u32;
                for slot in base..base + span {
                    lut[slot as usize] = packed;
                }
                code += 1;
                index += 1;
            }
        }
        // Kraft completeness check: after the last length the code must have
        // consumed exactly the whole space.
        debug_assert!({
            let kraft: u64 =
                lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (MAX_CODE_LEN - l)).sum();
            kraft <= 1u64 << MAX_CODE_LEN
        });
        Self { lengths, codes, lut, lut_bits }
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

    /// Decodes one entry from `peek` (left-aligned `MAX_CODE_LEN`-bit
    /// window) returning `(entry, length)`, or `None` when no codeword
    /// covers the window (corrupt stream).
    ///
    /// Single table lookup: the window's top [`max_length`](Self::max_length)
    /// bits index a flat table precomputed at construction, replacing the
    /// bit-serial canonical walk.
    pub fn decode(&self, peek: u32) -> Option<(u32, u32)> {
        debug_assert!(peek < (1 << MAX_CODE_LEN));
        let packed = self.lut[(peek >> (MAX_CODE_LEN - self.lut_bits)) as usize];
        if packed == LUT_INVALID {
            None
        } else {
            Some((packed >> 8, packed & 0xff))
        }
    }

    /// Longest assigned code length (the decode table's window width;
    /// construction guarantees at least one live entry, so this is >= 1).
    pub fn max_length(&self) -> u32 {
        self.lut_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_all(code: &CanonicalCode) {
        for entry in 0..code.alphabet_len() {
            if code.length(entry) == 0 {
                continue;
            }
            let len = code.length(entry);
            let window = (code.code(entry) as u32) << (MAX_CODE_LEN - len);
            assert_eq!(code.decode(window), Some((entry as u32, len)));
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
        assert!(code.max_length() <= 8);
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
            prop_assert!(code.max_length() <= max_len);
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
