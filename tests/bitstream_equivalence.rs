//! Equivalence proof for the word-at-a-time bitstream and the table-driven
//! Huffman decoder.
//!
//! The seed implementation packed bits with a per-byte loop and decoded
//! E2MC codewords by walking canonical-code ranges bit by bit. This PR
//! replaced both with word-based fast paths; these tests pin the wire
//! format:
//!
//! * `reference` reimplements the seed's bit-by-bit packing semantics; the
//!   property tests assert the production writer emits **bit-identical
//!   streams** for arbitrary `(value, width)` sequences, which covers every
//!   codec (codecs serialise exclusively through `BitWriter`).
//! * A bit-serial canonical walk over every entry's `(length, code)` must
//!   agree with E2MC's one decode table on every window, for the nine
//!   benchmarks' trained tables and a synthetic one.
//! * Golden vectors freeze known byte encodings and per-codec stream
//!   hashes for deterministic blocks, so future refactors cannot silently
//!   change the format.

use proptest::prelude::*;
use slc::slc_compress::bdi::Bdi;
use slc::slc_compress::bitstream::{BitReader, BitWriter};
use slc::slc_compress::bpc::Bpc;
use slc::slc_compress::cpack::Cpack;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig, SymbolTable, MAX_CODE_LEN};
use slc::slc_compress::fpc::Fpc;
use slc::slc_compress::symbols::SYMBOLS_PER_BLOCK;
use slc::slc_compress::{Block, BlockCompressor, BLOCK_BYTES};
use slc::slc_workloads::{all_workloads, Harness, Scale};
use std::collections::HashMap;

/// The seed's bit-by-bit packing model (MSB-first within each byte).
mod reference {
    pub struct RefWriter {
        pub bytes: Vec<u8>,
        pub len_bits: u32,
    }

    impl RefWriter {
        pub fn new() -> Self {
            Self { bytes: Vec::new(), len_bits: 0 }
        }

        pub fn write(&mut self, value: u64, width: u32) {
            for i in (0..width).rev() {
                let bit = ((value >> i) & 1) as u8;
                let bit_in_byte = (self.len_bits % 8) as u8;
                if bit_in_byte == 0 {
                    self.bytes.push(0);
                }
                let last = self.bytes.last_mut().expect("pushed above");
                *last |= bit << (7 - bit_in_byte);
                self.len_bits += 1;
            }
        }
    }
}

/// FNV-1a over a compressed stream, for compact golden vectors.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mask(v: u64, w: u32) -> u64 {
    if w == 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

#[test]
fn golden_byte_vectors() {
    // write(0b101, 3) ++ write(0xABCD, 16): 101 1010101111001101 ->
    // 10110101 01111001 101xxxxx.
    let mut bytes = Vec::new();
    let mut w = BitWriter::new(&mut bytes);
    w.write(0b101, 3);
    w.write(0xABCD, 16);
    let len = w.finish();
    assert_eq!(len, 19);
    assert_eq!(bytes, vec![0xB5, 0x79, 0xA0]);

    // A 64-bit field crossing the staging-word split path.
    let mut bytes = Vec::new();
    let mut w = BitWriter::new(&mut bytes);
    w.write(1, 1);
    w.write(0x0123_4567_89AB_CDEF, 64);
    let len = w.finish();
    assert_eq!(len, 65);
    assert_eq!(bytes, vec![0x80, 0x91, 0xA2, 0xB3, 0xC4, 0xD5, 0xE6, 0xF7, 0x80]);
}

/// Deterministic pseudo-random block generator (SplitMix64).
fn test_block(seed: u64) -> Block {
    let mut b = [0u8; BLOCK_BYTES];
    let mut x = seed;
    for chunk in b.chunks_exact_mut(8) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    b
}

fn ramp_block(start: u32, step: u32) -> Block {
    let mut b = [0u8; BLOCK_BYTES];
    for (i, c) in b.chunks_exact_mut(4).enumerate() {
        c.copy_from_slice(&(start.wrapping_add(step * i as u32)).to_le_bytes());
    }
    b
}

/// Every FPC token kind, each more than once: zero runs of 1, 3 and 9
/// words (a run splits at 8), and each of the seven word patterns, with
/// a negative value where the pattern sign-extends.
fn fpc_pattern_block() -> Block {
    let tokens: [&[u32]; 11] = [
        &[0],                        // zero run of 1
        &[3, 0xffff_fff9],           // Se4
        &[0x7f, 0xffff_ff80],        // Se8
        &[0x7fff, 0xffff_8001],      // Se16
        &[0; 3],                     // zero run of 3
        &[0xabcd_0000, 0x8001_0000], // PaddedHalf
        &[0x0011_0022, 0xffe0_0010], // TwoSeBytes
        &[0x5a5a_5a5a, 0xc3c3_c3c3], // RepeatedBytes
        &[0x1234_5678, 0x9abc_def0], // Raw
        &[0; 9],                     // zero run of 9: 8 + 1
        &[5, 0x40, 0x1234, 0x7777_7777, 0xdead_beef],
    ];
    assert_eq!(tokens.iter().map(|t| t.len()).sum::<usize>(), BLOCK_BYTES / 4);
    let mut b = [0u8; BLOCK_BYTES];
    for (c, w) in b.chunks_exact_mut(4).zip(tokens.into_iter().flatten()) {
        c.copy_from_slice(&w.to_le_bytes());
    }
    b
}

/// Golden stream hashes for deterministic blocks, recorded from the
/// as-merged implementation (which the property tests above prove
/// bit-identical to the seed's packing). Any change to these values is a
/// wire-format break.
/// `block` through the one encode entry: `(size_bits, is_compressed,
/// payload)`.
fn encode(codec: &dyn BlockCompressor, block: &Block) -> (u32, bool, Vec<u8>) {
    let mut payload = Vec::new();
    let (bits, coded) = codec.compress_into(block, &mut payload);
    (bits, coded, payload)
}

/// The one decode entry over a stream `codec` wrote.
fn decode(codec: &dyn BlockCompressor, bits: u32, coded: bool, payload: &[u8]) -> Block {
    let mut out = [0u8; BLOCK_BYTES];
    codec.decompress_into(bits, coded, payload, &mut out).unwrap();
    out
}

#[test]
fn golden_codec_stream_hashes() {
    let bdi = Bdi::new();
    let fpc = Fpc::new();
    let cpack = Cpack::new();
    let bpc = Bpc::new();
    let ramp = ramp_block(0x4000_0000, 3);
    let zeros = [0u8; BLOCK_BYTES];
    let fpc_patterns = fpc_pattern_block();
    let expectations: [(&str, &dyn BlockCompressor, &Block, u32, u64); 5] = [
        ("bdi/ramp", &bdi, &ramp, 324, 0xd780_6542_3373_97d5),
        ("fpc/zeros", &fpc, &zeros, 24, 0x85e3_6318_cda0_4b7b),
        ("fpc/patterns", &fpc, &fpc_patterns, 349, 0x3fcf_abcb_de06_9d45),
        ("cpack/zeros", &cpack, &zeros, 64, 0xa8c7_f832_281a_39c5),
        ("bpc/ramp", &bpc, &ramp, 47, 0x90be_3613_64aa_1e3d),
    ];
    for (name, codec, block, bits, hash) in expectations {
        let (size_bits, coded, payload) = encode(codec, block);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            eprintln!("GOLDEN {name} bits={size_bits} fnv={:#018x}", fnv(&payload));
            continue;
        }
        assert_eq!(size_bits, bits, "{name}: stream length changed");
        assert_eq!(fnv(&payload), hash, "{name}: stream bytes changed");
        assert_eq!(&decode(codec, size_bits, coded, &payload), block, "{name}: roundtrip broken");
    }
}

/// Checks every window of `table`'s one decode table against the
/// bit-serial canonical walk over each entry's `(length, code)`, which
/// takes one more bit of the window until the prefix taken so far is
/// the codeword of an entry that long. Returns the longest code length.
fn assert_decode_table_matches_the_walk(table: &SymbolTable, at: &str) -> u32 {
    let code = table.canonical_code();
    let escape = code.alphabet_len() - 1;
    let codewords: HashMap<(u32, u32), usize> = (0..code.alphabet_len())
        .filter(|&e| code.length(e) > 0)
        .map(|e| ((code.length(e), u32::from(code.code(e))), e))
        .collect();
    for window in 0..1u32 << MAX_CODE_LEN {
        // The 16 bits after the window vary, so an escape's raw read shows.
        let bits = window << 16 | (window ^ 0x5a5a);
        let walked = (1..=MAX_CODE_LEN).find_map(|len| {
            codewords.get(&(len, window >> (MAX_CODE_LEN - len))).map(|&e| (e, len))
        });
        let got = table.decode_symbol(bits);
        match walked {
            None => assert_eq!(got, None, "{at}: window {window:#06x}"),
            Some((e, len)) if e == escape => {
                let raw = (bits >> (16 - len)) as u16;
                assert_eq!(got, Some((raw, len + 16)), "{at}: window {window:#06x}");
            }
            Some((e, len)) => {
                let (symbol, width) = got.unwrap_or_else(|| panic!("{at}: {window:#06x}"));
                assert_eq!(width, len, "{at}: window {window:#06x}");
                // The symbol decoded is the one whose codeword this is.
                let enc = table.stash_encodings(&[symbol; SYMBOLS_PER_BLOCK])[0];
                let want = u64::from(code.code(e)) << 8 | u64::from(len);
                assert_eq!(enc, want, "{at}: window {window:#06x}");
            }
        }
    }
    (0..code.alphabet_len()).map(|e| code.length(e)).max().unwrap_or(0)
}

#[test]
fn bit_serial_walk_agrees_with_the_decode_table() {
    let training: Vec<u8> = (0..1u32 << 14).flat_map(|i| ((i % 301) * 11).to_le_bytes()).collect();
    let synthetic = E2mc::train_on_bytes(&training, &E2mcConfig::default());
    assert_decode_table_matches_the_walk(synthetic.table(), "synthetic");
    // The nine Table III tables: every fill depth from 1 to 16 bits.
    let h = Harness::new(Scale::Tiny);
    let longest: Vec<u32> = all_workloads(Scale::Tiny)
        .iter()
        .map(|w| assert_decode_table_matches_the_walk(h.prepare(w.as_ref()).e2mc.table(), w.name()))
        .collect();
    assert!(longest.contains(&MAX_CODE_LEN), "{longest:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_writer_matches_seed_reference(fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..96)) {
        let mut reference = reference::RefWriter::new();
        let mut bytes = Vec::new();
        let mut writer = BitWriter::new(&mut bytes);
        for &(v, w) in &fields {
            let m = mask(v, w);
            reference.write(m, w);
            writer.write(m, w);
        }
        let len = writer.finish();
        prop_assert_eq!(len, reference.len_bits);
        prop_assert_eq!(bytes, reference.bytes);
    }

    #[test]
    fn prop_reader_matches_reference_bits(data in proptest::collection::vec(any::<u8>(), 1..64),
                                          widths in proptest::collection::vec(1u32..=64, 1..32)) {
        let len = (data.len() * 8) as u32;
        let mut r = BitReader::new(&data, len);
        let mut pos = 0u32;
        for &w in &widths {
            if len - pos < w {
                break;
            }
            // Reference extraction straight from the byte array.
            let mut expect = 0u64;
            for i in 0..w {
                let p = pos + i;
                let bit = (data[(p / 8) as usize] >> (7 - p % 8)) & 1;
                expect = (expect << 1) | bit as u64;
            }
            prop_assert_eq!(r.read(w), expect);
            pos += w;
        }
    }

    #[test]
    fn prop_all_codecs_roundtrip_and_stay_stable(seed in any::<u64>()) {
        let block = test_block(seed);
        let bdi = Bdi::new();
        let fpc = Fpc::new();
        let cpack = Cpack::new();
        let bpc = Bpc::new();
        let codecs: [&dyn BlockCompressor; 4] = [&bdi, &fpc, &cpack, &bpc];
        for codec in codecs {
            let (bits, coded, payload) = encode(codec, &block);
            // Stream is a pure function of the block.
            prop_assert_eq!(encode(codec, &block), (bits, coded, payload.clone()));
            prop_assert_eq!(decode(codec, bits, coded, &payload), block);
        }
    }

    #[test]
    fn prop_e2mc_stream_is_sum_of_code_lengths(words in proptest::collection::vec(0u32..600, BLOCK_BYTES / 4)) {
        // The paper's core invariant: compressed size == header + sum of
        // per-symbol code lengths — decode tables and encode tables must
        // agree on every length.
        let training: Vec<u8> = (0..1u32 << 14).flat_map(|i| (i % 600).to_le_bytes()).collect();
        let e2mc = E2mc::train_on_bytes(&training, &E2mcConfig::default());
        let mut block = [0u8; BLOCK_BYTES];
        for (i, w) in words.iter().enumerate() {
            block[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        let (bits, coded, payload) = encode(&e2mc, &block);
        if coded {
            prop_assert_eq!(bits, e2mc.analyze(&block).lossless_size_bits());
        }
        prop_assert_eq!(decode(&e2mc, bits, coded, &payload), block);
    }
}
