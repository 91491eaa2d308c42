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
//!   codec that serialises through `BitWriter`: all but E2MC and SLC, whose
//!   `SymbolTable::write_ways` `e2mc`'s own tests hold to the retired
//!   `BitWriter`-based writer, and which the E2MC goldens and the
//!   copies-of-a-codeword streams below pin here.
//! * A bit-serial canonical walk over every entry's `(length, code)` must
//!   agree with E2MC's one decode table on every window, for the nine
//!   benchmarks' trained tables and a synthetic one.
//! * Golden vectors freeze known byte encodings and per-codec stream
//!   hashes for deterministic blocks, so future refactors cannot silently
//!   change the format.

use proptest::prelude::*;
use slc::slc_compress::bdi::{Bdi, BdiEncoding};
use slc::slc_compress::bitstream::{BitReader, BitWriter};
use slc::slc_compress::bpc::Bpc;
use slc::slc_compress::cpack::Cpack;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig, MAX_CODE_LEN};
use slc::slc_compress::fpc::Fpc;
use slc::slc_compress::rans::Rans;
use slc::slc_compress::symbols::{symbols_to_block, SYMBOLS_PER_BLOCK};
use slc::slc_compress::{Block, BlockCompressor, ChunkCoder, BLOCK_BYTES};
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

/// A block of sixteen 64-bit words, `f(i)` at word `i`.
fn u64_block(f: impl Fn(u64) -> u64) -> Block {
    let mut b = [0u8; BLOCK_BYTES];
    for (i, c) in b.chunks_exact_mut(8).enumerate() {
        c.copy_from_slice(&f(i as u64).to_le_bytes());
    }
    b
}

/// A block of sixty-four 16-bit values, `f(i)` at value `i`.
fn u16_block(f: impl Fn(u16) -> u16) -> Block {
    let mut b = [0u8; BLOCK_BYTES];
    for (i, c) in b.chunks_exact_mut(2).enumerate() {
        c.copy_from_slice(&f(i as u16).to_le_bytes());
    }
    b
}

/// One block per BDI encoding, with the encoding it must take. Each
/// base+delta block is built so that every arm before its own in
/// `BASE_DELTA_VARIANTS` fails; the B8 and B2D1 blocks also hold small
/// values that delta from the implicit zero base. `bdi/tie` fits both
/// B2D1 and B8D4 (596 bits each) and no smaller arm: B2D1 wins the tie.
fn bdi_golden_blocks() -> [(&'static str, Block, BdiEncoding); 10] {
    const BASE: u64 = 0x1234_5678_9abc_def0;
    let near = |i: u64, step: u64| if i.is_multiple_of(3) { i } else { BASE + i * step };
    // Every 16-bit value is within 15 of 0x4000 and every word within
    // 2^17 of the first, but the second 16-bit lane alternates, so every
    // other word's low 32 bits sit about 2^16 from the first value's: no
    // 16-bit delta reaches them.
    let tie = |i: u64| 0x4000_4000_4000_4000 + i + ((i % 2) << 16);
    [
        ("bdi/zeros", [0u8; BLOCK_BYTES], BdiEncoding::Zeros),
        ("bdi/repeat", u64_block(|_| BASE), BdiEncoding::Repeat),
        ("bdi/b8d1", u64_block(|i| near(i, 7)), BdiEncoding::B8D1),
        ("bdi/b8d2", u64_block(|i| near(i, 1000)), BdiEncoding::B8D2),
        ("bdi/b8d4", u64_block(|i| near(i, 100_000)), BdiEncoding::B8D4),
        ("bdi/ramp", ramp_block(0x4000_0000, 3), BdiEncoding::B4D1),
        ("bdi/b4d2", ramp_block(0x4000_0000, 300), BdiEncoding::B4D2),
        (
            "bdi/b2d1",
            u16_block(|i| if i.is_multiple_of(5) { i } else { 0x4100 + i }),
            BdiEncoding::B2D1,
        ),
        ("bdi/tie", u64_block(tie), BdiEncoding::B2D1),
        ("bdi/verbatim", test_block(7), BdiEncoding::Uncompressed),
    ]
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

/// An E2MC table trained on dyadic counts: symbol `0x0100 + k` appears
/// `2^(15 - k)` times for `k < 15`, two more symbols once each, so the
/// codes run from 1 to 16 bits and the escape (count 1) takes the full
/// `MAX_CODE_LEN`: an escaped symbol costs 32 bits, two adjacent ones 64.
fn dyadic_e2mc() -> E2mc {
    let mut symbols: Vec<u16> = (0..15u16).flat_map(|k| vec![0x0100 + k; 1 << (15 - k)]).collect();
    symbols.extend([0x0100 + 15, 0x0100 + 16]);
    let bytes: Vec<u8> = symbols.iter().flat_map(|s| s.to_le_bytes()).collect();
    assert_eq!(bytes.len() % BLOCK_BYTES, 0, "no zero padding in training");
    let e2mc = E2mc::train_on_bytes(&bytes, &E2mcConfig::default());
    assert_eq!(e2mc.table().escape_bits(), MAX_CODE_LEN + 16);
    e2mc
}

/// A block of `dyadic_e2mc` symbols in their trained proportions (slot
/// `i` holds symbol `trailing_zeros(i + 1)`), with the slots set in
/// `escapes` replaced by values outside the table.
fn dyadic_block(escapes: u64) -> Block {
    let symbols: Vec<u16> = (0..SYMBOLS_PER_BLOCK)
        .map(|i| match escapes >> i & 1 {
            1 => 0xbe00 | i as u16,
            _ => 0x0100 + (i + 1).trailing_zeros() as u16,
        })
        .collect();
    let mut b = [0u8; BLOCK_BYTES];
    for (c, s) in b.chunks_exact_mut(2).zip(symbols) {
        c.copy_from_slice(&s.to_le_bytes());
    }
    b
}

/// Encodes `block`, then checks the stream's length and FNV hash against
/// the golden and that it decodes back to `block`. Under `GOLDEN_PRINT`
/// it prints the stream's length and hash instead.
fn assert_golden_stream(
    name: &str,
    codec: &dyn BlockCompressor,
    block: &Block,
    bits: u32,
    hash: u64,
) {
    let (size_bits, coded, payload) = encode(codec, block);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        eprintln!("GOLDEN {name} bits={size_bits} fnv={:#018x}", fnv(&payload));
        return;
    }
    assert_eq!(size_bits, bits, "{name}: stream length changed");
    assert_eq!(fnv(&payload), hash, "{name}: stream bytes changed");
    assert_eq!(&decode(codec, size_bits, coded, &payload), block, "{name}: roundtrip broken");
}

/// Golden stream hashes for deterministic blocks, recorded from the
/// as-merged implementation (which the property tests above prove
/// bit-identical to the seed's packing). Any change to these values is a
/// wire-format break.
#[test]
fn golden_codec_stream_hashes() {
    let fpc = Fpc::new();
    let cpack = Cpack::new();
    let bpc = Bpc::new();
    let rans = Rans::new();
    let ramp = ramp_block(0x4000_0000, 3);
    // Codes under rANS with renormalisation words; `ramp` falls back to
    // verbatim and `zeros` is one symbol, states only.
    let small_ramp = ramp_block(0, 1);
    let zeros = [0u8; BLOCK_BYTES];
    let fpc_patterns = fpc_pattern_block();
    // E2MC over one trained table: a block in its distribution, one with
    // every fourth symbol escaped (no two escapes share a pair), seeded
    // noise (all escapes, stored verbatim), and two pairs of adjacent
    // escapes (64-bit codeword pairs, the split path).
    let e2mc = dyadic_e2mc();
    let in_dist = dyadic_block(0);
    let escapes = dyadic_block(0x1111_1111_1111_1111);
    let noise = test_block(7);
    let split = dyadic_block(0b11 << 2 | 0b11 << 40);
    let expectations: [(&str, &dyn BlockCompressor, &Block, u32, u64); 11] = [
        ("fpc/zeros", &fpc, &zeros, 24, 0x85e3_6318_cda0_4b7b),
        ("fpc/patterns", &fpc, &fpc_patterns, 349, 0x3fcf_abcb_de06_9d45),
        ("cpack/zeros", &cpack, &zeros, 64, 0xa8c7_f832_281a_39c5),
        ("bpc/ramp", &bpc, &ramp, 47, 0x90be_3613_64aa_1e3d),
        ("rans/ramp", &rans, &ramp, 1024, 0x3d08_f3c2_c24d_3b45),
        ("rans/zeros", &rans, &zeros, 160, 0xfc6f_7837_d90f_7af2),
        ("rans/small-ramp", &rans, &small_ramp, 984, 0x8189_2335_a66b_e389),
        ("e2mc/in-distribution", &e2mc, &in_dist, 158, 0x0a75_54c2_a7c3_7492),
        ("e2mc/escapes", &e2mc, &escapes, 654, 0x896d_6c07_c4eb_7e0b),
        ("e2mc/verbatim", &e2mc, &noise, 1024, 0x86f2_1e0d_78f8_ab1b),
        ("e2mc/split-pair", &e2mc, &split, 279, 0x4e96_05ee_0d37_03c9),
    ];
    for (name, codec, block, bits, hash) in expectations {
        assert_golden_stream(name, codec, block, bits, hash);
    }
    // One BDI stream per encoding, in `bdi_golden_blocks` order.
    let bdi_expectations: [(u32, u64); 10] = [
        (4, 0xaf63_bd4c_8601_b7df),
        (68, 0xb6a3_5722_3f12_d68f),
        (212, 0x08f2_513f_b553_d248),
        (340, 0x1768_9df8_55fb_7f1e),
        (596, 0xf604_a4b8_ba64_038d),
        (324, 0xd780_6542_3373_97d5),
        (580, 0xa2c5_5b46_4925_237f),
        (596, 0x8f37_37d6_a87b_13c5),
        (596, 0x82ee_d499_df48_70a3),
        (1024, 0x86f2_1e0d_78f8_ab1b),
    ];
    let bdi = Bdi::new();
    for ((name, block, enc), (bits, hash)) in bdi_golden_blocks().into_iter().zip(bdi_expectations)
    {
        assert_eq!(bdi.choose_encoding(&block), enc, "{name}: encoding changed");
        assert_golden_stream(name, &bdi, &block, bits, hash);
    }
}

/// Golden whole-chunk rANS streams: what the engine stores for a coded
/// 64 KiB chunk, one table and one interleaved word stream per chunk.
/// A smooth f32 ramp (few distinct exponent and high-mantissa bytes) and
/// seeded noise (all 256 symbols, the longest table).
#[test]
fn golden_rans_chunk_hashes() {
    const CHUNK: usize = 64 * 1024;
    let ramp: Vec<u8> =
        (0..CHUNK / 4).flat_map(|i| (i as f32 * 0.25 + 1.0).to_bits().to_le_bytes()).collect();
    let noise: Vec<u8> = (0..(CHUNK / BLOCK_BYTES) as u64).flat_map(test_block).collect();
    let expectations: [(&str, &[u8], usize, u64); 2] = [
        ("rans/chunk-ramp", &ramp, 45_281, 0x1e6a_8ef4_8cba_0475),
        ("rans/chunk-noise", &noise, 66_405, 0xf835_a21a_809c_a83a),
    ];
    let rans = Rans::new();
    for (name, chunk, len, hash) in expectations {
        let stream = rans.encode_chunk(chunk);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            eprintln!("GOLDEN {name} len={} fnv={:#018x}", stream.len(), fnv(&stream));
            continue;
        }
        assert_eq!(stream.len(), len, "{name}: stream length changed");
        assert_eq!(fnv(&stream), hash, "{name}: stream bytes changed");
        let mut out = vec![0u8; chunk.len()];
        rans.decode_chunk(&stream, &mut out).unwrap();
        assert_eq!(out, chunk, "{name}: roundtrip broken");
    }
}

/// `copies` copies of a `len`-bit `codeword` as E2MC lays them out in
/// the first `copies` slots of a coded block, one bit at a time: the mode
/// bit, pdps at the ends of ways 0 to 2, the codewords.
fn copies_stream(codeword: u16, len: u32, copies: u32) -> (Vec<u8>, u32) {
    let mut w = reference::RefWriter::new();
    w.write(1, 1);
    for way in 1..4 {
        w.write(u64::from(copies.min(16 * way) * len), 10);
    }
    for _ in 0..copies {
        w.write(u64::from(codeword), len);
    }
    (w.bytes, w.len_bits)
}

/// Checks every window of `e2mc`'s one decode table against the
/// bit-serial canonical walk over each entry's `(length, code)`, which
/// takes one more bit of the window until the prefix taken so far is
/// the codeword of an entry that long. Returns the longest code length.
fn assert_decode_table_matches_the_walk(e2mc: &E2mc, at: &str) -> u32 {
    let table = e2mc.table();
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
                // The symbol decoded is the one whose codeword this is:
                // 64 copies of it encode as 64 copies of that codeword. A
                // 16-bit code's copies fill the block, which goes
                // verbatim, so those write 16 copies, the rest a hole.
                let copies = [symbol; SYMBOLS_PER_BLOCK];
                let mut payload = Vec::new();
                let (bits, coded) = if len < MAX_CODE_LEN {
                    e2mc.compress_into(&symbols_to_block(&copies), &mut payload)
                } else {
                    (table.write_ways((1, 1), &copies, 16..SYMBOLS_PER_BLOCK, &mut payload), true)
                };
                let want =
                    copies_stream(code.code(e), len, if len < MAX_CODE_LEN { 64 } else { 16 });
                assert!(coded, "{at}: window {window:#06x}");
                assert_eq!((payload, bits), want, "{at}: window {window:#06x}");
            }
        }
    }
    (0..code.alphabet_len()).map(|e| code.length(e)).max().unwrap_or(0)
}

#[test]
fn bit_serial_walk_agrees_with_the_decode_table() {
    let training: Vec<u8> = (0..1u32 << 14).flat_map(|i| ((i % 301) * 11).to_le_bytes()).collect();
    let synthetic = E2mc::train_on_bytes(&training, &E2mcConfig::default());
    assert_decode_table_matches_the_walk(&synthetic, "synthetic");
    // The nine Table III tables: every fill depth from 1 to 16 bits.
    let h = Harness::new(Scale::Tiny);
    let longest: Vec<u32> = all_workloads(Scale::Tiny)
        .iter()
        .map(|w| assert_decode_table_matches_the_walk(&h.prepare(w.as_ref()).e2mc, w.name()))
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
