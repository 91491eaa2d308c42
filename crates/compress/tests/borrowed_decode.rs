//! Pins the borrowed block decode (`decompress_into`) byte-identical to
//! the owned path (`decompress`) for **every** codec, across random
//! blocks and the codecs' own verbatim fallbacks.
//!
//! The output buffer is pre-filled with a dirty pattern on purpose:
//! `decompress_into` writes into caller-owned storage, so any arm that
//! relies on a zeroed canvas without establishing one (the historic
//! hazard is BDI's zero-run and masked-delta encodings) shows up as a
//! mismatch here, not as silent corruption in an arena reuser.
//!
//! The payload is also decoded from an exact-length slice of a dirty
//! buffer, the way the engine frames it: word-at-a-time decoders (E2MC's
//! four-cursor way decoder reads 8 bytes per symbol) must treat
//! everything past the slice as zero bits.
//!
//! The encode mirror rides along: `compress_into` appends to a
//! caller-owned sink, so it is checked against a sink with a dirty prefix
//! (which must survive) and dirty spare capacity (which must not leak
//! into the appended bytes).

use proptest::prelude::*;
use slc_compress::bdi::Bdi;
use slc_compress::bpc::Bpc;
use slc_compress::cpack::Cpack;
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::fpc::Fpc;
use slc_compress::rans::Rans;
use slc_compress::{BlockCodec, BLOCK_BITS, BLOCK_BYTES};
use std::sync::{Arc, OnceLock};

fn codecs() -> &'static [Arc<dyn BlockCodec>] {
    static CODECS: OnceLock<Vec<Arc<dyn BlockCodec>>> = OnceLock::new();
    CODECS.get_or_init(|| {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect();
        vec![
            Arc::new(Bdi::new()),
            Arc::new(Fpc::new()),
            Arc::new(Cpack::new()),
            Arc::new(Bpc::new()),
            Arc::new(E2mc::train_on_bytes(&bytes, &E2mcConfig::default())),
            Arc::new(Rans::new()),
        ]
    })
}

fn check_block(block: &[u8; BLOCK_BYTES]) {
    for codec in codecs() {
        let c = codec.compress(block);
        let owned = codec.decompress(&c);
        assert_eq!(&owned, block, "{}: owned roundtrip", codec.id().name());
        let mut borrowed = [0xa5u8; BLOCK_BYTES];
        codec
            .decompress_into(c.size_bits(), c.is_compressed(), c.payload(), &mut borrowed)
            .expect("own stream decodes");
        assert_eq!(borrowed, owned, "{}: borrowed decode must equal owned", codec.id().name());
        // The payload as the engine hands it over: a slice of exactly
        // `ceil(bits / 8)` bytes with other blocks' bytes on both sides,
        // which a decoder loading whole words must never let in.
        let n = c.size_bits().div_ceil(8) as usize;
        let mut framed = vec![0xa5u8; n + 32];
        framed[16..16 + n].copy_from_slice(&c.payload()[..n]);
        let mut exact = [0x5au8; BLOCK_BYTES];
        codec
            .decompress_into(c.size_bits(), c.is_compressed(), &framed[16..16 + n], &mut exact)
            .expect("own stream decodes from an exact-length slice");
        assert_eq!(exact, owned, "{}: exact-length slice in a dirty buffer", codec.id().name());
        let mut sink = vec![0xa5u8; 2 * BLOCK_BYTES];
        sink.truncate(3);
        let (bits, coded) = codec.compress_into(block, &mut sink);
        assert_eq!((bits, coded), (c.size_bits(), c.is_compressed()), "{}", codec.id().name());
        assert!(coded || bits == BLOCK_BITS, "{}: verbatim is one whole block", codec.id().name());
        assert_eq!(sink[..3], [0xa5u8; 3], "{}: sink prefix must survive", codec.id().name());
        assert_eq!(
            sink.len() - 3,
            bits.div_ceil(8) as usize,
            "{}: appended length",
            codec.id().name()
        );
        assert_eq!(
            &sink[3..],
            c.payload(),
            "{}: appended bytes must equal owned",
            codec.id().name()
        );
    }
}

#[test]
fn canonical_shapes_decode_identically() {
    // Zeros (BDI zero-run), a constant (repeated-value arms), a narrow
    // ramp (delta arms), and f32 ramps (FPC/E2MC material).
    check_block(&[0u8; BLOCK_BYTES]);
    check_block(&[0x42u8; BLOCK_BYTES]);
    let mut ramp = [0u8; BLOCK_BYTES];
    for (i, b) in ramp.iter_mut().enumerate() {
        *b = (i / 8) as u8;
    }
    check_block(&ramp);
    let mut floats = [0u8; BLOCK_BYTES];
    for i in 0..BLOCK_BYTES / 4 {
        floats[i * 4..i * 4 + 4].copy_from_slice(&(i as f32 * 0.25).to_le_bytes());
    }
    check_block(&floats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_borrowed_equals_owned(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
        check_block(&data.try_into().expect("exactly one block"));
    }

    #[test]
    fn prop_compressible_blocks_too(base in any::<u32>(), step in 0u32..16) {
        // Random noise mostly hits the verbatim fallback; also exercise
        // blocks every codec genuinely codes.
        let mut block = [0u8; BLOCK_BYTES];
        for i in 0..BLOCK_BYTES / 4 {
            let w = base.wrapping_add(i as u32 * step);
            block[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        check_block(&block);
    }
}
