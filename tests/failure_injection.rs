//! Failure injection: corrupt streams must be rejected with a
//! `DecodeError`, never silently decode to wrong data structures or
//! panic; constructor contracts must panic; and edge configurations
//! must behave.

use slc::slc_compress::bitstream::{BitReader, BitWriter};
use slc::slc_compress::e2mc::{E2mc, E2mcConfig};
use slc::slc_compress::{BlockCompressor, DecodeError, Mag, BLOCK_BYTES};
use slc::slc_core::header::{self, Hole};
use slc::slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc::slc_sim::mc::UniformBursts;
use slc::slc_sim::trace::{Op, Trace};
use slc::slc_sim::{Engine, GpuConfig};
use std::panic::catch_unwind;

fn trained() -> E2mc {
    let bytes: Vec<u8> = (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect();
    E2mc::train_on_bytes(&bytes, &E2mcConfig::default())
}

fn sample_block() -> [u8; BLOCK_BYTES] {
    let mut b = [0u8; BLOCK_BYTES];
    for (i, c) in b.chunks_exact_mut(4).enumerate() {
        c.copy_from_slice(&(((i * 3) % 257) as f32).to_le_bytes());
    }
    b
}

#[test]
fn truncated_e2mc_stream_is_an_error_not_garbage() {
    let e = trained();
    let mut payload = Vec::new();
    let (bits, coded) = e.compress_into(&sample_block(), &mut payload);
    assert!(coded);
    // Chop the stream: the last way no longer ends at the stream's end.
    let mut out = [0u8; BLOCK_BYTES];
    let verdict = e.decompress_into(bits / 2, true, &payload, &mut out);
    assert!(verdict.is_err(), "truncated stream must not decode silently");
}

#[test]
fn bit_flipped_mode_bit_is_detected() {
    let e = trained();
    let mut bytes = Vec::new();
    let (bits, _) = e.compress_into(&sample_block(), &mut bytes);
    bytes[0] ^= 0x80; // clear the compressed-mode bit
    let mut out = [0u8; BLOCK_BYTES];
    assert_eq!(
        e.decompress_into(bits, true, &bytes, &mut out),
        Err(DecodeError::UnknownTag),
        "mode-bit corruption must be caught"
    );
}

#[test]
fn bitreader_bounds_are_enforced() {
    // By a sticky flag, not a panic: a read or skip past the end yields
    // zeros, leaves the cursor alone and fails the reader's one check.
    let mut bytes = Vec::new();
    let mut w = BitWriter::new(&mut bytes);
    w.write(0xff, 8);
    let len = w.finish();
    let mut r = BitReader::new(&bytes, len);
    assert_eq!(r.read(8), 0xff);
    assert_eq!(r.check(), Ok(()));
    let mut past = r.clone();
    assert_eq!(past.read(1), 0);
    assert_eq!(past.remaining(), 0);
    assert_eq!(past.check(), Err(DecodeError::Truncated));
    let mut skipped = BitReader::new(&bytes, len);
    skipped.skip(9);
    assert_eq!(skipped.remaining(), 8);
    assert_eq!(skipped.check(), Err(DecodeError::Truncated));
    assert_eq!(r.check(), Ok(()), "the flag is per reader");
}

#[test]
fn header_rejects_malformed_fields() {
    // ss 63, len 2 on the wire: a hole running past the block, which
    // `read` refuses and no `Hole` can hold, so `write` cannot emit it.
    let mut bytes = Vec::new();
    let mut w = BitWriter::new(&mut bytes);
    w.write(1, 1);
    w.write(63, 6);
    w.write(2 - 1, 4);
    let len = w.finish();
    assert_eq!(header::read(&mut BitReader::new(&bytes, len)), Err(DecodeError::BadLayout));
    assert_eq!(Hole::new(63, 2), None);
    assert_eq!(Hole::new(70, 1), None);
}

#[test]
fn slc_roundtrip_survives_any_block_content() {
    // Pathological contents: all-ones, alternating, denormals, NaNs.
    let slc = SlcCompressor::new(trained(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
    let patterns: Vec<[u8; BLOCK_BYTES]> = vec![
        [0xff; BLOCK_BYTES],
        {
            let mut b = [0u8; BLOCK_BYTES];
            for (i, x) in b.iter_mut().enumerate() {
                *x = if i % 2 == 0 { 0xaa } else { 0x55 };
            }
            b
        },
        {
            let mut b = [0u8; BLOCK_BYTES];
            for c in b.chunks_exact_mut(4) {
                c.copy_from_slice(&f32::NAN.to_le_bytes());
            }
            b
        },
        {
            let mut b = [0u8; BLOCK_BYTES];
            for c in b.chunks_exact_mut(4) {
                c.copy_from_slice(&1e-40f32.to_le_bytes()); // denormal
            }
            b
        },
    ];
    for block in patterns {
        let enc = slc.compress(&block);
        let out = slc.decompress(&enc);
        if !enc.is_lossy() {
            assert_eq!(out, block);
        }
    }
}

#[test]
fn engine_handles_degenerate_traces() {
    let cfg = GpuConfig::default();
    // Single op.
    let mut t = Trace::new(cfg.sms);
    t.push(0, Op::Load(0));
    let stats = Engine::new(cfg.clone()).run(&t, &UniformBursts(4));
    assert_eq!(stats.loads, 1);
    // Sync with nothing outstanding.
    let mut t = Trace::new(cfg.sms);
    t.push(0, Op::Sync);
    let stats = Engine::new(cfg.clone()).run(&t, &UniformBursts(4));
    assert_eq!(stats.cycles, 0);
    // Stores only.
    let mut t = Trace::new(cfg.sms);
    for i in 0..100 {
        t.push(i % cfg.sms, Op::Store(i as u64));
    }
    let stats = Engine::new(cfg).run(&t, &UniformBursts(4));
    assert_eq!(stats.dram_writes, 100, "flush must drain all dirty lines");
}

#[test]
fn mag_extremes_are_consistent() {
    for mag_bytes in [8u32, 16, 32, 64, 128] {
        let mag = Mag::new(mag_bytes);
        assert_eq!(mag.round_up_bytes(1), mag_bytes);
        assert_eq!(mag.bursts_for_bytes(128, 128), 128 / mag_bytes);
    }
    assert!(catch_unwind(|| Mag::new(0)).is_err());
    assert!(catch_unwind(|| Mag::new(256)).is_err());
    assert!(catch_unwind(|| Mag::new(33)).is_err());
}

#[test]
fn zero_sized_inputs_are_rejected_or_empty() {
    // Metric on empty outputs must panic (caller bug), not return 0.
    assert!(catch_unwind(|| slc::slc_workloads::metrics::mre(&[], &[])).is_err());
    // An empty trace runs to zero cycles.
    let cfg = GpuConfig::default();
    let stats = Engine::new(cfg.clone()).run(&Trace::new(cfg.sms), &UniformBursts(4));
    assert_eq!(stats.cycles, 0);
}
