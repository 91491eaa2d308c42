//! Pin of the one route from a block to its burst count: the staging
//! walk ([`Scheme::stage_and_record`]) leaves the same memory and the
//! same burst map as encoding every block for real — decoding what an
//! SLC scheme stores lossy, and counting the bursts each stored form
//! needs ([`encoded_point`], the oracle this file owns) — across random
//! memory images, every MAG, a spread of thresholds and all TSLC
//! variants.
//!
//! A second oracle, [`reference_point`], rebuilds every staging point of
//! every benchmark's replay from public per-block calls
//! (`SlcCompressor::stored_bursts_with`, and `Mag::bursts_for_bits` over
//! `E2mc::size_bits`): it must leave the same bytes and the same burst
//! cells.

use proptest::prelude::*;
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::{Block, BlockCompressor, Mag, BLOCK_BYTES};
use slc_core::slc::SlcVariant;
use slc_sim::mc::{BurstsMap, BurstsSource};
use slc_sim::{GpuMemory, RegionBlocks};
use slc_workloads::scheme::{BurstsAccumulator, Scheme};
use slc_workloads::{all_workloads, Harness, Scale};
use std::sync::OnceLock;

/// One trained table for the whole test binary (training is expensive and
/// the contract is per-table anyway; `E2mc::clone` is an Arc bump).
fn trained() -> E2mc {
    static TABLE: OnceLock<E2mc> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            let bytes: Vec<u8> = (0..1u32 << 15)
                .flat_map(|i| (250.0f32 + (i % 2048) as f32 * 0.5).to_le_bytes())
                .collect();
            E2mc::train_on_bytes(&bytes, &E2mcConfig::default())
        })
        .clone()
}

/// Deterministic per-block PRNG (SplitMix64).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A block whose compressibility is steered by `kind`: in-distribution
/// floats (lossless/lossy candidates), slightly perturbed floats (the
/// just-above-a-MAG-multiple mass SLC targets) or raw noise (verbatim).
fn block_for(seed: u64, kind: u8) -> Block {
    let mut b = [0u8; BLOCK_BYTES];
    match kind % 3 {
        0 => {
            for (i, c) in b.chunks_exact_mut(4).enumerate() {
                let v = 250.0f32 + ((mix(seed) as u32 % 2048) as f32 + i as f32) * 0.5;
                c.copy_from_slice(&v.to_le_bytes());
            }
        }
        1 => {
            for (i, c) in b.chunks_exact_mut(4).enumerate() {
                let noise =
                    if i % 5 == 0 { (mix(seed ^ i as u64) & 0xff) as f32 * 1e-3 } else { 0.0 };
                let v = 250.0f32 + (i as f32) * 0.5 + noise;
                c.copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => {
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = (mix(seed.wrapping_mul(129) ^ i as u64) >> 33) as u8;
            }
        }
    }
    b
}

/// Builds a random memory image: interleaved approx/exact regions filled
/// with blocks of mixed compressibility.
fn build_memory(region_blocks: &[(bool, u8)], seed: u64) -> GpuMemory {
    let mut mem = GpuMemory::new();
    let mut fills = Vec::new();
    for (r, &(approx, blocks)) in region_blocks.iter().enumerate() {
        let blocks = usize::from(blocks.clamp(1, 4));
        let ptr = mem.malloc(if approx { "approx" } else { "exact" }, blocks * BLOCK_BYTES, approx);
        fills.push((ptr, blocks, r as u64));
    }
    for (ptr, blocks, r) in fills {
        for i in 0..blocks {
            let s = mix(seed ^ (r << 32) ^ i as u64);
            let block = block_for(s, (s >> 17) as u8);
            let floats: Vec<f32> =
                block.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            mem.write_f32(slc_sim::DevicePtr(ptr.0 + (i * BLOCK_BYTES) as u64), &floats);
        }
    }
    mem
}

/// The oracle: bursts of the form an actual encode of `block` stores —
/// SLC's own output for an approximable block under an SLC scheme, the
/// E2MC bitstream otherwise. Nothing here reads a `BlockAnalysis`.
fn encoded_bursts(scheme: &Scheme, block: &Block, mag: Mag, approximable: bool) -> u32 {
    match scheme {
        Scheme::Slc(slc) if approximable => slc.compress(block).bursts(),
        _ => {
            let e2mc = scheme.e2mc().expect("compressed schemes carry a table");
            let (bits, _) = e2mc.compress_into(block, &mut Vec::new());
            mag.bursts_for_bits(bits, BLOCK_BYTES as u32)
        }
    }
}

/// One staging point of `mem` from encodes alone: every approximable
/// block an SLC scheme stores lossy becomes what its decode returns, then
/// every block costs the bursts its encode stores. Returns those bursts,
/// indexed by block address.
fn encoded_point(scheme: &Scheme, mem: &mut GpuMemory, mag: Mag) -> Vec<u32> {
    if let Scheme::Slc(slc) = scheme {
        for (_, blocks) in mem.regions_mut() {
            let RegionBlocks::Approx(blocks) = blocks else { continue };
            for block in blocks {
                *block = slc.decompress(&slc.compress(block));
            }
        }
    }
    mem.blocks_with_addr()
        .map(|(region, _, block)| encoded_bursts(scheme, block, mag, region.safe_to_approx))
        .collect()
}

/// [`encoded_point`] at every point, folded block by block.
fn encoded_map(scheme: &Scheme, points: &mut [GpuMemory], mag: Mag) -> BurstsMap {
    let mut acc = BurstsAccumulator::new(mag);
    for mem in points {
        for (addr, bursts) in (0..).zip(encoded_point(scheme, mem, mag)) {
            acc.record_one(addr, bursts);
        }
    }
    acc.into_map()
}

/// The walk at every point.
fn walked_map(scheme: &Scheme, points: &mut [GpuMemory], mag: Mag) -> BurstsMap {
    let mut acc = BurstsAccumulator::new(mag);
    for mem in points {
        scheme.stage_and_record(mem, &mut acc);
    }
    acc.into_map()
}

/// E2MC and the three TSLC variants at `mag` and `threshold`.
fn schemes(e2mc: &E2mc, mag: Mag, threshold: u32) -> Vec<Scheme> {
    let mut schemes = vec![Scheme::E2mc(e2mc.clone())];
    for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
        schemes.push(Scheme::slc(e2mc.clone(), mag, threshold, variant));
    }
    schemes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_analysis_sweep_is_bit_identical_to_direct(
        seed in any::<u64>(),
        regions in proptest::collection::vec((any::<bool>(), 1u8..=4), 1..4),
        threshold_sel in 0usize..4,
    ) {
        let e2mc = trained();
        let mem = build_memory(&regions, seed);
        for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
            let threshold = [0, 4, mag.bytes() / 2, mag.bytes()][threshold_sel];
            for scheme in &schemes(&e2mc, mag, threshold) {
                let (mut walked, mut encoded) = ([mem.clone()], [mem.clone()]);
                let map = walked_map(scheme, &mut walked, mag);
                prop_assert_eq!(
                    &map, &encoded_map(scheme, &mut encoded, mag),
                    "mag {:?} threshold {} scheme {:?} diverged", mag, threshold, scheme.kind()
                );
                prop_assert!(walked[0].blocks_with_addr().eq(encoded[0].blocks_with_addr()));
            }
        }
    }

    #[test]
    fn prop_per_block_decision_sweep_matches_reencoding(
        seed in any::<u64>(),
        kind in any::<u8>(),
        threshold in 0u32..=32,
    ) {
        let e2mc = trained();
        let block = block_for(seed, kind);
        let analysis = e2mc.analyze(&block);
        for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
            for scheme in &schemes(&e2mc, mag, threshold) {
                if let Scheme::Slc(slc) = scheme {
                    prop_assert_eq!(
                        slc.stored_bursts_with(&analysis),
                        encoded_bursts(scheme, &block, mag, true)
                    );
                }
                prop_assert_eq!(
                    mag.bursts_for_bits(e2mc.size_bits(&block), BLOCK_BYTES as u32),
                    encoded_bursts(scheme, &block, mag, false)
                );
            }
        }
    }
}

/// The retired `HashMap` accumulator, kept as the reference the
/// address-indexed vectors must reproduce bit-for-bit: per-block (sum,
/// folds) keyed by address, folded into rounded means over the **full**
/// recorded population, in ascending address order.
fn hashmap_reference(points: &[Vec<u32>], mag: Mag) -> Vec<(u64, u32)> {
    use std::collections::HashMap;
    let max = mag.bursts_for_bytes(BLOCK_BYTES as u32, BLOCK_BYTES as u32);
    let mut sums: HashMap<u64, (u64, u32)> = HashMap::new();
    for point in points {
        for (addr, &bursts) in (0..).zip(point) {
            let e = sums.entry(addr).or_insert((0, 0));
            e.0 += u64::from(bursts);
            e.1 += 1;
        }
    }
    let mut rows: Vec<(u64, u32)> = sums
        .into_iter()
        .map(|(addr, (sum, n))| (addr, ((sum as f64 / f64::from(n)).round() as u32).clamp(1, max)))
        .collect();
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The address-indexed accumulator/map must be bit-identical to the HashMap
    /// accumulation it replaced: same mapped addresses, same per-block
    /// means, same burst answers, same population mean — across random
    /// multi-snapshot folds, schemes, MAGs and thresholds.
    #[test]
    fn prop_dense_accumulator_matches_hashmap_reference(
        seed in any::<u64>(),
        regions in proptest::collection::vec((any::<bool>(), 1u8..=4), 1..4),
        snapshots in 1usize..=3,
        threshold_sel in 0usize..4,
    ) {
        let e2mc = trained();
        for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
            let threshold = [0, 4, mag.bytes() / 2, mag.bytes()][threshold_sel];
            // Same region layout, different contents per snapshot: the
            // evolving-memory shape the harness folds across kernels.
            let images: Vec<GpuMemory> = (0..snapshots)
                .map(|s| build_memory(&regions, seed ^ ((s as u64) << 48)))
                .collect();
            for scheme in &schemes(&e2mc, mag, threshold) {
                let map = walked_map(scheme, &mut images.clone(), mag);
                let points: Vec<Vec<u32>> =
                    images.clone().iter_mut().map(|m| encoded_point(scheme, m, mag)).collect();
                let reference = hashmap_reference(&points, mag);
                let dense: Vec<(u64, u32)> = map.iter().collect();
                prop_assert_eq!(&dense, &reference, "mapped content diverged");
                prop_assert_eq!(map.len(), reference.len(), "population diverged");
                let mean: f64 = reference.iter().map(|&(_, b)| f64::from(b)).sum::<f64>()
                    / reference.len() as f64;
                prop_assert!((map.mean_bursts() - mean).abs() < 1e-12);
                for &(addr, bursts) in &reference {
                    prop_assert_eq!(map.bursts(addr), bursts, "addr {}", addr);
                }
            }
        }
    }
}

#[test]
fn corpus_exercises_every_storage_mode() {
    // The equivalence proofs above are only meaningful if the generated
    // blocks actually spread across uncompressed, lossless *and* lossy
    // decisions; pin that the generator produces all three.
    use slc_core::slc::{SlcCompressor, SlcConfig, StoredKind};
    let e2mc = trained();
    let slc = SlcCompressor::new(e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt));
    let mut seen = [0usize; 3];
    for seed in 0..512u64 {
        let block = block_for(mix(seed), (mix(seed) >> 7) as u8);
        match slc.compress(&block).kind() {
            StoredKind::Uncompressed => seen[0] += 1,
            StoredKind::Lossless => seen[1] += 1,
            StoredKind::Lossy { .. } => seen[2] += 1,
        }
    }
    assert!(seen.iter().all(|&n| n > 10), "storage-mode mix too thin: {seen:?}");
}

#[test]
fn staged_snapshots_match_direct_accumulation_over_boundaries() {
    // Multi-snapshot folding (the harness' per-boundary mean) must agree
    // between the walk and stage + encoding every block, including
    // across evolving memory states.
    let e2mc = trained();
    for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
        let scheme = Scheme::slc(e2mc.clone(), Mag::GDDR5, 16, variant);
        let regions = [(true, 3u8), (false, 2u8), (true, 2u8)];
        let mut walked_mem = build_memory(&regions, 99);
        let mut encoded_mem = build_memory(&regions, 99);
        let mut walked = BurstsAccumulator::new(Mag::GDDR5);
        let mut encoded = BurstsAccumulator::new(Mag::GDDR5);
        for round in 0..3u64 {
            scheme.stage_and_record(&mut walked_mem, &mut walked);
            for (addr, bursts) in (0..).zip(encoded_point(&scheme, &mut encoded_mem, Mag::GDDR5)) {
                encoded.record_one(addr, bursts);
            }
            // Perturb both memories identically between boundaries, as a
            // kernel would.
            for mem in [&mut walked_mem, &mut encoded_mem] {
                let vals: Vec<f32> =
                    (0..32).map(|i| 250.0 + (i as u64 + round) as f32 * 0.5).collect();
                mem.write_f32(slc_sim::DevicePtr(0), &vals);
            }
        }
        assert_eq!(walked.snapshots(), 3);
        assert_eq!(walked.into_map(), encoded.into_map(), "{variant:?}");
    }
}

/// One staging point of `mem` from public per-block calls only, no walk:
/// analyse, decide, encode and decode a lossy block, analyse what was
/// written, price that.
fn reference_point(scheme: &Scheme, mem: &mut GpuMemory, acc: &mut BurstsAccumulator) {
    let Scheme::Slc(slc) = scheme else { unreachable!("the oracle covers the TSLC variants") };
    let mag = slc.config().mag();
    for (region, blocks) in mem.regions_mut() {
        let blocks = match blocks {
            RegionBlocks::Approx(blocks) => blocks,
            RegionBlocks::Exact(blocks) => {
                for (i, block) in blocks.iter().enumerate() {
                    let bursts =
                        mag.bursts_for_bits(slc.e2mc().size_bits(block), BLOCK_BYTES as u32);
                    acc.record_one(region.block_addr(i), bursts);
                }
                continue;
            }
        };
        for (i, block) in blocks.iter_mut().enumerate() {
            let addr = region.block_addr(i);
            let analysis = slc.analysis(block);
            let stored = if slc.stored_bits_with(&analysis).1 {
                *block = slc.decompress(&slc.compress_with(block, &analysis));
                slc.analysis(block)
            } else {
                analysis
            };
            acc.record_one(addr, slc.stored_bursts_with(&stored));
        }
    }
}

#[test]
fn the_streamed_walk_equals_per_block_calls_at_every_staging_point() {
    let harness = Harness::new(Scale::Tiny);
    let mag = harness.config.mag();
    let mut points = 0;
    for w in all_workloads(Scale::Tiny) {
        let a = harness.prepare(w.as_ref());
        for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
            let scheme = Scheme::slc(a.e2mc.clone(), mag, 16, variant);
            let at = format!("{} {}", w.name(), variant.label());
            let mut acc = BurstsAccumulator::new(mag);
            let mut reference_acc = BurstsAccumulator::new(mag);
            let mut stage = |mem: &mut GpuMemory| {
                let mut reference = mem.clone();
                scheme.stage_and_record(mem, &mut acc);
                reference_point(&scheme, &mut reference, &mut reference_acc);
                for region in reference.regions() {
                    let same = mem.region_bytes(region) == reference.region_bytes(region);
                    assert!(same, "{at}, point {points}: region {} differs", region.label);
                }
                let recorded = acc.clone().into_map();
                assert_eq!(recorded, reference_acc.clone().into_map(), "{at}, point {points}");
                points += 1;
            };
            w.execute(&mut a.initial_memory(), &mut stage);
        }
    }
    assert!(points > 3 * 9, "a replay stages at every kernel boundary: {points} points");
}
