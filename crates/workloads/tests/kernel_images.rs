//! What the kernels leave in device memory, pinned byte for byte: a hash
//! of the whole image after [`Workload::execute`] for the nine benchmarks
//! and two seeds at `Scale::Tiny`, once with staging that does nothing
//! and once with staging that rewrites blocks, so a kernel that computes
//! in place is held to the values, the order of operations and the
//! staged inputs of the kernels the goldens were recorded from (parent
//! commit `21f5e01`, whose kernels copied every array out and back).
//! Finer than the figures: `slc run all`'s text rounds to three decimals.

use slc_sim::{GpuMemory, RegionBlocks};
use slc_workloads::{all_workloads, Scale, Workload};

/// FNV-1a over every region's bytes, in table order.
fn image_hash(mem: &GpuMemory) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in mem.regions().iter().flat_map(|r| mem.region_bytes(r)) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `call`-th staging point of a lossy stand-in: in every approximable
/// region, one block (a different one each call) has the low 12 mantissa
/// bits of every word cleared and bit 12 flipped. Not idempotent, like
/// the real staging walk, so a kernel that reads an array later than the
/// recorded one did sees different values.
fn perturb(mem: &mut GpuMemory, call: usize) {
    for (_, blocks) in mem.regions_mut() {
        let RegionBlocks::Approx(blocks) = blocks else { continue };
        let block = 7 * call % blocks.len();
        for word in blocks[block].chunks_exact_mut(4) {
            let bits = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            word.copy_from_slice(&((bits & !0xfff) ^ 0x1000).to_le_bytes());
        }
    }
}

/// `(exact, perturbed)` image hashes of one benchmark at one seed.
fn hashes(w: &dyn Workload, seed: u64) -> (u64, u64) {
    let mut exact = w.build(seed);
    w.execute(&mut exact, &mut |_| {});
    let mut staged = w.build(seed);
    let mut call = 0;
    w.execute(&mut staged, &mut |mem| {
        perturb(mem, call);
        call += 1;
    });
    (image_hash(&exact), image_hash(&staged))
}

/// Benchmark, then `(exact, perturbed)` at seed 42 and at seed 7.
const GOLDEN: [(&str, [(u64, u64); 2]); 9] = [
    ("JM", [(0xfa6e33a3b6fabfcd, 0x50c0439af4a80d6b), (0x8d231b98fefe8923, 0xb58e4fc0559d7791)]),
    ("BS", [(0x9ac8ca6cb3c147df, 0x61f41cf50a87af3b), (0x719a9d4d619800b6, 0x5ce112dd7397e4bd)]),
    ("DCT", [(0x01b88f233b7bfb50, 0x12a1a25332f2a1e1), (0xde5f0f44a0c10c24, 0xad23a2db526e4e62)]),
    ("FWT", [(0x865853f454700a08, 0xfbb308adbe2bea39), (0x1c2630df255b10cd, 0xaaafe6e1f86e1601)]),
    ("TP", [(0x6a6c6a6124e341e9, 0x089c597d6ce2f1c5), (0x403f5527e188f635, 0x0fb9fb6cfb85e9a4)]),
    ("BP", [(0x5395dd0660165aa4, 0x20f54a646d8be4c7), (0x52e3b33650ad6e80, 0x68603202b8239127)]),
    ("NN", [(0x59d8a0a78b5aa848, 0x0bf2a1fe12630534), (0x883992ef2070177c, 0x8f76e9c7fff572eb)]),
    ("SRAD1", [(0x4dc4119d944c0e19, 0x1471e84c56318eea), (0xd578008a32a5f93f, 0xd1862a380318d590)]),
    ("SRAD2", [(0x2241d750360a929f, 0x618e57b4d025a145), (0x8981ac4018426b42, 0xaa5e14a08611ebac)]),
];

#[test]
fn executed_images_match_the_recorded_kernels() {
    let got: Vec<(&str, [(u64, u64); 2])> = all_workloads(Scale::Tiny)
        .iter()
        .map(|w| (w.name(), [42, 7].map(|seed| hashes(w.as_ref(), seed))))
        .collect();
    for (name, per_seed) in &got {
        for (exact, staged) in per_seed {
            assert_ne!(exact, staged, "{name}: the perturbation reached nothing");
        }
    }
    let table: String = got
        .iter()
        .map(|(name, [a, b])| {
            format!(
                "    ({name:?}, [({:#018x}, {:#018x}), ({:#018x}, {:#018x})]),\n",
                a.0, a.1, b.0, b.1
            )
        })
        .collect();
    assert!(got == GOLDEN, "the kernels now leave:\n{table}");
}
