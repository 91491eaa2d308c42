//! The seeded mixed corpus of the `mixed_*` workloads.
//!
//! 128 B blocks are drawn in runs of 1–1024 blocks from four classes, so
//! a 64 KiB engine chunk (512 blocks) can be all of one class (long noise
//! runs make chunks the engine stores raw) or a mix (coded chunks with
//! verbatim blocks inside). Each class has a fixed quota of blocks and a
//! run's class is drawn in proportion to the quotas left (an urn without
//! replacement), so two seeds give different bytes in a different order
//! with the same class mix, and throughput stays comparable across seeds.

use slc_compress::BLOCK_BYTES;

/// splitmix64: the benchmark's only randomness source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// All-zero blocks.
    Zero,
    /// 32 `u32` words within 256 of a per-block base.
    SmallDelta,
    /// A slowly drifting `f32` series that continues across the run.
    SmoothF32,
    /// Uniform random bytes.
    Noise,
}

pub const CLASSES: [Class; 4] = [Class::Zero, Class::SmallDelta, Class::SmoothF32, Class::Noise];

/// Target share of blocks per class, in [`CLASSES`] order.
pub const TARGET_SHARE: [f64; 4] = [0.15, 0.35, 0.30, 0.20];

pub const MAX_RUN_BLOCKS: u64 = 1024;

/// Generates `streams` streams of `stream_bytes` bytes each from `seed`;
/// also returns the blocks generated per class, in [`CLASSES`] order.
pub fn generate(seed: u64, streams: usize, stream_bytes: usize) -> (Vec<Vec<u8>>, [u64; 4]) {
    assert!(stream_bytes > 0 && stream_bytes.is_multiple_of(BLOCK_BYTES));
    let total_blocks = (streams * stream_bytes / BLOCK_BYTES) as u64;
    let mut rng = Rng::new(seed ^ 0x6d69_7865_645f_6331); // "mixed_c1"
    let mut bytes = Vec::with_capacity(streams * stream_bytes);
    // Quotas round down; the last class takes the remainder.
    let mut left: [u64; 4] =
        std::array::from_fn(|c| (TARGET_SHARE[c] * total_blocks as f64) as u64);
    left[3] += total_blocks - left.iter().sum::<u64>();
    let mut class_blocks = [0u64; 4];
    while left.iter().any(|&q| q > 0) {
        let mut pick = rng.below(left.iter().sum());
        let mut class = 0;
        while pick >= left[class] {
            pick -= left[class];
            class += 1;
        }
        let run = (1 + rng.below(MAX_RUN_BLOCKS)).min(left[class]);
        fill_run(&mut rng, CLASSES[class], run, &mut bytes);
        left[class] -= run;
        class_blocks[class] += run;
    }
    (bytes.chunks_exact(stream_bytes).map(<[u8]>::to_vec).collect(), class_blocks)
}

fn fill_run(rng: &mut Rng, class: Class, blocks: u64, out: &mut Vec<u8>) {
    match class {
        Class::Zero => out.resize(out.len() + blocks as usize * BLOCK_BYTES, 0),
        Class::SmallDelta => {
            for _ in 0..blocks {
                let base = rng.next_u64() as u32 & 0xffff_ff00;
                for _ in 0..BLOCK_BYTES / 8 {
                    let r = rng.next_u64();
                    out.extend_from_slice(&(base + (r & 0xff) as u32).to_le_bytes());
                    out.extend_from_slice(&(base + ((r >> 8) & 0xff) as u32).to_le_bytes());
                }
            }
        }
        Class::SmoothF32 => {
            let mut x = 1.0 + rng.unit() as f32 * 1000.0;
            for _ in 0..blocks as usize * BLOCK_BYTES / 4 {
                // A relative step of at most 2^-12: neighbours share sign,
                // exponent and the top mantissa bits.
                x *= 1.0 + (rng.unit() as f32 - 0.5) / 2048.0;
                if !(1.0..1.0e6).contains(&x) {
                    x = 1.0 + rng.unit() as f32 * 1000.0;
                }
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Class::Noise => {
            for _ in 0..blocks as usize * BLOCK_BYTES / 8 {
                out.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAMS: usize = 4;
    const STREAM_BYTES: usize = 1 << 20;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = generate(42, STREAMS, STREAM_BYTES);
        assert_eq!(a, generate(42, STREAMS, STREAM_BYTES));
        assert_ne!(a.0, generate(43, STREAMS, STREAM_BYTES).0);
    }

    #[test]
    fn geometry_is_exact() {
        let (streams, class_blocks) = generate(1, STREAMS, STREAM_BYTES);
        assert_eq!(streams.len(), STREAMS);
        assert!(streams.iter().all(|s| s.len() == STREAM_BYTES));
        assert_eq!(class_blocks.iter().sum::<u64>() as usize * BLOCK_BYTES, STREAMS * STREAM_BYTES);
    }

    #[test]
    fn class_shares_stay_within_two_points_of_target() {
        // The smoke-sized corpus (4 MiB), where one run is 3 % of it.
        for seed in [1, 7, 42, 1234, 99_999] {
            let (_, class_blocks) = generate(seed, STREAMS, STREAM_BYTES);
            let total: u64 = class_blocks.iter().sum();
            for (class, (&blocks, &target)) in class_blocks.iter().zip(&TARGET_SHARE).enumerate() {
                let share = blocks as f64 / total as f64;
                assert!(
                    (share - target).abs() <= 0.02,
                    "seed {seed}: class {class} share {share:.4} vs target {target}"
                );
            }
        }
    }

    #[test]
    fn zero_runs_are_zero_and_noise_is_not() {
        let (streams, class_blocks) = generate(5, 1, STREAM_BYTES);
        let zero_blocks =
            streams[0].chunks_exact(BLOCK_BYTES).filter(|b| b.iter().all(|&x| x == 0));
        // Only the Zero class can emit an all-zero block.
        assert_eq!(zero_blocks.count() as u64, class_blocks[0]);
    }
}
