//! DCT — 8×8 blocked discrete cosine transform (CUDA SDK `dct8x8`).
//!
//! Image output, image-diff metric, 2 approximable regions: the source
//! image and the coefficient output (Table III: #AR = 2). The input is a
//! quantised (integral-valued) image, which is what makes DCT the most
//! compressible workload of the suite — and, in the paper, the biggest
//! SLC winner at MAG 32 B.

use super::{zip_sweep, ArraySpec};
use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use slc_sim::trace::TraceBuilder;
use slc_sim::{DevicePtr, GpuMemory, Trace};

/// DCT block edge.
const B: usize = 8;

/// The 8×8 DCT benchmark.
#[derive(Debug, Clone)]
pub struct Dct {
    n: usize,
}

impl Dct {
    /// Creates the benchmark at `scale` (paper: 1024 × 1024 image).
    pub fn new(scale: Scale) -> Self {
        Self { n: scale.pick(64, 512, 1024) }
    }

    fn ptrs(&self) -> (DevicePtr, DevicePtr) {
        let bytes = (self.n * self.n * 4) as u64;
        (DevicePtr(0), DevicePtr(bytes))
    }
}

/// DCT-II basis coefficient `c(k) * cos((2x+1) k pi / 16)`.
fn basis(k: usize, x: usize) -> f32 {
    let ck = if k == 0 { (1.0 / B as f32).sqrt() } else { (2.0 / B as f32).sqrt() };
    ck * ((2 * x + 1) as f32 * k as f32 * std::f32::consts::PI / (2.0 * B as f32)).cos()
}

/// The 8×8 table of [`basis`], indexed `k * B + x`.
fn basis_table() -> [f32; B * B] {
    std::array::from_fn(|i| basis(i / B, i % B))
}

/// Forward 8×8 DCT of one block (rows then columns), with `table` from
/// [`basis_table`].
fn dct8x8(block: &[f32; B * B], table: &[f32; B * B]) -> [f32; B * B] {
    let mut tmp = [0.0f32; B * B];
    // Rows.
    for y in 0..B {
        for k in 0..B {
            let mut s = 0.0;
            for x in 0..B {
                s += block[y * B + x] * table[k * B + x];
            }
            tmp[y * B + k] = s;
        }
    }
    // Columns.
    let mut out = [0.0f32; B * B];
    for k in 0..B {
        for x in 0..B {
            let mut s = 0.0;
            for y in 0..B {
                s += tmp[y * B + x] * table[k * B + y];
            }
            out[k * B + x] = s;
        }
    }
    out
}

impl Workload for Dct {
    fn name(&self) -> &'static str {
        "DCT"
    }

    fn description(&self) -> &'static str {
        "Discrete cosine transform"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::ImageDiff
    }

    fn approx_regions(&self) -> usize {
        2
    }

    fn input_description(&self) -> String {
        format!("{}x{} img.", self.n, self.n)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let bytes = self.n * self.n * 4;
        let src = mem.malloc("src_image", bytes, true);
        let _dst = mem.malloc("dct_coeffs", bytes, true);
        // 6-bit grayscale source; a small fraction of pixels carries
        // interpolated sub-level detail (the dither must see the smooth
        // field *before* integer rounding to preserve that detail).
        let mut img = gen::smooth_image(&mut gen::rng(seed, 0), self.n, self.n, 32.0, 30.0);
        gen::dither(&mut img, 1.0, 1.0 / 256.0, 0.04, &mut gen::rng(seed, 8));
        mem.write_f32(src, &img);
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let (src, dst) = self.ptrs();
        stage(mem);
        let px = self.n * self.n;
        let ([img], [mut out]) = mem.launch([(src, px)], [(dst, px)]);
        let table = basis_table();
        for by in (0..self.n).step_by(B) {
            for bx in (0..self.n).step_by(B) {
                let mut block = [0.0f32; B * B];
                for y in 0..B {
                    for x in 0..B {
                        block[y * B + x] = img.get((by + y) * self.n + bx + x);
                    }
                }
                let coeffs = dct8x8(&block, &table);
                for y in 0..B {
                    for x in 0..B {
                        out.set((by + y) * self.n + bx + x, coeffs[y * B + x]);
                    }
                }
            }
        }
        stage(mem);
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        let (_, dst) = self.ptrs();
        vec![(dst, self.n * self.n)]
    }

    fn trace(&self, sms: usize) -> Trace {
        let (src, dst) = self.ptrs();
        let mut b = TraceBuilder::new(sms);
        // One thread block handles a band of 8 image rows: contiguous
        // loads and stores, moderate per-block math.
        zip_sweep(
            &mut b,
            self.n * self.n,
            8 * self.n,
            &[ArraySpec::new(src, 4)],
            &[ArraySpec::new(dst, 4)],
            3,
        );
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let block = [9.0f32; 64];
        let out = dct8x8(&block, &basis_table());
        assert!((out[0] - 9.0 * 8.0).abs() < 1e-3, "DC = 8 * mean, got {}", out[0]);
        for (i, &c) in out.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "AC coefficient {i} = {c}");
        }
    }

    #[test]
    fn dct_preserves_energy() {
        // Parseval: orthonormal transform preserves the L2 norm.
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as f32 * 0.7).sin() * 50.0;
        }
        let out = dct8x8(&block, &basis_table());
        let e_in: f32 = block.iter().map(|v| v * v).sum();
        let e_out: f32 = out.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-4);
    }

    #[test]
    fn pipeline_produces_finite_coefficients() {
        let d = Dct::new(Scale::Tiny);
        let mut mem = d.build(11);
        let mut noop = |_: &mut GpuMemory| {};
        d.execute(&mut mem, &mut noop);
        let out = d.output(&mem);
        assert_eq!(out.len(), 64 * 64);
        assert!(out.iter().all(|v| v.is_finite()));
        // DC coefficients dominate a natural image.
        let dc_mag: f32 = out.iter().step_by(8).map(|v| v.abs()).sum();
        let total: f32 = out.iter().map(|v| v.abs()).sum();
        assert!(dc_mag / total > 0.2);
    }

    #[test]
    fn trace_covers_both_images() {
        let d = Dct::new(Scale::Tiny);
        let t = d.trace(16);
        let blocks: std::collections::HashSet<u64> = t.touched_blocks().collect();
        // 64*64*4 = 16 KB per image = 128 blocks each.
        assert_eq!(blocks.len(), 256);
    }
}
