//! TP — matrix transpose (CUDA SDK).
//!
//! Signal-processing style output, NRMSE metric, 2 approximable regions:
//! the input and output matrices (Table III: #AR = 2). The trace exhibits
//! transpose's signature strided stores.

use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use slc_sim::trace::TraceBuilder;
use slc_sim::{BlockAddr, DevicePtr, GpuMemory, Trace};

/// The matrix-transpose benchmark (n × n, f32).
#[derive(Debug, Clone)]
pub struct Tp {
    n: usize,
}

/// CUDA SDK transpose tile: 32 × 32.
const TILE: usize = 32;

impl Tp {
    /// Creates the benchmark at `scale` (paper: 1024 × 1024).
    pub fn new(scale: Scale) -> Self {
        Self { n: scale.pick(128, 512, 1024) }
    }

    fn ptrs(&self) -> (DevicePtr, DevicePtr) {
        let bytes = (self.n * self.n * 4) as u64;
        (DevicePtr(0), DevicePtr(bytes))
    }
}

impl Workload for Tp {
    fn name(&self) -> &'static str {
        "TP"
    }

    fn description(&self) -> &'static str {
        "Matrix transpose"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::Nrmse
    }

    fn approx_regions(&self) -> usize {
        2
    }

    fn input_description(&self) -> String {
        format!("{}x{}", self.n, self.n)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let bytes = self.n * self.n * 4;
        let input = mem.malloc("idata", bytes, true);
        let _output = mem.malloc("odata", bytes, true);
        // A smooth field with mild noise at sensor precision (1/4 step):
        // moderately compressible.
        let mut img = gen::noisy_field(&mut gen::rng(seed, 0), self.n * self.n, 60.0, 40.0, 0.05);
        gen::dither(&mut img, 0.25, 1.0 / 16384.0, 0.3, &mut gen::rng(seed, 8));
        mem.write_f32(input, &img);
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let (input, output) = self.ptrs();
        stage(mem);
        let px = self.n * self.n;
        let ([src], [mut dst]) = mem.launch([(input, px)], [(output, px)]);
        for i in 0..self.n {
            for j in 0..self.n {
                dst.set(j * self.n + i, src.get(i * self.n + j));
            }
        }
        stage(mem);
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        let (_, output) = self.ptrs();
        vec![(output, self.n * self.n)]
    }

    fn trace(&self, sms: usize) -> Trace {
        let (input, output) = self.ptrs();
        let mut b = TraceBuilder::new(sms);
        let row_blocks = (self.n * 4 / 128) as u64; // blocks per matrix row
        let in_first = input.0 >> 7;
        let out_first = output.0 >> 7;
        // 32x32 tiles: each tile loads 32 row-fragments of the input
        // (TILE * 4 = 128 B = exactly one block per row) and stores 32
        // strided fragments of the output.
        for ti in (0..self.n).step_by(TILE) {
            for tj in (0..self.n).step_by(TILE) {
                let loads: Vec<BlockAddr> = (0..TILE)
                    .map(|r| in_first + (ti + r) as u64 * row_blocks + (tj / TILE) as u64)
                    .collect();
                let stores: Vec<BlockAddr> = (0..TILE)
                    .map(|r| out_first + (tj + r) as u64 * row_blocks + (ti / TILE) as u64)
                    .collect();
                b.tile(&loads, TILE as u32, &stores);
            }
        }
        b.barrier();
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_is_correct() {
        let tp = Tp::new(Scale::Tiny);
        let mut mem = tp.build(1);
        let (input, _) = tp.ptrs();
        let src = mem.read_f32(input, 128 * 128);
        let mut noop = |_: &mut GpuMemory| {};
        tp.execute(&mut mem, &mut noop);
        let out = tp.output(&mem);
        for i in [0usize, 5, 100] {
            for j in [0usize, 17, 99] {
                assert_eq!(out[j * 128 + i], src[i * 128 + j]);
            }
        }
    }

    #[test]
    fn trace_touches_both_matrices_fully() {
        let tp = Tp::new(Scale::Tiny);
        let t = tp.trace(16);
        let blocks: std::collections::HashSet<u64> = t.touched_blocks().collect();
        // 128*128*4 = 64 KB per matrix = 512 blocks each.
        assert_eq!(blocks.len(), 1024);
    }

    #[test]
    fn stores_are_strided() {
        let tp = Tp::new(Scale::Tiny);
        let t = tp.trace(16);
        // Find two consecutive stores in one stream: they must be a full
        // row apart (strided), not adjacent.
        let row_blocks = (128 * 4 / 128) as u64;
        let mut seen_stride = false;
        for sm in 0..t.sms() {
            let stores: Vec<u64> = t
                .stream(sm)
                .iter()
                .filter_map(|p| if let slc_sim::Op::Store(b) = p.op() { Some(b) } else { None })
                .collect();
            for w in stores.windows(2) {
                if w[1] > w[0] && w[1] - w[0] == row_blocks {
                    seen_stride = true;
                }
            }
        }
        assert!(seen_stride, "transpose stores should stride by a row");
    }

    #[test]
    fn transpose_twice_is_identity() {
        let tp = Tp::new(Scale::Tiny);
        let mut mem = tp.build(2);
        let (input, output) = tp.ptrs();
        let src = mem.read_f32(input, 128 * 128);
        let mut noop = |_: &mut GpuMemory| {};
        tp.execute(&mut mem, &mut noop);
        // Feed the output back as input.
        let once = mem.read_f32(output, 128 * 128);
        mem.write_f32(input, &once);
        tp.execute(&mut mem, &mut noop);
        assert_eq!(mem.read_f32(output, 128 * 128), src);
    }
}
