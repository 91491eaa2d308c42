//! FWT — fast Walsh-Hadamard transform (CUDA SDK).
//!
//! Signal-processing output, NRMSE metric, 2 approximable regions: the
//! ping-pong data buffers (Table III: #AR = 2). The transform runs as
//! four batched kernel launches, each applying a group of butterfly
//! stages, with a DRAM round-trip between launches — so approximation
//! error injected early propagates through later stages, as on real
//! hardware.

use super::{zip_sweep, ArraySpec};
use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use slc_sim::trace::TraceBuilder;
use slc_sim::{DevicePtr, F32ViewMut, GpuMemory, Trace};

/// Number of batched kernel launches (grouped butterfly stages).
const PASSES: usize = 4;

/// The fast Walsh transform benchmark.
#[derive(Debug, Clone)]
pub struct Fwt {
    n: usize,
}

impl Fwt {
    /// Creates the benchmark at `scale` (paper: 8 M elements).
    pub fn new(scale: Scale) -> Self {
        Self { n: scale.pick(1 << 12, 1 << 18, 1 << 23) }
    }

    fn ptrs(&self) -> (DevicePtr, DevicePtr) {
        let bytes = (self.n * 4) as u64;
        (DevicePtr(0), DevicePtr(bytes))
    }

    fn stages(&self) -> usize {
        self.n.trailing_zeros() as usize
    }

    /// Stage ranges of each pass: stages split as evenly as possible.
    fn pass_ranges(&self) -> Vec<(usize, usize)> {
        let total = self.stages();
        let per = total.div_ceil(PASSES);
        (0..PASSES).map(|p| (p * per, ((p + 1) * per).min(total))).filter(|(a, b)| a < b).collect()
    }
}

/// Applies Walsh-Hadamard butterfly stages `[from, to)` in place.
fn wht_stages(data: &mut F32ViewMut<'_>, from: usize, to: usize) {
    let n = data.len();
    for s in from..to {
        let h = 1usize << s;
        let mut i = 0;
        while i < n {
            for j in i..i + h {
                let a = data.get(j);
                let b = data.get(j + h);
                data.set(j, a + b);
                data.set(j + h, a - b);
            }
            i += 2 * h;
        }
    }
}

impl Workload for Fwt {
    fn name(&self) -> &'static str {
        "FWT"
    }

    fn description(&self) -> &'static str {
        "Fast Walsh transform"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::Nrmse
    }

    fn approx_regions(&self) -> usize {
        2
    }

    fn input_description(&self) -> String {
        format!("{} elements", self.n)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let bytes = self.n * 4;
        let data = mem.malloc("data", bytes, true);
        let _pong = mem.malloc("pong", bytes, true);
        // Audio-like fixed-point samples (1/16 steps). Butterfly sums stay
        // on the same grid, so intermediate passes keep a bounded symbol
        // alphabet and compressibility degrades gracefully rather than
        // collapsing when approximation perturbs a value.
        let mut signal = gen::noisy_field(&mut gen::rng(seed, 0), self.n, 0.0, 96.0, 0.25);
        gen::dither(&mut signal, 0.5, 1.0 / 64.0, 0.25, &mut gen::rng(seed, 8));
        mem.write_f32(data, &signal);
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let (data, pong) = self.ptrs();
        stage(mem);
        // Ping-pong between the buffers, staging after every launch.
        let mut src = data;
        let mut dst = pong;
        for (from, to) in self.pass_ranges() {
            // One launch: the source copied to the destination, then this
            // pass's butterflies applied there in place.
            let ([input], [mut out]) = mem.launch([(src, self.n)], [(dst, self.n)]);
            out.copy_from(input);
            wht_stages(&mut out, from, to);
            stage(mem);
            std::mem::swap(&mut src, &mut dst);
        }
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        // After an even number of passes the result sits back in `data`;
        // `pass_ranges` always yields PASSES = 4 passes for our sizes.
        let (data, pong) = self.ptrs();
        let final_ptr = if self.pass_ranges().len().is_multiple_of(2) { data } else { pong };
        vec![(final_ptr, self.n)]
    }

    fn trace(&self, sms: usize) -> Trace {
        let (data, pong) = self.ptrs();
        let mut b = TraceBuilder::new(sms);
        let mut src = data;
        let mut dst = pong;
        for _ in self.pass_ranges() {
            zip_sweep(
                &mut b,
                self.n,
                1024,
                &[ArraySpec::new(src, 4)],
                &[ArraySpec::new(dst, 4)],
                2,
            );
            std::mem::swap(&mut src, &mut dst);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `values` uploaded to a device and transformed there by stages
    /// `[0, to)`.
    fn wht(values: &[f32], to: usize) -> Vec<f32> {
        let mut mem = GpuMemory::new();
        let ptr = mem.malloc("data", values.len() * 4, true);
        mem.write_f32(ptr, values);
        let ([], [mut data]) = mem.launch([], [(ptr, values.len())]);
        wht_stages(&mut data, 0, to);
        mem.read_f32(ptr, values.len())
    }

    #[test]
    fn wht_of_impulse_is_constant() {
        let mut data = vec![0.0f32; 8];
        data[0] = 1.0;
        assert_eq!(wht(&data, 3), vec![1.0; 8]);
    }

    #[test]
    fn wht_is_involutive_up_to_n() {
        let orig = [3.0, -1.0, 2.0, 0.5, 7.0, -2.0, 1.5, 4.0];
        let twice = wht(&wht(&orig, 3), 3);
        for (a, b) in twice.iter().zip(&orig) {
            assert!((a / 8.0 - b).abs() < 1e-5);
        }
    }

    #[test]
    fn pipeline_matches_single_shot_transform() {
        let f = Fwt::new(Scale::Tiny);
        let mut mem = f.build(7);
        let (data, _) = f.ptrs();
        let expect = wht(&mem.read_f32(data, 1 << 12), 12);
        let mut noop = |_: &mut GpuMemory| {};
        f.execute(&mut mem, &mut noop);
        assert_eq!(f.output(&mem), expect);
    }

    #[test]
    fn trace_sweeps_each_pass() {
        let f = Fwt::new(Scale::Tiny);
        let t = f.trace(16);
        // 4 passes x (128 load-blocks + 128 store-blocks) for 4096 f32.
        let loads = (0..t.sms())
            .flat_map(|s| t.stream(s))
            .filter(|p| matches!(p.op(), slc_sim::Op::Load(_)))
            .count();
        assert_eq!(loads, 4 * 128);
    }

    #[test]
    fn staging_fires_once_per_pass_plus_upload() {
        let f = Fwt::new(Scale::Tiny);
        let mut mem = f.build(7);
        let mut count = 0usize;
        let mut counter = |_: &mut GpuMemory| count += 1;
        f.execute(&mut mem, &mut counter);
        assert_eq!(count, 1 + PASSES);
    }
}
