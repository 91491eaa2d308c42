//! BP — single-hidden-layer perceptron training step (Rodinia `backprop`).
//!
//! Numeric output, MRE metric, 6 approximable regions: the input units,
//! both weight matrices and their momentum buffers, and the hidden
//! activations (Table III: #AR = 6). The dominant traffic is the
//! input-to-hidden weight matrix, streamed once in the forward pass and
//! twice (read + write) in the weight-update pass.

use super::{zip_sweep, ArraySpec};
use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use slc_sim::trace::TraceBuilder;
use slc_sim::{DevicePtr, GpuMemory, Trace};

/// Learning rate (Rodinia's ETA).
const ETA: f32 = 0.3;
/// Momentum (Rodinia's MOMENTUM).
const MOMENTUM: f32 = 0.3;

/// The backprop benchmark.
#[derive(Debug, Clone)]
pub struct Bp {
    n_in: usize,
    n_hidden: usize,
}

impl Bp {
    /// Creates the benchmark at `scale` (paper: 64 K input units).
    pub fn new(scale: Scale) -> Self {
        let n_in = scale.pick(1 << 10, 16 << 10, 64 << 10);
        Self { n_in, n_hidden: 16 }
    }

    /// Allocation order: input, w1, w1_prev, hidden, w2, w2_prev.
    fn ptrs(&self) -> [DevicePtr; 6] {
        let pad = |bytes: usize| bytes.div_ceil(128) * 128;
        let in_b = pad(self.n_in * 4) as u64;
        let w1_b = pad(self.n_in * self.n_hidden * 4) as u64;
        let h_b = pad(self.n_hidden * 4) as u64;
        [
            DevicePtr(0),
            DevicePtr(in_b),
            DevicePtr(in_b + w1_b),
            DevicePtr(in_b + 2 * w1_b),
            DevicePtr(in_b + 2 * w1_b + h_b),
            DevicePtr(in_b + 2 * w1_b + 2 * h_b),
        ]
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Workload for Bp {
    fn name(&self) -> &'static str {
        "BP"
    }

    fn description(&self) -> &'static str {
        "Perceptron training"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::Mre
    }

    fn approx_regions(&self) -> usize {
        6
    }

    fn input_description(&self) -> String {
        format!("{} elements", self.n_in)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let input = mem.malloc("input_units", self.n_in * 4, true);
        let w1 = mem.malloc("input_weights", self.n_in * self.n_hidden * 4, true);
        let _w1p = mem.malloc("input_prev_weights", self.n_in * self.n_hidden * 4, true);
        let _hid = mem.malloc("hidden_units", self.n_hidden * 4, true);
        let w2 = mem.malloc("hidden_weights", self.n_hidden * 4, true);
        let _w2p = mem.malloc("hidden_prev_weights", self.n_hidden * 4, true);
        // Quantised inputs and initial weights (fixed-point-trained nets
        // and normalised features have limited precision).
        let mut x = gen::uniform_vec(&mut gen::rng(seed, 0), self.n_in, 0.0, 1.0);
        gen::quantize(&mut x, 1.0 / 256.0);
        mem.write_f32(input, &x);
        // Trained weight matrices carry structure: magnitudes vary
        // smoothly and signs flip in runs, so neighbouring weights are
        // value-similar (what TSLC-PRED relies on).
        let nw = self.n_in * self.n_hidden;
        let magnitude = gen::noisy_field(&mut gen::rng(seed, 1), nw, 0.024, 0.008, 0.1);
        let sign_field = gen::noisy_field(&mut gen::rng(seed, 3), nw, 0.0, 1.0, 0.05);
        let mut weights1: Vec<f32> = magnitude
            .iter()
            .zip(&sign_field)
            .map(|(&m, &s)| if s >= 0.0 { m.abs() } else { -m.abs() })
            .collect();
        gen::dither(&mut weights1, 1.0 / 2048.0, 1.0 / 65536.0, 0.05, &mut gen::rng(seed, 8));
        mem.write_f32(w1, &weights1);
        mem.write_f32(
            w2,
            &gen::clustered_weights(&mut gen::rng(seed, 2), self.n_hidden, 0.01, 8.0),
        );
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let [input, w1, w1p, hid, w2, w2p] = self.ptrs();
        let (n, h) = (self.n_in, self.n_hidden);
        stage(mem);
        // Kernel 1: layer forward (input -> hidden).
        let ([x, weights1], [mut hidden]) = mem.launch([(input, n), (w1, n * h)], [(hid, h)]);
        for j in 0..h {
            let mut s = 0.0f32;
            for i in 0..n {
                s += x.get(i) * weights1.get(i * h + j);
            }
            hidden.set(j, sigmoid(s / n as f32));
        }
        stage(mem);
        // Kernel 2 (small): output, deltas.
        let ([hidden, weights2], []) = mem.launch([(hid, h), (w2, h)], []);
        let out = sigmoid(hidden.iter().zip(weights2.iter()).map(|(a, b)| a * b).sum::<f32>());
        let target = 2.5f32; // strong training signal: updates exceed the weight grid
        let delta_out = out * (1.0 - out) * (target - out);
        let delta_h: Vec<f32> = hidden
            .iter()
            .zip(weights2.iter())
            .map(|(hj, wj)| hj * (1.0 - hj) * wj * delta_out)
            .collect();
        // Kernel 3: adjust weights with momentum, in place.
        let ([x, hidden], [mut weights1, mut prev1, mut weights2, mut prev2]) =
            mem.launch([(input, n), (hid, h)], [(w1, n * h), (w1p, n * h), (w2, h), (w2p, h)]);
        for i in 0..n {
            let xi = x.get(i);
            for (j, &dh) in delta_h.iter().enumerate() {
                let idx = i * h + j;
                let dw = ETA * dh * xi + MOMENTUM * prev1.get(idx);
                // Fixed-point weight storage: updates snap back to the
                // weight grid, as in quantised training (keeps
                // DRAM-resident weights on the limited alphabet real
                // deployments exhibit).
                weights1.set(idx, gen::snap(weights1.get(idx) + dw, 1.0 / 2048.0));
                prev1.set(idx, gen::snap(dw, 1.0 / 2048.0));
            }
        }
        for j in 0..h {
            let dw = ETA * delta_out * hidden.get(j) + MOMENTUM * prev2.get(j);
            weights2.set(j, weights2.get(j) + dw);
            prev2.set(j, dw);
        }
        stage(mem);
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        let [_, w1, .., w2, _] = self.ptrs();
        vec![(w1, self.n_in * self.n_hidden), (w2, self.n_hidden)]
    }

    fn trace(&self, sms: usize) -> Trace {
        let [input, w1, w1p, hid, ..] = self.ptrs();
        let (n, h) = (self.n_in, self.n_hidden);
        let mut b = TraceBuilder::new(sms);
        // Kernel 1: stream w1 (+ the input vector), store hidden partials.
        zip_sweep(&mut b, n * h, 2048, &[ArraySpec::new(w1, 4)], &[], 8);
        zip_sweep(&mut b, n, 1024, &[ArraySpec::new(input, 4)], &[ArraySpec::new(hid, 4)], 1);
        b.barrier();
        // Kernel 3: read-modify-write w1 and its momentum buffer (the
        // input vector stays resident in cache).
        zip_sweep(
            &mut b,
            n * h,
            2048,
            &[ArraySpec::new(w1, 4), ArraySpec::new(w1p, 4)],
            &[ArraySpec::new(w1, 4), ArraySpec::new(w1p, 4)],
            8,
        );
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_bounded_and_centred() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.99);
        assert!(sigmoid(-10.0) < 0.01);
    }

    #[test]
    fn training_step_changes_weights() {
        let bp = Bp::new(Scale::Tiny);
        let mut mem = bp.build(1);
        let before = bp.output(&mem);
        let mut noop = |_: &mut GpuMemory| {};
        bp.execute(&mut mem, &mut noop);
        let after = bp.output(&mem);
        assert_eq!(before.len(), after.len());
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(changed > before.len() / 20, "only {changed} weights changed");
        assert!(after.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn hidden_units_are_activations() {
        let bp = Bp::new(Scale::Tiny);
        let mut mem = bp.build(2);
        let mut noop = |_: &mut GpuMemory| {};
        bp.execute(&mut mem, &mut noop);
        let hid = bp.ptrs()[3];
        let hidden = mem.read_f32(hid, 16);
        assert!(hidden.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn trace_streams_the_weight_matrix_three_times() {
        let bp = Bp::new(Scale::Tiny);
        let t = bp.trace(16);
        let w1_first = bp.ptrs()[1].0 >> 7;
        let w1_blocks = (1024 * 16 * 4 / 128) as u64;
        let w1_loads = (0..t.sms())
            .flat_map(|s| t.stream(s))
            .filter(|p| {
                matches!(p.op(), slc_sim::Op::Load(b) if (w1_first..w1_first + w1_blocks).contains(&b))
            })
            .count() as u64;
        // Forward pass once + update pass once (the RMW load).
        assert_eq!(w1_loads, 2 * w1_blocks);
    }

    #[test]
    fn staging_fires_three_times() {
        let bp = Bp::new(Scale::Tiny);
        let mut mem = bp.build(1);
        let mut count = 0usize;
        let mut counter = |_: &mut GpuMemory| count += 1;
        bp.execute(&mut mem, &mut counter);
        assert_eq!(count, 3);
    }
}
