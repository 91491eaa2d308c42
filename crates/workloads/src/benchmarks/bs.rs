//! BS — Black-Scholes European options pricing (CUDA SDK).
//!
//! Numeric output, MRE metric, 4 approximable regions: the three input
//! parameter arrays and the call-price output; the put-price output is
//! left exact (Table III: #AR = 4).

use super::{zip_sweep, ArraySpec};
use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use slc_sim::trace::TraceBuilder;
use slc_sim::{DevicePtr, GpuMemory, Trace};

/// The Black-Scholes benchmark.
#[derive(Debug, Clone)]
pub struct Bs {
    options: usize,
}

impl Bs {
    /// Creates the benchmark at `scale` (paper: 4 M options).
    pub fn new(scale: Scale) -> Self {
        Self { options: scale.pick(8 << 10, 256 << 10, 4 << 20) }
    }

    fn ptrs(&self) -> [DevicePtr; 5] {
        // Allocation order is fixed: price, strike, years, call, put.
        let n = self.options as u64 * 4;
        [DevicePtr(0), DevicePtr(n), DevicePtr(2 * n), DevicePtr(3 * n), DevicePtr(4 * n)]
    }
}

/// Cumulative normal distribution (Abramowitz & Stegun 7.1.26 polynomial),
/// matching the CUDA SDK kernel.
fn cnd(d: f32) -> f32 {
    const A1: f32 = 0.319_381_53;
    const A2: f32 = -0.356_563_78;
    const A3: f32 = 1.781_477_9;
    const A4: f32 = -1.821_255_9;
    const A5: f32 = 1.330_274_5;
    const RSQRT2PI: f32 = 0.398_942_3;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let c = RSQRT2PI * (-0.5 * d * d).exp() * poly;
    if d > 0.0 {
        1.0 - c
    } else {
        c
    }
}

/// One option: returns (call, put).
fn black_scholes(s: f32, x: f32, t: f32, r: f32, v: f32) -> (f32, f32) {
    let sqrt_t = t.sqrt();
    let d1 = ((s / x).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    let cnd_d1 = cnd(d1);
    let cnd_d2 = cnd(d2);
    let exp_rt = (-r * t).exp();
    let call = s * cnd_d1 - x * exp_rt * cnd_d2;
    let put = x * exp_rt * (1.0 - cnd_d2) - s * (1.0 - cnd_d1);
    (call, put)
}

const RISKFREE: f32 = 0.02;
const VOLATILITY: f32 = 0.30;

impl Workload for Bs {
    fn name(&self) -> &'static str {
        "BS"
    }

    fn description(&self) -> &'static str {
        "Options pricing"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::Mre
    }

    fn approx_regions(&self) -> usize {
        4
    }

    fn input_description(&self) -> String {
        format!("{} options", self.options)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let n = self.options;
        let bytes = n * 4;
        let price = mem.malloc("stock_price", bytes, true);
        let strike = mem.malloc("option_strike", bytes, true);
        let years = mem.malloc("option_years", bytes, true);
        let _call = mem.malloc("call_result", bytes, true);
        let _put = mem.malloc("put_result", bytes, false);
        // CUDA SDK input ranges. Prices and strikes sit on exchange
        // grids (1/32 and 1/4 ticks); expiries are continuous, so the
        // years array and both outputs stay essentially incompressible.
        let mut s = gen::uniform_vec(&mut gen::rng(seed, 0), n, 5.0, 30.0);
        gen::dither(&mut s, 1.0 / 32.0, 1.0 / 65536.0, 0.8, &mut gen::rng(seed, 8));
        mem.write_f32(price, &s);
        let mut x = gen::uniform_vec(&mut gen::rng(seed, 1), n, 1.0, 100.0);
        gen::dither(&mut x, 0.25, 1.0 / 65536.0, 0.8, &mut gen::rng(seed, 9));
        mem.write_f32(strike, &x);
        mem.write_f32(years, &gen::uniform_vec(&mut gen::rng(seed, 2), n, 0.25, 10.0));
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let [price, strike, years, call, put] = self.ptrs();
        stage(mem); // inputs land in DRAM compressed
        let n = self.options;
        let ([s, x, t], [mut calls, mut puts]) =
            mem.launch([(price, n), (strike, n), (years, n)], [(call, n), (put, n)]);
        for i in 0..n {
            let (c, p) = black_scholes(s.get(i), x.get(i), t.get(i), RISKFREE, VOLATILITY);
            calls.set(i, c);
            puts.set(i, p);
        }
        stage(mem); // outputs written back through the compressor
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        let [.., call, put] = self.ptrs();
        vec![(call, self.options), (put, self.options)]
    }

    fn trace(&self, sms: usize) -> Trace {
        let [price, strike, years, call, put] = self.ptrs();
        let mut b = TraceBuilder::new(sms);
        let inputs =
            [ArraySpec::new(price, 4), ArraySpec::new(strike, 4), ArraySpec::new(years, 4)];
        let outputs = [ArraySpec::new(call, 4), ArraySpec::new(put, 4)];
        // exp/ln/sqrt-heavy kernel: a few cycles of math per block.
        zip_sweep(&mut b, self.options, 512, &inputs, &outputs, 4);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_are_sane() {
        let (call, put) = black_scholes(20.0, 20.0, 1.0, RISKFREE, VOLATILITY);
        assert!(call > 0.0 && put > 0.0);
        // Put-call parity: C - P = S - X e^{-rT}.
        let parity = call - put - (20.0 - 20.0 * (-RISKFREE * 1.0f32).exp());
        assert!(parity.abs() < 1e-3, "parity violation {parity}");
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic() {
        let (call, _) = black_scholes(30.0, 1.0, 0.25, RISKFREE, VOLATILITY);
        assert!((call - (30.0 - 1.0 * (-RISKFREE * 0.25f32).exp())).abs() < 1e-2);
    }

    #[test]
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-6);
        assert!(cnd(5.0) > 0.999);
        assert!(cnd(-5.0) < 0.001);
        assert!((cnd(1.0) + cnd(-1.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pipeline_runs_and_outputs() {
        let bs = Bs::new(Scale::Tiny);
        let mut mem = bs.build(3);
        let mut noop = |_: &mut GpuMemory| {};
        bs.execute(&mut mem, &mut noop);
        let out = bs.output(&mem);
        assert_eq!(out.len(), 2 * 8192);
        assert!(out.iter().all(|v| v.is_finite()));
        assert!(out.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn trace_covers_all_arrays() {
        let bs = Bs::new(Scale::Tiny);
        let t = bs.trace(16);
        let blocks: std::collections::HashSet<u64> = t.touched_blocks().collect();
        // 5 arrays x 8192 f32 = 5 x 256 blocks.
        assert_eq!(blocks.len(), 5 * 256);
    }

    #[test]
    fn staging_callback_fires_twice() {
        let bs = Bs::new(Scale::Tiny);
        let mut mem = bs.build(3);
        let mut count = 0usize;
        let mut counter = |_: &mut GpuMemory| count += 1;
        bs.execute(&mut mem, &mut counter);
        assert_eq!(count, 2);
    }
}
