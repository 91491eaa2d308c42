//! NN — nearest neighbors over geographic records (Rodinia `nn`).
//!
//! Streams latitude/longitude records, computing the Euclidean distance of
//! each to a query point. Numeric output, MRE metric, 2 approximable
//! regions: the records and the distances (Table III: #AR = 2).

use super::{zip_sweep, ArraySpec};
use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use rand::Rng;
use slc_sim::trace::TraceBuilder;
use slc_sim::{DevicePtr, GpuMemory, Trace};

/// The nearest-neighbors benchmark.
#[derive(Debug, Clone)]
pub struct Nn {
    records: usize,
}

impl Nn {
    /// Creates the benchmark at `scale` (paper: 20 M records).
    pub fn new(scale: Scale) -> Self {
        Self { records: scale.pick(8 << 10, 512 << 10, 20 << 20) }
    }

    fn ptrs(&self) -> (DevicePtr, DevicePtr) {
        let records = DevicePtr(0);
        let distances = DevicePtr(self.records as u64 * 8);
        (records, distances)
    }

    fn query(&self, seed: u64) -> (f32, f32) {
        let mut r = gen::rng(seed, 9);
        (r.gen_range(0.0..64.0), r.gen_range(0.0..64.0))
    }
}

impl Workload for Nn {
    fn name(&self) -> &'static str {
        "NN"
    }

    fn description(&self) -> &'static str {
        "Nearest neighbors"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::Mre
    }

    fn approx_regions(&self) -> usize {
        2
    }

    fn input_description(&self) -> String {
        format!("{} records", self.records)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let records = mem.malloc("records", self.records * 8, true);
        let _distances = mem.malloc("distances", self.records * 4, true);
        // Hurricane tracks: consecutive records follow a storm, so
        // adjacent values are highly similar (the similarity TSLC-PRED
        // exploits). Way-points carry 1/16-degree file precision with a
        // fraction of interpolated full-precision fixes.
        let mut rng = gen::rng(seed, 0);
        let mut data = Vec::with_capacity(self.records * 2);
        let (mut lat, mut lng) = (rng.gen_range(16.0..48.0f32), rng.gen_range(16.0..48.0f32));
        for i in 0..self.records {
            if i % 4096 == 0 {
                // A new storm starts.
                lat = rng.gen_range(16.0..48.0);
                lng = rng.gen_range(16.0..48.0);
            }
            lat = (lat + rng.gen_range(-0.35..0.35f32)).clamp(8.0, 64.0);
            lng = (lng + rng.gen_range(-0.35..0.35f32)).clamp(8.0, 64.0);
            data.push(lat);
            data.push(lng);
        }
        gen::dither(&mut data, 0.0625, 1.0 / 65536.0, 0.4, &mut gen::rng(seed, 8));
        mem.write_f32(records, &data);
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let (records, distances) = self.ptrs();
        let (qlat, qlng) = self.query(0);
        stage(mem);
        let ([data], [mut out]) =
            mem.launch([(records, self.records * 2)], [(distances, self.records)]);
        for i in 0..self.records {
            let dlat = data.get(2 * i) - qlat;
            let dlng = data.get(2 * i + 1) - qlng;
            out.set(i, (dlat * dlat + dlng * dlng).sqrt());
        }
        stage(mem);
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        let (_, distances) = self.ptrs();
        vec![(distances, self.records)]
    }

    fn trace(&self, sms: usize) -> Trace {
        let (records, distances) = self.ptrs();
        let mut b = TraceBuilder::new(sms);
        // Pure streaming with trivial math: the most bandwidth-bound
        // benchmark in the suite.
        zip_sweep(
            &mut b,
            self.records,
            1024,
            &[ArraySpec::new(records, 8)],
            &[ArraySpec::new(distances, 4)],
            1,
        );
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_are_euclidean() {
        let nn = Nn::new(Scale::Tiny);
        let mut mem = nn.build(1);
        let mut noop = |_: &mut GpuMemory| {};
        nn.execute(&mut mem, &mut noop);
        let out = nn.output(&mem);
        let (records, _) = nn.ptrs();
        let data = mem.read_f32(records, 4);
        let (qlat, qlng) = nn.query(0);
        let expect = ((data[0] - qlat).powi(2) + (data[1] - qlng).powi(2)).sqrt();
        assert!((out[0] - expect).abs() < 1e-5);
        assert!(out.iter().all(|d| d.is_finite() && *d >= 0.0));
    }

    #[test]
    fn trace_moves_records_and_distances() {
        let nn = Nn::new(Scale::Tiny);
        let t = nn.trace(16);
        let blocks: std::collections::HashSet<u64> = t.touched_blocks().collect();
        // records: 8192*8/128 = 512 blocks; distances: 256 blocks.
        assert_eq!(blocks.len(), 512 + 256);
    }

    #[test]
    fn deterministic_outputs() {
        let nn = Nn::new(Scale::Tiny);
        let mut m1 = nn.build(5);
        let mut m2 = nn.build(5);
        let mut noop = |_: &mut GpuMemory| {};
        nn.execute(&mut m1, &mut noop);
        nn.execute(&mut m2, &mut noop);
        assert_eq!(nn.output(&m1), nn.output(&m2));
    }
}
