//! SRAD — speckle-reducing anisotropic diffusion (Rodinia `srad` v1/v2).
//!
//! Image output, image-diff metric. Version 1 uses separate buffers for
//! the diffused image and the reduction partials (Table III: #AR = 8);
//! version 2 fuses the update in place (#AR = 6). Both run ITERATIONS
//! diffusion steps of two kernels each, with DRAM round-trips between
//! kernels — approximation errors feed back through the iteration.

use super::{zip_sweep, ArraySpec};
use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use slc_sim::trace::TraceBuilder;
use slc_sim::{DevicePtr, F32View, F32ViewMut, GpuMemory, Trace};

/// Diffusion iterations (Rodinia default is 100; two suffice to exercise
/// the error-feedback path at tractable cost).
const ITERATIONS: usize = 2;

/// Diffusion strength λ.
const LAMBDA: f32 = 0.5;

/// The SRAD benchmark (both versions).
#[derive(Debug, Clone)]
pub struct Srad {
    n: usize,
    version: u8,
}

impl Srad {
    /// Rodinia `srad_v1` (paper: 1024×1024 image, #AR = 8).
    pub fn v1(scale: Scale) -> Self {
        Self { n: scale.pick(64, 256, 1024), version: 1 }
    }

    /// Rodinia `srad_v2` (paper: 1024×1024 image, #AR = 6).
    pub fn v2(scale: Scale) -> Self {
        Self { n: scale.pick(64, 256, 1024), version: 2 }
    }

    fn pixels(&self) -> usize {
        self.n * self.n
    }

    /// v1 order: J, c, dN, dS, dW, dE, J2, sums.
    /// v2 order: J, c, dN, dS, dW, dE.
    fn ptrs(&self) -> Vec<DevicePtr> {
        let img = (self.pixels() * 4).div_ceil(128) as u64 * 128;
        let count = if self.version == 1 { 8 } else { 6 };
        (0..count).map(|i| DevicePtr(i as u64 * img)).collect()
    }
}

/// One gradient/coefficient pass: fills dN/dS/dW/dE (`grad`) and c.
fn srad_kernel1(
    n: usize,
    j: impl Fn(usize) -> f32,
    q0sqr: f32,
    [dn, ds, dw, de]: &mut [F32ViewMut<'_>; 4],
    c: &mut F32ViewMut<'_>,
) {
    for row in 0..n {
        for col in 0..n {
            let idx = row * n + col;
            // Guard: J >= 1 on exact data; approximation can zero it.
            let jc = j(idx).max(1e-6);
            let north = j(row.saturating_sub(1) * n + col) - jc;
            let south = j((row + 1).min(n - 1) * n + col) - jc;
            let west = j(row * n + col.saturating_sub(1)) - jc;
            let east = j(row * n + (col + 1).min(n - 1)) - jc;
            dn.set(idx, north);
            ds.set(idx, south);
            dw.set(idx, west);
            de.set(idx, east);
            let g2 = (north * north + south * south + west * west + east * east) / (jc * jc);
            let l = (north + south + west + east) / jc;
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = (1.0 + 0.25 * l).powi(2);
            let qsqr = num / den;
            let denom = (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr));
            c.set(idx, (1.0 / (1.0 + denom)).clamp(0.0, 1.0));
        }
    }
}

/// One diffusion update pass over `j` in place: J += λ/4 · div(c ∇J),
/// stored at the source's 2^-9 display precision (8-bit-derived medical
/// imagery).
fn srad_kernel2(
    n: usize,
    [dn, ds, dw, de]: [F32View<'_>; 4],
    c: F32View<'_>,
    j: &mut F32ViewMut<'_>,
) {
    for row in 0..n {
        for col in 0..n {
            let idx = row * n + col;
            let cn = c.get(idx);
            let cs = c.get((row + 1).min(n - 1) * n + col);
            let cw = c.get(idx);
            let ce = c.get(row * n + (col + 1).min(n - 1));
            let d = cn * dn.get(idx) + cs * ds.get(idx) + cw * dw.get(idx) + ce * de.get(idx);
            j.set(idx, gen::snap(j.get(idx) + 0.25 * LAMBDA * d, 1.0 / 512.0));
        }
    }
}

fn q0sqr_of(j: F32View<'_>) -> f32 {
    let nf = j.len() as f32;
    let sum: f32 = j.iter().sum();
    let sum2: f32 = j.iter().map(|v| v * v).sum();
    let mean = sum / nf;
    let var = (sum2 / nf - mean * mean).max(0.0);
    var / (mean * mean)
}

impl Workload for Srad {
    fn name(&self) -> &'static str {
        if self.version == 1 {
            "SRAD1"
        } else {
            "SRAD2"
        }
    }

    fn description(&self) -> &'static str {
        "Anisotropic diffusion"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::ImageDiff
    }

    fn approx_regions(&self) -> usize {
        if self.version == 1 {
            8
        } else {
            6
        }
    }

    fn input_description(&self) -> String {
        format!("{}x{} img.", self.n, self.n)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let bytes = self.pixels() * 4;
        let j = mem.malloc("J", bytes, true);
        mem.malloc("c", bytes, true);
        mem.malloc("dN", bytes, true);
        mem.malloc("dS", bytes, true);
        mem.malloc("dW", bytes, true);
        mem.malloc("dE", bytes, true);
        if self.version == 1 {
            mem.malloc("J2", bytes, true);
            mem.malloc("sums", bytes, true);
        }
        // Rodinia preprocesses the speckled image as J = exp(I/255); the
        // 8-bit source quantisation carries through at ~2^-9 resolution.
        let img = gen::quantized_image(&mut gen::rng(seed, 0), self.n, self.n, 256);
        let mut j_data: Vec<f32> = img.iter().map(|&p| (p / 255.0).exp()).collect();
        gen::dither(&mut j_data, 1.0 / 512.0, 1.0 / 131072.0, 0.2, &mut gen::rng(seed, 8));
        mem.write_f32(j, &j_data);
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let ptrs = self.ptrs();
        let n = self.n;
        let px = self.pixels();
        stage(mem);
        // v1 ping-pongs J <-> J2; v2 updates J in place.
        let mut src = ptrs[0];
        let mut dst = if self.version == 1 { ptrs[6] } else { ptrs[0] };
        for _ in 0..ITERATIONS {
            // Reduction for q0sqr. v1 materialises row partials in `sums`
            // (its 8th region); v2 reduces in registers/shared memory.
            // v1's kernel 1 then works on J as the reduction read it, not
            // as the reduction's own DRAM round trip left it (staging a
            // staged block again is not the identity): the one plane a
            // kernel holds outside device memory.
            let reduced = if self.version == 1 {
                let ([j], [mut sums]) = mem.launch([(src, px)], [(ptrs[7], px)]);
                for i in 0..px {
                    let partial =
                        if i < n { j.slice(i * n..(i + 1) * n).iter().sum() } else { 0.0 };
                    sums.set(i, partial);
                }
                let reduced = (q0sqr_of(j), j.iter().collect::<Vec<f32>>());
                stage(mem);
                Some(reduced)
            } else {
                None
            };
            let at = |i: usize| (ptrs[i], px);
            let ([j], [dn, ds, dw, de, mut c]) =
                mem.launch([(src, px)], [at(2), at(3), at(4), at(5), at(1)]);
            let (grad_out, c_out) = (&mut [dn, ds, dw, de], &mut c);
            match reduced {
                Some((q0sqr, j)) => srad_kernel1(n, |i| j[i], q0sqr, grad_out, c_out),
                None => srad_kernel1(n, |i| j.get(i), q0sqr_of(j), grad_out, c_out),
            }
            stage(mem);
            if self.version == 1 {
                let ([j, dn, ds, dw, de, c], [mut out]) =
                    mem.launch([(src, px), at(2), at(3), at(4), at(5), at(1)], [(dst, px)]);
                out.copy_from(j);
                srad_kernel2(n, [dn, ds, dw, de], c, &mut out);
            } else {
                let ([dn, ds, dw, de, c], [mut j]) =
                    mem.launch([at(2), at(3), at(4), at(5), at(1)], [(src, px)]);
                srad_kernel2(n, [dn, ds, dw, de], c, &mut j);
            }
            stage(mem);
            if self.version == 1 {
                std::mem::swap(&mut src, &mut dst);
            }
        }
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        // v1 with an even iteration count ends back in J (after the final
        // swap, `src` points at the last-written buffer = J2 for odd
        // iterations). ITERATIONS = 2: J -> J2 -> J ... the final write
        // lands in J when ITERATIONS is even.
        let ptrs = self.ptrs();
        let final_ptr = if self.version == 1 && ITERATIONS % 2 == 1 { ptrs[6] } else { ptrs[0] };
        vec![(final_ptr, self.pixels())]
    }

    fn trace(&self, sms: usize) -> Trace {
        let ptrs = self.ptrs();
        let px = self.pixels();
        let mut b = TraceBuilder::new(sms);
        let spec = |i: usize| ArraySpec::new(ptrs[i], 4);
        let mut src = 0usize;
        let mut dst = if self.version == 1 { 6 } else { 0 };
        for _ in 0..ITERATIONS {
            if self.version == 1 {
                // Reduction kernel: read J, store row partials.
                zip_sweep(&mut b, px, 2048, &[spec(src)], &[spec(7)], 1);
                b.barrier();
            }
            // Kernel 1: read J (stencil), store the four gradients and c.
            zip_sweep(
                &mut b,
                px,
                2048,
                &[spec(src)],
                &[spec(2), spec(3), spec(4), spec(5), spec(1)],
                4,
            );
            b.barrier();
            // Kernel 2: read J + gradients + c, store the updated image.
            zip_sweep(
                &mut b,
                px,
                2048,
                &[spec(src), spec(2), spec(3), spec(4), spec(5), spec(1)],
                &[spec(dst)],
                3,
            );
            b.barrier();
            if self.version == 1 {
                std::mem::swap(&mut src, &mut dst);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffusion_smooths_the_image() {
        let s = Srad::v2(Scale::Tiny);
        let mut mem = s.build(3);
        let before = mem.read_f32(s.ptrs()[0], s.pixels());
        let mut noop = |_: &mut GpuMemory| {};
        s.execute(&mut mem, &mut noop);
        let after = s.output(&mem);
        let roughness = |img: &[f32]| -> f64 {
            img.windows(2).map(|w| f64::from((w[1] - w[0]).abs())).sum::<f64>()
        };
        assert!(
            roughness(&after) < roughness(&before),
            "diffusion must reduce total variation: {} vs {}",
            roughness(&after),
            roughness(&before)
        );
        assert!(after.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn v1_and_v2_agree_on_the_math() {
        // Same image, same iterations: the two versions differ in memory
        // organisation, not in the diffusion result.
        let s1 = Srad::v1(Scale::Tiny);
        let s2 = Srad::v2(Scale::Tiny);
        let mut m1 = s1.build(9);
        let mut m2 = s2.build(9);
        let mut noop = |_: &mut GpuMemory| {};
        s1.execute(&mut m1, &mut noop);
        s2.execute(&mut m2, &mut noop);
        let o1 = s1.output(&m1);
        let o2 = s2.output(&m2);
        for (a, b) in o1.iter().zip(&o2) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn q0sqr_of_constant_image_is_zero() {
        let mut mem = GpuMemory::new();
        let j = mem.malloc("J", 64 * 4, true);
        mem.write_f32(j, &[2.0; 64]);
        let ([j], []) = mem.launch([(j, 64)], []);
        assert!(q0sqr_of(j).abs() < 1e-9);
    }

    #[test]
    fn coefficients_stay_in_unit_range() {
        let s = Srad::v2(Scale::Tiny);
        let mut mem = s.build(5);
        let mut noop = |_: &mut GpuMemory| {};
        s.execute(&mut mem, &mut noop);
        let c = mem.read_f32(s.ptrs()[1], s.pixels());
        assert!(c.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn region_counts_differ_between_versions() {
        assert_eq!(Srad::v1(Scale::Tiny).build(1).approx_regions(), 8);
        assert_eq!(Srad::v2(Scale::Tiny).build(1).approx_regions(), 6);
    }

    #[test]
    fn traces_differ_in_volume() {
        let t1 = Srad::v1(Scale::Tiny).trace(16);
        let t2 = Srad::v2(Scale::Tiny).trace(16);
        assert!(t1.len() > t2.len(), "v1 moves more data (reduction + ping-pong)");
    }
}
