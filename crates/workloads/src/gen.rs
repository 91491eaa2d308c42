//! Seeded synthetic input generators.
//!
//! The paper's inputs (CUDA SDK / Rodinia / AxBench data sets) are
//! replaced with seeded synthetic equivalents that reproduce the
//! *compressibility profile* that matters to SLC: smooth images, clustered
//! floating-point magnitudes, and high-entropy option parameters (PAPER.md,
//! "Deviations from the paper", seeded inputs and three scales, gives what
//! that does to E2MC's ratio). Everything is deterministic in the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a (workload, purpose) pair.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(stream))
}

/// Uniform floats in `[lo, hi)`.
pub fn uniform_vec(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A smooth 2-D field: a few low-frequency sinusoids. Values span roughly
/// `[-amplitude, amplitude]` around `offset`.
pub fn smooth_image(
    rng: &mut StdRng,
    width: usize,
    height: usize,
    offset: f32,
    amplitude: f32,
) -> Vec<f32> {
    let waves: Vec<(f32, f32, f32, f32)> = (0..4)
        .map(|_| {
            (
                rng.gen_range(0.5..3.0),
                rng.gen_range(0.5..3.0),
                rng.gen_range(0.0..std::f32::consts::TAU),
                rng.gen_range(0.2..1.0),
            )
        })
        .collect();
    let norm: f32 = waves.iter().map(|w| w.3).sum();
    let mut out = Vec::with_capacity(width * height);
    for y in 0..height {
        for x in 0..width {
            let u = x as f32 / width as f32;
            let v = y as f32 / height as f32;
            let mut s = 0.0f32;
            for &(fx, fy, phase, w) in &waves {
                s += w * (std::f32::consts::TAU * (fx * u + fy * v) + phase).sin();
            }
            out.push(offset + amplitude * s / norm);
        }
    }
    out
}

/// A smooth image quantised to integral pixel values in `[0, levels)` —
/// the profile of decoded 8-bit image data promoted to `f32` (DCT's
/// input). Integral `f32` values zero out mantissa-low symbols, which is
/// what makes DCT traffic highly compressible.
pub fn quantized_image(rng: &mut StdRng, width: usize, height: usize, levels: u32) -> Vec<f32> {
    let half = levels as f32 / 2.0;
    smooth_image(rng, width, height, half, half * 0.95)
        .into_iter()
        .map(|p| p.clamp(0.0, (levels - 1) as f32).round())
        .collect()
}

/// A smooth field plus white noise of relative strength `noise`
/// (0 = perfectly smooth, 1 = noise as strong as the signal).
pub fn noisy_field(
    rng: &mut StdRng,
    n: usize,
    offset: f32,
    amplitude: f32,
    noise: f32,
) -> Vec<f32> {
    let width = (n as f64).sqrt().ceil() as usize;
    let height = n.div_ceil(width);
    let mut img = smooth_image(rng, width, height, offset, amplitude);
    img.truncate(n);
    for v in img.iter_mut() {
        *v += amplitude * noise * rng.gen_range(-1.0..1.0f32);
    }
    img
}

/// Quantises values to multiples of `step` in place.
///
/// Real-world inputs (sensor tracks, mesh vertices, decoded media) carry
/// limited precision; a power-of-two `step` zeroes the low mantissa bits
/// of `f32` values exactly, reproducing the symbol-level redundancy E2MC
/// exploits on real traffic.
///
/// # Panics
///
/// Panics unless `step` is positive and a power of two (including
/// negative powers like 2⁻⁹).
pub fn quantize(values: &mut [f32], step: f32) {
    assert!(step > 0.0 && step.log2().fract() == 0.0, "step must be a power of two, got {step}");
    for v in values.iter_mut() {
        *v = snap(*v, step);
    }
}

/// `v` on the grid of multiples of `step`: [`quantize`] for one value,
/// what a kernel applies to an element as it stores it.
pub fn snap(v: f32, step: f32) -> f32 {
    (v / step).round() * step
}

/// Mixed-precision quantisation: each value snaps to the `coarse` grid,
/// except a `p_fine` fraction that keeps `fine`-grid precision.
///
/// Real data sets mix smooth, low-precision mass with high-precision
/// detail (track way-points vs interpolated fixes, flat image areas vs
/// edges). The fine fraction directly tunes the symbol entropy E2MC sees
/// — and therefore where compressed block sizes land relative to MAG
/// multiples.
///
/// # Panics
///
/// Panics unless both steps are powers of two and `p_fine ∈ [0, 1]`.
pub fn dither(values: &mut [f32], coarse: f32, fine: f32, p_fine: f64, rng: &mut StdRng) {
    assert!((0.0..=1.0).contains(&p_fine), "p_fine {p_fine} out of range");
    for step in [coarse, fine] {
        assert!(step > 0.0 && step.log2().fract() == 0.0, "step must be a power of two");
    }
    for v in values.iter_mut() {
        let step = if rng.gen_bool(p_fine) { fine } else { coarse };
        *v = snap(*v, step);
    }
}

/// Values with magnitudes clustered in one binade-ish band
/// `[scale, scale * spread)`, random signs — the profile of neural-net
/// weights.
pub fn clustered_weights(rng: &mut StdRng, n: usize, scale: f32, spread: f32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let m = rng.gen_range(scale..scale * spread);
            if rng.gen_bool(0.5) {
                m
            } else {
                -m
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = uniform_vec(&mut rng(7, 0), 100, 0.0, 1.0);
        let b = uniform_vec(&mut rng(7, 0), 100, 0.0, 1.0);
        assert_eq!(a, b);
        let c = uniform_vec(&mut rng(7, 1), 100, 0.0, 1.0);
        assert_ne!(a, c, "different streams diverge");
    }

    #[test]
    fn uniform_respects_bounds() {
        let v = uniform_vec(&mut rng(1, 0), 1000, 5.0, 30.0);
        assert!(v.iter().all(|&x| (5.0..30.0).contains(&x)));
    }

    #[test]
    fn smooth_image_is_smooth() {
        let img = smooth_image(&mut rng(2, 0), 64, 64, 100.0, 50.0);
        assert_eq!(img.len(), 64 * 64);
        // Neighbouring pixels within a row differ far less than the
        // amplitude (rows may wrap discontinuously).
        let mut max_step = 0.0f32;
        for row in img.chunks(64) {
            for w in row.windows(2) {
                max_step = max_step.max((w[1] - w[0]).abs());
            }
        }
        assert!(max_step < 25.0, "max step {max_step}");
    }

    #[test]
    fn quantize_zeroes_low_mantissa_bits() {
        let mut v = vec![13.3774f32, 62.9013, 8.0001];
        quantize(&mut v, 0.0625);
        for x in &v {
            let q = x / 0.0625;
            assert_eq!(q.fract(), 0.0, "{x} not on the grid");
        }
        // Low half of the f32 pattern is sparse after quantisation.
        let low = u32::from_le_bytes(v[0].to_le_bytes()) & 0xffff;
        assert_eq!(low.count_ones(), 0, "quantised value has noisy low half: {low:#x}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn quantize_rejects_non_binary_steps() {
        quantize(&mut [1.0], 0.1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn dither_rejects_a_non_binary_step_it_never_draws() {
        // Both steps are checked up front, not when first drawn.
        dither(&mut [1.0], 0.5, 0.1, 0.0, &mut rng(6, 0));
    }

    #[test]
    fn quantized_image_is_integral_and_bounded() {
        let img = quantized_image(&mut rng(3, 0), 32, 32, 256);
        assert!(img.iter().all(|&p| p.fract() == 0.0 && (0.0..=255.0).contains(&p)));
    }

    #[test]
    fn noisy_field_has_requested_length() {
        let v = noisy_field(&mut rng(4, 0), 1000, 10.0, 2.0, 0.1);
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn clustered_weights_cluster() {
        let v = clustered_weights(&mut rng(5, 0), 1000, 0.01, 4.0);
        assert!(v.iter().all(|&w| {
            let m = w.abs();
            (0.01..0.04).contains(&m)
        }));
        assert!(v.iter().any(|&w| w < 0.0) && v.iter().any(|&w| w > 0.0));
    }
}
