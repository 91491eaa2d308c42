//! Application-specific error metrics (paper Section IV-B).
//!
//! "We use mean relative error (MRE) for applications which produce
//! numeric outputs and Normalized Root Mean Square Error (NRMSE) which
//! process images or belong to a signal processing domain. JM ... we use
//! miss rate to report the fraction of incorrect decisions."

/// Which metric a benchmark reports (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorMetric {
    /// Mean relative error over numeric outputs.
    Mre,
    /// Normalised root-mean-square error (signal processing).
    Nrmse,
    /// NRMSE over pixel data, reported as "image diff" in the paper.
    ImageDiff,
    /// Fraction of boolean decisions that flipped.
    MissRate,
}

/// Every error figure one replay reports ([`ErrorMetric::compare`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputErrors {
    /// The benchmark's own [`ErrorMetric`], in percent.
    pub error_pct: f64,
    /// Mean relative error, `mean(|a - e| / max(|e|, eps))`, in percent.
    /// The epsilon guards against division blow-up on near-zero exact
    /// values, the standard practice in the approximate-computing
    /// literature.
    pub mre_pct: f64,
    /// Peak signal-to-noise ratio in dB, with the exact output's value
    /// range as the peak (the convention of the per-field error columns
    /// ROADMAP item 2 adds to the run report). [`f64::INFINITY`] when the
    /// outputs are identical.
    pub psnr_db: f64,
    /// Largest absolute output deviation; [`f64::INFINITY`] when the
    /// approximation produced NaN/Inf.
    pub max_abs_err: f64,
}

impl ErrorMetric {
    /// Table III's label for the metric.
    pub fn label(self) -> &'static str {
        match self {
            ErrorMetric::Mre => "MRE",
            ErrorMetric::Nrmse => "NRMSE",
            ErrorMetric::ImageDiff => "Image diff.",
            ErrorMetric::MissRate => "Miss rate",
        }
    }

    /// Every [`OutputErrors`] figure of `approx` against `exact`, from one
    /// pass over the outputs: one accumulator per figure, every one summed
    /// in element order. The benchmark's own metric is MRE, NRMSE —
    /// `rms(a - e)` over the exact output's value range, 0 when a constant
    /// output is reproduced exactly and 1 when not — or the share of
    /// 0.0 / 1.0 decisions that flipped. A NaN/Inf output counts as a full
    /// miss: a relative error of 1 and a full-range deviation.
    /// `exact_range` is [`value_range`] of `exact`, which a caller
    /// comparing many approximations against one exact output takes once.
    /// `approx` is read once, in order: a slice's `.iter().copied()`, or
    /// the output arrays where they lie in device memory.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ or the outputs are empty.
    pub fn compare(
        self,
        exact: &[f32],
        exact_range: f64,
        approx: impl IntoIterator<Item = f32>,
    ) -> OutputErrors {
        let mut approx = approx.into_iter();
        let n = exact.len() as f64;
        let (nrmse_miss, peak) = (exact_range.max(1.0), peak_of(exact_range));
        let (mut relative, mut squared_nrmse, mut squared_psnr) = (0.0, 0.0, 0.0);
        let (mut worst, mut flips, mut paired) = (0.0f64, 0usize, 0usize);
        for (&e, a) in exact.iter().zip(&mut approx) {
            relative += relative_error(e, a);
            squared_nrmse += squared_error(e, a, nrmse_miss);
            squared_psnr += squared_error(e, a, peak);
            worst = worst.max(abs_error(e, a));
            flips += usize::from(flipped(e, a));
            paired += 1;
        }
        check(exact.len(), paired + approx.count());
        let mre = relative / n;
        let error = match self {
            ErrorMetric::Mre => mre,
            ErrorMetric::Nrmse | ErrorMetric::ImageDiff => nrmse_of(squared_nrmse / n, exact_range),
            ErrorMetric::MissRate => flips as f64 / n,
        };
        OutputErrors {
            error_pct: error * 100.0,
            mre_pct: mre * 100.0,
            psnr_db: psnr_of(squared_psnr / n, peak),
            max_abs_err: worst,
        }
    }
}

fn check(exact: usize, approx: usize) {
    assert_eq!(exact, approx, "output length mismatch");
    assert!(exact != 0, "empty outputs");
}

/// `max - min` of an exact output (0 for a constant one): what NRMSE
/// normalises by and PSNR takes as its peak.
pub fn value_range(exact: &[f32]) -> f64 {
    let min = exact.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = exact.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    (f64::from(max) - f64::from(min)).max(0.0)
}

/// One output's relative error, capped at 1.
fn relative_error(e: f32, a: f32) -> f64 {
    if !a.is_finite() {
        // Approximation produced NaN/Inf (e.g. a zero-filled divisor):
        // count as a fully wrong output.
        return 1.0;
    }
    let e = f64::from(e);
    let a = f64::from(a);
    ((a - e).abs() / e.abs().max(1e-6_f64)).min(1.0)
}

/// One output's squared deviation; a NaN/Inf output deviates by `miss`.
fn squared_error(e: f32, a: f32, miss: f64) -> f64 {
    let d = if a.is_finite() { f64::from(a) - f64::from(e) } else { miss };
    d * d
}

/// One output's absolute deviation.
fn abs_error(e: f32, a: f32) -> f64 {
    if a.is_finite() {
        (f64::from(a) - f64::from(e)).abs()
    } else {
        f64::INFINITY
    }
}

/// Whether a boolean output (0.0 / 1.0) changed its decision.
fn flipped(e: f32, a: f32) -> bool {
    (e > 0.5) != (a > 0.5)
}

fn nrmse_of(mse: f64, range: f64) -> f64 {
    if range <= 0.0 {
        return if mse == 0.0 { 0.0 } else { 1.0 };
    }
    mse.sqrt() / range
}

/// A constant exact output has no range; fall back to unit peak so a
/// miss still registers as finite (and identity as infinite).
fn peak_of(range: f64) -> f64 {
    if range > 0.0 {
        range
    } else {
        1.0
    }
}

fn psnr_of(mse: f64, peak: f64) -> f64 {
    if mse == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (peak * peak / mse).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_sim::GpuMemory;

    // The per-figure functions `compare` is pinned against, one pass each.

    impl ErrorMetric {
        /// Computes the metric between `approx` and `exact` outputs, as a
        /// percentage in `[0, 100]`-ish range (may exceed 100 for wild MRE).
        ///
        /// # Panics
        ///
        /// Panics when lengths differ or the outputs are empty.
        fn compute(self, exact: &[f32], approx: &[f32]) -> f64 {
            match self {
                ErrorMetric::Mre => mre(exact, approx) * 100.0,
                ErrorMetric::Nrmse | ErrorMetric::ImageDiff => nrmse(exact, approx) * 100.0,
                ErrorMetric::MissRate => miss_rate(exact, approx) * 100.0,
            }
        }
    }

    /// Mean relative error: `mean(|a - e| / max(|e|, eps))`.
    ///
    /// The epsilon guards against division blow-up on near-zero exact values,
    /// the standard practice in the approximate-computing literature.
    fn mre(exact: &[f32], approx: &[f32]) -> f64 {
        check(exact.len(), approx.len());
        let sum: f64 = exact.iter().zip(approx).map(|(&e, &a)| relative_error(e, a)).sum();
        sum / exact.len() as f64
    }

    /// NRMSE: `rms(a - e) / (max(e) - min(e))`; 0 when the output is constant
    /// and exactly reproduced, 1-scale otherwise. NaN/Inf outputs count as a
    /// full-range miss.
    fn nrmse(exact: &[f32], approx: &[f32]) -> f64 {
        check(exact.len(), approx.len());
        let range = value_range(exact);
        let squared: f64 =
            exact.iter().zip(approx).map(|(&e, &a)| squared_error(e, a, range.max(1.0))).sum();
        nrmse_of(squared / exact.len() as f64, range)
    }

    /// Peak signal-to-noise ratio in dB, with the exact output's value
    /// range as the peak (the convention of the per-field error columns
    /// ROADMAP item 2 adds to the run report).
    /// [`f64::INFINITY`] when the outputs are identical; non-finite
    /// approximations count as a full-range miss, as in [`nrmse`].
    fn psnr(exact: &[f32], approx: &[f32]) -> f64 {
        check(exact.len(), approx.len());
        let peak = peak_of(value_range(exact));
        let squared: f64 = exact.iter().zip(approx).map(|(&e, &a)| squared_error(e, a, peak)).sum();
        psnr_of(squared / exact.len() as f64, peak)
    }

    /// Largest absolute output deviation; [`f64::INFINITY`] when the
    /// approximation produced NaN/Inf.
    fn max_abs_error(exact: &[f32], approx: &[f32]) -> f64 {
        check(exact.len(), approx.len());
        exact.iter().zip(approx).map(|(&e, &a)| abs_error(e, a)).fold(0.0, f64::max)
    }

    /// Fraction of decisions that differ; outputs are booleans stored as
    /// 0.0 / 1.0 floats.
    fn miss_rate(exact: &[f32], approx: &[f32]) -> f64 {
        check(exact.len(), approx.len());
        let misses = exact.iter().zip(approx).filter(|(&e, &a)| flipped(e, a)).count();
        misses as f64 / exact.len() as f64
    }

    #[test]
    fn identical_outputs_have_zero_error() {
        let v = vec![1.0f32, -2.0, 3.5, 100.0];
        assert_eq!(mre(&v, &v), 0.0);
        assert_eq!(nrmse(&v, &v), 0.0);
        assert_eq!(miss_rate(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn mre_is_relative() {
        let exact = vec![100.0f32, 200.0];
        let approx = vec![101.0f32, 202.0];
        assert!((mre(&exact, &approx) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn mre_caps_blowups_at_one() {
        let exact = vec![1e-9f32];
        let approx = vec![1.0f32];
        assert!(mre(&exact, &approx) <= 1.0);
    }

    #[test]
    fn nrmse_normalises_by_range() {
        let exact = vec![0.0f32, 10.0];
        let approx = vec![1.0f32, 10.0];
        // rms = sqrt(1/2), range = 10.
        assert!((nrmse(&exact, &approx) - (0.5f64).sqrt() / 10.0).abs() < 1e-9);
    }

    #[test]
    fn nrmse_constant_output() {
        let exact = vec![5.0f32; 4];
        assert_eq!(nrmse(&exact, &exact), 0.0);
        assert_eq!(nrmse(&exact, &[5.0, 5.0, 5.0, 6.0]), 1.0);
    }

    #[test]
    fn psnr_is_infinite_on_identity_and_drops_with_noise() {
        let exact: Vec<f32> = (0..64).map(|i| i as f32).collect();
        assert_eq!(psnr(&exact, &exact), f64::INFINITY);
        let small: Vec<f32> = exact.iter().map(|v| v + 0.1).collect();
        let big: Vec<f32> = exact.iter().map(|v| v + 1.0).collect();
        assert!(psnr(&exact, &small) > psnr(&exact, &big));
        // Uniform +1 error: mse = 1, peak = range = 63.
        assert!((psnr(&exact, &big) - 10.0 * (63.0f64 * 63.0).log10()).abs() < 1e-9);
        assert!(psnr(&exact, &[vec![f32::NAN], exact[1..].to_vec()].concat()).is_finite());
    }

    #[test]
    fn max_abs_error_tracks_the_worst_output() {
        assert_eq!(max_abs_error(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_eq!(max_abs_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(max_abs_error(&[1.0], &[f32::NAN]).is_infinite());
    }

    #[test]
    fn miss_rate_counts_flips() {
        let exact = vec![1.0f32, 0.0, 1.0, 0.0];
        let approx = vec![1.0f32, 1.0, 0.0, 0.0];
        assert!((miss_rate(&exact, &approx) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metric_compute_is_percent() {
        let exact = vec![1.0f32, 1.0];
        let approx = vec![1.01f32, 1.01];
        let pct = ErrorMetric::Mre.compute(&exact, &approx);
        assert!((pct - 1.0).abs() < 0.01, "got {pct}");
    }

    #[test]
    fn one_pass_equals_the_four_functions_bit_for_bit() {
        // Sums of many unequal terms, so a different summation order
        // would show; a NaN and an infinity among the approximations.
        let wide: Vec<f32> = (0..4097).map(|i| (i as f32 * 0.37).sin() * 1e3 + 0.1).collect();
        let mut noisy: Vec<f32> = wide.iter().map(|v| v * 1.0001 + 1e-3).collect();
        (noisy[17], noisy[4000]) = (f32::NAN, f32::NEG_INFINITY);
        // A range below one (NRMSE and PSNR then price a miss
        // differently), a constant output, and decisions.
        let narrow: Vec<f32> = wide.iter().map(|v| v * 1e-4).collect();
        let narrow_noisy: Vec<f32> = noisy.iter().map(|v| v * 1e-4).collect();
        let flat = vec![5.0f32; 64];
        let mut flat_noisy = flat.clone();
        flat_noisy[3] = f32::INFINITY;
        let flags: Vec<f32> = (0..64).map(|i| (i % 3 == 0) as u8 as f32).collect();
        let flipped: Vec<f32> = (0..64).map(|i| (i % 2 == 0) as u8 as f32).collect();
        let cases = [
            (&wide, &noisy),
            (&wide, &wide),
            (&narrow, &narrow_noisy),
            (&flat, &flat_noisy),
            (&flat, &flat),
            (&flags, &flipped),
        ];
        let metrics =
            [ErrorMetric::Mre, ErrorMetric::Nrmse, ErrorMetric::ImageDiff, ErrorMetric::MissRate];
        for (exact, approx) in cases {
            // The approximation also as a replay reads it: two arrays in
            // device memory (as BS's calls and puts), through views.
            let mut mem = GpuMemory::new();
            let half = approx.len() / 2;
            let ptrs =
                [half, approx.len() - half].map(|len| (mem.malloc("out", 4 * len, true), len));
            mem.write_f32(ptrs[0].0, &approx[..half]);
            mem.write_f32(ptrs[1].0, &approx[half..]);
            let in_place = || ptrs.iter().flat_map(|&(ptr, len)| mem.f32_view(ptr, len).iter());
            for metric in metrics {
                let want = [
                    metric.compute(exact, approx),
                    mre(exact, approx) * 100.0,
                    psnr(exact, approx),
                    max_abs_error(exact, approx),
                ];
                let range = value_range(exact);
                for got in [
                    metric.compare(exact, range, approx.iter().copied()),
                    metric.compare(exact, range, in_place()),
                ] {
                    let got = [got.error_pct, got.mre_pct, got.psnr_db, got.max_abs_err];
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{metric:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn compare_refuses_a_longer_approximation() {
        let _ = ErrorMetric::Mre.compare(&[1.0], 0.0, [1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn compare_refuses_a_shorter_approximation() {
        let _ = ErrorMetric::Nrmse.compare(&[1.0, 2.0], 1.0, [1.0]);
    }

    #[test]
    #[should_panic(expected = "empty outputs")]
    fn compare_refuses_empty_outputs() {
        let _ = ErrorMetric::MissRate.compare(&[], 0.0, std::iter::empty());
    }

    #[test]
    fn labels_match_table_iii() {
        assert_eq!(ErrorMetric::Mre.label(), "MRE");
        assert_eq!(ErrorMetric::MissRate.label(), "Miss rate");
        assert_eq!(ErrorMetric::ImageDiff.label(), "Image diff.");
        assert_eq!(ErrorMetric::Nrmse.label(), "NRMSE");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mre(&[1.0], &[1.0, 2.0]);
    }
}
