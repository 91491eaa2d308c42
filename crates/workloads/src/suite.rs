//! The workload abstraction and the benchmark registry (Table III).

use crate::metrics::ErrorMetric;
use slc_sim::{DevicePtr, GpuMemory, Trace};

/// Input scaling relative to the paper's inputs.
///
/// The paper runs 4 M options / 1024² images / 8–20 M elements on
/// gpgpu-sim. `Small`, the default, is 3–40× smaller, so `slc run all`
/// takes seconds; `Full` matches the paper sizes where feasible (PAPER.md,
/// "Deviations from the paper", seeded inputs and three scales).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Fast inputs for unit/integration tests.
    Tiny,
    /// Default experiment inputs (3–40× below the paper).
    #[default]
    Small,
    /// Paper-sized inputs.
    Full,
}

impl Scale {
    /// The scale one `SLC_SCALE` value names: unset is `Small`; `tiny` /
    /// `small` / `full` match trimmed and case-insensitively. Anything
    /// else is an error naming the value — a typo must never silently
    /// run (and print the figures of) a different scale.
    pub fn parse(var: Option<&str>) -> Result<Self, String> {
        let Some(v) = var else { return Ok(Scale::Small) };
        match v.trim().to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            _ => Err(format!("SLC_SCALE={v:?} is not one of tiny, small, full")),
        }
    }

    /// Reads `SLC_SCALE` through [`Scale::parse`]; an unrecognised value
    /// (non-UTF-8 included) prints the error and exits with status 2.
    pub fn from_env() -> Self {
        let var = std::env::var_os("SLC_SCALE");
        Self::parse(var.as_deref().map(|v| v.to_string_lossy()).as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// A scale-dependent pick: `tiny` / `small` / `full`.
    pub fn pick(self, tiny: usize, small: usize, full: usize) -> usize {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// One benchmark of Table III.
///
/// A workload owns its sizes (fixed at construction from a [`Scale`]) and
/// provides the functional pipeline, the memory trace, and the error
/// metric. All methods are deterministic in the seed.
pub trait Workload: Send + Sync {
    /// Table III short name ("JM", "BS", ...).
    fn name(&self) -> &'static str;

    /// Table III description.
    fn description(&self) -> &'static str;

    /// Table III error metric.
    fn metric(&self) -> ErrorMetric;

    /// Table III's #AR: how many regions the annotation marks safe.
    fn approx_regions(&self) -> usize;

    /// Table III input description (at the current scale).
    fn input_description(&self) -> String;

    /// Allocates and fills device memory (the extended-`cudaMalloc`
    /// annotations live here).
    fn build(&self, seed: u64) -> GpuMemory;

    /// Runs the kernel pipeline. `stage` is the kernel-boundary DRAM
    /// round-trip: implementations must call it after uploading inputs and
    /// between dependent kernels, mirroring where data crosses DRAM.
    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory));

    /// The arrays the error metric is computed over, in order, each a
    /// `(start, f32 count)` pair as [`GpuMemory::launch`] takes them. A
    /// replay's error figures read them where they lie
    /// ([`GpuMemory::f32_view`]).
    fn output_arrays(&self) -> Vec<(DevicePtr, usize)>;

    /// The output the error metric is computed over: the
    /// [`Self::output_arrays`] copied back to back into one vector.
    fn output(&self, mem: &GpuMemory) -> Vec<f32> {
        let arrays = self.output_arrays();
        let mut out = Vec::with_capacity(arrays.iter().map(|&(_, len)| len).sum());
        for (ptr, len) in arrays {
            out.extend(mem.f32_view(ptr, len).iter());
        }
        out
    }

    /// The memory trace of the kernel pipeline for `sms` SMs (access
    /// pattern is data-independent for all Table III benchmarks).
    fn trace(&self, sms: usize) -> Trace;
}

/// All nine benchmarks at `scale`, in the paper's figure order.
pub fn all_workloads(scale: Scale) -> Vec<Box<dyn Workload>> {
    use crate::benchmarks::*;
    vec![
        Box::new(jm::Jm::new(scale)),
        Box::new(bs::Bs::new(scale)),
        Box::new(dct::Dct::new(scale)),
        Box::new(fwt::Fwt::new(scale)),
        Box::new(tp::Tp::new(scale)),
        Box::new(bp::Bp::new(scale)),
        Box::new(nn::Nn::new(scale)),
        Box::new(srad::Srad::v1(scale)),
        Box::new(srad::Srad::v2(scale)),
    ]
}

/// Looks up one benchmark by its Table III name (case-insensitive).
pub fn workload_by_name(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    all_workloads(scale).into_iter().find(|w| w.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_nine_benchmarks_in_paper_order() {
        let names: Vec<&str> = all_workloads(Scale::Tiny).iter().map(|w| w.name()).collect();
        assert_eq!(names, ["JM", "BS", "DCT", "FWT", "TP", "BP", "NN", "SRAD1", "SRAD2"]);
    }

    #[test]
    fn approx_region_counts_match_table_iii() {
        let expected = [6, 4, 2, 2, 2, 6, 2, 8, 6];
        for (w, &ar) in all_workloads(Scale::Tiny).iter().zip(&expected) {
            assert_eq!(w.approx_regions(), ar, "{}", w.name());
            // The built memory must agree with the declared count.
            let mem = w.build(1);
            assert_eq!(mem.approx_regions(), ar, "{} built memory", w.name());
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(workload_by_name("srad1", Scale::Tiny).is_some());
        assert!(workload_by_name("BS", Scale::Tiny).is_some());
        assert!(workload_by_name("nope", Scale::Tiny).is_none());
    }

    #[test]
    fn scale_parse_accepts_the_three_names_and_rejects_the_rest() {
        // Pure-function test: no process-global env mutation.
        assert_eq!(Scale::parse(None), Ok(Scale::Small));
        assert_eq!(Scale::parse(Some(" Tiny")), Ok(Scale::Tiny));
        assert_eq!(Scale::parse(Some("SMALL\n")), Ok(Scale::Small));
        assert_eq!(Scale::parse(Some("\tfUlL ")), Ok(Scale::Full));
        for bad in ["ful", "", "tiny,small"] {
            let err = Scale::parse(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("tiny, small, full"), "{err}");
        }
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn builds_are_deterministic() {
        for w in all_workloads(Scale::Tiny) {
            let a = w.build(42);
            let b = w.build(42);
            assert_eq!(a.regions().len(), b.regions().len());
            // `Harness::prepare` runs on the one built image.
            assert!(a.all_blocks().eq(b.all_blocks()), "{} image differs", w.name());
            let pa = w.output(&a);
            let pb = w.output(&b);
            assert_eq!(pa, pb, "{} build not deterministic", w.name());
        }
    }
}
