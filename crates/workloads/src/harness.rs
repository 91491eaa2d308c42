//! Glue between benchmarks, compression schemes and the timing simulator.
//!
//! One benchmark evaluation follows the paper's methodology:
//!
//! 1. Build the inputs, once, and run the kernels **exactly** on that
//!    one image — the reference output and the steady-state memory
//!    image. The image records what the run overwrites
//!    ([`GpuMemory::record_first_writes`]): the seeded bytes of each
//!    region the kernels write, saved when it is first lent writable, so
//!    the seeded image lives on as a per-region delta, not a second copy.
//! 2. Train E2MC's symbol table on both memory images (the online
//!    sampling phase of §IV-A, which observes real traffic): the seeded
//!    one rebuilt region by region from the delta, then the final one.
//! 3. For every scheme: re-run the kernels over the same inputs with the
//!    scheme's kernel-boundary staging (functional error), recording
//!    every block's bursts at each staging point.
//! 4. Feed the benchmark's trace plus the burst map to the timing
//!    simulator with the scheme's codec latencies.

use crate::metrics;
use crate::scheme::{BurstsAccumulator, Scheme, SchemeKind};
use crate::suite::{Scale, Workload};
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::{Block, BlockCompressor, BLOCK_BYTES};
use slc_sim::mc::BurstsMap;
use slc_sim::{Engine, GpuConfig, GpuMemory, SimStats, Trace};
use std::sync::OnceLock;

/// Per-benchmark reusable artifacts (exact run, trained table, trace).
pub struct BenchmarkArtifacts {
    /// Benchmark name (Table III).
    pub name: String,
    /// Reference output of the exact run.
    pub exact_output: Vec<f32>,
    /// [`metrics::value_range`] of [`Self::exact_output`], taken once for
    /// every replay's error figures.
    exact_range: f64,
    /// Memory image after the exact run (inputs + outputs).
    pub exact_memory: GpuMemory,
    /// E2MC trained on the benchmark's traffic. A shared handle: cloning
    /// it into a [`Scheme`] shares the frozen symbol table rather than
    /// copying it, so one `prepare` pass serves any number of schemes.
    pub e2mc: E2mc,
    /// The kernel pipeline's memory trace.
    pub trace: Trace,
    /// The seeded image as its difference from [`Self::exact_memory`],
    /// one entry per region — see [`Self::initial_memory`].
    initial_delta: Vec<RegionDelta>,
    /// Identity of the prepared workload instance: name plus the
    /// scale-dependent input description, so a same-named workload at a
    /// different scale can never consume (or populate) this cache.
    workload_fingerprint: String,
    /// Lazily captured per-kernel-boundary stored sizes of the exact
    /// (unstaged) run — see [`Self::exact_size_snapshots`].
    exact_size_snapshots: OnceLock<Vec<Box<[u16]>>>,
}

/// How one region of the seeded image differs from the exact run's final
/// one: not at all, as the zeroed buffer it started as, or by its bytes.
#[derive(Debug, PartialEq, Eq)]
enum RegionDelta {
    Unchanged,
    Zeroed,
    Bytes(Box<[u8]>),
}

impl BenchmarkArtifacts {
    /// The seeded memory image the exact run started from — the inputs
    /// every replay runs over: [`Self::exact_memory`] with the regions
    /// the kernels changed put back.
    pub fn initial_memory(&self) -> GpuMemory {
        let mut image = None;
        self.seeded(&mut image);
        image.expect("just seeded")
    }

    /// The seeded image in `image`, one benchmark's working image: a
    /// clone of [`Self::exact_memory`] on first use, the same buffer on
    /// every later one. A used image has been through a replay, so every
    /// region of it is rewritten: lossy staging also mutates the read-only
    /// input regions the delta records as `Unchanged`.
    fn seeded<'m>(&self, image: &'m mut Option<GpuMemory>) -> &'m mut GpuMemory {
        let staged = image.is_some();
        let mem = image.get_or_insert_with(|| self.exact_memory.clone());
        for (region, delta) in self.exact_memory.regions().iter().zip(&self.initial_delta) {
            let bytes = mem.region_bytes_mut(region);
            match delta {
                RegionDelta::Unchanged if !staged => {}
                RegionDelta::Unchanged => {
                    bytes.copy_from_slice(self.exact_memory.region_bytes(region));
                }
                RegionDelta::Zeroed => bytes.fill(0),
                RegionDelta::Bytes(seeded) => bytes.copy_from_slice(seeded),
            }
        }
        mem
    }

    /// E2MC stored sizes of the memory image at every kernel-boundary
    /// DRAM round-trip of the **exact** run, under the trained table: one
    /// buffer per staging point, one `u16` per block, indexed by block
    /// address (a stored size is capped at the 1024-bit verbatim block,
    /// so the cast is lossless).
    ///
    /// Computed once per artifacts (one replay of the kernel pipeline
    /// over [`Self::initial_memory`], sizing each boundary image) and
    /// shared by every consumer thereafter: the E2MC-baseline functional
    /// pass of [`Harness::run_functional`] at *any* MAG reduces to a
    /// burst sweep over these sizes. Kernels never see staged data in a
    /// lossless run, so these are the sizes that run would observe.
    ///
    /// The baseline reads nothing but a block's stored size, and block
    /// addresses and region classes are [`Self::exact_memory`]'s own
    /// layout, so a staging point costs 2 B a block.
    ///
    /// # Panics
    ///
    /// Panics when `w` is not the workload instance these artifacts were
    /// prepared from — same benchmark *and* same scale-dependent input
    /// (replaying a different pipeline would cache, and then keep
    /// serving, the wrong sizes).
    pub fn exact_size_snapshots(&self, w: &dyn Workload) -> &[Box<[u16]>] {
        self.exact_sizes_over(w, &mut None)
    }

    /// [`Self::exact_size_snapshots`], its one replay run over `image`.
    fn exact_sizes_over(&self, w: &dyn Workload, image: &mut Option<GpuMemory>) -> &[Box<[u16]>] {
        self.assert_prepared_from(w);
        self.exact_size_snapshots.get_or_init(|| {
            let mut snapshots = Vec::new();
            let mut capture = |m: &mut GpuMemory| {
                let mut sizes = Vec::with_capacity(m.len() / BLOCK_BYTES);
                sizes.extend(m.blocks_with_addr().map(|(_, _, block)| {
                    u16::try_from(self.e2mc.size_bits(block)).expect("capped at BLOCK_BITS")
                }));
                snapshots.push(sizes.into_boxed_slice());
            };
            w.execute(self.seeded(image), &mut capture);
            snapshots
        })
    }

    /// Identity of one workload instance: Table III name + the
    /// scale-dependent input description (`name()` alone cannot tell two
    /// scales of the same benchmark apart).
    fn fingerprint(w: &dyn Workload) -> String {
        format!("{}/{}", w.name(), w.input_description())
    }

    /// Panics unless `w` is the instance [`Harness::prepare`] ran: its
    /// kernels are about to execute over this image.
    fn assert_prepared_from(&self, w: &dyn Workload) {
        assert_eq!(
            Self::fingerprint(w),
            self.workload_fingerprint,
            "artifacts were prepared from a different workload instance"
        );
    }
}

/// The seeded image's blocks in region order, rebuilt from the final
/// image and the delta: what E2MC trained on when the seeded image was a
/// second copy.
fn seeded_blocks<'a>(
    exact: &'a GpuMemory,
    delta: &'a [RegionDelta],
) -> impl Iterator<Item = &'a Block> + 'a {
    static ZERO: Block = [0; BLOCK_BYTES];
    exact.regions().iter().zip(delta).flat_map(move |(region, delta)| {
        let (zeros, bytes) = match delta {
            RegionDelta::Unchanged => (0, exact.region_bytes(region)),
            RegionDelta::Zeroed => (region.size as usize / BLOCK_BYTES, &[][..]),
            RegionDelta::Bytes(seeded) => (0, &seeded[..]),
        };
        std::iter::repeat_n(&ZERO, zeros).chain(bytes.as_chunks().0)
    })
}

/// Result of one functional (data) pass under a scheme.
#[derive(Debug)]
pub struct FunctionalOutcome {
    /// Scheme identity.
    pub kind: SchemeKind,
    /// Application-specific error in percent (Fig. 7b / Fig. 9b).
    pub error_pct: f64,
    /// Uniform mean-relative-error in percent (the paper's cross-
    /// benchmark GM, §V-A).
    pub mre_pct: f64,
    /// Peak signal-to-noise ratio in dB against the exact output
    /// ([`metrics::OutputErrors::psnr_db`]); infinite for exact
    /// reproductions. No figure prints it: ROADMAP item 2 makes it, and
    /// [`Self::max_abs_err`], per-field error columns of the run report.
    pub psnr_db: f64,
    /// Largest absolute output deviation
    /// ([`metrics::OutputErrors::max_abs_err`]).
    pub max_abs_err: f64,
    /// Burst count per block for the timing pass.
    pub bursts: BurstsMap,
}

/// Result of one timing pass.
#[derive(Debug, Clone)]
pub struct TimingOutcome {
    /// Scheme identity.
    pub kind: SchemeKind,
    /// Raw counters.
    pub stats: SimStats,
}

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Input scale for all benchmarks.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Simulator configuration (defines MAG, SM count, latencies).
    pub config: GpuConfig,
}

impl Default for Harness {
    fn default() -> Self {
        Self { scale: Scale::Small, seed: 42, config: GpuConfig::default() }
    }
}

impl Harness {
    /// Creates a harness at `scale` with the Table II configuration.
    pub fn new(scale: Scale) -> Self {
        Self { scale, ..Self::default() }
    }

    /// Replaces the simulator configuration (e.g. a different MAG).
    pub fn with_config(mut self, config: GpuConfig) -> Self {
        self.config = config;
        self
    }

    /// Step 1 + 2: exact run and table training.
    ///
    /// The exact run executes on the built image itself, recording the
    /// seeded bytes of each region it writes
    /// ([`GpuMemory::record_first_writes`]); that image becomes
    /// [`BenchmarkArtifacts::exact_memory`] and the record its
    /// per-region delta, so a prepared benchmark costs one image. A
    /// region never lent writable, or lent but left as it was, is
    /// unchanged; an all-zero saved copy is the zeroed buffer it started
    /// as; any other is kept.
    ///
    /// The symbol table is trained on the initial *and* final memory
    /// images: the paper's online sampling observes the app's early
    /// traffic (input-dominated) and the steady state, and both matter —
    /// training on final state alone would crowd input symbols out of the
    /// table with transformed-output symbols the early traffic never
    /// carries.
    ///
    /// # Panics
    ///
    /// Panics when the kernels allocate (both images need one region table).
    pub fn prepare(&self, w: &dyn Workload) -> BenchmarkArtifacts {
        let mut mem = w.build(self.seed);
        let regions = mem.regions().len();
        mem.record_first_writes();
        w.execute(&mut mem, &mut |_: &mut GpuMemory| {});
        assert_eq!(regions, mem.regions().len(), "region table mismatch: the kernels allocate");
        let saved = mem.take_first_writes();
        let initial_delta: Vec<RegionDelta> = mem
            .regions()
            .iter()
            .zip(saved)
            .map(|(region, saved)| match saved {
                None => RegionDelta::Unchanged,
                Some(seeded) if *seeded == *mem.region_bytes(region) => RegionDelta::Unchanged,
                Some(seeded) if seeded.iter().all(|&b| b == 0) => RegionDelta::Zeroed,
                Some(seeded) => RegionDelta::Bytes(seeded),
            })
            .collect();
        let exact_output = w.output(&mem);
        let blocks =
            seeded_blocks(&mem, &initial_delta).chain(mem.blocks_with_addr().map(|(_, _, b)| b));
        let e2mc = E2mc::train_on_blocks(blocks, &E2mcConfig::default());
        let trace = w.trace(self.config.sms);
        BenchmarkArtifacts {
            name: w.name().to_owned(),
            exact_range: metrics::value_range(&exact_output),
            exact_output,
            exact_memory: mem,
            e2mc,
            trace,
            initial_delta,
            workload_fingerprint: BenchmarkArtifacts::fingerprint(w),
            exact_size_snapshots: OnceLock::new(),
        }
    }

    /// Step 3: one functional pass under `scheme`.
    ///
    /// The pass re-runs the kernels with the scheme's staging (lossy
    /// mutation for SLC, identity otherwise) and counts every block's
    /// bursts at every kernel-boundary DRAM round-trip; the burst map is
    /// the per-block mean over those staging points (see
    /// [`crate::scheme::BurstsAccumulator`]).
    ///
    /// A mutating scheme replays the kernels with the streamed
    /// [`Scheme::stage_and_record`] walk at every staging point: each
    /// block is sized, decided, refilled and folded into its accumulator
    /// cell in one pass, and no snapshot is ever materialised.
    /// Non-mutating schemes sharing the artifacts' trained table skip the
    /// kernel replay entirely: their run observes exactly the exact run's
    /// memory trajectory, so they sweep the cached
    /// [`BenchmarkArtifacts::exact_size_snapshots`] — byte-identical
    /// output, one sizing pass amortised over every scheme, MAG and
    /// threshold.
    pub fn run_functional(
        &self,
        w: &dyn Workload,
        artifacts: &BenchmarkArtifacts,
        scheme: &Scheme,
    ) -> FunctionalOutcome {
        self.functional_over(w, artifacts, scheme, &mut None)
    }

    /// [`Self::run_functional`], its kernel replay (if it needs one) run
    /// over the benchmark's working `image`.
    fn functional_over(
        &self,
        w: &dyn Workload,
        artifacts: &BenchmarkArtifacts,
        scheme: &Scheme,
        image: &mut Option<GpuMemory>,
    ) -> FunctionalOutcome {
        let mut accumulator = BurstsAccumulator::new(self.config.mag());
        let shares_artifact_table = scheme.e2mc().is_some_and(|e| {
            std::sync::Arc::ptr_eq(e.shared_table(), artifacts.e2mc.shared_table())
        });
        match scheme {
            Scheme::Uncompressed => {}
            // Lossless staging is the identity, so a fresh run would
            // retrace the exact run; sweep its cached per-boundary stored
            // sizes, one per block address, instead of re-executing the
            // kernels (the E2MC burst count needs nothing else).
            Scheme::E2mc(_) if shares_artifact_table => {
                for sizes in artifacts.exact_sizes_over(w, image) {
                    accumulator.fold_bits(0, sizes.iter().map(|&b| b.into()));
                }
            }
            _ => return self.replay(w, artifacts, scheme, image),
        }
        // Neither scheme changes a byte, so the output is the exact one.
        FunctionalOutcome {
            kind: scheme.kind(),
            error_pct: 0.0,
            mre_pct: 0.0,
            psnr_db: f64::INFINITY,
            max_abs_err: 0.0,
            bursts: accumulator.into_map(),
        }
    }

    /// The uncached functional pass: replays the kernels over the
    /// artifacts' seeded image with the one streamed staging walk at
    /// every kernel-boundary staging point, every block's bursts folded
    /// straight into the accumulator. The error figures read the output
    /// arrays where the replay left them.
    fn replay(
        &self,
        w: &dyn Workload,
        artifacts: &BenchmarkArtifacts,
        scheme: &Scheme,
        image: &mut Option<GpuMemory>,
    ) -> FunctionalOutcome {
        artifacts.assert_prepared_from(w);
        let mut accumulator = BurstsAccumulator::new(self.config.mag());
        let mem = artifacts.seeded(image);
        let mut stage = |m: &mut GpuMemory| scheme.stage_and_record(m, &mut accumulator);
        w.execute(mem, &mut stage);
        let mem = &*mem;
        let output =
            w.output_arrays().into_iter().flat_map(|(ptr, len)| mem.f32_view(ptr, len).iter());
        let errors = w.metric().compare(&artifacts.exact_output, artifacts.exact_range, output);
        FunctionalOutcome {
            kind: scheme.kind(),
            error_pct: errors.error_pct,
            mre_pct: errors.mre_pct,
            psnr_db: errors.psnr_db,
            max_abs_err: errors.max_abs_err,
            bursts: accumulator.into_map(),
        }
    }

    /// Step 4: the timing pass.
    ///
    /// The NOCOMP baseline runs with the MDC removed
    /// ([`GpuConfig::without_mdc`]): a GPU without compression hardware
    /// has no metadata cache, so the baseline must pay neither MDC
    /// lookups nor metadata DRAM traffic — every block simply moves at
    /// the MAG's maximum burst count.
    pub fn run_timing(
        &self,
        artifacts: &BenchmarkArtifacts,
        functional: &FunctionalOutcome,
        scheme: &Scheme,
    ) -> TimingOutcome {
        let (compress, decompress) = scheme.kind().codec_latency();
        let mut cfg = self.config.clone().with_codec_latency(compress, decompress);
        if matches!(scheme, Scheme::Uncompressed) {
            cfg = cfg.without_mdc();
        }
        let stats = Engine::new(cfg).run(&artifacts.trace, &functional.bursts);
        TimingOutcome { kind: scheme.kind(), stats }
    }

    /// Convenience: functional + timing in one call.
    pub fn evaluate(
        &self,
        w: &dyn Workload,
        artifacts: &BenchmarkArtifacts,
        scheme: &Scheme,
    ) -> (FunctionalOutcome, TimingOutcome) {
        let mut outcomes = self.evaluate_schemes(w, artifacts, std::slice::from_ref(scheme));
        outcomes.next().expect("one scheme in, one outcome out")
    }

    /// [`Self::evaluate`] for every scheme in turn, lazily, over **one
    /// working image**: the first kernel replay (the E2MC size pass
    /// included) clones the seeded image and every later one resets that
    /// clone in place, so a benchmark's row faults its image in once.
    /// Each replay's error figures read the output where it lies, so a
    /// row holds the exact image, the working image and the exact output,
    /// and no other copy of the inputs or the output.
    pub fn evaluate_schemes<'a>(
        &'a self,
        w: &'a dyn Workload,
        artifacts: &'a BenchmarkArtifacts,
        schemes: &'a [Scheme],
    ) -> impl Iterator<Item = (FunctionalOutcome, TimingOutcome)> + 'a {
        let mut image = None;
        schemes.iter().map(move |scheme| {
            let f = self.functional_over(w, artifacts, scheme, &mut image);
            let t = self.run_timing(artifacts, &f, scheme);
            (f, t)
        })
    }
}

/// Speedup of `candidate` over `baseline` (cycles ratio, >1 = faster).
pub fn speedup(baseline: &SimStats, candidate: &SimStats) -> f64 {
    baseline.cycles as f64 / candidate.cycles.max(1) as f64
}

/// Normalised DRAM traffic of `candidate` vs `baseline` (<1 = less).
pub fn normalized_bandwidth(baseline: &SimStats, candidate: &SimStats) -> f64 {
    candidate.total_bursts() as f64 / baseline.total_bursts().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::nn::Nn;
    use crate::metrics::ErrorMetric;
    use crate::suite::all_workloads;
    use slc_compress::{Mag, BLOCK_BITS};
    use slc_core::slc::SlcVariant;
    use slc_sim::DevicePtr;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn harness() -> Harness {
        Harness::new(Scale::Tiny)
    }

    fn assert_same_image(got: &GpuMemory, want: &GpuMemory, at: &str) {
        assert_eq!(got.regions(), want.regions(), "{at}: region table");
        for region in want.regions() {
            let same = got.region_bytes(region) == want.region_bytes(region);
            assert!(same, "{at}: region {} differs", region.label);
        }
    }

    #[test]
    fn initial_memory_is_the_seeded_build() {
        for seed in [42, 7] {
            let h = Harness { seed, ..harness() };
            for w in all_workloads(Scale::Tiny) {
                let derived = h.prepare(w.as_ref()).initial_memory();
                assert_same_image(&derived, &w.build(seed), &format!("{} seed {seed}", w.name()));
            }
        }
    }

    /// The trap: lossy staging also rewrites read-only input regions the
    /// delta records as `Unchanged`, so the in-place reset must rewrite
    /// every region, not only the changed ones.
    #[test]
    fn a_staged_working_image_resets_to_the_seeded_one() {
        let mut staged_an_unchanged_region = false;
        for seed in [42, 7] {
            let h = Harness { seed, ..harness() };
            for w in all_workloads(Scale::Tiny) {
                let at = format!("{} seed {seed}", w.name());
                let a = h.prepare(w.as_ref());
                let opt = Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
                let fresh = h.replay(w.as_ref(), &a, &opt, &mut None);
                let mut image = None;
                let first = h.replay(w.as_ref(), &a, &opt, &mut image);
                let staged = image.clone().expect("the replay left its image behind");
                staged_an_unchanged_region |= a
                    .exact_memory
                    .regions()
                    .iter()
                    .zip(&a.initial_delta)
                    .filter(|(_, delta)| **delta == RegionDelta::Unchanged)
                    .any(|(r, _)| staged.region_bytes(r) != a.exact_memory.region_bytes(r));
                assert_same_image(a.seeded(&mut image), &a.initial_memory(), &at);
                let again = h.replay(w.as_ref(), &a, &opt, &mut image);
                for f in [&first, &again] {
                    assert_eq!(f.bursts, fresh.bursts, "{at}: bursts");
                    assert_eq!(
                        (f.error_pct, f.mre_pct, f.psnr_db, f.max_abs_err),
                        (fresh.error_pct, fresh.mre_pct, fresh.psnr_db, fresh.max_abs_err),
                        "{at}: errors"
                    );
                }
            }
        }
        assert!(staged_an_unchanged_region, "no replay staged a read-only input: no trap tested");
    }

    /// Floats per region of [`ThreeRegions`] (two blocks).
    const N: usize = 64;

    /// One region per delta case: the kernel only reads `kept`, rewrites
    /// the non-zero `scaled` in place and fills the zeroed `filled`. At
    /// a middle staging point `filled`'s first block holds noise neither
    /// image shows the table: a block of escapes, stored verbatim.
    struct ThreeRegions {
        /// Makes the kernel allocate, which `prepare` must refuse.
        allocates: bool,
    }

    impl ThreeRegions {
        const PTRS: [DevicePtr; 3] =
            [DevicePtr(0), DevicePtr(4 * N as u64), DevicePtr(8 * N as u64)];
    }

    impl Workload for ThreeRegions {
        fn name(&self) -> &'static str {
            "SYN"
        }

        fn description(&self) -> &'static str {
            "the three delta cases"
        }

        fn metric(&self) -> ErrorMetric {
            ErrorMetric::Mre
        }

        fn approx_regions(&self) -> usize {
            3
        }

        fn input_description(&self) -> String {
            format!("{N} floats")
        }

        fn build(&self, seed: u64) -> GpuMemory {
            let mut mem = GpuMemory::new();
            let ptrs = ["kept", "scaled", "filled"].map(|label| mem.malloc(label, 4 * N, true));
            assert_eq!(ptrs, Self::PTRS);
            let values: Vec<f32> = (0..N).map(|i| (seed as usize + i + 1) as f32).collect();
            mem.write_f32(ptrs[0], &values);
            mem.write_f32(ptrs[1], &values);
            mem
        }

        fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
            let [kept, scaled, filled] = Self::PTRS;
            stage(mem);
            let noise = mem.regions()[2].clone();
            let mut state = 0x5eed_u64;
            for byte in &mut mem.region_bytes_mut(&noise)[..BLOCK_BYTES] {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *byte = (state >> 33) as u8;
            }
            stage(mem);
            let doubled: Vec<f32> = mem.read_f32(scaled, N).iter().map(|v| v * 2.0).collect();
            let sums: Vec<f32> =
                mem.read_f32(kept, N).iter().zip(&doubled).map(|(a, b)| a + b).collect();
            mem.write_f32(scaled, &doubled);
            mem.write_f32(filled, &sums);
            if self.allocates {
                mem.malloc("scratch", 4 * N, false);
            }
            stage(mem);
        }

        fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
            vec![(Self::PTRS[2], N)]
        }

        fn trace(&self, sms: usize) -> Trace {
            Trace::new(sms)
        }
    }

    #[test]
    fn the_three_delta_cases_reconstruct_and_only_rewritten_bytes_are_kept() {
        let h = harness();
        let w = ThreeRegions { allocates: false };
        let a = h.prepare(&w);
        let seeded = w.build(h.seed);
        assert_same_image(&a.initial_memory(), &seeded, "SYN");
        let scaled = seeded.region_bytes(&seeded.regions()[1]);
        assert_eq!(
            a.initial_delta,
            [RegionDelta::Unchanged, RegionDelta::Bytes(scaled.into()), RegionDelta::Zeroed]
        );
        // The replay runs over that image: lossless staging reproduces
        // the exact output.
        let f = h.replay(&w, &a, &Scheme::E2mc(a.e2mc.clone()), &mut None);
        assert_eq!((f.error_pct, f.max_abs_err), (0.0, 0.0));
    }

    /// The retired `prepare`, the oracle of the one that runs on the
    /// built image: the exact run on a clone of the seeded image, the
    /// delta by diffing the two, E2MC trained on both images.
    fn prepare_by_clone(h: &Harness, w: &dyn Workload) -> BenchmarkArtifacts {
        let initial = w.build(h.seed);
        let mut mem = initial.clone();
        w.execute(&mut mem, &mut |_: &mut GpuMemory| {});
        assert_eq!(initial.regions(), mem.regions(), "region table mismatch: the kernels allocate");
        let exact_output = w.output(&mem);
        let blocks = initial.blocks_with_addr().chain(mem.blocks_with_addr()).map(|(_, _, b)| b);
        let e2mc = E2mc::train_on_blocks(blocks, &E2mcConfig::default());
        let initial_delta = initial
            .regions()
            .iter()
            .map(|region| match initial.region_bytes(region) {
                seeded if seeded == mem.region_bytes(region) => RegionDelta::Unchanged,
                seeded if seeded.iter().all(|&b| b == 0) => RegionDelta::Zeroed,
                seeded => RegionDelta::Bytes(seeded.into()),
            })
            .collect();
        BenchmarkArtifacts {
            name: w.name().to_owned(),
            exact_range: metrics::value_range(&exact_output),
            exact_output,
            exact_memory: mem,
            e2mc,
            trace: w.trace(h.config.sms),
            initial_delta,
            workload_fingerprint: BenchmarkArtifacts::fingerprint(w),
            exact_size_snapshots: OnceLock::new(),
        }
    }

    #[test]
    fn prepare_equals_the_retired_clone_and_diff() {
        let mut workloads = all_workloads(Scale::Tiny);
        workloads.push(Box::new(ThreeRegions { allocates: false }));
        for seed in [42, 7] {
            let h = Harness { seed, ..harness() };
            for w in &workloads {
                let at = format!("{} seed {seed}", w.name());
                let (got, want) = (h.prepare(w.as_ref()), prepare_by_clone(&h, w.as_ref()));
                assert_eq!(got.initial_delta, want.initial_delta, "{at}: delta");
                let bits = |a: &BenchmarkArtifacts| {
                    a.exact_output.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&want), "{at}: exact output");
                assert_eq!(got.exact_range.to_bits(), want.exact_range.to_bits(), "{at}: range");
                assert_same_image(&got.exact_memory, &want.exact_memory, &at);
                assert_eq!(got.trace.len(), want.trace.len(), "{at}: trace");
                assert_eq!(got.workload_fingerprint, want.workload_fingerprint, "{at}");
                // The same training sequence (the default sampler counts
                // every block, so order alone would not show in the
                // table): the seeded image's blocks, in region order.
                let seeded = want.initial_memory();
                let rebuilt = seeded_blocks(&got.exact_memory, &got.initial_delta);
                assert!(rebuilt.eq(seeded.blocks_with_addr().map(|(.., b)| b)), "{at}: seeded");
                // The trained tables agree on every block either image holds.
                let images = [&seeded, &want.exact_memory];
                for (_, addr, block) in images.into_iter().flat_map(GpuMemory::blocks_with_addr) {
                    let sizes = (got.e2mc.size_bits(block), want.e2mc.size_bits(block));
                    assert_eq!(sizes.0, sizes.1, "{at}: block {addr}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "region table mismatch")]
    fn prepare_refuses_kernels_that_allocate() {
        harness().prepare(&ThreeRegions { allocates: true });
    }

    /// Delegates everything to `inner` and counts the `build` calls.
    struct CountingBuilds {
        inner: Nn,
        builds: AtomicUsize,
    }

    impl Workload for CountingBuilds {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn description(&self) -> &'static str {
            self.inner.description()
        }

        fn metric(&self) -> ErrorMetric {
            self.inner.metric()
        }

        fn approx_regions(&self) -> usize {
            self.inner.approx_regions()
        }

        fn input_description(&self) -> String {
            self.inner.input_description()
        }

        fn build(&self, seed: u64) -> GpuMemory {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.inner.build(seed)
        }

        fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
            self.inner.execute(mem, stage);
        }

        fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
            self.inner.output_arrays()
        }

        fn trace(&self, sms: usize) -> Trace {
            self.inner.trace(sms)
        }
    }

    #[test]
    fn a_benchmark_is_built_exactly_once() {
        // Every pass a figure makes: prepare, the two baselines, the
        // three TSLC replays, the size cache.
        let h = harness();
        let w = CountingBuilds { inner: Nn::new(Scale::Tiny), builds: AtomicUsize::new(0) };
        let a = h.prepare(&w);
        let mut schemes = vec![Scheme::Uncompressed, Scheme::E2mc(a.e2mc.clone())];
        schemes.extend(
            [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt]
                .map(|v| Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, v)),
        );
        for scheme in &schemes {
            h.run_functional(&w, &a, scheme);
        }
        assert!(!a.exact_size_snapshots(&w).is_empty());
        assert_eq!(w.builds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exact_functional_pass_has_zero_error() {
        let h = harness();
        let nn = Nn::new(Scale::Tiny);
        let artifacts = h.prepare(&nn);
        let scheme = Scheme::E2mc(artifacts.e2mc.clone());
        let f = h.run_functional(&nn, &artifacts, &scheme);
        assert_eq!(f.error_pct, 0.0);
        assert_eq!(f.mre_pct, 0.0);
        assert!(!f.bursts.is_empty(), "trained E2MC should compress NN traffic");
    }

    #[test]
    fn cached_baseline_pass_equals_direct_replay() {
        // The E2MC baseline sweeps the artifacts' cached exact-run sizes
        // region by region instead of re-executing the kernels; the
        // outcome must be indistinguishable from the uncached replay, at
        // every MAG, for every benchmark and seed.
        for seed in [42, 7] {
            let h = Harness { seed, ..harness() };
            for w in all_workloads(Scale::Tiny) {
                let a = h.prepare(w.as_ref());
                let scheme = Scheme::E2mc(a.e2mc.clone());
                for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
                    let at = format!("{} seed {seed} MAG {mag}", w.name());
                    let hm = h.clone().with_config(h.config.with_mag(mag));
                    let cached = hm.run_functional(w.as_ref(), &a, &scheme);
                    let direct = hm.replay(w.as_ref(), &a, &scheme, &mut None);
                    assert_eq!(cached.bursts, direct.bursts, "{at}: bursts");
                    assert_eq!(
                        (cached.error_pct, cached.mre_pct, cached.psnr_db, cached.max_abs_err),
                        (direct.error_pct, direct.mre_pct, direct.psnr_db, direct.max_abs_err),
                        "{at}: errors"
                    );
                }
            }
        }
        // A scheme trained elsewhere must not consume the cache (and the
        // harness falls back to the replay without panicking).
        let h = harness();
        let nn = Nn::new(Scale::Tiny);
        let artifacts = h.prepare(&nn);
        let foreign = Scheme::E2mc(E2mc::train_on_bytes(
            &(0..4096u32).flat_map(|i| (i % 7).to_le_bytes()).collect::<Vec<u8>>(),
            &E2mcConfig::default(),
        ));
        let f = h.run_functional(&nn, &artifacts, &foreign);
        assert_eq!(f.error_pct, 0.0);
    }

    /// Entry *i* of staging point *k* of the size cache is the stored
    /// size of the *i*-th block of an independent execute's *k*-th
    /// snapshot; the synthetic pipeline adds a block no table codes.
    #[test]
    fn size_cache_equals_the_analysis_of_every_staging_point() {
        let h = harness();
        let mut workloads = all_workloads(Scale::Tiny);
        workloads.push(Box::new(ThreeRegions { allocates: false }));
        let mut verbatim = 0;
        for w in &workloads {
            let a = h.prepare(w.as_ref());
            let mut snapshots: Vec<Vec<u32>> = Vec::new();
            let mut capture = |m: &mut GpuMemory| {
                snapshots.push(m.blocks_with_addr().map(|(.., b)| a.e2mc.size_bits(b)).collect());
            };
            w.execute(&mut a.initial_memory(), &mut capture);
            let cache = a.exact_size_snapshots(w.as_ref());
            assert_eq!(cache.len(), snapshots.len(), "{}: staging points", w.name());
            for (k, (sizes, snapshot)) in cache.iter().zip(&snapshots).enumerate() {
                assert_eq!(sizes.len(), snapshot.len(), "{} point {k}", w.name());
                for (i, (&size, &want)) in sizes.iter().zip(snapshot).enumerate() {
                    assert_eq!(u32::from(size), want, "{} point {k} block {i}", w.name());
                    verbatim += usize::from(want == BLOCK_BITS);
                }
            }
        }
        assert!(verbatim > 0, "no verbatim block: the cap was not tested");
    }

    #[test]
    #[should_panic(expected = "different workload instance")]
    fn exact_snapshots_reject_a_different_scale_instance() {
        // Same benchmark name, different scale: the cache must refuse it
        // (name alone cannot tell the two input pipelines apart).
        let h = harness();
        let artifacts = h.prepare(&Nn::new(Scale::Tiny));
        let _ = artifacts.exact_size_snapshots(&Nn::new(Scale::Small));
    }

    #[test]
    #[should_panic(expected = "different workload instance")]
    fn replays_reject_a_different_scale_instance() {
        // The replay runs `w`'s kernels over the artifacts' image.
        let h = harness();
        let artifacts = h.prepare(&Nn::new(Scale::Tiny));
        let scheme = Scheme::slc(artifacts.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
        h.run_functional(&Nn::new(Scale::Small), &artifacts, &scheme);
    }

    #[test]
    fn slc_introduces_small_error_and_saves_bursts() {
        let h = harness();
        let nn = Nn::new(Scale::Tiny);
        let artifacts = h.prepare(&nn);
        let lossless = Scheme::E2mc(artifacts.e2mc.clone());
        let lossy = Scheme::slc(artifacts.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
        let f_lossless = h.run_functional(&nn, &artifacts, &lossless);
        let f_lossy = h.run_functional(&nn, &artifacts, &lossy);
        assert!(f_lossy.mre_pct >= 0.0);
        // Both maps record the full block population of the same memory
        // trajectory, so the means average the same block set and the
        // comparison is apples to apples (and strict: the lossy mode
        // must actually save bursts somewhere on NN).
        assert_eq!(
            f_lossy.bursts.len(),
            f_lossless.bursts.len(),
            "burst maps must cover the identical block population"
        );
        assert!(
            f_lossy.bursts.mean_bursts() < f_lossless.bursts.mean_bursts(),
            "SLC must cut traffic: {} vs {}",
            f_lossy.bursts.mean_bursts(),
            f_lossless.bursts.mean_bursts()
        );
    }

    #[test]
    fn nocomp_baseline_pays_no_metadata() {
        // A GPU without compression has no MDC: the NOCOMP timing run
        // must record zero MDC activity and zero metadata traffic, while
        // a compressed scheme on the same trace pays real metadata
        // fetches *and* write-backs (its stores update burst counts).
        let h = harness();
        let nn = Nn::new(Scale::Tiny);
        let artifacts = h.prepare(&nn);
        let (_, t) = h.evaluate(&nn, &artifacts, &Scheme::Uncompressed);
        assert_eq!(t.stats.mdc_hits + t.stats.mdc_misses, 0, "NOCOMP has no MDC");
        assert_eq!(t.stats.metadata_bursts, 0);
        assert_eq!(t.stats.metadata_writeback_bursts, 0);
        let lossless = Scheme::E2mc(artifacts.e2mc.clone());
        let (_, tc) = h.evaluate(&nn, &artifacts, &lossless);
        assert!(tc.stats.mdc_hits + tc.stats.mdc_misses > 0);
        assert!(tc.stats.metadata_bursts > 0);
        assert!(
            tc.stats.metadata_writeback_bursts > 0,
            "write-heavy run must store updated metadata lines"
        );
    }

    #[test]
    fn timing_ranks_schemes_sanely() {
        let h = harness();
        let nn = Nn::new(Scale::Tiny);
        let artifacts = h.prepare(&nn);
        let none = Scheme::Uncompressed;
        let lossless = Scheme::E2mc(artifacts.e2mc.clone());
        let (f0, t0) = h.evaluate(&nn, &artifacts, &none);
        let (f1, t1) = h.evaluate(&nn, &artifacts, &lossless);
        assert_eq!(f0.error_pct, 0.0);
        assert_eq!(f1.error_pct, 0.0);
        assert!(
            t1.stats.total_bursts() < t0.stats.total_bursts(),
            "compression must cut bursts: {} vs {}",
            t1.stats.total_bursts(),
            t0.stats.total_bursts()
        );
        assert!(speedup(&t0.stats, &t1.stats) > 1.0, "E2MC should beat no compression on NN");
    }

    #[test]
    fn speedup_and_bandwidth_helpers() {
        let mut a = SimStats::new();
        a.cycles = 200;
        a.read_bursts = 100;
        let mut b = SimStats::new();
        b.cycles = 100;
        b.read_bursts = 50;
        assert!((speedup(&a, &b) - 2.0).abs() < 1e-12);
        assert!((normalized_bandwidth(&a, &b) - 0.5).abs() < 1e-12);
    }
}
