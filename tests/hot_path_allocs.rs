//! What the hot paths allocate, counted: per-block encode and decode of
//! every codec, the engine's per-container scaffolding, `slc-core`'s
//! staging and codec steps, a snapshot's capture, the staging walk, the
//! benchmarks' kernels. Hardware compressors own
//! no heap (paper §III), so a per-block count is an exact zero wherever
//! the model keeps that promise and the measured cost where it does not
//! (the default `size_bits`' scratch buffer). Bytes asked for are
//! counted too. The counter is per thread and every measured call runs
//! serially on its caller's thread, so parallel test threads do not
//! disturb it.

#![deny(clippy::undocumented_unsafe_blocks)]

use slc::slc_compress::bdi::Bdi;
use slc::slc_compress::bpc::Bpc;
use slc::slc_compress::cpack::Cpack;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig};
use slc::slc_compress::fpc::Fpc;
use slc::slc_compress::rans::Rans;
use slc::slc_compress::{Block, BlockCodec, BlockCompressor, Mag, BLOCK_BYTES};
use slc::slc_core::slc::{SlcCompressor, SlcConfig, SlcVariant};
use slc::slc_engine::{Engine, Frame, Threads, DIR_ENTRY_BYTES, HEADER_BYTES};
use slc::slc_sim::mc::UniformBursts;
use slc::slc_sim::{GpuConfig, GpuMemory, Trace};
use slc::slc_workloads::scheme::BurstsAccumulator;
use slc::slc_workloads::{all_workloads, Harness, Scale, Scheme, SnapshotAnalysis};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

thread_local! {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// The least and greatest size to watch for, and how many of those
    /// calls asked for a size between them.
    static WATCHED: Cell<(usize, usize, u64)> = const { Cell::new((usize::MAX, 0, 0)) };
}

/// Counts one allocator call of `size` bytes on this thread.
fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
    WATCHED.with(|w| {
        let (least, greatest, seen) = w.get();
        w.set((least, greatest, seen + u64::from((least..=greatest).contains(&size))));
    });
}

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// contract is therefore this allocator's. The only addition is the
// counters: const-initialised thread-local `Cell`s of integers have no
// lazy initialiser and no destructor, so touching them neither allocates
// nor re-enters the allocator, on any thread at any point of its life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` because every method here delegates.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations it made with its result.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.get();
    let out = f();
    (ALLOCS.get() - before, out)
}

/// Runs `f` and returns how many bytes its allocations asked for with
/// its result.
fn bytes_requested<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.get();
    let out = f();
    (BYTES.get() - before, out)
}

/// Runs `f` and returns how many of its allocations were of exactly
/// `size` bytes with its result.
fn allocs_of<R>(size: usize, f: impl FnOnce() -> R) -> (u64, R) {
    allocs_between(size, size, f)
}

/// Runs `f` and returns how many of its allocations were of `least` to
/// `greatest` bytes with its result.
fn allocs_between<R>(least: usize, greatest: usize, f: impl FnOnce() -> R) -> (u64, R) {
    WATCHED.set((least, greatest, 0));
    let out = f();
    (WATCHED.replace((usize::MAX, 0, 0)).2, out)
}

/// A seeded mix, one quarter each: zero blocks, u32 ramps with small
/// deltas, smooth f32 values, and noise no codec can code.
fn corpus(blocks: usize) -> Vec<Block> {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 32) as u32
    };
    (0..blocks)
        .map(|i| {
            let mut block = [0u8; BLOCK_BYTES];
            let base = next();
            for (w, word) in block.chunks_exact_mut(4).enumerate() {
                let value = match i % 4 {
                    0 => 0,
                    1 => base.wrapping_add(next() % 100),
                    2 => (((base % 512) as f32) * 0.5 + w as f32 * 0.25).to_bits(),
                    _ => next(),
                };
                word.copy_from_slice(&value.to_le_bytes());
            }
            block
        })
        .collect()
}

/// The five block codecs the zero contract covers, then rANS. E2MC
/// comes warmed ([`warm`]).
fn codecs(training: &[u8]) -> Vec<Arc<dyn BlockCodec>> {
    let e2mc = E2mc::train_on_bytes(training, &E2mcConfig::default());
    warm(&e2mc);
    vec![
        Arc::new(Bdi::new()),
        Arc::new(Fpc::new()),
        Arc::new(Cpack::new()),
        Arc::new(Bpc::new()),
        Arc::new(e2mc),
        Arc::new(Rans::new()),
    ]
}

/// Bytes of E2MC's encode table: a `u64` per symbol and the hole's entry.
const E2MC_ENCODE_TABLE: usize = ((1 << 16) + 1) * 8;

/// Bytes of E2MC's decode table: a `u32` per 16-bit window.
const E2MC_DECODE_TABLE: usize = (1 << 16) * 4;

/// Writes and reads one stream through `e2mc`'s table, which builds its
/// encode and decode tables: what the first block coded and the first
/// decoded would do. A count after this sees the per-block work only.
fn warm(e2mc: &E2mc) {
    let table = e2mc.table();
    black_box(table.write_ways((1, 1), &[0; BLOCK_BYTES / 2], 0..0, &mut Vec::new()));
    black_box(table.decode_symbol(0));
}

/// Training builds neither stream table; the first block coded builds
/// the encode table and nothing else, the first decoded the decode table
/// and nothing else, and from then on both cost nothing.
#[test]
fn e2mc_builds_its_encode_and_decode_tables_on_first_use() {
    let blocks = corpus(64);
    let train = || E2mc::train_on_bytes(blocks.as_flattened(), &E2mcConfig::default());
    assert_eq!(allocs_of(E2MC_ENCODE_TABLE, train).0, 0, "training: an encode table");
    assert_eq!(allocs_of(E2MC_DECODE_TABLE, train).0, 0, "training: a decode table");
    let e2mc = train();
    // The zero block codes; the sink holds room for it twice.
    let mut sink = Vec::with_capacity(3 * BLOCK_BYTES);
    let (all, (table, (bits, coded))) =
        allocs(|| allocs_of(E2MC_ENCODE_TABLE, || e2mc.compress_into(&blocks[0], &mut sink)));
    assert!(coded && bits < 200, "the zero block codes: {bits} bits");
    assert_eq!((all, table), (1, 1), "first encode: the encode table");
    let payload = sink.clone();
    assert_eq!(allocs(|| e2mc.compress_into(&blocks[0], &mut sink)), (0, (bits, coded)), "again");
    let mut out = [0xa5; BLOCK_BYTES];
    let mut decode = || e2mc.decompress_into(bits, coded, &payload, &mut out);
    let (all, (table, decoded)) = allocs(|| allocs_of(E2MC_DECODE_TABLE, &mut decode));
    assert_eq!((all, table, decoded), (1, 1, Ok(())), "first decode: the decode table");
    assert_eq!(allocs(decode), (0, Ok(())), "second decode");
    assert_eq!(out, blocks[0]);
}

#[test]
fn per_block_encode_and_decode() {
    let blocks = corpus(4096);
    let n = blocks.len() as u64;
    for codec in codecs(blocks.as_flattened()) {
        let name = codec.id().name();
        // A sink that already holds room for every block verbatim, plus
        // the writer's look-ahead: what the engine's chunk buffer gives.
        let mut sink = Vec::with_capacity((blocks.len() + 2) * BLOCK_BYTES);
        let mut sizes = Vec::with_capacity(blocks.len());
        let (encode, ()) = allocs(|| {
            for block in &blocks {
                sizes.push(codec.compress_into(block, &mut sink));
            }
        });
        let (decode, ()) = allocs(|| {
            let mut rest = &sink[..];
            for (block, &(bits, coded)) in blocks.iter().zip(&sizes) {
                let (payload, tail) = rest.split_at(bits.div_ceil(8) as usize);
                rest = tail;
                let mut out = [0u8; BLOCK_BYTES];
                codec.decompress_into(bits, coded, payload, &mut out).unwrap();
                assert_eq!(out, *block, "{name}");
            }
        });
        let coded = sizes.iter().filter(|&&(_, coded)| coded).count() as u64;
        assert!(0 < coded && coded < n, "{name} must both code and store verbatim: {coded}/{n}");
        // bdi sizes a block by encoding it into a stack window and e2mc
        // without encoding it, so neither allocates. The others'
        // `size_bits` is one `compress_into` into one buffer. The
        // default's is block-sized and grows once more for a block whose
        // coded stream overruns it before the verbatim fallback (half the
        // corpus for fpc). The counts of fpc, cpack and bpc are those of
        // the owned `compress` the default used to call, measured before
        // it went. rANS sizes its buffer for the 7 bytes its words may
        // reserve past the block, so it never grows: one per block.
        let mut sized_bits = Vec::with_capacity(blocks.len());
        let (sized, ()) = allocs(|| {
            for block in &blocks {
                sized_bits.push(black_box(codec.size_bits(block)));
            }
        });
        let pinned = match name {
            "bdi" | "e2mc" => 0,
            "fpc" => 6144,
            "cpack" => 5328,
            "bpc" => 5117,
            _ => 4096,
        };
        assert_eq!(sized, pinned, "{name} size_bits over {n} blocks");
        assert!(
            sized_bits.iter().copied().eq(sizes.iter().map(|&(bits, _)| bits)),
            "{name}: size_bits and compress_into disagree"
        );
        // Every codec, rANS too, encodes into the sink and decodes into
        // the block it is handed: rANS' words go into the sink's spare
        // room, and its decode table is on the stack.
        assert_eq!((encode, decode), (0, 0), "{name} compress_into / decompress_into");
    }
}

/// Bytes a serial compress may ask for past the container it returns:
/// the chunk writer's room past the input and the one-run work list.
const COMPRESS_SLACK: u64 = 1024;

#[test]
fn engine_scaffolding_scales_with_chunks_not_blocks() {
    let blocks = corpus(8 * 512);
    let bytes = blocks.as_flattened();
    for codec in codecs(bytes) {
        let name = codec.id().name();
        for blocks_per_chunk in [128, 512] {
            let chunk_bytes = blocks_per_chunk * BLOCK_BYTES;
            let engine = Engine::new(codec.clone()).with_chunk_bytes(chunk_bytes);
            let mut compresses = Vec::new();
            for chunks in [1usize, 4, 8] {
                let at = format!("{name}, {chunks} chunks of {blocks_per_chunk} blocks");
                let input = &bytes[..chunks * chunk_bytes];
                // Compress: the container, reserved once for header,
                // directory and input and written in place, and the work
                // list of its one run; nothing per chunk or per block.
                let (compress, (requested, container)) =
                    allocs(|| bytes_requested(|| engine.compress_threads(input, Threads::Serial)));
                compresses.push(compress);
                let whole = HEADER_BYTES + chunks * DIR_ENTRY_BYTES + input.len();
                assert!(
                    requested <= whole as u64 + COMPRESS_SLACK,
                    "{at}: {requested} bytes requested for a {whole}-byte bound"
                );
                let parsed = allocs(|| Frame::parse(&container).is_ok());
                assert_eq!(parsed, (1, true), "{at}: the directory is a frame's one allocation");
                // Decompress, per container: the directory, the work list,
                // a collect that may shrink in place; per chunk: nothing.
                let mut out = vec![0u8; input.len()];
                let (decompress, result) = allocs(|| {
                    engine.decompress_into_threads(&container, &mut out, Threads::Serial)
                });
                assert_eq!((result, &out[..]), (Ok(()), input), "{at}");
                assert!(decompress <= 3, "{at}: {decompress}");
            }
            let at = format!("{name}, chunks of {blocks_per_chunk} blocks");
            assert_eq!(compresses, [2; 3], "{at}: compress at 1, 4 and 8 chunks");
        }
    }
}

/// PR 18's claim, pinned where lossy blocks are common: what the staging
/// walk calls per block builds no `SlcCompressed`, no payload `Vec`,
/// nothing on the heap; the codec costs the payload it
/// returns and nothing else.
#[test]
fn slc_core_staging_is_heap_free_and_the_codec_costs_its_payload() {
    let harness = Harness::new(Scale::Tiny);
    let (mut total, mut lossy) = (0, 0);
    for w in all_workloads(Scale::Tiny) {
        let a = harness.prepare(w.as_ref());
        let blocks: Vec<Block> =
            a.exact_memory.all_blocks().filter(|(r, _)| r.safe_to_approx).map(|(_, b)| b).collect();
        warm(&a.e2mc);
        for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
            let at = format!("{} {}", w.name(), variant.label());
            let slc = SlcCompressor::new(a.e2mc.clone(), SlcConfig::new(Mag::GDDR5, 16, variant));
            let (staging, went_lossy) = allocs(|| {
                let mut went_lossy = 0;
                for block in &blocks {
                    let analysis = slc.analysis(block);
                    black_box(slc.stored_bursts_with(&analysis));
                    went_lossy += usize::from(slc.stored_bits_with(&analysis).1);
                    let (mut staged, mut restaged) = (*block, analysis.clone());
                    black_box(slc.stage_in_place(&mut staged, &mut restaged));
                    a.e2mc.reanalyze(&mut restaged, &staged, 48..64);
                    black_box(restaged.tree_sums());
                }
                went_lossy
            });
            assert_eq!(staging, 0, "{at}: analysis, round trip, hole re-look-up");
            if variant == SlcVariant::TslcOpt {
                (total, lossy) = (total + blocks.len(), lossy + went_lossy);
            }
            let mut stored = Vec::with_capacity(blocks.len());
            let (compress, ()) = allocs(|| {
                stored.extend(blocks.iter().map(|b| slc.compress_with(b, &slc.analysis(b))));
            });
            assert_eq!(compress, blocks.len() as u64, "{at}: compress_with, one payload a block");
            let (decompress, ()) = allocs(|| {
                for c in &stored {
                    black_box(slc.decompress(c));
                }
            });
            assert_eq!(decompress, 0, "{at}: decompress");
        }
    }
    assert!(4 * lossy >= total, "only {lossy} of {total} blocks go lossy under TSLC-OPT at 16 B");
}

/// A snapshot is one buffer: capture sizes it from the memory image and
/// writes every entry once, whatever the block count, and the E2MC size
/// cache is one such buffer per staging point. The staging walk
/// holds none: its first staging point allocates the accumulator's cells
/// and every later one nothing. The
/// seeded image costs a clone of the final one, and a benchmark's row
/// makes that clone once: the second and later replays reset it in place.
#[test]
fn a_snapshot_is_one_allocation_and_the_seeded_image_one_clone() {
    for blocks in [1 << 10, 1 << 16] {
        let corpus = corpus(blocks);
        let e2mc = E2mc::train_on_bytes(corpus.as_flattened(), &E2mcConfig::default());
        // Two regions, so the walk crosses a region boundary; the
        // approximable one holds the corpus, a quarter of it blocks that
        // TSLC-OPT sends lossy.
        let mut mem = GpuMemory::new();
        mem.malloc("approx", blocks / 2 * BLOCK_BYTES, true);
        mem.malloc("exact", blocks / 2 * BLOCK_BYTES, false);
        let approx = mem.regions()[0].clone();
        mem.region_bytes_mut(&approx).copy_from_slice(corpus[..blocks / 2].as_flattened());
        let (full, snapshot) = allocs(|| SnapshotAnalysis::capture(&e2mc, &mem));
        assert_eq!((full, snapshot.entries().len()), (1, blocks), "SnapshotAnalysis::capture");
        let scheme = Scheme::slc(e2mc.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        // The first region's cells and their growth over the second
        // region — and that is all the walk ever allocates.
        let pristine = mem.clone();
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        let first = allocs(|| scheme.stage_and_record(&mut mem, &mut acc)).0;
        assert_eq!(first, 2, "first staging point: the accumulator's cells");
        let staged_bytes = mem.region_bytes(&approx);
        assert!(staged_bytes != corpus[..blocks / 2].as_flattened(), "nothing went lossy");
        let later = allocs(|| scheme.stage_and_record(&mut mem, &mut acc)).0;
        assert_eq!(later, 0, "later staging points");
        // The walk as a value: the staged image's one capture.
        let mut mem = pristine;
        let (staged, snapshot) = allocs(|| scheme.stage_analyzed(&mut mem));
        assert_eq!((staged, snapshot.map(|s| s.entries().len())), (1, Some(blocks)), "stage");
    }
    let harness = Harness::new(Scale::Tiny);
    for w in all_workloads(Scale::Tiny) {
        let a = harness.prepare(w.as_ref());
        let (clone, _) = allocs(|| a.exact_memory.clone());
        let (derived, _) = allocs(|| a.initial_memory());
        assert_eq!(derived, clone, "{}: initial_memory", w.name());
        // One row, four kernel replays: the E2MC size pass, three variants.
        let image = a.exact_memory.len();
        assert_eq!(allocs_of(image, || a.initial_memory()).0, 1, "{}: a clone is seen", w.name());
        let mut schemes = vec![Scheme::E2mc(a.e2mc.clone())];
        schemes.extend(
            [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt]
                .map(|v| Scheme::slc(a.e2mc.clone(), Mag::GDDR5, 16, v)),
        );
        let (images, outcomes) =
            allocs_of(image, || harness.evaluate_schemes(w.as_ref(), &a, &schemes).count());
        assert_eq!((images, outcomes), (1, 4), "{}: one working image a row", w.name());
        // The size pass on its own: the seeded image's clone, what the
        // kernels allocate, one buffer per staging point and the outer
        // list's growth — nothing per block.
        let a = harness.prepare(w.as_ref());
        let mut mem = a.initial_memory();
        let kernels = allocs(|| w.execute(&mut mem, &mut |_: &mut GpuMemory| {})).0;
        let (first, points) = allocs(|| a.exact_size_snapshots(w.as_ref()).len());
        let cached = allocs(|| a.exact_size_snapshots(w.as_ref())).0;
        let growth = allocs(|| {
            let mut list: Vec<Box<[u16]>> = Vec::new();
            (0..points).for_each(|_| list.push(Box::default()));
            list
        });
        assert_eq!(
            first - cached,
            clone + kernels + points as u64 + growth.0,
            "{}: the size pass over {points} staging points",
            w.name()
        );
    }
}

/// `Harness::prepare` runs the exact pass on the image `Workload::build`
/// made and keeps it: it makes no image-sized allocation the build does
/// not. E2MC training sizes its sampler and width table by the symbol
/// space, whatever the image, and builds no encode or decode table: no
/// figure writes or reads a stream.
#[test]
fn prepare_costs_the_built_image_and_no_copy() {
    let harness = Harness::new(Scale::Tiny);
    for w in all_workloads(Scale::Tiny) {
        let image = w.build(harness.seed).len();
        let (built, _) = allocs_of(image, || w.build(harness.seed));
        let (prepared, a) = allocs_of(image, || harness.prepare(w.as_ref()));
        for table in [E2MC_ENCODE_TABLE, E2MC_DECODE_TABLE] {
            let (tables, _) = allocs_of(table, || harness.prepare(w.as_ref()));
            assert_eq!(tables, 0, "{}: prepare, {table} B", w.name());
        }
        let seeded = a.initial_memory();
        let images = [&seeded, &a.exact_memory];
        let blocks = images.into_iter().flat_map(GpuMemory::blocks_with_addr).map(|(.., b)| b);
        let train = || E2mc::train_on_blocks(blocks, &E2mcConfig::default());
        let (trained, _) = allocs_of(image, train);
        assert_eq!(prepared, built + trained, "{}: image-sized allocations", w.name());
    }
}

/// A TSLC replay reads its output where the kernels left it: a row of
/// the three variants allocates of the output's size only what its
/// kernels do (SRAD1's held plane, [`a_kernel_owns_no_array`]). What the
/// row allocates that is larger is pinned: the working image, once; per
/// replay the accumulator's cells where they are larger (JM), and the
/// timing run's 48 KiB L2 tag array where that is.
#[test]
fn a_replay_reads_its_output_in_place() {
    let harness = Harness::new(Scale::Tiny);
    let larger = [
        ("JM", 1 + 3 * 2),
        ("BS", 1),
        ("DCT", 1 + 3),
        ("FWT", 1 + 3),
        ("TP", 1),
        ("BP", 1),
        ("NN", 1 + 3),
        ("SRAD1", 1 + 3),
        ("SRAD2", 1 + 3),
    ];
    for (w, (name, pin)) in all_workloads(Scale::Tiny).iter().zip(larger) {
        assert_eq!(w.name(), name);
        let a = harness.prepare(w.as_ref());
        let output = 4 * w.output_arrays().iter().map(|&(_, len)| len).sum::<usize>();
        let schemes = [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt]
            .map(|v| Scheme::slc(a.e2mc.clone(), Mag::GDDR5, 16, v));
        let row = || harness.evaluate_schemes(w.as_ref(), &a, &schemes).count();
        let mut mem = a.initial_memory();
        let (kernels, ()) = allocs_of(output, || w.execute(&mut mem, &mut |_: &mut GpuMemory| {}));
        assert_eq!(allocs_of(output, row), (3 * kernels, 3), "{name}: output-sized");
        let above = allocs_between(output + 1, usize::MAX, row).0;
        assert_eq!(above, pin, "{name}: larger than the output ({output} B)");
    }
}

/// The timing run sizes its state once: caches, MDC, channels, SMs and
/// the laggard's min-tree when it starts; the write buffers and MSHR files
/// as they first fill; the end-of-kernel flush lists. A Table III trace
/// and the same trace run twice over cost the same allocations, so nothing
/// in the simulator's loop allocates per op. The counts are pinned: the 51
/// an empty trace makes too (the L2 and the MDC, each a `Cache` of two
/// buffers, tags and sets; the channel list and 12 bank files, the SM
/// list, 16 L1s of two buffers each, the tree),
/// and growth that depends on how deep each benchmark fills the queues.
#[test]
fn a_timing_run_allocates_per_run_not_per_op() {
    let pinned = [
        ("JM", 190),
        ("BS", 176),
        ("DCT", 118),
        ("FWT", 159),
        ("TP", 160),
        ("BP", 187),
        ("NN", 135),
        ("SRAD1", 162),
        ("SRAD2", 142),
    ];
    let cfg = GpuConfig::default();
    let bursts = UniformBursts(3);
    let engine = slc::slc_sim::Engine::new(cfg.clone());
    let empty = Trace::new(cfg.sms);
    assert_eq!(allocs(|| engine.run(&empty, &bursts)).0, 51, "an empty trace");
    for (w, (name, pin)) in all_workloads(Scale::Tiny).iter().zip(pinned) {
        assert_eq!(w.name(), name);
        let trace = w.trace(cfg.sms);
        let mut twice = trace.clone();
        for sm in 0..trace.sms() {
            trace.stream(sm).iter().for_each(|packed| twice.push(sm, packed.op()));
        }
        let (once, stats) = allocs(|| engine.run(&trace, &bursts));
        let (doubled, stats_twice) = allocs(|| engine.run(&twice, &bursts));
        assert_eq!(stats_twice.ops, 2 * stats.ops, "{name}");
        assert_eq!((once, doubled), (pin, pin), "{name}: {} ops, then twice that", stats.ops);
    }
}

/// A kernel computes on device memory, through the views
/// [`GpuMemory::launch`] lends it: whatever the input size, `execute`
/// makes the same few allocations (pointer lists, BP's hidden-layer
/// deltas) and none the size of an array. The one exception is counted
/// too: SRAD1's kernel 1 reads J as it was before the reduction's staging
/// point, so each of its two iterations holds that one plane.
#[test]
fn a_kernel_owns_no_array() {
    let mut noop = |_: &mut GpuMemory| {};
    for (tiny, small) in all_workloads(Scale::Tiny).iter().zip(all_workloads(Scale::Small)) {
        let name = tiny.name();
        let mut totals = [0; 2];
        for (w, total) in [tiny, &small].into_iter().zip(&mut totals) {
            let image = w.build(42);
            let mut mem = image.clone();
            *total = allocs(|| w.execute(&mut mem, &mut noop)).0;
            let mut sizes: Vec<usize> = image.regions().iter().map(|r| r.size as usize).collect();
            sizes.sort_unstable();
            sizes.dedup();
            let array_sized: u64 = sizes
                .iter()
                .map(|&size| {
                    let mut mem = image.clone();
                    allocs_of(size, || w.execute(&mut mem, &mut noop)).0
                })
                .sum();
            let held = if name == "SRAD1" { 2 } else { 0 };
            assert_eq!(array_sized, held, "{name}, {}: array-sized", w.input_description());
        }
        assert_eq!(totals[0], totals[1], "{name}: allocations at tiny and at small");
        assert!(totals[0] <= 8, "{name}: {} allocations", totals[0]);
    }
}
