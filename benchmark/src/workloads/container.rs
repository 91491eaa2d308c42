//! The three container workloads: `snap_e2mc`, `mixed_bdi`, `mixed_rans`.
//!
//! One op is one stream (a snapshot, or a 4 MiB corpus stream) through
//! `Engine::compress_threads(_, Serial)` or
//! `Engine::decompress_into_threads(_, _, Serial)`; the traced run adds
//! the bare codec loops and the other engine entry points on the same
//! streams.

use super::{finish_common, harness, span_total, train_op, training_blocks, Workload};
use crate::corpus::{self, Rng};
use crate::ctx::{ratio, Ctx, Options, Outcome};
use crate::stats::Digest;
use slc_compress::bdi::Bdi;
use slc_compress::e2mc::E2mc;
use slc_compress::rans::Rans;
use slc_compress::{Block, BlockCodec, BlockCompressor, BLOCK_BYTES};
use slc_engine::{frame_info, Engine, Frame, StorageMode, Threads};
use slc_workloads::{all_workloads, compress_snapshot, snapshot_bytes, SnapshotAnalysis};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Seeded single-bit flips per container and round (the issue's 64 per
/// container cost one full decode each; rounds were cut, not inputs).
const FLIPS_PER_CONTAINER: usize = 4;

/// `StreamEncoder::push` granularity.
const PUSH_BYTES: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    SnapE2mc,
    MixedBdi,
    MixedRans,
}

/// While set, the panic hook prints nothing: hostile decodes make the
/// codecs' corrupt-stream guards panic by design (the engine contains
/// them), and thousands of backtraces would bury real failures.
static QUIET_PANICS: AtomicBool = AtomicBool::new(false);

fn install_quiet_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !QUIET_PANICS.load(Ordering::Relaxed) {
            default(info);
        }
    }));
}

/// The chunks the engine stored coded, pre-encoded so the bare decode
/// loop has the same inputs the engine's decode has.
struct Bare {
    /// Indices of those chunks.
    chunks: Vec<usize>,
    encoded: Encoded,
}

enum Encoded {
    /// Per-block codec: one payload, and per block of the coded chunks
    /// `(payload offset, size bits, coded, block index in the stream)`.
    Blocks { payload: Vec<u8>, blocks: Vec<(u32, u32, bool, u32)> },
    /// Whole-chunk coder: one coded stream per coded chunk.
    Chunks(Vec<Vec<u8>>),
}

/// What only the traced run needs of a stream.
struct Probes {
    bare: Bare,
    /// Scratch copy of the reference container for the bit flips.
    hostile: Vec<u8>,
    flip_bits: Vec<usize>,
    /// `snap_e2mc`: the trained codec, the cached analysis of the same
    /// snapshot, and the blocks the table was trained on.
    e2mc: Option<(E2mc, SnapshotAnalysis, Vec<Block>)>,
}

struct Stream {
    bytes: Vec<u8>,
    engine: Engine,
    codec: Arc<dyn BlockCodec>,
    /// Round 0's container: what every later compress must reproduce.
    reference: Vec<u8>,
    /// Reused decode buffer.
    out: Vec<u8>,
    probes: Option<Probes>,
    /// From the bare encode loop: (blocks, verbatim blocks, stored bits).
    bare_counts: (u64, u64, u64),
}

pub struct Containers {
    flavor: Flavor,
    streams: Vec<Stream>,
}

fn blocks(bytes: &[u8]) -> impl Iterator<Item = &Block> {
    bytes.chunks_exact(BLOCK_BYTES).map(|b| b.try_into().expect("exact chunk"))
}

impl Stream {
    fn new(bytes: Vec<u8>, codec: Arc<dyn BlockCodec>) -> Self {
        assert!(bytes.len().is_multiple_of(BLOCK_BYTES), "streams are whole blocks");
        let engine = Engine::new(Arc::clone(&codec));
        let out = vec![0u8; bytes.len()];
        Self {
            bytes,
            engine,
            codec,
            reference: Vec::new(),
            out,
            probes: None,
            bare_counts: (0, 0, 0),
        }
    }

    /// Round 0: the reference container and the first round-trip check.
    fn round_zero(&mut self, ctx: &mut Ctx, index: usize) {
        let (container, _) = ctx
            .op("engine.compress", || self.engine.compress_threads(&self.bytes, Threads::Serial));
        self.reference = container.unwrap_or_default();
        let (decoded, _) = ctx.op("engine.decompress", || {
            self.engine.decompress_into_threads(&self.reference, &mut self.out, Threads::Serial)
        });
        ctx.count(("round0", index), matches!(decoded, Some(Ok(()))) && self.out == self.bytes);
    }

    fn compress(&mut self, ctx: &mut Ctx, group: &'static str, index: usize, threads: Threads) {
        ctx.timed(
            "engine.compress",
            (group, index),
            || self.engine.compress_threads(&self.bytes, threads),
            |container| *container == self.reference,
        );
    }

    fn decompress(&mut self, ctx: &mut Ctx, group: &'static str, index: usize, threads: Threads) {
        // Stale correct bytes from the previous round must not pass for a
        // decode that wrote nothing.
        self.out.fill(0xa5);
        let (decoded, seconds) = ctx.op("engine.decompress", || {
            self.engine.decompress_into_threads(&self.reference, &mut self.out, threads)
        });
        let ok = ctx.verify(|| matches!(decoded, Some(Ok(()))) && self.out == self.bytes);
        ctx.book((group, index), seconds, ok);
    }

    fn build_probes(
        &mut self,
        seed: u64,
        index: usize,
        e2mc: Option<(E2mc, SnapshotAnalysis, Vec<Block>)>,
    ) {
        let frame = Frame::parse(&self.reference).expect("round 0 container parses");
        let chunks: Vec<usize> = (0..frame.directory.len())
            .filter(|&i| frame.directory[i].mode == StorageMode::Coded)
            .collect();
        let encoded = match self.codec.chunk_coder() {
            Some(coder) => Encoded::Chunks(
                chunks
                    .iter()
                    .map(|&i| coder.encode_chunk(&self.bytes[self.chunk_range(i)]))
                    .collect(),
            ),
            None => {
                let mut payload = Vec::new();
                let mut encoded = Vec::new();
                for &i in &chunks {
                    let range = self.chunk_range(i);
                    let first = range.start / BLOCK_BYTES;
                    for (b, block) in blocks(&self.bytes[range]).enumerate() {
                        let at = payload.len() as u32;
                        let (bits, coded) = self.codec.compress_into(block, &mut payload);
                        encoded.push((at, bits, coded, (first + b) as u32));
                    }
                }
                Encoded::Blocks { payload, blocks: encoded }
            }
        };
        let bare = Bare { chunks, encoded };
        let mut rng = Rng::new(seed ^ (0xf11b_0000 + index as u64));
        let flip_bits = (0..FLIPS_PER_CONTAINER)
            .map(|_| rng.below(self.reference.len() as u64 * 8) as usize)
            .collect();
        self.probes = Some(Probes { bare, hostile: self.reference.clone(), flip_bits, e2mc });
    }

    /// The codec alone over every block: the engine's encode minus
    /// sharding, tags, directory and assembly. Returns
    /// `(blocks, verbatim blocks, stored bits)`.
    fn bare_encode(&self) -> (u64, u64, u64) {
        let (mut verbatim, mut bits) = (0u64, 0u64);
        let mut chunk_buf = Vec::with_capacity(self.engine.chunk_bytes());
        for chunk in self.bytes.chunks(self.engine.chunk_bytes()) {
            match self.codec.chunk_coder() {
                Some(coder) => {
                    let coded = black_box(coder.encode_chunk(chunk));
                    if coded.len() >= chunk.len() {
                        verbatim += (chunk.len() / BLOCK_BYTES) as u64;
                    }
                    bits += coded.len().min(chunk.len()) as u64 * 8;
                }
                None => {
                    chunk_buf.clear();
                    for block in blocks(chunk) {
                        let (block_bits, coded) = self.codec.compress_into(block, &mut chunk_buf);
                        verbatim += u64::from(!coded);
                        bits += u64::from(block_bits);
                    }
                    black_box(&chunk_buf);
                }
            }
        }
        ((self.bytes.len() / BLOCK_BYTES) as u64, verbatim, bits)
    }

    /// Byte range of chunk `i` in the stream (the last may be short).
    fn chunk_range(&self, i: usize) -> std::ops::Range<usize> {
        let lo = i * self.engine.chunk_bytes();
        lo..(lo + self.engine.chunk_bytes()).min(self.bytes.len())
    }

    fn bare(&self) -> &Bare {
        &self.probes.as_ref().expect("traced run").bare
    }

    /// The codec alone over every block of the coded chunks, into `out`.
    /// Returns `false` if the chunk coder rejected its own stream.
    fn bare_decode(&mut self) -> bool {
        let Bare { chunks, encoded } = &self.probes.as_ref().expect("traced run").bare;
        match encoded {
            Encoded::Blocks { payload, blocks } => {
                for &(at, bits, coded, index) in blocks {
                    let body = &payload[at as usize..at as usize + bits.div_ceil(8) as usize];
                    let lo = index as usize * BLOCK_BYTES;
                    let dst: &mut Block =
                        (&mut self.out[lo..lo + BLOCK_BYTES]).try_into().expect("one block");
                    self.codec.decompress_into(bits, coded, body, dst);
                }
                true
            }
            Encoded::Chunks(streams) => {
                let coder = self.codec.chunk_coder().expect("chunk coder built these");
                let chunk_bytes = self.engine.chunk_bytes();
                chunks.iter().zip(streams).all(|(&i, src)| {
                    let lo = i * chunk_bytes;
                    let hi = (lo + chunk_bytes).min(self.out.len());
                    coder.decode_chunk(src, &mut self.out[lo..hi]).is_ok()
                })
            }
        }
    }

    /// Whether `out` holds the input over every chunk `bare_decode` wrote.
    fn bare_decode_matches(&self) -> bool {
        self.bare()
            .chunks
            .iter()
            .all(|&i| self.out[self.chunk_range(i)] == self.bytes[self.chunk_range(i)])
    }

    /// Blocks `bare_decode` decodes.
    fn bare_decoded_blocks(&self) -> usize {
        self.bare().chunks.iter().map(|&i| self.chunk_range(i).len() / BLOCK_BYTES).sum()
    }

    fn bare_encode_op(&mut self, ctx: &mut Ctx, i: usize) {
        let (counts, seconds) = ctx.op("compress.encode", || self.bare_encode());
        ctx.book(("bare_encode", i), seconds, counts.is_some());
        self.bare_counts = counts.unwrap_or_default();
    }

    fn bare_decode_op(&mut self, ctx: &mut Ctx, i: usize) {
        self.out.fill(0xa5);
        let (decoded, seconds) = ctx.op("compress.decode", || self.bare_decode());
        let ok = ctx.verify(|| decoded == Some(true) && self.bare_decode_matches());
        ctx.book(("bare_decode", i), seconds, ok);
    }

    fn frame_parse(&mut self, ctx: &mut Ctx, i: usize) {
        ctx.timed(
            "engine.frame_parse",
            ("frame_parse", i),
            || Frame::parse(&self.reference).map(|f| f.directory.len()),
            |parsed| parsed.is_ok(),
        );
    }

    fn stream_encoder(&mut self, ctx: &mut Ctx, i: usize) {
        ctx.timed(
            "engine.stream_encoder",
            ("stream_encoder", i),
            || {
                let mut encoder = self.engine.stream_encoder();
                for piece in self.bytes.chunks(PUSH_BYTES) {
                    encoder.push(piece);
                }
                encoder.finish()
            },
            |container| *container == self.reference,
        );
    }

    fn decompress_owned(&mut self, ctx: &mut Ctx, i: usize) {
        ctx.timed(
            "engine.decompress_owned",
            ("decompress_owned", i),
            || self.engine.decompress_threads(&self.reference, Threads::Serial),
            |decoded| decoded.as_ref().is_ok_and(|d| *d == self.bytes),
        );
    }

    /// Decodes the container with one bit flipped, per seeded flip. Any
    /// `Err`, or `Ok` with the buffer filled, is contained; a panic that
    /// escapes the engine is a failed op.
    fn hostile_decodes(&mut self, ctx: &mut Ctx, i: usize) {
        let Stream { engine, out, probes, .. } = self;
        let Probes { hostile, flip_bits, .. } = probes.as_mut().expect("traced run");
        for (f, &bit) in flip_bits.iter().enumerate() {
            hostile[bit / 8] ^= 1 << (bit % 8);
            QUIET_PANICS.store(true, Ordering::Relaxed);
            let (contained, seconds) = ctx.op("engine.corrupt_decode", || {
                engine.decompress_into_threads(hostile, out, Threads::Serial).is_ok()
            });
            QUIET_PANICS.store(false, Ordering::Relaxed);
            hostile[bit / 8] ^= 1 << (bit % 8);
            ctx.book(("corrupt_decode", i * FLIPS_PER_CONTAINER + f), seconds, contained.is_some());
        }
    }

    /// `snap_e2mc` only: the cached-size engine path and E2MC's
    /// analysis, sizing and training on the same snapshot.
    fn e2mc_probes(&mut self, ctx: &mut Ctx, i: usize) {
        let Some((e2mc, snapshot, train_blocks)) =
            self.probes.as_ref().and_then(|p| p.e2mc.as_ref())
        else {
            return;
        };
        ctx.timed(
            "engine.cached_sizes",
            ("cached_sizes", i),
            || compress_snapshot(&self.engine, e2mc, &self.bytes, snapshot, Threads::Serial),
            |container| *container == self.reference,
        );
        let sized: u64 =
            snapshot.entries().iter().map(|b| u64::from(b.analysis.e2mc_size_bits())).sum();
        ctx.timed(
            "compress.analyze",
            ("analyze", i),
            || {
                blocks(&self.bytes)
                    .map(|b| u64::from(e2mc.analyze(b).e2mc_size_bits()))
                    .sum::<u64>()
            },
            |bits| *bits == sized,
        );
        ctx.timed(
            "compress.size",
            ("size", i),
            || blocks(&self.bytes).map(|b| u64::from(e2mc.size_bits(b))).sum::<u64>(),
            |bits| *bits == sized,
        );
        train_op(ctx, i, train_blocks, e2mc);
    }
}

impl Containers {
    pub fn setup(flavor: Flavor, ctx: &mut Ctx) -> Containers {
        let Options { seed, smoke, trace, .. } = ctx.opts;
        let mut streams: Vec<Stream> = Vec::new();
        let mut e2mc_probes = Vec::new();
        match flavor {
            Flavor::SnapE2mc => {
                let harness = harness(&ctx.opts);
                // Serial on purpose: `prepare_all`'s two workers make the
                // peak RSS depend on which benchmarks overlap.
                for workload in all_workloads(harness.scale) {
                    let open = ctx.rec.begin("workloads.prepare");
                    let artifacts = harness.prepare(workload.as_ref());
                    ctx.rec.end(open);
                    let bytes = snapshot_bytes(&artifacts.exact_memory);
                    if trace {
                        let open = ctx.rec.begin("workloads.capture");
                        let snapshot =
                            SnapshotAnalysis::capture(&artifacts.e2mc, &artifacts.exact_memory);
                        ctx.rec.end(open);
                        let train_blocks =
                            training_blocks(&workload.build(seed), &artifacts.exact_memory);
                        e2mc_probes.push(Some((artifacts.e2mc.clone(), snapshot, train_blocks)));
                    }
                    streams.push(Stream::new(bytes, Arc::new(artifacts.e2mc)));
                }
            }
            Flavor::MixedBdi | Flavor::MixedRans => {
                let (count, stream_bytes) = if smoke { (4, 1 << 20) } else { (16, 4 << 20) };
                let codec: Arc<dyn BlockCodec> = match flavor {
                    Flavor::MixedBdi => Arc::new(Bdi::new()),
                    _ => Arc::new(Rans::new()),
                };
                for bytes in corpus::generate(seed, count, stream_bytes).0 {
                    streams.push(Stream::new(bytes, Arc::clone(&codec)));
                }
            }
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            stream.round_zero(ctx, i);
        }
        if trace {
            install_quiet_hook();
            e2mc_probes.resize_with(streams.len(), || None);
            for (i, (stream, e2mc)) in streams.iter_mut().zip(e2mc_probes).enumerate() {
                stream.build_probes(seed, i, e2mc);
            }
        }
        Containers { flavor, streams }
    }
}

impl Workload for Containers {
    /// Kind-major: each pass visits every stream with one op kind, so
    /// every op finds the caches as the same kind's op on the previous
    /// stream left them, whatever else the round contains.
    fn round(&mut self, ctx: &mut Ctx) {
        type Pass = fn(&mut Stream, &mut Ctx, usize);
        const E2E: [Pass; 2] = [
            |st, ctx, i| st.compress(ctx, "compress", i, Threads::Serial),
            |st, ctx, i| st.decompress(ctx, "decompress", i, Threads::Serial),
        ];
        const PROBES: [Pass; 9] = [
            Stream::bare_encode_op,
            Stream::bare_decode_op,
            Stream::frame_parse,
            Stream::stream_encoder,
            Stream::decompress_owned,
            |st, ctx, i| st.compress(ctx, "compress_auto", i, Threads::Auto),
            |st, ctx, i| st.decompress(ctx, "decompress_auto", i, Threads::Auto),
            Stream::hostile_decodes,
            Stream::e2mc_probes,
        ];
        const TWINS: [Pass; 2] = [
            |st, ctx, i| st.compress(ctx, "twin.compress", i, Threads::Serial),
            |st, ctx, i| st.decompress(ctx, "twin.decompress", i, Threads::Serial),
        ];
        let mut sweep = |ctx: &mut Ctx, passes: &[Pass]| {
            for pass in passes {
                for (i, stream) in self.streams.iter_mut().enumerate() {
                    pass(stream, ctx, i);
                }
            }
        };
        sweep(ctx, &E2E);
        if ctx.rec.enabled() {
            sweep(ctx, &PROBES);
            ctx.untraced(|ctx| sweep(ctx, &TWINS));
        }
    }

    fn finish(self: Box<Self>, ctx: &Ctx, out: &mut Outcome) {
        let s = &ctx.samples;
        let m = &mut out.metrics;
        let bytes: f64 = self.streams.iter().map(|st| st.bytes.len() as f64).sum();
        let stored: f64 = self.streams.iter().map(|st| st.reference.len() as f64).sum();
        let blocks = bytes / BLOCK_BYTES as f64;
        let gbps = |group: &str| ratio(bytes, s.p10(group)) / 1e9;
        let e2e = ["compress", "decompress"];
        finish_common(ctx, &e2e, &e2e, &["twin.compress", "twin.decompress"], m);
        m.set("compress_gbps", gbps("compress"));
        m.set("decompress_gbps", gbps("decompress"));
        m.set("stored_ratio", ratio(bytes, stored));
        let mut digest = Digest::default();
        for stream in &self.streams {
            digest.feed(&stream.reference);
        }
        out.digests.insert("container_digest", digest.hex());

        let (chunks, raw) = self.streams.iter().fold((0u32, 0u32), |(chunks, raw), st| {
            let info = frame_info(&st.reference).expect("round 0 container parses");
            (chunks + info.chunk_count, raw + info.raw_chunks)
        });
        m.set("engine.raw_chunk_share", ratio(f64::from(raw), f64::from(chunks)));
        if !ctx.rec.enabled() {
            return;
        }
        let per_block_ns = |seconds: f64, blocks: f64| ratio(seconds * 1e9, blocks);
        let decoded_blocks: f64 =
            self.streams.iter().map(|st| st.bare_decoded_blocks() as f64).sum();
        m.set("compress.encode_ns_per_block", per_block_ns(s.p10("bare_encode"), blocks));
        m.set("compress.decode_ns_per_block", per_block_ns(s.p10("bare_decode"), decoded_blocks));
        let (counted, verbatim, bits) = self.streams.iter().fold((0, 0, 0), |sum, st| {
            (sum.0 + st.bare_counts.0, sum.1 + st.bare_counts.1, sum.2 + st.bare_counts.2)
        });
        m.set("compress.verbatim_block_share", ratio(verbatim as f64, counted as f64));
        m.set("compress.mean_bits_per_block", ratio(bits as f64, counted as f64));
        m.set(
            "engine.encode_overhead_ns_per_block",
            per_block_ns(s.p10("compress") - s.p10("bare_encode"), blocks),
        );
        m.set(
            "engine.decode_overhead_ns_per_block",
            per_block_ns(s.p10("decompress") - s.p10("bare_decode"), blocks),
        );
        let per_kind_us = |group: &str| ratio(s.p10(group) * 1e6, s.kinds(group) as f64);
        m.set("engine.frame_parse_us", per_kind_us("frame_parse"));
        m.set("engine.corrupt_decode_us", per_kind_us("corrupt_decode"));
        m.set("engine.stream_encoder_gbps", gbps("stream_encoder"));
        m.set("engine.decompress_owned_gbps", gbps("decompress_owned"));
        m.set("par.compress_auto_speedup", ratio(s.p10("compress"), s.p10("compress_auto")));
        m.set("par.decompress_auto_speedup", ratio(s.p10("decompress"), s.p10("decompress_auto")));
        if self.flavor == Flavor::SnapE2mc {
            m.set("engine.cached_sizes_gbps", gbps("cached_sizes"));
            m.set("compress.analyze_ns_per_block", per_block_ns(s.p10("analyze"), blocks));
            m.set("compress.size_ns_per_block", per_block_ns(s.p10("size"), blocks));
            m.set("compress.train_ms", s.p10("train") * 1e3);
            m.set("workloads.prepare_s", span_total(ctx, "workloads.prepare"));
            let capture_s = span_total(ctx, "workloads.capture");
            m.set("workloads.capture_mblocks_per_s", ratio(blocks, capture_s) / 1e6);
        }
    }
}
