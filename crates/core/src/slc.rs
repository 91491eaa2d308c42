//! The end-to-end SLC compressor/decompressor (paper Section III).
//!
//! [`SlcCompressor`] wraps a trained E2MC codec. Per block it computes the
//! lossless compressed size from the code lengths alone (no encoding
//! needed), runs the Fig. 4 budget decision, and — in lossy mode — uses the
//! Fig. 5 tree to pick the symbols to truncate. The decompressor rebuilds
//! the block, filling truncated symbols via the configured predictor.

use crate::budget::{BudgetDecision, ModeChoice};
use crate::header::{self, Hole, LOSSY_HEADER_DELTA};
use crate::predict::{fill_approximated, PredictorKind};
use crate::tree::{CodeLengthTree, Selection};
use slc_compress::bitstream::BitReader;
use slc_compress::e2mc::{BlockAnalysis, E2mc};
use slc_compress::symbols::{block_to_symbols, symbols_to_block};
use slc_compress::{Block, DecodeError, Mag, BLOCK_BITS, BLOCK_BYTES};

/// The three TSLC variants evaluated in the paper (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlcVariant {
    /// Truncate; decompress with zeros.
    TslcSimp,
    /// Truncate; decompress with value-similarity prediction.
    TslcPred,
    /// TSLC-PRED plus the extra middle-level tree nodes.
    TslcOpt,
}

impl SlcVariant {
    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SlcVariant::TslcSimp => "TSLC-SIMP",
            SlcVariant::TslcPred => "TSLC-PRED",
            SlcVariant::TslcOpt => "TSLC-OPT",
        }
    }

    fn uses_opt_nodes(self) -> bool {
        matches!(self, SlcVariant::TslcOpt)
    }

    fn default_predictor(self) -> PredictorKind {
        match self {
            SlcVariant::TslcSimp => PredictorKind::Zero,
            SlcVariant::TslcPred | SlcVariant::TslcOpt => PredictorKind::LaneMatched,
        }
    }
}

/// SLC configuration: MAG, lossy threshold and variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlcConfig {
    mag: Mag,
    threshold_bytes: u32,
    variant: SlcVariant,
    predictor: PredictorKind,
}

impl SlcConfig {
    /// Creates a configuration with the variant's default predictor.
    ///
    /// `threshold_bytes` is the user-specified lossy threshold (the paper
    /// evaluates 16 B with MAG 32 B and MAG/2 elsewhere).
    pub fn new(mag: Mag, threshold_bytes: u32, variant: SlcVariant) -> Self {
        Self { mag, threshold_bytes, variant, predictor: variant.default_predictor() }
    }

    /// Overrides the decompression-side predictor (ablation hook).
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// The memory access granularity.
    pub fn mag(&self) -> Mag {
        self.mag
    }

    /// The lossy threshold in bytes.
    pub fn threshold_bytes(&self) -> u32 {
        self.threshold_bytes
    }

    /// The lossy threshold in bits.
    pub fn threshold_bits(&self) -> u32 {
        self.threshold_bytes * 8
    }

    /// The TSLC variant.
    pub fn variant(&self) -> SlcVariant {
        self.variant
    }

    /// The active predictor.
    pub fn predictor(&self) -> PredictorKind {
        self.predictor
    }
}

/// How a block was stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredKind {
    /// Verbatim, no header.
    Uncompressed,
    /// Losslessly compressed (E2MC framing with SLC's header).
    Lossless,
    /// Lossy: `selection` describes the truncated symbols.
    Lossy {
        /// The sub-block the tree selected.
        selection: Selection,
    },
}

/// A block as SLC stores it in DRAM.
#[derive(Debug, Clone)]
pub struct SlcCompressed {
    payload: Vec<u8>,
    size_bits: u32,
    kind: StoredKind,
    bursts: u32,
    decision: BudgetDecision,
}

impl SlcCompressed {
    /// Exact stored size in bits (header + data; 1024 when verbatim).
    pub fn size_bits(&self) -> u32 {
        self.size_bits
    }

    /// DRAM bursts needed to fetch the block under the configured MAG —
    /// the value the metadata cache stores: 1 to 4 in 2 bits at 32 B,
    /// 1 to 8 in 3 bits at 16 B, 1 or 2 in 1 bit at 64 B.
    pub fn bursts(&self) -> u32 {
        self.bursts
    }

    /// Storage mode.
    pub fn kind(&self) -> StoredKind {
        self.kind
    }

    /// The budget arithmetic that led to this mode (paper Fig. 4 inputs).
    pub fn decision(&self) -> BudgetDecision {
        self.decision
    }

    /// Raw payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// `true` when decompression will not reproduce the original exactly.
    pub fn is_lossy(&self) -> bool {
        matches!(self.kind, StoredKind::Lossy { .. })
    }
}

/// The SLC compressor: a trained E2MC baseline plus the SLC budget/tree.
///
/// Cloning is cheap: the trained symbol table lives behind an `Arc`
/// inside [`E2mc`], so every `SlcCompressor` instance — and every scheme
/// built from one — shares the single frozen table, exactly as the
/// modeled hardware shares one trained code table across all compressor
/// units.
#[derive(Debug, Clone)]
pub struct SlcCompressor {
    e2mc: E2mc,
    config: SlcConfig,
}

impl SlcCompressor {
    /// Wraps a trained E2MC codec. `e2mc` is a shared handle (an `Arc`'d
    /// table under the hood), so taking it by value costs no table copy.
    pub fn new(e2mc: E2mc, config: SlcConfig) -> Self {
        Self { e2mc, config }
    }

    /// The configuration.
    pub fn config(&self) -> &SlcConfig {
        &self.config
    }

    /// The underlying lossless codec.
    pub fn e2mc(&self) -> &E2mc {
        &self.e2mc
    }

    /// Analyses `block` under the trained table: the per-symbol code
    /// lengths and their sum, the shared artifact every decision below
    /// consumes. Produce it once and fan it out to [`analyze_with`],
    /// [`stored_bits_with`], [`stored_bursts_with`], [`compress_with`] or
    /// [`stage_in_place`] — across as many schemes, thresholds and MAGs as
    /// needed — instead of paying one table pass per consumer.
    ///
    /// [`analyze_with`]: Self::analyze_with
    /// [`stored_bits_with`]: Self::stored_bits_with
    /// [`stored_bursts_with`]: Self::stored_bursts_with
    /// [`compress_with`]: Self::compress_with
    /// [`stage_in_place`]: Self::stage_in_place
    pub fn analysis(&self, block: &Block) -> BlockAnalysis {
        self.e2mc.analyze(block)
    }

    /// Computes the Fig. 4 decision and (for lossy mode) the Fig. 5
    /// selection from a block's [`BlockAnalysis`], without encoding
    /// anything — exposed so experiments can study the decision
    /// distribution (the Fig. 2 heat map) without paying for encoding.
    ///
    /// The budget decision needs only the code-length sum; the Fig. 5
    /// tree is built just for blocks the budget sends lossy, from the
    /// analysis' lengths — no second E2MC pass anywhere.
    pub fn analyze_with(&self, analysis: &BlockAnalysis) -> (BudgetDecision, Option<Selection>) {
        let decision =
            BudgetDecision::for_analysis(analysis, self.config.mag, self.config.threshold_bits());
        let selection = if decision.mode == ModeChoice::Lossy {
            // The lossy header costs LOSSY_HEADER_DELTA more bits than the
            // lossless one; the freed codewords must cover both the extra
            // bits and that delta or the block would overshoot its budget.
            CodeLengthTree::from_analysis(analysis).select(
                decision.extra_bits + LOSSY_HEADER_DELTA,
                self.config.variant.uses_opt_nodes(),
            )
        } else {
            None
        };
        (decision, selection)
    }

    /// The stored form the pipeline gives a block, with the
    /// Fig. 4 decision behind it — the one place the (mode, selection)
    /// pair becomes a [`StoredKind`], shared by sizing and encoding.
    fn stored_form(&self, analysis: &BlockAnalysis) -> (BudgetDecision, StoredKind) {
        let (decision, selection) = self.analyze_with(analysis);
        let kind = match selection {
            Some(selection) => StoredKind::Lossy { selection },
            None => self.exact_form(decision.comp_size_bits),
        };
        (decision, kind)
    }

    /// The stored form of a block that keeps every symbol: the lossless
    /// stream of `comp_size_bits`, or the verbatim block when that stream
    /// saves no bursts over it (then decompression is skipped entirely —
    /// the MDC's max burst count identifies the block).
    fn exact_form(&self, comp_size_bits: u32) -> StoredKind {
        if self.config.mag.round_up_bits(comp_size_bits) >= BLOCK_BITS {
            StoredKind::Uncompressed
        } else {
            StoredKind::Lossless
        }
    }

    /// Stored size in bits of `kind` under `decision`.
    fn bits_of(decision: BudgetDecision, kind: StoredKind) -> u32 {
        match kind {
            StoredKind::Uncompressed => BLOCK_BITS,
            StoredKind::Lossless => decision.comp_size_bits,
            StoredKind::Lossy { selection } => {
                decision.comp_size_bits - selection.freed_bits + LOSSY_HEADER_DELTA
            }
        }
    }

    /// Stored size in bits and whether the block goes lossy, without
    /// encoding anything — the fast path for burst accounting (hardware
    /// likewise derives the burst count from the code-length sum alone).
    pub fn stored_bits_with(&self, analysis: &BlockAnalysis) -> (u32, bool) {
        let (decision, kind) = self.stored_form(analysis);
        (Self::bits_of(decision, kind), matches!(kind, StoredKind::Lossy { .. }))
    }

    /// Bursts the stored block costs under the configured MAG.
    pub fn stored_bursts_with(&self, analysis: &BlockAnalysis) -> u32 {
        let (bits, _) = self.stored_bits_with(analysis);
        self.config.mag.bursts_for_bits(bits, BLOCK_BYTES as u32)
    }

    /// One kernel-boundary round trip of an approximable block, in
    /// place, on one table pass: what [`decompress`](Self::decompress)
    /// of [`compress_with`](Self::compress_with) returns (pinned by
    /// property test), without the bitstream. `analysis` must be
    /// `block`'s on entry and is `block`'s on return. An exact form
    /// leaves both untouched. A lossy one refills the [`Hole`] in the
    /// block's own bytes — symbols outside it decode to themselves and
    /// every [`PredictorKind`] reads only those — and looks up only the
    /// hole's ≤ 16 rewritten symbols again ([`E2mc::reanalyze`] — only
    /// they re-enter the tree). Returns the bits the next kernel
    /// boundary will find stored:
    /// [`stored_bits_with`](Self::stored_bits_with) of the bytes `block`
    /// now holds, decided on the same analysis.
    pub fn stage_in_place(&self, block: &mut Block, analysis: &mut BlockAnalysis) -> u32 {
        let (decision, kind) = self.stored_form(analysis);
        let StoredKind::Lossy { selection } = kind else {
            return Self::bits_of(decision, kind);
        };
        self.refill(block, selection.hole);
        self.e2mc.reanalyze(analysis, block, selection.hole.symbols());
        self.stored_bits_with(analysis).0
    }

    /// Overwrites `hole`'s symbols of `block` with the predictor's
    /// values, as a read of the lossy stored form returns them.
    fn refill(&self, block: &mut Block, hole: Hole) {
        let mut symbols = block_to_symbols(block);
        fill_approximated(&mut symbols, hole, self.config.predictor);
        *block = symbols_to_block(&symbols);
    }

    /// Compresses one block.
    pub fn compress(&self, block: &Block) -> SlcCompressed {
        self.compress_with(block, &self.analysis(block))
    }

    /// [`compress`](Self::compress) over a precomputed analysis of the
    /// same `block` — the encode path of callers that already analysed
    /// the block for its budget decision, and with
    /// [`decompress`](Self::decompress) the reference
    /// [`stage_in_place`](Self::stage_in_place) is pinned against.
    ///
    /// `analysis` **must** come from [`Self::analysis`] (equivalently,
    /// [`E2mc::analyze`] on the same trained table) for this block;
    /// handing in another block's analysis produces a wrong-size stream.
    pub fn compress_with(&self, block: &Block, analysis: &BlockAnalysis) -> SlcCompressed {
        let (decision, kind) = self.stored_form(analysis);
        let (payload, size_bits) = match kind {
            StoredKind::Uncompressed => (block.to_vec(), BLOCK_BITS),
            StoredKind::Lossless => self.store_coded(block, None),
            StoredKind::Lossy { selection } => self.store_coded(block, Some(selection.hole)),
        };
        debug_assert_eq!(size_bits, Self::bits_of(decision, kind));
        SlcCompressed {
            payload,
            size_bits,
            kind,
            bursts: self.config.mag.bursts_for_bits(size_bits, BLOCK_BYTES as u32),
            decision,
        }
    }

    /// The Fig. 6 stream of `block`: SLC's mode fields, then E2MC's pdps
    /// and ways with the symbols of `hole` left off the wire. Returns the
    /// payload and its bits.
    fn store_coded(&self, block: &Block, hole: Option<Hole>) -> (Vec<u8>, u32) {
        // A stored stream is shorter than the raw block.
        let mut payload = Vec::with_capacity(BLOCK_BYTES);
        let size_bits = self.e2mc.table().write_ways(
            header::prefix(hole),
            &block_to_symbols(block),
            hole.map_or(0..0, Hole::symbols),
            &mut payload,
        );
        (payload, size_bits)
    }

    /// Decompresses a stored block.
    ///
    /// For lossy blocks the result approximates the original: the
    /// truncated symbols are filled by the configured predictor.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not decode — impossible for a value this
    /// compressor produced, the only kind there is outside this crate.
    pub fn decompress(&self, c: &SlcCompressed) -> Block {
        match c.kind {
            StoredKind::Uncompressed => {
                let mut out = [0u8; BLOCK_BYTES];
                out.copy_from_slice(&c.payload[..BLOCK_BYTES]);
                out
            }
            #[expect(
                clippy::expect_used,
                reason = "documented contract: an SlcCompressed is only ever built by this compressor, whose streams decode"
            )]
            StoredKind::Lossless | StoredKind::Lossy { .. } => {
                self.decode_stream(c).expect("a stream this compressor produced decodes")
            }
        }
    }

    fn decode_stream(&self, c: &SlcCompressed) -> Result<Block, DecodeError> {
        let mut r = BitReader::new(&c.payload, c.size_bits);
        let hole = header::read(&mut r)?;
        // The truncated run never reached the wire: the way decoder skips
        // it and the predictor fills it in afterwards.
        let mut block = [0u8; BLOCK_BYTES];
        self.e2mc.table().read_ways(&r, hole.map_or(0..0, Hole::symbols), &mut block)?;
        if let Some(hole) = hole {
            self.refill(&mut block, hole);
        }
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::LOSSY_HEADER_BITS;
    use proptest::prelude::*;
    use slc_compress::e2mc::{E2mcConfig, HEADER_BITS, PDP_BITS, WAYS};
    use slc_compress::symbols::SYMBOLS_PER_BLOCK;
    use slc_compress::BlockCompressor;

    /// Training data resembling a smooth f32 field: symbol stream has
    /// low-entropy exponent lanes and higher-entropy mantissa lanes.
    fn training_bytes() -> Vec<u8> {
        (0..1u32 << 15).flat_map(|i| (1000.0f32 + (i % 4096) as f32 * 0.25).to_le_bytes()).collect()
    }

    fn e2mc() -> E2mc {
        E2mc::train_on_bytes(&training_bytes(), &E2mcConfig::default())
    }

    fn slc(variant: SlcVariant) -> SlcCompressor {
        SlcCompressor::new(e2mc(), SlcConfig::new(Mag::GDDR5, 16, variant))
    }

    fn float_block(offset: f32, step: f32) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..32 {
            let v = 1000.0f32 + offset + i as f32 * step;
            b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    #[test]
    fn lossless_blocks_roundtrip_exactly() {
        let s = slc(SlcVariant::TslcOpt);
        // Scan for a block the budget keeps lossless and verify identity.
        let mut found = false;
        for k in 0..64 {
            let block = float_block(k as f32 * 3.0, 0.25);
            let c = s.compress(&block);
            if !c.is_lossy() {
                assert_eq!(s.decompress(&c), block);
                found = true;
            }
        }
        assert!(found, "no lossless block in scan");
    }

    #[test]
    fn lossy_blocks_fit_their_budget() {
        let s = slc(SlcVariant::TslcOpt);
        let mut lossy_seen = 0;
        for k in 0..256 {
            let block = float_block(k as f32 * 1.7, 0.125 + (k % 7) as f32 * 0.05);
            let c = s.compress(&block);
            if c.is_lossy() {
                lossy_seen += 1;
                assert!(c.size_bits() <= c.decision().bit_budget);
                assert!(c.bursts() < c.decision().lossless_bursts(Mag::GDDR5));
            }
        }
        assert!(lossy_seen > 0, "threshold of 16B never triggered in 256 blocks");
    }

    #[test]
    fn lossy_error_is_confined_to_hole_lanes() {
        let s = slc(SlcVariant::TslcOpt);
        for k in 0..256 {
            let block = float_block(k as f32 * 1.7, 0.125);
            let c = s.compress(&block);
            if let StoredKind::Lossy { selection } = c.kind() {
                let out = s.decompress(&c);
                let in_syms = block_to_symbols(&block);
                let out_syms = block_to_symbols(&out);
                for i in (0..SYMBOLS_PER_BLOCK).filter(|i| !selection.hole.symbols().contains(i)) {
                    assert_eq!(in_syms[i], out_syms[i], "symbol {i} corrupted outside hole");
                }
                return;
            }
        }
        panic!("no lossy block found");
    }

    #[test]
    fn flipped_pdps_are_rejected_not_decoded_to_garbage() {
        // A pdp that points into the middle of a way still parses as
        // codewords; what gives it away is the way before it ending
        // somewhere else. Every bit of every pdp, lossless and lossy.
        let s = slc(SlcVariant::TslcOpt);
        let (mut lossless, mut lossy) = (0, 0);
        for k in 0..64 {
            let c = s.compress(&float_block(k as f32 * 1.7, 0.125 + (k % 7) as f32 * 0.05));
            let header_bits = match c.kind() {
                StoredKind::Uncompressed => continue,
                StoredKind::Lossless => {
                    lossless += 1;
                    HEADER_BITS
                }
                StoredKind::Lossy { .. } => {
                    lossy += 1;
                    LOSSY_HEADER_BITS
                }
            };
            for bit in header_bits - (WAYS as u32 - 1) * PDP_BITS..header_bits {
                let mut corrupt = c.clone();
                corrupt.payload[bit as usize / 8] ^= 0x80 >> (bit % 8);
                let verdict = s.decode_stream(&corrupt);
                assert!(verdict.is_err(), "block {k}: pdp bit {bit} flipped, still decoded");
            }
        }
        assert!(lossless > 0 && lossy > 0, "scan must cover both framings");
    }

    #[test]
    fn a_hole_rewritten_past_the_block_is_rejected_before_the_predictor() {
        // ss = 63, len = 2 in a real lossy block's header: the way
        // decoder would skip slot 63 and the predictor's bounds assert
        // was the only thing in the way. Now the header does not parse.
        let s = slc(SlcVariant::TslcOpt);
        let mut c = (0..256)
            .map(|k| s.compress(&float_block(k as f32 * 1.7, 0.125)))
            .find(SlcCompressed::is_lossy)
            .expect("a lossy block in the scan");
        // Stream bits 1..=6 are ss, 7..=10 are len - 1.
        c.payload[0] = (c.payload[0] | 0x7e) & !0x01;
        c.payload[1] = (c.payload[1] & 0x1f) | 0x20;
        assert_eq!(s.decode_stream(&c), Err(DecodeError::BadLayout));
    }

    #[test]
    fn simp_fills_zeros_pred_fills_neighbours() {
        let simp = slc(SlcVariant::TslcSimp);
        let pred = slc(SlcVariant::TslcPred);
        for k in 0..256 {
            let block = float_block(k as f32 * 1.7, 0.125);
            let c = simp.compress(&block);
            if let StoredKind::Lossy { selection } = c.kind() {
                let zeroed = simp.decompress(&c);
                let z = block_to_symbols(&zeroed);
                assert!(selection.hole.symbols().all(|i| z[i] == 0));
                // Same stored bits, different reconstruction.
                let cp = pred.compress(&block);
                let predicted = pred.decompress(&cp);
                let p = block_to_symbols(&predicted);
                assert!(selection.hole.symbols().any(|i| p[i] != 0));
                // Prediction must be closer to the original for smooth data.
                let err = |out: &Block| -> f64 {
                    (0..32)
                        .map(|i| {
                            let a = f32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
                            let b = f32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().unwrap());
                            ((a - b) as f64).powi(2)
                        })
                        .sum()
                };
                assert!(err(&predicted) <= err(&zeroed));
                return;
            }
        }
        panic!("no lossy block found");
    }

    #[test]
    fn zero_threshold_never_goes_lossy() {
        let e = e2mc();
        let s = SlcCompressor::new(e.clone(), SlcConfig::new(Mag::GDDR5, 0, SlcVariant::TslcOpt));
        for k in 0..64 {
            let block = float_block(k as f32, 0.3);
            let c = s.compress(&block);
            assert!(!c.is_lossy());
            // And the stored form round-trips exactly.
            assert_eq!(s.decompress(&c), block);
            // When stored losslessly the size agrees with the raw E2MC
            // size model; blocks in the last MAG bucket go verbatim
            // instead (4 bursts either way, so skip decompression).
            match c.kind() {
                StoredKind::Lossless => assert_eq!(c.size_bits(), e.size_bits(&block)),
                StoredKind::Uncompressed => {
                    assert!(Mag::GDDR5.round_up_bits(e.size_bits(&block)) >= BLOCK_BITS)
                }
                StoredKind::Lossy { .. } => unreachable!("threshold 0"),
            }
        }
    }

    #[test]
    fn incompressible_blocks_stay_verbatim() {
        let s = slc(SlcVariant::TslcOpt);
        let mut block = [0u8; BLOCK_BYTES];
        let mut state = 1u64;
        for b in block.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 40) as u8;
        }
        let c = s.compress(&block);
        assert_eq!(c.kind(), StoredKind::Uncompressed);
        assert_eq!(c.bursts(), 4);
        assert_eq!(s.decompress(&c), block);
    }

    #[test]
    fn bursts_reflect_mag() {
        let e = e2mc();
        for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
            let s = SlcCompressor::new(
                e.clone(),
                SlcConfig::new(mag, mag.bytes() / 2, SlcVariant::TslcOpt),
            );
            let block = float_block(5.0, 0.25);
            let c = s.compress(&block);
            assert_eq!(c.bursts(), mag.bursts_for_bits(c.size_bits(), BLOCK_BYTES as u32));
        }
    }

    #[test]
    fn stored_bits_matches_compress() {
        let s = slc(SlcVariant::TslcOpt);
        for k in 0..128 {
            let block = float_block(k as f32 * 2.3, 0.2);
            let (bits, lossy) = s.stored_bits_with(&s.analysis(&block));
            let c = s.compress(&block);
            assert_eq!(bits, c.size_bits(), "block {k}");
            assert_eq!(lossy, c.is_lossy(), "block {k}");
            assert_eq!(s.stored_bursts_with(&s.analysis(&block)), c.bursts(), "block {k}");
        }
    }

    #[test]
    fn precomputed_analysis_paths_match_block_paths() {
        // The whole sharing contract: every *_with overload fed a
        // precomputed BlockAnalysis must agree bit-for-bit with the
        // direct block-taking path it shadows.
        for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
            let s = slc(variant);
            for k in 0..96 {
                let block = float_block(k as f32 * 1.9, 0.15 + (k % 5) as f32 * 0.04);
                let a = s.analysis(&block);
                assert_eq!(a, s.e2mc().analyze(&block));
                let c_with = s.compress_with(&block, &a);
                let c = s.compress(&block);
                assert_eq!(c_with.payload(), c.payload());
                assert_eq!(c_with.size_bits(), c.size_bits());
                assert_eq!(c_with.kind(), c.kind());
                assert_eq!(c_with.bursts(), c.bursts());
                assert_eq!(c_with.decision(), c.decision());
            }
        }
    }

    #[test]
    fn analyze_matches_compress() {
        let s = slc(SlcVariant::TslcOpt);
        for k in 0..128 {
            let block = float_block(k as f32 * 2.3, 0.2);
            let (decision, selection) = s.analyze_with(&s.analysis(&block));
            let c = s.compress(&block);
            assert_eq!(c.decision(), decision);
            match c.kind() {
                StoredKind::Lossy { selection: stored } => {
                    assert_eq!(Some(stored), selection);
                }
                StoredKind::Uncompressed => assert!(
                    decision.mode == ModeChoice::Uncompressed
                        || Mag::GDDR5.round_up_bits(decision.comp_size_bits) >= BLOCK_BITS,
                    "verbatim storage must mean no burst savings"
                ),
                StoredKind::Lossless => {}
            }
        }
    }

    #[test]
    fn both_modes_share_e2mcs_framing_over_a_block_scan() {
        // Fig. 6 is E2MC's block with `ss`/`len` after the mode bit. (a)
        // A lossless SLC block is E2MC's coded block with the mode bit
        // cleared, bit for bit. (b) Every lossy block under the three
        // variants hashes to the digest its stream had before the pdps
        // and ways moved behind `slc_compress::e2mc`.
        let e = e2mc();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let (mut lossless, mut lossy) = (0, 0);
        for (variant, threshold) in
            [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt]
                .into_iter()
                .flat_map(|v| [(v, 4), (v, 16)])
        {
            let s = SlcCompressor::new(e.clone(), SlcConfig::new(Mag::GDDR5, threshold, variant));
            for k in 0..512 {
                // On the trained grid, with `k % 16` words off it: sizes
                // from one MAG to past the block.
                let mut block = float_block((k % 97) as f32 * 0.25, 0.25 * (1 + k % 3) as f32);
                for i in 0..k % 16 {
                    let word = ((k * 32 + i) as u32).wrapping_mul(0x9e37_79b9).to_le_bytes();
                    block[i * 8..i * 8 + 4].copy_from_slice(&word);
                }
                let c = s.compress(&block);
                match c.kind() {
                    StoredKind::Lossless => {
                        let mut expect = Vec::new();
                        let (bits, coded) = e.compress_into(&block, &mut expect);
                        assert!(coded, "block {k}");
                        expect[0] &= 0x7f;
                        assert_eq!(c.size_bits(), bits, "block {k}");
                        assert_eq!(c.payload(), &expect[..], "block {k}");
                        lossless += 1;
                    }
                    StoredKind::Lossy { .. } => {
                        fold(&c.size_bits().to_le_bytes());
                        fold(c.payload());
                        lossy += 1;
                    }
                    StoredKind::Uncompressed => {}
                }
            }
        }
        assert!(lossless >= 100, "{lossless} lossless blocks");
        assert!(lossy >= 100, "{lossy} lossy blocks");
        assert_eq!(digest, 0xc62b_04a9_ef8d_2aa1, "lossy stream digest over {lossy} blocks");
    }

    /// Three blocks per draw: floats on the trained grid (in-distribution:
    /// level code lengths, so the first node wins and holes open at symbol
    /// 0 — `FirstSymbol`'s special case), the same with `noise`-selected
    /// words replaced by arbitrary bits (escape-heavy), and every word
    /// replaced by one whose halves are both off the trained table
    /// (all-escape).
    fn three_shapes(words: &[u32], noise: u32) -> [Block; 3] {
        let on_grid = float_block((words[0] % 4000) as f32 * 0.25, 0.25);
        let replaced = |mask: u32, force: u32| {
            let mut block = on_grid;
            for (i, w) in words.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    block[i * 4..i * 4 + 4].copy_from_slice(&(w | force).to_le_bytes());
                }
            }
            block
        };
        [on_grid, replaced(noise, 0), replaced(u32::MAX, 0x8000_0001)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_the_in_place_round_trip_is_the_naive_sequence(
            words in proptest::collection::vec(any::<u32>(), 32),
            noise in any::<u32>(), threshold in 0u32..=32) {
            // What the streamed walk calls per block against the calls it
            // stands for: analyse, encode, decode, analyse what was
            // decoded, price that. The in-place call must leave the
            // decoded bytes (the block itself, and its analysis untouched,
            // unless the stored form is lossy), return those bits, and its
            // hole re-look-up must leave the analysis a fresh pass over
            // the refilled block gives, field for field.
            let e2mc = e2mc();
            for mag in [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64] {
                for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
                    for predictor in
                        [PredictorKind::Zero, PredictorKind::FirstSymbol, PredictorKind::LaneMatched]
                    {
                        let config =
                            SlcConfig::new(mag, threshold, variant).with_predictor(predictor);
                        let s = SlcCompressor::new(e2mc.clone(), config);
                        for block in three_shapes(&words, noise) {
                            let before = s.analysis(&block);
                            let stored = s.compress_with(&block, &before);
                            let decoded = s.decompress(&stored);
                            let (mut staged, mut analysis) = (block, before.clone());
                            let bits = s.stage_in_place(&mut staged, &mut analysis);
                            prop_assert_eq!(staged, decoded);
                            if !stored.is_lossy() {
                                prop_assert_eq!(staged, block);
                                prop_assert_eq!(&analysis, &before);
                            }
                            let fresh = s.analysis(&decoded);
                            prop_assert_eq!(bits, s.stored_bits_with(&fresh).0);
                            prop_assert_eq!(analysis.lengths_u8(), fresh.lengths_u8());
                            prop_assert_eq!(analysis.total_code_bits(), fresh.total_code_bits());
                            prop_assert_eq!(analysis.tree_sums(), fresh.tree_sums());
                            if decoded == block {
                                prop_assert_eq!(bits, s.stored_bits_with(&before).0);
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn prop_stored_streams_tile_their_ways(words in proptest::collection::vec(any::<u32>(), 32),
                                                noise in any::<u32>(), threshold in 0u32..=32) {
            // The decoder rejects a block whose ways do not end exactly on
            // the next way's start, so every stream `store_coded` writes
            // — lossless or with any hole the tree selects — must tile:
            // smooth floats with `noise`-selected words replaced by
            // arbitrary bits, under every threshold and variant.
            let mut block = float_block(words[0] as f32 * 1e-7, 0.125);
            for (i, w) in words.iter().enumerate() {
                if noise >> i & 1 == 1 {
                    block[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
                }
            }
            let e2mc = e2mc();
            for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
                let config = SlcConfig::new(Mag::GDDR5, threshold, variant);
                let s = SlcCompressor::new(e2mc.clone(), config);
                let c = s.compress(&block);
                let out = s.decompress(&c);
                if !c.is_lossy() {
                    prop_assert_eq!(out, block);
                }
            }
        }
    }
}
