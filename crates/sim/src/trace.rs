//! Memory traces: the unit of work the timing simulator executes.
//!
//! A trace is one op stream per SM. Ops are *warp-level*: a `Load`/`Store`
//! is one coalesced 128 B access (GPUs coalesce a warp's 32 lanes into
//! block transactions). `Compute` models the arithmetic between memory
//! instructions — the workload's arithmetic intensity knob — and `Sync`
//! models data dependencies / barriers by draining outstanding loads.
//!
//! A trace stores each op in 4 bytes, as a [`PackedOp`]: the kind in the
//! top two bits and a 30-bit payload below them — the block address, the
//! compute cycles, or 0 for `Sync`. A payload is therefore below 2^30: a
//! block address below 128 GiB of image (the largest at full scale, NN's,
//! is about 1.97 M blocks), a `Compute` below 2^30 cycles.
//! [`Trace::push`] panics on a larger one.

use crate::BlockAddr;

/// One warp-level trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Coalesced 128 B load of the given block.
    Load(BlockAddr),
    /// Coalesced 128 B store to the given block.
    Store(BlockAddr),
    /// `n` cycles of arithmetic on the SM.
    Compute(u32),
    /// Wait until all outstanding loads of this SM have returned.
    Sync,
}

/// Bits of a [`PackedOp`]'s payload.
const PAYLOAD_BITS: u32 = 30;

const PAYLOAD_MASK: u32 = (1 << PAYLOAD_BITS) - 1;

impl Op {
    /// The op as a trace stores it.
    ///
    /// # Panics
    ///
    /// Panics if a block address or compute count is 2^30 or more.
    pub(crate) fn pack(self) -> PackedOp {
        let (kind, payload) = match self {
            Op::Load(block) => (0, block),
            Op::Store(block) => (1, block),
            Op::Compute(n) => (2, u64::from(n)),
            Op::Sync => (3, 0),
        };
        assert!(
            payload <= u64::from(PAYLOAD_MASK),
            "{self:?}: a trace op's payload must be below 2^{PAYLOAD_BITS} (a block address: 128 GiB of image)"
        );
        PackedOp(kind << PAYLOAD_BITS | payload as u32)
    }
}

/// One stored trace op: the kind in the top two bits, the payload in the
/// low 30. [`Trace::push`] makes it and [`PackedOp::op`] reads it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp(u32);

impl PackedOp {
    /// The op this word holds: a shift and a mask.
    #[inline]
    pub fn op(self) -> Op {
        let payload = self.0 & PAYLOAD_MASK;
        match self.0 >> PAYLOAD_BITS {
            0 => Op::Load(BlockAddr::from(payload)),
            1 => Op::Store(BlockAddr::from(payload)),
            2 => Op::Compute(payload),
            _ => Op::Sync,
        }
    }
}

/// A complete trace: one op stream per SM.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    streams: Vec<Vec<PackedOp>>,
}

impl Trace {
    /// Creates a trace with `sms` empty streams.
    pub fn new(sms: usize) -> Self {
        Self { streams: vec![Vec::new(); sms] }
    }

    /// Number of SM streams.
    pub fn sms(&self) -> usize {
        self.streams.len()
    }

    /// The stored op stream of one SM; [`PackedOp::op`] reads each op.
    pub fn stream(&self, sm: usize) -> &[PackedOp] {
        &self.streams[sm]
    }

    /// Appends an op to one SM's stream.
    ///
    /// # Panics
    ///
    /// Panics if the op's block address or compute count is 2^30 or more.
    pub fn push(&mut self, sm: usize, op: Op) {
        self.streams[sm].push(op.pack());
    }

    /// Total op count across streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every distinct block address the trace touches.
    pub fn touched_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.streams.iter().flatten().filter_map(|packed| match packed.op() {
            Op::Load(b) | Op::Store(b) => Some(b),
            _ => None,
        })
    }
}

/// Builds traces by distributing a global sequence of *tiles* round-robin
/// over SMs, the way a GPU scheduler distributes thread blocks.
///
/// Each tile is a group of accesses followed by an optional `Sync`
/// (modelling the dependency on the tile's loaded data) and `Compute`
/// cycles (its arithmetic).
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    next_sm: usize,
}

impl TraceBuilder {
    /// Creates a builder for `sms` streams.
    pub fn new(sms: usize) -> Self {
        Self { trace: Trace::new(sms), next_sm: 0 }
    }

    /// Emits one tile on the next SM (round-robin): `loads`, then
    /// `compute` cycles, then `stores`.
    ///
    /// Tiles do **not** sync: a GPU's warp scheduler keeps issuing other
    /// warps while a tile's loads are pending, so intra-kernel dependency
    /// stalls surface only through MSHR pressure. Use [`barrier`] for
    /// kernel/grid boundaries.
    ///
    /// [`barrier`]: Self::barrier
    pub fn tile(&mut self, loads: &[BlockAddr], compute: u32, stores: &[BlockAddr]) {
        let sm = self.next_sm;
        self.next_sm = (self.next_sm + 1) % self.trace.sms();
        for &b in loads {
            self.trace.push(sm, Op::Load(b));
        }
        if compute > 0 {
            self.trace.push(sm, Op::Compute(compute));
        }
        for &b in stores {
            self.trace.push(sm, Op::Store(b));
        }
    }

    /// Emits a grid-wide barrier: every SM drains its outstanding loads
    /// (kernel boundary).
    pub fn barrier(&mut self) {
        for sm in 0..self.trace.sms() {
            self.trace.push(sm, Op::Sync);
        }
    }

    /// Finishes the build.
    pub fn build(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut t = Trace::new(2);
        t.push(0, Op::Load(1));
        t.push(1, Op::Compute(5));
        t.push(1, Op::Sync);
        assert_eq!(t.len(), 3);
        assert_eq!(t.stream(0), &[Op::Load(1).pack()]);
        assert_eq!(t.sms(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn every_op_round_trips_at_both_ends_of_its_payload() {
        let top = (1 << PAYLOAD_BITS) - 1;
        for op in [
            Op::Load(0),
            Op::Load(top),
            Op::Store(0),
            Op::Store(top),
            Op::Compute(0),
            Op::Compute(top as u32),
            Op::Sync,
        ] {
            assert_eq!(op.pack().op(), op);
        }
    }

    #[test]
    fn a_stored_op_is_four_bytes() {
        assert_eq!(std::mem::size_of::<PackedOp>(), 4);
    }

    #[test]
    #[should_panic(expected = "Load(1073741824): a trace op's payload must be below 2^30")]
    fn a_block_address_of_2_30_panics_naming_the_limit() {
        Trace::new(1).push(0, Op::Load(1 << 30));
    }

    #[test]
    #[should_panic(expected = "Compute(1073741824): a trace op's payload must be below 2^30")]
    fn a_compute_count_of_2_30_panics_naming_the_limit() {
        Trace::new(1).push(0, Op::Compute(1 << 30));
    }

    #[test]
    fn tiles_round_robin_over_sms() {
        let mut b = TraceBuilder::new(2);
        b.tile(&[0], 10, &[]);
        b.tile(&[1], 10, &[]);
        b.tile(&[2], 10, &[]);
        let t = b.build();
        // SM0 got tiles 0 and 2, SM1 got tile 1.
        let loads = |sm| t.stream(sm).iter().filter(|p| matches!(p.op(), Op::Load(_))).count();
        assert_eq!((loads(0), loads(1)), (2, 1));
    }

    #[test]
    fn touched_blocks_lists_loads_and_stores() {
        let mut t = Trace::new(1);
        t.push(0, Op::Load(5));
        t.push(0, Op::Store(9));
        t.push(0, Op::Compute(1));
        let mut blocks: Vec<u64> = t.touched_blocks().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![5, 9]);
    }
}
