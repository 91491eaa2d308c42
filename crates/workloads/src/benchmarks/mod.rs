//! The nine Table III benchmarks.

pub mod bp;
pub mod bs;
pub mod dct;
pub mod fwt;
pub mod jm;
pub mod nn;
pub mod srad;
pub mod tp;

use slc_sim::trace::TraceBuilder;
use slc_sim::{BlockAddr, DevicePtr};

/// An array participating in a sweep: device pointer + bytes per element.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArraySpec {
    pub ptr: DevicePtr,
    pub elem_bytes: usize,
}

impl ArraySpec {
    pub(crate) fn new(ptr: DevicePtr, elem_bytes: usize) -> Self {
        Self { ptr, elem_bytes }
    }

    /// Blocks covering elements `[start, end)`.
    fn blocks(&self, start: usize, end: usize) -> impl Iterator<Item = BlockAddr> {
        let lo = (self.ptr.0 + (start * self.elem_bytes) as u64) >> 7;
        let hi = (self.ptr.0 + (end * self.elem_bytes) as u64).div_ceil(128);
        lo..hi
    }
}

/// Emits the trace of an element-parallel kernel that streams `n` elements
/// through every input and output array: per tile of `tile_elems`
/// elements, the covering blocks of each input are loaded, `compute_per_
/// block` cycles are charged per loaded block, and the covering blocks of
/// each output are stored. This is the coalesced access pattern of a
/// grid-stride elementwise CUDA kernel.
pub(crate) fn zip_sweep(
    b: &mut TraceBuilder,
    n: usize,
    tile_elems: usize,
    inputs: &[ArraySpec],
    outputs: &[ArraySpec],
    compute_per_block: u32,
) {
    assert!(tile_elems > 0);
    let mut start = 0usize;
    while start < n {
        let end = (start + tile_elems).min(n);
        let loads: Vec<BlockAddr> = inputs.iter().flat_map(|a| a.blocks(start, end)).collect();
        let stores: Vec<BlockAddr> = outputs.iter().flat_map(|a| a.blocks(start, end)).collect();
        let compute = compute_per_block * loads.len().max(1) as u32;
        b.tile(&loads, compute, &stores);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_sim::trace::Op;

    #[test]
    fn array_spec_block_ranges() {
        let a = ArraySpec::new(DevicePtr(256), 4);
        // Elements 0..32 = bytes 256..384 = blocks 2..3.
        let blocks: Vec<u64> = a.blocks(0, 32).collect();
        assert_eq!(blocks, vec![2]);
        // Elements 0..33 spill into block 3.
        let blocks: Vec<u64> = a.blocks(0, 33).collect();
        assert_eq!(blocks, vec![2, 3]);
    }

    #[test]
    fn zip_sweep_touches_all_blocks_once_per_pass() {
        let mut b = TraceBuilder::new(2);
        let input = ArraySpec::new(DevicePtr(0), 4);
        let output = ArraySpec::new(DevicePtr(128 * 100), 4);
        zip_sweep(&mut b, 1024, 32, &[input], &[output], 2);
        let t = b.build();
        let loads: Vec<u64> = (0..t.sms())
            .flat_map(|s| t.stream(s))
            .filter_map(|p| if let Op::Load(b) = p.op() { Some(b) } else { None })
            .collect();
        // 1024 f32 = 4 KB = 32 blocks, tiles of 32 elems = 1 block each.
        assert_eq!(loads.len(), 32);
        let stores = (0..t.sms())
            .flat_map(|s| t.stream(s))
            .filter(|p| matches!(p.op(), Op::Store(_)))
            .count();
        assert_eq!(stores, 32);
    }
}
