//! Functional device memory with safe-to-approximate regions.
//!
//! Models the paper's extended allocation API (Section IV-C):
//!
//! ```c
//! cudaMalloc(void** devPtr, size_t size, bool safeToApprox, size_t threshold)
//! ```
//!
//! "The address returned by the extended cudaMalloc() and size of the
//! memory allocation is used to determine if a load is safe to approximate
//! or not." Workload kernels allocate their arrays here, flagging the ones
//! whose approximation cannot cause catastrophic failures; the harness
//! then stages flagged regions through the SLC codec at kernel-boundary
//! DRAM round-trips (see PAPER.md, "This reproduction", for why kernel
//! granularity preserves the paper's behaviour for these memory-bound
//! apps).

use crate::BlockAddr;
use slc_compress::{Block, BLOCK_BYTES};

/// An opaque device address returned by [`GpuMemory::malloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(pub u64);

/// One allocation (the paper's "memory region").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Base byte address (128 B aligned).
    pub base: u64,
    /// Size in bytes (padded to 128 B internally).
    pub size: u64,
    /// `true` when the programmer marked the region safe to approximate.
    pub safe_to_approx: bool,
    /// Per-region lossy threshold in bytes (paper: programmer-specified).
    pub threshold_bytes: u32,
    /// Debug label.
    pub label: String,
}

impl Region {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }

    /// Block address of the region's `index`-th block — the one place
    /// the region-to-block address arithmetic lives.
    pub fn block_addr(&self, index: usize) -> BlockAddr {
        self.base / BLOCK_BYTES as u64 + index as u64
    }

    /// Block addresses covered by the region.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let first = self.base / BLOCK_BYTES as u64;
        let last = (self.base + self.size).div_ceil(BLOCK_BYTES as u64);
        first..last
    }
}

/// Byte-addressable device memory plus the region table.
#[derive(Debug, Clone, Default)]
pub struct GpuMemory {
    data: Vec<u8>,
    regions: Vec<Region>,
}

impl GpuMemory {
    /// Creates an empty device memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `size` bytes, 128 B aligned — the extended `cudaMalloc`.
    pub fn malloc(
        &mut self,
        label: &str,
        size: usize,
        safe_to_approx: bool,
        threshold_bytes: u32,
    ) -> DevicePtr {
        let base = self.data.len() as u64;
        let padded = size.div_ceil(BLOCK_BYTES) * BLOCK_BYTES;
        self.data.resize(self.data.len() + padded, 0);
        self.regions.push(Region {
            base,
            size: padded as u64,
            safe_to_approx,
            threshold_bytes,
            label: label.to_owned(),
        });
        DevicePtr(base)
    }

    /// The region table.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions marked safe to approximate (Table III's #AR).
    pub fn approx_regions(&self) -> usize {
        self.regions.iter().filter(|r| r.safe_to_approx).count()
    }

    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: u64) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// Whether a load from `addr` may be approximated.
    pub fn is_approximable(&self, addr: u64) -> bool {
        self.region_of(addr).is_some_and(|r| r.safe_to_approx)
    }

    /// Copies an `f32` slice to the device (`cudaMemcpy` host→device).
    ///
    /// # Panics
    ///
    /// Panics when the write runs past the allocation.
    pub fn write_f32(&mut self, ptr: DevicePtr, values: &[f32]) {
        let start = ptr.0 as usize;
        let end = start + values.len() * 4;
        assert!(end <= self.data.len(), "device write out of bounds");
        for (i, v) in values.iter().enumerate() {
            self.data[start + 4 * i..start + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads an `f32` slice from the device (`cudaMemcpy` device→host).
    ///
    /// # Panics
    ///
    /// Panics when the read runs past the allocation.
    pub fn read_f32(&self, ptr: DevicePtr, len: usize) -> Vec<f32> {
        let start = ptr.0 as usize;
        let end = start + len * 4;
        assert!(end <= self.data.len(), "device read out of bounds");
        self.data[start..end]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Reads one `u32` element.
    pub fn read_u32(&self, ptr: DevicePtr, index: usize) -> u32 {
        let start = ptr.0 as usize + index * 4;
        u32::from_le_bytes(self.data[start..start + 4].try_into().expect("4 bytes"))
    }

    /// Writes one `u32` element.
    pub fn write_u32(&mut self, ptr: DevicePtr, index: usize, value: u32) {
        let start = ptr.0 as usize + index * 4;
        self.data[start..start + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Raw bytes of one region (for sampling / compression passes).
    pub fn region_bytes(&self, region: &Region) -> &[u8] {
        &self.data[region.base as usize..(region.base + region.size) as usize]
    }

    /// Writable bytes of one region (for restoring a saved image).
    /// `region` is an entry of this region table or of an equal one,
    /// such as that of the memory this one was cloned from.
    pub fn region_bytes_mut(&mut self, region: &Region) -> &mut [u8] {
        &mut self.data[region.base as usize..(region.base + region.size) as usize]
    }

    /// Every region with its writable bytes, in table order — what an
    /// in-order walk that rewrites blocks as it reads them borrows:
    /// regions and data disjointly, no region-table clone. Regions tile
    /// the data back to back ([`Self::malloc`] is the only way to make
    /// one), so each is split off the front of what is left.
    pub fn regions_mut(&mut self) -> impl Iterator<Item = (&Region, &mut [u8])> + '_ {
        let mut rest = self.data.as_mut_slice();
        self.regions.iter().map(move |region| {
            let (bytes, tail) = std::mem::take(&mut rest).split_at_mut(region.size as usize);
            rest = tail;
            (region, bytes)
        })
    }

    /// Applies `f` to every 128 B block of every safe-to-approximate
    /// region — the kernel-boundary DRAM round-trip: `Some(out)` replaces
    /// the block, `None` leaves it alone (an exact stored form costs
    /// neither a copy nor a compare). Visits regions in table order and
    /// blocks in ascending offset, the order [`Self::blocks_with_addr`]
    /// reproduces.
    ///
    /// Returns the number of blocks visited (memory is only written for
    /// blocks the callback actually changed).
    pub fn stage_approx_regions(
        &mut self,
        mut f: impl FnMut(&Region, &Block) -> Option<Block>,
    ) -> usize {
        let mut visited = 0;
        for (region, bytes) in self.regions_mut().filter(|(r, _)| r.safe_to_approx) {
            for chunk in bytes.chunks_exact_mut(BLOCK_BYTES) {
                let block: &mut Block = chunk.try_into().expect("regions are block-padded");
                if let Some(out) = f(region, block).filter(|out| out != block) {
                    *block = out;
                }
                visited += 1;
            }
        }
        visited
    }

    /// Iterates every region block **by reference** with its block
    /// address ([`Region::block_addr`]) and owning region — the zero-copy
    /// sibling of [`all_blocks`](Self::all_blocks) and the single
    /// region-order block walk that burst accounting and snapshot
    /// analysis share.
    pub fn blocks_with_addr(&self) -> impl Iterator<Item = (&Region, BlockAddr, &Block)> + '_ {
        self.regions.iter().flat_map(move |region| {
            let start = region.base as usize;
            let end = (region.base + region.size) as usize;
            self.data[start..end].chunks_exact(BLOCK_BYTES).enumerate().map(move |(i, chunk)| {
                let block: &Block = chunk.try_into().expect("regions are block-padded");
                (region, region.block_addr(i), block)
            })
        })
    }

    /// Iterates over the blocks of every region (for table training and
    /// ratio studies), flagged with the owning region.
    pub fn all_blocks(&self) -> impl Iterator<Item = (&Region, Block)> + '_ {
        self.regions.iter().flat_map(move |region| {
            let start = region.base as usize;
            let end = (region.base + region.size) as usize;
            self.data[start..end].chunks_exact(BLOCK_BYTES).map(move |chunk| {
                let mut b = [0u8; BLOCK_BYTES];
                b.copy_from_slice(chunk);
                (region, b)
            })
        })
    }

    /// Total allocated bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_aligns_and_tracks_regions() {
        let mut m = GpuMemory::new();
        let a = m.malloc("a", 100, true, 16);
        let b = m.malloc("b", 256, false, 0);
        assert_eq!(a.0, 0);
        assert_eq!(b.0, 128, "second allocation starts on next block");
        assert_eq!(m.regions().len(), 2);
        assert_eq!(m.approx_regions(), 1);
        assert!(m.is_approximable(a.0));
        assert!(!m.is_approximable(b.0));
        assert_eq!(m.len(), 128 + 256);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = GpuMemory::new();
        let p = m.malloc("x", 16, true, 16);
        m.write_f32(p, &[1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
        assert_eq!(m.read_f32(p, 4), vec![1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
    }

    #[test]
    fn u32_roundtrip() {
        let mut m = GpuMemory::new();
        let p = m.malloc("x", 16, false, 0);
        m.write_u32(p, 2, 0xdeadbeef);
        assert_eq!(m.read_u32(p, 2), 0xdeadbeef);
    }

    #[test]
    fn region_bytes_mut_writes_one_region() {
        let mut m = GpuMemory::new();
        let a = m.malloc("a", 128, true, 16);
        let b = m.malloc("b", 128, false, 0);
        m.write_f32(a, &[1.0; 32]);
        m.write_f32(b, &[2.0; 32]);
        let saved = m.clone();
        m.region_bytes_mut(&saved.regions()[1]).fill(0);
        assert_eq!(m.read_f32(a, 32), [1.0; 32]);
        assert_eq!(m.read_f32(b, 32), [0.0; 32]);
        let region = &saved.regions()[1];
        m.region_bytes_mut(region).copy_from_slice(saved.region_bytes(region));
        assert_eq!(m.read_f32(b, 32), [2.0; 32]);
    }

    #[test]
    fn regions_mut_hands_out_each_regions_own_bytes() {
        let mut m = GpuMemory::new();
        for (i, blocks) in [2usize, 1, 3].into_iter().enumerate() {
            m.malloc("r", blocks * BLOCK_BYTES - 4, i % 2 == 0, 16);
        }
        for (i, (_, bytes)) in m.regions_mut().enumerate() {
            bytes.fill(i as u8 + 1);
        }
        let saved = m.clone();
        assert_eq!(m.regions_mut().count(), 3);
        for (i, (region, bytes)) in m.regions_mut().enumerate() {
            assert_eq!(region, &saved.regions()[i]);
            assert_eq!(bytes, saved.region_bytes(region));
            assert!(bytes.iter().all(|&b| b == i as u8 + 1) && bytes.len() == region.size as usize);
        }
    }

    #[test]
    fn stage_visits_only_approx_regions() {
        let mut m = GpuMemory::new();
        let a = m.malloc("approx", 256, true, 16);
        let e = m.malloc("exact", 256, false, 0);
        m.write_f32(a, &[7.0; 64]);
        m.write_f32(e, &[9.0; 64]);
        let visited = m.stage_approx_regions(|_, b| {
            let mut out = *b;
            out[0] = 0xff;
            Some(out)
        });
        assert_eq!(visited, 2, "two blocks in the approx region");
        assert_eq!(m.read_f32(e, 1)[0], 9.0, "exact region untouched");
        let first = m.read_f32(a, 1)[0];
        assert_ne!(first, 7.0, "approx region rewritten");
    }

    #[test]
    fn stage_order_matches_blocks_with_addr() {
        let mut m = GpuMemory::new();
        let _exact = m.malloc("exact", 128, false, 0);
        let a = m.malloc("approx", 256, true, 16);
        let mut staged_bases = Vec::new();
        let mut count = 0u64;
        m.stage_approx_regions(|region, block| {
            assert_eq!(region.base, a.0);
            staged_bases.push(region.base + count * BLOCK_BYTES as u64);
            count += 1;
            Some(*block)
        });
        let walk: Vec<u64> = m
            .blocks_with_addr()
            .filter(|(r, _, _)| r.safe_to_approx)
            .map(|(_, addr, _)| addr * BLOCK_BYTES as u64)
            .collect();
        // The staging walk and the shared block walk agree on order and
        // position — the contract positional merges rely on.
        assert_eq!(staged_bases, walk);
        assert_eq!(walk, vec![128, 256]);
    }

    #[test]
    fn region_blocks_cover_allocation() {
        let mut m = GpuMemory::new();
        let p = m.malloc("x", 300, true, 16);
        let r = m.region_of(p.0).expect("region exists").clone();
        let blocks: Vec<u64> = r.blocks().collect();
        assert_eq!(blocks.len(), 3, "300 bytes pads to 384 = 3 blocks");
    }

    #[test]
    fn all_blocks_counts_match() {
        let mut m = GpuMemory::new();
        m.malloc("a", 128, true, 16);
        m.malloc("b", 384, false, 0);
        assert_eq!(m.all_blocks().count(), 4);
    }

    #[test]
    fn blocks_with_addr_mirrors_all_blocks() {
        let mut m = GpuMemory::new();
        let a = m.malloc("a", 256, true, 16);
        m.malloc("b", 384, false, 0);
        m.write_f32(a, &[5.5; 64]);
        let by_ref: Vec<(u64, bool, Block)> =
            m.blocks_with_addr().map(|(r, addr, b)| (addr, r.safe_to_approx, *b)).collect();
        let by_val: Vec<(bool, Block)> =
            m.all_blocks().map(|(r, b)| (r.safe_to_approx, b)).collect();
        assert_eq!(by_ref.len(), by_val.len());
        for (i, ((addr, approx_a, block_a), (approx_b, block_b))) in
            by_ref.iter().zip(&by_val).enumerate()
        {
            assert_eq!(*addr, i as u64, "contiguous regions give contiguous addresses");
            assert_eq!(approx_a, approx_b);
            assert_eq!(block_a, block_b);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut m = GpuMemory::new();
        let p = m.malloc("x", 8, false, 0);
        m.write_f32(p, &[0.0; 64]);
    }
}
