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
//! then stages every flagged region through the SLC codec at every kernel
//! boundary, not on the memory controller's write path as the paper does
//! (PAPER.md, "Deviations from the paper", staging at every kernel
//! boundary). [`GpuMemory::regions_mut`] lends only flagged regions
//! writable ([`RegionBlocks`]).
//!
//! [`GpuMemory::malloc`] takes no `threshold`: the lossy threshold is per
//! scheme (`slc_core::SlcConfig`), not per allocation as in §IV-C. Every
//! approximable region of the nine benchmarks asked for 16 B, and nothing
//! ever read the per-region value.
//!
//! A kernel computes on this memory, never on a copy of it:
//! [`GpuMemory::launch`] lends it every array it names as a *view* — an
//! [`F32View`] of an input, an [`F32ViewMut`] of an output, each a borrow
//! of the array's own bytes that decodes or encodes one little-endian
//! `f32` per access. The views of one launch are disjoint slices of the
//! image, so a kernel owns no array-sized buffer and a result is in
//! device memory the moment it is computed.
//! [`GpuMemory::write_f32`] / [`GpuMemory::read_f32`] are the host side,
//! `cudaMemcpy`: how inputs get in and outputs get out, and
//! [`GpuMemory::f32_view`] reads an array where it lies.
//!
//! Every writable path — `launch`'s outputs, `write_f32`,
//! [`GpuMemory::region_bytes_mut`] and the approximable half of
//! `regions_mut` — passes one hook: while
//! [`GpuMemory::record_first_writes`] is on, the first time a region is
//! lent writable its bytes are saved, so a run over the image itself
//! leaves what it overwrote behind without a copy of the whole image.

use crate::BlockAddr;
use slc_compress::{Block, BLOCK_BYTES};
use std::ops::Range;

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
    /// Debug label.
    pub label: String,
}

impl Region {
    /// Block address of the region's `index`-th block — the one place
    /// the region-to-block address arithmetic lives. Regions tile the
    /// image from byte 0 ([`GpuMemory::malloc`]), so block addresses are
    /// the image's block ordinals `0..len / 128`, and a per-block table
    /// is a vector indexed by address.
    pub fn block_addr(&self, index: usize) -> BlockAddr {
        self.base / BLOCK_BYTES as u64 + index as u64
    }
}

/// One region's blocks as [`GpuMemory::regions_mut`] lends them: only a
/// region marked safe to approximate is lent writable, so the lossy step
/// has no way into an exact one.
#[derive(Debug)]
pub enum RegionBlocks<'a> {
    /// A region that must stay exact, read-only.
    Exact(&'a [Block]),
    /// A safe-to-approximate region, writable.
    Approx(&'a mut [Block]),
}

/// A kernel's read-only view of one `f32` array in device memory.
#[derive(Debug, Clone, Copy)]
pub struct F32View<'a> {
    words: &'a [[u8; 4]],
}

impl<'a> F32View<'a> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is past the end of the array.
    pub fn get(&self, i: usize) -> f32 {
        f32::from_le_bytes(self.words[i])
    }

    /// The elements in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f32> + 'a {
        self.words.iter().map(|&w| f32::from_le_bytes(w))
    }

    /// The view of elements `range` alone.
    ///
    /// # Panics
    ///
    /// Panics when `range` runs past the end of the array.
    pub fn slice(&self, range: Range<usize>) -> F32View<'a> {
        F32View { words: &self.words[range] }
    }
}

/// A kernel's read-write view of one `f32` array in device memory.
#[derive(Debug)]
pub struct F32ViewMut<'a> {
    words: &'a mut [[u8; 4]],
}

impl F32ViewMut<'_> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is past the end of the array.
    pub fn get(&self, i: usize) -> f32 {
        f32::from_le_bytes(self.words[i])
    }

    /// Stores `value` as element `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is past the end of the array.
    pub fn set(&mut self, i: usize, value: f32) {
        self.words[i] = value.to_le_bytes();
    }

    /// The elements in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f32> + '_ {
        self.words.iter().map(|&w| f32::from_le_bytes(w))
    }

    /// Overwrites the whole array with `src`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn copy_from(&mut self, src: F32View<'_>) {
        self.words.copy_from_slice(src.words);
    }
}

/// The step [`GpuMemory::malloc`] grows an image's buffer by. 32 MiB is
/// the largest mmap threshold glibc's allocator adapts to, so a buffer of
/// whole steps is always a mapping of its own: only its length is ever
/// touched, and dropping it returns the pages. Grown by exact lengths, an
/// image below the threshold the allocator has adapted to (at
/// `Scale::Small` every one is, 1.5–9.5 MB) lands in the allocating
/// thread's arena, which keeps the pages resident after the drop: the two
/// workers of an evaluation then each hold the largest benchmark's
/// working set for the rest of the process.
const IMAGE_STEP: usize = 32 << 20;

/// Byte-addressable device memory plus the region table.
#[derive(Debug, Clone, Default)]
pub struct GpuMemory {
    data: Vec<u8>,
    regions: Vec<Region>,
    /// While recording ([`Self::record_first_writes`]), one entry per
    /// region: the bytes it held when it was first lent writable.
    first_writes: Option<Vec<Option<Box<[u8]>>>>,
}

impl GpuMemory {
    /// Creates an empty device memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `size` bytes, 128 B aligned — the extended `cudaMalloc`,
    /// less its `threshold` (see the module docs).
    ///
    /// The only way to make a region: each is padded to whole blocks and
    /// placed right after the last, so the regions tile the image from
    /// byte 0 and block addresses are the image's ordinals
    /// `0..len / 128`. The buffer grows in whole 32 MiB steps
    /// (`IMAGE_STEP`), so a built image is a mapping of its own: its
    /// length is resident, the rest of its capacity is never touched, and
    /// dropping it unmaps it.
    pub fn malloc(&mut self, label: &str, size: usize, safe_to_approx: bool) -> DevicePtr {
        let base = self.data.len() as u64;
        let padded = size.div_ceil(BLOCK_BYTES) * BLOCK_BYTES;
        let len = self.data.len() + padded;
        if len > self.data.capacity() {
            self.data.reserve_exact(len.next_multiple_of(IMAGE_STEP) - self.data.len());
        }
        self.data.resize(len, 0);
        let label = label.to_owned();
        self.regions.push(Region { base, size: padded as u64, safe_to_approx, label });
        if let Some(saved) = &mut self.first_writes {
            saved.push(None);
        }
        DevicePtr(base)
    }

    /// Starts recording first writes: from now on, the first time each
    /// region is lent writable — by any path, see the module docs — its
    /// bytes are saved, until [`Self::take_first_writes`]. Off by
    /// default; a restart forgets what was saved.
    pub fn record_first_writes(&mut self) {
        self.first_writes = Some(vec![None; self.regions.len()]);
    }

    /// Stops recording and returns, per region in table order, the bytes
    /// it held before it was first lent writable since
    /// [`Self::record_first_writes`]; `None` for a region not lent
    /// writable since.
    ///
    /// # Panics
    ///
    /// Panics when recording is off.
    pub fn take_first_writes(&mut self) -> Vec<Option<Box<[u8]>>> {
        self.first_writes.take().expect("take_first_writes without record_first_writes")
    }

    /// The recording hook every writable path calls before it lends
    /// bytes `start..end`: saves each region they touch that has no saved
    /// copy yet. One branch when recording is off.
    fn lend_writable(&mut self, start: usize, end: usize) {
        let Self { data, regions, first_writes: Some(saved) } = self else { return };
        if start == end {
            return;
        }
        let first = regions.partition_point(|r| r.base + r.size <= start as u64);
        let touched = regions[first..].iter().zip(&mut saved[first..]);
        for (region, slot) in touched.take_while(|(r, _)| r.base < end as u64) {
            let bytes = &data[region.base as usize..(region.base + region.size) as usize];
            slot.get_or_insert_with(|| bytes.into());
        }
    }

    /// The region table.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions marked safe to approximate (Table III's #AR).
    pub fn approx_regions(&self) -> usize {
        self.regions.iter().filter(|r| r.safe_to_approx).count()
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
        self.lend_writable(start, end);
        for (c, v) in self.data[start..end].chunks_exact_mut(4).zip(values) {
            c.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads an `f32` slice from the device (`cudaMemcpy` device→host).
    ///
    /// # Panics
    ///
    /// Panics when the read runs past the allocation.
    pub fn read_f32(&self, ptr: DevicePtr, len: usize) -> Vec<f32> {
        self.f32_view(ptr, len).iter().collect()
    }

    /// A read-only view of `len` `f32`s at `ptr`, where they lie: what
    /// reads an output without copying it to the host.
    ///
    /// # Panics
    ///
    /// Panics when the array runs past the allocation.
    pub fn f32_view(&self, ptr: DevicePtr, len: usize) -> F32View<'_> {
        let start = ptr.0 as usize;
        let end = start + len * 4;
        assert!(end <= self.data.len(), "device read out of bounds");
        F32View { words: self.data[start..end].as_chunks().0 }
    }

    /// Launches a kernel over `N` input and `M` output arrays, each a
    /// `(start, f32 count)` pair: lends every input as an [`F32View`] and
    /// every output (or array updated in place) as an [`F32ViewMut`], in
    /// argument order, all at once. The views are disjoint borrows split
    /// off the image in address order, as [`Self::regions_mut`] splits
    /// regions, so no array can alias another and nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics when an array runs past the allocation or two of them
    /// overlap (an array read and written goes in `outputs` alone).
    pub fn launch<const N: usize, const M: usize>(
        &mut self,
        inputs: [(DevicePtr, usize); N],
        outputs: [(DevicePtr, usize); M],
    ) -> ([F32View<'_>; N], [F32ViewMut<'_>; M]) {
        for (ptr, len) in inputs.iter().chain(&outputs) {
            let in_bounds = ptr.0 as usize + len * 4 <= self.data.len();
            assert!(in_bounds, "device array out of bounds");
        }
        for (ptr, len) in outputs {
            self.lend_writable(ptr.0 as usize, ptr.0 as usize + len * 4);
        }
        let mut ins = [None; N];
        let mut outs = [const { None }; M];
        // `rest` is the image from byte address `base` on.
        let (mut rest, mut base) = (self.data.as_mut_slice(), 0);
        for _ in 0..N + M {
            let pending_in = (0..N).filter(|&i| ins[i].is_none()).map(|i| (inputs[i], false, i));
            let pending_out = (0..M).filter(|&i| outs[i].is_none()).map(|i| (outputs[i], true, i));
            let ((ptr, len), written, slot) = pending_in
                .chain(pending_out)
                .min_by_key(|&(array, ..)| array)
                .expect("N + M arrays, one lent per pass");
            let start = ptr.0 as usize;
            assert!(start >= base, "device arrays overlap");
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(start - base);
            let (bytes, tail) = tail.split_at_mut(len * 4);
            (rest, base) = (tail, start + len * 4);
            let (words, _) = bytes.as_chunks_mut();
            if written {
                outs[slot] = Some(F32ViewMut { words });
            } else {
                ins[slot] = Some(F32View { words });
            }
        }
        (ins.map(|v| v.expect("every input lent")), outs.map(|v| v.expect("every output lent")))
    }

    /// Raw bytes of one region (for sampling / compression passes).
    pub fn region_bytes(&self, region: &Region) -> &[u8] {
        &self.data[region.base as usize..(region.base + region.size) as usize]
    }

    /// Writable bytes of one region (for restoring a saved image).
    /// `region` is an entry of this region table or of an equal one,
    /// such as that of the memory this one was cloned from.
    pub fn region_bytes_mut(&mut self, region: &Region) -> &mut [u8] {
        let (start, end) = (region.base as usize, (region.base + region.size) as usize);
        self.lend_writable(start, end);
        &mut self.data[start..end]
    }

    /// Every region with its blocks, in table order — what an in-order
    /// walk that rewrites blocks as it reads them borrows: regions and
    /// data disjointly, no region-table clone, and only approximable
    /// regions writable ([`RegionBlocks`]). Regions tile the data back to
    /// back in whole blocks ([`Self::malloc`] is the only way to make
    /// one), so each is split off the front of what is left.
    pub fn regions_mut(&mut self) -> impl Iterator<Item = (&Region, RegionBlocks<'_>)> + '_ {
        if self.first_writes.is_some() {
            for i in 0..self.regions.len() {
                let Region { base, size, safe_to_approx, .. } = self.regions[i];
                if safe_to_approx {
                    self.lend_writable(base as usize, (base + size) as usize);
                }
            }
        }
        let mut rest = self.data.as_chunks_mut().0;
        self.regions.iter().map(move |region| {
            let count = region.size as usize / BLOCK_BYTES;
            let (blocks, tail) = std::mem::take(&mut rest).split_at_mut(count);
            rest = tail;
            let blocks = if region.safe_to_approx {
                RegionBlocks::Approx(blocks)
            } else {
                RegionBlocks::Exact(blocks)
            };
            (region, blocks)
        })
    }

    /// Iterates every region block **by reference** with its block
    /// address ([`Region::block_addr`]) and owning region — the zero-copy
    /// sibling of [`all_blocks`](Self::all_blocks) and the single
    /// region-order block walk that burst accounting and snapshot
    /// analysis share.
    pub fn blocks_with_addr(&self) -> impl Iterator<Item = (&Region, BlockAddr, &Block)> + '_ {
        self.regions.iter().flat_map(move |region| {
            let blocks = self.region_bytes(region).as_chunks().0.iter().enumerate();
            blocks.map(move |(i, block)| (region, region.block_addr(i), block))
        })
    }

    /// Iterates over the blocks of every region (for table training and
    /// ratio studies), flagged with the owning region.
    pub fn all_blocks(&self) -> impl Iterator<Item = (&Region, Block)> + '_ {
        self.blocks_with_addr().map(|(region, _, block)| (region, *block))
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
        let a = m.malloc("a", 100, true);
        let b = m.malloc("b", 256, false);
        assert_eq!(a.0, 0);
        assert_eq!(b.0, 128, "second allocation starts on next block");
        assert_eq!(m.regions().len(), 2);
        assert_eq!(m.approx_regions(), 1);
        let approx: Vec<(u64, bool)> =
            m.regions().iter().map(|r| (r.base, r.safe_to_approx)).collect();
        assert_eq!(approx, [(a.0, true), (b.0, false)]);
        assert_eq!(m.len(), 128 + 256);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = GpuMemory::new();
        let p = m.malloc("x", 16, true);
        m.write_f32(p, &[1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
        assert_eq!(m.read_f32(p, 4), vec![1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
    }

    /// Three two-block arrays, `a` `b` `c`, holding 1.0s, 2.0s and 3.0s.
    fn three_arrays() -> (GpuMemory, [DevicePtr; 3]) {
        let mut m = GpuMemory::new();
        let ptrs = ["a", "b", "c"].map(|label| m.malloc(label, 256, true));
        for (ptr, v) in ptrs.iter().zip([1.0, 2.0, 3.0]) {
            m.write_f32(*ptr, &[v; 64]);
        }
        (m, ptrs)
    }

    #[test]
    fn a_view_round_trips_every_bit_pattern() {
        let (mut m, [a, b, _]) = three_arrays();
        let patterns = [
            f32::MIN_POSITIVE.to_bits(),
            (-0.0f32).to_bits(),
            0x7fc0_0001, // quiet NaN with a payload
            0xff80_0001, // signalling NaN, sign set
            0x0000_0001, // smallest subnormal
            f32::INFINITY.to_bits(),
        ];
        let ([], [mut out]) = m.launch([], [(a, 64)]);
        for (i, &bits) in patterns.iter().enumerate() {
            out.set(i, f32::from_bits(bits));
            assert_eq!(out.get(i).to_bits(), bits, "read-write view, element {i}");
        }
        assert_eq!((out.len(), out.is_empty()), (64, false));
        // The same bits through a read view, a copy and the host's memcpy.
        let ([src], [mut dst]) = m.launch([(a, 64)], [(b, 64)]);
        dst.copy_from(src);
        assert!(dst.iter().map(f32::to_bits).eq(src.iter().map(f32::to_bits)));
        assert_eq!((src.len(), src.slice(2..5).len(), src.slice(64..64).is_empty()), (64, 3, true));
        assert_eq!(src.slice(2..5).get(0).to_bits(), patterns[2]);
        for ptr in [a, b] {
            let host = m.read_f32(ptr, patterns.len());
            assert!(host.iter().map(|v| v.to_bits()).eq(patterns), "{ptr:?}");
        }
    }

    #[test]
    fn the_arrays_of_one_launch_alias_nothing() {
        let (mut m, [a, b, c]) = three_arrays();
        let pristine = m.clone();
        // Argument order is the caller's, not the address order; `a` is
        // lent as its two halves.
        let ([second_half, first_half], [mut last, mut middle]) =
            m.launch([(DevicePtr(a.0 + 128), 32), (a, 32)], [(c, 64), (b, 64)]);
        assert!(first_half.iter().chain(second_half.iter()).all(|v| v == 1.0));
        assert!(middle.iter().all(|v| v == 2.0) && last.iter().all(|v| v == 3.0));
        for i in 0..64 {
            middle.set(i, 20.0);
            last.set(i, 30.0);
        }
        // Each write landed in its own array and nowhere else.
        assert_eq!(m.read_f32(a, 64), pristine.read_f32(a, 64));
        assert_eq!(m.read_f32(b, 64), [20.0; 64]);
        assert_eq!(m.read_f32(c, 64), [30.0; 64]);
    }

    #[test]
    #[should_panic(expected = "device arrays overlap")]
    fn an_array_read_and_written_in_one_launch_panics() {
        let (mut m, [a, ..]) = three_arrays();
        let _ = m.launch([(a, 64)], [(a, 64)]);
    }

    #[test]
    #[should_panic(expected = "device arrays overlap")]
    fn outputs_that_share_one_element_panic() {
        let (mut m, [a, b, _]) = three_arrays();
        let _ = m.launch([], [(b, 64), (a, 65)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_array_past_the_allocation_panics() {
        let (mut m, [_, _, c]) = three_arrays();
        let _ = m.launch([(c, 65)], []);
    }

    #[test]
    fn region_bytes_mut_writes_one_region() {
        let mut m = GpuMemory::new();
        let a = m.malloc("a", 128, true);
        let b = m.malloc("b", 128, false);
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
        for (i, blocks) in [2usize, 1, 3, 2].into_iter().enumerate() {
            m.malloc("r", blocks * BLOCK_BYTES - 4, i % 2 == 0);
            let region = m.regions()[i].clone();
            m.region_bytes_mut(&region).fill(i as u8 + 1);
        }
        let saved = m.clone();
        assert_eq!(m.regions_mut().count(), 4);
        for (i, (region, blocks)) in m.regions_mut().enumerate() {
            assert_eq!(region, &saved.regions()[i]);
            // Writable exactly when the region may be approximated.
            let blocks: &[Block] = match blocks {
                RegionBlocks::Approx(blocks) => {
                    assert!(region.safe_to_approx, "exact region {i} lent writable");
                    blocks
                }
                RegionBlocks::Exact(blocks) => {
                    assert!(!region.safe_to_approx, "approximable region {i} lent read-only");
                    blocks
                }
            };
            assert_eq!(blocks.as_flattened(), saved.region_bytes(region));
            assert!(blocks.as_flattened().iter().all(|&b| b == i as u8 + 1));
        }
    }

    /// Six one-block regions, region `i` filled with byte `i + 1`; the
    /// odd ones may be approximated.
    fn six_regions() -> GpuMemory {
        let mut m = GpuMemory::new();
        for i in 0..6 {
            let ptr = m.malloc("r", BLOCK_BYTES, i % 2 == 1);
            m.write_f32(ptr, &[f32::from_bits(u32::from_le_bytes([i as u8 + 1; 4])); 32]);
        }
        m
    }

    #[test]
    fn the_record_saves_each_region_lent_writable_as_it_was_before() {
        let mut m = six_regions();
        let before = m.clone();
        let ptr = |i: usize| DevicePtr(m.regions()[i].base);
        let (r0, r1, r2, r4) = (ptr(0), ptr(1), ptr(2), ptr(4));
        // Off: nothing is saved.
        m.write_f32(r0, &[9.0]);
        m.record_first_writes();
        // Region 0 read, region 2 written (twice: the first write's bytes
        // are kept), region 4 through `write_f32`.
        let ([input], [mut out]) = m.launch([(r0, 32)], [(r2, 32)]);
        out.set(0, input.get(0));
        let ([], [mut out]) = m.launch([], [(r2, 32)]);
        out.set(1, 7.0);
        m.write_f32(r4, &[4.0; 3]);
        let saved = m.take_first_writes();
        let want = |i: usize| Some(Box::<[u8]>::from(before.region_bytes(&before.regions()[i])));
        let mut expected = vec![None; 6];
        for i in [2, 4] {
            expected[i] = want(i);
        }
        // Region 0 was written only while recording was off, then read.
        assert_eq!(saved, expected);
        // Off again: writes go unrecorded.
        m.write_f32(r1, &[1.0]);
        m.record_first_writes();
        m.region_bytes_mut(&before.regions()[5]).fill(0);
        let lent_by_walk = m.regions_mut().count();
        assert_eq!(lent_by_walk, 6);
        let staged = m.take_first_writes();
        // The walk lends the approximable regions 1, 3 and 5 writable:
        // region 1 as `write_f32` left it, 5 as it was before its fill.
        let mut expected = vec![None; 6];
        expected[1] = Some(Box::<[u8]>::from(m.region_bytes(&before.regions()[1])));
        expected[3] = want(3);
        expected[5] = want(5);
        assert_eq!(staged, expected);
    }

    #[test]
    fn a_region_made_while_recording_is_recorded_too() {
        let mut m = six_regions();
        m.record_first_writes();
        let ptr = m.malloc("late", 4, false);
        m.write_f32(ptr, &[1.0]);
        let saved = m.take_first_writes();
        assert_eq!(saved.len(), 7);
        assert_eq!(saved[6].as_deref(), Some(&[0u8; BLOCK_BYTES][..]));
        assert!(saved[..6].iter().all(Option::is_none));
    }

    #[test]
    fn f32_view_reads_in_place() {
        let (m, [a, b, _]) = three_arrays();
        assert!(m.f32_view(a, 64).iter().eq(m.read_f32(a, 64)));
        assert_eq!(m.f32_view(DevicePtr(b.0 + 4), 2).iter().collect::<Vec<_>>(), [2.0, 2.0]);
    }

    #[test]
    fn region_blocks_cover_allocation() {
        let mut m = GpuMemory::new();
        m.malloc("x", 300, true);
        assert_eq!(m.regions()[0].size, 3 * BLOCK_BYTES as u64, "300 bytes pads to 3 blocks");
        assert_eq!(m.blocks_with_addr().count(), 3);
    }

    #[test]
    fn all_blocks_counts_match() {
        let mut m = GpuMemory::new();
        m.malloc("a", 128, true);
        m.malloc("b", 384, false);
        assert_eq!(m.all_blocks().count(), 4);
    }

    #[test]
    fn blocks_with_addr_mirrors_all_blocks() {
        let mut m = GpuMemory::new();
        let a = m.malloc("a", 256, true);
        m.malloc("b", 384, false);
        m.malloc("padded", 200, true);
        m.malloc("c", 128, false);
        m.write_f32(a, &[5.5; 64]);
        let by_ref: Vec<(u64, bool, Block)> =
            m.blocks_with_addr().map(|(r, addr, b)| (addr, r.safe_to_approx, *b)).collect();
        let by_val: Vec<(bool, Block)> =
            m.all_blocks().map(|(r, b)| (r.safe_to_approx, b)).collect();
        assert_eq!(by_ref.len(), by_val.len());
        assert_eq!(by_ref.len(), m.len() / BLOCK_BYTES, "the 200 B region pads to two blocks");
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
        let p = m.malloc("x", 8, false);
        m.write_f32(p, &[0.0; 64]);
    }
}
