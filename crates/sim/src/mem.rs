//! Device global memory: a flat byte array with a bump allocator, plus the
//! copy-on-write page overlay that gives each thread block a private view
//! of global memory during parallel block execution, and the pure
//! address arithmetic of the memory cost model (coalescing segments and
//! shared-memory bank conflicts).

use crate::error::{FaultKind, SimError};
use gpucmp_ptx::Space;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Natural-alignment check for a device access: every 2/4/8-byte access
/// must be aligned to its own size, as on real GPU hardware.
#[inline]
pub(crate) fn check_aligned(space: Space, addr: u64, size: u32) -> Result<(), FaultKind> {
    debug_assert!(size.is_power_of_two(), "access size {size}");
    if addr & (size as u64 - 1) != 0 {
        Err(FaultKind::Misaligned { space, addr, size })
    } else {
        Ok(())
    }
}

/// Division and remainder by a device constant: a shift and a mask when it
/// is a power of two (segment sizes, cache lines and bank counts of every
/// preset device), a hardware divide otherwise.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Divisor {
    d: u64,
    shift: u32,
    pow2: bool,
}

impl Divisor {
    pub(crate) fn new(d: u64) -> Self {
        Divisor {
            d,
            shift: d.trailing_zeros(),
            pow2: d.is_power_of_two(),
        }
    }

    /// The divisor itself.
    #[inline]
    pub(crate) fn get(self) -> u64 {
        self.d
    }

    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        if self.pow2 {
            x >> self.shift
        } else {
            x / self.d
        }
    }

    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        if self.pow2 {
            x & (self.d - 1)
        } else {
            x % self.d
        }
    }
}

/// Collect `values` into `out` as an ascending list of distinct values.
/// O(n) when they arrive in ascending order — a warp touching
/// consecutive addresses, the common case — and a sort otherwise.
pub(crate) fn distinct_ascending(values: impl IntoIterator<Item = u64>, out: &mut Vec<u64>) {
    out.clear();
    let mut sorted = true;
    for v in values {
        if let Some(&last) = out.last() {
            if v == last {
                continue;
            }
            sorted &= v > last;
        }
        out.push(v);
    }
    if !sorted {
        out.sort_unstable();
        out.dedup();
    }
}

/// The distinct `seg`-byte segments touched by one coalesce group of
/// `size`-byte lane accesses (every byte counts, so a straddling access
/// touches two), ascending, into `out`.
pub(crate) fn coalesce_segments(lanes: &[(u32, u64)], size: u32, seg: Divisor, out: &mut Vec<u64>) {
    distinct_ascending(
        lanes
            .iter()
            .flat_map(|&(_, a)| seg.div(a)..=seg.div(a + size as u64 - 1)),
        out,
    );
}

/// Bank-conflict degree of one shared-memory banking group: the largest
/// number of distinct 4-byte words any one bank must serve. Each bank keeps
/// a chain of the distinct words it has seen, threaded through the lane
/// indices (`lane_words` holds each chained lane's word), so the cost is
/// O(lanes x degree): O(lanes) for broadcast and unit-stride access, the
/// common cases. More than 64 banks or lanes falls back to
/// [`bank_conflict_degree_sorted`] with `pairs` as scratch.
pub(crate) fn bank_conflict_degree(
    lanes: &[(u32, u64)],
    banks: Divisor,
    lane_words: &mut [u64; 64],
    pairs: &mut Vec<(u64, u64)>,
) -> u64 {
    if banks.get() <= 1 {
        return 1;
    }
    if banks.get() > 64 || lanes.len() > 64 {
        return bank_conflict_degree_sorted(lanes, banks, pairs);
    }
    const NONE: u8 = u8::MAX;
    let mut head = [NONE; 64];
    let mut next = [NONE; 64];
    let mut count = [0u8; 64];
    let mut degree = 1;
    for (k, &(_, a)) in lanes.iter().enumerate() {
        let word = a / 4;
        let bank = banks.rem(word) as usize;
        let mut j = head[bank];
        while j != NONE && lane_words[j as usize] != word {
            j = next[j as usize];
        }
        if j == NONE {
            lane_words[k] = word;
            next[k] = head[bank];
            head[bank] = k as u8;
            count[bank] += 1;
            degree = degree.max(count[bank]);
        }
    }
    degree as u64
}

/// [`bank_conflict_degree`] by sorting the (bank, word) pairs and counting
/// the longest run of one bank: the fallback, and the reference the chained
/// count is tested against.
pub(crate) fn bank_conflict_degree_sorted(
    lanes: &[(u32, u64)],
    banks: Divisor,
    pairs: &mut Vec<(u64, u64)>,
) -> u64 {
    let mut degree = 1u64;
    if banks.get() > 1 {
        pairs.clear();
        pairs.extend(lanes.iter().map(|&(_, a)| {
            let word = a / 4;
            (banks.rem(word), word)
        }));
        pairs.sort_unstable();
        pairs.dedup();
        let mut run = 0u64;
        let mut prev_bank = u64::MAX;
        for &(bank, _) in pairs.iter() {
            if bank == prev_bank {
                run += 1;
            } else {
                run = 1;
                prev_bank = bank;
            }
            degree = degree.max(run);
        }
    }
    degree
}

/// A device pointer: a byte offset into the device's global memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DevPtr(pub u64);

impl DevPtr {
    /// Null device pointer.
    pub const NULL: DevPtr = DevPtr(0);

    /// Byte offset `n` past this pointer.
    pub fn offset(self, n: u64) -> DevPtr {
        DevPtr(self.0 + n)
    }
}

/// Simulated device global memory.
///
/// Allocation is a bump allocator with 256-byte alignment (matching the
/// alignment guarantees of `cudaMalloc`/`clCreateBuffer`); `free` is a
/// no-op except for accounting, which is all the benchmarks need.
/// Address 0 is reserved so that `DevPtr::NULL` never aliases a live
/// allocation.
#[derive(Clone, Debug)]
pub struct GlobalMemory {
    data: Vec<u8>,
    bump: u64,
    live_bytes: u64,
    /// Every allocation ever made, as `(start, bytes)` in ascending start
    /// order (the bump allocator never reuses addresses). Backs the
    /// allocation-granular checks of the memcheck sanitizer and host
    /// transfer-length validation.
    allocs: Vec<(u64, u64)>,
}

impl GlobalMemory {
    /// Alignment of every allocation.
    pub const ALIGN: u64 = 256;

    /// Create a memory of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        GlobalMemory {
            data: vec![0u8; capacity as usize],
            bump: Self::ALIGN, // reserve page 0 for NULL
            live_bytes: 0,
            allocs: Vec::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes currently allocated (live).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Allocate `bytes` bytes; contents are zeroed.
    pub fn alloc(&mut self, bytes: u64) -> Result<DevPtr, SimError> {
        let start = self.bump;
        let end = start.checked_add(bytes).ok_or(SimError::OutOfMemory {
            requested: bytes,
            available: self.capacity().saturating_sub(self.bump),
        })?;
        if end > self.capacity() {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                available: self.capacity() - self.bump,
            });
        }
        self.data[start as usize..end as usize].fill(0);
        self.bump = end.next_multiple_of(Self::ALIGN);
        self.live_bytes += bytes;
        self.allocs.push((start, bytes));
        Ok(DevPtr(start))
    }

    /// The allocation containing `addr`, as `(start, bytes)`.
    pub fn alloc_containing(&self, addr: u64) -> Option<(u64, u64)> {
        let i = self.allocs.partition_point(|&(start, _)| start <= addr);
        let (start, bytes) = *self.allocs.get(i.checked_sub(1)?)?;
        (addr < start + bytes).then_some((start, bytes))
    }

    /// Allocation-granular check: the whole `size`-byte access at `addr`
    /// must lie inside a single allocation. This is the memcheck analogue
    /// of cuda-memcheck's precise OOB detection — stricter than [`check`],
    /// which only guards the device's physical capacity.
    ///
    /// [`check`]: GlobalMemory::check
    pub fn check_alloc(&self, addr: u64, size: u64) -> Result<(), FaultKind> {
        if let Some((start, bytes)) = self.alloc_containing(addr) {
            if addr
                .checked_add(size)
                .is_some_and(|end| end <= start + bytes)
            {
                return Ok(());
            }
        }
        // The limit reported is the end of the nearest allocation at or
        // below `addr` (the "N bytes past the end of allocation X"
        // diagnostic), or 0 when the address precedes every allocation.
        let i = self.allocs.partition_point(|&(start, _)| start <= addr);
        let limit = i
            .checked_sub(1)
            .and_then(|i| self.allocs.get(i))
            .map_or(0, |&(start, bytes)| start + bytes);
        Err(FaultKind::OutOfBounds {
            space: Space::Global,
            addr,
            size: size.min(u32::MAX as u64) as u32,
            limit,
        })
    }

    /// Release an allocation (accounting only; the bump pointer does not
    /// move backwards).
    pub fn free(&mut self, _ptr: DevPtr, bytes: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Bounds-check an access of `size` bytes at `addr`.
    #[inline]
    pub fn check(&self, addr: u64, size: u32) -> Result<(), FaultKind> {
        if addr
            .checked_add(size as u64)
            .is_none_or(|end| end > self.capacity())
        {
            Err(FaultKind::OutOfBounds {
                space: Space::Global,
                addr,
                size,
                limit: self.capacity(),
            })
        } else {
            Ok(())
        }
    }

    /// Read `size` (1/2/4/8) bytes little-endian into a u64.
    #[inline]
    pub fn read(&self, addr: u64, size: u32) -> Result<u64, FaultKind> {
        check_aligned(Space::Global, addr, size)?;
        self.check(addr, size)?;
        let a = addr as usize;
        Ok(match size {
            1 => self.data[a] as u64,
            2 => u16::from_le_bytes(self.data[a..a + 2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(self.data[a..a + 4].try_into().unwrap()) as u64,
            8 => u64::from_le_bytes(self.data[a..a + 8].try_into().unwrap()),
            _ => unreachable!("unsupported access size {size}"),
        })
    }

    /// Write the low `size` (1/2/4/8) bytes of `value` little-endian.
    #[inline]
    pub fn write(&mut self, addr: u64, size: u32, value: u64) -> Result<(), FaultKind> {
        check_aligned(Space::Global, addr, size)?;
        self.check(addr, size)?;
        let a = addr as usize;
        match size {
            1 => self.data[a] = value as u8,
            2 => self.data[a..a + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => self.data[a..a + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            8 => self.data[a..a + 8].copy_from_slice(&value.to_le_bytes()),
            _ => unreachable!("unsupported access size {size}"),
        }
        Ok(())
    }

    /// Host-to-device copy (`cudaMemcpy` / `clEnqueueWriteBuffer` backing).
    pub fn copy_in(&mut self, ptr: DevPtr, bytes: &[u8]) -> Result<(), SimError> {
        self.check(ptr.0, bytes.len() as u32)
            .map_err(SimError::from)?;
        let a = ptr.0 as usize;
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Device-to-host copy.
    pub fn copy_out(&self, ptr: DevPtr, bytes: &mut [u8]) -> Result<(), SimError> {
        self.check(ptr.0, bytes.len() as u32)
            .map_err(SimError::from)?;
        let a = ptr.0 as usize;
        bytes.copy_from_slice(&self.data[a..a + bytes.len()]);
        Ok(())
    }

    /// Typed helper: write a `&[f32]` slice at `ptr`.
    pub fn write_f32_slice(&mut self, ptr: DevPtr, values: &[f32]) -> Result<(), SimError> {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.copy_in(ptr, &bytes)
    }

    /// Typed helper: read `len` f32 values at `ptr`.
    pub fn read_f32_slice(&self, ptr: DevPtr, len: usize) -> Result<Vec<f32>, SimError> {
        let mut bytes = vec![0u8; len * 4];
        self.copy_out(ptr, &mut bytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Typed helper: write a `&[i32]` slice at `ptr`.
    pub fn write_i32_slice(&mut self, ptr: DevPtr, values: &[i32]) -> Result<(), SimError> {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.copy_in(ptr, &bytes)
    }

    /// Typed helper: read `len` i32 values at `ptr`.
    pub fn read_i32_slice(&self, ptr: DevPtr, len: usize) -> Result<Vec<i32>, SimError> {
        let mut bytes = vec![0u8; len * 4];
        self.copy_out(ptr, &mut bytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Typed helper: write a `&[u32]` slice at `ptr`.
    pub fn write_u32_slice(&mut self, ptr: DevPtr, values: &[u32]) -> Result<(), SimError> {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.copy_in(ptr, &bytes)
    }

    /// Typed helper: read `len` u32 values at `ptr`.
    pub fn read_u32_slice(&self, ptr: DevPtr, len: usize) -> Result<Vec<u32>, SimError> {
        let mut bytes = vec![0u8; len * 4];
        self.copy_out(ptr, &mut bytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Bytes per overlay page: one GTX480 L1 line. Pages this small make an
/// overlay's memory scale with the bytes a block writes rather than with
/// the pages it touches — a 16x16 tile writer copies 16 lines, not 16
/// 4 KiB pages.
const PAGE_BYTES: usize = 128;
const PAGE_SHIFT: u32 = PAGE_BYTES.trailing_zeros();
const PAGE_MASK: u64 = PAGE_BYTES as u64 - 1;
const DIRTY_WORDS: usize = PAGE_BYTES / 64;

/// One copy-on-write page, stored inline in the overlay's map: a snapshot
/// copy of the base page plus a byte dirty bitmap recording exactly which
/// bytes the owning block wrote.
struct OverlayPage {
    data: [u8; PAGE_BYTES],
    dirty: [u64; DIRTY_WORDS],
}

/// Hasher for overlay page numbers: one multiply. Once a block has
/// written, each lane of its global loads and stores hashes a page number,
/// and SipHash made that a third of their cost. The keys are addresses the
/// simulated kernel computes, so a colliding pattern can slow only its own
/// launch. The rotate moves the well-mixed high half of the product into
/// the low bits that pick a bucket, so power-of-two page strides (the rows
/// of a transpose tile) still spread.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
}

/// A per-block write overlay over a read-only [`GlobalMemory`] snapshot.
///
/// During parallel block execution every block reads the launch-entry
/// global memory through its overlay and writes only into the overlay;
/// after all blocks join, overlays are committed in ascending block index
/// order, which makes the final memory image a pure function of the launch
/// inputs — identical for serial and parallel execution. A block sees its
/// own writes (copied pages carry them) but never another block's, which
/// matches the CUDA/OpenCL memory model: global writes of concurrent
/// blocks are not ordered until the kernel completes.
#[derive(Default)]
pub struct WriteOverlay {
    pages: HashMap<u64, OverlayPage, BuildHasherDefault<PageHasher>>,
}

impl WriteOverlay {
    /// An empty overlay.
    pub fn new() -> Self {
        WriteOverlay::default()
    }

    /// Number of copied (written-to) pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Read `size` (1/2/4/8) bytes little-endian through the overlay.
    /// An aligned access never crosses a page, so it reads one page: the
    /// block's copy if it wrote there, the base snapshot otherwise.
    #[inline]
    pub fn read(&self, base: &GlobalMemory, addr: u64, size: u32) -> Result<u64, FaultKind> {
        if self.pages.is_empty() {
            return base.read(addr, size);
        }
        check_aligned(Space::Global, addr, size)?;
        base.check(addr, size)?;
        let a = (addr & PAGE_MASK) as usize;
        let buf: &[u8] = match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => &p.data[..],
            None => {
                let b = (addr as usize) & !(PAGE_BYTES - 1);
                &base.data[b..(b + PAGE_BYTES).min(base.data.len())]
            }
        };
        Ok(match size {
            1 => buf[a] as u64,
            2 => u16::from_le_bytes(buf[a..a + 2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(buf[a..a + 4].try_into().unwrap()) as u64,
            8 => u64::from_le_bytes(buf[a..a + 8].try_into().unwrap()),
            _ => unreachable!("unsupported access size {size}"),
        })
    }

    fn page_mut(&mut self, base: &GlobalMemory, page: u64) -> &mut OverlayPage {
        self.pages.entry(page).or_insert_with(|| {
            let start = (page << PAGE_SHIFT) as usize;
            let end = (start + PAGE_BYTES).min(base.data.len());
            let mut data = [0u8; PAGE_BYTES];
            data[..end - start].copy_from_slice(&base.data[start..end]);
            OverlayPage {
                data,
                dirty: [0u64; DIRTY_WORDS],
            }
        })
    }

    /// Write the low `size` (1/2/4/8) bytes of `value` little-endian into
    /// the overlay (bounds-checked against the base capacity).
    #[inline]
    pub fn write(
        &mut self,
        base: &GlobalMemory,
        addr: u64,
        size: u32,
        value: u64,
    ) -> Result<(), FaultKind> {
        check_aligned(Space::Global, addr, size)?;
        base.check(addr, size)?;
        // Aligned, so the write lies inside one page.
        let p = self.page_mut(base, addr >> PAGE_SHIFT);
        let a = (addr & PAGE_MASK) as usize;
        let n = size as usize;
        p.data[a..a + n].copy_from_slice(&value.to_le_bytes()[..n]);
        for i in a..a + n {
            p.dirty[i >> 6] |= 1u64 << (i & 63);
        }
        Ok(())
    }

    /// Commit every dirty byte into `target`, in ascending page order, and
    /// return the number of bytes written. Committing overlays in ascending
    /// block index order reproduces the write-after-write resolution of
    /// serial block execution (the highest-index writer wins).
    pub fn commit(self, target: &mut GlobalMemory) -> u64 {
        let mut pages: Vec<(u64, OverlayPage)> = self.pages.into_iter().collect();
        pages.sort_unstable_by_key(|(p, _)| *p);
        let mut written = 0u64;
        for (page, op) in pages {
            let base_addr = (page << PAGE_SHIFT) as usize;
            for (w, &mask) in op.dirty.iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                if mask == u64::MAX {
                    let s = base_addr + w * 64;
                    target.data[s..s + 64].copy_from_slice(&op.data[w * 64..w * 64 + 64]);
                    written += 64;
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let bit = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let off = w * 64 + bit;
                        target.data[base_addr + off] = op.data[off];
                        written += 1;
                    }
                }
            }
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_nonnull() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(10).unwrap();
        let b = m.alloc(10).unwrap();
        assert_ne!(a, DevPtr::NULL);
        assert_eq!(a.0 % GlobalMemory::ALIGN, 0);
        assert_eq!(b.0 % GlobalMemory::ALIGN, 0);
        assert!(b.0 >= a.0 + 10);
        assert_eq!(m.live_bytes(), 20);
        m.free(a, 10);
        assert_eq!(m.live_bytes(), 10);
    }

    #[test]
    fn alloc_zeroes_memory() {
        let mut m = GlobalMemory::new(1 << 12);
        let p = m.alloc(8).unwrap();
        m.write(p.0, 8, u64::MAX).unwrap();
        // bump allocator never reuses, but contents must still be zeroed on
        // fresh allocations
        let q = m.alloc(8).unwrap();
        assert_eq!(m.read(q.0, 8).unwrap(), 0);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut m = GlobalMemory::new(1024);
        let e = m.alloc(4096).unwrap_err();
        assert!(matches!(e, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn read_write_round_trip_all_sizes() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64).unwrap();
        for (size, value) in [
            (1u32, 0xAAu64),
            (2, 0xBBCC),
            (4, 0xDEADBEEF),
            (8, 0x0123456789ABCDEF),
        ] {
            m.write(p.0, size, value).unwrap();
            assert_eq!(m.read(p.0, size).unwrap(), value);
        }
    }

    #[test]
    fn bounds_checked() {
        let m = GlobalMemory::new(64);
        assert!(m.read(60, 8).is_err());
        assert!(m.read(64, 1).is_err());
        assert!(m.read(u64::MAX, 8).is_err());
        assert!(m.read(56, 8).is_ok());
    }

    #[test]
    fn misaligned_access_trapped() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64).unwrap();
        let e = m.read(p.0 + 2, 4).unwrap_err();
        assert!(matches!(e, FaultKind::Misaligned { size: 4, .. }));
        let e = m.write(p.0 + 1, 2, 7).unwrap_err();
        assert!(matches!(e, FaultKind::Misaligned { size: 2, .. }));
        // byte accesses are always aligned
        assert!(m.read(p.0 + 3, 1).is_ok());
    }

    #[test]
    fn alloc_granular_checks() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(m.alloc_containing(a.0 + 50), Some((a.0, 100)));
        assert_eq!(m.alloc_containing(b.0), Some((b.0, 100)));
        // padding between allocations belongs to no allocation
        assert_eq!(m.alloc_containing(a.0 + 100), None);
        assert_eq!(m.alloc_containing(0), None);
        assert!(m.check_alloc(a.0, 100).is_ok());
        assert!(m.check_alloc(a.0 + 96, 4).is_ok());
        // crossing the end of the allocation is OOB even though the device
        // capacity check would pass
        let e = m.check_alloc(a.0 + 96, 8).unwrap_err();
        assert!(matches!(e, FaultKind::OutOfBounds { .. }));
        assert!(m.check_alloc(a.0 + 100, 1).is_err());
    }

    #[test]
    fn typed_slices_round_trip() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64).unwrap();
        m.write_f32_slice(p, &[1.5, -2.5, 3.25]).unwrap();
        assert_eq!(m.read_f32_slice(p, 3).unwrap(), vec![1.5, -2.5, 3.25]);
        m.write_i32_slice(p, &[-7, 8]).unwrap();
        assert_eq!(m.read_i32_slice(p, 2).unwrap(), vec![-7, 8]);
        m.write_u32_slice(p, &[0xffff_ffff]).unwrap();
        assert_eq!(m.read_u32_slice(p, 1).unwrap(), vec![0xffff_ffff]);
    }

    /// A memory with one allocation spanning several overlay pages, and
    /// the address of a page boundary inside it.
    fn paged_memory() -> (GlobalMemory, u64) {
        let mut m = GlobalMemory::new(1 << 16);
        let p = m.alloc(8 * PAGE_BYTES as u64).unwrap();
        for i in 0..8 * PAGE_BYTES as u64 {
            m.write(p.0 + i, 1, i & 0xff).unwrap();
        }
        (m, (p.0 + 4 * PAGE_BYTES as u64) & !PAGE_MASK)
    }

    #[test]
    fn overlay_writes_meet_at_a_page_boundary() {
        let (base, edge) = paged_memory();
        let mut o = WriteOverlay::new();
        // Multi-byte writes on both sides of the boundary, touching it.
        o.write(&base, edge - 8, 8, 0x1122_3344_5566_7788).unwrap();
        o.write(&base, edge, 4, 0xaabb_ccdd).unwrap();
        o.write(&base, edge + 4, 2, 0xeeff).unwrap();
        assert_eq!(o.page_count(), 2);
        assert_eq!(o.read(&base, edge - 8, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(
            o.read(&base, edge, 8).unwrap() & 0xffff_ffff_ffff,
            0xeeff_aabb_ccdd
        );
        // A read across the boundary is misaligned, never a torn read.
        assert!(matches!(
            o.read(&base, edge - 2, 4),
            Err(FaultKind::Misaligned { .. })
        ));
        assert!(o.write(&base, edge - 4, 8, 0).is_err());
        assert_eq!(o.page_count(), 2, "a faulting write copies nothing");
        // Unwritten bytes of a copied page still read the snapshot.
        let untouched = edge + 6;
        assert_eq!(
            o.read(&base, untouched, 1).unwrap(),
            base.read(untouched, 1).unwrap()
        );
        let mut target = base.clone();
        assert_eq!(o.commit(&mut target), 14);
        assert_eq!(target.read(edge - 8, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(target.read(edge, 4).unwrap(), 0xaabb_ccdd);
        assert_eq!(target.read(edge + 4, 2).unwrap(), 0xeeff);
        assert_eq!(
            target.read(untouched, 2).unwrap(),
            base.read(untouched, 2).unwrap()
        );
    }

    #[test]
    fn highest_index_writer_wins_across_a_page_boundary() {
        let (base, edge) = paged_memory();
        // Block 0 writes 32 bytes straddling the boundary; block 1 writes
        // the middle 16 of them plus bytes block 0 never touched.
        let mut b0 = WriteOverlay::new();
        for a in (edge - 16..edge + 16).step_by(8) {
            b0.write(&base, a, 8, 0x0000_0000_0000_0000).unwrap();
        }
        let mut b1 = WriteOverlay::new();
        for a in (edge - 8..edge + 24).step_by(4) {
            b1.write(&base, a, 4, 0x1111_1111).unwrap();
        }
        let mut target = base.clone();
        b0.commit(&mut target);
        b1.commit(&mut target);
        for a in edge - 16..edge + 24 {
            let want = if a < edge - 8 { 0x00 } else { 0x11 };
            assert_eq!(target.read(a, 1).unwrap(), want, "byte {a:#x}");
        }
        assert_eq!(
            target.read(edge + 24, 1).unwrap(),
            base.read(edge + 24, 1).unwrap()
        );
    }

    /// A tiny deterministic generator for the cost-model property tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }
    }

    /// Lane-address sets a warp produces: broadcast, strides of 1, 2 and 32
    /// words (forwards and backwards), straddling accesses, and random
    /// scatters, for groups of 16, 32 and 64 lanes.
    fn lane_address_sets() -> Vec<(u32, Vec<(u32, u64)>)> {
        let mut rng = Lcg(0x5eed);
        let mut sets = Vec::new();
        for lanes in [16u64, 32, 64] {
            for size in [1u32, 2, 4, 8] {
                let base = 4096 + rng.next() % 512 * size as u64;
                let mut push = |f: &dyn Fn(u64) -> u64| {
                    sets.push((size, (0..lanes).map(|l| (l as u32, f(l))).collect()));
                };
                push(&|_| base);
                for stride_words in [1u64, 2, 32] {
                    push(&|l| base + l * stride_words * 4);
                    push(&|l| base + (lanes - 1 - l) * stride_words * 4);
                }
                // Unaligned starts straddle segment boundaries.
                push(&|l| base + 61 + l * 3 * size as u64);
                push(&|l| base + 127 + l * 64);
                let scatter: Vec<u64> = (0..lanes).map(|_| rng.next() % 8192).collect();
                push(&|l| scatter[l as usize]);
                let few: Vec<u64> = (0..lanes).map(|_| base + rng.next() % 4 * 4).collect();
                push(&|l| few[l as usize]);
            }
        }
        sets
    }

    /// [`coalesce_segments`] by collecting every segment and sorting: the
    /// reference the ascending pass is tested against.
    fn coalesce_segments_sorted(lanes: &[(u32, u64)], size: u32, seg: Divisor) -> Vec<u64> {
        let mut out = Vec::new();
        for &(_, a) in lanes {
            out.extend(seg.div(a)..=seg.div(a + size as u64 - 1));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn fast_coalescing_matches_the_sorted_count() {
        for seg in [32u64, 64, 128, 96] {
            let seg = Divisor::new(seg);
            for (size, lanes) in lane_address_sets() {
                let mut fast = Vec::new();
                coalesce_segments(&lanes, size, seg, &mut fast);
                assert_eq!(
                    fast,
                    coalesce_segments_sorted(&lanes, size, seg),
                    "seg {} size {size} lanes {lanes:?}",
                    seg.get()
                );
            }
        }
    }

    #[test]
    fn chained_bank_degree_matches_the_sorted_degree() {
        let mut words = [0u64; 64];
        let mut pairs = Vec::new();
        let mut seen_degrees = std::collections::BTreeSet::new();
        for banks in [1u64, 16, 32, 64, 24, 128] {
            let banks = Divisor::new(banks);
            for (_, lanes) in lane_address_sets() {
                let fast = bank_conflict_degree(&lanes, banks, &mut words, &mut pairs);
                let sorted = bank_conflict_degree_sorted(&lanes, banks, &mut pairs);
                assert_eq!(fast, sorted, "banks {} lanes {lanes:?}", banks.get());
                seen_degrees.insert(fast);
            }
        }
        // Conflict-free and conflicting groups, and the sorting fallback
        // (128 banks), all ran.
        assert!(seen_degrees.contains(&1) && seen_degrees.len() > 3);
    }

    #[test]
    fn divisor_matches_hardware_division() {
        for d in [1u64, 2, 4, 32, 64, 128, 3, 6, 96] {
            let div = Divisor::new(d);
            for x in [0u64, 1, 31, 32, 33, 127, 128, 1 << 40, u64::MAX] {
                assert_eq!(div.div(x), x / d);
                assert_eq!(div.rem(x), x % d);
            }
        }
    }

    #[test]
    fn strided_writer_copies_only_the_lines_it_writes() {
        // 16 rows of 64 bytes at a 4 KiB pitch, like one tile of a
        // transpose: the overlay holds one line per row, not one 4 KiB
        // page per row.
        let mut base = GlobalMemory::new(1 << 20);
        let p = base.alloc(16 * 4096).unwrap();
        let mut o = WriteOverlay::new();
        for row in 0..16u64 {
            for col in (0..64u64).step_by(4) {
                o.write(&base, p.0 + row * 4096 + col, 4, row).unwrap();
            }
        }
        assert!(o.page_count() <= 16, "{} pages", o.page_count());
        assert!(o.page_count() * PAGE_BYTES <= 2 * 16 * 64);
        assert_eq!(o.commit(&mut base), 16 * 64);
    }
}
