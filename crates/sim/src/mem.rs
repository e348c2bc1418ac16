//! Device global memory: a flat byte array with a bump allocator, plus the
//! copy-on-write page overlay through which every launch reads and writes
//! it — one per block during parallel block execution, one per launch for
//! kernels with global atomics. Functional memory only: what an access
//! costs is the cost model's business (module `cost`).

use crate::error::{FaultKind, SimError};
use gpucmp_ptx::Space;
use std::collections::{BTreeSet, HashMap};
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

/// Whether no lane of a warp access can fault: every `size`-byte access
/// in `lanes` is aligned to its size and ends at or below `limit`. This
/// holds exactly when every lane passes [`check_aligned`] and the bounds
/// check against `limit`, tested once for the whole warp.
pub(crate) fn lanes_fit(lanes: &[(u32, u64)], size: u32, limit: u64) -> bool {
    let (or, max) = lanes
        .iter()
        .fold((0, 0), |(or, max), &(_, a)| (or | a, max.max(a)));
    let size = size as u64;
    or & (size - 1) == 0 && limit.checked_sub(size).is_some_and(|last| max <= last)
}

/// Run `$body` with `$n` bound to the constant access size equal to
/// `$size` (1, 2, 4 or 8 bytes).
macro_rules! with_size {
    ($size:expr, $n:ident => $body:expr) => {
        match $size {
            1 => {
                const $n: usize = 1;
                $body
            }
            2 => {
                const $n: usize = 2;
                $body
            }
            4 => {
                const $n: usize = 4;
                $body
            }
            8 => {
                const $n: usize = 8;
                $body
            }
            s => unreachable!("unsupported access size {s}"),
        }
    };
}
pub(crate) use with_size;

/// Little-endian load of `N` bytes at `at`.
#[inline(always)]
pub(crate) fn load_le<const N: usize>(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b[..N].copy_from_slice(&buf[at..at + N]);
    u64::from_le_bytes(b)
}

/// Little-endian store of the low `N` bytes of `value` at `at`.
#[inline(always)]
pub(crate) fn store_le<const N: usize>(buf: &mut [u8], at: usize, value: u64) {
    buf[at..at + N].copy_from_slice(&value.to_le_bytes()[..N]);
}

/// Read the `size`-byte access of every lane in `lanes` from `buf` into
/// `out[tid - first]`. The caller has checked the accesses with
/// [`lanes_fit`] against `buf.len()`.
pub(crate) fn read_lanes_in(
    buf: &[u8],
    lanes: &[(u32, u64)],
    size: u32,
    first: usize,
    out: &mut [u64],
) {
    with_size!(size, N => {
        for &(tid, a) in lanes {
            out[tid as usize - first] = load_le::<N>(buf, a as usize);
        }
    })
}

/// Write `vals[tid - first]` for every lane in `lanes` into `buf`, in lane
/// order, so the highest lane wins a same-address store. The caller has
/// checked the accesses with [`lanes_fit`] against `buf.len()`.
pub(crate) fn write_lanes_in(
    buf: &mut [u8],
    lanes: &[(u32, u64)],
    size: u32,
    first: usize,
    vals: &[u64],
) {
    with_size!(size, N => {
        for &(tid, a) in lanes {
            store_le::<N>(buf, a as usize, vals[tid as usize - first]);
        }
    })
}

/// A device pointer: a byte offset into the device's global memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
    /// The [`STRAY_PAGE_BYTES`] pages written past `bump` (a tenant can
    /// store outside every allocation), by page number: with `bump`, they
    /// bound what [`GlobalMemory::reset`] must zero.
    stray_pages: BTreeSet<u64>,
}

/// Granule in which [`GlobalMemory::reset`] zeroes writes made past every
/// allocation: one host page, so a stray store keeps at most the page it
/// touched resident.
const STRAY_PAGE_BYTES: u64 = 4096;

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
            stray_pages: BTreeSet::new(),
        }
    }

    /// Return to the state of a fresh [`GlobalMemory::new`] of the same
    /// capacity, in place: every allocation is forgotten and every byte
    /// that was ever handed out or written is zeroed. It writes only
    /// `[0, bump)` and the pages written past it, so bytes nobody touched
    /// stay untouched. Nothing is reallocated.
    pub fn reset(&mut self) {
        let bump = self.bump.min(self.capacity()) as usize;
        self.data[..bump].fill(0);
        for page in std::mem::take(&mut self.stray_pages) {
            let start = (page * STRAY_PAGE_BYTES) as usize;
            let end = (start + STRAY_PAGE_BYTES as usize).min(self.data.len());
            self.data[start..end].fill(0);
        }
        self.bump = Self::ALIGN;
        self.live_bytes = 0;
        self.allocs.clear();
    }

    /// Note that `[start, end)` was written: the pages of any part past
    /// `bump` become stray pages for [`GlobalMemory::reset`].
    #[inline]
    fn wrote(&mut self, start: u64, end: u64) {
        let from = start.max(self.bump);
        if end > from {
            self.stray_pages
                .extend(from / STRAY_PAGE_BYTES..=(end - 1) / STRAY_PAGE_BYTES);
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
        Ok(with_size!(size, N => load_le::<N>(&self.data, addr as usize)))
    }

    /// [`GlobalMemory::read`] of every lane of a warp access into
    /// `out[tid - first]`, for accesses [`lanes_fit`] has checked against
    /// [`GlobalMemory::capacity`].
    pub(crate) fn read_lanes(
        &self,
        lanes: &[(u32, u64)],
        size: u32,
        first: usize,
        out: &mut [u64],
    ) {
        read_lanes_in(&self.data, lanes, size, first, out);
    }

    /// Host-to-device copy (`cudaMemcpy` / `clEnqueueWriteBuffer` backing).
    pub fn copy_in(&mut self, ptr: DevPtr, bytes: &[u8]) -> Result<(), SimError> {
        self.check(ptr.0, bytes.len() as u32)
            .map_err(SimError::from)?;
        let a = ptr.0 as usize;
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
        self.wrote(ptr.0, ptr.0 + bytes.len() as u64);
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
/// blocks are not ordered until the kernel completes. A launch with global
/// atomics instead carries one overlay across all its blocks, run in
/// order, so each block sees the earlier blocks' writes.
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
        let (buf, at) = match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => (&p.data[..], addr & PAGE_MASK),
            None => (&base.data[..], addr),
        };
        Ok(with_size!(size, N => load_le::<N>(buf, at as usize)))
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
        // Aligned, so the write lies inside one page and one dirty word.
        let p = self.page_mut(base, addr >> PAGE_SHIFT);
        let a = (addr & PAGE_MASK) as usize;
        with_size!(size, N => store_le::<N>(&mut p.data, a, value));
        p.dirty[a >> 6] |= (u64::MAX >> (64 - size)) << (a & 63);
        Ok(())
    }

    /// [`WriteOverlay::read`] of every lane of a warp access into
    /// `out[tid - first]`, for accesses [`lanes_fit`] has checked against
    /// the base capacity. A run of consecutive lanes in one page looks the
    /// page up once.
    pub(crate) fn read_lanes(
        &self,
        base: &GlobalMemory,
        lanes: &[(u32, u64)],
        size: u32,
        first: usize,
        out: &mut [u64],
    ) {
        if self.pages.is_empty() {
            return base.read_lanes(lanes, size, first, out);
        }
        with_size!(size, N => {
            let mut i = 0;
            while i < lanes.len() {
                let page = lanes[i].1 >> PAGE_SHIFT;
                // The block's copy of the page, or the snapshot itself.
                let (buf, start): (&[u8], u64) = match self.pages.get(&page) {
                    Some(p) => (&p.data, page << PAGE_SHIFT),
                    None => (&base.data, 0),
                };
                for &(tid, a) in lanes[i..].iter().take_while(|&&(_, a)| a >> PAGE_SHIFT == page) {
                    out[tid as usize - first] = load_le::<N>(buf, (a - start) as usize);
                    i += 1;
                }
            }
        })
    }

    /// [`WriteOverlay::write`] of every lane of a warp access, in lane
    /// order, for accesses [`lanes_fit`] has checked against the base
    /// capacity. A run of consecutive lanes in one page looks the page up
    /// (or copies it) once, and each lane sets its dirty bits with one
    /// mask.
    pub(crate) fn write_lanes(
        &mut self,
        base: &GlobalMemory,
        lanes: &[(u32, u64)],
        size: u32,
        first: usize,
        vals: &[u64],
    ) {
        with_size!(size, N => {
            // An aligned access lies inside one dirty word.
            let bits = u64::MAX >> (64 - N);
            let mut i = 0;
            while i < lanes.len() {
                let page = lanes[i].1 >> PAGE_SHIFT;
                let p = self.page_mut(base, page);
                for &(tid, a) in lanes[i..].iter().take_while(|&&(_, a)| a >> PAGE_SHIFT == page) {
                    let at = (a & PAGE_MASK) as usize;
                    store_le::<N>(&mut p.data, at, vals[tid as usize - first]);
                    p.dirty[at >> 6] |= bits << (at & 63);
                    i += 1;
                }
            }
        })
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
                let s = base_addr + w * 64;
                target.wrote(
                    (s + mask.trailing_zeros() as usize) as u64,
                    (s + 64 - mask.leading_zeros() as usize) as u64,
                );
                if mask == u64::MAX {
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
    use crate::cost::tests::lane_address_sets;

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
        m.copy_in(p, &[0xff; 8]).unwrap();
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
            m.copy_in(p, &value.to_le_bytes()[..size as usize]).unwrap();
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
        let e = WriteOverlay::new().write(&m, p.0 + 1, 2, 7).unwrap_err();
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
        let bytes: Vec<u8> = (0..8 * PAGE_BYTES).map(|i| i as u8).collect();
        m.copy_in(p, &bytes).unwrap();
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

    /// An overlay over `base` that, with `seeded`, already holds a copy of
    /// the page of every fifth lane of `lanes`.
    fn overlay_for(base: &GlobalMemory, lanes: &[(u32, u64)], seeded: bool) -> WriteOverlay {
        let mut o = WriteOverlay::new();
        if seeded {
            for &(tid, a) in lanes.iter().step_by(5) {
                o.write(base, a, 1, 0xa5 ^ tid as u64).unwrap();
            }
        }
        o
    }

    #[test]
    fn warp_lane_accesses_match_the_per_lane_path() {
        let (mut checked, mut with_strays) = ([0usize; 2], 0);
        for cap in [1u64 << 16, 8192] {
            let mut base = GlobalMemory::new(cap);
            let p = base.alloc(cap - GlobalMemory::ALIGN).unwrap();
            let fill: Vec<u8> = (0..cap - GlobalMemory::ALIGN)
                .map(|i| (i * 31 + 7) as u8)
                .collect();
            base.copy_in(p, &fill).unwrap();
            // Write targets whose bump sits below most lanes, so both paths
            // must record the same stray pages.
            let mut low = base.clone();
            low.bump = 4096;
            for (_, set) in lane_address_sets() {
                for size in [1u32, 2, 4, 8] {
                    for sparse in [false, true] {
                        let lanes: Vec<(u32, u64)> = set
                            .iter()
                            .copied()
                            .filter(|&(l, _)| !sparse || l % 3 != 1)
                            .collect();
                        let per_lane = lanes.iter().all(|&(_, a)| {
                            check_aligned(Space::Global, a, size).is_ok()
                                && base.check(a, size).is_ok()
                        });
                        let fits = lanes_fit(&lanes, size, cap);
                        assert_eq!(fits, per_lane, "size {size} lanes {lanes:?}");
                        checked[fits as usize] += 1;
                        if !fits {
                            continue;
                        }
                        let vals: Vec<u64> = (0..64u64)
                            .map(|l| (l + 1).wrapping_mul(0x0123_4567_89ab_cdef))
                            .collect();
                        let mut out = [0u64; 64];
                        // Through an empty or a seeded overlay.
                        for seeded in [false, true] {
                            let o = overlay_for(&base, &lanes, seeded);
                            o.read_lanes(&base, &lanes, size, 0, &mut out);
                            for &(tid, a) in &lanes {
                                assert_eq!(out[tid as usize], o.read(&base, a, size).unwrap());
                            }
                            let mut warp_o = overlay_for(&base, &lanes, seeded);
                            warp_o.write_lanes(&base, &lanes, size, 0, &vals);
                            let mut lane_o = overlay_for(&base, &lanes, seeded);
                            for &(tid, a) in &lanes {
                                lane_o.write(&base, a, size, vals[tid as usize]).unwrap();
                            }
                            let (mut warp, mut lane) = (low.clone(), low.clone());
                            assert_eq!(warp_o.commit(&mut warp), lane_o.commit(&mut lane));
                            assert_eq!(warp.data, lane.data, "size {size}");
                            assert_eq!(warp.stray_pages, lane.stray_pages);
                            with_strays += !warp.stray_pages.is_empty() as usize;
                        }
                    }
                }
            }
        }
        // Both outcomes of the warp check ran, and writes past the bump.
        assert!(checked[0] > 0 && checked[1] > 0, "{checked:?}");
        assert!(with_strays > 0);
    }

    #[test]
    fn reset_zeroes_every_write_past_the_last_allocation() {
        use crate::{launch_with, DeviceSpec, ExecOptions, ExecTier, LaunchConfig};
        use gpucmp_ptx::{Address, AtomOp, KernelBuilder, Op2, Operand, Special, Ty};
        // `p[tid + 1024] = tid + 1`, and with `atomic` also `p[tid + 2048]
        // += 1` by a global atomic, which runs the launch's blocks serially
        // through one overlay instead of one overlay per block.
        let kernel = |atomic: bool| {
            let mut b = KernelBuilder::new("poke");
            b.param("p", Ty::U64);
            let tid = b.special(Special::TidX);
            let t64 = b.cvt(Ty::U64, Ty::U32, tid);
            let off = b.bin(Op2::Shl, Ty::U64, t64, 2i32);
            let p = b.ld_param(0, Ty::U64);
            let a = b.bin(Op2::Add, Ty::U64, p, off);
            let v = b.bin(Op2::Add, Ty::U32, tid, 1i32);
            let at = |offset| Address {
                base: Operand::Reg(a),
                offset,
            };
            b.st(Space::Global, Ty::U32, at(4096), v);
            if atomic {
                b.atom(Space::Global, AtomOp::Add, Ty::U32, at(8192), 1i32);
            }
            b.finish().resolve().unwrap()
        };
        let device = DeviceSpec::gtx480();
        let mut m = GlobalMemory::new(1 << 16);
        for atomic in [false, true] {
            for tier in [ExecTier::Interp, ExecTier::Decoded] {
                let p = m.alloc(64).unwrap();
                let cfg = LaunchConfig::new(1u32, 32u32).arg_ptr(p);
                let opts = ExecOptions::serial().tier(tier);
                launch_with(&device, &kernel(atomic), &mut m, &[], &cfg, &opts).unwrap();
                assert_eq!(m.read(p.0 + 4096 + 31 * 4, 4).unwrap(), 32);
                if atomic {
                    assert_eq!(m.read(p.0 + 8192, 4).unwrap(), 1);
                }
            }
        }
        // A host copy past the last allocation.
        m.copy_in(DevPtr(40_000), &[0xff; 100]).unwrap();
        assert!(
            m.stray_pages.len() >= 2,
            "the writes lie past every allocation"
        );
        m.reset();
        assert!(m.data.iter().all(|&b| b == 0), "arena not zeroed");
        assert_eq!((m.bump, m.live_bytes), (GlobalMemory::ALIGN, 0));
        assert!(m.allocs.is_empty() && m.stray_pages.is_empty());
        assert_eq!(m.alloc(64).unwrap(), DevPtr(GlobalMemory::ALIGN));
    }

    #[test]
    fn reset_writes_only_allocations_and_the_pages_written_past_them() {
        // One store at the top of the arena must not make `reset` zero,
        // and so make resident, every page below it.
        let cap = 1u64 << 20;
        let mut m = GlobalMemory::new(cap);
        let p = m.alloc(100).unwrap();
        m.copy_in(p, &[7, 0, 0, 0]).unwrap();
        m.copy_in(DevPtr(cap - 8), &[0xff; 8]).unwrap();
        assert_eq!(m.stray_pages.len(), 1);
        // Bytes outside `[0, bump)` and the stray page, set behind the
        // API's back: `reset` must leave them as they are.
        let untouched = [m.bump, cap / 2, cap - STRAY_PAGE_BYTES - 1];
        for &at in &untouched {
            m.data[at as usize] = 0x5a;
        }
        m.reset();
        for (at, &b) in m.data.iter().enumerate() {
            let expect = if untouched.contains(&(at as u64)) {
                0x5a
            } else {
                0
            };
            assert_eq!(b, expect, "byte {at}");
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
