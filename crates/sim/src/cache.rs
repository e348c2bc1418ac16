//! Set-associative LRU cache model.
//!
//! Used for the Fermi L1/L2 hierarchy, the texture caches, and the constant
//! caches. Only hit/miss behaviour is modelled (no data is stored — the
//! functional data path always reads [`crate::mem::GlobalMemory`] directly);
//! the hit/miss stream is what the timing model consumes.

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheAccess {
    /// Line was present.
    Hit,
    /// Line was filled (evicting an LRU victim if the set was full).
    Miss,
}

/// A set-associative LRU cache (tag store only).
#[derive(Clone, Debug)]
pub struct Cache {
    /// Line size in bytes (power of two).
    line: u64,
    /// `log2(line)`: line addresses are a shift, not a divide.
    line_shift: u32,
    /// Number of sets (power of two).
    sets: u64,
    /// Ways per set.
    assoc: usize,
    /// `tags[set * assoc + way]`; `u64::MAX` = invalid. Most recently used
    /// first within each set (simple move-to-front LRU).
    tags: Vec<u64>,
}

impl Cache {
    /// Build a cache of `size` bytes with `line`-byte lines, `assoc` ways.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero size/line/assoc, or size
    /// not divisible into at least one set).
    pub fn new(size: u64, line: u64, assoc: u32) -> Self {
        assert!(
            size > 0 && line > 0 && assoc > 0,
            "degenerate cache geometry"
        );
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let lines = (size / line).max(1);
        let assoc = (assoc as u64).min(lines) as usize;
        let sets = (lines / assoc as u64).max(1).next_power_of_two();
        Cache {
            line,
            line_shift: line.trailing_zeros(),
            sets,
            assoc,
            tags: vec![u64::MAX; (sets as usize) * assoc],
        }
    }

    /// Build from a [`crate::device::CacheGeom`].
    pub fn from_geom(g: crate::device::CacheGeom) -> Self {
        Cache::new(g.size as u64, g.line as u64, g.assoc)
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line
    }

    /// Probe + fill for the line containing `addr`.
    pub fn access(&mut self, addr: u64) -> CacheAccess {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & (self.sets - 1)) as usize;
        let base = set * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == line_addr) {
            // move-to-front
            ways[..=pos].rotate_right(1);
            CacheAccess::Hit
        } else {
            ways.rotate_right(1);
            ways[0] = line_addr;
            CacheAccess::Miss
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Access every address in order and count the (hits, misses).
    fn count(c: &mut Cache, addrs: impl IntoIterator<Item = u64>) -> (u64, u64) {
        addrs
            .into_iter()
            .fold((0, 0), |(h, m), a| match c.access(a) {
                CacheAccess::Hit => (h + 1, m),
                CacheAccess::Miss => (h, m + 1),
            })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 64, 4);
        assert_eq!(c.access(0), CacheAccess::Miss);
        assert_eq!(c.access(4), CacheAccess::Hit); // same line
        assert_eq!(c.access(63), CacheAccess::Hit);
        assert_eq!(c.access(64), CacheAccess::Miss); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, line 64, 2 sets (256 bytes total).
        let mut c = Cache::new(256, 64, 2);
        // Set 0 holds lines with (line_addr % 2 == 0): addresses 0, 128, 256...
        assert_eq!(c.access(0), CacheAccess::Miss);
        assert_eq!(c.access(128), CacheAccess::Miss);
        assert_eq!(c.access(0), CacheAccess::Hit); // 0 now MRU
        assert_eq!(c.access(256), CacheAccess::Miss); // evicts 128
        assert_eq!(c.access(0), CacheAccess::Hit);
        assert_eq!(c.access(128), CacheAccess::Miss); // was evicted
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(1024, 64, 4); // 16 lines
                                             // Stream over 64 lines twice: the second pass still misses (LRU thrash).
        let pass = (0..64u64).map(|i| i * 64);
        assert_eq!(count(&mut c, pass.clone().chain(pass)), (0, 128));
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = Cache::new(8 * 1024, 64, 8);
        let passes = (0..10).flat_map(|_| (0..16u64).map(|i| i * 64));
        assert_eq!(count(&mut c, passes), (16 * 9, 16));
    }

    #[test]
    fn odd_geometry_does_not_panic() {
        // size not a power of two multiple: sets round to a power of two.
        let mut c = Cache::new(12 * 1024, 32, 8);
        assert_eq!(count(&mut c, (0..1000u64).map(|i| i * 32)), (0, 1000));
    }
}
