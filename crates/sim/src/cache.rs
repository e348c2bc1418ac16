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
    hits: u64,
    misses: u64,
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
            hits: 0,
            misses: 0,
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
            self.hits += 1;
            CacheAccess::Hit
        } else {
            ways.rotate_right(1);
            ways[0] = line_addr;
            self.misses += 1;
            CacheAccess::Miss
        }
    }

    /// Hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invalidate all lines (e.g. between kernel launches for non-coherent
    /// texture caches).
    pub fn invalidate(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 64, 4);
        assert_eq!(c.access(0), CacheAccess::Miss);
        assert_eq!(c.access(4), CacheAccess::Hit); // same line
        assert_eq!(c.access(63), CacheAccess::Hit);
        assert_eq!(c.access(64), CacheAccess::Miss); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
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
                                             // stream over 64 lines twice: second pass still misses (LRU thrash)
        for _pass in 0..2 {
            for i in 0..64u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.misses(), 128);
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = Cache::new(8 * 1024, 64, 8);
        for _pass in 0..10 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.misses(), 16);
        assert_eq!(c.hits(), 16 * 9);
    }

    #[test]
    fn invalidate_clears_lines() {
        let mut c = Cache::new(1024, 64, 4);
        c.access(0);
        c.invalidate();
        assert_eq!(c.access(0), CacheAccess::Miss);
    }

    #[test]
    fn odd_geometry_does_not_panic() {
        // size not a power of two multiple: sets round to a power of two.
        let mut c = Cache::new(12 * 1024, 32, 8);
        for i in 0..1000u64 {
            c.access(i * 32);
        }
        assert_eq!(c.hits() + c.misses(), 1000);
    }
}
