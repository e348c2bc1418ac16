//! The memory cost model: what each warp memory access costs.
//!
//! [`MemModel::access`] takes the lane addresses of one warp access and
//! charges its counters: coalescing into segments and the L1 for global
//! and local accesses, bank conflicts for shared memory, the constant and
//! texture caches, atomics, and DRAM traffic per partition. It is the only
//! place a memory counter of [`ExecStats`] is incremented. The model holds
//! per-block state only — the L1, texture and constant caches, which every
//! block starts cold — and records its L2-bound transactions as
//! [`L2Event`]s. The launch replays them through the device-wide L2 in
//! ascending block order ([`replay_l2`]), so every count equals serial
//! execution's at any host thread count. Every counter is a commutative
//! sum, so per-block accounting merges exactly.

use crate::cache::{Cache, CacheAccess};
use crate::device::DeviceSpec;
use crate::stats::ExecStats;
use gpucmp_ptx::Space;

/// Division and remainder by a device constant: a shift and a mask when it
/// is a power of two (segment sizes, cache lines and bank counts of every
/// preset device), a hardware divide otherwise.
#[derive(Clone, Copy, Debug)]
struct Divisor {
    d: u64,
    shift: u32,
    pow2: bool,
}

impl Divisor {
    fn new(d: u64) -> Self {
        Divisor {
            d,
            shift: d.trailing_zeros(),
            pow2: d.is_power_of_two(),
        }
    }

    /// The divisor itself.
    #[inline]
    fn get(self) -> u64 {
        self.d
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        if self.pow2 {
            x >> self.shift
        } else {
            x / self.d
        }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
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
fn distinct_ascending(values: impl IntoIterator<Item = u64>, out: &mut Vec<u64>) {
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
fn coalesce_segments(lanes: &[(u32, u64)], size: u32, seg: Divisor, out: &mut Vec<u64>) {
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
fn bank_conflict_degree(
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
fn bank_conflict_degree_sorted(
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

/// Account DRAM traffic, including the per-partition striping that
/// produces GT200's partition-camping behaviour.
fn dram_traffic(device: &DeviceSpec, stats: &mut ExecStats, addr: u64, bytes: u64, is_store: bool) {
    if is_store {
        stats.dram_write_bytes += bytes;
    } else {
        stats.dram_read_bytes += bytes;
    }
    // At most `MAX_DRAM_PARTITIONS`, which every launch validates.
    let parts = device.dram_partitions.max(1) as u64;
    let stripe = addr / 256;
    // Local (spill) space lives in the reserved high range; hardware
    // interleaves it per-lane, which spreads partitions like a hash.
    let p = if device.partition_hashed || addr >= (1u64 << 40) {
        // Fermi-style address hash spreads any pattern evenly.
        (stripe.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % parts
    } else {
        stripe % parts
    };
    stats.partition_bytes[p as usize] += bytes;
}

/// One L2-bound memory transaction, recorded during block execution and
/// replayed through the device-wide L2 at merge time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct L2Event {
    addr: u64,
    bytes: u64,
    store: bool,
}

/// Replay one run of blocks' recorded L2-bound traffic through the
/// device-wide L2 — the only place the L2 changes state. Replaying in
/// ascending block order reproduces exactly the L2 state evolution (hits,
/// misses, DRAM traffic) of serial block execution.
pub(crate) fn replay_l2(
    device: &DeviceSpec,
    l2: &mut Cache,
    stats: &mut ExecStats,
    events: &[L2Event],
) {
    for e in events {
        stats.l2_touched_bytes += e.bytes;
        match l2.access(e.addr) {
            CacheAccess::Hit => stats.l2_hits += 1,
            CacheAccess::Miss => {
                stats.l2_misses += 1;
                dram_traffic(device, stats, e.addr, e.bytes, e.store);
            }
        }
    }
}

/// What a warp memory instruction does, as far as its cost goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Load,
    Store,
    /// A texture fetch (global memory through the texture cache).
    Tex,
    /// A read-modify-write: one serialised transaction per lane.
    Atom,
}

/// The memory cost model of one block interpreter, driven by
/// [`DeviceSpec`] data.
pub(crate) struct MemModel<'a> {
    device: &'a DeviceSpec,
    /// The device's coalescing segment (`segment_bytes`, at least 32).
    seg: Divisor,
    /// The device's shared-memory bank count (at least 1).
    banks: Divisor,
    /// Texture fetch granularity: the texture cache line, or the segment on
    /// devices without one.
    tex_line: Divisor,
    /// Constant fetch granularity: the constant cache line, or 64 bytes.
    const_line: Divisor,
    l1: Option<Cache>,
    texc: Option<Cache>,
    constc: Option<Cache>,
    /// Threads per block (at least 1): the stride of one local slot.
    block_threads: u64,
    /// One block's synthetic local-memory span, a whole number of segments.
    local_span: u64,
    /// Synthetic address of the current block's local memory.
    local_base: u64,
    /// L2-bound transactions since the last [`MemModel::take_events`].
    events: Vec<L2Event>,
    /// Scratch: distinct memory segments of one coalesce group.
    seg_scratch: Vec<u64>,
    /// Scratch: (bank, word) pairs of one shared-memory banking group.
    word_scratch: Vec<(u64, u64)>,
    /// Scratch: the words of one banking group's lanes.
    lane_words: [u64; 64],
    /// Scratch: distinct constant-space addresses of one warp access.
    addr_scratch: Vec<u64>,
    /// Scratch: distinct cache lines of one warp access.
    line_scratch: Vec<u64>,
}

impl<'a> MemModel<'a> {
    /// The model for blocks of `block_threads` threads of a kernel with
    /// `local_bytes` of local memory per thread.
    pub(crate) fn new(device: &'a DeviceSpec, local_bytes: u32, block_threads: u64) -> Self {
        let line_of = |g: Option<crate::device::CacheGeom>, default: u64| {
            Divisor::new(g.map_or(default, |g| Cache::from_geom(g).line_bytes()))
        };
        let seg = Divisor::new(device.segment_bytes.max(32) as u64);
        let block_threads = block_threads.max(1);
        MemModel {
            device,
            seg,
            banks: Divisor::new(device.shared_banks.max(1) as u64),
            tex_line: line_of(device.tex_cache, device.segment_bytes as u64),
            const_line: line_of(device.const_cache, 64),
            l1: None,
            texc: None,
            constc: None,
            block_threads,
            local_span: ((local_bytes as u64 + 8) * block_threads).next_multiple_of(seg.get()),
            local_base: 0,
            events: Vec::new(),
            seg_scratch: Vec::new(),
            word_scratch: Vec::new(),
            lane_words: [0; 64],
            addr_scratch: Vec::new(),
            line_scratch: Vec::new(),
        }
    }

    /// Begin the block with linear grid index `linear`: cold L1, texture
    /// and constant caches (blocks land on arbitrary CUs; the conservative
    /// model gives each block cold private caches) and the block's local
    /// span.
    pub(crate) fn start_block(&mut self, linear: u64) {
        self.l1 = self.device.l1.map(Cache::from_geom);
        self.texc = self.device.tex_cache.map(Cache::from_geom);
        self.constc = self.device.const_cache.map(Cache::from_geom);
        self.local_base = (1u64 << 40) + linear * self.local_span;
    }

    /// The L2-bound transactions recorded since the last call, in order.
    pub(crate) fn take_events(&mut self) -> Vec<L2Event> {
        std::mem::take(&mut self.events)
    }

    /// Charge one warp access of `size`-byte lanes at the (lane, address)
    /// pairs `lanes`, in lane order, to `stats`. For a texture fetch the
    /// addresses are the in-range texels and `space` is ignored.
    pub(crate) fn access(
        &mut self,
        space: Space,
        kind: AccessKind,
        size: u32,
        lanes: &[(u32, u64)],
        stats: &mut ExecStats,
    ) {
        let is_store = kind == AccessKind::Store;
        match (kind, space) {
            (AccessKind::Tex, _) => {
                // Distinct lines through the texture cache; misses go to L2
                // (Fermi) or DRAM (GT200/Cypress).
                let line = self.tex_line;
                distinct_ascending(
                    lanes.iter().map(|&(_, a)| line.div(a)),
                    &mut self.line_scratch,
                );
                for i in 0..self.line_scratch.len() {
                    let l = self.line_scratch[i] * line.get();
                    match &mut self.texc {
                        Some(c) => match c.access(l) {
                            CacheAccess::Hit => stats.tex_hits += 1,
                            CacheAccess::Miss => {
                                stats.tex_misses += 1;
                                self.fill_from_l2_or_dram(l, line.get(), false, stats);
                            }
                        },
                        None => {
                            // No texture cache on this device: straight to
                            // DRAM. Per-line fetches are their own coalesced
                            // floor.
                            stats.tex_misses += 1;
                            stats.gmem_transactions += 1;
                            stats.gmem_ideal_transactions += 1;
                            dram_traffic(self.device, stats, l, line.get(), false);
                        }
                    }
                }
            }
            (AccessKind::Atom, _) => {
                // Atomics serialise per lane: one transaction per lane.
                let n = lanes.len() as u64;
                stats.atomics += n;
                if space == Space::Global {
                    stats.gmem_transactions += n;
                    // Atomics serialise by definition; their per-lane
                    // transactions are their own floor, so they don't skew
                    // coalescing metrics.
                    stats.gmem_ideal_transactions += n;
                    for &(_, a) in lanes {
                        dram_traffic(self.device, stats, a, size as u64, false);
                        dram_traffic(self.device, stats, a, size as u64, true);
                    }
                } else {
                    stats.shared_cycles += n;
                }
            }
            (_, Space::Global) => {
                stats.gmem_instructions += 1;
                let seg = self.seg;
                // For each coalesce group of lanes, count distinct segments.
                for group in lanes.chunks(self.device.coalesce_group.max(1) as usize) {
                    coalesce_segments(group, size, seg, &mut self.seg_scratch);
                    // Fully-coalesced floor: the same lanes touching
                    // contiguous addresses would have needed this many
                    // segments. The gap to the distinct-segment count is
                    // serialisation.
                    stats.gmem_ideal_transactions += (group.len() as u64 * size as u64)
                        .div_ceil(seg.get())
                        .max(1);
                    for j in 0..self.seg_scratch.len() {
                        let s = self.seg_scratch[j];
                        stats.gmem_transactions += 1;
                        self.global_transaction(s * seg.get(), seg.get(), is_store, stats);
                    }
                }
            }
            (_, Space::Shared) => {
                // Bank-conflict model: within each banking group (half-warp
                // on GT200, warp on Fermi), the access takes as many cycles
                // as the most-contended bank has distinct words.
                let scale = self.device.shared_access_scale;
                for group in lanes.chunks(self.device.coalesce_group.max(1) as usize) {
                    stats.shared_accesses += 1;
                    let degree = bank_conflict_degree(
                        group,
                        self.banks,
                        &mut self.lane_words,
                        &mut self.word_scratch,
                    );
                    let cycles = (degree as f64 * scale).ceil() as u64;
                    stats.shared_cycles += cycles;
                    if degree > 1 {
                        stats.shared_conflict_cycles += cycles - 1;
                    }
                }
            }
            (_, Space::Local) => {
                // Local memory is physically lane-interleaved in device
                // memory, so a warp's access to one per-thread slot is a
                // fully coalesced burst. Synthesise stable per-(block,
                // slot) addresses in a reserved high range: re-touching a
                // slot hits the Fermi L1, while cacheless devices pay DRAM
                // each time — the asymmetry behind the paper's Fig. 7.
                let bytes = lanes.len() as u64 * size as u64;
                let seg = self.seg.get();
                let txns = bytes.div_ceil(seg);
                let slot = lanes.first().map(|&(_, a)| a).unwrap_or(0);
                let base = self.local_base + slot * self.block_threads;
                // Lane-interleaved local slots are contiguous by
                // construction: the burst is its own coalesced floor.
                stats.gmem_ideal_transactions += txns;
                for t in 0..txns {
                    stats.gmem_transactions += 1;
                    self.global_transaction(base + t * seg, seg, is_store, stats);
                }
            }
            (_, Space::Const) => {
                // Distinct addresses serialise; same-address is broadcast.
                distinct_ascending(lanes.iter().map(|&(_, a)| a), &mut self.addr_scratch);
                stats.const_serializations += self.addr_scratch.len() as u64 - 1;
                let line = self.const_line;
                self.line_scratch.clear();
                self.line_scratch
                    .extend(self.addr_scratch.iter().map(|&a| line.div(a)));
                self.line_scratch.dedup();
                stats.const_line_accesses += self.line_scratch.len() as u64;
                for &l in &self.line_scratch {
                    let l = l * line.get();
                    let miss = match &mut self.constc {
                        Some(cc) => cc.access(l) == CacheAccess::Miss,
                        None => true,
                    };
                    if miss {
                        stats.const_misses += 1;
                        dram_traffic(self.device, stats, l, line.get(), false);
                    }
                }
            }
            (_, Space::Param) => {
                // Parameter loads hit a tiny dedicated buffer: free beyond
                // the issue cost.
            }
        }
    }

    /// One DRAM-side transaction of `bytes` at `addr` through the cache
    /// hierarchy (L1 for loads on Fermi, then L2, then DRAM).
    fn global_transaction(&mut self, addr: u64, bytes: u64, is_store: bool, stats: &mut ExecStats) {
        if !is_store {
            if let Some(l1) = &mut self.l1 {
                match l1.access(addr) {
                    CacheAccess::Hit => {
                        stats.l1_hits += 1;
                        return;
                    }
                    CacheAccess::Miss => stats.l1_misses += 1,
                }
            }
        }
        self.fill_from_l2_or_dram(addr, bytes, is_store, stats);
    }

    /// Route an L1-missing (or uncached) transaction toward L2 or DRAM: on
    /// a device with an L2 it is recorded for ascending-order replay at
    /// merge time (the L2 is the only cross-block cache state); otherwise
    /// it goes straight to DRAM.
    fn fill_from_l2_or_dram(
        &mut self,
        addr: u64,
        bytes: u64,
        is_store: bool,
        stats: &mut ExecStats,
    ) {
        if self.device.l2.is_some() {
            self.events.push(L2Event {
                addr,
                bytes,
                store: is_store,
            });
        } else {
            dram_traffic(self.device, stats, addr, bytes, is_store);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A tiny deterministic generator for the cost-model property tests.
    pub(crate) struct Lcg(pub(crate) u64);

    impl Lcg {
        pub(crate) fn next(&mut self) -> u64 {
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
    pub(crate) fn lane_address_sets() -> Vec<(u32, Vec<(u32, u64)>)> {
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
    fn random_accesses_keep_the_counter_laws() {
        let kinds = [
            AccessKind::Load,
            AccessKind::Store,
            AccessKind::Tex,
            AccessKind::Atom,
        ];
        let spaces = [
            Space::Global,
            Space::Shared,
            Space::Local,
            Space::Const,
            Space::Param,
        ];
        let mut rng = Lcg(0xc057);
        let devices = DeviceSpec::all();
        let mut charged = 0;
        for device in &devices {
            for kind in kinds {
                for space in spaces {
                    let mut model = MemModel::new(device, 16, 96);
                    let mut l2 = device.l2.map(Cache::from_geom);
                    let mut stats = ExecStats::default();
                    // Blocks of random warp accesses, the L2 replayed after
                    // each block as the launch merge does.
                    for block in 0..4 {
                        model.start_block(block);
                        for _ in 0..24 {
                            let size = 1 << (rng.next() % 4);
                            let lanes = random_lanes(&mut rng, device.warp_width, size);
                            model.access(space, kind, size, &lanes, &mut stats);
                        }
                        let events = model.take_events();
                        match &mut l2 {
                            Some(l2) => replay_l2(device, l2, &mut stats, &events),
                            None => assert!(events.is_empty()),
                        }
                    }
                    if let Err(law) = stats.check_conservation(device.warp_width) {
                        panic!("{} {kind:?} {space:?}: {law}", device.name);
                    }
                    charged += (stats != ExecStats::default()) as usize;
                }
            }
        }
        // Everything but a parameter load or store charged something.
        assert_eq!(charged, devices.len() * (kinds.len() * spaces.len() - 2));
    }

    /// One warp access of `size`-byte lanes: a random subset of up to
    /// `warp_width` lanes, in lane order, at addresses drawn from a
    /// random pattern (broadcast, strided, straddling or scattered).
    fn random_lanes(rng: &mut Lcg, warp_width: u32, size: u32) -> Vec<(u32, u64)> {
        let base = rng.next() % (1 << 20);
        let stride = [0, size as u64, 4, 128, 3][rng.next() as usize % 5];
        let scatter = rng.next() % 4 == 0;
        let mask = rng.next() | (rng.next() << 31);
        (0..warp_width)
            .filter(|&l| l == 0 || (mask >> (l % 62)) & 1 == 1)
            .map(|l| {
                let a = if scatter {
                    rng.next() % (1 << 16)
                } else {
                    base + l as u64 * stride
                };
                (l, a)
            })
            .collect()
    }
}
