//! Execution statistics gathered by the interpreter and consumed by the
//! timing model.

/// The most DRAM partitions a device may have: the length of
/// [`ExecStats::partition_bytes`]. A launch on a device with more is
/// rejected as invalid.
pub const MAX_DRAM_PARTITIONS: usize = 8;

/// Dynamic statistics of one kernel launch.
///
/// All counts are exact (the interpreter executes every thread); the
/// timing model in [`crate::timing`] converts them to virtual nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Thread blocks executed.
    pub blocks: u64,
    /// Total threads launched.
    pub threads: u64,
    /// Warp-level instructions issued (each costs issue cycles regardless
    /// of how many lanes are active — the SIMT lockstep cost).
    pub warp_instructions: u64,
    /// Lane-level instructions executed (sum of active lanes over all
    /// warp-instructions).
    pub lane_instructions: u64,
    /// Weighted issue cycles, in milli-cycles (scaled by 1000 so the
    /// sub-cycle costs of dual-issue architectures stay integral). One
    /// simple warp ALU op on a 1.0-scale device contributes 1000.
    pub issue_millicycles: u64,
    /// Floating-point operations executed (mad/fma count 2).
    pub flops: u64,
    /// DRAM traffic after all caches, in bytes, reads.
    pub dram_read_bytes: u64,
    /// DRAM traffic after all caches, in bytes, writes.
    pub dram_write_bytes: u64,
    /// Global-memory transactions issued by warps (before cache filtering).
    pub gmem_transactions: u64,
    /// Minimum transactions the same accesses would have cost had every
    /// coalesce group been perfectly contiguous — the fully-coalesced
    /// floor. `gmem_transactions - gmem_ideal_transactions` is the
    /// serialisation overhead the paper attributes PR deviations to.
    pub gmem_ideal_transactions: u64,
    /// Global-memory access instructions (warp-level).
    pub gmem_instructions: u64,
    /// L1 hits / misses (Fermi-style global cache).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Bytes moved through the L2 (hits and misses alike).
    pub l2_touched_bytes: u64,
    /// Texture cache hits.
    pub tex_hits: u64,
    /// Texture cache misses.
    pub tex_misses: u64,
    /// Constant cache serialisation events (distinct addresses within one
    /// warp constant load beyond the first).
    pub const_serializations: u64,
    /// Constant cache line lookups (after the warp-broadcast dedup).
    pub const_line_accesses: u64,
    /// Constant cache misses (line fills from DRAM).
    pub const_misses: u64,
    /// Shared-memory access cycles including bank-conflict serialisation.
    pub shared_cycles: u64,
    /// Shared-memory warp access groups (bank-conflict denominators).
    pub shared_accesses: u64,
    /// Shared-memory accesses that conflicted (extra cycles beyond 1).
    pub shared_conflict_cycles: u64,
    /// Block-wide barriers executed (per warp arrival).
    pub barriers: u64,
    /// Divergent branches (warp split into two paths).
    pub divergent_branches: u64,
    /// Atomic operations executed (lane level).
    pub atomics: u64,
    /// Post-cache DRAM traffic per memory partition (GT200-era GPUs stripe
    /// DRAM across partitions at 256-byte granularity with *no* address
    /// hashing, so hot segments — e.g. a filter kernel re-reading the same
    /// few words from global memory — serialise on one partition: the
    /// "partition camping" effect).
    pub partition_bytes: [u64; MAX_DRAM_PARTITIONS],
}

impl ExecStats {
    /// Merge another launch's stats into this one (used when a benchmark
    /// aggregates several launches).
    pub fn merge(&mut self, other: &ExecStats) {
        self.blocks += other.blocks;
        self.threads += other.threads;
        self.warp_instructions += other.warp_instructions;
        self.lane_instructions += other.lane_instructions;
        self.issue_millicycles += other.issue_millicycles;
        self.flops += other.flops;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.gmem_transactions += other.gmem_transactions;
        self.gmem_ideal_transactions += other.gmem_ideal_transactions;
        self.gmem_instructions += other.gmem_instructions;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l2_touched_bytes += other.l2_touched_bytes;
        self.tex_hits += other.tex_hits;
        self.tex_misses += other.tex_misses;
        self.const_serializations += other.const_serializations;
        self.const_line_accesses += other.const_line_accesses;
        self.const_misses += other.const_misses;
        self.shared_cycles += other.shared_cycles;
        self.shared_accesses += other.shared_accesses;
        self.shared_conflict_cycles += other.shared_conflict_cycles;
        self.barriers += other.barriers;
        self.divergent_branches += other.divergent_branches;
        self.atomics += other.atomics;
        for (a, b) in self.partition_bytes.iter_mut().zip(&other.partition_bytes) {
            *a += b;
        }
    }

    /// Check the conservation laws the cost model keeps by construction
    /// on a device `warp_width` lanes wide, and name the first one these
    /// counters break.
    pub fn check_conservation(&self, warp_width: u32) -> Result<(), String> {
        let partitions: u64 = self.partition_bytes.iter().sum();
        let laws = [
            (
                partitions == self.dram_bytes(),
                "sum of partition_bytes == dram_read_bytes + dram_write_bytes",
            ),
            (
                self.l1_hits + self.l1_misses <= self.gmem_transactions,
                "l1_hits + l1_misses <= gmem_transactions",
            ),
            (
                self.l1_hits + self.l2_hits + self.l2_misses
                    <= self.gmem_transactions + self.tex_misses,
                "l1_hits + l2_hits + l2_misses <= gmem_transactions + tex_misses",
            ),
            (
                self.const_misses <= self.const_line_accesses,
                "const_misses <= const_line_accesses",
            ),
            (
                self.shared_accesses + self.shared_conflict_cycles <= self.shared_cycles,
                "shared_accesses + shared_conflict_cycles <= shared_cycles",
            ),
            (
                self.lane_instructions <= self.warp_instructions.saturating_mul(warp_width as u64),
                "lane_instructions <= warp_instructions x warp width",
            ),
        ];
        match laws.iter().find(|(holds, _)| !holds) {
            Some((_, law)) => Err(format!("counter law broken: {law} in {self:?}")),
            None => Ok(()),
        }
    }

    /// Traffic of the hottest DRAM partition.
    pub fn max_partition_bytes(&self) -> u64 {
        self.partition_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Average active lanes per warp-instruction (SIMD efficiency).
    pub fn simd_efficiency(&self, warp_width: u32) -> f64 {
        if self.warp_instructions == 0 {
            return 0.0;
        }
        self.lane_instructions as f64 / (self.warp_instructions as f64 * warp_width as f64)
    }

    /// L1 hit rate in `[0, 1]`; zero when the L1 saw no traffic.
    pub fn l1_hit_rate(&self) -> f64 {
        ratio(self.l1_hits, self.l1_hits + self.l1_misses)
    }

    /// L2 hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(self.l2_hits, self.l2_hits + self.l2_misses)
    }

    /// Texture cache hit rate in `[0, 1]`.
    pub fn tex_hit_rate(&self) -> f64 {
        ratio(self.tex_hits, self.tex_hits + self.tex_misses)
    }

    /// Constant cache hit rate in `[0, 1]` (line lookups that did not
    /// fill from DRAM). 1.0 for broadcast reads of a resident line.
    pub fn const_hit_rate(&self) -> f64 {
        ratio(
            self.const_line_accesses.saturating_sub(self.const_misses),
            self.const_line_accesses,
        )
    }

    /// Coalescing efficiency in `(0, 1]`: the fully-coalesced transaction
    /// floor over the transactions actually issued. 1.0 means every warp
    /// access was perfectly contiguous; small values mean serialisation.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.gmem_transactions == 0 {
            return 1.0;
        }
        self.gmem_ideal_transactions as f64 / self.gmem_transactions as f64
    }

    /// Fraction of shared-memory access cycles lost to bank-conflict
    /// serialisation.
    pub fn bank_conflict_share(&self) -> f64 {
        ratio(self.shared_conflict_cycles, self.shared_cycles)
    }

    /// Flatten every raw counter plus the derived rates into an ordered
    /// [`CounterSet`] — the machine-readable form consumed by the trace
    /// exporter, the bench report, and the CI gate.
    pub fn counter_set(&self, warp_width: u32) -> CounterSet {
        let mut c = CounterSet::new();
        c.push("blocks", self.blocks as f64);
        c.push("threads", self.threads as f64);
        c.push("warp_instructions", self.warp_instructions as f64);
        c.push("lane_instructions", self.lane_instructions as f64);
        c.push("issue_cycles", self.issue_millicycles as f64 / 1000.0);
        c.push("flops", self.flops as f64);
        c.push("dram_read_bytes", self.dram_read_bytes as f64);
        c.push("dram_write_bytes", self.dram_write_bytes as f64);
        c.push("gmem_instructions", self.gmem_instructions as f64);
        c.push("gmem_transactions", self.gmem_transactions as f64);
        c.push(
            "gmem_ideal_transactions",
            self.gmem_ideal_transactions as f64,
        );
        c.push("l1_hits", self.l1_hits as f64);
        c.push("l1_misses", self.l1_misses as f64);
        c.push("l2_hits", self.l2_hits as f64);
        c.push("l2_misses", self.l2_misses as f64);
        c.push("l2_touched_bytes", self.l2_touched_bytes as f64);
        c.push("tex_hits", self.tex_hits as f64);
        c.push("tex_misses", self.tex_misses as f64);
        c.push("const_line_accesses", self.const_line_accesses as f64);
        c.push("const_misses", self.const_misses as f64);
        c.push("const_serializations", self.const_serializations as f64);
        c.push("shared_accesses", self.shared_accesses as f64);
        c.push("shared_cycles", self.shared_cycles as f64);
        c.push("shared_conflict_cycles", self.shared_conflict_cycles as f64);
        c.push("barriers", self.barriers as f64);
        c.push("divergent_branches", self.divergent_branches as f64);
        c.push("atomics", self.atomics as f64);
        c.push("max_partition_bytes", self.max_partition_bytes() as f64);
        // Derived rates (the paper's attribution vocabulary).
        c.push("simd_efficiency", self.simd_efficiency(warp_width));
        c.push("coalescing_efficiency", self.coalescing_efficiency());
        c.push("l1_hit_rate", self.l1_hit_rate());
        c.push("l2_hit_rate", self.l2_hit_rate());
        c.push("tex_hit_rate", self.tex_hit_rate());
        c.push("const_hit_rate", self.const_hit_rate());
        c.push("bank_conflict_share", self.bank_conflict_share());
        c
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A flat, ordered `name -> value` counter map — the machine-readable
/// currency of the observability layer. Names are stable identifiers
/// (they appear in `BENCH_*.json` and chrome traces, and the CI gate
/// keys on them), so treat renames as breaking.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSet {
    entries: Vec<(String, f64)>,
}

impl CounterSet {
    /// An empty set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Append a counter (last write wins on lookup collisions).
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), value));
    }

    /// Look a counter up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Iterate `(name, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no counters have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = ExecStats {
            blocks: 1,
            flops: 10,
            dram_read_bytes: 100,
            ..Default::default()
        };
        let b = ExecStats {
            blocks: 2,
            flops: 5,
            dram_write_bytes: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.flops, 15);
        assert_eq!(a.dram_bytes(), 150);
    }

    #[test]
    fn conservation_names_the_broken_law() {
        let mut partition_bytes = [0; MAX_DRAM_PARTITIONS];
        partition_bytes[1] = 96;
        let s = ExecStats {
            dram_read_bytes: 64,
            dram_write_bytes: 32,
            partition_bytes,
            gmem_transactions: 3,
            l1_hits: 1,
            l1_misses: 2,
            l2_misses: 2,
            ..Default::default()
        };
        assert_eq!(s.check_conservation(32), Ok(()));
        let broken = ExecStats {
            l1_hits: 2,
            ..s.clone()
        };
        let law = broken.check_conservation(32).unwrap_err();
        assert!(
            law.contains("l1_hits + l1_misses <= gmem_transactions"),
            "{law}"
        );
        let broken = ExecStats {
            dram_write_bytes: 0,
            ..s
        };
        assert!(broken.check_conservation(32).is_err());
    }

    #[test]
    fn simd_efficiency_bounds() {
        let s = ExecStats {
            warp_instructions: 10,
            lane_instructions: 160,
            ..Default::default()
        };
        assert!((s.simd_efficiency(32) - 0.5).abs() < 1e-12);
        assert_eq!(ExecStats::default().simd_efficiency(32), 0.0);
    }
}
