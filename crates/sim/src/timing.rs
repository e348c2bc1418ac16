//! The analytic timing model.
//!
//! Converts the exact execution trace statistics of a launch into virtual
//! nanoseconds with a roofline-style model:
//!
//! - a **compute term**: weighted issue cycles distributed over the compute
//!   units actually occupied;
//! - a **memory term**: post-cache DRAM traffic over the device's effective
//!   bandwidth;
//! - a **latency term**: un-hidden memory latency when occupancy is too low
//!   to cover the round trip (this is what collapses the paper's Fig. 7
//!   OpenCL FDTD variant whose outer unroll explodes register pressure);
//!
//! plus a small non-overlap leak between the terms. The model is
//! deliberately simple and fully documented; its two per-device calibration
//! constants live in [`crate::device::DeviceSpec`].

use crate::device::DeviceSpec;
use crate::stats::ExecStats;

/// Fraction of the non-dominant terms that does *not* overlap with the
/// dominant one.
pub const NON_OVERLAP: f64 = 0.15;

/// Fixed per-launch pipeline fill/drain time in ns (kernel-side, excluding
/// the host API's launch overhead which the runtime adds separately).
pub const PIPELINE_NS: f64 = 1_000.0;

/// Assumed memory-level parallelism within one warp (independent loads in
/// flight) for the latency term.
pub const WARP_MLP: f64 = 2.0;

/// Timing breakdown of one kernel launch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    /// Compute-issue term in ns.
    pub compute_ns: f64,
    /// DRAM-bandwidth term in ns.
    pub memory_ns: f64,
    /// Exposed-latency term in ns.
    pub latency_ns: f64,
    /// Total kernel time in ns.
    pub total_ns: f64,
    /// Occupancy (fraction of warp slots) used for the latency term.
    pub occupancy: f64,
    /// Blocks resident per CU.
    pub blocks_per_cu: u32,
    /// What limited occupancy.
    pub limiter: &'static str,
}

impl Timing {
    /// Which roofline term dominated the launch: `"compute"`, `"memory"`
    /// or `"latency"`. Ties resolve in that order (compute first), so the
    /// answer is deterministic.
    pub fn dominant(&self) -> &'static str {
        let terms = self.stall_shares();
        let mut best = terms[0];
        for t in &terms[1..] {
            if t.1 > best.1 {
                best = *t;
            }
        }
        best.0
    }

    /// Warp-issue stall breakdown: each roofline term's share of the term
    /// sum, in `[0, 1]`. The shares describe *where cycles would go* if
    /// nothing overlapped; the dominant entry is the launch's bottleneck.
    pub fn stall_shares(&self) -> [(&'static str, f64); 3] {
        let sum = self.compute_ns + self.memory_ns + self.latency_ns;
        if sum <= 0.0 {
            return [("compute", 0.0), ("memory", 0.0), ("latency", 0.0)];
        }
        [
            ("compute", self.compute_ns / sum),
            ("memory", self.memory_ns / sum),
            ("latency", self.latency_ns / sum),
        ]
    }
}

/// Compute the virtual duration of a launch.
///
/// `threads_per_block` and `blocks` describe the launch shape;
/// `regs_per_thread` and `smem_per_block` are the kernel's resource needs
/// (post-`ptxas`).
pub fn kernel_time(
    device: &DeviceSpec,
    stats: &ExecStats,
    threads_per_block: u32,
    blocks: u64,
    regs_per_thread: u32,
    smem_per_block: u32,
) -> Timing {
    let occ = device.occupancy(threads_per_block, regs_per_thread, smem_per_block);
    let clock = device.clock_hz();

    // How many CUs have work: blocks spread round-robin over the CUs, so
    // every CU is busy once there are at least as many blocks as CUs.
    let cus_busy = (blocks as f64).min(device.compute_units as f64).max(1.0);

    // ---- compute term ----
    // issue_millicycles are warp-instruction weights; a warp instruction
    // occupies warp_width / cores_per_cu CU cycles.
    let warp_cycle_scale = device.warp_width as f64 / device.cores_per_cu as f64;
    let issue_cycles = stats.issue_millicycles as f64 / 1000.0 * warp_cycle_scale;
    let aux_cycles = stats.shared_cycles as f64 + stats.const_serializations as f64;
    let compute_ns = (issue_cycles + aux_cycles) / cus_busy / clock * 1e9;

    // ---- memory term ----
    let bw = device.mem_bandwidth_gbs * 1e9 * device.dram_efficiency;
    let balanced_ns = stats.dram_bytes() as f64 / bw * 1e9;
    // The hottest DRAM partition bounds throughput (partition camping on
    // non-hashed devices; on hashed devices traffic is near-uniform and
    // this term coincides with the balanced one).
    let parts = device.dram_partitions.max(1) as f64;
    let camped_ns = stats.max_partition_bytes() as f64 * parts / bw * 1e9;
    // Every L1/texture miss crosses the L2 even when it hits there.
    let l2_ns = if device.l2_bandwidth_gbs > 0.0 {
        stats.l2_touched_bytes as f64 / (device.l2_bandwidth_gbs * 1e9) * 1e9
    } else {
        0.0
    };
    let memory_ns = balanced_ns.max(camped_ns).max(l2_ns);

    // ---- latency term ----
    // Each warp's chain of memory instructions exposes round-trip latency
    // unless enough other warps are resident to overlap it.
    let total_warps = (stats.threads.max(1) as f64 / device.warp_width as f64).ceil();
    let mem_insts_per_warp = if total_warps > 0.0 {
        (stats.gmem_instructions + stats.tex_misses + stats.const_misses) as f64 / total_warps
    } else {
        0.0
    };
    let concurrent_warps = (occ.warps_per_cu as f64 * cus_busy).max(1.0);
    let waves = (total_warps / concurrent_warps).max(1.0);
    let hiding = (occ.warps_per_cu as f64 / device.latency_hiding_warps).min(1.0);
    let latency_ns =
        waves * mem_insts_per_warp * device.mem_latency_ns / WARP_MLP * (1.0 - 0.85 * hiding);

    let dominant = compute_ns.max(memory_ns).max(latency_ns);
    let total_ns =
        dominant + NON_OVERLAP * (compute_ns + memory_ns + latency_ns - dominant) + PIPELINE_NS;

    Timing {
        compute_ns,
        memory_ns,
        latency_ns,
        total_ns,
        occupancy: occ.occupancy,
        blocks_per_cu: occ.blocks_per_cu,
        limiter: occ.limiter,
    }
}

// ---------------------------------------------------------------------------
// The stream timeline scheduler.
// ---------------------------------------------------------------------------

/// A hardware engine of the virtual device timeline. Transfers and kernels
/// enqueued on different streams overlap exactly when they occupy different
/// engines: the model has one DMA engine per direction (the Fermi-era dual
/// copy engines) and one compute engine that serialises kernel launches,
/// which is the paper-era concurrency model (no concurrent kernels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimelineResource {
    /// Host→device DMA engine.
    H2dEngine,
    /// Device→host DMA engine.
    D2hEngine,
    /// The compute engine (kernel launches).
    Compute,
}

impl TimelineResource {
    /// Number of distinct resources.
    pub const COUNT: usize = 3;

    /// Dense index for per-resource tables.
    pub fn index(self) -> usize {
        match self {
            TimelineResource::H2dEngine => 0,
            TimelineResource::D2hEngine => 1,
            TimelineResource::Compute => 2,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TimelineResource::H2dEngine => "H2D engine",
            TimelineResource::D2hEngine => "D2H engine",
            TimelineResource::Compute => "compute",
        }
    }
}

/// One enqueued operation awaiting placement on the timeline.
///
/// Ops are identified by `(stream, seq)` where `seq` is the dense per-stream
/// enqueue counter; that pair is also what completion events reference, so a
/// schedule depends only on the *op set and its dependencies*, never on the
/// host-side interleaving that produced it.
#[derive(Clone, Debug)]
pub struct TimelineOp {
    /// Owning stream id.
    pub stream: u32,
    /// Dense per-stream sequence number (enqueue order within the stream).
    pub seq: u64,
    /// Engine this op occupies.
    pub resource: TimelineResource,
    /// Occupancy duration in virtual ns.
    pub dur_ns: f64,
    /// Earliest possible start (the host clock when the op was enqueued).
    pub ready_ns: f64,
    /// Cross-stream waits: `(stream, seq)` ops that must complete first.
    pub deps: Vec<(u32, u64)>,
}

/// Placement of one op on the timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledOp {
    /// Owning stream id.
    pub stream: u32,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Engine the op ran on.
    pub resource: TimelineResource,
    /// Scheduled start, ns.
    pub start_ns: f64,
    /// Scheduled end, ns.
    pub end_ns: f64,
}

/// Persistent scheduler state: per-engine availability and completion times
/// of every committed op, carried across synchronisation points.
///
/// [`TimelineState::schedule`] is deterministic **list scheduling**: among
/// the ops whose in-stream predecessor and declared dependencies are
/// committed, it repeatedly commits the one with the earliest feasible start
/// (ties broken by stream id, then sequence number). The result is a pure
/// function of the op set — bit-identical for any host thread count and any
/// dependency-equivalent enqueue interleaving.
#[derive(Clone, Debug, Default)]
pub struct TimelineState {
    resource_free: [f64; TimelineResource::COUNT],
    stream_tail: std::collections::BTreeMap<u32, f64>,
    committed_seq: std::collections::BTreeMap<u32, u64>,
    op_end: std::collections::BTreeMap<(u32, u64), f64>,
}

impl TimelineState {
    /// Fresh, empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// End of the last committed op on `stream` (0.0 if none).
    pub fn stream_tail_ns(&self, stream: u32) -> f64 {
        self.stream_tail.get(&stream).copied().unwrap_or(0.0)
    }

    /// Completion time of a committed op, if committed.
    pub fn op_end_ns(&self, stream: u32, seq: u64) -> Option<f64> {
        self.op_end.get(&(stream, seq)).copied()
    }

    /// Latest committed completion time across all engines.
    pub fn horizon_ns(&self) -> f64 {
        self.resource_free
            .iter()
            .copied()
            .fold(0.0f64, |a, b| a.max(b))
    }

    /// Place `ops` on the timeline and commit them, returning the placements
    /// in commit order.
    ///
    /// Panics if a dependency refers to an op that is neither committed nor
    /// part of `ops` (a runtime-layer bug: event handles only exist for
    /// enqueued ops).
    pub fn schedule(&mut self, ops: &[TimelineOp]) -> Vec<ScheduledOp> {
        // Canonical working order: (stream, seq). This makes the selection
        // below independent of the order `ops` arrived in.
        let mut pending: Vec<&TimelineOp> = ops.iter().collect();
        pending.sort_by_key(|o| (o.stream, o.seq));
        let mut out = Vec::with_capacity(ops.len());
        while !pending.is_empty() {
            // (start, stream, seq, index-into-pending) of the best candidate.
            let mut best: Option<(f64, u32, u64, usize)> = None;
            for (i, op) in pending.iter().enumerate() {
                // In-stream program order: only the next uncommitted seq of
                // each stream is eligible.
                let next = self.committed_seq.get(&op.stream).copied().unwrap_or(0);
                if op.seq != next {
                    continue;
                }
                // Declared cross-stream dependencies must be committed.
                let mut ready = op.ready_ns.max(self.stream_tail_ns(op.stream));
                let mut deps_met = true;
                for &(ds, dq) in &op.deps {
                    match self.op_end.get(&(ds, dq)) {
                        Some(&end) => ready = ready.max(end),
                        None => {
                            deps_met = false;
                            break;
                        }
                    }
                }
                if !deps_met {
                    continue;
                }
                let start = ready.max(self.resource_free[op.resource.index()]);
                let key = (start, op.stream, op.seq);
                if best.is_none_or(|(s, st, sq, _)| key < (s, st, sq)) {
                    best = Some((start, op.stream, op.seq, i));
                }
            }
            let (start, _, _, idx) = best
                .expect("timeline deadlock: a pending op depends on an op that was never enqueued");
            let op = pending.remove(idx);
            let end = start + op.dur_ns;
            self.resource_free[op.resource.index()] = end;
            self.stream_tail.insert(op.stream, end);
            self.committed_seq.insert(op.stream, op.seq + 1);
            self.op_end.insert((op.stream, op.seq), end);
            out.push(ScheduledOp {
                stream: op.stream,
                seq: op.seq,
                resource: op.resource,
                start_ns: start,
                end_ns: end,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming_stats(bytes: u64, insts_per_warp_elem: u64) -> ExecStats {
        let elems = bytes / 4;
        let warps = elems / 32;
        ExecStats {
            blocks: warps / 8,
            threads: elems,
            warp_instructions: warps * insts_per_warp_elem,
            lane_instructions: elems * insts_per_warp_elem,
            issue_millicycles: warps * insts_per_warp_elem * 1000,
            dram_read_bytes: bytes,
            gmem_transactions: bytes / 64,
            gmem_instructions: warps,
            ..Default::default()
        }
    }

    #[test]
    fn bandwidth_bound_kernel_tracks_dram_efficiency() {
        let d = DeviceSpec::gtx480();
        let bytes = 256 << 20; // 256 MiB
        let stats = streaming_stats(bytes, 4);
        let t = kernel_time(&d, &stats, 256, stats.blocks, 16, 0);
        let achieved = bytes as f64 / t.total_ns * 1e9 / 1e9; // GB/s
        let frac = achieved / d.mem_bandwidth_gbs;
        // Should land near (but below) the calibrated DRAM efficiency.
        assert!(frac > 0.75 && frac < d.dram_efficiency, "frac={frac}");
        assert!(t.memory_ns > t.compute_ns);
    }

    #[test]
    fn compute_bound_kernel_tracks_peak_flops() {
        let d = DeviceSpec::gtx480();
        // Pure mad chain: 1M warps x 1000 mads.
        let warps = 1_000_000u64;
        let insts = warps * 1000;
        let stats = ExecStats {
            blocks: warps / 8,
            threads: warps * 32,
            warp_instructions: insts,
            lane_instructions: insts * 32,
            issue_millicycles: (insts as f64 * d.arith_cycle_scale * 1000.0) as u64,
            flops: insts * 32 * 2,
            ..Default::default()
        };
        let t = kernel_time(&d, &stats, 256, stats.blocks, 20, 0);
        let gflops = stats.flops as f64 / t.total_ns;
        let frac = gflops / d.theoretical_peak_gflops();
        // the idealised mad-only stream may nominally exceed "peak" by the
        // calibration margin; real kernels carry overhead instructions
        assert!(frac > 0.93 && frac < 1.02, "frac={frac}");
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        let d = DeviceSpec::gtx480();
        let stats = ExecStats {
            blocks: 1000,
            threads: 256_000,
            warp_instructions: 80_000,
            lane_instructions: 2_560_000,
            issue_millicycles: 80_000_000,
            dram_read_bytes: 10 << 20,
            gmem_instructions: 40_000,
            gmem_transactions: 80_000,
            ..Default::default()
        };
        let high_occ = kernel_time(&d, &stats, 256, 1000, 16, 0);
        let low_occ = kernel_time(&d, &stats, 256, 1000, 63, 32 * 1024);
        assert!(low_occ.occupancy < high_occ.occupancy);
        assert!(low_occ.total_ns > high_occ.total_ns);
        assert!(low_occ.latency_ns > high_occ.latency_ns);
    }

    #[test]
    fn few_blocks_underutilise_device() {
        let d = DeviceSpec::gtx280();
        let stats = ExecStats {
            blocks: 1,
            threads: 256,
            warp_instructions: 8_000,
            lane_instructions: 256_000,
            issue_millicycles: 8_000_000,
            ..Default::default()
        };
        let one_block = kernel_time(&d, &stats, 256, 1, 16, 0);
        let many = kernel_time(&d, &stats, 256, 240, 16, 0);
        assert!(one_block.compute_ns > many.compute_ns * 10.0);
    }

    #[test]
    fn total_includes_pipeline_floor() {
        let d = DeviceSpec::gtx480();
        let t = kernel_time(&d, &ExecStats::default(), 32, 1, 8, 0);
        assert!(t.total_ns >= PIPELINE_NS);
    }

    fn op(
        stream: u32,
        seq: u64,
        resource: TimelineResource,
        dur_ns: f64,
        deps: &[(u32, u64)],
    ) -> TimelineOp {
        TimelineOp {
            stream,
            seq,
            resource,
            dur_ns,
            ready_ns: 0.0,
            deps: deps.to_vec(),
        }
    }

    #[test]
    fn two_streams_overlap_transfers_with_compute() {
        use TimelineResource::*;
        // One stream: h2d(100) -> launch(200) -> h2d(100) -> launch(200)
        let mut serial = TimelineState::new();
        let s = serial.schedule(&[
            op(0, 0, H2dEngine, 100.0, &[]),
            op(0, 1, Compute, 200.0, &[]),
            op(0, 2, H2dEngine, 100.0, &[]),
            op(0, 3, Compute, 200.0, &[]),
        ]);
        assert_eq!(s.last().unwrap().end_ns, 600.0);

        // Two streams: the second chunk's upload overlaps the first chunk's
        // kernel, so the pipeline finishes one transfer earlier.
        let mut piped = TimelineState::new();
        let p = piped.schedule(&[
            op(1, 0, H2dEngine, 100.0, &[]),
            op(1, 1, Compute, 200.0, &[]),
            op(2, 0, H2dEngine, 100.0, &[]),
            op(2, 1, Compute, 200.0, &[]),
        ]);
        let end = p.iter().map(|o| o.end_ns).fold(0.0f64, f64::max);
        assert_eq!(end, 500.0, "upload of chunk 2 hides behind kernel 1");
        // The overlap is real: stream 2's upload starts before stream 1's
        // kernel ends.
        let k1_end = piped.op_end_ns(1, 1).unwrap();
        let u2 = p.iter().find(|o| o.stream == 2 && o.seq == 0).unwrap();
        assert!(u2.start_ns < k1_end);
    }

    #[test]
    fn same_resource_never_overlaps() {
        use TimelineResource::*;
        let mut t = TimelineState::new();
        let p = t.schedule(&[op(1, 0, Compute, 300.0, &[]), op(2, 0, Compute, 300.0, &[])]);
        assert_eq!(p[0].end_ns, 300.0);
        assert_eq!(
            p[1].start_ns, 300.0,
            "one compute engine serialises kernels"
        );
    }

    #[test]
    fn schedule_is_invariant_to_enqueue_interleaving() {
        use TimelineResource::*;
        let ops = [
            op(1, 0, H2dEngine, 123.0, &[]),
            op(1, 1, Compute, 456.0, &[]),
            op(1, 2, D2hEngine, 78.0, &[]),
            op(2, 0, H2dEngine, 200.0, &[]),
            op(2, 1, Compute, 100.0, &[(1, 1)]),
            op(2, 2, D2hEngine, 90.0, &[]),
        ];
        let mut a = TimelineState::new();
        let mut fwd = a.schedule(&ops);
        // A dependency-equivalent interleaving: streams swapped in arrival
        // order, in-stream order preserved.
        let shuffled = [
            ops[3].clone(),
            ops[0].clone(),
            ops[4].clone(),
            ops[5].clone(),
            ops[1].clone(),
            ops[2].clone(),
        ];
        let mut b = TimelineState::new();
        let mut rev = b.schedule(&shuffled);
        fwd.sort_by_key(|o| (o.stream, o.seq));
        rev.sort_by_key(|o| (o.stream, o.seq));
        assert_eq!(fwd, rev, "placement must be bit-identical");
    }

    #[test]
    fn cross_stream_wait_orders_consumer_after_producer() {
        use TimelineResource::*;
        let mut t = TimelineState::new();
        let p = t.schedule(&[
            op(1, 0, H2dEngine, 500.0, &[]),
            op(2, 0, Compute, 100.0, &[(1, 0)]),
        ]);
        let producer = p.iter().find(|o| o.stream == 1).unwrap();
        let consumer = p.iter().find(|o| o.stream == 2).unwrap();
        assert!(consumer.start_ns >= producer.end_ns);
    }

    #[test]
    fn state_persists_across_sync_points() {
        use TimelineResource::*;
        let mut t = TimelineState::new();
        t.schedule(&[op(1, 0, Compute, 400.0, &[])]);
        // A later batch on another stream still queues behind the engine.
        let p = t.schedule(&[op(2, 0, Compute, 100.0, &[])]);
        assert_eq!(p[0].start_ns, 400.0);
        assert_eq!(t.horizon_ns(), 500.0);
        assert_eq!(t.stream_tail_ns(1), 400.0);
    }

    #[test]
    #[should_panic(expected = "timeline deadlock")]
    fn dangling_dependency_panics() {
        use TimelineResource::*;
        let mut t = TimelineState::new();
        t.schedule(&[op(1, 0, Compute, 1.0, &[(9, 9)])]);
    }
}
