//! The lockstep SIMT interpreter and the parallel block scheduler.
//!
//! Warps execute in lockstep over the hardware wavefront width of the
//! device; divergence is handled with an explicit reconvergence stack driven
//! by the `ssy`/`sync` markers the compiler emits for structured control
//! flow (see `gpucmp-ptx` docs). Warps within a block execute round-robin
//! between barriers, so execution is fully deterministic — including the
//! memory corruption produced by warp-size-dependent kernels on 64-wide
//! devices (the paper's Table VI "FL" rows).
//!
//! Thread blocks are independent (they synchronize only via `bar.sync`
//! *within* a block), so `run_launch_with_code` simulates them across a
//! host thread pool: every block interprets against the launch-entry
//! global-memory image through a private copy-on-write [`WriteOverlay`],
//! accumulates its own [`ExecStats`], and records its L2-bound traffic as
//! an event stream (the cost model, module `cost`).
//! After the join, per-block results are merged in ascending block index —
//! stats add, L2 events replay through the device-wide L2 model, overlays
//! commit to global memory — which makes the result a pure function of the
//! launch inputs: `threads = 1` and `threads = N` are bit-identical by
//! construction. Kernels that perform *global* atomics (cross-block
//! read-modify-writes) run their blocks serially, in ascending order,
//! through one overlay carried across the launch, so each block reads the
//! earlier blocks' writes; the launch then merges as one outcome.

use crate::alu::{
    alu1, alu2, alu3, compare, convert, float_bits, load_extend, read_bytes, with_ty, write_bytes,
};
use crate::cache::Cache;
use crate::cost::{replay_l2, AccessKind, L2Event, MemModel};
use crate::decode::{
    decode_kernel, decode_src, issue_cost_millicycles, DAddr, DSrc, DecodedKernel, ExecTier,
};
use crate::device::DeviceSpec;
use crate::error::{DeviceFault, FaultKind, FaultSite, SimError};
use crate::launch::{Dim3, LaunchConfig, TexBinding};
use crate::mem::{lanes_fit, read_lanes_in, write_lanes_in, GlobalMemory, WriteOverlay};
use crate::stats::{ExecStats, MAX_DRAM_PARTITIONS};
use gpucmp_ptx::{AtomOp, Inst, Op1, Op2, Operand, Reg, ResolvedKernel, Space, Special, Ty};
use std::time::Instant;

/// Default dynamic warp-instruction budget per launch (runaway-loop guard).
pub const DEFAULT_INST_BUDGET: u64 = 4_000_000_000;

/// Divergence-stack frame (one per `ssy` region).
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    /// Mask to restore when the region fully reconverges.
    pub(crate) restore_mask: u64,
    /// A parked path: (target pc, mask), waiting to run when the current
    /// path reaches the `sync`. The pc lives in the instruction space of
    /// the executing tier (original stream for interp, decoded stream for
    /// decoded) — warps are rebuilt per block and one launch runs one tier,
    /// so the spaces never mix.
    pub(crate) pending: Option<(usize, u64)>,
}

/// Warp scheduling status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WarpStatus {
    Running,
    AtBarrier,
    Done,
}

/// Per-warp execution state.
#[derive(Clone, Debug)]
pub(crate) struct WarpState {
    pub(crate) pc: usize,
    /// Currently active lanes.
    pub(crate) active: u64,
    /// Lanes that exist in this warp (partial last warp of a block).
    pub(crate) full: u64,
    /// Number of lanes that exist (`full.count_ones()`): the length of the
    /// warp's lane slice of every register.
    pub(crate) lanes: u32,
    pub(crate) stack: Vec<Frame>,
    pub(crate) status: WarpStatus,
    /// Linear tid of lane 0 of this warp within the block.
    pub(crate) base_tid: u32,
}

/// Host-side execution options for one launch: *how* to simulate, never
/// *what* to compute — results are bit-identical for every setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Number of host threads used to simulate thread blocks. `1` runs
    /// serially on the calling thread; `0` means one per available CPU core.
    pub threads: usize,
    /// Memcheck sanitizer mode: memory-access faults (out-of-bounds,
    /// misaligned, texture range) are recorded instead of aborting the
    /// launch — faulting reads return zero, faulting writes are dropped —
    /// and global accesses are additionally checked at allocation
    /// granularity, like `cuda-memcheck`. Control-flow faults (barrier
    /// deadlock, divergence misuse, watchdog) still abort.
    pub memcheck: bool,
    /// Which execution engine steps warp instructions (interp / decoded).
    /// Bit-identical results by contract; see [`ExecTier`].
    /// `Default` does *not* consult the environment — callers that want
    /// `GPUCMP_SIM_TIER` respected use [`ExecTier::from_env`].
    pub tier: ExecTier,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            memcheck: false,
            tier: ExecTier::default(),
        }
    }
}

impl ExecOptions {
    /// Serial execution on the calling thread (the default).
    pub fn serial() -> Self {
        ExecOptions::default()
    }

    /// Execute blocks across `threads` host threads (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }

    /// Enable or disable the memcheck sanitizer.
    pub fn memcheck(mut self, on: bool) -> Self {
        self.memcheck = on;
        self
    }

    /// Select the execution tier.
    pub fn tier(mut self, tier: ExecTier) -> Self {
        self.tier = tier;
        self
    }

    /// Resolve `threads == 0` to the host's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Host-side profiling counters for one launch. These measure the
/// *simulator* (wall-clock), not the simulated device, and are excluded
/// from determinism guarantees.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecProfile {
    /// Thread blocks simulated.
    pub blocks_simulated: u64,
    /// Host worker threads actually used (after clamping to the grid).
    pub host_threads: usize,
    /// Host wall-clock spent interpreting blocks, including worker join.
    pub host_exec_ns: u64,
    /// Host wall-clock spent merging per-block results (stats, L2 replay,
    /// overlay commit).
    pub host_merge_ns: u64,
    /// Bytes of global memory committed from write overlays (one per block,
    /// or one per launch for a kernel with global atomics).
    pub overlay_bytes: u64,
}

impl ExecProfile {
    /// Fold another launch's counters into this one (session totals).
    /// Counts and times add; `host_threads` keeps the latest value.
    pub fn accumulate(&mut self, other: &ExecProfile) {
        self.blocks_simulated += other.blocks_simulated;
        self.host_threads = other.host_threads;
        self.host_exec_ns += other.host_exec_ns;
        self.host_merge_ns += other.host_merge_ns;
        self.overlay_bytes += other.overlay_bytes;
    }
}

/// Everything a block produces (or, under global atomics, a whole launch).
struct BlockOutcome {
    stats: ExecStats,
    overlay: WriteOverlay,
    events: Vec<L2Event>,
    faults: Vec<DeviceFault>,
}

/// Cap on memcheck faults recorded per block (deterministic truncation —
/// blocks execute their warps round-robin, so the first `N` faults of a
/// block are the same for every host thread count).
const MEMCHECK_BLOCK_CAP: usize = 64;
/// Cap on memcheck faults reported per launch, applied in ascending block
/// index order at merge time (and while recording, when one interpreter
/// runs a whole launch).
const MEMCHECK_LAUNCH_CAP: usize = 256;

/// Validate a launch configuration against the device and kernel.
fn validate_launch(
    device: &DeviceSpec,
    kernel: &ResolvedKernel,
    cfg: &LaunchConfig,
) -> Result<(), SimError> {
    let k = &kernel.kernel;
    if cfg.params.len() != k.params.len() {
        return Err(SimError::BadParamCount {
            expected: k.params.len(),
            got: cfg.params.len(),
        });
    }
    let threads = cfg.block.count();
    if threads == 0 || cfg.grid.count() == 0 {
        return Err(SimError::InvalidLaunch("empty grid or block".into()));
    }
    if threads > device.max_workgroup_size as u64 {
        return Err(SimError::InvalidLaunch(format!(
            "block of {threads} threads exceeds device max work-group size {}",
            device.max_workgroup_size
        )));
    }
    if device.dram_partitions as usize > MAX_DRAM_PARTITIONS {
        return Err(SimError::InvalidLaunch(format!(
            "device has {} DRAM partitions, the simulator models at most {MAX_DRAM_PARTITIONS}",
            device.dram_partitions
        )));
    }
    if k.shared_bytes > device.shared_mem_per_cu {
        return Err(SimError::InvalidLaunch(format!(
            "kernel needs {} bytes of shared memory, device CU has {}",
            k.shared_bytes, device.shared_mem_per_cu
        )));
    }
    Ok(())
}

/// Execute every block of a launch, in parallel across `opts.threads` host
/// threads, and return the merged statistics, host-side profiling, and the
/// memcheck fault log (empty unless `opts.memcheck` found violations).
///
/// Results are bit-identical for every thread count: blocks run against
/// private snapshots and merge in ascending block index. Kernels with
/// global atomics run their blocks serially at any thread count.
///
/// When `opts.tier` is [`ExecTier::Decoded`] and `code` is `Some`, the
/// launch executes that pre-decoded body (the session code cache path — one
/// decode per distinct kernel). With `code == None` the kernel is decoded
/// here, once per launch. On [`ExecTier::Interp`] any provided `code` is
/// ignored and the reference interpreter runs.
pub(crate) fn run_launch_with_code(
    device: &DeviceSpec,
    kernel: &ResolvedKernel,
    gmem: &mut GlobalMemory,
    cfg: &LaunchConfig,
    const_bank: &[u8],
    opts: &ExecOptions,
    code: Option<&DecodedKernel>,
) -> Result<(ExecStats, ExecProfile, Vec<DeviceFault>), SimError> {
    validate_launch(device, kernel, cfg)?;
    let decoded_here;
    let code: Option<&DecodedKernel> = match opts.tier {
        ExecTier::Interp => None,
        ExecTier::Decoded => Some(match code {
            Some(c) => c,
            None => {
                decoded_here = decode_kernel(kernel, device);
                &decoded_here
            }
        }),
    };
    let blocks = cfg.grid.count();
    let block_threads = cfg.block.count() as u32;

    let mut stats = ExecStats {
        blocks,
        threads: blocks * block_threads as u64,
        ..ExecStats::default()
    };
    // Per-work-item scheduling overhead (CPU/Cell OpenCL runtimes).
    if device.wi_overhead_cycles > 0.0 {
        stats.issue_millicycles +=
            (stats.threads as f64 * device.wi_overhead_cycles * 1000.0) as u64;
    }
    let mut profile = ExecProfile {
        blocks_simulated: blocks,
        ..ExecProfile::default()
    };

    let has_global_atomics = kernel.kernel.body.iter().any(|i| {
        matches!(
            i,
            Inst::Atom {
                space: Space::Global,
                ..
            }
        )
    });

    let t_exec = Instant::now();
    let base: &GlobalMemory = &*gmem;
    // What to merge, in ascending block order: outcomes, up to the fault
    // that stopped the launch.
    let mut runs: Vec<Result<BlockOutcome, DeviceFault>> = Vec::new();
    if has_global_atomics {
        // Cross-block read-modify-writes resolve in block order: one
        // interpreter runs every block in turn through one overlay, so each
        // block reads the earlier blocks' writes. The instruction budget
        // and the memcheck cap span the launch. On a fault the overlay
        // still commits, so memory holds every write made before the
        // faulting instruction.
        profile.host_threads = 1;
        let mut exec = BlockExec::new(device, kernel, cfg, const_bank, opts.memcheck, code, base);
        exec.fault_cap = MEMCHECK_LAUNCH_CAP;
        let result = (0..blocks).try_for_each(|b| exec.run_linear_block(b));
        runs.push(Ok(exec.take_outcome()));
        runs.extend(result.err().map(Err));
    } else {
        let workers = opts.resolved_threads().clamp(1, blocks as usize);
        profile.host_threads = workers;
        // Blocks are assigned round-robin (block i -> worker i % workers);
        // each worker reuses one interpreter and runs every block with the
        // whole launch budget. It stops its span at the first error, or
        // once its own blocks have run more than the budget: the launch
        // has then overrun by that block, so the walk below stops there.
        let run_span = |worker: usize| -> Vec<(u64, Result<BlockOutcome, DeviceFault>)> {
            let mut out = Vec::new();
            let mut exec =
                BlockExec::new(device, kernel, cfg, const_bank, opts.memcheck, code, base);
            let mut spent = 0u64;
            let mut b = worker as u64;
            while b < blocks {
                exec.budget = cfg.inst_budget;
                match exec.run_linear_block(b) {
                    Ok(()) => {
                        let outcome = exec.take_outcome();
                        spent = spent.saturating_add(outcome.stats.warp_instructions);
                        out.push((b, Ok(outcome)));
                        if spent > cfg.inst_budget {
                            break;
                        }
                    }
                    Err(e) => {
                        out.push((b, Err(e)));
                        break;
                    }
                }
                b += workers as u64;
            }
            out
        };
        let spans = if workers == 1 {
            vec![run_span(0)]
        } else {
            let run_span = &run_span;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || run_span(w))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("simulation worker panicked"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<Result<BlockOutcome, DeviceFault>>> = Vec::new();
        slots.resize_with(blocks as usize, || None);
        for (b, r) in spans.into_iter().flatten() {
            slots[b as usize] = Some(r);
        }
        // The instruction budget spans the launch: charge each block's warp
        // instructions in block order. The first block that runs more than
        // what is left, or faults with less than the whole budget left (it
        // may have overrun first), runs again alone with what is left; its
        // fault, site included, stops the launch. An empty slot lies past
        // where the walk stops.
        let mut left = cfg.inst_budget;
        for (b, mut run) in (0u64..).zip(slots).filter_map(|(b, r)| Some((b, r?))) {
            let fits = match &run {
                Ok(outcome) => outcome.stats.warp_instructions <= left,
                Err(_) => left == cfg.inst_budget,
            };
            if !fits {
                let mut exec =
                    BlockExec::new(device, kernel, cfg, const_bank, opts.memcheck, code, base);
                exec.budget = left;
                run = Err(exec
                    .run_linear_block(b)
                    .expect_err("a block that overran or faulted faults under a smaller budget"));
            }
            if let Ok(outcome) = &run {
                left -= outcome.stats.warp_instructions;
            }
            let stop = run.is_err();
            runs.push(run);
            if stop {
                break;
            }
        }
    }
    profile.host_exec_ns = t_exec.elapsed().as_nanos() as u64;

    // Merge in ascending block order: stats add, L2 events replay through
    // the device-wide L2, overlays commit to global memory. On a fault the
    // launch stops there. Every block below the faulting one is committed
    // first; the faulting block's own writes are dropped, except under
    // global atomics, whose one outcome holds the writes made before the
    // fault.
    let t_merge = Instant::now();
    let mut l2 = device.l2.map(Cache::from_geom);
    let mut faults: Vec<DeviceFault> = Vec::new();
    for run in runs {
        let outcome = run.map_err(SimError::Fault)?;
        stats.merge(&outcome.stats);
        if let Some(l2) = &mut l2 {
            replay_l2(device, l2, &mut stats, &outcome.events);
        }
        profile.overlay_bytes += outcome.overlay.commit(gmem);
        let room = MEMCHECK_LAUNCH_CAP - faults.len();
        faults.extend(outcome.faults.into_iter().take(room));
    }
    profile.host_merge_ns = t_merge.elapsed().as_nanos() as u64;
    debug_assert_eq!(stats.check_conservation(device.warp_width), Ok(()));
    Ok((stats, profile, faults))
}

/// The interpreter for one thread block at a time.
///
/// Reads global memory as the launch-entry image `base` plus the writes in
/// its own `overlay`, and charges every memory access to its cost model.
/// Use [`crate::launch::launch_with`] for the one-call wrapper that also
/// produces timing.
pub(crate) struct BlockExec<'a> {
    pub(crate) device: &'a DeviceSpec,
    pub(crate) kernel: &'a ResolvedKernel,
    /// Global memory as the launch found it: read-only while blocks run.
    base: &'a GlobalMemory,
    /// Copy-on-write pages of every global write since the last
    /// [`BlockExec::take_outcome`].
    overlay: WriteOverlay,
    const_bank: &'a [u8],
    textures: &'a [TexBinding],
    /// Parameter slots as raw 64-bit images.
    param_bytes: Vec<u8>,
    grid: Dim3,
    block: Dim3,
    /// Statistics since the last [`BlockExec::take_outcome`]: one block's,
    /// or a whole launch's under global atomics.
    pub(crate) stats: ExecStats,
    /// Remaining warp-instruction budget: of the launch under global
    /// atomics; otherwise the whole launch budget at each block's start,
    /// charged to the launch when the blocks merge.
    pub(crate) budget: u64,
    /// Pre-decoded dispatch IR (`None` on the interp reference tier).
    code: Option<&'a DecodedKernel>,
    /// The slot-major register file.
    pub(crate) file: LaneFile,
    /// Lane buffers of the current warp instruction.
    pub(crate) bufs: LaneBufs,
    /// The memory cost model: per-block caches and the L2 event log.
    mem: MemModel<'a>,
    // ---- per-block state (reused across blocks to avoid reallocation) ----
    shared: Vec<u8>,
    local: Vec<u8>,
    pub(crate) warps: Vec<WarpState>,
    /// Scratch: per-lane addresses of the current memory instruction, the
    /// input of both the cost model and the functional access.
    lane_addr: Vec<(u32, u64)>,
    /// Launch-configured warp-instruction budget (reported in Watchdog
    /// faults; `budget` below counts down from it).
    pub(crate) budget_limit: u64,
    /// pc of the instruction currently executing, always in the *original*
    /// instruction stream regardless of tier (fault attribution).
    pub(crate) cur_pc: usize,
    /// Linear tid of the lane currently executing (fault attribution;
    /// warp-scoped faults attribute to lane 0 of the warp).
    pub(crate) cur_tid: u32,
    /// Memcheck sanitizer: record access faults instead of aborting.
    memcheck: bool,
    /// Access faults recorded under memcheck since the last
    /// [`BlockExec::take_outcome`].
    faults: Vec<DeviceFault>,
    /// Most faults `faults` keeps: per block, or per launch under global
    /// atomics.
    fault_cap: usize,
}

impl<'a> BlockExec<'a> {
    /// Build a block interpreter (the launch must already be validated).
    #[allow(clippy::too_many_arguments)]
    fn new(
        device: &'a DeviceSpec,
        kernel: &'a ResolvedKernel,
        cfg: &'a LaunchConfig,
        const_bank: &'a [u8],
        memcheck: bool,
        code: Option<&'a DecodedKernel>,
        base: &'a GlobalMemory,
    ) -> Self {
        let mut param_bytes = Vec::with_capacity(cfg.params.len() * 8);
        for p in &cfg.params {
            param_bytes.extend_from_slice(&p.to_le_bytes());
        }
        BlockExec {
            device,
            kernel,
            base,
            overlay: WriteOverlay::new(),
            const_bank,
            textures: &cfg.textures,
            param_bytes,
            grid: cfg.grid,
            block: cfg.block,
            stats: ExecStats::default(),
            budget: cfg.inst_budget,
            code,
            file: LaneFile::new(cfg.block, cfg.grid, device.warp_width),
            bufs: LaneBufs {
                a: [0; 64],
                b: [0; 64],
                c: [0; 64],
                out: [0; 64],
            },
            mem: MemModel::new(device, kernel.kernel.local_bytes, cfg.block.count()),
            shared: Vec::new(),
            local: Vec::new(),
            warps: Vec::new(),
            lane_addr: Vec::new(),
            budget_limit: cfg.inst_budget,
            cur_pc: 0,
            cur_tid: 0,
            memcheck,
            faults: Vec::new(),
            fault_cap: MEMCHECK_BLOCK_CAP,
        }
    }

    /// Attach the current fault site (pc, block, faulting thread) to a
    /// fault kind. The site is a pure function of deterministic
    /// interpreter state, so it is identical for every host thread count.
    fn site_fault(&self, kind: FaultKind, ctaid: Dim3) -> DeviceFault {
        let b = self.block;
        let tid = self.cur_tid;
        let tz = tid / (b.x * b.y);
        let rem = tid % (b.x * b.y);
        DeviceFault {
            kind,
            site: Some(FaultSite {
                pc: self.cur_pc as u32,
                block: [ctaid.x, ctaid.y, ctaid.z],
                thread: [rem % b.x, rem / b.x, tz],
            }),
        }
    }

    /// Record an access fault under memcheck, up to `fault_cap`.
    fn record_fault(&mut self, kind: FaultKind, ctaid: Dim3) {
        if self.faults.len() < self.fault_cap {
            let f = self.site_fault(kind, ctaid);
            self.faults.push(f);
        }
    }

    /// Simulate the block with linear grid index `linear`. Per-block
    /// statistics accumulate in `self.stats`; the launch-level `blocks` /
    /// `threads` totals are set by the driver, not here.
    fn run_linear_block(&mut self, linear: u64) -> Result<(), DeviceFault> {
        self.mem.start_block(linear);
        let gx = self.grid.x as u64;
        let gy = self.grid.y as u64;
        let bx = (linear % gx) as u32;
        let by = ((linear / gx) % gy) as u32;
        let bz = (linear / (gx * gy)) as u32;
        self.run_block(Dim3::new(bx, by, bz))
    }

    /// Drain the results since the last call (one block's, or a launch's),
    /// leaving the interpreter ready for its next block.
    fn take_outcome(&mut self) -> BlockOutcome {
        BlockOutcome {
            stats: std::mem::take(&mut self.stats),
            overlay: std::mem::take(&mut self.overlay),
            events: self.mem.take_events(),
            faults: std::mem::take(&mut self.faults),
        }
    }

    fn run_block(&mut self, ctaid: Dim3) -> Result<(), DeviceFault> {
        let k = &self.kernel.kernel;
        let threads = self.block.count() as u32;
        let ww = self.device.warp_width;
        // (Re)initialise per-block state.
        self.file.reset(k.regs.len());
        self.shared.clear();
        self.shared.resize(k.shared_bytes as usize, 0);
        self.local.clear();
        self.local.resize((threads * k.local_bytes) as usize, 0);

        let num_warps = threads.div_ceil(ww);
        self.warps.clear();
        for w in 0..num_warps {
            let base_tid = w * ww;
            let lanes = (threads - base_tid).min(ww);
            let full = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            self.warps.push(WarpState {
                pc: 0,
                active: full,
                full,
                lanes,
                stack: Vec::new(),
                status: WarpStatus::Running,
                base_tid,
            });
        }

        loop {
            let mut progressed = false;
            for w in 0..self.warps.len() {
                if self.warps[w].status == WarpStatus::Running {
                    match self.code {
                        None => self.run_warp(w, ctaid),
                        Some(code) => self.run_warp_decoded(w, ctaid, code),
                    }
                    .map_err(|k| self.site_fault(k, ctaid))?;
                    progressed = true;
                }
            }
            let all_done = self.warps.iter().all(|w| w.status == WarpStatus::Done);
            if all_done {
                break;
            }
            let none_running = self.warps.iter().all(|w| w.status != WarpStatus::Running);
            if none_running {
                // Everyone left is at a barrier; release if no warp already
                // finished (CUDA requires all threads to reach the barrier).
                if self.warps.iter().any(|w| w.status == WarpStatus::Done) {
                    return Err(DeviceFault::unsited(FaultKind::BarrierDeadlock));
                }
                for w in &mut self.warps {
                    w.status = WarpStatus::Running;
                    w.pc += 1; // step past the bar
                }
                continue;
            }
            if !progressed {
                return Err(DeviceFault::unsited(FaultKind::BarrierDeadlock));
            }
        }
        Ok(())
    }

    /// Run one warp until it blocks on a barrier or returns.
    fn run_warp(&mut self, w: usize, ctaid: Dim3) -> Result<(), FaultKind> {
        loop {
            let pc = self.warps[w].pc;
            let inst = self.kernel.kernel.body[pc];
            if let Inst::Label(_) = inst {
                self.warps[w].pc += 1;
                continue;
            }
            self.cur_pc = pc;
            self.cur_tid = self.warps[w].base_tid;
            if self.budget == 0 {
                return Err(FaultKind::Watchdog {
                    budget: self.budget_limit,
                });
            }
            self.budget -= 1;
            self.stats.warp_instructions += 1;
            self.stats.lane_instructions += self.warps[w].active.count_ones() as u64;
            self.stats.issue_millicycles += issue_cost_millicycles(self.device, &inst);

            match inst {
                Inst::Label(_) => unreachable!(),
                Inst::Ssy { .. } => {
                    let active = self.warps[w].active;
                    self.warps[w].stack.push(Frame {
                        restore_mask: active,
                        pending: None,
                    });
                    self.warps[w].pc += 1;
                }
                Inst::SyncPoint => {
                    let warp = &mut self.warps[w];
                    let frame = warp
                        .stack
                        .last_mut()
                        .ok_or(FaultKind::Divergence("sync without ssy frame"))?;
                    if let Some((ppc, pmask)) = frame.pending.take() {
                        warp.active = pmask;
                        warp.pc = ppc;
                    } else {
                        warp.active = frame.restore_mask;
                        warp.stack.pop();
                        warp.pc += 1;
                    }
                }
                Inst::Bra { target: _, pred } => {
                    let t = self.kernel.target(pc);
                    let refill = (self.device.taken_branch_cycles * 1000.0) as u64;
                    match pred {
                        None => {
                            self.warps[w].pc = t;
                            self.stats.issue_millicycles += refill;
                        }
                        Some((p, polarity)) => {
                            let taken = self.pred_mask(w, p, polarity);
                            let warp = &mut self.warps[w];
                            let active = warp.active;
                            if taken == active {
                                warp.pc = t;
                                self.stats.issue_millicycles += refill;
                            } else if taken == 0 {
                                warp.pc += 1;
                            } else {
                                self.stats.divergent_branches += 1;
                                let frame = warp
                                    .stack
                                    .last_mut()
                                    .ok_or(FaultKind::Divergence("divergent branch without ssy"))?;
                                self.stats.issue_millicycles += refill;
                                match &mut frame.pending {
                                    None => frame.pending = Some((t, taken)),
                                    Some((ppc, pmask)) if *ppc == t => {
                                        *pmask |= taken;
                                    }
                                    Some(_) => {
                                        return Err(FaultKind::Divergence(
                                            "conflicting divergence targets in one region",
                                        ))
                                    }
                                }
                                warp.active = active & !taken;
                                warp.pc += 1;
                            }
                        }
                    }
                }
                Inst::Bar => {
                    let warp = &mut self.warps[w];
                    if warp.active != warp.full {
                        return Err(FaultKind::Divergence("barrier reached by divergent warp"));
                    }
                    self.stats.barriers += 1;
                    self.stats.issue_millicycles +=
                        (self.device.barrier_cost_cycles * 1000.0) as u64;
                    warp.status = WarpStatus::AtBarrier;
                    return Ok(()); // pc advanced at release
                }
                Inst::Ret => {
                    let warp = &mut self.warps[w];
                    if !warp.stack.is_empty() {
                        return Err(FaultKind::Divergence("ret inside ssy region"));
                    }
                    warp.status = WarpStatus::Done;
                    return Ok(());
                }
                _ => {
                    self.exec_lanes(w, ctaid, &inst)?;
                    self.warps[w].pc += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Lane-level execution
    // ------------------------------------------------------------------

    /// Execute a data instruction for every active lane of warp `w`.
    pub(crate) fn exec_lanes(
        &mut self,
        w: usize,
        ctaid: Dim3,
        inst: &Inst,
    ) -> Result<(), FaultKind> {
        // Memory instructions need transaction modelling over the whole
        // warp and share their handlers with the decoded tier; everything
        // else is a pure per-lane register update.
        match *inst {
            Inst::Ld { space, ty, d, addr } => {
                self.exec_ld(w, ctaid, space, ty, d.0, DAddr::new(addr))
            }
            Inst::St { space, ty, addr, a } => {
                let a = decode_src(a, ty);
                self.exec_st(w, ctaid, space, ty, DAddr::new(addr), a)
            }
            Inst::Tex { ty, d, tex, idx } => {
                self.exec_tex(w, ctaid, ty, d.0, tex.0, decode_src(idx, Ty::S32))
            }
            Inst::Atom {
                space,
                op,
                ty,
                d,
                addr,
                b,
                c,
            } => {
                let (b, c) = (decode_src(b, ty), decode_src(c, ty));
                self.exec_atom(w, ctaid, space, op, ty, d.0, DAddr::new(addr), b, c)
            }
            _ => {
                let active = self.warps[w].active;
                let base = self.warps[w].base_tid;
                let ww = self.device.warp_width;
                for lane in 0..ww {
                    if active & (1u64 << lane) == 0 {
                        continue;
                    }
                    let tid = base + lane;
                    self.cur_tid = tid;
                    self.exec_scalar(tid, ctaid, inst)?;
                }
                Ok(())
            }
        }
    }

    /// Pure register-to-register execution for one thread.
    fn exec_scalar(&mut self, tid: u32, ctaid: Dim3, inst: &Inst) -> Result<(), FaultKind> {
        match *inst {
            Inst::Mov { ty, d, a } => {
                let v = load_extend(self.eval(tid, ctaid, a, ty), ty);
                self.set_reg(tid, d, v);
            }
            Inst::Cvt { dty, sty, d, a } => {
                let v = self.eval(tid, ctaid, a, sty);
                self.set_reg(tid, d, convert(v, sty, dty));
            }
            Inst::Un { op, ty, d, a } => {
                let v = self.eval(tid, ctaid, a, ty);
                let r = alu1(op, ty, v);
                if op == Op1::Sqrt || op == Op1::Rsqrt || op == Op1::Rcp {
                    self.stats.flops += 1;
                }
                self.set_reg(tid, d, r);
            }
            Inst::Bin { op, ty, d, a, b } => {
                let va = self.eval(tid, ctaid, a, ty);
                let vb = self.eval(tid, ctaid, b, ty);
                let r = alu2(op, ty, va, vb)?;
                if ty.is_float() && !op.is_logic() && !op.is_shift() {
                    self.stats.flops += 1;
                }
                self.set_reg(tid, d, r);
            }
            Inst::Tern { op, ty, d, a, b, c } => {
                let va = self.eval(tid, ctaid, a, ty);
                let vb = self.eval(tid, ctaid, b, ty);
                let vc = self.eval(tid, ctaid, c, ty);
                let r = alu3(op, ty, va, vb, vc);
                if ty.is_float() {
                    self.stats.flops += 2;
                }
                self.set_reg(tid, d, r);
            }
            Inst::Setp { cmp, ty, d, a, b } => {
                let va = self.eval(tid, ctaid, a, ty);
                let vb = self.eval(tid, ctaid, b, ty);
                let r = compare(cmp, ty, va, vb) as u64;
                self.set_reg(tid, d, r);
            }
            Inst::Selp { ty, d, a, b, p } => {
                let va = self.eval(tid, ctaid, a, ty);
                let vb = self.eval(tid, ctaid, b, ty);
                let vp = self.get_reg(tid, p);
                self.set_reg(tid, d, load_extend(if vp != 0 { va } else { vb }, ty));
            }
            _ => unreachable!("exec_scalar on non-scalar instruction"),
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Memory instructions (shared by both tiers)
    // ------------------------------------------------------------------

    /// The lanes of warp `w` for a warp-wide operation.
    #[inline]
    pub(crate) fn warp_lanes(&self, w: usize, ctaid: Dim3) -> WarpLanes {
        let warp = &self.warps[w];
        WarpLanes {
            base: warp.base_tid as usize,
            n: warp.lanes as usize,
            active: warp.active,
            full: warp.full,
            ctaid,
        }
    }

    /// Gather the (lane, byte-address) pairs of the current warp memory op
    /// into `self.lane_addr`, in lane order.
    fn gather_addresses(&mut self, v: WarpLanes, addr: DAddr) {
        let base = self.file.fetch(v, addr.base, &mut self.bufs.a);
        let lane = |i: usize| {
            (
                (v.base + i) as u32,
                base[i].wrapping_add(addr.offset as u64),
            )
        };
        self.lane_addr.clear();
        if v.active == v.full {
            self.lane_addr.extend((0..v.n).map(lane));
        } else {
            self.lane_addr.extend(lanes_of(v.active).map(lane));
        }
    }

    /// Whether the gathered global or shared access of `size` bytes takes
    /// the warp path: on the decoded tier only, with memcheck off, and only
    /// when [`lanes_fit`] shows that no lane can fault. Otherwise the
    /// per-lane loops run, which report faults lane by lane.
    fn warp_access(&self, space: Space, size: u32) -> bool {
        if self.code.is_none() || self.memcheck {
            return false;
        }
        let limit = match space {
            Space::Global => self.base.capacity(),
            Space::Shared => self.shared.len() as u64,
            _ => return false,
        };
        lanes_fit(&self.lane_addr, size, limit)
    }

    /// Settle a lane's faulting access: under memcheck an access fault is
    /// recorded and the lane goes on with a zero read (or a dropped
    /// write); any other fault aborts, attributed to lane `tid`.
    fn lane_fault(&mut self, k: FaultKind, tid: u32, ctaid: Dim3) -> Result<u64, FaultKind> {
        self.cur_tid = tid;
        if self.memcheck && k.is_access_fault() {
            self.record_fault(k, ctaid);
            Ok(0)
        } else {
            Err(k)
        }
    }

    pub(crate) fn exec_ld(
        &mut self,
        w: usize,
        ctaid: Dim3,
        space: Space,
        ty: Ty,
        d: u32,
        addr: DAddr,
    ) -> Result<(), FaultKind> {
        let v = self.warp_lanes(w, ctaid);
        let size = ty.size_bytes();
        if let (Space::Param, DSrc::Imm(base)) = (space, addr.base) {
            // A uniform parameter load reads once and broadcasts. A faulting
            // read takes the per-lane path, which reports every lane.
            let a = base.wrapping_add(addr.offset as u64);
            if let Ok(x) = read_bytes(&self.param_bytes, a, size, Space::Param) {
                self.bufs.out[..v.n].fill(load_extend(x, ty));
                self.file.write_back(d, v, &self.bufs.out);
                return Ok(());
            }
        }
        self.gather_addresses(v, addr);
        // Cost model first (needs the address vector), then functional reads.
        self.mem.access(
            space,
            AccessKind::Load,
            size,
            &self.lane_addr,
            &mut self.stats,
        );
        if self.warp_access(space, size) {
            let (lanes, out) = (&self.lane_addr, &mut self.bufs.out[..v.n]);
            match space {
                Space::Shared => read_lanes_in(&self.shared, lanes, size, v.base, out),
                _ => self.overlay.read_lanes(self.base, lanes, size, v.base, out),
            }
            with_ty!(ty, T => out.iter_mut().for_each(|x| *x = load_extend(*x, T)));
            self.file.write_back(d, v, &self.bufs.out);
            return Ok(());
        }
        // One lane loop per (type, space): the access size and the register
        // extension are constants in each.
        with_ty!(ty, T => {
            let size = T.size_bytes();
            match space {
                Space::Global => self.ld_lanes(ctaid, T, d, |s, _, a| {
                    if s.memcheck {
                        s.base.check_alloc(a, size as u64)?;
                    }
                    s.overlay.read(s.base, a, size)
                }),
                Space::Shared => self.ld_lanes(ctaid, T, d, |s, _, a| {
                    read_bytes(&s.shared, a, size, Space::Shared)
                }),
                Space::Local => self.ld_lanes(ctaid, T, d, |s, tid, a| s.local_read(tid, a, size)),
                Space::Const => self.ld_lanes(ctaid, T, d, |s, _, a| {
                    read_bytes(s.const_bank, a, size, Space::Const)
                }),
                Space::Param => self.ld_lanes(ctaid, T, d, |s, _, a| {
                    read_bytes(&s.param_bytes, a, size, Space::Param)
                }),
            }
        })
    }

    /// The functional half of a warp load: `read` every gathered lane
    /// address, in lane order, into register `d`. Generic over the read so
    /// the state space is matched once per warp access, not per lane.
    #[inline(always)]
    fn ld_lanes(
        &mut self,
        ctaid: Dim3,
        ty: Ty,
        d: u32,
        read: impl Fn(&Self, u32, u64) -> Result<u64, FaultKind>,
    ) -> Result<(), FaultKind> {
        for j in 0..self.lane_addr.len() {
            let (tid, a) = self.lane_addr[j];
            let x = match read(self, tid, a) {
                Ok(x) => x,
                Err(k) => self.lane_fault(k, tid, ctaid)?,
            };
            self.file.set(d, tid, load_extend(x, ty));
        }
        Ok(())
    }

    pub(crate) fn exec_st(
        &mut self,
        w: usize,
        ctaid: Dim3,
        space: Space,
        ty: Ty,
        addr: DAddr,
        a: DSrc,
    ) -> Result<(), FaultKind> {
        let v = self.warp_lanes(w, ctaid);
        self.gather_addresses(v, addr);
        self.file.load(v, a, &mut self.bufs.b);
        let size = ty.size_bytes();
        self.mem.access(
            space,
            AccessKind::Store,
            size,
            &self.lane_addr,
            &mut self.stats,
        );
        if self.warp_access(space, size) {
            let (lanes, vals) = (&self.lane_addr, &self.bufs.b[..v.n]);
            match space {
                Space::Shared => write_lanes_in(&mut self.shared, lanes, size, v.base, vals),
                _ => self
                    .overlay
                    .write_lanes(self.base, lanes, size, v.base, vals),
            }
            return Ok(());
        }
        // One lane loop per (type, space), as for loads.
        with_ty!(ty, T => {
            let size = T.size_bytes();
            match space {
                Space::Global => self.st_lanes(ctaid, v, |s, _, a, x| {
                    if s.memcheck {
                        s.base.check_alloc(a, size as u64)?;
                    }
                    s.overlay.write(s.base, a, size, x)
                }),
                Space::Shared => self.st_lanes(ctaid, v, |s, _, a, x| {
                    write_bytes(&mut s.shared, a, size, x, Space::Shared)
                }),
                Space::Local => {
                    self.st_lanes(ctaid, v, |s, tid, a, x| s.local_write(tid, a, size, x))
                }
                Space::Const | Space::Param => {
                    self.st_lanes(ctaid, v, |_, _, _, _| Err(FaultKind::ReadOnly(space)))
                }
            }
        })
    }

    /// The functional half of a warp store: `write` the value in
    /// `bufs.b` of every gathered lane, in lane order (so the highest lane
    /// wins a same-address conflict).
    #[inline(always)]
    fn st_lanes(
        &mut self,
        ctaid: Dim3,
        v: WarpLanes,
        write: impl Fn(&mut Self, u32, u64, u64) -> Result<(), FaultKind>,
    ) -> Result<(), FaultKind> {
        for j in 0..self.lane_addr.len() {
            let (tid, a) = self.lane_addr[j];
            let x = self.bufs.b[tid as usize - v.base];
            if let Err(k) = write(self, tid, a, x) {
                // Sanitizer semantics: report and drop the store.
                self.lane_fault(k, tid, ctaid)?;
            }
        }
        Ok(())
    }

    pub(crate) fn exec_tex(
        &mut self,
        w: usize,
        ctaid: Dim3,
        ty: Ty,
        d: u32,
        tex: u8,
        idx: DSrc,
    ) -> Result<(), FaultKind> {
        let binding = self
            .textures
            .get(tex as usize)
            .copied()
            .ok_or(FaultKind::UnboundTexture(tex))?;
        let size = ty.size_bytes();
        let v = self.warp_lanes(w, ctaid);
        self.file.load(v, idx, &mut self.bufs.a);
        self.lane_addr.clear();
        for lane in lanes_of(v.active) {
            let tid = (v.base + lane) as u32;
            let i = self.bufs.a[lane] as u32 as i64;
            if i < 0 || i as u64 >= binding.elems {
                let k = FaultKind::TextureOutOfRange {
                    slot: tex,
                    index: i,
                    len: binding.elems,
                };
                // Under memcheck: report and give the lane a zero fetch.
                self.lane_fault(k, tid, ctaid)?;
                self.file.set(d, tid, 0);
                continue;
            }
            self.lane_addr
                .push((tid, binding.ptr.0 + i as u64 * size as u64));
        }
        self.mem.access(
            Space::Global,
            AccessKind::Tex,
            size,
            &self.lane_addr,
            &mut self.stats,
        );
        self.ld_lanes(ctaid, ty, d, |s, _, a| s.overlay.read(s.base, a, size))
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_atom(
        &mut self,
        w: usize,
        ctaid: Dim3,
        space: Space,
        op: AtomOp,
        ty: Ty,
        d: u32,
        addr: DAddr,
        b: DSrc,
        c: DSrc,
    ) -> Result<(), FaultKind> {
        let v = self.warp_lanes(w, ctaid);
        self.gather_addresses(v, addr);
        self.file.load(v, b, &mut self.bufs.b);
        self.file.load(v, c, &mut self.bufs.c);
        let size = ty.size_bytes();
        self.mem.access(
            space,
            AccessKind::Atom,
            size,
            &self.lane_addr,
            &mut self.stats,
        );
        for i in 0..self.lane_addr.len() {
            let (tid, a) = self.lane_addr[i];
            self.cur_tid = tid;
            let old = match self.space_read(space, tid, a, size) {
                Ok(v) => v,
                Err(k) if self.memcheck && k.is_access_fault() => {
                    // Report and skip the whole read-modify-write.
                    self.record_fault(k, ctaid);
                    self.file.set(d, tid, 0);
                    continue;
                }
                Err(k) => return Err(k),
            };
            let old = load_extend(old, ty);
            let lane = tid as usize - v.base;
            let (vb, vc) = (self.bufs.b[lane], self.bufs.c[lane]);
            let new = match op {
                AtomOp::Add => alu2(Op2::Add, ty, old, vb)?,
                AtomOp::Min => alu2(Op2::Min, ty, old, vb)?,
                AtomOp::Max => alu2(Op2::Max, ty, old, vb)?,
                AtomOp::Exch => vb,
                AtomOp::Cas => {
                    if old == vc {
                        vb
                    } else {
                        old
                    }
                }
            };
            self.space_write(space, tid, a, size, new)?;
            self.file.set(d, tid, old);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // State-space functional access
    // ------------------------------------------------------------------

    /// Lane `tid`'s read of `space`. A global read passes the
    /// allocation-granular check memcheck adds on top of the physical
    /// bounds check, and sees the overlay's writes over the base image.
    fn space_read(&self, space: Space, tid: u32, addr: u64, size: u32) -> Result<u64, FaultKind> {
        match space {
            Space::Global => {
                if self.memcheck {
                    self.base.check_alloc(addr, size as u64)?;
                }
                self.overlay.read(self.base, addr, size)
            }
            Space::Shared => read_bytes(&self.shared, addr, size, Space::Shared),
            Space::Local => self.local_read(tid, addr, size),
            Space::Const => read_bytes(self.const_bank, addr, size, Space::Const),
            Space::Param => read_bytes(&self.param_bytes, addr, size, Space::Param),
        }
    }

    /// Lane `tid`'s write of `space`, checked as [`BlockExec::space_read`]
    /// checks a read.
    fn space_write(
        &mut self,
        space: Space,
        tid: u32,
        addr: u64,
        size: u32,
        value: u64,
    ) -> Result<(), FaultKind> {
        match space {
            Space::Global => {
                if self.memcheck {
                    self.base.check_alloc(addr, size as u64)?;
                }
                self.overlay.write(self.base, addr, size, value)
            }
            Space::Shared => write_bytes(&mut self.shared, addr, size, value, Space::Shared),
            Space::Local => self.local_write(tid, addr, size, value),
            Space::Const => Err(FaultKind::ReadOnly(Space::Const)),
            Space::Param => Err(FaultKind::ReadOnly(Space::Param)),
        }
    }

    /// Bounds check of a per-thread local access against `local_bytes`;
    /// returns the byte offset of `tid`'s slot in the block's local image.
    fn local_offset(&self, tid: u32, addr: u64, size: u32) -> Result<u64, FaultKind> {
        let lb = self.kernel.kernel.local_bytes as u64;
        if addr + size as u64 > lb {
            return Err(FaultKind::OutOfBounds {
                space: Space::Local,
                addr,
                size,
                limit: lb,
            });
        }
        Ok(tid as u64 * lb + addr)
    }

    fn local_read(&self, tid: u32, addr: u64, size: u32) -> Result<u64, FaultKind> {
        let at = self.local_offset(tid, addr, size)?;
        read_bytes(&self.local, at, size, Space::Local)
    }

    fn local_write(&mut self, tid: u32, addr: u64, size: u32, value: u64) -> Result<(), FaultKind> {
        let at = self.local_offset(tid, addr, size)?;
        write_bytes(&mut self.local, at, size, value, Space::Local)
    }

    // ------------------------------------------------------------------
    // Operand / register plumbing (the reference interpreter's per-lane
    // view; the decoded tier reads whole lane slices through `LaneFile`)
    // ------------------------------------------------------------------

    #[inline]
    fn get_reg(&self, tid: u32, r: Reg) -> u64 {
        self.file.get(r.0, tid)
    }

    #[inline]
    fn set_reg(&mut self, tid: u32, r: Reg, v: u64) {
        self.file.set(r.0, tid, v);
    }

    /// Evaluate an operand in the context of type `ty`, returning raw bits.
    fn eval(&self, tid: u32, ctaid: Dim3, op: Operand, ty: Ty) -> u64 {
        match op {
            Operand::Reg(r) => self.get_reg(tid, r),
            Operand::ImmI(v) => {
                if ty.is_float() {
                    float_bits(ty, v as f64)
                } else {
                    v as u64
                }
            }
            Operand::ImmF(v) => float_bits(ty, v),
            Operand::Special(s) => self.file.special(tid, ctaid, s),
        }
    }

    /// Mask of active lanes whose predicate register `p` equals `polarity`.
    fn pred_mask(&self, w: usize, p: Reg, polarity: bool) -> u64 {
        let warp = &self.warps[w];
        let ww = self.device.warp_width;
        let mut mask = 0u64;
        for lane in 0..ww {
            let bit = 1u64 << lane;
            if warp.active & bit == 0 {
                continue;
            }
            let v = self.get_reg(warp.base_tid + lane, p) != 0;
            if v == polarity {
                mask |= bit;
            }
        }
        mask
    }
}

/// The lanes of one warp taking part in a warp-wide operation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WarpLanes {
    /// Linear tid of lane 0.
    pub(crate) base: usize,
    /// Lanes that exist: the length of every lane slice.
    pub(crate) n: usize,
    /// Active lanes.
    pub(crate) active: u64,
    /// Existing lanes (the low `n` bits).
    pub(crate) full: u64,
    pub(crate) ctaid: Dim3,
}

/// The set lanes of `mask`, ascending: active lanes in lane order.
#[inline]
pub(crate) fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Lane buffers of one warp instruction, reused for every instruction of a
/// launch and never re-zeroed: operand slices with no home in the register
/// file (immediates, special registers, copies a memory op keeps while it
/// writes registers) and the result slice.
pub(crate) struct LaneBufs {
    pub(crate) a: [u64; 64],
    pub(crate) b: [u64; 64],
    pub(crate) c: [u64; 64],
    pub(crate) out: [u64; 64],
}

/// A block's register file plus what a warp-wide operand fetch needs to
/// produce special registers.
pub(crate) struct LaneFile {
    /// Slot-major: `regs[slot * threads + tid]`, so one register of one
    /// warp is a contiguous lane slice.
    regs: Vec<u64>,
    /// Threads per block: the stride between register slots.
    threads: usize,
    block: Dim3,
    grid: Dim3,
    warp_width: u32,
}

impl LaneFile {
    fn new(block: Dim3, grid: Dim3, warp_width: u32) -> Self {
        LaneFile {
            regs: Vec::new(),
            threads: block.count() as usize,
            block,
            grid,
            warp_width,
        }
    }

    /// Zero the register file for a block of a kernel with `nregs` slots.
    fn reset(&mut self, nregs: usize) {
        self.regs.clear();
        self.regs.resize(nregs.max(1) * self.threads, 0);
    }

    #[inline]
    pub(crate) fn get(&self, slot: u32, tid: u32) -> u64 {
        self.regs[slot as usize * self.threads + tid as usize]
    }

    #[inline]
    pub(crate) fn set(&mut self, slot: u32, tid: u32, v: u64) {
        self.regs[slot as usize * self.threads + tid as usize] = v;
    }

    /// Register `slot` of the warp `v`, one entry per existing lane.
    #[inline]
    pub(crate) fn lanes(&self, slot: u32, v: WarpLanes) -> &[u64] {
        let at = slot as usize * self.threads + v.base;
        &self.regs[at..at + v.n]
    }

    /// Write `out` into register `slot` for the active lanes of `v`.
    #[inline]
    pub(crate) fn write_back(&mut self, slot: u32, v: WarpLanes, out: &[u64; 64]) {
        let at = slot as usize * self.threads + v.base;
        let dst = &mut self.regs[at..at + v.n];
        if v.active == v.full {
            dst.copy_from_slice(&out[..v.n]);
        } else {
            for lane in lanes_of(v.active) {
                dst[lane] = out[lane];
            }
        }
    }

    /// The lane slice of operand `src` for warp `v`: a register is read in
    /// place, anything else is produced into `buf` by [`LaneFile::load`].
    #[inline]
    pub(crate) fn fetch<'s>(
        &'s self,
        v: WarpLanes,
        src: DSrc,
        buf: &'s mut [u64; 64],
    ) -> &'s [u64] {
        match src {
            DSrc::Reg(slot) => self.lanes(slot, v),
            _ => {
                self.load(v, src, buf);
                &buf[..v.n]
            }
        }
    }

    /// The lanes of operand `src` for warp `v`, written into `buf`:
    /// registers copied, immediates and warp-uniform specials broadcast,
    /// `%laneid` counted, and `%tid.*` walked from the warp's first thread
    /// — two divides per warp where the per-lane path pays two to four per
    /// lane.
    #[inline]
    pub(crate) fn load(&self, v: WarpLanes, src: DSrc, buf: &mut [u64; 64]) {
        let out = &mut buf[..v.n];
        let axis = match src {
            DSrc::Reg(slot) => return out.copy_from_slice(self.lanes(slot, v)),
            DSrc::Imm(bits) => return out.fill(bits),
            DSrc::Special(Special::LaneId) => {
                for (lane, o) in out.iter_mut().enumerate() {
                    *o = lane as u64;
                }
                return;
            }
            DSrc::Special(Special::TidX) => 0,
            DSrc::Special(Special::TidY) => 1,
            DSrc::Special(Special::TidZ) => 2,
            DSrc::Special(s) => return out.fill(self.special(v.base as u32, v.ctaid, s)),
        };
        let (b, t0) = (self.block, v.base as u32);
        let mut t = [t0 % b.x, t0 / b.x % b.y, t0 / (b.x * b.y)];
        for o in out {
            *o = t[axis] as u64;
            t[0] += 1;
            if t[0] == b.x {
                t[0] = 0;
                t[1] += 1;
                if t[1] == b.y {
                    t[1] = 0;
                    t[2] += 1;
                }
            }
        }
    }

    /// The value of special register `s` for thread `tid` of block
    /// `ctaid`: the reference interpreter's per-lane path.
    pub(crate) fn special(&self, tid: u32, ctaid: Dim3, s: Special) -> u64 {
        let b = self.block;
        let tz = tid / (b.x * b.y);
        let rem = tid % (b.x * b.y);
        let ty_ = rem / b.x;
        let tx = rem % b.x;
        let ww = self.warp_width;
        (match s {
            Special::TidX => tx,
            Special::TidY => ty_,
            Special::TidZ => tz,
            Special::NtidX => b.x,
            Special::NtidY => b.y,
            Special::NtidZ => b.z,
            Special::CtaidX => ctaid.x,
            Special::CtaidY => ctaid.y,
            Special::CtaidZ => ctaid.z,
            Special::NctaidX => self.grid.x,
            Special::NctaidY => self.grid.y,
            Special::NctaidZ => self.grid.z,
            Special::LaneId => tid % ww,
            Special::WarpId => tid / ww,
            Special::WarpSize => ww,
        }) as u64
    }
}
