//! The shared device session and the `Gpu` host-API trait.
//!
//! The trait splits in two so it stays object-safe (benchmarks run against
//! `&mut dyn Gpu`): [`Gpu`] holds the dispatchable core (raw transfers,
//! build, [`Gpu::launch_config`]), and the blanket extension [`GpuExt`]
//! layers the generic typed API on top — [`GpuExt::h2d_t`] /
//! [`GpuExt::d2h_t`] over [`DeviceScalar`], typed [`GpuExt::alloc`]
//! returning [`Buffer`], and [`GpuExt::launch`] accepting any
//! `impl Into<LaunchConfig>` (a config, a reference, or a
//! [`gpucmp_sim::LaunchConfigBuilder`]).

use crate::buffer::{Buffer, DeviceScalar};
use crate::error::RtError;
use crate::inject::{FaultPlan, LaunchAction, TransferAction};
use crate::stream::{Event, PendingOp, PendingPayload, ResetReport, Stream, StreamState};
use gpucmp_compiler::{compile_with_style, Api, KernelDef};
use gpucmp_ptx::{kernel_hash, ResolvedKernel};
use gpucmp_sim::launch::Dim3;
use gpucmp_sim::timing::{TimelineOp, TimelineResource, TimelineState, Timing};
use gpucmp_sim::{
    decode_kernel, launch_with_code as sim_launch_with_code, DecodedKernel, DevPtr, DeviceFault,
    DeviceSpec, ExecOptions, ExecProfile, ExecStats, ExecTier, GlobalMemory, LaunchConfig,
    LaunchReport,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// PCIe effective host↔device bandwidth in GB/s (PCIe 2.0 x16 era).
pub const PCIE_GBS: f64 = 5.7;
/// Fixed per-transfer latency in ns.
pub const MEMCPY_LATENCY_NS: f64 = 10_000.0;
/// Default simulated device-memory arena (kept well under the cards' real
/// capacity so many sessions can coexist in host RAM).
pub const DEFAULT_ARENA_BYTES: u64 = 192 << 20;

/// Handle to a kernel loaded into a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelHandle(pub usize);

/// A kernel loaded into a session, ready to launch.
#[derive(Clone, Debug)]
pub struct LoadedKernel {
    /// Kernel name.
    pub name: String,
    /// Resolved executable form (shared so launches don't copy the body).
    pub resolved: Arc<ResolvedKernel>,
    /// Packed constant bank.
    pub const_bank: Arc<Vec<u8>>,
    /// Static PTX statistics (pre-backend), for Table V style analyses.
    pub ptx_stats: gpucmp_ptx::InstStats,
    /// Registers the backend had to spill against the device cap.
    pub spilled: u32,
    /// Stable content hash of the executable form — the key into the
    /// session's pre-decoded code cache.
    pub code_hash: u64,
}

impl LoadedKernel {
    /// Physical registers per thread.
    pub fn phys_regs(&self) -> u32 {
        self.resolved.kernel.phys_regs
    }

    /// Static shared memory per block in bytes.
    pub fn shared_bytes(&self) -> u32 {
        self.resolved.kernel.shared_bytes
    }

    /// Per-thread local (spill) bytes.
    pub fn local_bytes(&self) -> u32 {
        self.resolved.kernel.local_bytes
    }
}

/// Transfer direction of a recorded PCIe copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferDir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
}

/// One event of a traced session, on the virtual timeline.
///
/// Recorded only while [`Session::set_tracing`] is on; the stream is what
/// `gpucmp-trace` serialises to chrome-trace JSON.
// Launch is by far the most common variant in real sessions; boxing its
// counters would put an allocation on every launch to save bytes on the
// rare Transfer records.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// A kernel launch (API overhead followed by the kernel itself).
    Launch {
        /// Kernel name.
        kernel: String,
        /// Virtual time of API submission, ns.
        start_ns: f64,
        /// API + hardware launch overhead before the kernel starts, ns.
        overhead_ns: f64,
        /// Modelled kernel duration, ns.
        kernel_ns: f64,
        /// Grid dimensions in blocks.
        grid: Dim3,
        /// Block dimensions in threads.
        block: Dim3,
        /// Exact execution counters.
        stats: ExecStats,
        /// Modelled timing breakdown.
        timing: Timing,
        /// Stream the launch ran on (0 = default stream).
        stream: u32,
    },
    /// A PCIe transfer.
    Transfer {
        /// Direction.
        dir: TransferDir,
        /// Virtual start time, ns.
        start_ns: f64,
        /// Duration, ns.
        dur_ns: f64,
        /// Bytes moved.
        bytes: u64,
        /// Stream the transfer ran on (0 = default stream).
        stream: u32,
    },
    /// A device fault pinned to the virtual timeline: either a memcheck
    /// record from a completed launch or the fault that aborted one.
    Fault {
        /// Name of the faulting kernel.
        kernel: String,
        /// Virtual time the fault is pinned to, ns.
        t_ns: f64,
        /// Human-readable diagnostics (fault kind + site).
        desc: String,
        /// Offending instruction index, when attributable.
        pc: Option<u32>,
        /// Faulting block coordinates, when attributable.
        block: Option<[u32; 3]>,
        /// Faulting thread coordinates, when attributable.
        thread: Option<[u32; 3]>,
        /// Compute unit the faulting block was scheduled on (round-robin
        /// distribution), `0` for unsited faults.
        cu: u32,
        /// Stream the faulting launch ran on (0 = default stream).
        stream: u32,
    },
}

/// Build the trace event for one device fault.
fn fault_event(
    kernel: &str,
    t_ns: f64,
    fault: &DeviceFault,
    grid: Dim3,
    cus: u32,
    stream: u32,
) -> SessionEvent {
    SessionEvent::Fault {
        kernel: kernel.to_string(),
        t_ns,
        desc: fault.to_string(),
        pc: fault.site.map(|s| s.pc),
        block: fault.site.map(|s| s.block),
        thread: fault.site.map(|s| s.thread),
        cu: fault
            .linear_block(grid.x, grid.y)
            .map_or(0, |b| (b % cus.max(1) as u64) as u32),
        stream,
    }
}

/// Whether `GPUCMP_MEMCHECK` asks for the memcheck sanitizer.
fn memcheck_env() -> bool {
    std::env::var("GPUCMP_MEMCHECK")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
        })
        .unwrap_or(false)
}

/// One device context: memory, loaded kernels, and the virtual clock.
#[derive(Debug)]
pub struct Session {
    /// The simulated device.
    pub device: DeviceSpec,
    /// Device global memory.
    pub gmem: GlobalMemory,
    kernels: Vec<LoadedKernel>,
    now_ns: f64,
    launches: u64,
    kernel_ns_total: f64,
    exec: ExecOptions,
    profile_total: ExecProfile,
    trace: Option<Vec<SessionEvent>>,
    /// Display of the device fault that poisoned the context, if any.
    fault: Option<String>,
    memcheck: bool,
    inject: Option<FaultPlan>,
    /// Per-engine device timeline (persisted across sync points).
    timeline: TimelineState,
    /// Enqueued ops not yet committed to the timeline.
    pending: Vec<PendingOp>,
    /// Stream table; index = stream id, entry 0 is the default stream.
    streams: Vec<StreamState>,
    /// Staged d2h payloads keyed by the enqueuing event.
    readbacks: BTreeMap<(u32, u64), Vec<u8>>,
    /// Pre-decoded dispatch IR by kernel content hash: each distinct kernel
    /// is decoded at most once per context generation, however many times
    /// it is rebuilt or launched. [`Session::reset`] evicts the cache
    /// wholesale: a reset draws a hard line (as `cudaDeviceReset` does), so
    /// a poisoned-then-recycled session starts from nothing — no decoded
    /// code outlives the context that built it, and a pooled server slot
    /// cannot accumulate kernels across the tenants it serves.
    code_cache: HashMap<u64, Arc<DecodedKernel>>,
    /// Number of kernel decodes performed (cache misses) — observability
    /// for tests and reports. Cumulative across resets.
    decode_count: u64,
    /// Number of times [`Session::reset`] ran — lifecycle accounting for
    /// pooled-slot recycling.
    resets: u64,
    /// Hard per-launch instruction-budget ceiling. When set, every launch
    /// runs with `min(cfg.inst_budget, cap)` — the enforcement point for a
    /// server's per-tenant instruction quota: a runaway kernel trips the
    /// simulator watchdog instead of monopolising the host.
    inst_budget_cap: Option<u64>,
}

impl Session {
    /// Create a session on `device` with the default memory arena.
    ///
    /// The memcheck sanitizer starts on if the `GPUCMP_MEMCHECK`
    /// environment variable is set to anything but `0`/`false`, and the
    /// execution tier comes from `GPUCMP_SIM_TIER` (default: decoded).
    pub fn new(device: DeviceSpec) -> Self {
        Session::with_arena(device, DEFAULT_ARENA_BYTES)
    }

    /// [`Session::new`] with an explicit memory-arena ceiling: the arena
    /// is `min(device capacity, arena_bytes)` and is preallocated up
    /// front — the sizing knob for servers that pool many sessions and
    /// want each slot's arena paid for once, at pool-build time, never
    /// per request. [`Session::reset`] keeps the configured size.
    pub fn with_arena(device: DeviceSpec, arena_bytes: u64) -> Self {
        let cap = (device.mem_capacity_mib as u64 * 1024 * 1024).min(arena_bytes);
        Session {
            device,
            gmem: GlobalMemory::new(cap),
            kernels: Vec::new(),
            now_ns: 0.0,
            launches: 0,
            kernel_ns_total: 0.0,
            exec: ExecOptions::default().tier(ExecTier::from_env()),
            profile_total: ExecProfile::default(),
            trace: None,
            fault: None,
            memcheck: memcheck_env(),
            inject: None,
            timeline: TimelineState::new(),
            pending: Vec::new(),
            streams: vec![StreamState::default()],
            readbacks: BTreeMap::new(),
            code_cache: HashMap::new(),
            decode_count: 0,
            resets: 0,
            inst_budget_cap: None,
        }
    }

    /// The fault that poisoned this context, if any (CUDA-style sticky
    /// error semantics: once a kernel faults, every subsequent launch,
    /// transfer, or allocation fails with [`RtError::ContextLost`] until
    /// [`Session::reset`]).
    pub fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Error out if the context is poisoned.
    fn check_live(&self) -> Result<(), RtError> {
        match &self.fault {
            Some(origin) => Err(RtError::ContextLost {
                origin: origin.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Mark the context as lost to `origin` (a device-fault description).
    pub(crate) fn poison(&mut self, origin: String) {
        // first fault wins, like the CUDA sticky error
        self.fault.get_or_insert(origin);
    }

    /// Reset the context, as `cudaDeviceReset` would: the sticky fault is
    /// cleared, device memory is wiped, loaded kernels, streams and the
    /// virtual clock are discarded. Existing [`KernelHandle`]s, [`DevPtr`]s,
    /// [`Stream`]s and [`Event`]s are invalidated. Host-side knobs (exec
    /// options, memcheck, tracing, fault plan, instruction-budget cap)
    /// survive; the trace buffer restarts empty.
    ///
    /// Enqueued stream work that was never committed to the timeline (for
    /// example because a fault poisoned the context before the next
    /// synchronisation point) is *cancelled*, and the returned
    /// [`ResetReport`] says exactly what was lost — ops per stream plus any
    /// completed-but-untaken readbacks — so callers can tell a clean reset
    /// from one that discarded in-flight work.
    ///
    /// The pre-decoded code cache is evicted with everything else
    /// (`evicted_kernels` in the report): a reset returns the session to
    /// its just-created state so a recycled server slot carries nothing —
    /// not even decoded code — from one tenant to the next. Rebuilding a
    /// kernel after a reset therefore decodes it again
    /// ([`Session::decode_count`] keeps counting cumulatively).
    pub fn reset(&mut self) -> ResetReport {
        let mut cancelled_by_stream: Vec<(u32, usize)> = Vec::new();
        for p in &self.pending {
            match cancelled_by_stream.binary_search_by_key(&p.op.stream, |e| e.0) {
                Ok(i) => cancelled_by_stream[i].1 += 1,
                Err(i) => cancelled_by_stream.insert(i, (p.op.stream, 1)),
            }
        }
        let report = ResetReport {
            cancelled_ops: self.pending.len(),
            cancelled_by_stream,
            dropped_readbacks: self.readbacks.len(),
            evicted_kernels: self.code_cache.len(),
            fault: self.fault.clone(),
        };
        let cap = self.gmem.capacity();
        self.gmem = GlobalMemory::new(cap);
        self.kernels.clear();
        self.now_ns = 0.0;
        self.launches = 0;
        self.kernel_ns_total = 0.0;
        self.profile_total = ExecProfile::default();
        if let Some(t) = &mut self.trace {
            t.clear();
        }
        self.fault = None;
        self.timeline = TimelineState::new();
        self.pending.clear();
        self.streams = vec![StreamState::default()];
        self.readbacks.clear();
        self.code_cache.clear();
        self.resets += 1;
        report
    }

    /// Number of times this session has been reset — recycle accounting
    /// for pooled server slots.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Set (or clear) the hard per-launch instruction-budget ceiling.
    /// While set, every launch runs with
    /// `min(LaunchConfig::inst_budget, cap)`, so a kernel exceeding the
    /// cap trips the simulator watchdog — a genuine sticky device fault
    /// that poisons only this session. This is how a multi-tenant server
    /// turns a tenant's instruction quota into an enforced watchdog.
    pub fn set_inst_budget_cap(&mut self, cap: Option<u64>) {
        self.inst_budget_cap = cap;
    }

    /// The per-launch instruction-budget ceiling, if any.
    pub fn inst_budget_cap(&self) -> Option<u64> {
        self.inst_budget_cap
    }

    /// Whether the memcheck sanitizer is on for subsequent launches.
    pub fn memcheck(&self) -> bool {
        self.memcheck
    }

    /// Turn the memcheck sanitizer on or off. While on, memory-access
    /// faults are recorded per launch ([`gpucmp_sim::LaunchReport::faults`],
    /// plus [`SessionEvent::Fault`] when tracing) instead of aborting.
    pub fn set_memcheck(&mut self, on: bool) {
        self.memcheck = on;
    }

    /// Attach (or clear) a deterministic fault-injection plan.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.inject = plan;
    }

    /// The attached fault-injection plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inject.as_ref()
    }

    /// Turn session tracing on or off. While on, every launch and PCIe
    /// transfer is recorded as a [`SessionEvent`] for chrome-trace export.
    /// Turning tracing off discards any recorded events.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Whether session tracing is currently on.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Events recorded so far (empty unless tracing is on).
    pub fn trace_events(&self) -> &[SessionEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Record an event if tracing is on.
    pub(crate) fn record(&mut self, e: SessionEvent) {
        if let Some(t) = &mut self.trace {
            t.push(e);
        }
    }

    /// How launches are simulated (host thread count). Purely a host-side
    /// knob: reports are bit-identical for every setting.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    /// Set the simulation options for subsequent launches.
    pub fn set_exec_options(&mut self, opts: ExecOptions) {
        self.exec = opts;
    }

    /// Current virtual time in ns.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Advance the host clock to `t_ns` if it is ahead of now. The clock is
    /// monotonic by construction: all advancement happens here, from
    /// committed timeline ops, so virtual time can never go backwards or
    /// skew between streams.
    fn clock_to(&mut self, t_ns: f64) {
        if t_ns > self.now_ns {
            self.now_ns = t_ns;
        }
    }

    /// Create a new stream. Work on distinct streams may overlap on the
    /// virtual timeline wherever it occupies distinct device engines.
    pub fn create_stream(&mut self) -> Stream {
        self.streams.push(StreamState::default());
        Stream((self.streams.len() - 1) as u32)
    }

    /// Number of streams in the session (including the default stream).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Enqueued ops not yet committed to the timeline.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// The device fault raised by a launch enqueued on `stream`, if any —
    /// the per-stream face of the sticky context poison: the whole context
    /// is lost (CUDA semantics), but this says *which stream* carried the
    /// faulting launch.
    pub fn stream_error(&self, stream: Stream) -> Option<&str> {
        self.streams
            .get(stream.id() as usize)
            .and_then(|s| s.error.as_deref())
    }

    fn stream_state_mut(&mut self, stream: Stream) -> Result<&mut StreamState, RtError> {
        self.streams
            .get_mut(stream.id() as usize)
            .ok_or(RtError::BadStream)
    }

    /// Enqueue one op on `stream`: assign its per-stream sequence number,
    /// absorb any recorded cross-stream waits, and defer its timing.
    fn enqueue_op(
        &mut self,
        stream: Stream,
        resource: TimelineResource,
        dur_ns: f64,
        payload: PendingPayload,
    ) -> Result<Event, RtError> {
        let ready_ns = self.now_ns;
        let st = self.stream_state_mut(stream)?;
        let seq = st.next_seq;
        st.next_seq += 1;
        let deps = std::mem::take(&mut st.pending_deps);
        self.pending.push(PendingOp {
            op: TimelineOp {
                stream: stream.id(),
                seq,
                resource,
                dur_ns,
                ready_ns,
                deps,
            },
            payload,
        });
        Ok(Event::new(stream.id(), seq))
    }

    /// Make all *future* work enqueued on `stream` wait until the op
    /// recorded by `event` has completed on the timeline
    /// (`cudaStreamWaitEvent` semantics: ordering is transitive through
    /// in-stream program order, so only the next op carries the edge).
    pub fn stream_wait_event(&mut self, stream: Stream, event: Event) -> Result<(), RtError> {
        let src = self
            .streams
            .get(event.stream_id() as usize)
            .ok_or(RtError::BadEvent("unknown stream"))?;
        if event.seq() >= src.next_seq {
            return Err(RtError::BadEvent("op was never enqueued"));
        }
        self.stream_state_mut(stream)?
            .pending_deps
            .push(event.key());
        Ok(())
    }

    /// Commit every pending op to the timeline: the deterministic scheduler
    /// places them per engine, and the placements become trace events. The
    /// host clock does not move — only synchronisation advances it.
    fn commit_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let ops: Vec<TimelineOp> = pending.iter().map(|p| p.op.clone()).collect();
        let mut payloads: BTreeMap<(u32, u64), PendingPayload> = pending
            .into_iter()
            .map(|p| ((p.op.stream, p.op.seq), p.payload))
            .collect();
        for placed in self.timeline.schedule(&ops) {
            let payload = payloads
                .remove(&(placed.stream, placed.seq))
                .expect("every scheduled op has a payload");
            if self.trace.is_none() {
                continue;
            }
            match payload {
                PendingPayload::Transfer { dir, bytes } => {
                    self.record(SessionEvent::Transfer {
                        dir,
                        start_ns: placed.start_ns,
                        dur_ns: placed.end_ns - placed.start_ns,
                        bytes,
                        stream: placed.stream,
                    });
                }
                PendingPayload::Launch {
                    kernel,
                    overhead_ns,
                    kernel_ns,
                    grid,
                    block,
                    stats,
                    timing,
                    faults,
                    cus,
                } => {
                    // Memcheck records pin to kernel start, before the
                    // launch slice itself (matching the synchronous order).
                    let t = placed.start_ns + overhead_ns;
                    for f in &faults {
                        let ev = fault_event(&kernel, t, f, grid, cus, placed.stream);
                        self.record(ev);
                    }
                    self.record(SessionEvent::Launch {
                        kernel,
                        start_ns: placed.start_ns,
                        overhead_ns,
                        kernel_ns,
                        grid,
                        block,
                        stats: *stats,
                        timing,
                        stream: placed.stream,
                    });
                }
            }
        }
    }

    /// Block until the op recorded by `event` has completed: commits
    /// pending work to the timeline and advances the host clock to the
    /// op's completion time. Returns that completion time.
    pub fn event_synchronize(&mut self, event: Event) -> Result<f64, RtError> {
        self.check_live()?;
        self.commit_pending();
        let end = self
            .timeline
            .op_end_ns(event.stream_id(), event.seq())
            .ok_or(RtError::BadEvent("op was never enqueued"))?;
        self.clock_to(end);
        Ok(end)
    }

    /// Block until everything enqueued on `stream` has completed. Returns
    /// the stream's completion time.
    pub fn stream_synchronize(&mut self, stream: Stream) -> Result<f64, RtError> {
        self.check_live()?;
        if stream.id() as usize >= self.streams.len() {
            return Err(RtError::BadStream);
        }
        self.commit_pending();
        let end = self.timeline.stream_tail_ns(stream.id());
        self.clock_to(end);
        Ok(self.now_ns)
    }

    /// Block until every stream is idle (`cudaDeviceSynchronize`). Returns
    /// the device-wide completion time.
    pub fn device_synchronize(&mut self) -> Result<f64, RtError> {
        self.check_live()?;
        self.commit_pending();
        let end = self.timeline.horizon_ns();
        self.clock_to(end);
        Ok(self.now_ns)
    }

    /// Take the bytes staged by an enqueued d2h. Synchronises on `event`
    /// first, so the virtual clock covers the transfer. Each readback can
    /// be taken once; a non-d2h event is [`RtError::BadEvent`].
    pub fn take_readback(&mut self, event: Event) -> Result<Vec<u8>, RtError> {
        self.event_synchronize(event)?;
        self.readbacks
            .remove(&event.key())
            .ok_or(RtError::BadEvent("no readback staged for this event"))
    }

    pub(crate) fn stage_readback(&mut self, event: Event, data: Vec<u8>) {
        self.readbacks.insert(event.key(), data);
    }

    pub(crate) fn set_stream_error(&mut self, stream: Stream, desc: String) {
        if let Some(st) = self.streams.get_mut(stream.id() as usize) {
            st.error.get_or_insert(desc);
        }
    }

    /// Number of kernel launches so far.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Total in-kernel virtual time (excluding launch overhead).
    pub fn kernel_ns_total(&self) -> f64 {
        self.kernel_ns_total
    }

    /// Host-side simulator profiling summed over every launch so far:
    /// blocks simulated, wall-clock execution/merge time, overlay traffic.
    pub fn profile_total(&self) -> ExecProfile {
        self.profile_total
    }

    /// Kernel decodes performed so far (code-cache misses), cumulative
    /// across resets. On the decoded tier this stays at one per
    /// *distinct* kernel per context generation however many times it is
    /// rebuilt or launched; the interp tier never decodes.
    pub fn decode_count(&self) -> u64 {
        self.decode_count
    }

    /// Distinct kernels currently held by the pre-decoded code cache.
    pub fn code_cache_len(&self) -> usize {
        self.code_cache.len()
    }

    /// Look a loaded kernel up.
    pub fn kernel(&self, h: KernelHandle) -> Result<&LoadedKernel, RtError> {
        self.kernels.get(h.0).ok_or(RtError::BadHandle)
    }

    fn load(&mut self, k: LoadedKernel) -> KernelHandle {
        self.kernels.push(k);
        KernelHandle(self.kernels.len() - 1)
    }
}

/// Outcome of one launch.
#[derive(Clone, Debug)]
pub struct LaunchOutcome {
    /// Simulator report (exact stats + modelled kernel time).
    pub report: LaunchReport,
    /// API-side launch overhead that was added to the clock, ns.
    pub overhead_ns: f64,
}

impl LaunchOutcome {
    /// Host-side simulator profiling for this launch: blocks simulated,
    /// worker threads used, wall-clock execution and merge time.
    pub fn profile(&self) -> &ExecProfile {
        &self.report.profile
    }
}

/// The host-API surface shared by the CUDA-flavoured and OpenCL-flavoured
/// runtimes. Benchmarks are written against this trait so the *same host
/// logic* drives both programming models — the paper's "same implementation"
/// requirement (fair-comparison step 3).
pub trait Gpu {
    /// Which programming model this runtime exposes.
    fn api(&self) -> Api;
    /// The underlying session.
    fn session(&self) -> &Session;
    /// The underlying session, mutably.
    fn session_mut(&mut self) -> &mut Session;
    /// Fixed API-side kernel-submit overhead in ns (the paper's
    /// Section IV-B-4 kernel-launch-time difference).
    fn submit_overhead_ns(&self) -> f64;
    /// API-specific launch validation (the OpenCL runtime enforces device
    /// resource limits and returns `CL_*` errors; CUDA launches on its own
    /// vendor's hardware and only hits the simulator's checks).
    fn validate_launch(&self, kernel: &LoadedKernel, cfg: &LaunchConfig) -> Result<(), RtError>;

    /// The device specification.
    fn device(&self) -> &DeviceSpec {
        &self.session().device
    }

    /// Current virtual time in ns.
    fn now_ns(&self) -> f64 {
        self.session().now_ns()
    }

    /// Allocate device memory. Fails with [`RtError::OutOfMemory`] when
    /// the arena is exhausted and [`RtError::ContextLost`] on a poisoned
    /// context.
    fn malloc(&mut self, bytes: u64) -> Result<DevPtr, RtError> {
        self.session().check_live()?;
        let s = self.session_mut();
        if let Some(nth) = s.inject.as_mut().and_then(|p| p.on_malloc()) {
            return Err(RtError::Injected { op: "malloc", nth });
        }
        Ok(s.gmem.alloc(bytes)?)
    }

    /// Asynchronous host-to-device transfer on `stream`. The bytes move
    /// eagerly (enqueue order within a stream *is* execution order); the
    /// transfer's time on the H2D DMA engine is committed at the next
    /// synchronisation point. The transfer must fit the destination
    /// allocation: writing past its end is [`RtError::TransferSize`], not
    /// silent corruption of a neighbour.
    fn enqueue_h2d(&mut self, stream: Stream, ptr: DevPtr, data: &[u8]) -> Result<Event, RtError> {
        self.session().check_live()?;
        let s = self.session_mut();
        if let Some((start, bytes)) = s.gmem.alloc_containing(ptr.0) {
            let available = start + bytes - ptr.0;
            if data.len() as u64 > available {
                return Err(RtError::TransferSize {
                    op: "h2d",
                    requested: data.len() as u64,
                    available,
                });
            }
        }
        let action = s
            .inject
            .as_mut()
            .map_or(TransferAction::Pass, |p| p.on_h2d());
        match action {
            TransferAction::Fail(nth) => return Err(RtError::Injected { op: "h2d", nth }),
            TransferAction::Corrupt if !data.is_empty() => {
                let mut corrupted = data.to_vec();
                corrupted[data.len() / 2] ^= 0x01;
                s.gmem.copy_in(ptr, &corrupted)?;
            }
            _ => s.gmem.copy_in(ptr, data)?,
        }
        let dur = MEMCPY_LATENCY_NS + data.len() as f64 / PCIE_GBS;
        s.enqueue_op(
            stream,
            TimelineResource::H2dEngine,
            dur,
            PendingPayload::Transfer {
                dir: TransferDir::H2D,
                bytes: data.len() as u64,
            },
        )
    }

    /// Host-to-device transfer of raw bytes — sugar over the default
    /// stream: enqueue, then synchronise on the transfer's event, which
    /// reproduces the fully serial timeline exactly.
    fn h2d(&mut self, ptr: DevPtr, data: &[u8]) -> Result<(), RtError> {
        let ev = self.enqueue_h2d(Stream::DEFAULT, ptr, data)?;
        self.session_mut().event_synchronize(ev)?;
        Ok(())
    }

    /// Asynchronous device-to-host transfer of `bytes` bytes on `stream`.
    /// The bytes are staged eagerly; [`Gpu::take_readback`] (or the typed
    /// [`GpuExt::take_readback_t`]) synchronises on the returned event and
    /// hands them out. The requested length must fit the source allocation
    /// (see [`Gpu::enqueue_h2d`]).
    fn enqueue_d2h(&mut self, stream: Stream, ptr: DevPtr, bytes: u64) -> Result<Event, RtError> {
        self.session().check_live()?;
        let s = self.session_mut();
        if let Some((start, alloc_bytes)) = s.gmem.alloc_containing(ptr.0) {
            let available = start + alloc_bytes - ptr.0;
            if bytes > available {
                return Err(RtError::TransferSize {
                    op: "d2h",
                    requested: bytes,
                    available,
                });
            }
        }
        let mut data = vec![0u8; bytes as usize];
        s.gmem.copy_out(ptr, &mut data)?;
        let dur = MEMCPY_LATENCY_NS + bytes as f64 / PCIE_GBS;
        let ev = s.enqueue_op(
            stream,
            TimelineResource::D2hEngine,
            dur,
            PendingPayload::Transfer {
                dir: TransferDir::D2H,
                bytes,
            },
        )?;
        s.stage_readback(ev, data);
        Ok(ev)
    }

    /// Device-to-host transfer of raw bytes — sugar over the default
    /// stream (enqueue + synchronise + take).
    fn d2h(&mut self, ptr: DevPtr, data: &mut [u8]) -> Result<(), RtError> {
        let ev = self.enqueue_d2h(Stream::DEFAULT, ptr, data.len() as u64)?;
        let staged = self.session_mut().take_readback(ev)?;
        data.copy_from_slice(&staged);
        Ok(())
    }

    /// Create a new stream (see [`Session::create_stream`]).
    fn create_stream(&mut self) -> Stream {
        self.session_mut().create_stream()
    }

    /// Make future work on `stream` wait for `event`
    /// (see [`Session::stream_wait_event`]).
    fn stream_wait_event(&mut self, stream: Stream, event: Event) -> Result<(), RtError> {
        self.session_mut().stream_wait_event(stream, event)
    }

    /// Wait until the op recorded by `event` completes; returns its virtual
    /// completion time (see [`Session::event_synchronize`]).
    fn event_synchronize(&mut self, event: Event) -> Result<f64, RtError> {
        self.session_mut().event_synchronize(event)
    }

    /// Wait until everything on `stream` completes
    /// (see [`Session::stream_synchronize`]).
    fn stream_synchronize(&mut self, stream: Stream) -> Result<f64, RtError> {
        self.session_mut().stream_synchronize(stream)
    }

    /// Wait until every stream is idle
    /// (see [`Session::device_synchronize`]).
    fn device_synchronize(&mut self) -> Result<f64, RtError> {
        self.session_mut().device_synchronize()
    }

    /// Take the bytes staged by an enqueued d2h
    /// (see [`Session::take_readback`]).
    fn take_readback(&mut self, event: Event) -> Result<Vec<u8>, RtError> {
        self.session_mut().take_readback(event)
    }

    /// The device fault raised on `stream`, if any
    /// (see [`Session::stream_error`]).
    fn stream_error(&self, stream: Stream) -> Option<&str> {
        self.session().stream_error(stream)
    }

    /// The sticky device fault poisoning this context, if any.
    fn fault(&self) -> Option<&str> {
        self.session().fault()
    }

    /// Reset the context after a device fault; cancels pending stream work
    /// and reports what was lost (see [`Session::reset`]).
    fn reset(&mut self) -> ResetReport {
        self.session_mut().reset()
    }

    /// Turn the memcheck sanitizer on or off for subsequent launches
    /// (see [`Session::set_memcheck`]).
    fn set_memcheck(&mut self, on: bool) {
        self.session_mut().set_memcheck(on);
    }

    /// Attach (or clear) a deterministic fault-injection plan
    /// (see [`crate::inject::FaultPlan`]).
    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.session_mut().set_fault_plan(plan);
    }

    /// How launches on this runtime are simulated (host thread count).
    fn exec_options(&self) -> ExecOptions {
        self.session().exec_options()
    }

    /// Set the simulation options for subsequent launches. Host-side only:
    /// reports stay bit-identical for every setting.
    fn set_exec_options(&mut self, opts: ExecOptions) {
        self.session_mut().set_exec_options(opts);
    }

    /// Turn session tracing on or off (see [`Session::set_tracing`]).
    fn set_tracing(&mut self, on: bool) {
        self.session_mut().set_tracing(on);
    }

    /// Events recorded since tracing was turned on.
    fn trace_events(&self) -> &[SessionEvent] {
        self.session().trace_events()
    }

    /// Build a kernel through this API's front-end and load it.
    fn build(&mut self, def: &KernelDef) -> Result<KernelHandle, RtError> {
        let style = self.api().style();
        let cap = self.device().max_regs_per_thread;
        let compiled =
            compile_with_style(def, &style, cap).map_err(|e| RtError::Compile(e.to_string()))?;
        let resolved = compiled.exec.resolve().map_err(RtError::Compile)?;
        let mut const_bank = def.const_data.clone();
        // pad to 16 bytes like a real constant bank image
        const_bank.resize(const_bank.len().next_multiple_of(16), 0);
        let code_hash = kernel_hash(&resolved.kernel);
        let loaded = LoadedKernel {
            name: def.name.clone(),
            resolved: Arc::new(resolved),
            const_bank: Arc::new(const_bank),
            ptx_stats: compiled.ptx_stats,
            spilled: compiled.ptxas.spilled,
            code_hash,
        };
        Ok(self.session_mut().load(loaded))
    }

    /// Launch a kernel asynchronously on `stream`. The simulator runs
    /// eagerly — the returned [`LaunchOutcome`] carries the exact report,
    /// bit-identical to the synchronous path — but the launch's time on the
    /// compute engine (API submit overhead + modelled kernel duration) is
    /// committed to the timeline at the next synchronisation point, where
    /// it may overlap transfers on other streams.
    ///
    /// A device fault surfaces immediately as [`RtError::DeviceFault`],
    /// poisons the context (CUDA sticky semantics) and is recorded as the
    /// stream's error ([`Gpu::stream_error`]).
    fn enqueue_launch_config(
        &mut self,
        stream: Stream,
        h: KernelHandle,
        cfg: &LaunchConfig,
    ) -> Result<(Event, LaunchOutcome), RtError> {
        self.session().check_live()?;
        let overhead = self.submit_overhead_ns() + self.device().hw_launch_ns;
        {
            let kernel = self.session().kernel(h)?;
            self.validate_launch(kernel, cfg)?;
        }
        if stream.id() as usize >= self.session().stream_count() {
            return Err(RtError::BadStream);
        }
        let s = self.session_mut();
        let action = s
            .inject
            .as_mut()
            .map_or(LaunchAction::Pass, |p| p.on_launch());
        if let LaunchAction::Fail(nth) = action {
            return Err(RtError::Injected { op: "launch", nth });
        }
        // Effective instruction budget: an injected Starve overrides the
        // config, and the session's quota cap clamps whatever remains.
        let mut effective = cfg.inst_budget;
        if let LaunchAction::Starve(budget) = action {
            effective = budget;
        }
        if let Some(cap) = s.inst_budget_cap {
            effective = effective.min(cap);
        }
        let clamped;
        let cfg = if effective != cfg.inst_budget {
            let mut c = cfg.clone();
            c.inst_budget = effective;
            clamped = c;
            &clamped
        } else {
            cfg
        };
        // cheap Arc clones decouple the kernel from the session borrow
        let kernel = Arc::clone(&s.kernels[h.0].resolved);
        let const_bank = Arc::clone(&s.kernels[h.0].const_bank);
        let name = s.kernels[h.0].name.clone();
        let opts = s.exec.memcheck(s.memcheck);
        // Decoded tiers launch through the session code cache: one decode
        // per distinct kernel (by content hash) per context generation.
        let code: Option<Arc<DecodedKernel>> = if opts.tier == ExecTier::Interp {
            None
        } else {
            let hash = s.kernels[h.0].code_hash;
            Some(match s.code_cache.get(&hash) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(decode_kernel(&kernel, &s.device));
                    s.decode_count += 1;
                    s.code_cache.insert(hash, Arc::clone(&c));
                    c
                }
            })
        };
        let report = match sim_launch_with_code(
            &s.device,
            &kernel,
            &mut s.gmem,
            &const_bank,
            cfg,
            &opts,
            code.as_deref(),
        ) {
            Ok(r) => r,
            Err(e) => {
                let mut err = RtError::from(e);
                if let RtError::DeviceFault { kernel: k, fault } = &mut err {
                    k.clone_from(&name);
                    let ev = fault_event(
                        &name,
                        s.now_ns(),
                        fault,
                        cfg.grid,
                        s.device.compute_units,
                        stream.id(),
                    );
                    s.record(ev);
                }
                if err.is_sticky() {
                    // CUDA sticky semantics: the context is lost until
                    // reset, and the stream remembers it carried the fault
                    s.poison(err.to_string());
                    s.set_stream_error(stream, err.to_string());
                }
                return Err(err);
            }
        };
        s.launches += 1;
        s.kernel_ns_total += report.timing.total_ns;
        s.profile_total.accumulate(&report.profile);
        // Memcheck-suppressed faults ride in the payload; they are pinned
        // to the scheduled kernel start when the op commits.
        let faults = if s.tracing() && !report.faults.is_empty() {
            report.faults.clone()
        } else {
            Vec::new()
        };
        let ev = s.enqueue_op(
            stream,
            TimelineResource::Compute,
            overhead + report.timing.total_ns,
            PendingPayload::Launch {
                kernel: name,
                overhead_ns: overhead,
                kernel_ns: report.timing.total_ns,
                grid: cfg.grid,
                block: cfg.block,
                stats: Box::new(report.stats.clone()),
                timing: report.timing,
                faults,
                cus: s.device.compute_units,
            },
        )?;
        Ok((
            ev,
            LaunchOutcome {
                report,
                overhead_ns: overhead,
            },
        ))
    }

    /// Launch a kernel synchronously — sugar over the default stream:
    /// enqueue, then synchronise on the launch's event, advancing the
    /// virtual clock by the API overhead plus the modelled kernel duration.
    /// Object-safe core — call sites usually prefer [`GpuExt::launch`],
    /// which also takes builders by value.
    fn launch_config(
        &mut self,
        h: KernelHandle,
        cfg: &LaunchConfig,
    ) -> Result<LaunchOutcome, RtError> {
        let (ev, outcome) = self.enqueue_launch_config(Stream::DEFAULT, h, cfg)?;
        self.session_mut().event_synchronize(ev)?;
        Ok(outcome)
    }
}

/// Generic conveniences over [`Gpu`], blanket-implemented for every
/// runtime *and* for `dyn Gpu` itself, so benchmarks written against
/// `&mut dyn Gpu` get the typed API with static dispatch.
pub trait GpuExt: Gpu {
    /// Launch a kernel from anything convertible to a [`LaunchConfig`]:
    /// an owned config, a `&LaunchConfig`, or a
    /// [`gpucmp_sim::LaunchConfigBuilder`].
    fn launch(
        &mut self,
        h: KernelHandle,
        cfg: impl Into<LaunchConfig>,
    ) -> Result<LaunchOutcome, RtError> {
        let cfg = cfg.into();
        self.launch_config(h, &cfg)
    }

    /// Upload a slice of any [`DeviceScalar`] type.
    fn h2d_t<T: DeviceScalar>(&mut self, ptr: DevPtr, data: &[T]) -> Result<(), RtError> {
        self.h2d(ptr, &T::slice_le_bytes(data))
    }

    /// Download `len` elements of any [`DeviceScalar`] type, converted
    /// straight from the staged readback (see [`Gpu::d2h`]).
    fn d2h_t<T: DeviceScalar>(&mut self, ptr: DevPtr, len: usize) -> Result<Vec<T>, RtError> {
        let ev = self.enqueue_d2h(Stream::DEFAULT, ptr, (len * T::BYTES) as u64)?;
        self.take_readback_t(ev)
    }

    /// Allocate a typed device buffer of `len` elements.
    fn alloc<T: DeviceScalar>(&mut self, len: usize) -> Result<Buffer<T>, RtError> {
        let ptr = self.malloc((len * T::BYTES) as u64)?;
        Ok(Buffer::from_raw(ptr, len))
    }

    /// Upload into a typed buffer. `data` outgrowing the buffer is
    /// [`RtError::TransferSize`], not a panic.
    fn h2d_buf<T: DeviceScalar>(&mut self, buf: &Buffer<T>, data: &[T]) -> Result<(), RtError> {
        if data.len() > buf.len() {
            return Err(RtError::TransferSize {
                op: "h2d_buf",
                requested: (data.len() * T::BYTES) as u64,
                available: buf.bytes(),
            });
        }
        self.h2d_t(buf.ptr(), data)
    }

    /// Download a typed buffer in full.
    fn d2h_buf<T: DeviceScalar>(&mut self, buf: &Buffer<T>) -> Result<Vec<T>, RtError> {
        self.d2h_t(buf.ptr(), buf.len())
    }

    /// Enqueue a launch on `stream` from anything convertible to a
    /// [`LaunchConfig`] (see [`Gpu::enqueue_launch_config`]).
    fn enqueue_launch(
        &mut self,
        stream: Stream,
        h: KernelHandle,
        cfg: impl Into<LaunchConfig>,
    ) -> Result<(Event, LaunchOutcome), RtError> {
        let cfg = cfg.into();
        self.enqueue_launch_config(stream, h, &cfg)
    }

    /// Enqueue a typed upload on `stream`.
    fn enqueue_h2d_t<T: DeviceScalar>(
        &mut self,
        stream: Stream,
        ptr: DevPtr,
        data: &[T],
    ) -> Result<Event, RtError> {
        self.enqueue_h2d(stream, ptr, &T::slice_le_bytes(data))
    }

    /// Enqueue a typed upload into a buffer on `stream`. `data` outgrowing
    /// the buffer is [`RtError::TransferSize`], not a panic.
    fn enqueue_h2d_buf<T: DeviceScalar>(
        &mut self,
        stream: Stream,
        buf: &Buffer<T>,
        data: &[T],
    ) -> Result<Event, RtError> {
        if data.len() > buf.len() {
            return Err(RtError::TransferSize {
                op: "h2d_buf",
                requested: (data.len() * T::BYTES) as u64,
                available: buf.bytes(),
            });
        }
        self.enqueue_h2d_t(stream, buf.ptr(), data)
    }

    /// Enqueue a typed download of `len` elements on `stream`; the data
    /// comes back through [`GpuExt::take_readback_t`].
    fn enqueue_d2h_t<T: DeviceScalar>(
        &mut self,
        stream: Stream,
        ptr: DevPtr,
        len: usize,
    ) -> Result<Event, RtError> {
        self.enqueue_d2h(stream, ptr, (len * T::BYTES) as u64)
    }

    /// Enqueue a full typed-buffer download on `stream`.
    fn enqueue_d2h_buf<T: DeviceScalar>(
        &mut self,
        stream: Stream,
        buf: &Buffer<T>,
    ) -> Result<Event, RtError> {
        self.enqueue_d2h_t::<T>(stream, buf.ptr(), buf.len())
    }

    /// Take a typed readback staged by [`GpuExt::enqueue_d2h_t`] /
    /// [`GpuExt::enqueue_d2h_buf`]; synchronises on `event` first.
    fn take_readback_t<T: DeviceScalar>(&mut self, event: Event) -> Result<Vec<T>, RtError> {
        let bytes = self.take_readback(event)?;
        Ok(bytes.chunks_exact(T::BYTES).map(T::from_le).collect())
    }
}

impl<G: Gpu + ?Sized> GpuExt for G {}
