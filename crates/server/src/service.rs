//! The multi-tenant session service: protocol-level requests in, typed
//! responses out, independent of any transport.
//!
//! One [`SessionService`] owns a [`SlotPool`] and
//! maps wire-level session handles onto pooled slots. All policy lives
//! here:
//!
//! - **Admission control** — an `Open` when the pool is exhausted is a
//!   typed [`ErrorKind::Busy`] rejection, never an unbounded queue. The
//!   pool size is the server's hard concurrency ceiling.
//! - **Per-tenant quotas** — sessions, resident device bytes and
//!   in-flight launches are checked *at enqueue*; a violation is a typed
//!   [`ErrorKind::QuotaExceeded`]. The per-launch instruction budget is
//!   enforced *on the device*: every session gets
//!   [`Session::set_inst_budget_cap`](gpucmp_runtime::Session::set_inst_budget_cap),
//!   so a runaway kernel trips the watchdog and poisons only its own
//!   session.
//! - **Fault isolation** — a device fault makes one session's context
//!   sticky-lost (CUDA semantics); sibling sessions, including the same
//!   tenant's, are untouched. `Reset` clears the fault in place; `Close`
//!   recycles the slot through a full reset.
//!
//! Locking: `sessions` map → `tenants` map → slot mutex, in that order,
//! never reversed. Slot state carries the owning session handle and every
//! operation re-checks it under the slot lock, so a handle that raced
//! with `Close` fails as [`ErrorKind::BadSession`] instead of touching a
//! recycled (possibly re-opened) slot.

use crate::kernels;
use crate::pool::{Slot, SlotPool};
use crate::protocol::{ErrorKind, Request, Response, ServerStats, MAX_FRAME};
use gpucmp_runtime::{Gpu, RtError, SessionEvent};
use gpucmp_sim::{DevPtr, DeviceSpec, LaunchConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-tenant resource ceilings, applied at enqueue time.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// Concurrent open sessions.
    pub max_sessions: u32,
    /// Total resident device bytes across the tenant's sessions.
    pub max_resident_bytes: u64,
    /// Concurrent in-flight launches across the tenant's sessions.
    pub max_inflight_launches: u32,
    /// Per-launch instruction budget (watchdog), `None` = uncapped.
    pub inst_budget: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_sessions: 4,
            max_resident_bytes: 256 << 20,
            max_inflight_launches: 8,
            inst_budget: Some(50_000_000),
        }
    }
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Simulated device every slot runs on (must be NVIDIA — the pool is
    /// CUDA-backed).
    pub device: DeviceSpec,
    /// Preallocated session slots (= max concurrent sessions).
    pub slots: usize,
    /// Device-memory arena per slot, bytes.
    pub arena_bytes: u64,
    /// Quota applied to every tenant.
    pub quota: TenantQuota,
    /// Record per-session trace events, harvested on `Close`/`Reset`
    /// into per-(tenant, session) streams (see
    /// [`SessionService::take_traces`]).
    pub trace: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            device: DeviceSpec::gtx480(),
            slots: 4,
            arena_bytes: 64 << 20,
            quota: TenantQuota::default(),
            trace: false,
        }
    }
}

/// One live session: its tenant (quota key) and its slot.
struct SessionEntry {
    tenant: String,
    slot: Arc<Slot>,
    /// Device bytes this session holds against the tenant's quota.
    resident: AtomicU64,
}

/// Mutable per-tenant usage, under the `tenants` lock.
#[derive(Default)]
struct TenantUsage {
    sessions: u32,
    resident: u64,
    inflight: u32,
}

/// A harvested per-session trace stream, tagged with its tenant.
pub struct TenantTrace {
    /// Tenant that owned the session.
    pub tenant: String,
    /// Wire-level session handle.
    pub session: u64,
    /// The session's recorded events (virtual timeline).
    pub events: Vec<SessionEvent>,
}

#[derive(Default)]
struct Counters {
    opens: AtomicU64,
    closes: AtomicU64,
    busy_rejections: AtomicU64,
    quota_rejections: AtomicU64,
    launches: AtomicU64,
    device_faults: AtomicU64,
    context_lost: AtomicU64,
    resets: AtomicU64,
}

/// The transport-independent session service.
pub struct SessionService {
    cfg: ServerConfig,
    pool: SlotPool,
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    tenants: Mutex<HashMap<String, TenantUsage>>,
    next_session: AtomicU64,
    counters: Counters,
    traces: Mutex<Vec<TenantTrace>>,
}

fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

impl SessionService {
    /// Build the service, preallocating the whole slot pool up front.
    pub fn new(cfg: ServerConfig) -> Result<Self, RtError> {
        let pool = SlotPool::new(cfg.slots, cfg.device.clone(), cfg.arena_bytes)?;
        Ok(SessionService {
            cfg,
            pool,
            sessions: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            counters: Counters::default(),
            traces: Mutex::new(Vec::new()),
        })
    }

    /// The slot pool (for reuse assertions in tests and the soak bench).
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }

    /// Drain the trace streams harvested so far.
    pub fn take_traces(&self) -> Vec<TenantTrace> {
        std::mem::take(&mut self.traces.lock().unwrap())
    }

    /// Current counters (same numbers `Request::Stats` returns).
    pub fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            opens: c.opens.load(Ordering::Relaxed),
            closes: c.closes.load(Ordering::Relaxed),
            busy_rejections: c.busy_rejections.load(Ordering::Relaxed),
            quota_rejections: c.quota_rejections.load(Ordering::Relaxed),
            launches: c.launches.load(Ordering::Relaxed),
            device_faults: c.device_faults.load(Ordering::Relaxed),
            context_lost: c.context_lost.load(Ordering::Relaxed),
            resets: c.resets.load(Ordering::Relaxed),
            slots: self.pool.capacity() as u32,
            slots_free: self.pool.free_count() as u32,
        }
    }

    /// Handle one request. This is the single entry point the TCP layer
    /// (and tests) drive; it never panics on hostile input and never
    /// blocks on anything but the short internal locks.
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Open { tenant } => self.open(tenant),
            Request::Close { session } => self.close(session),
            Request::Alloc { session, bytes } => self.alloc(session, bytes),
            Request::Write { session, ptr, data } => self.write(session, ptr, &data),
            Request::Read {
                session,
                ptr,
                bytes,
            } => self.read(session, ptr, bytes),
            Request::Launch {
                session,
                kernel,
                grid,
                block,
                params,
            } => self.launch(session, &kernel, grid, block, &params),
            Request::Reset { session } => self.reset(session),
            Request::Stats => Response::Stats(self.stats()),
        }
    }

    fn open(&self, tenant: String) -> Response {
        if tenant.is_empty() {
            return err(ErrorKind::BadRequest, "tenant name must be non-empty");
        }
        // Reserve the tenant's session quota first (cheap to undo), then
        // claim a slot.
        {
            let mut tenants = self.tenants.lock().unwrap();
            let usage = tenants.entry(tenant.clone()).or_default();
            if usage.sessions >= self.cfg.quota.max_sessions {
                drop(tenants);
                self.counters
                    .quota_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return err(
                    ErrorKind::QuotaExceeded,
                    format!(
                        "tenant {tenant:?} already has {} open sessions (max {})",
                        self.cfg.quota.max_sessions, self.cfg.quota.max_sessions
                    ),
                );
            }
            usage.sessions += 1;
        }
        let Some(slot) = self.pool.claim() else {
            self.release_session_count(&tenant);
            self.counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return err(
                ErrorKind::Busy,
                format!("all {} session slots are in use", self.pool.capacity()),
            );
        };
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = slot.lock();
            debug_assert_eq!(st.session_id, 0, "claimed slot was not free");
            st.session_id = id;
            let session = st.gpu.session_mut();
            session.set_inst_budget_cap(self.cfg.quota.inst_budget);
            session.set_tracing(self.cfg.trace);
        }
        let entry = Arc::new(SessionEntry {
            tenant,
            slot,
            resident: AtomicU64::new(0),
        });
        self.sessions.lock().unwrap().insert(id, entry);
        self.counters.opens.fetch_add(1, Ordering::Relaxed);
        Response::Opened { session: id }
    }

    fn close(&self, id: u64) -> Response {
        // Removing the map entry is the linearization point: exactly one
        // closer wins, and no new lookups can reach the slot.
        let Some(entry) = self.sessions.lock().unwrap().remove(&id) else {
            return err(ErrorKind::BadSession, format!("no session {id}"));
        };
        self.harvest_trace(&entry, id);
        // Release the tenant's quota before the (comparatively slow)
        // recycle reset.
        let resident = entry.resident.swap(0, Ordering::Relaxed);
        {
            let mut tenants = self.tenants.lock().unwrap();
            if let Some(usage) = tenants.get_mut(&entry.tenant) {
                usage.sessions = usage.sessions.saturating_sub(1);
                usage.resident = usage.resident.saturating_sub(resident);
            }
        }
        // recycle() resets the session and zeroes `session_id` under the
        // slot lock; a racing request that still holds this entry will
        // see the mismatch and get `BadSession`.
        self.pool.recycle(&entry.slot);
        self.counters.closes.fetch_add(1, Ordering::Relaxed);
        self.counters.resets.fetch_add(1, Ordering::Relaxed);
        Response::Closed
    }

    fn alloc(&self, id: u64, bytes: u64) -> Response {
        let Some(entry) = self.session_entry(id) else {
            return err(ErrorKind::BadSession, format!("no session {id}"));
        };
        if bytes == 0 {
            return err(ErrorKind::BadRequest, "zero-byte allocation");
        }
        // Reserve quota optimistically, release on failure.
        {
            let mut tenants = self.tenants.lock().unwrap();
            let usage = tenants.entry(entry.tenant.clone()).or_default();
            if usage.resident.saturating_add(bytes) > self.cfg.quota.max_resident_bytes {
                let resident = usage.resident;
                drop(tenants);
                self.counters
                    .quota_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return err(
                    ErrorKind::QuotaExceeded,
                    format!(
                        "alloc of {bytes} B would put tenant {:?} over its \
                         resident-byte quota ({resident} of {} B in use)",
                        entry.tenant, self.cfg.quota.max_resident_bytes
                    ),
                );
            }
            usage.resident += bytes;
        }
        let result = {
            let mut st = entry.slot.lock();
            if st.session_id != id {
                None
            } else {
                Some(st.gpu.malloc(bytes))
            }
        };
        match result {
            None => {
                self.release_resident(&entry.tenant, bytes);
                err(ErrorKind::BadSession, format!("session {id} was closed"))
            }
            Some(Ok(ptr)) => {
                entry.resident.fetch_add(bytes, Ordering::Relaxed);
                Response::Allocated { ptr: ptr.0 }
            }
            Some(Err(e)) => {
                self.release_resident(&entry.tenant, bytes);
                self.rt_error(e)
            }
        }
    }

    fn write(&self, id: u64, ptr: u64, data: &[u8]) -> Response {
        self.with_session(id, |gpu| {
            gpu.h2d(DevPtr(ptr), data).map(|()| Response::Written)
        })
    }

    fn read(&self, id: u64, ptr: u64, bytes: u64) -> Response {
        // Bound the response frame before touching the device: the reply
        // needs tag + length + payload to fit in MAX_FRAME.
        if bytes.saturating_add(16) > MAX_FRAME as u64 {
            return err(
                ErrorKind::BadRequest,
                format!("read of {bytes} B cannot fit one response frame"),
            );
        }
        self.with_session(id, |gpu| {
            let mut data = vec![0u8; bytes as usize];
            gpu.d2h(DevPtr(ptr), &mut data)?;
            Ok(Response::Data { data })
        })
    }

    fn launch(&self, id: u64, kernel: &str, grid: u32, block: u32, params: &[u64]) -> Response {
        let Some(entry) = self.session_entry(id) else {
            return err(ErrorKind::BadSession, format!("no session {id}"));
        };
        if grid == 0 || block == 0 {
            return err(ErrorKind::BadRequest, "grid and block must be non-zero");
        }
        let Some(def) = kernels::kernel_def(kernel) else {
            return err(
                ErrorKind::UnknownKernel,
                format!(
                    "no kernel {kernel:?} in the registry (have: {})",
                    kernels::KERNEL_NAMES.join(", ")
                ),
            );
        };
        // In-flight launch quota: reserve, launch, release.
        {
            let mut tenants = self.tenants.lock().unwrap();
            let usage = tenants.entry(entry.tenant.clone()).or_default();
            if usage.inflight >= self.cfg.quota.max_inflight_launches {
                drop(tenants);
                self.counters
                    .quota_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return err(
                    ErrorKind::QuotaExceeded,
                    format!(
                        "tenant {:?} already has {} launches in flight (max {})",
                        entry.tenant,
                        self.cfg.quota.max_inflight_launches,
                        self.cfg.quota.max_inflight_launches
                    ),
                );
            }
            usage.inflight += 1;
        }
        let response = (|| {
            let mut st = entry.slot.lock();
            if st.session_id != id {
                return err(ErrorKind::BadSession, format!("session {id} was closed"));
            }
            let handle = match st.kernels.get(kernel) {
                Some(h) => *h,
                None => {
                    // Registry names are 'static; cache the handle for
                    // the rest of this session generation.
                    let name = kernels::KERNEL_NAMES
                        .iter()
                        .find(|n| **n == kernel)
                        .expect("kernel_def implies a registry name");
                    match st.gpu.build(&def) {
                        Ok(h) => {
                            st.kernels.insert(name, h);
                            h
                        }
                        Err(e) => return self.rt_error(e),
                    }
                }
            };
            let mut b = LaunchConfig::builder().grid(grid).block(block);
            for p in params {
                b = b.arg_raw(*p);
            }
            match st.gpu.launch_config(handle, &b.build()) {
                Ok(outcome) => {
                    self.counters.launches.fetch_add(1, Ordering::Relaxed);
                    Response::Launched {
                        kernel_ns: outcome.report.kernel_ns(),
                    }
                }
                Err(e) => self.rt_error(e),
            }
        })();
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(usage) = tenants.get_mut(&entry.tenant) {
            usage.inflight = usage.inflight.saturating_sub(1);
        }
        response
    }

    fn reset(&self, id: u64) -> Response {
        let Some(entry) = self.session_entry(id) else {
            return err(ErrorKind::BadSession, format!("no session {id}"));
        };
        self.harvest_trace(&entry, id);
        let result = {
            let mut st = entry.slot.lock();
            if st.session_id != id {
                None
            } else {
                st.kernels.clear();
                Some(st.gpu.session_mut().reset())
            }
        };
        let Some(report) = result else {
            return err(ErrorKind::BadSession, format!("session {id} was closed"));
        };
        // Device memory is gone; hand the bytes back to the quota.
        let resident = entry.resident.swap(0, Ordering::Relaxed);
        self.release_resident(&entry.tenant, resident);
        self.counters.resets.fetch_add(1, Ordering::Relaxed);
        Response::ResetDone {
            evicted: report.evicted_kernels as u32,
            had_fault: report.fault.is_some(),
        }
    }

    // ---- internals ----------------------------------------------------

    fn session_entry(&self, id: u64) -> Option<Arc<SessionEntry>> {
        self.sessions.lock().unwrap().get(&id).cloned()
    }

    /// Run `f` on the session's context under the slot lock, after the
    /// stale-handle check.
    fn with_session(
        &self,
        id: u64,
        f: impl FnOnce(&mut gpucmp_runtime::Cuda) -> Result<Response, RtError>,
    ) -> Response {
        let Some(entry) = self.session_entry(id) else {
            return err(ErrorKind::BadSession, format!("no session {id}"));
        };
        let mut st = entry.slot.lock();
        if st.session_id != id {
            return err(ErrorKind::BadSession, format!("session {id} was closed"));
        }
        match f(&mut st.gpu) {
            Ok(resp) => resp,
            Err(e) => self.rt_error(e),
        }
    }

    /// Harvest the session's trace stream (if tracing) before a reset or
    /// recycle discards it.
    fn harvest_trace(&self, entry: &SessionEntry, id: u64) {
        if !self.cfg.trace {
            return;
        }
        let events = {
            let st = entry.slot.lock();
            if st.session_id != id {
                return;
            }
            st.gpu.session().trace_events().to_vec()
        };
        if !events.is_empty() {
            self.traces.lock().unwrap().push(TenantTrace {
                tenant: entry.tenant.clone(),
                session: id,
                events,
            });
        }
    }

    fn release_session_count(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(usage) = tenants.get_mut(tenant) {
            usage.sessions = usage.sessions.saturating_sub(1);
        }
    }

    fn release_resident(&self, tenant: &str, bytes: u64) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(usage) = tenants.get_mut(tenant) {
            usage.resident = usage.resident.saturating_sub(bytes);
        }
    }

    /// Map a runtime error onto the wire's typed error classes, counting
    /// the fault-isolation signals.
    fn rt_error(&self, e: RtError) -> Response {
        let kind = match &e {
            RtError::ContextLost { .. } => {
                self.counters.context_lost.fetch_add(1, Ordering::Relaxed);
                ErrorKind::ContextLost
            }
            RtError::DeviceFault { .. } => {
                self.counters.device_faults.fetch_add(1, Ordering::Relaxed);
                ErrorKind::DeviceFault
            }
            RtError::OutOfMemory { .. } => ErrorKind::OutOfMemory,
            _ => ErrorKind::BadRequest,
        };
        err(kind, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(slots: usize, quota: TenantQuota) -> SessionService {
        SessionService::new(ServerConfig {
            slots,
            arena_bytes: 8 << 20,
            quota,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    fn open(svc: &SessionService, tenant: &str) -> u64 {
        match svc.handle(Request::Open {
            tenant: tenant.into(),
        }) {
            Response::Opened { session } => session,
            other => panic!("open failed: {other:?}"),
        }
    }

    fn error_kind(resp: Response) -> ErrorKind {
        match resp {
            Response::Error { kind, .. } => kind,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn pool_exhaustion_is_typed_busy() {
        let svc = service(2, TenantQuota::default());
        // Distinct tenants so the session quota cannot interfere.
        let _a = open(&svc, "a");
        let _b = open(&svc, "b");
        let resp = svc.handle(Request::Open { tenant: "c".into() });
        assert_eq!(error_kind(resp), ErrorKind::Busy);
        let s = svc.stats();
        assert_eq!(s.busy_rejections, 1);
        assert_eq!(s.slots_free, 0);
    }

    #[test]
    fn session_quota_is_typed_quota_exceeded() {
        let svc = service(
            8,
            TenantQuota {
                max_sessions: 2,
                ..TenantQuota::default()
            },
        );
        let _a = open(&svc, "t");
        let b = open(&svc, "t");
        let resp = svc.handle(Request::Open { tenant: "t".into() });
        assert_eq!(error_kind(resp), ErrorKind::QuotaExceeded);
        // Closing frees the quota slot.
        assert_eq!(svc.handle(Request::Close { session: b }), Response::Closed);
        let _c = open(&svc, "t");
        assert_eq!(svc.stats().quota_rejections, 1);
    }

    #[test]
    fn resident_byte_quota_enforced_at_enqueue() {
        let svc = service(
            2,
            TenantQuota {
                max_resident_bytes: 1 << 20,
                ..TenantQuota::default()
            },
        );
        let s = open(&svc, "t");
        let resp = svc.handle(Request::Alloc {
            session: s,
            bytes: 1 << 19,
        });
        assert!(matches!(resp, Response::Allocated { .. }), "{resp:?}");
        let resp = svc.handle(Request::Alloc {
            session: s,
            bytes: (1 << 19) + 1,
        });
        assert_eq!(error_kind(resp), ErrorKind::QuotaExceeded);
        // Reset releases the resident bytes.
        assert!(matches!(
            svc.handle(Request::Reset { session: s }),
            Response::ResetDone { .. }
        ));
        let resp = svc.handle(Request::Alloc {
            session: s,
            bytes: 1 << 20,
        });
        assert!(matches!(resp, Response::Allocated { .. }), "{resp:?}");
    }

    #[test]
    fn full_request_cycle_computes() {
        let svc = service(1, TenantQuota::default());
        let s = open(&svc, "t");
        let n = 256u32;
        let ptr = match svc.handle(Request::Alloc {
            session: s,
            bytes: n as u64 * 4,
        }) {
            Response::Allocated { ptr } => ptr,
            other => panic!("{other:?}"),
        };
        let resp = svc.handle(Request::Launch {
            session: s,
            kernel: "fill".into(),
            grid: n / 128,
            block: 128,
            params: vec![ptr, n as u64, f32::to_bits(2.5) as u64],
        });
        assert!(matches!(resp, Response::Launched { kernel_ns } if kernel_ns > 0.0));
        let data = match svc.handle(Request::Read {
            session: s,
            ptr,
            bytes: n as u64 * 4,
        }) {
            Response::Data { data } => data,
            other => panic!("{other:?}"),
        };
        for chunk in data.chunks_exact(4) {
            assert_eq!(f32::from_le_bytes(chunk.try_into().unwrap()), 2.5);
        }
        // Write a few bytes back and read them out again.
        let resp = svc.handle(Request::Write {
            session: s,
            ptr,
            data: vec![1, 2, 3, 4],
        });
        assert_eq!(resp, Response::Written);
        match svc.handle(Request::Read {
            session: s,
            ptr,
            bytes: 4,
        }) {
            Response::Data { data } => assert_eq!(data, vec![1, 2, 3, 4]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fault_poisons_one_session_only() {
        let svc = service(2, TenantQuota::default());
        let bad = open(&svc, "mallory");
        let good = open(&svc, "alice");
        let ptr = |svc: &SessionService, s| match svc.handle(Request::Alloc {
            session: s,
            bytes: 1024,
        }) {
            Response::Allocated { ptr } => ptr,
            other => panic!("{other:?}"),
        };
        let bad_ptr = ptr(&svc, bad);
        let good_ptr = ptr(&svc, good);

        // mallory's out-of-bounds launch faults and poisons her context.
        let resp = svc.handle(Request::Launch {
            session: bad,
            kernel: "oob".into(),
            grid: 1,
            block: 32,
            params: vec![bad_ptr],
        });
        assert_eq!(error_kind(resp), ErrorKind::DeviceFault);
        // Sticky: further requests bounce with ContextLost...
        let resp = svc.handle(Request::Alloc {
            session: bad,
            bytes: 64,
        });
        assert_eq!(error_kind(resp), ErrorKind::ContextLost);
        // ...while alice's session is untouched.
        let resp = svc.handle(Request::Launch {
            session: good,
            kernel: "fill".into(),
            grid: 1,
            block: 128,
            params: vec![good_ptr, 128, f32::to_bits(1.0) as u64],
        });
        assert!(matches!(resp, Response::Launched { .. }), "{resp:?}");

        // Reset clears the fault in place.
        match svc.handle(Request::Reset { session: bad }) {
            Response::ResetDone { had_fault, .. } => assert!(had_fault),
            other => panic!("{other:?}"),
        }
        let resp = svc.handle(Request::Alloc {
            session: bad,
            bytes: 64,
        });
        assert!(matches!(resp, Response::Allocated { .. }), "{resp:?}");

        let s = svc.stats();
        assert_eq!(s.device_faults, 1);
        assert_eq!(s.context_lost, 1);
    }

    #[test]
    fn runaway_kernel_trips_per_tenant_watchdog() {
        let svc = service(
            1,
            TenantQuota {
                inst_budget: Some(10_000),
                ..TenantQuota::default()
            },
        );
        let s = open(&svc, "t");
        let ptr = match svc.handle(Request::Alloc {
            session: s,
            bytes: 64,
        }) {
            Response::Allocated { ptr } => ptr,
            other => panic!("{other:?}"),
        };
        let resp = svc.handle(Request::Launch {
            session: s,
            kernel: "spin".into(),
            grid: 1,
            block: 32,
            params: vec![ptr, 1_000_000],
        });
        assert_eq!(error_kind(resp), ErrorKind::DeviceFault);
        assert_eq!(
            error_kind(svc.handle(Request::Alloc {
                session: s,
                bytes: 64
            })),
            ErrorKind::ContextLost
        );
    }

    #[test]
    fn stale_handles_fail_typed_after_close_and_reopen() {
        let svc = service(1, TenantQuota::default());
        let old = open(&svc, "a");
        assert_eq!(
            svc.handle(Request::Close { session: old }),
            Response::Closed
        );
        // The slot is re-used by a new session; the old handle must not
        // reach it.
        let new = open(&svc, "b");
        assert_ne!(old, new);
        for resp in [
            svc.handle(Request::Alloc {
                session: old,
                bytes: 64,
            }),
            svc.handle(Request::Close { session: old }),
            svc.handle(Request::Launch {
                session: old,
                kernel: "fill".into(),
                grid: 1,
                block: 32,
                params: vec![],
            }),
        ] {
            assert_eq!(error_kind(resp), ErrorKind::BadSession);
        }
        // The new session still works.
        assert!(matches!(
            svc.handle(Request::Alloc {
                session: new,
                bytes: 64
            }),
            Response::Allocated { .. }
        ));
    }

    #[test]
    fn unknown_kernel_and_bad_requests_are_typed() {
        let svc = service(1, TenantQuota::default());
        let s = open(&svc, "t");
        assert_eq!(
            error_kind(svc.handle(Request::Launch {
                session: s,
                kernel: "rootkit".into(),
                grid: 1,
                block: 32,
                params: vec![],
            })),
            ErrorKind::UnknownKernel
        );
        assert_eq!(
            error_kind(svc.handle(Request::Launch {
                session: s,
                kernel: "fill".into(),
                grid: 0,
                block: 32,
                params: vec![],
            })),
            ErrorKind::BadRequest
        );
        assert_eq!(
            error_kind(svc.handle(Request::Read {
                session: s,
                ptr: 0,
                bytes: u64::MAX,
            })),
            ErrorKind::BadRequest
        );
        assert_eq!(
            error_kind(svc.handle(Request::Open { tenant: "".into() })),
            ErrorKind::BadRequest
        );
        // Arena OOM (not quota): ask for more than the 8 MiB slot arena
        // but less than the 256 MiB resident quota.
        assert_eq!(
            error_kind(svc.handle(Request::Alloc {
                session: s,
                bytes: 32 << 20,
            })),
            ErrorKind::OutOfMemory
        );
    }

    #[test]
    fn churn_reuses_slots_without_growth() {
        let svc = service(2, TenantQuota::default());
        for i in 0..100 {
            let s = open(&svc, &format!("tenant-{}", i % 5));
            assert_eq!(svc.handle(Request::Close { session: s }), Response::Closed);
        }
        assert_eq!(svc.pool().capacity(), 2, "pool never grows");
        assert_eq!(svc.pool().free_count(), 2, "all slots returned");
        assert_eq!(svc.pool().recycles(), 100);
        let s = svc.stats();
        assert_eq!((s.opens, s.closes), (100, 100));
    }

    #[test]
    fn traces_are_harvested_per_tenant_session() {
        let svc = SessionService::new(ServerConfig {
            slots: 1,
            arena_bytes: 8 << 20,
            trace: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let s = open(&svc, "traced");
        let ptr = match svc.handle(Request::Alloc {
            session: s,
            bytes: 512,
        }) {
            Response::Allocated { ptr } => ptr,
            other => panic!("{other:?}"),
        };
        svc.handle(Request::Write {
            session: s,
            ptr,
            data: vec![0; 512],
        });
        svc.handle(Request::Launch {
            session: s,
            kernel: "fill".into(),
            grid: 1,
            block: 128,
            params: vec![ptr, 128, 0],
        });
        svc.handle(Request::Close { session: s });
        let traces = svc.take_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].tenant, "traced");
        assert_eq!(traces[0].session, s);
        assert!(!traces[0].events.is_empty());
        assert!(svc.take_traces().is_empty(), "take drains");
    }
}
