//! A delegating `Gpu` that records a span around every call into the
//! runtime, plus the compile-stage replay that splits `Gpu::build`.
//!
//! The wrapper overrides each timed trait method to call the same method
//! on the wrapped runtime, so the code measured is exactly the code users
//! run. It leaves the deprecated per-type transfer aliases alone: they are
//! defaults over the generic calls it already times.

use crate::spans::{self, child, count, now_ns, span};
use gpucmp_compiler::{lower::lower, ptxas, Api, KernelDef};
use gpucmp_ptx::{kernel_hash, validate_kernel, InstStats};
use gpucmp_runtime::{
    Cuda, Event, Gpu, KernelHandle, LaunchOutcome, LoadedKernel, OpenCl, RtError, Session, Stream,
};
use gpucmp_sim::{decode_kernel, DevPtr, DeviceSpec, LaunchConfig};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// A `Gpu` that records spans and counts around the runtime it wraps, and
/// optionally flips one byte of the first non-empty readback (to prove the
/// harness's output checks catch a wrong result).
pub struct Traced<'a> {
    inner: &'a mut dyn Gpu,
    mutate: bool,
}

impl<'a> Traced<'a> {
    /// Wrap `inner`; with `mutate`, corrupt its first non-empty readback.
    pub fn new(inner: &'a mut dyn Gpu, mutate: bool) -> Self {
        Traced { inner, mutate }
    }

    fn corrupt(&mut self, data: &mut [u8]) {
        if self.mutate && !data.is_empty() {
            data[0] ^= 1;
            self.mutate = false;
        }
    }

    fn note_launch(&self, start_ns: u64, decodes_before: u64, outcome: &LaunchOutcome) {
        let p = outcome.profile();
        let exec_end = start_ns + p.host_exec_ns;
        child("sim.exec", start_ns, exec_end);
        child("sim.merge", exec_end, exec_end + p.host_merge_ns);
        count("runtime.launches", 1.0);
        count(
            "runtime.decodes",
            (self.inner.session().decode_count() - decodes_before) as f64,
        );
        count("sim.blocks", p.blocks_simulated as f64);
        count("sim.overlay_bytes", p.overlay_bytes as f64);
        count("sim.winst", outcome.report.stats.warp_instructions as f64);
    }

    fn note_build(&self, def: &KernelDef, loaded: &LoadedKernel) {
        count("compiler.builds", 1.0);
        count("compiler.ptx_insts", loaded.ptx_stats.total() as f64);
        count(
            "compiler.exec_insts",
            loaded.resolved.kernel.len_real() as f64,
        );
        count("compiler.spills", loaded.spilled as f64);
        CAPTURE.with(|c| {
            let mut c = c.borrow_mut();
            c.seen += 1;
            if (c.seen - 1) % c.every == 0 {
                c.samples.push(BuildSample {
                    def: def.clone(),
                    api: self.inner.api(),
                    device: self.inner.device().clone(),
                });
            }
        });
    }
}

impl Gpu for Traced<'_> {
    fn api(&self) -> Api {
        self.inner.api()
    }

    fn session(&self) -> &Session {
        self.inner.session()
    }

    fn session_mut(&mut self) -> &mut Session {
        self.inner.session_mut()
    }

    fn submit_overhead_ns(&self) -> f64 {
        self.inner.submit_overhead_ns()
    }

    fn validate_launch(&self, kernel: &LoadedKernel, cfg: &LaunchConfig) -> Result<(), RtError> {
        self.inner.validate_launch(kernel, cfg)
    }

    fn malloc(&mut self, bytes: u64) -> Result<DevPtr, RtError> {
        span("runtime.malloc", || self.inner.malloc(bytes))
    }

    fn enqueue_h2d(&mut self, stream: Stream, ptr: DevPtr, data: &[u8]) -> Result<Event, RtError> {
        count("runtime.xfer_bytes", data.len() as f64);
        span("runtime.h2d", || self.inner.enqueue_h2d(stream, ptr, data))
    }

    fn h2d(&mut self, ptr: DevPtr, data: &[u8]) -> Result<(), RtError> {
        count("runtime.xfer_bytes", data.len() as f64);
        span("runtime.h2d", || self.inner.h2d(ptr, data))
    }

    fn enqueue_d2h(&mut self, stream: Stream, ptr: DevPtr, bytes: u64) -> Result<Event, RtError> {
        count("runtime.xfer_bytes", bytes as f64);
        span("runtime.d2h", || self.inner.enqueue_d2h(stream, ptr, bytes))
    }

    fn d2h(&mut self, ptr: DevPtr, data: &mut [u8]) -> Result<(), RtError> {
        count("runtime.xfer_bytes", data.len() as f64);
        span("runtime.d2h", || self.inner.d2h(ptr, data))?;
        self.corrupt(data);
        Ok(())
    }

    fn event_synchronize(&mut self, event: Event) -> Result<f64, RtError> {
        span("runtime.sync", || self.inner.event_synchronize(event))
    }

    fn stream_synchronize(&mut self, stream: Stream) -> Result<f64, RtError> {
        span("runtime.sync", || self.inner.stream_synchronize(stream))
    }

    fn device_synchronize(&mut self) -> Result<f64, RtError> {
        span("runtime.sync", || self.inner.device_synchronize())
    }

    fn take_readback(&mut self, event: Event) -> Result<Vec<u8>, RtError> {
        let mut data = span("runtime.sync", || self.inner.take_readback(event))?;
        self.corrupt(&mut data);
        Ok(data)
    }

    fn build(&mut self, def: &KernelDef) -> Result<KernelHandle, RtError> {
        let h = span("runtime.build", || self.inner.build(def))?;
        if spans::active() {
            self.note_build(def, self.inner.session().kernel(h)?);
        }
        Ok(h)
    }

    fn enqueue_launch_config(
        &mut self,
        stream: Stream,
        h: KernelHandle,
        cfg: &LaunchConfig,
    ) -> Result<(Event, LaunchOutcome), RtError> {
        span("runtime.launch", || {
            let (start, decodes) = (now_ns(), self.inner.session().decode_count());
            let r = self.inner.enqueue_launch_config(stream, h, cfg);
            if let Ok((_, outcome)) = &r {
                self.note_launch(start, decodes, outcome);
            }
            r
        })
    }

    fn launch_config(
        &mut self,
        h: KernelHandle,
        cfg: &LaunchConfig,
    ) -> Result<LaunchOutcome, RtError> {
        span("runtime.launch", || {
            let (start, decodes) = (now_ns(), self.inner.session().decode_count());
            let r = self.inner.launch_config(h, cfg);
            if let Ok(outcome) = &r {
                self.note_launch(start, decodes, outcome);
            }
            r
        })
    }
}

/// A build captured for the compile-stage replay.
pub struct BuildSample {
    def: KernelDef,
    api: Api,
    device: DeviceSpec,
}

struct Capture {
    every: usize,
    seen: usize,
    samples: Vec<BuildSample>,
}

thread_local! {
    static CAPTURE: RefCell<Capture> = const {
        RefCell::new(Capture { every: 1, seen: 0, samples: Vec::new() })
    };
}

/// Capture every `every`-th build this thread runs from now on.
pub fn start_capture(every: usize) {
    CAPTURE.with(|c| {
        *c.borrow_mut() = Capture {
            every: every.max(1),
            seen: 0,
            samples: Vec::new(),
        }
    });
}

/// The builds this thread captured.
pub fn take_capture() -> Vec<BuildSample> {
    CAPTURE.with(|c| std::mem::take(&mut c.borrow_mut().samples))
}

/// Host time of each compile stage, summed over the replayed builds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stages {
    /// Builds replayed.
    pub builds: u64,
    /// What those builds took inside `Gpu::build`, ns.
    pub measured_ns: u64,
    /// Front-end lowering, ns.
    pub lower_ns: u64,
    /// Both `validate_kernel` passes, ns.
    pub validate_ns: u64,
    /// PTX statistics and the copy `ptxas` rewrites, ns.
    pub stats_ns: u64,
    /// The `ptxas` backend, ns.
    pub ptxas_ns: u64,
    /// Label resolution, ns.
    pub resolve_ns: u64,
    /// Content hashing, ns.
    pub hash_ns: u64,
    /// Decoding into the dispatch IR (at first launch, not in `build`), ns.
    pub decode_ns: u64,
}

impl Stages {
    /// Sum of the stages `Gpu::build` runs (decode excluded).
    pub fn build_sum_ns(&self) -> u64 {
        self.lower_ns
            + self.validate_ns
            + self.stats_ns
            + self.ptxas_ns
            + self.resolve_ns
            + self.hash_ns
    }
}

/// Re-run each captured build twice: through `Gpu::build` on a fresh
/// session of its API, and stage by stage, timing every stage — the same
/// sequence `Gpu::build` runs, then the decode its first launch runs.
/// Timing the two back to back (in alternating order, so neither always
/// finds the caches warm) keeps the comparison fair on a machine whose
/// speed drifts.
pub fn replay_stages(samples: &[BuildSample]) -> Result<Stages, String> {
    let mut st = Stages::default();
    for (i, s) in samples.iter().enumerate() {
        if i % 2 == 0 {
            st.measured_ns += rebuild(s)?;
            stages(s, &mut st)?;
        } else {
            stages(s, &mut st)?;
            st.measured_ns += rebuild(s)?;
        }
        st.builds += 1;
    }
    Ok(st)
}

/// A fresh session of `api`'s runtime on `device`, timed as
/// `runtime.session_new` when tracing.
pub fn session(api: Api, device: DeviceSpec) -> Result<Box<dyn Gpu>, RtError> {
    span("runtime.session_new", || {
        Ok(match api {
            Api::Cuda => Box::new(Cuda::new(device)?) as Box<dyn Gpu>,
            Api::OpenCl => Box::new(OpenCl::create_any(device)),
        })
    })
}

/// `Gpu::build` of the sample on a fresh session, ns.
fn rebuild(s: &BuildSample) -> Result<u64, String> {
    let mut gpu = session(s.api, s.device.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    black_box(gpu.build(&s.def).map_err(|e| e.to_string())?);
    Ok(t.elapsed().as_nanos() as u64)
}

fn stages(s: &BuildSample, st: &mut Stages) -> Result<(), String> {
    let lap = |t: &mut Instant| {
        let ns = t.elapsed().as_nanos() as u64;
        *t = Instant::now();
        ns
    };
    let mut t = Instant::now();
    let ptx = lower(&s.def, &s.api.style());
    st.lower_ns += lap(&mut t);
    validate_kernel(&ptx).map_err(|e| format!("{}: {e}", s.def.name))?;
    st.validate_ns += lap(&mut t);
    black_box(InstStats::of_kernel(&ptx));
    let mut exec = ptx.clone();
    st.stats_ns += lap(&mut t);
    black_box(ptxas::run(&mut exec, s.device.max_regs_per_thread));
    st.ptxas_ns += lap(&mut t);
    validate_kernel(&exec).map_err(|e| format!("{}: {e}", s.def.name))?;
    st.validate_ns += lap(&mut t);
    let resolved = exec.resolve()?;
    st.resolve_ns += lap(&mut t);
    black_box(kernel_hash(&resolved.kernel));
    st.hash_ns += lap(&mut t);
    black_box(decode_kernel(&resolved, &s.device));
    st.decode_ns += lap(&mut t);
    Ok(())
}
