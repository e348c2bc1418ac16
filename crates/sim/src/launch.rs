//! Kernel launch: configuration, execution and the launch report.

use crate::decode::DecodedKernel;
use crate::device::DeviceSpec;
use crate::error::{DeviceFault, SimError};
use crate::exec::{run_launch_with_code, ExecOptions, ExecProfile, DEFAULT_INST_BUDGET};
use crate::mem::{DevPtr, GlobalMemory};
use crate::stats::ExecStats;
use crate::timing::{kernel_time, Timing};
use gpucmp_ptx::ResolvedKernel;

/// Three-dimensional launch extent (grid or block).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// A 3-D extent.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// A 1-D extent.
    pub const fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D extent.
    pub const fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count.
    pub const fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

/// A buffer bound to a texture slot (the runtime's `cudaBindTexture`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TexBinding {
    /// Base device pointer of the bound buffer.
    pub ptr: DevPtr,
    /// Number of elements bound (element size comes from the fetch type).
    pub elems: u64,
}

/// Configuration for one kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchConfig {
    /// Grid dimensions in blocks.
    pub grid: Dim3,
    /// Block dimensions in threads.
    pub block: Dim3,
    /// Kernel parameters as raw 64-bit slot images (device pointers are
    /// `DevPtr::0`, scalars zero/sign-extended, f32 in the low 32 bits).
    pub params: Vec<u64>,
    /// Texture bindings by slot.
    pub textures: Vec<TexBinding>,
    /// Dynamic warp-instruction budget (runaway guard).
    pub inst_budget: u64,
}

impl LaunchConfig {
    /// A launch of `grid` blocks of `block` threads.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
            params: Vec::new(),
            textures: Vec::new(),
            inst_budget: DEFAULT_INST_BUDGET,
        }
    }

    /// Append a device-pointer parameter (accepts anything convertible to
    /// a [`DevPtr`], e.g. a typed runtime buffer).
    pub fn arg_ptr(mut self, p: impl Into<DevPtr>) -> Self {
        self.params.push(p.into().0);
        self
    }

    /// Append a 32-bit integer parameter.
    pub fn arg_i32(mut self, v: i32) -> Self {
        self.params.push(v as u32 as u64);
        self
    }

    /// Append an f32 parameter.
    pub fn arg_f32(mut self, v: f32) -> Self {
        self.params.push(v.to_bits() as u64);
        self
    }

    /// Bind a texture slot (slots bind in call order: first call = slot 0).
    pub fn bind_texture(mut self, ptr: DevPtr, elems: u64) -> Self {
        self.textures.push(TexBinding { ptr, elems });
        self
    }

    /// Override the dynamic warp-instruction budget (runaway guard). The
    /// session may clamp this further (e.g. a per-tenant quota cap).
    pub fn with_inst_budget(mut self, budget: u64) -> Self {
        self.inst_budget = budget;
        self
    }
}

impl From<&LaunchConfig> for LaunchConfig {
    fn from(cfg: &LaunchConfig) -> Self {
        cfg.clone()
    }
}

/// Result of a launch: exact statistics plus modelled timing.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Execution statistics (exact).
    pub stats: ExecStats,
    /// Timing breakdown (modelled).
    pub timing: Timing,
    /// Host-side (wall-clock) profiling of the simulator itself. Not part
    /// of the deterministic result — compare `stats`/`timing` instead.
    pub profile: ExecProfile,
    /// Memcheck sanitizer findings: access faults recorded (and
    /// suppressed) during the launch. Always empty unless the launch ran
    /// with [`ExecOptions::memcheck`] enabled; capped and deterministic
    /// for every host thread count.
    pub faults: Vec<DeviceFault>,
}

impl LaunchReport {
    /// Kernel duration in virtual nanoseconds.
    pub fn kernel_ns(&self) -> f64 {
        self.timing.total_ns
    }

    /// Flatten this launch's exact counters *and* modelled timing into one
    /// [`crate::stats::CounterSet`] — the per-launch profile the runtime
    /// attaches to every `Gpu::launch` and the trace exporter serialises.
    pub fn counters(&self, device: &DeviceSpec) -> crate::stats::CounterSet {
        let mut c = self.stats.counter_set(device.warp_width);
        c.push("kernel_ns", self.timing.total_ns);
        c.push("compute_ns", self.timing.compute_ns);
        c.push("memory_ns", self.timing.memory_ns);
        c.push("latency_ns", self.timing.latency_ns);
        c.push("achieved_occupancy", self.timing.occupancy);
        c.push("blocks_per_cu", self.timing.blocks_per_cu as f64);
        for (name, share) in self.timing.stall_shares() {
            // e.g. stall_compute_share / stall_memory_share / stall_latency_share
            match name {
                "compute" => c.push("stall_compute_share", share),
                "memory" => c.push("stall_memory_share", share),
                _ => c.push("stall_latency_share", share),
            }
        }
        c
    }
}

/// Execute a kernel launch on `device`, mutating `gmem`, and return the
/// report. `const_bank` is the module's packed constant bank image.
/// Serial execution; use [`launch_with`] to choose a thread count.
pub fn launch(
    device: &DeviceSpec,
    kernel: &ResolvedKernel,
    gmem: &mut GlobalMemory,
    const_bank: &[u8],
    cfg: &LaunchConfig,
) -> Result<LaunchReport, SimError> {
    launch_with(
        device,
        kernel,
        gmem,
        const_bank,
        cfg,
        &ExecOptions::default(),
    )
}

/// [`launch`] with explicit [`ExecOptions`] — in particular the number of
/// host threads simulating blocks. The report's `stats` and `timing` are
/// bit-identical for every thread count.
pub fn launch_with(
    device: &DeviceSpec,
    kernel: &ResolvedKernel,
    gmem: &mut GlobalMemory,
    const_bank: &[u8],
    cfg: &LaunchConfig,
    opts: &ExecOptions,
) -> Result<LaunchReport, SimError> {
    launch_with_code(device, kernel, gmem, const_bank, cfg, opts, None)
}

/// [`launch_with`] with an optional pre-decoded kernel. On the decoded
/// tier ([`ExecOptions::tier`]), passing `Some` reuses an existing
/// [`DecodedKernel`] (e.g. the one a runtime's loaded kernel keeps)
/// instead of decoding on every launch; `None` decodes on the fly. The
/// decoded kernel must come from this `kernel` and `device` — the runtime
/// guarantees this by keeping each decode on the kernel handle it was
/// made from, within a fixed-device session.
#[allow(clippy::too_many_arguments)]
pub fn launch_with_code(
    device: &DeviceSpec,
    kernel: &ResolvedKernel,
    gmem: &mut GlobalMemory,
    const_bank: &[u8],
    cfg: &LaunchConfig,
    opts: &ExecOptions,
    code: Option<&DecodedKernel>,
) -> Result<LaunchReport, SimError> {
    let (stats, profile, faults) =
        run_launch_with_code(device, kernel, gmem, cfg, const_bank, opts, code)?;
    let k = &kernel.kernel;
    // Pre-ptxas kernels (phys_regs == 0) get a rough estimate so occupancy
    // remains meaningful in unit tests.
    let regs = if k.phys_regs > 0 {
        k.phys_regs
    } else {
        (k.regs.len() as u32).clamp(8, 64)
    };
    let timing = kernel_time(
        device,
        &stats,
        cfg.block.count() as u32,
        cfg.grid.count(),
        regs,
        k.shared_bytes,
    );
    Ok(LaunchReport {
        stats,
        timing,
        profile,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_ptx::{Address, CmpOp, KernelBuilder, Op2, Op3, Operand, Space, Special, Ty};

    /// Build a SAXPY-like kernel: y[i] = a*x[i] + y[i] for i < n.
    fn saxpy_kernel() -> gpucmp_ptx::Kernel {
        let mut b = KernelBuilder::new("saxpy");
        b.param("x", Ty::U64);
        b.param("y", Ty::U64);
        b.param("a", Ty::F32);
        b.param("n", Ty::S32);
        let tid = b.special(Special::TidX);
        let ntid = b.special(Special::NtidX);
        let ctaid = b.special(Special::CtaidX);
        let base = b.tern(Op3::Mad, Ty::U32, ctaid, ntid, tid);
        let n = b.ld_param(3, Ty::S32);
        let p = b.setp(CmpOp::Ge, Ty::S32, base, n);
        let end = b.new_label();
        b.ssy(end);
        b.bra_if(end, p, true);
        // body
        let xptr = b.ld_param(0, Ty::U64);
        let yptr = b.ld_param(1, Ty::U64);
        let a = b.ld_param(2, Ty::F32);
        let off64 = b.cvt(Ty::U64, Ty::U32, base);
        let off = b.bin(Op2::Shl, Ty::U64, off64, 2i32);
        let xa = b.bin(Op2::Add, Ty::U64, xptr, off);
        let ya = b.bin(Op2::Add, Ty::U64, yptr, off);
        let xv = b.ld(Space::Global, Ty::F32, Address::base(Operand::Reg(xa)));
        let yv = b.ld(Space::Global, Ty::F32, Address::base(Operand::Reg(ya)));
        let r = b.tern(Op3::Fma, Ty::F32, a, xv, yv);
        b.st(Space::Global, Ty::F32, Address::base(Operand::Reg(ya)), r);
        b.place_label(end);
        b.sync();
        b.finish()
    }

    #[test]
    fn saxpy_functional_and_counted() {
        let device = DeviceSpec::gtx480();
        let kernel = saxpy_kernel();
        gpucmp_ptx::validate_kernel(&kernel).unwrap();
        let resolved = kernel.resolve().unwrap();
        let mut gmem = GlobalMemory::new(1 << 20);
        let n = 1000usize; // not a multiple of the block size: tests the guard
        let x = gmem.alloc((n * 4) as u64).unwrap();
        let y = gmem.alloc((n * 4) as u64).unwrap();
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
        gmem.write_f32_slice(x, &xs).unwrap();
        gmem.write_f32_slice(y, &ys).unwrap();
        let cfg = LaunchConfig::new(8u32, 128u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_f32(2.0)
            .arg_i32(n as i32);
        let report = launch(&device, &resolved, &mut gmem, &[], &cfg).unwrap();
        let out = gmem.read_f32_slice(y, n).unwrap();
        for i in 0..n {
            assert_eq!(out[i], 2.0 * xs[i] + ys[i], "element {i}");
        }
        assert_eq!(report.stats.blocks, 8);
        assert_eq!(report.stats.threads, 1024);
        // 1000 of 1024 threads did the body: there must be divergence in
        // the tail warp only.
        assert!(report.stats.divergent_branches >= 1);
        assert!(report.stats.flops >= 2 * n as u64);
        assert!(report.timing.total_ns > 0.0);
        // Both arrays must be fetched from DRAM at least once; the write of
        // y hits in L2 on Fermi (the line was just read), so only the two
        // read streams are guaranteed to reach DRAM.
        assert!(report.stats.dram_bytes() >= 2 * 4 * 1000);
    }

    #[test]
    fn saxpy_is_deterministic() {
        let device = DeviceSpec::gtx280();
        let kernel = saxpy_kernel().resolve().unwrap();
        let run = || {
            let mut gmem = GlobalMemory::new(1 << 20);
            let x = gmem.alloc(4096).unwrap();
            let y = gmem.alloc(4096).unwrap();
            let xs: Vec<f32> = (0..1024).map(|i| (i % 97) as f32 * 0.5).collect();
            gmem.write_f32_slice(x, &xs).unwrap();
            gmem.write_f32_slice(y, &xs).unwrap();
            let cfg = LaunchConfig::new(4u32, 256u32)
                .arg_ptr(x)
                .arg_ptr(y)
                .arg_f32(1.5)
                .arg_i32(1024);
            let r = launch(&device, &kernel, &mut gmem, &[], &cfg).unwrap();
            (
                gmem.read_f32_slice(y, 1024).unwrap(),
                r.stats,
                r.timing.total_ns,
            )
        };
        let (o1, s1, t1) = run();
        let (o2, s2, t2) = run();
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn bad_param_count_rejected() {
        let device = DeviceSpec::gtx480();
        let kernel = saxpy_kernel().resolve().unwrap();
        let mut gmem = GlobalMemory::new(1 << 16);
        let cfg = LaunchConfig::new(1u32, 32u32); // zero params
        let e = launch(&device, &kernel, &mut gmem, &[], &cfg).unwrap_err();
        assert!(matches!(
            e,
            SimError::BadParamCount {
                expected: 4,
                got: 0
            }
        ));
    }

    #[test]
    fn oversized_block_rejected() {
        let device = DeviceSpec::gtx280(); // max work-group 512
        let kernel = saxpy_kernel().resolve().unwrap();
        let mut gmem = GlobalMemory::new(1 << 16);
        let cfg = LaunchConfig::new(1u32, 1024u32)
            .arg_ptr(DevPtr::NULL)
            .arg_ptr(DevPtr::NULL)
            .arg_f32(0.0)
            .arg_i32(0);
        let e = launch(&device, &kernel, &mut gmem, &[], &cfg).unwrap_err();
        assert!(matches!(e, SimError::InvalidLaunch(_)));
    }

    #[test]
    fn out_of_bounds_access_trapped() {
        let device = DeviceSpec::gtx480();
        let kernel = saxpy_kernel().resolve().unwrap();
        let mut gmem = GlobalMemory::new(1 << 12);
        // n says 10000 elements but the buffers are tiny
        let x = gmem.alloc(64).unwrap();
        let y = gmem.alloc(64).unwrap();
        let cfg = LaunchConfig::new(64u32, 256u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_f32(1.0)
            .arg_i32(10_000);
        let e = launch(&device, &kernel, &mut gmem, &[], &cfg).unwrap_err();
        let fault = e.fault().expect("OOB must surface as a device fault");
        assert!(matches!(
            fault.kind,
            crate::error::FaultKind::OutOfBounds { .. }
        ));
        let site = fault.site.expect("access faults carry a site");
        // The lowest faulting access: the y buffer (higher base address)
        // runs out at element 896 = block 3, thread 128 — warps execute
        // round-robin, so warp 4's lane-0 load faults first.
        assert_eq!(site.block, [3, 0, 0]);
        assert_eq!(site.thread, [128, 0, 0]);
    }

    #[test]
    fn wavefront_width_changes_warp_special_registers() {
        // kernel writes %warpid of each thread
        let mut b = KernelBuilder::new("warpids");
        b.param("out", Ty::U64);
        let tid = b.special(Special::TidX);
        let wid = b.special(Special::WarpId);
        let out = b.ld_param(0, Ty::U64);
        let o64 = b.cvt(Ty::U64, Ty::U32, tid);
        let off = b.bin(Op2::Shl, Ty::U64, o64, 2i32);
        let addr = b.bin(Op2::Add, Ty::U64, out, off);
        b.st(
            Space::Global,
            Ty::U32,
            Address::base(Operand::Reg(addr)),
            wid,
        );
        let kernel = b.finish().resolve().unwrap();

        let run = |device: &DeviceSpec| {
            let mut gmem = GlobalMemory::new(1 << 16);
            let out = gmem.alloc(256 * 4).unwrap();
            let cfg = LaunchConfig::new(1u32, 256u32).arg_ptr(out);
            launch(device, &kernel, &mut gmem, &[], &cfg).unwrap();
            gmem.read_u32_slice(out, 256).unwrap()
        };
        let nv = run(&DeviceSpec::gtx280());
        let ati = run(&DeviceSpec::hd5870());
        assert_eq!(nv[31], 0);
        assert_eq!(nv[32], 1); // warp 32-wide
        assert_eq!(ati[32], 0); // wavefront 64-wide
        assert_eq!(ati[64], 1);
    }
}
