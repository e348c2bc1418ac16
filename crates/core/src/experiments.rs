//! The experiment registry: one function per figure/table of the paper's
//! evaluation, each returning structured data whose `Display` prints the
//! same rows/series the paper reports.

use crate::pool::par_map;
use crate::pr::Pr;
use gpucmp_benchmarks::common::{Benchmark, Scale, Verify};
use gpucmp_benchmarks::{devicemem::DeviceMemory, maxflops::MaxFlops, mxm::MxM};
use gpucmp_benchmarks::{fdtd::Fdtd, fft::Fft, md::Md, sobel::Sobel, spmv::Spmv};
use gpucmp_compiler::Api;
use gpucmp_ptx::InstStats;
use gpucmp_runtime::{ClStatus, Cuda, FaultPlan, Gpu, GpuExt, OpenCl, RtError};
use gpucmp_sim::{DeviceSpec, ExecOptions, ExecTier};
use std::fmt;

/// Simulation options for experiment runs, from the environment.
///
/// `GPUCMP_SIM_THREADS=N` simulates thread blocks on `N` host workers
/// (`0` = one per available core). Unset or unparsable means serial.
/// `GPUCMP_SIM_TIER={interp,decoded}` selects the execution tier
/// (default: decoded; unknown values fall back to it). Both are purely host-side speed knobs: every
/// reported number is bit-identical for every setting.
pub fn exec_options_from_env() -> ExecOptions {
    std::env::var("GPUCMP_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(ExecOptions::with_threads)
        .unwrap_or_default()
        .tier(ExecTier::from_env())
}

/// Run a benchmark through `api`'s runtime on `device`, with the
/// environment's [`ExecOptions`] and no fault injection.
pub fn run(
    api: Api,
    bench: &dyn Benchmark,
    device: &DeviceSpec,
) -> Result<gpucmp_benchmarks::RunOutput, RtError> {
    run_with(api, bench, device, None, exec_options_from_env())
}

/// [`run`] with a fault-injection plan attached to the session before the
/// benchmark starts, and explicit [`ExecOptions`]: differential tests pin
/// the execution tier and worker count without touching process-global
/// state.
pub fn run_with(
    api: Api,
    bench: &dyn Benchmark,
    device: &DeviceSpec,
    plan: Option<FaultPlan>,
    exec: ExecOptions,
) -> Result<gpucmp_benchmarks::RunOutput, RtError> {
    let mut gpu: Box<dyn Gpu> = match api {
        Api::Cuda => Box::new(Cuda::new(device.clone())?),
        Api::OpenCl => Box::new(OpenCl::create_any(device.clone())),
    };
    gpu.set_exec_options(exec);
    gpu.set_fault_plan(plan);
    bench.run(gpu.as_mut())
}

// ----------------------------------------------------------------------
// Figs 1 & 2 — peak bandwidth / peak FLOPS
// ----------------------------------------------------------------------

/// One achieved-vs-theoretical peak measurement.
#[derive(Clone, Debug)]
pub struct PeakRow {
    /// Device name.
    pub device: &'static str,
    /// API name.
    pub api: &'static str,
    /// Achieved value.
    pub achieved: f64,
    /// Theoretical peak.
    pub theoretical: f64,
}

impl PeakRow {
    /// Achieved fraction of the theoretical peak.
    pub fn fraction(&self) -> f64 {
        self.achieved / self.theoretical
    }
}

/// Result of the Fig. 1 / Fig. 2 experiments.
#[derive(Clone, Debug)]
pub struct PeakComparison {
    /// Figure title.
    pub title: &'static str,
    /// Measurement unit.
    pub unit: &'static str,
    /// Rows (device x API).
    pub rows: Vec<PeakRow>,
}

impl PeakComparison {
    /// PR (OpenCL/CUDA) for a device.
    pub fn pr(&self, device: &str) -> Option<Pr> {
        let cuda = self
            .rows
            .iter()
            .find(|r| r.device == device && r.api == "CUDA")?;
        let ocl = self
            .rows
            .iter()
            .find(|r| r.device == device && r.api == "OpenCL")?;
        Some(Pr::from_performance(ocl.achieved, cuda.achieved))
    }
}

impl fmt::Display for PeakComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        writeln!(
            f,
            "{:<10} {:<8} {:>12} {:>12} {:>8}",
            "Device", "API", self.unit, "theoretical", "fraction"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:<8} {:>12.1} {:>12.1} {:>7.1}%",
                r.device,
                r.api,
                r.achieved,
                r.theoretical,
                r.fraction() * 100.0
            )?;
        }
        Ok(())
    }
}

/// Fig. 1 — achieved vs. theoretical peak device-memory bandwidth on
/// GTX280 and GTX480, CUDA vs OpenCL.
pub fn fig1_peak_bandwidth(scale: Scale) -> PeakComparison {
    peak(scale, false)
}

/// Fig. 2 — achieved vs. theoretical peak FLOPS.
pub fn fig2_peak_flops(scale: Scale) -> PeakComparison {
    peak(scale, true)
}

fn peak(scale: Scale, flops: bool) -> PeakComparison {
    let devices = [DeviceSpec::gtx280(), DeviceSpec::gtx480()];
    let mut rows = Vec::new();
    for d in &devices {
        let theoretical = if flops {
            d.theoretical_peak_gflops()
        } else {
            d.theoretical_peak_bandwidth_gbs()
        };
        for api in Api::both() {
            let out = if flops {
                run(api, &MaxFlops::new(scale), d)
            } else {
                run(api, &DeviceMemory::new(scale), d)
            }
            .expect("peak benchmark must run on NVIDIA devices");
            rows.push(PeakRow {
                device: d.name,
                api: api.name(),
                achieved: out.value,
                theoretical,
            });
        }
    }
    PeakComparison {
        title: if flops {
            "Fig 2: peak FLOPS (GFlops/sec)"
        } else {
            "Fig 1: peak device-memory bandwidth (GB/sec)"
        },
        unit: if flops { "GFlops/s" } else { "GB/s" },
        rows,
    }
}

// ----------------------------------------------------------------------
// Fig 3 — PR of all real-world benchmarks
// ----------------------------------------------------------------------

/// One benchmark's PR on one device.
#[derive(Clone, Debug)]
pub struct PrRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Device name.
    pub device: &'static str,
    /// CUDA metric value.
    pub cuda: f64,
    /// OpenCL metric value.
    pub opencl: f64,
    /// Metric unit.
    pub unit: &'static str,
    /// The PR (Eq. 1, computed on normalised performance).
    pub pr: Pr,
    /// Both outputs verified against the CPU reference?
    pub verified: bool,
}

/// Result of the Fig. 3 experiment.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// Rows: benchmark x device.
    pub rows: Vec<PrRow>,
}

impl Fig3 {
    /// The PR of `bench` on `device`.
    pub fn pr(&self, bench: &str, device: &str) -> Option<Pr> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.device == device)
            .map(|r| r.pr)
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 3: PR = Perf_OpenCL / Perf_CUDA (unmodified benchmarks)"
        )?;
        writeln!(
            f,
            "{:<8} {:<8} {:>12} {:>12} {:<14} {:>7}  verdict",
            "App", "Device", "CUDA", "OpenCL", "unit", "PR"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:<8} {:>12.4} {:>12.4} {:<14} {:>7.3}  {}{}",
                r.bench,
                r.device,
                r.cuda,
                r.opencl,
                r.unit,
                r.pr.0,
                r.pr.verdict(),
                if r.verified { "" } else { "  [verify FAILED]" }
            )?;
        }
        Ok(())
    }
}

/// Fig. 3 — run every real-world benchmark, unmodified, on both NVIDIA
/// GPUs with both APIs. Parallelised over (benchmark, device) pairs.
pub fn fig3_performance_ratio(scale: Scale) -> Fig3 {
    let n = gpucmp_benchmarks::real_world(scale).len();
    let pairs: Vec<(usize, &'static str)> = (0..n)
        .flat_map(|i| [(i, "GTX280"), (i, "GTX480")])
        .collect();
    // The pool keeps input order: benchmark order, then device.
    let rows: Vec<PrRow> = par_map(&pairs, |&(i, dev_name)| {
        let bench = &gpucmp_benchmarks::real_world(scale)[i];
        let device = DeviceSpec::by_name(dev_name).unwrap();
        let c = run(Api::Cuda, bench.as_ref(), &device).expect("CUDA run");
        let o = run(Api::OpenCl, bench.as_ref(), &device).expect("OpenCL run");
        PrRow {
            bench: bench.name(),
            device: device.name,
            cuda: c.value,
            opencl: o.value,
            unit: c.metric.unit(),
            pr: Pr::from_performance(o.performance(), c.performance()),
            verified: c.verify.is_pass() && o.verify.is_pass(),
        }
    });
    Fig3 { rows }
}

// ----------------------------------------------------------------------
// Host-side parallel simulation speedup
// ----------------------------------------------------------------------

/// Host wall-clock comparison of serial vs block-parallel simulation of
/// the same launches. The simulated results (stats, timing) are
/// bit-identical; only the host time to produce them changes.
#[derive(Clone, Debug)]
pub struct ParallelSpeedup {
    /// Benchmark used for the measurement.
    pub bench: &'static str,
    /// Device simulated.
    pub device: &'static str,
    /// Thread blocks simulated per run.
    pub blocks: u64,
    /// Host wall-clock at 1 worker, ns (execution + merge).
    pub serial_ns: u64,
    /// Host wall-clock at `threads` workers, ns (execution + merge).
    pub parallel_ns: u64,
    /// Worker threads used for the parallel run.
    pub threads: usize,
    /// CPU cores available to this process; speedup is bounded by
    /// `min(threads, cores, blocks)`.
    pub host_cores: usize,
}

impl ParallelSpeedup {
    /// Serial / parallel host wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_ns as f64
    }
}

impl fmt::Display for ParallelSpeedup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Host-side parallel simulation ({} on {}, {} blocks/launch)",
            self.bench, self.device, self.blocks
        )?;
        writeln!(f, "  1 worker : {:>9.2} ms", self.serial_ns as f64 / 1e6)?;
        writeln!(
            f,
            "  {} workers: {:>9.2} ms",
            self.threads,
            self.parallel_ns as f64 / 1e6
        )?;
        writeln!(
            f,
            "  speedup  : {:>9.2}x (simulated reports bit-identical)",
            self.speedup()
        )?;
        if self.host_cores < self.threads {
            writeln!(
                f,
                "  note     : only {} CPU core(s) available; wall-clock gain \
                 is bounded by min(threads, cores)",
                self.host_cores
            )?;
        }
        Ok(())
    }
}

/// Measure the host wall-clock speedup of the block-parallel simulation
/// engine on a compute-heavy launch (MxM), via the per-launch
/// [`gpucmp_sim::ExecProfile`] counters. Best-of-3 per setting to damp
/// scheduler noise.
pub fn parallel_speedup(scale: Scale, threads: usize) -> ParallelSpeedup {
    let device = DeviceSpec::gtx480();
    let bench = MxM::new(scale);
    let time_at = |threads: usize| -> (u64, u64) {
        let mut best = u64::MAX;
        let mut blocks = 0;
        for _ in 0..3 {
            let mut gpu = Cuda::new(device.clone()).expect("NVIDIA device");
            gpu.set_exec_options(ExecOptions::with_threads(threads));
            bench.run(&mut gpu).expect("MxM run");
            let p = gpu.session().profile_total();
            best = best.min(p.host_exec_ns + p.host_merge_ns);
            blocks = p.blocks_simulated;
        }
        (best, blocks)
    };
    let (serial_ns, blocks) = time_at(1);
    let (parallel_ns, _) = time_at(threads);
    ParallelSpeedup {
        bench: "MxM",
        device: device.name,
        blocks,
        serial_ns,
        parallel_ns,
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

// ----------------------------------------------------------------------
// Figs 4 & 5 — texture memory
// ----------------------------------------------------------------------

/// One texture-ablation measurement.
#[derive(Clone, Debug)]
pub struct TextureRow {
    /// Benchmark (MD or SPMV).
    pub bench: &'static str,
    /// Device.
    pub device: &'static str,
    /// CUDA GFlops with texture.
    pub with_texture: f64,
    /// CUDA GFlops without texture.
    pub without_texture: f64,
    /// OpenCL GFlops (never uses texture).
    pub opencl: f64,
}

impl TextureRow {
    /// Fraction retained after removing texture (the paper's Fig. 4 bars).
    pub fn fraction(&self) -> f64 {
        self.without_texture / self.with_texture
    }

    /// PR before removing texture (unfair comparison).
    pub fn pr_before(&self) -> Pr {
        Pr::from_performance(self.opencl, self.with_texture)
    }

    /// PR after removing texture (fair at step 4) — the paper's Fig. 5.
    pub fn pr_after(&self) -> Pr {
        Pr::from_performance(self.opencl, self.without_texture)
    }
}

/// Result of the Fig. 4/5 experiments.
#[derive(Clone, Debug)]
pub struct TextureStudy {
    /// Rows: {MD, SPMV} x {GTX280, GTX480}.
    pub rows: Vec<TextureRow>,
}

impl fmt::Display for TextureStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 4: performance impact of texture memory (CUDA, GFlops/s)"
        )?;
        writeln!(
            f,
            "{:<6} {:<8} {:>10} {:>12} {:>9}",
            "App", "Device", "with tex", "without tex", "fraction"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:<8} {:>10.2} {:>12.2} {:>8.1}%",
                r.bench,
                r.device,
                r.with_texture,
                r.without_texture,
                r.fraction() * 100.0
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Fig 5: PR before/after removing texture from the CUDA version"
        )?;
        writeln!(
            f,
            "{:<6} {:<8} {:>10} {:>10}",
            "App", "Device", "PR before", "PR after"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:<8} {:>10.3} {:>10.3}",
                r.bench,
                r.device,
                r.pr_before().0,
                r.pr_after().0
            )?;
        }
        Ok(())
    }
}

/// Figs 4 & 5 — MD and SPMV with and without texture memory.
pub fn fig4_fig5_texture(scale: Scale) -> TextureStudy {
    let mut rows = Vec::new();
    for dev_name in ["GTX280", "GTX480"] {
        let device = DeviceSpec::by_name(dev_name).unwrap();
        // MD
        let with_t = run(Api::Cuda, &Md::new(scale).with_texture(true), &device).unwrap();
        let without = run(Api::Cuda, &Md::new(scale).with_texture(false), &device).unwrap();
        let ocl = run(Api::OpenCl, &Md::new(scale), &device).unwrap();
        rows.push(TextureRow {
            bench: "MD",
            device: device.name,
            with_texture: with_t.value,
            without_texture: without.value,
            opencl: ocl.value,
        });
        // SPMV
        let with_t = run(Api::Cuda, &Spmv::new(scale).with_texture(true), &device).unwrap();
        let without = run(Api::Cuda, &Spmv::new(scale).with_texture(false), &device).unwrap();
        let ocl = run(Api::OpenCl, &Spmv::new(scale), &device).unwrap();
        rows.push(TextureRow {
            bench: "SPMV",
            device: device.name,
            with_texture: with_t.value,
            without_texture: without.value,
            opencl: ocl.value,
        });
    }
    TextureStudy { rows }
}

// ----------------------------------------------------------------------
// Figs 6 & 7 — FDTD loop unrolling
// ----------------------------------------------------------------------

/// FDTD unroll measurements on one device (MPoints/s).
#[derive(Clone, Debug)]
pub struct UnrollRow {
    /// Device.
    pub device: &'static str,
    /// CUDA with unrolling at both points.
    pub cuda_ab: f64,
    /// CUDA with unrolling at b only.
    pub cuda_b: f64,
    /// OpenCL with unrolling at b only (the paper's shipped source).
    pub opencl_b: f64,
    /// OpenCL with unrolling at both points (the paper's "degrades
    /// sharply" configuration).
    pub opencl_ab: f64,
}

impl UnrollRow {
    /// Fig. 6: fraction retained by CUDA after removing the point-a pragma.
    pub fn fig6_fraction(&self) -> f64 {
        self.cuda_b / self.cuda_ab
    }

    /// Fig. 7 group 2: PR of the b-only builds.
    pub fn pr_b(&self) -> Pr {
        Pr::from_performance(self.opencl_b, self.cuda_b)
    }

    /// Fig. 7 group 3: OpenCL_{a,b} as a fraction of CUDA_{a,b}.
    pub fn fig7_fraction(&self) -> f64 {
        self.opencl_ab / self.cuda_ab
    }
}

/// Result of the Fig. 6/7 experiments.
#[derive(Clone, Debug)]
pub struct UnrollStudy {
    /// One row per device.
    pub rows: Vec<UnrollRow>,
}

impl fmt::Display for UnrollStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 6/7: FDTD loop unrolling (MPoints/s)")?;
        writeln!(
            f,
            "{:<8} {:>9} {:>9} {:>9} {:>9} | {:>11} {:>7} {:>13}",
            "Device",
            "CUDA_ab",
            "CUDA_b",
            "OpenCL_b",
            "OpenCL_ab",
            "fig6 frac",
            "PR_b",
            "OCLab/CUDAab"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>9.0} {:>9.0} {:>9.0} {:>9.0} | {:>10.1}% {:>7.3} {:>12.1}%",
                r.device,
                r.cuda_ab,
                r.cuda_b,
                r.opencl_b,
                r.opencl_ab,
                r.fig6_fraction() * 100.0,
                r.pr_b().0,
                r.fig7_fraction() * 100.0
            )?;
        }
        Ok(())
    }
}

/// Figs 6 & 7 — the FDTD unroll matrix on both NVIDIA GPUs.
pub fn fig6_fig7_unroll(scale: Scale) -> UnrollStudy {
    let rows = par_map(&["GTX280", "GTX480"], |dev_name| {
        let device = DeviceSpec::by_name(dev_name).unwrap();
        let cuda_ab = run(Api::Cuda, &Fdtd::new(scale).with_unroll_a(true), &device)
            .unwrap()
            .value;
        let cuda_b = run(Api::Cuda, &Fdtd::new(scale).with_unroll_a(false), &device)
            .unwrap()
            .value;
        let opencl_b = run(Api::OpenCl, &Fdtd::new(scale).with_unroll_a(false), &device)
            .unwrap()
            .value;
        let opencl_ab = run(Api::OpenCl, &Fdtd::new(scale).with_unroll_a(true), &device)
            .unwrap()
            .value;
        UnrollRow {
            device: device.name,
            cuda_ab,
            cuda_b,
            opencl_b,
            opencl_ab,
        }
    });
    UnrollStudy { rows }
}

// ----------------------------------------------------------------------
// Fig 8 — Sobel constant memory
// ----------------------------------------------------------------------

/// Sobel kernel times (seconds) with/without constant memory.
#[derive(Clone, Debug)]
pub struct SobelRow {
    /// Device.
    pub device: &'static str,
    /// Kernel time with the filter in constant memory.
    pub with_const_s: f64,
    /// Kernel time with the filter in global memory.
    pub without_const_s: f64,
}

impl SobelRow {
    /// Speedup from constant memory (the paper: ~4x on GTX280, ~1x on
    /// GTX480).
    pub fn speedup(&self) -> f64 {
        self.without_const_s / self.with_const_s
    }
}

/// Result of the Fig. 8 experiment.
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// One row per device.
    pub rows: Vec<SobelRow>,
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 8: Sobel kernel time with/without constant memory")?;
        writeln!(
            f,
            "{:<8} {:>12} {:>14} {:>9}",
            "Device", "const (s)", "no const (s)", "speedup"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>12.6} {:>14.6} {:>8.2}x",
                r.device,
                r.with_const_s,
                r.without_const_s,
                r.speedup()
            )?;
        }
        Ok(())
    }
}

/// Fig. 8 — Sobel with and without constant memory on both GPUs.
pub fn fig8_sobel_constant(scale: Scale) -> Fig8 {
    let rows = ["GTX280", "GTX480"]
        .iter()
        .map(|dev_name| {
            let device = DeviceSpec::by_name(dev_name).unwrap();
            let kernel_s = |with_const| {
                let bench = Sobel::new(scale).with_const_filter(with_const);
                run(Api::Cuda, &bench, &device).unwrap().value
            };
            SobelRow {
                device: device.name,
                with_const_s: kernel_s(true),
                without_const_s: kernel_s(false),
            }
        })
        .collect();
    Fig8 { rows }
}

// ----------------------------------------------------------------------
// Table V — PTX statistics of the FFT forward kernel
// ----------------------------------------------------------------------

/// Result of the Table V experiment.
#[derive(Clone, Debug)]
pub struct Table5 {
    /// Static statistics of the CUDA front-end's PTX.
    pub cuda: InstStats,
    /// Static statistics of the OpenCL front-end's PTX.
    pub opencl: InstStats,
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table V: static PTX statistics, FFT \"forward\" kernel")?;
        f.write_str(&InstStats::comparison_table(
            "CUDA",
            &self.cuda,
            "OpenCL",
            &self.opencl,
        ))
    }
}

/// Table V — compile the FFT forward kernel with both front-ends and tally
/// the PTX.
pub fn table5_ptx_stats() -> Table5 {
    let def = Fft::new(Scale::Quick).kernel();
    let cap = DeviceSpec::gtx280().max_regs_per_thread;
    let c = gpucmp_compiler::compile(&def, Api::Cuda, cap).expect("CUDA compile");
    let o = gpucmp_compiler::compile(&def, Api::OpenCl, cap).expect("OpenCL compile");
    Table5 {
        cuda: c.ptx_stats,
        opencl: o.ptx_stats,
    }
}

// ----------------------------------------------------------------------
// Table VI — portability
// ----------------------------------------------------------------------

/// Outcome of running one benchmark on one non-NVIDIA device.
#[derive(Clone, Debug, PartialEq)]
pub enum PortCell {
    /// Ran and verified; metric value.
    Ok(f64),
    /// Ran to completion but produced wrong results (paper "FL").
    Fl,
    /// Aborted: a `CL_*` error or a device fault (paper "ABT").
    Abt(String),
}

impl fmt::Display for PortCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortCell::Ok(v) => {
                if *v >= 100.0 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v:.4}")
                }
            }
            PortCell::Fl => write!(f, "FL"),
            PortCell::Abt(_) => write!(f, "ABT"),
        }
    }
}

/// Result of the Table VI experiment.
#[derive(Clone, Debug)]
pub struct Table6 {
    /// Benchmark names (columns).
    pub benches: Vec<&'static str>,
    /// Rows: (device name, cells).
    pub rows: Vec<(&'static str, Vec<PortCell>)>,
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table VI: OpenCL portability (units as in Table II; FL = wrong results, ABT = aborted)"
        )?;
        write!(f, "{:<10}", "")?;
        for b in &self.benches {
            write!(f, "{b:>9}")?;
        }
        writeln!(f)?;
        for (dev, cells) in &self.rows {
            write!(f, "{dev:<10}")?;
            for c in cells {
                write!(f, "{:>9}", c.to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Table VI — port every real-world benchmark to the HD5870, the Intel920
/// and the Cell/BE through OpenCL.
pub fn table6_portability(scale: Scale) -> Table6 {
    let benches: Vec<&'static str> = gpucmp_benchmarks::real_world(scale)
        .iter()
        .map(|b| b.name())
        .collect();
    let device_names = ["HD5870", "Intel920", "Cell/BE"];
    let n = benches.len();
    let coords: Vec<(usize, usize)> = (0..device_names.len())
        .flat_map(|d| (0..n).map(move |b| (d, b)))
        .collect();
    let mut cells = par_map(&coords, |&(d, b)| {
        let device = DeviceSpec::by_name(device_names[d]).unwrap();
        let bench = &gpucmp_benchmarks::real_world(scale)[b];
        match run(Api::OpenCl, bench.as_ref(), &device) {
            Ok(out) => match out.verify {
                Verify::Pass => PortCell::Ok(out.value),
                Verify::Fail(_) => PortCell::Fl,
            },
            Err(RtError::Cl(ClStatus::OutOfResources)) => {
                PortCell::Abt("CL_OUT_OF_RESOURCES".into())
            }
            Err(e) => PortCell::Abt(e.to_string()),
        }
    })
    .into_iter();
    // Cells come back in input order: one device's row after another.
    let rows = device_names
        .iter()
        .map(|d| (*d, cells.by_ref().take(n).collect()))
        .collect();
    Table6 { benches, rows }
}

// ----------------------------------------------------------------------
// Section IV-B-4 — kernel launch latency
// ----------------------------------------------------------------------

/// Measured per-launch overhead of the two APIs.
#[derive(Clone, Debug)]
pub struct LaunchLatency {
    /// CUDA per-launch overhead in ns.
    pub cuda_ns: f64,
    /// OpenCL per-launch overhead in ns.
    pub opencl_ns: f64,
}

impl fmt::Display for LaunchLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Kernel launch overhead (Section IV-B-4)")?;
        writeln!(f, "CUDA:   {:>8.1} µs per launch", self.cuda_ns / 1000.0)?;
        writeln!(f, "OpenCL: {:>8.1} µs per launch", self.opencl_ns / 1000.0)?;
        writeln!(
            f,
            "OpenCL / CUDA ratio: {:.2}x",
            self.opencl_ns / self.cuda_ns
        )
    }
}

/// Measure per-launch overhead by timing repeated launches of a trivial
/// kernel and subtracting the in-kernel time.
pub fn launch_latency() -> LaunchLatency {
    fn measure(gpu: &mut dyn Gpu) -> f64 {
        use gpucmp_compiler::{global_id_x, DslKernel, Expr};
        use gpucmp_sim::LaunchConfig;
        let mut k = DslKernel::new("noop");
        let out = k.param_ptr("out");
        let gid = k.let_(gpucmp_ptx::Ty::S32, global_id_x());
        k.if_(Expr::from(gid).eq_(0i32), |k| {
            k.st_global(out.clone(), 0i32, gpucmp_ptx::Ty::S32, 1i32);
        });
        let def = k.finish();
        let h = gpu.build(&def).unwrap();
        let buf = gpu.malloc(64).unwrap();
        let cfg = LaunchConfig::new(1u32, 32u32).arg_ptr(buf);
        let reps = 50;
        let t0 = gpu.now_ns();
        let k0 = gpu.session().kernel_ns_total();
        for _ in 0..reps {
            gpu.launch(h, &cfg).unwrap();
        }
        let wall = gpu.now_ns() - t0;
        let kernel = gpu.session().kernel_ns_total() - k0;
        (wall - kernel) / reps as f64
    }
    let mut cuda = Cuda::new(DeviceSpec::gtx280()).unwrap();
    let mut ocl = OpenCl::create_any(DeviceSpec::gtx280());
    LaunchLatency {
        cuda_ns: measure(&mut cuda),
        opencl_ns: measure(&mut ocl),
    }
}
