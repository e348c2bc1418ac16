//! DeviceMemory — SHOC's device-memory bandwidth synthetic (paper Fig. 1).
//!
//! Reads global memory in a fully coalesced grid-stride pattern (work-group
//! size 256, as the paper fixes it) and reports achieved GB/s over the
//! bytes nominally accessed.

use crate::common::{check_f32, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{global_id_x, global_size_x, ld_global, DslKernel, Expr, KernelDef, Unroll};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;

/// Unrolled reads per outer iteration.
const READS_PER_ITER: usize = 16;

/// DeviceMemory read-bandwidth benchmark.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    /// Thread blocks.
    pub blocks: u32,
    /// Threads per block (the paper fixes 256).
    pub block_size: u32,
    /// Outer iterations (each reads `READS_PER_ITER` strided elements).
    pub iters: i32,
}

impl DeviceMemory {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => DeviceMemory {
                blocks: 32,
                block_size: 256,
                iters: 2,
            },
            Scale::Paper => DeviceMemory {
                blocks: 240,
                block_size: 256,
                iters: 16,
            },
        }
    }

    /// Total f32 elements the kernel reads.
    pub fn elements_read(&self) -> u64 {
        self.blocks as u64 * self.block_size as u64 * self.iters as u64 * READS_PER_ITER as u64
    }

    fn kernel(&self) -> KernelDef {
        let mut k = DslKernel::new("read_global_coalesced");
        let input = k.param_ptr("input");
        let output = k.param_ptr("output");
        let iters = k.param("iters", Ty::S32);
        let gid = k.let_(Ty::S32, global_id_x());
        let gsize = k.let_(Ty::S32, global_size_x());
        let acc = k.let_(Ty::F32, 0.0f32);
        let idx = k.let_(Ty::S32, gid);
        k.for_(0i32, iters, 1, Unroll::None, |k, _t| {
            for _ in 0..READS_PER_ITER {
                k.assign(
                    acc,
                    Expr::from(acc) + ld_global(input.clone(), idx, Ty::F32),
                );
                k.assign(idx, Expr::from(idx) + gsize);
            }
        });
        k.st_global(output, gid, Ty::F32, acc);
        k.finish()
    }
}

impl Benchmark for DeviceMemory {
    fn name(&self) -> &'static str {
        "DeviceMemory"
    }

    fn metric(&self) -> Metric {
        Metric::GBPerSec
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let threads = (self.blocks * self.block_size) as usize;
        let n = threads * self.iters as usize * READS_PER_ITER;
        let def = self.kernel();
        let h = gpu.build(&def)?;
        let input = gpu.alloc::<f32>(n)?;
        let output = gpu.alloc::<f32>(threads)?;
        // A compressible pattern keeps the CPU reference cheap: in[i] = 1.0.
        gpu.h2d_buf(&input, &vec![1.0f32; n])?;
        let cfg = LaunchConfig::new(self.blocks, self.block_size)
            .arg_ptr(input)
            .arg_ptr(output)
            .arg_i32(self.iters);
        let w = Window::open(gpu);
        let out = gpu.launch(h, cfg)?;
        let (wall_ns, kernel_ns, launches) = w.close(gpu);
        let got = gpu.d2h_buf(&output)?;
        let expect = (self.iters as usize * READS_PER_ITER) as f32;
        let want = vec![expect; threads];
        let verify = verdict(check_f32(&got, &want, 1e-5));
        let bytes = self.elements_read() * 4;
        let gbs = bytes as f64 / kernel_ns; // bytes/ns == GB/s
        Ok(RunOutput {
            value: gbs,
            metric: Metric::GBPerSec,
            verify,
            kernel_ns,
            wall_ns,
            launches,
            stats: out.report.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::{Cuda, OpenCl};
    use gpucmp_sim::DeviceSpec;

    #[test]
    fn bandwidth_verifies_and_is_positive() {
        let b = DeviceMemory::new(Scale::Quick);
        let mut cuda = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let r = b.run(&mut cuda).unwrap();
        assert!(r.verify.is_pass(), "{:?}", r.verify);
        assert!(r.value > 1.0, "GB/s = {}", r.value);
    }

    #[test]
    fn opencl_matches_or_beats_cuda_on_bandwidth() {
        // Fig. 1: OpenCL achieved slightly higher bandwidth than CUDA.
        let b = DeviceMemory::new(Scale::Paper);
        for dev in [DeviceSpec::gtx280(), DeviceSpec::gtx480()] {
            let mut cuda = Cuda::new(dev.clone()).unwrap();
            let rc = b.run(&mut cuda).unwrap();
            let mut ocl = OpenCl::create_any(dev.clone());
            let ro = b.run(&mut ocl).unwrap();
            let pr = ro.value / rc.value;
            assert!(pr >= 0.99, "{}: PR = {pr}", dev.name);
            assert!(pr < 1.2, "{}: PR = {pr}", dev.name);
        }
    }

    #[test]
    fn achieved_fraction_matches_paper_band() {
        // Fig. 1: OpenCL reaches ~68.6% of theoretical peak on GTX280 and
        // ~87.7% on GTX480.
        let b = DeviceMemory::new(Scale::Paper);
        let mut o280 = OpenCl::create_any(DeviceSpec::gtx280());
        let f280 = b.run(&mut o280).unwrap().value / 141.7;
        assert!((0.55..0.8).contains(&f280), "GTX280 fraction {f280}");
        let mut o480 = OpenCl::create_any(DeviceSpec::gtx480());
        let f480 = b.run(&mut o480).unwrap().value / 177.4;
        assert!((0.75..0.95).contains(&f480), "GTX480 fraction {f480}");
    }
}
