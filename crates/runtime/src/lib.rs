//! # gpucmp-runtime — the two host APIs over the simulator
//!
//! Implements the run-time layer of the paper's comparison (steps 7-8 of
//! the development flow): a CUDA-flavoured driver API ([`cuda::Cuda`]) and
//! an OpenCL-flavoured one ([`opencl::OpenCl`]), both over the same
//! simulated device, sharing the [`gpu::Gpu`] trait so a benchmark's host
//! logic is written exactly once.
//!
//! The modelled differences are the ones the paper measures:
//!
//! - **Kernel launch overhead** — `clEnqueueNDRangeKernel` costs more than
//!   a CUDA launch ([`opencl::OPENCL_SUBMIT_NS`] vs [`cuda::CUDA_SUBMIT_NS`]);
//!   this is what slows OpenCL BFS (Section IV-B-4).
//! - **Vendor lock** — [`cuda::Cuda::new`] refuses non-NVIDIA devices;
//!   OpenCL runs everywhere but requires the right `CL_DEVICE_TYPE` (the
//!   Section V porting changes).
//! - **Resource validation** — the OpenCL runtime checks work-group sizes
//!   and the Cell/BE's SPE local-store budget, returning
//!   `CL_OUT_OF_RESOURCES` exactly where the paper reports "ABT".
//!
//! Both runtimes keep a deterministic virtual clock: transfers, launch
//! overheads and modelled kernel durations advance it; benchmarks read it
//! like a wall-clock timer.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod buffer;
pub mod cuda;
pub mod error;
pub mod gpu;
pub mod inject;
pub mod opencl;
pub mod stream;

pub use buffer::{Buffer, DeviceScalar};
pub use cuda::{Cuda, CUDA_SUBMIT_NS};
pub use error::{ClStatus, RtError};
pub use gpu::{
    Gpu, GpuExt, KernelHandle, LaunchOutcome, LoadedKernel, Session, SessionEvent, TransferDir,
    MEMCPY_LATENCY_NS, PCIE_GBS,
};
pub use inject::FaultPlan;
pub use opencl::{OpenCl, OPENCL_SUBMIT_NS, SPE_USABLE_LOCAL_STORE};
pub use stream::{Event, ResetReport, Stream};

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_compiler::{global_id_x, DslKernel};
    use gpucmp_ptx::Ty;
    use gpucmp_sim::{DeviceSpec, LaunchConfig};

    fn fill_kernel() -> gpucmp_compiler::KernelDef {
        let mut k = DslKernel::new("fill");
        let out = k.param_ptr("out");
        let n = k.param("n", Ty::S32);
        let gid = k.let_(Ty::S32, global_id_x());
        k.if_(gpucmp_compiler::Expr::from(gid).lt(n), |k| {
            k.st_global(out.clone(), gid, Ty::F32, 2.5f32);
        });
        k.finish()
    }

    #[test]
    fn same_kernel_runs_on_both_apis() {
        let def = fill_kernel();
        let n = 1000usize;

        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let buf = cuda.malloc((n * 4) as u64).unwrap();
        let h = cuda.build(&def).unwrap();
        let cfg = LaunchConfig::new(8u32, 128u32)
            .arg_ptr(buf)
            .arg_i32(n as i32);
        cuda.launch(h, &cfg).unwrap();
        let out_c = cuda.d2h_t::<f32>(buf, n).unwrap();

        let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
        let buf2 = ocl.malloc((n * 4) as u64).unwrap();
        let h2 = ocl.build(&def).unwrap();
        let cfg2 = LaunchConfig::new(8u32, 128u32)
            .arg_ptr(buf2)
            .arg_i32(n as i32);
        ocl.launch(h2, &cfg2).unwrap();
        let out_o = ocl.d2h_t::<f32>(buf2, n).unwrap();

        assert_eq!(out_c, out_o);
        assert!(out_c.iter().all(|&v| v == 2.5));
    }

    #[test]
    fn opencl_launch_overhead_exceeds_cuda() {
        let def = fill_kernel();
        let time_of = |mut g: Box<dyn Gpu>| {
            let buf = g.malloc(4096).unwrap();
            let h = g.build(&def).unwrap();
            let cfg = LaunchConfig::new(1u32, 128u32).arg_ptr(buf).arg_i32(128);
            let t0 = g.now_ns();
            for _ in 0..10 {
                g.launch(h, &cfg).unwrap();
            }
            g.now_ns() - t0
        };
        let c = time_of(Box::new(Cuda::new(DeviceSpec::gtx280()).unwrap()));
        let o = time_of(Box::new(OpenCl::create_any(DeviceSpec::gtx280())));
        assert!(
            o > c,
            "OpenCL launches ({o} ns) must cost more than CUDA ({c} ns)"
        );
        // the gap is roughly 10 x (submit difference)
        let gap = o - c;
        let expected = 10.0 * (OPENCL_SUBMIT_NS - CUDA_SUBMIT_NS);
        assert!(
            (gap - expected).abs() < expected * 0.5,
            "gap {gap} vs {expected}"
        );
    }

    #[test]
    fn transfers_advance_clock() {
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let buf = cuda.malloc(1 << 20).unwrap();
        let t0 = cuda.now_ns();
        let data = vec![1.0f32; 1 << 18];
        cuda.h2d_t(buf, &data).unwrap();
        let dt = cuda.now_ns() - t0;
        // 1 MiB at 5.7 GB/s ≈ 184 µs + 10 µs latency
        assert!(dt > 150_000.0 && dt < 300_000.0, "dt={dt}");
        let back = cuda.d2h_t::<f32>(buf, 1 << 18).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn oversized_workgroup_is_cl_error() {
        let def = fill_kernel();
        let mut ocl = OpenCl::create_any(DeviceSpec::hd5870()); // max wg 256
        let buf = ocl.malloc(4096).unwrap();
        let h = ocl.build(&def).unwrap();
        let cfg = LaunchConfig::new(1u32, 512u32).arg_ptr(buf).arg_i32(512);
        let e = ocl.launch(h, &cfg).unwrap_err();
        assert_eq!(e, RtError::Cl(ClStatus::InvalidWorkGroupSize));
    }

    #[test]
    fn launch_counts_and_kernel_time_accumulate() {
        let def = fill_kernel();
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let buf = cuda.malloc(4096).unwrap();
        let h = cuda.build(&def).unwrap();
        let cfg = LaunchConfig::new(1u32, 128u32).arg_ptr(buf).arg_i32(128);
        for _ in 0..3 {
            cuda.launch(h, &cfg).unwrap();
        }
        assert_eq!(cuda.session().launches(), 3);
        assert!(cuda.session().kernel_ns_total() > 0.0);
    }
}
