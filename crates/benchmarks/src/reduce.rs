//! Reduce — SHOC's array reduction (paper Table II, GB/s).
//!
//! Two launches: a grid-stride per-thread accumulation followed by a
//! shared-memory tree per block, then a single-block pass over the block
//! partials. The input is small integers stored as f32 so the tree and the
//! linear CPU reference agree bit-exactly.

use crate::common::{check_f32, rng, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{global_id_x, global_size_x, ld_global, Builtin, DslKernel, Expr, KernelDef};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;
use rand::Rng;

/// Reduce benchmark.
#[derive(Clone, Debug)]
pub struct Reduce {
    /// Elements to reduce.
    pub n: u32,
    /// Thread blocks of the first pass.
    pub blocks: u32,
    /// Threads per block (power of two).
    pub block_size: u32,
}

impl Reduce {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Reduce {
                n: 1 << 14,
                blocks: 16,
                block_size: 128,
            },
            Scale::Paper => Reduce {
                n: 1 << 21,
                blocks: 120,
                block_size: 256,
            },
        }
    }

    fn kernel(&self) -> KernelDef {
        let mut k = DslKernel::new("reduce");
        let input = k.param_ptr("input");
        let output = k.param_ptr("output");
        let n = k.param("n", Ty::S32);
        let sm = k.shared_array(Ty::F32, self.block_size);
        let tid = k.let_(Ty::S32, Expr::from(Builtin::TidX));
        let i = k.let_(Ty::S32, global_id_x());
        let gsize = k.let_(Ty::S32, global_size_x());
        let acc = k.let_(Ty::F32, 0.0f32);
        k.while_(Expr::from(i).lt(n), |k| {
            k.assign(acc, Expr::from(acc) + ld_global(input.clone(), i, Ty::F32));
            k.assign(i, Expr::from(i) + gsize);
        });
        k.st_shared(sm, tid, acc);
        k.barrier();
        let s = k.let_(Ty::S32, (self.block_size / 2) as i32);
        k.while_(Expr::from(s).gt(0i32), |k| {
            k.if_(Expr::from(tid).lt(s), |k| {
                k.st_shared(sm, tid, sm.ld(tid) + sm.ld(Expr::from(tid) + s));
            });
            k.barrier();
            k.assign(s, Expr::from(s) >> 1i32);
        });
        k.if_(Expr::from(tid).eq_(0i32), |k| {
            k.st_global(output, Expr::from(Builtin::CtaidX), Ty::F32, sm.ld(0i64));
        });
        k.finish()
    }
}

impl Benchmark for Reduce {
    fn name(&self) -> &'static str {
        "Reduce"
    }

    fn metric(&self) -> Metric {
        Metric::GBPerSec
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let n = self.n as usize;
        let def = self.kernel();
        let h = gpu.build(&def)?;
        let input = gpu.alloc::<f32>(n)?;
        let partials = gpu.alloc::<f32>(self.blocks as usize)?;
        let result = gpu.alloc::<f32>((self.blocks as usize).max(1))?;
        // small integers as f32: all tree orders sum exactly
        let mut r = rng(0xEDCE);
        let data: Vec<f32> = (0..n).map(|_| r.gen_range(0..8) as f32).collect();
        gpu.h2d_buf(&input, &data)?;
        let cfg1 = LaunchConfig::new(self.blocks, self.block_size)
            .arg_ptr(input)
            .arg_ptr(partials)
            .arg_i32(n as i32);
        let cfg2 = LaunchConfig::new(1u32, self.block_size)
            .arg_ptr(partials)
            .arg_ptr(result)
            .arg_i32(self.blocks as i32);
        let w = Window::open(gpu);
        let l1 = gpu.launch(h, &cfg1)?;
        let l2 = gpu.launch(h, &cfg2)?;
        let (wall_ns, kernel_ns, launches) = w.close(gpu);
        let got = gpu.d2h_t::<f32>(result.ptr(), 1)?;
        let want: f32 = data.iter().sum();
        let verify = verdict(check_f32(&got, &[want], 0.0));
        let mut stats = l1.report.stats;
        stats.merge(&l2.report.stats);
        let bytes = n as u64 * 4;
        Ok(RunOutput {
            value: bytes as f64 / kernel_ns,
            metric: Metric::GBPerSec,
            verify,
            kernel_ns,
            wall_ns,
            launches,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::{Cuda, OpenCl};
    use gpucmp_sim::{DeviceKind, DeviceSpec};

    #[test]
    fn reduce_is_exact_on_all_devices() {
        let b = Reduce::new(Scale::Quick);
        let mut cuda = Cuda::new(DeviceSpec::gtx280()).unwrap();
        assert!(b.run(&mut cuda).unwrap().verify.is_pass());
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
        assert!(b.run(&mut ocl).unwrap().verify.is_pass());
        let mut ati = OpenCl::create_any(DeviceSpec::hd5870());
        assert!(b.run(&mut ati).unwrap().verify.is_pass());
        let mut cpu = OpenCl::create(DeviceSpec::intel920(), DeviceKind::Cpu).unwrap();
        assert!(b.run(&mut cpu).unwrap().verify.is_pass());
    }

    #[test]
    fn two_launches_counted() {
        let b = Reduce::new(Scale::Quick);
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r = b.run(&mut cuda).unwrap();
        assert_eq!(r.launches, 2);
        assert!(r.stats.barriers > 0);
    }

    #[test]
    fn bandwidth_close_between_apis() {
        let b = Reduce::new(Scale::Paper);
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let rc = b.run(&mut cuda).unwrap();
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
        let ro = b.run(&mut ocl).unwrap();
        let pr = ro.value / rc.value;
        assert!((0.8..1.25).contains(&pr), "PR = {pr}");
    }
}
