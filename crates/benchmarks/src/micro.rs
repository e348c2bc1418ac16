//! Micro-workloads promoted from the fuzz corpus (the PR 8 follow-up):
//! the `atomic-histogram.kdsl` and `shared-rotate.kdsl` cases scaled from
//! 64-thread regression kernels into timed campaign rows.
//!
//! Both keep the corpus guard rails that make them schedule-independent —
//! the histogram's adds commute and never capture the old value, and the
//! rotate closes its shared-memory write and read epochs with barriers —
//! so verification is exact (i32) on every device, tier and thread count.

use crate::common::{check_i32, rng, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{global_id_x, ld_global, Builtin, DslKernel, Expr, KernelDef};
use gpucmp_ptx::{AtomOp, Space, Ty};
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;
use rand::Rng;

/// Histogram bin count (power of two; the kernel masks with `BINS - 1`).
pub const BINS: usize = 64;

/// AtomHist — data-dependent global atomic histogram.
///
/// Every thread loads one key and atomically increments its bin: a pure
/// atomic-throughput row, with contention set by the key distribution.
/// The returned old value is deliberately never used (the corpus
/// guard rail for schedule independence).
#[derive(Clone, Debug)]
pub struct AtomHist {
    /// Keys to bin.
    pub n: u32,
    /// Threads per block.
    pub block_size: u32,
}

impl AtomHist {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => AtomHist {
                n: 1 << 13,
                block_size: 128,
            },
            Scale::Paper => AtomHist {
                n: 1 << 18,
                block_size: 256,
            },
        }
    }

    fn kernel(&self) -> KernelDef {
        let mut k = DslKernel::new("atom_hist");
        let keys = k.param_ptr("keys");
        let hist = k.param_ptr("hist");
        let n = k.param("n", Ty::S32);
        let gid = k.let_(Ty::S32, global_id_x());
        k.if_(Expr::from(gid).lt(n), |k| {
            let key = k.let_(Ty::S32, ld_global(keys.clone(), gid, Ty::S32));
            k.atomic(
                AtomOp::Add,
                Space::Global,
                hist.clone(),
                Expr::from(key) & (BINS as i32 - 1),
                Ty::S32,
                1i32,
            );
        });
        k.finish()
    }
}

impl Benchmark for AtomHist {
    fn name(&self) -> &'static str {
        "AtomHist"
    }

    fn metric(&self) -> Metric {
        Metric::MElementsPerSec
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let n = self.n as usize;
        let h = gpu.build(&self.kernel())?;
        let keys = gpu.alloc::<i32>(n)?;
        let hist = gpu.alloc::<i32>(BINS)?;
        // Zipf-ish skew: low bins are hot, which is the interesting
        // contention regime for a global-atomic row.
        let mut r = rng(0xA70);
        let data: Vec<i32> = (0..n)
            .map(|_| {
                let v: u32 = r.gen();
                (v >> (v % 7)) as i32
            })
            .collect();
        gpu.h2d_buf(&keys, &data)?;
        gpu.h2d_buf(&hist, &[0i32; BINS])?;
        let cfg = LaunchConfig::new(self.n.div_ceil(self.block_size), self.block_size)
            .arg_ptr(keys)
            .arg_ptr(hist)
            .arg_i32(n as i32);
        let w = Window::open(gpu);
        let l = gpu.launch(h, &cfg)?;
        let (wall_ns, kernel_ns, launches) = w.close(gpu);
        let got = gpu.d2h_buf(&hist)?;
        let mut want = [0i32; BINS];
        for &v in &data {
            want[v as usize & (BINS - 1)] += 1;
        }
        Ok(RunOutput {
            value: n as f64 * 1e3 / kernel_ns,
            metric: Metric::MElementsPerSec,
            verify: verdict(check_i32(&got, &want)),
            kernel_ns,
            wall_ns,
            launches,
            stats: l.report.stats,
        })
    }
}

/// SharedRot — the epoch-closed shared-memory rotate.
///
/// Each thread publishes its element into its own shared slot, a barrier
/// closes the write epoch, every thread reads its right neighbour's slot
/// (wrapping within the block), and a trailing barrier closes the read
/// epoch: a pure shared-memory latency/bank row with zero reuse.
#[derive(Clone, Debug)]
pub struct SharedRot {
    /// Elements to rotate (kept a multiple of `block_size` so every
    /// shared slot is written before the rotated read).
    pub n: u32,
    /// Threads per block (= shared slots per block).
    pub block_size: u32,
}

impl SharedRot {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => SharedRot {
                n: 1 << 13,
                block_size: 128,
            },
            Scale::Paper => SharedRot {
                n: 1 << 20,
                block_size: 256,
            },
        }
    }

    fn kernel(&self) -> KernelDef {
        let bs = self.block_size as i32;
        let mut k = DslKernel::new("shared_rotate");
        let input = k.param_ptr("input");
        let out = k.param_ptr("out");
        let sm = k.shared_array(Ty::S32, self.block_size);
        let tid = k.let_(Ty::S32, Expr::from(Builtin::TidX));
        let gid = k.let_(Ty::S32, global_id_x());
        k.st_shared(sm, tid, ld_global(input.clone(), gid, Ty::S32) + 3i32);
        k.barrier();
        let v = k.let_(Ty::S32, sm.ld((Expr::from(tid) + 1i32) % bs));
        k.barrier();
        k.st_global(out, gid, Ty::S32, v);
        k.finish()
    }
}

impl Benchmark for SharedRot {
    fn name(&self) -> &'static str {
        "SharedRot"
    }

    fn metric(&self) -> Metric {
        Metric::MElementsPerSec
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        assert_eq!(self.n % self.block_size, 0, "n must fill its blocks");
        let n = self.n as usize;
        let bs = self.block_size as usize;
        let h = gpu.build(&self.kernel())?;
        let input = gpu.alloc::<i32>(n)?;
        let out = gpu.alloc::<i32>(n)?;
        let mut r = rng(0x5807);
        let data: Vec<i32> = (0..n).map(|_| r.gen_range(-1000..1000)).collect();
        gpu.h2d_buf(&input, &data)?;
        let cfg = LaunchConfig::new(self.n / self.block_size, self.block_size)
            .arg_ptr(input)
            .arg_ptr(out);
        let w = Window::open(gpu);
        let l = gpu.launch(h, &cfg)?;
        let (wall_ns, kernel_ns, launches) = w.close(gpu);
        let got = gpu.d2h_buf(&out)?;
        let want: Vec<i32> = (0..n)
            .map(|i| data[i - i % bs + (i % bs + 1) % bs] + 3)
            .collect();
        Ok(RunOutput {
            value: n as f64 * 1e3 / kernel_ns,
            metric: Metric::MElementsPerSec,
            verify: verdict(check_i32(&got, &want)),
            kernel_ns,
            wall_ns,
            launches,
            stats: l.report.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::{Cuda, OpenCl};
    use gpucmp_sim::{DeviceKind, DeviceSpec};

    fn devices() -> Vec<Box<dyn Gpu>> {
        vec![
            Box::new(Cuda::new(DeviceSpec::gtx280()).unwrap()),
            Box::new(Cuda::new(DeviceSpec::gtx480()).unwrap()),
            Box::new(OpenCl::create_any(DeviceSpec::hd5870())),
            Box::new(OpenCl::create(DeviceSpec::intel920(), DeviceKind::Cpu).unwrap()),
        ]
    }

    #[test]
    fn atom_hist_exact_on_all_devices() {
        let b = AtomHist::new(Scale::Quick);
        for mut gpu in devices() {
            let r = b.run(gpu.as_mut()).unwrap();
            assert!(r.verify.is_pass(), "{:?}", r.verify);
            assert_eq!(r.launches, 1);
            assert!(r.stats.atomics >= b.n as u64);
        }
    }

    #[test]
    fn shared_rot_exact_on_all_devices() {
        let b = SharedRot::new(Scale::Quick);
        for mut gpu in devices() {
            let r = b.run(gpu.as_mut()).unwrap();
            assert!(r.verify.is_pass(), "{:?}", r.verify);
            assert!(r.stats.barriers > 0);
        }
    }

    #[test]
    fn micro_rows_close_between_apis() {
        for b in crate::micro_workloads(Scale::Quick) {
            let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
            let rc = b.run(&mut cuda).unwrap();
            let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
            let ro = b.run(&mut ocl).unwrap();
            let pr = ro.value / rc.value;
            assert!((0.5..2.0).contains(&pr), "{}: PR = {pr}", b.name());
        }
    }
}
