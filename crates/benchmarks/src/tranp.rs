//! TranP — self-written matrix transposition through shared memory (paper
//! Table II "SELF").
//!
//! The tiled version stages a 16x16 tile in shared memory (padded to
//! stride 17 so column reads don't conflict on the banks) and writes both
//! streams coalesced. The [`TranPOpts`] expose the two ablations the paper
//! discusses: dropping the padding (bank conflicts) and dropping shared
//! memory entirely (the direct copy that is *faster* on the Intel920,
//! where "local memory" is an emulated overhead — Section V).

use crate::common::{check_f32, rand_f32, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{ld_global, Builtin, DslKernel, Expr, KernelDef};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;

/// Tile edge.
const TILE: u32 = 16;

/// Option overrides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranPOpts {
    /// Stage through shared memory (default true).
    pub use_shared: bool,
    /// Pad the tile stride to avoid bank conflicts (default true).
    pub pad: bool,
}

impl Default for TranPOpts {
    fn default() -> Self {
        TranPOpts {
            use_shared: true,
            pad: true,
        }
    }
}

/// TranP benchmark (square n x n, n a multiple of 16).
#[derive(Clone, Debug)]
pub struct TranP {
    /// Matrix edge.
    pub n: u32,
    /// Options.
    pub opts: TranPOpts,
}

impl TranP {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        TranP {
            n: match scale {
                Scale::Quick => 128,
                Scale::Paper => 1024,
            },
            opts: TranPOpts::default(),
        }
    }

    /// Disable the shared-memory staging (direct copy).
    pub fn direct(mut self) -> Self {
        self.opts.use_shared = false;
        self
    }

    /// Disable tile padding.
    pub fn unpadded(mut self) -> Self {
        self.opts.pad = false;
        self
    }

    fn kernel(&self) -> KernelDef {
        let stride = if self.opts.pad { TILE + 1 } else { TILE };
        let mut k = DslKernel::new("transpose");
        let input = k.param_ptr("input");
        let output = k.param_ptr("output");
        let n = k.param("n", Ty::S32);
        let tx = k.let_(Ty::S32, Expr::from(Builtin::TidX));
        let ty_ = k.let_(Ty::S32, Expr::from(Builtin::TidY));
        let x = k.let_(Ty::S32, Expr::from(Builtin::CtaidX) * TILE as i32 + tx);
        let y = k.let_(Ty::S32, Expr::from(Builtin::CtaidY) * TILE as i32 + ty_);
        if self.opts.use_shared {
            let tile = k.shared_array(Ty::F32, TILE * stride);
            k.st_shared(
                tile,
                Expr::from(ty_) * stride as i32 + tx,
                ld_global(input.clone(), Expr::from(y) * n.clone() + x, Ty::F32),
            );
            k.barrier();
            let xo = k.let_(Ty::S32, Expr::from(Builtin::CtaidY) * TILE as i32 + tx);
            let yo = k.let_(Ty::S32, Expr::from(Builtin::CtaidX) * TILE as i32 + ty_);
            k.st_global(
                output,
                Expr::from(yo) * n.clone() + xo,
                Ty::F32,
                tile.ld(Expr::from(tx) * stride as i32 + ty_),
            );
        } else {
            // direct: coalesced read, scattered write
            k.st_global(
                output,
                Expr::from(x) * n.clone() + y,
                Ty::F32,
                ld_global(input.clone(), Expr::from(y) * n.clone() + x, Ty::F32),
            );
        }
        k.finish()
    }
}

impl Benchmark for TranP {
    fn name(&self) -> &'static str {
        "TranP"
    }

    fn metric(&self) -> Metric {
        Metric::GBPerSec
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let n = self.n as usize;
        let def = self.kernel();
        let h = gpu.build(&def)?;
        let input = gpu.malloc((n * n * 4) as u64)?;
        let output = gpu.malloc((n * n * 4) as u64)?;
        let data = rand_f32(0x71045, n * n, -1.0, 1.0);
        gpu.h2d_t(input, &data)?;
        let cfg = LaunchConfig::new((self.n / TILE, self.n / TILE), (TILE, TILE))
            .arg_ptr(input)
            .arg_ptr(output)
            .arg_i32(self.n as i32);
        let w = Window::open(gpu);
        let launch = gpu.launch(h, &cfg)?;
        let (wall_ns, kernel_ns, launches) = w.close(gpu);
        let got = gpu.d2h_t::<f32>(output, n * n)?;
        let mut want = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                want[x * n + y] = data[y * n + x];
            }
        }
        let verify = verdict(check_f32(&got, &want, 0.0));
        let bytes = 2 * n as u64 * n as u64 * 4;
        Ok(RunOutput {
            value: bytes as f64 / kernel_ns,
            metric: Metric::GBPerSec,
            verify,
            kernel_ns,
            wall_ns,
            launches,
            stats: launch.report.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::{Cuda, OpenCl};
    use gpucmp_sim::{DeviceKind, DeviceSpec};

    #[test]
    fn transpose_verifies_all_variants() {
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        for b in [
            TranP::new(Scale::Quick),
            TranP::new(Scale::Quick).direct(),
            TranP::new(Scale::Quick).unpadded(),
        ] {
            let r = b.run(&mut cuda).unwrap();
            assert!(r.verify.is_pass(), "{:?} {:?}", b.opts, r.verify);
            assert!(r.value > 0.0);
        }
    }

    #[test]
    fn padding_avoids_bank_conflicts() {
        let mut cuda = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let padded = TranP::new(Scale::Quick).run(&mut cuda).unwrap();
        let unpadded = TranP::new(Scale::Quick).unpadded().run(&mut cuda).unwrap();
        assert!(
            unpadded.stats.shared_conflict_cycles > padded.stats.shared_conflict_cycles,
            "conflicts: padded {} unpadded {}",
            padded.stats.shared_conflict_cycles,
            unpadded.stats.shared_conflict_cycles
        );
    }

    #[test]
    fn local_memory_hurts_on_cpu_device() {
        // Section V: on the Intel920 the shared-memory version collapses
        // (emulated local memory) while the direct copy is fine.
        let mut cpu = OpenCl::create(DeviceSpec::intel920(), DeviceKind::Cpu).unwrap();
        let tiled = TranP::new(Scale::Quick).run(&mut cpu).unwrap();
        let direct = TranP::new(Scale::Quick).direct().run(&mut cpu).unwrap();
        assert!(tiled.verify.is_pass() && direct.verify.is_pass());
        assert!(
            direct.value > tiled.value * 1.5,
            "direct {} GB/s vs tiled {} GB/s",
            direct.value,
            tiled.value
        );
    }

    #[test]
    fn both_apis_agree_functionally() {
        let b = TranP::new(Scale::Quick);
        let mut ocl = OpenCl::create_any(DeviceSpec::hd5870());
        let r = b.run(&mut ocl).unwrap();
        assert!(r.verify.is_pass());
    }
}
