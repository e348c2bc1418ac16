//! FFT — 512-point batched complex FFT (SHOC; paper Table II, GFlops/s —
//! and the subject of the paper's Table V PTX-statistics analysis).
//!
//! Each work-group of 64 threads transforms one 512-point sequence in
//! shared memory: a bit-reversal permutation on load, then nine radix-2
//! stages with runtime twiddles and a barrier between stages. The
//! "forward" kernel is the exact artefact the paper disassembles in
//! Table V: compile it with both front-ends and diff the static counts
//! (see `gpucmp-core`'s `table5` experiment).
//!
//! Complex data is planar (separate re/im buffers), so our `ld.global`
//! counts are twice the paper's float2 loads; the CUDA/OpenCL *equality*
//! of the memory instructions — the paper's point — is preserved.

use crate::common::{rng, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{ld_global, Builtin, DslKernel, Expr, KernelDef};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;
use rand::Rng;
use std::f64::consts::PI;

/// Transform length.
pub const N: usize = 512;
/// Threads per work-group.
const THREADS: u32 = 64;
/// Elements each thread owns.
const PER_THREAD: usize = N / THREADS as usize;
/// log2(N).
const STAGES: usize = 9;

/// FFT benchmark.
#[derive(Clone, Debug)]
pub struct Fft {
    /// Number of 512-point transforms.
    pub batches: u32,
}

impl Fft {
    /// Construct with the given scale (forward transform).
    pub fn new(scale: Scale) -> Self {
        Fft {
            batches: match scale {
                Scale::Quick => 8,
                Scale::Paper => 192,
            },
        }
    }

    /// Build the kernel (the paper's Table V "forward" kernel). Public so
    /// the Table V experiment can compile it standalone.
    pub fn kernel(&self) -> KernelDef {
        let mut k = DslKernel::new("fft512_fwd");
        let in_re = k.param_ptr("in_re");
        let in_im = k.param_ptr("in_im");
        let out_re = k.param_ptr("out_re");
        let out_im = k.param_ptr("out_im");
        let sm_re = k.shared_array(Ty::F32, N as u32);
        let sm_im = k.shared_array(Ty::F32, N as u32);
        let tid = k.let_(Ty::S32, Expr::from(Builtin::TidX));
        let base = k.let_(Ty::S32, Expr::from(Builtin::CtaidX) * N as i32);
        // ---- load with bit-reversed addressing ----
        for j in 0..PER_THREAD {
            let i = Expr::from(tid) + (j as i32 * THREADS as i32);
            // 9-bit reversal, written with explicit bit ops as real FFT
            // sources do
            let mut rev = (i.clone() & 1i32) << 8i32;
            for b in 1..STAGES {
                rev = rev | ((i.clone() >> b as i32) & 1i32) << (8 - b) as i32;
            }
            let rv = k.let_(Ty::S32, rev);
            k.st_shared(
                sm_re,
                rv,
                ld_global(in_re.clone(), Expr::from(base) + i.clone(), Ty::F32),
            );
            k.st_shared(
                sm_im,
                rv,
                ld_global(in_im.clone(), Expr::from(base) + i, Ty::F32),
            );
        }
        // ---- 9 radix-2 stages ----
        for s in 0..STAGES {
            k.barrier();
            let half = 1i64 << s;
            for j in 0..PER_THREAD / 2 {
                // butterfly index for this thread
                let bfly = Expr::from(tid) + (j as i32 * THREADS as i32);
                // pos = bfly % half; written arithmetically: the OpenCL
                // front-end strength-reduces, the CUDA one folds stage 0
                let pos = k.let_(Ty::S32, bfly.clone() % half as i32);
                let top = k.let_(Ty::S32, (bfly / half as i32) * (2 * half) as i32 + pos);
                let bot = k.let_(Ty::S32, Expr::from(top) + half as i32);
                let xr = k.let_(Ty::F32, sm_re.ld(bot));
                let xi = k.let_(Ty::F32, sm_im.ld(bot));
                let ur = k.let_(Ty::F32, sm_re.ld(top));
                let ui = k.let_(Ty::F32, sm_im.ld(top));
                // The classic macro idiom: specialise the twiddle-free
                // first stage with a *stage-constant* conditional. The
                // mature front-end folds the comparison and keeps exactly
                // one path; the young one emits both paths plus the branch
                // (the paper's Table V arithmetic/flow-control excess).
                let stage_is_trivial = Expr::ImmI(half).eq_(1i32);
                k.if_else(
                    stage_is_trivial,
                    |k| {
                        k.st_shared(sm_re, top, Expr::from(ur) + xr);
                        k.st_shared(sm_im, top, Expr::from(ui) + xi);
                        k.st_shared(sm_re, bot, Expr::from(ur) - xr);
                        k.st_shared(sm_im, bot, Expr::from(ui) - xi);
                    },
                    |k| {
                        let angle = k.let_(
                            Ty::F32,
                            Expr::from(pos).cast(Ty::F32) * (-PI / half as f64) as f32,
                        );
                        let wr = k.let_(Ty::F32, Expr::from(angle).cos());
                        let wi = k.let_(Ty::F32, Expr::from(angle).sin());
                        let tr = k.let_(Ty::F32, Expr::from(xr) * wr - Expr::from(xi) * wi);
                        let ti = k.let_(Ty::F32, Expr::from(xr) * wi + Expr::from(xi) * wr);
                        k.st_shared(sm_re, top, Expr::from(ur) + tr);
                        k.st_shared(sm_im, top, Expr::from(ui) + ti);
                        k.st_shared(sm_re, bot, Expr::from(ur) - tr);
                        k.st_shared(sm_im, bot, Expr::from(ui) - ti);
                    },
                );
            }
        }
        k.barrier();
        // ---- store ----
        for j in 0..PER_THREAD {
            let i = Expr::from(tid) + (j as i32 * THREADS as i32);
            let re = sm_re.ld(i.clone());
            let im = sm_im.ld(i.clone());
            k.st_global(out_re.clone(), Expr::from(base) + i.clone(), Ty::F32, re);
            k.st_global(out_im.clone(), Expr::from(base) + i, Ty::F32, im);
        }
        k.finish()
    }

    /// f64 reference DFT-free FFT (iterative radix-2, same algorithm) for
    /// verification.
    pub fn reference(&self, re: &[f32], im: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut out_re = vec![0.0f64; re.len()];
        let mut out_im = vec![0.0f64; im.len()];
        for batch in 0..re.len() / N {
            let b0 = batch * N;
            // bit reverse
            for i in 0..N {
                let mut r = 0usize;
                for b in 0..STAGES {
                    r |= ((i >> b) & 1) << (STAGES - 1 - b);
                }
                out_re[b0 + r] = re[b0 + i] as f64;
                out_im[b0 + r] = im[b0 + i] as f64;
            }
            for s in 0..STAGES {
                let half = 1usize << s;
                for bfly in 0..N / 2 {
                    let pos = bfly % half;
                    let top = b0 + (bfly / half) * 2 * half + pos;
                    let bot = top + half;
                    let angle = -PI * pos as f64 / half as f64;
                    let (wr, wi) = (angle.cos(), angle.sin());
                    let (xr, xi) = (out_re[bot], out_im[bot]);
                    let (tr, ti) = (xr * wr - xi * wi, xr * wi + xi * wr);
                    let (ur, ui) = (out_re[top], out_im[top]);
                    out_re[top] = ur + tr;
                    out_im[top] = ui + ti;
                    out_re[bot] = ur - tr;
                    out_im[bot] = ui - ti;
                }
            }
        }
        (
            out_re.iter().map(|&v| v as f32).collect(),
            out_im.iter().map(|&v| v as f32).collect(),
        )
    }
}

/// Absolute-tolerance comparison scaled to the FFT magnitude.
fn check_fft(got: &[f32], want: &[f32]) -> Result<(), String> {
    // inputs are in [-1, 1]; output magnitude is bounded by N
    let tol = 0.02f32;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > tol {
            return Err(format!("element {i}: got {g}, want {w}"));
        }
    }
    Ok(())
}

impl Benchmark for Fft {
    fn name(&self) -> &'static str {
        "FFT"
    }

    fn metric(&self) -> Metric {
        Metric::GFlopsPerSec
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let total = self.batches as usize * N;
        let def = self.kernel();
        let h = gpu.build(&def)?;
        let d_ire = gpu.malloc((total * 4) as u64)?;
        let d_iim = gpu.malloc((total * 4) as u64)?;
        let d_ore = gpu.malloc((total * 4) as u64)?;
        let d_oim = gpu.malloc((total * 4) as u64)?;
        let mut r = rng(0xFF7);
        let re: Vec<f32> = (0..total).map(|_| r.gen_range(-1.0..1.0)).collect();
        let im: Vec<f32> = (0..total).map(|_| r.gen_range(-1.0..1.0)).collect();
        gpu.h2d_t(d_ire, &re)?;
        gpu.h2d_t(d_iim, &im)?;
        let cfg = LaunchConfig::new(self.batches, THREADS)
            .arg_ptr(d_ire)
            .arg_ptr(d_iim)
            .arg_ptr(d_ore)
            .arg_ptr(d_oim);
        let win = Window::open(gpu);
        let launch = gpu.launch(h, &cfg)?;
        let (wall_ns, kernel_ns, launches) = win.close(gpu);
        let got_re = gpu.d2h_t::<f32>(d_ore, total)?;
        let got_im = gpu.d2h_t::<f32>(d_oim, total)?;
        let (want_re, want_im) = self.reference(&re, &im);
        let verify =
            verdict(check_fft(&got_re, &want_re).and_then(|_| check_fft(&got_im, &want_im)));
        // 5 N log2 N flops per complex FFT (the conventional accounting)
        let flops = 5.0 * N as f64 * STAGES as f64 * self.batches as f64;
        Ok(RunOutput {
            value: flops / kernel_ns,
            metric: Metric::GFlopsPerSec,
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
    use gpucmp_compiler::Api;
    use gpucmp_ptx::InstClass;
    use gpucmp_runtime::{Cuda, OpenCl};
    use gpucmp_sim::DeviceSpec;

    #[test]
    fn forward_fft_matches_reference_on_both_apis() {
        let b = Fft::new(Scale::Quick);
        let mut cuda = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let rc = b.run(&mut cuda).unwrap();
        assert!(rc.verify.is_pass(), "{:?}", rc.verify);
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
        let ro = b.run(&mut ocl).unwrap();
        assert!(ro.verify.is_pass(), "{:?}", ro.verify);
    }

    #[test]
    fn table5_shape_cuda_vs_opencl() {
        // Table V: the OpenCL front-end emits far more arithmetic, logic,
        // shift and flow-control instructions; the CUDA front-end is
        // mov-heavy and spills more to local; the global traffic and
        // barrier counts are identical.
        let def = Fft::new(Scale::Quick).kernel();
        let c = gpucmp_compiler::compile(&def, Api::Cuda, 124).unwrap();
        let o = gpucmp_compiler::compile(&def, Api::OpenCl, 124).unwrap();
        let (cs, os) = (&c.ptx_stats, &o.ptx_stats);
        assert!(
            os.class_total(InstClass::Arithmetic) > cs.class_total(InstClass::Arithmetic),
            "arith: OpenCL {} vs CUDA {}",
            os.class_total(InstClass::Arithmetic),
            cs.class_total(InstClass::Arithmetic)
        );
        let o_bits = os.class_total(InstClass::Logic) + os.class_total(InstClass::Shift);
        let c_bits = cs.class_total(InstClass::Logic) + cs.class_total(InstClass::Shift);
        assert!(o_bits > c_bits, "bits: OpenCL {o_bits} vs CUDA {c_bits}");
        assert!(
            cs.count("mov") > os.count("mov"),
            "mov: CUDA {} vs OpenCL {}",
            cs.count("mov"),
            os.count("mov")
        );
        // identical time-consuming instructions
        assert_eq!(cs.ld_global(), os.ld_global());
        assert_eq!(cs.st_global(), os.st_global());
        assert_eq!(cs.count("bar"), os.count("bar"));
    }

    #[test]
    fn opencl_fft_is_slower_the_papers_biggest_gap() {
        // Fig. 3: FFT shows the largest PR gap, caused by the front-end
        // difference alone (identical source).
        let b = Fft::new(Scale::Paper);
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let pc = b.run(&mut cuda).unwrap().value;
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
        let po = b.run(&mut ocl).unwrap().value;
        let pr = po / pc;
        assert!(pr < 0.95, "FFT PR should be well below 1: {pr}");
        assert!(pr > 0.3, "but not absurdly so: {pr}");
    }
}
