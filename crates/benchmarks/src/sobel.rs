//! Sobel — self-written 3x3 Sobel operator in the X direction (paper
//! Table II "SELF"; Figs 3 and 8).
//!
//! The paper's two implementations differ in where the filter lives: the
//! OpenCL version keeps it in **constant memory**, the CUDA version reads
//! it from **global memory**. On GT200 (no global-memory cache) the
//! repeated global filter loads are catastrophic — the OpenCL version runs
//! ~3x faster (Fig. 3); on Fermi the L1 cache absorbs them and the two are
//! equal (Fig. 8). [`SobelOpts::filter_in_const`] overrides the per-API
//! default to reproduce the Fig. 8 ablation.

use crate::common::{check_f32, rand_f32, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{ld_global, Api, Builtin, DslKernel, Expr, KernelDef};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;

/// The Sobel X kernel coefficients (row-major 3x3).
pub const FILTER: [f32; 9] = [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0];

/// Option overrides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SobelOpts {
    /// Where the filter lives; `None` = the paper's per-API default
    /// (OpenCL: constant memory, CUDA: global memory).
    pub filter_in_const: Option<bool>,
}

/// Sobel benchmark.
#[derive(Clone, Debug)]
pub struct Sobel {
    /// Image width (multiple of 16).
    pub width: u32,
    /// Image height (multiple of 16).
    pub height: u32,
    /// Option overrides.
    pub opts: SobelOpts,
}

impl Sobel {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        let (width, height) = match scale {
            Scale::Quick => (96, 64),
            Scale::Paper => (512, 512),
        };
        Sobel {
            width,
            height,
            opts: SobelOpts::default(),
        }
    }

    /// With explicit filter placement (Fig. 8 ablation).
    pub fn with_const_filter(mut self, v: bool) -> Self {
        self.opts.filter_in_const = Some(v);
        self
    }

    fn kernel(&self, use_const: bool) -> KernelDef {
        let mut k = DslKernel::new(if use_const {
            "sobel_const"
        } else {
            "sobel_glob"
        });
        let img = k.param_ptr("img");
        let out = k.param_ptr("out");
        let w = k.param("w", Ty::S32);
        let h = k.param("h", Ty::S32);
        let filt_glob = if use_const {
            None
        } else {
            Some(k.param_ptr("filter"))
        };
        let filt_const = if use_const {
            Some(k.const_array_f32(&FILTER))
        } else {
            None
        };
        let x = k.let_(
            Ty::S32,
            Expr::from(Builtin::CtaidX) * Builtin::NtidX + Builtin::TidX,
        );
        let y = k.let_(
            Ty::S32,
            Expr::from(Builtin::CtaidY) * Builtin::NtidY + Builtin::TidY,
        );
        // interior test via the unsigned-wrap idiom: (x-1) u< (w-2)
        let in_x = (Expr::from(x) - 1i32)
            .cast(Ty::U32)
            .lt((w.clone() - 2i32).cast(Ty::U32));
        let in_y = (Expr::from(y) - 1i32)
            .cast(Ty::U32)
            .lt((h.clone() - 2i32).cast(Ty::U32));
        k.if_else(
            in_x,
            |k| {
                k.if_else(
                    in_y,
                    |k| {
                        let acc = k.let_(Ty::F32, 0.0f32);
                        for j in 0..3i32 {
                            for i in 0..3i32 {
                                let coeff = match (&filt_const, &filt_glob) {
                                    (Some(c), _) => c.ld((j * 3 + i) as i64),
                                    (_, Some(g)) => {
                                        ld_global(g.clone(), (j * 3 + i) as i64, Ty::F32)
                                    }
                                    _ => unreachable!(),
                                };
                                let pix = ld_global(
                                    img.clone(),
                                    (Expr::from(y) + (j - 1)) * w.clone() + Expr::from(x) + (i - 1),
                                    Ty::F32,
                                );
                                k.assign(acc, Expr::from(acc) + coeff * pix);
                            }
                        }
                        k.st_global(out.clone(), Expr::from(y) * w.clone() + x, Ty::F32, acc);
                    },
                    |k| {
                        k.st_global(out.clone(), Expr::from(y) * w.clone() + x, Ty::F32, 0.0f32);
                    },
                );
            },
            |k| {
                // x out of interior; still zero the border pixel (always in
                // range: the grid exactly covers the image)
                k.st_global(out.clone(), Expr::from(y) * w.clone() + x, Ty::F32, 0.0f32);
            },
        );
        k.finish()
    }

    /// CPU reference.
    pub fn reference(&self, img: &[f32]) -> Vec<f32> {
        let (w, h) = (self.width as usize, self.height as usize);
        let mut out = vec![0.0f32; w * h];
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let mut acc = 0.0f32;
                for j in 0..3 {
                    for i in 0..3 {
                        acc += FILTER[j * 3 + i] * img[(y + j - 1) * w + (x + i - 1)];
                    }
                }
                out[y * w + x] = acc;
            }
        }
        out
    }
}

impl Benchmark for Sobel {
    fn name(&self) -> &'static str {
        "Sobel"
    }

    fn metric(&self) -> Metric {
        Metric::Seconds
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let use_const = self
            .opts
            .filter_in_const
            .unwrap_or(gpu.api() == Api::OpenCl);
        let (w, h) = (self.width as usize, self.height as usize);
        let def = self.kernel(use_const);
        let kh = gpu.build(&def)?;
        let img = gpu.alloc::<f32>(w * h)?;
        let out = gpu.alloc::<f32>(w * h)?;
        let data = rand_f32(0x50BE1, w * h, 0.0, 1.0);
        gpu.h2d_buf(&img, &data)?;
        let mut cfg = LaunchConfig::new((self.width / 16, self.height / 16), (16u32, 16u32))
            .arg_ptr(img)
            .arg_ptr(out)
            .arg_i32(self.width as i32)
            .arg_i32(self.height as i32);
        if !use_const {
            let f = gpu.alloc::<f32>(FILTER.len())?;
            gpu.h2d_buf(&f, &FILTER)?;
            cfg = cfg.arg_ptr(f);
        }
        let win = Window::open(gpu);
        let launch = gpu.launch(kh, cfg)?;
        let (wall_ns, kernel_ns, launches) = win.close(gpu);
        let got = gpu.d2h_buf(&out)?;
        let want = self.reference(&data);
        let verify = verdict(check_f32(&got, &want, 1e-4));
        Ok(RunOutput {
            value: kernel_ns * 1e-9,
            metric: Metric::Seconds,
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
    use gpucmp_sim::DeviceSpec;

    #[test]
    fn sobel_verifies_both_apis_and_placements() {
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        for use_const in [true, false] {
            let b = Sobel::new(Scale::Quick).with_const_filter(use_const);
            let r = b.run(&mut cuda).unwrap();
            assert!(r.verify.is_pass(), "const={use_const}: {:?}", r.verify);
            assert!(r.value > 0.0);
        }
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx280());
        let r = Sobel::new(Scale::Quick).run(&mut ocl).unwrap();
        assert!(r.verify.is_pass());
    }

    #[test]
    fn constant_memory_wins_big_on_gt200() {
        // Fig. 8: on GTX280 the constant-memory version is ~4x faster;
        // on GTX480 the difference is small.
        let with_c = Sobel::new(Scale::Paper).with_const_filter(true);
        let without = Sobel::new(Scale::Paper).with_const_filter(false);
        let mut g280 = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let t_const = with_c.run(&mut g280).unwrap().value;
        let t_glob = without.run(&mut g280).unwrap().value;
        let speedup = t_glob / t_const;
        assert!(speedup > 2.0, "GTX280 const speedup {speedup}");
        let mut g480 = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let t_const = with_c.run(&mut g480).unwrap().value;
        let t_glob = without.run(&mut g480).unwrap().value;
        let ratio = t_glob / t_const;
        assert!(ratio < 1.5, "GTX480 const speedup should be small: {ratio}");
    }

    #[test]
    fn paper_defaults_differ_per_api() {
        // Unmodified Sobel: OpenCL (const mem) beats CUDA (global filter)
        // on GTX280 — the PR = 3.2 outlier of Fig. 3.
        let b = Sobel::new(Scale::Paper);
        let mut cuda = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let tc = b.run(&mut cuda).unwrap().value;
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx280());
        let to = b.run(&mut ocl).unwrap().value;
        let pr = tc / to; // seconds: PR = t_cuda / t_opencl
        assert!(pr > 1.5, "GTX280 Sobel PR {pr}");
    }
}
