//! MxM — tiled single-precision matrix multiplication (NVIDIA SDK
//! `matrixMul`; paper Table II, GFlops/s).

use crate::common::{check_f32, rand_f32, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{ld_global, Builtin, DslKernel, Expr, KernelDef, Unroll};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;

/// Tile edge.
const TILE: u32 = 16;

/// MxM benchmark: C = A x B for square n x n matrices (n multiple of 16).
#[derive(Clone, Debug)]
pub struct MxM {
    /// Matrix edge.
    pub n: u32,
    /// Split C into two row-panels on two explicit streams so each panel's
    /// A-upload, multiply, and C-readback pipeline against the other panel
    /// (double buffering). Off by default — the paper's runs are
    /// synchronous.
    pub streams: bool,
}

impl MxM {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        MxM {
            n: match scale {
                Scale::Quick => 64,
                Scale::Paper => 256,
            },
            streams: false,
        }
    }

    /// Toggle the two-stream row-panel pipeline.
    pub fn with_streams(mut self, on: bool) -> Self {
        self.streams = on;
        self
    }

    fn kernel(&self) -> KernelDef {
        let mut k = DslKernel::new("matrix_mul");
        let a = k.param_ptr("a");
        let b = k.param_ptr("b");
        let c = k.param_ptr("c");
        let n = k.param("n", Ty::S32);
        let a_tile = k.shared_array(Ty::F32, TILE * TILE);
        let b_tile = k.shared_array(Ty::F32, TILE * TILE);
        let tx = k.let_(Ty::S32, Expr::from(Builtin::TidX));
        let ty_ = k.let_(Ty::S32, Expr::from(Builtin::TidY));
        let col = k.let_(Ty::S32, Expr::from(Builtin::CtaidX) * TILE as i32 + tx);
        let row = k.let_(Ty::S32, Expr::from(Builtin::CtaidY) * TILE as i32 + ty_);
        let acc = k.let_(Ty::F32, 0.0f32);
        let tiles = k.let_(Ty::S32, n.clone() / TILE as i32);
        k.for_(0i32, tiles, 1, Unroll::None, |k, t| {
            k.st_shared(
                a_tile,
                Expr::from(ty_) * TILE as i32 + tx,
                ld_global(
                    a.clone(),
                    Expr::from(row) * n.clone() + t.clone() * TILE as i32 + tx,
                    Ty::F32,
                ),
            );
            k.st_shared(
                b_tile,
                Expr::from(ty_) * TILE as i32 + tx,
                ld_global(
                    b.clone(),
                    (t.clone() * TILE as i32 + ty_) * n.clone() + col,
                    Ty::F32,
                ),
            );
            k.barrier();
            k.for_(0i32, TILE as i32, 1, Unroll::Full, |k, kk| {
                k.assign(
                    acc,
                    Expr::from(acc)
                        + a_tile.ld(Expr::from(ty_) * TILE as i32 + kk.clone())
                            * b_tile.ld(kk * TILE as i32 + tx),
                );
            });
            k.barrier();
        });
        k.st_global(c, Expr::from(row) * n.clone() + col, Ty::F32, acc);
        k.finish()
    }

    /// The two-stream pipeline: C's top and bottom row-panels each get a
    /// stream carrying upload(A-panel) → multiply(panel) → readback(C-panel).
    /// B is shared, so it uploads once and the second panel's stream waits
    /// on its event; after that the engines pipeline — panel 1's kernel
    /// overlaps panel 2's upload, panel 1's readback overlaps panel 2's
    /// kernel. Same kernel, same bytes, strictly earlier completion.
    #[allow(clippy::type_complexity)]
    fn run_streamed(
        &self,
        gpu: &mut dyn Gpu,
        h: gpucmp_runtime::KernelHandle,
        (a, b, c): (
            gpucmp_runtime::Buffer<f32>,
            gpucmp_runtime::Buffer<f32>,
            gpucmp_runtime::Buffer<f32>,
        ),
        av: &[f32],
        bv: &[f32],
    ) -> Result<RunOutput, RtError> {
        let n = self.n as usize;
        let rows = n / 2;
        let elems = rows * n;
        let streams = [gpu.create_stream(), gpu.create_stream()];
        let w = Window::open(gpu);
        let b_up = gpu.enqueue_h2d_buf(streams[0], &b, bv)?;
        gpu.stream_wait_event(streams[1], b_up)?;
        let mut stats = gpucmp_sim::ExecStats::default();
        let mut panels = Vec::with_capacity(2);
        for (i, &st) in streams.iter().enumerate() {
            gpu.enqueue_h2d_t(st, a.at(i * elems), &av[i * elems..(i + 1) * elems])?;
            let cfg = LaunchConfig::new((self.n / TILE, rows as u32 / TILE), (TILE, TILE))
                .arg_ptr(a.at(i * elems))
                .arg_ptr(b)
                .arg_ptr(c.at(i * elems))
                .arg_i32(self.n as i32);
            let (_, launch) = gpu.enqueue_launch(st, h, cfg)?;
            stats.merge(&launch.report.stats);
            panels.push(gpu.enqueue_d2h_t::<f32>(st, c.at(i * elems), elems)?);
        }
        gpu.device_synchronize()?;
        let (wall_ns, kernel_ns, launches) = w.close(gpu);
        let mut got = Vec::with_capacity(n * n);
        for ev in panels {
            got.extend(gpu.take_readback_t::<f32>(ev)?);
        }
        let want = self.reference(av, bv);
        let verify = verdict(check_f32(&got, &want, 1e-4));
        let flops = 2.0 * (n as f64).powi(3);
        Ok(RunOutput {
            value: flops / kernel_ns,
            metric: Metric::GFlopsPerSec,
            verify,
            kernel_ns,
            wall_ns,
            launches,
            stats,
        })
    }

    /// CPU reference with the same accumulation order and fused mul-add.
    pub fn reference(&self, a: &[f32], b: &[f32]) -> Vec<f32> {
        let n = self.n as usize;
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..n {
                    acc = a[i * n + kk].mul_add(b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }
}

impl Benchmark for MxM {
    fn name(&self) -> &'static str {
        if self.streams {
            "MxM+streams"
        } else {
            "MxM"
        }
    }

    fn metric(&self) -> Metric {
        Metric::GFlopsPerSec
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let n = self.n as usize;
        let def = self.kernel();
        let h = gpu.build(&def)?;
        let a = gpu.alloc::<f32>(n * n)?;
        let b = gpu.alloc::<f32>(n * n)?;
        let c = gpu.alloc::<f32>(n * n)?;
        let av = rand_f32(0xA0, n * n, -1.0, 1.0);
        let bv = rand_f32(0xB0, n * n, -1.0, 1.0);
        if self.streams {
            return self.run_streamed(gpu, h, (a, b, c), &av, &bv);
        }
        gpu.h2d_buf(&a, &av)?;
        gpu.h2d_buf(&b, &bv)?;
        let cfg = LaunchConfig::new((self.n / TILE, self.n / TILE), (TILE, TILE))
            .arg_ptr(a)
            .arg_ptr(b)
            .arg_ptr(c)
            .arg_i32(self.n as i32);
        let w = Window::open(gpu);
        let launch = gpu.launch(h, cfg)?;
        let (wall_ns, kernel_ns, launches) = w.close(gpu);
        let got = gpu.d2h_buf(&c)?;
        let want = self.reference(&av, &bv);
        let verify = verdict(check_f32(&got, &want, 1e-4));
        let flops = 2.0 * (n as f64).powi(3);
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
    use gpucmp_runtime::{Cuda, OpenCl};
    use gpucmp_sim::DeviceSpec;

    #[test]
    fn mxm_verifies_on_both_apis() {
        let b = MxM::new(Scale::Quick);
        let mut cuda = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let rc = b.run(&mut cuda).unwrap();
        assert!(rc.verify.is_pass(), "{:?}", rc.verify);
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx280());
        let ro = b.run(&mut ocl).unwrap();
        assert!(ro.verify.is_pass(), "{:?}", ro.verify);
        assert!(rc.value > 0.0 && ro.value > 0.0);
    }

    #[test]
    fn shared_memory_and_barriers_used() {
        let b = MxM::new(Scale::Quick);
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r = b.run(&mut cuda).unwrap();
        assert!(r.stats.shared_cycles > 0);
        // 2 barriers per tile iteration
        assert!(r.stats.barriers > 0);
    }

    #[test]
    fn streamed_pipeline_verifies_and_finishes_earlier() {
        let sync_b = MxM::new(Scale::Paper);
        let stream_b = sync_b.clone().with_streams(true);
        let mut g1 = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r_sync = sync_b.run(&mut g1).unwrap();
        let t_sync = g1.now_ns();
        let mut g2 = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r_stream = stream_b.run(&mut g2).unwrap();
        let t_stream = g2.now_ns();
        assert!(r_stream.verify.is_pass(), "{:?}", r_stream.verify);
        assert!(r_sync.verify.is_pass());
        // one launch per row-panel instead of one for the whole matrix
        assert_eq!(r_stream.launches, r_sync.launches + 1);
        // same bytes, same kernels — but the panels pipeline, so the
        // session's virtual clock ends strictly earlier
        assert!(
            t_stream < t_sync,
            "streamed end {t_stream} ns should beat sync end {t_sync} ns"
        );
        // OpenCL takes the same path
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
        assert!(stream_b.run(&mut ocl).unwrap().verify.is_pass());
    }

    #[test]
    fn similar_performance_between_apis() {
        let b = MxM::new(Scale::Paper);
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let rc = b.run(&mut cuda).unwrap();
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx480());
        let ro = b.run(&mut ocl).unwrap();
        let pr = ro.value / rc.value;
        assert!((0.75..1.25).contains(&pr), "PR = {pr}");
    }
}
