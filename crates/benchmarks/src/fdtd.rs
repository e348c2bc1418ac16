//! FDTD — 3-D finite-difference time-domain, order-8 in space (NVIDIA SDK
//! `FDTD3d`; paper Table II, MPoints/s; the loop-unrolling study of
//! Figs 6-7).
//!
//! Each thread owns an (x, y) column and marches the z axis, keeping a
//! 2R+1-plane register queue for the z taps and staging the current plane
//! in a halo'd shared tile for the x/y taps. The kernel has the paper's
//! two unroll points:
//!
//! - **point a** — the z loop (`#pragma unroll 9` in the paper's listing);
//! - **point b** — the radius loop (`#pragma unroll RADIUS`).
//!
//! The paper's source configurations: CUDA unrolls at both points, OpenCL
//! only at b. [`Fdtd::with_unroll_a`] toggles point a for the Fig. 6/7
//! ablations; point b is always unrolled.

use crate::common::{check_f32, rng, verdict, Benchmark, Metric, RunOutput, Scale, Window};
use gpucmp_compiler::{ld_global, Api, Builtin, DslKernel, Expr, KernelDef, Unroll, Var};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Gpu, GpuExt, RtError};
use gpucmp_sim::LaunchConfig;
use rand::Rng;

/// Stencil radius (order 8 in space).
pub const RADIUS: i32 = 4;
/// Tile edge (threads per block dimension).
const TILE: i32 = 16;
/// The unroll factor of the paper's point-a pragma (`#pragma unroll 9`).
pub const UNROLL_A: u32 = 9;

/// Stencil coefficients, index 0 = centre.
pub const COEFF: [f32; 5] = [0.25, 0.14, 0.08, 0.03, 0.01];

/// FDTD benchmark. `dimx`/`dimy` are interior extents (multiples of 16);
/// `dimz` is the total plane count including the 2R z-halo.
#[derive(Clone, Debug)]
pub struct Fdtd {
    /// Interior x extent.
    pub dimx: i32,
    /// Interior y extent.
    pub dimy: i32,
    /// Total z planes (including halo).
    pub dimz: i32,
    /// Unroll the z loop by [`UNROLL_A`] (paper point *a*); `None` = paper
    /// default (CUDA yes, OpenCL no).
    pub unroll_a: Option<bool>,
    /// Split the volume into two z-chunks on two explicit streams, each
    /// carrying upload → stencil → readback; chunk 2's upload overlaps
    /// chunk 1's kernel (double buffering). Each chunk re-uploads the
    /// shared R-plane halo band, the usual price of domain decomposition.
    /// Off by default — the paper's runs are synchronous.
    pub streams: bool,
}

impl Fdtd {
    /// Construct with the given scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Fdtd {
                dimx: 32,
                dimy: 32,
                dimz: 22,
                unroll_a: None,
                streams: false,
            },
            Scale::Paper => Fdtd {
                dimx: 128,
                dimy: 128,
                dimz: 35, // 27 interior planes = 3 x the unroll factor
                unroll_a: None,
                streams: false,
            },
        }
    }

    /// Override the point-a pragma.
    pub fn with_unroll_a(mut self, v: bool) -> Self {
        self.unroll_a = Some(v);
        self
    }

    /// Toggle the two-stream z-chunk pipeline.
    pub fn with_streams(mut self, on: bool) -> Self {
        self.streams = on;
        self
    }

    /// Padded x extent (with halo).
    fn px(&self) -> i32 {
        self.dimx + 2 * RADIUS
    }

    /// Padded y extent.
    fn py(&self) -> i32 {
        self.dimy + 2 * RADIUS
    }

    /// Total padded volume in f32 elements.
    fn volume(&self) -> usize {
        (self.px() * self.py() * self.dimz) as usize
    }

    fn kernel(&self, unroll_a: bool) -> KernelDef {
        let r = RADIUS;
        let tile_w = TILE + 2 * r; // 24
        let mut k = DslKernel::new("fdtd3d");
        let input = k.param_ptr("input");
        let output = k.param_ptr("output");
        let dimz = k.param("dimz", Ty::S32);
        // SDK-style: coefficients live in constant memory
        let coef = k.const_array_f32(&COEFF);
        let px = self.px();
        let py = self.py();
        let plane = px * py;
        let tile = k.shared_array(Ty::F32, (tile_w * tile_w) as u32);
        let tx = k.let_(Ty::S32, Expr::from(Builtin::TidX));
        let ty_ = k.let_(Ty::S32, Expr::from(Builtin::TidY));
        let gx = k.let_(
            Ty::S32,
            Expr::from(Builtin::CtaidX) * TILE + Expr::from(tx) + r,
        );
        let gy = k.let_(
            Ty::S32,
            Expr::from(Builtin::CtaidY) * TILE + Expr::from(ty_) + r,
        );
        // column base address component (y*px + x)
        let col = k.let_(Ty::S32, Expr::from(gy) * px + gx);
        // register queue: q[0] = behind_R ... q[R] = current ... q[2R] = infront_R
        let q: Vec<Var> = (0..(2 * r + 1)).map(|_| k.var(Ty::F32)).collect();
        for (i, qi) in q.iter().enumerate() {
            k.assign(
                *qi,
                ld_global(input.clone(), Expr::from(col) + (i as i32) * plane, Ty::F32),
            );
        }
        let unroll = if unroll_a {
            Unroll::By(UNROLL_A)
        } else {
            Unroll::None
        };
        let q_owned = q.clone();
        let input_c = input.clone();
        let output_c = output.clone();
        let coef_c = coef;
        let dimz_c = dimz.clone();
        k.for_(r, dimz.clone() - r, 1, unroll, move |k, z| {
            let q = &q_owned;
            // stage the current plane (with halo) in the shared tile
            let cur_idx = Expr::from(col) + z.clone() * plane;
            k.if_(Expr::from(ty_).lt(r), |k| {
                // y halo above and below
                k.st_shared(
                    tile,
                    Expr::from(ty_) * tile_w + Expr::from(tx) + r,
                    ld_global(input_c.clone(), cur_idx.clone() - r * px, Ty::F32),
                );
                k.st_shared(
                    tile,
                    (Expr::from(ty_) + TILE + r) * tile_w + Expr::from(tx) + r,
                    ld_global(input_c.clone(), cur_idx.clone() + TILE * px, Ty::F32),
                );
            });
            k.if_(Expr::from(tx).lt(r), |k| {
                // x halo left and right
                k.st_shared(
                    tile,
                    (Expr::from(ty_) + r) * tile_w + tx,
                    ld_global(input_c.clone(), cur_idx.clone() - r, Ty::F32),
                );
                k.st_shared(
                    tile,
                    (Expr::from(ty_) + r) * tile_w + Expr::from(tx) + TILE + r,
                    ld_global(input_c.clone(), cur_idx.clone() + TILE, Ty::F32),
                );
            });
            k.st_shared(
                tile,
                (Expr::from(ty_) + r) * tile_w + Expr::from(tx) + r,
                Expr::from(q[r as usize]),
            );
            k.barrier();
            // centre tap
            let acc = k.let_(Ty::F32, Expr::from(q[r as usize]) * coef_c.ld(0i64));
            // z taps from the register queue (static, register-resident)
            for rr in 1..=r {
                k.assign(
                    acc,
                    Expr::from(acc)
                        + (Expr::from(q[(r - rr) as usize]) + Expr::from(q[(r + rr) as usize]))
                            * coef_c.ld(rr as i64),
                );
            }
            // x/y taps from the shared tile — the paper's point-b loop,
            // unrolled in both of its sources
            let coef_b = coef_c;
            k.for_(1i32, r + 1, 1, Unroll::Full, |k, rr| {
                let c = k.let_(Ty::F32, coef_b.ld(rr.clone()));
                let sum = k.let_(
                    Ty::F32,
                    tile.ld((Expr::from(ty_) + r - rr.clone()) * tile_w + Expr::from(tx) + r)
                        + tile.ld((Expr::from(ty_) + r + rr.clone()) * tile_w + Expr::from(tx) + r)
                        + tile.ld((Expr::from(ty_) + r) * tile_w + Expr::from(tx) + r - rr.clone())
                        + tile.ld((Expr::from(ty_) + r) * tile_w + Expr::from(tx) + r + rr),
                );
                k.assign(acc, Expr::from(acc) + Expr::from(c) * sum);
            });
            k.st_global(output_c.clone(), cur_idx.clone(), Ty::F32, acc);
            // advance the register queue
            for i in 0..(2 * r) as usize {
                k.assign(q[i], Expr::from(q[i + 1]));
            }
            let next_z = (z + 1i32 + r).min_(dimz_c.clone() - 1i32);
            k.assign(
                q[(2 * r) as usize],
                ld_global(input_c.clone(), Expr::from(col) + next_z * plane, Ty::F32),
            );
            k.barrier();
        });
        k.finish()
    }

    /// The two-stream pipeline: the volume splits into a lower and an upper
    /// z-chunk, each on its own stream carrying upload(chunk + R-plane
    /// halo) → stencil → readback. The chunks share only the halo band
    /// around the split plane, which both streams upload (identical
    /// bytes), so no cross-stream event is needed and chunk 2's uploads
    /// overlap chunk 1's kernel. The kernel is unchanged — each launch
    /// sees a base pointer offset to its chunk and the chunk's plane count
    /// as `dimz`.
    fn run_streamed(
        &self,
        gpu: &mut dyn Gpu,
        h: gpucmp_runtime::KernelHandle,
        d_in: gpucmp_sim::DevPtr,
        d_out: gpucmp_sim::DevPtr,
        data: &[f32],
    ) -> Result<RunOutput, RtError> {
        let r = RADIUS as usize;
        let plane = (self.px() * self.py()) as usize;
        let pz = self.dimz as usize;
        let interior = pz - 2 * r;
        let hz = [interior / 2, interior - interior / 2];
        // First interior plane written by each chunk; chunk 0 ends (and
        // chunk 1 starts) at the split plane `mid`.
        let mid = r + hz[0];
        let write0 = [r, mid];
        // Planes each stream reads back: chunk 0 owns [0, mid) (its
        // interior plus the lower global halo), chunk 1 owns [mid, pz).
        let own0 = [0, mid];
        let own_n = [mid, pz - mid];
        let streams = [gpu.create_stream(), gpu.create_stream()];
        let win = Window::open(gpu);
        let mut stats = gpucmp_sim::ExecStats::default();
        let mut chunks = Vec::with_capacity(2);
        for (i, &st) in streams.iter().enumerate() {
            // Input: the chunk's interior planes plus R halo planes on
            // each side (clamped to the volume).
            let lo = write0[i] - r;
            let dz = hz[i] + 2 * r;
            gpu.enqueue_h2d_t(
                st,
                d_in.offset((lo * plane * 4) as u64),
                &data[lo * plane..(lo + dz) * plane],
            )?;
            // Output: exactly the planes this stream reads back, so the
            // global halo planes pass through and the streams never write
            // overlapping output regions.
            gpu.enqueue_h2d_t(
                st,
                d_out.offset((own0[i] * plane * 4) as u64),
                &data[own0[i] * plane..(own0[i] + own_n[i]) * plane],
            )?;
            let cfg = LaunchConfig::new(
                ((self.dimx / TILE) as u32, (self.dimy / TILE) as u32),
                (TILE as u32, TILE as u32),
            )
            .arg_ptr(d_in.offset((lo * plane * 4) as u64))
            .arg_ptr(d_out.offset((lo * plane * 4) as u64))
            .arg_i32(dz as i32);
            let (_, launch) = gpu.enqueue_launch(st, h, cfg)?;
            stats.merge(&launch.report.stats);
            chunks.push(gpu.enqueue_d2h_t::<f32>(
                st,
                d_out.offset((own0[i] * plane * 4) as u64),
                own_n[i] * plane,
            )?);
        }
        gpu.device_synchronize()?;
        let (wall_ns, kernel_ns, launches) = win.close(gpu);
        let mut got = Vec::with_capacity(self.volume());
        for ev in chunks {
            got.extend(gpu.take_readback_t::<f32>(ev)?);
        }
        Ok(self.finish(got, data, stats, wall_ns, kernel_ns, launches))
    }

    /// Verify `got` against the CPU reference and assemble the output.
    fn finish(
        &self,
        got: Vec<f32>,
        data: &[f32],
        stats: gpucmp_sim::ExecStats,
        wall_ns: f64,
        kernel_ns: f64,
        launches: u64,
    ) -> RunOutput {
        let want = self.reference(data);
        // verify interior region only (the tile grid covers exactly the
        // interior; halo columns pass through)
        let (px, py) = (self.px() as usize, self.py() as usize);
        let plane = px * py;
        let r4 = RADIUS as usize;
        let mut got_int = Vec::new();
        let mut want_int = Vec::new();
        for z in r4..(self.dimz as usize - r4) {
            for y in r4..(py - r4) {
                let row = z * plane + y * px;
                got_int.extend_from_slice(&got[row + r4..row + r4 + self.dimx as usize]);
                want_int.extend_from_slice(&want[row + r4..row + r4 + self.dimx as usize]);
            }
        }
        let verify = verdict(check_f32(&got_int, &want_int, 1e-4));
        let points = self.dimx as f64 * self.dimy as f64 * (self.dimz - 2 * RADIUS) as f64;
        RunOutput {
            value: points / (kernel_ns * 1e-3), // points per µs = MPoints/s
            metric: Metric::MPixelsPerSec,
            verify,
            kernel_ns,
            wall_ns,
            launches,
            stats,
        }
    }

    /// CPU reference over the padded volume (interior z planes only).
    fn reference(&self, input: &[f32]) -> Vec<f32> {
        let (px, py, pz) = (self.px() as usize, self.py() as usize, self.dimz as usize);
        let plane = px * py;
        let r = RADIUS as usize;
        let mut out = input.to_vec();
        for z in r..pz - r {
            for y in r..py - r {
                for x in r..px - r {
                    let i = z * plane + y * px + x;
                    let mut acc = input[i] * COEFF[0];
                    for rr in 1..=r {
                        acc += (input[i - rr * plane] + input[i + rr * plane]) * COEFF[rr];
                        acc += ((input[i - rr * px] + input[i + rr * px])
                            + (input[i - rr] + input[i + rr]))
                            * COEFF[rr];
                    }
                    out[i] = acc;
                }
            }
        }
        out
    }
}

impl Benchmark for Fdtd {
    fn name(&self) -> &'static str {
        if self.streams {
            "FDTD+streams"
        } else {
            "FDTD"
        }
    }

    fn metric(&self) -> Metric {
        Metric::MPixelsPerSec // MPoints/s; same scale
    }

    fn run(&self, gpu: &mut dyn Gpu) -> Result<RunOutput, RtError> {
        let unroll_a = self.unroll_a.unwrap_or(gpu.api() == Api::Cuda);
        let def = self.kernel(unroll_a);
        let h = gpu.build(&def)?;
        let vol = self.volume();
        let d_in = gpu.malloc((vol * 4) as u64)?;
        let d_out = gpu.malloc((vol * 4) as u64)?;
        let mut r = rng(0xFD7D);
        let data: Vec<f32> = (0..vol)
            .map(|_| r.gen_range(0..256) as f32 / 256.0)
            .collect();
        if self.streams {
            return self.run_streamed(gpu, h, d_in, d_out, &data);
        }
        gpu.h2d_t(d_in, &data)?;
        gpu.h2d_t(d_out, &data)?; // halo planes pass through
        let cfg = LaunchConfig::new(
            ((self.dimx / TILE) as u32, (self.dimy / TILE) as u32),
            (TILE as u32, TILE as u32),
        )
        .arg_ptr(d_in)
        .arg_ptr(d_out)
        .arg_i32(self.dimz);
        let win = Window::open(gpu);
        let launch = gpu.launch(h, &cfg)?;
        let (wall_ns, kernel_ns, launches) = win.close(gpu);
        let got = gpu.d2h_t::<f32>(d_out, vol)?;
        Ok(self.finish(
            got,
            &data,
            launch.report.stats,
            wall_ns,
            kernel_ns,
            launches,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::{Cuda, OpenCl};
    use gpucmp_sim::DeviceSpec;

    #[test]
    fn fdtd_verifies_all_unroll_combinations() {
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        for a in [true, false] {
            let r = Fdtd::new(Scale::Quick)
                .with_unroll_a(a)
                .run(&mut cuda)
                .unwrap();
            assert!(r.verify.is_pass(), "a={a}: {:?}", r.verify);
        }
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx280());
        let r = Fdtd::new(Scale::Quick).run(&mut ocl).unwrap();
        assert!(r.verify.is_pass(), "{:?}", r.verify);
    }

    #[test]
    fn streamed_chunks_verify_and_finish_earlier() {
        // Both chunk kernels march their own z range; the reassembled
        // volume must match the single-launch result exactly.
        let mut cuda = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r = Fdtd::new(Scale::Quick)
            .with_streams(true)
            .run(&mut cuda)
            .unwrap();
        assert!(r.verify.is_pass(), "{:?}", r.verify);
        assert_eq!(r.launches, 2);
        let mut ocl = OpenCl::create_any(DeviceSpec::gtx280());
        let ro = Fdtd::new(Scale::Quick)
            .with_streams(true)
            .run(&mut ocl)
            .unwrap();
        assert!(ro.verify.is_pass(), "{:?}", ro.verify);
        // At paper scale the hidden chunk-2 upload outweighs the extra
        // halo-band re-upload and second launch overhead.
        let mut g1 = Cuda::new(DeviceSpec::gtx480()).unwrap();
        Fdtd::new(Scale::Paper).run(&mut g1).unwrap();
        let t_sync = g1.now_ns();
        let mut g2 = Cuda::new(DeviceSpec::gtx480()).unwrap();
        Fdtd::new(Scale::Paper)
            .with_streams(true)
            .run(&mut g2)
            .unwrap();
        let t_stream = g2.now_ns();
        assert!(
            t_stream < t_sync,
            "streamed end {t_stream} ns should beat sync end {t_sync} ns"
        );
    }

    #[test]
    fn unroll_a_helps_cuda() {
        // Fig. 6: removing the point-a pragma drops CUDA FDTD to ~85%.
        let with_a = Fdtd::new(Scale::Paper).with_unroll_a(true);
        let without = Fdtd::new(Scale::Paper).with_unroll_a(false);
        for dev in [DeviceSpec::gtx280(), DeviceSpec::gtx480()] {
            let mut g = Cuda::new(dev.clone()).unwrap();
            let p_with = with_a.run(&mut g).unwrap().value;
            let p_without = without.run(&mut g).unwrap().value;
            let frac = p_without / p_with;
            assert!(
                (0.6..0.99).contains(&frac),
                "{}: no-unroll fraction {frac}",
                dev.name
            );
        }
    }

    #[test]
    fn opencl_outer_unroll_backfires() {
        // Fig. 7: OpenCL_{a,b} collapses to ~48-66% of CUDA_{a,b} from
        // register pressure, while OpenCL_b matches or beats CUDA_b.
        let mut g280 = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let cuda_ab = Fdtd::new(Scale::Paper)
            .with_unroll_a(true)
            .run(&mut g280)
            .unwrap()
            .value;
        let mut o280 = OpenCl::create_any(DeviceSpec::gtx280());
        let ocl_ab = Fdtd::new(Scale::Paper)
            .with_unroll_a(true)
            .run(&mut o280)
            .unwrap()
            .value;
        let frac = ocl_ab / cuda_ab;
        assert!(
            frac < 0.85,
            "OpenCL with outer unroll should collapse: {frac}"
        );
    }
}
