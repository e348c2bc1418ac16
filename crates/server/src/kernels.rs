//! The server-side kernel registry.
//!
//! Clients launch kernels *by name* instead of shipping kernel source
//! over the wire: the registry is the server's attack-surface boundary
//! (a tenant can only run code the operator vetted) and keeps the
//! protocol free of compiler types. Each slot compiles a registry kernel
//! on first use and reuses the handle — and the decode it carries — until
//! the slot is recycled.
//!
//! Two entries exist for chaos testing: `spin` burns instruction budget
//! (a runaway tenant; trips the watchdog under a per-tenant
//! instruction-budget cap) and `oob` stores far outside its buffer (a
//! buggy tenant; faults the context). Both poison *only* the launching
//! session.

use gpucmp_compiler::{global_id_x, ld_global, DslKernel, Expr, KernelDef};
use gpucmp_ptx::Ty;

/// Names the registry serves, in a stable order.
pub const KERNEL_NAMES: [&str; 4] = ["fill", "saxpy", "spin", "oob"];

/// Build the registry kernel `name`, or `None` if unknown.
///
/// Parameter conventions (all launches are 1-D; params are raw 64-bit
/// slots):
///
/// | name    | params                                        |
/// |---------|-----------------------------------------------|
/// | `fill`  | out ptr, n (s32), value (f32 bits)            |
/// | `saxpy` | x ptr, y ptr, a (f32 bits), n (s32)           |
/// | `spin`  | out ptr, iters (s32)                          |
/// | `oob`   | out ptr (stores ~256 MiB past the arena)      |
pub fn kernel_def(name: &str) -> Option<KernelDef> {
    match name {
        "fill" => {
            let mut k = DslKernel::new("fill");
            let out = k.param_ptr("out");
            let n = k.param("n", Ty::S32);
            let value = k.param("value", Ty::F32);
            let gid = k.let_(Ty::S32, global_id_x());
            k.if_(Expr::from(gid).lt(n), |k| {
                k.st_global(out.clone(), gid, Ty::F32, value.clone());
            });
            Some(k.finish())
        }
        "saxpy" => {
            let mut k = DslKernel::new("saxpy");
            let x = k.param_ptr("x");
            let y = k.param_ptr("y");
            let a = k.param("a", Ty::F32);
            let n = k.param("n", Ty::S32);
            let gid = k.let_(Ty::S32, global_id_x());
            k.if_(Expr::from(gid).lt(n), |k| {
                let xv = k.let_(Ty::F32, ld_global(x.clone(), gid, Ty::F32));
                let yv = k.let_(Ty::F32, ld_global(y.clone(), gid, Ty::F32));
                k.st_global(y.clone(), gid, Ty::F32, a.clone() * xv + Expr::from(yv));
            });
            Some(k.finish())
        }
        "spin" => {
            // `iters` additions per thread; thread 0 publishes the sum so
            // the loop has an observable effect and cannot be elided.
            let mut k = DslKernel::new("spin");
            let out = k.param_ptr("out");
            let iters = k.param("iters", Ty::S32);
            let gid = k.let_(Ty::S32, global_id_x());
            let acc = k.let_(Ty::S32, 0i32);
            let i = k.let_(Ty::S32, 0i32);
            k.while_(Expr::from(i).lt(iters), |k| {
                k.assign(acc, Expr::from(acc) + i);
                k.assign(i, Expr::from(i) + 1i32);
            });
            k.if_(Expr::from(gid).eq_(0i32), |k| {
                k.st_global(out.clone(), 0i32, Ty::S32, acc);
            });
            Some(k.finish())
        }
        "oob" => {
            // Index 1<<26 f32 elements past the base: a ~256 MiB offset,
            // past the 192 MiB arena of every device model, so the store
            // faults regardless of the allocation it was aimed at.
            let mut k = DslKernel::new("oob");
            let out = k.param_ptr("out");
            let gid = k.let_(Ty::S32, global_id_x());
            k.st_global(out.clone(), Expr::from(gid) + (1i32 << 26), Ty::F32, 1.0f32);
            Some(k.finish())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::{Cuda, Gpu, GpuExt, RtError};
    use gpucmp_sim::{DeviceSpec, LaunchConfig};

    #[test]
    fn every_registry_kernel_compiles() {
        for name in KERNEL_NAMES {
            let def = kernel_def(name).unwrap();
            let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
            gpu.build(&def).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(kernel_def("nope").is_none());
    }

    #[test]
    fn fill_and_saxpy_compute() {
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let fill = gpu.build(&kernel_def("fill").unwrap()).unwrap();
        let saxpy = gpu.build(&kernel_def("saxpy").unwrap()).unwrap();
        let x = gpu.alloc::<f32>(100).unwrap();
        let y = gpu.alloc::<f32>(100).unwrap();
        let fill_cfg = |buf, v: f32| {
            LaunchConfig::new(1u32, 128u32)
                .arg_ptr(buf)
                .arg_i32(100)
                .arg_f32(v)
        };
        gpu.launch(fill, fill_cfg(x, 2.0)).unwrap();
        gpu.launch(fill, fill_cfg(y, 1.0)).unwrap();
        let cfg = LaunchConfig::new(1u32, 128u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_f32(3.0)
            .arg_i32(100);
        gpu.launch(saxpy, &cfg).unwrap();
        assert_eq!(gpu.d2h_buf(&y).unwrap(), vec![7.0f32; 100]);
    }

    #[test]
    fn spin_respects_budget_and_oob_faults() {
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let spin = gpu.build(&kernel_def("spin").unwrap()).unwrap();
        let out = gpu.alloc::<i32>(4).unwrap();
        let cfg = LaunchConfig::new(1u32, 32u32)
            .arg_ptr(out)
            .arg_i32(1_000_000)
            .with_inst_budget(10_000);
        let e = gpu.launch(spin, &cfg).unwrap_err();
        assert!(
            matches!(
                e.device_fault().map(|f| &f.kind),
                Some(gpucmp_sim::FaultKind::Watchdog { .. })
            ),
            "{e}"
        );
        gpu.reset();

        let oob = gpu.build(&kernel_def("oob").unwrap()).unwrap();
        let out = gpu.alloc::<f32>(4).unwrap();
        let cfg = LaunchConfig::new(1u32, 32u32).arg_ptr(out);
        let e = gpu.launch(oob, &cfg).unwrap_err();
        assert!(matches!(e, RtError::DeviceFault { .. }), "{e}");
        assert!(e.is_sticky());
    }
}
