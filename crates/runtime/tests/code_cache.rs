//! Pre-decoded code on the loaded kernel: the first launch of a handle on
//! the decoded tier decodes it, later launches reuse the decode, and
//! [`gpucmp_runtime::Session::reset`] drops it with the kernel so a
//! recycled context starts cold.

use gpucmp_compiler::{global_id_x, DslKernel, KernelDef};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Cuda, Gpu, GpuExt};
use gpucmp_sim::{DeviceSpec, ExecOptions, ExecTier, LaunchConfig};

fn fill_kernel(name: &str, value: f32) -> KernelDef {
    let mut k = DslKernel::new(name);
    let out = k.param_ptr("out");
    let n = k.param("n", Ty::S32);
    let gid = k.let_(Ty::S32, global_id_x());
    k.if_(gpucmp_compiler::Expr::from(gid).lt(n), |k| {
        k.st_global(out.clone(), gid, Ty::F32, value);
    });
    k.finish()
}

#[test]
fn one_decode_per_kernel_handle() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    gpu.set_exec_options(ExecOptions::serial().tier(ExecTier::Decoded));
    let buf = gpu.alloc::<f32>(256).unwrap();
    let cfg = LaunchConfig::new(2u32, 128u32).arg_ptr(buf).arg_i32(256);

    let a = gpu.build(&fill_kernel("fill", 1.0)).unwrap();
    for _ in 0..5 {
        gpu.launch(a, &cfg).unwrap();
    }
    assert_eq!(gpu.session().decode_count(), 1, "one decode for 5 launches");

    // A rebuild is a new handle, so it decodes again even when its
    // content is identical.
    let a2 = gpu.build(&fill_kernel("fill", 1.0)).unwrap();
    gpu.launch(a2, &cfg).unwrap();
    gpu.launch(a, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 2, "a rebuild decodes again");

    let b = gpu.build(&fill_kernel("fill2", 3.0)).unwrap();
    gpu.launch(b, &cfg).unwrap();
    gpu.launch(b, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 3);
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![3.0f32; 256]);
}

#[test]
fn context_reset_drops_decoded_code() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    gpu.set_exec_options(ExecOptions::serial().tier(ExecTier::Decoded));
    let h = gpu.build(&fill_kernel("fill", 2.0)).unwrap();
    let buf = gpu.alloc::<f32>(64).unwrap();
    let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(buf).arg_i32(64);
    gpu.launch(h, &cfg).unwrap();
    // Built but never launched: nothing decoded, nothing to evict.
    gpu.build(&fill_kernel("idle", 5.0)).unwrap();
    assert_eq!(gpu.session().decode_count(), 1);

    let report = gpu.reset();
    assert_eq!(report.evicted_kernels, 1, "reset reports the eviction");
    assert_eq!(gpu.session().resets(), 1);

    // Same kernel content after reset must be decoded afresh: a recycled
    // (pooled) session cannot replay a stale decode from a previous
    // context generation.
    let h = gpu.build(&fill_kernel("fill", 2.0)).unwrap();
    let buf = gpu.alloc::<f32>(64).unwrap();
    let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(buf).arg_i32(64);
    gpu.launch(h, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 2, "reset drops the decode");
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![2.0f32; 64]);
    assert_eq!(gpu.reset().evicted_kernels, 1);
}

#[test]
fn interp_tier_never_decodes() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    gpu.set_exec_options(ExecOptions::serial().tier(ExecTier::Interp));
    let h = gpu.build(&fill_kernel("fill", 4.0)).unwrap();
    let buf = gpu.alloc::<f32>(64).unwrap();
    let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(buf).arg_i32(64);
    gpu.launch(h, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 0);
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![4.0f32; 64]);
    assert_eq!(gpu.reset().evicted_kernels, 0);
}
