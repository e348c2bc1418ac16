//! The per-session pre-decoded code cache: one decode per distinct kernel,
//! keyed by content hash, surviving rebuilds — and evicted wholesale by
//! [`gpucmp_runtime::Session::reset`] so a recycled context starts cold.

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
fn one_decode_per_distinct_kernel_per_session() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    gpu.set_exec_options(ExecOptions::serial().tier(ExecTier::Decoded));
    let buf = gpu.alloc::<f32>(256).unwrap();
    let cfg = LaunchConfig::new(2u32, 128u32).arg_ptr(buf).arg_i32(256);

    let a = gpu.build(&fill_kernel("fill", 1.0)).unwrap();
    for _ in 0..5 {
        gpu.launch(a, &cfg).unwrap();
    }
    assert_eq!(gpu.session().decode_count(), 1, "one decode for 5 launches");

    // Rebuilding the identical kernel hits the cache via the content hash.
    let a2 = gpu.build(&fill_kernel("fill", 1.0)).unwrap();
    gpu.launch(a2, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 1, "rebuild reuses the decode");

    // A genuinely different kernel decodes once more.
    let b = gpu.build(&fill_kernel("fill2", 3.0)).unwrap();
    gpu.launch(b, &cfg).unwrap();
    gpu.launch(b, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 2);
    assert_eq!(gpu.session().code_cache_len(), 2);
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![3.0f32; 256]);
}

#[test]
fn context_reset_evicts_code_cache() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    gpu.set_exec_options(ExecOptions::serial().tier(ExecTier::Decoded));
    let h = gpu.build(&fill_kernel("fill", 2.0)).unwrap();
    let buf = gpu.alloc::<f32>(64).unwrap();
    let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(buf).arg_i32(64);
    gpu.launch(h, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 1);
    assert_eq!(gpu.session().code_cache_len(), 1);

    let report = gpu.reset();
    assert_eq!(report.evicted_kernels, 1, "reset reports the eviction");
    assert_eq!(gpu.session().resets(), 1);
    assert_eq!(gpu.session().code_cache_len(), 0, "cache starts cold");

    // Same kernel content after reset must be decoded afresh: a recycled
    // (pooled) session cannot replay a stale decode from a previous
    // context generation, even for identical content hashes.
    let h = gpu.build(&fill_kernel("fill", 2.0)).unwrap();
    let buf = gpu.alloc::<f32>(64).unwrap();
    let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(buf).arg_i32(64);
    gpu.launch(h, &cfg).unwrap();
    assert_eq!(gpu.session().decode_count(), 2, "reset evicts the cache");
    assert_eq!(gpu.session().code_cache_len(), 1);
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![2.0f32; 64]);
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
    assert_eq!(gpu.session().code_cache_len(), 0);
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![4.0f32; 64]);
}
