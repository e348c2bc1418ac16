//! Concurrent fault isolation: N threads drive independent sessions on
//! the same device model while a fault plan poisons exactly one of them
//! mid-run. The poisoned session must fail sticky-and-typed until reset;
//! every *other* session's result fingerprint must be bit-identical to a
//! fault-free serial run — the runtime-level guarantee the multi-tenant
//! server builds its isolation contract on.

use gpucmp_compiler::{global_id_x, ld_global, DslKernel, Expr, KernelDef};
use gpucmp_ptx::{AtomOp, Space, Ty};
use gpucmp_runtime::inject::FaultPlan;
use gpucmp_runtime::{Cuda, Gpu, GpuExt, RtError};
use gpucmp_sim::{DevPtr, DeviceSpec, LaunchConfig};

const N_THREADS: u64 = 4;
const N_ELEMS: u32 = 512;
const ITERS: u32 = 8;

/// out[i] = in[i] * 3 + bias, guarded.
fn mad_kernel() -> KernelDef {
    let mut k = DslKernel::new("mad");
    let input = k.param_ptr("in");
    let out = k.param_ptr("out");
    let bias = k.param("bias", Ty::S32);
    let n = k.param("n", Ty::S32);
    let gid = k.let_(Ty::S32, global_id_x());
    k.if_(Expr::from(gid).lt(n), |k| {
        let v = k.let_(Ty::S32, ld_global(input.clone(), gid, Ty::S32));
        k.st_global(
            out.clone(),
            gid,
            Ty::S32,
            Expr::from(v) * 3i32 + bias.clone(),
        );
    });
    k.finish()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Run one session's full workload and fingerprint every readback.
/// Deterministic in `seed`; independent of sibling sessions.
fn run_session(seed: u64) -> u64 {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let h = gpu.build(&mad_kernel()).unwrap();
    let input = gpu.alloc::<i32>(N_ELEMS as usize).unwrap();
    let out = gpu.alloc::<i32>(N_ELEMS as usize).unwrap();
    let data: Vec<i32> = (0..N_ELEMS as i32).map(|i| i ^ seed as i32).collect();
    gpu.h2d_t(input.into(), &data).unwrap();
    let mut fp = 0xCBF2_9CE4_8422_2325u64;
    for iter in 0..ITERS {
        let cfg = LaunchConfig::new(N_ELEMS / 128, 128u32)
            .arg_ptr(input)
            .arg_ptr(out)
            .arg_i32(seed as i32 + iter as i32)
            .arg_i32(N_ELEMS as i32);
        let outcome = gpu.launch(h, &cfg).unwrap();
        let bytes = gpu.d2h_buf(&out).unwrap();
        for v in &bytes {
            fnv1a(&mut fp, &v.to_le_bytes());
        }
        fnv1a(
            &mut fp,
            &outcome.report.stats.lane_instructions.to_le_bytes(),
        );
    }
    fp
}

#[test]
fn poisoned_session_does_not_perturb_concurrent_siblings() {
    // Fault-free serial baseline.
    let baseline: Vec<u64> = (0..N_THREADS).map(run_session).collect();

    // Same workloads, now concurrent, with one extra session being
    // starved into a watchdog fault mid-run by its fault plan.
    let workers: Vec<_> = (0..N_THREADS)
        .map(|seed| std::thread::spawn(move || run_session(seed)))
        .collect();
    let victim = std::thread::spawn(|| {
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        // Launch index 1 (the second launch) runs under a 1-instruction
        // budget: a guaranteed watchdog fault, injected deterministically.
        gpu.set_fault_plan(Some(FaultPlan::none().with_starve_launch(1, 1)));
        let h = gpu.build(&mad_kernel()).unwrap();
        let input = gpu.alloc::<i32>(N_ELEMS as usize).unwrap();
        let out = gpu.alloc::<i32>(N_ELEMS as usize).unwrap();
        gpu.h2d_t(input.into(), &vec![7i32; N_ELEMS as usize])
            .unwrap();
        let cfg = LaunchConfig::new(N_ELEMS / 128, 128u32)
            .arg_ptr(input)
            .arg_ptr(out)
            .arg_i32(1)
            .arg_i32(N_ELEMS as i32);
        gpu.launch(h, &cfg).unwrap();
        let err = gpu.launch(h, &cfg).unwrap_err();
        assert!(
            matches!(err, RtError::DeviceFault { .. }),
            "starved launch faults: {err}"
        );
        // Sticky until reset, typed the whole way down.
        for e in [
            gpu.launch(h, &cfg).unwrap_err(),
            gpu.malloc(64).unwrap_err(),
            gpu.d2h_buf(&out).unwrap_err(),
        ] {
            assert!(matches!(e, RtError::ContextLost { .. }), "{e}");
        }
        let report = gpu.reset();
        assert!(report.fault.is_some(), "reset clears the recorded fault");
    });

    let concurrent: Vec<u64> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread"))
        .collect();
    victim.join().expect("victim thread");

    assert_eq!(
        concurrent, baseline,
        "sibling fingerprints must be bit-identical to the fault-free run"
    );
}

#[test]
fn victim_recovers_to_baseline_after_reset() {
    let expect = run_session(3);
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    gpu.set_fault_plan(Some(FaultPlan::none().with_starve_launch(0, 1)));
    let h = gpu.build(&mad_kernel()).unwrap();
    let buf = gpu.alloc::<i32>(4).unwrap();
    let cfg = LaunchConfig::new(1u32, 32u32)
        .arg_ptr(buf)
        .arg_ptr(buf)
        .arg_i32(0)
        .arg_i32(4);
    assert!(gpu.launch(h, &cfg).is_err(), "first launch is starved");
    gpu.reset();
    // A recycled context with the plan disarmed reproduces the exact
    // fault-free fingerprint — the server's recycle-then-reuse path.
    gpu.set_fault_plan(None);
    drop(gpu);
    assert_eq!(run_session(3), expect);
}

/// Elements between a 64-element buffer and the slots written past it.
const FAR: i32 = 4096;

/// `p[gid + FAR] = 0x5a5a5a5a` by a plain store, plus `p[gid + 2 * FAR]
/// += 7` by a global atomic when `atomic` (which runs the launch's blocks
/// serially through one overlay instead of one overlay per block).
fn poke_kernel(atomic: bool) -> KernelDef {
    let mut k = DslKernel::new(if atomic { "poke_atomic" } else { "poke" });
    let p = k.param_ptr("p");
    let gid = k.let_(Ty::S32, global_id_x());
    k.st_global(p.clone(), Expr::from(gid) + FAR, Ty::S32, 0x5a5a_5a5ai32);
    if atomic {
        k.atomic(
            AtomOp::Add,
            Space::Global,
            p,
            Expr::from(gid) + 2 * FAR,
            Ty::S32,
            7i32,
        );
    }
    k.finish()
}

/// `p[gid] = p[gid + FAR] + p[gid + 2 * FAR] + p[gid + 3 * FAR]`.
fn peek_kernel() -> KernelDef {
    let mut k = DslKernel::new("peek");
    let p = k.param_ptr("p");
    let gid = k.let_(Ty::S32, global_id_x());
    let far = |n: i32| ld_global(p.clone(), Expr::from(gid) + n * FAR, Ty::S32);
    k.st_global(p.clone(), gid, Ty::S32, far(1) + far(2) + far(3));
    k.finish()
}

#[test]
fn a_reset_session_reads_zeros_where_the_last_tenant_wrote_past_its_buffers() {
    // A tenant can write anywhere in the arena, not only inside its
    // allocations: by a kernel store, a kernel atomic or a host copy. The
    // recycled session must not see any of it.
    let mut gpu = Cuda::with_arena(DeviceSpec::gtx480(), 1 << 20).unwrap();
    gpu.set_memcheck(false);
    let cfg = |buf| LaunchConfig::new(1u32, 64u32).arg_ptr(buf);
    let buf = gpu.alloc::<i32>(64).unwrap();
    for atomic in [false, true] {
        let h = gpu.build(&poke_kernel(atomic)).unwrap();
        gpu.launch(h, cfg(buf)).unwrap();
    }
    let at = DevPtr::from(buf).offset(3 * FAR as u64 * 4);
    gpu.h2d_t(at, &[9i32; 64]).unwrap();
    let peek = gpu.build(&peek_kernel()).unwrap();
    gpu.launch(peek, cfg(buf)).unwrap();
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![0x5a5a_5a5a + 7 + 9; 64]);

    gpu.reset();
    let fresh = gpu.alloc::<i32>(64).unwrap();
    assert_eq!(DevPtr::from(fresh), DevPtr::from(buf), "same addresses");
    let peek = gpu.build(&peek_kernel()).unwrap();
    gpu.launch(peek, cfg(fresh)).unwrap();
    assert_eq!(gpu.d2h_buf(&fresh).unwrap(), vec![0; 64]);
}
