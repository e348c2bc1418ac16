//! Device-fault model tests: every fault class raised by hand-written
//! kernels, with exact PC/thread diagnostics, bit-identical across host
//! thread counts.

use gpucmp_ptx::{Address, KernelBuilder, Op2, Op3, Operand, ResolvedKernel, Space, Special, Ty};
use gpucmp_sim::{
    launch_with, DeviceSpec, ExecOptions, FaultKind, GlobalMemory, LaunchConfig, SimError,
};

/// Thread counts every fault must be invariant over.
const THREADS: [usize; 3] = [1, 2, 8];

/// out[gid] = gid, with no bounds guard.
fn unguarded_store_kernel() -> ResolvedKernel {
    let mut b = KernelBuilder::new("store_all");
    b.param("out", Ty::U64);
    let tid = b.special(Special::TidX);
    let ntid = b.special(Special::NtidX);
    let ctaid = b.special(Special::CtaidX);
    let gid = b.tern(Op3::Mad, Ty::U32, ctaid, ntid, tid);
    let out = b.ld_param(0, Ty::U64);
    let o64 = b.cvt(Ty::U64, Ty::U32, gid);
    let off = b.bin(Op2::Shl, Ty::U64, o64, 2i32);
    let addr = b.bin(Op2::Add, Ty::U64, out, off);
    b.st(
        Space::Global,
        Ty::U32,
        Address::base(Operand::Reg(addr)),
        gid,
    );
    b.finish().resolve().unwrap()
}

#[test]
fn oob_global_store_faults_with_site_across_thread_counts() {
    let device = DeviceSpec::gtx480();
    let kernel = unguarded_store_kernel();
    let run = |threads: usize| {
        // 256 threads store 4 bytes each from offset 256: the store of
        // gid 192 (block 3, thread 0) is the first past the 1 KiB device.
        let mut gmem = GlobalMemory::new(1024);
        let out = gmem.alloc(512).unwrap();
        let cfg = LaunchConfig::new(4u32, 64u32).arg_ptr(out);
        launch_with(
            &device,
            &kernel,
            &mut gmem,
            &[],
            &cfg,
            &ExecOptions::with_threads(threads),
        )
        .unwrap_err()
    };
    let errs: Vec<SimError> = THREADS.iter().map(|&t| run(t)).collect();
    let fault = errs[0].fault().expect("device fault");
    assert!(
        matches!(
            fault.kind,
            FaultKind::OutOfBounds {
                space: Space::Global,
                size: 4,
                limit: 1024,
                ..
            }
        ),
        "{fault}"
    );
    let site = fault.site.expect("access faults carry a site");
    assert_eq!(site.block, [3, 0, 0]);
    assert_eq!(site.thread, [0, 0, 0]);
    for e in &errs[1..] {
        assert_eq!(e, &errs[0], "fault must not depend on host thread count");
    }
}

#[test]
fn oob_shared_store_faults_with_thread_coordinates() {
    // 16 bytes of shared memory, 32 threads each storing shared[tid*4]:
    // lane 4 is the first out of bounds.
    let mut b = KernelBuilder::new("smem_oob");
    let shared_off = b.shared_alloc(16);
    let tid = b.special(Special::TidX);
    let off = b.bin(Op2::Shl, Ty::U32, tid, 2i32);
    let base = b.mov(Ty::U32, shared_off as i32);
    let addr = b.bin(Op2::Add, Ty::U32, base, off);
    let a64 = b.cvt(Ty::U64, Ty::U32, addr);
    b.st(
        Space::Shared,
        Ty::U32,
        Address::base(Operand::Reg(a64)),
        tid,
    );
    let kernel = b.finish().resolve().unwrap();

    let device = DeviceSpec::gtx280();
    let mut gmem = GlobalMemory::new(1 << 12);
    let cfg = LaunchConfig::new(1u32, 32u32);
    let e = launch_with(
        &device,
        &kernel,
        &mut gmem,
        &[],
        &cfg,
        &ExecOptions::serial(),
    )
    .unwrap_err();
    let fault = e.fault().expect("device fault");
    assert!(
        matches!(
            fault.kind,
            FaultKind::OutOfBounds {
                space: Space::Shared,
                addr: 16,
                size: 4,
                limit: 16,
            }
        ),
        "{fault}"
    );
    assert_eq!(fault.site.unwrap().thread, [4, 0, 0]);
}

#[test]
fn misaligned_global_load_faults() {
    // ld.global.u32 at out+2: naturally misaligned.
    let mut b = KernelBuilder::new("misaligned");
    b.param("out", Ty::U64);
    let out = b.ld_param(0, Ty::U64);
    let addr = b.bin(Op2::Add, Ty::U64, out, 2i32);
    let v = b.ld(Space::Global, Ty::U32, Address::base(Operand::Reg(addr)));
    b.st(Space::Global, Ty::U32, Address::base(Operand::Reg(out)), v);
    let kernel = b.finish().resolve().unwrap();

    let device = DeviceSpec::gtx480();
    let mut gmem = GlobalMemory::new(1 << 12);
    let out = gmem.alloc(64).unwrap();
    let cfg = LaunchConfig::new(1u32, 1u32).arg_ptr(out);
    let e = launch_with(
        &device,
        &kernel,
        &mut gmem,
        &[],
        &cfg,
        &ExecOptions::serial(),
    )
    .unwrap_err();
    let fault = e.fault().expect("device fault");
    match fault.kind {
        FaultKind::Misaligned { space, addr, size } => {
            assert_eq!(space, Space::Global);
            assert_eq!(addr, out.0 + 2);
            assert_eq!(size, 4);
        }
        ref k => panic!("expected Misaligned, got {k}"),
    }
    assert_eq!(fault.site.unwrap().thread, [0, 0, 0]);
}

#[test]
fn watchdog_timeout_reports_budget_and_site() {
    let mut b = KernelBuilder::new("spin");
    let top = b.new_label();
    b.place_label(top);
    let x = b.mov(Ty::S32, 1i32);
    b.bin_to(Op2::Add, Ty::S32, x, x, 1i32);
    b.bra(top);
    let kernel = b.finish().resolve().unwrap();

    let device = DeviceSpec::gtx480();
    let run = |threads: usize| {
        let mut gmem = GlobalMemory::new(1 << 12);
        let mut cfg = LaunchConfig::new(2u32, 32u32);
        cfg.inst_budget = 5_000;
        launch_with(
            &device,
            &kernel,
            &mut gmem,
            &[],
            &cfg,
            &ExecOptions::with_threads(threads),
        )
        .unwrap_err()
    };
    let errs: Vec<SimError> = THREADS.iter().map(|&t| run(t)).collect();
    let fault = errs[0].fault().expect("device fault");
    assert!(
        matches!(fault.kind, FaultKind::Watchdog { budget: 5_000 }),
        "{fault}"
    );
    assert!(fault.site.is_some(), "watchdog pins the spinning pc");
    for e in &errs[1..] {
        assert_eq!(e, &errs[0]);
    }
}

#[test]
fn store_to_const_space_is_a_fault() {
    let mut b = KernelBuilder::new("const_store");
    let z = b.mov(Ty::U64, 0i32);
    b.st(Space::Const, Ty::U32, Address::base(Operand::Reg(z)), 7i32);
    let kernel = b.finish().resolve().unwrap();
    let device = DeviceSpec::gtx480();
    let mut gmem = GlobalMemory::new(1 << 12);
    let cfg = LaunchConfig::new(1u32, 1u32);
    let e = launch_with(
        &device,
        &kernel,
        &mut gmem,
        &[],
        &cfg,
        &ExecOptions::serial(),
    )
    .unwrap_err();
    let fault = e.fault().expect("device fault");
    assert!(
        matches!(fault.kind, FaultKind::ReadOnly(Space::Const)),
        "{fault}"
    );
}

#[test]
fn memcheck_records_allocation_oob_and_completes() {
    let device = DeviceSpec::gtx480();
    let kernel = unguarded_store_kernel();
    let run = |threads: usize| {
        // Capacity is ample: without memcheck every store lands silently.
        // With memcheck, stores by gid >= 128 fall outside the 512-byte
        // allocation and are reported + dropped.
        let mut gmem = GlobalMemory::new(1 << 16);
        let out = gmem.alloc(512).unwrap();
        let cfg = LaunchConfig::new(4u32, 64u32).arg_ptr(out);
        let report = launch_with(
            &device,
            &kernel,
            &mut gmem,
            &[],
            &cfg,
            &ExecOptions::with_threads(threads).memcheck(true),
        )
        .expect("memcheck suppresses access faults");
        let data = gmem.read_u32_slice(out, 128).unwrap();
        (report.faults, data, out)
    };
    let (faults, data, out) = run(1);
    // 256 threads, 128 in-bounds: blocks 2 and 3 fault entirely.
    assert_eq!(faults.len(), 128);
    let first = &faults[0];
    assert!(
        matches!(
            first.kind,
            FaultKind::OutOfBounds {
                space: Space::Global,
                size: 4,
                ..
            }
        ),
        "{first}"
    );
    if let FaultKind::OutOfBounds { addr, limit, .. } = first.kind {
        assert_eq!(addr, out.0 + 128 * 4, "first OOB store is gid 128");
        assert_eq!(limit, out.0 + 512, "limit is the allocation end");
    }
    let site = first.site.unwrap();
    assert_eq!(site.block, [2, 0, 0]);
    assert_eq!(site.thread, [0, 0, 0]);
    // In-bounds stores landed despite the suppressed faults.
    for (i, &v) in data.iter().enumerate() {
        assert_eq!(v as usize, i);
    }
    // And the whole fault log is thread-count invariant.
    for &t in &THREADS[1..] {
        let (f2, d2, _) = run(t);
        assert_eq!(f2, faults);
        assert_eq!(d2, data);
    }
}

#[test]
fn memcheck_does_not_suppress_watchdog() {
    let mut b = KernelBuilder::new("spin");
    let top = b.new_label();
    b.place_label(top);
    let x = b.mov(Ty::S32, 1i32);
    b.bin_to(Op2::Add, Ty::S32, x, x, 1i32);
    b.bra(top);
    let kernel = b.finish().resolve().unwrap();
    let device = DeviceSpec::gtx480();
    let mut gmem = GlobalMemory::new(1 << 12);
    let mut cfg = LaunchConfig::new(1u32, 32u32);
    cfg.inst_budget = 1_000;
    let e = launch_with(
        &device,
        &kernel,
        &mut gmem,
        &[],
        &cfg,
        &ExecOptions::serial().memcheck(true),
    )
    .unwrap_err();
    assert!(
        matches!(e.fault().map(|f| &f.kind), Some(FaultKind::Watchdog { .. })),
        "{e}"
    );
}

#[test]
fn device_oom_is_a_launch_setup_error_not_a_fault() {
    let mut gmem = GlobalMemory::new(1024);
    let e = gmem.alloc(1 << 20).unwrap_err();
    assert!(matches!(e, SimError::OutOfMemory { .. }));
    assert!(e.fault().is_none());
}

#[test]
fn more_dram_partitions_than_modelled_is_an_invalid_launch() {
    // A 64 x 256 copy on a GT200 with 12 partitions: the per-partition
    // traffic counters hold 8, so the launch is rejected up front instead
    // of indexing past them.
    let mut b = KernelBuilder::new("copy");
    b.param("src", Ty::U64);
    b.param("dst", Ty::U64);
    let tid = b.special(Special::TidX);
    let ntid = b.special(Special::NtidX);
    let ctaid = b.special(Special::CtaidX);
    let gid = b.tern(Op3::Mad, Ty::U32, ctaid, ntid, tid);
    let g64 = b.cvt(Ty::U64, Ty::U32, gid);
    let off = b.bin(Op2::Shl, Ty::U64, g64, 2i32);
    let src = b.ld_param(0, Ty::U64);
    let dst = b.ld_param(1, Ty::U64);
    let sa = b.bin(Op2::Add, Ty::U64, src, off);
    let da = b.bin(Op2::Add, Ty::U64, dst, off);
    let v = b.ld(Space::Global, Ty::U32, Address::base(Operand::Reg(sa)));
    b.st(Space::Global, Ty::U32, Address::base(Operand::Reg(da)), v);
    let kernel = b.finish().resolve().unwrap();
    let mut device = DeviceSpec::gtx280();
    device.dram_partitions = 12;
    let mut gmem = GlobalMemory::new(1 << 20);
    let src = gmem.alloc(64 * 256 * 4).unwrap();
    let dst = gmem.alloc(64 * 256 * 4).unwrap();
    let cfg = LaunchConfig::new(64u32, 256u32).arg_ptr(src).arg_ptr(dst);
    let e = launch_with(
        &device,
        &kernel,
        &mut gmem,
        &[],
        &cfg,
        &ExecOptions::serial(),
    )
    .unwrap_err();
    assert!(matches!(e, SimError::InvalidLaunch(_)), "{e}");
    device.dram_partitions = 8;
    launch_with(
        &device,
        &kernel,
        &mut gmem,
        &[],
        &cfg,
        &ExecOptions::serial(),
    )
    .unwrap();
}
