//! Differential tests for the execution tiers: the warp-wide decoded tier
//! must match the reference interpreter bit for bit — statistics, virtual
//! timing, fault kinds and sites, and memcheck records — including at the
//! warp edges: partial warps, divergent masks, 2-D blocks, 64-wide devices.

use gpucmp_ptx::{Address, CmpOp, KernelBuilder, Op1, Op2, Op3, Operand, Space, Special, Ty};
use gpucmp_sim::{
    decode_kernel, launch_with, launch_with_code, DeviceFault, DeviceSpec, Dim3, ExecOptions,
    ExecTier, FaultKind, GlobalMemory, LaunchConfig, SimError,
};

/// A kernel exercising every tier-relevant construct: straight-line scalar
/// code, integer division (the fallible scalar op), divergence with
/// reconvergence, shared memory with a barrier, and global loads/stores.
fn mixed_kernel() -> gpucmp_ptx::Kernel {
    let mut b = KernelBuilder::new("mixed");
    b.param("x", Ty::U64);
    b.param("y", Ty::U64);
    b.param("n", Ty::S32);
    b.shared_alloc(4 * 256);
    let tid = b.special(Special::TidX);
    let ntid = b.special(Special::NtidX);
    let ctaid = b.special(Special::CtaidX);
    let gid = b.tern(Op3::Mad, Ty::U32, ctaid, ntid, tid);
    let n = b.ld_param(2, Ty::S32);
    let p = b.setp(CmpOp::Ge, Ty::S32, gid, n);
    let end = b.new_label();
    b.ssy(end);
    b.bra_if(end, p, true);
    // Straight-line scalar code: cvt, shifts, float math.
    let xptr = b.ld_param(0, Ty::U64);
    let yptr = b.ld_param(1, Ty::U64);
    let off64 = b.cvt(Ty::U64, Ty::U32, gid);
    let off = b.bin(Op2::Shl, Ty::U64, off64, 2i32);
    let xa = b.bin(Op2::Add, Ty::U64, xptr, off);
    let _ya = b.bin(Op2::Add, Ty::U64, yptr, off); // extends the scalar run
    let xv = b.ld(Space::Global, Ty::F32, Address::base(Operand::Reg(xa)));
    // Integer division in the middle of scalar code.
    let three = b.mov(Ty::S32, 3i32);
    let q = b.bin(Op2::Div, Ty::S32, gid, three);
    let qf = b.cvt(Ty::F32, Ty::S32, q);
    let s = b.un(Op1::Sqrt, Ty::F32, xv);
    let r = b.tern(Op3::Fma, Ty::F32, s, qf, xv);
    // Shared-memory round trip with a barrier.
    let toff = b.cvt(Ty::U64, Ty::U32, tid);
    let soff = b.bin(Op2::Shl, Ty::U64, toff, 2i32);
    b.st(Space::Shared, Ty::F32, Address::base(Operand::Reg(soff)), r);
    b.place_label(end);
    b.sync();
    b.bar();
    let p2 = b.setp(CmpOp::Ge, Ty::S32, gid, n);
    let end2 = b.new_label();
    b.ssy(end2);
    b.bra_if(end2, p2, true);
    let soff2 = {
        let t = b.cvt(Ty::U64, Ty::U32, tid);
        b.bin(Op2::Shl, Ty::U64, t, 2i32)
    };
    let back = b.ld(Space::Shared, Ty::F32, Address::base(Operand::Reg(soff2)));
    let ya2 = {
        let yptr = b.ld_param(1, Ty::U64);
        let o64 = b.cvt(Ty::U64, Ty::U32, gid);
        let o = b.bin(Op2::Shl, Ty::U64, o64, 2i32);
        b.bin(Op2::Add, Ty::U64, yptr, o)
    };
    b.st(
        Space::Global,
        Ty::F32,
        Address::base(Operand::Reg(ya2)),
        back,
    );
    b.place_label(end2);
    b.sync();
    b.finish()
}

struct Outcome {
    out: Vec<f32>,
    report: gpucmp_sim::LaunchReport,
}

fn run_tier(tier: ExecTier, threads: usize, memcheck: bool, n: usize) -> Outcome {
    run_shape(&DeviceSpec::gtx480(), tier, threads, memcheck, 8, 256, n)
}

/// [`mixed_kernel`] on `device` with `grid` blocks of `block` threads over
/// `n` elements.
fn run_shape(
    device: &DeviceSpec,
    tier: ExecTier,
    threads: usize,
    memcheck: bool,
    grid: u32,
    block: u32,
    n: usize,
) -> Outcome {
    let kernel = mixed_kernel().resolve().unwrap();
    let mut gmem = GlobalMemory::new(1 << 20);
    let x = gmem.alloc((n * 4) as u64).unwrap();
    let y = gmem.alloc((n * 4) as u64).unwrap();
    let xs: Vec<f32> = (0..n).map(|i| (i % 131) as f32 * 0.25 + 1.0).collect();
    gmem.write_f32_slice(x, &xs).unwrap();
    let cfg = LaunchConfig::new(grid, block)
        .arg_ptr(x)
        .arg_ptr(y)
        .arg_i32(n as i32);
    let opts = ExecOptions::with_threads(threads)
        .memcheck(memcheck)
        .tier(tier);
    let report = launch_with(device, &kernel, &mut gmem, &[], &cfg, &opts).unwrap();
    Outcome {
        out: gmem.read_f32_slice(y, n).unwrap(),
        report,
    }
}

/// The fault of a launch that must abort.
fn fault_of(r: Result<gpucmp_sim::LaunchReport, SimError>) -> DeviceFault {
    match r {
        Err(SimError::Fault(f)) => f,
        other => panic!("expected a device fault, got {other:?}"),
    }
}

#[test]
fn tiers_produce_bit_identical_reports() {
    for &threads in &[1usize, 8] {
        let base = run_tier(ExecTier::Interp, threads, false, 1900);
        let got = run_tier(ExecTier::Decoded, threads, false, 1900);
        assert_eq!(got.out, base.out, "memory @ {threads} threads");
        assert_eq!(
            got.report.stats, base.report.stats,
            "stats @ {threads} threads"
        );
        assert_eq!(
            got.report.kernel_ns(),
            base.report.kernel_ns(),
            "timing @ {threads} threads"
        );
    }
}

#[test]
fn tiers_record_identical_memcheck_faults() {
    // Undersized buffers: both tiers must log the same access faults in the
    // same order and still complete the launch.
    let device = DeviceSpec::gtx480();
    let kernel = mixed_kernel().resolve().unwrap();
    let run = |tier: ExecTier| {
        let mut gmem = GlobalMemory::new(1 << 16);
        let x = gmem.alloc(256).unwrap();
        let y = gmem.alloc(256).unwrap();
        let cfg = LaunchConfig::new(4u32, 128u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_i32(512);
        let opts = ExecOptions::serial().memcheck(true).tier(tier);
        launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts).unwrap()
    };
    let base = run(ExecTier::Interp);
    assert!(!base.faults.is_empty(), "test must exercise memcheck");
    let got = run(ExecTier::Decoded);
    assert_eq!(got.faults, base.faults, "memcheck records");
    assert_eq!(got.stats, base.stats, "stats under memcheck");
}

#[test]
fn tiers_report_identical_fault_sites() {
    // Aborting faults must carry the same kind and the same (pc, block,
    // thread) site on both tiers — orig_pc attribution through the IR.
    let device = DeviceSpec::gtx480();
    let kernel = mixed_kernel().resolve().unwrap();
    let run = |tier: ExecTier| {
        let mut gmem = GlobalMemory::new(1 << 12);
        let x = gmem.alloc(64).unwrap();
        let y = gmem.alloc(64).unwrap();
        let cfg = LaunchConfig::new(8u32, 128u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_i32(4096);
        let opts = ExecOptions::serial().tier(tier);
        fault_of(launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts))
    };
    let base = run(ExecTier::Interp);
    assert!(matches!(base.kind, FaultKind::OutOfBounds { .. }));
    assert_eq!(run(ExecTier::Decoded), base);
}

#[test]
fn watchdog_fires_at_the_same_instruction_on_every_tier() {
    // An infinite loop with a tiny budget: the decoded tier must exhaust
    // the budget at the interp-identical pc.
    let mut b = KernelBuilder::new("spin");
    let one = b.mov(Ty::S32, 1i32);
    let top = b.new_label();
    b.place_label(top);
    let acc = b.bin(Op2::Add, Ty::S32, one, one);
    let _ = b.bin(Op2::Mul, Ty::S32, acc, one);
    b.bra(top);
    let kernel = b.finish().resolve().unwrap();
    let device = DeviceSpec::gtx480();
    let run = |tier: ExecTier| {
        let mut gmem = GlobalMemory::new(1 << 12);
        let cfg = LaunchConfig::new(1u32, 32u32).with_inst_budget(100);
        let opts = ExecOptions::serial().tier(tier);
        fault_of(launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts))
    };
    let base = run(ExecTier::Interp);
    assert!(matches!(base.kind, FaultKind::Watchdog { budget: 100 }));
    assert!(base.site.is_some());
    assert_eq!(run(ExecTier::Decoded), base);
}

#[test]
fn precompiled_code_matches_on_the_fly_decode() {
    // launch_with_code(Some(..)) — the runtime's path — must be
    // indistinguishable from decoding at launch.
    let device = DeviceSpec::gtx480();
    let kernel = mixed_kernel().resolve().unwrap();
    let code = decode_kernel(&kernel, &device);
    let run = |code: Option<&gpucmp_sim::DecodedKernel>| {
        let mut gmem = GlobalMemory::new(1 << 20);
        let x = gmem.alloc(4096).unwrap();
        let y = gmem.alloc(4096).unwrap();
        let xs: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        gmem.write_f32_slice(x, &xs).unwrap();
        let cfg = LaunchConfig::new(4u32, 256u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_i32(1024);
        let opts = ExecOptions::serial().tier(ExecTier::Decoded);
        let r = launch_with_code(&device, &kernel, &mut gmem, &[], &cfg, &opts, code).unwrap();
        (gmem.read_f32_slice(y, 1024).unwrap(), r.stats)
    };
    let (o1, s1) = run(Some(&code));
    let (o2, s2) = run(None);
    assert_eq!(o1, o2);
    assert_eq!(s1, s2);
}

/// `q = 100 / (tid.x - 5)` for every thread, optionally skipping thread 5
/// behind a divergent branch; `q` is stored to `out[tid]`.
fn div_kernel(guard_lane_5: bool) -> gpucmp_ptx::Kernel {
    let mut b = KernelBuilder::new("div5");
    b.param("out", Ty::U64);
    let tid = b.special(Special::TidX);
    let d = b.bin(Op2::Sub, Ty::S32, tid, 5i32);
    let q = b.mov(Ty::S32, -1i32);
    let skip = b.new_label();
    b.ssy(skip);
    if guard_lane_5 {
        let is5 = b.setp(CmpOp::Eq, Ty::S32, tid, 5i32);
        b.bra_if(skip, is5, true);
    }
    let r = b.bin(Op2::Div, Ty::S32, 100i32, d);
    b.mov_to(Ty::S32, q, r);
    b.place_label(skip);
    b.sync();
    let out = b.ld_param(0, Ty::U64);
    let t64 = b.cvt(Ty::U64, Ty::U32, tid);
    let off = b.bin(Op2::Shl, Ty::U64, t64, 2i32);
    let a = b.bin(Op2::Add, Ty::U64, out, off);
    b.st(Space::Global, Ty::S32, Address::base(Operand::Reg(a)), q);
    b.finish()
}

#[test]
fn divide_by_zero_on_one_lane_faults_identically_across_tiers() {
    // Integer division is the one fallible scalar op: the decoded tier runs
    // it lane by lane, so the faulting thread must match the interpreter's.
    let kernel = div_kernel(false).resolve().unwrap();
    let device = DeviceSpec::gtx480();
    let run = |tier: ExecTier| {
        let mut gmem = GlobalMemory::new(1 << 12);
        let out = gmem.alloc(64 * 4).unwrap();
        let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(out);
        let opts = ExecOptions::serial().tier(tier);
        fault_of(launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts))
    };
    let base = run(ExecTier::Interp);
    assert!(matches!(base.kind, FaultKind::DivByZero));
    assert_eq!(base.site.unwrap().thread, [5, 0, 0]);
    assert_eq!(run(ExecTier::Decoded), base);
}

#[test]
fn an_inactive_lane_never_faults() {
    // The same division with lane 5 branched around: its zero divisor sits
    // in an inactive lane, which must neither fault nor be written.
    let kernel = div_kernel(true).resolve().unwrap();
    let device = DeviceSpec::gtx480();
    let run = |tier: ExecTier| {
        let mut gmem = GlobalMemory::new(1 << 12);
        let out = gmem.alloc(64 * 4).unwrap();
        let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(out);
        let opts = ExecOptions::serial().tier(tier);
        let r = launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts).unwrap();
        (gmem.read_i32_slice(out, 64).unwrap(), r.stats)
    };
    let (out, stats) = run(ExecTier::Interp);
    assert_eq!(out[5], -1);
    assert_eq!(out[6], 100);
    assert_eq!(out[4], -100);
    assert_eq!(run(ExecTier::Decoded), (out, stats));
}

#[test]
fn partial_warps_and_divergent_masks_match() {
    // Blocks of 4, 33 and 100 threads leave a partial last warp; element
    // counts that are not a multiple of the block make the bounds check
    // diverge inside a warp.
    let device = DeviceSpec::gtx480();
    for (grid, block, n) in [(5u32, 4u32, 17usize), (3, 33, 90), (4, 100, 333)] {
        let base = run_shape(&device, ExecTier::Interp, 1, false, grid, block, n);
        let got = run_shape(&device, ExecTier::Decoded, 1, false, grid, block, n);
        assert!(base.report.stats.divergent_branches > 0, "block {block}");
        assert_eq!(got.out, base.out, "memory, block {block}");
        assert_eq!(got.report.stats, base.report.stats, "stats, block {block}");
    }
}

#[test]
fn sixty_four_wide_device_matches() {
    // A 64-lane wavefront: full masks, a partial 36-lane warp (block 100)
    // and divergence across the 32-lane halves.
    let device = DeviceSpec::hd5870();
    assert_eq!(device.warp_width, 64);
    for (grid, block, n) in [(4u32, 64u32, 200usize), (3, 100, 250)] {
        for threads in [1usize, 8] {
            let base = run_shape(&device, ExecTier::Interp, threads, false, grid, block, n);
            let got = run_shape(&device, ExecTier::Decoded, threads, false, grid, block, n);
            assert_eq!(got.out, base.out, "memory, block {block}");
            assert_eq!(got.report.stats, base.report.stats, "stats, block {block}");
        }
    }
}

#[test]
fn two_dimensional_blocks_read_tid_y_identically() {
    // Every thread writes its coordinates, tid.z * 10000 + tid.y * 100 +
    // tid.x, xor-ed with its warp and lane ids in the high bits, to its
    // linear slot — on blocks whose rows are not a warp multiple.
    let mut b = KernelBuilder::new("tid2d");
    b.param("out", Ty::U64);
    let tx = b.special(Special::TidX);
    let ty = b.special(Special::TidY);
    let tz = b.special(Special::TidZ);
    let nx = b.special(Special::NtidX);
    let ny = b.special(Special::NtidY);
    let lane = b.special(Special::LaneId);
    let warp = b.special(Special::WarpId);
    let row = b.tern(Op3::Mad, Ty::U32, tz, ny, ty);
    let linear = b.tern(Op3::Mad, Ty::U32, row, nx, tx);
    let yz = b.tern(Op3::Mad, Ty::U32, tz, 100i32, ty);
    let v = b.tern(Op3::Mad, Ty::U32, yz, 100i32, tx);
    let lw = b.tern(Op3::Mad, Ty::U32, warp, 1000i32, lane);
    let hi = b.bin(Op2::Shl, Ty::U32, lw, 20i32);
    let v = b.bin(Op2::Xor, Ty::U32, v, hi);
    let out = b.ld_param(0, Ty::U64);
    let l64 = b.cvt(Ty::U64, Ty::U32, linear);
    let off = b.bin(Op2::Shl, Ty::U64, l64, 2i32);
    let a = b.bin(Op2::Add, Ty::U64, out, off);
    b.st(Space::Global, Ty::U32, Address::base(Operand::Reg(a)), v);
    let kernel = b.finish().resolve().unwrap();
    for block in [(5u32, 7u32, 1u32), (8, 4, 3), (3, 3, 3)] {
        let count = (block.0 * block.1 * block.2) as usize;
        let run = |tier: ExecTier| {
            let mut gmem = GlobalMemory::new(1 << 12);
            let out = gmem.alloc(count as u64 * 4).unwrap();
            let cfg = LaunchConfig::new(1u32, Dim3::new(block.0, block.1, block.2)).arg_ptr(out);
            let opts = ExecOptions::serial().tier(tier);
            let r =
                launch_with(&DeviceSpec::gtx480(), &kernel, &mut gmem, &[], &cfg, &opts).unwrap();
            (gmem.read_u32_slice(out, count).unwrap(), r.stats)
        };
        let base = run(ExecTier::Interp);
        // Thread (x=1, y=2, z=0) writes its own coordinates.
        let t = 2 * block.0 as usize + 1;
        assert_eq!(base.0[t] & 0xfffff, 201, "block {block:?}");
        assert_eq!(run(ExecTier::Decoded), base, "block {block:?}");
    }
}

/// How thread 39, lane 7 of the second 32-wide warp, breaks its access.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Broken {
    OutOfBounds,
    Misaligned,
}

/// One block of 100 threads. Each thread either loads the word `in[tid]`
/// from global memory or stores `tid` to the shared word `tid`, then
/// writes what it loaded (or what its shared word holds after a barrier)
/// to `out[tid]`. Thread 39 uses a broken address instead. With
/// `divergent`, the even threads branch around the access, so it runs
/// under a divergent mask.
fn lane7_kernel(space: Space, broken: Broken, divergent: bool) -> gpucmp_ptx::ResolvedKernel {
    let mut b = KernelBuilder::new("lane7");
    b.param("in", Ty::U64);
    b.param("out", Ty::U64);
    b.shared_alloc(4 * 100);
    let tid = b.special(Special::TidX);
    let t64 = b.cvt(Ty::U64, Ty::U32, tid);
    let off = b.bin(Op2::Shl, Ty::U64, t64, 2i32);
    let bad = match broken {
        Broken::OutOfBounds => b.mov(Ty::U64, 1i32 << 20),
        Broken::Misaligned => b.bin(Op2::Add, Ty::U64, off, 2i32),
    };
    let is39 = b.setp(CmpOp::Eq, Ty::U32, tid, 39i32);
    let at = b.selp(Ty::U64, bad, off, is39);
    let v = b.mov(Ty::U32, 7i32);
    let skip = b.new_label();
    b.ssy(skip);
    if divergent {
        let odd = b.bin(Op2::And, Ty::U32, tid, 1i32);
        let even = b.setp(CmpOp::Eq, Ty::U32, odd, 0i32);
        b.bra_if(skip, even, true);
    }
    if space == Space::Global {
        let input = b.ld_param(0, Ty::U64);
        let a = b.bin(Op2::Add, Ty::U64, input, at);
        let x = b.ld(Space::Global, Ty::U32, Address::base(Operand::Reg(a)));
        b.mov_to(Ty::U32, v, x);
    } else {
        b.st(Space::Shared, Ty::U32, Address::base(Operand::Reg(at)), tid);
    }
    b.place_label(skip);
    b.sync();
    if space == Space::Shared {
        b.bar();
        let x = b.ld(Space::Shared, Ty::U32, Address::base(Operand::Reg(off)));
        b.mov_to(Ty::U32, v, x);
    }
    let out = b.ld_param(1, Ty::U64);
    let a = b.bin(Op2::Add, Ty::U64, out, off);
    b.st(Space::Global, Ty::U32, Address::base(Operand::Reg(a)), v);
    b.finish().resolve().unwrap()
}

#[test]
fn a_faulting_lane_in_a_warp_access_matches_across_tiers() {
    // The decoded tier runs a global or shared access warp-wide only when
    // no lane can fault; one bad lane must send it down the per-lane path,
    // with the interpreter's fault site, memcheck records and memory.
    let device = DeviceSpec::gtx480();
    for space in [Space::Global, Space::Shared] {
        for broken in [Broken::OutOfBounds, Broken::Misaligned] {
            for divergent in [false, true] {
                let kernel = lane7_kernel(space, broken, divergent);
                let run = |tier: ExecTier, memcheck: bool| {
                    let mut gmem = GlobalMemory::new(1 << 16);
                    let input = gmem.alloc(400).unwrap();
                    let out = gmem.alloc(400).unwrap();
                    let xs: Vec<u32> = (0..100).map(|i| 1000 + i).collect();
                    gmem.write_u32_slice(input, &xs).unwrap();
                    let cfg = LaunchConfig::new(1u32, 100u32).arg_ptr(input).arg_ptr(out);
                    let opts = ExecOptions::serial().memcheck(memcheck).tier(tier);
                    let r = launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts);
                    (r, gmem.read_u32_slice(out, 100).unwrap())
                };
                let case = format!("{space:?} {broken:?} divergent {divergent}");

                let base = fault_of(run(ExecTier::Interp, false).0);
                assert_eq!(base.site.unwrap().thread, [39, 0, 0], "{case}");
                match broken {
                    Broken::OutOfBounds => {
                        assert!(matches!(base.kind, FaultKind::OutOfBounds { .. }), "{case}")
                    }
                    Broken::Misaligned => {
                        assert!(matches!(base.kind, FaultKind::Misaligned { .. }), "{case}")
                    }
                }
                assert_eq!(fault_of(run(ExecTier::Decoded, false).0), base, "{case}");

                let (r, mem) = run(ExecTier::Interp, true);
                let r = r.unwrap();
                assert_eq!(r.faults.len(), 1, "{case}");
                assert_eq!(r.faults[0].site.unwrap().thread, [39, 0, 0], "{case}");
                let (got, got_mem) = run(ExecTier::Decoded, true);
                let got = got.unwrap();
                assert_eq!(got.faults, r.faults, "memcheck records, {case}");
                assert_eq!(got.stats, r.stats, "stats, {case}");
                assert_eq!(got_mem, mem, "memory, {case}");
            }
        }
    }
}
