//! What a launch with global atomics keeps from running its blocks
//! serially, in ascending order, instead of against per-block snapshots:
//! each block reads the earlier blocks' writes, a fault leaves every write
//! made before it in memory, and the memcheck record cap spans the launch.
//! The same kernels without the atomic show the per-block behaviour. The
//! instruction budget spans the launch on both paths, and its watchdog
//! fires at the same site on both. Every case runs on both tiers at 1 and
//! 8 host threads.

use gpucmp_ptx::{
    Address, AtomOp, CmpOp, KernelBuilder, Op2, Operand, Reg, ResolvedKernel, Space, Special, Ty,
};
use gpucmp_sim::{
    launch_with, DevPtr, DeviceSpec, ExecOptions, ExecTier, FaultKind, GlobalMemory, LaunchConfig,
    LaunchReport, SimError,
};

/// Every execution setting the serial path must behave the same under.
fn settings() -> impl Iterator<Item = ExecOptions> {
    [ExecTier::Interp, ExecTier::Decoded]
        .into_iter()
        .flat_map(|tier| [1, 8].map(|t| ExecOptions::with_threads(t).tier(tier)))
}

/// The address `p + offset`.
fn at(p: Reg, offset: i64) -> Address {
    Address {
        base: Operand::Reg(p),
        offset,
    }
}

/// Finish `b`; with `atomic`, first add a global `atom.add` of 1 at byte
/// 128 of buffer `p`, run by every thread.
fn finish(mut b: KernelBuilder, p: Reg, atomic: bool) -> ResolvedKernel {
    if atomic {
        b.atom(Space::Global, AtomOp::Add, Ty::U32, at(p, 128), 1i32);
    }
    b.finish().resolve().unwrap()
}

/// Launch `kernel` over a fresh 64 KiB memory holding one zeroed 256-byte
/// buffer, and return the result and the buffer's first words.
fn run(
    kernel: &ResolvedKernel,
    cfg: impl Fn(DevPtr) -> LaunchConfig,
    opts: &ExecOptions,
) -> (Result<LaunchReport, SimError>, Vec<u32>) {
    let device = DeviceSpec::gtx480();
    let mut gmem = GlobalMemory::new(1 << 16);
    let p = gmem.alloc(256).unwrap();
    let r = launch_with(&device, kernel, &mut gmem, &[], &cfg(p), opts);
    (r, gmem.read_u32_slice(p, 33).unwrap())
}

#[test]
fn blocks_read_the_earlier_blocks_writes_in_order() {
    // Thread 0 of each block stores p[0] + 1.
    let kernel = |atomic| {
        let mut b = KernelBuilder::new("increment");
        b.param("p", Ty::U64);
        let p = b.ld_param(0, Ty::U64);
        let tid = b.special(Special::TidX);
        let not_first = b.setp(CmpOp::Ne, Ty::U32, tid, 0i32);
        let end = b.new_label();
        b.ssy(end);
        b.bra_if(end, not_first, true);
        let x = b.ld(Space::Global, Ty::U32, at(p, 0));
        let y = b.bin(Op2::Add, Ty::U32, x, 1i32);
        b.st(Space::Global, Ty::U32, at(p, 0), y);
        b.place_label(end);
        b.sync();
        finish(b, p, atomic)
    };
    for opts in settings() {
        for (atomic, want) in [(true, 8), (false, 1)] {
            let (r, mem) = run(
                &kernel(atomic),
                |p| LaunchConfig::new(8u32, 32u32).arg_ptr(p),
                &opts,
            );
            r.unwrap();
            assert_eq!(mem[0], want, "atomic {atomic} {opts:?}");
            assert_eq!(mem[32], if atomic { 8 * 32 } else { 0 });
        }
    }
}

#[test]
fn a_fault_leaves_every_earlier_write_in_memory() {
    // Block b stores p[b] = b + 1, then stores at p + 64 + (b << 20): in
    // bounds for block 0, past the 64 KiB memory for block 1.
    let kernel = |atomic| {
        let mut b = KernelBuilder::new("store_then_fault");
        b.param("p", Ty::U64);
        let p = b.ld_param(0, Ty::U64);
        let ctaid = b.special(Special::CtaidX);
        let c64 = b.cvt(Ty::U64, Ty::U32, ctaid);
        let off = b.bin(Op2::Shl, Ty::U64, c64, 2i32);
        let mine = b.bin(Op2::Add, Ty::U64, p, off);
        let v = b.bin(Op2::Add, Ty::U32, ctaid, 1i32);
        b.st(Space::Global, Ty::U32, at(mine, 0), v);
        let far = b.bin(Op2::Shl, Ty::U64, c64, 20i32);
        let far = b.bin(Op2::Add, Ty::U64, p, far);
        b.st(Space::Global, Ty::U32, at(far, 64), 7i32);
        finish(b, p, atomic)
    };
    for opts in settings() {
        for (atomic, block1) in [(true, 2), (false, 0)] {
            let (r, mem) = run(
                &kernel(atomic),
                |p| LaunchConfig::new(2u32, 1u32).arg_ptr(p),
                &opts,
            );
            let fault = r.unwrap_err().fault().cloned().expect("device fault");
            assert!(
                matches!(fault.kind, FaultKind::OutOfBounds { .. }),
                "{fault}"
            );
            assert_eq!(fault.site.unwrap().block, [1, 0, 0]);
            assert_eq!((mem[0], mem[16]), (1, 7), "block 0's stores");
            assert_eq!(mem[1], block1, "block 1's store, atomic {atomic} {opts:?}");
        }
    }
}

#[test]
fn the_instruction_budget_spans_the_launch() {
    let kernel = |atomic| {
        let mut b = KernelBuilder::new("straight_line");
        b.param("p", Ty::U64);
        let p = b.ld_param(0, Ty::U64);
        let tid = b.special(Special::TidX);
        let x = b.bin(Op2::Mul, Ty::U32, tid, 3i32);
        let y = b.bin(Op2::Add, Ty::U32, x, 5i32);
        b.bin(Op2::Xor, Ty::U32, y, x);
        finish(b, p, atomic)
    };
    let blocks = 4u32;
    let cfg = |budget| {
        move |p| {
            LaunchConfig::new(blocks, 32u32)
                .arg_ptr(p)
                .with_inst_budget(budget)
        }
    };
    for opts in settings() {
        // n warp instructions per one-warp block; a budget of 2n lies
        // between n and blocks * n.
        let (r, _) = run(&kernel(true), cfg(u64::MAX), &opts);
        let n = r.unwrap().stats.warp_instructions / blocks as u64;
        let budget = 2 * n;
        for atomic in [true, false] {
            let (r, _) = run(&kernel(atomic), cfg(budget), &opts);
            let fault = r.unwrap_err().fault().cloned().expect("device fault");
            assert_eq!(
                fault.kind,
                FaultKind::Watchdog { budget },
                "atomic {atomic} {opts:?}"
            );
        }
    }
}

#[test]
fn the_watchdog_fires_at_the_same_site_on_both_paths() {
    // Two-warp blocks of straight-line code, and an atomic behind a branch
    // every thread takes: global, it sends the launch down the serial
    // path; shared, down the parallel one. Both run the same instructions.
    // With `oob`, blocks 2 and 3 end with a store past the end of memory.
    let kernel = |space, oob: bool| {
        let mut b = KernelBuilder::new("skipped_atomic");
        b.param("p", Ty::U64);
        let p = b.ld_param(0, Ty::U64);
        let tid = b.special(Special::TidX);
        let x = b.bin(Op2::Mul, Ty::U32, tid, 3i32);
        let y = b.bin(Op2::Add, Ty::U32, x, 5i32);
        let z = b.bin(Op2::Xor, Ty::U32, y, x);
        if oob {
            let ctaid = b.special(Special::CtaidX);
            let c64 = b.cvt(Ty::U64, Ty::U32, ctaid);
            let half = b.bin(Op2::Shr, Ty::U64, c64, 1i32);
            let far = b.bin(Op2::Shl, Ty::U64, half, 20i32);
            let a = b.bin(Op2::Add, Ty::U64, p, far);
            b.st(Space::Global, Ty::U32, at(a, 0), z);
        }
        let never = b.setp(CmpOp::Lt, Ty::U32, tid, 0i32);
        let end = b.new_label();
        b.ssy(end);
        b.bra_if(end, never, false);
        b.atom(space, AtomOp::Add, Ty::U32, at(p, 128), 1i32);
        b.place_label(end);
        b.sync();
        b.finish().resolve().unwrap()
    };
    let cfg = |blocks: u32, budget| {
        move |p| {
            LaunchConfig::new(blocks, 64u32)
                .arg_ptr(p)
                .with_inst_budget(budget)
        }
    };
    for oob in [false, true] {
        // n warp instructions per block, from blocks 0 and 1 (in bounds).
        let (r, _) = run(
            &kernel(Space::Global, oob),
            cfg(2, u64::MAX),
            &ExecOptions::serial(),
        );
        let n = r.unwrap().stats.warp_instructions / 2;
        // Blocks 0 and 1 fit. Block 2 runs out three instructions into its
        // second warp (warps run to completion in turn: no barrier), or,
        // with `oob`, into its first warp, before the store it faults at
        // when given the whole budget.
        let (budget, thread) = if oob {
            (2 * n + 3, [0, 0, 0])
        } else {
            (2 * n + n / 2 + 3, [32, 0, 0])
        };
        let mut sites = Vec::new();
        for space in [Space::Global, Space::Shared] {
            for opts in settings() {
                let (r, _) = run(&kernel(space, oob), cfg(4, budget), &opts);
                let fault = r.unwrap_err().fault().cloned().expect("device fault");
                assert_eq!(
                    fault.kind,
                    FaultKind::Watchdog { budget },
                    "oob {oob} {opts:?}"
                );
                sites.push((fault.site.expect("watchdog site"), space, opts));
            }
        }
        let (first, ..) = sites[0];
        assert_eq!(
            (first.block, first.thread),
            ([2, 0, 0], thread),
            "oob {oob}"
        );
        for (site, space, opts) in &sites {
            assert_eq!(*site, first, "oob {oob} {space:?} {opts:?}");
        }
    }
}

#[test]
fn memcheck_records_are_capped_per_launch() {
    // Every thread stores past the end of memory: 128 faults per block.
    let kernel = |atomic| {
        let mut b = KernelBuilder::new("stray_stores");
        b.param("p", Ty::U64);
        let p = b.ld_param(0, Ty::U64);
        let tid = b.special(Special::TidX);
        let t64 = b.cvt(Ty::U64, Ty::U32, tid);
        let off = b.bin(Op2::Shl, Ty::U64, t64, 2i32);
        let a = b.bin(Op2::Add, Ty::U64, p, off);
        b.st(Space::Global, Ty::U32, at(a, 1 << 20), 1i32);
        finish(b, p, atomic)
    };
    for opts in settings() {
        let opts = opts.memcheck(true);
        // 256 for the launch, or 64 for each of the 3 blocks.
        for (atomic, want) in [(true, 256), (false, 3 * 64)] {
            let (r, _) = run(
                &kernel(atomic),
                |p| LaunchConfig::new(3u32, 128u32).arg_ptr(p),
                &opts,
            );
            assert_eq!(r.unwrap().faults.len(), want, "atomic {atomic} {opts:?}");
        }
    }
}
