//! Property tests for the simulator's building blocks: the cache model,
//! the memory system, the occupancy calculator, and ALU semantics checked
//! differentially against Rust through tiny kernels.

use gpucmp_ptx::{Address, CmpOp, KernelBuilder, Op2, Operand, Space, Ty};
use gpucmp_sim::{launch, Cache, DeviceSpec, GlobalMemory, LaunchConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_second_pass_over_small_set_hits(
        base in 0u64..1_000_000u64,
        lines in 1u64..8,
    ) {
        // a working set smaller than associativity x sets always fits
        let mut c = Cache::new(64 * 1024, 64, 8);
        for pass in 0..2 {
            for i in 0..lines {
                let r = c.access(base + i * 64);
                if pass == 1 {
                    prop_assert_eq!(r, gpucmp_sim::cache::CacheAccess::Hit);
                }
            }
        }
    }

    #[test]
    fn global_memory_round_trips(
        values in prop::collection::vec(any::<u32>(), 1..256),
        offset_blocks in 0u64..4,
    ) {
        let mut m = GlobalMemory::new(1 << 20);
        let _pad = m.alloc(offset_blocks * 64 + 1).unwrap();
        let p = m.alloc((values.len() * 4) as u64).unwrap();
        m.write_u32_slice(p, &values).unwrap();
        prop_assert_eq!(m.read_u32_slice(p, values.len()).unwrap(), values);
    }

    #[test]
    fn occupancy_is_monotone_in_register_pressure(
        threads_pow in 5u32..9, // 32..256
        r1 in 4u32..60,
        r2 in 4u32..60,
    ) {
        let d = DeviceSpec::gtx480();
        let threads = 1 << threads_pow;
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        let o_lo = d.occupancy(threads, lo, 0);
        let o_hi = d.occupancy(threads, hi, 0);
        prop_assert!(o_hi.warps_per_cu <= o_lo.warps_per_cu,
            "more registers cannot raise occupancy: {lo} regs -> {}, {hi} regs -> {}",
            o_lo.warps_per_cu, o_hi.warps_per_cu);
        prop_assert!(o_lo.occupancy <= 1.0 && o_lo.occupancy > 0.0);
    }

    #[test]
    fn occupancy_is_monotone_in_shared_memory(
        smem1 in 0u32..40_000,
        smem2 in 0u32..40_000,
    ) {
        let d = DeviceSpec::gtx480();
        let (lo, hi) = (smem1.min(smem2), smem1.max(smem2));
        let o_lo = d.occupancy(256, 16, lo);
        let o_hi = d.occupancy(256, 16, hi);
        prop_assert!(o_hi.blocks_per_cu <= o_lo.blocks_per_cu);
    }
}

/// Build a kernel computing `out[i] = a[i] OP b[i]` for a given op/type.
fn binop_kernel(op: Op2, ty: Ty) -> gpucmp_ptx::ResolvedKernel {
    let mut b = KernelBuilder::new("binop");
    b.param("a", Ty::U64);
    b.param("b", Ty::U64);
    b.param("out", Ty::U64);
    let tid = b.special(gpucmp_ptx::Special::TidX);
    let off64 = b.cvt(Ty::U64, Ty::U32, tid);
    let off = b.bin(Op2::Shl, Ty::U64, off64, 2i32);
    let pa = b.ld_param(0, Ty::U64);
    let pb = b.ld_param(1, Ty::U64);
    let po = b.ld_param(2, Ty::U64);
    let aa = b.bin(Op2::Add, Ty::U64, pa, off);
    let ab = b.bin(Op2::Add, Ty::U64, pb, off);
    let ao = b.bin(Op2::Add, Ty::U64, po, off);
    let va = b.ld(Space::Global, ty, Address::base(Operand::Reg(aa)));
    let vb = b.ld(Space::Global, ty, Address::base(Operand::Reg(ab)));
    let r = b.bin(op, ty, va, vb);
    b.st(Space::Global, ty, Address::base(Operand::Reg(ao)), r);
    b.finish().resolve().unwrap()
}

fn run_binop(kernel: &gpucmp_ptx::ResolvedKernel, a: &[u32], b: &[u32]) -> Vec<u32> {
    let device = DeviceSpec::gtx280();
    let mut gmem = GlobalMemory::new(1 << 16);
    let n = a.len();
    let da = gmem.alloc((n * 4) as u64).unwrap();
    let db = gmem.alloc((n * 4) as u64).unwrap();
    let d_o = gmem.alloc((n * 4) as u64).unwrap();
    gmem.write_u32_slice(da, a).unwrap();
    gmem.write_u32_slice(db, b).unwrap();
    let cfg = LaunchConfig::new(1u32, n as u32)
        .arg_ptr(da)
        .arg_ptr(db)
        .arg_ptr(d_o);
    launch(&device, kernel, &mut gmem, &[], &cfg).unwrap();
    gmem.read_u32_slice(d_o, n).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpreter_integer_alu_matches_rust(
        a in prop::collection::vec(any::<u32>(), 32),
        b in prop::collection::vec(any::<u32>(), 32),
    ) {
        for (op, f) in [
            (Op2::Add, u32::wrapping_add as fn(u32, u32) -> u32),
            (Op2::Sub, u32::wrapping_sub),
            (Op2::Mul, u32::wrapping_mul),
            (Op2::Min, |x: u32, y: u32| x.min(y)),
            (Op2::Max, |x: u32, y: u32| x.max(y)),
            (Op2::And, |x: u32, y: u32| x & y),
            (Op2::Or, |x: u32, y: u32| x | y),
            (Op2::Xor, |x: u32, y: u32| x ^ y),
        ] {
            let kernel = binop_kernel(op, Ty::U32);
            let got = run_binop(&kernel, &a, &b);
            let want: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect();
            prop_assert_eq!(&got, &want, "op {:?}", op);
        }
    }

    #[test]
    fn interpreter_f32_alu_matches_rust(
        a in prop::collection::vec(-1e6f32..1e6, 32),
        b in prop::collection::vec(-1e6f32..1e6, 32),
    ) {
        for (op, f) in [
            (Op2::Add, (|x: f32, y: f32| x + y) as fn(f32, f32) -> f32),
            (Op2::Sub, |x: f32, y: f32| x - y),
            (Op2::Mul, |x: f32, y: f32| x * y),
            (Op2::Div, |x: f32, y: f32| x / y),
            (Op2::Min, |x: f32, y: f32| x.min(y)),
            (Op2::Max, |x: f32, y: f32| x.max(y)),
        ] {
            let kernel = binop_kernel(op, Ty::F32);
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            let got = run_binop(&kernel, &ab, &bb);
            let want: Vec<u32> = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| f(x, y).to_bits())
                .collect();
            prop_assert_eq!(&got, &want, "op {:?}", op);
        }
    }

    #[test]
    fn signed_comparisons_match_rust(
        a in prop::collection::vec(any::<i32>(), 32),
        b in prop::collection::vec(any::<i32>(), 32),
    ) {
        // via setp+selp: out = (a < b) ? 1 : 0
        let mut kb = KernelBuilder::new("cmp");
        kb.param("a", Ty::U64);
        kb.param("b", Ty::U64);
        kb.param("out", Ty::U64);
        let tid = kb.special(gpucmp_ptx::Special::TidX);
        let off64 = kb.cvt(Ty::U64, Ty::U32, tid);
        let off = kb.bin(Op2::Shl, Ty::U64, off64, 2i32);
        let pa = kb.ld_param(0, Ty::U64);
        let pb = kb.ld_param(1, Ty::U64);
        let po = kb.ld_param(2, Ty::U64);
        let aa = kb.bin(Op2::Add, Ty::U64, pa, off);
        let ab = kb.bin(Op2::Add, Ty::U64, pb, off);
        let ao = kb.bin(Op2::Add, Ty::U64, po, off);
        let va = kb.ld(Space::Global, Ty::S32, Address::base(Operand::Reg(aa)));
        let vb = kb.ld(Space::Global, Ty::S32, Address::base(Operand::Reg(ab)));
        let p = kb.setp(CmpOp::Lt, Ty::S32, va, vb);
        let sel = kb.selp(Ty::S32, 1i32, 0i32, p);
        kb.st(Space::Global, Ty::S32, Address::base(Operand::Reg(ao)), sel);
        let kernel = kb.finish().resolve().unwrap();
        let ab_: Vec<u32> = a.iter().map(|&v| v as u32).collect();
        let bb_: Vec<u32> = b.iter().map(|&v| v as u32).collect();
        let got = run_binop(&kernel, &ab_, &bb_);
        let want: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| (x < y) as u32).collect();
        prop_assert_eq!(&got, &want);
    }
}
