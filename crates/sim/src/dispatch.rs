//! The warp-wide dispatch loop over the pre-decoded IR: the decoded tier.
//!
//! [`BlockExec::run_warp_decoded`] mirrors the reference interpreter's
//! `run_warp` step for step, but over a [`DecodedKernel`]: no label
//! skipping (labels are stripped at decode), no per-instruction cost-table
//! lookup (costs are baked into the IR), no operand matching (register
//! slots and immediates are pre-resolved), and branch targets land directly
//! on decoded indices. Warp `pc` values are *decoded* indices here; fault
//! sites report the original `pc` via [`DecodedInst::orig_pc`], so
//! [`crate::error::FaultSite`]s are identical across tiers.
//!
//! Each instruction is dispatched once per warp, not once per lane. A
//! scalar op fetches each source as a lane slice of the slot-major register
//! file (immediates and warp-uniform specials broadcast, `%tid.*` walked
//! from the warp's first thread), runs one loop over the lanes, and
//! writes the result back under the active mask. Lanes are independent, so
//! this equals the interpreter's lane-by-lane order. The one fallible
//! scalar op, integer div/rem, runs lane by lane over the active lanes so
//! the first faulting lane is the one reported. Integer ops specialise per
//! (op, type) into tight lane loops. So do the common float ops (add, sub,
//! mul, div, neg, abs, sqrt, rsqrt, rcp, mad/fma; mad/fma on the CPU's
//! fused multiply-add when it has one); any lane that comes out NaN is
//! recomputed by the one out-of-line ALU body the interpreter also calls,
//! so NaN bits cannot depend on lane position or warp width (see
//! `crate::alu`). The remaining float ops call that body lane by lane.
//! Memory ops share their handlers with the interpreter; global and shared
//! accesses that no lane can fault run warp-wide (see `exec_ld`).

use crate::alu::{
    alu1_float, alu1_int, alu2, alu2_float, alu2_int, alu3_float, alu3_int, bf32, bf64, bin_f32,
    bin_f64, compare, convert, convert_num, f32b, f64b, load_extend, un_f32, un_f64, with_cmp,
    with_const, with_ty,
};
use crate::decode::{DOp, DecodedInst, DecodedKernel};
use crate::error::FaultKind;
use crate::exec::{lanes_of, BlockExec, Frame, LaneBufs, WarpLanes, WarpStatus};
use crate::launch::Dim3;
use gpucmp_ptx::{Op1, Op2, Ty};

impl<'a> BlockExec<'a> {
    /// Run one warp of the decoded tier until it blocks on a barrier or
    /// returns. Mirrors `run_warp` exactly; see module docs.
    pub(crate) fn run_warp_decoded(
        &mut self,
        w: usize,
        ctaid: Dim3,
        code: &DecodedKernel,
    ) -> Result<(), FaultKind> {
        loop {
            let pc = self.warps[w].pc;
            let di: &DecodedInst = &code.body[pc];
            self.cur_pc = di.orig_pc as usize;
            self.cur_tid = self.warps[w].base_tid;
            if self.budget == 0 {
                return Err(FaultKind::Watchdog {
                    budget: self.budget_limit,
                });
            }
            self.budget -= 1;
            let lanes = self.warps[w].active.count_ones() as u64;
            self.stats.warp_instructions += 1;
            self.stats.lane_instructions += lanes;
            self.stats.issue_millicycles += di.cost;
            self.stats.flops += di.flops * lanes;

            match di.op {
                DOp::Ssy => {
                    let active = self.warps[w].active;
                    self.warps[w].stack.push(Frame {
                        restore_mask: active,
                        pending: None,
                    });
                    self.warps[w].pc += 1;
                }
                DOp::Sync => {
                    let warp = &mut self.warps[w];
                    let frame = warp
                        .stack
                        .last_mut()
                        .ok_or(FaultKind::Divergence("sync without ssy frame"))?;
                    if let Some((ppc, pmask)) = frame.pending.take() {
                        warp.active = pmask;
                        warp.pc = ppc;
                    } else {
                        warp.active = frame.restore_mask;
                        warp.stack.pop();
                        warp.pc += 1;
                    }
                }
                DOp::Bra { target, pred } => {
                    let t = target as usize;
                    let refill = code.branch_refill_millicycles;
                    match pred {
                        None => {
                            self.warps[w].pc = t;
                            self.stats.issue_millicycles += refill;
                        }
                        Some((p, polarity)) => {
                            let taken = self.pred_mask_slot(self.warp_lanes(w, ctaid), p, polarity);
                            let warp = &mut self.warps[w];
                            let active = warp.active;
                            if taken == active {
                                warp.pc = t;
                                self.stats.issue_millicycles += refill;
                            } else if taken == 0 {
                                warp.pc += 1;
                            } else {
                                self.stats.divergent_branches += 1;
                                let frame = warp
                                    .stack
                                    .last_mut()
                                    .ok_or(FaultKind::Divergence("divergent branch without ssy"))?;
                                self.stats.issue_millicycles += refill;
                                match &mut frame.pending {
                                    None => frame.pending = Some((t, taken)),
                                    Some((ppc, pmask)) if *ppc == t => {
                                        *pmask |= taken;
                                    }
                                    Some(_) => {
                                        return Err(FaultKind::Divergence(
                                            "conflicting divergence targets in one region",
                                        ))
                                    }
                                }
                                warp.active = active & !taken;
                                warp.pc += 1;
                            }
                        }
                    }
                }
                DOp::Bar => {
                    let warp = &mut self.warps[w];
                    if warp.active != warp.full {
                        return Err(FaultKind::Divergence("barrier reached by divergent warp"));
                    }
                    self.stats.barriers += 1;
                    self.stats.issue_millicycles += code.barrier_cost_millicycles;
                    warp.status = WarpStatus::AtBarrier;
                    return Ok(()); // pc advanced at release
                }
                DOp::Ret => {
                    let warp = &mut self.warps[w];
                    if !warp.stack.is_empty() {
                        return Err(FaultKind::Divergence("ret inside ssy region"));
                    }
                    warp.status = WarpStatus::Done;
                    return Ok(());
                }
                DOp::Ld { space, ty, d, addr } => {
                    self.exec_ld(w, ctaid, space, ty, d, addr)?;
                    self.warps[w].pc += 1;
                }
                DOp::St { space, ty, addr, a } => {
                    self.exec_st(w, ctaid, space, ty, addr, a)?;
                    self.warps[w].pc += 1;
                }
                DOp::Tex { ty, d, tex, idx } => {
                    self.exec_tex(w, ctaid, ty, d, tex, idx)?;
                    self.warps[w].pc += 1;
                }
                DOp::Atom {
                    space,
                    op,
                    ty,
                    d,
                    addr,
                    b,
                    c,
                } => {
                    self.exec_atom(w, ctaid, space, op, ty, d, addr, b, c)?;
                    self.warps[w].pc += 1;
                }
                ref op => {
                    let v = self.warp_lanes(w, ctaid);
                    self.exec_warp(v, op)?;
                    self.warps[w].pc += 1;
                }
            }
        }
    }

    /// Execute a scalar op for every active lane of warp `v` in one
    /// dispatch: fetch the sources as lane slices, run one lane loop into
    /// `bufs.out`, write back under the active mask.
    fn exec_warp(&mut self, v: WarpLanes, op: &DOp) -> Result<(), FaultKind> {
        let file = &self.file;
        let LaneBufs {
            a: ba,
            b: bb,
            c: bc,
            out,
        } = &mut self.bufs;
        let o = &mut out[..v.n];
        let d = match *op {
            DOp::Mov { ty, d, a } => {
                let a = file.fetch(v, a, ba);
                with_ty!(ty, T => map1(o, a, |x| load_extend(x, T)));
                d
            }
            DOp::Cvt { dty, sty, d, a } => {
                let a = file.fetch(v, a, ba);
                if sty.is_float() || dty.is_float() {
                    for i in lanes_of(v.active) {
                        o[i] = convert(a[i], sty, dty);
                    }
                } else {
                    with_ty!(dty, D => map1(o, a, |x| convert_num(x, sty, D)));
                }
                d
            }
            DOp::Un { op, ty, d, a } => {
                let a = file.fetch(v, a, ba);
                if float_un_lanes(op, ty, o, a) {
                    redo_nans(ty, v.active, o, |i| alu1_float(op, ty, a[i]));
                } else if ty.is_float() {
                    for i in lanes_of(v.active) {
                        o[i] = alu1_float(op, ty, a[i]);
                    }
                } else {
                    map1(o, a, |x| alu1_int(op, ty, x));
                }
                d
            }
            DOp::Bin { op, ty, d, a, b } => {
                let (a, b) = (file.fetch(v, a, ba), file.fetch(v, b, bb));
                if float_bin_lanes(op, ty, o, a, b) {
                    redo_nans(ty, v.active, o, |i| alu2_float(op, ty, a[i], b[i]));
                } else if !int_bin_lanes(op, ty, o, a, b) {
                    // The other float ops (the shared out-of-line body),
                    // integer div/rem and narrow types: lane by lane over
                    // the active lanes, so the first faulting lane is the
                    // one reported.
                    for i in lanes_of(v.active) {
                        match alu2(op, ty, a[i], b[i]) {
                            Ok(r) => o[i] = r,
                            Err(k) => {
                                self.cur_tid = (v.base + i) as u32;
                                return Err(k);
                            }
                        }
                    }
                }
                d
            }
            DOp::Tern { op, ty, d, a, b, c } => {
                let (a, b, c) = (
                    file.fetch(v, a, ba),
                    file.fetch(v, b, bb),
                    file.fetch(v, c, bc),
                );
                if ty.is_float() {
                    // mad and fma are one fused multiply-add (`alu3_float`).
                    fma_lanes(ty, o, a, b, c);
                    redo_nans(ty, v.active, o, |i| alu3_float(op, ty, a[i], b[i], c[i]));
                } else {
                    with_ty!(ty, T => {
                        for (((o, &x), &y), &z) in o.iter_mut().zip(a).zip(b).zip(c) {
                            *o = alu3_int(T, x, y, z);
                        }
                    });
                }
                d
            }
            DOp::Setp { cmp, ty, d, a, b } => {
                let (a, b) = (file.fetch(v, a, ba), file.fetch(v, b, bb));
                with_cmp!(cmp, C => with_ty!(ty, T => map2(o, a, b, |x, y| compare(C, T, x, y) as u64)));
                d
            }
            DOp::Selp { ty, d, a, b, p } => {
                let (a, b) = (file.fetch(v, a, ba), file.fetch(v, b, bb));
                let p = file.lanes(p, v);
                for (((o, &x), &y), &q) in o.iter_mut().zip(a).zip(b).zip(p) {
                    *o = load_extend(if q != 0 { x } else { y }, ty);
                }
                d
            }
            _ => unreachable!("exec_warp on non-scalar op"),
        };
        self.file.write_back(d, v, &self.bufs.out);
        Ok(())
    }

    /// Mask of active lanes whose predicate register slot equals `polarity`.
    fn pred_mask_slot(&self, v: WarpLanes, slot: u32, polarity: bool) -> u64 {
        let mut mask = 0u64;
        for (lane, &p) in self.file.lanes(slot, v).iter().enumerate() {
            mask |= (((p != 0) == polarity) as u64) << lane;
        }
        mask & v.active
    }
}

#[inline(always)]
fn map1(out: &mut [u64], a: &[u64], f: impl Fn(u64) -> u64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

#[inline(always)]
fn map2(out: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// Integer binary op over whole lane slices, specialised per (op, type):
/// each arm inlines [`alu2_int`] with constant arguments into a loop with
/// no dispatch, so it agrees with the interpreter by construction. Returns
/// `false`, computing nothing, for the combinations it leaves to the
/// per-lane path: float types, div/rem (fallible) and the narrow types.
fn int_bin_lanes(op: Op2, ty: Ty, out: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    with_const!(op, O: Op2 [Add Sub Mul Min Max And Or Xor Shl Shr] => with_const!(
        ty, T: Ty [S32 U32 B32 S64 U64 B64] => map2(out, a, b, |x, y| int2(O, T, x, y)),
        _ => return false
    ), _ => return false);
    true
}

/// Float unary op over whole lane slices, specialised per (op, type) on
/// the arithmetic of [`un_f32`] / [`un_f64`]. Returns `false`, computing
/// nothing, for integer types and for the ops it leaves to the
/// out-of-line body (`not` and the library calls sin, cos, ex2, lg2).
fn float_un_lanes(op: Op1, ty: Ty, out: &mut [u64], a: &[u64]) -> bool {
    match ty {
        Ty::F32 => with_const!(op, O: Op1 [Neg Abs Sqrt Rsqrt Rcp] =>
            map1(out, a, |x| bf32(un_f32(O, f32b(x)))), _ => return false),
        Ty::F64 => with_const!(op, O: Op1 [Neg Abs Sqrt Rsqrt Rcp] =>
            map1(out, a, |x| bf64(un_f64(O, f64b(x)))), _ => return false),
        _ => return false,
    }
    true
}

/// Float binary op over whole lane slices, specialised per (op, type) on
/// the arithmetic of [`bin_f32`] / [`bin_f64`]. Returns `false`, computing
/// nothing, for integer types and for the ops it leaves to the
/// out-of-line body (min, max, rem and bitwise ops).
fn float_bin_lanes(op: Op2, ty: Ty, out: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    match ty {
        Ty::F32 => with_const!(op, O: Op2 [Add Sub Mul Div] =>
            map2(out, a, b, |x, y| bf32(bin_f32(O, f32b(x), f32b(y)))), _ => return false),
        Ty::F64 => with_const!(op, O: Op2 [Add Sub Mul Div] =>
            map2(out, a, b, |x, y| bf64(bin_f64(O, f64b(x), f64b(y)))), _ => return false),
        _ => return false,
    }
    true
}

/// Fused multiply-add over whole lane slices of f32 or f64: on the CPU's
/// FMA unit when it has one, through `mul_add` otherwise. Both round once,
/// so they agree with [`alu3_float`] on every lane that is not NaN.
fn fma_lanes(ty: Ty, out: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("fma") {
        // SAFETY: `fma_lanes_hw` needs the `fma` target feature, and
        // `is_x86_feature_detected!("fma")` just confirmed that this CPU
        // (and its OS) support it.
        return unsafe { fma_lanes_hw(ty, out, a, b, c) };
    }
    fma_lanes_body(ty, out, a, b, c);
}

/// [`fma_lanes_body`] compiled for the CPU's FMA unit, so `mul_add` is one
/// instruction instead of a call to the runtime's `fmaf`.
///
/// # Safety
///
/// The CPU must support the `fma` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn fma_lanes_hw(ty: Ty, out: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
    fma_lanes_body(ty, out, a, b, c);
}

/// The fused multiply-add lane loop itself.
#[inline(always)]
fn fma_lanes_body(ty: Ty, out: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
    let lanes = out.iter_mut().zip(a).zip(b).zip(c);
    match ty {
        Ty::F32 => {
            for (((o, &x), &y), &z) in lanes {
                *o = bf32(f32b(x).mul_add(f32b(y), f32b(z)));
            }
        }
        Ty::F64 => {
            for (((o, &x), &y), &z) in lanes {
                *o = bf64(f64b(x).mul_add(f64b(y), f64b(z)));
            }
        }
        _ => unreachable!("fma_lanes on {ty:?}"),
    }
}

/// After an inlined float lane loop: if any lane of `out` holds a NaN (one
/// branch-free pass), recompute every active NaN lane `i` as `body(i)`,
/// the out-of-line body, so NaN bits come from it alone. Non-NaN results
/// need no second look: IEEE 754 fixes them bit for bit.
#[inline(always)]
fn redo_nans(ty: Ty, active: u64, out: &mut [u64], body: impl Fn(usize) -> u64) {
    let is_nan = |x: u64| match ty {
        Ty::F32 => f32b(x).is_nan(),
        _ => f64b(x).is_nan(),
    };
    let any = match ty {
        Ty::F32 => out.iter().fold(false, |any, &x| any | f32b(x).is_nan()),
        _ => out.iter().fold(false, |any, &x| any | f64b(x).is_nan()),
    };
    if any {
        for i in lanes_of(active) {
            if is_nan(out[i]) {
                out[i] = body(i);
            }
        }
    }
}

/// [`alu2_int`] for an op that cannot fault (anything but div/rem).
#[inline(always)]
fn int2(op: Op2, ty: Ty, a: u64, b: u64) -> u64 {
    match alu2_int(op, ty, a, b) {
        Ok(r) => r,
        Err(_) => unreachable!("{op:?} cannot fault"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::float_bits;

    #[test]
    fn specialised_int_lanes_agree_with_alu2() {
        let values = [
            0u64,
            1,
            2,
            3,
            31,
            32,
            33,
            63,
            64,
            127,
            128,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
            0x1_0000_0000,
            0x8000_0000_0000_0000,
            u64::MAX,
            0xdead_beef_cafe_f00d,
        ];
        let (a, b): (Vec<u64>, Vec<u64>) = values
            .iter()
            .flat_map(|&x| values.iter().map(move |&y| (x, y)))
            .unzip();
        let ops = [
            Op2::Add,
            Op2::Sub,
            Op2::Mul,
            Op2::Min,
            Op2::Max,
            Op2::And,
            Op2::Or,
            Op2::Xor,
            Op2::Shl,
            Op2::Shr,
            Op2::Div,
            Op2::Rem,
        ];
        let tys = [
            Ty::S32,
            Ty::U32,
            Ty::B32,
            Ty::S64,
            Ty::U64,
            Ty::B64,
            Ty::F32,
        ];
        let mut out = vec![0u64; a.len()];
        let mut covered = 0;
        for op in ops {
            for ty in tys {
                for chunk in 0..a.len().div_ceil(64) {
                    let r = chunk * 64..(chunk * 64 + 64).min(a.len());
                    if !int_bin_lanes(op, ty, &mut out[r.clone()], &a[r.clone()], &b[r.clone()]) {
                        continue;
                    }
                    covered += 1;
                    for i in r {
                        assert_eq!(
                            Ok(out[i]),
                            alu2(op, ty, a[i], b[i]),
                            "{op:?}.{ty:?} {:#x} {:#x}",
                            a[i],
                            b[i]
                        );
                    }
                }
            }
        }
        // Ten ops over six integer types, none for floats or div/rem.
        assert_eq!(covered, 10 * 6 * a.len().div_ceil(64));
    }

    /// Register images of f32 and f64 edge values: signed zeros and
    /// infinities, the largest finite values, operands whose product
    /// overflows before an add, quiet and signalling NaNs of both signs
    /// with distinct payloads, subnormals, 1-ulp neighbours of one, and
    /// (f32) stray high register bits.
    fn float_edges(ty: Ty) -> Vec<u64> {
        let common = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
            2.0,
            3.0,
            0.1,
            10.0,
        ];
        let mut v: Vec<u64> = common.iter().map(|&x| float_bits(ty, x)).collect();
        v.extend(match ty {
            Ty::F32 => vec![
                bf32(f32::MAX),
                bf32(-f32::MAX),
                bf32(f32::MIN_POSITIVE),
                bf32(1e30),
                0x7fc0_0001,
                0xffc0_0002,
                0x7f80_0003,
                0xff80_0004,
                0x0000_0001,
                0x8000_0001,
                0x007f_ffff,
                0x3f80_0001,
                0x3f7f_ffff,
                0xdead_beef_3f80_0000,
            ],
            _ => vec![
                bf64(f64::MAX),
                bf64(-f64::MAX),
                bf64(f64::MIN_POSITIVE),
                bf64(1e300),
                0x7ff8_0000_0000_0001,
                0xfff8_0000_0000_0002,
                0x7ff0_0000_0000_0003,
                0xfff0_0000_0000_0004,
                0x0000_0000_0000_0001,
                0x8000_0000_0000_0001,
                0x000f_ffff_ffff_ffff,
                0x3ff0_0000_0000_0001,
                0x3fef_ffff_ffff_ffff,
            ],
        });
        v
    }

    /// Every `arity`-tuple of the edge values of `ty`.
    fn edge_tuples(ty: Ty, arity: usize) -> Vec<[u64; 3]> {
        let v = float_edges(ty);
        let mut out = vec![[0u64; 3]];
        for k in 0..arity {
            out = out
                .iter()
                .flat_map(|t| {
                    v.iter().map(move |&x| {
                        let mut t = *t;
                        t[k] = x;
                        t
                    })
                })
                .collect();
        }
        out
    }

    /// Run `lanes` over `tuples` at every lane count from 1 to 64, under
    /// a full and a sparse mask, and require every active lane to equal
    /// `body`, bit for bit.
    fn check_float_lanes(
        what: &str,
        tuples: &[[u64; 3]],
        lanes: impl Fn(&mut [u64], [&[u64]; 3], u64),
        body: impl Fn([u64; 3]) -> u64,
    ) {
        for n in 1..=64usize {
            let full = u64::MAX >> (64 - n);
            for mask in [full, full & 0x9249_2492_4924_9249 | 1 << (n - 1)] {
                for chunk in tuples.chunks(n) {
                    let col = |k: usize| -> Vec<u64> {
                        (0..n).map(|i| chunk[i % chunk.len()][k]).collect()
                    };
                    let (a, b, c) = (col(0), col(1), col(2));
                    let mut out = vec![0x5a5a_5a5a_5a5a_5a5a; n];
                    lanes(&mut out, [&a, &b, &c], mask);
                    for i in lanes_of(mask) {
                        let want = body([a[i], b[i], c[i]]);
                        assert_eq!(
                            out[i], want,
                            "{what} lane {i} of {n}, inputs {:#x} {:#x} {:#x}",
                            a[i], b[i], c[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inline_float_lanes_agree_with_the_out_of_line_bodies() {
        use gpucmp_ptx::Op3;
        for ty in [Ty::F32, Ty::F64] {
            let (t1, t2, t3) = (edge_tuples(ty, 1), edge_tuples(ty, 2), edge_tuples(ty, 3));
            for op in [Op1::Neg, Op1::Abs, Op1::Sqrt, Op1::Rsqrt, Op1::Rcp] {
                check_float_lanes(
                    &format!("{op:?}.{ty:?}"),
                    &t1,
                    |out, [a, ..], mask| {
                        assert!(float_un_lanes(op, ty, out, a));
                        redo_nans(ty, mask, out, |i| alu1_float(op, ty, a[i]));
                    },
                    |[x, ..]| alu1_float(op, ty, x),
                );
            }
            for op in [Op2::Add, Op2::Sub, Op2::Mul, Op2::Div] {
                check_float_lanes(
                    &format!("{op:?}.{ty:?}"),
                    &t2,
                    |out, [a, b, _], mask| {
                        assert!(float_bin_lanes(op, ty, out, a, b));
                        redo_nans(ty, mask, out, |i| alu2_float(op, ty, a[i], b[i]));
                    },
                    |[x, y, _]| alu2_float(op, ty, x, y),
                );
            }
            for op in [Op3::Mad, Op3::Fma] {
                check_float_lanes(
                    &format!("{op:?}.{ty:?}"),
                    &t3,
                    |out, [a, b, c], mask| {
                        fma_lanes(ty, out, a, b, c);
                        redo_nans(ty, mask, out, |i| alu3_float(op, ty, a[i], b[i], c[i]));
                    },
                    |[x, y, z]| alu3_float(op, ty, x, y, z),
                );
            }
            // The ops left out of line are refused, computing nothing.
            let mut out = [0u64; 4];
            assert!(!float_un_lanes(Op1::Sin, ty, &mut out, &[0; 4]));
            assert!(!float_bin_lanes(Op2::Min, ty, &mut out, &[0; 4], &[0; 4]));
            assert!(!float_bin_lanes(
                Op2::Add,
                Ty::S32,
                &mut out,
                &[0; 4],
                &[0; 4]
            ));
            assert_eq!(out, [0; 4]);
        }
    }

    #[test]
    fn hardware_fma_lanes_agree_with_mul_add() {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("fma") {
            for ty in [Ty::F32, Ty::F64] {
                let t = edge_tuples(ty, 3);
                let col = |k: usize| -> Vec<u64> { t.iter().map(|x| x[k]).collect() };
                let (a, b, c) = (col(0), col(1), col(2));
                let (mut hw, mut soft) = (vec![0; t.len()], vec![0; t.len()]);
                // SAFETY: the CPU supports `fma`, checked just above.
                unsafe { fma_lanes_hw(ty, &mut hw, &a, &b, &c) };
                fma_lanes_body(ty, &mut soft, &a, &b, &c);
                let nan = |x: u64| match ty {
                    Ty::F32 => f32b(x).is_nan(),
                    _ => f64b(x).is_nan(),
                };
                for i in 0..t.len() {
                    // Both round once: equal bits, or NaN on both sides.
                    assert!(
                        hw[i] == soft[i] || (nan(hw[i]) && nan(soft[i])),
                        "{ty:?} {:#x} {:#x} {:#x}: {:#x} vs {:#x}",
                        a[i],
                        b[i],
                        c[i],
                        hw[i],
                        soft[i]
                    );
                }
            }
        }
    }
}
