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
//! (op, type) into tight lane loops; float ops call the one out-of-line ALU
//! body the interpreter also calls, so NaN bits cannot depend on lane
//! position or warp width (see `crate::alu`). Memory ops share their
//! handlers with the interpreter.

use crate::alu::{
    alu1_float, alu1_int, alu2, alu2_int, alu3_float, alu3_int, compare, convert, convert_num,
    load_extend, with_cmp, with_const, with_ty,
};
use crate::decode::{DOp, DecodedInst, DecodedKernel};
use crate::error::FaultKind;
use crate::exec::{lanes_of, BlockExec, Frame, LaneBufs, WarpLanes, WarpStatus};
use crate::launch::Dim3;
use gpucmp_ptx::{Op2, Ty};

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
                if ty.is_float() {
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
                if !int_bin_lanes(op, ty, o, a, b) {
                    // Floats (the shared out-of-line body), integer div/rem
                    // and narrow types: lane by lane over the active lanes,
                    // so the first faulting lane is the one reported.
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
                    for i in lanes_of(v.active) {
                        o[i] = alu3_float(op, ty, a[i], b[i], c[i]);
                    }
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
}
