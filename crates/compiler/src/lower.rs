//! Lowering: DSL AST → virtual-ISA kernel, parameterised by the
//! [`CodegenStyle`] that distinguishes the two front-ends.

use crate::ast::{walk_stmts, Builtin, Expr, KernelDef, Stmt, Var};
use crate::fold::{fold_expr, fold_stmts, FoldLevel};
use crate::unroll::{unroll_stmts_with, UnrollOpts};
use gpucmp_ptx::{
    Address, CmpOp, Inst, Kernel, KernelBuilder, Op2, Op3, Operand, Reg, Space, Special, Ty,
};
use std::collections::HashMap;

/// Everything that differs between the CUDA and OpenCL front-ends at
/// code-generation time. See [`crate::frontend`] for the two presets and
/// the paper-section rationale of every knob. What both share, such as
/// address CSE, is not a knob.
#[derive(Clone, Debug, PartialEq)]
pub struct CodegenStyle {
    /// Front-end name ("nvopencc" / "oclc").
    pub name: &'static str,
    /// Constant-folding aggressiveness.
    pub fold: FoldLevel,
    /// Lower power-of-two multiplies in address arithmetic to shifts
    /// (`shl`/`shr`/`and` — the OpenCL bit-twiddling of Table V).
    pub strength_reduce_bitops: bool,
    /// Materialise immediates into registers via `mov` before use
    /// (the CUDA front-end's mov-heavy style of Table V; `ptxas` propagates
    /// them back for execution).
    pub imm_via_mov: bool,
    /// Fuse `a*b + c` into `mad`/`fma` at the front-end (the OpenCL
    /// front-end does; the CUDA front-end leaves fusion to `ptxas`).
    pub fuse_mad: bool,
    /// Virtual-register budget before spilling to `local` space.
    pub spill_budget: u32,
    /// Software-pipeline partially-unrolled loops (see
    /// [`crate::unroll::UnrollOpts::hoist_unrolled_loads`]).
    pub hoist_unrolled_loads: bool,
    /// Demote loop-carried scalars of big unrolled bodies to local memory
    /// (see [`crate::unroll::UnrollOpts::demote_carried_vars`]).
    pub demote_carried_vars: bool,
}

/// Lower a kernel definition with the given style, producing the "PTX"
/// kernel — the artefact whose statistics the paper's Table V tallies,
/// *before* the `ptxas` backend cleans it up for execution.
pub fn lower(def: &KernelDef, style: &CodegenStyle) -> Kernel {
    let mut var_tys = def.var_tys.clone();
    let opts = UnrollOpts {
        hoist_unrolled_loads: style.hoist_unrolled_loads,
        written_params: written_params(&def.body),
        demote_carried_vars: style.demote_carried_vars,
    };
    let mut dsl_local_bytes = 0u32;
    let body = unroll_stmts_with(&def.body, &mut var_tys, &opts, &mut dsl_local_bytes);
    let body = fold_stmts(&body, style.fold);
    let mut lw = Lowerer {
        b: KernelBuilder::new(def.name.clone()),
        style: style.clone(),
        def,
        var_regs: HashMap::new(),
        param_regs: HashMap::new(),
        special_regs: HashMap::new(),
        addr_memo: vec![HashMap::new()],
        multi_def_vars: multi_def_vars(&body),
    };
    for (name, ty) in &def.params {
        lw.b.param(name.clone(), *ty);
    }
    lw.prologue(&body);
    lw.stmts(&body);
    let mut kernel = lw.b.finish();
    kernel.shared_bytes = def.shared_bytes;
    kernel.local_bytes = dsl_local_bytes;
    crate::regalloc::spill_to_local(&mut kernel, style.spill_budget);
    kernel
}

struct Lowerer<'a> {
    b: KernelBuilder,
    style: CodegenStyle,
    def: &'a KernelDef,
    var_regs: HashMap<u32, Reg>,
    param_regs: HashMap<u32, Reg>,
    special_regs: HashMap<Builtin, Reg>,
    /// Address-CSE memo stack: one scope per structured region; keys are
    /// `(space, base, core-index)` debug renderings, values the register
    /// holding the scaled base+core address. Vars assigned more than once
    /// are never memoised (their value changes).
    addr_memo: Vec<HashMap<String, Reg>>,
    multi_def_vars: std::collections::HashSet<u32>,
}

impl<'a> Lowerer<'a> {
    /// Preload every used parameter and built-in at kernel entry, so their
    /// registers are defined on all paths (real PTX does the same).
    fn prologue(&mut self, body: &[Stmt]) {
        let mut params = Vec::new();
        let mut specials = Vec::new();
        walk_stmts(body, &mut |s| {
            for e in s.exprs() {
                e.visit(&mut |e| match e {
                    Expr::Param(i) if !params.contains(i) => params.push(*i),
                    Expr::Special(b) if !specials.contains(b) => specials.push(*b),
                    _ => {}
                });
            }
        });
        params.sort_unstable();
        for i in params {
            let ty = self.def.params[i as usize].1;
            let r = self.b.ld_param(i as usize, ty);
            self.param_regs.insert(i, r);
        }
        for s in specials {
            let r = self.b.special(builtin_special(s));
            self.special_regs.insert(s, r);
        }
    }

    fn var_reg(&mut self, v: Var) -> Reg {
        if let Some(&r) = self.var_regs.get(&v.id) {
            return r;
        }
        let r = self.b.reg(v.ty);
        self.var_regs.insert(v.id, r);
        r
    }

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let(v, e) | Stmt::Assign(v, e) => {
                let d = self.var_reg(*v);
                let op = self.expr_into(e, v.ty, Some(d));
                if op != Operand::Reg(d) {
                    self.b.emit(Inst::Mov { ty: v.ty, d, a: op });
                }
            }
            Stmt::Store {
                space,
                base,
                index,
                ty,
                value,
            } => {
                let addr = self.address(*space, base, index, *ty);
                let v = self.expr(value, *ty);
                let v = self.maybe_mov(v, *ty);
                self.b.st(*space, *ty, addr, v);
            }
            Stmt::If { cond, then_, else_ } => {
                let (p, pol) = self.pred(cond);
                if else_.is_empty() {
                    let end = self.b.new_label();
                    self.b.ssy(end);
                    self.b.bra_if(end, p, !pol);
                    self.scoped(|lw| lw.stmts(then_));
                    self.b.place_label(end);
                    self.b.sync();
                } else {
                    let l_else = self.b.new_label();
                    let end = self.b.new_label();
                    self.b.ssy(end);
                    self.b.bra_if(l_else, p, !pol);
                    self.scoped(|lw| lw.stmts(then_));
                    self.b.bra(end);
                    self.b.place_label(l_else);
                    self.scoped(|lw| lw.stmts(else_));
                    self.b.place_label(end);
                    self.b.sync();
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
                ..
            } => {
                let d = self.var_reg(*var);
                let s0 = self.expr(start, Ty::S32);
                self.b.emit(Inst::Mov {
                    ty: Ty::S32,
                    d,
                    a: s0,
                });
                let e0 = self.expr(end, Ty::S32);
                // hoist a register copy so the bound isn't re-evaluated
                let e0 = self.maybe_mov(e0, Ty::S32);
                let l_end = self.b.new_label();
                let l_top = self.b.new_label();
                self.b.ssy(l_end);
                self.b.place_label(l_top);
                let exit_cmp = if *step > 0 { CmpOp::Ge } else { CmpOp::Le };
                let p = self.b.setp(exit_cmp, Ty::S32, d, e0);
                self.b.bra_if(l_end, p, true);
                self.scoped(|lw| lw.stmts(body));
                self.b.bin_to(Op2::Add, Ty::S32, d, d, *step as i32);
                self.b.bra(l_top);
                self.b.place_label(l_end);
                self.b.sync();
            }
            Stmt::While { cond, body } => {
                let l_end = self.b.new_label();
                let l_top = self.b.new_label();
                self.b.ssy(l_end);
                self.b.place_label(l_top);
                let (p, pol) = self.pred(cond);
                self.b.bra_if(l_end, p, !pol);
                self.scoped(|lw| lw.stmts(body));
                self.b.bra(l_top);
                self.b.place_label(l_end);
                self.b.sync();
            }
            Stmt::Barrier => self.b.bar(),
            Stmt::AtomicRmw {
                op,
                space,
                base,
                index,
                ty,
                value,
                old,
            } => {
                let addr = self.address(*space, base, index, *ty);
                let v = self.expr(value, *ty);
                let d = self.b.atom(*space, *op, *ty, addr, v);
                if let Some(o) = old {
                    let dst = self.var_reg(*o);
                    self.b.emit(Inst::Mov {
                        ty: *ty,
                        d: dst,
                        a: Operand::Reg(d),
                    });
                }
            }
        }
    }

    /// Comparison operand type, fold-stable.
    ///
    /// Signedness must not depend on the front-end's fold level: plain
    /// inference on the style-folded tree would make it depend on *which*
    /// operand (or select arm) survives folding — e.g. `-6 < select(c,
    /// s32_var, u32_leaf)` infers S32 before folding but U32 after an
    /// aggressive fold collapses the select, silently turning the
    /// comparison unsigned under one front-end only. So the decision is
    /// made on the *maximally*-folded operands: re-folding aggressively is
    /// idempotent, so both front-ends land on identical trees here. The
    /// extra fold is for typing only — codegen still lowers the
    /// style-folded operands.
    ///
    /// On those trees: an explicit top-level cast pins the type (the
    /// `(x-1) u< (w-2)` interior-test idiom), an unsigned comparison
    /// requires *both* sides to infer U32 (sorting u32 keys), and any
    /// mixed or partly-constant integer comparison is signed.
    fn cmp_ty(&self, a: &Expr, b: &Expr) -> Ty {
        let fa = fold_expr(a, FoldLevel::Aggressive);
        let fb = fold_expr(b, FoldLevel::Aggressive);
        if let Expr::Cast(ty, _) = fa {
            return ty;
        }
        if let Expr::Cast(ty, _) = fb {
            return ty;
        }
        match (self.infer(&fa), self.infer(&fb)) {
            (Some(Ty::U32), Some(Ty::U32)) => Ty::U32,
            (ta, tb) => match ta.or(tb).unwrap_or(Ty::S32) {
                Ty::U32 | Ty::B32 => Ty::S32,
                other => other,
            },
        }
    }

    /// Lower a condition to a predicate register and polarity.
    fn pred(&mut self, cond: &Expr) -> (Reg, bool) {
        match cond {
            Expr::Cmp(op, a, b) => {
                let ty = self.cmp_ty(a, b);
                let va = self.expr(a, ty);
                let vb = self.expr(b, ty);
                (self.b.setp(*op, ty, va, vb), true)
            }
            other => {
                let ty = self.infer(other).unwrap_or(Ty::S32);
                let ty = if ty == Ty::Pred { Ty::S32 } else { ty };
                let v = self.expr(other, ty);
                (self.b.setp(CmpOp::Ne, ty, v, 0i32), true)
            }
        }
    }

    /// Lower an expression, result as an operand of type `want`.
    fn expr(&mut self, e: &Expr, want: Ty) -> Operand {
        self.expr_into(e, want, None)
    }

    /// Lower with an optional destination register for the top-level op.
    fn expr_into(&mut self, e: &Expr, want: Ty, dest: Option<Reg>) -> Operand {
        match e {
            Expr::ImmI(v) => self.imm_operand(Operand::ImmI(*v), want, dest),
            Expr::ImmF(v) => self.imm_operand(Operand::ImmF(*v), want, dest),
            Expr::Var(v) => Operand::Reg(self.var_reg(*v)),
            Expr::Param(i) => Operand::Reg(self.param_regs[i]),
            Expr::Special(s) => Operand::Reg(self.special_regs[s]),
            Expr::Un(op, a) => {
                let va = self.expr(a, want);
                let va = self.maybe_mov_if_style(va, want);
                let d = dest.unwrap_or_else(|| self.b.reg(want));
                self.b.emit(Inst::Un {
                    op: *op,
                    ty: want,
                    d,
                    a: va,
                });
                Operand::Reg(d)
            }
            Expr::Bin(op, a, b) => {
                // mad/fma fusion at the front-end (OpenCL style).
                if self.style.fuse_mad && *op == Op2::Add {
                    if let Expr::Bin(Op2::Mul, x, y) = &**a {
                        return self.emit_mad(x, y, b, want, dest);
                    }
                    if let Expr::Bin(Op2::Mul, x, y) = &**b {
                        return self.emit_mad(x, y, a, want, dest);
                    }
                }
                // strength reduction of power-of-two mul/div/rem (OpenCL
                // bit-twiddling style).
                if self.style.strength_reduce_bitops && !want.is_float() {
                    if let Some(r) = self.try_bitop(op, a, b, want, dest) {
                        return r;
                    }
                }
                let bty = if matches!(op, Op2::Shl | Op2::Shr) {
                    Ty::U32
                } else {
                    want
                };
                let va = self.expr(a, want);
                let va = self.maybe_mov_if_style(va, want);
                let vb = self.expr(b, bty);
                let vb = self.maybe_mov_if_style(vb, bty);
                let d = dest.unwrap_or_else(|| self.b.reg(want));
                self.b.emit(Inst::Bin {
                    op: *op,
                    ty: want,
                    d,
                    a: va,
                    b: vb,
                });
                Operand::Reg(d)
            }
            Expr::Cmp(op, a, b) => {
                // a comparison used as a value: produce 0/1 of `want`.
                let ty = self.cmp_ty(a, b);
                let va = self.expr(a, ty);
                let vb = self.expr(b, ty);
                let p = self.b.setp(*op, ty, va, vb);
                let d = dest.unwrap_or_else(|| self.b.reg(want));
                self.b.emit(Inst::Selp {
                    ty: want,
                    d,
                    a: Operand::ImmI(1),
                    b: Operand::ImmI(0),
                    p,
                });
                Operand::Reg(d)
            }
            Expr::Select(c, a, b) => {
                let (p, pol) = self.pred(c);
                let va = self.expr(a, want);
                let vb = self.expr(b, want);
                let (va, vb) = if pol { (va, vb) } else { (vb, va) };
                let d = dest.unwrap_or_else(|| self.b.reg(want));
                self.b.emit(Inst::Selp {
                    ty: want,
                    d,
                    a: va,
                    b: vb,
                    p,
                });
                Operand::Reg(d)
            }
            Expr::Cast(to, a) => {
                let from = self.infer(a).unwrap_or(Ty::S32);
                if from == *to {
                    return self.expr_into(a, *to, dest);
                }
                let va = self.expr(a, from);
                let d = dest.unwrap_or_else(|| self.b.reg(*to));
                self.b.emit(Inst::Cvt {
                    dty: *to,
                    sty: from,
                    d,
                    a: va,
                });
                Operand::Reg(d)
            }
            Expr::Load {
                space,
                base,
                index,
                ty,
            } => {
                let addr = self.address(*space, base, index, *ty);
                let d = dest.unwrap_or_else(|| self.b.reg(*ty));
                self.b.emit(Inst::Ld {
                    space: *space,
                    ty: *ty,
                    d,
                    addr,
                });
                let r = Operand::Reg(d);
                if *ty != want && want != Ty::Pred {
                    // loaded element feeding a different-typed context
                    return self.convert(r, *ty, want);
                }
                r
            }
            Expr::TexFetch { slot, index, ty } => {
                let idx = self.expr(index, Ty::S32);
                let d = dest.unwrap_or_else(|| self.b.reg(*ty));
                self.b.emit(Inst::Tex {
                    ty: *ty,
                    d,
                    tex: gpucmp_ptx::inst::TexRef(*slot),
                    idx,
                });
                Operand::Reg(d)
            }
        }
    }

    fn emit_mad(&mut self, x: &Expr, y: &Expr, c: &Expr, want: Ty, dest: Option<Reg>) -> Operand {
        let vx = self.expr(x, want);
        let vy = self.expr(y, want);
        let vc = self.expr(c, want);
        let d = dest.unwrap_or_else(|| self.b.reg(want));
        let op = if want.is_float() { Op3::Fma } else { Op3::Mad };
        self.b.emit(Inst::Tern {
            op,
            ty: want,
            d,
            a: vx,
            b: vy,
            c: vc,
        });
        Operand::Reg(d)
    }

    /// Strength-reduce `x * 2^k`, `x / 2^k`, `x % 2^k` into `shl`/`shr`/`and`.
    fn try_bitop(
        &mut self,
        op: &Op2,
        a: &Expr,
        b: &Expr,
        want: Ty,
        dest: Option<Reg>,
    ) -> Option<Operand> {
        let pow2 = |e: &Expr| match e {
            Expr::ImmI(v) if *v > 0 && (*v & (*v - 1)) == 0 => Some(v.trailing_zeros() as i64),
            _ => None,
        };
        match op {
            Op2::Mul => {
                let (x, k) = if let Some(k) = pow2(b) {
                    (a, k)
                } else if let Some(k) = pow2(a) {
                    (b, k)
                } else {
                    return None;
                };
                let vx = self.expr(x, want);
                let d = dest.unwrap_or_else(|| self.b.reg(want));
                self.b.emit(Inst::Bin {
                    op: Op2::Shl,
                    ty: want,
                    d,
                    a: vx,
                    b: Operand::ImmI(k),
                });
                Some(Operand::Reg(d))
            }
            Op2::Div => {
                let k = pow2(b)?;
                // only safe for unsigned contexts; signed division by
                // power of two needs rounding fixups, so leave it alone.
                if want.is_signed_int() {
                    return None;
                }
                let vx = self.expr(a, want);
                let d = dest.unwrap_or_else(|| self.b.reg(want));
                self.b.emit(Inst::Bin {
                    op: Op2::Shr,
                    ty: want,
                    d,
                    a: vx,
                    b: Operand::ImmI(k),
                });
                Some(Operand::Reg(d))
            }
            Op2::Rem => {
                let k = pow2(b)?;
                if want.is_signed_int() {
                    return None;
                }
                let vx = self.expr(a, want);
                let d = dest.unwrap_or_else(|| self.b.reg(want));
                self.b.emit(Inst::Bin {
                    op: Op2::And,
                    ty: want,
                    d,
                    a: vx,
                    b: Operand::ImmI((1 << k) - 1),
                });
                Some(Operand::Reg(d))
            }
            _ => None,
        }
    }

    /// Run `f` in a fresh address-CSE scope (structured control region).
    fn scoped(&mut self, f: impl FnOnce(&mut Self)) {
        self.addr_memo.push(HashMap::new());
        f(self);
        self.addr_memo.pop();
    }

    /// Look a memoised address register up across the scope stack.
    fn memo_get(&self, key: &str) -> Option<Reg> {
        self.addr_memo
            .iter()
            .rev()
            .find_map(|m| m.get(key).copied())
    }

    fn memo_put(&mut self, key: String, r: Reg) {
        self.addr_memo
            .last_mut()
            .expect("memo scope")
            .insert(key, r);
    }

    /// Whether an index expression is safe to memoise: it must not read any
    /// multiply-assigned variable (whose value changes between uses).
    fn memo_safe(&self, e: &Expr) -> bool {
        !e.any(&mut |e| match e {
            Expr::Var(v) => self.multi_def_vars.contains(&v.id),
            // loads may read mutated memory
            Expr::Load { .. } | Expr::TexFetch { .. } => true,
            _ => false,
        })
    }

    /// Peel constant addends off an index expression: `x + 3` → `(x, 3)`.
    fn split_const_add(index: &Expr) -> (Expr, i64) {
        match index {
            Expr::Bin(Op2::Add, a, b) => {
                if let Expr::ImmI(c) = &**b {
                    let (core, c2) = Self::split_const_add(a);
                    return (core, c + c2);
                }
                if let Expr::ImmI(c) = &**a {
                    let (core, c2) = Self::split_const_add(b);
                    return (core, c + c2);
                }
                (index.clone(), 0)
            }
            Expr::Bin(Op2::Sub, a, b) => {
                if let Expr::ImmI(c) = &**b {
                    let (core, c2) = Self::split_const_add(a);
                    return (core, c2 - c);
                }
                (index.clone(), 0)
            }
            _ => (index.clone(), 0),
        }
    }

    /// Compute the address of `base[index]` in `space` with element type
    /// `ty`: split `core + CONST`, memoise the scaled core address, and
    /// fold the constant into the offset field.
    ///
    /// Both front-ends share this address CSE: it came with NVIDIA's
    /// common compiler infrastructure, and what the young OpenCL front-end
    /// lacked was folding, not CSE. So the OpenCL FFT does not re-derive
    /// every address, and the paper's 2.4x arithmetic ratio of Table V is
    /// not reached (EXPERIMENTS.md, Table V deviation).
    fn address(&mut self, space: Space, base: &Expr, index: &Expr, ty: Ty) -> Address {
        let size = ty.size_bytes() as i64;
        let log2 = size.trailing_zeros() as i64;
        let (core, const_off) = Self::split_const_add(index);
        match space {
            Space::Global => {
                if let Expr::ImmI(i) = &core {
                    let b = self.expr(base, Ty::U64);
                    return Address::with_offset(b, (i + const_off) * size);
                }
                let key = self
                    .memo_safe(&core)
                    .then(|| format!("g|{ty:?}|{base:?}|{core:?}"));
                if let Some(r) = key.as_deref().and_then(|k| self.memo_get(k)) {
                    return Address::with_offset(Operand::Reg(r), const_off * size);
                }
                let addr = self.global_addr_reg(base, &core, size);
                if let Some(key) = key {
                    self.memo_put(key, addr);
                }
                Address::with_offset(Operand::Reg(addr), const_off * size)
            }
            Space::Shared | Space::Const | Space::Local | Space::Param => {
                // base is a compile-time byte offset (array handle).
                let off = match base {
                    Expr::ImmI(v) => *v,
                    _ => 0,
                };
                if let Expr::ImmI(i) = &core {
                    return Address::absolute(off + (i + const_off) * size);
                }
                let key = self
                    .memo_safe(&core)
                    .then(|| format!("{space:?}|{ty:?}|{core:?}"));
                if let Some(r) = key.as_deref().and_then(|k| self.memo_get(k)) {
                    return Address::with_offset(Operand::Reg(r), off + const_off * size);
                }
                let scaled = self.scaled_index_u32(&core, size, log2);
                if let (Some(key), Operand::Reg(reg)) = (key, scaled) {
                    self.memo_put(key, reg);
                }
                Address::with_offset(scaled, off + const_off * size)
            }
        }
    }

    /// Scaled base+core address register for a global access.
    fn global_addr_reg(&mut self, base: &Expr, core: &Expr, size: i64) -> Reg {
        let b = self.expr(base, Ty::U64);
        let idx = self.expr(core, Ty::S32);
        let wide = self.b.cvt(Ty::U64, Ty::S32, idx);
        let scaled = if size == 1 {
            Operand::Reg(wide)
        } else if self.style.strength_reduce_bitops {
            Operand::Reg(
                self.b
                    .bin(Op2::Shl, Ty::U64, wide, size.trailing_zeros() as i64),
            )
        } else {
            Operand::Reg(self.b.bin(Op2::Mul, Ty::U64, wide, size))
        };
        self.b.bin(Op2::Add, Ty::U64, b, scaled)
    }

    /// Scaled u32 index for scratchpad spaces.
    fn scaled_index_u32(&mut self, core: &Expr, size: i64, log2: i64) -> Operand {
        let idx = self.expr(core, Ty::U32);
        if size == 1 {
            idx
        } else if self.style.strength_reduce_bitops {
            Operand::Reg(self.b.bin(Op2::Shl, Ty::U32, idx, log2))
        } else {
            Operand::Reg(self.b.bin(Op2::Mul, Ty::U32, idx, size))
        }
    }

    fn convert(&mut self, v: Operand, from: Ty, to: Ty) -> Operand {
        let d = self.b.reg(to);
        self.b.emit(Inst::Cvt {
            dty: to,
            sty: from,
            d,
            a: v,
        });
        Operand::Reg(d)
    }

    /// Materialise an immediate according to the front-end style.
    fn imm_operand(&mut self, imm: Operand, want: Ty, dest: Option<Reg>) -> Operand {
        if self.style.imm_via_mov {
            let d = dest.unwrap_or_else(|| self.b.reg(want));
            self.b.emit(Inst::Mov {
                ty: want,
                d,
                a: imm,
            });
            Operand::Reg(d)
        } else {
            imm
        }
    }

    /// Ensure a register operand (used where later rewriting needs one).
    fn maybe_mov(&mut self, v: Operand, ty: Ty) -> Operand {
        match v {
            Operand::Reg(_) => v,
            _ => Operand::Reg(self.b.mov(ty, v)),
        }
    }

    /// Apply `imm_via_mov` to an operand in an arithmetic position.
    fn maybe_mov_if_style(&mut self, v: Operand, ty: Ty) -> Operand {
        if self.style.imm_via_mov && !matches!(v, Operand::Reg(_)) {
            Operand::Reg(self.b.mov(ty, v))
        } else {
            v
        }
    }

    /// Infer an expression's natural type (None for bare immediates).
    fn infer(&self, e: &Expr) -> Option<Ty> {
        match e {
            Expr::ImmI(_) | Expr::ImmF(_) => None,
            Expr::Var(v) => Some(v.ty),
            Expr::Param(i) => Some(self.def.params[*i as usize].1),
            Expr::Special(_) => Some(Ty::U32),
            Expr::Un(_, a) => self.infer(a),
            Expr::Bin(_, a, b) => self.infer(a).or_else(|| self.infer(b)),
            // A comparison used as a *value* materializes as selp 0/1, so
            // its natural type in any arithmetic/conversion context is
            // S32. (Condition positions never infer the comparison itself;
            // they destructure it into setp directly.)
            Expr::Cmp(..) => Some(Ty::S32),
            Expr::Select(_, a, b) => self.infer(a).or_else(|| self.infer(b)),
            Expr::Cast(ty, _) => Some(*ty),
            Expr::Load { ty, .. } | Expr::TexFetch { ty, .. } => Some(*ty),
        }
    }
}

fn builtin_special(b: Builtin) -> Special {
    match b {
        Builtin::TidX => Special::TidX,
        Builtin::TidY => Special::TidY,
        Builtin::TidZ => Special::TidZ,
        Builtin::NtidX => Special::NtidX,
        Builtin::NtidY => Special::NtidY,
        Builtin::NtidZ => Special::NtidZ,
        Builtin::CtaidX => Special::CtaidX,
        Builtin::CtaidY => Special::CtaidY,
        Builtin::CtaidZ => Special::CtaidZ,
        Builtin::NctaidX => Special::NctaidX,
        Builtin::NctaidY => Special::NctaidY,
        Builtin::LaneId => Special::LaneId,
        Builtin::WarpId => Special::WarpId,
        Builtin::WarpSize => Special::WarpSize,
    }
}

/// Variables assigned more than once anywhere in the (post-unroll) body.
fn multi_def_vars(body: &[Stmt]) -> std::collections::HashSet<u32> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    walk_stmts(body, &mut |s| {
        if let Some(v) = s.assigned() {
            // the loop var is reassigned every iteration
            let defs = if matches!(s, Stmt::For { .. }) { 2 } else { 1 };
            *counts.entry(v.id).or_insert(0) += defs;
        }
    });
    counts
        .into_iter()
        .filter(|&(_, c)| c > 1)
        .map(|(v, _)| v)
        .collect()
}

/// Kernel parameters used as a store or atomic base anywhere in the body.
fn written_params(body: &[Stmt]) -> std::collections::HashSet<u32> {
    let mut set = std::collections::HashSet::new();
    walk_stmts(body, &mut |s| {
        if let Stmt::Store {
            base: Expr::Param(p),
            ..
        }
        | Stmt::AtomicRmw {
            base: Expr::Param(p),
            ..
        } = s
        {
            set.insert(*p);
        }
    });
    set
}
