//! The back-end ("PTXAS" in the paper's step 6): cleans the front-end's
//! PTX into the executable form and computes the physical resource
//! footprint.
//!
//! Passes, in order:
//! 1. copy/immediate propagation (undoes the CUDA front-end's mov
//!    materialisation, exactly as the real `ptxas` removes most `mov`s),
//! 2. `mul`+`add` → `mad`/`fma` fusion,
//! 3. dead-code elimination,
//! 4. register-pressure spilling against the device's per-thread cap, and
//! 5. physical register accounting (drives the occupancy model).

use crate::regalloc;
use gpucmp_ptx::{Inst, Kernel, Op2, Op3, Operand};

/// Result of running the backend.
#[derive(Clone, Debug)]
pub struct PtxasReport {
    /// Instructions removed by propagation + DCE.
    pub removed: usize,
    /// `mul`+`add` pairs fused.
    pub fused: usize,
    /// Registers spilled against the device cap.
    pub spilled: u32,
}

/// Run the backend in place. `max_regs_per_thread` is the target device's
/// hard per-thread cap (e.g. 63 on Fermi).
pub fn run(kernel: &mut Kernel, max_regs_per_thread: u32) -> PtxasReport {
    let mut removed = 0usize;
    let mut fused = 0usize;
    for _ in 0..4 {
        let a = propagate(kernel);
        let f = fuse_mad(kernel);
        let b = dce(kernel);
        removed += a + b;
        fused += f;
        if a + b + f == 0 {
            break;
        }
    }
    let (spilled, mut slots) = regalloc::spill_to_local(kernel, max_regs_per_thread);
    if spilled > 0 {
        // spilling introduces copies; clean again and measure the result
        // (without a spill, the kernel is the one spilling measured)
        removed += propagate(kernel);
        removed += dce(kernel);
        slots = regalloc::Analysis::of(kernel).max_live_slots;
    }
    kernel.phys_regs = slots.clamp(2, max_regs_per_thread);
    PtxasReport {
        removed,
        fused,
        spilled,
    }
}

/// Count definitions per register.
fn def_counts(kernel: &Kernel) -> Vec<u32> {
    let mut defs = vec![0u32; kernel.regs.len()];
    for inst in &kernel.body {
        if let Some(d) = inst.def() {
            defs[d.index()] += 1;
        }
    }
    defs
}

/// Propagate `mov d, src` where `d` is singly defined and `src` is an
/// immediate, special register, or singly-defined register. Returns the
/// number of operand replacements performed.
fn propagate(kernel: &mut Kernel) -> usize {
    let defs = def_counts(kernel);
    // value of singly-defined mov destinations
    let mut value: Vec<Option<Operand>> = vec![None; kernel.regs.len()];
    for inst in &kernel.body {
        if let Inst::Mov { d, a, .. } = inst {
            if defs[d.index()] == 1 {
                let ok = match a {
                    Operand::ImmI(_) | Operand::ImmF(_) | Operand::Special(_) => true,
                    Operand::Reg(s) => defs[s.index()] == 1,
                };
                if ok {
                    value[d.index()] = Some(*a);
                }
            }
        }
    }
    // Resolve chains (mov a, b; mov c, a) with path compression.
    fn resolve(value: &mut Vec<Option<Operand>>, r: usize, depth: u32) -> Option<Operand> {
        if depth > 32 {
            return value[r];
        }
        match value[r] {
            Some(Operand::Reg(s)) => {
                if let Some(v) = resolve(value, s.index(), depth + 1) {
                    value[r] = Some(v);
                }
                value[r]
            }
            other => other,
        }
    }
    for r in 0..kernel.regs.len() {
        resolve(&mut value, r, 0);
    }
    let mut replaced = 0usize;
    let replace_op = |o: &mut Operand, value: &[Option<Operand>], replaced: &mut usize| {
        if let Operand::Reg(r) = o {
            if let Some(v) = value[r.index()] {
                *o = v;
                *replaced += 1;
            }
        }
    };
    for inst in &mut kernel.body {
        match inst {
            // `d` of a mov is a def; only rewrite source positions.
            Inst::Mov { a, .. } | Inst::Cvt { a, .. } | Inst::Un { a, .. } => {
                replace_op(a, &value, &mut replaced)
            }
            Inst::Bin { a, b, .. } | Inst::Setp { a, b, .. } => {
                replace_op(a, &value, &mut replaced);
                replace_op(b, &value, &mut replaced);
            }
            Inst::Tern { a, b, c, .. } => {
                replace_op(a, &value, &mut replaced);
                replace_op(b, &value, &mut replaced);
                replace_op(c, &value, &mut replaced);
            }
            Inst::Selp { a, b, .. } => {
                // p must stay a register
                replace_op(a, &value, &mut replaced);
                replace_op(b, &value, &mut replaced);
            }
            Inst::Ld { addr, .. } => replace_op(&mut addr.base, &value, &mut replaced),
            Inst::St { addr, a, .. } => {
                replace_op(&mut addr.base, &value, &mut replaced);
                replace_op(a, &value, &mut replaced);
            }
            Inst::Tex { idx, .. } => replace_op(idx, &value, &mut replaced),
            Inst::Atom { addr, b, c, .. } => {
                replace_op(&mut addr.base, &value, &mut replaced);
                replace_op(b, &value, &mut replaced);
                replace_op(c, &value, &mut replaced);
            }
            _ => {}
        }
    }
    replaced
}

/// Fuse `mul d, a, b` immediately followed by `add e, d, c` (or `add e, c,
/// d`) into `mad`/`fma` when `d` is used nowhere else.
fn fuse_mad(kernel: &mut Kernel) -> usize {
    let mut use_counts = vec![0u32; kernel.regs.len()];
    for inst in &kernel.body {
        inst.for_each_use(|r| use_counts[r.index()] += 1);
    }
    let mut fused = 0usize;
    let mut i = 0;
    while i + 1 < kernel.body.len() {
        let (first, rest) = kernel.body.split_at_mut(i + 1);
        let cur = &first[i];
        if let Inst::Bin {
            op: Op2::Mul,
            ty,
            d,
            a,
            b,
        } = *cur
        {
            if use_counts[d.index()] == 1 {
                if let Inst::Bin {
                    op: Op2::Add,
                    ty: ty2,
                    d: e,
                    a: x,
                    b: y,
                } = rest[0]
                {
                    if ty2 == ty {
                        let c = if x == Operand::Reg(d) {
                            Some(y)
                        } else if y == Operand::Reg(d) {
                            Some(x)
                        } else {
                            None
                        };
                        if let Some(c) = c {
                            let op = if ty.is_float() { Op3::Fma } else { Op3::Mad };
                            rest[0] = Inst::Tern {
                                op,
                                ty,
                                d: e,
                                a,
                                b,
                                c,
                            };
                            first[i] = Inst::Mov {
                                ty,
                                d,
                                a: Operand::ImmI(0),
                            }; // dead, removed by DCE
                            use_counts[d.index()] = 0;
                            fused += 1;
                        }
                    }
                }
            }
        }
        i += 1;
    }
    fused
}

/// Remove instructions that define a never-used register and have no side
/// effects. Returns the number removed.
fn dce(kernel: &mut Kernel) -> usize {
    let mut removed_total = 0usize;
    loop {
        let mut used = vec![false; kernel.regs.len()];
        for inst in &kernel.body {
            inst.for_each_use(|r| used[r.index()] = true);
        }
        let before = kernel.body.len();
        kernel.body.retain(|inst| {
            if inst.has_side_effect() {
                return true;
            }
            match inst.def() {
                Some(d) => used[d.index()],
                None => true,
            }
        });
        let removed = before - kernel.body.len();
        removed_total += removed;
        if removed == 0 {
            break;
        }
    }
    removed_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_ptx::{Address, KernelBuilder, Space, Ty};

    #[test]
    fn propagation_removes_imm_movs() {
        let mut b = KernelBuilder::new("t");
        let r1 = b.mov(Ty::S32, 5i32);
        let r2 = b.mov(Ty::S32, r1);
        let r3 = b.bin(Op2::Add, Ty::S32, r2, 1i32);
        b.st(Space::Global, Ty::S32, Address::absolute(0), r3);
        let mut k = b.finish();
        let report = run(&mut k, 64);
        assert!(report.removed >= 2);
        // the add now consumes the immediate directly
        let add = k
            .body
            .iter()
            .find_map(|i| match i {
                Inst::Bin {
                    op: Op2::Add, a, ..
                } => Some(*a),
                _ => None,
            })
            .unwrap();
        assert_eq!(add, Operand::ImmI(5));
        // movs are gone
        assert!(!k.body.iter().any(|i| matches!(i, Inst::Mov { .. })));
    }

    #[test]
    fn multiply_defined_regs_not_propagated() {
        let mut b = KernelBuilder::new("t");
        let v = b.mov(Ty::S32, 1i32);
        b.mov_to(Ty::S32, v, 2i32); // second def
        let r = b.bin(Op2::Add, Ty::S32, v, 0i32);
        b.st(Space::Global, Ty::S32, Address::absolute(0), r);
        let mut k = b.finish();
        run(&mut k, 64);
        // v's movs must survive (it is multiply defined)
        let movs = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Mov { .. }))
            .count();
        assert_eq!(movs, 2);
    }

    #[test]
    fn fusion_produces_mad() {
        let mut b = KernelBuilder::new("t");
        let x = b.ld(Space::Global, Ty::F32, Address::absolute(0));
        let y = b.ld(Space::Global, Ty::F32, Address::absolute(4));
        let m = b.bin(Op2::Mul, Ty::F32, x, y);
        let s = b.bin(Op2::Add, Ty::F32, m, x);
        b.st(Space::Global, Ty::F32, Address::absolute(8), s);
        let mut k = b.finish();
        let report = run(&mut k, 64);
        assert_eq!(report.fused, 1);
        assert!(k
            .body
            .iter()
            .any(|i| matches!(i, Inst::Tern { op: Op3::Fma, .. })));
        assert!(!k
            .body
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: Op2::Mul, .. })));
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut b = KernelBuilder::new("t");
        let dead = b.bin(Op2::Add, Ty::S32, 1i32, 2i32);
        let _ = dead;
        let live = b.mov(Ty::S32, 3i32);
        b.st(Space::Global, Ty::S32, Address::absolute(0), live);
        b.bar();
        let mut k = b.finish();
        run(&mut k, 64);
        assert!(k.body.iter().any(|i| matches!(i, Inst::Bar)));
        assert!(k.body.iter().any(|i| matches!(i, Inst::St { .. })));
        assert!(!k
            .body
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: Op2::Add, .. })));
    }

    /// A fresh analysis of `k` by the reference implementation.
    fn fresh_pressure(k: &Kernel, cap: u32) -> u32 {
        crate::regalloc::reference::pressure(k).0.clamp(2, cap)
    }

    #[test]
    fn unspilled_phys_regs_equal_a_fresh_analysis() {
        // 40 materialised immediates summed: 40 live values before
        // propagation, a handful after it.
        let mut b = KernelBuilder::new("t");
        let regs: Vec<_> = (0..40).map(|i| b.mov(Ty::S32, i)).collect();
        let mut acc = b.ld(Space::Global, Ty::S32, Address::absolute(0));
        for r in &regs {
            acc = b.bin(Op2::Add, Ty::S32, acc, *r);
        }
        b.st(Space::Global, Ty::S32, Address::absolute(0), acc);
        let mut k = b.finish();
        assert!(fresh_pressure(&k, 63) >= 40);
        let report = run(&mut k, 63);
        assert_eq!(report.spilled, 0);
        assert_eq!(k.phys_regs, fresh_pressure(&k, 63));
        assert!(k.phys_regs < 8, "{}", k.phys_regs);
    }

    #[test]
    fn a_spill_is_measured_again_after_the_cleanup() {
        // `v` is defined twice, so the copy `d = v` survives propagation.
        // `v` lives longest and is spilled first; the copy then reads a
        // singly-defined reload, and the cleanup after spilling removes it.
        let mut b = KernelBuilder::new("t");
        let v = b.ld(Space::Global, Ty::F32, Address::absolute(0));
        b.bin_to(Op2::Add, Ty::F32, v, v, 1.0f32);
        let xs: Vec<_> = (1..40)
            .map(|i| b.ld(Space::Global, Ty::F32, Address::absolute(i * 4)))
            .collect();
        let d = b.mov(Ty::F32, v);
        let mut acc = b.bin(Op2::Add, Ty::F32, d, v);
        for x in &xs {
            acc = b.bin(Op2::Add, Ty::F32, acc, *x);
        }
        b.st(Space::Global, Ty::F32, Address::absolute(0), acc);
        let mut k = b.finish();
        let report = run(&mut k, 16);
        assert!(report.spilled > 0);
        assert!(!k.body.iter().any(|i| matches!(i, Inst::Mov { .. })));
        assert_eq!(k.phys_regs, fresh_pressure(&k, 16));
    }

    #[test]
    fn phys_regs_respect_cap() {
        let mut b = KernelBuilder::new("t");
        let regs: Vec<_> = (0..100)
            .map(|i| b.ld(Space::Global, Ty::F32, Address::absolute(i * 4)))
            .collect();
        let mut acc = regs[0];
        for r in &regs[1..] {
            acc = b.bin(Op2::Add, Ty::F32, acc, *r);
        }
        b.st(Space::Global, Ty::F32, Address::absolute(0), acc);
        let mut k = b.finish();
        let report = run(&mut k, 32);
        assert!(report.spilled > 0);
        assert!(k.phys_regs <= 32);
        assert!(k.local_bytes > 0);
    }
}
