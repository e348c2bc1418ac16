//! Loop unrolling (the `#pragma unroll` of the paper's FDTD study).
//!
//! Both front-ends honour the pragmas in the kernel source — what differs is
//! what their downstream passes make of the unrolled code (the CUDA
//! front-end's aggressive folding collapses it; the OpenCL front-end's
//! per-copy index arithmetic survives and inflates register pressure, the
//! paper's Fig. 7 effect).

use crate::ast::{stmt_count, walk_stmts, Expr, Stmt, Unroll, Var};
use std::collections::HashSet;

/// Options of the unroll pass that differ between front-ends.
#[derive(Clone, Debug, Default)]
pub struct UnrollOpts {
    /// Software-pipeline partially-unrolled loops: hoist the copies' loads
    /// from read-only global buffers to the top of the unrolled body. This
    /// models the early OpenCL compilers' aggressive unroll scheduling —
    /// it buys latency overlap at the cost of `N x loads` live registers,
    /// which is what collapses the paper's Fig. 7 `OpenCL_{a,b}` FDTD
    /// configuration.
    pub hoist_unrolled_loads: bool,
    /// Kernel parameters that are ever used as a store/atomic base; loads
    /// from these are never hoisted (they may alias the stores).
    pub written_params: HashSet<u32>,
    /// Demote loop-carried scalars of unrolled bodies of more than 300
    /// statements (`DEMOTE_THRESHOLD`) to per-thread local memory. Models
    /// the early OpenCL compilers giving up on register allocation for
    /// oversized unrolled loops — on GT200 local memory is uncached DRAM,
    /// so this is what produces the paper's Fig. 7 collapse of
    /// `OpenCL_{a,b}` FDTD.
    pub demote_carried_vars: bool,
}

/// Statement count of an unrolled body above which carried-variable
/// demotion kicks in.
const DEMOTE_THRESHOLD: usize = 300;

/// Apply unroll pragmas throughout a statement list with front-end-specific
/// options. Fresh variables needed by partial unrolling are allocated from
/// `var_tys`; `local_bytes` is the per-thread local-memory allocator (grown
/// by carried-var demotion).
pub fn unroll_stmts_with(
    stmts: &[Stmt],
    var_tys: &mut Vec<gpucmp_ptx::Ty>,
    opts: &UnrollOpts,
    local_bytes: &mut u32,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::For {
                var,
                start,
                end,
                step,
                unroll,
                body,
            } => {
                let body = unroll_stmts_with(body, var_tys, opts, local_bytes);
                match unroll {
                    Unroll::None => out.push(Stmt::For {
                        var: *var,
                        start: start.clone(),
                        end: end.clone(),
                        step: *step,
                        unroll: Unroll::None,
                        body,
                    }),
                    Unroll::Full => match (const_of(start), const_of(end)) {
                        (Some(s0), Some(e0)) => {
                            full_unroll(&mut out, *var, s0, e0, *step, &body);
                        }
                        _ => {
                            // Non-constant bounds: the pragma is ignored
                            // (both real compilers warn and keep the loop).
                            out.push(Stmt::For {
                                var: *var,
                                start: start.clone(),
                                end: end.clone(),
                                step: *step,
                                unroll: Unroll::None,
                                body,
                            });
                        }
                    },
                    Unroll::By(k) => {
                        let k = (*k).max(1);
                        if let (Some(s0), Some(e0)) = (const_of(start), const_of(end)) {
                            // Constant trip count: full unroll if the factor
                            // covers it, else strip-mine statically.
                            let trip = trip_count(s0, e0, *step);
                            if trip <= k as i64 {
                                full_unroll(&mut out, *var, s0, e0, *step, &body);
                                continue;
                            }
                        }
                        if *step < 0 {
                            // Strip-mining assumes an upward loop; for a
                            // downward one the pragma is ignored (like the
                            // non-constant Full case above).
                            out.push(Stmt::For {
                                var: *var,
                                start: start.clone(),
                                end: end.clone(),
                                step: *step,
                                unroll: Unroll::None,
                                body,
                            });
                            continue;
                        }
                        partial_unroll(
                            &mut out,
                            *var,
                            start,
                            end,
                            *step,
                            k,
                            &body,
                            var_tys,
                            opts,
                            local_bytes,
                        );
                    }
                }
            }
            other => out.push(other.map(Expr::clone, |b| {
                unroll_stmts_with(b, var_tys, opts, local_bytes)
            })),
        }
    }
    out
}

/// Trip count of `for (i = s0; i < e0; i += step)` (or `>` for negative
/// step).
fn trip_count(s0: i64, e0: i64, step: i64) -> i64 {
    if step > 0 {
        ((e0 - s0).max(0) + step - 1) / step
    } else {
        ((s0 - e0).max(0) + (-step) - 1) / (-step)
    }
}

fn full_unroll(out: &mut Vec<Stmt>, var: Var, s0: i64, e0: i64, step: i64, body: &[Stmt]) {
    let trip = trip_count(s0, e0, step);
    let mut i = s0;
    for _ in 0..trip {
        for s in body {
            out.push(subst_stmt(s, var, &Expr::ImmI(i)));
        }
        i += step;
    }
    // The induction variable keeps its final value (it may be read after
    // the loop).
    out.push(Stmt::Let(var, Expr::ImmI(i)));
}

/// Strip-mine a (possibly runtime-bound) loop by factor `k`:
///
/// ```text
/// for (i = start; i < main_end; i += k*step) { body(i) body(i+step) ... }
/// while (i < end) { body(i); i += step; }     // remainder
/// ```
#[allow(clippy::too_many_arguments)]
fn partial_unroll(
    out: &mut Vec<Stmt>,
    var: Var,
    start: &Expr,
    end: &Expr,
    step: i64,
    k: u32,
    body: &[Stmt],
    var_tys: &mut Vec<gpucmp_ptx::Ty>,
    opts: &UnrollOpts,
    local_bytes: &mut u32,
) {
    assert!(step > 0, "partial unroll requires a positive step");
    let k = k as i64;
    // main_end = end - (end - start) % (k*step)
    let chunk = k * step;
    let span = end.clone() - start.clone();
    let main_end_var = Var {
        id: var_tys.len() as u32,
        ty: gpucmp_ptx::Ty::S32,
    };
    var_tys.push(gpucmp_ptx::Ty::S32);
    out.push(Stmt::Let(
        main_end_var,
        end.clone() - (span % Expr::ImmI(chunk)),
    ));
    // Main unrolled loop.
    let mut main_body = Vec::with_capacity(body.len() * k as usize);
    for j in 0..k {
        let iv = if j == 0 {
            Expr::Var(var)
        } else {
            Expr::Var(var) + Expr::ImmI(j * step)
        };
        for s in body {
            main_body.push(subst_stmt(s, var, &iv));
        }
    }
    if opts.hoist_unrolled_loads {
        hoist_loads(&mut main_body, var_tys, opts);
    }
    let mut epilogue: Vec<Stmt> = Vec::new();
    if opts.demote_carried_vars && stmt_count(&main_body) > DEMOTE_THRESHOLD {
        epilogue = demote_carried(&mut main_body, body, local_bytes);
    }
    out.push(Stmt::For {
        var,
        start: start.clone(),
        end: Expr::Var(main_end_var),
        step: chunk,
        unroll: Unroll::None,
        body: main_body,
    });
    out.extend(epilogue);
    // Remainder loop. The induction variable holds `main_end` after the
    // main loop (For lowering leaves it at its exit value).
    let mut rem_body: Vec<Stmt> = body.to_vec();
    rem_body.push(Stmt::Assign(var, Expr::Var(var) + Expr::ImmI(step)));
    out.push(Stmt::While {
        cond: Expr::Var(var).lt(end.clone()),
        body: rem_body,
    });
}

/// Demote the loop-carried scalars of an oversized unrolled body to
/// per-thread local-memory slots: a prologue stores the incoming values,
/// every read/write in the body goes through `local` space, and the
/// returned epilogue (placed after the main loop) restores the variables
/// for the remainder loop and any post-loop uses.
///
/// "Loop-carried" = read before first written at the top level of the
/// *original* body (upward-exposed) and also written by it.
fn demote_carried(
    main_body: &mut Vec<Stmt>,
    original_body: &[Stmt],
    local_bytes: &mut u32,
) -> Vec<Stmt> {
    // Upward-exposed reads and writes at any depth, in program order: a
    // statement's reads come before its own write, and both before its
    // nested bodies (so a write in a `then` branch counts for the `else`).
    let mut written: HashSet<u32> = HashSet::new();
    let mut upward: HashSet<u32> = HashSet::new();
    walk_stmts(original_body, &mut |s| {
        for e in s.exprs() {
            e.visit(&mut |x| {
                if let Expr::Var(v) = x {
                    if !written.contains(&v.id) {
                        upward.insert(v.id);
                    }
                }
            });
        }
        if let Some(v) = s.assigned() {
            written.insert(v.id);
        }
    });
    // Carried: the upward-exposed `let`/assign targets, in pre-order.
    let mut carried: Vec<Var> = Vec::new();
    walk_stmts(original_body, &mut |s| {
        if let Stmt::Let(v, _) | Stmt::Assign(v, _) = s {
            if upward.contains(&v.id) && !carried.iter().any(|c| c.id == v.id) {
                carried.push(*v);
            }
        }
    });
    if carried.is_empty() {
        return Vec::new();
    }
    // assign slots
    let mut slot_of: Vec<(Var, i64)> = Vec::new();
    for v in &carried {
        let sz = v.ty.size_bytes().max(4);
        let off = (*local_bytes).next_multiple_of(sz) as i64;
        *local_bytes = off as u32 + sz;
        slot_of.push((*v, off));
    }
    // rewrite body
    let rewritten: Vec<Stmt> = main_body.iter().map(|s| demote_stmt(s, &slot_of)).collect();
    let mut new_body: Vec<Stmt> = Vec::with_capacity(rewritten.len() + carried.len());
    for (v, off) in &slot_of {
        new_body.push(Stmt::Store {
            space: gpucmp_ptx::Space::Local,
            base: Expr::ImmI(*off),
            index: Expr::ImmI(0),
            ty: v.ty,
            value: Expr::Var(*v),
        });
    }
    new_body.extend(rewritten);
    *main_body = new_body;
    // epilogue restores registers
    slot_of
        .iter()
        .map(|(v, off)| Stmt::Assign(*v, slot_load(v.ty, *off)))
        .collect()
}

/// The load of a demoted variable's local-memory slot.
fn slot_load(ty: gpucmp_ptx::Ty, off: i64) -> Expr {
    Expr::Load {
        space: gpucmp_ptx::Space::Local,
        base: Box::new(Expr::ImmI(off)),
        index: Box::new(Expr::ImmI(0)),
        ty,
    }
}

/// Rewrite a statement for demotion: reads of a demoted variable load its
/// slot, writes to it store there, and the `let` of any other variable
/// becomes an assignment.
fn demote_stmt(s: &Stmt, slots: &[(Var, i64)]) -> Stmt {
    let slot_for = |v: &Var| slots.iter().find(|(cv, _)| cv.id == v.id);
    let demote =
        |e: &Expr| e.replace_vars(&|v| slot_for(&v).map(|(cv, off)| slot_load(cv.ty, *off)));
    match s {
        Stmt::Let(v, e) | Stmt::Assign(v, e) => match slot_for(v) {
            Some((_, off)) => Stmt::Store {
                space: gpucmp_ptx::Space::Local,
                base: Expr::ImmI(*off),
                index: Expr::ImmI(0),
                ty: v.ty,
                value: demote(e),
            },
            None => Stmt::Assign(*v, demote(e)),
        },
        _ => s.map(demote, |b| {
            b.iter().map(|x| demote_stmt(x, slots)).collect()
        }),
    }
}

/// Software-pipelining hoist: pull loads from read-only global buffers out
/// of the top-level statements of an unrolled body to the body's start.
/// Only loads whose index expressions do not read variables *defined inside
/// the body* are moved (their operands are loop-invariant or the induction
/// variable, both available at the body top).
fn hoist_loads(body: &mut Vec<Stmt>, var_tys: &mut Vec<gpucmp_ptx::Ty>, opts: &UnrollOpts) {
    // Variables defined anywhere in the body (incl. nested blocks).
    let mut defined: HashSet<u32> = HashSet::new();
    walk_stmts(body, &mut |s| {
        if let Some(v) = s.assigned() {
            defined.insert(v.id);
        }
    });

    let mut hoisted: Vec<Stmt> = Vec::new();
    for s in body.iter_mut() {
        // top-level statements only; guarded/nested loads stay put
        if matches!(s, Stmt::Let(..) | Stmt::Assign(..) | Stmt::Store { .. }) {
            *s = s.map(
                |e| hoist_in_expr(e, &defined, var_tys, opts, &mut hoisted),
                |b| b.to_vec(),
            );
        }
    }
    if !hoisted.is_empty() {
        body.splice(0..0, hoisted);
    }
}

/// Hoist, bottom-up, the loads of `e` from read-only global parameters
/// whose index reads no variable in `defined`. A load's base is never
/// searched (it is an address, not a value).
fn hoist_in_expr(
    e: &Expr,
    defined: &HashSet<u32>,
    var_tys: &mut Vec<gpucmp_ptx::Ty>,
    opts: &UnrollOpts,
    hoisted: &mut Vec<Stmt>,
) -> Expr {
    let Expr::Load {
        space,
        base,
        index,
        ty,
    } = e
    else {
        return e.map_children(|c| hoist_in_expr(c, defined, var_tys, opts, hoisted));
    };
    let index = hoist_in_expr(index, defined, var_tys, opts, hoisted);
    let read_only_param = matches!(&**base, Expr::Param(p) if !opts.written_params.contains(p));
    let hoist = *space == gpucmp_ptx::Space::Global
        && read_only_param
        && !index.any(&mut |x| matches!(x, Expr::Var(v) if defined.contains(&v.id)));
    let load = Expr::Load {
        space: *space,
        base: base.clone(),
        index: Box::new(index),
        ty: *ty,
    };
    if !hoist {
        return load;
    }
    let v = Var {
        id: var_tys.len() as u32,
        ty: *ty,
    };
    var_tys.push(*ty);
    hoisted.push(Stmt::Let(v, load));
    Expr::Var(v)
}

fn const_of(e: &Expr) -> Option<i64> {
    match e {
        Expr::ImmI(v) => Some(*v),
        _ => None,
    }
}

/// Substitute `var` with `with` in a statement (including nested bodies).
/// Writes to `var` inside the body would invalidate the substitution; the
/// DSL's `for_` owns its induction variable, so no body ever assigns it.
pub fn subst_stmt(s: &Stmt, var: Var, with: &Expr) -> Stmt {
    if let Stmt::Let(v, _) | Stmt::Assign(v, _) = s {
        debug_assert_ne!(v.id, var.id, "loop body writes its induction variable");
    }
    s.map(
        |e| e.replace_vars(&|v| (v.id == var.id).then(|| with.clone())),
        |b| b.iter().map(|x| subst_stmt(x, var, with)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DslKernel, Unroll};
    use gpucmp_ptx::{Space, Ty};

    fn unroll_stmts(stmts: &[Stmt], var_tys: &mut Vec<Ty>) -> Vec<Stmt> {
        unroll_stmts_with(stmts, var_tys, &UnrollOpts::default(), &mut 0)
    }

    fn loop_kernel(unroll: Unroll, end: i64) -> (Vec<Stmt>, Vec<Ty>) {
        let mut k = DslKernel::new("t");
        let out = k.param_ptr("out");
        k.for_(0i64, end, 1, unroll, |k, i| {
            k.st_global(out.clone(), i, Ty::S32, 1i32);
        });
        let def = k.finish();
        (def.body, def.var_tys)
    }

    #[test]
    fn full_unroll_expands_constant_trip() {
        let (body, mut tys) = loop_kernel(Unroll::Full, 4);
        let u = unroll_stmts(&body, &mut tys);
        // 4 stores + final induction assignment, no For left
        let stores = u.iter().filter(|s| matches!(s, Stmt::Store { .. })).count();
        assert_eq!(stores, 4);
        assert!(!u.iter().any(|s| matches!(s, Stmt::For { .. })));
        // indices are substituted constants
        match &u[1] {
            Stmt::Store { index, .. } => assert_eq!(*index, Expr::ImmI(1)),
            _ => panic!(),
        }
    }

    #[test]
    fn unroll_none_keeps_loop() {
        let (body, mut tys) = loop_kernel(Unroll::None, 4);
        let u = unroll_stmts(&body, &mut tys);
        assert!(u.iter().any(|s| matches!(s, Stmt::For { .. })));
    }

    #[test]
    fn by_factor_covers_small_constant_loop() {
        let (body, mut tys) = loop_kernel(Unroll::By(8), 4);
        let u = unroll_stmts(&body, &mut tys);
        assert!(!u.iter().any(|s| matches!(s, Stmt::For { .. })));
    }

    #[test]
    fn partial_unroll_emits_main_and_remainder() {
        let mut k = DslKernel::new("t");
        let out = k.param_ptr("out");
        let n = k.param("n", Ty::S32);
        k.for_(0i64, n, 1, Unroll::By(4), |k, i| {
            k.st_global(out.clone(), i, Ty::S32, 1i32);
        });
        let def = k.finish();
        let mut tys = def.var_tys.clone();
        let u = unroll_stmts(&def.body, &mut tys);
        // let main_end; For (unrolled x4); While remainder
        assert!(matches!(u[0], Stmt::Let(..)));
        match &u[1] {
            Stmt::For { step, body, .. } => {
                assert_eq!(*step, 4);
                assert_eq!(
                    body.iter()
                        .filter(|s| matches!(s, Stmt::Store { .. }))
                        .count(),
                    4
                );
            }
            other => panic!("expected main loop, got {other:?}"),
        }
        assert!(matches!(u[2], Stmt::While { .. }));
        assert_eq!(tys.len(), def.var_tys.len() + 1);
    }

    #[test]
    fn full_unroll_with_runtime_bound_is_ignored() {
        let mut k = DslKernel::new("t");
        let out = k.param_ptr("out");
        let n = k.param("n", Ty::S32);
        k.for_(0i64, n, 1, Unroll::Full, |k, i| {
            k.st_global(out.clone(), i, Ty::S32, 1i32);
        });
        let def = k.finish();
        let mut tys = def.var_tys.clone();
        let u = unroll_stmts(&def.body, &mut tys);
        assert!(matches!(
            u[0],
            Stmt::For {
                unroll: Unroll::None,
                ..
            }
        ));
    }

    #[test]
    fn negative_step_full_unroll() {
        let mut k = DslKernel::new("t");
        let out = k.param_ptr("out");
        k.for_(3i64, 0i64, -1, Unroll::Full, |k, i| {
            k.store(Space::Global, out.clone(), i, Ty::S32, 1i32);
        });
        let def = k.finish();
        let mut tys = def.var_tys.clone();
        let u = unroll_stmts(&def.body, &mut tys);
        let indices: Vec<_> = u
            .iter()
            .filter_map(|s| match s {
                Stmt::Store { index, .. } => Some(index.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(indices, vec![Expr::ImmI(3), Expr::ImmI(2), Expr::ImmI(1)]);
    }

    #[test]
    fn nested_loops_unroll_inner_first() {
        let mut k = DslKernel::new("t");
        let out = k.param_ptr("out");
        let n = k.param("n", Ty::S32);
        k.for_(0i64, n, 1, Unroll::None, |k, i| {
            k.for_(0i64, 2i64, 1, Unroll::Full, |k, j| {
                k.st_global(out.clone(), i.clone() * 2i32 + j, Ty::S32, 1i32);
            });
        });
        let def = k.finish();
        let mut tys = def.var_tys.clone();
        let u = unroll_stmts(&def.body, &mut tys);
        match &u[0] {
            Stmt::For { body, .. } => {
                let stores = body
                    .iter()
                    .filter(|s| matches!(s, Stmt::Store { .. }))
                    .count();
                assert_eq!(stores, 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn a_read_modify_write_is_carried_through_local_memory() {
        // acc = acc + i, then 80 stores: 4 x 81 statements unrolled, over
        // the demotion threshold. The statement reads acc before it
        // writes it, so acc is upward-exposed and carried.
        let mut k = DslKernel::new("t");
        let out = k.param_ptr("out");
        let n = k.param("n", Ty::S32);
        let acc = k.let_(Ty::S32, 0i32);
        k.for_(0i64, n, 1, Unroll::By(4), |k, i| {
            k.assign(acc, Expr::from(acc) + i.clone());
            for _ in 0..80 {
                k.st_global(out.clone(), i.clone(), Ty::S32, acc);
            }
        });
        let def = k.finish();
        let mut tys = def.var_tys.clone();
        let opts = UnrollOpts {
            demote_carried_vars: true,
            ..UnrollOpts::default()
        };
        let mut local = 0;
        let u = unroll_stmts_with(&def.body, &mut tys, &opts, &mut local);
        assert_eq!(local, 4, "one S32 slot");
        // let acc; let main_end; main loop; epilogue restore; remainder
        let Stmt::For { body, .. } = &u[2] else {
            panic!("expected the main loop, got {:?}", u[2]);
        };
        assert!(matches!(
            &body[0],
            Stmt::Store { space: Space::Local, value: Expr::Var(v), .. } if *v == acc
        ));
        assert!(matches!(
            &u[3],
            Stmt::Assign(v, Expr::Load { space: Space::Local, .. }) if *v == acc
        ));
        assert!(matches!(u[4], Stmt::While { .. }));
    }
}
