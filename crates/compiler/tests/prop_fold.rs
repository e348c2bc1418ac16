//! Property test: constant folding preserves the semantics of integer
//! expression trees at both maturity levels.

use gpucmp_compiler::fold::{fold_expr, FoldLevel};
use gpucmp_compiler::{Expr, Var};
use gpucmp_ptx::{CmpOp, Op2, Ty};
use proptest::prelude::*;

/// Reference evaluator over the folder's own integer domain (wrapping
/// i64, the image PTX front-ends fold in; the final 32-bit truncation
/// happens at the store and is congruent for +,-,x and the bitwise ops).
fn eval(e: &Expr, env: &[i64]) -> Option<i64> {
    Some(match e {
        Expr::ImmI(v) => *v,
        Expr::Var(v) => env[v.id as usize],
        Expr::Bin(op, a, b) => {
            let (x, y) = (eval(a, env)?, eval(b, env)?);
            match op {
                Op2::Add => x.wrapping_add(y),
                Op2::Sub => x.wrapping_sub(y),
                Op2::Mul => x.wrapping_mul(y),
                Op2::Div => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_div(y)
                }
                Op2::Rem => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_rem(y)
                }
                Op2::Min => x.min(y),
                Op2::Max => x.max(y),
                Op2::And => x & y,
                Op2::Or => x | y,
                Op2::Xor => x ^ y,
                Op2::Shl | Op2::Shr => return None, // not generated
            }
        }
        Expr::Cmp(op, a, b) => {
            let (x, y) = (eval(a, env)?, eval(b, env)?);
            let r = match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            };
            r as i64
        }
        Expr::Select(c, a, b) => {
            if eval(c, env)? != 0 {
                eval(a, env)?
            } else {
                eval(b, env)?
            }
        }
        _ => return None,
    })
}

/// Whether the folder must leave `e` to the runtime: a
/// signedness-sensitive op (div, rem, min, max) on immediates, one of
/// them outside [0, i32::MAX], whose value depends on the type lowering
/// gives it.
fn sign_dependent(e: &Expr) -> bool {
    let agnostic = |v: &Expr| matches!(v, Expr::ImmI(x) if (0..=i32::MAX as i64).contains(x));
    matches!(e, Expr::Bin(Op2::Div | Op2::Rem | Op2::Min | Op2::Max, a, b)
        if matches!((&**a, &**b), (Expr::ImmI(_), Expr::ImmI(_)))
            && !(agnostic(a) && agnostic(b)))
}

/// Whether `e` is a division by an immediate zero, which the folder
/// leaves as a runtime trap.
fn div_by_zero(e: &Expr) -> bool {
    matches!(e, Expr::Bin(Op2::Div | Op2::Rem, _, b) if **b == Expr::ImmI(0))
}

/// Whether every operand of the node `e` is an immediate.
fn stuck(e: &Expr) -> bool {
    let imm = |x: &Expr| matches!(x, Expr::ImmI(_));
    match e {
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => imm(a) && imm(b),
        Expr::Select(c, a, b) => imm(c) && imm(a) && imm(b),
        _ => false,
    }
}

const NVARS: usize = 4;

/// Random S32 expression trees. Immediates stay small so that wrapping
/// behaviour in the 64-bit folder and the 32-bit evaluator coincide.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-64i64..64).prop_map(Expr::ImmI),
        (0u32..NVARS as u32).prop_map(|id| Expr::Var(Var { id, ty: Ty::S32 })),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(Op2::Add),
                    Just(Op2::Sub),
                    Just(Op2::Mul),
                    Just(Op2::Div),
                    Just(Op2::Rem),
                    Just(Op2::Min),
                    Just(Op2::Max),
                    Just(Op2::And),
                    Just(Op2::Or),
                    Just(Op2::Xor),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            (
                prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Lt), Just(CmpOp::Ge),],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Cmp(op, Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| Expr::Select(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn folding_preserves_semantics(e in arb_expr(), env in prop::array::uniform4(-100i64..100)) {
        let env = env.to_vec();
        if let Some(want) = eval(&e, &env) {
            for level in [FoldLevel::Basic, FoldLevel::Aggressive] {
                let folded = fold_expr(&e, level);
                let got = eval(&folded, &env);
                prop_assert_eq!(
                    got, Some(want),
                    "level {:?}: {:?} -> {:?}", level, e, folded
                );
            }
        }
    }

    #[test]
    fn aggressive_folds_closed_expressions_to_immediates(e in arb_expr()) {
        // An expression with no variables folds to an immediate unless a
        // sign-dependent op blocks it. Then every node left with only
        // immediates below it is such an op, or a trapping division in a
        // select arm the evaluator never took (the select's condition
        // holds a sign-dependent op).
        let closed = gpucmp_compiler::unroll::subst_stmt(
            &gpucmp_compiler::Stmt::Let(Var { id: NVARS as u32, ty: Ty::S32 }, e),
            Var { id: 0, ty: Ty::S32 },
            &Expr::ImmI(3),
        );
        let closed = gpucmp_compiler::unroll::subst_stmt(&closed, Var { id: 1, ty: Ty::S32 }, &Expr::ImmI(-5));
        let closed = gpucmp_compiler::unroll::subst_stmt(&closed, Var { id: 2, ty: Ty::S32 }, &Expr::ImmI(7));
        let closed = gpucmp_compiler::unroll::subst_stmt(&closed, Var { id: 3, ty: Ty::S32 }, &Expr::ImmI(0));
        let gpucmp_compiler::Stmt::Let(_, inner) = &closed else { unreachable!() };
        let env = vec![3, -5, 7, 0];
        if eval(inner, &env).is_some() {
            let folded = fold_expr(inner, FoldLevel::Aggressive);
            let blocked = folded.any(&mut sign_dependent)
                && !folded.any(&mut |n| stuck(n) && !sign_dependent(n) && !div_by_zero(n));
            prop_assert!(
                matches!(folded, Expr::ImmI(_)) || blocked,
                "closed expr did not fold: {:?} -> {:?}", inner, folded
            );
        }
    }

    #[test]
    fn folding_is_idempotent(e in arb_expr()) {
        for level in [FoldLevel::Basic, FoldLevel::Aggressive] {
            let once = fold_expr(&e, level);
            let twice = fold_expr(&once, level);
            prop_assert_eq!(&once, &twice);
        }
    }
}
