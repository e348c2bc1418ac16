//! Constant folding.
//!
//! The folding *level* is the single biggest maturity difference between the
//! two front-ends (the paper's Table V analysis): after full unrolling the
//! CUDA front-end folds index arithmetic, comparisons, selects and even
//! transcendentals of constants down to immediates, while the OpenCL
//! front-end only folds trivial integer arithmetic and leaves the rest as
//! runtime instructions.

use crate::ast::{Expr, Stmt};
use gpucmp_ptx::{CmpOp, Op1, Op2};

/// How aggressively to fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldLevel {
    /// Fold everything: integer and float arithmetic, algebraic identities,
    /// comparisons, selects, casts, and math intrinsics of constants
    /// (NVOPENCC-style).
    Aggressive,
    /// Fold only integer arithmetic on two immediates (early OpenCL
    /// front-end style).
    Basic,
}

/// Fold an expression tree.
pub fn fold_expr(e: &Expr, level: FoldLevel) -> Expr {
    match e {
        Expr::Un(op, a) => {
            let a = fold_expr(a, level);
            if level == FoldLevel::Aggressive {
                if let Some(v) = imm_f(&a) {
                    let r = match op {
                        Op1::Neg => -v,
                        Op1::Abs => v.abs(),
                        Op1::Sqrt => v.sqrt(),
                        Op1::Rsqrt => 1.0 / v.sqrt(),
                        Op1::Rcp => 1.0 / v,
                        Op1::Sin => v.sin(),
                        Op1::Cos => v.cos(),
                        Op1::Ex2 => v.exp2(),
                        Op1::Lg2 => v.log2(),
                        Op1::Not => {
                            return match a {
                                Expr::ImmI(i) => Expr::ImmI(!i),
                                _ => Expr::Un(Op1::Not, Box::new(a)),
                            }
                        }
                    };
                    // Keep integer immediates integral where the source was.
                    return match (&a, op) {
                        (Expr::ImmI(i), Op1::Neg) => Expr::ImmI(-i),
                        (Expr::ImmI(i), Op1::Abs) => Expr::ImmI(i.abs()),
                        _ => Expr::ImmF(round_f32(r)),
                    };
                }
            }
            Expr::Un(*op, Box::new(a))
        }
        Expr::Bin(op, a, b) => {
            let a = fold_expr(a, level);
            let b = fold_expr(b, level);
            // Integer-integer folding (both levels).
            if let (Expr::ImmI(x), Expr::ImmI(y)) = (&a, &b) {
                if let Some(v) = fold_int(*op, *x, *y) {
                    return Expr::ImmI(v);
                }
            }
            if level == FoldLevel::Aggressive {
                // Float-float folding.
                if let (Some(x), Some(y)) = (imm_f(&a), imm_f(&b)) {
                    if !matches!(op, Op2::And | Op2::Or | Op2::Xor | Op2::Shl | Op2::Shr) {
                        let v = match op {
                            Op2::Add => x + y,
                            Op2::Sub => x - y,
                            Op2::Mul => x * y,
                            Op2::Div => x / y,
                            Op2::Rem => x % y,
                            Op2::Min => x.min(y),
                            Op2::Max => x.max(y),
                            _ => unreachable!(),
                        };
                        if matches!((&a, &b), (Expr::ImmF(_), _) | (_, Expr::ImmF(_))) {
                            return Expr::ImmF(round_f32(v));
                        }
                    }
                }
                // Algebraic identities.
                match (*op, &a, &b) {
                    (Op2::Add, x, Expr::ImmI(0)) | (Op2::Sub, x, Expr::ImmI(0)) => {
                        return x.clone()
                    }
                    (Op2::Add, Expr::ImmI(0), x) => return x.clone(),
                    (Op2::Mul, x, Expr::ImmI(1)) | (Op2::Div, x, Expr::ImmI(1)) => {
                        return x.clone()
                    }
                    (Op2::Mul, Expr::ImmI(1), x) => return x.clone(),
                    (Op2::Mul, _, Expr::ImmI(0)) | (Op2::Mul, Expr::ImmI(0), _) => {
                        return Expr::ImmI(0)
                    }
                    (Op2::Shl, x, Expr::ImmI(0)) | (Op2::Shr, x, Expr::ImmI(0)) => {
                        return x.clone()
                    }
                    (Op2::And, _, Expr::ImmI(0)) | (Op2::And, Expr::ImmI(0), _) => {
                        return Expr::ImmI(0)
                    }
                    (Op2::Or, x, Expr::ImmI(0)) | (Op2::Xor, x, Expr::ImmI(0)) => return x.clone(),
                    (Op2::Or, Expr::ImmI(0), x) | (Op2::Xor, Expr::ImmI(0), x) => return x.clone(),
                    (Op2::Rem, _, Expr::ImmI(1)) => return Expr::ImmI(0),
                    // Zero elision must respect the zero's sign to stay
                    // IEEE-exact: x + (+0.0) rewrites -0.0 to +0.0, and
                    // x - (-0.0) does the same, so only the sign-preserving
                    // pairings may fold.
                    (Op2::Add, x, Expr::ImmF(f)) if *f == 0.0 && f.is_sign_negative() => {
                        return x.clone()
                    }
                    (Op2::Sub, x, Expr::ImmF(f)) if *f == 0.0 && f.is_sign_positive() => {
                        return x.clone()
                    }
                    (Op2::Mul, x, Expr::ImmF(f)) if *f == 1.0 => return x.clone(),
                    _ => {}
                }
            }
            Expr::Bin(*op, Box::new(a), Box::new(b))
        }
        Expr::Cmp(op, a, b) => {
            let a = fold_expr(a, level);
            let b = fold_expr(b, level);
            if level == FoldLevel::Aggressive {
                if let (Expr::ImmI(x), Expr::ImmI(y)) = (&a, &b) {
                    return Expr::ImmI(cmp_int(*op, *x, *y) as i64);
                }
                if let (Expr::ImmF(x), Expr::ImmF(y)) = (&a, &b) {
                    let r = match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    };
                    return Expr::ImmI(r as i64);
                }
            }
            Expr::Cmp(*op, Box::new(a), Box::new(b))
        }
        Expr::Select(c, a, b) => {
            let c = fold_expr(c, level);
            let a = fold_expr(a, level);
            let b = fold_expr(b, level);
            if level == FoldLevel::Aggressive {
                if let Expr::ImmI(v) = c {
                    return if v != 0 { a } else { b };
                }
            }
            Expr::Select(Box::new(c), Box::new(a), Box::new(b))
        }
        Expr::Cast(ty, a) => {
            let a = fold_expr(a, level);
            if level == FoldLevel::Aggressive {
                match (&a, ty) {
                    (Expr::ImmI(v), t) if t.is_float() => return Expr::ImmF(*v as f64),
                    (Expr::ImmI(v), _) => return Expr::ImmI(*v),
                    (Expr::ImmF(v), t) if !t.is_float() => return Expr::ImmI(*v as i64),
                    (Expr::ImmF(v), _) => return Expr::ImmF(*v),
                    _ => {}
                }
            }
            Expr::Cast(*ty, Box::new(a))
        }
        // leaves, and nodes that fold only inside
        _ => e.map_children(|c| fold_expr(c, level)),
    }
}

/// Fold all expressions in a statement tree; with [`FoldLevel::Aggressive`],
/// `if` statements whose condition folded to a constant are pruned to the
/// live branch.
pub fn fold_stmts(stmts: &[Stmt], level: FoldLevel) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        let s = s.map(|e| fold_expr(e, level), |b| fold_stmts(b, level));
        match s {
            Stmt::If {
                cond: Expr::ImmI(v),
                then_,
                else_,
            } if level == FoldLevel::Aggressive => out.extend(if v != 0 { then_ } else { else_ }),
            s => out.push(s),
        }
    }
    out
}

/// Evaluate one integer binary op; `None` for division by zero (left as a
/// runtime trap), shift overflow, or a signedness-sensitive op whose
/// reading depends on the type lowering gives it.
fn fold_int(op: Op2, x: i64, y: i64) -> Option<i64> {
    // S32 and U32 divide, take remainders, compare and shift right
    // differently once a value is negative (or 32-bit-truncating), and the
    // op's type is unknown here: fold only where every reading agrees and
    // leave the rest to the runtime op.
    let agnostic = |v: i64| (0..=i32::MAX as i64).contains(&v);
    Some(match op {
        Op2::Add => x.wrapping_add(y),
        Op2::Sub => x.wrapping_sub(y),
        Op2::Mul => x.wrapping_mul(y),
        Op2::Div | Op2::Rem | Op2::Min | Op2::Max if !(agnostic(x) && agnostic(y)) => return None,
        Op2::Div | Op2::Rem if y == 0 => return None,
        Op2::Div => x / y,
        Op2::Rem => x % y,
        Op2::Min => x.min(y),
        Op2::Max => x.max(y),
        Op2::And => x & y,
        Op2::Or => x | y,
        Op2::Xor => x ^ y,
        Op2::Shl => {
            if !(0..64).contains(&y) {
                return None;
            }
            x.wrapping_shl(y as u32)
        }
        Op2::Shr => {
            if !(0..64).contains(&y) || !agnostic(x) {
                return None;
            }
            x >> y
        }
    })
}

fn cmp_int(op: CmpOp, x: i64, y: i64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

fn imm_f(e: &Expr) -> Option<f64> {
    match e {
        Expr::ImmF(v) => Some(*v),
        Expr::ImmI(v) => Some(*v as f64),
        _ => None,
    }
}

/// Round a folded double to f32 precision, matching what the runtime f32
/// instruction would have produced (keeps CUDA-folded and OpenCL-computed
/// results bit-identical for f32 kernels).
fn round_f32(v: f64) -> f64 {
    v as f32 as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::select;
    use gpucmp_ptx::Ty;

    #[test]
    fn basic_folds_int_arith_only() {
        let e = Expr::from(3i32) * 4i32 + 5i32;
        assert_eq!(fold_expr(&e, FoldLevel::Basic), Expr::ImmI(17));
        let c = Expr::from(3i32).lt(4i32);
        // comparisons survive Basic folding
        assert!(matches!(fold_expr(&c, FoldLevel::Basic), Expr::Cmp(..)));
        assert_eq!(fold_expr(&c, FoldLevel::Aggressive), Expr::ImmI(1));
    }

    #[test]
    fn aggressive_folds_selects_and_math() {
        let e = select(Expr::from(1i32).lt(2i32), 10f32, 20f32);
        assert_eq!(fold_expr(&e, FoldLevel::Aggressive), Expr::ImmF(10.0));
        let s = Expr::from(9.0f32).sqrt();
        assert_eq!(fold_expr(&s, FoldLevel::Aggressive), Expr::ImmF(3.0));
        assert!(matches!(fold_expr(&s, FoldLevel::Basic), Expr::Un(..)));
    }

    #[test]
    #[allow(clippy::erasing_op)]
    fn identities() {
        let v = Expr::Var(crate::ast::Var { id: 0, ty: Ty::S32 });
        let e = v.clone() * 1i32 + 0i32;
        assert_eq!(fold_expr(&e, FoldLevel::Aggressive), v);
        let z = v.clone() * 0i32;
        assert_eq!(fold_expr(&z, FoldLevel::Aggressive), Expr::ImmI(0));
        // Basic keeps them
        assert!(matches!(fold_expr(&e, FoldLevel::Basic), Expr::Bin(..)));
    }

    #[test]
    fn division_by_zero_not_folded() {
        let e = Expr::from(1i32) / 0i32;
        assert!(matches!(
            fold_expr(&e, FoldLevel::Aggressive),
            Expr::Bin(..)
        ));
    }

    #[test]
    fn if_with_constant_condition_pruned() {
        let v = crate::ast::Var { id: 0, ty: Ty::S32 };
        let s = Stmt::If {
            cond: Expr::from(3i32).gt(5i32),
            then_: vec![Stmt::Let(v, Expr::ImmI(1))],
            else_: vec![Stmt::Let(v, Expr::ImmI(2))],
        };
        let folded = fold_stmts(std::slice::from_ref(&s), FoldLevel::Aggressive);
        assert_eq!(folded, vec![Stmt::Let(v, Expr::ImmI(2))]);
        let kept = fold_stmts(&[s], FoldLevel::Basic);
        assert!(matches!(kept[0], Stmt::If { .. }));
    }

    #[test]
    fn zero_elision_preserves_float_signs() {
        let v = Expr::Var(crate::ast::Var { id: 0, ty: Ty::F32 });
        // x + (+0.0) rewrites a negative-zero x to +0.0: must NOT fold.
        let e = v.clone() + 0.0f32;
        assert!(matches!(
            fold_expr(&e, FoldLevel::Aggressive),
            Expr::Bin(..)
        ));
        // x + (-0.0) and x - (+0.0) are exact identities: fold.
        let e = Expr::Bin(Op2::Add, Box::new(v.clone()), Box::new(Expr::ImmF(-0.0)));
        assert_eq!(fold_expr(&e, FoldLevel::Aggressive), v);
        let e = v.clone() - 0.0f32;
        assert_eq!(fold_expr(&e, FoldLevel::Aggressive), v);
        // x - (-0.0) rewrites negative zero too: must NOT fold.
        let e = Expr::Bin(Op2::Sub, Box::new(v.clone()), Box::new(Expr::ImmF(-0.0)));
        assert!(matches!(
            fold_expr(&e, FoldLevel::Aggressive),
            Expr::Bin(..)
        ));
    }

    #[test]
    fn shr_of_negative_left_to_runtime() {
        // S32 shifts arithmetically, U32 logically; the fold doesn't know
        // the result type, so a negative operand must survive folding.
        let e = Expr::Bin(Op2::Shr, Box::new(Expr::ImmI(-5)), Box::new(Expr::ImmI(3)));
        assert!(matches!(
            fold_expr(&e, FoldLevel::Aggressive),
            Expr::Bin(..)
        ));
        // A non-negative 32-bit value reads the same under every shift
        // semantics: folds.
        let e = Expr::Bin(Op2::Shr, Box::new(Expr::ImmI(40)), Box::new(Expr::ImmI(3)));
        assert_eq!(fold_expr(&e, FoldLevel::Aggressive), Expr::ImmI(5));
    }

    #[test]
    fn signedness_sensitive_ops_fold_only_on_non_negative_operands() {
        // max(-8, 5) is 5 as S32 but 0xFFFFFFF8 as U32, and div(-7, 2) is
        // -3 as S32 but 0x7FFFFFFC as U32: both stay runtime ops.
        let imm = |v: i64| Box::new(Expr::ImmI(v));
        for level in [FoldLevel::Basic, FoldLevel::Aggressive] {
            for e in [
                Expr::Bin(Op2::Max, imm(-8), imm(5)),
                Expr::Bin(Op2::Div, imm(-7), imm(2)),
            ] {
                assert!(matches!(fold_expr(&e, level), Expr::Bin(..)), "{e:?}");
            }
            // Every reading agrees on div(7, 2): folds.
            let e = Expr::Bin(Op2::Div, imm(7), imm(2));
            assert_eq!(fold_expr(&e, level), Expr::ImmI(3));
        }
    }

    #[test]
    fn f32_rounding_matches_runtime() {
        // 0.1f32 + 0.2f32 in f32 arithmetic
        let e = Expr::from(0.1f32) + 0.2f32;
        match fold_expr(&e, FoldLevel::Aggressive) {
            Expr::ImmF(v) => assert_eq!(v as f32, 0.1f32 + 0.2f32),
            other => panic!("expected folded, got {other:?}"),
        }
    }
}
