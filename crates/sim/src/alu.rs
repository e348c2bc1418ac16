//! Scalar ALU semantics and raw byte-level memory helpers.
//!
//! These are pure free functions shared by both execution tiers — the
//! reference interpreter in [`crate::exec`] and the warp-wide dispatch loop
//! in [`crate::dispatch`] — so tier parity of scalar arithmetic holds by
//! construction.
//!
//! **NaN bits are part of bit-identity.** Every NaN a float operation
//! produces (`alu1`/`alu2`/`alu3` on float types, conversions to or from a
//! float type) comes from exactly one out-of-line body (`#[inline(never)]`).
//! Rust does not pin the payload or sign of a NaN result: x86 returns the
//! first operand's NaN, and LLVM may swap the operands of a commutative
//! float op differently in each inlined copy — in a vectorised lane loop
//! and in its scalar tail, say — so an inlined float op could make a NaN
//! depend on lane position or warp width. Every non-NaN result of the ops
//! in [`un_f32`], [`bin_f32`] and `mul_add` is fixed bit for bit by
//! IEEE 754 (each rounds once, and nothing sets flush-to-zero), so the
//! decoded tier inlines those into lane loops and sends only the lanes
//! that come out NaN through the out-of-line body. Integer bodies produce
//! no NaNs and are `#[inline(always)]`, so warp-wide loops can specialise
//! them.

use crate::error::FaultKind;
use crate::mem::{load_le, store_le, with_size};
use gpucmp_ptx::{CmpOp, Op1, Op2, Op3, Space, Ty};

/// Run `$body` with `$c` bound to a constant equal to the runtime value
/// `$v` of enum `$e`, one arm per listed variant; any other value runs
/// `$other`.
macro_rules! with_const {
    ($v:expr, $c:ident: $e:ident [$($var:ident)+] => $body:expr $(, _ => $other:expr)?) => {
        match $v {
            $(gpucmp_ptx::$e::$var => {
                const $c: gpucmp_ptx::$e = gpucmp_ptx::$e::$var;
                $body
            })+
            $(_ => $other,)?
        }
    };
}

/// Run `$body` with `$t` bound to a constant equal to the runtime type
/// `$ty`. A lane loop over an `#[inline(always)]` body (an integer ALU op,
/// `load_extend`, a sized memory access) then compiles without a per-lane
/// dispatch on the type.
macro_rules! with_ty {
    ($ty:expr, $t:ident => $body:expr) => {
        crate::alu::with_const!($ty, $t: Ty [Pred B8 B16 B32 B64 S32 S64 U32 U64 F32 F64] => $body)
    };
}

/// [`with_ty!`] for a comparison operator.
macro_rules! with_cmp {
    ($cmp:expr, $c:ident => $body:expr) => {
        crate::alu::with_const!($cmp, $c: CmpOp [Eq Ne Lt Le Gt Ge] => $body)
    };
}
pub(crate) use {with_cmp, with_const, with_ty};

#[inline]
pub(crate) fn f32b(v: u64) -> f32 {
    f32::from_bits(v as u32)
}

#[inline]
pub(crate) fn f64b(v: u64) -> f64 {
    f64::from_bits(v)
}

#[inline]
pub(crate) fn bf32(v: f32) -> u64 {
    v.to_bits() as u64
}

#[inline]
pub(crate) fn bf64(v: f64) -> u64 {
    v.to_bits()
}

pub(crate) fn float_bits(ty: Ty, v: f64) -> u64 {
    match ty {
        Ty::F32 => bf32(v as f32),
        Ty::F64 => bf64(v),
        // Integer context: immediate numeric value.
        _ => v as i64 as u64,
    }
}

/// Zero/sign-extend a freshly loaded value of type `ty` into a register.
#[inline(always)]
pub(crate) fn load_extend(v: u64, ty: Ty) -> u64 {
    match ty {
        Ty::B8 => v & 0xff,
        Ty::B16 => v & 0xffff,
        Ty::S32 => v as u32 as i32 as i64 as u64,
        Ty::U32 | Ty::B32 | Ty::F32 => v & 0xffff_ffff,
        _ => v,
    }
}

/// Unary ALU op on raw register bits.
pub(crate) fn alu1(op: Op1, ty: Ty, v: u64) -> u64 {
    if ty.is_float() {
        alu1_float(op, ty, v)
    } else {
        alu1_int(op, ty, v)
    }
}

/// [`alu1`] on a float type: the one out-of-line body (see module docs).
#[inline(never)]
pub(crate) fn alu1_float(op: Op1, ty: Ty, v: u64) -> u64 {
    match ty {
        Ty::F32 => {
            let x = f32b(v);
            bf32(match op {
                Op1::Neg | Op1::Abs | Op1::Sqrt | Op1::Rsqrt | Op1::Rcp => un_f32(op, x),
                Op1::Sin => x.sin(),
                Op1::Cos => x.cos(),
                Op1::Ex2 => x.exp2(),
                Op1::Lg2 => x.log2(),
                Op1::Not => return !v & 0xffff_ffff,
            })
        }
        Ty::F64 => {
            let x = f64b(v);
            bf64(match op {
                Op1::Neg | Op1::Abs | Op1::Sqrt | Op1::Rsqrt | Op1::Rcp => un_f64(op, x),
                Op1::Sin => x.sin(),
                Op1::Cos => x.cos(),
                Op1::Ex2 => x.exp2(),
                Op1::Lg2 => x.log2(),
                Op1::Not => return !v,
            })
        }
        _ => unreachable!("alu1_float on {ty:?}"),
    }
}

/// The f32 unary ops lane loops inline: each result is correctly rounded
/// (`rsqrt` and `rcp` are a correctly rounded divide), so only NaN bits
/// can differ between inlined copies.
#[inline(always)]
pub(crate) fn un_f32(op: Op1, x: f32) -> f32 {
    match op {
        Op1::Neg => -x,
        Op1::Abs => x.abs(),
        Op1::Sqrt => x.sqrt(),
        Op1::Rsqrt => 1.0 / x.sqrt(),
        Op1::Rcp => 1.0 / x,
        _ => unreachable!("{op:?} is not an inlined float op"),
    }
}

/// [`un_f32`] on f64.
#[inline(always)]
pub(crate) fn un_f64(op: Op1, x: f64) -> f64 {
    match op {
        Op1::Neg => -x,
        Op1::Abs => x.abs(),
        Op1::Sqrt => x.sqrt(),
        Op1::Rsqrt => 1.0 / x.sqrt(),
        Op1::Rcp => 1.0 / x,
        _ => unreachable!("{op:?} is not an inlined float op"),
    }
}

/// [`alu1`] on an integer type.
#[inline(always)]
pub(crate) fn alu1_int(op: Op1, ty: Ty, v: u64) -> u64 {
    match ty {
        Ty::S32 | Ty::U32 | Ty::B32 => {
            let x = v as u32;
            (match op {
                Op1::Neg => (x as i32).wrapping_neg() as u32,
                Op1::Abs => (x as i32).wrapping_abs() as u32,
                Op1::Not => !x,
                _ => unreachable!("SFU op on integer type"),
            }) as u64
        }
        _ => match op {
            Op1::Neg => (v as i64).wrapping_neg() as u64,
            Op1::Abs => (v as i64).wrapping_abs() as u64,
            Op1::Not => !v,
            _ => unreachable!("SFU op on integer type"),
        },
    }
}

/// Binary ALU op on raw register bits; integer division by zero faults.
pub(crate) fn alu2(op: Op2, ty: Ty, a: u64, b: u64) -> Result<u64, FaultKind> {
    if ty.is_float() {
        Ok(alu2_float(op, ty, a, b))
    } else {
        alu2_int(op, ty, a, b)
    }
}

/// [`alu2`] on a float type: the one out-of-line body (see module docs).
#[inline(never)]
pub(crate) fn alu2_float(op: Op2, ty: Ty, a: u64, b: u64) -> u64 {
    match ty {
        Ty::F32 => {
            let (x, y) = (f32b(a), f32b(b));
            bf32(match op {
                Op2::Add | Op2::Sub | Op2::Mul | Op2::Div => bin_f32(op, x, y),
                Op2::Rem => x % y,
                Op2::Min => x.min(y),
                Op2::Max => x.max(y),
                _ => return int_logic(op, a & 0xffff_ffff, b, 32),
            })
        }
        Ty::F64 => {
            let (x, y) = (f64b(a), f64b(b));
            bf64(match op {
                Op2::Add | Op2::Sub | Op2::Mul | Op2::Div => bin_f64(op, x, y),
                Op2::Rem => x % y,
                Op2::Min => x.min(y),
                Op2::Max => x.max(y),
                _ => return int_logic(op, a, b, 64),
            })
        }
        _ => unreachable!("alu2_float on {ty:?}"),
    }
}

/// The f32 binary ops lane loops inline: each result is correctly
/// rounded, so only NaN bits can differ between inlined copies. `min` and
/// `max` stay out of line, because Rust leaves the sign of a zero result
/// of `min(-0, +0)` open.
#[inline(always)]
pub(crate) fn bin_f32(op: Op2, x: f32, y: f32) -> f32 {
    match op {
        Op2::Add => x + y,
        Op2::Sub => x - y,
        Op2::Mul => x * y,
        Op2::Div => x / y,
        _ => unreachable!("{op:?} is not an inlined float op"),
    }
}

/// [`bin_f32`] on f64.
#[inline(always)]
pub(crate) fn bin_f64(op: Op2, x: f64, y: f64) -> f64 {
    match op {
        Op2::Add => x + y,
        Op2::Sub => x - y,
        Op2::Mul => x * y,
        Op2::Div => x / y,
        _ => unreachable!("{op:?} is not an inlined float op"),
    }
}

/// [`alu2`] on an integer type. With a constant `op` and `ty` it inlines
/// to a single expression, which is how the warp-wide loops specialise it.
#[inline(always)]
pub(crate) fn alu2_int(op: Op2, ty: Ty, a: u64, b: u64) -> Result<u64, FaultKind> {
    Ok(match ty {
        Ty::S32 => {
            let (x, y) = (a as u32 as i32, b as u32 as i32);
            (match op {
                Op2::Add => x.wrapping_add(y),
                Op2::Sub => x.wrapping_sub(y),
                Op2::Mul => x.wrapping_mul(y),
                Op2::Div => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x.wrapping_div(y)
                }
                Op2::Rem => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x.wrapping_rem(y)
                }
                Op2::Min => x.min(y),
                Op2::Max => x.max(y),
                Op2::Shr => {
                    let sh = (b as u32).min(63);
                    if sh >= 32 {
                        x >> 31
                    } else {
                        x >> sh
                    }
                }
                _ => return Ok(int_logic(op, a & 0xffff_ffff, b, 32)),
            }) as u32 as u64
        }
        Ty::U32 | Ty::B32 => {
            let (x, y) = (a as u32, b as u32);
            (match op {
                Op2::Add => x.wrapping_add(y),
                Op2::Sub => x.wrapping_sub(y),
                Op2::Mul => x.wrapping_mul(y),
                Op2::Div => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x / y
                }
                Op2::Rem => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x % y
                }
                Op2::Min => x.min(y),
                Op2::Max => x.max(y),
                _ => return Ok(int_logic(op, a & 0xffff_ffff, b, 32)),
            }) as u64
        }
        Ty::S64 => {
            let (x, y) = (a as i64, b as i64);
            (match op {
                Op2::Add => x.wrapping_add(y),
                Op2::Sub => x.wrapping_sub(y),
                Op2::Mul => x.wrapping_mul(y),
                Op2::Div => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x.wrapping_div(y)
                }
                Op2::Rem => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x.wrapping_rem(y)
                }
                Op2::Min => x.min(y),
                Op2::Max => x.max(y),
                Op2::Shr => {
                    let sh = (b as u32).min(127);
                    if sh >= 64 {
                        x >> 63
                    } else {
                        x >> sh
                    }
                }
                _ => return Ok(int_logic(op, a, b, 64)),
            }) as u64
        }
        Ty::U64 | Ty::B64 => {
            let (x, y) = (a, b);
            match op {
                Op2::Add => x.wrapping_add(y),
                Op2::Sub => x.wrapping_sub(y),
                Op2::Mul => x.wrapping_mul(y),
                Op2::Div => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x / y
                }
                Op2::Rem => {
                    if y == 0 {
                        return Err(FaultKind::DivByZero);
                    }
                    x % y
                }
                Op2::Min => x.min(y),
                Op2::Max => x.max(y),
                _ => int_logic(op, a, b, 64),
            }
        }
        Ty::Pred | Ty::B8 | Ty::B16 => int_logic(op, a, b, 64),
        Ty::F32 | Ty::F64 => unreachable!("alu2_int on {ty:?}"),
    })
}

/// and/or/xor/shl/shr on raw bits of the given width.
#[inline(always)]
fn int_logic(op: Op2, a: u64, b: u64, width: u32) -> u64 {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let r = match op {
        Op2::And => a & b,
        Op2::Or => a | b,
        Op2::Xor => a ^ b,
        Op2::Shl => {
            let sh = (b as u32).min(127);
            if sh >= width {
                0
            } else {
                a << sh
            }
        }
        Op2::Shr => {
            let sh = (b as u32).min(127);
            if sh >= width {
                0
            } else {
                (a & mask) >> sh
            }
        }
        _ => unreachable!("int_logic on {op:?}"),
    };
    r & mask
}

/// Ternary ALU op (mad/fma) on raw register bits.
pub(crate) fn alu3(op: Op3, ty: Ty, a: u64, b: u64, c: u64) -> u64 {
    if ty.is_float() {
        alu3_float(op, ty, a, b, c)
    } else {
        alu3_int(ty, a, b, c)
    }
}

/// [`alu3`] on a float type: the one out-of-line body (see module docs).
/// Its non-NaN results equal a hardware fused multiply-add's, since both
/// round once.
#[inline(never)]
pub(crate) fn alu3_float(op: Op3, ty: Ty, a: u64, b: u64, c: u64) -> u64 {
    match ty {
        Ty::F32 => {
            let (x, y, z) = (f32b(a), f32b(b), f32b(c));
            match op {
                // GT200-era mad rounds the intermediate product; the paper's
                // kernels tolerate either, and we use fused for both so the
                // two front-ends produce bit-identical results.
                Op3::Mad | Op3::Fma => bf32(x.mul_add(y, z)),
            }
        }
        Ty::F64 => {
            let (x, y, z) = (f64b(a), f64b(b), f64b(c));
            bf64(x.mul_add(y, z))
        }
        _ => unreachable!("alu3_float on {ty:?}"),
    }
}

/// [`alu3`] on an integer type (mad and fma agree on integers).
#[inline(always)]
pub(crate) fn alu3_int(ty: Ty, a: u64, b: u64, c: u64) -> u64 {
    match ty {
        Ty::S32 | Ty::U32 | Ty::B32 => {
            let r = (a as u32).wrapping_mul(b as u32).wrapping_add(c as u32);
            r as u64
        }
        _ => a.wrapping_mul(b).wrapping_add(c),
    }
}

/// `setp` comparison. It yields a flag, never a NaN, so it may inline.
#[inline(always)]
pub(crate) fn compare(cmp: CmpOp, ty: Ty, a: u64, b: u64) -> bool {
    match ty {
        Ty::F32 => {
            let (x, y) = (f32b(a), f32b(b));
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Ty::F64 => {
            let (x, y) = (f64b(a), f64b(b));
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Ty::S32 => {
            let (x, y) = (a as u32 as i32, b as u32 as i32);
            int_cmp(cmp, x as i64, y as i64)
        }
        Ty::S64 => int_cmp(cmp, a as i64, b as i64),
        Ty::U32 | Ty::B32 => {
            let (x, y) = (a as u32 as u64, b as u32 as u64);
            uint_cmp(cmp, x, y)
        }
        _ => uint_cmp(cmp, a, b),
    }
}

pub(crate) fn int_cmp(cmp: CmpOp, x: i64, y: i64) -> bool {
    match cmp {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

pub(crate) fn uint_cmp(cmp: CmpOp, x: u64, y: u64) -> bool {
    match cmp {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

/// Convert raw bits between scalar types with numeric semantics.
pub(crate) fn convert(v: u64, sty: Ty, dty: Ty) -> u64 {
    if sty.is_float() || dty.is_float() {
        convert_float(v, sty, dty)
    } else {
        convert_num(v, sty, dty)
    }
}

/// [`convert`] to or from a float type: the one out-of-line body (see
/// module docs).
#[inline(never)]
fn convert_float(v: u64, sty: Ty, dty: Ty) -> u64 {
    convert_num(v, sty, dty)
}

/// The conversion itself; inlined as is only for integer-to-integer
/// conversions.
#[inline(always)]
pub(crate) fn convert_num(v: u64, sty: Ty, dty: Ty) -> u64 {
    // Decode source to a numeric domain.
    enum Num {
        I(i64),
        U(u64),
        F(f64),
    }
    let n = match sty {
        Ty::F32 => Num::F(f32b(v) as f64),
        Ty::F64 => Num::F(f64b(v)),
        Ty::S32 => Num::I(v as u32 as i32 as i64),
        Ty::S64 => Num::I(v as i64),
        _ => Num::U(v),
    };
    match dty {
        Ty::F32 => bf32(match n {
            Num::I(x) => x as f32,
            Num::U(x) => x as f32,
            Num::F(x) => x as f32,
        }),
        Ty::F64 => bf64(match n {
            Num::I(x) => x as f64,
            Num::U(x) => x as f64,
            Num::F(x) => x,
        }),
        Ty::S32 => {
            (match n {
                Num::I(x) => x as i32,
                Num::U(x) => x as i32,
                Num::F(x) => x as i32,
            }) as u32 as u64
        }
        Ty::S64 => {
            (match n {
                Num::I(x) => x,
                Num::U(x) => x as i64,
                Num::F(x) => x as i64,
            }) as u64
        }
        Ty::U32 | Ty::B32 => {
            (match n {
                Num::I(x) => x as u32,
                Num::U(x) => x as u32,
                Num::F(x) => x as u32,
            }) as u64
        }
        Ty::B8 => {
            (match n {
                Num::I(x) => x as u8,
                Num::U(x) => x as u8,
                Num::F(x) => x as u8,
            }) as u64
        }
        Ty::B16 => {
            (match n {
                Num::I(x) => x as u16,
                Num::U(x) => x as u16,
                Num::F(x) => x as u16,
            }) as u64
        }
        _ => match n {
            Num::I(x) => x as u64,
            Num::U(x) => x,
            Num::F(x) => x as u64,
        },
    }
}

#[inline(always)]
pub(crate) fn read_bytes(buf: &[u8], addr: u64, size: u32, space: Space) -> Result<u64, FaultKind> {
    crate::mem::check_aligned(space, addr, size)?;
    let a = addr as usize;
    if addr
        .checked_add(size as u64)
        .is_none_or(|e| e > buf.len() as u64)
    {
        return Err(FaultKind::OutOfBounds {
            space,
            addr,
            size,
            limit: buf.len() as u64,
        });
    }
    Ok(with_size!(size, N => load_le::<N>(buf, a)))
}

#[inline(always)]
pub(crate) fn write_bytes(
    buf: &mut [u8],
    addr: u64,
    size: u32,
    value: u64,
    space: Space,
) -> Result<(), FaultKind> {
    crate::mem::check_aligned(space, addr, size)?;
    let a = addr as usize;
    if addr
        .checked_add(size as u64)
        .is_none_or(|e| e > buf.len() as u64)
    {
        return Err(FaultKind::OutOfBounds {
            space,
            addr,
            size,
            limit: buf.len() as u64,
        });
    }
    with_size!(size, N => store_le::<N>(buf, a, value));
    Ok(())
}

#[cfg(test)]
mod alu_tests {
    use super::*;

    #[test]
    fn f32_arithmetic() {
        let a = bf32(3.0);
        let b = bf32(4.0);
        assert_eq!(f32b(alu2(Op2::Add, Ty::F32, a, b).unwrap()), 7.0);
        assert_eq!(f32b(alu2(Op2::Mul, Ty::F32, a, b).unwrap()), 12.0);
        assert_eq!(f32b(alu2(Op2::Max, Ty::F32, a, b).unwrap()), 4.0);
        assert_eq!(f32b(alu3(Op3::Mad, Ty::F32, a, b, bf32(1.0))), 13.0);
    }

    #[test]
    fn s32_wrapping_and_division() {
        let a = i32::MAX as u32 as u64;
        assert_eq!(
            alu2(Op2::Add, Ty::S32, a, 1).unwrap() as u32 as i32,
            i32::MIN
        );
        assert_eq!(
            alu2(Op2::Div, Ty::S32, (-7i32) as u32 as u64, 2).unwrap() as u32 as i32,
            -3
        );
        assert!(matches!(
            alu2(Op2::Div, Ty::S32, 1, 0),
            Err(FaultKind::DivByZero)
        ));
    }

    #[test]
    fn shifts_clamp() {
        assert_eq!(int_logic(Op2::Shl, 1, 40, 32), 0);
        assert_eq!(int_logic(Op2::Shl, 1, 4, 32), 16);
        assert_eq!(int_logic(Op2::Shr, 0x8000_0000, 31, 32), 1);
        // arithmetic shift for s32
        assert_eq!(
            alu2(Op2::Shr, Ty::S32, (-8i32) as u32 as u64, 1).unwrap() as u32 as i32,
            -4
        );
    }

    #[test]
    fn unsigned_compare_differs_from_signed() {
        let a = 0xffff_ffffu64; // -1 as i32, max as u32
        assert!(compare(CmpOp::Lt, Ty::S32, a, 1));
        assert!(!compare(CmpOp::Lt, Ty::U32, a, 1));
    }

    #[test]
    fn conversions() {
        assert_eq!(f32b(convert(bf32(2.75), Ty::F32, Ty::F32)), 2.75);
        assert_eq!(convert(bf32(2.75), Ty::F32, Ty::S32), 2);
        assert_eq!(convert((-3i32) as u32 as u64, Ty::S32, Ty::S64) as i64, -3);
        assert_eq!(f32b(convert(7, Ty::U32, Ty::F32)), 7.0);
        assert_eq!(f64b(convert(bf32(1.5), Ty::F32, Ty::F64)), 1.5);
        // negative float to signed int truncates toward zero
        assert_eq!(convert(bf32(-2.9), Ty::F32, Ty::S32) as u32 as i32, -2);
    }

    #[test]
    fn load_extension() {
        assert_eq!(load_extend(0xffff_ffff_ffff_ffff, Ty::B8), 0xff);
        assert_eq!(
            load_extend(0x0000_0000_8000_0000, Ty::S32),
            0xffff_ffff_8000_0000
        );
        assert_eq!(load_extend(0xdead_beef_0000_0001, Ty::U32), 1);
    }

    #[test]
    fn sfu_ops() {
        assert_eq!(f32b(alu1(Op1::Sqrt, Ty::F32, bf32(9.0))), 3.0);
        assert!((f32b(alu1(Op1::Rsqrt, Ty::F32, bf32(4.0))) - 0.5).abs() < 1e-6);
        assert_eq!(f32b(alu1(Op1::Neg, Ty::F32, bf32(2.0))), -2.0);
        assert_eq!(alu1(Op1::Not, Ty::B32, 0) & 0xffff_ffff, 0xffff_ffff);
    }
}
