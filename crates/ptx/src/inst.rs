//! The instruction set.

use crate::kernel::LabelId;
use crate::reg::{Operand, Reg};
use crate::ty::{Space, Ty};

/// Unary operations (`neg`, `abs`, `not`, and the special-function-unit
/// transcendentals PTX exposes as `sqrt.approx`, `rsqrt.approx`, `sin.approx`
/// and so on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op1 {
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Bitwise complement (logic class in Table V).
    Not,
    /// Square root (SFU).
    Sqrt,
    /// Reciprocal square root (SFU).
    Rsqrt,
    /// Reciprocal (SFU).
    Rcp,
    /// Sine (SFU).
    Sin,
    /// Cosine (SFU).
    Cos,
    /// Base-2 exponential (SFU).
    Ex2,
    /// Base-2 logarithm (SFU).
    Lg2,
}

impl Op1 {
    /// PTX mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Op1::Neg => "neg",
            Op1::Abs => "abs",
            Op1::Not => "not",
            Op1::Sqrt => "sqrt",
            Op1::Rsqrt => "rsqrt",
            Op1::Rcp => "rcp",
            Op1::Sin => "sin",
            Op1::Cos => "cos",
            Op1::Ex2 => "ex2",
            Op1::Lg2 => "lg2",
        }
    }

    /// Whether this op executes on the special-function unit.
    pub const fn is_sfu(self) -> bool {
        matches!(
            self,
            Op1::Sqrt | Op1::Rsqrt | Op1::Rcp | Op1::Sin | Op1::Cos | Op1::Ex2 | Op1::Lg2
        )
    }
}

/// Binary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op2 {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (low half for integers, as `mul.lo`).
    Mul,
    /// Division (the paper notes `div` is expensive; the CUDA front-end
    /// strength-reduces power-of-two divisions to shifts).
    Div,
    /// Remainder / modulo.
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and (logic class).
    And,
    /// Bitwise or (logic class).
    Or,
    /// Bitwise xor (logic class).
    Xor,
    /// Shift left (shift class).
    Shl,
    /// Shift right — logical for unsigned/bit types, arithmetic for signed.
    Shr,
}

impl Op2 {
    /// PTX mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Op2::Add => "add",
            Op2::Sub => "sub",
            Op2::Mul => "mul",
            Op2::Div => "div",
            Op2::Rem => "rem",
            Op2::Min => "min",
            Op2::Max => "max",
            Op2::And => "and",
            Op2::Or => "or",
            Op2::Xor => "xor",
            Op2::Shl => "shl",
            Op2::Shr => "shr",
        }
    }

    /// Whether the op belongs to the logic class of Table V.
    pub const fn is_logic(self) -> bool {
        matches!(self, Op2::And | Op2::Or | Op2::Xor)
    }

    /// Whether the op belongs to the shift class of Table V.
    pub const fn is_shift(self) -> bool {
        matches!(self, Op2::Shl | Op2::Shr)
    }
}

/// Ternary (three-input) operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op3 {
    /// Multiply-add, `d = a*b + c`. Integer `mad.lo` or float `mad.f32`
    /// (the GT200-era non-fused multiply-add).
    Mad,
    /// Fused multiply-add (float only). The paper's Table V shows the
    /// OpenCL front-end emitting `fma` where CUDA emits separate ops.
    Fma,
}

impl Op3 {
    /// PTX mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Op3::Mad => "mad",
            Op3::Fma => "fma",
        }
    }
}

/// Comparison operators for `setp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// PTX mnemonic, e.g. `lt`.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub const fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The negated comparison (`!(a < b)` ⇔ `a >= b`).
    pub const fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Atomic read-modify-write operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Atomic add.
    Add,
    /// Atomic minimum.
    Min,
    /// Atomic maximum.
    Max,
    /// Atomic exchange.
    Exch,
    /// Atomic compare-and-swap (`b` is the compare value carried in the
    /// instruction's extra operand).
    Cas,
}

impl AtomOp {
    /// PTX mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AtomOp::Add => "add",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::Exch => "exch",
            AtomOp::Cas => "cas",
        }
    }
}

/// A memory address: `base + offset` bytes.
///
/// `base` is a register holding a byte address (or an immediate for
/// absolute addressing into `shared`/`const`/`param` space).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Address {
    /// Base address operand (byte address in the target state space).
    pub base: Operand,
    /// Constant byte offset added to the base.
    pub offset: i64,
}

impl Address {
    /// Address with zero offset.
    pub const fn base(base: Operand) -> Self {
        Address { base, offset: 0 }
    }

    /// Address with a constant byte offset.
    pub const fn with_offset(base: Operand, offset: i64) -> Self {
        Address { base, offset }
    }

    /// An absolute address (base immediate 0 + offset).
    pub const fn absolute(offset: i64) -> Self {
        Address {
            base: Operand::ImmI(0),
            offset,
        }
    }
}

/// A texture reference index.
///
/// The host runtime binds device buffers to texture slots
/// (CUDA `cudaBindTexture`); a [`Inst::Tex`] fetch reads element `idx`
/// of the bound buffer through the texture cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TexRef(pub u8);

/// One instruction of the virtual ISA.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Inst {
    /// Pseudo-instruction marking a branch target. Free at execution time.
    Label(LabelId),
    /// `mov.ty d, a`
    Mov {
        /// Operand type.
        ty: Ty,
        /// Destination register.
        d: Reg,
        /// Source operand.
        a: Operand,
    },
    /// `cvt.dty.sty d, a` — convert between scalar types.
    Cvt {
        /// Destination type.
        dty: Ty,
        /// Source type.
        sty: Ty,
        /// Destination register.
        d: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Unary operation `op.ty d, a`.
    Un {
        /// Operation.
        op: Op1,
        /// Operand type.
        ty: Ty,
        /// Destination register.
        d: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Binary operation `op.ty d, a, b`.
    Bin {
        /// Operation.
        op: Op2,
        /// Operand type.
        ty: Ty,
        /// Destination register.
        d: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Ternary operation `op.ty d, a, b, c` (mad/fma).
    Tern {
        /// Operation.
        op: Op3,
        /// Operand type.
        ty: Ty,
        /// Destination register.
        d: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `setp.cmp.ty p, a, b` — set predicate from comparison.
    Setp {
        /// Comparison operator.
        cmp: CmpOp,
        /// Operand type compared.
        ty: Ty,
        /// Destination predicate register.
        d: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `selp.ty d, a, b, p` — select `a` if `p` else `b`.
    Selp {
        /// Operand type.
        ty: Ty,
        /// Destination register.
        d: Reg,
        /// Value when predicate is true.
        a: Operand,
        /// Value when predicate is false.
        b: Operand,
        /// Predicate register.
        p: Reg,
    },
    /// `ld.space.ty d, [addr]`
    Ld {
        /// State space.
        space: Space,
        /// Access type.
        ty: Ty,
        /// Destination register.
        d: Reg,
        /// Address.
        addr: Address,
    },
    /// `st.space.ty [addr], a`
    St {
        /// State space.
        space: Space,
        /// Access type.
        ty: Ty,
        /// Address.
        addr: Address,
        /// Stored operand.
        a: Operand,
    },
    /// `tex.1d.f32 d, [texref, idx]` — fetch element `idx` (element index,
    /// not byte address) of the buffer bound to `tex` through the texture
    /// cache.
    Tex {
        /// Fetched element type.
        ty: Ty,
        /// Destination register.
        d: Reg,
        /// Texture slot.
        tex: TexRef,
        /// Element index operand.
        idx: Operand,
    },
    /// `atom.space.op.ty d, [addr], b` — atomic read-modify-write; `d`
    /// receives the old value.
    Atom {
        /// State space (global or shared).
        space: Space,
        /// Read-modify-write operation.
        op: AtomOp,
        /// Operand type.
        ty: Ty,
        /// Destination register (old value).
        d: Reg,
        /// Address.
        addr: Address,
        /// Operand value.
        b: Operand,
        /// Compare value for [`AtomOp::Cas`]; ignored otherwise.
        c: Operand,
    },
    /// `bra target` (optionally predicated `@p bra` / `@!p bra`).
    Bra {
        /// Branch target label.
        target: LabelId,
        /// Predicate register and expected polarity (`true` = branch when
        /// predicate set). `None` = unconditional.
        pred: Option<(Reg, bool)>,
    },
    /// Push a reconvergence point (structured-divergence marker, SASS `SSY`).
    Ssy {
        /// The label at which divergent paths reconverge.
        target: LabelId,
    },
    /// Reconvergence point matching the innermost [`Inst::Ssy`].
    SyncPoint,
    /// `bar.sync 0` — block-wide barrier.
    Bar,
    /// Kernel return.
    Ret,
}

impl Inst {
    /// The destination register this instruction writes, if any.
    pub fn def(self) -> Option<Reg> {
        match self {
            Inst::Mov { d, .. }
            | Inst::Cvt { d, .. }
            | Inst::Un { d, .. }
            | Inst::Bin { d, .. }
            | Inst::Tern { d, .. }
            | Inst::Setp { d, .. }
            | Inst::Selp { d, .. }
            | Inst::Ld { d, .. }
            | Inst::Tex { d, .. }
            | Inst::Atom { d, .. } => Some(d),
            _ => None,
        }
    }

    /// Visit every register this instruction *reads*.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        let mut op = |o: &Operand| {
            if let Operand::Reg(r) = o {
                f(*r);
            }
        };
        match self {
            Inst::Label(_) | Inst::Bar | Inst::Ret | Inst::SyncPoint | Inst::Ssy { .. } => {}
            Inst::Mov { a, .. } | Inst::Cvt { a, .. } | Inst::Un { a, .. } => op(a),
            Inst::Bin { a, b, .. } | Inst::Setp { a, b, .. } => {
                op(a);
                op(b);
            }
            Inst::Tern { a, b, c, .. } => {
                op(a);
                op(b);
                op(c);
            }
            Inst::Selp { a, b, p, .. } => {
                op(a);
                op(b);
                f(*p);
            }
            Inst::Ld { addr, .. } => op(&addr.base),
            Inst::St { addr, a, .. } => {
                op(&addr.base);
                op(a);
            }
            Inst::Tex { idx, .. } => op(idx),
            Inst::Atom { addr, b, c, .. } => {
                op(&addr.base);
                op(b);
                op(c);
            }
            Inst::Bra { pred, .. } => {
                if let Some((p, _)) = pred {
                    f(*p);
                }
            }
        }
    }

    /// Rewrite every register reference (both defs and uses) through `f`.
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        let map_op = |o: &mut Operand, f: &mut dyn FnMut(Reg) -> Reg| {
            if let Operand::Reg(r) = o {
                *r = f(*r);
            }
        };
        match self {
            Inst::Label(_) | Inst::Bar | Inst::Ret | Inst::SyncPoint | Inst::Ssy { .. } => {}
            Inst::Mov { d, a, .. } | Inst::Cvt { d, a, .. } | Inst::Un { d, a, .. } => {
                *d = f(*d);
                map_op(a, &mut f);
            }
            Inst::Bin { d, a, b, .. } | Inst::Setp { d, a, b, .. } => {
                *d = f(*d);
                map_op(a, &mut f);
                map_op(b, &mut f);
            }
            Inst::Tern { d, a, b, c, .. } => {
                *d = f(*d);
                map_op(a, &mut f);
                map_op(b, &mut f);
                map_op(c, &mut f);
            }
            Inst::Selp { d, a, b, p, .. } => {
                *d = f(*d);
                map_op(a, &mut f);
                map_op(b, &mut f);
                *p = f(*p);
            }
            Inst::Ld { d, addr, .. } => {
                *d = f(*d);
                map_op(&mut addr.base, &mut f);
            }
            Inst::St { addr, a, .. } => {
                map_op(&mut addr.base, &mut f);
                map_op(a, &mut f);
            }
            Inst::Tex { d, idx, .. } => {
                *d = f(*d);
                map_op(idx, &mut f);
            }
            Inst::Atom { d, addr, b, c, .. } => {
                *d = f(*d);
                map_op(&mut addr.base, &mut f);
                map_op(b, &mut f);
                map_op(c, &mut f);
            }
            Inst::Bra { pred, .. } => {
                if let Some((p, _)) = pred {
                    *p = f(*p);
                }
            }
        }
    }

    /// Whether the instruction has an architectural side effect (memory
    /// write, atomic, barrier, control flow) and therefore must never be
    /// removed by dead-code elimination.
    pub const fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Inst::St { .. }
                | Inst::Atom { .. }
                | Inst::Bar
                | Inst::Ret
                | Inst::Bra { .. }
                | Inst::Ssy { .. }
                | Inst::SyncPoint
                | Inst::Label(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            op: Op2::Add,
            ty: Ty::S32,
            d: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::ImmI(4),
        };
        assert_eq!(i.def(), Some(Reg(0)));
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(1)]);
    }

    #[test]
    fn store_has_no_def_but_uses_both() {
        let i = Inst::St {
            space: Space::Global,
            ty: Ty::F32,
            addr: Address::base(Operand::Reg(Reg(2))),
            a: Operand::Reg(Reg(3)),
        };
        assert_eq!(i.def(), None);
        assert!(i.has_side_effect());
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(2), Reg(3)]);
    }

    #[test]
    fn map_regs_rewrites_everything() {
        let mut i = Inst::Tern {
            op: Op3::Mad,
            ty: Ty::F32,
            d: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
            c: Operand::Reg(Reg(3)),
        };
        i.map_regs(|r| Reg(r.0 + 10));
        match i {
            Inst::Tern { d, a, b, c, .. } => {
                assert_eq!(d, Reg(10));
                assert_eq!(a, Operand::Reg(Reg(11)));
                assert_eq!(b, Operand::Reg(Reg(12)));
                assert_eq!(c, Operand::Reg(Reg(13)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn cmp_op_algebra() {
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.negated(), CmpOp::Ne);
        for c in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(c.negated().negated(), c);
            assert_eq!(c.swapped().swapped(), c);
        }
    }

    #[test]
    fn sfu_classification() {
        assert!(Op1::Rsqrt.is_sfu());
        assert!(!Op1::Neg.is_sfu());
        assert!(Op2::And.is_logic());
        assert!(Op2::Shl.is_shift());
        assert!(!Op2::Add.is_logic());
    }
}
