//! The kernel DSL: a small structured AST in which all 16 benchmarks are
//! authored exactly once, then lowered by either front-end.
//!
//! This plays the role of the "native kernel" source of the paper's
//! development flow (steps 3-4): the same algorithm text, which the two
//! front-end compilers then translate with their own styles and maturity.

use gpucmp_ptx::{AtomOp, CmpOp, Op1, Op2, Space, Ty};
use std::ops;

/// A DSL variable (mutable scalar).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var {
    /// Index into the kernel's variable table.
    pub id: u32,
    /// Declared scalar type.
    pub ty: Ty,
}

/// An expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer immediate.
    ImmI(i64),
    /// Floating immediate.
    ImmF(f64),
    /// Variable read.
    Var(Var),
    /// Kernel parameter read (slot index); type from the kernel signature.
    Param(u32),
    /// Built-in index value.
    Special(Builtin),
    /// Unary operation.
    Un(Op1, Box<Expr>),
    /// Binary operation.
    Bin(Op2, Box<Expr>, Box<Expr>),
    /// Comparison; type `pred`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Type conversion.
    Cast(Ty, Box<Expr>),
    /// Typed element load: `*(ty*)(base_bytes) [index]`.
    Load {
        /// State space.
        space: Space,
        /// Byte base address (a pointer parameter for global, an immediate
        /// offset for shared/const arrays).
        base: Box<Expr>,
        /// Element index.
        index: Box<Expr>,
        /// Element type.
        ty: Ty,
    },
    /// Texture fetch of element `index` from texture `slot`.
    TexFetch {
        /// Texture slot.
        slot: u8,
        /// Element index.
        index: Box<Expr>,
        /// Element type.
        ty: Ty,
    },
}

/// Built-in work-item indices. CUDA names; the paper's Table I maps the
/// OpenCL terms (`get_local_id` etc.) onto the same values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `threadIdx.x` / `get_local_id(0)`.
    TidX,
    /// `threadIdx.y`.
    TidY,
    /// `threadIdx.z`.
    TidZ,
    /// `blockDim.x` / `get_local_size(0)`.
    NtidX,
    /// `blockDim.y`.
    NtidY,
    /// `blockDim.z`.
    NtidZ,
    /// `blockIdx.x` / `get_group_id(0)`.
    CtaidX,
    /// `blockIdx.y`.
    CtaidY,
    /// `blockIdx.z`.
    CtaidZ,
    /// `gridDim.x` / `get_num_groups(0)`.
    NctaidX,
    /// `gridDim.y`.
    NctaidY,
    /// Lane within the hardware warp/wavefront.
    LaneId,
    /// Hardware warp/wavefront index within the block.
    WarpId,
    /// The hardware warp width of the executing device.
    WarpSize,
}

/// Loop-unrolling hint on a `for` statement (the `#pragma unroll` of the
/// paper's FDTD analysis, Figs 6-7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unroll {
    /// No pragma: front-ends decide by their own policy (neither unrolls).
    None,
    /// `#pragma unroll` — fully unroll (requires constant trip count).
    Full,
    /// `#pragma unroll N` — unroll by factor N (works for runtime trip
    /// counts; a remainder loop is kept).
    By(u32),
}

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// First assignment of a variable.
    Let(Var, Expr),
    /// Reassignment.
    Assign(Var, Expr),
    /// Typed element store.
    Store {
        /// State space.
        space: Space,
        /// Byte base address.
        base: Expr,
        /// Element index.
        index: Expr,
        /// Element type.
        ty: Ty,
        /// Stored value.
        value: Expr,
    },
    /// Structured conditional.
    If {
        /// Predicate expression.
        cond: Expr,
        /// Taken branch.
        then_: Vec<Stmt>,
        /// Fallthrough branch (possibly empty).
        else_: Vec<Stmt>,
    },
    /// Counted loop: `for (var = start; var < end; var += step)`.
    /// `step` may be negative (`var > end` guard).
    For {
        /// Induction variable (S32).
        var: Var,
        /// Initial value.
        start: Expr,
        /// Exclusive bound.
        end: Expr,
        /// Signed step.
        step: i64,
        /// Unroll pragma.
        unroll: Unroll,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Condition-tested loop.
    While {
        /// Continuation predicate, re-evaluated each iteration.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `__syncthreads()` / `barrier(CLK_LOCAL_MEM_FENCE)`.
    Barrier,
    /// Atomic read-modify-write on memory.
    AtomicRmw {
        /// Operation.
        op: AtomOp,
        /// State space (global or shared).
        space: Space,
        /// Byte base address.
        base: Expr,
        /// Element index.
        index: Expr,
        /// Element type.
        ty: Ty,
        /// Operand value.
        value: Expr,
        /// Optional variable receiving the old value.
        old: Option<Var>,
    },
}

/// A shared-memory array handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedArray {
    /// Byte offset within the block's shared memory.
    pub offset: u32,
    /// Element type.
    pub ty: Ty,
    /// Element count.
    pub len: u32,
}

impl SharedArray {
    /// Load element `index`.
    pub fn ld(&self, index: impl Into<Expr>) -> Expr {
        Expr::Load {
            space: Space::Shared,
            base: Box::new(Expr::ImmI(self.offset as i64)),
            index: Box::new(index.into()),
            ty: self.ty,
        }
    }
}

/// A constant-memory array handle (module constant bank).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstArray {
    /// Byte offset within the module constant bank.
    pub offset: u32,
    /// Element type.
    pub ty: Ty,
    /// Element count.
    pub len: u32,
}

impl ConstArray {
    /// Load element `index`.
    pub fn ld(&self, index: impl Into<Expr>) -> Expr {
        Expr::Load {
            space: Space::Const,
            base: Box::new(Expr::ImmI(self.offset as i64)),
            index: Box::new(index.into()),
            ty: self.ty,
        }
    }
}

/// A complete kernel definition in the DSL.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelDef {
    /// Kernel name.
    pub name: String,
    /// Parameter names and types (pointers are `U64`).
    pub params: Vec<(String, Ty)>,
    /// Variable types, indexed by [`Var::id`].
    pub var_tys: Vec<Ty>,
    /// Statically allocated shared memory in bytes.
    pub shared_bytes: u32,
    /// Packed constant-bank bytes referenced by [`ConstArray`] handles.
    pub const_data: Vec<u8>,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

/// Incremental builder for [`KernelDef`] with closure-based structured
/// statements.
#[derive(Debug)]
pub struct DslKernel {
    name: String,
    params: Vec<(String, Ty)>,
    var_tys: Vec<Ty>,
    shared_bytes: u32,
    const_data: Vec<u8>,
    /// Statement sinks; innermost scope last.
    stack: Vec<Vec<Stmt>>,
}

impl DslKernel {
    /// Start a kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DslKernel {
            name: name.into(),
            params: Vec::new(),
            var_tys: Vec::new(),
            shared_bytes: 0,
            const_data: Vec::new(),
            stack: vec![Vec::new()],
        }
    }

    /// Declare a pointer parameter; returns the parameter expression.
    pub fn param_ptr(&mut self, name: impl Into<String>) -> Expr {
        self.param(name, Ty::U64)
    }

    /// Declare a scalar parameter of `ty`.
    pub fn param(&mut self, name: impl Into<String>, ty: Ty) -> Expr {
        self.params.push((name.into(), ty));
        Expr::Param(self.params.len() as u32 - 1)
    }

    /// Declare an uninitialised variable.
    pub fn var(&mut self, ty: Ty) -> Var {
        self.var_tys.push(ty);
        Var {
            id: self.var_tys.len() as u32 - 1,
            ty,
        }
    }

    /// Declare and initialise a variable.
    pub fn let_(&mut self, ty: Ty, value: impl Into<Expr>) -> Var {
        let v = self.var(ty);
        self.push(Stmt::Let(v, value.into()));
        v
    }

    /// Reassign a variable.
    pub fn assign(&mut self, v: Var, value: impl Into<Expr>) {
        self.push(Stmt::Assign(v, value.into()));
    }

    /// Allocate a shared-memory array (16-byte aligned).
    pub fn shared_array(&mut self, ty: Ty, len: u32) -> SharedArray {
        let offset = (self.shared_bytes + 15) & !15;
        self.shared_bytes = offset + len * ty.size_bytes();
        SharedArray { offset, ty, len }
    }

    /// Embed an f32 constant array in the module's constant bank.
    pub fn const_array_f32(&mut self, values: &[f32]) -> ConstArray {
        let offset = (self.const_data.len() as u32 + 15) & !15;
        self.const_data.resize(offset as usize, 0);
        for v in values {
            self.const_data.extend_from_slice(&v.to_le_bytes());
        }
        ConstArray {
            offset,
            ty: Ty::F32,
            len: values.len() as u32,
        }
    }

    /// Embed an i32 constant array in the module's constant bank.
    pub fn const_array_i32(&mut self, values: &[i32]) -> ConstArray {
        let offset = (self.const_data.len() as u32 + 15) & !15;
        self.const_data.resize(offset as usize, 0);
        for v in values {
            self.const_data.extend_from_slice(&v.to_le_bytes());
        }
        ConstArray {
            offset,
            ty: Ty::S32,
            len: values.len() as u32,
        }
    }

    /// Typed element store.
    pub fn store(
        &mut self,
        space: Space,
        base: impl Into<Expr>,
        index: impl Into<Expr>,
        ty: Ty,
        value: impl Into<Expr>,
    ) {
        self.push(Stmt::Store {
            space,
            base: base.into(),
            index: index.into(),
            ty,
            value: value.into(),
        });
    }

    /// Store into a shared array.
    pub fn st_shared(&mut self, arr: SharedArray, index: impl Into<Expr>, value: impl Into<Expr>) {
        self.store(
            Space::Shared,
            Expr::ImmI(arr.offset as i64),
            index,
            arr.ty,
            value,
        );
    }

    /// Store into global memory.
    pub fn st_global(
        &mut self,
        base: impl Into<Expr>,
        index: impl Into<Expr>,
        ty: Ty,
        value: impl Into<Expr>,
    ) {
        self.store(Space::Global, base, index, ty, value);
    }

    /// Structured `if`.
    pub fn if_(&mut self, cond: impl Into<Expr>, f: impl FnOnce(&mut Self)) {
        self.stack.push(Vec::new());
        f(self);
        let then_ = self.stack.pop().expect("scope stack");
        self.push(Stmt::If {
            cond: cond.into(),
            then_,
            else_: Vec::new(),
        });
    }

    /// Structured `if`/`else`.
    pub fn if_else(
        &mut self,
        cond: impl Into<Expr>,
        f: impl FnOnce(&mut Self),
        g: impl FnOnce(&mut Self),
    ) {
        self.stack.push(Vec::new());
        f(self);
        let then_ = self.stack.pop().expect("scope stack");
        self.stack.push(Vec::new());
        g(self);
        let else_ = self.stack.pop().expect("scope stack");
        self.push(Stmt::If {
            cond: cond.into(),
            then_,
            else_,
        });
    }

    /// Counted loop `for (i = start; i < end; i += step)` with an unroll
    /// pragma; the closure receives the induction variable expression.
    pub fn for_(
        &mut self,
        start: impl Into<Expr>,
        end: impl Into<Expr>,
        step: i64,
        unroll: Unroll,
        f: impl FnOnce(&mut Self, Expr),
    ) {
        assert!(step != 0, "zero loop step");
        let var = self.var(Ty::S32);
        self.stack.push(Vec::new());
        f(self, Expr::Var(var));
        let body = self.stack.pop().expect("scope stack");
        self.push(Stmt::For {
            var,
            start: start.into(),
            end: end.into(),
            step,
            unroll,
            body,
        });
    }

    /// Condition-tested loop.
    pub fn while_(&mut self, cond: impl Into<Expr>, f: impl FnOnce(&mut Self)) {
        self.stack.push(Vec::new());
        f(self);
        let body = self.stack.pop().expect("scope stack");
        self.push(Stmt::While {
            cond: cond.into(),
            body,
        });
    }

    /// Block-wide barrier.
    pub fn barrier(&mut self) {
        self.push(Stmt::Barrier);
    }

    /// Atomic read-modify-write; returns a variable holding the old value.
    pub fn atomic(
        &mut self,
        op: AtomOp,
        space: Space,
        base: impl Into<Expr>,
        index: impl Into<Expr>,
        ty: Ty,
        value: impl Into<Expr>,
    ) -> Var {
        let old = self.var(ty);
        self.push(Stmt::AtomicRmw {
            op,
            space,
            base: base.into(),
            index: index.into(),
            ty,
            value: value.into(),
            old: Some(old),
        });
        old
    }

    fn push(&mut self, s: Stmt) {
        self.stack.last_mut().expect("scope stack").push(s);
    }

    /// Finish the kernel definition.
    ///
    /// # Panics
    /// Panics if a structured scope was left open (builder misuse).
    pub fn finish(mut self) -> KernelDef {
        assert_eq!(self.stack.len(), 1, "unclosed scope in kernel builder");
        KernelDef {
            name: self.name,
            params: self.params,
            var_tys: self.var_tys,
            shared_bytes: self.shared_bytes,
            const_data: self.const_data,
            body: self.stack.pop().unwrap(),
        }
    }
}

// ----------------------------------------------------------------------
// Expression construction sugar
// ----------------------------------------------------------------------

impl From<Var> for Expr {
    fn from(v: Var) -> Expr {
        Expr::Var(v)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Expr {
        Expr::ImmI(v as i64)
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::ImmI(v)
    }
}

impl From<u32> for Expr {
    fn from(v: u32) -> Expr {
        Expr::ImmI(v as i64)
    }
}

impl From<f32> for Expr {
    fn from(v: f32) -> Expr {
        Expr::ImmF(v as f64)
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::ImmF(v)
    }
}

impl From<Builtin> for Expr {
    fn from(b: Builtin) -> Expr {
        Expr::Special(b)
    }
}

macro_rules! impl_bin_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<Expr>> ops::$trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}

impl_bin_op!(Add, add, Op2::Add);
impl_bin_op!(Sub, sub, Op2::Sub);
impl_bin_op!(Mul, mul, Op2::Mul);
impl_bin_op!(Div, div, Op2::Div);
impl_bin_op!(Rem, rem, Op2::Rem);
impl_bin_op!(BitAnd, bitand, Op2::And);
impl_bin_op!(BitOr, bitor, Op2::Or);
impl_bin_op!(BitXor, bitxor, Op2::Xor);
impl_bin_op!(Shl, shl, Op2::Shl);
impl_bin_op!(Shr, shr, Op2::Shr);

impl Expr {
    /// `min(self, rhs)`.
    pub fn min_(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Bin(Op2::Min, Box::new(self), Box::new(rhs.into()))
    }

    /// `max(self, rhs)`.
    pub fn max_(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Bin(Op2::Max, Box::new(self), Box::new(rhs.into()))
    }

    /// Comparison producing a predicate.
    pub fn cmp(self, op: CmpOp, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(rhs.into()))
    }

    /// `self == rhs`.
    pub fn eq_(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Eq, rhs)
    }

    /// `self != rhs`.
    pub fn ne_(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Ne, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Ge, rhs)
    }

    /// Unary negation. Named like the DSL's other builders rather than
    /// going through `std::ops::Neg`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::Un(Op1::Neg, Box::new(self))
    }

    /// Absolute value.
    pub fn abs(self) -> Expr {
        Expr::Un(Op1::Abs, Box::new(self))
    }

    /// Square root.
    pub fn sqrt(self) -> Expr {
        Expr::Un(Op1::Sqrt, Box::new(self))
    }

    /// Reciprocal square root.
    pub fn rsqrt(self) -> Expr {
        Expr::Un(Op1::Rsqrt, Box::new(self))
    }

    /// Reciprocal.
    pub fn rcp(self) -> Expr {
        Expr::Un(Op1::Rcp, Box::new(self))
    }

    /// Sine.
    pub fn sin(self) -> Expr {
        Expr::Un(Op1::Sin, Box::new(self))
    }

    /// Cosine.
    pub fn cos(self) -> Expr {
        Expr::Un(Op1::Cos, Box::new(self))
    }

    /// Conversion to `ty`.
    pub fn cast(self, ty: Ty) -> Expr {
        Expr::Cast(ty, Box::new(self))
    }
}

/// `cond ? a : b`.
pub fn select(cond: impl Into<Expr>, a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    Expr::Select(
        Box::new(cond.into()),
        Box::new(a.into()),
        Box::new(b.into()),
    )
}

/// Global element load.
pub fn ld_global(base: impl Into<Expr>, index: impl Into<Expr>, ty: Ty) -> Expr {
    Expr::Load {
        space: Space::Global,
        base: Box::new(base.into()),
        index: Box::new(index.into()),
        ty,
    }
}

/// Texture fetch.
pub fn tex1d(slot: u8, index: impl Into<Expr>, ty: Ty) -> Expr {
    Expr::TexFetch {
        slot,
        index: Box::new(index.into()),
        ty,
    }
}

/// `blockIdx.x * blockDim.x + threadIdx.x` (= `get_global_id(0)`).
pub fn global_id_x() -> Expr {
    Expr::from(Builtin::CtaidX) * Builtin::NtidX + Builtin::TidX
}

/// `blockIdx.y * blockDim.y + threadIdx.y` (= `get_global_id(1)`).
pub fn global_id_y() -> Expr {
    Expr::from(Builtin::CtaidY) * Builtin::NtidY + Builtin::TidY
}

/// Total work-items in dimension 0 (`get_global_size(0)`).
pub fn global_size_x() -> Expr {
    Expr::from(Builtin::NctaidX) * Builtin::NtidX
}

// ----------------------------------------------------------------------
// Traversal
//
// The one place that knows which fields of each variant hold
// sub-expressions and nested bodies. Every pass that walks the tree
// without per-variant behaviour of its own goes through these, so a new
// variant is one exhaustive edit here. Order is field order throughout,
// and it is observable: the lowering prologue loads parameters and
// built-ins in first-occurrence order.
// ----------------------------------------------------------------------

impl Expr {
    /// The direct sub-expressions, in field order (`Select`: cond, then,
    /// else; `Load`: base, index).
    fn children(&self) -> impl Iterator<Item = &Expr> {
        let kids = match self {
            Expr::ImmI(_) | Expr::ImmF(_) | Expr::Var(_) | Expr::Param(_) | Expr::Special(_) => {
                [None, None, None]
            }
            Expr::Un(_, a) | Expr::Cast(_, a) | Expr::TexFetch { index: a, .. } => {
                [Some(&**a), None, None]
            }
            Expr::Bin(_, a, b)
            | Expr::Cmp(_, a, b)
            | Expr::Load {
                base: a, index: b, ..
            } => [Some(&**a), Some(&**b), None],
            Expr::Select(c, a, b) => [Some(&**c), Some(&**a), Some(&**b)],
        };
        kids.into_iter().flatten()
    }

    /// Call `f` on this expression and every sub-expression, pre-order.
    pub(crate) fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Whether `pred` holds for this expression or any sub-expression
    /// (pre-order, stopping at the first hit).
    pub fn any(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        pred(self) || self.children().any(|c| c.any(pred))
    }

    /// The same node with each direct child replaced by `f(child)`, called
    /// in field order. A leaf comes back as a copy.
    pub(crate) fn map_children(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut f = |e: &Expr| Box::new(f(e));
        match self {
            Expr::ImmI(_) | Expr::ImmF(_) | Expr::Var(_) | Expr::Param(_) | Expr::Special(_) => {
                self.clone()
            }
            Expr::Un(op, a) => Expr::Un(*op, f(a)),
            Expr::Bin(op, a, b) => Expr::Bin(*op, f(a), f(b)),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, f(a), f(b)),
            Expr::Select(c, a, b) => Expr::Select(f(c), f(a), f(b)),
            Expr::Cast(ty, a) => Expr::Cast(*ty, f(a)),
            Expr::Load {
                space,
                base,
                index,
                ty,
            } => Expr::Load {
                space: *space,
                base: f(base),
                index: f(index),
                ty: *ty,
            },
            Expr::TexFetch { slot, index, ty } => Expr::TexFetch {
                slot: *slot,
                index: f(index),
                ty: *ty,
            },
        }
    }

    /// A copy with every read of a variable `v` for which `with(v)` gives
    /// an expression replaced by that expression.
    pub(crate) fn replace_vars(&self, with: &impl Fn(Var) -> Option<Expr>) -> Expr {
        match self {
            Expr::Var(v) => with(*v).unwrap_or_else(|| self.clone()),
            _ => self.map_children(|c| c.replace_vars(with)),
        }
    }
}

impl Stmt {
    /// The statement's own expressions, in field order (`Store` and
    /// `AtomicRmw`: base, index, value; `For`: start, end). Nested bodies
    /// are not included.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let es = match self {
            Stmt::Let(_, e)
            | Stmt::Assign(_, e)
            | Stmt::If { cond: e, .. }
            | Stmt::While { cond: e, .. } => [Some(e), None, None],
            Stmt::For { start, end, .. } => [Some(start), Some(end), None],
            Stmt::Store {
                base, index, value, ..
            }
            | Stmt::AtomicRmw {
                base, index, value, ..
            } => [Some(base), Some(index), Some(value)],
            Stmt::Barrier => [None, None, None],
        };
        es.into_iter().flatten()
    }

    /// The nested statement lists, in field order (`If`: then, else).
    fn bodies(&self) -> impl Iterator<Item = &[Stmt]> {
        let bs = match self {
            Stmt::If { then_, else_, .. } => [Some(then_.as_slice()), Some(else_.as_slice())],
            Stmt::For { body, .. } | Stmt::While { body, .. } => [Some(body.as_slice()), None],
            Stmt::Let(..)
            | Stmt::Assign(..)
            | Stmt::Store { .. }
            | Stmt::Barrier
            | Stmt::AtomicRmw { .. } => [None, None],
        };
        bs.into_iter().flatten()
    }

    /// The variable the statement itself writes: a `let` or assignment
    /// target, a `for` induction variable, or an atomic's old-value
    /// capture.
    pub(crate) fn assigned(&self) -> Option<Var> {
        match self {
            Stmt::Let(v, _) | Stmt::Assign(v, _) | Stmt::For { var: v, .. } => Some(*v),
            Stmt::AtomicRmw { old, .. } => *old,
            Stmt::Store { .. } | Stmt::If { .. } | Stmt::While { .. } | Stmt::Barrier => None,
        }
    }

    /// The same statement with each own expression replaced by
    /// `expr(e)` and each nested body by `body(b)`, both in field order
    /// (expressions first).
    pub(crate) fn map(
        &self,
        mut expr: impl FnMut(&Expr) -> Expr,
        mut body: impl FnMut(&[Stmt]) -> Vec<Stmt>,
    ) -> Stmt {
        match self {
            Stmt::Let(v, e) => Stmt::Let(*v, expr(e)),
            Stmt::Assign(v, e) => Stmt::Assign(*v, expr(e)),
            Stmt::Store {
                space,
                base,
                index,
                ty,
                value,
            } => Stmt::Store {
                space: *space,
                base: expr(base),
                index: expr(index),
                ty: *ty,
                value: expr(value),
            },
            Stmt::If { cond, then_, else_ } => Stmt::If {
                cond: expr(cond),
                then_: body(then_),
                else_: body(else_),
            },
            Stmt::For {
                var,
                start,
                end,
                step,
                unroll,
                body: b,
            } => Stmt::For {
                var: *var,
                start: expr(start),
                end: expr(end),
                step: *step,
                unroll: *unroll,
                body: body(b),
            },
            Stmt::While { cond, body: b } => Stmt::While {
                cond: expr(cond),
                body: body(b),
            },
            Stmt::Barrier => Stmt::Barrier,
            Stmt::AtomicRmw {
                op,
                space,
                base,
                index,
                ty,
                value,
                old,
            } => Stmt::AtomicRmw {
                op: *op,
                space: *space,
                base: expr(base),
                index: expr(index),
                ty: *ty,
                value: expr(value),
                old: *old,
            },
        }
    }
}

/// Call `f` on every statement of `body`, nested bodies included,
/// pre-order: a statement before the bodies it holds.
pub fn walk_stmts(body: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for s in body {
        f(s);
        for b in s.bodies() {
            walk_stmts(b, f);
        }
    }
}

/// Number of statements in `body`, nested bodies included.
pub fn stmt_count(body: &[Stmt]) -> usize {
    let mut n = 0;
    walk_stmts(body, &mut |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_sugar_builds_trees() {
        let e = (Expr::from(1i32) + 2i32) * 3i32;
        match e {
            Expr::Bin(Op2::Mul, l, r) => {
                assert!(matches!(*l, Expr::Bin(Op2::Add, _, _)));
                assert_eq!(*r, Expr::ImmI(3));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn builder_scopes_nest() {
        let mut k = DslKernel::new("t");
        let p = k.param_ptr("out");
        let i = k.let_(Ty::S32, global_id_x());
        k.if_(Expr::from(i).lt(100i32), |k| {
            k.for_(0i32, 4i32, 1, Unroll::Full, |k, j| {
                k.st_global(p.clone(), Expr::from(i) + j, Ty::S32, 7i32);
            });
        });
        let def = k.finish();
        assert_eq!(def.body.len(), 2); // let + if
        match &def.body[1] {
            Stmt::If { then_, .. } => assert!(matches!(then_[0], Stmt::For { .. })),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "unclosed scope")]
    fn unclosed_scope_panics() {
        let mut k = DslKernel::new("t");
        k.stack.push(Vec::new());
        let _ = k.finish();
    }

    #[test]
    fn shared_and_const_arrays_are_aligned() {
        let mut k = DslKernel::new("t");
        let a = k.shared_array(Ty::F32, 5); // 20 bytes
        let b = k.shared_array(Ty::F32, 4);
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 32);
        let c = k.const_array_f32(&[1.0; 3]);
        let d = k.const_array_i32(&[1, 2]);
        assert_eq!(c.offset, 0);
        assert_eq!(d.offset, 16);
        let def = k.finish();
        assert_eq!(def.shared_bytes, 48);
        assert_eq!(def.const_data.len(), 24);
    }

    const V: [Var; 4] = [
        Var { id: 0, ty: Ty::S32 },
        Var { id: 1, ty: Ty::S32 },
        Var { id: 2, ty: Ty::S32 },
        Var { id: 3, ty: Ty::U32 },
    ];

    /// Three leaves that tell field positions apart.
    fn abc() -> (Expr, Expr, Expr) {
        (Expr::ImmI(1), Expr::Var(V[1]), Expr::Param(2))
    }

    /// One expression of each variant, with its children in field order.
    fn each_expr() -> Vec<(Expr, Vec<Expr>)> {
        let (a, b, c) = abc();
        let bx = |e: &Expr| Box::new(e.clone());
        vec![
            (Expr::ImmI(7), vec![]),
            (Expr::ImmF(0.5), vec![]),
            (Expr::Var(V[0]), vec![]),
            (Expr::Param(0), vec![]),
            (Expr::Special(Builtin::TidX), vec![]),
            (Expr::Un(Op1::Neg, bx(&a)), vec![a.clone()]),
            (
                Expr::Bin(Op2::Sub, bx(&a), bx(&b)),
                vec![a.clone(), b.clone()],
            ),
            (
                Expr::Cmp(CmpOp::Lt, bx(&a), bx(&b)),
                vec![a.clone(), b.clone()],
            ),
            (
                Expr::Select(bx(&a), bx(&b), bx(&c)),
                vec![a.clone(), b.clone(), c.clone()],
            ),
            (Expr::Cast(Ty::F32, bx(&a)), vec![a.clone()]),
            (
                Expr::Load {
                    space: Space::Global,
                    base: bx(&a),
                    index: bx(&b),
                    ty: Ty::F32,
                },
                vec![a.clone(), b.clone()],
            ),
            (
                Expr::TexFetch {
                    slot: 1,
                    index: bx(&a),
                    ty: Ty::F32,
                },
                vec![a],
            ),
        ]
    }

    /// One statement of each variant, with its expressions and bodies in
    /// field order and the variable it assigns.
    #[allow(clippy::type_complexity)]
    fn each_stmt() -> Vec<(Stmt, Vec<Expr>, Vec<Vec<Stmt>>, Option<Var>)> {
        let (a, b, c) = abc();
        let then_ = vec![Stmt::Barrier];
        let else_ = vec![Stmt::Assign(V[1], b.clone())];
        vec![
            (
                Stmt::Let(V[0], a.clone()),
                vec![a.clone()],
                vec![],
                Some(V[0]),
            ),
            (
                Stmt::Assign(V[1], a.clone()),
                vec![a.clone()],
                vec![],
                Some(V[1]),
            ),
            (
                Stmt::Store {
                    space: Space::Global,
                    base: a.clone(),
                    index: b.clone(),
                    ty: Ty::S32,
                    value: c.clone(),
                },
                vec![a.clone(), b.clone(), c.clone()],
                vec![],
                None,
            ),
            (
                Stmt::If {
                    cond: a.clone(),
                    then_: then_.clone(),
                    else_: else_.clone(),
                },
                vec![a.clone()],
                vec![then_.clone(), else_.clone()],
                None,
            ),
            (
                Stmt::For {
                    var: V[2],
                    start: a.clone(),
                    end: b.clone(),
                    step: 1,
                    unroll: Unroll::None,
                    body: else_.clone(),
                },
                vec![a.clone(), b.clone()],
                vec![else_.clone()],
                Some(V[2]),
            ),
            (
                Stmt::While {
                    cond: a.clone(),
                    body: then_.clone(),
                },
                vec![a.clone()],
                vec![then_],
                None,
            ),
            (Stmt::Barrier, vec![], vec![], None),
            (
                Stmt::AtomicRmw {
                    op: AtomOp::Add,
                    space: Space::Global,
                    base: a.clone(),
                    index: b.clone(),
                    ty: Ty::U32,
                    value: c.clone(),
                    old: Some(V[3]),
                },
                vec![a, b, c],
                vec![],
                Some(V[3]),
            ),
        ]
    }

    #[test]
    fn every_variant_is_sampled_once() {
        use std::collections::HashSet;
        use std::mem::discriminant;
        let exprs = each_expr();
        let kinds: HashSet<_> = exprs.iter().map(|(e, _)| discriminant(e)).collect();
        assert_eq!(kinds.len(), exprs.len());
        let stmts = each_stmt();
        let kinds: HashSet<_> = stmts.iter().map(|(s, ..)| discriminant(s)).collect();
        assert_eq!(kinds.len(), stmts.len());
    }

    #[test]
    fn expression_children_come_in_field_order() {
        for (e, kids) in each_expr() {
            assert_eq!(e.children().cloned().collect::<Vec<_>>(), kids, "{e:?}");
            // a one-level rebuild calls its closure in the same order
            let mut seen = Vec::new();
            let rebuilt = e.map_children(|c| {
                seen.push(c.clone());
                c.clone()
            });
            assert_eq!(rebuilt, e);
            assert_eq!(seen, kids, "{e:?}");
        }
    }

    #[test]
    fn statement_parts_come_in_field_order() {
        for (s, exprs, bodies, assigned) in each_stmt() {
            assert_eq!(s.exprs().cloned().collect::<Vec<_>>(), exprs, "{s:?}");
            assert_eq!(s.bodies().map(<[Stmt]>::to_vec).collect::<Vec<_>>(), bodies);
            assert_eq!(s.assigned(), assigned, "{s:?}");
            let (mut seen_exprs, mut seen_bodies) = (Vec::new(), Vec::new());
            let rebuilt = s.map(
                |e| {
                    seen_exprs.push(e.clone());
                    e.clone()
                },
                |b| {
                    seen_bodies.push(b.to_vec());
                    b.to_vec()
                },
            );
            assert_eq!(rebuilt, s);
            assert_eq!((seen_exprs, seen_bodies), (exprs, bodies), "{s:?}");
        }
    }

    #[test]
    fn visits_are_pre_order() {
        // select(a < b, -c, ld[a + b])
        let (a, b, c) = abc();
        let cond = a.clone().lt(b.clone());
        let neg = c.clone().neg();
        let sum = a.clone() + b.clone();
        let load = ld_global(a.clone(), sum.clone(), Ty::S32);
        let e = select(cond.clone(), neg.clone(), load.clone());
        let mut seen = Vec::new();
        e.visit(&mut |x| seen.push(x.clone()));
        let pre_order = [&e, &cond, &a, &b, &neg, &c, &load, &a, &sum, &a, &b];
        assert_eq!(seen.iter().collect::<Vec<_>>(), pre_order);
        // `any` stops at the first hit: `b` is the fourth node
        let mut calls = 0;
        assert!(e.any(&mut |x| {
            calls += 1;
            *x == b
        }));
        assert_eq!(calls, 4);
        assert!(!e.any(&mut |x| matches!(x, Expr::ImmF(_))));
    }

    #[test]
    fn replace_vars_reaches_every_position() {
        let (a, b, _) = abc();
        let e = select(
            b.clone(),
            ld_global(b.clone(), b.clone(), Ty::F32),
            a.clone(),
        );
        let five = Expr::ImmI(5);
        let replaced = e.replace_vars(&|v| (v == V[1]).then(|| five.clone()));
        let want = select(five.clone(), ld_global(five.clone(), five, Ty::F32), a);
        assert_eq!(replaced, want);
        // nothing to replace: an equal copy
        assert_eq!(e.replace_vars(&|_| None), e);
    }

    #[test]
    fn statement_walk_is_pre_order() {
        let inner = Stmt::For {
            var: V[2],
            start: Expr::ImmI(0),
            end: Expr::ImmI(2),
            step: 1,
            unroll: Unroll::None,
            body: vec![Stmt::Barrier],
        };
        let branch = Stmt::If {
            cond: Expr::ImmI(1),
            then_: vec![Stmt::Let(V[0], Expr::ImmI(3))],
            else_: vec![inner.clone()],
        };
        let last = Stmt::Assign(V[0], Expr::ImmI(4));
        let body = vec![branch.clone(), last.clone()];
        let mut seen = Vec::new();
        walk_stmts(&body, &mut |s| seen.push(s.clone()));
        let pre_order = vec![
            branch,
            Stmt::Let(V[0], Expr::ImmI(3)),
            inner,
            Stmt::Barrier,
            last,
        ];
        assert_eq!(seen, pre_order);
        assert_eq!(stmt_count(&body), 5);
    }

    #[test]
    fn atomic_returns_old_value_var() {
        let mut k = DslKernel::new("t");
        let p = k.param_ptr("ctr");
        let old = k.atomic(AtomOp::Add, Space::Global, p, 0i32, Ty::U32, 1i32);
        assert_eq!(old.ty, Ty::U32);
        let def = k.finish();
        assert!(matches!(def.body[0], Stmt::AtomicRmw { old: Some(_), .. }));
    }
}
