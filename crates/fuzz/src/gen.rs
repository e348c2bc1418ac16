//! The seeded kernel generator: random-but-well-formed kernels over the
//! `gpucmp-compiler` AST, plus the case metadata (launch geometry, buffer
//! contents, scalars) needed to run them.
//!
//! Shaped on cranelift's `fuzzgen`: a budgeted recursive generator with
//! type-directed expression synthesis and semantic guard rails. The guard
//! rails exist to rule out *by-design* divergences between the two
//! front-ends, so that every divergence the oracle reports is a real bug:
//!
//! - memory indices are guarded (`(e & 0x3fff) % len`) so accesses stay in
//!   bounds — except the occasional deliberate out-of-bounds store emitted
//!   as a top-level statement for fault-equivalence coverage;
//! - integer division/remainder denominators are clamped to `1..=16` and
//!   shift amounts masked to `0..=7` (the ALU would fault / clamp anyway,
//!   but a conditional fault inside a `select` arm would legitimately
//!   diverge: the CUDA front-end folds constant selects while the runtime
//!   `selp` evaluates both arms);
//! - transcendental float ops (`sin`, `cos`, `rsqrt`, `rcp`, `ex2`, `lg2`)
//!   always receive an operand containing a dynamic leaf, because constant
//!   folding computes them in f64 and rounds, which is bit-exact for
//!   `+ - * / sqrt` (the 2p+2 double-rounding theorem) but not for
//!   transcendentals;
//! - `sqrt` operands are wrapped in `abs` (NaN payloads of `sqrt(-x)`
//!   differ between a folded f64 NaN and a native f32 NaN on some targets);
//! - a float multiply feeding the generator never has two constant
//!   operands, so the OpenCL front-end's `fma` fusion and the CUDA
//!   backend's `mad` fusion see the same shape (a folded constant multiply
//!   on one side but a fused `fma` on the other would round differently);
//! - a float `add` never takes a `mul`-rooted operand: the OpenCL
//!   front-end contracts `a*b + c` to a single-rounding `mad` while the
//!   CUDA front-end keeps the two-rounding `mul`+`add` — a documented
//!   1-ulp asymmetry, so `a*b - c` shapes stand in for fused arithmetic;
//! - assignments never target the thread-id variable (own-slot stores
//!   index by it — mutating it would reintroduce write races) or a live
//!   loop induction variable (the constant trip bound is what keeps
//!   generated loops finite);
//! - barriers are emitted only where every thread reaches them (top level
//!   and constant-trip-count top-level loops, never under an `if`);
//! - atomics are integer, commutative (`add`/`min`/`max`) and never
//!   capture the old value, so results are schedule-independent;
//! - warp-layout builtins (`laneid`, `warpid`, `warpsize`) are never
//!   generated: they are the documented FL-corruption surface (paper
//!   Table VI) and would legitimately differ across device models.
//!   Hand-written corpus cases cover them with `device-exempt` set.

use crate::rng::Rng;
use gpucmp_compiler::ast::{stmt_count, walk_stmts, Builtin, Expr, KernelDef, Stmt, Unroll, Var};
use gpucmp_ptx::{AtomOp, CmpOp, Op1, Op2, Space, Ty};

/// A device buffer backing one pointer parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferSpec {
    /// Element type (`S32`, `U32` or `F32`).
    pub ty: Ty,
    /// Element count.
    pub len: u32,
    /// Seed for the deterministic initial contents.
    pub init: u64,
}

impl BufferSpec {
    /// Byte size of the buffer.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * self.ty.size_bytes() as u64
    }

    /// The deterministic initial contents as raw little-endian bytes.
    pub fn data(&self) -> Vec<u8> {
        let mut rng = Rng::new(self.init);
        let mut bytes = Vec::with_capacity(self.bytes() as usize);
        for _ in 0..self.len {
            let raw = rng.next_u64();
            match self.ty {
                Ty::F32 => {
                    // Finite, smallish magnitudes: plenty of signal without
                    // overflow to inf in short arithmetic chains.
                    let v = ((raw % 2048) as f32 - 1024.0) / 128.0;
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                _ => {
                    let v = ((raw % 512) as i32) - 256;
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        bytes
    }
}

/// A scalar kernel parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalarSpec {
    /// 32-bit signed integer.
    I32(i32),
    /// 32-bit float.
    F32(f32),
}

/// One complete fuzz case: a kernel plus everything needed to launch it.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// Case name (diagnostic only).
    pub name: String,
    /// The seed that generated the case (0 for hand-written corpus cases).
    pub seed: u64,
    /// Grid extent in blocks (1-D).
    pub grid: u32,
    /// Block extent in threads (1-D).
    pub block: u32,
    /// Pointer parameters, in parameter-slot order (slots `0..bufs.len()`).
    pub bufs: Vec<BufferSpec>,
    /// Scalar parameters, in slot order after the pointers.
    pub scalars: Vec<ScalarSpec>,
    /// Dynamic warp-instruction budget override (watchdog cases). A set
    /// budget exempts the case from the device axis: the budget counts
    /// *warp* instructions, which scale with the device's warp width.
    pub inst_budget: Option<u64>,
    /// Explicit exemption from the device-comparison axis (hand-written
    /// warp-sensitive corpus cases; the documented Table VI FL surface).
    pub device_exempt: bool,
    /// The kernel.
    pub def: KernelDef,
}

impl FuzzCase {
    /// Total statement count (nested bodies included) — the reducer's
    /// minimality metric.
    pub fn stmt_count(&self) -> usize {
        stmt_count(&self.def.body)
    }

    /// Whether the case participates in the device-comparison axis.
    /// Kernels whose results depend on the warp layout (warp builtins) or
    /// on the warp-instruction budget are exempt — the documented
    /// FL-corruption exemption.
    pub fn device_portable(&self) -> bool {
        !self.device_exempt && self.inst_budget.is_none() && !uses_warp_builtins(&self.def)
    }
}

/// Whether the kernel reads any warp-layout builtin.
fn uses_warp_builtins(def: &KernelDef) -> bool {
    let mut found = false;
    walk_stmts(&def.body, &mut |s| {
        for e in s.exprs() {
            found |= e.any(&mut |e| {
                matches!(
                    e,
                    Expr::Special(Builtin::LaneId | Builtin::WarpId | Builtin::WarpSize)
                )
            });
        }
    });
    found
}

/// Whether an expression contains no dynamic leaf (fully constant-foldable).
fn is_const(e: &Expr) -> bool {
    !e.any(&mut |e| {
        matches!(
            e,
            Expr::Var(_)
                | Expr::Param(_)
                | Expr::Special(_)
                | Expr::Load { .. }
                | Expr::TexFetch { .. }
        )
    })
}

/// How generated code may touch one buffer. The roles make every case
/// race-free by construction: results must not depend on the order in
/// which warps execute, because that order legitimately differs across
/// device models (warp width 4/32/64 partitions the block differently).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Role {
    /// Read-only: loads with arbitrary (guarded) indices; never written.
    In,
    /// Written only at each thread's own `global_id` slot (injective
    /// across the whole grid), never read. Conflict-free.
    Out,
    /// Touched only by atomic RMW with this single commutative-associative
    /// op, so the final value is independent of execution order. Never
    /// loaded or plainly stored.
    Atomic(AtomOp),
}

/// Generator state for one case.
struct Gen {
    rng: Rng,
    block: u32,
    bufs: Vec<BufferSpec>,
    roles: Vec<Role>,
    scalars: Vec<ScalarSpec>,
    /// The `global_id` variable (always var 0, bound first).
    gid: Var,
    var_tys: Vec<Ty>,
    /// In-scope integer variables (S32/U32).
    int_vars: Vec<Var>,
    /// In-scope float variables.
    float_vars: Vec<Var>,
    /// Induction variables of the loops currently being generated.
    /// Readable like any other int var, but never an `Assign` target —
    /// mutating one can defeat the loop bound and hang the kernel.
    loop_vars: Vec<Var>,
    /// Shared-memory array, if allocated: (element type, element count).
    shared: Option<(Ty, u32)>,
    /// Constant-bank array, if embedded: (element type, element count).
    const_arr: Option<(Ty, u32)>,
    const_data: Vec<u8>,
}

/// Block sizes ≤ 256 so every case fits the smallest `max_workgroup_size`
/// in the device catalogue; odd sizes exercise partial warps on every
/// warp width.
const BLOCKS: [u32; 7] = [1, 4, 32, 33, 64, 128, 256];
const BUF_LENS: [u32; 6] = [8, 16, 33, 64, 100, 256];
const IMM_F: [f64; 8] = [0.0, 0.5, 1.0, -1.5, 2.0, -2.25, 3.25, 0.125];

/// Generate the case for `seed`.
pub fn generate(seed: u64) -> FuzzCase {
    let mut rng = Rng::new(seed);
    let grid = rng.range(1, 5) as u32;
    let block = *rng.pick(&BLOCKS);

    let nbufs = rng.range(1, 4) as usize;
    let mut bufs = Vec::new();
    let mut roles = Vec::new();
    for i in 0..nbufs {
        let ty = *rng.pick(&[Ty::F32, Ty::S32, Ty::U32]);
        let len = *rng.pick(&BUF_LENS);
        bufs.push(BufferSpec {
            ty,
            len,
            init: seed ^ (0x5151_0000 + i as u64),
        });
        // Buffer 0 is always writable (the mandatory observable store);
        // the rest split between inputs, outputs and atomic accumulators.
        let role = if i == 0 {
            Role::Out
        } else if rng.chance(2, 5) {
            Role::In
        } else if ty != Ty::F32 && rng.chance(2, 5) {
            Role::Atomic(*rng.pick(&[AtomOp::Add, AtomOp::Min, AtomOp::Max]))
        } else {
            Role::Out
        };
        roles.push(role);
    }
    let nscalars = rng.range(0, 3) as usize;
    let mut scalars = Vec::new();
    for _ in 0..nscalars {
        if rng.chance(1, 2) {
            scalars.push(ScalarSpec::I32(rng.range(-8, 65) as i32));
        } else {
            scalars.push(ScalarSpec::F32(*rng.pick(&IMM_F) as f32 + 0.5));
        }
    }

    let mut g = Gen {
        rng,
        block,
        bufs,
        roles,
        scalars,
        // Placeholder; rebound to the real first var below.
        gid: Var { id: 0, ty: Ty::S32 },
        var_tys: Vec::new(),
        int_vars: Vec::new(),
        float_vars: Vec::new(),
        loop_vars: Vec::new(),
        shared: None,
        const_arr: None,
        const_data: Vec::new(),
    };

    // Optional shared scratchpad: one element per thread (race-free by
    // construction: each thread writes only its own slot).
    if g.block > 1 && g.rng.chance(1, 2) {
        let ty = *g.rng.pick(&[Ty::F32, Ty::S32]);
        g.shared = Some((ty, g.block));
    }
    // Optional constant-bank table.
    if g.rng.chance(1, 4) {
        let ty = *g.rng.pick(&[Ty::F32, Ty::S32]);
        let len = g.rng.range(4, 17) as u32;
        let mut data = Vec::new();
        for _ in 0..len {
            match ty {
                Ty::F32 => {
                    let v = ((g.rng.next_u64() % 256) as f32 - 128.0) / 16.0;
                    data.extend_from_slice(&v.to_le_bytes());
                }
                _ => {
                    let v = ((g.rng.next_u64() % 64) as i32) - 32;
                    data.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        g.const_arr = Some((ty, len));
        g.const_data = data;
    }

    let mut body = Vec::new();
    // Seed the scope with the global thread id: it guarantees a dynamic
    // int leaf exists from the start, and it is the injective per-thread
    // slot index that makes output stores conflict-free.
    let gid = g.fresh_var(Ty::S32);
    g.gid = gid;
    body.push(Stmt::Let(
        gid,
        Expr::Bin(
            Op2::Add,
            Box::new(Expr::Bin(
                Op2::Mul,
                Box::new(Expr::Special(Builtin::CtaidX)),
                Box::new(Expr::Special(Builtin::NtidX)),
            )),
            Box::new(Expr::Special(Builtin::TidX)),
        ),
    ));
    g.int_vars.push(gid);

    let n = g.rng.range(3, 10);
    for _ in 0..n {
        g.stmt(&mut body, 0, true);
    }
    // Make sure something observable happened: always end with an
    // own-slot store of a fresh expression to buffer 0.
    let st = g.own_slot_store(0);
    body.push(st);

    // Occasional deliberate out-of-bounds store (fault-equivalence case),
    // guarded to a single thread, indexed far past every allocation so it
    // faults hard outside memcheck and is recorded under memcheck.
    if g.rng.chance(1, 16) {
        let buf = 0usize;
        let ty = g.bufs[buf].ty;
        body.push(Stmt::If {
            cond: Expr::Cmp(CmpOp::Eq, Box::new(Expr::Var(gid)), Box::new(Expr::ImmI(0))),
            then_: vec![Stmt::Store {
                space: Space::Global,
                base: Expr::Param(buf as u32),
                index: Expr::ImmI(g.bufs[buf].len as i64 + 1_000_000),
                ty,
                value: match ty {
                    Ty::F32 => Expr::ImmF(1.0),
                    _ => Expr::ImmI(1),
                },
            }],
            else_: Vec::new(),
        });
    }

    let mut params: Vec<(String, Ty)> = g
        .bufs
        .iter()
        .enumerate()
        .map(|(i, _)| (format!("buf{i}"), Ty::U64))
        .collect();
    for (i, s) in g.scalars.iter().enumerate() {
        let ty = match s {
            ScalarSpec::I32(_) => Ty::S32,
            ScalarSpec::F32(_) => Ty::F32,
        };
        params.push((format!("scl{i}"), ty));
    }
    let shared_bytes = g.shared.map(|(ty, len)| len * ty.size_bytes()).unwrap_or(0);

    let def = KernelDef {
        name: format!("fuzz_{seed:016x}"),
        params,
        var_tys: g.var_tys.clone(),
        shared_bytes,
        const_data: g.const_data.clone(),
        body,
    };
    FuzzCase {
        name: format!("gen-{seed:016x}"),
        seed,
        grid,
        block: g.block,
        bufs: g.bufs.clone(),
        scalars: g.scalars.clone(),
        inst_budget: None,
        device_exempt: false,
        def,
    }
}

impl Gen {
    fn fresh_var(&mut self, ty: Ty) -> Var {
        self.var_tys.push(ty);
        Var {
            id: self.var_tys.len() as u32 - 1,
            ty,
        }
    }

    /// Parameter-slot index of the `i`-th scalar.
    fn scalar_slot(&self, i: usize) -> u32 {
        (self.bufs.len() + i) as u32
    }

    /// A dynamic (never constant-foldable) integer leaf.
    fn dyn_int_leaf(&mut self) -> Expr {
        if !self.int_vars.is_empty() && self.rng.chance(2, 3) {
            Expr::Var(*self.rng.pick(&self.int_vars))
        } else {
            let b = *self.rng.pick(&[
                Builtin::TidX,
                Builtin::CtaidX,
                Builtin::NtidX,
                Builtin::NctaidX,
            ]);
            Expr::Special(b)
        }
    }

    /// A dynamic float leaf.
    fn dyn_float_leaf(&mut self) -> Expr {
        if !self.float_vars.is_empty() && self.rng.chance(2, 3) {
            Expr::Var(*self.rng.pick(&self.float_vars))
        } else {
            let l = self.dyn_int_leaf();
            Expr::Cast(Ty::F32, Box::new(l))
        }
    }

    /// Keep a `Mul`-rooted expression out of a float `Add` operand slot:
    /// `a*b + c` is contracted to a one-rounding mad by the OpenCL
    /// front-end but kept as two-rounding mul+add by the CUDA one, so the
    /// shape is not differential-testable. (Basic folding never *creates*
    /// a `Mul` root, so enforcing this at generation time is enough.)
    fn defused(&mut self, e: Expr) -> Expr {
        if matches!(e, Expr::Bin(Op2::Mul, _, _)) {
            self.dyn_float_leaf()
        } else {
            e
        }
    }

    /// A guarded in-bounds element index for a table of `len` elements:
    /// `(e & 0x3fff) % len` — non-negative and `< len` for any `e`.
    fn guarded_index(&mut self, len: u32, depth: u32) -> Expr {
        let e = self.int_expr(depth + 1);
        Expr::Bin(
            Op2::Rem,
            Box::new(Expr::Bin(
                Op2::And,
                Box::new(e),
                Box::new(Expr::ImmI(0x3fff)),
            )),
            Box::new(Expr::ImmI(len as i64)),
        )
    }

    /// A guarded load from a random *read-only* source (an `In`-role
    /// global buffer or the constant table — never a written buffer or
    /// shared memory, whose cross-thread visibility is schedule-dependent
    /// outside the barrier-fenced pattern); `None` if no source of the
    /// wanted class exists.
    fn guarded_load(&mut self, want_float: bool, depth: u32) -> Option<Expr> {
        let mut sources: Vec<(Space, u32, Ty, u32)> = Vec::new(); // (space, base-slot/offset, ty, len)
        for (i, b) in self.bufs.iter().enumerate() {
            if self.roles[i] == Role::In && (b.ty == Ty::F32) == want_float {
                sources.push((Space::Global, i as u32, b.ty, b.len));
            }
        }
        if let Some((ty, len)) = self.const_arr {
            if (ty == Ty::F32) == want_float {
                sources.push((Space::Const, 0, ty, len));
            }
        }
        if sources.is_empty() {
            return None;
        }
        let (space, base, ty, len) = *self.rng.pick(&sources);
        let index = self.guarded_index(len, depth);
        let base = match space {
            Space::Global => Expr::Param(base),
            _ => Expr::ImmI(base as i64),
        };
        Some(Expr::Load {
            space,
            base: Box::new(base),
            index: Box::new(index),
            ty,
        })
    }

    /// A random integer-valued expression.
    fn int_expr(&mut self, depth: u32) -> Expr {
        if depth >= 4 || self.rng.chance(1, 3) {
            // Leaves.
            let mut choices = 3u64;
            let has_iscalar = self.scalars.iter().any(|s| matches!(s, ScalarSpec::I32(_)));
            if has_iscalar {
                choices += 1;
            }
            return match self.rng.below(choices) {
                0 => Expr::ImmI(self.rng.range(-16, 65)),
                1 | 2 => self.dyn_int_leaf(),
                _ => {
                    let idx = self
                        .scalars
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| matches!(s, ScalarSpec::I32(_)))
                        .map(|(i, _)| i)
                        .collect::<Vec<_>>();
                    let i = *self.rng.pick(&idx);
                    Expr::Param(self.scalar_slot(i))
                }
            };
        }
        match self.rng.below(10) {
            0..=3 => {
                let op =
                    *self
                        .rng
                        .pick(&[Op2::Add, Op2::Sub, Op2::Mul, Op2::And, Op2::Or, Op2::Xor]);
                let a = self.int_expr(depth + 1);
                let b = self.int_expr(depth + 1);
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
            4 => {
                let op = *self.rng.pick(&[Op2::Min, Op2::Max]);
                let a = self.int_expr(depth + 1);
                let b = self.int_expr(depth + 1);
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
            5 => {
                // Guarded division/remainder: denominator in 1..=16.
                let op = *self.rng.pick(&[Op2::Div, Op2::Rem]);
                let a = self.int_expr(depth + 1);
                let d = self.int_expr(depth + 1);
                let denom = Expr::Bin(
                    Op2::Add,
                    Box::new(Expr::Bin(Op2::And, Box::new(d), Box::new(Expr::ImmI(15)))),
                    Box::new(Expr::ImmI(1)),
                );
                Expr::Bin(op, Box::new(a), Box::new(denom))
            }
            6 => {
                // Guarded shift: amount in 0..=7.
                let op = *self.rng.pick(&[Op2::Shl, Op2::Shr]);
                let a = self.int_expr(depth + 1);
                let s = self.int_expr(depth + 1);
                let amount = Expr::Bin(Op2::And, Box::new(s), Box::new(Expr::ImmI(7)));
                Expr::Bin(op, Box::new(a), Box::new(amount))
            }
            7 => {
                let c = self.cmp_expr(depth + 1);
                let a = self.int_expr(depth + 1);
                let b = self.int_expr(depth + 1);
                Expr::Select(Box::new(c), Box::new(a), Box::new(b))
            }
            8 => self
                .guarded_load(false, depth)
                .unwrap_or_else(|| self.dyn_int_leaf()),
            _ => {
                // A comparison used as a 0/1 value.
                self.cmp_expr(depth + 1)
            }
        }
    }

    /// A random comparison (predicate-valued) expression.
    fn cmp_expr(&mut self, depth: u32) -> Expr {
        let op = *self.rng.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]);
        let a = self.int_expr(depth + 1);
        let b = self.int_expr(depth + 1);
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// A random float-valued expression.
    fn float_expr(&mut self, depth: u32) -> Expr {
        if depth >= 4 || self.rng.chance(1, 3) {
            let has_fscalar = self.scalars.iter().any(|s| matches!(s, ScalarSpec::F32(_)));
            let mut choices = 3u64;
            if has_fscalar {
                choices += 1;
            }
            return match self.rng.below(choices) {
                0 => Expr::ImmF(*self.rng.pick(&IMM_F)),
                1 | 2 => self.dyn_float_leaf(),
                _ => {
                    let idx = self
                        .scalars
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| matches!(s, ScalarSpec::F32(_)))
                        .map(|(i, _)| i)
                        .collect::<Vec<_>>();
                    let i = *self.rng.pick(&idx);
                    Expr::Param(self.scalar_slot(i))
                }
            };
        }
        match self.rng.below(10) {
            0..=2 => {
                let op = *self
                    .rng
                    .pick(&[Op2::Add, Op2::Sub, Op2::Min, Op2::Max, Op2::Div]);
                let mut a = self.float_expr(depth + 1);
                let mut b = self.float_expr(depth + 1);
                if op == Op2::Div && is_const(&b) {
                    // Keep division runtime-only: a folded 0/0 produces a
                    // differently-signed NaN than the hardware op.
                    b = Expr::Bin(Op2::Add, Box::new(self.dyn_float_leaf()), Box::new(b));
                }
                if op == Op2::Add {
                    a = self.defused(a);
                    b = self.defused(b);
                }
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
            3 | 4 => {
                // Multiply with at least one dynamic operand (a const
                // product would fold away under one front-end only).
                let a = self.float_expr(depth + 1);
                let b = if is_const(&a) {
                    self.dyn_float_leaf()
                } else {
                    self.float_expr(depth + 1)
                };
                Expr::Bin(Op2::Mul, Box::new(a), Box::new(b))
            }
            5 => {
                // a*b - c: a product feeding non-fusing arithmetic. (The
                // a*b + c shape is off-limits for generated kernels: the
                // OpenCL front-end contracts it to one-rounding mad while
                // the CUDA front-end keeps mul+add, so the two results
                // legitimately differ in the last ulp.)
                let a = self.dyn_float_leaf();
                let b = self.float_expr(depth + 1);
                let c = self.float_expr(depth + 1);
                Expr::Bin(
                    Op2::Sub,
                    Box::new(Expr::Bin(Op2::Mul, Box::new(a), Box::new(b))),
                    Box::new(c),
                )
            }
            6 => {
                let op = *self.rng.pick(&[Op1::Neg, Op1::Abs]);
                let a = self.float_expr(depth + 1);
                Expr::Un(op, Box::new(a))
            }
            7 => {
                // sqrt(abs(dynamic + e)) — fold-safe and NaN-free.
                let d = self.dyn_float_leaf();
                let e = self.float_expr(depth + 1);
                let e = self.defused(e);
                Expr::Un(
                    Op1::Sqrt,
                    Box::new(Expr::Un(
                        Op1::Abs,
                        Box::new(Expr::Bin(Op2::Add, Box::new(d), Box::new(e))),
                    )),
                )
            }
            8 => {
                // Transcendental with a guaranteed-dynamic operand so it is
                // never constant-folded.
                let op = *self.rng.pick(&[Op1::Sin, Op1::Cos, Op1::Rcp, Op1::Rsqrt]);
                let d = self.dyn_float_leaf();
                let e = self.float_expr(depth + 1);
                let e = self.defused(e);
                Expr::Un(op, Box::new(Expr::Bin(Op2::Add, Box::new(d), Box::new(e))))
            }
            _ => {
                let c = self.cmp_expr(depth + 1);
                let a = self.float_expr(depth + 1);
                let b = self.float_expr(depth + 1);
                Expr::Select(Box::new(c), Box::new(a), Box::new(b))
            }
        }
    }

    /// A conflict-free output store: each thread writes only its own
    /// `global_id` slot (`if (gid < len) buf[gid] = value`). Injective
    /// across the grid, so the result is independent of warp scheduling —
    /// which differs legitimately across device models.
    fn own_slot_store(&mut self, buf: usize) -> Stmt {
        let ty = self.bufs[buf].ty;
        let len = self.bufs[buf].len;
        let value = match ty {
            Ty::F32 => self.float_expr(1),
            _ => self.int_expr(1),
        };
        let gid = self.gid;
        Stmt::If {
            cond: Expr::Cmp(
                CmpOp::Lt,
                Box::new(Expr::Var(gid)),
                Box::new(Expr::ImmI(len as i64)),
            ),
            then_: vec![Stmt::Store {
                space: Space::Global,
                base: Expr::Param(buf as u32),
                index: Expr::Var(gid),
                ty,
                value,
            }],
            else_: Vec::new(),
        }
    }

    /// Indices of buffers with the given role.
    fn buffers_with(&self, want: impl Fn(Role) -> bool) -> Vec<usize> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| want(**r))
            .map(|(i, _)| i)
            .collect()
    }

    /// Emit one statement into `out`. `allow_barrier` is true only where
    /// every thread of the block is guaranteed to execute the statement.
    fn stmt(&mut self, out: &mut Vec<Stmt>, depth: u32, allow_barrier: bool) {
        let roll = self.rng.below(100);
        match roll {
            // Let (int).
            0..=17 => {
                let e = self.int_expr(1);
                let v = self.fresh_var(Ty::S32);
                out.push(Stmt::Let(v, e));
                self.int_vars.push(v);
            }
            // Let (float).
            18..=35 => {
                let e = self.float_expr(1);
                let v = self.fresh_var(Ty::F32);
                out.push(Stmt::Let(v, e));
                self.float_vars.push(v);
            }
            // Reassign an existing variable. Two vars are off-limits:
            // `gid` (own-slot stores index by it, so mutating it would
            // reintroduce cross-thread write races) and any live loop
            // induction variable (mutating one can defeat the constant
            // bound and hang the kernel).
            36..=45 => {
                let pick_float = self.rng.chance(1, 2);
                if pick_float && !self.float_vars.is_empty() {
                    let v = *self.rng.pick(&self.float_vars);
                    let e = self.float_expr(1);
                    out.push(Stmt::Assign(v, e));
                } else {
                    let targets: Vec<Var> = self
                        .int_vars
                        .iter()
                        .copied()
                        .filter(|v| v.id != self.gid.id && !self.loop_vars.contains(v))
                        .collect();
                    if !targets.is_empty() {
                        let v = *self.rng.pick(&targets);
                        let e = self.int_expr(1);
                        out.push(Stmt::Assign(v, e));
                    }
                }
            }
            // Own-slot output store.
            46..=60 => {
                let outs = self.buffers_with(|r| r == Role::Out);
                let buf = *self.rng.pick(&outs); // buffer 0 is always Out
                let st = self.own_slot_store(buf);
                out.push(st);
            }
            // Shared-memory stage + (optional) barrier + readback.
            61..=70 => {
                if let Some((ty, len)) = self.shared {
                    // Each thread writes its own slot: race-free.
                    let value = match ty {
                        Ty::F32 => self.float_expr(1),
                        _ => self.int_expr(1),
                    };
                    out.push(Stmt::Store {
                        space: Space::Shared,
                        base: Expr::ImmI(0),
                        index: Expr::Bin(
                            Op2::Rem,
                            Box::new(Expr::Special(Builtin::TidX)),
                            Box::new(Expr::ImmI(len as i64)),
                        ),
                        ty,
                        value,
                    });
                    if allow_barrier {
                        out.push(Stmt::Barrier);
                        // Read a rotated neighbour's slot — only meaningful
                        // (and deterministic) after the barrier.
                        let shift = self.rng.range(1, len.max(2) as i64);
                        let load = Expr::Load {
                            space: Space::Shared,
                            base: Box::new(Expr::ImmI(0)),
                            index: Box::new(Expr::Bin(
                                Op2::Rem,
                                Box::new(Expr::Bin(
                                    Op2::Add,
                                    Box::new(Expr::Special(Builtin::TidX)),
                                    Box::new(Expr::ImmI(shift)),
                                )),
                                Box::new(Expr::ImmI(len as i64)),
                            )),
                            ty,
                        };
                        let v = self.fresh_var(ty);
                        out.push(Stmt::Let(v, load));
                        // Close the read epoch: later own-slot stores must
                        // not race with these cross-slot loads.
                        out.push(Stmt::Barrier);
                        if ty == Ty::F32 {
                            self.float_vars.push(v);
                        } else {
                            self.int_vars.push(v);
                        }
                    }
                }
            }
            // Structured if (barriers disallowed inside: divergent).
            71..=80 => {
                if depth >= 2 {
                    return self.stmt(out, depth, allow_barrier);
                }
                let cond = self.cmp_expr(1);
                let (then_, else_) = self.nested_bodies(depth);
                out.push(Stmt::If { cond, then_, else_ });
            }
            // Constant-bound for loop.
            81..=90 => {
                if depth >= 2 {
                    return self.stmt(out, depth, allow_barrier);
                }
                let var = self.fresh_var(Ty::S32);
                let (start, end, step) = if self.rng.chance(1, 4) {
                    // Downward loop.
                    let hi = self.rng.range(2, 9);
                    (hi, self.rng.range(0, hi), -1i64)
                } else {
                    let lo = self.rng.range(0, 3);
                    let step = if self.rng.chance(1, 4) { 2 } else { 1 };
                    (lo, lo + self.rng.range(1, 8), step)
                };
                let unroll = match self.rng.below(5) {
                    0 => Unroll::Full,
                    1 => Unroll::By(2),
                    _ => Unroll::None,
                };
                let int_mark = self.int_vars.len();
                let float_mark = self.float_vars.len();
                self.int_vars.push(var);
                self.loop_vars.push(var);
                let mut body = Vec::new();
                let n = self.rng.range(1, 4);
                // A constant-trip-count loop is uniform across the block,
                // so barriers inherited from the top level stay legal.
                for _ in 0..n {
                    self.stmt(&mut body, depth + 1, allow_barrier && depth == 0);
                }
                self.loop_vars.pop();
                self.int_vars.truncate(int_mark);
                self.float_vars.truncate(float_mark);
                out.push(Stmt::For {
                    var,
                    start: Expr::ImmI(start),
                    end: Expr::ImmI(end),
                    step,
                    unroll,
                    body,
                });
            }
            // Atomic RMW. Only on dedicated accumulator buffers, each with
            // one fixed commutative-associative op, and never capturing
            // the old value — so the final memory is execution-order
            // independent even across warp widths.
            91..=95 => {
                let accs = self.buffers_with(|r| matches!(r, Role::Atomic(_)));
                if !accs.is_empty() {
                    let buf = *self.rng.pick(&accs);
                    let Role::Atomic(op) = self.roles[buf] else {
                        unreachable!()
                    };
                    let ty = self.bufs[buf].ty;
                    let len = self.bufs[buf].len;
                    let index = self.guarded_index(len.min(8), 0);
                    let value = self.int_expr(1);
                    out.push(Stmt::AtomicRmw {
                        op,
                        space: Space::Global,
                        base: Expr::Param(buf as u32),
                        index,
                        ty,
                        value,
                        old: None,
                    });
                }
            }
            // Barrier (only where uniform).
            _ => {
                if allow_barrier {
                    out.push(Stmt::Barrier);
                }
            }
        }
    }

    /// Generate the two bodies of an `if` in fresh variable scopes.
    fn nested_bodies(&mut self, depth: u32) -> (Vec<Stmt>, Vec<Stmt>) {
        let int_mark = self.int_vars.len();
        let float_mark = self.float_vars.len();
        let mut then_ = Vec::new();
        let n = self.rng.range(1, 4);
        for _ in 0..n {
            self.stmt(&mut then_, depth + 1, false);
        }
        self.int_vars.truncate(int_mark);
        self.float_vars.truncate(float_mark);
        let mut else_ = Vec::new();
        if self.rng.chance(1, 2) {
            let n = self.rng.range(1, 3);
            for _ in 0..n {
                self.stmt(&mut else_, depth + 1, false);
            }
            self.int_vars.truncate(int_mark);
            self.float_vars.truncate(float_mark);
        }
        (then_, else_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 8, 0xdead_beef] {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn generated_cases_are_well_formed() {
        for i in 0..50 {
            let case = generate(crate::rng::case_seed(12345, i));
            assert!(!case.bufs.is_empty());
            assert!(case.block >= 1 && case.block <= 256);
            assert!(case.grid >= 1);
            assert!(case.stmt_count() >= 2);
            assert_eq!(case.def.params.len(), case.bufs.len() + case.scalars.len());
            // The generator never emits warp builtins — portability is
            // decided by the budget only.
            assert!(case.device_portable());
        }
    }
}
