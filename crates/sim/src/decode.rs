//! The decode tier: a flat, pre-decoded dispatch IR compiled once per
//! kernel.
//!
//! [`decode_kernel`] translates a lowered, resolved kernel into a
//! [`DecodedKernel`]: a dense instruction array with no `Label`
//! pseudo-instructions, branch targets pre-resolved into *decoded*
//! instruction indices, register operands pre-resolved to register slots,
//! immediates pre-converted to the raw register bits the interpreter's
//! `eval` would produce (`float_bits` applied at decode time), and the
//! per-instruction issue cost and per-lane flop count pre-computed for the
//! session's device. Memory instructions decode the same way: state space,
//! type, destination slot, and the address base operand are resolved up
//! front. The warp loop in `crate::dispatch` then runs without
//! per-instruction operand matching, label skipping, or cost-table lookups,
//! and executes every instruction for the whole warp at once.
//!
//! Execution tiers are selected with [`ExecTier`] (env var
//! `GPUCMP_SIM_TIER={interp,decoded}`); the interpreter in [`crate::exec`]
//! remains the reference tier.

use crate::alu::float_bits;
use crate::device::{Arch, DeviceSpec};
use gpucmp_ptx::{
    Address, AtomOp, CmpOp, Inst, Op1, Op2, Op3, Operand, ResolvedKernel, Space, Special, Ty,
};

/// Which execution engine simulates warp instructions.
///
/// Both tiers are bit-identical by contract: same [`crate::ExecStats`],
/// same faults (kind, site, and order), same memcheck records, same memory
/// results. They differ only in host wall-clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecTier {
    /// The reference per-instruction, per-lane interpreter over the
    /// original instruction stream (labels skipped at run time).
    Interp,
    /// The pre-decoded dispatch IR, one dispatch per warp instruction
    /// (the default).
    #[default]
    Decoded,
}

impl ExecTier {
    /// Parse a tier name (case-insensitive). `None` for unknown names.
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Some(ExecTier::Interp),
            "decoded" | "decode" => Some(ExecTier::Decoded),
            _ => None,
        }
    }

    /// Read `GPUCMP_SIM_TIER`; unset or unrecognised values fall back to
    /// the default tier ([`ExecTier::Decoded`]).
    pub fn from_env() -> ExecTier {
        std::env::var("GPUCMP_SIM_TIER")
            .ok()
            .and_then(|v| ExecTier::parse(&v))
            .unwrap_or_default()
    }

    /// Canonical lowercase name (the `GPUCMP_SIM_TIER` value).
    pub const fn name(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Decoded => "decoded",
        }
    }
}

/// A pre-resolved source operand. Immediates carry the exact raw register
/// bits the interpreter's `eval` would produce for the operand in its
/// use-type context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum DSrc {
    /// Register slot index (`Reg::index()`).
    Reg(u32),
    /// Pre-converted immediate bits.
    Imm(u64),
    /// Special register (depends on tid/ctaid; produced per warp).
    Special(Special),
}

/// Resolve operand `op` read in type context `ty` (the interpreter's
/// `eval(op, ty)`, with everything that does not depend on the lane done
/// now).
pub(crate) fn decode_src(op: Operand, ty: Ty) -> DSrc {
    match op {
        Operand::Reg(r) => DSrc::Reg(r.0),
        Operand::ImmI(v) => DSrc::Imm(if ty.is_float() {
            float_bits(ty, v as f64)
        } else {
            v as u64
        }),
        Operand::ImmF(v) => DSrc::Imm(float_bits(ty, v)),
        Operand::Special(s) => DSrc::Special(s),
    }
}

/// A pre-resolved memory address: `base` (read as `u64`) plus a constant
/// byte offset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct DAddr {
    pub(crate) base: DSrc,
    pub(crate) offset: i64,
}

impl DAddr {
    pub(crate) fn new(addr: Address) -> Self {
        DAddr {
            base: decode_src(addr.base, Ty::U64),
            offset: addr.offset,
        }
    }
}

/// A decoded operation: every operand pre-resolved, control flow with
/// decoded branch targets.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DOp {
    /// `mov.ty d, a`
    Mov { ty: Ty, d: u32, a: DSrc },
    /// `cvt.dty.sty d, a`
    Cvt { dty: Ty, sty: Ty, d: u32, a: DSrc },
    /// Unary op.
    Un { op: Op1, ty: Ty, d: u32, a: DSrc },
    /// Binary op.
    Bin {
        op: Op2,
        ty: Ty,
        d: u32,
        a: DSrc,
        b: DSrc,
    },
    /// Ternary op (mad/fma).
    Tern {
        op: Op3,
        ty: Ty,
        d: u32,
        a: DSrc,
        b: DSrc,
        c: DSrc,
    },
    /// `setp.cmp.ty p, a, b`
    Setp {
        cmp: CmpOp,
        ty: Ty,
        d: u32,
        a: DSrc,
        b: DSrc,
    },
    /// `selp.ty d, a, b, p`
    Selp {
        ty: Ty,
        d: u32,
        a: DSrc,
        b: DSrc,
        p: u32,
    },
    /// `ld.space.ty d, [addr]`
    Ld {
        space: Space,
        ty: Ty,
        d: u32,
        addr: DAddr,
    },
    /// `st.space.ty [addr], a`
    St {
        space: Space,
        ty: Ty,
        addr: DAddr,
        a: DSrc,
    },
    /// `tex.ty d, tex[idx]`; `idx` is read as `s32`.
    Tex { ty: Ty, d: u32, tex: u8, idx: DSrc },
    /// `atom.space.op.ty d, [addr], b, c`
    Atom {
        space: Space,
        op: AtomOp,
        ty: Ty,
        d: u32,
        addr: DAddr,
        b: DSrc,
        c: DSrc,
    },
    /// Push a reconvergence frame.
    Ssy,
    /// Reconvergence point.
    Sync,
    /// Branch: `target` is a *decoded* instruction index; the predicate is
    /// a pre-resolved register slot plus polarity.
    Bra {
        target: u32,
        pred: Option<(u32, bool)>,
    },
    /// Block-wide barrier.
    Bar,
    /// Kernel return.
    Ret,
}

/// One pre-decoded instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedInst {
    pub(crate) op: DOp,
    /// Index in the *original* instruction stream (fault attribution:
    /// `FaultSite.pc` must match the interpreter's).
    pub(crate) orig_pc: u32,
    /// Issue cost in millicycles, pre-computed for the session device.
    pub(crate) cost: u64,
    /// `ExecStats::flops` added per active lane.
    pub(crate) flops: u64,
}

/// A kernel compiled to the pre-decoded dispatch IR for one device.
///
/// Plain data (`Send + Sync`): one decode is shared by all block workers of
/// a launch, and the session code cache shares one across launches via
/// `Arc`. Decoding is device-dependent (issue costs are baked in), which is
/// sound for the per-session cache because a session's device never
/// changes.
#[derive(Clone, Debug)]
pub struct DecodedKernel {
    pub(crate) body: Vec<DecodedInst>,
    /// `(taken_branch_cycles * 1000)`, pre-computed.
    pub(crate) branch_refill_millicycles: u64,
    /// `(barrier_cost_cycles * 1000)`, pre-computed.
    pub(crate) barrier_cost_millicycles: u64,
}

impl DecodedKernel {
    /// Number of decoded (real, non-label) instructions.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the decoded body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

/// Issue-cost table, in millicycles per warp instruction. Shared by the
/// reference interpreter (per-instruction lookup) and the decoder (baked
/// into [`DecodedInst::cost`]), so tier cost parity holds by construction.
pub(crate) fn issue_cost_millicycles(d: &DeviceSpec, inst: &Inst) -> u64 {
    let float_scale = d.arith_cycle_scale;
    let f64_penalty = match d.arch {
        Arch::Gt200 => 8.0,
        Arch::Fermi => 4.0,
        _ => 4.0,
    };
    let cost_f = |c: f64| (c * 1000.0) as u64;
    match inst {
        Inst::Label(_) | Inst::Ssy { .. } | Inst::SyncPoint => 0,
        Inst::Mov { .. } | Inst::Cvt { .. } => 1000,
        Inst::Setp { .. } | Inst::Selp { .. } | Inst::Bra { .. } => 1000,
        Inst::Un { op, ty, .. } => {
            if op.is_sfu() {
                cost_f(4.0)
            } else if ty.is_float() {
                let base = if ty.is_wide() { f64_penalty } else { 1.0 };
                cost_f(base * float_scale)
            } else {
                1000
            }
        }
        Inst::Bin { op, ty, .. } => match op {
            Op2::Div | Op2::Rem => {
                if ty.is_float() {
                    cost_f(8.0)
                } else {
                    cost_f(16.0)
                }
            }
            Op2::Mul => {
                if ty.is_float() {
                    let base = if ty.is_wide() { f64_penalty } else { 1.0 };
                    cost_f(base * float_scale)
                } else if d.arch == Arch::Gt200 {
                    cost_f(4.0) // 32-bit integer mul is slow on GT200
                } else {
                    1000
                }
            }
            _ => {
                if ty.is_float() {
                    let base = if ty.is_wide() { f64_penalty } else { 1.0 };
                    cost_f(base * float_scale)
                } else {
                    1000
                }
            }
        },
        Inst::Tern { ty, .. } => {
            if ty.is_float() {
                let base = if ty.is_wide() { f64_penalty } else { 1.0 };
                cost_f(base * float_scale)
            } else if d.arch == Arch::Gt200 {
                cost_f(4.0)
            } else {
                1000
            }
        }
        Inst::Ld { .. } | Inst::St { .. } | Inst::Tex { .. } => 1000,
        Inst::Atom { .. } => cost_f(4.0),
        Inst::Bar => 1000, // barrier_cost added separately
        Inst::Ret => 1000,
    }
}

/// Per-lane `ExecStats::flops` increment of an instruction. Shared by the
/// interpreter and the decoder, like the issue cost.
pub(crate) fn flop_inc(inst: &Inst) -> u64 {
    match *inst {
        Inst::Un { op, .. } => matches!(op, Op1::Sqrt | Op1::Rsqrt | Op1::Rcp) as u64,
        Inst::Bin { op, ty, .. } => (ty.is_float() && !op.is_logic() && !op.is_shift()) as u64,
        Inst::Tern { ty, .. } if ty.is_float() => 2,
        _ => 0,
    }
}

/// Compile a resolved kernel into the pre-decoded dispatch IR for `device`.
pub fn decode_kernel(kernel: &ResolvedKernel, device: &DeviceSpec) -> DecodedKernel {
    let src = &kernel.kernel.body;
    let n = src.len();
    let total = src.iter().filter(|i| !matches!(i, Inst::Label(_))).count() as u32;
    // first_at[i] = decoded index of the first non-label instruction at
    // original index >= i (what the interpreter's label-skipping loop would
    // land on when branching to i).
    let mut first_at = vec![total; n + 1];
    let mut remaining = total;
    let mut next = total;
    for i in (0..n).rev() {
        if !matches!(src[i], Inst::Label(_)) {
            remaining -= 1;
            next = remaining;
        }
        first_at[i] = next;
    }

    let mut body: Vec<DecodedInst> = Vec::with_capacity(total as usize);
    for (pc, inst) in src.iter().enumerate() {
        let op = match *inst {
            Inst::Label(_) => continue,
            Inst::Mov { ty, d, a } => DOp::Mov {
                ty,
                d: d.0,
                a: decode_src(a, ty),
            },
            Inst::Cvt { dty, sty, d, a } => DOp::Cvt {
                dty,
                sty,
                d: d.0,
                a: decode_src(a, sty),
            },
            Inst::Un { op, ty, d, a } => DOp::Un {
                op,
                ty,
                d: d.0,
                a: decode_src(a, ty),
            },
            Inst::Bin { op, ty, d, a, b } => DOp::Bin {
                op,
                ty,
                d: d.0,
                a: decode_src(a, ty),
                b: decode_src(b, ty),
            },
            Inst::Tern { op, ty, d, a, b, c } => DOp::Tern {
                op,
                ty,
                d: d.0,
                a: decode_src(a, ty),
                b: decode_src(b, ty),
                c: decode_src(c, ty),
            },
            Inst::Setp { cmp, ty, d, a, b } => DOp::Setp {
                cmp,
                ty,
                d: d.0,
                a: decode_src(a, ty),
                b: decode_src(b, ty),
            },
            Inst::Selp { ty, d, a, b, p } => DOp::Selp {
                ty,
                d: d.0,
                a: decode_src(a, ty),
                b: decode_src(b, ty),
                p: p.0,
            },
            Inst::Ld { space, ty, d, addr } => DOp::Ld {
                space,
                ty,
                d: d.0,
                addr: DAddr::new(addr),
            },
            Inst::St { space, ty, addr, a } => DOp::St {
                space,
                ty,
                addr: DAddr::new(addr),
                a: decode_src(a, ty),
            },
            Inst::Tex { ty, d, tex, idx } => DOp::Tex {
                ty,
                d: d.0,
                tex: tex.0,
                idx: decode_src(idx, Ty::S32),
            },
            Inst::Atom {
                space,
                op,
                ty,
                d,
                addr,
                b,
                c,
            } => DOp::Atom {
                space,
                op,
                ty,
                d: d.0,
                addr: DAddr::new(addr),
                b: decode_src(b, ty),
                c: decode_src(c, ty),
            },
            Inst::Ssy { .. } => DOp::Ssy,
            Inst::SyncPoint => DOp::Sync,
            Inst::Bra { pred, .. } => DOp::Bra {
                target: first_at[kernel.target(pc)],
                pred: pred.map(|(p, pol)| (p.0, pol)),
            },
            Inst::Bar => DOp::Bar,
            Inst::Ret => DOp::Ret,
        };
        body.push(DecodedInst {
            op,
            orig_pc: pc as u32,
            cost: issue_cost_millicycles(device, inst),
            flops: flop_inc(inst),
        });
    }
    debug_assert_eq!(body.len(), total as usize);

    DecodedKernel {
        body,
        branch_refill_millicycles: (device.taken_branch_cycles * 1000.0) as u64,
        barrier_cost_millicycles: (device.barrier_cost_cycles * 1000.0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_ptx::{Kernel, LabelId, Reg};

    fn decode(k: &Kernel) -> DecodedKernel {
        decode_kernel(&k.resolve().unwrap(), &DeviceSpec::gtx480())
    }

    #[test]
    fn labels_are_stripped_and_targets_remapped() {
        let mut k = Kernel::new("t");
        k.regs = vec![Ty::Pred];
        k.body = vec![
            Inst::Ssy { target: LabelId(0) },
            Inst::Bra {
                target: LabelId(0),
                pred: Some((Reg(0), true)),
            },
            Inst::Label(LabelId(1)),
            Inst::Bar,
            Inst::Label(LabelId(0)),
            Inst::SyncPoint,
            Inst::Ret,
        ];
        let d = decode(&k);
        assert_eq!(d.len(), 5); // two labels stripped
        match d.body[1].op {
            // Label(0) sits at original pc 4; the first real instruction at
            // or after it is SyncPoint, decoded index 3.
            DOp::Bra { target, pred } => {
                assert_eq!(target, 3);
                assert_eq!(pred, Some((0, true)));
            }
            ref other => panic!("expected Bra, got {other:?}"),
        }
        // orig_pc survives for fault attribution.
        assert_eq!(d.body[3].orig_pc, 5);
    }

    #[test]
    fn float_immediates_are_preconverted() {
        let mut k = Kernel::new("t");
        k.regs = vec![Ty::F32];
        k.body = vec![
            Inst::Mov {
                ty: Ty::F32,
                d: Reg(0),
                a: Operand::ImmI(2),
            },
            Inst::Ret,
        ];
        let d = decode(&k);
        match d.body[0].op {
            DOp::Mov {
                a: DSrc::Imm(bits), ..
            } => assert_eq!(bits, 2.0f32.to_bits() as u64),
            ref other => panic!("expected Mov imm, got {other:?}"),
        }
    }

    #[test]
    fn memory_ops_decode_their_operands() {
        let mut k = Kernel::new("t");
        k.regs = vec![Ty::F32, Ty::U64];
        k.body = vec![
            Inst::Ld {
                space: Space::Param,
                ty: Ty::U64,
                d: Reg(1),
                addr: Address::base(Operand::ImmI(8)),
            },
            Inst::St {
                space: Space::Global,
                ty: Ty::F32,
                addr: Address {
                    base: Operand::Reg(Reg(1)),
                    offset: 16,
                },
                a: Operand::ImmI(3),
            },
            Inst::Ret,
        ];
        let d = decode(&k);
        match d.body[0].op {
            DOp::Ld {
                space: Space::Param,
                d: 1,
                addr,
                ..
            } => assert_eq!(addr.base, DSrc::Imm(8)),
            ref other => panic!("expected ld.param, got {other:?}"),
        }
        // The stored immediate is converted in the store's type context.
        match d.body[1].op {
            DOp::St {
                addr,
                a: DSrc::Imm(bits),
                ..
            } => {
                assert_eq!((addr.base, addr.offset), (DSrc::Reg(1), 16));
                assert_eq!(bits, 3.0f32.to_bits() as u64);
            }
            ref other => panic!("expected st.global, got {other:?}"),
        }
    }

    #[test]
    fn flops_are_counted_per_lane_at_decode() {
        let mut k = Kernel::new("t");
        k.regs = vec![Ty::F32, Ty::S32];
        k.body = vec![
            Inst::Bin {
                op: Op2::Add,
                ty: Ty::F32,
                d: Reg(0),
                a: Operand::Reg(Reg(0)),
                b: Operand::ImmF(2.0),
            },
            Inst::Tern {
                op: Op3::Fma,
                ty: Ty::F32,
                d: Reg(0),
                a: Operand::Reg(Reg(0)),
                b: Operand::Reg(Reg(0)),
                c: Operand::Reg(Reg(0)),
            },
            Inst::Bin {
                op: Op2::Add,
                ty: Ty::S32,
                d: Reg(1),
                a: Operand::Reg(Reg(1)),
                b: Operand::ImmI(1),
            },
            Inst::Ret,
        ];
        let d = decode(&k);
        let flops: Vec<u64> = d.body.iter().map(|i| i.flops).collect();
        assert_eq!(flops, [1, 2, 0, 0]);
    }

    #[test]
    fn tier_parsing() {
        assert_eq!(ExecTier::parse("interp"), Some(ExecTier::Interp));
        assert_eq!(ExecTier::parse(" DECODED "), Some(ExecTier::Decoded));
        assert_eq!(ExecTier::parse("fused"), None);
        assert_eq!(ExecTier::parse("jit"), None);
        assert_eq!(ExecTier::default(), ExecTier::Decoded);
        assert_eq!(ExecTier::Decoded.name(), "decoded");
    }
}
