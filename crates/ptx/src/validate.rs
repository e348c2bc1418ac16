//! Structural validation of kernels.
//!
//! The validator enforces the invariants the SIMT interpreter relies on:
//! resolvable labels, in-range registers, register/instruction type
//! agreement on definitions, and well-nested `ssy`/`sync` divergence
//! regions on every control-flow path (checked conservatively).

use crate::inst::Inst;
use crate::kernel::Kernel;
use crate::reg::Reg;
use crate::ty::Ty;
use std::fmt;

/// A validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError {
    /// Kernel name.
    pub kernel: String,
    /// Instruction index, if the error is tied to one instruction.
    pub pc: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "kernel {}: at pc {}: {}", self.kernel, pc, self.message),
            None => write!(f, "kernel {}: {}", self.kernel, self.message),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validate a kernel; returns the first problem found.
pub fn validate_kernel(kernel: &Kernel) -> Result<(), ValidateError> {
    let err = |pc: Option<usize>, message: String| ValidateError {
        kernel: kernel.name.clone(),
        pc,
        message,
    };

    // Labels resolve and are unique.
    kernel
        .for_each_branch_target(|_, _| {})
        .map_err(|message| err(None, message))?;

    if kernel.body.is_empty() {
        return Err(err(None, "empty body".into()));
    }
    if !matches!(kernel.body.last(), Some(Inst::Ret)) {
        return Err(err(None, "body must end with ret".into()));
    }

    let check_reg = |pc: usize, r: Reg| -> Result<Ty, ValidateError> {
        kernel
            .regs
            .get(r.index())
            .copied()
            .ok_or_else(|| err(Some(pc), format!("register {r} not declared")))
    };

    let mut ssy_depth: i64 = 0;
    for (pc, inst) in kernel.body.iter().enumerate() {
        // Register indices in range.
        if let Some(d) = inst.def() {
            let dty = check_reg(pc, d)?;
            // Definition type agreement.
            let expect = match inst {
                Inst::Mov { ty, .. }
                | Inst::Un { ty, .. }
                | Inst::Bin { ty, .. }
                | Inst::Tern { ty, .. }
                | Inst::Selp { ty, .. }
                | Inst::Ld { ty, .. }
                | Inst::Tex { ty, .. }
                | Inst::Atom { ty, .. } => Some(*ty),
                Inst::Cvt { dty, .. } => Some(*dty),
                Inst::Setp { .. } => Some(Ty::Pred),
                _ => None,
            };
            if let Some(expect) = expect {
                if !compatible(dty, expect) {
                    return Err(err(
                        Some(pc),
                        format!("destination {d} declared {dty} but written as {expect}"),
                    ));
                }
            }
        }
        let mut reg_err = None;
        inst.for_each_use(|r| {
            if reg_err.is_none() && kernel.regs.get(r.index()).is_none() {
                reg_err = Some(r);
            }
        });
        if let Some(r) = reg_err {
            return Err(err(Some(pc), format!("use of undeclared register {r}")));
        }

        // Predicate registers where predicates are expected.
        match inst {
            Inst::Selp { p, .. } if check_reg(pc, *p)? != Ty::Pred => {
                return Err(err(Some(pc), "selp guard must be a predicate".into()));
            }
            Inst::Bra {
                pred: Some((p, _)), ..
            } if check_reg(pc, *p)? != Ty::Pred => {
                return Err(err(Some(pc), "branch guard must be a predicate".into()));
            }
            _ => {}
        }

        // Param loads stay within declared slots: the access — at its own
        // width — must fit entirely inside the param block.
        if let Inst::Ld {
            space: crate::ty::Space::Param,
            ty,
            addr,
            ..
        } = inst
        {
            let max = kernel.params.len() as i64 * 8;
            let off = addr.offset + addr.base.as_imm_i().unwrap_or(0);
            let size = ty.size_bytes() as i64;
            if off < 0 || off + size > max {
                return Err(err(
                    Some(pc),
                    format!(
                        "ld.param of {size} bytes at byte {off} outside {} declared slots",
                        kernel.params.len()
                    ),
                ));
            }
        }

        match inst {
            Inst::Ssy { .. } => ssy_depth += 1,
            Inst::SyncPoint => {
                ssy_depth -= 1;
                if ssy_depth < 0 {
                    return Err(err(Some(pc), "sync without matching ssy".into()));
                }
            }
            _ => {}
        }
    }
    if ssy_depth != 0 {
        return Err(err(
            None,
            format!("{ssy_depth} ssy region(s) never reconverge"),
        ));
    }
    Ok(())
}

/// Whether a register declared as `decl` may be written with operand type
/// `used`. Same-width bit/int/float aliasing is allowed (PTX registers are
/// typed loosely the same way).
fn compatible(decl: Ty, used: Ty) -> bool {
    if decl == used {
        return true;
    }
    let width = |t: Ty| match t {
        Ty::Pred => 0,
        Ty::B8 => 1,
        Ty::B16 => 2,
        Ty::B32 | Ty::S32 | Ty::U32 | Ty::F32 => 4,
        Ty::B64 | Ty::S64 | Ty::U64 | Ty::F64 => 8,
    };
    width(decl) == width(used) && decl != Ty::Pred && used != Ty::Pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::inst::Address;
    use crate::reg::Operand;
    use crate::ty::{Space, Ty};

    #[test]
    fn valid_kernel_passes() {
        let mut b = KernelBuilder::new("ok");
        b.param("p", Ty::U64);
        let base = b.ld_param(0, Ty::U64);
        let v = b.ld(Space::Global, Ty::F32, Address::base(Operand::Reg(base)));
        b.st(
            Space::Global,
            Ty::F32,
            Address::with_offset(base.into(), 4),
            v,
        );
        let k = b.finish();
        validate_kernel(&k).unwrap();
    }

    #[test]
    fn missing_ret_fails() {
        let mut k = Kernel::new("bad");
        k.body = vec![Inst::Bar];
        assert!(validate_kernel(&k).is_err());
    }

    #[test]
    fn undeclared_register_fails() {
        let mut k = Kernel::new("bad");
        k.body = vec![
            Inst::Mov {
                ty: Ty::S32,
                d: Reg(5),
                a: Operand::ImmI(0),
            },
            Inst::Ret,
        ];
        let e = validate_kernel(&k).unwrap_err();
        assert!(e.message.contains("not declared"));
    }

    #[test]
    fn type_mismatch_fails() {
        let mut k = Kernel::new("bad");
        k.regs = vec![Ty::F64]; // 8-byte
        k.body = vec![
            Inst::Mov {
                ty: Ty::S32, // 4-byte write into 8-byte register
                d: Reg(0),
                a: Operand::ImmI(0),
            },
            Inst::Ret,
        ];
        assert!(validate_kernel(&k).is_err());
    }

    #[test]
    fn same_width_aliasing_allowed() {
        let mut k = Kernel::new("ok");
        k.regs = vec![Ty::B32];
        k.body = vec![
            Inst::Mov {
                ty: Ty::F32,
                d: Reg(0),
                a: Operand::ImmF(1.0),
            },
            Inst::Ret,
        ];
        validate_kernel(&k).unwrap();
    }

    #[test]
    fn unbalanced_ssy_fails() {
        let mut b = KernelBuilder::new("bad");
        let l = b.new_label();
        b.ssy(l);
        b.place_label(l);
        let k = b.finish();
        let e = validate_kernel(&k).unwrap_err();
        assert!(e.message.contains("never reconverge"));
    }

    #[test]
    fn sync_without_ssy_fails() {
        let mut b = KernelBuilder::new("bad");
        b.sync();
        let k = b.finish();
        assert!(validate_kernel(&k).is_err());
    }

    #[test]
    fn ld_param_with_no_declared_params_fails() {
        let mut b = KernelBuilder::new("bad");
        let _ = b.ld_param(0, Ty::U64);
        let k = b.finish();
        let e = validate_kernel(&k).unwrap_err();
        assert!(e.message.contains("outside 0 declared slots"), "{e}");
    }

    #[test]
    fn ld_param_straddling_block_end_fails() {
        // One 8-byte slot; an 8-byte load at byte 4 ends at byte 12.
        let mut b = KernelBuilder::new("bad");
        b.param("p", Ty::U64);
        let _ = b.ld(Space::Param, Ty::U64, Address::absolute(4));
        let k = b.finish();
        let e = validate_kernel(&k).unwrap_err();
        assert!(e.message.contains("ld.param of 8 bytes at byte 4"), "{e}");
    }

    #[test]
    fn ld_param_negative_offset_fails() {
        let mut b = KernelBuilder::new("bad");
        b.param("p", Ty::U64);
        let _ = b.ld(Space::Param, Ty::S32, Address::absolute(-4));
        let k = b.finish();
        assert!(validate_kernel(&k).is_err());
    }

    #[test]
    fn ld_param_filling_last_slot_passes() {
        // A 4-byte load at byte 12 of a two-slot block ends exactly at 16.
        let mut b = KernelBuilder::new("ok");
        b.param("p", Ty::U64);
        b.param("n", Ty::S32);
        let _ = b.ld(Space::Param, Ty::S32, Address::absolute(12));
        let k = b.finish();
        validate_kernel(&k).unwrap();
    }

    #[test]
    fn non_pred_branch_guard_fails() {
        let mut b = KernelBuilder::new("bad");
        let l = b.new_label();
        let r = b.reg(Ty::S32);
        b.bra_if(l, r, true);
        b.place_label(l);
        let k = b.finish();
        let e = validate_kernel(&k).unwrap_err();
        assert!(e.message.contains("predicate"));
    }
}
