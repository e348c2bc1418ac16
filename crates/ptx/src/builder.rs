//! Convenience builder for emitting kernels.

use crate::inst::{Address, AtomOp, CmpOp, Inst, Op1, Op2, Op3, TexRef};
use crate::kernel::{Kernel, LabelId, Param};
use crate::reg::{Operand, Reg, Special};
use crate::ty::{Space, Ty};

/// Incremental kernel builder used by the compiler back-ends (and directly
/// by tests that need hand-written kernels).
///
/// The builder hands out fresh virtual registers and labels and appends
/// instructions; [`KernelBuilder::finish`] yields the [`Kernel`].
#[derive(Debug)]
pub struct KernelBuilder {
    kernel: Kernel,
    next_label: u32,
}

impl KernelBuilder {
    /// Start building a kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            kernel: Kernel::new(name),
            next_label: 0,
        }
    }

    /// Declare a parameter, returning its slot index.
    pub fn param(&mut self, name: impl Into<String>, ty: Ty) -> usize {
        self.kernel.params.push(Param {
            name: name.into(),
            ty,
        });
        self.kernel.params.len() - 1
    }

    /// Allocate a fresh virtual register of type `ty`.
    pub fn reg(&mut self, ty: Ty) -> Reg {
        self.kernel.regs.push(ty);
        Reg(self.kernel.regs.len() as u32 - 1)
    }

    /// Allocate a fresh label (not yet placed).
    pub fn new_label(&mut self) -> LabelId {
        let l = LabelId(self.next_label);
        self.next_label += 1;
        l
    }

    /// Place a label at the current position.
    pub fn place_label(&mut self, l: LabelId) {
        self.kernel.body.push(Inst::Label(l));
    }

    /// Append a raw instruction.
    pub fn emit(&mut self, inst: Inst) {
        self.kernel.body.push(inst);
    }

    /// Reserve `bytes` of static shared memory, returning the byte offset of
    /// the reservation (16-byte aligned).
    pub fn shared_alloc(&mut self, bytes: u32) -> u32 {
        let off = (self.kernel.shared_bytes + 15) & !15;
        self.kernel.shared_bytes = off + bytes;
        off
    }

    // ---- typed emission helpers -------------------------------------------------

    /// `mov.ty d, a` into a fresh register.
    pub fn mov(&mut self, ty: Ty, a: impl Into<Operand>) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Mov { ty, d, a: a.into() });
        d
    }

    /// `mov.ty d, a` into an existing register.
    pub fn mov_to(&mut self, ty: Ty, d: Reg, a: impl Into<Operand>) {
        self.emit(Inst::Mov { ty, d, a: a.into() });
    }

    /// Read a special register into a fresh `u32` register.
    pub fn special(&mut self, s: Special) -> Reg {
        self.mov(Ty::U32, Operand::Special(s))
    }

    /// `cvt.dty.sty d, a` into a fresh register.
    pub fn cvt(&mut self, dty: Ty, sty: Ty, a: impl Into<Operand>) -> Reg {
        let d = self.reg(dty);
        self.emit(Inst::Cvt {
            dty,
            sty,
            d,
            a: a.into(),
        });
        d
    }

    /// Unary op into a fresh register.
    pub fn un(&mut self, op: Op1, ty: Ty, a: impl Into<Operand>) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Un {
            op,
            ty,
            d,
            a: a.into(),
        });
        d
    }

    /// Binary op into a fresh register.
    pub fn bin(&mut self, op: Op2, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Bin {
            op,
            ty,
            d,
            a: a.into(),
            b: b.into(),
        });
        d
    }

    /// Binary op into an existing register.
    pub fn bin_to(
        &mut self,
        op: Op2,
        ty: Ty,
        d: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) {
        self.emit(Inst::Bin {
            op,
            ty,
            d,
            a: a.into(),
            b: b.into(),
        });
    }

    /// Ternary op (mad/fma) into a fresh register.
    pub fn tern(
        &mut self,
        op: Op3,
        ty: Ty,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Tern {
            op,
            ty,
            d,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        });
        d
    }

    /// `setp` into a fresh predicate register.
    pub fn setp(
        &mut self,
        cmp: CmpOp,
        ty: Ty,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> Reg {
        let d = self.reg(Ty::Pred);
        self.emit(Inst::Setp {
            cmp,
            ty,
            d,
            a: a.into(),
            b: b.into(),
        });
        d
    }

    /// `selp` into a fresh register.
    pub fn selp(&mut self, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>, p: Reg) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Selp {
            ty,
            d,
            a: a.into(),
            b: b.into(),
            p,
        });
        d
    }

    /// Load into a fresh register.
    pub fn ld(&mut self, space: Space, ty: Ty, addr: Address) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Ld { space, ty, d, addr });
        d
    }

    /// Load parameter slot `i` (as a 64-bit value) into a fresh register.
    pub fn ld_param(&mut self, i: usize, ty: Ty) -> Reg {
        self.ld(
            Space::Param,
            ty,
            Address::absolute((i as i64) * Param::SLOT_BYTES as i64),
        )
    }

    /// Store.
    pub fn st(&mut self, space: Space, ty: Ty, addr: Address, a: impl Into<Operand>) {
        self.emit(Inst::St {
            space,
            ty,
            addr,
            a: a.into(),
        });
    }

    /// Texture fetch into a fresh register.
    pub fn tex(&mut self, ty: Ty, tex: TexRef, idx: impl Into<Operand>) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Tex {
            ty,
            d,
            tex,
            idx: idx.into(),
        });
        d
    }

    /// Atomic op; returns the register receiving the old value.
    pub fn atom(
        &mut self,
        space: Space,
        op: AtomOp,
        ty: Ty,
        addr: Address,
        b: impl Into<Operand>,
    ) -> Reg {
        let d = self.reg(ty);
        self.emit(Inst::Atom {
            space,
            op,
            ty,
            d,
            addr,
            b: b.into(),
            c: Operand::ImmI(0),
        });
        d
    }

    /// Unconditional branch.
    pub fn bra(&mut self, target: LabelId) {
        self.emit(Inst::Bra { target, pred: None });
    }

    /// Branch when `p` is `polarity`.
    pub fn bra_if(&mut self, target: LabelId, p: Reg, polarity: bool) {
        self.emit(Inst::Bra {
            target,
            pred: Some((p, polarity)),
        });
    }

    /// Push a reconvergence point.
    pub fn ssy(&mut self, target: LabelId) {
        self.emit(Inst::Ssy { target });
    }

    /// Reconverge (must be placed at the label passed to the matching
    /// [`KernelBuilder::ssy`]).
    pub fn sync(&mut self) {
        self.emit(Inst::SyncPoint);
    }

    /// Block-wide barrier.
    pub fn bar(&mut self) {
        self.emit(Inst::Bar);
    }

    /// Kernel return.
    pub fn ret(&mut self) {
        self.emit(Inst::Ret);
    }

    /// Finish the kernel (appends `ret` if the body doesn't end with one).
    pub fn finish(mut self) -> Kernel {
        if !matches!(self.kernel.body.last(), Some(Inst::Ret)) {
            self.kernel.body.push(Inst::Ret);
        }
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_sequential_regs() {
        let mut b = KernelBuilder::new("k");
        let r0 = b.reg(Ty::S32);
        let r1 = b.reg(Ty::F32);
        assert_eq!(r0, Reg(0));
        assert_eq!(r1, Reg(1));
        let k = b.finish();
        assert_eq!(k.regs, vec![Ty::S32, Ty::F32]);
    }

    #[test]
    fn finish_appends_ret() {
        let mut b = KernelBuilder::new("k");
        b.bar();
        let k = b.finish();
        assert!(matches!(k.body.last(), Some(Inst::Ret)));
        assert_eq!(k.body.len(), 2);
    }

    #[test]
    fn finish_keeps_existing_ret() {
        let mut b = KernelBuilder::new("k");
        b.ret();
        let k = b.finish();
        assert_eq!(k.body.len(), 1);
    }

    #[test]
    fn shared_alloc_aligns() {
        let mut b = KernelBuilder::new("k");
        let o1 = b.shared_alloc(20);
        let o2 = b.shared_alloc(4);
        assert_eq!(o1, 0);
        assert_eq!(o2, 32); // 20 rounded up to 32
        assert_eq!(b.finish().shared_bytes, 36);
    }

    #[test]
    fn ld_param_uses_slot_offsets() {
        let mut b = KernelBuilder::new("k");
        b.param("a", Ty::U64);
        b.param("n", Ty::S32);
        let _ = b.ld_param(1, Ty::S32);
        let k = b.finish();
        match k.body[0] {
            Inst::Ld { addr, .. } => assert_eq!(addr.offset, 8),
            _ => panic!("expected ld.param"),
        }
    }
}
