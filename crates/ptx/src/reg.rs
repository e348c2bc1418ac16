//! Registers, special registers and instruction operands.

use std::fmt;

/// A virtual register index.
///
/// The front-ends allocate an unbounded virtual register file; the `ptxas`
/// backend in `gpucmp-compiler` later maps virtual registers onto the
/// device's physical budget, spilling the excess to `local` memory. The
/// register's type is recorded in [`crate::Kernel::regs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// Index into the kernel's register declaration table.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// Special (read-only) registers, read via `mov`.
///
/// `%tid`/`%ntid`/`%ctaid`/`%nctaid` follow CUDA terminology; the OpenCL
/// front-end lowers `get_local_id` and friends onto the same registers (the
/// paper's Table I gives the term correspondence). `%laneid` and `%warpid`
/// are derived from the *hardware* warp/wavefront width of the executing
/// device — this distinction is what makes the paper's warp-size-dependent
/// radix-sort kernel mis-behave on 64-wide wavefront devices (Table VI "FL").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within the block, x/y/z.
    TidX,
    /// Thread index within the block, y.
    TidY,
    /// Thread index within the block, z.
    TidZ,
    /// Block size, x.
    NtidX,
    /// Block size, y.
    NtidY,
    /// Block size, z.
    NtidZ,
    /// Block index within the grid, x.
    CtaidX,
    /// Block index within the grid, y.
    CtaidY,
    /// Block index within the grid, z.
    CtaidZ,
    /// Grid size in blocks, x.
    NctaidX,
    /// Grid size in blocks, y.
    NctaidY,
    /// Grid size in blocks, z.
    NctaidZ,
    /// Lane index within the hardware warp/wavefront.
    LaneId,
    /// Hardware warp/wavefront index within the block
    /// (= linear tid / hardware wavefront width).
    WarpId,
    /// The hardware warp/wavefront width of the executing device
    /// (32 on NVIDIA GPUs, 64 on ATI wavefront devices in the paper).
    WarpSize,
}

impl Special {
    /// The PTX-style name, e.g. `%tid.x`.
    pub const fn name(self) -> &'static str {
        match self {
            Special::TidX => "%tid.x",
            Special::TidY => "%tid.y",
            Special::TidZ => "%tid.z",
            Special::NtidX => "%ntid.x",
            Special::NtidY => "%ntid.y",
            Special::NtidZ => "%ntid.z",
            Special::CtaidX => "%ctaid.x",
            Special::CtaidY => "%ctaid.y",
            Special::CtaidZ => "%ctaid.z",
            Special::NctaidX => "%nctaid.x",
            Special::NctaidY => "%nctaid.y",
            Special::NctaidZ => "%nctaid.z",
            Special::LaneId => "%laneid",
            Special::WarpId => "%warpid",
            Special::WarpSize => "WARP_SZ",
        }
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An instruction operand: a register, an immediate, or a special register.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(Reg),
    /// An integer immediate (sign-extended into the operand type).
    ImmI(i64),
    /// A floating-point immediate.
    ImmF(f64),
    /// A special register.
    Special(Special),
}

impl Operand {
    /// Convenience: is this operand a register?
    pub const fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Convenience: is this operand a compile-time integer constant?
    pub const fn as_imm_i(self) -> Option<i64> {
        match self {
            Operand::ImmI(v) => Some(v),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ImmI(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::ImmI(v as i64)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::ImmI(v as i64)
    }
}

impl From<f32> for Operand {
    fn from(v: f32) -> Self {
        Operand::ImmF(v as f64)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::ImmF(v)
    }
}

impl From<Special> for Operand {
    fn from(s: Special) -> Self {
        Operand::Special(s)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmI(v) => write!(f, "{v}"),
            Operand::ImmF(v) => write!(f, "{v:?}"),
            Operand::Special(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)).as_reg(), Some(Reg(3)));
        assert_eq!(Operand::from(7i32).as_imm_i(), Some(7));
        assert_eq!(Operand::from(7u32).as_imm_i(), Some(7));
        assert_eq!(Operand::from(1.5f32), Operand::ImmF(1.5));
        assert_eq!(Operand::Reg(Reg(1)).as_imm_i(), None);
    }

    #[test]
    fn special_names() {
        assert_eq!(Special::TidX.name(), "%tid.x");
        assert_eq!(Special::WarpId.name(), "%warpid");
        assert_eq!(Special::NctaidZ.to_string(), "%nctaid.z");
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg(12).to_string(), "%r12");
        assert_eq!(Reg(12).index(), 12);
    }
}
