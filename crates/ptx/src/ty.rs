//! Scalar types of the virtual ISA.

use std::fmt;

/// Scalar type of a register or memory access.
///
/// The untyped bit types (`B32`/`B64`) are used by `mov` and the logic
/// instructions; the signed/unsigned/float types select the semantics of
/// arithmetic instructions, exactly as PTX type suffixes do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// One-bit predicate register type.
    Pred,
    /// Untyped 8-bit value (byte loads/stores).
    B8,
    /// Untyped 16-bit value.
    B16,
    /// Untyped 32-bit value.
    B32,
    /// Untyped 64-bit value.
    B64,
    /// Signed 32-bit integer.
    S32,
    /// Signed 64-bit integer.
    S64,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
}

impl Ty {
    /// Size of a value of this type in memory, in bytes.
    ///
    /// Predicates live only in registers and have no memory size; they are
    /// reported as 1 byte for bookkeeping purposes.
    pub const fn size_bytes(self) -> u32 {
        match self {
            Ty::Pred | Ty::B8 => 1,
            Ty::B16 => 2,
            Ty::B32 | Ty::S32 | Ty::U32 | Ty::F32 => 4,
            Ty::B64 | Ty::S64 | Ty::U64 | Ty::F64 => 8,
        }
    }

    /// Whether this is one of the floating-point types.
    pub const fn is_float(self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }

    /// Whether this is a signed integer type.
    pub const fn is_signed_int(self) -> bool {
        matches!(self, Ty::S32 | Ty::S64)
    }

    /// Whether this is an unsigned integer or untyped bit type.
    pub const fn is_unsigned_or_bits(self) -> bool {
        matches!(
            self,
            Ty::U32 | Ty::U64 | Ty::B8 | Ty::B16 | Ty::B32 | Ty::B64
        )
    }

    /// Whether this type occupies a 64-bit register.
    pub const fn is_wide(self) -> bool {
        matches!(self, Ty::B64 | Ty::S64 | Ty::U64 | Ty::F64)
    }

    /// The PTX type suffix, e.g. `f32` for [`Ty::F32`].
    pub const fn suffix(self) -> &'static str {
        match self {
            Ty::Pred => "pred",
            Ty::B8 => "b8",
            Ty::B16 => "b16",
            Ty::B32 => "b32",
            Ty::B64 => "b64",
            Ty::S32 => "s32",
            Ty::S64 => "s64",
            Ty::U32 => "u32",
            Ty::U64 => "u64",
            Ty::F32 => "f32",
            Ty::F64 => "f64",
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Memory state spaces, as in PTX.
///
/// The paper's Table V groups loads/stores by state space (`ld.param`,
/// `ld.local`, `ld.shared`, `ld.const`, `ld.global`, ...); the simulator
/// gives each space its own cost model (coalescing for `global`, bank
/// conflicts for `shared`, broadcast for `const`, spill traffic for `local`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device memory, visible to all threads; coalescing applies.
    Global,
    /// Per-block scratchpad ("shared memory" in CUDA, "local memory" in
    /// OpenCL terminology — see the paper's Table I term mapping).
    Shared,
    /// Per-thread spill space, physically in device memory.
    Local,
    /// Read-only constant memory, served by the constant cache.
    Const,
    /// Kernel parameter space.
    Param,
}

impl Space {
    /// The PTX state-space suffix, e.g. `global`.
    pub const fn suffix(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Local => "local",
            Space::Const => "const",
            Space::Param => "param",
        }
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_ptx() {
        assert_eq!(Ty::F32.size_bytes(), 4);
        assert_eq!(Ty::F64.size_bytes(), 8);
        assert_eq!(Ty::S32.size_bytes(), 4);
        assert_eq!(Ty::U64.size_bytes(), 8);
        assert_eq!(Ty::B8.size_bytes(), 1);
        assert_eq!(Ty::B16.size_bytes(), 2);
    }

    #[test]
    fn classification() {
        assert!(Ty::F32.is_float());
        assert!(!Ty::S32.is_float());
        assert!(Ty::S64.is_signed_int());
        assert!(Ty::B32.is_unsigned_or_bits());
        assert!(Ty::U64.is_wide());
        assert!(!Ty::U32.is_wide());
    }

    #[test]
    fn display_suffixes() {
        assert_eq!(Ty::F32.to_string(), "f32");
        assert_eq!(Space::Global.to_string(), "global");
        assert_eq!(Space::Shared.to_string(), "shared");
    }
}
