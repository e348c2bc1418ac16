//! Kernels and modules.

use crate::inst::Inst;
use crate::ty::Ty;

/// A branch-target label. Labels are kernel-local.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

/// A kernel parameter.
///
/// Each parameter occupies one 8-byte slot in `param` space (pointers are
/// 64-bit byte addresses into the device's global memory; scalars are
/// zero-extended). `ld.param` reads slot `i` at byte offset `8 * i`.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name (for diagnostics and pretty-printing).
    pub name: String,
    /// Declared scalar type.
    pub ty: Ty,
}

impl Param {
    /// Byte size of one parameter slot.
    pub const SLOT_BYTES: u32 = 8;
}

/// A compiled kernel in the virtual ISA.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Kernel entry name.
    pub name: String,
    /// Parameter declarations, in slot order.
    pub params: Vec<Param>,
    /// Virtual register declarations; `Reg(i)` has type `regs[i]`.
    pub regs: Vec<Ty>,
    /// Flat instruction stream with `Label` pseudo-instructions.
    pub body: Vec<Inst>,
    /// Statically-allocated shared memory per block, in bytes.
    pub shared_bytes: u32,
    /// Per-thread local (spill) memory, in bytes. Set by the backend.
    pub local_bytes: u32,
    /// Physical registers per thread after allocation. Zero means the
    /// kernel is still in virtual-register form (pre-`ptxas`).
    pub phys_regs: u32,
}

impl Kernel {
    /// Create an empty kernel shell.
    pub fn new(name: impl Into<String>) -> Self {
        Kernel {
            name: name.into(),
            params: Vec::new(),
            regs: Vec::new(),
            body: Vec::new(),
            shared_bytes: 0,
            local_bytes: 0,
            phys_regs: 0,
        }
    }

    /// Resolve labels to instruction indices, producing an executable form.
    ///
    /// Returns an error message if a branch or `ssy` targets an undefined
    /// label, or a label is defined twice.
    pub fn resolve(&self) -> Result<ResolvedKernel, String> {
        let targets = self.branch_targets()?;
        Ok(ResolvedKernel {
            kernel: self.clone(),
            targets,
        })
    }

    /// [`Kernel::resolve`] without the copy: the kernel moves into the
    /// executable form.
    pub fn into_resolved(self) -> Result<ResolvedKernel, String> {
        let targets = self.branch_targets()?;
        Ok(ResolvedKernel {
            kernel: self,
            targets,
        })
    }

    /// For each pc holding a `Bra`/`Ssy`, the pc of its target label;
    /// `usize::MAX` elsewhere.
    fn branch_targets(&self) -> Result<Vec<usize>, String> {
        let mut targets = vec![usize::MAX; self.body.len()];
        self.for_each_branch_target(|pc, target| targets[pc] = target)?;
        Ok(targets)
    }

    /// Call `f(pc, target)` for every `Bra`/`Ssy`, in program order, with
    /// the pc of the label it names. The one label-resolution routine:
    /// resolution, validation and the register analysis all use it.
    ///
    /// Fails, before calling `f`, if a label is defined twice (naming the
    /// label whose second definition comes first); then fails at the first
    /// branch or `ssy` that names an undefined label.
    pub fn for_each_branch_target(&self, mut f: impl FnMut(usize, usize)) -> Result<(), String> {
        // (label, pc) sorted by label, then pc: a twice-defined label sits
        // next to its first definition.
        let mut labels: Vec<(LabelId, usize)> = self
            .body
            .iter()
            .enumerate()
            .filter_map(|(pc, inst)| match inst {
                Inst::Label(l) => Some((*l, pc)),
                _ => None,
            })
            .collect();
        labels.sort_unstable();
        if let Some(w) = labels
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .min_by_key(|w| w[1].1)
        {
            return Err(format!(
                "kernel {}: label L{} defined twice",
                self.name, w[0].0 .0
            ));
        }
        for (pc, inst) in self.body.iter().enumerate() {
            if let Inst::Bra { target, .. } | Inst::Ssy { target } = inst {
                let i = labels
                    .binary_search_by_key(target, |&(l, _)| l)
                    .map_err(|_| format!("kernel {}: undefined label L{}", self.name, target.0))?;
                f(pc, labels[i].1);
            }
        }
        Ok(())
    }

    /// Count of real (non-label) instructions.
    pub fn len_real(&self) -> usize {
        self.body
            .iter()
            .filter(|i| !matches!(i, Inst::Label(_)))
            .count()
    }
}

/// A kernel whose branch targets have been resolved to instruction indices.
#[derive(Clone, Debug)]
pub struct ResolvedKernel {
    /// The underlying kernel.
    pub kernel: Kernel,
    /// For each pc holding a `Bra`/`Ssy`, the target instruction index
    /// (the `Label` pseudo-instruction's position); `usize::MAX` otherwise.
    pub targets: Vec<usize>,
}

impl ResolvedKernel {
    /// The resolved branch target of the instruction at `pc`.
    ///
    /// # Panics
    /// Panics if `pc` does not hold a branch or `ssy`.
    #[inline]
    pub fn target(&self, pc: usize) -> usize {
        let t = self.targets[pc];
        debug_assert_ne!(t, usize::MAX, "instruction at {pc} has no branch target");
        t
    }
}

/// A constant-memory segment embedded in a module.
///
/// The Sobel OpenCL variant stores its filter here; `ld.const` reads from
/// the segment bound at kernel build time.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstSegment {
    /// Segment name.
    pub name: String,
    /// Raw little-endian bytes.
    pub data: Vec<u8>,
}

impl ConstSegment {
    /// Build a segment from `f32` values.
    pub fn from_f32(name: impl Into<String>, values: &[f32]) -> Self {
        let mut data = Vec::with_capacity(values.len() * 4);
        for v in values {
            data.extend_from_slice(&v.to_le_bits().to_le_bytes());
        }
        ConstSegment {
            name: name.into(),
            data,
        }
    }

    /// Build a segment from `i32` values.
    pub fn from_i32(name: impl Into<String>, values: &[i32]) -> Self {
        let mut data = Vec::with_capacity(values.len() * 4);
        for v in values {
            data.extend_from_slice(&v.to_le_bytes());
        }
        ConstSegment {
            name: name.into(),
            data,
        }
    }
}

/// Extension trait used by [`ConstSegment::from_f32`].
trait F32Bits {
    fn to_le_bits(self) -> u32;
}

impl F32Bits for f32 {
    fn to_le_bits(self) -> u32 {
        self.to_bits()
    }
}

/// A module: a set of kernels plus module-level constant segments, the unit
/// `clBuildProgram` / the CUDA fat binary would carry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// Kernels by definition order.
    pub kernels: Vec<Kernel>,
    /// Constant-memory segments; segment `i` starts at the byte offset
    /// recorded in [`Module::const_offsets`].
    pub const_segments: Vec<ConstSegment>,
}

impl Module {
    /// Empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look a kernel up by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Add a constant segment, returning its byte offset in the module's
    /// constant bank (segments are packed in order, 16-byte aligned).
    pub fn push_const_segment(&mut self, seg: ConstSegment) -> u32 {
        let offset = self.const_bank_size();
        self.const_segments.push(seg);
        offset
    }

    /// Byte offsets of each constant segment in the packed constant bank.
    pub fn const_offsets(&self) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(self.const_segments.len());
        let mut off = 0u32;
        for seg in &self.const_segments {
            offsets.push(off);
            off += (seg.data.len() as u32 + 15) & !15;
        }
        offsets
    }

    /// Total size of the packed constant bank in bytes.
    pub fn const_bank_size(&self) -> u32 {
        self.const_segments
            .iter()
            .fold(0u32, |acc, s| acc + ((s.data.len() as u32 + 15) & !15))
    }

    /// Flatten the constant segments into one packed bank image.
    pub fn const_bank_image(&self) -> Vec<u8> {
        let mut image = vec![0u8; self.const_bank_size() as usize];
        for (seg, off) in self.const_segments.iter().zip(self.const_offsets()) {
            image[off as usize..off as usize + seg.data.len()].copy_from_slice(&seg.data);
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn resolve_finds_labels() {
        let mut k = Kernel::new("t");
        k.body = vec![
            Inst::Bra {
                target: LabelId(0),
                pred: None,
            },
            Inst::Label(LabelId(0)),
            Inst::Ret,
        ];
        let r = k.resolve().unwrap();
        assert_eq!(r.target(0), 1);
    }

    #[test]
    fn resolve_rejects_undefined_label() {
        let mut k = Kernel::new("t");
        k.body = vec![Inst::Bra {
            target: LabelId(9),
            pred: None,
        }];
        assert!(k.resolve().is_err());
    }

    #[test]
    fn resolve_rejects_duplicate_label() {
        let mut k = Kernel::new("t");
        k.body = vec![Inst::Label(LabelId(1)), Inst::Label(LabelId(1)), Inst::Ret];
        assert!(k.resolve().is_err());
    }

    #[test]
    fn resolve_names_the_first_label_defined_again() {
        // L1's second definition (pc 2) comes before L0's (pc 3).
        let mut k = Kernel::new("t");
        k.body = vec![
            Inst::Label(LabelId(1)),
            Inst::Label(LabelId(0)),
            Inst::Label(LabelId(1)),
            Inst::Label(LabelId(0)),
            Inst::Ret,
        ];
        assert_eq!(k.resolve().unwrap_err(), "kernel t: label L1 defined twice");
    }

    #[test]
    fn const_segments_pack_aligned() {
        let mut m = Module::new();
        let o1 = m.push_const_segment(ConstSegment::from_f32("a", &[1.0, 2.0, 3.0]));
        let o2 = m.push_const_segment(ConstSegment::from_i32("b", &[7]));
        assert_eq!(o1, 0);
        assert_eq!(o2, 16); // 12 bytes rounded up to 16
        let image = m.const_bank_image();
        assert_eq!(image.len(), 32);
        assert_eq!(f32::from_le_bytes(image[4..8].try_into().unwrap()), 2.0);
        assert_eq!(i32::from_le_bytes(image[16..20].try_into().unwrap()), 7);
    }

    #[test]
    fn len_real_skips_labels() {
        let mut k = Kernel::new("t");
        k.body = vec![Inst::Label(LabelId(0)), Inst::Bar, Inst::Ret];
        assert_eq!(k.len_real(), 2);
    }
}
