//! Static instruction statistics — the data behind the paper's Table V.
//!
//! The paper tallies the PTX of the FFT "forward" kernel by opcode and by
//! class (Arithmetic, Logic, Shift, Data Movement, Flow Control,
//! Synchronization). [`InstStats::of_kernel`] computes the same static
//! counts for any [`Kernel`].

use crate::inst::{Inst, Op1};
use crate::kernel::Kernel;
use std::collections::BTreeMap;
use std::fmt;

/// The instruction classes of Table V.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstClass {
    /// `add sub mul div fma mad neg` … (plus `abs`, `min`, `max`, SFU ops).
    Arithmetic,
    /// `and or not xor`.
    Logic,
    /// `shl shr`.
    Shift,
    /// `cvt mov ld.* st.* tex`.
    DataMovement,
    /// `setp selp bra`.
    FlowControl,
    /// `bar`.
    Synchronization,
    /// `ret`, atomics, and anything Table V doesn't break out.
    Other,
}

impl InstClass {
    /// Human-readable class name as printed in Table V.
    pub const fn name(self) -> &'static str {
        match self {
            InstClass::Arithmetic => "Arithmetic",
            InstClass::Logic => "Logic",
            InstClass::Shift => "Shift",
            InstClass::DataMovement => "Data Movement",
            InstClass::FlowControl => "Flow Control",
            InstClass::Synchronization => "Synchronization",
            InstClass::Other => "Other",
        }
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classify one instruction and give its Table-V row mnemonic.
///
/// Returns `None` for pseudo-instructions (`Label`, `Ssy`, `SyncPoint`)
/// which have no PTX equivalent and are not counted.
pub fn classify(inst: &Inst) -> Option<(InstClass, String)> {
    let r = match inst {
        Inst::Label(_) | Inst::Ssy { .. } | Inst::SyncPoint => return None,
        Inst::Mov { .. } => (InstClass::DataMovement, "mov".to_string()),
        Inst::Cvt { .. } => (InstClass::DataMovement, "cvt".to_string()),
        Inst::Un { op, .. } => match op {
            Op1::Not => (InstClass::Logic, "not".to_string()),
            _ => (InstClass::Arithmetic, op.mnemonic().to_string()),
        },
        Inst::Bin { op, .. } => {
            if op.is_logic() {
                (InstClass::Logic, op.mnemonic().to_string())
            } else if op.is_shift() {
                (InstClass::Shift, op.mnemonic().to_string())
            } else {
                (InstClass::Arithmetic, op.mnemonic().to_string())
            }
        }
        Inst::Tern { op, .. } => (InstClass::Arithmetic, op.mnemonic().to_string()),
        Inst::Setp { .. } => (InstClass::FlowControl, "setp".to_string()),
        Inst::Selp { .. } => (InstClass::FlowControl, "selp".to_string()),
        Inst::Bra { .. } => (InstClass::FlowControl, "bra".to_string()),
        Inst::Ld { space, .. } => (InstClass::DataMovement, ["ld.", space.suffix()].concat()),
        Inst::St { space, .. } => (InstClass::DataMovement, ["st.", space.suffix()].concat()),
        Inst::Tex { .. } => (InstClass::DataMovement, "tex".to_string()),
        Inst::Atom { space, op, .. } => (
            InstClass::Other,
            ["atom.", space.suffix(), ".", op.mnemonic()].concat(),
        ),
        Inst::Bar => (InstClass::Synchronization, "bar".to_string()),
        Inst::Ret => (InstClass::Other, "ret".to_string()),
    };
    Some(r)
}

/// Bound of [`slot`]: 32 slots for each of 18 instruction kinds (atomics
/// are a kind per state space).
const SLOTS: usize = 18 * 32;

/// The Table-V row of an instruction as an index below [`SLOTS`]: its
/// kind's block of 32, then its op's or space's position in that enum.
/// Instructions share a slot exactly when [`classify`] gives them the same
/// row; `None` for pseudo-instructions.
fn slot(inst: &Inst) -> Option<usize> {
    let (kind, sub) = match *inst {
        Inst::Label(_) | Inst::Ssy { .. } | Inst::SyncPoint => return None,
        Inst::Mov { .. } => (0, 0),
        Inst::Cvt { .. } => (1, 0),
        Inst::Un { op, .. } => (2, op as usize),
        Inst::Bin { op, .. } => (3, op as usize),
        Inst::Tern { op, .. } => (4, op as usize),
        Inst::Setp { .. } => (5, 0),
        Inst::Selp { .. } => (6, 0),
        Inst::Bra { .. } => (7, 0),
        Inst::Ld { space, .. } => (8, space as usize),
        Inst::St { space, .. } => (9, space as usize),
        Inst::Tex { .. } => (10, 0),
        Inst::Atom { space, op, .. } => (11 + space as usize, op as usize),
        Inst::Bar => (16, 0),
        Inst::Ret => (17, 0),
    };
    debug_assert!(sub < 32, "an op enum outgrew its 32 slots");
    Some(kind * 32 + sub)
}

/// Static per-opcode instruction counts for one kernel.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstStats {
    /// Counts per (class, mnemonic) row, e.g. `(DataMovement, "ld.global")`.
    pub rows: BTreeMap<(InstClass, String), u64>,
}

impl InstStats {
    /// Compute the static counts of `kernel`.
    pub fn of_kernel(kernel: &Kernel) -> Self {
        // Count by slot; name each row once, from its first instruction.
        let mut counts = [0u32; SLOTS];
        let mut firsts: Vec<(usize, &Inst)> = Vec::new();
        for inst in &kernel.body {
            if let Some(i) = slot(inst) {
                if counts[i] == 0 {
                    firsts.push((i, inst));
                }
                counts[i] += 1;
            }
        }
        let mut rows = BTreeMap::new();
        for (i, inst) in firsts {
            if let Some(row) = classify(inst) {
                rows.insert(row, counts[i] as u64);
            }
        }
        InstStats { rows }
    }

    /// Count of one specific mnemonic (e.g. `"mov"` or `"ld.global"`).
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.rows
            .iter()
            .filter(|((_, m), _)| m == mnemonic)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Sub-total for one class, as in Table V's "Sub-total" rows.
    pub fn class_total(&self, class: InstClass) -> u64 {
        self.rows
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Total instruction count.
    pub fn total(&self) -> u64 {
        self.rows.values().sum()
    }

    /// Count of loads from global memory — the paper highlights that these
    /// "time-consuming" instructions were identical across front-ends.
    pub fn ld_global(&self) -> u64 {
        self.count("ld.global")
    }

    /// Count of stores to global memory.
    pub fn st_global(&self) -> u64 {
        self.count("st.global")
    }

    /// Render rows for a side-by-side comparison of two kernels, in the
    /// layout of Table V.
    pub fn comparison_table(label_a: &str, a: &InstStats, label_b: &str, b: &InstStats) -> String {
        use std::fmt::Write as _;
        let mut keys: Vec<(InstClass, String)> =
            a.rows.keys().chain(b.rows.keys()).cloned().collect();
        keys.sort();
        keys.dedup();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>10} {:>10}",
            "Class", "Instruction", label_a, label_b
        );
        let mut current_class: Option<InstClass> = None;
        for (class, mnem) in &keys {
            if current_class != Some(*class) {
                if let Some(prev) = current_class {
                    let _ = writeln!(
                        out,
                        "{:<16} {:<12} {:>10} {:>10}",
                        "Sub-total",
                        "",
                        a.class_total(prev),
                        b.class_total(prev)
                    );
                }
                current_class = Some(*class);
            }
            let ca = a.rows.get(&(*class, mnem.clone())).copied().unwrap_or(0);
            let cb = b.rows.get(&(*class, mnem.clone())).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>10} {:>10}",
                class.name(),
                mnem,
                ca,
                cb
            );
        }
        if let Some(prev) = current_class {
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>10} {:>10}",
                "Sub-total",
                "",
                a.class_total(prev),
                b.class_total(prev)
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>10} {:>10}",
            "Total",
            "",
            a.total(),
            b.total()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::inst::{Address, CmpOp, Op2};
    use crate::reg::Operand;
    use crate::ty::{Space, Ty};

    fn sample_kernel() -> Kernel {
        let mut b = KernelBuilder::new("s");
        let x = b.bin(Op2::Add, Ty::S32, 1i32, 2i32);
        let y = b.bin(Op2::And, Ty::B32, x, 0xffi32);
        let z = b.bin(Op2::Shl, Ty::B32, y, 2i32);
        let p = b.setp(CmpOp::Lt, Ty::S32, z, 100i32);
        let _s = b.selp(Ty::S32, 1i32, 0i32, p);
        let v = b.ld(Space::Global, Ty::F32, Address::base(Operand::ImmI(0)));
        b.st(Space::Global, Ty::F32, Address::base(Operand::ImmI(8)), v);
        b.bar();
        b.finish()
    }

    #[test]
    fn classes_match_table5_grouping() {
        let stats = InstStats::of_kernel(&sample_kernel());
        assert_eq!(stats.class_total(InstClass::Arithmetic), 1); // add
        assert_eq!(stats.class_total(InstClass::Logic), 1); // and
        assert_eq!(stats.class_total(InstClass::Shift), 1); // shl
        assert_eq!(stats.class_total(InstClass::FlowControl), 2); // setp + selp
        assert_eq!(stats.class_total(InstClass::Synchronization), 1); // bar
        assert_eq!(stats.ld_global(), 1);
        assert_eq!(stats.st_global(), 1);
    }

    #[test]
    fn count_by_mnemonic() {
        let stats = InstStats::of_kernel(&sample_kernel());
        assert_eq!(stats.count("add"), 1);
        assert_eq!(stats.count("ld.global"), 1);
        assert_eq!(stats.count("missing"), 0);
    }

    #[test]
    fn pseudo_instructions_not_counted() {
        let mut b = KernelBuilder::new("p");
        let l = b.new_label();
        b.ssy(l);
        b.place_label(l);
        b.sync();
        let k = b.finish();
        let stats = InstStats::of_kernel(&k);
        // only the implicit ret is counted
        assert_eq!(stats.total(), 1);
        assert_eq!(stats.class_total(InstClass::Other), 1);
    }

    #[test]
    fn every_row_has_its_own_slot() {
        use crate::inst::{AtomOp, Op1, Op3};
        use crate::reg::Reg;
        // One instruction of every row.
        let (ty, d, a) = (Ty::S32, Reg(0), Operand::ImmI(0));
        let addr = Address::absolute(0);
        let mut insts = vec![
            Inst::Mov { ty, d, a },
            Inst::Cvt {
                dty: ty,
                sty: ty,
                d,
                a,
            },
            Inst::Setp {
                cmp: CmpOp::Lt,
                ty,
                d,
                a,
                b: a,
            },
            Inst::Selp {
                ty,
                d,
                a,
                b: a,
                p: d,
            },
            Inst::Bra {
                target: crate::kernel::LabelId(0),
                pred: None,
            },
            Inst::Tex {
                ty,
                d,
                tex: crate::inst::TexRef(0),
                idx: a,
            },
            Inst::Bar,
            Inst::Ret,
        ];
        insts.extend([Op3::Mad, Op3::Fma].map(|op| Inst::Tern {
            op,
            ty,
            d,
            a,
            b: a,
            c: a,
        }));
        insts.extend(
            [
                Op1::Neg,
                Op1::Abs,
                Op1::Not,
                Op1::Sqrt,
                Op1::Rsqrt,
                Op1::Rcp,
                Op1::Sin,
                Op1::Cos,
                Op1::Ex2,
                Op1::Lg2,
            ]
            .map(|op| Inst::Un { op, ty, d, a }),
        );
        insts.extend(
            [
                Op2::Add,
                Op2::Sub,
                Op2::Mul,
                Op2::Div,
                Op2::Rem,
                Op2::Min,
                Op2::Max,
                Op2::And,
                Op2::Or,
                Op2::Xor,
                Op2::Shl,
                Op2::Shr,
            ]
            .map(|op| Inst::Bin { op, ty, d, a, b: a }),
        );
        for space in [
            Space::Global,
            Space::Shared,
            Space::Local,
            Space::Const,
            Space::Param,
        ] {
            insts.push(Inst::Ld { space, ty, d, addr });
            insts.push(Inst::St { space, ty, addr, a });
            insts.extend(
                [
                    AtomOp::Add,
                    AtomOp::Min,
                    AtomOp::Max,
                    AtomOp::Exch,
                    AtomOp::Cas,
                ]
                .map(|op| Inst::Atom {
                    space,
                    op,
                    ty,
                    d,
                    addr,
                    b: a,
                    c: a,
                }),
            );
        }
        let slots: std::collections::BTreeSet<usize> =
            insts.iter().map(|i| slot(i).unwrap()).collect();
        let rows: std::collections::BTreeSet<_> =
            insts.iter().map(|i| classify(i).unwrap()).collect();
        assert_eq!(slots.len(), insts.len());
        assert_eq!(rows.len(), insts.len());
        assert!(slots.iter().all(|&i| i < SLOTS));
    }

    #[test]
    fn comparison_table_renders() {
        let a = InstStats::of_kernel(&sample_kernel());
        let b = InstStats::default();
        let t = InstStats::comparison_table("CUDA", &a, "OpenCL", &b);
        assert!(t.contains("ld.global"));
        assert!(t.contains("Total"));
        assert!(t.contains("CUDA"));
    }
}
