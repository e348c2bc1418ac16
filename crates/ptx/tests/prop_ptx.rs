//! Property tests for the virtual ISA containers: builder/label
//! resolution and statistics consistency.

use gpucmp_ptx::{Inst, InstClass, InstStats, KernelBuilder, LabelId, Op2, Ty};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stats_class_totals_sum_to_total(ops in prop::collection::vec(0usize..6, 1..200)) {
        // build a kernel from an opcode soup
        let mut b = KernelBuilder::new("soup");
        let x = b.mov(Ty::S32, 1i32);
        for &o in &ops {
            match o {
                0 => { b.bin(Op2::Add, Ty::S32, x, 1i32); }
                1 => { b.bin(Op2::And, Ty::B32, x, 3i32); }
                2 => { b.bin(Op2::Shl, Ty::B32, x, 1i32); }
                3 => { b.mov(Ty::S32, x); }
                4 => { b.setp(gpucmp_ptx::CmpOp::Lt, Ty::S32, x, 5i32); }
                _ => { b.bar(); }
            }
        }
        let k = b.finish();
        let stats = InstStats::of_kernel(&k);
        let class_sum: u64 = [
            InstClass::Arithmetic,
            InstClass::Logic,
            InstClass::Shift,
            InstClass::DataMovement,
            InstClass::FlowControl,
            InstClass::Synchronization,
            InstClass::Other,
        ]
        .iter()
        .map(|&c| stats.class_total(c))
        .sum();
        prop_assert_eq!(class_sum, stats.total());
        prop_assert_eq!(stats.total(), k.len_real() as u64);
    }

    #[test]
    fn labels_resolve_iff_placed(n_labels in 1usize..20, place_all in any::<bool>()) {
        let mut b = KernelBuilder::new("labels");
        let labels: Vec<LabelId> = (0..n_labels).map(|_| b.new_label()).collect();
        for l in &labels {
            b.bra(*l);
        }
        let placed = if place_all { n_labels } else { n_labels - 1 };
        for l in &labels[..placed] {
            b.place_label(*l);
        }
        let k = b.finish();
        prop_assert_eq!(k.resolve().is_ok(), place_all);
    }

    #[test]
    fn resolved_branch_targets_point_at_their_labels(n in 1usize..30) {
        let mut b = KernelBuilder::new("targets");
        let labels: Vec<LabelId> = (0..n).map(|_| b.new_label()).collect();
        for l in &labels {
            b.bra(*l);
        }
        for l in &labels {
            b.place_label(*l);
        }
        let k = b.finish();
        let r = k.resolve().unwrap();
        for (pc, &label) in labels.iter().enumerate() {
            let t = r.target(pc);
            prop_assert!(matches!(r.kernel.body[t], Inst::Label(l) if l == label));
        }
    }

    #[test]
    fn display_mentions_every_real_instruction_count(extra_adds in 0usize..50) {
        let mut b = KernelBuilder::new("disp");
        let x = b.mov(Ty::S32, 7i32);
        for _ in 0..extra_adds {
            b.bin(Op2::Add, Ty::S32, x, 1i32);
        }
        let k = b.finish();
        let text = k.to_string();
        prop_assert_eq!(text.matches("add.s32").count(), extra_adds);
        prop_assert!(text.contains(".entry disp"));
    }
}
