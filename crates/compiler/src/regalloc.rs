//! Register analysis (control-flow graph, liveness, pressure) and
//! spilling.
//!
//! Used twice: by the front-ends to enforce their virtual-register budgets
//! (producing the `ld.local`/`st.local` traffic visible in the paper's
//! Table V), and by the `ptxas` backend to compute the physical register
//! footprint that drives occupancy (the paper's Fig. 7 mechanism).

use gpucmp_ptx::{Address, Inst, Kernel, Operand, Reg, Space, Ty};
use std::collections::HashMap;

/// An empty successor slot.
const NO_BLOCK: u32 = u32::MAX;

/// One pass of register analysis over a kernel: the control-flow graph as
/// block ranges with two successor slots each, liveness as one flat bit
/// row per block, and the peak pressure.
///
/// Basic blocks start at instruction 0, at every `Label`, and after every
/// branch or `ret`. Liveness is backward may-liveness to a fixed point.
pub(crate) struct Analysis {
    /// Block `b` covers `body[starts[b]..starts[b + 1]]`; the last entry
    /// is the body length.
    starts: Vec<usize>,
    /// Successor blocks of each block; [`NO_BLOCK`] fills unused slots.
    succs: Vec<[u32; 2]>,
    /// 64-bit words per register set.
    words: usize,
    /// Registers live at each block's entry, `words` words per block.
    live_in: Vec<u64>,
    /// Maximum number of simultaneously live 32-bit register slots (wide
    /// registers count double, predicates count zero — they live in a
    /// separate predicate file).
    pub(crate) max_live_slots: u32,
}

fn set(row: &mut [u64], r: usize) -> bool {
    let (w, bit) = (&mut row[r / 64], 1u64 << (r % 64));
    let new = *w & bit == 0;
    *w |= bit;
    new
}

fn clear(row: &mut [u64], r: usize) -> bool {
    let (w, bit) = (&mut row[r / 64], 1u64 << (r % 64));
    let was = *w & bit != 0;
    *w &= !bit;
    was
}

fn for_each_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (i, &w) in row.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            f(i * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// 32-bit slots a register occupies.
fn weight(kernel: &Kernel, r: usize) -> u32 {
    match kernel.regs[r] {
        Ty::Pred => 0,
        t if t.is_wide() => 2,
        _ => 1,
    }
}

impl Analysis {
    /// Analyse `kernel`.
    ///
    /// # Panics
    /// Panics if a branch names an undefined label or a label is defined
    /// twice (the front-end and `ptxas` never produce either).
    pub(crate) fn of(kernel: &Kernel) -> Self {
        let body = &kernel.body;
        let mut starts: Vec<usize> = (0..body.len())
            .filter(|&pc| {
                pc == 0
                    || matches!(body[pc], Inst::Label(_))
                    || matches!(body[pc - 1], Inst::Bra { .. } | Inst::Ret)
            })
            .collect();
        starts.push(body.len());
        let nb = starts.len() - 1;
        let next = |b: usize| if b + 1 < nb { b as u32 + 1 } else { NO_BLOCK };
        let mut succs: Vec<[u32; 2]> = (0..nb)
            .map(|b| match body[starts[b + 1] - 1] {
                Inst::Ret => [NO_BLOCK; 2],
                // the taken edge is filled in below
                Inst::Bra { pred, .. } => {
                    [NO_BLOCK, if pred.is_some() { next(b) } else { NO_BLOCK }]
                }
                _ => [next(b), NO_BLOCK],
            })
            .collect();
        // A branch always ends its block and its target label starts one.
        kernel
            .for_each_branch_target(|pc, target| {
                if matches!(body[pc], Inst::Bra { .. }) {
                    let b = starts.partition_point(|&s| s <= pc) - 1;
                    succs[b][0] = starts.partition_point(|&s| s < target) as u32;
                }
            })
            .unwrap_or_else(|e| panic!("register analysis: {e}"));

        // gen (upward-exposed uses) and kill (defs) of each block.
        let words = kernel.regs.len().div_ceil(64);
        let mut gen = vec![0u64; nb * words];
        let mut kill = vec![0u64; nb * words];
        for b in 0..nb {
            let row = b * words..(b + 1) * words;
            let (g, k) = (&mut gen[row.clone()], &mut kill[row]);
            for inst in body[starts[b]..starts[b + 1]].iter().rev() {
                if let Some(d) = inst.def() {
                    clear(g, d.index());
                    set(k, d.index());
                }
                inst.for_each_use(|r| {
                    set(g, r.index());
                });
            }
        }
        // in = gen | (out & !kill), a word at a time, to a fixed point.
        let mut a = Analysis {
            starts,
            succs,
            words,
            live_in: gen.clone(),
            max_live_slots: 0,
        };
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                a.live_out(b, &mut out);
                let row = b * words..(b + 1) * words;
                for (((i, &o), &g), &k) in a.live_in[row.clone()]
                    .iter_mut()
                    .zip(&out)
                    .zip(&gen[row.clone()])
                    .zip(&kill[row])
                {
                    let v = g | (o & !k);
                    changed |= v != *i;
                    *i = v;
                }
            }
        }

        // Peak pressure: walk each block backward from its live-out set.
        let mut max = 0u32;
        for b in 0..nb {
            a.live_out(b, &mut out);
            let mut slots = 0u32;
            for_each_bit(&out, |r| slots += weight(kernel, r));
            max = max.max(slots);
            for inst in body[a.starts[b]..a.starts[b + 1]].iter().rev() {
                if let Some(d) = inst.def() {
                    if clear(&mut out, d.index()) {
                        slots -= weight(kernel, d.index());
                    }
                }
                inst.for_each_use(|r| {
                    if set(&mut out, r.index()) {
                        slots += weight(kernel, r.index());
                    }
                });
                max = max.max(slots);
            }
        }
        a.max_live_slots = max;
        a
    }

    /// The registers live at block `b`'s exit: the union of its
    /// successors' live-in rows.
    fn live_out(&self, b: usize, out: &mut [u64]) {
        out.fill(0);
        for &s in self.succs[b].iter().filter(|&&s| s != NO_BLOCK) {
            let row = &self.live_in[s as usize * self.words..(s as usize + 1) * self.words];
            for (o, &i) in out.iter_mut().zip(row) {
                *o |= i;
            }
        }
    }

    /// For each register, the number of instructions it is live before
    /// (the spill priority metric). Only a spill round needs it, so it is
    /// computed on demand: each block is walked backward once, adding the
    /// length of every live range when it closes at a definition or at
    /// the block's entry.
    pub(crate) fn live_len(&self, kernel: &Kernel) -> Vec<u32> {
        let n = kernel.regs.len();
        let mut len = vec![0u32; n];
        // the walk step at which each live register became live
        let mut born = vec![0u32; n];
        let mut live = vec![0u64; self.words];
        for b in 0..self.starts.len() - 1 {
            self.live_out(b, &mut live);
            for_each_bit(&live, |r| born[r] = 0);
            let block = &kernel.body[self.starts[b]..self.starts[b + 1]];
            for (step, inst) in (0u32..).zip(block.iter().rev()) {
                if let Some(d) = inst.def() {
                    if clear(&mut live, d.index()) {
                        len[d.index()] += step - born[d.index()];
                    }
                }
                inst.for_each_use(|r| {
                    if set(&mut live, r.index()) {
                        born[r.index()] = step;
                    }
                });
            }
            let steps = block.len() as u32;
            for_each_bit(&live, |r| len[r] += steps - born[r]);
        }
        len
    }
}

/// Spill registers to `local` space until the pressure fits `budget` 32-bit
/// slots (or no further progress can be made). Updates
/// `kernel.local_bytes`. Returns the number of registers spilled and the
/// kernel's pressure ([`Analysis::max_live_slots`]) as it is returned.
pub(crate) fn spill_to_local(kernel: &mut Kernel, budget: u32) -> (u32, u32) {
    let mut spilled = 0u32;
    let mut no_spill: Vec<bool> = vec![false; kernel.regs.len()];
    let mut a = Analysis::of(kernel);
    for _ in 0..64 {
        if a.max_live_slots <= budget {
            break;
        }
        // Spill the longest-lived non-predicate candidates this round.
        let live_len = a.live_len(kernel);
        let mut cands: Vec<(u32, usize)> = (0..kernel.regs.len())
            .filter(|&r| kernel.regs[r] != Ty::Pred && !no_spill[r] && live_len[r] > 2)
            .map(|r| (live_len[r], r))
            .collect();
        cands.sort_unstable_by(|a, b| b.cmp(a));
        let take = ((a.max_live_slots - budget) as usize / 2 + 1)
            .min(cands.len())
            .max(1);
        if cands.is_empty() {
            break;
        }
        let victims: Vec<usize> = cands.iter().take(take).map(|&(_, r)| r).collect();
        for v in &victims {
            no_spill[*v] = true;
        }
        spill_regs(kernel, &victims, &mut no_spill);
        spilled += victims.len() as u32;
        a = Analysis::of(kernel);
    }
    (spilled, a.max_live_slots)
}

/// Rewrite the kernel spilling each register in `victims` to its own
/// 8-byte local slot: a `st.local` after every def, a `ld.local` into a
/// fresh temporary before every use.
fn spill_regs(kernel: &mut Kernel, victims: &[usize], no_spill: &mut Vec<bool>) {
    let mut slot_of: HashMap<usize, i64> = HashMap::new();
    for &v in victims {
        slot_of.insert(v, kernel.local_bytes as i64);
        kernel.local_bytes += 8;
    }
    let old_body = std::mem::take(&mut kernel.body);
    let mut new_body = Vec::with_capacity(old_body.len() * 2);
    for mut inst in old_body {
        // Reload spilled uses into fresh temps.
        let mut reloads: Vec<(Reg, Reg)> = Vec::new(); // (victim, temp)
        inst.for_each_use(|r| {
            if slot_of.contains_key(&r.index()) && !reloads.iter().any(|&(v, _)| v == r) {
                reloads.push((r, Reg(0))); // temp assigned below
            }
        });
        for (v, t) in &mut reloads {
            let ty = kernel.regs[v.index()];
            kernel.regs.push(ty);
            no_spill.push(true);
            *t = Reg(kernel.regs.len() as u32 - 1);
            new_body.push(Inst::Ld {
                space: Space::Local,
                ty: widen_for_slot(ty),
                d: *t,
                addr: Address::absolute(slot_of[&v.index()]),
            });
        }
        if !reloads.is_empty() {
            inst.map_regs(|r| {
                // only rewrite *uses*; the def (if it is a victim) keeps its
                // register and gets a store-back below. map_regs rewrites
                // defs too, so restore it afterwards.
                reloads
                    .iter()
                    .find(|&&(v, _)| v == r)
                    .map(|&(_, t)| t)
                    .unwrap_or(r)
            });
            // restore def if it was rewritten
            if let Some(d) = inst.def() {
                if let Some(&(v, _)) = reloads.iter().find(|&&(_, t)| t == d) {
                    // def collided with a reloaded use temp: put the victim
                    // back as destination (store-back follows).
                    set_def(&mut inst, v);
                }
            }
        }
        let def = inst.def();
        new_body.push(inst);
        if let Some(d) = def {
            if let Some(&slot) = slot_of.get(&d.index()) {
                let ty = kernel.regs[d.index()];
                new_body.push(Inst::St {
                    space: Space::Local,
                    ty: widen_for_slot(ty),
                    addr: Address::absolute(slot),
                    a: Operand::Reg(d),
                });
            }
        }
    }
    kernel.body = new_body;
}

/// Local slots are 8 bytes; spill/reload with the register's natural width
/// widened to a b32/b64 image so bit patterns round-trip exactly.
fn widen_for_slot(ty: Ty) -> Ty {
    if ty.is_wide() {
        Ty::B64
    } else {
        Ty::B32
    }
}

fn set_def(inst: &mut Inst, new_d: Reg) {
    match inst {
        Inst::Mov { d, .. }
        | Inst::Cvt { d, .. }
        | Inst::Un { d, .. }
        | Inst::Bin { d, .. }
        | Inst::Tern { d, .. }
        | Inst::Setp { d, .. }
        | Inst::Selp { d, .. }
        | Inst::Ld { d, .. }
        | Inst::Tex { d, .. }
        | Inst::Atom { d, .. } => *d = new_d,
        _ => {}
    }
}

/// The per-instruction analysis that [`Analysis`] replaced: a CFG of
/// blocks with successor lists, a `BitSet` per block and liveness sweep,
/// and `live_len` counted after every instruction. Kept as the reference
/// the flat analysis is checked against.
#[cfg(test)]
pub(crate) mod reference {
    use gpucmp_ptx::{Inst, Kernel, Ty};
    use std::collections::HashMap;

    /// A dense bit set over register indices.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct BitSet {
        pub(crate) words: Vec<u64>,
    }

    impl BitSet {
        pub(crate) fn new(n: usize) -> Self {
            BitSet {
                words: vec![0; n.div_ceil(64)],
            }
        }

        pub(crate) fn insert(&mut self, i: usize) -> bool {
            let w = &mut self.words[i / 64];
            let bit = 1u64 << (i % 64);
            let new = *w & bit == 0;
            *w |= bit;
            new
        }

        pub(crate) fn remove(&mut self, i: usize) {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }

        pub(crate) fn contains(&self, i: usize) -> bool {
            self.words[i / 64] & (1u64 << (i % 64)) != 0
        }

        pub(crate) fn union_with(&mut self, other: &BitSet) {
            for (a, b) in self.words.iter_mut().zip(&other.words) {
                *a |= *b;
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }

        pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
            self.words.iter().enumerate().flat_map(|(wi, &w)| {
                (0..64).filter_map(move |b| (w & (1u64 << b) != 0).then_some(wi * 64 + b))
            })
        }
    }

    /// One basic block: instruction range `[start, end)` and successors.
    pub(crate) struct Block {
        pub(crate) start: usize,
        pub(crate) end: usize,
        pub(crate) succs: Vec<usize>,
    }

    /// Leaders: instruction 0, every `Label`, and every instruction
    /// following a branch or `ret`.
    pub(crate) fn build_cfg(kernel: &Kernel) -> Vec<Block> {
        let body = &kernel.body;
        let n = body.len();
        let mut is_leader = vec![false; n];
        if n > 0 {
            is_leader[0] = true;
        }
        let mut label_pc = HashMap::new();
        for (pc, inst) in body.iter().enumerate() {
            if let Inst::Label(l) = inst {
                label_pc.insert(*l, pc);
                is_leader[pc] = true;
            }
        }
        for (pc, inst) in body.iter().enumerate() {
            match inst {
                Inst::Bra { target, .. } => {
                    is_leader[label_pc[target]] = true;
                    if pc + 1 < n {
                        is_leader[pc + 1] = true;
                    }
                }
                Inst::Ret if pc + 1 < n => is_leader[pc + 1] = true,
                _ => {}
            }
        }
        let leaders: Vec<usize> = (0..n).filter(|&i| is_leader[i]).collect();
        let mut block_of = vec![0usize; n];
        let mut blocks: Vec<Block> = Vec::with_capacity(leaders.len());
        for (bi, &start) in leaders.iter().enumerate() {
            let end = leaders.get(bi + 1).copied().unwrap_or(n);
            block_of[start..end].fill(bi);
            blocks.push(Block {
                start,
                end,
                succs: Vec::new(),
            });
        }
        let nb = blocks.len();
        for (bi, block) in blocks.iter_mut().enumerate() {
            match &body[block.end - 1] {
                Inst::Ret => {}
                Inst::Bra { target, pred } => {
                    block.succs.push(block_of[label_pc[target]]);
                    if pred.is_some() && bi + 1 < nb {
                        block.succs.push(bi + 1);
                    }
                }
                _ if bi + 1 < nb => block.succs.push(bi + 1),
                _ => {}
            }
        }
        blocks
    }

    /// Backward may-liveness: the live-in set of every block.
    pub(crate) fn liveness(kernel: &Kernel, cfg: &[Block]) -> (Vec<BitSet>, Vec<BitSet>) {
        let nregs = kernel.regs.len();
        let nb = cfg.len();
        let mut gen = vec![BitSet::new(nregs); nb];
        let mut kill = vec![BitSet::new(nregs); nb];
        for (bi, b) in cfg.iter().enumerate() {
            for pc in (b.start..b.end).rev() {
                let inst = &kernel.body[pc];
                if let Some(d) = inst.def() {
                    gen[bi].remove(d.index());
                    kill[bi].insert(d.index());
                }
                inst.for_each_use(|r| {
                    gen[bi].insert(r.index());
                });
            }
        }
        let mut live_in = gen.clone();
        let mut live_out = vec![BitSet::new(nregs); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nb).rev() {
                let mut out = BitSet::new(nregs);
                for &s in &cfg[bi].succs {
                    out.union_with(&live_in[s]);
                }
                live_out[bi] = out.clone();
                let mut inn = gen[bi].clone();
                for r in out.iter() {
                    if !kill[bi].contains(r) {
                        inn.insert(r);
                    }
                }
                if inn != live_in[bi] {
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        (live_in, live_out)
    }

    /// `(max_live_slots, live_len)`.
    pub(crate) fn pressure(kernel: &Kernel) -> (u32, Vec<u32>) {
        let cfg = build_cfg(kernel);
        let (_, live_out) = liveness(kernel, &cfg);
        let nregs = kernel.regs.len();
        let weight = |r: usize| -> u32 {
            match kernel.regs[r] {
                Ty::Pred => 0,
                t if t.is_wide() => 2,
                _ => 1,
            }
        };
        let mut live_len = vec![0u32; nregs];
        let mut max_slots = 0u32;
        for (bi, b) in cfg.iter().enumerate() {
            let mut live = live_out[bi].clone();
            let mut slots: u32 = live.iter().map(weight).sum();
            max_slots = max_slots.max(slots);
            for pc in (b.start..b.end).rev() {
                let inst = &kernel.body[pc];
                if let Some(d) = inst.def() {
                    if live.contains(d.index()) {
                        live.remove(d.index());
                        slots -= weight(d.index());
                    }
                }
                inst.for_each_use(|r| {
                    if live.insert(r.index()) {
                        slots += weight(r.index());
                    }
                });
                max_slots = max_slots.max(slots);
                for r in live.iter() {
                    live_len[r] += 1;
                }
            }
        }
        (max_slots, live_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_ptx::{CmpOp, KernelBuilder, LabelId, Op2};
    use proptest::prelude::*;

    #[test]
    fn reference_bitset_basics() {
        let mut s = reference::BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(129));
        assert_eq!(s.len(), 2);
        s.remove(0);
        assert!(!s.contains(0));
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![129]);
    }

    /// A kernel of random instructions over registers of the drawn types
    /// (`tys[i] % 6` picks from 32-bit, wide and predicate types). Each op
    /// is `(kind, x, y, z)`; registers are drawn modulo their count, labels
    /// modulo `labels`. Labels placed before a branch to them make backward
    /// edges, after it forward ones; unplaced labels go at the end.
    fn random_kernel(tys: &[u8], labels: usize, ops: &[(u8, u16, u16, u16)]) -> Kernel {
        const TYS: [Ty; 6] = [Ty::S32, Ty::F64, Ty::Pred, Ty::U64, Ty::F32, Ty::B32];
        let mut b = KernelBuilder::new("random");
        let regs: Vec<(Reg, Ty)> = tys
            .iter()
            .map(|&t| {
                let ty = TYS[t as usize % TYS.len()];
                (b.reg(ty), ty)
            })
            .collect();
        let labels: Vec<LabelId> = (0..labels).map(|_| b.new_label()).collect();
        let mut placed = vec![false; labels.len()];
        let r = |i: u16| regs[i as usize % regs.len()];
        for &(kind, x, y, z) in ops {
            let (d, ty) = r(x);
            let (a, bb) = (Operand::Reg(r(y).0), Operand::Reg(r(z).0));
            let l = x as usize % labels.len();
            match kind {
                0 => b.emit(Inst::Mov {
                    ty,
                    d,
                    a: Operand::ImmI(1),
                }),
                1 => b.emit(Inst::Bin {
                    op: Op2::Add,
                    ty,
                    d,
                    a,
                    b: bb,
                }),
                2 => b.emit(Inst::Setp {
                    cmp: CmpOp::Lt,
                    ty,
                    d,
                    a,
                    b: bb,
                }),
                3 => b.bra(labels[l]),
                4 => b.bra_if(labels[l], r(y).0, z % 2 == 0),
                5 => b.ret(),
                6 | 7 if !placed[l] => {
                    placed[l] = true;
                    b.place_label(labels[l]);
                }
                8 => b.st(Space::Global, ty, Address::absolute(0), d),
                _ => b.emit(Inst::Selp {
                    ty,
                    d,
                    a,
                    b: bb,
                    p: r(x ^ y).0,
                }),
            }
        }
        for (&l, &p) in labels.iter().zip(&placed) {
            if !p {
                b.place_label(l);
            }
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_flat_analysis_matches_the_reference(
            tys in prop::collection::vec(0u8..6, 1..160),
            labels in 1usize..8,
            ops in prop::collection::vec((0u8..10, any::<u16>(), any::<u16>(), any::<u16>()), 0..120),
            budget in 0u32..24,
        ) {
            let k = random_kernel(&tys, labels, &ops);
            let a = Analysis::of(&k);
            let cfg = reference::build_cfg(&k);
            let starts: Vec<usize> = cfg.iter().map(|b| b.start).chain([k.body.len()]).collect();
            prop_assert_eq!(&a.starts, &starts);
            let (live_in, _) = reference::liveness(&k, &cfg);
            for (b, set) in live_in.iter().enumerate() {
                prop_assert_eq!(&a.live_in[b * a.words..(b + 1) * a.words], &set.words[..]);
            }
            let (max_live_slots, live_len) = reference::pressure(&k);
            prop_assert_eq!(a.max_live_slots, max_live_slots);
            prop_assert_eq!(a.live_len(&k), live_len);
            // What spilling reports is the pressure of the kernel it leaves.
            let mut spilled = k.clone();
            let (_, slots) = spill_to_local(&mut spilled, budget);
            prop_assert_eq!(slots, reference::pressure(&spilled).0);
        }
    }

    fn straightline_kernel(n_chain: usize) -> Kernel {
        // r0 = 1; r1 = r0+1; ... long dependency chain: pressure stays tiny.
        let mut b = KernelBuilder::new("chain");
        let mut prev = b.mov(Ty::S32, 1i32);
        for _ in 0..n_chain {
            prev = b.bin(Op2::Add, Ty::S32, prev, 1i32);
        }
        b.st(Space::Global, Ty::S32, Address::absolute(0), prev);
        b.finish()
    }

    #[test]
    fn chain_has_low_pressure() {
        let k = straightline_kernel(50);
        let p = Analysis::of(&k).max_live_slots;
        assert!(p <= 2, "chain pressure {p}");
    }

    fn wide_live_kernel(n: usize) -> Kernel {
        // define n values, then use them all at the end: pressure = n.
        let mut b = KernelBuilder::new("wide");
        let regs: Vec<_> = (0..n).map(|i| b.mov(Ty::S32, i as i32)).collect();
        let mut acc = regs[0];
        for r in &regs[1..] {
            acc = b.bin(Op2::Add, Ty::S32, acc, *r);
        }
        b.st(Space::Global, Ty::S32, Address::absolute(0), acc);
        b.finish()
    }

    #[test]
    fn parallel_values_have_high_pressure() {
        let k = wide_live_kernel(40);
        let p = Analysis::of(&k).max_live_slots;
        assert!(p >= 40, "pressure {p}");
    }

    #[test]
    fn spilling_reduces_pressure_and_allocates_local() {
        let mut k = wide_live_kernel(40);
        let (spilled, slots) = spill_to_local(&mut k, 16);
        assert!(spilled > 0);
        assert_eq!(k.local_bytes, spilled * 8);
        assert_eq!(slots, Analysis::of(&k).max_live_slots);
        assert!(slots <= 16 + 2, "post-spill pressure {slots}");
        // spill code present
        let count = |want: fn(&Inst) -> bool| k.body.iter().filter(|i| want(i)).count();
        let lds = count(|i| {
            matches!(
                i,
                Inst::Ld {
                    space: Space::Local,
                    ..
                }
            )
        });
        let sts = count(|i| {
            matches!(
                i,
                Inst::St {
                    space: Space::Local,
                    ..
                }
            )
        });
        assert!(lds > 0 && sts > 0);
    }

    #[test]
    fn cfg_over_branches() {
        let mut b = KernelBuilder::new("br");
        let l_else = b.new_label();
        let l_end = b.new_label();
        let p = b.setp(CmpOp::Lt, Ty::S32, 1i32, 2i32);
        b.bra_if(l_else, p, false);
        let t = b.mov(Ty::S32, 1i32);
        b.st(Space::Global, Ty::S32, Address::absolute(0), t);
        b.bra(l_end);
        b.place_label(l_else);
        let e = b.mov(Ty::S32, 2i32);
        b.st(Space::Global, Ty::S32, Address::absolute(0), e);
        b.place_label(l_end);
        let k = b.finish();
        let a = Analysis::of(&k);
        // at least four blocks (`starts` also holds the body length)
        assert!(a.starts.len() > 4);
        // entry block ends with conditional branch: two successors
        assert!(a.succs[0].iter().all(|&s| s != NO_BLOCK));
    }

    #[test]
    fn liveness_across_loop_backedge() {
        // acc defined before loop, updated in loop, stored after: must be
        // live around the back edge.
        let mut b = KernelBuilder::new("loop");
        let acc = b.mov(Ty::S32, 0i32);
        let i = b.mov(Ty::S32, 0i32);
        let top = b.new_label();
        let end = b.new_label();
        b.place_label(top);
        let p = b.setp(CmpOp::Ge, Ty::S32, i, 10i32);
        b.bra_if(end, p, true);
        b.bin_to(Op2::Add, Ty::S32, acc, acc, 1i32);
        b.bin_to(Op2::Add, Ty::S32, i, i, 1i32);
        b.bra(top);
        b.place_label(end);
        b.st(Space::Global, Ty::S32, Address::absolute(0), acc);
        let k = b.finish();
        let a = Analysis::of(&k);
        // the loop-header block holds the setp
        let header = a
            .starts
            .windows(2)
            .position(|w| {
                k.body[w[0]..w[1]]
                    .iter()
                    .any(|i| matches!(i, Inst::Setp { .. }))
            })
            .unwrap();
        let live_in = &a.live_in[header * a.words..(header + 1) * a.words];
        assert!(live_in[0] & (1 << acc.index()) != 0);
        assert!(live_in[0] & (1 << i.index()) != 0);
    }
}
