//! The minimizing reducer: shrink a diverging case to a minimal
//! reproducer that still diverges on the *same axis*.
//!
//! Classic greedy delta-debugging with first-improvement restarts: each
//! round proposes candidate edits in decreasing order of expected payoff
//! (launch-geometry shrinks, statement deletion, control-structure
//! hoisting, loop-bound collapse, expression child-substitution); the
//! first candidate that (a) still compiles through both front-ends and
//! (b) still reports a divergence with the same axis string replaces the
//! case and restarts the round. Rounds repeat until a fixpoint or the
//! oracle-check budget runs out.
//!
//! Keying the predicate on the axis string (e.g. `tier:cuda/decoded/8t`)
//! keeps the reducer from "wandering": a shrink that trades the original
//! mismatch for a different one is rejected.

use crate::gen::FuzzCase;
use crate::oracle::{Divergence, Oracle};
use gpucmp_compiler::ast::{Expr, Stmt};

/// Upper bound on oracle invocations per reduction (each invocation runs
/// the full matrix, so this caps wall-clock on adversarial cases).
const CHECK_BUDGET: usize = 500;

/// Outcome of a reduction.
#[derive(Clone, Debug)]
pub struct Reduced {
    /// The minimized case.
    pub case: FuzzCase,
    /// The divergence it still reproduces.
    pub divergence: Divergence,
    /// Oracle invocations spent.
    pub checks: usize,
}

/// Shrink `case` (known to diverge as `original`) to a minimal
/// reproducer with the same divergence axis.
pub fn reduce(oracle: &Oracle, case: &FuzzCase, original: &Divergence) -> Reduced {
    let mut best = case.clone();
    let mut best_div = original.clone();
    let target_axis = original.axis.clone();
    let mut checks = 0usize;

    // Does `candidate` still show the same failure? Compile errors and
    // clean runs both reject it; so does a divergence on a different axis
    // (the reducer must not wander to an unrelated bug), and so does a
    // use-before-def candidate (deleting a `let` whose variable is still
    // read leaves a register whose content is an allocation artifact —
    // such a case "diverges" for a reason unrelated to the original bug).
    let still_fails = |cand: &FuzzCase, checks: &mut usize| -> Option<Divergence> {
        if *checks >= CHECK_BUDGET || uses_undefined_vars(&cand.def.body) {
            return None;
        }
        *checks += 1;
        match oracle.check(cand) {
            Ok(Some(d)) if d.axis == target_axis => Some(d),
            _ => None,
        }
    };

    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if cand.stmt_count() == 0 {
                continue;
            }
            if let Some(d) = still_fails(&cand, &mut checks) {
                best = cand;
                best_div = d;
                improved = true;
                break;
            }
        }
        if !improved || checks >= CHECK_BUDGET {
            break;
        }
    }

    best.name = format!("min-{:016x}", best.seed);
    Reduced {
        case: best,
        divergence: best_div,
        checks,
    }
}

/// Whether any variable is read before it is definitely assigned.
/// Standard definite-assignment dataflow: a branch's definitions escape
/// only if both branches make them, loop-body definitions don't escape at
/// all (zero-trip loops), and a `for` defines its induction variable from
/// the loop onward.
fn uses_undefined_vars(body: &[Stmt]) -> bool {
    use std::collections::HashSet;

    fn walk(body: &[Stmt], defined: &mut HashSet<u32>) -> bool {
        for s in body {
            let reads_undefined =
                |e: &Expr| e.any(&mut |e| matches!(e, Expr::Var(v) if !defined.contains(&v.id)));
            if s.exprs().any(reads_undefined) {
                return false;
            }
            match s {
                Stmt::Let(v, _) | Stmt::Assign(v, _) => {
                    defined.insert(v.id);
                }
                Stmt::If { then_, else_, .. } => {
                    let mut dt = defined.clone();
                    let mut de = defined.clone();
                    if !walk(then_, &mut dt) || !walk(else_, &mut de) {
                        return false;
                    }
                    for id in dt.intersection(&de) {
                        defined.insert(*id);
                    }
                }
                Stmt::For { var, body, .. } => {
                    let mut db = defined.clone();
                    db.insert(var.id);
                    if !walk(body, &mut db) {
                        return false;
                    }
                    // The induction variable keeps its final value.
                    defined.insert(var.id);
                }
                Stmt::While { body, .. } => {
                    let mut db = defined.clone();
                    if !walk(body, &mut db) {
                        return false;
                    }
                }
                Stmt::AtomicRmw { old, .. } => {
                    if let Some(o) = old {
                        defined.insert(o.id);
                    }
                }
                Stmt::Store { .. } | Stmt::Barrier => {}
            }
        }
        true
    }

    let mut defined = HashSet::new();
    !walk(body, &mut defined)
}

/// Candidate edits for one round, best-payoff first.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();

    // Launch-geometry shrinks: most bugs survive them and they make every
    // later oracle check cheaper.
    if case.grid > 1 {
        let mut c = case.clone();
        c.grid = 1;
        out.push(c);
    }
    if case.block > 32 {
        let mut c = case.clone();
        c.block = 32;
        out.push(c);
    }
    if case.block > 1 && case.block <= 32 {
        let mut c = case.clone();
        c.block = 1;
        out.push(c);
    }
    if case.inst_budget.is_some() {
        let mut c = case.clone();
        c.inst_budget = None;
        out.push(c);
    }

    // Statement deletion, last-to-first (later statements are more often
    // dead weight for an earlier divergence).
    let paths = stmt_paths(&case.def.body);
    for path in paths.iter().rev() {
        let mut c = case.clone();
        if delete_at(&mut c.def.body, path) {
            out.push(c);
        }
    }

    // Hoist the body of an if/for in place of the structure itself, and
    // collapse loop bounds to a single iteration.
    for path in paths.iter().rev() {
        if let Some(stmt) = stmt_at(&case.def.body, path) {
            match stmt {
                Stmt::If { then_, .. } if !then_.is_empty() => {
                    let body = then_.clone();
                    let mut c = case.clone();
                    if replace_at(&mut c.def.body, path, body) {
                        out.push(c);
                    }
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    unroll,
                    body,
                } => {
                    // One-iteration loop.
                    let collapsed = Stmt::For {
                        var: *var,
                        start: Expr::ImmI(0),
                        end: Expr::ImmI(1),
                        step: 1,
                        unroll: *unroll,
                        body: body.clone(),
                    };
                    if !matches!((start, end, step), (Expr::ImmI(0), Expr::ImmI(1), 1)) {
                        let mut c = case.clone();
                        if replace_at(&mut c.def.body, path, vec![collapsed]) {
                            out.push(c);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Expression simplification: replace a statement's expressions by one
    // of their children (type-preserving hoists only).
    for path in paths.iter().rev() {
        if let Some(stmt) = stmt_at(&case.def.body, path) {
            for simplified in simplify_stmt(stmt) {
                let mut c = case.clone();
                if replace_at(&mut c.def.body, path, vec![simplified]) {
                    out.push(c);
                }
            }
        }
    }

    out
}

/// Paths (index chains) to every statement, preorder.
fn stmt_paths(body: &[Stmt]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    fn walk(body: &[Stmt], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        for (i, s) in body.iter().enumerate() {
            prefix.push(i);
            out.push(prefix.clone());
            match s {
                Stmt::If { then_, else_, .. } => {
                    // then-branch = child space 0.., else-branch shifted by
                    // then_.len() — encoded by flattening both into one
                    // child list for path purposes.
                    walk(then_, prefix, out);
                    let mark = prefix.len();
                    prefix.push(usize::MAX); // sentinel: else-branch
                    walk(else_, prefix, out);
                    prefix.truncate(mark);
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, prefix, out),
                _ => {}
            }
            prefix.pop();
        }
    }
    let mut prefix = Vec::new();
    walk(body, &mut prefix, &mut out);
    out
}

/// Resolve a path to a statement.
fn stmt_at<'a>(body: &'a [Stmt], path: &[usize]) -> Option<&'a Stmt> {
    let (&idx, rest) = path.split_first()?;
    if idx == usize::MAX {
        // else-branch sentinel is never first in a valid path segment.
        return None;
    }
    let s = body.get(idx)?;
    if rest.is_empty() {
        return Some(s);
    }
    match s {
        Stmt::If { then_, else_, .. } => {
            if rest[0] == usize::MAX {
                stmt_at(else_, &rest[1..])
            } else {
                stmt_at(then_, rest)
            }
        }
        Stmt::For { body, .. } | Stmt::While { body, .. } => stmt_at(body, rest),
        _ => None,
    }
}

/// Delete the statement at `path`; false if the path no longer resolves.
fn delete_at(body: &mut Vec<Stmt>, path: &[usize]) -> bool {
    edit_at(body, path, |parent, idx| {
        parent.remove(idx);
        true
    })
}

/// Replace the statement at `path` with `with` (possibly several
/// statements — used for body hoists).
fn replace_at(body: &mut Vec<Stmt>, path: &[usize], with: Vec<Stmt>) -> bool {
    edit_at(body, path, move |parent, idx| {
        parent.splice(idx..idx + 1, with);
        true
    })
}

fn edit_at(
    body: &mut Vec<Stmt>,
    path: &[usize],
    edit: impl FnOnce(&mut Vec<Stmt>, usize) -> bool,
) -> bool {
    let Some((&idx, rest)) = path.split_first() else {
        return false;
    };
    if idx == usize::MAX {
        return false;
    }
    if rest.is_empty() {
        if idx >= body.len() {
            return false;
        }
        return edit(body, idx);
    }
    let Some(s) = body.get_mut(idx) else {
        return false;
    };
    match s {
        Stmt::If { then_, else_, .. } => {
            if rest[0] == usize::MAX {
                edit_at(else_, &rest[1..], edit)
            } else {
                edit_at(then_, rest, edit)
            }
        }
        Stmt::For { body, .. } | Stmt::While { body, .. } => edit_at(body, rest, edit),
        _ => false,
    }
}

/// Type-preserving expression shrinks of one statement (each result is a
/// full replacement statement).
fn simplify_stmt(stmt: &Stmt) -> Vec<Stmt> {
    let mut out = Vec::new();
    match stmt {
        Stmt::Let(v, e) => {
            for e2 in shrink_expr(e) {
                out.push(Stmt::Let(*v, e2));
            }
        }
        Stmt::Assign(v, e) => {
            for e2 in shrink_expr(e) {
                out.push(Stmt::Assign(*v, e2));
            }
        }
        Stmt::Store {
            space,
            base,
            index,
            ty,
            value,
        } => {
            for v2 in shrink_expr(value) {
                out.push(Stmt::Store {
                    space: *space,
                    base: base.clone(),
                    index: index.clone(),
                    ty: *ty,
                    value: v2,
                });
            }
            for i2 in shrink_expr(index) {
                out.push(Stmt::Store {
                    space: *space,
                    base: base.clone(),
                    index: i2,
                    ty: *ty,
                    value: value.clone(),
                });
            }
        }
        Stmt::If { cond, then_, else_ } => {
            for c2 in shrink_expr(cond) {
                out.push(Stmt::If {
                    cond: c2,
                    then_: then_.clone(),
                    else_: else_.clone(),
                });
            }
        }
        _ => {}
    }
    out
}

/// Candidate replacements for an expression: its like-typed children.
/// (Like-typed is approximated structurally: `Bin`/`Select` children share
/// the parent's type class; a `Cmp` or `Cast` child does not.)
fn shrink_expr(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Bin(_, a, b) => vec![(**a).clone(), (**b).clone()],
        Expr::Select(_, a, b) => vec![(**a).clone(), (**b).clone()],
        Expr::Un(_, a) => vec![(**a).clone()],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::oracle::MutateMode;
    use crate::rng::case_seed;

    #[test]
    fn paths_cover_nested_structures() {
        let case = generate(case_seed(8, 3));
        let paths = stmt_paths(&case.def.body);
        assert_eq!(paths.len(), case.stmt_count());
        for p in &paths {
            assert!(stmt_at(&case.def.body, p).is_some(), "unresolvable {p:?}");
        }
    }

    #[test]
    fn deletion_reduces_count() {
        let case = generate(case_seed(8, 1));
        let n = case.stmt_count();
        let paths = stmt_paths(&case.def.body);
        let mut c = case.clone();
        assert!(delete_at(&mut c.def.body, paths.last().unwrap()));
        assert!(c.stmt_count() < n);
    }

    #[test]
    fn injected_divergence_minimizes_small() {
        let oracle = Oracle::with_mutation(MutateMode::TierXor);
        let case = generate(case_seed(8, 0));
        let d = oracle
            .check(&case)
            .expect("oracle runs")
            .expect("mutation detected");
        let red = reduce(&oracle, &case, &d);
        assert_eq!(red.divergence.axis, d.axis);
        // Acceptance bound: a pure result-perturbation shrinks to almost
        // nothing (the kernel still needs one observable statement).
        assert!(
            red.case.stmt_count() <= 10,
            "reduced to {} statements",
            red.case.stmt_count()
        );
    }
}
