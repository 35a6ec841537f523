//! Property tests for constraint independence: the memoised variable
//! support of every term matches a fresh walk of it, and a sliced
//! feasibility query answers exactly what the full query answers when the
//! path condition is satisfiable.

use hardsnap_symex::{BinOp, BvSolver, Term, TermId, TermPool, UnOp};
use hardsnap_util::prop::{any, vec_of};
use hardsnap_util::prop_check;
use std::cell::Cell;
use std::collections::HashMap;

const VARS: usize = 6;

fn vars(pool: &mut TermPool, width: u32) -> Vec<TermId> {
    (0..VARS)
        .map(|i| pool.var(&format!("v{i}"), width))
        .collect()
}

/// Support names via the memo.
fn support_names(pool: &TermPool, t: TermId) -> Vec<String> {
    let mut names: Vec<String> = pool
        .support(t)
        .iter()
        .map(|&v| match pool.term(v) {
            Term::Var { name, .. } => name.clone(),
            other => panic!("support holds a non-variable {other:?}"),
        })
        .collect();
    names.sort();
    names
}

/// Support names via a tree walk.
fn walked_names(pool: &TermPool, t: TermId) -> Vec<String> {
    let mut out = HashMap::new();
    pool.variables(t, &mut out);
    let mut names: Vec<String> = out.into_keys().collect();
    names.sort();
    names
}

/// Builds a DAG from `recipe`: each word picks an operator and operands
/// among the terms built so far, so later terms share earlier ones.
fn build_dag(pool: &mut TermPool, recipe: &[u64]) -> Vec<TermId> {
    let mut nodes = vars(pool, 8);
    let mut conds: Vec<TermId> = Vec::new();
    for &w in recipe {
        let a = nodes[(w >> 8) as usize % nodes.len()];
        let b = nodes[(w >> 16) as usize % nodes.len()];
        let k = pool.constant(w >> 24, 8);
        match w % 11 {
            0 => nodes.push(pool.binary(BinOp::Add, a, b)),
            1 => nodes.push(pool.binary(BinOp::Xor, a, b)),
            2 => nodes.push(pool.binary(BinOp::And, a, k)),
            3 => nodes.push(pool.binary(BinOp::Mul, a, b)),
            4 => nodes.push(pool.unary(UnOp::Not, a)),
            5 => {
                let c = match conds.last() {
                    Some(&c) => c,
                    None => pool.binary(BinOp::Ult, a, b),
                };
                nodes.push(pool.ite(c, a, b));
            }
            6 => {
                let lo = pool.extract(a, 3, 0);
                nodes.push(pool.zext(lo, 8));
            }
            7 => {
                let hi = pool.extract(a, 3, 0);
                let lo = pool.extract(b, 7, 4);
                nodes.push(pool.concat(hi, lo));
            }
            8 => conds.push(pool.binary(BinOp::Eq, a, k)),
            9 => conds.push(pool.binary(BinOp::Ult, a, b)),
            _ => nodes.push(pool.fresh_var("f", 8)),
        }
    }
    nodes.extend(conds);
    nodes
}

#[test]
fn memoised_support_equals_a_fresh_walk() {
    prop_check!(cases = 256, seed = 0x5EB_0A7, (recipe in vec_of(any::<u64>(), 0..48)) => {
        let mut pool = TermPool::new();
        for t in build_dag(&mut pool, &recipe) {
            assert_eq!(support_names(&pool, t), walked_names(&pool, t), "term {t:?}");
        }
    });
}

/// One 1-bit atom over one or two 4-bit variables, drawn from `w`.
fn atom(pool: &mut TermPool, vs: &[TermId], w: u64) -> TermId {
    let x = vs[(w >> 4) as usize % VARS];
    let lhs = if w.is_multiple_of(3) {
        x
    } else {
        let y = vs[(w >> 8) as usize % VARS];
        pool.binary(BinOp::Add, x, y)
    };
    let k = pool.constant(w >> 12, 4);
    match (w >> 1) % 4 {
        0 | 3 => pool.binary(BinOp::Eq, lhs, k),
        1 => pool.binary(BinOp::Ult, lhs, k),
        _ => pool.binary(BinOp::Ult, k, lhs),
    }
}

#[test]
fn sliced_feasibility_equals_the_full_query() {
    let outcomes = [Cell::new(0u32), Cell::new(0u32)];
    prop_check!(
        cases = 2048,
        seed = 0x0051_1CE0,
        (hidden in any::<u32>(), words in vec_of(any::<u64>(), 0..16), extra_w in any::<u64>()) => {
            let mut pool = TermPool::new();
            let vs = vars(&mut pool, 4);
            // A hidden assignment satisfies every constraint: atoms it
            // falsifies enter negated, so the path condition is SAT.
            let env: HashMap<String, u64> =
                (0..VARS).map(|i| (format!("v{i}"), (hidden >> (4 * i)) as u64 & 0xf)).collect();
            let constraints: Vec<TermId> = words
                .iter()
                .map(|&w| {
                    let a = atom(&mut pool, &vs, w);
                    if pool.eval(a, &env) == 1 { a } else { pool.not_cond(a) }
                })
                .collect();
            let extra = atom(&mut pool, &vs, extra_w);
            let mut all = constraints.clone();
            all.push(extra);
            let mut solver = BvSolver::new();
            let full = solver.check(&pool, &all).is_sat();
            let sliced = solver.feasible(&pool, &constraints, extra);
            assert_eq!(sliced, full, "constraints {constraints:?}, extra {extra:?}");
            assert_eq!(solver.stats.queries, 2, "one query per call");
            outcomes[usize::from(sliced)].set(outcomes[usize::from(sliced)].get() + 1);
        }
    );
    // Both answers occur, so neither side of the equivalence is vacuous.
    assert!(
        outcomes[0].get() > 0 && outcomes[1].get() > 0,
        "{outcomes:?}"
    );
}
