//! High-level bit-vector solver API over the bit-blaster and SAT core.
//!
//! This is the component the symbolic executor talks to: satisfiability
//! of path constraints, model (test-case) extraction, and bounded value
//! enumeration for the concretization policy (paper §III-B).

use crate::blast::Blaster;
use crate::expr::{BinOp, TermId, TermPool};
use std::collections::HashMap;
use std::time::Instant;

/// A satisfying assignment (variable name → value).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<String, u64>,
}

impl Model {
    /// Value of a variable (unconstrained variables default to 0, the
    /// same completion rule [`TermPool::eval`] uses).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Evaluates an arbitrary term under this model.
    pub fn eval(&self, pool: &TermPool, term: TermId) -> u64 {
        pool.eval(term, &self.values)
    }

    /// Iterates over assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

impl From<HashMap<String, u64>> for Model {
    fn from(values: HashMap<String, u64>) -> Self {
        Model { values }
    }
}

/// Query outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryResult {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl QueryResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, QueryResult::Sat(_))
    }
}

/// Cumulative solver statistics (reported by the evaluation harnesses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total queries issued.
    pub queries: u64,
    /// Of which satisfiable.
    pub sat: u64,
    /// Of which unsatisfiable.
    pub unsat: u64,
    /// Total solving time in microseconds.
    pub time_us: u64,
}

impl SolverStats {
    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.time_us += other.time_us;
    }
}

/// The bit-vector decision procedure (bit-blasting + CDCL).
#[derive(Clone, Debug, Default)]
pub struct BvSolver {
    /// Statistics accumulated across queries.
    pub stats: SolverStats,
}

impl BvSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        BvSolver::default()
    }

    /// Checks the conjunction of 1-bit `assertions`.
    pub fn check(&mut self, pool: &TermPool, assertions: &[TermId]) -> QueryResult {
        let start = Instant::now();
        let result = match Self::solve(pool, assertions) {
            Some(env) => QueryResult::Sat(Model { values: env }),
            None => QueryResult::Unsat,
        };
        self.record(start, result.is_sat());
        result
    }

    /// Decides `constraints ∧ extra` without producing a model, blasting
    /// only the constraints that share a variable with `extra`, directly
    /// or through other constraints (KLEE's constraint independence).
    ///
    /// The answer equals `check(constraints ++ [extra]).is_sat()` provided
    /// `constraints` alone are satisfiable: the constraints left out then
    /// form a satisfiable set over variables the slice never mentions, so
    /// any model of the slice extends to all of them. A live symbolic
    /// state's path condition always is, because it only ever grows by a
    /// condition that was just found feasible. Counts as one query, and
    /// the slicing is part of its time.
    pub fn feasible(&mut self, pool: &TermPool, constraints: &[TermId], extra: TermId) -> bool {
        let start = Instant::now();
        let mut slice = independent_slice(pool, constraints, extra);
        slice.push(extra);
        let sat = Self::solve(pool, &slice).is_some();
        self.record(start, sat);
        sat
    }

    /// Bit-blasts and solves the conjunction of `assertions`.
    fn solve(pool: &TermPool, assertions: &[TermId]) -> Option<HashMap<String, u64>> {
        // Fast path: constant-false assertion.
        if assertions.iter().any(|&a| pool.as_const(a) == Some(0)) {
            return None;
        }
        let mut blaster = Blaster::new(pool);
        for &a in assertions {
            if pool.as_const(a) != Some(1) {
                blaster.assert_true(a);
            }
        }
        blaster.solve()
    }

    fn record(&mut self, start: Instant, sat: bool) {
        self.stats.queries += 1;
        if sat {
            self.stats.sat += 1;
        } else {
            self.stats.unsat += 1;
        }
        self.stats.time_us += start.elapsed().as_micros() as u64;
    }

    /// Enumerates up to `max` distinct values of `term` under
    /// `assertions` (the exhaustive concretization policy). Values are
    /// returned in discovery order.
    pub fn solutions(
        &mut self,
        pool: &mut TermPool,
        assertions: &[TermId],
        term: TermId,
        max: usize,
    ) -> Vec<u64> {
        let mut found = Vec::new();
        let mut constraints = assertions.to_vec();
        while found.len() < max {
            match self.check(pool, &constraints) {
                QueryResult::Unsat => break,
                QueryResult::Sat(model) => {
                    let v = model.eval(pool, term);
                    found.push(v);
                    let w = pool.width(term);
                    let cv = pool.constant(v, w);
                    let eq = pool.binary(BinOp::Eq, term, cv);
                    let ne = pool.not_cond(eq);
                    constraints.push(ne);
                }
            }
        }
        found
    }
}

/// The constraints that transitively share a variable with `extra`, in
/// their original order.
fn independent_slice(pool: &TermPool, constraints: &[TermId], extra: TermId) -> Vec<TermId> {
    let mut vars: Vec<TermId> = pool.support(extra).to_vec();
    let mut taken = vec![false; constraints.len()];
    // Each pass takes every constraint touching `vars` and widens `vars`
    // by its support; a pass that widens nothing ends the closure.
    let mut grew = !vars.is_empty();
    while grew {
        grew = false;
        for (i, &c) in constraints.iter().enumerate() {
            let support = pool.support(c);
            if taken[i] || !support.iter().any(|v| vars.binary_search(v).is_ok()) {
                continue;
            }
            taken[i] = true;
            for &v in support {
                if let Err(at) = vars.binary_search(&v) {
                    vars.insert(at, v);
                    grew = true;
                }
            }
        }
    }
    constraints
        .iter()
        .zip(taken)
        .filter_map(|(&c, t)| t.then_some(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn check_sat_and_model() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 32);
        let c = p.constant(0x1000, 32);
        let lt = p.binary(BinOp::Ult, x, c);
        let c0 = p.constant(0xf00, 32);
        let gt = p.binary(BinOp::Ult, c0, x);
        match s.check(&p, &[lt, gt]) {
            QueryResult::Sat(m) => {
                let v = m.get("x");
                assert!(v > 0xf00 && v < 0x1000);
            }
            QueryResult::Unsat => panic!(),
        }
        assert_eq!(s.stats.queries, 1);
        assert_eq!(s.stats.sat, 1);
    }

    #[test]
    fn constant_false_shortcircuits() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let f = p.fls();
        assert_eq!(s.check(&p, &[f]), QueryResult::Unsat);
        assert_eq!(s.stats.unsat, 1);
    }

    #[test]
    fn solutions_enumerates_bounded() {
        // x & 0xFC == 0x10  =>  x in {0x10, 0x11, 0x12, 0x13}
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 8);
        let mask = p.constant(0xfc, 8);
        let c10 = p.constant(0x10, 8);
        let masked = p.binary(BinOp::And, x, mask);
        let eq = p.binary(BinOp::Eq, masked, c10);
        let mut sols = s.solutions(&mut p, &[eq], x, 10);
        sols.sort_unstable();
        assert_eq!(sols, vec![0x10, 0x11, 0x12, 0x13]);
    }

    #[test]
    fn solutions_respects_max() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 8);
        let t = p.tru();
        let _ = t;
        let sols = s.solutions(&mut p, &[], x, 3);
        assert_eq!(sols.len(), 3);
        let unique: std::collections::HashSet<_> = sols.iter().collect();
        assert_eq!(unique.len(), 3, "values must be distinct");
    }

    #[test]
    fn model_eval_of_composite_terms() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 16);
        let c3 = p.constant(3, 16);
        let c30 = p.constant(30, 16);
        let e = p.binary(BinOp::Mul, x, c3);
        let eq = p.binary(BinOp::Eq, e, c30);
        match s.check(&p, &[eq]) {
            QueryResult::Sat(m) => {
                assert_eq!(m.eval(&p, e), 30);
            }
            QueryResult::Unsat => panic!(),
        }
    }
}
