//! Bitvector constraint solver for DDT path conditions.
//!
//! This crate is the decision-procedure substrate standing in for the STP
//! solver used by Klee in the original DDT (DESIGN.md §2). It decides
//! satisfiability of conjunctions of 1-bit [`Expr`] constraints and extracts
//! concrete models ([`Assignment`]) used for:
//!
//! - branch feasibility during symbolic exploration,
//! - on-demand concretization of symbolic arguments at kernel calls (§3.2),
//! - deriving the concrete bug-triggering inputs recorded in traces (§3.5).
//!
//! The pipeline is: cheap model guessing (zero / small / all-ones candidate
//! assignments evaluated directly) → shared [`QueryCache`] (exact
//! memoization, UNSAT subset subsumption, counterexample reuse — see
//! [`cache`]) → independence slicing for verdict-grade queries
//! (symbol-disjoint components decided and cached separately) → Tseitin
//! bit-blasting ([`blast`]) → CDCL SAT ([`sat`]). The procedure is complete
//! for the supported widths: every query gets a definite Sat/Unsat answer.
//!
//! Full solves always assert constraints in *canonical key order* (sorted,
//! deduplicated), so a solve is a deterministic function of the query set —
//! the property that lets cached and uncached runs produce bit-identical
//! explorations.
//!
//! # Examples
//!
//! ```
//! use ddt_expr::{Expr, SymId};
//! use ddt_solver::{SatResult, Solver};
//!
//! let x = Expr::sym(SymId(0), 32);
//! let c = x.mul(&Expr::constant(3, 32)).eq(&Expr::constant(21, 32));
//! let mut solver = Solver::new();
//! match solver.check(&[c]) {
//!     SatResult::Sat(model) => assert_eq!(model.get_or_zero(SymId(0)) & 0xffff_ffff, 7),
//!     SatResult::Unsat => panic!("7 * 3 == 21"),
//! }
//! ```
//!
//! Workers share one cache by construction:
//!
//! ```
//! use std::sync::Arc;
//! use ddt_solver::{QueryCache, Solver};
//!
//! let cache = Arc::new(QueryCache::new());
//! let worker_a = Solver::with_cache(cache.clone());
//! let worker_b = Solver::with_cache(cache.clone());
//! # let _ = (worker_a, worker_b);
//! ```

pub mod blast;
pub mod cache;
pub mod sat;

use std::collections::BTreeSet;
use std::sync::Arc;

use ddt_expr::{
    collect_syms, //
    partition_independent,
    Assignment,
    Expr,
    SymId,
};

pub use crate::cache::{CacheAnswer, CacheStats, QueryCache, QueryGrade};

use crate::blast::Blaster;
use crate::sat::{SatOutcome, SatSolver};

/// Outcome of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model assigning every symbol in the query.
    Sat(Assignment),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Returns true if the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Returns the model, if satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }
}

/// Statistics for solver queries (exposed for the §5.2 scalability bench).
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Total queries issued.
    pub queries: u64,
    /// Queries answered by the cheap guessing fast path.
    pub fast_path_hits: u64,
    /// Queries answered by exact-key cache memoization.
    pub cache_hits: u64,
    /// `Sat` verdicts proved by reusing a cached counterexample.
    pub cache_model_reuse: u64,
    /// `Unsat` verdicts proved by a cached UNSAT subset.
    pub cache_unsat_subset: u64,
    /// Queries that required bit-blasting and CDCL.
    pub full_solves: u64,
    /// Total SAT conflicts across full solves.
    pub sat_conflicts: u64,
    /// Verdict-grade queries that sliced into more than one independence
    /// component.
    pub sliced_queries: u64,
    /// Total components produced by sliced queries (average components per
    /// sliced query = `slice_components / sliced_queries`).
    pub slice_components: u64,
}

/// The bitvector solver.
///
/// Model-consuming queries (`check`) build a fresh SAT instance over the
/// canonical key, so their results are pure functions of the query.
/// Verdict-grade queries (`is_feasible` and friends) additionally go
/// through **independence slicing** ([`Self::set_slicing`], default on): the
/// query partitions into symbol-disjoint components that are decided
/// separately and cached under their own (smaller) keys.
///
/// Results are cached in a [`QueryCache`] that may be *shared* across
/// solvers/workers: sibling paths in an exploration share long constraint
/// prefixes, so the same conjunctions — and counterexamples — recur
/// constantly across the whole worker pool, not just within one worker.
pub struct Solver {
    stats: SolverStats,
    /// Shared (or private) query cache; `None` disables caching entirely
    /// (the `--no-query-cache` escape hatch).
    cache: Option<Arc<QueryCache>>,
    /// Independence slicing for verdict-grade queries (`--no-slicing` off
    /// switch). Model-grade queries always run the canonical monolithic
    /// solve, so slicing cannot perturb any model a caller consumes.
    use_slicing: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with a fresh private cache.
    pub fn new() -> Solver {
        Solver::with_cache(Arc::new(QueryCache::new()))
    }

    /// Creates a solver backed by a shared cache handle. All explorer
    /// workers of one run share a single handle.
    pub fn with_cache(cache: Arc<QueryCache>) -> Solver {
        Solver { stats: SolverStats::default(), cache: Some(cache), use_slicing: true }
    }

    /// Creates a solver with caching disabled: every non-trivial query runs
    /// the full decision procedure.
    pub fn uncached() -> Solver {
        Solver { stats: SolverStats::default(), cache: None, use_slicing: true }
    }

    /// Enables or disables independence slicing of verdict-grade queries
    /// (`--no-slicing` escape hatch; default on). Purely a performance
    /// toggle: verdicts are semantic properties of the query, and
    /// model-consuming queries never take the sliced path.
    pub fn set_slicing(&mut self, on: bool) {
        self.use_slicing = on;
    }

    /// Returns accumulated per-solver statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Returns the cache handle, if caching is enabled.
    pub fn cache(&self) -> Option<&Arc<QueryCache>> {
        self.cache.as_ref()
    }

    /// Decides whether the conjunction of `constraints` is satisfiable.
    ///
    /// Constraints must be 1-bit expressions. On `Sat`, the model assigns
    /// every symbol mentioned in the constraints (unmentioned symbols are
    /// free; callers default them to zero). The model is a deterministic
    /// function of the constraint *set*: permuting or duplicating
    /// constraints cannot change it, and neither can the cache.
    ///
    /// # Panics
    ///
    /// Panics if any constraint is not 1 bit wide.
    pub fn check(&mut self, constraints: &[Expr]) -> SatResult {
        // Public `check` callers consume the model (concretization, bug
        // inputs), so only bit-deterministic cache shortcuts are allowed.
        self.check_graded(constraints, QueryGrade::Model)
    }

    fn check_graded(&mut self, constraints: &[Expr], grade: QueryGrade) -> SatResult {
        self.stats.queries += 1;
        for c in constraints {
            assert_eq!(c.width(), 1, "constraints must be boolean: {c}");
        }
        // Trivial cases.
        if constraints.iter().any(|c| c.is_false()) {
            return SatResult::Unsat;
        }
        let live: Vec<&Expr> = constraints.iter().filter(|c| !c.is_true()).collect();
        if live.is_empty() {
            return SatResult::Sat(Assignment::new());
        }
        let mut syms = BTreeSet::new();
        for c in &live {
            collect_syms(c, &mut syms);
        }
        // Verdict-grade queries discard the model, so the shared cache may
        // answer them even before the fast path: any remembered
        // counterexample (including past fast-path candidates, deposited
        // below) that satisfies the key proves Sat without a solve. The
        // verdict cannot differ from the uncached path — a witness is a
        // witness — so this reordering stays semantically invisible.
        let mut key: Option<Vec<Expr>> = None;
        let mut looked_up = false;
        if grade == QueryGrade::Verdict && self.cache.is_some() {
            let k = QueryCache::canonical_key(&live);
            match self.cache_lookup(&k, grade) {
                Some(hit) => return hit,
                None => looked_up = true,
            }
            key = Some(k);
        }

        // Fast path: try a few cheap candidate assignments. Order-insensitive
        // and cache-independent, so it cannot perturb cached-vs-uncached
        // equivalence. Winning candidates feed the shared counterexample
        // ring so later verdict queries can reuse them.
        for candidate in Self::candidate_models(&syms) {
            if live.iter().all(|c| c.eval_bool(&candidate)) {
                self.stats.fast_path_hits += 1;
                if let Some(cache) = &self.cache {
                    // Verdict-grade wins go to the protected ring: they are
                    // exactly the models future feasibility checks can
                    // reuse, and must not churn out under full-solve
                    // deposits. Model-grade wins join the general pool.
                    if grade == QueryGrade::Verdict {
                        cache.remember_verdict_model(&candidate);
                    } else {
                        cache.remember_model(&candidate);
                    }
                }
                return SatResult::Sat(candidate);
            }
        }
        // Canonical form: the full solve below asserts constraints in key
        // order even with the cache disabled, so every mode solves the same
        // SAT instance for a given constraint set.
        let key = key.unwrap_or_else(|| QueryCache::canonical_key(&live));
        if !looked_up && self.cache.is_some() {
            if let Some(hit) = self.cache_lookup(&key, grade) {
                return hit;
            }
        }
        // Verdict-grade queries may take the sliced pipeline. Sat/Unsat is a
        // semantic property of the constraint set, and slicing never feeds a
        // non-canonical model into the exact cache map, so model-grade
        // queries behave byte-identically whether or not it is enabled.
        if grade == QueryGrade::Verdict && self.use_slicing {
            return self.solve_sliced(key);
        }
        // Full decision procedure over the canonical key.
        self.full_solve(key, &syms)
    }

    /// Canonical monolithic solve: blasts `key` in canonical order on a
    /// fresh core. The result — verdict *and* model — is a deterministic
    /// pure function of the key, which is what makes it safe to memoize
    /// under the key and replay to model-consuming callers.
    fn full_solve(&mut self, key: Vec<Expr>, syms: &BTreeSet<SymId>) -> SatResult {
        self.stats.full_solves += 1;
        let mut sat = SatSolver::new();
        let mut blaster = Blaster::new(&mut sat);
        for c in &key {
            blaster.assert_true(&mut sat, c);
        }
        let result = match sat.solve() {
            SatOutcome::Unsat => {
                self.stats.sat_conflicts += sat.conflicts;
                SatResult::Unsat
            }
            SatOutcome::Sat => {
                self.stats.sat_conflicts += sat.conflicts;
                let mut model = Assignment::new();
                for id in syms {
                    model.set(*id, blaster.sym_model(&sat, *id).unwrap_or(0));
                }
                // The blaster's internal division symbols are filtered out by
                // only reporting symbols that occur in the input constraints.
                debug_assert!(
                    key.iter().all(|c| c.eval_bool(&model)),
                    "model does not satisfy constraints"
                );
                SatResult::Sat(model)
            }
        };
        if let Some(cache) = &self.cache {
            cache.insert(key, result.clone());
        }
        result
    }

    /// The verdict-grade sliced pipeline: partition the canonical key into
    /// symbol-disjoint independence components, decide each component
    /// separately — preferring component-granular cache answers — and
    /// compose a model of the whole query from the per-component models.
    /// The conjunction is `Sat` iff every component is, and
    /// symbol-disjointness makes the union of component models a model of
    /// the conjunction.
    fn solve_sliced(&mut self, key: Vec<Expr>) -> SatResult {
        let parts = partition_independent(&key);
        let multi = parts.len() > 1;
        if multi {
            self.stats.sliced_queries += 1;
            self.stats.slice_components += parts.len() as u64;
        }
        let mut composed = Assignment::new();
        for part in parts {
            let mut part_syms = BTreeSet::new();
            for c in &part {
                collect_syms(c, &mut part_syms);
            }
            // Component-granular cache consultation. The whole key already
            // missed; a strict component is a smaller key with strictly
            // better hit odds (this is where slicing compounds with the
            // shared cache: one worker's solved component answers every
            // sibling query that embeds it).
            if multi {
                if let Some(hit) = self.cache_lookup(&part, QueryGrade::Verdict) {
                    match hit {
                        SatResult::Unsat => return SatResult::Unsat,
                        SatResult::Sat(m) => {
                            merge_for(&mut composed, &m, &part_syms);
                            continue;
                        }
                    }
                }
            }
            // A fresh solve is canonical for the component key and
            // `full_solve` memoizes it under that key.
            match self.full_solve(part, &part_syms) {
                SatResult::Unsat => return SatResult::Unsat,
                SatResult::Sat(m) => merge_for(&mut composed, &m, &part_syms),
            }
        }
        debug_assert!(
            key.iter().all(|c| c.eval_bool(&composed)),
            "composed model does not satisfy the query"
        );
        if let Some(cache) = &self.cache {
            // The composed model depends on how the key sliced (it is not
            // the canonical monolithic model), so it goes to the
            // verdict-reuse ring only — never the exact map, which
            // model-grade callers read.
            cache.remember_verdict_model(&composed);
        }
        SatResult::Sat(composed)
    }

    /// Consults the shared cache and maps the answer onto stats. `None`
    /// means a miss (the caller must solve).
    fn cache_lookup(&mut self, key: &[Expr], grade: QueryGrade) -> Option<SatResult> {
        let answer = self.cache.as_ref()?.lookup(key, grade);
        match answer {
            CacheAnswer::Exact(hit) => {
                self.stats.cache_hits += 1;
                Some(hit)
            }
            CacheAnswer::UnsatSubset => {
                self.stats.cache_unsat_subset += 1;
                Some(SatResult::Unsat)
            }
            CacheAnswer::ModelReuse(model) => {
                self.stats.cache_model_reuse += 1;
                Some(SatResult::Sat(model))
            }
            CacheAnswer::Miss => None,
        }
    }

    fn candidate_models(syms: &BTreeSet<SymId>) -> Vec<Assignment> {
        let mk = |v: u64| -> Assignment { syms.iter().map(|&id| (id, v)).collect() };
        vec![mk(0), mk(1), mk(u64::MAX), mk(4), mk(0x80)]
    }

    /// Returns true if the conjunction is satisfiable.
    ///
    /// This is a verdict-grade query — the model is discarded — so the cache
    /// may additionally answer it by counterexample reuse.
    pub fn is_feasible(&mut self, constraints: &[Expr]) -> bool {
        self.check_graded(constraints, QueryGrade::Verdict).is_sat()
    }

    /// Returns true if `cond` can be true under `constraints`.
    pub fn may_be_true(&mut self, constraints: &[Expr], cond: &Expr) -> bool {
        let mut cs: Vec<Expr> = constraints.to_vec();
        cs.push(cond.clone());
        self.is_feasible(&cs)
    }

    /// Returns true if `cond` must be true under `constraints` (its negation
    /// is infeasible).
    pub fn must_be_true(&mut self, constraints: &[Expr], cond: &Expr) -> bool {
        let mut cs: Vec<Expr> = constraints.to_vec();
        cs.push(cond.lnot());
        !self.is_feasible(&cs)
    }

    /// Produces a feasible concrete value of `e` under `constraints`, or
    /// `None` if the constraints are unsatisfiable.
    ///
    /// This is the concretization primitive of §3.2: the returned value is a
    /// witness, and the caller records the induced `e == value` constraint.
    pub fn concretize(&mut self, constraints: &[Expr], e: &Expr) -> Option<u64> {
        if let Some(v) = e.as_const() {
            return Some(v);
        }
        match self.check(constraints) {
            SatResult::Unsat => None,
            SatResult::Sat(model) => Some(e.eval(&model)),
        }
    }

    /// Enumerates up to `max` distinct feasible values of `e`, used when DDT
    /// backtracks a concretization and re-issues a kernel call with different
    /// feasible concrete values (§3.2).
    pub fn distinct_values(&mut self, constraints: &[Expr], e: &Expr, max: usize) -> Vec<u64> {
        let mut found = Vec::new();
        let mut cs: Vec<Expr> = constraints.to_vec();
        while found.len() < max {
            match self.check(&cs) {
                SatResult::Unsat => break,
                SatResult::Sat(model) => {
                    let v = e.eval(&model);
                    found.push(v);
                    cs.push(e.ne(&Expr::constant(v, e.width())));
                }
            }
        }
        found
    }
}

/// Merges into `into` the values `from` assigns to the symbols in `syms`.
/// Restricting to the component's own symbols matters: a reused ring model
/// may assign symbols belonging to *other* components (whatever its
/// original query mentioned), and those values must not override the models
/// those components produce for themselves. Symbols the source model leaves
/// unassigned default to zero, exactly as `eval` treats them.
fn merge_for(into: &mut Assignment, from: &Assignment, syms: &BTreeSet<SymId>) {
    for id in syms {
        into.set(*id, from.get_or_zero(*id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(id: u32, w: u32) -> Expr {
        Expr::sym(SymId(id), w)
    }

    fn c32(v: u64) -> Expr {
        Expr::constant(v, 32)
    }

    #[test]
    fn empty_is_sat() {
        assert!(Solver::new().check(&[]).is_sat());
    }

    #[test]
    fn trivial_false_is_unsat() {
        assert_eq!(Solver::new().check(&[Expr::false_()]), SatResult::Unsat);
    }

    #[test]
    fn equality_model() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        match s.check(&[x.eq(&c32(42))]) {
            SatResult::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)), 42),
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn contradictory_range_is_unsat() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        let r = s.check(&[x.ult(&c32(5)), c32(10).ult(&x)]);
        assert_eq!(r, SatResult::Unsat);
    }

    #[test]
    fn arithmetic_inversion() {
        // x + 7 == 3 (wrapping) => x == 0xfffffffc.
        let x = sym(0, 32);
        let mut s = Solver::new();
        match s.check(&[x.add(&c32(7)).eq(&c32(3))]) {
            SatResult::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)) & 0xffff_ffff, 0xffff_fffc),
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn multiplication_inversion() {
        let x = sym(0, 16);
        let mut s = Solver::new();
        let c = x.mul(&Expr::constant(5, 16)).eq(&Expr::constant(35, 16));
        match s.check(&[c.clone()]) {
            SatResult::Sat(m) => {
                let mut asg = Assignment::new();
                asg.set(SymId(0), m.get_or_zero(SymId(0)));
                assert!(c.eval_bool(&asg));
            }
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn odd_times_two_is_never_one() {
        // 2*x == 1 has no solution mod 2^32.
        let x = sym(0, 32);
        let mut s = Solver::new();
        assert_eq!(s.check(&[x.mul(&c32(2)).eq(&c32(1))]), SatResult::Unsat);
    }

    #[test]
    fn signed_comparison_model() {
        let x = sym(0, 8);
        let mut s = Solver::new();
        // x <s 0 and x >u 0x7f: any negative 8-bit value.
        let cs = [
            x.slt(&Expr::constant(0, 8)), //
            Expr::constant(0x7f, 8).ult(&x),
        ];
        match s.check(&cs) {
            SatResult::Sat(m) => {
                let v = m.get_or_zero(SymId(0)) & 0xff;
                assert!(v >= 0x80, "got {v:#x}");
            }
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn udiv_relation() {
        // x / 3 == 10 => x in [30, 32].
        let x = sym(0, 32);
        let mut s = Solver::new();
        match s.check(&[x.udiv(&c32(3)).eq(&c32(10))]) {
            SatResult::Sat(m) => {
                let v = m.get_or_zero(SymId(0)) & 0xffff_ffff;
                assert!((30..=32).contains(&v), "got {v}");
            }
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn urem_relation() {
        // x % 8 == 5 and x < 16 => x == 5 or 13.
        let x = sym(0, 32);
        let mut s = Solver::new();
        let cs = [x.urem(&c32(8)).eq(&c32(5)), x.ult(&c32(16))];
        match s.check(&cs) {
            SatResult::Sat(m) => {
                let v = m.get_or_zero(SymId(0)) & 0xffff_ffff;
                assert!(v == 5 || v == 13, "got {v}");
            }
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn division_by_zero_semantics() {
        // b == 0 => a udiv b == all-ones.
        let a = sym(0, 32);
        let b = sym(1, 32);
        let mut s = Solver::new();
        let cs = [
            b.eq(&c32(0)), //
            a.udiv(&b).ne(&c32(0xffff_ffff)),
        ];
        assert_eq!(s.check(&cs), SatResult::Unsat);
    }

    #[test]
    fn shift_with_symbolic_amount() {
        // 1 << x == 16 => x == 4.
        let x = sym(0, 32);
        let mut s = Solver::new();
        match s.check(&[c32(1).shl(&x).eq(&c32(16))]) {
            SatResult::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)) & 0xffff_ffff, 4),
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn oversize_shift_yields_zero() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        // x >= 32 and (1 << x) != 0 is unsat.
        let cs = [
            c32(31).ult(&x), //
            c32(1).shl(&x).ne(&c32(0)),
        ];
        assert_eq!(s.check(&cs), SatResult::Unsat);
    }

    #[test]
    fn must_may_semantics() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        let ctx = [x.ult(&c32(10))];
        assert!(s.must_be_true(&ctx, &x.ult(&c32(11))));
        assert!(s.may_be_true(&ctx, &x.eq(&c32(5))));
        assert!(!s.may_be_true(&ctx, &x.eq(&c32(20))));
        assert!(!s.must_be_true(&ctx, &x.eq(&c32(5))));
    }

    #[test]
    fn concretize_respects_constraints() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        let ctx = [c32(100).ult(&x), x.ult(&c32(105))];
        let v = s.concretize(&ctx, &x).expect("feasible");
        assert!((101..105).contains(&(v & 0xffff_ffff)), "got {v}");
    }

    #[test]
    fn distinct_values_enumerates() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        let ctx = [x.ult(&c32(3))];
        let mut vs = s.distinct_values(&ctx, &x, 10);
        vs.sort_unstable();
        assert_eq!(vs, vec![0, 1, 2]);
    }

    #[test]
    fn extract_concat_constraints() {
        // Low byte of x is 0xAB, next byte is 0xCD.
        let x = sym(0, 32);
        let mut s = Solver::new();
        let cs = [
            x.extract(7, 0).eq(&Expr::constant(0xab, 8)),
            x.extract(15, 8).eq(&Expr::constant(0xcd, 8)),
        ];
        match s.check(&cs) {
            SatResult::Sat(m) => {
                assert_eq!(m.get_or_zero(SymId(0)) & 0xffff, 0xcdab);
            }
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn ite_constraints() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        let mut s = Solver::new();
        // if x < 5 then y = 1 else y = 2; y == 2 contradicts x < 4.
        let e = Expr::ite(&x.ult(&c32(5)), &c32(1), &c32(2));
        let cs = [e.eq(&y), y.eq(&c32(2)), x.ult(&c32(4))];
        assert_eq!(s.check(&cs), SatResult::Unsat);
    }

    #[test]
    fn fast_path_hits_counted() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        assert!(s.check(&[x.eq(&c32(0))]).is_sat());
        assert_eq!(s.stats().fast_path_hits, 1);
        assert_eq!(s.stats().full_solves, 0);
    }

    #[test]
    fn sext_constraint() {
        let x = sym(0, 8);
        let mut s = Solver::new();
        // sext(x, 32) == 0xffffff80 => x == 0x80.
        let cs = [x.sext(32).eq(&c32(0xffff_ff80))];
        match s.check(&cs) {
            SatResult::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)) & 0xff, 0x80),
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn shared_cache_hits_across_solvers() {
        // One worker's full solve is another worker's exact hit.
        let cache = Arc::new(QueryCache::new());
        let query = [sym(0, 32).eq(&c32(42))]; // Misses the fast-path candidates.
        let mut a = Solver::with_cache(cache.clone());
        let ra = a.check(&query);
        assert_eq!(a.stats().full_solves, 1);
        let mut b = Solver::with_cache(cache);
        let rb = b.check(&query);
        assert_eq!(b.stats().cache_hits, 1);
        assert_eq!(b.stats().full_solves, 0);
        assert_eq!(ra, rb, "exact hit must return the memoized result verbatim");
    }

    #[test]
    fn verdict_queries_reuse_counterexamples() {
        let x = sym(0, 32);
        let mut s = Solver::new();
        // Seed the model store with x == 42 (misses every fast-path guess).
        assert!(s.check(&[x.eq(&c32(42))]).is_sat());
        // A different query the cached model satisfies; fast-path candidates
        // (0, 1, max, 4, 0x80) all fail on x in (40, 50).
        let range = [c32(40).ult(&x), x.ult(&c32(50))];
        assert!(s.is_feasible(&range));
        assert_eq!(s.stats().cache_model_reuse, 1);
        assert_eq!(s.stats().full_solves, 1, "the verdict query must not blast");
        // The same query via model-grade `check` must run the deterministic
        // solve instead of surfacing the reused model.
        let mut t = Solver::with_cache(s.cache().unwrap().clone());
        assert!(t.check(&range).is_sat());
        assert_eq!(t.stats().cache_model_reuse, 0);
        assert_eq!(t.stats().full_solves, 1);
    }

    #[test]
    fn unsat_subset_subsumes_superset() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        let core = [x.ult(&c32(5)), c32(10).ult(&x)];
        let mut s = Solver::new();
        assert_eq!(s.check(&core), SatResult::Unsat);
        // Any superset is UNSAT without another solve.
        let superset = [core[0].clone(), y.eq(&c32(7)), core[1].clone()];
        assert_eq!(s.check(&superset), SatResult::Unsat);
        assert_eq!(s.stats().cache_unsat_subset, 1);
        assert_eq!(s.stats().full_solves, 1);
    }

    #[test]
    fn uncached_mode_matches_cached_results() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        let queries: Vec<Vec<Expr>> = vec![
            vec![x.eq(&c32(42))],
            vec![x.eq(&c32(42))], // Repeat: cached run answers from cache.
            vec![x.ult(&c32(5)), c32(10).ult(&x)],
            vec![x.ult(&c32(5)), c32(10).ult(&x), y.eq(&c32(7))],
            vec![x.mul(&c32(3)).eq(&c32(21)), x.ult(&c32(100))],
        ];
        let mut cached = Solver::new();
        let mut uncached = Solver::uncached();
        for q in &queries {
            assert_eq!(
                cached.check(q),
                uncached.check(q),
                "cache changed the result of {q:?}"
            );
        }
        assert_eq!(uncached.stats().cache_hits, 0);
        assert_eq!(uncached.stats().cache_model_reuse, 0);
    }

    /// A solver with independence slicing disabled (the `--no-slicing`
    /// escape hatch).
    fn plain_solver() -> Solver {
        let mut s = Solver::new();
        s.set_slicing(false);
        s
    }

    #[test]
    fn sliced_verdicts_agree_with_plain_solver() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        let z = sym(2, 32);
        let queries: Vec<Vec<Expr>> = vec![
            // Three independent components, all satisfiable.
            vec![x.eq(&c32(42)), y.ult(&c32(9)), z.urem(&c32(3)).eq(&c32(2))],
            // One unsat component among satisfiable ones.
            vec![x.eq(&c32(42)), y.ult(&c32(5)), c32(10).ult(&y)],
            // Entangled: single component.
            vec![x.add(&y).eq(&c32(7)), y.ult(&c32(3)), x.ult(&c32(100))],
        ];
        for q in &queries {
            let mut optimized = Solver::new();
            let mut plain = plain_solver();
            assert_eq!(
                optimized.is_feasible(q),
                plain.is_feasible(q),
                "optimized pipeline changed the verdict of {q:?}"
            );
        }
    }

    #[test]
    fn slicing_counts_components_and_composes_a_valid_model() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        // Two independent components that defeat the fast-path candidates.
        let q = [x.eq(&c32(42)), y.mul(&c32(3)).eq(&c32(21))];
        let mut s = Solver::new();
        let r = s.check_graded(&q, QueryGrade::Verdict);
        match r {
            SatResult::Sat(m) => {
                assert!(q.iter().all(|c| c.eval_bool(&m)), "composed model invalid");
                assert_eq!(m.get_or_zero(SymId(0)), 42);
                assert_eq!(m.get_or_zero(SymId(1)) & 0xffff_ffff, 7);
            }
            SatResult::Unsat => panic!("both components are satisfiable"),
        }
        assert_eq!(s.stats().sliced_queries, 1);
        assert_eq!(s.stats().slice_components, 2);
    }

    #[test]
    fn component_results_are_cached_under_component_keys() {
        let cache = Arc::new(QueryCache::new());
        let x = sym(0, 32);
        let y = sym(1, 32);
        let mut a = Solver::with_cache(cache.clone());
        // Sliced verdict query: each component solved and memoized alone.
        assert!(a.is_feasible(&[x.eq(&c32(42)), y.eq(&c32(17))]));
        // A later *model-grade* query equal to one component is an exact hit
        // on the canonical per-component result.
        let mut b = Solver::with_cache(cache);
        match b.check(&[x.eq(&c32(42))]) {
            SatResult::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)), 42),
            SatResult::Unsat => panic!(),
        }
        assert_eq!(b.stats().cache_hits, 1, "component key must hit exactly");
        assert_eq!(b.stats().full_solves, 0);
    }

    #[test]
    fn unsat_component_core_subsumes_model_grade_supersets() {
        let cache = Arc::new(QueryCache::new());
        let x = sym(0, 32);
        let y = sym(1, 32);
        let mut a = Solver::with_cache(cache.clone());
        // Verdict query whose unsat component is two constraints wide.
        let contradiction = [x.ult(&c32(5)), c32(10).ult(&x)];
        assert!(!a.is_feasible(&[contradiction[0].clone(), y.eq(&c32(3)), contradiction[1].clone()]));
        // The small component core now proves any superset UNSAT for
        // model-grade callers through the existing subsumption path.
        let mut b = Solver::with_cache(cache);
        let superset =
            [contradiction[0].clone(), contradiction[1].clone(), y.ult(&c32(100))];
        assert_eq!(b.check(&superset), SatResult::Unsat);
        assert_eq!(b.stats().cache_unsat_subset, 1);
        assert_eq!(b.stats().full_solves, 0);
    }

    #[test]
    fn escape_hatches_restore_baseline_counters() {
        let x = sym(0, 32);
        let mut s = plain_solver();
        assert!(s.is_feasible(&[x.eq(&c32(42))]));
        assert_eq!(s.stats().sliced_queries, 0);
        assert_eq!(s.stats().full_solves, 1);
    }

    #[test]
    fn model_grade_checks_never_use_session_or_slicing() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        let mut s = Solver::new();
        // Two independent components; model grade must still run the
        // canonical monolithic solve.
        match s.check(&[x.eq(&c32(42)), y.eq(&c32(17))]) {
            SatResult::Sat(m) => {
                assert_eq!(m.get_or_zero(SymId(0)), 42);
                assert_eq!(m.get_or_zero(SymId(1)), 17);
            }
            SatResult::Unsat => panic!(),
        }
        assert_eq!(s.stats().sliced_queries, 0);
        assert_eq!(s.stats().full_solves, 1);
    }

    #[test]
    fn solve_order_is_canonical_in_every_mode() {
        // Permuting the constraint list cannot change the returned model,
        // even without a cache: full solves assert the canonical key.
        let x = sym(0, 32);
        let cs = [c32(100).ult(&x), x.ult(&c32(200)), x.urem(&c32(7)).eq(&c32(3))];
        let forward = Solver::uncached().check(&cs);
        let reversed: Vec<Expr> = cs.iter().rev().cloned().collect();
        let backward = Solver::uncached().check(&reversed);
        assert_eq!(forward, backward);
    }
}
