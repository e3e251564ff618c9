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
//! A query is a [`PathCondition`] — a conjunction kept as its
//! symbol-disjoint components (see [`path`]) — plus the constraints the
//! query adds to it. The pipeline is: cheap model guessing over the whole
//! query (zero / small / all-ones candidate assignments, read off the
//! path condition's candidate mask) → per component, newest first, the
//! shared [`QueryCache`] (exact memoization, UNSAT subset subsumption, and
//! for verdict-grade queries counterexample reuse — see [`cache`]) →
//! Tseitin bit-blasting ([`blast`]) → CDCL SAT ([`sat`]). The procedure is
//! complete for the supported widths: every query gets a definite
//! Sat/Unsat answer.
//!
//! Full solves always assert one component in *canonical key order*
//! (sorted, deduplicated), so a solve is a deterministic function of the
//! component, and a model the union of its components' models — the
//! property that lets cached and uncached runs produce bit-identical
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
pub mod path;
pub mod sat;

use std::sync::Arc;

use ddt_expr::{Assignment, Expr, SymId};

pub use crate::cache::{CacheAnswer, CacheStats, QueryCache, QueryGrade};
pub use crate::path::{Component, PathCondition, CANDIDATES};

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
    /// component (model-grade queries slice too, but are not counted).
    pub sliced_queries: u64,
    /// Total components produced by sliced queries (average components per
    /// sliced query = `slice_components / sliced_queries`).
    pub slice_components: u64,
}

/// The bitvector solver.
///
/// Every query that the trivial cases and the fast path do not answer is
/// decided one **independence component** at a time, newest first: the
/// [`PathCondition`] holds the symbol-disjoint components already, and each
/// is answered by its exact cache entry, a cached UNSAT core, or a
/// canonical full solve memoized under the component key. A `Sat` answer
/// to a model-consuming query (`check`) is the union of the component
/// models, so it is a pure function of the constraint set: the cache, or
/// its absence, cannot move it. Every full solve resets and refills the solver's one [`SatSolver`]
/// and [`Blaster`], so their memory is reused from solve to solve while no
/// clause outlives its solve.
///
/// Results are cached in a [`QueryCache`] that may be *shared* across
/// solvers/workers: sibling paths in an exploration share long constraint
/// prefixes, so the same components — and counterexamples — recur
/// constantly across the whole worker pool, not just within one worker.
pub struct Solver {
    stats: SolverStats,
    /// Shared (or private) query cache; `None` disables caching entirely
    /// (the `--no-query-cache` escape hatch).
    cache: Option<Arc<QueryCache>>,
    /// The SAT core every full solve resets and refills.
    sat: SatSolver,
    /// The bit-blaster over `sat`, reset with it.
    blaster: Blaster,
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
        Solver::build(Some(cache))
    }

    /// Creates a solver with caching disabled: every non-trivial query runs
    /// the full decision procedure.
    pub fn uncached() -> Solver {
        Solver::build(None)
    }

    fn build(cache: Option<Arc<QueryCache>>) -> Solver {
        let mut sat = SatSolver::new();
        let blaster = Blaster::new(&mut sat);
        Solver { stats: SolverStats::default(), cache, sat, blaster }
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
    /// free; callers default them to zero). It is the first cheap candidate
    /// that satisfies the whole query if one does, and otherwise the union
    /// of each independence component's canonical model. Either way it is a
    /// deterministic function of the constraint *set*: permuting or
    /// duplicating constraints cannot change it, and neither can the cache.
    ///
    /// # Panics
    ///
    /// Panics if any constraint is not 1 bit wide.
    pub fn check(&mut self, constraints: &[Expr]) -> SatResult {
        self.check_under(&slice_condition(constraints), &[])
    }

    /// Decides `pc` conjoined with `extra`, as [`Solver::check`] decides the
    /// same constraints as a slice: same answer, same model.
    pub fn check_under(&mut self, pc: &PathCondition, extra: &[Expr]) -> SatResult {
        // Public `check` callers consume the model (concretization, bug
        // inputs), so only bit-deterministic cache shortcuts are allowed.
        self.decide(pc, extra, QueryGrade::Model)
    }

    /// Returns true if the conjunction is satisfiable.
    ///
    /// This is a verdict-grade query — the model is discarded — so the cache
    /// may additionally answer it by counterexample reuse.
    pub fn is_feasible(&mut self, constraints: &[Expr]) -> bool {
        self.is_feasible_under(&slice_condition(constraints), &[])
    }

    /// Returns true if `pc` conjoined with `extra` is satisfiable (a
    /// verdict-grade query, like [`Solver::is_feasible`]).
    pub fn is_feasible_under(&mut self, pc: &PathCondition, extra: &[Expr]) -> bool {
        self.decide(pc, extra, QueryGrade::Verdict).is_sat()
    }

    /// Returns true if `cond` can be true under `constraints`.
    pub fn may_be_true(&mut self, constraints: &[Expr], cond: &Expr) -> bool {
        self.is_feasible(&[constraints, std::slice::from_ref(cond)].concat())
    }

    /// Returns true if `cond` must be true under `constraints` (its negation
    /// is infeasible).
    pub fn must_be_true(&mut self, constraints: &[Expr], cond: &Expr) -> bool {
        !self.is_feasible(&[constraints, &[cond.lnot()]].concat())
    }

    /// Produces a feasible concrete value of `e` under `constraints`, or
    /// `None` if the constraints are unsatisfiable.
    ///
    /// This is the concretization primitive of §3.2: the returned value is a
    /// witness, and the caller records the induced `e == value` constraint.
    pub fn concretize(&mut self, constraints: &[Expr], e: &Expr) -> Option<u64> {
        self.concretize_under(&slice_condition(constraints), e)
    }

    /// Produces a feasible concrete value of `e` under `pc`.
    pub fn concretize_under(&mut self, pc: &PathCondition, e: &Expr) -> Option<u64> {
        if let Some(v) = e.as_const() {
            return Some(v);
        }
        match self.check_under(pc, &[]) {
            SatResult::Unsat => None,
            SatResult::Sat(model) => Some(e.eval(&model)),
        }
    }

    /// Enumerates up to `max` distinct feasible values of `e`, used when DDT
    /// backtracks a concretization and re-issues a kernel call with different
    /// feasible concrete values (§3.2).
    pub fn distinct_values(&mut self, constraints: &[Expr], e: &Expr, max: usize) -> Vec<u64> {
        self.distinct_values_under(&slice_condition(constraints), e, max)
    }

    /// Enumerates up to `max` distinct feasible values of `e` under `pc`.
    ///
    /// Each value is `e` under the model of the path condition with the
    /// earlier values excluded, the model [`Solver::check_under`] returns.
    /// Once `pc` is known satisfiable, an exclusion changes only the
    /// component it merges into, so each later query decides only that
    /// component and the ones that hold a symbol of `e`: the others are
    /// satisfiable and do not move `e`'s value.
    pub fn distinct_values_under(&mut self, pc: &PathCondition, e: &Expr, max: usize) -> Vec<u64> {
        let mut found = Vec::new();
        if max == 0 {
            return found;
        }
        match self.check_under(pc, &[]) {
            SatResult::Unsat => return found,
            SatResult::Sat(model) => found.push(e.eval(&model)),
        }
        let e_syms: Vec<SymId> = e.syms().into_iter().collect();
        let mut query = pc.clone();
        while found.len() < max {
            let last = *found.last().expect("the first value was found");
            query.push(e.ne(&Expr::constant(last, e.width())));
            let newest = query.newest().cloned();
            let needed = |part: &Arc<Component>| {
                newest.as_ref().is_some_and(|n| Arc::ptr_eq(n, part))
                    || part.shares_symbol_with(&e_syms)
            };
            match self.decide_scoped(&query, QueryGrade::Model, needed) {
                SatResult::Unsat => break,
                SatResult::Sat(model) => found.push(e.eval(&model)),
            }
        }
        found
    }

    fn decide(&mut self, pc: &PathCondition, extra: &[Expr], grade: QueryGrade) -> SatResult {
        if extra.is_empty() {
            return self.decide_scoped(pc, grade, |_| true);
        }
        let mut query = pc.clone();
        query.extend(extra.iter().cloned());
        self.decide_scoped(&query, grade, |_| true)
    }

    /// Decides `query`, reading and solving only the components `needed`
    /// selects; every other component must be known satisfiable, and the
    /// model then assigns only the selected components' symbols.
    fn decide_scoped(
        &mut self,
        query: &PathCondition,
        grade: QueryGrade,
        needed: impl Fn(&Arc<Component>) -> bool,
    ) -> SatResult {
        self.stats.queries += 1;
        // Trivial cases.
        if query.is_unsat() {
            return SatResult::Unsat;
        }
        if query.is_empty() {
            return SatResult::Sat(Assignment::new());
        }
        // Fast path: the first cheap candidate assignment (every symbol at
        // one value) that satisfies the whole query, read off the path
        // condition's mask. Order-insensitive and cache-independent, so it
        // answers every mode alike. Winning candidates feed the shared
        // counterexample rings so later verdict queries can reuse them.
        if let Some(v) = query.first_candidate() {
            self.stats.fast_path_hits += 1;
            let candidate: Assignment = query.symbols().map(|id| (id, v)).collect();
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
        // The query is `Sat` iff every component is, and its model is the
        // union of the component models, each a pure function of its
        // component — so the answer depends on the constraint set alone,
        // whatever the cache holds. Components go newest first: only a
        // component a recent push reached can be new to the cache, or
        // unsatisfiable on a live path.
        let count = query.components().len();
        if grade == QueryGrade::Verdict && count > 1 {
            self.stats.sliced_queries += 1;
            self.stats.slice_components += count as u64;
        }
        // Every component's cached answer first, so a component the cache
        // proves UNSAT spares the solves of the others; for verdict-grade
        // queries the lookup ends with the counterexample rings. Then the
        // canonical full solve of each component the cache missed, which
        // memoizes it under the component key. Verdict callers drop the
        // model, so only model-grade answers pay for the union.
        let compose = grade == QueryGrade::Model;
        let mut model = Assignment::new();
        let mut missed = Vec::new();
        for part in query.newest_first().filter(|p| needed(p)) {
            match self.cache_lookup(part.key(), grade) {
                Some(SatResult::Unsat) => return SatResult::Unsat,
                Some(SatResult::Sat(m)) if compose => model.extend(m.iter()),
                Some(SatResult::Sat(_)) => {}
                None => missed.push(part),
            }
        }
        for part in missed {
            match self.full_solve(part) {
                SatResult::Unsat => return SatResult::Unsat,
                SatResult::Sat(m) if compose => model.extend(m.iter()),
                SatResult::Sat(_) => {}
            }
        }
        debug_assert!(
            !compose
                || query
                    .newest_first()
                    .filter(|p| needed(p))
                    .all(|p| p.key().iter().all(|c| c.eval_bool(&model))),
            "the union of component models does not satisfy the query"
        );
        SatResult::Sat(model)
    }

    /// Canonical solve of one component: blasts its key in canonical order
    /// on a freshly reset core. The result — verdict *and* model, which
    /// assigns exactly the component's symbols — is a deterministic pure
    /// function of the key, which is what makes it safe to memoize under
    /// the key and replay to model-consuming callers.
    fn full_solve(&mut self, part: &Component) -> SatResult {
        self.stats.full_solves += 1;
        let (sat, blaster) = (&mut self.sat, &mut self.blaster);
        blaster.reset(sat);
        for c in part.key() {
            blaster.assert_true(sat, c);
        }
        let outcome = sat.solve();
        self.stats.sat_conflicts += sat.conflicts;
        let result = match outcome {
            SatOutcome::Unsat => SatResult::Unsat,
            SatOutcome::Sat => {
                // The blaster's internal division symbols are filtered out by
                // only reporting symbols that occur in the input constraints.
                let model: Assignment = part
                    .syms()
                    .iter()
                    .map(|&id| (id, blaster.sym_model(sat, id).unwrap_or(0)))
                    .collect();
                debug_assert!(
                    part.key().iter().all(|c| c.eval_bool(&model)),
                    "model does not satisfy constraints"
                );
                SatResult::Sat(model)
            }
        };
        if let Some(cache) = &self.cache {
            cache.insert(part.key().to_vec(), result.clone());
        }
        result
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
            CacheAnswer::ModelReuse => {
                self.stats.cache_model_reuse += 1;
                Some(SatResult::Sat(Assignment::new()))
            }
            CacheAnswer::Miss => None,
        }
    }
}

/// The path condition of a constraint slice. A slice has no newest
/// constraint, so it is pushed in descending structural order: the
/// newest-first order is then the one slice queries have always been
/// decided in, components by their smallest constraint. (An UNSAT answer
/// stops at the first unsatisfiable component, so the order decides which
/// full solves an unsatisfiable slice costs.)
fn slice_condition(constraints: &[Expr]) -> PathCondition {
    let mut sorted = constraints.to_vec();
    sorted.sort_unstable();
    sorted.into_iter().rev().collect()
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
        // Any superset is UNSAT without another solve. The extra constraint
        // on x keeps the core's component a strict superset of the core (an
        // equal component would be an exact hit).
        let superset = [core[0].clone(), y.eq(&c32(7)), x.ne(&c32(3)), core[1].clone()];
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

    /// Decides a conjunction over 6-bit symbols 0..3 by trying every
    /// assignment.
    fn brute_force_sat(constraints: &[Expr]) -> bool {
        (0u64..1 << 18).any(|m| {
            let asg: Assignment = (0..3).map(|i| (SymId(i), (m >> (6 * i)) & 0x3f)).collect();
            constraints.iter().all(|c| c.eval_bool(&asg))
        })
    }

    #[test]
    fn sliced_verdicts_agree_with_brute_force() {
        let c6 = |v: u64| Expr::constant(v, 6);
        let (x, y, z) = (sym(0, 6), sym(1, 6), sym(2, 6));
        let queries: Vec<Vec<Expr>> = vec![
            // Three independent components, all satisfiable.
            vec![x.eq(&c6(42)), y.ult(&c6(9)), z.urem(&c6(3)).eq(&c6(2))],
            // One unsat component among satisfiable ones.
            vec![x.eq(&c6(42)), y.ult(&c6(5)), c6(10).ult(&y)],
            // Entangled: single component.
            vec![x.add(&y).eq(&c6(7)), y.ult(&c6(3)), x.ult(&c6(60))],
            // Entangled and unsat: x + y == 7 with both above 7.
            vec![x.add(&y).eq(&c6(7)), c6(7).ult(&x), c6(7).ult(&y), z.eq(&c6(1))],
        ];
        for q in &queries {
            let expected = brute_force_sat(q);
            for mut s in [Solver::new(), Solver::uncached()] {
                assert_eq!(s.is_feasible(q), expected, "verdict of {q:?}");
                assert_eq!(s.check(q).is_sat(), expected, "check of {q:?}");
            }
        }
    }

    #[test]
    fn slicing_counts_components_and_composes_a_valid_model() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        // Two independent components that defeat the fast-path candidates.
        let q = [x.eq(&c32(42)), y.mul(&c32(3)).eq(&c32(21))];
        let mut s = Solver::new();
        assert!(s.is_feasible(&q));
        assert_eq!(s.stats().sliced_queries, 1);
        assert_eq!(s.stats().slice_components, 2);
        match s.check(&q) {
            SatResult::Sat(m) => {
                assert!(q.iter().all(|c| c.eval_bool(&m)), "composed model invalid");
                assert_eq!(m.get_or_zero(SymId(0)), 42);
                assert_eq!(m.get_or_zero(SymId(1)) & 0xffff_ffff, 7);
            }
            SatResult::Unsat => panic!("both components are satisfiable"),
        }
        // Model-grade queries slice too, but the counters count verdicts.
        assert_eq!(s.stats().sliced_queries, 1);
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
        // The small component core now proves any superset of it UNSAT for
        // model-grade callers through the subsumption path.
        let mut b = Solver::with_cache(cache);
        let superset = [
            contradiction[0].clone(),
            contradiction[1].clone(),
            x.ne(&c32(3)),
            y.ult(&c32(100)),
        ];
        assert_eq!(b.check(&superset), SatResult::Unsat);
        assert_eq!(b.stats().cache_unsat_subset, 1);
        assert_eq!(b.stats().full_solves, 0);
    }

    #[test]
    fn model_grade_checks_solve_each_component_and_return_the_union() {
        let x = sym(0, 32);
        let y = sym(1, 32);
        let mut s = Solver::new();
        // Two independent components, each solved on its own: no full solve
        // ever covers both.
        match s.check(&[x.eq(&c32(42)), y.eq(&c32(17))]) {
            SatResult::Sat(m) => {
                assert_eq!(m.len(), 2, "the union assigns exactly the query's symbols");
                assert_eq!(m.get_or_zero(SymId(0)), 42);
                assert_eq!(m.get_or_zero(SymId(1)), 17);
            }
            SatResult::Unsat => panic!(),
        }
        assert_eq!(s.stats().full_solves, 2);
        // Each component's answer is memoized under its own key.
        let mut t = Solver::with_cache(s.cache().unwrap().clone());
        assert!(t.check(&[y.eq(&c32(17))]).is_sat());
        assert!(t.check(&[x.eq(&c32(42)), y.eq(&c32(17))]).is_sat());
        assert_eq!(t.stats().cache_hits, 3);
        assert_eq!(t.stats().full_solves, 0);
    }

    #[test]
    fn component_models_do_not_depend_on_the_other_components() {
        // Six blast-heavy conjuncts over three symbol pairs, each pinned to
        // its value under a fixed witness. One CDCL run over all three
        // components would settle the pair (4, 5) on another model than a
        // run over its component alone: restarts forced by the other
        // components' conflicts interleave with that component's search.
        let w = 12;
        let c = |v: u64| Expr::constant(v, w);
        let q: Vec<Expr> = (0..6u64)
            .map(|i| {
                let fam = (i % 3) as u32 * 2;
                let (x, y) = (sym(fam, w), sym(fam + 1, w));
                let (wx, wy) = (11 + u64::from(fam) * 13, 7 + u64::from(fam) * 5);
                let witness: Assignment =
                    [(SymId(fam), wx), (SymId(fam + 1), wy)].into_iter().collect();
                let t = x
                    .mul(&y.add(&c(i * 7 + 1)))
                    .mul(&x.xor(&c(i | 1)))
                    .add(&y.mul(&x.add(&c(i * 3 + 2))));
                t.eq(&c(t.eval(&witness)))
            })
            .collect();
        let SatResult::Sat(whole) = Solver::uncached().check(&q) else {
            panic!("satisfiable by construction")
        };
        let parts = ddt_expr::partition_independent(&ddt_expr::cache_key(&q));
        assert_eq!(parts.len(), 3);
        for part in parts {
            let SatResult::Sat(alone) = Solver::uncached().check(&part) else {
                panic!("every component is satisfiable")
            };
            for (id, v) in alone.iter() {
                assert_eq!(whole.get(id), Some(v), "{id:?} moved with its neighbours");
            }
        }
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
