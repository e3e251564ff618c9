//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! This is the propositional core of the bitvector decision procedure: the
//! bit-blaster (see [`crate::blast`]) reduces path-constraint queries to CNF
//! and this solver decides them. The implementation follows the classic
//! MiniSat recipe: two-watched-literal propagation, VSIDS-style activity
//! ordering, first-UIP conflict analysis with backjumping, phase saving, and
//! geometric restarts.
//!
//! Clauses live in one flat literal arena, and [`SatSolver::reset`] empties
//! the instance while keeping every buffer's memory, so a solver that
//! decides one query after another allocates only when a query outgrows
//! all earlier ones.

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

/// A literal: a variable or its negation.
///
/// Encoded as `var * 2 + sign` where `sign == 1` means negated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub u32);

impl Lit {
    /// Builds a literal from a variable and a polarity (`true` = positive).
    #[inline]
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 * 2 + (!positive) as u32)
    }

    /// The positive literal of `var`.
    #[inline]
    pub fn pos(var: Var) -> Lit {
        Lit::new(var, true)
    }

    /// The negative literal of `var`.
    #[inline]
    pub fn neg(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if this literal is positive (non-negated).
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complement literal.
    #[inline]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Tri-state assignment value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    #[inline]
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Outcome of a SAT query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// A satisfying assignment exists (read it with [`SatSolver::value`]).
    Sat,
    /// No satisfying assignment exists.
    Unsat,
}

const REASON_NONE: u32 = u32::MAX;
const REASON_DECISION: u32 = u32::MAX - 1;

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use ddt_solver::sat::{Lit, SatOutcome, SatSolver, Var};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(), SatOutcome::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
pub struct SatSolver {
    /// Clause arena: each clause is a length word (a `Lit` whose payload is
    /// the literal count) followed by its literals, and is named by the
    /// arena offset of that word. Learned clauses are appended after
    /// problem clauses.
    arena: Vec<Lit>,
    /// Number of clauses in `arena` (problem + learned).
    num_clauses: usize,
    /// Watch lists: for each literal, the clauses watching it. Lists past
    /// the current variables are empty, kept from an earlier instance so
    /// that `new_var` after `reset` does not allocate them again.
    watches: Vec<Vec<u32>>,
    /// Current assignment per variable.
    assigns: Vec<LBool>,
    /// Saved phase per variable (used to bias decisions).
    phase: Vec<bool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause index per variable (or `REASON_*` sentinel).
    reason: Vec<u32>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Start index in `trail` of each decision level.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// True once an empty clause was added; the instance is trivially unsat.
    dead: bool,
    /// Statistics: total conflicts observed.
    pub conflicts: u64,
    /// Statistics: total decisions made.
    pub decisions: u64,
    /// Statistics: total propagations performed.
    pub propagations: u64,
    /// Scratch marks used by conflict analysis.
    seen: Vec<bool>,
    /// Scratch literals: `add_clause`'s simplified input, and the clause
    /// that conflict analysis learns.
    scratch: Vec<Lit>,
    /// Max-heap of candidate decision variables, ordered by activity. A
    /// linear argmax scan per decision would cost O(vars · decisions) on
    /// large blasted queries, so decisions are O(log n).
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `HEAP_ABSENT`.
    heap_pos: Vec<u32>,
}

const HEAP_ABSENT: u32 = u32::MAX;

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            dead: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            seen: Vec::new(),
            scratch: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
        }
    }

    /// Empties the instance: no variables, no clauses, zeroed statistics,
    /// exactly the state of [`SatSolver::new`]. Every buffer keeps its
    /// memory for the next instance.
    pub fn reset(&mut self) {
        for w in &mut self.watches[..2 * self.assigns.len()] {
            w.clear();
        }
        self.arena.clear();
        self.num_clauses = 0;
        self.assigns.clear();
        self.phase.clear();
        self.level.clear();
        self.reason.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.dead = false;
        self.conflicts = 0;
        self.decisions = 0;
        self.propagations = 0;
        self.seen.clear();
        self.heap.clear();
        self.heap_pos.clear();
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(REASON_NONE);
        self.activity.push(0.0);
        self.seen.push(false);
        let lits = 2 * self.assigns.len();
        if self.watches.len() < lits {
            self.watches.resize_with(lits, Vec::new);
        }
        self.heap_pos.push(HEAP_ABSENT);
        self.heap_insert(v.0);
        v
    }

    /// Decision order: higher activity first, lower variable index on ties.
    /// The tie-break makes the heap a *total* order, so `decide` returns
    /// exactly the variable a full argmax scan would — the heap changes
    /// complexity, never the search trajectory.
    #[inline]
    fn heap_better(&self, a: u32, b: u32) -> bool {
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 2;
            let pv = self.heap[p];
            if !self.heap_better(v, pv) {
                break;
            }
            self.heap[i] = pv;
            self.heap_pos[pv as usize] = i as u32;
            i = p;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let c = if r < self.heap.len() && self.heap_better(self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            let cv = self.heap[c];
            if !self.heap_better(cv, v) {
                break;
            }
            self.heap[i] = cv;
            self.heap_pos[cv as usize] = i as u32;
            i = c;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] != HEAP_ABSENT {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        self.heap_pos[top as usize] = HEAP_ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (problem + learned).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        match self.assigns[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(l.is_pos()),
            LBool::False => LBool::from_bool(!l.is_pos()),
        }
    }

    /// Adds a clause. Returns `false` if the clause makes the instance
    /// trivially unsatisfiable (empty clause, or conflicting unit at level 0).
    ///
    /// Must be called at decision level 0 (i.e. before or between `solve`
    /// calls; the solver backtracks to level 0 after each `solve`).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "add_clause at level 0 only");
        if self.dead {
            return false;
        }
        let mut c = std::mem::take(&mut self.scratch);
        let alive = self.simplify_into(lits, &mut c)
            || match c.len() {
                0 => {
                    self.dead = true;
                    false
                }
                1 => {
                    self.enqueue(c[0], REASON_NONE);
                    self.dead = self.propagate().is_some();
                    !self.dead
                }
                _ => {
                    self.attach_clause(&c);
                    true
                }
            };
        self.scratch = c;
        alive
    }

    /// Simplify: copies `lits` into `c` without duplicate or permanently
    /// false literals. Returns true, leaving `c` partial, when the clause
    /// is already satisfied at level 0 or is a tautology.
    fn simplify_into(&self, lits: &[Lit], c: &mut Vec<Lit>) -> bool {
        c.clear();
        for &l in lits {
            debug_assert!((l.var().0 as usize) < self.num_vars(), "undeclared variable");
            match self.lit_value(l) {
                LBool::True => return true, // Already satisfied at level 0.
                LBool::False => continue,   // Permanently false literal.
                LBool::Undef => {}
            }
            if c.contains(&l.negate()) {
                return true; // Tautology.
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        false
    }

    /// Appends `c` (at least two literals) to the arena, watching its
    /// first two literals, and returns its offset.
    fn attach_clause(&mut self, c: &[Lit]) -> u32 {
        let cref = self.arena.len() as u32;
        self.watches[c[0].index()].push(cref);
        self.watches[c[1].index()].push(cref);
        self.arena.push(Lit(c.len() as u32));
        self.arena.extend_from_slice(c);
        self.num_clauses += 1;
        cref
    }

    #[inline]
    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.assigns[v] = LBool::from_bool(l.is_pos());
        self.phase[v] = l.is_pos();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        #[inline]
        fn lv(assigns: &[LBool], l: Lit) -> LBool {
            match assigns[(l.0 >> 1) as usize] {
                LBool::Undef => LBool::Undef,
                LBool::True => LBool::from_bool(l.is_pos()),
                LBool::False => LBool::from_bool(!l.is_pos()),
            }
        }
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = p.negate();
            // Take the watch list; re-add entries we keep.
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                // Disjoint field borrows: clause data vs. assignments/watches.
                let assigns = &self.assigns;
                let len = self.arena[ci as usize].0 as usize;
                let clause = &mut self.arena[ci as usize + 1..][..len];
                // Ensure the false literal is at position 1.
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                let first = clause[0];
                if lv(assigns, first) == LBool::True {
                    i += 1;
                    continue; // Clause satisfied; keep watching.
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..clause.len() {
                    if lv(assigns, clause[k]) != LBool::False {
                        clause.swap(1, k);
                        let new_watch = clause[1];
                        self.watches[new_watch.index()].push(ci);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if lv(assigns, first) == LBool::False {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
            self.watches[false_lit.index()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            // Uniform rescale preserves relative order, so the heap
            // invariant survives without a rebuild.
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.heap_pos[v.0 as usize];
        if pos != HEAP_ABSENT {
            self.heap_sift_up(pos as usize);
        }
    }

    /// First-UIP conflict analysis. Leaves the learned clause in `scratch`
    /// (asserting literal first) and returns the backjump level.
    fn analyze(&mut self, confl: u32) -> u32 {
        let mut learned = std::mem::take(&mut self.scratch);
        learned.clear();
        learned.push(Lit(0)); // Slot 0 holds the asserting literal.
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut idx = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;
        loop {
            // The conflict clause is read in place, one literal at a time:
            // `bump_var` below needs `&mut self` but never touches the arena.
            let base = confl as usize + 1;
            let len = self.arena[confl as usize].0 as usize;
            let start = if p.is_some() { 1 } else { 0 };
            for k in start..len {
                let q = self.arena[base + k];
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == cur_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                idx -= 1;
                let l = self.trail[idx];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.unwrap().negate();
                break;
            }
            confl = self.reason[pv];
            debug_assert!(confl < REASON_DECISION);
        }
        // Clear seen flags for the learned clause literals.
        for l in &learned {
            self.seen[l.var().0 as usize] = false;
        }
        // Backjump level = max level among learned[1..].
        let mut bt = 0;
        let mut max_i = 1;
        for (i, l) in learned.iter().enumerate().skip(1) {
            let lv = self.level[l.var().0 as usize];
            if lv > bt {
                bt = lv;
                max_i = i;
            }
        }
        if learned.len() > 1 {
            learned.swap(1, max_i);
        }
        self.scratch = learned;
        bt
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var().0 as usize;
                self.assigns[v] = LBool::Undef;
                self.reason[v] = REASON_NONE;
                self.heap_insert(v as u32);
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        // Pop until an unassigned variable surfaces. Assigned entries are
        // stale (lazy deletion); dropping them is safe because every
        // variable is re-inserted the moment `cancel_until` unassigns it,
        // so the heap always contains every unassigned variable.
        while let Some(v) = self.heap_pop() {
            if self.assigns[v as usize] == LBool::Undef {
                return Some(Lit::new(Var(v), self.phase[v as usize]));
            }
        }
        None
    }

    /// Decides satisfiability of the current clause set.
    ///
    /// After `SatOutcome::Sat`, the model is readable via [`Self::value`]
    /// until the next `add_clause`/`solve`. The solver backtracks to level 0
    /// before returning, but keeps the final polarity of each variable in
    /// the saved phases, which `value` reports for `Sat`.
    pub fn solve(&mut self) -> SatOutcome {
        if self.dead {
            return SatOutcome::Unsat;
        }
        let mut restart_limit = 128u64;
        let mut conflicts_here = 0u64;
        let model_found = 'outer: loop {
            self.cancel_until(0);
            if self.propagate().is_some() {
                self.dead = true;
                break 'outer false;
            }
            loop {
                if let Some(confl) = self.propagate() {
                    self.conflicts += 1;
                    conflicts_here += 1;
                    if self.trail_lim.is_empty() {
                        // Conflict at level 0: the clause set is unsatisfiable.
                        self.dead = true;
                        break 'outer false;
                    }
                    let bt = self.analyze(confl);
                    self.cancel_until(bt);
                    let first = self.scratch[0];
                    if self.scratch.len() == 1 {
                        if self.lit_value(first) == LBool::False {
                            break 'outer false;
                        }
                        if self.lit_value(first) == LBool::Undef {
                            self.enqueue(first, REASON_NONE);
                        }
                    } else {
                        let learned = std::mem::take(&mut self.scratch);
                        let ci = self.attach_clause(&learned);
                        self.scratch = learned;
                        if self.lit_value(first) == LBool::Undef {
                            self.enqueue(first, ci);
                        }
                    }
                    self.var_inc *= 1.0 / 0.95;
                    if conflicts_here >= restart_limit {
                        conflicts_here = 0;
                        restart_limit = restart_limit.saturating_mul(3) / 2;
                        continue 'outer; // Restart.
                    }
                } else {
                    match self.decide() {
                        None => break 'outer true,
                        Some(l) => {
                            self.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(l, REASON_DECISION);
                        }
                    }
                }
            }
        };
        // Snapshot phases as the model, then backtrack.
        if model_found {
            for v in 0..self.num_vars() {
                if let LBool::True = self.assigns[v] {
                    self.phase[v] = true;
                } else if let LBool::False = self.assigns[v] {
                    self.phase[v] = false;
                }
            }
        }
        self.cancel_until(0);
        if model_found {
            SatOutcome::Sat
        } else {
            SatOutcome::Unsat
        }
    }

    /// Reads a variable's value from the last satisfying model.
    ///
    /// Returns `None` only for variables created after the last `solve`.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.phase.get(v.0 as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut SatSolver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn empty_is_sat() {
        let mut s = SatSolver::new();
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn unit_clauses() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[1])]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(!s.add_clause(&[Lit::neg(v[0])]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (a -> b), (b -> c), a  =>  c must be true.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::pos(v[0])]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = SatSolver::new();
        let mut p = [[Var(0); 2]; 3];
        for i in 0..3 {
            for j in 0..2 {
                p[i][j] = s.new_var();
            }
        }
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p[i][0]), Lit::pos(p[i][1])]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        let (np, nh) = (4usize, 3usize);
        let mut s = SatSolver::new();
        let mut p = vec![vec![Var(0); nh]; np];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            let cl: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&cl);
        }
        for j in 0..nh {
            for i1 in 0..np {
                for i2 in (i1 + 1)..np {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert!(s.conflicts > 0, "must have exercised conflict analysis");
    }

    #[test]
    fn xor_chain_is_sat_with_consistent_model() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 0  — satisfiable.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 3);
        let xor = |s: &mut SatSolver, a: Var, b: Var, val: bool| {
            if val {
                s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
                s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
            } else {
                s.add_clause(&[Lit::pos(a), Lit::neg(b)]);
                s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
            }
        };
        xor(&mut s, v[0], v[1], true);
        xor(&mut s, v[1], v[2], true);
        xor(&mut s, v[0], v[2], false);
        assert_eq!(s.solve(), SatOutcome::Sat);
        let m: Vec<bool> = v.iter().map(|&x| s.value(x).unwrap()).collect();
        assert_ne!(m[0], m[1]);
        assert_ne!(m[1], m[2]);
        assert_eq!(m[0], m[2]);
    }

    #[test]
    fn tautology_and_duplicates_are_handled() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])])); // Tautology dropped.
        assert!(s.add_clause(&[Lit::pos(v[1]), Lit::pos(v[1])])); // Duplicate collapsed.
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    /// Loads a DIMACS-style CNF (literal `k` is variable `|k| - 1`,
    /// negated when `k < 0`) over `nvars` fresh variables.
    fn load(s: &mut SatSolver, nvars: usize, cnf: &[Vec<i32>]) -> bool {
        let vars = lits(s, nvars);
        let lit = |k: i32| Lit::new(vars[k.unsigned_abs() as usize - 1], k > 0);
        let mut alive = true;
        for c in cnf {
            alive &= s.add_clause(&c.iter().map(|&k| lit(k)).collect::<Vec<_>>());
        }
        alive
    }

    /// Everything a solve is judged by: outcome, model, and search counts.
    type Run = (SatOutcome, Vec<Option<bool>>, u64, u64, u64);

    fn run(s: &mut SatSolver, nvars: usize, cnf: &[Vec<i32>]) -> Run {
        load(s, nvars, cnf);
        let outcome = s.solve();
        let model = (0..nvars as u32).map(|v| s.value(Var(v))).collect();
        (outcome, model, s.conflicts, s.decisions, s.propagations)
    }

    /// `pigeons` pigeons into `pigeons - 1` holes: unsatisfiable, and it
    /// takes conflict analysis to show it.
    fn pigeonhole(pigeons: i32) -> (usize, Vec<Vec<i32>>) {
        let holes = pigeons - 1;
        let p = |i: i32, j: i32| i * holes + j + 1;
        let mut cnf: Vec<Vec<i32>> =
            (0..pigeons).map(|i| (0..holes).map(|j| p(i, j)).collect()).collect();
        for j in 0..holes {
            for a in 0..pigeons {
                for b in a + 1..pigeons {
                    cnf.push(vec![-p(a, j), -p(b, j)]);
                }
            }
        }
        ((pigeons * holes) as usize, cnf)
    }

    /// A satisfiable random 3-SAT instance that needs decisions and
    /// conflicts: 40 variables at a clause ratio of 4, planted solution.
    fn planted_3sat() -> (usize, Vec<Vec<i32>>) {
        let mut seed = 0x9e37_79b9u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (nvars, planted) = (40i32, 0x5a5a_3c3c_f0f0u64);
        let mut cnf = Vec::new();
        while cnf.len() < 160 {
            let c: Vec<i32> = (0..3)
                .map(|_| {
                    let v = (next() % nvars as u64) as i32 + 1;
                    if next() % 2 == 0 { v } else { -v }
                })
                .collect();
            let holds = |k: i32| ((planted >> (k.unsigned_abs() - 1)) & 1 == 1) == (k > 0);
            if c.iter().any(|&k| holds(k)) {
                cnf.push(c);
            }
        }
        (nvars as usize, cnf)
    }

    #[test]
    fn reset_after_a_dead_instance_solves_like_a_fresh_one() {
        let mut reused = SatSolver::new();
        assert!(!load(&mut reused, 2, &[vec![1], vec![-1, 2], vec![-2]]));
        assert_eq!(reused.solve(), SatOutcome::Unsat);
        for (nvars, cnf) in [planted_3sat(), pigeonhole(5)] {
            reused.reset();
            assert_eq!(run(&mut reused, nvars, &cnf), run(&mut SatSolver::new(), nvars, &cnf));
        }
    }

    #[test]
    fn reset_after_learning_and_restarts_solves_like_a_fresh_one() {
        let mut reused = SatSolver::new();
        let (nvars, hard) = pigeonhole(7);
        assert_eq!(run(&mut reused, nvars, &hard).0, SatOutcome::Unsat);
        assert!(reused.conflicts > 128, "the first restart comes after 128 conflicts");
        assert!(reused.num_clauses() > hard.len(), "learned clauses were kept");
        let (sat_vars, sat) = planted_3sat();
        let fresh = run(&mut SatSolver::new(), sat_vars, &sat);
        assert_eq!(fresh.0, SatOutcome::Sat);
        assert!(fresh.2 > 0 && fresh.3 > 0, "the instance needs search");
        for (nvars, cnf) in [(sat_vars, sat), pigeonhole(5), (nvars, hard)] {
            reused.reset();
            assert_eq!(reused.num_vars() + reused.num_clauses(), 0);
            assert_eq!(run(&mut reused, nvars, &cnf), run(&mut SatSolver::new(), nvars, &cnf));
        }
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Small random instances cross-checked against exhaustive search.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..60 {
            let nvars = 8;
            let nclauses = 3 + (next() % 40) as usize;
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u64) as u32;
                    let pol = next() % 2 == 0;
                    c.push((v, pol));
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'asg: for m in 0u32..(1 << nvars) {
                for c in &clauses {
                    if !c.iter().any(|&(v, pol)| ((m >> v) & 1 == 1) == pol) {
                        continue 'asg;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = SatSolver::new();
            let vars = lits(&mut s, nvars);
            let mut alive = true;
            for c in &clauses {
                let cl: Vec<Lit> =
                    c.iter().map(|&(v, pol)| Lit::new(vars[v as usize], pol)).collect();
                alive &= s.add_clause(&cl);
            }
            let got = if alive { s.solve() } else { SatOutcome::Unsat };
            assert_eq!(
                got,
                if brute_sat { SatOutcome::Sat } else { SatOutcome::Unsat },
                "solver disagrees with brute force on {clauses:?}"
            );
            // If sat, verify the model actually satisfies all clauses.
            if got == SatOutcome::Sat {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&(v, pol)| s.value(vars[v as usize]).unwrap() == pol),
                        "model does not satisfy {c:?}"
                    );
                }
            }
        }
    }
}
