//! Path conditions kept as their independence components.
//!
//! DDT's symbolic hardware gives every device-register read a fresh symbol
//! (§3.3), so a path condition is a long conjunction of small, mutually
//! independent pieces, and a branch adds one conjunct to it. A
//! [`PathCondition`] keeps the conjunction already partitioned: pushing a
//! constraint merges only the components its symbols reach, and a fork
//! shares every component with its parent. A query then starts from the
//! partition instead of rebuilding it from the whole constraint list.
//!
//! Invariants (checked by `tests/prop_opt_differential.rs`):
//!
//! - the components are exactly `partition_independent(cache_key(live))`
//!   as a set of keys, where `live` is every pushed constraint that is not
//!   a constant: each component is a canonical key (sorted and
//!   deduplicated) with its sorted symbol set, and no two share a symbol;
//! - bit k of the candidate mask is set exactly when every pushed
//!   constraint holds with every symbol at [`CANDIDATES`]`[k]`;
//! - the path condition is marked unsatisfiable exactly when a constant
//!   false was pushed.

use std::collections::BTreeSet;
use std::sync::Arc;

use ddt_expr::{collect_syms, Expr, SymId};

/// The values of the solver's whole-query fast path, in the order it tries
/// them: candidate k sets every symbol of the query to `CANDIDATES[k]`.
pub const CANDIDATES: [u64; 5] = [0, 1, u64::MAX, 4, 0x80];

/// The candidate mask of the empty conjunction: every candidate holds.
const EVERY_CANDIDATE: u8 = (1 << CANDIDATES.len()) - 1;

/// One independence component: a canonical key and its symbols.
#[derive(Debug, PartialEq, Eq)]
pub struct Component {
    key: Vec<Expr>,
    syms: Vec<SymId>,
}

impl Component {
    /// The component's constraints, sorted by the structural order and
    /// deduplicated: the key its answers are cached under.
    pub fn key(&self) -> &[Expr] {
        &self.key
    }

    /// The symbols the constraints mention, sorted.
    pub fn syms(&self) -> &[SymId] {
        &self.syms
    }

    /// True if the component mentions a symbol of the sorted `syms`.
    pub(crate) fn shares_symbol_with(&self, syms: &[SymId]) -> bool {
        let (short, long) = if syms.len() < self.syms.len() {
            (syms, &self.syms[..])
        } else {
            (&self.syms[..], syms)
        };
        short.iter().any(|s| long.binary_search(s).is_ok())
    }
}

/// A conjunction of 1-bit constraints kept as its symbol-disjoint
/// components, with the fast path's candidate mask and an unsat flag.
///
/// Cloning is cheap: components are shared, and a push replaces only the
/// components it merges, so a forked path condition never sees its
/// sibling's constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathCondition {
    /// The components, oldest first: the last one is the one the newest
    /// push reached.
    parts: Vec<Arc<Component>>,
    /// Bit k is set when every constraint holds with every symbol at
    /// `CANDIDATES[k]`.
    mask: u8,
    /// A constant false was pushed.
    unsat: bool,
}

impl Default for PathCondition {
    fn default() -> PathCondition {
        PathCondition::new()
    }
}

impl PathCondition {
    /// The empty conjunction.
    pub fn new() -> PathCondition {
        PathCondition { parts: Vec::new(), mask: EVERY_CANDIDATE, unsat: false }
    }

    /// Conjoins `c`. A constant is not stored: true is dropped and false
    /// marks the path condition unsatisfiable. Otherwise the components
    /// that share a symbol with `c` merge, with `c`, into one component,
    /// which becomes the newest; the others are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not 1 bit wide.
    pub fn push(&mut self, c: Expr) {
        assert_eq!(c.width(), 1, "constraints must be boolean: {c}");
        let mut set = BTreeSet::new();
        collect_syms(&c, &mut set);
        if set.is_empty() {
            // Without symbols the constraint is its own value.
            if c.eval_uniform(0) == 0 {
                self.unsat = true;
            }
            return;
        }
        self.mask = surviving_candidates(&c, self.mask);
        let syms: Vec<SymId> = set.into_iter().collect();
        let mut touched = Vec::new();
        self.parts.retain(|part| {
            let reached = part.shares_symbol_with(&syms);
            if reached {
                touched.push(part.clone());
            }
            !reached
        });
        let merged = match touched.as_slice() {
            // A constraint the component already holds changes nothing
            // but its recency.
            [part] if part.key.binary_search(&c).is_ok() => part.clone(),
            _ => {
                let mut key: Vec<Expr> = Vec::new();
                let mut all_syms = syms;
                for part in &touched {
                    key = merge_sorted(&key, &part.key);
                    all_syms = merge_sorted(&all_syms, &part.syms);
                }
                if let Err(at) = key.binary_search(&c) {
                    key.insert(at, c);
                }
                Arc::new(Component { key, syms: all_syms })
            }
        };
        self.parts.push(merged);
    }

    /// This path condition with `c` conjoined, leaving `self` as it is.
    pub fn with(&self, c: Expr) -> PathCondition {
        let mut out = self.clone();
        out.push(c);
        out
    }

    /// True if a constant false was pushed.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// Number of distinct constraints held, a pushed false counted once.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.key.len()).sum::<usize>() + usize::from(self.unsat)
    }

    /// True if nothing but constant trues was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The components, oldest first.
    pub fn components(&self) -> impl ExactSizeIterator<Item = &Component> {
        self.parts.iter().map(|p| &**p)
    }

    /// The components, newest first: the order queries decide them in.
    pub(crate) fn newest_first(&self) -> impl Iterator<Item = &Arc<Component>> {
        self.parts.iter().rev()
    }

    /// The newest component, if any.
    pub(crate) fn newest(&self) -> Option<&Arc<Component>> {
        self.parts.last()
    }

    /// Every distinct non-constant constraint, component by component.
    pub fn iter(&self) -> impl Iterator<Item = &Expr> {
        self.parts.iter().flat_map(|p| p.key.iter())
    }

    /// Every symbol the constraints mention, component by component.
    pub fn symbols(&self) -> impl Iterator<Item = SymId> + '_ {
        self.parts.iter().flat_map(|p| p.syms.iter().copied())
    }

    /// The candidate mask: bit k is set when every constraint holds with
    /// every symbol at `CANDIDATES[k]`.
    pub fn candidate_mask(&self) -> u8 {
        self.mask
    }

    /// The first candidate value under which every constraint holds.
    pub(crate) fn first_candidate(&self) -> Option<u64> {
        (0..CANDIDATES.len()).find(|&k| self.mask >> k & 1 == 1).map(|k| CANDIDATES[k])
    }
}

impl FromIterator<Expr> for PathCondition {
    fn from_iter<I: IntoIterator<Item = Expr>>(iter: I) -> PathCondition {
        let mut pc = PathCondition::new();
        pc.extend(iter);
        pc
    }
}

impl Extend<Expr> for PathCondition {
    fn extend<I: IntoIterator<Item = Expr>>(&mut self, iter: I) {
        for c in iter {
            self.push(c);
        }
    }
}

/// The candidates of `mask` under which `c` holds, as a mask. A candidate
/// an earlier constraint ruled out is not evaluated again, so once no
/// candidate survives (the common case on a deep path) a push evaluates
/// nothing.
fn surviving_candidates(c: &Expr, mask: u8) -> u8 {
    CANDIDATES
        .iter()
        .enumerate()
        .filter(|&(k, &v)| mask >> k & 1 == 1 && c.eval_uniform(v) != 0)
        .fold(0, |mask, (k, _)| mask | 1 << k)
}

/// Merges two sorted, deduplicated slices into one.
fn merge_sorted<T: Ord + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(id: u32) -> Expr {
        Expr::sym(SymId(id), 32)
    }

    fn c32(v: u64) -> Expr {
        Expr::constant(v, 32)
    }

    fn keys(pc: &PathCondition) -> Vec<Vec<Expr>> {
        pc.components().map(|p| p.key().to_vec()).collect()
    }

    #[test]
    fn pushes_merge_only_the_components_they_reach() {
        let mut pc = PathCondition::new();
        pc.push(sym(0).ult(&c32(5)));
        pc.push(sym(1).eq(&c32(7)));
        pc.push(sym(2).ne(&c32(3)));
        assert_eq!(pc.components().len(), 3);
        let untouched = pc.parts[1].clone();
        // A bridge between symbols 0 and 2 merges their components into
        // the newest one; symbol 1's component is the same allocation.
        pc.push(sym(0).ult(&sym(2)));
        assert_eq!(pc.components().len(), 2);
        assert!(Arc::ptr_eq(&pc.parts[0], &untouched));
        assert_eq!(pc.newest().unwrap().syms(), &[SymId(0), SymId(2)]);
        assert_eq!(pc.len(), 4);
    }

    #[test]
    fn duplicates_and_constants_change_nothing_but_recency() {
        let a = sym(0).ult(&c32(5));
        let b = sym(1).eq(&c32(7));
        let mut pc: PathCondition = [a.clone(), b.clone()].into_iter().collect();
        let before = keys(&pc);
        pc.push(Expr::true_());
        pc.push(a.clone());
        assert_eq!(pc.len(), 2);
        assert_eq!(keys(&pc), vec![before[1].clone(), before[0].clone()]);
        assert!(!pc.is_unsat());
        pc.push(Expr::false_());
        assert!(pc.is_unsat());
        assert_eq!(pc.len(), 3);
    }

    #[test]
    fn forks_share_components_and_diverge() {
        let mut parent = PathCondition::new();
        parent.push(sym(0).ult(&c32(5)));
        parent.push(sym(1).ult(&c32(9)));
        let mut child = parent.clone();
        child.push(sym(0).ne(&c32(0)));
        assert!(Arc::ptr_eq(&parent.parts[1], &child.parts[0]));
        assert_eq!(parent.len(), 2);
        assert_eq!(child.len(), 3);
        // The parent's mask still admits all-zero; the child's cannot.
        assert_eq!(parent.first_candidate(), Some(0));
        assert_eq!(child.first_candidate(), Some(1));
    }

    #[test]
    fn the_mask_tracks_every_candidate() {
        let x = sym(0);
        let mut pc = PathCondition::new();
        assert_eq!(pc.candidate_mask(), EVERY_CANDIDATE);
        pc.push(x.ult(&c32(5))); // 0, 1, 4.
        assert_eq!(pc.candidate_mask(), 0b01011);
        pc.push(x.ne(&c32(0))); // 1, 4.
        assert_eq!(pc.candidate_mask(), 0b01010);
        pc.push(c32(2).ult(&x)); // 4.
        assert_eq!(pc.first_candidate(), Some(4));
        pc.push(x.ne(&c32(4)));
        assert_eq!(pc.first_candidate(), None);
    }
}
