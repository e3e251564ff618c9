//! Canonical constraint-set signatures for solver-layer caching.
//!
//! A satisfiability query is a *set* of boolean constraints: conjunction is
//! commutative, associative, and idempotent, so two queries that differ only
//! in element order or duplication must map to the same cache entry. The
//! canonical form is the sorted (by the structural [`Ord`] on [`Expr`]),
//! deduplicated constraint vector — keys compare by full expression
//! equality, so hash collisions can never conflate distinct queries.

use crate::node::Expr;

/// Canonicalizes a constraint set into its cache-key form: sorted by the
/// structural order and deduplicated.
///
/// Properties the solver cache relies on (checked by property tests):
///
/// - **order-insensitive**: any permutation of `constraints` produces the
///   same key;
/// - **duplication-insensitive**: repeating a constraint does not change the
///   key;
/// - **collision-free**: structurally distinct constraint sets produce
///   distinct keys (keys carry the expressions themselves, not hashes).
pub fn cache_key(constraints: &[Expr]) -> Vec<Expr> {
    let mut key: Vec<Expr> = constraints.to_vec();
    key.sort_unstable();
    key.dedup();
    key
}

/// Partitions a canonical key into its independence components: the finest
/// partition in which constraints sharing a symbol (transitively) land in
/// the same class. Conjunction distributes over symbol-disjoint components,
/// so a query is satisfiable iff every component is, and a model of the
/// query is exactly a union of per-component models — the classic
/// constraint-independence optimization of EXE/KLEE.
///
/// Determinism: the result is a pure function of the input sequence. Each
/// component preserves the input's (canonical) element order, and the
/// components themselves are ordered by their first member's position —
/// so a canonical key always slices into the same component keys, which is
/// what makes a query's per-component solves and cache entries a pure
/// function of its constraint set.
///
/// Constraints without symbols (constants — the solver strips these before
/// slicing) each form a singleton component.
pub fn partition_independent(key: &[Expr]) -> Vec<Vec<Expr>> {
    use std::collections::BTreeSet;
    use std::collections::HashMap;
    use crate::{collect_syms, SymId};

    // Union-find over constraint indices.
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]]; // Path halving.
            i = parent[i];
        }
        i
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            // Root at the smaller index so representatives stay canonical.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    }

    let mut parent: Vec<usize> = (0..key.len()).collect();
    let mut owner: HashMap<SymId, usize> = HashMap::new();
    let mut syms = BTreeSet::new();
    for (i, c) in key.iter().enumerate() {
        syms.clear();
        collect_syms(c, &mut syms);
        for &s in syms.iter() {
            match owner.get(&s) {
                Some(&j) => union(&mut parent, i, j),
                None => {
                    owner.insert(s, i);
                }
            }
        }
    }

    // Emit components ordered by their root (= smallest member) index, each
    // preserving input order.
    let mut component_of_root: HashMap<usize, usize> = HashMap::new();
    let mut out: Vec<Vec<Expr>> = Vec::new();
    for (i, c) in key.iter().enumerate() {
        let root = find(&mut parent, i);
        let slot = *component_of_root.entry(root).or_insert_with(|| {
            out.push(Vec::new());
            out.len() - 1
        });
        out[slot].push(c.clone());
    }
    out
}

/// A compact 64-bit superset-filter signature of a canonical key: one hash
/// bit per constraint, OR-ed together (a Bloom filter with k = 1).
///
/// If key `A` is a subset of key `B` then `sig(A) & !sig(B) == 0`; the
/// converse does not hold, so this is only a cheap pre-filter before the
/// exact sorted-inclusion check ([`is_subset_sorted`]).
pub fn subset_signature(key: &[Expr]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut sig = 0u64;
    for e in key {
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        sig |= 1u64 << (h.finish() % 64);
    }
    sig
}

/// Returns true if sorted-deduplicated `a` is a subset of
/// sorted-deduplicated `b` (both in [`cache_key`] canonical form), by a
/// linear merge walk.
pub fn is_subset_sorted(a: &[Expr], b: &[Expr]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = 0usize;
    'outer: for x in a {
        while bi < b.len() {
            match b[bi].cmp(x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymId;

    fn c(v: u64) -> Expr {
        Expr::constant(v, 32)
    }

    fn s(id: u32) -> Expr {
        Expr::sym(SymId(id), 32)
    }

    #[test]
    fn key_ignores_order_and_duplicates() {
        let a = s(0).ult(&c(5));
        let b = c(3).ult(&s(1));
        let k1 = cache_key(&[a.clone(), b.clone()]);
        let k2 = cache_key(&[b.clone(), a.clone(), a.clone()]);
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 2);
    }

    #[test]
    fn distinct_sets_get_distinct_keys() {
        let a = s(0).ult(&c(5));
        let b = s(0).ult(&c(6));
        assert_ne!(cache_key(std::slice::from_ref(&a)), cache_key(std::slice::from_ref(&b)));
        assert_ne!(cache_key(std::slice::from_ref(&a)), cache_key(&[a, b]));
    }

    #[test]
    fn partition_splits_symbol_disjoint_groups() {
        // {s0,s1} chained, {s2} alone, {s3,s4} chained via a third.
        let a = s(0).ult(&s(1));
        let b = s(1).ult(&c(9));
        let d = s(2).eq(&c(1));
        let e = s(3).add(&s(4)).ult(&c(7));
        let f = s(4).ne(&c(0));
        let key = cache_key(&[a.clone(), b.clone(), d.clone(), e.clone(), f.clone()]);
        let parts = partition_independent(&key);
        assert_eq!(parts.len(), 3);
        // Every constraint lands in exactly one component.
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, key.len());
        // Components are symbol-disjoint.
        for (i, p) in parts.iter().enumerate() {
            let ps: std::collections::BTreeSet<_> =
                p.iter().flat_map(|x| x.syms()).collect();
            for (j, q) in parts.iter().enumerate() {
                if i == j {
                    continue;
                }
                let qs: std::collections::BTreeSet<_> =
                    q.iter().flat_map(|x| x.syms()).collect();
                assert!(ps.is_disjoint(&qs), "components {i} and {j} share symbols");
            }
        }
        // Concatenating components in order reproduces the key (order
        // preservation inside and across components).
        let mut flat: Vec<Expr> = parts.into_iter().flatten().collect();
        flat.sort_unstable();
        assert_eq!(flat, key);
    }

    #[test]
    fn partition_is_order_insensitive_via_canonical_key() {
        let a = s(0).ult(&c(5));
        let b = s(1).ult(&c(6));
        let d = s(0).ne(&c(0));
        let k1 = cache_key(&[a.clone(), b.clone(), d.clone()]);
        let k2 = cache_key(&[d, b, a]);
        assert_eq!(partition_independent(&k1), partition_independent(&k2));
    }

    #[test]
    fn single_component_when_all_constraints_share_symbols() {
        let a = s(0).ult(&s(1));
        let b = s(1).ult(&s(2));
        let d = s(2).ne(&c(0));
        let key = cache_key(&[a, b, d]);
        let parts = partition_independent(&key);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], key);
    }

    #[test]
    fn subset_walk_agrees_with_set_semantics() {
        let a = cache_key(&[s(0).ult(&c(5))]);
        let ab = cache_key(&[s(0).ult(&c(5)), c(3).ult(&s(1))]);
        assert!(is_subset_sorted(&a, &ab));
        assert!(!is_subset_sorted(&ab, &a));
        assert!(is_subset_sorted(&ab, &ab));
        assert!(is_subset_sorted(&[], &a));
        // The signature filter never rejects a true subset.
        assert_eq!(subset_signature(&a) & !subset_signature(&ab), 0);
    }
}
