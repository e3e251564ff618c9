//! The hash-consing interner: one shared allocation per distinct subtree.
//!
//! Every [`Expr`] that is not an inline constant (a constant of at most 32
//! bits, which lives in the handle's own word) is built through [`intern`],
//! so two structurally identical expressions always share one `Arc`
//! allocation. That invariant is what lets `Expr::eq` be a word comparison
//! and `Expr::hash` a single precomputed-word write: the solver's bit-blast
//! memo table, the query cache's canonical keys, and `cache_key`'s sort all
//! become O(1) per node instead of O(tree).
//!
//! Constants, which are most of what the symbolic VM builds while it runs
//! the kernel and driver concretely, never reach this table, so the shard
//! locks, digests and reference counts here are paid only for symbolic
//! structure. [`intern_stats`] counts those calls only.
//!
//! The table is sharded to keep construction cheap under the parallel
//! explorer, and stores [`Weak`] handles so dropping the last user of a
//! subtree reclaims it: the interner never pins expression memory beyond
//! its natural lifetime. Dead weak entries are pruned opportunistically on
//! the inserts that encounter them.
//!
//! Hashing is *shallow*: a node's hash mixes its variant tag and scalar
//! fields with the structural digests of its children, so interning one
//! node is O(1) regardless of subtree depth. The hash is a pure function of
//! the expression's structure (no pointers), hence stable across processes
//! — the cache's Bloom signatures derived from it are deterministic.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, Weak};

use ddt_isa::hash::IntMap;

use crate::node::{Expr, ExprNode, Interned};

/// Shard count; a power of two so shard selection is a mask.
const SHARDS: usize = 64;

/// One shard: hash -> bucket of weak handles to live interned nodes. The
/// shard is chosen by the digest's low bits, and the map multiplies the
/// digest before it picks a bucket, so keys of one shard still spread.
type Shard = Mutex<IntMap<u64, Vec<Weak<Interned>>>>;

static TABLE: OnceLock<Vec<Shard>> = OnceLock::new();

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn table() -> &'static [Shard] {
    TABLE.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(IntMap::default())).collect())
}

/// Locks a shard, tolerating poison: an interning caller that panicked
/// (the explorer isolates such panics per-state) cannot have left the map
/// itself inconsistent — every mutation is a single `retain`/`push`.
fn lock(shard: &Shard) -> MutexGuard<'_, IntMap<u64, Vec<Weak<Interned>>>> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shallow structural hash of a node whose children are already built:
/// the children contribute their structural digests, not a traversal.
pub(crate) fn shallow_hash(node: &ExprNode) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

/// Interns a node (children must already be interned `Expr`s): returns the
/// canonical shared handle for this structure, allocating only on first
/// sight.
pub(crate) fn intern(node: ExprNode) -> Expr {
    let hash = shallow_hash(&node);
    let shard = &table()[(hash as usize) & (SHARDS - 1)];
    let mut map = lock(shard);
    let bucket = map.entry(hash).or_default();
    let mut saw_dead = false;
    for w in bucket.iter() {
        match w.upgrade() {
            // Children are interned, so the derived (shallow) node equality
            // compares child pointers — O(1) per candidate.
            Some(arc) if arc.node == node => {
                HITS.fetch_add(1, Ordering::Relaxed);
                return Expr::from_interned(arc);
            }
            Some(_) => {}
            None => saw_dead = true,
        }
    }
    if saw_dead {
        bucket.retain(|w| w.strong_count() > 0);
    }
    let arc = Expr::alloc_interned(hash, node);
    bucket.push(std::sync::Arc::downgrade(&arc));
    MISSES.fetch_add(1, Ordering::Relaxed);
    Expr::from_interned(arc)
}

/// Interner counters since process start: `(hits, misses)`. A hit is an
/// intern call that found the structure already live; the hit rate is the
/// sharing factor the hash-consing layer achieves. Inline constants never
/// intern, so they count in neither.
pub fn intern_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymId;

    #[test]
    fn identical_structures_share_one_allocation() {
        let a = Expr::sym(SymId(7001), 32).add(&Expr::constant(17, 32));
        let b = Expr::sym(SymId(7001), 32).add(&Expr::constant(17, 32));
        assert!(Expr::ptr_eq(&a, &b), "hash-consed subtrees must share an Arc");
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_structures_do_not_collide() {
        let a = Expr::sym(SymId(7002), 32).add(&Expr::constant(1, 32));
        let b = Expr::sym(SymId(7002), 32).add(&Expr::constant(2, 32));
        assert!(!Expr::ptr_eq(&a, &b));
        assert_ne!(a, b);
    }

    #[test]
    fn dropped_expressions_can_be_reclaimed_and_reinterned() {
        let id = SymId(7003);
        let first = Expr::sym(id, 8).not();
        drop(first);
        // Whether or not the weak entry was pruned yet, re-interning must
        // produce a live, self-consistent handle.
        let again = Expr::sym(id, 8).not();
        assert_eq!(again.width(), 8);
        assert!(Expr::ptr_eq(&again, &Expr::sym(id, 8).not()));
    }

    #[test]
    fn stats_advance() {
        let (h0, m0) = intern_stats();
        let x = Expr::sym(SymId(7004), 16);
        let _y = Expr::sym(SymId(7004), 16);
        let (h1, m1) = intern_stats();
        assert!(h1 > h0, "second construction must hit");
        assert!(m1 > m0, "first construction must miss");
        drop(x);
    }
}
