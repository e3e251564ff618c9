//! The shared counterexample-caching query cache.
//!
//! DDT's throughput is bounded by constraint solving: every fork, feasibility
//! probe, and concretization hits the blaster, and sibling paths re-solve
//! near-identical constraint sets. This module is the KLEE-style
//! counterexample cache (Baldoni et al., §survey of symbolic execution
//! caching) shared by *all* explorer workers:
//!
//! 1. **Exact memoization** — canonicalized constraint-set signatures
//!    ([`ddt_expr::cache_key`]) map to their full [`SatResult`]s. Keys carry
//!    the expressions themselves, so hash collisions cannot corrupt answers.
//! 2. **Counterexample (model) reuse** — satisfying [`Assignment`]s from
//!    past queries are retained; a new query first evaluates cached models
//!    and answers `Sat` without blasting when one fits. A model cached for a
//!    *superset* of the query in particular always satisfies the subset.
//! 3. **UNSAT subset subsumption** — a cached UNSAT core that is a subset of
//!    the current query proves the superset UNSAT, checked with a Bloom-bit
//!    signature pre-filter and an exact sorted-inclusion walk.
//!
//! Storage is sharded: each shard is an LRU map behind a read-optimized
//! [`ShardedLock`], with recency stamps kept in per-entry atomics so cache
//! *hits* only ever take the shared (read) side of the lock. Eviction is
//! per-entry LRU — a full cache forgets its coldest entry, never the world
//! (the wholesale-clear policy this replaces destroyed all history at the
//! worst moment: mid-exploration, at peak locality).
//!
//! # Semantic invisibility
//!
//! The exploration must be bit-identical with the cache on or off. Verdicts
//! (`Sat`/`Unsat`) are mathematical functions of the query, so any sound
//! shortcut preserves them. *Models* are not unique, so which model comes
//! back could perturb concretization-dependent paths. Three rules keep the
//! cache invisible (exercised by `tests/solver_cache_differential.rs`):
//!
//! - the solver blasts the *canonical* form of one independence component
//!   at a time, so a fresh solve is a deterministic function of the cache
//!   key, and a query's model is the union of its components' models;
//! - exact-hit models are therefore exactly what a fresh solve would return;
//! - reused (cross-key) models are only surfaced for verdict-grade queries
//!   (`is_feasible` and friends), whose models the caller discards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::sync::ShardedLock;
use ddt_expr::{cache_key, is_subset_sorted, subset_signature, Assignment, Expr};

use crate::SatResult;

/// Number of shards (a power of two; the shard index is the key hash's low
/// bits). Sixteen keeps write contention negligible at the worker counts the
/// parallel explorer uses.
const SHARDS: usize = 16;

/// Default total entry capacity, matching the previous wholesale-clear bound.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Cached models retained for counterexample reuse. Every full solve and
/// winning fast-path candidate deposits here, so the ring must be deep
/// enough that a model survives until sibling paths (or a warm re-run)
/// re-reach the program point that produced it. The scan only runs on
/// verdict-grade misses, which are rare, so depth is cheap.
const MODEL_STORE_CAP: usize = 1024;

/// Models that answered verdict-grade queries on the fast path, kept in a
/// separate protected ring (see [`QueryCache::verdict_models`]).
const VERDICT_MODEL_STORE_CAP: usize = 128;

/// Cached UNSAT cores retained for subset subsumption. Every miss scans the
/// ring, but a Bloom-signature prefilter rejects non-subsets with one u64
/// comparison each, so depth is cheap here too.
const UNSAT_STORE_CAP: usize = 512;

/// How a caller will use the answer; controls which shortcuts are sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryGrade {
    /// The caller consumes the model (concretization, bug inputs): only
    /// bit-deterministic shortcuts (exact memoization, UNSAT subsumption)
    /// may answer.
    Model,
    /// The caller only branches on Sat/Unsat: cached-model reuse may answer
    /// too, since any satisfying assignment proves `Sat`.
    Verdict,
}

/// Global cache counters (all monotone; snapshot with [`QueryCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the exact-key map.
    pub exact_hits: u64,
    /// `Sat` verdicts proved by evaluating a cached counterexample.
    pub model_reuse_hits: u64,
    /// `Unsat` verdicts proved by a cached UNSAT subset.
    pub unsat_subset_hits: u64,
    /// Lookups that fell through to the full decision procedure.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// LRU evictions (single coldest entry per overflowing insert).
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups that consulted the cache.
    pub fn lookups(&self) -> u64 {
        self.exact_hits + self.model_reuse_hits + self.unsat_subset_hits + self.misses
    }

    /// Fraction of lookups answered without blasting (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (lookups - self.misses) as f64 / lookups as f64
        }
    }
}

/// Which mechanism answered a cache probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheAnswer {
    /// The exact canonical key was memoized.
    Exact(SatResult),
    /// A cached counterexample satisfies the query (verdict-grade only).
    ModelReuse(Assignment),
    /// A cached UNSAT core is a subset of the query.
    UnsatSubset,
    /// Nothing applicable: run the decision procedure.
    Miss,
}

struct Entry {
    result: SatResult,
    /// Recency stamp, updated on hit with a relaxed store so the read path
    /// never needs the write lock.
    stamp: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Vec<Expr>, Entry>,
}

/// A stored UNSAT core: canonical key plus its Bloom-bit signature.
struct UnsatCore {
    key: Vec<Expr>,
    sig: u64,
}

/// The shared, sharded counterexample-caching solver layer.
///
/// One handle (wrapped in an `Arc`) is shared by every explorer worker; all
/// methods take `&self`.
pub struct QueryCache {
    shards: Vec<ShardedLock<Shard>>,
    /// Ring of recent satisfying assignments for counterexample reuse.
    models: ShardedLock<Vec<Assignment>>,
    model_cursor: AtomicU64,
    /// Protected ring of models that answered *verdict-grade* queries on
    /// the fast path. These are exactly the models a sibling worker or a
    /// warm re-run needs to short-circuit the same feasibility checks, and
    /// they are few — so they live outside the churn of the full-solve
    /// model ring, where thousands of query-specific deposits would evict
    /// them long before they could be reused.
    verdict_models: ShardedLock<Vec<Assignment>>,
    verdict_cursor: AtomicU64,
    /// Ring of recent UNSAT cores for subset subsumption.
    unsat_cores: ShardedLock<Vec<UnsatCore>>,
    unsat_cursor: AtomicU64,
    clock: AtomicU64,
    per_shard_capacity: usize,
    exact_hits: AtomicU64,
    model_reuse_hits: AtomicU64,
    unsat_subset_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::new()
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl QueryCache {
    /// Creates a cache with the default capacity.
    pub fn new() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a cache bounded to roughly `capacity` total entries.
    pub fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            shards: (0..SHARDS).map(|_| ShardedLock::new(Shard::default())).collect(),
            models: ShardedLock::new(Vec::new()),
            model_cursor: AtomicU64::new(0),
            verdict_models: ShardedLock::new(Vec::new()),
            verdict_cursor: AtomicU64::new(0),
            unsat_cores: ShardedLock::new(Vec::new()),
            unsat_cursor: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            exact_hits: AtomicU64::new(0),
            model_reuse_hits: AtomicU64::new(0),
            unsat_subset_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &[Expr]) -> &ShardedLock<Shard> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Total cached query entries (racy snapshot across shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// True when no queries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the global counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            model_reuse_hits: self.model_reuse_hits.load(Ordering::Relaxed),
            unsat_subset_hits: self.unsat_subset_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Canonicalizes a live (non-trivial) constraint slice into a cache key.
    pub fn canonical_key(constraints: &[&Expr]) -> Vec<Expr> {
        let owned: Vec<Expr> = constraints.iter().map(|e| (*e).clone()).collect();
        cache_key(&owned)
    }

    /// Looks up a canonical key, trying exact memoization, then UNSAT subset
    /// subsumption, then (for verdict-grade queries) counterexample reuse.
    pub fn lookup(&self, key: &[Expr], grade: QueryGrade) -> CacheAnswer {
        // Exact hit: read lock only; recency via a relaxed atomic store.
        {
            let shard = self.shard_of(key).read();
            if let Some(entry) = shard.map.get(key) {
                entry.stamp.store(self.tick(), Ordering::Relaxed);
                self.exact_hits.fetch_add(1, Ordering::Relaxed);
                return CacheAnswer::Exact(entry.result.clone());
            }
        }
        // A cached UNSAT subset proves this superset UNSAT. Sound for every
        // grade: Unsat carries no model.
        let sig = subset_signature(key);
        {
            let cores = self.unsat_cores.read();
            for core in cores.iter() {
                if core.sig & !sig == 0 && is_subset_sorted(&core.key, key) {
                    self.unsat_subset_hits.fetch_add(1, Ordering::Relaxed);
                    return CacheAnswer::UnsatSubset;
                }
            }
        }
        // Counterexample reuse: any cached model that satisfies every
        // constraint proves Sat. Models are not canonical, so this shortcut
        // is reserved for callers that discard them.
        if grade == QueryGrade::Verdict {
            {
                let models = self.verdict_models.read();
                for model in models.iter() {
                    if key.iter().all(|c| c.eval_bool(model)) {
                        self.model_reuse_hits.fetch_add(1, Ordering::Relaxed);
                        return CacheAnswer::ModelReuse(model.clone());
                    }
                }
            }
            let models = self.models.read();
            for model in models.iter() {
                if key.iter().all(|c| c.eval_bool(model)) {
                    self.model_reuse_hits.fetch_add(1, Ordering::Relaxed);
                    return CacheAnswer::ModelReuse(model.clone());
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CacheAnswer::Miss
    }

    /// Stores a solved result under its canonical key, evicting the coldest
    /// entry of the target shard if it is full.
    pub fn insert(&self, key: Vec<Expr>, result: SatResult) {
        match &result {
            SatResult::Sat(model) => self.remember_model(model),
            SatResult::Unsat => self.remember_unsat(&key),
        }
        let stamp = self.tick();
        let mut shard = self.shard_of(&key).write();
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&key) {
            // LRU: drop the single least-recently-stamped entry. A linear
            // scan is fine — it only runs once the shard is at capacity, and
            // shards are small enough that the scan is cheaper than a solve.
            if let Some(coldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&coldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(key, Entry { result, stamp: AtomicU64::new(stamp) });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds a satisfying assignment to the reuse ring (skips empty models —
    /// they satisfy nothing the fast path would not). Besides full-solve
    /// models, the solver also deposits fast-path candidate models here so
    /// sibling workers and warm runs can answer verdict-grade queries from
    /// the ring instead of re-deriving them.
    pub(crate) fn remember_model(&self, model: &Assignment) {
        if model.is_empty() {
            return;
        }
        let mut models = self.models.write();
        if models.iter().any(|m| m == model) {
            return;
        }
        if models.len() < MODEL_STORE_CAP {
            models.push(model.clone());
        } else {
            let at = (self.model_cursor.fetch_add(1, Ordering::Relaxed) as usize)
                % MODEL_STORE_CAP;
            models[at] = model.clone();
        }
    }

    /// Adds a model that satisfied a verdict-grade query to the protected
    /// reuse ring. Deposits here are rare (one per fast-path-answered
    /// feasibility check shape), so unlike [`Self::remember_model`] entries
    /// they survive until a sibling path or warm re-run needs them.
    pub(crate) fn remember_verdict_model(&self, model: &Assignment) {
        if model.is_empty() {
            return;
        }
        let mut models = self.verdict_models.write();
        if models.iter().any(|m| m == model) {
            return;
        }
        if models.len() < VERDICT_MODEL_STORE_CAP {
            models.push(model.clone());
        } else {
            let at = (self.verdict_cursor.fetch_add(1, Ordering::Relaxed) as usize)
                % VERDICT_MODEL_STORE_CAP;
            models[at] = model.clone();
        }
    }

    /// Adds an UNSAT core to the subsumption ring.
    fn remember_unsat(&self, key: &[Expr]) {
        let core = UnsatCore { key: key.to_vec(), sig: subset_signature(key) };
        let mut cores = self.unsat_cores.write();
        if cores.iter().any(|c| c.key == core.key) {
            return;
        }
        if cores.len() < UNSAT_STORE_CAP {
            cores.push(core);
        } else {
            let at = (self.unsat_cursor.fetch_add(1, Ordering::Relaxed) as usize)
                % UNSAT_STORE_CAP;
            cores[at] = core;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_expr::SymId;

    fn c32(v: u64) -> Expr {
        Expr::constant(v, 32)
    }

    fn sym(id: u32) -> Expr {
        Expr::sym(SymId(id), 32)
    }

    fn key_of(cs: &[Expr]) -> Vec<Expr> {
        let refs: Vec<&Expr> = cs.iter().collect();
        QueryCache::canonical_key(&refs)
    }

    #[test]
    fn exact_hit_roundtrips_result() {
        let cache = QueryCache::new();
        let key = key_of(&[sym(0).ult(&c32(5))]);
        assert_eq!(cache.lookup(&key, QueryGrade::Model), CacheAnswer::Miss);
        cache.insert(key.clone(), SatResult::Unsat);
        assert_eq!(cache.lookup(&key, QueryGrade::Model), CacheAnswer::Exact(SatResult::Unsat));
        assert_eq!(cache.stats().exact_hits, 1);
    }

    #[test]
    fn unsat_subset_proves_superset_unsat() {
        let cache = QueryCache::new();
        let a = sym(0).ult(&c32(5));
        let b = c32(10).ult(&sym(0));
        let extra = sym(1).eq(&c32(7));
        cache.insert(key_of(&[a.clone(), b.clone()]), SatResult::Unsat);
        let superset = key_of(&[a, b, extra]);
        assert_eq!(cache.lookup(&superset, QueryGrade::Model), CacheAnswer::UnsatSubset);
    }

    #[test]
    fn model_reuse_is_verdict_grade_only() {
        let cache = QueryCache::new();
        let mut model = Assignment::new();
        model.set(SymId(0), 42);
        cache.insert(key_of(&[sym(0).eq(&c32(42))]), SatResult::Sat(model));
        // A *different* query the cached model happens to satisfy.
        let query = key_of(&[sym(0).ult(&c32(100))]);
        match cache.lookup(&query, QueryGrade::Verdict) {
            CacheAnswer::ModelReuse(m) => assert_eq!(m.get_or_zero(SymId(0)), 42),
            other => panic!("expected model reuse, got {other:?}"),
        }
        // Model-grade callers must fall through to a deterministic solve.
        assert_eq!(cache.lookup(&query, QueryGrade::Model), CacheAnswer::Miss);
    }

    #[test]
    fn full_cache_degrades_gracefully_not_wholesale() {
        // Regression for the old clear-the-world policy: a hot entry must
        // survive arbitrarily many cold insertions once the cache is full.
        let cache = QueryCache::with_capacity(SHARDS * 4);
        let hot = key_of(&[sym(0).eq(&c32(0xdead))]);
        cache.insert(hot.clone(), SatResult::Unsat);
        for i in 0..1000u64 {
            // Touch the hot key so its recency stamp stays fresh.
            assert_eq!(
                cache.lookup(&hot, QueryGrade::Model),
                CacheAnswer::Exact(SatResult::Unsat),
                "hot entry evicted after {i} cold inserts"
            );
            cache.insert(key_of(&[sym(1).eq(&c32(i))]), SatResult::Unsat);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "capacity bound never engaged");
        assert!(cache.len() <= SHARDS * 4 + SHARDS, "cache exceeded its bound");
        assert_eq!(stats.exact_hits, 1000, "hot entry was lost to eviction");
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(QueryCache::new());
        let key = key_of(&[sym(0).ult(&c32(9))]);
        let mut model = Assignment::new();
        model.set(SymId(0), 3);
        cache.insert(key.clone(), SatResult::Sat(model));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        assert!(matches!(
                            cache.lookup(&key, QueryGrade::Verdict),
                            CacheAnswer::Exact(SatResult::Sat(_))
                        ));
                    }
                });
            }
        });
        assert_eq!(cache.stats().exact_hits, 400);
    }
}
