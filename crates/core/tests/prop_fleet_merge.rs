//! Property tests for the fleet merge algebra.
//!
//! The fleet's correctness argument rests on its merge operations being
//! **additive** (the fold of the parts equals the whole) and
//! **order-independent** (shards complete in nondeterministic order, so the
//! fold must be commutative). These tests pin both properties for the three
//! merge paths the supervisor uses: [`ExploreStats::merge_add`],
//! [`RunHealth::merge_add`], and [`Coverage::absorb`].

use ddt_core::coverage::Coverage;
use ddt_core::{ExploreStats, RunHealth};
use ddt_isa::asm::{assemble, ExportMap};
use proptest::prelude::*;

/// SplitMix-style stream: turns one seed into as many field values as a
/// struct needs, so a `Vec<u64>` of seeds generates arbitrary structs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 16) % 10_000
    }
}

fn arb_stats(seed: u64) -> ExploreStats {
    let mut m = Mix(seed);
    ExploreStats {
        paths_started: m.next(),
        paths_completed: m.next(),
        paths_faulted: m.next(),
        paths_infeasible: m.next(),
        paths_budget_killed: m.next(),
        paths_step_budget_killed: m.next(),
        insns: m.next(),
        peak_states: m.next() as usize,
        symbols: m.next() as u32,
        solver_queries: m.next(),
        solver_fast_hits: m.next(),
        solver_full: m.next(),
        solver_cache_hits: m.next(),
        solver_model_reuse: m.next(),
        solver_unsat_subset: m.next(),
        solver_sliced: m.next(),
        solver_slice_components: m.next(),
        // Always 0: their layers are gone and nothing fills them.
        solver_session_probes: 0,
        solver_batch_flushes: 0,
        solver_batched_verdicts: 0,
        solver_batch_witness_hits: 0,
        solver_portfolio_races: 0,
        solver_rewrite_reductions: 0,
        interner_hits: m.next(),
        interner_misses: m.next(),
        cache_evictions: m.next(),
        wall_ms: 0, // merge_add deliberately leaves wall clocks alone.
        max_cow_depth: m.next() as usize,
        states_dropped: m.next(),
        panics_caught: m.next(),
        faults_pool: m.next(),
        faults_shared: m.next(),
        faults_map: m.next(),
        faults_registration: m.next(),
        faults_registry: m.next(),
        faults_lifecycle: m.next(),
        lifecycle_bugs: m.next(),
        quanta_executed: m.next(),
        quanta_to_first_bug: m.next(),
        quanta_to_last_cover: m.next(),
        fuzz_execs: m.next(),
        fuzz_insns: m.next(),
        fuzz_wall_ms: m.next(),
        escalations: m.next(),
        concrete_blocks: m.next(),
        concrete_bugs: m.next(),
    }
}

fn arb_health(seed: u64) -> RunHealth {
    let mut stats = arb_stats(seed);
    // Exercise the sum-vs-max distinction and the boolean ORs too.
    stats.wall_ms = 0;
    let mut h = RunHealth::from_stats(&stats, seed.is_multiple_of(7), seed.is_multiple_of(5));
    let mut m = Mix(seed ^ 0x9e3779b97f4a7c15);
    h.traces_persisted = m.next();
    h.checkpoints_written = m.next();
    h.journal_records = m.next();
    h.resume_replayed_paths = m.next();
    h.resume_replay_failures = m.next();
    h.fleet_workers_spawned = m.next();
    h.fleet_workers_lost = m.next();
    h.fleet_leases_reassigned = m.next();
    h.fleet_shards_stolen = m.next();
    h.fleet_shards_quarantined = m.next();
    h
}

/// A tiny driver image whose block partition gives `absorb` real block
/// addresses to fold.
fn blocks_and_coverage() -> (Vec<u32>, Coverage) {
    let src = "
        DriverEntry:
            beq r0, r1, a
            nop
            ret
        a:
            beq r2, r3, b
            nop
            ret
        b:
            nop
            ret";
    let a = assemble(src, &ExportMap::new()).expect("fixture assembles");
    let analysis = ddt_isa::analysis::analyze(&a.image);
    let blocks: Vec<u32> = analysis.blocks.iter().map(|b| b.start).collect();
    (blocks, Coverage::new(analysis))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folding stats shards in any order yields the same aggregate, and
    /// the aggregate is the field-wise sum (max for the watermarks).
    #[test]
    fn stats_merge_is_additive_and_order_independent(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let parts: Vec<ExploreStats> = seeds.iter().map(|&s| arb_stats(s)).collect();

        let mut fwd = ExploreStats::default();
        for p in &parts {
            fwd.merge_add(p);
        }
        let mut rev = ExploreStats::default();
        for p in parts.iter().rev() {
            rev.merge_add(p);
        }
        prop_assert_eq!(&fwd, &rev, "merge order must not matter");

        let sum = |f: fn(&ExploreStats) -> u64| parts.iter().map(f).sum::<u64>();
        prop_assert_eq!(fwd.paths_started, sum(|s| s.paths_started));
        prop_assert_eq!(fwd.insns, sum(|s| s.insns));
        prop_assert_eq!(fwd.solver_queries, sum(|s| s.solver_queries));
        prop_assert_eq!(fwd.paths_step_budget_killed, sum(|s| s.paths_step_budget_killed));
        prop_assert_eq!(fwd.states_dropped, sum(|s| s.states_dropped));
        prop_assert_eq!(fwd.fuzz_execs, sum(|s| s.fuzz_execs));
        prop_assert_eq!(fwd.escalations, sum(|s| s.escalations));
        prop_assert_eq!(fwd.solver_sliced, sum(|s| s.solver_sliced));
        prop_assert_eq!(
            fwd.peak_states,
            parts.iter().map(|s| s.peak_states).max().unwrap_or(0),
            "peak states is a high-water mark, not a sum"
        );
        prop_assert_eq!(fwd.wall_ms, 0, "wall clocks never merge");
    }

    /// RunHealth folds the same way: counters sum, budget-exhaustion flags
    /// OR, and the fold commutes.
    #[test]
    fn health_merge_is_additive_and_order_independent(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let parts: Vec<RunHealth> = seeds.iter().map(|&s| arb_health(s)).collect();

        let mut fwd = RunHealth::default();
        for p in &parts {
            fwd.merge_add(p);
        }
        let mut rev = RunHealth::default();
        for p in parts.iter().rev() {
            rev.merge_add(p);
        }
        prop_assert_eq!(&fwd, &rev, "merge order must not matter");

        let sum = |f: fn(&RunHealth) -> u64| parts.iter().map(f).sum::<u64>();
        prop_assert_eq!(fwd.path_step_budget_kills, sum(|h| h.path_step_budget_kills));
        prop_assert_eq!(fwd.fleet_workers_lost, sum(|h| h.fleet_workers_lost));
        prop_assert_eq!(fwd.fleet_shards_quarantined, sum(|h| h.fleet_shards_quarantined));
        prop_assert_eq!(fwd.bug_occurrences, sum(|h| h.bug_occurrences));
        prop_assert_eq!(fwd.solver_sliced, sum(|h| h.solver_sliced));
        prop_assert_eq!(
            fwd.insn_budget_exhausted,
            parts.iter().any(|h| h.insn_budget_exhausted),
            "budget flags OR together"
        );
    }

    /// Absorbing coverage deltas is additive on hit counts, a set union on
    /// covered blocks, and order-independent.
    #[test]
    fn coverage_absorb_is_additive_and_order_independent(
        deltas in prop::collection::vec(
            prop::collection::vec((0usize..3, 1u64..50), 0..6),
            1..6,
        ),
    ) {
        let (blocks, mut fwd) = blocks_and_coverage();
        let (_, mut rev) = blocks_and_coverage();
        let to_hits = |d: &Vec<(usize, u64)>| -> Vec<(u32, u64)> {
            d.iter().map(|&(i, n)| (blocks[i % blocks.len()], n)).collect()
        };

        for d in &deltas {
            let hits = to_hits(d);
            let covered: Vec<u32> = hits.iter().map(|&(pc, _)| pc).collect();
            fwd.absorb(hits, covered);
        }
        for d in deltas.iter().rev() {
            let hits = to_hits(d);
            let covered: Vec<u32> = hits.iter().map(|&(pc, _)| pc).collect();
            rev.absorb(hits, covered);
        }

        let (fwd_hits, fwd_covered, _) = fwd.snapshot();
        let (rev_hits, rev_covered, _) = rev.snapshot();
        prop_assert_eq!(&fwd_hits, &rev_hits, "hit counts commute");
        prop_assert_eq!(&fwd_covered, &rev_covered, "covered set commutes");

        // Additivity: each block's merged count is the sum of its deltas.
        let mut expect: std::collections::BTreeMap<u32, u64> = Default::default();
        for d in &deltas {
            for (pc, n) in to_hits(d) {
                *expect.entry(pc).or_insert(0) += n;
            }
        }
        let expect: Vec<(u32, u64)> = expect.into_iter().collect();
        prop_assert_eq!(fwd_hits, expect);
        prop_assert_eq!(fwd.covered_blocks(), fwd_covered.len());
    }
}
