//! Differential property tests for per-component solving: every query is
//! decided one independence component at a time, and a model-grade answer
//! is the union of its components' canonical models. Verdicts must agree
//! with brute-force enumeration, cached and uncached, and the model must be
//! a pure function of the constraint set — whatever the constraint order,
//! the cache, or the queries that cache answered before.
//!
//! Multi-symbol generators are biased so queries actually slice: symbols 0/1
//! and 2/3 form two families that only sometimes mix, producing a healthy
//! blend of one-, two-, and three-component partitions.

use std::collections::BTreeSet;

use ddt_expr::{cache_key, partition_independent, Assignment, BinOp, CmpOp, Expr, SymId};
use ddt_solver::{SatResult, Solver};
use proptest::prelude::*;

const NSYMS: u32 = 4;

/// Random 6-bit expressions over one symbol *family* (a pair of symbols),
/// keeping exhaustive cross-checks over all four symbols (2^24) affordable.
fn arb_expr(family: u32, depth: u32) -> BoxedStrategy<Expr> {
    let s0 = family * 2;
    let leaf = prop_oneof![
        (0u64..64).prop_map(|v| Expr::constant(v, 6)),
        Just(Expr::sym(SymId(s0), 6)),
        Just(Expr::sym(SymId(s0 + 1), 6)),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::And),
                Just(BinOp::Or),
                Just(BinOp::Xor),
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Expr::bin(op, &a, &b))
    })
    .boxed()
}

/// A random constraint drawn from one family (0/1 or 2/3), so constraint
/// sets usually split into independent components.
fn family_constraint(family: u32) -> BoxedStrategy<Expr> {
    (
        arb_expr(family, 2),
        arb_expr(family, 2),
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Ult),
            Just(CmpOp::Ule),
            Just(CmpOp::Slt),
            Just(CmpOp::Sle),
        ],
    )
        .prop_map(|(a, b, op)| Expr::cmp(op, &a, &b))
        .boxed()
}

fn arb_constraint() -> BoxedStrategy<Expr> {
    prop_oneof![family_constraint(0), family_constraint(1)].boxed()
}

/// Exhaustively decides satisfiability over the 6-bit symbols the
/// constraints mention (at most four, so at most 2^24 assignments).
fn brute_force_sat(constraints: &[Expr]) -> bool {
    let syms: BTreeSet<SymId> = constraints.iter().flat_map(|c| c.syms()).collect();
    (0u64..1 << (6 * syms.len())).any(|m| {
        let asg: Assignment =
            syms.iter().enumerate().map(|(i, &id)| (id, (m >> (6 * i)) & 0x3f)).collect();
        constraints.iter().all(|c| c.eval_bool(&asg))
    })
}

/// A component of its own on symbol 4 that none of the solver's cheap
/// candidate models (all symbols 0, 1, all-ones, 4 or 0x80) satisfies. A
/// query that contains it is never answered by the whole-query fast path,
/// so `check` must report the union of its components' canonical models.
fn pin() -> Expr {
    Expr::sym(SymId(NSYMS), 6).eq(&Expr::constant(42, 6))
}

/// What `check(cs + [pin()])` must return: `Unsat` if some component is,
/// else the union, over the components of `cs` and the pin, of the model
/// each one gets from a fresh uncached solver beside the pin alone.
fn union_of_component_models(cs: &[Expr]) -> SatResult {
    let mut union = Assignment::new();
    for part in partition_independent(&cache_key(cs)) {
        let own: BTreeSet<SymId> = part.iter().flat_map(|c| c.syms()).collect();
        let mut alone = part.clone();
        alone.push(pin());
        match Solver::uncached().check(&alone) {
            SatResult::Unsat => return SatResult::Unsat,
            SatResult::Sat(m) => union.extend(m.iter().filter(|(id, _)| own.contains(id))),
        }
    }
    match Solver::uncached().check(&[pin()]) {
        SatResult::Sat(m) => union.extend(m.iter()),
        SatResult::Unsat => unreachable!("the pin is satisfiable"),
    }
    SatResult::Sat(union)
}

/// A permutation of `cs` drawn from `seed` (Fisher-Yates over SplitMix64).
fn shuffled(cs: &[Expr], mut seed: u64) -> Vec<Expr> {
    let mut out = cs.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    out
}

fn solver(cached: bool) -> Solver {
    if cached {
        Solver::new()
    } else {
        Solver::uncached()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cached and uncached solvers give the brute-force verdict, for
    /// verdict-grade and model-grade queries alike, and satisfiable
    /// answers carry genuinely satisfying models.
    #[test]
    fn all_modes_agree_on_verdict_and_model_validity(
        cs in prop::collection::vec(arb_constraint(), 1..5),
    ) {
        let expected = brute_force_sat(&cs);
        for cached in [false, true] {
            let mut s = solver(cached);
            prop_assert_eq!(s.is_feasible(&cs), expected, "verdict flipped (cached={})", cached);
            // The full SatResult's model must satisfy the query in every
            // mode (composition soundness).
            match s.check(&cs) {
                SatResult::Sat(m) => {
                    prop_assert!(expected, "check Sat but brute force finds no model");
                    for c in &cs {
                        prop_assert!(c.eval_bool(&m), "model fails {}", c);
                    }
                }
                SatResult::Unsat => prop_assert!(!expected),
            }
        }
    }

    /// The verdict agrees with brute force directly, on the same solver
    /// for both grades.
    #[test]
    fn optimized_verdict_matches_brute_force(
        cs in prop::collection::vec(arb_constraint(), 1..4),
    ) {
        let mut s = Solver::new();
        prop_assert_eq!(s.is_feasible(&cs), brute_force_sat(&cs));
    }

    /// Partitioning is a true independence partition: components are
    /// symbol-disjoint, cover the key, and per-component satisfiability
    /// composes to whole-query satisfiability.
    #[test]
    fn partition_soundness(cs in prop::collection::vec(arb_constraint(), 1..5)) {
        let key = cache_key(&cs);
        let parts = partition_independent(&key);
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, key.len());
        for (i, p) in parts.iter().enumerate() {
            let ps: BTreeSet<_> = p.iter().flat_map(|e| e.syms()).collect();
            for q in parts.iter().skip(i + 1) {
                let qs: BTreeSet<_> = q.iter().flat_map(|e| e.syms()).collect();
                prop_assert!(ps.is_disjoint(&qs));
            }
        }
        // Conjunction over disjoint components: sat iff all components sat.
        let all_parts = parts.iter().all(|p| brute_force_sat(p));
        prop_assert_eq!(brute_force_sat(&key), all_parts);
        prop_assert_eq!(Solver::uncached().is_feasible(&key), all_parts);
    }

    /// A long deepening-path query stream (the explorer's hot pattern) gives
    /// identical answers, models included, with the cache on and off.
    #[test]
    fn deepening_path_stream_matches(
        base in arb_constraint(),
        extras in prop::collection::vec(arb_constraint(), 1..6),
    ) {
        let mut cached = Solver::new();
        let mut uncached = Solver::uncached();
        let mut cs = vec![base];
        for e in extras {
            cs.push(e);
            prop_assert_eq!(cached.is_feasible(&cs), uncached.is_feasible(&cs));
            prop_assert_eq!(cached.check(&cs), uncached.check(&cs));
        }
    }

    /// The model definition. A query the whole-query fast path cannot
    /// answer gets exactly the union of each component's own model, the
    /// one `check` gives that component beside the pin alone — from a
    /// cached or an uncached solver, for any order of the constraints, and
    /// after any earlier stream of queries on the same cache (drawn partly
    /// from the same constraints, so the cache holds some of the
    /// components).
    #[test]
    fn check_returns_the_union_of_component_models(
        cs in prop::collection::vec(arb_constraint(), 1..6),
        order in any::<u64>(),
        history in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(arb_constraint(), 0..3), any::<bool>()),
            0..6,
        ),
    ) {
        let mut query = cs.clone();
        query.push(pin());
        let expected = union_of_component_models(&cs);
        let mut warm = Solver::new();
        for (mask, extra, verdict) in history {
            let picked = cs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
            let mut earlier: Vec<Expr> = picked.map(|(_, c)| c.clone()).collect();
            earlier.extend(extra);
            if verdict {
                warm.is_feasible(&earlier);
            } else {
                warm.check(&earlier);
            }
        }
        let query = shuffled(&query, order);
        prop_assert_eq!(&warm.check(&query), &expected, "warm cache");
        prop_assert_eq!(&Solver::new().check(&query), &expected, "cold cache");
        prop_assert_eq!(&Solver::uncached().check(&query), &expected, "uncached");
    }
}
