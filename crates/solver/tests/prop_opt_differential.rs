//! Differential property tests for the verdict-grade solver optimization:
//! independence slicing must agree — in verdict and in model validity — with
//! the plain monolithic solver on random constraint sets, cached and
//! uncached.
//!
//! Multi-symbol generators are biased so queries actually slice: symbols 0/1
//! and 2/3 form two families that only sometimes mix, producing a healthy
//! blend of one-, two-, and three-component partitions.

use ddt_expr::{partition_independent, Assignment, BinOp, CmpOp, Expr, SymId};
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

/// Exhaustively decides satisfiability over the four 6-bit symbols.
fn brute_force_sat(constraints: &[Expr]) -> bool {
    let mut asg = Assignment::new();
    for m in 0u64..(1 << (6 * NSYMS)) {
        for i in 0..NSYMS {
            asg.set(SymId(i), (m >> (6 * i)) & 0x3f);
        }
        if constraints.iter().all(|c| c.eval_bool(&asg)) {
            return true;
        }
    }
    false
}

/// Builds a solver with the given slicing and cache switches.
fn solver_with(slicing: bool, cached: bool) -> Solver {
    let mut s = if cached { Solver::new() } else { Solver::uncached() };
    s.set_slicing(slicing);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every flag combination produces the same verdict as the plain
    /// monolithic solver, and satisfiable verdicts carry genuinely
    /// satisfying models.
    #[test]
    fn all_modes_agree_on_verdict_and_model_validity(
        cs in prop::collection::vec(arb_constraint(), 1..5),
    ) {
        let mut plain = solver_with(false, false);
        let expected = plain.is_feasible(&cs);
        for slicing in [false, true] {
            for cached in [false, true] {
                let mut s = solver_with(slicing, cached);
                prop_assert_eq!(
                    s.is_feasible(&cs), expected,
                    "verdict flipped (slicing={}, cached={})",
                    slicing, cached
                );
                // The full SatResult's model must satisfy the query in
                // every mode (composition soundness).
                match s.check(&cs) {
                    SatResult::Sat(m) => {
                        prop_assert!(expected, "check Sat but plain infeasible");
                        for c in &cs {
                            prop_assert!(c.eval_bool(&m), "model fails {}", c);
                        }
                    }
                    SatResult::Unsat => prop_assert!(!expected),
                }
            }
        }
    }

    /// The optimized verdict agrees with brute force directly (not merely
    /// with another solver configuration).
    #[test]
    fn optimized_verdict_matches_brute_force(
        cs in prop::collection::vec(arb_constraint(), 1..4),
    ) {
        let mut s = solver_with(true, true);
        prop_assert_eq!(s.is_feasible(&cs), brute_force_sat(&cs));
    }

    /// Partitioning is a true independence partition: components are
    /// symbol-disjoint, cover the key, and per-component satisfiability
    /// composes to whole-query satisfiability.
    #[test]
    fn partition_soundness(cs in prop::collection::vec(arb_constraint(), 1..5)) {
        let key = ddt_expr::cache_key(&cs);
        let parts = partition_independent(&key);
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, key.len());
        for (i, p) in parts.iter().enumerate() {
            let ps: std::collections::BTreeSet<_> =
                p.iter().flat_map(|e| e.syms()).collect();
            for q in parts.iter().skip(i + 1) {
                let qs: std::collections::BTreeSet<_> =
                    q.iter().flat_map(|e| e.syms()).collect();
                prop_assert!(ps.is_disjoint(&qs));
            }
        }
        // Conjunction over disjoint components: sat iff all components sat.
        let mut plain = solver_with(false, false);
        let whole = plain.is_feasible(&key);
        let all_parts = parts.iter().all(|p| {
            let mut s = solver_with(false, false);
            s.is_feasible(p)
        });
        prop_assert_eq!(whole, all_parts);
    }

    /// A long deepening-path query stream (the explorer's hot pattern) gives
    /// identical verdict sequences with slicing and the cache on and off.
    #[test]
    fn deepening_path_stream_matches(
        base in arb_constraint(),
        extras in prop::collection::vec(arb_constraint(), 1..6),
    ) {
        let mut optimized = solver_with(true, true);
        let mut plain = solver_with(false, false);
        let mut cs = vec![base];
        for e in extras {
            cs.push(e);
            prop_assert_eq!(optimized.is_feasible(&cs), plain.is_feasible(&cs));
        }
    }
}
