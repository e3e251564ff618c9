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
//!
//! The path-condition index is checked against the same oracles: pushed
//! streams (with bridges, duplicates, constants and forks) keep exactly the
//! components `partition_independent` finds, the candidate mask the
//! whole-query evaluation gives, and `check_under` the answer the slice
//! definition gives.

use std::collections::BTreeSet;

use ddt_expr::{cache_key, partition_independent, Assignment, BinOp, CmpOp, Expr, SymId};
use ddt_solver::{PathCondition, SatResult, Solver, CANDIDATES};
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

/// [`brute_force_sat`] one independence component at a time (the oracle
/// partition, which `partition_soundness` checks against the whole
/// enumeration), each by a backtracking enumeration that checks a
/// constraint as soon as its last symbol has a value: an unsatisfiable
/// two-symbol family costs at most 2^12 assignments, not 2^24.
fn brute_force_sat_by_parts(constraints: &[Expr]) -> bool {
    fn search(at: usize, syms: &[SymId], ready: &[Vec<&Expr>], asg: &mut Assignment) -> bool {
        if at == syms.len() {
            return true;
        }
        (0..64).any(|v| {
            asg.set(syms[at], v);
            ready[at].iter().all(|c| c.eval_bool(asg)) && search(at + 1, syms, ready, asg)
        })
    }
    if constraints.iter().any(Expr::is_false) {
        return false;
    }
    partition_independent(&cache_key(constraints)).iter().all(|part| {
        let syms: Vec<SymId> =
            part.iter().flat_map(|c| c.syms()).collect::<BTreeSet<_>>().into_iter().collect();
        let mut ready: Vec<Vec<&Expr>> = vec![Vec::new(); syms.len()];
        for c in part {
            match c.syms().iter().map(|s| syms.binary_search(s).expect("own symbol")).max() {
                Some(last) => ready[last].push(c),
                None => {
                    if !c.eval_bool(&Assignment::new()) {
                        return false;
                    }
                }
            }
        }
        search(0, &syms, &ready, &mut Assignment::new())
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

/// A constraint over symbols of both families, which merges their
/// components.
fn bridge_constraint() -> BoxedStrategy<Expr> {
    (
        arb_expr(0, 1),
        arb_expr(1, 1),
        prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Ne), Just(CmpOp::Ult), Just(CmpOp::Sle)],
    )
        .prop_map(|(a, b, op)| Expr::cmp(op, &a, &b))
        .boxed()
}

/// A constraint of a pushed stream: mostly one family's, sometimes a
/// bridge, now and then the constant true or false.
fn stream_constraint() -> BoxedStrategy<Expr> {
    prop_oneof![
        family_constraint(0),
        family_constraint(1),
        family_constraint(0),
        family_constraint(1),
        bridge_constraint(),
        bridge_constraint(),
        prop_oneof![Just(Expr::true_()), Just(Expr::false_())],
    ]
    .boxed()
}

/// One step of a stream over a growing set of forked path conditions.
#[derive(Clone, Debug)]
enum Step {
    /// Push a constraint onto branch `b % branches`.
    Push(usize, Expr),
    /// Push again the `i % len`-th constraint branch `b` already holds.
    Repeat(usize, usize),
    /// Fork branch `b`: the fork is its clone, or its extension by a
    /// constraint (what a branch adopts from its own query).
    Fork(usize, Option<Expr>),
}

fn arb_step() -> BoxedStrategy<Step> {
    let push = (any::<usize>(), stream_constraint()).prop_map(|(b, c)| Step::Push(b, c));
    let repeat = (any::<usize>(), any::<usize>()).prop_map(|(b, i)| Step::Repeat(b, i));
    let clone = any::<usize>().prop_map(|b| Step::Fork(b, None));
    let extend = (any::<usize>(), stream_constraint()).prop_map(|(b, c)| Step::Fork(b, Some(c)));
    prop_oneof![push.clone(), push.clone(), push, repeat, clone, extend].boxed()
}

/// A path condition with every constraint pushed onto it, in order.
#[derive(Clone)]
struct Branch {
    pc: PathCondition,
    pushed: Vec<Expr>,
}

impl Branch {
    fn push(&mut self, c: Expr) {
        self.pc.push(c.clone());
        self.pushed.push(c);
    }
}

/// Runs `steps` from one empty branch; returns every branch.
fn run_stream(steps: &[Step]) -> Vec<Branch> {
    let mut branches = vec![Branch { pc: PathCondition::new(), pushed: Vec::new() }];
    for step in steps {
        match step {
            Step::Push(b, c) => {
                let n = branches.len();
                branches[b % n].push(c.clone());
            }
            Step::Repeat(b, i) => {
                let n = branches.len();
                let branch = &mut branches[b % n];
                if !branch.pushed.is_empty() {
                    let c = branch.pushed[i % branch.pushed.len()].clone();
                    branch.push(c);
                }
            }
            Step::Fork(b, None) => {
                let fork = branches[b % branches.len()].clone();
                branches.push(fork);
            }
            Step::Fork(b, Some(c)) => {
                let parent = &branches[b % branches.len()];
                let mut pushed = parent.pushed.clone();
                pushed.push(c.clone());
                branches.push(Branch { pc: parent.pc.with(c.clone()), pushed });
            }
        }
    }
    branches
}

/// The non-constant constraints of `cs`.
fn live(cs: &[Expr]) -> Vec<Expr> {
    cs.iter().filter(|c| c.as_const().is_none()).cloned().collect()
}

/// Every symbol `cs` mentions at `v`: the fast path's candidate for `v`.
fn uniform(cs: &[Expr], v: u64) -> Assignment {
    cs.iter().flat_map(|c| c.syms()).map(|id| (id, v)).collect()
}

/// The index invariants of `pc`, built from `pushed`.
fn check_index(pc: &PathCondition, pushed: &[Expr]) -> Result<(), TestCaseError> {
    let live = live(pushed);
    let mut got: Vec<Vec<Expr>> = pc.components().map(|p| p.key().to_vec()).collect();
    let mut want = partition_independent(&cache_key(&live));
    got.sort();
    want.sort();
    prop_assert_eq!(&got, &want, "components");
    for part in pc.components() {
        let syms: Vec<SymId> = part.key().iter().flat_map(|c| c.syms()).collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        prop_assert_eq!(part.syms(), &syms[..], "component symbols");
    }
    for (k, &v) in CANDIDATES.iter().enumerate() {
        let asg = uniform(&live, v);
        let holds = live.iter().all(|c| c.eval_bool(&asg));
        prop_assert_eq!(pc.candidate_mask() >> k & 1 == 1, holds, "mask bit {} ({:#x})", k, v);
    }
    prop_assert_eq!(pc.is_unsat(), pushed.iter().any(Expr::is_false), "unsat flag");
    Ok(())
}

/// What `check` of `query` must return: `Unsat` if a constraint is false;
/// else the first candidate that satisfies the whole query; else the union
/// of each component's own canonical model (beside the pin, which keeps the
/// fast path out), or `Unsat` if a component is unsatisfiable.
fn expected_check(query: &[Expr]) -> SatResult {
    if query.iter().any(Expr::is_false) {
        return SatResult::Unsat;
    }
    let live = live(query);
    for v in CANDIDATES {
        let asg = uniform(&live, v);
        if live.iter().all(|c| c.eval_bool(&asg)) {
            return SatResult::Sat(asg);
        }
    }
    let mut union = Assignment::new();
    for part in partition_independent(&cache_key(&live)) {
        let own: BTreeSet<SymId> = part.iter().flat_map(|c| c.syms()).collect();
        let mut alone = part.clone();
        alone.push(pin());
        match Solver::uncached().check(&alone) {
            SatResult::Unsat => return SatResult::Unsat,
            SatResult::Sat(m) => union.extend(m.iter().filter(|(id, _)| own.contains(id))),
        }
    }
    SatResult::Sat(union)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The path-condition index. Random streams — family constraints,
    /// bridges that merge families, duplicates, constants, and forks that
    /// clone or extend a branch and then diverge from it — keep, on every
    /// branch, the components `partition_independent` finds, the candidate
    /// mask the whole-query evaluation gives, and the unsat flag; and
    /// `check_under(pc, extra)` returns what `check` of the same
    /// constraints must return, with the brute-force verdict, from a warm
    /// cached solver and an uncached one.
    #[test]
    fn path_condition_index_matches_the_slice_definition(
        steps in prop::collection::vec(arb_step(), 1..14),
        extras in prop::collection::vec(prop::collection::vec(stream_constraint(), 0..3), 8..9),
    ) {
        let branches = run_stream(&steps);
        let mut warm = Solver::new();
        for (i, branch) in branches.iter().enumerate() {
            check_index(&branch.pc, &branch.pushed)?;
            let extra = &extras[i % extras.len()];
            let mut query = branch.pushed.clone();
            query.extend(extra.iter().cloned());
            let expected = expected_check(&query);
            prop_assert_eq!(
                expected.is_sat(),
                brute_force_sat_by_parts(&query),
                "verdict of {:?}",
                query
            );
            for solver in [&mut warm, &mut Solver::uncached()] {
                prop_assert_eq!(&solver.check_under(&branch.pc, extra), &expected, "{:?}", query);
                prop_assert_eq!(
                    solver.is_feasible_under(&branch.pc, extra),
                    expected.is_sat(),
                    "verdict-grade {:?}",
                    query
                );
            }
        }
    }
}
