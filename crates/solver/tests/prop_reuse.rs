//! Property test: a solver that decides one query after another on its one
//! reset-and-refilled SAT core answers exactly as a fresh solver per query
//! does — verdicts, and models bit for bit.
//!
//! The stream mixes widths from 1 to 64 bits. Multiplication, division,
//! remainder and shifts (the operators that blast into the largest
//! circuits) appear at 8 to 32 bits, where division's double-width
//! relation still fits the 64-bit expression layer. About a third of the
//! sets are made unsatisfiable by adding the negation of one of their
//! constraints.

use ddt_expr::{BinOp, CmpOp, Expr, SymId};
use ddt_solver::Solver;
use proptest::prelude::*;

const WIDTHS: [u32; 8] = [1, 5, 8, 13, 16, 24, 32, 64];

const ARITH: [BinOp; 5] = [BinOp::Mul, BinOp::UDiv, BinOp::URem, BinOp::SDiv, BinOp::SRem];
const SHIFTS: [BinOp; 3] = [BinOp::Shl, BinOp::LShr, BinOp::AShr];

fn one_of(ops: &[BinOp]) -> BoxedStrategy<BinOp> {
    proptest::strategy::Union::new(ops.iter().map(|&op| Just(op).boxed()).collect()).boxed()
}

/// Random `w`-bit terms over three symbols of that width. A symbol has one
/// width in every query: its id encodes the width.
///
/// At 8 bits every operator nests freely. At 16 to 32 bits, multiplication,
/// division and remainder take a symbol or constant and a constant, since a
/// product of two wide symbolic terms is a factoring problem that can keep
/// CDCL busy for minutes.
fn arb_term(w: u32, depth: u32) -> BoxedStrategy<Expr> {
    let constant = any::<u64>().prop_map(move |v| Expr::constant(v, w)).boxed();
    let symbol = (0u32..3).prop_map(move |k| Expr::sym(SymId(w * 4 + k), w)).boxed();
    let leaf = prop_oneof![constant.clone(), symbol.clone()];
    leaf.prop_recursive(depth, 16, 2, move |inner| {
        let light = one_of(&[BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Or, BinOp::Xor]);
        let mut arms = vec![(light, inner.clone(), inner.clone()).boxed()];
        if w == 8 {
            arms.push((one_of(&ARITH), inner.clone(), inner.clone()).boxed());
        } else if (16..=32).contains(&w) {
            let operand = prop_oneof![constant.clone(), symbol.clone()];
            arms.push((one_of(&ARITH), operand, constant.clone()).boxed());
        }
        if (8..=32).contains(&w) {
            arms.push((one_of(&SHIFTS), inner.clone(), inner).boxed());
        }
        proptest::strategy::Union::new(arms).prop_map(|(op, a, b)| Expr::bin(op, &a, &b))
    })
    .boxed()
}

fn arb_constraint_at(w: u32) -> BoxedStrategy<Expr> {
    (
        arb_term(w, 2),
        arb_term(w, 2),
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
    proptest::strategy::Union::new(WIDTHS.iter().map(|&w| arb_constraint_at(w)).collect())
        .boxed()
}

/// One query: 1–4 constraints, sometimes contradicted on purpose.
fn arb_set() -> BoxedStrategy<Vec<Expr>> {
    (prop::collection::vec(arb_constraint(), 1..5), 0u32..3)
        .prop_map(|(mut cs, pick)| {
            if pick == 0 {
                let negated = cs[cs.len() / 2].lnot();
                cs.push(negated);
            }
            cs
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_reused_solver_answers_like_a_fresh_one(stream in prop::collection::vec(arb_set(), 2..7)) {
        let mut reused = Solver::uncached();
        for set in &stream {
            let fresh = Solver::uncached().check(set);
            prop_assert_eq!(reused.check(set), fresh, "query {:?}", set);
        }
    }
}
