//! Concrete evaluation of expressions under symbol assignments.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::node::{BuildSymIdHasher, Expr, NodeView};
use crate::{fold_bin, fold_cmp, mask, sext, SymId};

/// A concrete assignment of values to symbolic variables.
///
/// Produced by the solver as a model of a satisfiable path condition and
/// consumed by the replay engine (concrete values for hardware reads,
/// registry parameters, entry-point arguments). Every evaluation looks
/// symbols up here, so the map hashes with [`crate::SymIdHasher`]; the
/// serialized form lists the pairs sorted by symbol whatever the hasher.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    values: HashMap<SymId, u64, BuildSymIdHasher>,
}

impl Assignment {
    /// Creates an empty assignment (all symbols default to zero on lookup).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of a symbol (masked to the width at evaluation time).
    pub fn set(&mut self, id: SymId, value: u64) {
        self.values.insert(id, value);
    }

    /// Returns the value of a symbol, or `None` if unassigned.
    pub fn get(&self, id: SymId) -> Option<u64> {
        self.values.get(&id).copied()
    }

    /// Returns the value of a symbol, defaulting to zero.
    ///
    /// Unassigned symbols are unconstrained, so zero is as good a model
    /// value as any; the solver always extends its models with this default.
    pub fn get_or_zero(&self, id: SymId) -> u64 {
        self.get(id).unwrap_or(0)
    }

    /// Iterates over the assigned (symbol, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, u64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of assigned symbols.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if no symbols are assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl FromIterator<(SymId, u64)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (SymId, u64)>>(iter: T) -> Self {
        Assignment { values: iter.into_iter().collect() }
    }
}

impl Extend<(SymId, u64)> for Assignment {
    fn extend<T: IntoIterator<Item = (SymId, u64)>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

impl Expr {
    /// Evaluates the expression under `asg`, treating unassigned symbols as
    /// zero. The result is masked to the expression's width.
    pub fn eval(&self, asg: &Assignment) -> u64 {
        match self.node() {
            NodeView::Const { bits, .. } => bits,
            NodeView::Sym { id, width } => mask(asg.get_or_zero(id), width),
            NodeView::Not(e) => mask(!e.eval(asg), e.width()),
            NodeView::Neg(e) => mask(e.eval(asg).wrapping_neg(), e.width()),
            NodeView::Bin(op, a, b) => fold_bin(op, a.eval(asg), b.eval(asg), a.width()),
            NodeView::Cmp(op, a, b) => fold_cmp(op, a.eval(asg), b.eval(asg), a.width()) as u64,
            NodeView::ZExt { e, .. } => e.eval(asg),
            NodeView::SExt { e, width } => mask(sext(e.eval(asg), e.width()) as u64, width),
            NodeView::Extract { e, hi, lo } => mask(e.eval(asg) >> lo, hi - lo + 1),
            NodeView::Concat { hi, lo } => {
                mask((hi.eval(asg) << lo.width()) | lo.eval(asg), self.width())
            }
            NodeView::Ite { cond, then, els } => {
                if cond.eval(asg) != 0 {
                    then.eval(asg)
                } else {
                    els.eval(asg)
                }
            }
        }
    }

    /// Evaluates a 1-bit expression as a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the expression is not 1 bit wide.
    pub fn eval_bool(&self, asg: &Assignment) -> bool {
        assert_eq!(self.width(), 1, "eval_bool needs a boolean");
        self.eval(asg) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic() {
        let x = Expr::sym(SymId(1), 32);
        let e = x.add(&Expr::constant(5, 32)).mul(&Expr::constant(2, 32));
        let mut asg = Assignment::new();
        asg.set(SymId(1), 10);
        assert_eq!(e.eval(&asg), 30);
    }

    #[test]
    fn eval_defaults_to_zero() {
        let x = Expr::sym(SymId(9), 16);
        assert_eq!(x.eval(&Assignment::new()), 0);
    }

    #[test]
    fn eval_masks_oversize_assignment() {
        let x = Expr::sym(SymId(1), 8);
        let mut asg = Assignment::new();
        asg.set(SymId(1), 0x1ff);
        assert_eq!(x.eval(&asg), 0xff);
    }

    #[test]
    fn eval_ite_and_cmp() {
        let x = Expr::sym(SymId(1), 32);
        let cond = x.ult(&Expr::constant(5, 32));
        let e = Expr::ite(&cond, &Expr::constant(1, 32), &Expr::constant(2, 32));
        let mut asg = Assignment::new();
        asg.set(SymId(1), 3);
        assert_eq!(e.eval(&asg), 1);
        asg.set(SymId(1), 7);
        assert_eq!(e.eval(&asg), 2);
    }

    #[test]
    fn eval_extract_concat_roundtrip() {
        let x = Expr::sym(SymId(1), 32);
        let lo = x.extract(15, 0);
        let hi = x.extract(31, 16);
        let rt = hi.concat(&lo);
        let mut asg = Assignment::new();
        asg.set(SymId(1), 0xdead_beef);
        assert_eq!(rt.eval(&asg), 0xdead_beef);
    }

    #[test]
    fn assignment_wire_form_is_sorted_by_symbol() {
        // Ids that differ only in their high bits, inserted in descending
        // order: the map's hasher decides its iteration order, the wire
        // form must not depend on it.
        let asg: Assignment = (0..64u32).rev().map(|i| (SymId(i << 20), i as u64)).collect();
        let wire = asg.to_value();
        let pairs = wire.as_map().expect("struct")[0].1.as_list().expect("pair list").to_vec();
        let ids: Vec<u64> =
            pairs.iter().map(|p| p.as_list().expect("pair")[0].as_u64().expect("id")).collect();
        assert_eq!(ids, (0..64u64).map(|i| i << 20).collect::<Vec<_>>());
        assert_eq!(Assignment::from_value(&wire).expect("round trip"), asg);
    }

    #[test]
    fn eval_signed_ops() {
        let x = Expr::sym(SymId(1), 8);
        let mut asg = Assignment::new();
        asg.set(SymId(1), 0xfe); // -2 as i8.
        assert_eq!(x.sext(32).eval(&asg), 0xffff_fffe);
        assert!(x.slt(&Expr::constant(0, 8)).eval_bool(&asg));
        assert_eq!(x.sdiv(&Expr::constant(2, 8)).eval(&asg), 0xff); // -2/2 = -1.
    }
}
