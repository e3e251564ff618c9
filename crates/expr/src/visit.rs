//! Traversal utilities: symbol collection and substitution.

use std::collections::{BTreeSet, HashMap};

use crate::node::{Expr, NodeView};
use crate::SymId;

/// Collects the set of symbols appearing in `e` into `out`.
pub fn collect_syms(e: &Expr, out: &mut BTreeSet<SymId>) {
    match e.node() {
        NodeView::Const { .. } => {}
        NodeView::Sym { id, .. } => {
            out.insert(id);
        }
        NodeView::Not(a) | NodeView::Neg(a) => collect_syms(a, out),
        NodeView::Bin(_, a, b) | NodeView::Cmp(_, a, b) => {
            collect_syms(a, out);
            collect_syms(b, out);
        }
        NodeView::ZExt { e, .. } | NodeView::SExt { e, .. } | NodeView::Extract { e, .. } => {
            collect_syms(e, out)
        }
        NodeView::Concat { hi, lo } => {
            collect_syms(hi, out);
            collect_syms(lo, out);
        }
        NodeView::Ite { cond, then, els } => {
            collect_syms(cond, out);
            collect_syms(then, out);
            collect_syms(els, out);
        }
    }
}

impl Expr {
    /// Returns the set of symbols appearing in this expression.
    pub fn syms(&self) -> BTreeSet<SymId> {
        let mut out = BTreeSet::new();
        collect_syms(self, &mut out);
        out
    }

    /// Returns true if the expression mentions `id`.
    pub fn mentions(&self, id: SymId) -> bool {
        self.syms().contains(&id)
    }
}

/// The route from the root of `e` to the first (leftmost) occurrence of
/// symbol `id`: one human-readable step per expression node traversed.
///
/// This is the trace-store provenance hook (paper §3.6: traces "identify on
/// what symbolic values the condition depended ... why they were created"):
/// a bug artifact records, for every symbol reaching the bug site, the chain
/// of expression nodes through which the raw input value (hardware read,
/// registry parameter, entry argument) flowed into the failing condition.
///
/// Returns `None` if the expression does not mention `id`.
pub fn sym_route(e: &Expr, id: SymId) -> Option<Vec<String>> {
    fn step(label: String, rest: Option<Vec<String>>) -> Option<Vec<String>> {
        rest.map(|mut route| {
            route.insert(0, label);
            route
        })
    }
    match e.node() {
        NodeView::Const { .. } => None,
        NodeView::Sym { id: here, width } => {
            (here == id).then(|| vec![format!("sym {here} ({width} bits)")])
        }
        NodeView::Not(a) => step("not".into(), sym_route(a, id)),
        NodeView::Neg(a) => step("neg".into(), sym_route(a, id)),
        NodeView::Bin(op, a, b) => sym_route(a, id)
            .map(|r| step(format!("{op:?}.lhs").to_lowercase(), Some(r)).unwrap())
            .or_else(|| step(format!("{op:?}.rhs").to_lowercase(), sym_route(b, id))),
        NodeView::Cmp(op, a, b) => sym_route(a, id)
            .map(|r| step(format!("{op:?}.lhs").to_lowercase(), Some(r)).unwrap())
            .or_else(|| step(format!("{op:?}.rhs").to_lowercase(), sym_route(b, id))),
        NodeView::ZExt { e, width } => step(format!("zext{width}"), sym_route(e, id)),
        NodeView::SExt { e, width } => step(format!("sext{width}"), sym_route(e, id)),
        NodeView::Extract { e, hi, lo } => {
            step(format!("extract[{hi}:{lo}]"), sym_route(e, id))
        }
        NodeView::Concat { hi, lo } => step("concat.hi".into(), sym_route(hi, id))
            .or_else(|| step("concat.lo".into(), sym_route(lo, id))),
        NodeView::Ite { cond, then, els } => step("ite.cond".into(), sym_route(cond, id))
            .or_else(|| step("ite.then".into(), sym_route(then, id)))
            .or_else(|| step("ite.else".into(), sym_route(els, id))),
    }
}

/// Substitutes symbols by expressions, rebuilding (and thus re-simplifying)
/// the tree bottom-up.
///
/// Replacement expressions must match the widths of the symbols they
/// replace.
///
/// # Panics
///
/// Panics if a replacement has the wrong width.
pub fn subst(e: &Expr, map: &HashMap<SymId, Expr>) -> Expr {
    match e.node() {
        NodeView::Const { .. } => e.clone(),
        NodeView::Sym { id, width } => match map.get(&id) {
            Some(r) => {
                assert_eq!(r.width(), width, "substitution width mismatch for {id}");
                r.clone()
            }
            None => e.clone(),
        },
        NodeView::Not(a) => subst(a, map).not(),
        NodeView::Neg(a) => subst(a, map).neg(),
        NodeView::Bin(op, a, b) => Expr::bin(op, &subst(a, map), &subst(b, map)),
        NodeView::Cmp(op, a, b) => Expr::cmp(op, &subst(a, map), &subst(b, map)),
        NodeView::ZExt { e, width } => subst(e, map).zext(width),
        NodeView::SExt { e, width } => subst(e, map).sext(width),
        NodeView::Extract { e, hi, lo } => subst(e, map).extract(hi, lo),
        NodeView::Concat { hi, lo } => subst(hi, map).concat(&subst(lo, map)),
        NodeView::Ite { cond, then, els } => {
            Expr::ite(&subst(cond, map), &subst(then, map), &subst(els, map))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assignment;

    #[test]
    fn collects_all_syms() {
        let a = Expr::sym(SymId(1), 32);
        let b = Expr::sym(SymId(2), 32);
        let c = Expr::sym(SymId(3), 1);
        let e = Expr::ite(&c, &a.add(&b), &b);
        let syms = e.syms();
        assert_eq!(syms.len(), 3);
        assert!(syms.contains(&SymId(1)) && syms.contains(&SymId(2)) && syms.contains(&SymId(3)));
    }

    #[test]
    fn subst_replaces_and_simplifies() {
        let a = Expr::sym(SymId(1), 32);
        let b = Expr::sym(SymId(2), 32);
        let e = a.add(&b).ult(&Expr::constant(100, 32));
        let mut map = HashMap::new();
        map.insert(SymId(1), Expr::constant(10, 32));
        map.insert(SymId(2), Expr::constant(20, 32));
        assert!(subst(&e, &map).is_true());
    }

    #[test]
    fn subst_agrees_with_eval() {
        let a = Expr::sym(SymId(1), 32);
        let b = Expr::sym(SymId(2), 32);
        let e = a.mul(&b).xor(&a.lshr(&Expr::constant(3, 32)));
        let mut map = HashMap::new();
        map.insert(SymId(1), Expr::constant(0x1234, 32));
        map.insert(SymId(2), Expr::constant(0x77, 32));
        let mut asg = Assignment::new();
        asg.set(SymId(1), 0x1234);
        asg.set(SymId(2), 0x77);
        assert_eq!(subst(&e, &map).as_const(), Some(e.eval(&asg)));
    }

    #[test]
    fn mentions_checks_membership() {
        let a = Expr::sym(SymId(1), 32);
        let e = a.add(&Expr::constant(1, 32));
        assert!(e.mentions(SymId(1)));
        assert!(!e.mentions(SymId(2)));
    }
}
