//! In-crate property tests for the expression layer: algebraic identities
//! that the smart constructors must respect for every operand shape.

#![cfg(test)]

use proptest::prelude::*;

use crate::{Assignment, Expr, ExprHasher, SymId};

fn arb_width() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1u32), Just(8), Just(16), Just(32), Just(64)]
}

/// Deterministically builds a small 32-bit expression from a seed — a
/// compact generator for structural (Ord/Hash/cache-key) properties, where
/// the value distribution matters less than cheap structural diversity.
fn arb_small_expr(seed: u32) -> Expr {
    let x = Expr::sym(SymId(0), 32);
    let y = Expr::sym(SymId(1), 32);
    let leaf = match seed % 4 {
        0 => x.clone(),
        1 => y.clone(),
        2 => Expr::constant((seed >> 2) as u64, 32),
        _ => x.add(&Expr::constant((seed >> 2) as u64 & 0xff, 32)),
    };
    match (seed >> 8) % 6 {
        0 => leaf,
        1 => leaf.mul(&y),
        2 => leaf.xor(&x).not(),
        3 => leaf.lshr(&Expr::constant((seed >> 11) as u64 % 32, 32)),
        4 => leaf.sub(&y).and(&Expr::constant(0xffff, 32)),
        _ => leaf.or(&y.shl(&Expr::constant(1, 32))),
    }
}

/// An expression for the representation properties: a constant of any
/// width 1–64 (so both the inline and the interned form), or a non-constant
/// node over such constants. Few symbols and small constants make equal
/// pairs common.
fn arb_mixed(kind: u8, width: u32, bits: u64, sym: u32) -> Expr {
    let c = |v: u64| Expr::constant(v, width);
    let x = Expr::sym(SymId(sym % 3), width);
    match kind % 7 {
        0 => c(bits),
        1 => c(bits % 4),
        2 => c(bits >> (bits % 64)),
        3 => x,
        4 => x.add(&c(bits % 4)),
        5 => x.ult(&c(bits)),
        _ => Expr::ite(&x.eq(&c(bits % 2)), &c(bits), &c(!bits)),
    }
}

/// The parent representation's digest of `e`: the shallow hash of its
/// owned node, which for a constant involves no `Expr` at all.
fn reference_hash(e: &Expr) -> u64 {
    crate::intern::shallow_hash(&e.node().to_node())
}

/// The digest `e` writes into a hasher.
fn written_hash(e: &Expr) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = ExprHasher::default();
    e.hash(&mut h);
    h.finish()
}

/// Deterministically builds a small boolean constraint from a seed.
fn arb_small_constraint(seed: u32) -> Expr {
    let a = arb_small_expr(seed);
    let b = arb_small_expr(seed.rotate_left(13) ^ 0x9e37);
    match (seed >> 16) % 4 {
        0 => a.eq(&b),
        1 => a.ne(&b),
        2 => a.ult(&b),
        _ => a.sle(&b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Constants are always folded: operations on two constants yield a
    /// constant node.
    #[test]
    fn constants_always_fold(a in any::<u64>(), b in any::<u64>(), w in arb_width()) {
        let ea = Expr::constant(a, w);
        let eb = Expr::constant(b, w);
        for e in [
            ea.add(&eb), ea.sub(&eb), ea.mul(&eb), ea.and(&eb), ea.or(&eb),
            ea.xor(&eb), ea.shl(&eb), ea.lshr(&eb), ea.ashr(&eb),
            ea.udiv(&eb), ea.urem(&eb), ea.sdiv(&eb), ea.srem(&eb),
        ] {
            prop_assert!(e.is_const(), "{e} not folded");
            prop_assert_eq!(e.width(), w);
        }
        for c in [ea.eq(&eb), ea.ne(&eb), ea.ult(&eb), ea.slt(&eb)] {
            prop_assert!(c.is_const());
            prop_assert_eq!(c.width(), 1);
        }
    }

    /// Evaluation respects the algebraic laws the simplifier exploits.
    #[test]
    fn algebraic_laws_hold_under_eval(x in any::<u64>(), y in any::<u64>(), w in arb_width()) {
        let sx = Expr::sym(SymId(0), w);
        let sy = Expr::sym(SymId(1), w);
        let mut asg = Assignment::new();
        asg.set(SymId(0), x);
        asg.set(SymId(1), y);
        // Commutativity.
        prop_assert_eq!(sx.add(&sy).eval(&asg), sy.add(&sx).eval(&asg));
        prop_assert_eq!(sx.mul(&sy).eval(&asg), sy.mul(&sx).eval(&asg));
        prop_assert_eq!(sx.xor(&sy).eval(&asg), sy.xor(&sx).eval(&asg));
        // Involution and inverses.
        prop_assert_eq!(sx.not().not().eval(&asg), sx.eval(&asg));
        prop_assert_eq!(sx.neg().neg().eval(&asg), sx.eval(&asg));
        prop_assert_eq!(sx.sub(&sy).add(&sy).eval(&asg), sx.eval(&asg));
        // De Morgan.
        prop_assert_eq!(
            sx.and(&sy).not().eval(&asg),
            sx.not().or(&sy.not()).eval(&asg)
        );
    }

    /// Zero/sign extension then extraction is the identity.
    #[test]
    fn extend_extract_roundtrip(x in any::<u64>(), w in prop_oneof![Just(8u32), Just(16), Just(32)]) {
        let sx = Expr::sym(SymId(0), w);
        let mut asg = Assignment::new();
        asg.set(SymId(0), x);
        let z = sx.zext(64).extract(w - 1, 0);
        prop_assert_eq!(z.eval(&asg), sx.eval(&asg));
        let s = sx.sext(64).extract(w - 1, 0);
        prop_assert_eq!(s.eval(&asg), sx.eval(&asg));
    }

    /// Byte-splitting and re-concatenation is the identity (the memory
    /// model depends on this).
    #[test]
    fn byte_split_concat_roundtrip(x in any::<u64>()) {
        let sx = Expr::sym(SymId(0), 32);
        let mut asg = Assignment::new();
        asg.set(SymId(0), x);
        let b0 = sx.extract(7, 0);
        let b1 = sx.extract(15, 8);
        let b2 = sx.extract(23, 16);
        let b3 = sx.extract(31, 24);
        let rt = b3.concat(&b2).concat(&b1).concat(&b0);
        prop_assert_eq!(rt.eval(&asg), sx.eval(&asg));
        // And the simplifier recovers the original expression exactly.
        prop_assert_eq!(rt, sx);
    }

    /// `lnot` is semantic negation for every comparison shape.
    #[test]
    fn lnot_is_negation(x in any::<u64>(), y in any::<u64>()) {
        let sx = Expr::sym(SymId(0), 32);
        let sy = Expr::sym(SymId(1), 32);
        let mut asg = Assignment::new();
        asg.set(SymId(0), x);
        asg.set(SymId(1), y);
        for c in [sx.eq(&sy), sx.ne(&sy), sx.ult(&sy), sx.ule(&sy), sx.slt(&sy), sx.sle(&sy)] {
            prop_assert_eq!(c.lnot().eval_bool(&asg), !c.eval_bool(&asg));
        }
    }

    /// The structural order is a total order consistent with `Eq`, and
    /// hashing is consistent with both — the invariants the solver's cache
    /// keys stand on.
    #[test]
    fn ord_hash_eq_are_consistent(seed_a in any::<u32>(), seed_b in any::<u32>()) {
        use std::cmp::Ordering;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = arb_small_expr(seed_a);
        let b = arb_small_expr(seed_b);
        let hash = |e: &Expr| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        match a.cmp(&b) {
            Ordering::Equal => {
                prop_assert_eq!(&a, &b, "Ord-equal exprs must be Eq-equal");
                prop_assert_eq!(hash(&a), hash(&b), "equal exprs must hash equal");
            }
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
        prop_assert_eq!(a.cmp(&a), Ordering::Equal, "Ord must be reflexive");
    }

    /// `cache_key` canonicalization is order-insensitive: every rotation of
    /// a constraint list (with a duplicate thrown in) produces the same key.
    #[test]
    fn cache_key_is_order_insensitive(seeds in prop::collection::vec(any::<u32>(), 1..6), rot in any::<usize>()) {
        let cs: Vec<Expr> = seeds.iter().map(|&s| arb_small_constraint(s)).collect();
        let base = crate::cache_key(&cs);
        let mut rotated = cs.clone();
        rotated.rotate_left(rot % cs.len().max(1));
        rotated.push(cs[rot % cs.len()].clone()); // Duplicate one element.
        prop_assert_eq!(crate::cache_key(&rotated), base);
    }

    /// `cache_key` is collision-free on structurally distinct expressions:
    /// unequal singleton constraints get unequal keys, and a key always
    /// round-trips the set it was built from.
    #[test]
    fn cache_key_is_collision_free(seed_a in any::<u32>(), seed_b in any::<u32>()) {
        let a = arb_small_constraint(seed_a);
        let b = arb_small_constraint(seed_b);
        let ka = crate::cache_key(std::slice::from_ref(&a));
        let kb = crate::cache_key(std::slice::from_ref(&b));
        if a == b {
            prop_assert_eq!(&ka, &kb);
        } else {
            prop_assert!(ka != kb, "distinct constraints {} vs {} collided", a, b);
        }
        // The key preserves the member expressions exactly (no lossy hashing).
        prop_assert!(ka.contains(&a));
        let kab = crate::cache_key(&[a.clone(), b.clone()]);
        prop_assert!(kab.contains(&a) && kab.contains(&b));
        // Subset reasoning primitives agree with set semantics.
        prop_assert!(crate::is_subset_sorted(&ka, &kab));
        prop_assert_eq!(crate::subset_signature(&ka) & !crate::subset_signature(&kab), 0);
    }

    /// Substitution commutes with evaluation.
    #[test]
    fn subst_commutes_with_eval(x in any::<u64>(), y in any::<u64>()) {
        let sx = Expr::sym(SymId(0), 32);
        let sy = Expr::sym(SymId(1), 32);
        let e = sx.mul(&sy).add(&sx.lshr(&Expr::constant(5, 32))).xor(&sy.not());
        let mut asg = Assignment::new();
        asg.set(SymId(0), x);
        asg.set(SymId(1), y);
        let mut map = std::collections::HashMap::new();
        map.insert(SymId(0), Expr::constant(x, 32));
        map.insert(SymId(1), Expr::constant(y, 32));
        prop_assert_eq!(crate::subst(&e, &map).as_const(), Some(e.eval(&asg)));
    }

    /// Whatever form a constant takes (inline up to 32 bits, interned
    /// above), `==`, `cmp` and `hash` agree with the structural reference:
    /// equality and order of the owned `ExprNode`s, and the shallow hash
    /// every interned node stored before constants went inline.
    #[test]
    fn eq_ord_hash_match_the_structural_reference(
        a in (any::<u8>(), 1u32..=64, any::<u64>(), any::<u32>()),
        b in (any::<u8>(), 1u32..=64, any::<u64>(), any::<u32>()),
        same_width in any::<bool>(),
    ) {
        let x = arb_mixed(a.0, a.1, a.2, a.3);
        let y = arb_mixed(b.0, if same_width { a.1 } else { b.1 }, b.2, b.3);
        let (nx, ny) = (x.node().to_node(), y.node().to_node());
        prop_assert_eq!(x == y, nx == ny, "{} vs {}", x, y);
        prop_assert_eq!(x.cmp(&y), nx.cmp(&ny), "{} vs {}", x, y);
        prop_assert_eq!(written_hash(&x), reference_hash(&x), "{}", x);
        prop_assert_eq!(written_hash(&y), reference_hash(&y), "{}", y);
        if let (Some(bx), Some(by)) = (x.as_const(), y.as_const()) {
            // Constants order by (bits, width), whatever their form.
            prop_assert_eq!(x.cmp(&y), (bx, x.width()).cmp(&(by, y.width())));
        } else if x.is_const() != y.is_const() {
            // ...and before every other node.
            prop_assert_eq!(x.cmp(&y).is_lt(), x.is_const());
        }
        // A codec's verbatim rebuild is the same expression.
        prop_assert_eq!(Expr::from_node(nx), x);
    }
}
