//! Symbolic bitvector expressions for the DDT symbolic execution engine.
//!
//! This crate is the expression layer of the Klee-equivalent substrate used
//! by DDT (see DESIGN.md §4.2). It provides:
//!
//! - [`Expr`]: an immutable bitvector expression tree with widths of 1–64
//!   bits, one machine word per handle: constants of up to 32 bits are
//!   carried inline, every other node is hash-consed into one shared,
//!   reference-counted allocation (see [`NodeView`] for reading a node),
//! - smart constructors that aggressively constant-fold and apply algebraic
//!   simplifications at build time,
//! - [`Expr::eval`]: evaluation under a concrete [`Assignment`] of symbols,
//! - symbol collection and substitution utilities used by the solver and the
//!   trace analyzer.
//!
//! Widths are tracked dynamically: every expression knows its width in bits,
//! and mixed-width operands are a construction error (callers extend or
//! extract explicitly, as the symbolic interpreter does for sub-word loads).
//!
//! # Examples
//!
//! ```
//! use ddt_expr::{Expr, SymId};
//!
//! let a = Expr::sym(SymId(0), 32);
//! let e = a.add(&Expr::constant(5, 32)).ult(&Expr::constant(10, 32));
//! assert_eq!(e.width(), 1);
//! ```

mod canon;
mod eval;
mod intern;
mod node;
mod prop_tests;
mod visit;

pub use canon::{cache_key, is_subset_sorted, partition_independent, subset_signature};
pub use intern::intern_stats;
pub use eval::Assignment;
pub use node::{
    fold_bin, //
    fold_cmp,
    BinOp,
    BuildExprHasher,
    CmpOp,
    Expr,
    ExprHasher,
    ExprNode,
    NodeView,
    SymId,
};
pub use visit::{collect_syms, subst, sym_route};

/// Maximum supported bitvector width.
pub const MAX_WIDTH: u32 = 64;

/// Masks `v` to the low `width` bits.
///
/// # Panics
///
/// Panics if `width` is zero or greater than [`MAX_WIDTH`].
#[inline]
pub fn mask(v: u64, width: u32) -> u64 {
    assert!((1..=MAX_WIDTH).contains(&width), "bad width {width}");
    if width == 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// Sign-extends the low `width` bits of `v` to an `i64`.
#[inline]
pub fn sext(v: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((mask(v, width) << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_truncates() {
        assert_eq!(mask(0x1ff, 8), 0xff);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
        assert_eq!(mask(0b101, 1), 1);
    }

    #[test]
    fn sext_extends_sign() {
        assert_eq!(sext(0xff, 8), -1);
        assert_eq!(sext(0x7f, 8), 127);
        assert_eq!(sext(0x8000_0000, 32), i32::MIN as i64);
        assert_eq!(sext(1, 1), -1);
    }

    #[test]
    #[should_panic(expected = "bad width")]
    fn mask_rejects_zero_width() {
        mask(0, 0);
    }
}
