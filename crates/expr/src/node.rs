//! Expression node definitions and simplifying smart constructors.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ptr::NonNull;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{mask, sext, MAX_WIDTH};

/// Identifier of a symbolic variable.
///
/// The meaning of a symbol (its provenance: hardware read, registry value,
/// entry-point argument, ...) is kept out-of-band in the symbol table of the
/// execution state; the expression layer only tracks the id and width.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SymId(pub u32);

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Passes an [`Expr`]'s precomputed structural hash through unchanged.
///
/// That hash is already a SipHash digest (computed once, at intern time),
/// so hashing it again would only repeat the work. A key that writes more
/// than one word, or bytes, gets them rotated and XOR-ed in.
#[derive(Clone, Copy, Default)]
pub struct ExprHasher(u64);

impl Hasher for ExprHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(5) ^ n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for maps and sets keyed by [`Expr`].
pub type BuildExprHasher = BuildHasherDefault<ExprHasher>;

/// Binary bitvector operators (operands and result share a width).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    UDiv,
    URem,
    SDiv,
    SRem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
}

/// Comparison operators (operands share a width, result is 1 bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Ult,
    Ule,
    Slt,
    Sle,
}

/// The node of a bitvector expression tree.
///
/// The derived [`Ord`] is a total structural order (variant tag, then
/// fields, recursively). It carries no semantic meaning; its single purpose
/// is giving constraint sets a canonical element order for cache keys (see
/// [`crate::cache_key`]), so it must stay consistent with `Eq` and `Hash`.
///
/// Because child `Expr`s are hash-consed or inline (see [`Expr`]), the
/// derived `PartialEq`/`Hash` here are *shallow*: children compare by word
/// and hash by their structural digest. Under the interning invariant
/// (every live non-inline `Expr` is interned) shallow equality coincides
/// with deep structural equality.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ExprNode {
    /// A constant with `width` significant bits (stored masked).
    Const { bits: u64, width: u32 },
    /// A symbolic variable.
    Sym { id: SymId, width: u32 },
    /// Bitwise negation.
    Not(Expr),
    /// Two's-complement negation.
    Neg(Expr),
    /// Binary operator.
    Bin(BinOp, Expr, Expr),
    /// Comparison; result width is 1.
    Cmp(CmpOp, Expr, Expr),
    /// Zero extension to `width` bits.
    ZExt { e: Expr, width: u32 },
    /// Sign extension to `width` bits.
    SExt { e: Expr, width: u32 },
    /// Bit slice `[hi:lo]` (inclusive); result width is `hi - lo + 1`.
    Extract { e: Expr, hi: u32, lo: u32 },
    /// Concatenation; `hi` occupies the upper bits.
    Concat { hi: Expr, lo: Expr },
    /// If-then-else on a 1-bit condition.
    Ite { cond: Expr, then: Expr, els: Expr },
}

/// A borrowed view of an [`Expr`]'s node: what [`Expr::node`] returns.
///
/// It mirrors [`ExprNode`] variant for variant and field for field, with
/// children borrowed instead of owned, because an inline constant (see
/// [`Expr`]) has no stored node to lend. The derived `Ord` and `Hash` are
/// therefore those of `ExprNode`: same variant order, same field order, and
/// a borrowed child hashes and compares as the child itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeView<'a> {
    /// A constant with `width` significant bits.
    Const { bits: u64, width: u32 },
    /// A symbolic variable.
    Sym { id: SymId, width: u32 },
    /// Bitwise negation.
    Not(&'a Expr),
    /// Two's-complement negation.
    Neg(&'a Expr),
    /// Binary operator.
    Bin(BinOp, &'a Expr, &'a Expr),
    /// Comparison; result width is 1.
    Cmp(CmpOp, &'a Expr, &'a Expr),
    /// Zero extension to `width` bits.
    ZExt { e: &'a Expr, width: u32 },
    /// Sign extension to `width` bits.
    SExt { e: &'a Expr, width: u32 },
    /// Bit slice `[hi:lo]` (inclusive).
    Extract { e: &'a Expr, hi: u32, lo: u32 },
    /// Concatenation; `hi` occupies the upper bits.
    Concat { hi: &'a Expr, lo: &'a Expr },
    /// If-then-else on a 1-bit condition.
    Ite { cond: &'a Expr, then: &'a Expr, els: &'a Expr },
}

impl<'a> NodeView<'a> {
    fn of(node: &'a ExprNode) -> NodeView<'a> {
        match node {
            ExprNode::Const { bits, width } => NodeView::Const { bits: *bits, width: *width },
            ExprNode::Sym { id, width } => NodeView::Sym { id: *id, width: *width },
            ExprNode::Not(e) => NodeView::Not(e),
            ExprNode::Neg(e) => NodeView::Neg(e),
            ExprNode::Bin(op, a, b) => NodeView::Bin(*op, a, b),
            ExprNode::Cmp(op, a, b) => NodeView::Cmp(*op, a, b),
            ExprNode::ZExt { e, width } => NodeView::ZExt { e, width: *width },
            ExprNode::SExt { e, width } => NodeView::SExt { e, width: *width },
            ExprNode::Extract { e, hi, lo } => NodeView::Extract { e, hi: *hi, lo: *lo },
            ExprNode::Concat { hi, lo } => NodeView::Concat { hi, lo },
            ExprNode::Ite { cond, then, els } => NodeView::Ite { cond, then, els },
        }
    }

    /// The owned node this view reads (children are cloned handles).
    pub fn to_node(self) -> ExprNode {
        match self {
            NodeView::Const { bits, width } => ExprNode::Const { bits, width },
            NodeView::Sym { id, width } => ExprNode::Sym { id, width },
            NodeView::Not(e) => ExprNode::Not(e.clone()),
            NodeView::Neg(e) => ExprNode::Neg(e.clone()),
            NodeView::Bin(op, a, b) => ExprNode::Bin(op, a.clone(), b.clone()),
            NodeView::Cmp(op, a, b) => ExprNode::Cmp(op, a.clone(), b.clone()),
            NodeView::ZExt { e, width } => ExprNode::ZExt { e: e.clone(), width },
            NodeView::SExt { e, width } => ExprNode::SExt { e: e.clone(), width },
            NodeView::Extract { e, hi, lo } => ExprNode::Extract { e: e.clone(), hi, lo },
            NodeView::Concat { hi, lo } => ExprNode::Concat { hi: hi.clone(), lo: lo.clone() },
            NodeView::Ite { cond, then, els } => {
                ExprNode::Ite { cond: cond.clone(), then: then.clone(), els: els.clone() }
            }
        }
    }
}

/// The interned payload behind a non-inline [`Expr`]: the node plus its
/// precomputed structural hash and width, filled in once at intern time so
/// that `Expr::hash` and `Expr::width` are O(1) forever after.
pub(crate) struct Interned {
    pub(crate) hash: u64,
    pub(crate) width: u32,
    pub(crate) node: ExprNode,
}

/// Widest constant an [`Expr`] carries inline rather than interned.
const INLINE_MAX_WIDTH: u32 = 32;

/// Low bit of an inline constant's word; an `Arc<Interned>` pointer is
/// 8-aligned, so its low bit is always clear.
const INLINE_TAG: usize = 1;

#[cfg(not(target_pointer_width = "64"))]
compile_error!("Expr packs a 32-bit constant and its width into one 64-bit word");

/// An immutable, cheaply clonable bitvector expression, one machine word.
///
/// Constructed through the associated smart constructors, which constant-fold
/// and simplify eagerly so that fully concrete computations never allocate
/// deep trees.
///
/// The word is one of two things:
///
/// - **an inline constant**: a constant of at most 32 bits is the word
///   `bits << 32 | width << 1 | 1`. Building, cloning, comparing and
///   dropping it touches no allocation, no interner and no shared counter;
///   the symbolic VM's mostly concrete values are all of this kind.
/// - **an interned node**: every other node (including constants wider
///   than 32 bits) is a strong count of an `Arc` the interner hands out
///   (see [`crate::intern`]), so identical subtrees share one allocation.
///
/// Each constant has exactly one form, so `==` is a word comparison in both
/// cases. `Hash` writes the structural digest an interned node stores, which
/// for an inline constant is computed on demand and equals the digest of
/// its `ExprNode::Const`. The structural [`Ord`] keeps its deep total order
/// (with a word fast path at every level): constants order by `(bits,
/// width)` before every other node whatever their form, so canonical cache
/// keys stay a pure function of structure.
pub struct Expr(NonNull<Interned>);

// SAFETY: an `Expr` is either plain data (an inline constant) or one strong
// count of an `Arc<Interned>`; `Interned` holds only `Send + Sync` data, so
// sharing or sending the handle is as safe as for that `Arc`.
unsafe impl Send for Expr {}
// SAFETY: see the `Send` impl above.
unsafe impl Sync for Expr {}

impl Expr {
    /// The inline word for a constant, when it has one: `width` at most
    /// [`INLINE_MAX_WIDTH`] and `bits` fitting in 32 bits. Other constants
    /// (wide ones, or unmasked ones a codec reproduces verbatim) intern.
    #[inline]
    fn inline(bits: u64, width: u32) -> Option<Expr> {
        if width > INLINE_MAX_WIDTH || bits > u32::MAX as u64 {
            return None;
        }
        let word = (bits as usize) << 32 | (width as usize) << 1 | INLINE_TAG;
        // The tag bit makes the word non-zero; an address without
        // provenance is never dereferenced (see `repr`).
        NonNull::new(std::ptr::without_provenance_mut(word)).map(Expr)
    }

    #[inline]
    fn word(&self) -> usize {
        self.0.as_ptr().addr()
    }

    /// What the word holds.
    #[inline]
    fn repr(&self) -> Repr<'_> {
        let w = self.word();
        if w & INLINE_TAG != 0 {
            return Repr::Inline { bits: (w >> 32) as u64, width: (w >> 1) as u32 & 0x3f };
        }
        // SAFETY: an untagged word is the pointer `Arc::into_raw` returned
        // in `from_interned`, and this handle owns one strong count of that
        // `Arc`, so the payload lives at least as long as `&self`.
        Repr::Interned(unsafe { self.0.as_ref() })
    }

    /// Takes over one strong count of an interned payload (interner
    /// internal).
    #[inline]
    pub(crate) fn from_interned(arc: Arc<Interned>) -> Self {
        let ptr = Arc::into_raw(arc).cast_mut();
        debug_assert_eq!(ptr.addr() & INLINE_TAG, 0, "Interned is 8-aligned");
        Expr(NonNull::new(ptr).expect("Arc pointers are non-null"))
    }
}

/// The two kinds of [`Expr`] word, decoded.
enum Repr<'a> {
    Inline { bits: u64, width: u32 },
    Interned(&'a Interned),
}

impl Clone for Expr {
    #[inline]
    fn clone(&self) -> Self {
        if self.word() & INLINE_TAG == 0 {
            // SAFETY: an untagged word came from `Arc::into_raw` and this
            // handle keeps that `Arc` alive; the new handle owns the count
            // added here.
            unsafe { Arc::increment_strong_count(self.0.as_ptr().cast_const()) };
        }
        Expr(self.0)
    }
}

impl Drop for Expr {
    #[inline]
    fn drop(&mut self) {
        if self.word() & INLINE_TAG == 0 {
            // SAFETY: an untagged word came from `Arc::into_raw`, and this
            // handle owns exactly one strong count, released here once.
            unsafe { Arc::decrement_strong_count(self.0.as_ptr().cast_const()) };
        }
    }
}

impl PartialEq for Expr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Interning makes structural equality and pointer equality coincide,
        // and an inline constant's word is its value.
        self.0 == other.0
    }
}

impl Eq for Expr {}

impl std::hash::Hash for Expr {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.structural_hash());
    }
}

impl PartialOrd for Expr {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Expr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        // Deep structural order; recursion re-enters this fast path at
        // every shared subtree.
        self.node().cmp(&other.node())
    }
}

impl Serialize for Expr {
    fn to_value(&self) -> serde::Value {
        // Same wire shape as the historical derived newtype impl: the node.
        match self.repr() {
            Repr::Interned(i) => i.node.to_value(),
            Repr::Inline { bits, width } => ExprNode::Const { bits, width }.to_value(),
        }
    }
}

impl Deserialize for Expr {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        // Re-intern on the way in so the process-wide invariant (every live
        // non-inline Expr is interned) survives deserialization.
        ExprNode::from_value(v).map(Expr::from_node)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Expr {
    fn new(node: ExprNode) -> Self {
        if let ExprNode::Const { bits, width } = node {
            if let Some(e) = Expr::inline(bits, width) {
                return e;
            }
        }
        crate::intern::intern(node)
    }

    /// Allocates the interned payload for a node, computing its width from
    /// the (already interned, hence O(1)-width) children.
    pub(crate) fn alloc_interned(hash: u64, node: ExprNode) -> Arc<Interned> {
        let width = match &node {
            ExprNode::Const { width, .. } | ExprNode::Sym { width, .. } => *width,
            ExprNode::Not(e) | ExprNode::Neg(e) => e.width(),
            ExprNode::Bin(_, a, _) => a.width(),
            ExprNode::Cmp(..) => 1,
            ExprNode::ZExt { width, .. } | ExprNode::SExt { width, .. } => *width,
            ExprNode::Extract { hi, lo, .. } => hi - lo + 1,
            ExprNode::Concat { hi, lo } => hi.width() + lo.width(),
            ExprNode::Ite { then, .. } => then.width(),
        };
        Arc::new(Interned { hash, width, node })
    }

    /// True when both handles are the same word: the same interned
    /// allocation, or the same inline constant. Under the interning
    /// invariant this is equivalent to `==`; it is exposed for tests and
    /// diagnostics that want to assert the sharing itself.
    #[inline]
    pub fn ptr_eq(a: &Expr, b: &Expr) -> bool {
        a.0 == b.0
    }

    /// The structural digest: the one stored at intern time, or for an
    /// inline constant the digest its `ExprNode::Const` would store.
    #[inline]
    fn structural_hash(&self) -> u64 {
        match self.repr() {
            Repr::Interned(i) => i.hash,
            Repr::Inline { bits, width } => {
                crate::intern::shallow_hash(&ExprNode::Const { bits, width })
            }
        }
    }

    /// Returns a view of the underlying node.
    #[inline]
    pub fn node(&self) -> NodeView<'_> {
        match self.repr() {
            Repr::Interned(i) => NodeView::of(&i.node),
            Repr::Inline { bits, width } => NodeView::Const { bits, width },
        }
    }

    /// Wraps a node verbatim, without smart-constructor simplification.
    ///
    /// For codecs (binary trace encoding, serde) that must reproduce an
    /// expression tree *exactly* as stored: rebuilding through the smart
    /// constructors could rewrite the tree. A non-constant node is still
    /// interned, so decoded trees share allocations with live ones. The
    /// caller is responsible for the width invariants the constructors
    /// normally enforce.
    pub fn from_node(node: ExprNode) -> Expr {
        Expr::new(node)
    }

    /// Builds a constant of the given width; the value is masked.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn constant(bits: u64, width: u32) -> Self {
        Expr::new(ExprNode::Const { bits: mask(bits, width), width })
    }

    /// Builds the 1-bit constant `true`.
    pub fn true_() -> Self {
        Expr::constant(1, 1)
    }

    /// Builds the 1-bit constant `false`.
    pub fn false_() -> Self {
        Expr::constant(0, 1)
    }

    /// Builds a symbolic variable.
    pub fn sym(id: SymId, width: u32) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "bad width {width}");
        Expr::new(ExprNode::Sym { id, width })
    }

    /// Returns the width in bits of this expression (precomputed at intern
    /// time; O(1) even for deep trees).
    #[inline]
    pub fn width(&self) -> u32 {
        match self.repr() {
            Repr::Interned(i) => i.width,
            Repr::Inline { width, .. } => width,
        }
    }

    /// Returns the constant value if this expression is a constant.
    #[inline]
    pub fn as_const(&self) -> Option<u64> {
        match self.repr() {
            Repr::Interned(Interned { node: ExprNode::Const { bits, .. }, .. }) => Some(*bits),
            Repr::Interned(_) => None,
            Repr::Inline { bits, .. } => Some(bits),
        }
    }

    /// Returns true if this expression is fully concrete (a constant).
    #[inline]
    pub fn is_const(&self) -> bool {
        self.as_const().is_some()
    }

    /// Returns true if this is the 1-bit constant `true`.
    pub fn is_true(&self) -> bool {
        self.as_const() == Some(1) && self.width() == 1
    }

    /// Returns true if this is the 1-bit constant `false`.
    pub fn is_false(&self) -> bool {
        self.as_const() == Some(0) && self.width() == 1
    }

    fn assert_same_width(&self, other: &Expr) {
        assert_eq!(
            self.width(),
            other.width(),
            "width mismatch: {} vs {} ({self} vs {other})",
            self.width(),
            other.width()
        );
    }

    /// Builds a binary operation with constant folding and identities.
    pub fn bin(op: BinOp, a: &Expr, b: &Expr) -> Expr {
        a.assert_same_width(b);
        let w = a.width();
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            return Expr::constant(fold_bin(op, x, y, w), w);
        }
        // Algebraic identities. `b` constant is the common case after
        // canonicalization of commutative operators below.
        let (a, b) = if op_commutes(op) && a.is_const() { (b, a) } else { (a, b) };
        if let Some(c) = b.as_const() {
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor if c == 0 => return a.clone(),
                BinOp::Shl | BinOp::LShr | BinOp::AShr if c == 0 => return a.clone(),
                BinOp::And if c == 0 => return Expr::constant(0, w),
                BinOp::And if c == mask(u64::MAX, w) => return a.clone(),
                BinOp::Or if c == mask(u64::MAX, w) => return Expr::constant(c, w),
                BinOp::Mul if c == 0 => return Expr::constant(0, w),
                BinOp::Mul if c == 1 => return a.clone(),
                BinOp::UDiv if c == 1 => return a.clone(),
                BinOp::Shl | BinOp::LShr if c >= w as u64 => return Expr::constant(0, w),
                _ => {}
            }
        }
        if a == b {
            match op {
                BinOp::Sub | BinOp::Xor => return Expr::constant(0, w),
                BinOp::And | BinOp::Or => return a.clone(),
                _ => {}
            }
        }
        // Reassociate (x + c1) + c2 => x + (c1+c2); same for Sub folded into Add.
        if let (NodeView::Bin(BinOp::Add, x, c1), Some(c2)) = (a.node(), b.as_const()) {
            if op == BinOp::Add {
                if let Some(c1v) = c1.as_const() {
                    return Expr::bin(BinOp::Add, x, &Expr::constant(c1v.wrapping_add(c2), w));
                }
            }
        }
        Expr::new(ExprNode::Bin(op, a.clone(), b.clone()))
    }

    /// Builds a comparison with constant folding.
    pub fn cmp(op: CmpOp, a: &Expr, b: &Expr) -> Expr {
        a.assert_same_width(b);
        let w = a.width();
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            return Expr::constant(fold_cmp(op, x, y, w) as u64, 1);
        }
        if a == b {
            return match op {
                CmpOp::Eq | CmpOp::Ule | CmpOp::Sle => Expr::true_(),
                CmpOp::Ne | CmpOp::Ult | CmpOp::Slt => Expr::false_(),
            };
        }
        Expr::new(ExprNode::Cmp(op, a.clone(), b.clone()))
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Expr {
        match self.node() {
            NodeView::Const { bits, width } => Expr::constant(!bits, width),
            NodeView::Not(inner) => inner.clone(),
            _ => Expr::new(ExprNode::Not(self.clone())),
        }
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> Expr {
        match self.node() {
            NodeView::Const { bits, width } => Expr::constant(bits.wrapping_neg(), width),
            NodeView::Neg(inner) => inner.clone(),
            _ => Expr::new(ExprNode::Neg(self.clone())),
        }
    }

    /// Logical NOT of a 1-bit expression.
    ///
    /// # Panics
    ///
    /// Panics if the expression is not 1 bit wide.
    pub fn lnot(&self) -> Expr {
        assert_eq!(self.width(), 1, "lnot needs a boolean");
        // For 1-bit values logical and bitwise negation coincide; also flip
        // comparisons directly so path constraints stay in negation-normal
        // form, which helps the solver's preprocessing.
        if let NodeView::Cmp(op, a, b) = self.node() {
            let flipped = match op {
                CmpOp::Eq => CmpOp::Ne,
                CmpOp::Ne => CmpOp::Eq,
                CmpOp::Ult => return Expr::cmp(CmpOp::Ule, b, a),
                CmpOp::Ule => return Expr::cmp(CmpOp::Ult, b, a),
                CmpOp::Slt => return Expr::cmp(CmpOp::Sle, b, a),
                CmpOp::Sle => return Expr::cmp(CmpOp::Slt, b, a),
            };
            return Expr::cmp(flipped, a, b);
        }
        self.not()
    }

    /// Zero-extends to `width` bits (no-op if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the current width.
    pub fn zext(&self, width: u32) -> Expr {
        let cur = self.width();
        assert!(width >= cur && width <= MAX_WIDTH, "bad zext {cur} -> {width}");
        if width == cur {
            return self.clone();
        }
        match self.node() {
            NodeView::Const { bits, .. } => Expr::constant(bits, width),
            NodeView::ZExt { e, .. } => e.zext(width),
            _ => Expr::new(ExprNode::ZExt { e: self.clone(), width }),
        }
    }

    /// Sign-extends to `width` bits (no-op if already that width).
    pub fn sext(&self, width: u32) -> Expr {
        let cur = self.width();
        assert!(width >= cur && width <= MAX_WIDTH, "bad sext {cur} -> {width}");
        if width == cur {
            return self.clone();
        }
        match self.node() {
            NodeView::Const { bits, width: w } => Expr::constant(sext(bits, w) as u64, width),
            _ => Expr::new(ExprNode::SExt { e: self.clone(), width }),
        }
    }

    /// Extracts bits `[hi:lo]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is out of range.
    pub fn extract(&self, hi: u32, lo: u32) -> Expr {
        let w = self.width();
        assert!(hi >= lo && hi < w, "bad extract [{hi}:{lo}] of width {w}");
        if lo == 0 && hi == w - 1 {
            return self.clone();
        }
        let out_w = hi - lo + 1;
        match self.node() {
            NodeView::Const { bits, .. } => Expr::constant(bits >> lo, out_w),
            // Extract of extract composes.
            NodeView::Extract { e, lo: lo2, .. } => e.extract(hi + lo2, lo + lo2),
            // Extract entirely within one side of a concat.
            NodeView::Concat { hi: h, lo: l } => {
                let lw = l.width();
                if hi < lw {
                    l.extract(hi, lo)
                } else if lo >= lw {
                    h.extract(hi - lw, lo - lw)
                } else {
                    Expr::new(ExprNode::Extract { e: self.clone(), hi, lo })
                }
            }
            // Extract of zext: inside original, or pure zero bits.
            NodeView::ZExt { e, .. } => {
                let iw = e.width();
                if hi < iw {
                    e.extract(hi, lo)
                } else if lo >= iw {
                    Expr::constant(0, out_w)
                } else if lo == 0 {
                    e.zext(out_w)
                } else {
                    Expr::new(ExprNode::Extract { e: self.clone(), hi, lo })
                }
            }
            _ => Expr::new(ExprNode::Extract { e: self.clone(), hi, lo }),
        }
    }

    /// Concatenates `self` (upper bits) with `lo` (lower bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    pub fn concat(&self, lo: &Expr) -> Expr {
        let w = self.width() + lo.width();
        assert!(w <= MAX_WIDTH, "concat too wide: {w}");
        if let (Some(h), Some(l)) = (self.as_const(), lo.as_const()) {
            return Expr::constant((h << lo.width()) | l, w);
        }
        // Concat of adjacent extracts of the same source merges.
        if let (
            NodeView::Extract { e: e1, hi: h1, lo: l1 },
            NodeView::Extract { e: e2, hi: h2, lo: l2 },
        ) = (self.node(), lo.node())
        {
            if e1 == e2 && l1 == h2 + 1 {
                return e1.extract(h1, l2);
            }
        }
        // Zero upper bits => zext.
        if self.as_const() == Some(0) {
            return lo.zext(w);
        }
        Expr::new(ExprNode::Concat { hi: self.clone(), lo: lo.clone() })
    }

    /// If-then-else on a 1-bit condition.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not 1 bit or the arms differ in width.
    pub fn ite(cond: &Expr, then: &Expr, els: &Expr) -> Expr {
        assert_eq!(cond.width(), 1, "ite condition must be boolean");
        then.assert_same_width(els);
        if cond.is_true() {
            return then.clone();
        }
        if cond.is_false() {
            return els.clone();
        }
        if then == els {
            return then.clone();
        }
        // Boolean-result ITE with constant arms collapses to the condition.
        if then.width() == 1 {
            if then.is_true() && els.is_false() {
                return cond.clone();
            }
            if then.is_false() && els.is_true() {
                return cond.lnot();
            }
        }
        Expr::new(ExprNode::Ite { cond: cond.clone(), then: then.clone(), els: els.clone() })
    }

    // Convenience wrappers (all width-preserving binary ops).

    /// Wrapping addition.
    pub fn add(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::Add, self, o)
    }
    /// Wrapping subtraction.
    pub fn sub(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, o)
    }
    /// Wrapping multiplication.
    pub fn mul(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, o)
    }
    /// Unsigned division (division by zero yields all-ones, as in SMT-LIB).
    pub fn udiv(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::UDiv, self, o)
    }
    /// Unsigned remainder (remainder by zero yields the dividend).
    pub fn urem(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::URem, self, o)
    }
    /// Signed division.
    pub fn sdiv(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::SDiv, self, o)
    }
    /// Signed remainder.
    pub fn srem(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::SRem, self, o)
    }
    /// Bitwise AND.
    pub fn and(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::And, self, o)
    }
    /// Bitwise OR.
    pub fn or(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::Or, self, o)
    }
    /// Bitwise XOR.
    pub fn xor(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::Xor, self, o)
    }
    /// Logical shift left (shift amounts >= width yield 0).
    pub fn shl(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::Shl, self, o)
    }
    /// Logical shift right.
    pub fn lshr(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::LShr, self, o)
    }
    /// Arithmetic shift right.
    pub fn ashr(&self, o: &Expr) -> Expr {
        Expr::bin(BinOp::AShr, self, o)
    }
    /// Equality.
    pub fn eq(&self, o: &Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, self, o)
    }
    /// Inequality.
    pub fn ne(&self, o: &Expr) -> Expr {
        Expr::cmp(CmpOp::Ne, self, o)
    }
    /// Unsigned less-than.
    pub fn ult(&self, o: &Expr) -> Expr {
        Expr::cmp(CmpOp::Ult, self, o)
    }
    /// Unsigned less-or-equal.
    pub fn ule(&self, o: &Expr) -> Expr {
        Expr::cmp(CmpOp::Ule, self, o)
    }
    /// Signed less-than.
    pub fn slt(&self, o: &Expr) -> Expr {
        Expr::cmp(CmpOp::Slt, self, o)
    }
    /// Signed less-or-equal.
    pub fn sle(&self, o: &Expr) -> Expr {
        Expr::cmp(CmpOp::Sle, self, o)
    }

    /// Returns the number of nodes in the tree (diagnostics, size caps).
    pub fn size(&self) -> usize {
        match self.node() {
            NodeView::Const { .. } | NodeView::Sym { .. } => 1,
            NodeView::Not(e) | NodeView::Neg(e) => 1 + e.size(),
            NodeView::Bin(_, a, b) | NodeView::Cmp(_, a, b) => 1 + a.size() + b.size(),
            NodeView::ZExt { e, .. } | NodeView::SExt { e, .. } | NodeView::Extract { e, .. } => {
                1 + e.size()
            }
            NodeView::Concat { hi, lo } => 1 + hi.size() + lo.size(),
            NodeView::Ite { cond, then, els } => 1 + cond.size() + then.size() + els.size(),
        }
    }
}

fn op_commutes(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
}

/// Concrete semantics of a binary operator at the given width.
// The explicit zero checks implement SMT-LIB division semantics (x/0 is
// all-ones, x%0 is x), which `checked_div` cannot express directly.
#[allow(clippy::manual_checked_ops)]
pub fn fold_bin(op: BinOp, a: u64, b: u64, w: u32) -> u64 {
    let a = mask(a, w);
    let b = mask(b, w);
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::UDiv => {
            if b == 0 {
                u64::MAX
            } else {
                a / b
            }
        }
        BinOp::URem => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        BinOp::SDiv => {
            let (sa, sb) = (sext(a, w), sext(b, w));
            if sb == 0 {
                u64::MAX
            } else {
                sa.wrapping_div(sb) as u64
            }
        }
        BinOp::SRem => {
            let (sa, sb) = (sext(a, w), sext(b, w));
            if sb == 0 {
                a
            } else {
                sa.wrapping_rem(sb) as u64
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= w as u64 {
                0
            } else {
                a << b
            }
        }
        BinOp::LShr => {
            if b >= w as u64 {
                0
            } else {
                a >> b
            }
        }
        BinOp::AShr => {
            let sa = sext(a, w);
            let sh = b.min(w as u64 - 1);
            (sa >> sh) as u64
        }
    };
    mask(r, w)
}

/// Concrete semantics of a comparison operator at the given width.
pub fn fold_cmp(op: CmpOp, a: u64, b: u64, w: u32) -> bool {
    let (ua, ub) = (mask(a, w), mask(b, w));
    match op {
        CmpOp::Eq => ua == ub,
        CmpOp::Ne => ua != ub,
        CmpOp::Ult => ua < ub,
        CmpOp::Ule => ua <= ub,
        CmpOp::Slt => sext(a, w) < sext(b, w),
        CmpOp::Sle => sext(a, w) <= sext(b, w),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            NodeView::Const { bits, width } => write!(f, "{bits:#x}:{width}"),
            NodeView::Sym { id, width } => write!(f, "{id}:{width}"),
            NodeView::Not(e) => write!(f, "~{e}"),
            NodeView::Neg(e) => write!(f, "-{e}"),
            NodeView::Bin(op, a, b) => write!(f, "({a} {} {b})", bin_sym(op)),
            NodeView::Cmp(op, a, b) => write!(f, "({a} {} {b})", cmp_sym(op)),
            NodeView::ZExt { e, width } => write!(f, "zext({e}, {width})"),
            NodeView::SExt { e, width } => write!(f, "sext({e}, {width})"),
            NodeView::Extract { e, hi, lo } => write!(f, "{e}[{hi}:{lo}]"),
            NodeView::Concat { hi, lo } => write!(f, "({hi} ++ {lo})"),
            NodeView::Ite { cond, then, els } => write!(f, "ite({cond}, {then}, {els})"),
        }
    }
}

fn bin_sym(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::UDiv => "/u",
        BinOp::URem => "%u",
        BinOp::SDiv => "/s",
        BinOp::SRem => "%s",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::LShr => ">>u",
        BinOp::AShr => ">>s",
    }
}

fn cmp_sym(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Ult => "<u",
        CmpOp::Ule => "<=u",
        CmpOp::Slt => "<s",
        CmpOp::Sle => "<=s",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u64) -> Expr {
        Expr::constant(v, 32)
    }

    fn s(id: u32) -> Expr {
        Expr::sym(SymId(id), 32)
    }

    #[test]
    fn constants_fold() {
        assert_eq!(c(2).add(&c(3)).as_const(), Some(5));
        assert_eq!(c(2).sub(&c(3)).as_const(), Some(0xffff_ffff));
        assert_eq!(c(7).and(&c(5)).as_const(), Some(5));
        assert_eq!(c(10).udiv(&c(0)).as_const(), Some(0xffff_ffff));
        assert_eq!(c(10).urem(&c(0)).as_const(), Some(10));
    }

    #[test]
    fn identities_simplify() {
        let x = s(1);
        assert_eq!(x.add(&c(0)), x);
        assert_eq!(x.mul(&c(1)), x);
        assert_eq!(x.mul(&c(0)).as_const(), Some(0));
        assert_eq!(x.and(&c(0)).as_const(), Some(0));
        assert_eq!(x.xor(&x).as_const(), Some(0));
        assert_eq!(x.sub(&x).as_const(), Some(0));
        assert_eq!(x.or(&x), x);
        assert_eq!(c(0).add(&x), x, "commutative canonicalization");
    }

    #[test]
    fn reassociation_folds_chained_adds() {
        let x = s(1);
        let e = x.add(&c(3)).add(&c(4));
        match e.node() {
            NodeView::Bin(BinOp::Add, a, b) => {
                assert_eq!(a, &x);
                assert_eq!(b.as_const(), Some(7));
            }
            other => panic!("expected add, got {other:?}"),
        }
    }

    #[test]
    fn comparisons_fold() {
        assert!(c(1).ult(&c(2)).is_true());
        assert!(c(2).ult(&c(1)).is_false());
        assert!(c(0xffff_ffff).slt(&c(0)).is_true(), "-1 <s 0");
        let x = s(1);
        assert!(x.eq(&x).is_true());
        assert!(x.ne(&x).is_false());
    }

    #[test]
    fn lnot_flips_comparison() {
        let x = s(1);
        let lt = x.ult(&c(5));
        let not_lt = lt.lnot();
        // !(x <u 5)  ==  5 <=u x
        match not_lt.node() {
            NodeView::Cmp(CmpOp::Ule, a, _) => assert_eq!(a.as_const(), Some(5)),
            other => panic!("expected flipped cmp, got {other:?}"),
        }
    }

    #[test]
    fn extract_of_concat_simplifies() {
        let hi = Expr::sym(SymId(1), 8);
        let lo = Expr::sym(SymId(2), 8);
        let cc = hi.concat(&lo);
        assert_eq!(cc.width(), 16);
        assert_eq!(cc.extract(7, 0), lo);
        assert_eq!(cc.extract(15, 8), hi);
    }

    #[test]
    fn extract_of_zext_simplifies() {
        let x = Expr::sym(SymId(1), 8);
        let z = x.zext(32);
        assert_eq!(z.extract(7, 0), x);
        assert_eq!(z.extract(31, 8).as_const(), Some(0));
    }

    #[test]
    fn adjacent_extracts_merge() {
        let x = s(1);
        let lo = x.extract(7, 0);
        let hi = x.extract(15, 8);
        assert_eq!(hi.concat(&lo), x.extract(15, 0));
    }

    #[test]
    fn ite_simplifies() {
        let x = s(1);
        let y = s(2);
        let cond = x.ult(&y);
        assert_eq!(Expr::ite(&Expr::true_(), &x, &y), x);
        assert_eq!(Expr::ite(&Expr::false_(), &x, &y), y);
        assert_eq!(Expr::ite(&cond, &x, &x), x);
        assert_eq!(Expr::ite(&cond, &Expr::true_(), &Expr::false_()), cond);
    }

    #[test]
    fn double_not_cancels() {
        let x = s(1);
        assert_eq!(x.not().not(), x);
        assert_eq!(x.neg().neg(), x);
    }

    #[test]
    fn shift_semantics() {
        assert_eq!(c(1).shl(&c(33)).as_const(), Some(0), "oversize shl is 0");
        assert_eq!(c(0x8000_0000).ashr(&c(31)).as_const(), Some(0xffff_ffff));
        assert_eq!(c(0x8000_0000).lshr(&c(31)).as_const(), Some(1));
    }

    #[test]
    fn width_mismatch_panics() {
        let a = Expr::sym(SymId(1), 8);
        let b = Expr::sym(SymId(2), 16);
        let r = std::panic::catch_unwind(|| a.add(&b));
        assert!(r.is_err());
    }

    #[test]
    fn an_expr_is_one_word() {
        assert_eq!(std::mem::size_of::<Expr>(), 8);
        assert_eq!(std::mem::size_of::<Option<Expr>>(), 8);
    }

    #[test]
    fn narrow_constants_are_inline_and_wide_ones_interned() {
        for width in 1..=32 {
            let e = Expr::constant(u64::MAX, width);
            assert!(matches!(e.repr(), Repr::Inline { .. }), "width {width}");
            assert_eq!((e.as_const(), e.width()), (Some(mask(u64::MAX, width)), width));
        }
        for width in 33..=64 {
            let e = Expr::constant(u64::MAX, width);
            assert!(matches!(e.repr(), Repr::Interned(_)), "width {width}");
            assert_eq!((e.as_const(), e.width()), (Some(mask(u64::MAX, width)), width));
            assert_eq!(e, Expr::constant(u64::MAX, width), "wide constants hash-cons");
        }
        // An unmasked constant a codec reproduces verbatim keeps its bits.
        let raw = Expr::from_node(ExprNode::Const { bits: 0x1_0000_00ff, width: 8 });
        assert_eq!(raw.as_const(), Some(0x1_0000_00ff));
        assert_ne!(raw, Expr::constant(0xff, 8));
    }

    #[test]
    fn constants_of_every_width_round_trip_through_serde() {
        for width in 1..=64u32 {
            for bits in [0, 1, u64::MAX, 0x8000_0000, 0x1234_5678_9abc_def0] {
                let e = Expr::constant(bits, width);
                let wire = e.to_value();
                let node = ExprNode::Const { bits: mask(bits, width), width };
                assert_eq!(wire, node.to_value(), "the wire shape is the node's");
                assert_eq!(Expr::from_value(&wire).expect("decodes"), e, "width {width}");
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let x = s(1);
        let e = x.add(&c(5)).ult(&c(10));
        assert_eq!(format!("{e}"), "((s1:32 + 0x5:32) <u 0xa:32)");
    }
}
