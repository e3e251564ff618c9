//! Tseitin bit-blasting of bitvector expressions to CNF.
//!
//! Each [`Expr`] is lowered to a run of SAT literals, least-significant
//! bit first. Gate outputs are fresh variables constrained by Tseitin
//! clauses. Lowered expressions are cached so shared subtrees blast once.
//!
//! Every lowered literal lives in one pool, and a node's lowering is a
//! [`Bits`] span of it, so no node allocates or clones a vector of its
//! own. The node cache is keyed with [`BuildExprHasher`], which reuses an
//! `Expr`'s precomputed hash. [`Blaster::reset`] empties the pool and both
//! maps but keeps their memory for the next instance.

use std::collections::HashMap;
use std::ops::Range;

use ddt_expr::{
    BinOp, //
    BuildExprHasher,
    BuildSymIdHasher,
    CmpOp,
    Expr,
    NodeView,
    SymId,
};

use crate::sat::{Lit, SatSolver};

/// A lowered bitvector: `len` literals of the pool starting at `start`,
/// least-significant bit first. The pool only grows within an instance,
/// so a span stays valid until [`Blaster::reset`].
#[derive(Clone, Copy, Debug)]
struct Bits {
    start: u32,
    len: u32,
}

impl Bits {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// The pool index of bit `i`.
    fn at(self, i: usize) -> usize {
        self.start as usize + i
    }
}

/// Bit-blasting context over a [`SatSolver`].
pub struct Blaster {
    /// The literal that is constantly true (unit-clause-asserted variable).
    true_lit: Lit,
    /// Every lowered literal; each [`Bits`] names a run of it.
    pool: Vec<Lit>,
    /// Bits allocated per symbolic variable.
    sym_bits: HashMap<SymId, Bits, BuildSymIdHasher>,
    /// Structural cache of lowered expressions.
    cache: HashMap<Expr, Bits, BuildExprHasher>,
}

impl Blaster {
    /// Creates a blaster, allocating the constant-true variable in `sat`.
    pub fn new(sat: &mut SatSolver) -> Blaster {
        Blaster {
            true_lit: Self::assert_constant_true(sat),
            pool: Vec::new(),
            sym_bits: HashMap::default(),
            cache: HashMap::default(),
        }
    }

    /// Resets `sat` and this blaster to the state of a fresh
    /// `SatSolver::new()` and `Blaster::new`, keeping all of their memory.
    pub fn reset(&mut self, sat: &mut SatSolver) {
        sat.reset();
        self.pool.clear();
        self.sym_bits.clear();
        self.cache.clear();
        self.true_lit = Self::assert_constant_true(sat);
    }

    fn assert_constant_true(sat: &mut SatSolver) -> Lit {
        let t = Lit::pos(sat.new_var());
        sat.add_clause(&[t]);
        t
    }

    /// The constant-true literal.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The constant-false literal.
    pub fn false_lit(&self) -> Lit {
        self.true_lit.negate()
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit()
        } else {
            self.false_lit()
        }
    }

    /// Bit `i` of `b`.
    fn lit(&self, b: Bits, i: usize) -> Lit {
        self.pool[b.at(i)]
    }

    /// The span of everything pushed to the pool since it held `start`
    /// literals.
    fn since(&self, start: usize) -> Bits {
        Bits { start: start as u32, len: (self.pool.len() - start) as u32 }
    }

    /// Returns (allocating on first use) the bits of symbol `id`.
    fn sym_bits_of(&mut self, sat: &mut SatSolver, id: SymId, width: u32) -> Bits {
        if let Some(&bits) = self.sym_bits.get(&id) {
            assert_eq!(bits.len, width, "symbol {id} used at two widths");
            return bits;
        }
        let bits = self.fresh_bits(sat, width);
        self.sym_bits.insert(id, bits);
        bits
    }

    fn fresh_bits(&mut self, sat: &mut SatSolver, width: u32) -> Bits {
        let start = self.pool.len();
        for _ in 0..width {
            self.pool.push(Lit::pos(sat.new_var()));
        }
        self.since(start)
    }

    /// Returns the model value of symbol `id` after a Sat outcome, or `None`
    /// if the symbol never appeared in any blasted constraint.
    pub fn sym_model(&self, sat: &SatSolver, id: SymId) -> Option<u64> {
        let bits = *self.sym_bits.get(&id)?;
        let mut v = 0u64;
        for (i, l) in self.pool[bits.range()].iter().enumerate() {
            let bit = sat.value(l.var()).unwrap_or(false);
            if bit == l.is_pos() {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    /// Asserts that the 1-bit expression `e` is true.
    pub fn assert_true(&mut self, sat: &mut SatSolver, e: &Expr) {
        assert_eq!(e.width(), 1, "can only assert booleans");
        let bits = self.lower(sat, e);
        sat.add_clause(&[self.lit(bits, 0)]);
    }

    /// Lowers `e` to its bits (LSB first), with caching.
    fn lower(&mut self, sat: &mut SatSolver, e: &Expr) -> Bits {
        if let Some(&bits) = self.cache.get(e) {
            return bits;
        }
        let bits = self.lower_uncached(sat, e);
        debug_assert_eq!(bits.len, e.width());
        self.cache.insert(e.clone(), bits);
        bits
    }

    fn lower_uncached(&mut self, sat: &mut SatSolver, e: &Expr) -> Bits {
        match e.node() {
            NodeView::Const { bits, width } => self.constant(bits, width),
            NodeView::Sym { id, width } => self.sym_bits_of(sat, id, width),
            NodeView::Not(a) => {
                let x = self.lower(sat, a);
                self.negated(x)
            }
            NodeView::Neg(a) => {
                // -x = ~x + 1.
                let x = self.lower(sat, a);
                let nx = self.negated(x);
                let one = self.constant(1, a.width());
                self.adder(sat, nx, one, self.false_lit()).0
            }
            NodeView::Bin(op, a, b) => {
                let w = a.width();
                let x = self.lower(sat, a);
                let y = self.lower(sat, b);
                match op {
                    BinOp::Add => self.adder(sat, x, y, self.false_lit()).0,
                    BinOp::Sub => {
                        let ny = self.negated(y);
                        self.adder(sat, x, ny, self.true_lit()).0
                    }
                    BinOp::Mul => self.multiplier(sat, x, y),
                    BinOp::And => self.zipmap(sat, x, y, GateKind::And),
                    BinOp::Or => self.zipmap(sat, x, y, GateKind::Or),
                    BinOp::Xor => self.zipmap(sat, x, y, GateKind::Xor),
                    BinOp::Shl => self.shifter(sat, x, y, ShiftKind::Left),
                    BinOp::LShr => self.shifter(sat, x, y, ShiftKind::LogicalRight),
                    BinOp::AShr => self.shifter(sat, x, y, ShiftKind::ArithRight),
                    BinOp::UDiv | BinOp::URem | BinOp::SDiv | BinOp::SRem => {
                        self.division(sat, op, a, b, w)
                    }
                }
            }
            NodeView::Cmp(op, a, b) => {
                let x = self.lower(sat, a);
                let y = self.lower(sat, b);
                let r = match op {
                    CmpOp::Eq => self.equality(sat, x, y),
                    CmpOp::Ne => self.equality(sat, x, y).negate(),
                    CmpOp::Ult => self.less_than(sat, x, y, false, true),
                    CmpOp::Ule => self.less_than(sat, x, y, false, false),
                    CmpOp::Slt => self.less_than(sat, x, y, true, true),
                    CmpOp::Sle => self.less_than(sat, x, y, true, false),
                };
                let start = self.pool.len();
                self.pool.push(r);
                self.since(start)
            }
            NodeView::ZExt { e, width } => {
                let x = self.lower(sat, e);
                self.extended(x, width, self.false_lit())
            }
            NodeView::SExt { e, width } => {
                let x = self.lower(sat, e);
                let sign = self.lit(x, x.len as usize - 1);
                self.extended(x, width, sign)
            }
            NodeView::Extract { e, hi, lo } => {
                // A slice of the operand's span: nothing to copy.
                let x = self.lower(sat, e);
                Bits { start: x.start + lo, len: hi - lo + 1 }
            }
            NodeView::Concat { hi, lo } => {
                let l = self.lower(sat, lo);
                let h = self.lower(sat, hi);
                let start = self.pool.len();
                self.pool.extend_from_within(l.range());
                self.pool.extend_from_within(h.range());
                self.since(start)
            }
            NodeView::Ite { cond, then, els } => {
                let c = self.lower(sat, cond);
                let c = self.lit(c, 0);
                let t = self.lower(sat, then);
                let f = self.lower(sat, els);
                let start = self.pool.len();
                for i in 0..t.len as usize {
                    let m = self.mux(sat, c, self.lit(t, i), self.lit(f, i));
                    self.pool.push(m);
                }
                self.since(start)
            }
        }
    }

    // ---- spans without gates ---------------------------------------------

    /// The `width` low bits of the constant `value`.
    fn constant(&mut self, value: u64, width: u32) -> Bits {
        let start = self.pool.len();
        for i in 0..width {
            self.pool.push(self.const_lit((value >> i) & 1 == 1));
        }
        self.since(start)
    }

    fn negated(&mut self, x: Bits) -> Bits {
        let start = self.pool.len();
        for i in 0..x.len as usize {
            self.pool.push(self.lit(x, i).negate());
        }
        self.since(start)
    }

    /// `x` resized to `width` bits, padding with `fill`.
    fn extended(&mut self, x: Bits, width: u32, fill: Lit) -> Bits {
        let start = self.pool.len();
        self.pool.extend_from_within(x.range());
        self.pool.resize(start + width as usize, fill);
        self.since(start)
    }

    // ---- gate primitives -------------------------------------------------

    fn gate(&mut self, sat: &mut SatSolver, kind: GateKind, a: Lit, b: Lit) -> Lit {
        // Constant propagation keeps the CNF small.
        let (t, f) = (self.true_lit(), self.false_lit());
        match kind {
            GateKind::And => {
                if a == f || b == f {
                    return f;
                }
                if a == t {
                    return b;
                }
                if b == t {
                    return a;
                }
                if a == b {
                    return a;
                }
                if a == b.negate() {
                    return f;
                }
            }
            GateKind::Or => {
                if a == t || b == t {
                    return t;
                }
                if a == f {
                    return b;
                }
                if b == f {
                    return a;
                }
                if a == b {
                    return a;
                }
                if a == b.negate() {
                    return t;
                }
            }
            GateKind::Xor => {
                if a == f {
                    return b;
                }
                if b == f {
                    return a;
                }
                if a == t {
                    return b.negate();
                }
                if b == t {
                    return a.negate();
                }
                if a == b {
                    return f;
                }
                if a == b.negate() {
                    return t;
                }
            }
        }
        let o = Lit::pos(sat.new_var());
        match kind {
            GateKind::And => {
                sat.add_clause(&[o.negate(), a]);
                sat.add_clause(&[o.negate(), b]);
                sat.add_clause(&[o, a.negate(), b.negate()]);
            }
            GateKind::Or => {
                sat.add_clause(&[o, a.negate()]);
                sat.add_clause(&[o, b.negate()]);
                sat.add_clause(&[o.negate(), a, b]);
            }
            GateKind::Xor => {
                sat.add_clause(&[o.negate(), a, b]);
                sat.add_clause(&[o.negate(), a.negate(), b.negate()]);
                sat.add_clause(&[o, a.negate(), b]);
                sat.add_clause(&[o, a, b.negate()]);
            }
        }
        o
    }

    fn and(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        self.gate(sat, GateKind::And, a, b)
    }

    fn or(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        self.gate(sat, GateKind::Or, a, b)
    }

    fn xor(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        self.gate(sat, GateKind::Xor, a, b)
    }

    /// 2:1 multiplexer: `c ? t : f`.
    fn mux(&mut self, sat: &mut SatSolver, c: Lit, t: Lit, f: Lit) -> Lit {
        if t == f {
            return t;
        }
        if c == self.true_lit() {
            return t;
        }
        if c == self.false_lit() {
            return f;
        }
        let a = self.and(sat, c, t);
        let b = self.and(sat, c.negate(), f);
        self.or(sat, a, b)
    }

    fn zipmap(&mut self, sat: &mut SatSolver, x: Bits, y: Bits, kind: GateKind) -> Bits {
        let start = self.pool.len();
        for i in 0..x.len as usize {
            let o = self.gate(sat, kind, self.lit(x, i), self.lit(y, i));
            self.pool.push(o);
        }
        self.since(start)
    }

    /// Ripple-carry adder; returns (sum bits, carry-out).
    fn adder(&mut self, sat: &mut SatSolver, x: Bits, y: Bits, cin: Lit) -> (Bits, Lit) {
        let start = self.pool.len();
        let mut carry = cin;
        for i in 0..x.len as usize {
            let (a, b) = (self.lit(x, i), self.lit(y, i));
            let axb = self.xor(sat, a, b);
            let sum = self.xor(sat, axb, carry);
            self.pool.push(sum);
            // carry_out = (a & b) | (carry & (a ^ b)).
            let ab = self.and(sat, a, b);
            let ca = self.and(sat, carry, axb);
            carry = self.or(sat, ab, ca);
        }
        (self.since(start), carry)
    }

    /// Shift-and-add multiplier (modulo 2^w).
    fn multiplier(&mut self, sat: &mut SatSolver, x: Bits, y: Bits) -> Bits {
        let w = x.len as usize;
        let mut acc = self.constant(0, x.len);
        for i in 0..w {
            // Partial product: (y[i] ? x : 0) << i, truncated to w bits.
            let pp = self.constant(0, x.len);
            for j in 0..(w - i) {
                let bit = self.and(sat, self.lit(y, i), self.lit(x, j));
                self.pool[pp.at(i + j)] = bit;
            }
            acc = self.adder(sat, acc, pp, self.false_lit()).0;
        }
        acc
    }

    /// Barrel shifter with our ISA semantics (amount >= w yields 0 for
    /// logical shifts, sign-fill saturation for arithmetic right shift).
    fn shifter(&mut self, sat: &mut SatSolver, x: Bits, y: Bits, kind: ShiftKind) -> Bits {
        let w = x.len as usize;
        let stages = (usize::BITS - (w - 1).leading_zeros()) as usize; // ceil(log2 w).
        let fill = match kind {
            ShiftKind::ArithRight => self.lit(x, w - 1),
            _ => self.false_lit(),
        };
        let mut cur = x;
        for s in 0..stages {
            let amt = 1usize << s;
            let ctrl = self.lit(y, s);
            let start = self.pool.len();
            for i in 0..w {
                let shifted = match kind {
                    ShiftKind::Left => {
                        if i >= amt {
                            self.lit(cur, i - amt)
                        } else {
                            self.false_lit()
                        }
                    }
                    ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                        if i + amt < w {
                            self.lit(cur, i + amt)
                        } else {
                            fill
                        }
                    }
                };
                let bit = self.mux(sat, ctrl, shifted, self.lit(cur, i));
                self.pool.push(bit);
            }
            cur = self.since(start);
        }
        // If any shift-amount bit above the used stages is set, or the used
        // bits encode >= w, the result is all-fill (0 or sign).
        let mut oversize = self.false_lit();
        for i in stages..y.len as usize {
            oversize = self.or(sat, oversize, self.lit(y, i));
        }
        // Amounts in [w, 2^stages) via the low bits also overshoot.
        if !w.is_power_of_two() {
            // low_bits >= w check: compare y[0..stages] with constant w.
            let wconst = self.constant(w as u64, stages as u32);
            let low = Bits { start: y.start, len: stages as u32 };
            let lt = self.less_than(sat, low, wconst, false, true);
            oversize = self.or(sat, oversize, lt.negate());
        }
        let start = self.pool.len();
        for i in 0..w {
            let bit = self.mux(sat, oversize, fill, self.lit(cur, i));
            self.pool.push(bit);
        }
        self.since(start)
    }

    /// Equality over bit vectors.
    fn equality(&mut self, sat: &mut SatSolver, x: Bits, y: Bits) -> Lit {
        let mut acc = self.true_lit();
        for i in 0..x.len as usize {
            let diff = self.xor(sat, self.lit(x, i), self.lit(y, i));
            acc = self.and(sat, acc, diff.negate());
        }
        acc
    }

    /// Comparison: x < y (strict) or x <= y.
    fn less_than(
        &mut self,
        sat: &mut SatSolver,
        x: Bits,
        y: Bits,
        signed: bool,
        strict: bool,
    ) -> Lit {
        let w = x.len as usize;
        // Lexicographic from MSB down: lt = (xi < yi) | (xi == yi) & lt_rest.
        // For the sign bit under signed comparison the polarity flips
        // (1 means negative, so x_sign=1,y_sign=0 => x < y).
        let mut acc = if strict { self.false_lit() } else { self.true_lit() };
        for i in 0..w {
            let (a, b) = (self.lit(x, i), self.lit(y, i));
            let (a, b) = if signed && i == w - 1 { (b, a) } else { (a, b) };
            // bit_lt = !a & b.
            let bit_lt = self.and(sat, a.negate(), b);
            let bit_eq = self.xor(sat, a, b).negate();
            let keep = self.and(sat, bit_eq, acc);
            acc = self.or(sat, bit_lt, keep);
        }
        acc
    }

    /// Division and remainder via the multiplication relation at double
    /// width: `a = b*q + r`, `r < b` when `b != 0`; SMT-LIB semantics when
    /// `b == 0` (udiv → all-ones, urem → a). Signed variants are built from
    /// the unsigned ones on magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if the operand width exceeds 32 bits (the relation is encoded
    /// at `2w` bits, which must fit in the 64-bit expression layer).
    fn division(&mut self, sat: &mut SatSolver, op: BinOp, a: &Expr, b: &Expr, w: u32) -> Bits {
        assert!(w <= 32, "division blasting supports widths up to 32 bits");
        match op {
            BinOp::UDiv | BinOp::URem => {
                let (q, r) = self.udivrem(sat, a, b, w);
                if op == BinOp::UDiv {
                    self.lower(sat, &q)
                } else {
                    self.lower(sat, &r)
                }
            }
            BinOp::SDiv | BinOp::SRem => {
                // |a| and |b| via ite on sign bits.
                let zero = Expr::constant(0, w);
                let a_neg = a.slt(&zero);
                let b_neg = b.slt(&zero);
                let abs_a = Expr::ite(&a_neg, &a.neg(), a);
                let abs_b = Expr::ite(&b_neg, &b.neg(), b);
                let (q, r) = self.udivrem(sat, &abs_a, &abs_b, w);
                match op {
                    BinOp::SDiv => {
                        // Result negative iff signs differ (and b != 0).
                        let diff = a_neg.xor(&b_neg);
                        let signed_q = Expr::ite(&diff, &q.neg(), &q);
                        // Division by zero: all-ones per our semantics.
                        let b_zero = b.eq(&zero);
                        let out =
                            Expr::ite(&b_zero, &Expr::constant(u64::MAX, w), &signed_q);
                        self.lower(sat, &out)
                    }
                    BinOp::SRem => {
                        // Remainder takes the dividend's sign.
                        let signed_r = Expr::ite(&a_neg, &r.neg(), &r);
                        let b_zero = b.eq(&zero);
                        let out = Expr::ite(&b_zero, a, &signed_r);
                        self.lower(sat, &out)
                    }
                    _ => unreachable!(),
                }
            }
            _ => unreachable!("not a division op"),
        }
    }

    /// Introduces fresh (q, r) for unsigned a / b with defining constraints.
    fn udivrem(&mut self, sat: &mut SatSolver, a: &Expr, b: &Expr, w: u32) -> (Expr, Expr) {
        let q = self.fresh_vec(sat, w);
        let r = self.fresh_vec(sat, w);
        let zero = Expr::constant(0, w);
        let b_zero = b.eq(&zero);
        // Nonzero case: a == b*q + r at 2w bits (no wraparound) and r < b.
        let w2 = 2 * w;
        let rel = a
            .zext(w2)
            .eq(&b.zext(w2).mul(&q.zext(w2)).add(&r.zext(w2)));
        let rem_ok = r.ult(b);
        let nonzero_ok = rel.and(&rem_ok);
        // Zero case: q == all-ones, r == a.
        let zero_ok = q.eq(&Expr::constant(u64::MAX, w)).and(&r.eq(a));
        let constraint = Expr::ite(&b_zero, &zero_ok, &nonzero_ok);
        self.assert_true(sat, &constraint);
        (q, r)
    }

    /// Allocates a fresh w-bit value as an internal symbol of the blaster.
    ///
    /// Uses high symbol ids that the execution engine never allocates.
    fn fresh_vec(&mut self, sat: &mut SatSolver, w: u32) -> Expr {
        let id = SymId(0x8000_0000u32 | self.sym_bits.len() as u32);
        let bits = self.fresh_bits(sat, w);
        self.sym_bits.insert(id, bits);
        Expr::sym(id, w)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum GateKind {
    And,
    Or,
    Xor,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}
