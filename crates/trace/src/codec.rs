//! Versioned binary codec for trace event logs.
//!
//! The on-disk event log (`trace.bin`) is a compact binary encoding rather
//! than JSON: a bug trace on the bundled drivers holds tens of thousands of
//! `Exec` events, and the paper's workflow ships these artifacts around
//! (§3.5 "development teams can collect bug traces ... and use them to
//! reproduce"). Layout:
//!
//! ```text
//! magic "DDTT" | version u32-LE
//! expression pool:  varint count, then one node per entry; child nodes are
//!                   varint back-references into the pool (strictly smaller
//!                   indices), so the pool is a topologically ordered DAG and
//!                   structurally shared subtrees are stored once
//! event log:        varint count, then tag byte + payload per event;
//!                   expressions are varint pool references
//! ```
//!
//! All integers are LEB128 varints except the version field. Decoding
//! rebuilds expressions with [`Expr::from_node`] — the raw constructor —
//! because re-running the smart constructors could simplify a node and
//! silently change the stored tree; the codec must be lossless.

use std::collections::HashMap;

use ddt_expr::{BinOp, CmpOp, Expr, ExprNode, NodeView, SymId};
use ddt_symvm::{SymOrigin, TraceEvent};

/// File magic for trace event logs.
pub const TRACE_MAGIC: [u8; 4] = *b"DDTT";

/// Current format version. Bump on any layout change; the decoder rejects
/// versions it does not know.
pub const TRACE_VERSION: u32 = 1;

/// A decode failure: offset into the input plus a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------- writing

struct Writer {
    buf: Vec<u8>,
    pool: Vec<u8>,
    pool_len: u32,
    interned: HashMap<Expr, u32>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new(), pool: Vec::new(), pool_len: 0, interned: HashMap::new() }
    }

    fn varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn str(out: &mut Vec<u8>, s: &str) {
        Self::varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    fn opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
        match v {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                Self::varint(out, v);
            }
        }
    }

    /// Interns `e` (and, recursively, its children) into the pool and
    /// returns its index. Shared subtrees hit the memo and are stored once.
    fn intern(&mut self, e: &Expr) -> u32 {
        if let Some(&idx) = self.interned.get(e) {
            return idx;
        }
        // Children first: pool references always point backwards.
        let entry = match e.node() {
            NodeView::Const { bits, width } => {
                let mut b = vec![0u8];
                Self::varint(&mut b, bits);
                Self::varint(&mut b, width as u64);
                b
            }
            NodeView::Sym { id, width } => {
                let mut b = vec![1u8];
                Self::varint(&mut b, id.0 as u64);
                Self::varint(&mut b, width as u64);
                b
            }
            NodeView::Not(a) => {
                let a = self.intern(a);
                let mut b = vec![2u8];
                Self::varint(&mut b, a as u64);
                b
            }
            NodeView::Neg(a) => {
                let a = self.intern(a);
                let mut b = vec![3u8];
                Self::varint(&mut b, a as u64);
                b
            }
            NodeView::Bin(op, a, x) => {
                let (a, x) = (self.intern(a), self.intern(x));
                let mut b = vec![4u8, bin_op_tag(op)];
                Self::varint(&mut b, a as u64);
                Self::varint(&mut b, x as u64);
                b
            }
            NodeView::Cmp(op, a, x) => {
                let (a, x) = (self.intern(a), self.intern(x));
                let mut b = vec![5u8, cmp_op_tag(op)];
                Self::varint(&mut b, a as u64);
                Self::varint(&mut b, x as u64);
                b
            }
            NodeView::ZExt { e, width } => {
                let e = self.intern(e);
                let mut b = vec![6u8];
                Self::varint(&mut b, e as u64);
                Self::varint(&mut b, width as u64);
                b
            }
            NodeView::SExt { e, width } => {
                let e = self.intern(e);
                let mut b = vec![7u8];
                Self::varint(&mut b, e as u64);
                Self::varint(&mut b, width as u64);
                b
            }
            NodeView::Extract { e, hi, lo } => {
                let e = self.intern(e);
                let mut b = vec![8u8];
                Self::varint(&mut b, e as u64);
                Self::varint(&mut b, hi as u64);
                Self::varint(&mut b, lo as u64);
                b
            }
            NodeView::Concat { hi, lo } => {
                let (hi, lo) = (self.intern(hi), self.intern(lo));
                let mut b = vec![9u8];
                Self::varint(&mut b, hi as u64);
                Self::varint(&mut b, lo as u64);
                b
            }
            NodeView::Ite { cond, then, els } => {
                let (c, t, e2) = (self.intern(cond), self.intern(then), self.intern(els));
                let mut b = vec![10u8];
                Self::varint(&mut b, c as u64);
                Self::varint(&mut b, t as u64);
                Self::varint(&mut b, e2 as u64);
                b
            }
        };
        self.pool.extend_from_slice(&entry);
        let idx = self.pool_len;
        self.pool_len += 1;
        self.interned.insert(e.clone(), idx);
        idx
    }

    fn origin(out: &mut Vec<u8>, o: &SymOrigin) {
        match o {
            SymOrigin::HardwareRead { addr } => {
                out.push(0);
                Self::varint(out, *addr as u64);
            }
            SymOrigin::PortRead { port } => {
                out.push(1);
                Self::varint(out, *port as u64);
            }
            SymOrigin::EntryArg { entry, index } => {
                out.push(2);
                Self::str(out, entry);
                Self::varint(out, *index as u64);
            }
            SymOrigin::Annotation { api } => {
                out.push(3);
                Self::str(out, api);
            }
            SymOrigin::Registry { name } => {
                out.push(4);
                Self::str(out, name);
            }
            SymOrigin::Other => out.push(5),
        }
    }

    fn event(&mut self, ev: &TraceEvent) {
        // Expressions are interned before the event bytes are laid down so
        // the pool stays topologically ordered.
        match ev {
            TraceEvent::Exec { pc } => {
                self.buf.push(0);
                Self::varint(&mut self.buf, *pc as u64);
            }
            TraceEvent::MemRead { pc, addr, size, value } => {
                self.buf.push(1);
                Self::varint(&mut self.buf, *pc as u64);
                Self::varint(&mut self.buf, *addr as u64);
                self.buf.push(*size);
                Self::opt_u64(&mut self.buf, *value);
            }
            TraceEvent::MemWrite { pc, addr, size, value } => {
                self.buf.push(2);
                Self::varint(&mut self.buf, *pc as u64);
                Self::varint(&mut self.buf, *addr as u64);
                self.buf.push(*size);
                Self::opt_u64(&mut self.buf, *value);
            }
            TraceEvent::Branch { pc, taken, forked, constraint } => {
                let c = self.intern(constraint);
                self.buf.push(3);
                Self::varint(&mut self.buf, *pc as u64);
                self.buf.push(u8::from(*taken) | (u8::from(*forked) << 1));
                Self::varint(&mut self.buf, c as u64);
            }
            TraceEvent::SymCreate { id, label, origin, width } => {
                self.buf.push(4);
                Self::varint(&mut self.buf, id.0 as u64);
                Self::str(&mut self.buf, label);
                Self::origin(&mut self.buf, origin);
                Self::varint(&mut self.buf, *width as u64);
            }
            TraceEvent::Concretize { pc, expr, value } => {
                let e = self.intern(expr);
                self.buf.push(5);
                Self::varint(&mut self.buf, *pc as u64);
                Self::varint(&mut self.buf, e as u64);
                Self::varint(&mut self.buf, *value);
            }
            TraceEvent::KernelCall { export_id, name } => {
                self.buf.push(6);
                Self::varint(&mut self.buf, *export_id as u64);
                Self::str(&mut self.buf, name);
            }
            TraceEvent::KernelReturn { export_id, ret } => {
                self.buf.push(7);
                Self::varint(&mut self.buf, *export_id as u64);
                Self::varint(&mut self.buf, *ret as u64);
            }
            TraceEvent::EntryInvoke { name, addr } => {
                self.buf.push(8);
                Self::str(&mut self.buf, name);
                Self::varint(&mut self.buf, *addr as u64);
            }
            TraceEvent::Interrupt { line, at_pc } => {
                self.buf.push(9);
                self.buf.push(*line);
                Self::varint(&mut self.buf, *at_pc as u64);
            }
            TraceEvent::HardwareRead { addr, id } => {
                self.buf.push(10);
                Self::varint(&mut self.buf, *addr as u64);
                Self::varint(&mut self.buf, id.0 as u64);
            }
            TraceEvent::HardwareWrite { addr, value } => {
                self.buf.push(11);
                Self::varint(&mut self.buf, *addr as u64);
                Self::opt_u64(&mut self.buf, *value);
            }
        }
    }
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::UDiv => 3,
        BinOp::URem => 4,
        BinOp::SDiv => 5,
        BinOp::SRem => 6,
        BinOp::And => 7,
        BinOp::Or => 8,
        BinOp::Xor => 9,
        BinOp::Shl => 10,
        BinOp::LShr => 11,
        BinOp::AShr => 12,
    }
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Ult => 2,
        CmpOp::Ule => 3,
        CmpOp::Slt => 4,
        CmpOp::Sle => 5,
    }
}

/// Encodes an event log into the versioned binary format.
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = Writer::new();
    for ev in events {
        w.event(ev);
    }
    let mut out = Vec::with_capacity(16 + w.pool.len() + w.buf.len());
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    Writer::varint(&mut out, w.pool_len as u64);
    out.extend_from_slice(&w.pool);
    Writer::varint(&mut out, events.len() as u64);
    out.extend_from_slice(&w.buf);
    out
}

// ---------------------------------------------------------------- reading

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, DecodeError> {
        Err(DecodeError { offset: self.pos, message: message.into() })
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        match self.data.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.err("unexpected end of input"),
        }
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return self.err("varint overflows 64 bits");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let v = self.varint()?;
        u32::try_from(v).or_else(|_| self.err(format!("value {v} does not fit in u32")))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.varint()? as usize;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.data.len());
        let Some(end) = end else { return self.err("string runs past end of input") };
        let s = std::str::from_utf8(&self.data[self.pos..end])
            .map_err(|e| DecodeError { offset: self.pos, message: format!("bad utf-8: {e}") })?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.varint()?)),
            t => self.err(format!("bad Option tag {t}")),
        }
    }

    fn pool_ref(&mut self, pool: &[Expr]) -> Result<Expr, DecodeError> {
        let idx = self.varint()? as usize;
        match pool.get(idx) {
            Some(e) => Ok(e.clone()),
            None => self.err(format!("pool reference {idx} out of range ({})", pool.len())),
        }
    }

    fn node(&mut self, pool: &[Expr]) -> Result<ExprNode, DecodeError> {
        let tag = self.byte()?;
        Ok(match tag {
            0 => ExprNode::Const { bits: self.varint()?, width: self.u32()? },
            1 => ExprNode::Sym { id: SymId(self.u32()?), width: self.u32()? },
            2 => ExprNode::Not(self.pool_ref(pool)?),
            3 => ExprNode::Neg(self.pool_ref(pool)?),
            4 => {
                let op = self.bin_op()?;
                ExprNode::Bin(op, self.pool_ref(pool)?, self.pool_ref(pool)?)
            }
            5 => {
                let op = self.cmp_op()?;
                ExprNode::Cmp(op, self.pool_ref(pool)?, self.pool_ref(pool)?)
            }
            6 => ExprNode::ZExt { e: self.pool_ref(pool)?, width: self.u32()? },
            7 => ExprNode::SExt { e: self.pool_ref(pool)?, width: self.u32()? },
            8 => ExprNode::Extract {
                e: self.pool_ref(pool)?,
                hi: self.u32()?,
                lo: self.u32()?,
            },
            9 => ExprNode::Concat { hi: self.pool_ref(pool)?, lo: self.pool_ref(pool)? },
            10 => ExprNode::Ite {
                cond: self.pool_ref(pool)?,
                then: self.pool_ref(pool)?,
                els: self.pool_ref(pool)?,
            },
            t => return self.err(format!("bad expression node tag {t}")),
        })
    }

    fn bin_op(&mut self) -> Result<BinOp, DecodeError> {
        Ok(match self.byte()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::UDiv,
            4 => BinOp::URem,
            5 => BinOp::SDiv,
            6 => BinOp::SRem,
            7 => BinOp::And,
            8 => BinOp::Or,
            9 => BinOp::Xor,
            10 => BinOp::Shl,
            11 => BinOp::LShr,
            12 => BinOp::AShr,
            t => return self.err(format!("bad binary op tag {t}")),
        })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, DecodeError> {
        Ok(match self.byte()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Ult,
            3 => CmpOp::Ule,
            4 => CmpOp::Slt,
            5 => CmpOp::Sle,
            t => return self.err(format!("bad comparison op tag {t}")),
        })
    }

    fn origin(&mut self) -> Result<SymOrigin, DecodeError> {
        Ok(match self.byte()? {
            0 => SymOrigin::HardwareRead { addr: self.u32()? },
            1 => SymOrigin::PortRead { port: self.u32()? },
            2 => SymOrigin::EntryArg { entry: self.str()?, index: self.varint()? as usize },
            3 => SymOrigin::Annotation { api: self.str()? },
            4 => SymOrigin::Registry { name: self.str()? },
            5 => SymOrigin::Other,
            t => return self.err(format!("bad origin tag {t}")),
        })
    }

    fn event(&mut self, pool: &[Expr]) -> Result<TraceEvent, DecodeError> {
        let tag = self.byte()?;
        Ok(match tag {
            0 => TraceEvent::Exec { pc: self.u32()? },
            1 => TraceEvent::MemRead {
                pc: self.u32()?,
                addr: self.u32()?,
                size: self.byte()?,
                value: self.opt_u64()?,
            },
            2 => TraceEvent::MemWrite {
                pc: self.u32()?,
                addr: self.u32()?,
                size: self.byte()?,
                value: self.opt_u64()?,
            },
            3 => {
                let pc = self.u32()?;
                let flags = self.byte()?;
                TraceEvent::Branch {
                    pc,
                    taken: flags & 1 != 0,
                    forked: flags & 2 != 0,
                    constraint: self.pool_ref(pool)?,
                }
            }
            4 => TraceEvent::SymCreate {
                id: SymId(self.u32()?),
                label: self.str()?,
                origin: self.origin()?,
                width: self.u32()?,
            },
            5 => TraceEvent::Concretize {
                pc: self.u32()?,
                expr: self.pool_ref(pool)?,
                value: self.varint()?,
            },
            6 => TraceEvent::KernelCall { export_id: self.u32()? as u16, name: self.str()? },
            7 => TraceEvent::KernelReturn { export_id: self.u32()? as u16, ret: self.u32()? },
            8 => TraceEvent::EntryInvoke { name: self.str()?, addr: self.u32()? },
            9 => TraceEvent::Interrupt { line: self.byte()?, at_pc: self.u32()? },
            10 => TraceEvent::HardwareRead { addr: self.u32()?, id: SymId(self.u32()?) },
            11 => TraceEvent::HardwareWrite { addr: self.u32()?, value: self.opt_u64()? },
            t => return self.err(format!("bad event tag {t}")),
        })
    }
}

/// Decodes an event log produced by [`encode_events`].
pub fn decode_events(data: &[u8]) -> Result<Vec<TraceEvent>, DecodeError> {
    let mut r = Reader { data, pos: 0 };
    if data.len() < 8 || data[..4] != TRACE_MAGIC {
        return r.err("not a DDT trace (bad magic)");
    }
    r.pos = 4;
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != TRACE_VERSION {
        return r.err(format!("unsupported trace version {version} (expected {TRACE_VERSION})"));
    }
    r.pos = 8;
    let pool_len = r.varint()? as usize;
    let mut pool: Vec<Expr> = Vec::with_capacity(pool_len.min(1 << 20));
    for _ in 0..pool_len {
        // Raw wrapping: the stored tree is reproduced exactly, not
        // re-simplified.
        let node = r.node(&pool)?;
        pool.push(Expr::from_node(node));
    }
    let count = r.varint()? as usize;
    let mut events = Vec::with_capacity(count.min(1 << 24));
    for _ in 0..count {
        events.push(r.event(&pool)?);
    }
    if r.pos != data.len() {
        return r.err(format!("{} trailing bytes after event log", data.len() - r.pos));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let x = Expr::sym(SymId(3), 32);
        let c = x.add(&Expr::constant(7, 32)).ult(&Expr::constant(100, 32));
        vec![
            TraceEvent::EntryInvoke { name: "Initialize".into(), addr: 0x40_0000 },
            TraceEvent::Exec { pc: 0x40_0000 },
            TraceEvent::SymCreate {
                id: SymId(3),
                label: "hw:0x8000".into(),
                origin: SymOrigin::HardwareRead { addr: 0x8000 },
                width: 32,
            },
            TraceEvent::MemRead { pc: 0x40_0004, addr: 0x1000, size: 4, value: Some(0xdead) },
            TraceEvent::MemWrite { pc: 0x40_0008, addr: 0x1004, size: 2, value: None },
            TraceEvent::Branch { pc: 0x40_000c, taken: true, forked: true, constraint: c.clone() },
            TraceEvent::Branch { pc: 0x40_0010, taken: false, forked: false, constraint: c.not() },
            TraceEvent::Concretize { pc: 0x40_0014, expr: x, value: 42 },
            TraceEvent::KernelCall { export_id: 9, name: "NdisMSleep".into() },
            TraceEvent::KernelReturn { export_id: 9, ret: 0 },
            TraceEvent::Interrupt { line: 1, at_pc: 0x40_0018 },
            TraceEvent::HardwareRead { addr: 0x8004, id: SymId(4) },
            TraceEvent::HardwareWrite { addr: 0x8008, value: Some(u64::MAX) },
        ]
    }

    #[test]
    fn roundtrip_is_lossless() {
        let events = sample_events();
        let bytes = encode_events(&events);
        let back = decode_events(&bytes).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn constants_of_every_width_round_trip() {
        // Inline (up to 32 bits) and interned (wider) constants, alone and
        // under a node, decode to the same expressions.
        let events: Vec<TraceEvent> = (1..=64u32)
            .flat_map(|width| {
                let c = Expr::constant(0xfedc_ba98_7654_3210, width);
                let x = Expr::sym(SymId(width), width);
                [
                    TraceEvent::Concretize { pc: width, expr: c.clone(), value: 1 },
                    TraceEvent::Branch {
                        pc: width,
                        taken: true,
                        forked: false,
                        constraint: x.ult(&c),
                    },
                ]
            })
            .collect();
        assert_eq!(decode_events(&encode_events(&events)).unwrap(), events);
    }

    #[test]
    fn shared_subtrees_are_stored_once() {
        let x = Expr::sym(SymId(0), 32);
        let c = x.ult(&Expr::constant(10, 32));
        // The same constraint expression appears in 100 branch events; the
        // pool stores its nodes once.
        let events: Vec<TraceEvent> = (0..100)
            .map(|i| TraceEvent::Branch { pc: i, taken: true, forked: false, constraint: c.clone() })
            .collect();
        let bytes = encode_events(&events);
        let one = encode_events(&events[..1]);
        // 99 extra events cost ~4 bytes each (tag + pc + flags + pool ref),
        // nowhere near 99 re-encodings of the expression.
        assert!(bytes.len() < one.len() + 99 * 8, "pool did not deduplicate: {}", bytes.len());
        assert_eq!(decode_events(&bytes).unwrap(), events);
    }

    #[test]
    fn empty_log_roundtrips() {
        let bytes = encode_events(&[]);
        assert_eq!(decode_events(&bytes).unwrap(), Vec::<TraceEvent>::new());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(decode_events(b"nope").is_err());
        let mut bytes = encode_events(&[]);
        bytes[4] = 0xff; // corrupt the version
        let err = decode_events(&bytes).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let bytes = encode_events(&sample_events());
        assert!(decode_events(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        let err = decode_events(&extended).unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_forward_pool_references() {
        // Hand-build a pool whose first node references index 1 (itself
        // unseen): Not(pool[1]).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        bytes.push(1); // pool count
        bytes.push(2); // Not
        bytes.push(1); // reference to index 1 — out of range
        bytes.push(0); // event count
        let err = decode_events(&bytes).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }
}
