//! Symbolic guest memory with chained copy-on-write forking.
//!
//! Implements §4.1.3 of the paper verbatim: "instead of copying the entire
//! state upon an execution fork, DDT creates an empty memory object
//! containing a pointer to the parent object. All subsequent writes place
//! their values in the empty object, while reads that cannot be resolved
//! locally are forwarded up to the parent. Since quick forking can lead to
//! deep state hierarchies, we cache each resolved read in the leaf state."
//!
//! Every byte is an 8-bit [`Expr`]; fully concrete bytes are constant
//! expressions, so the same store holds mixed symbolic/concrete data.

use std::collections::BTreeMap;
use std::sync::Arc;

use ddt_expr::Expr;
use ddt_isa::hash::IntMap;
use ddt_isa::{decode, Insn, INSN_SIZE};

/// Chain depth past which [`SymMemory::fork`] compacts the frozen layers
/// into one. Deep chains make every uncached read an O(depth) pointer walk;
/// 32 keeps the walk short while amortizing the merge cost over many forks.
const COMPACT_DEPTH: usize = 32;

/// One frozen copy-on-write layer.
#[derive(Debug)]
struct MemLayer {
    parent: Option<Arc<MemLayer>>,
    writes: IntMap<u32, Expr>,
}

/// The memory every root state starts from: the seeded image bytes and,
/// once a code region is declared, the decode of its text.
///
/// A campaign builds it once and hands every root an `Arc` of it
/// ([`SymMemory::with_root`]); forks share their root's. Nothing writes to
/// it after that, so the symbolic step reads it without a lock.
#[derive(Debug, Default)]
pub struct RootMem {
    bytes: IntMap<u32, u8>,
    text: Option<DecodedText>,
}

/// The declared driver text `[start, end)` and the decode of every
/// instruction slot in it (`None` for an undecodable opcode).
#[derive(Debug)]
struct DecodedText {
    start: u32,
    end: u32,
    insns: Vec<Option<Insn>>,
}

impl RootMem {
    /// An empty root: nothing seeded, no code region.
    pub fn new() -> RootMem {
        RootMem::default()
    }

    /// Seeds initial concrete contents (driver image).
    pub fn seed(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.bytes.insert(addr.wrapping_add(i as u32), b);
        }
        if let Some(t) = &self.text {
            self.decode_text(t.start, t.end);
        }
    }

    /// Declares `[start, start+len)` as the driver's code region and decodes
    /// the seeded text in it (see [`SymMemory::code_bytes_stable`]).
    pub fn set_code_region(&mut self, start: u32, len: u32) {
        match len {
            0 => self.text = None,
            _ => self.decode_text(start, start.checked_add(len).expect("code region wraps")),
        }
    }

    fn decode_text(&mut self, start: u32, end: u32) {
        let insns = (0..(end - start) / INSN_SIZE)
            .map(|i| {
                let pc = start + i * INSN_SIZE;
                let raw: [u8; INSN_SIZE as usize] =
                    std::array::from_fn(|k| self.byte(pc + k as u32));
                decode(&raw)
            })
            .collect();
        self.text = Some(DecodedText { start, end, insns });
    }

    fn byte(&self, addr: u32) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }
}

/// Symbolic memory: mapped-region tracking + COW expression store.
#[derive(Clone, Debug)]
pub struct SymMemory {
    /// Mapped regions: start → end (exclusive), shared by forks and copied
    /// by the first `map` or `unmap` that changes them.
    regions: Arc<BTreeMap<u32, u32>>,
    /// Frozen parent chain.
    node: Option<Arc<MemLayer>>,
    /// Writes since the last fork.
    local: IntMap<u32, Expr>,
    /// Leaf read cache for chain walks (§4.1.3).
    cache: IntMap<u32, Expr>,
    /// Immutable initial contents and decoded text.
    root: Arc<RootMem>,
    /// Number of layers below `local` (diagnostics / §5.2 stats).
    depth: usize,
    /// Writes that landed inside the root's code region on this path
    /// (self-modifying code); any such write stops this lineage from
    /// reading the root's decoded text.
    code_writes: u64,
}

impl Default for SymMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl SymMemory {
    /// Creates empty, fully unmapped memory.
    pub fn new() -> SymMemory {
        SymMemory::with_root(Arc::new(RootMem::default()))
    }

    /// Creates fully unmapped memory over a shared root: the root's bytes
    /// and decoded text, built once for every root of a campaign.
    pub fn with_root(root: Arc<RootMem>) -> SymMemory {
        SymMemory {
            regions: Arc::default(),
            node: None,
            local: IntMap::default(),
            cache: IntMap::default(),
            root,
            depth: 0,
            code_writes: 0,
        }
    }

    /// The root this memory (and every fork of it) reads through.
    pub fn root(&self) -> &Arc<RootMem> {
        &self.root
    }

    /// Declares `[start, start+len)` as the driver's code region and
    /// decodes its seeded text (see [`RootMem::set_code_region`]).
    ///
    /// # Panics
    ///
    /// Panics if the root is shared (after a fork, or with a campaign's).
    pub fn set_code_region(&mut self, start: u32, len: u32) {
        let root = Arc::get_mut(&mut self.root).expect("set_code_region on a shared root");
        root.set_code_region(start, len);
    }

    /// True when all of `[addr, addr+len)` lies inside the declared code
    /// region and no write has ever targeted the region on this path —
    /// i.e. those bytes are still the root's, whose decode is precomputed.
    pub fn code_bytes_stable(&self, addr: u32, len: u32) -> bool {
        match &self.root.text {
            Some(t) => {
                self.code_writes == 0
                    && addr >= t.start
                    && addr.checked_add(len).is_some_and(|end| end <= t.end)
            }
            None => false,
        }
    }

    /// The root's decode of the instruction at `pc`, when this path may
    /// use it: `pc` is an instruction slot of the code region and
    /// [`Self::code_bytes_stable`] holds for it. The outer `Option` is
    /// that availability; the inner one is decodability. Other pcs must be
    /// fetched byte by byte and decoded.
    pub fn decoded_insn(&self, pc: u32) -> Option<Option<Insn>> {
        if !self.code_bytes_stable(pc, INSN_SIZE) {
            return None;
        }
        let t = self.root.text.as_ref()?;
        let off = pc - t.start;
        off.is_multiple_of(INSN_SIZE).then(|| t.insns[(off / INSN_SIZE) as usize])
    }

    /// Seeds initial concrete contents (driver image). Only valid before
    /// execution begins; later writes go through [`Self::write_byte`].
    ///
    /// # Panics
    ///
    /// Panics if the root is shared (after a fork, or with a campaign's).
    pub fn seed_bytes(&mut self, addr: u32, bytes: &[u8]) {
        Arc::get_mut(&mut self.root).expect("seed_bytes on a shared root").seed(addr, bytes);
    }

    /// Maps `[start, start+len)` as accessible zero-filled memory.
    pub fn map(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let end = start.checked_add(len).expect("region wraps");
        let (mut s, mut e) = (start, end);
        let regions = Arc::make_mut(&mut self.regions);
        let overlapping: Vec<(u32, u32)> = regions
            .range(..=e)
            .filter(|&(&rs, &re)| re >= s && rs <= e)
            .map(|(&rs, &re)| (rs, re))
            .collect();
        for (rs, re) in overlapping {
            s = s.min(rs);
            e = e.max(re);
            regions.remove(&rs);
        }
        regions.insert(s, e);
    }

    /// Unmaps `[start, start+len)`.
    ///
    /// Contents are *not* erased from the COW chain: a dangling read after
    /// re-mapping sees stale bytes, exactly like real freed memory — DDT's
    /// checkers, not the memory model, are responsible for flagging
    /// use-after-free.
    ///
    /// A range that reaches past the top of the address space unmaps up to
    /// the top. An unmap that touches no region leaves a shared region map
    /// shared.
    pub fn unmap(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let end = u64::from(start) + u64::from(len);
        let affected: Vec<(u32, u32)> = self
            .regions
            .iter()
            .take_while(|&(&rs, _)| u64::from(rs) < end)
            .filter(|&(_, &re)| re > start)
            .map(|(&rs, &re)| (rs, re))
            .collect();
        if affected.is_empty() {
            return;
        }
        let regions = Arc::make_mut(&mut self.regions);
        for (rs, re) in affected {
            regions.remove(&rs);
            if rs < start {
                regions.insert(rs, start);
            }
            if u64::from(re) > end {
                regions.insert(end as u32, re);
            }
        }
    }

    /// True if `addr` is mapped.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.regions.range(..=addr).next_back().is_some_and(|(_, &end)| addr < end)
    }

    /// True if all of `[addr, addr+len)` is mapped.
    pub fn is_range_mapped(&self, addr: u32, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = addr.checked_add(len) else { return false };
        let mut cur = addr;
        while cur < end {
            match self.regions.range(..=cur).next_back() {
                Some((_, &rend)) if cur < rend => cur = rend,
                _ => return false,
            }
        }
        true
    }

    /// Iterates over mapped regions.
    pub fn regions(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.regions.iter().map(|(&s, &e)| (s, e))
    }

    /// Current COW chain depth (diagnostics).
    pub fn chain_depth(&self) -> usize {
        self.depth
    }

    /// Squashes the frozen parent chain into a single merged layer.
    ///
    /// "Quick forking can lead to deep state hierarchies" (§4.1.3): past a
    /// point, every cache-miss read pays an O(depth) walk, so the leaf
    /// periodically folds its view of the chain into one layer. Leaf-most
    /// writes win (the same resolution order the walk uses), so reads are
    /// unchanged. Sibling states still hold `Arc`s to the old layers; only
    /// this state and its future children see (and pay for) the merge.
    fn compact_chain(&mut self) {
        let mut merged: IntMap<u32, Expr> = IntMap::default();
        let mut cur = self.node.as_ref();
        while let Some(layer) = cur {
            for (addr, e) in &layer.writes {
                merged.entry(*addr).or_insert_with(|| e.clone());
            }
            cur = layer.parent.as_ref();
        }
        if merged.is_empty() {
            self.node = None;
            self.depth = 0;
        } else {
            self.node = Some(Arc::new(MemLayer { parent: None, writes: merged }));
            self.depth = 1;
        }
    }

    /// Forks the memory: both this state and the returned copy see the
    /// current contents; subsequent writes diverge.
    pub fn fork(&mut self) -> SymMemory {
        if !self.local.is_empty() {
            let layer =
                MemLayer { parent: self.node.take(), writes: std::mem::take(&mut self.local) };
            self.node = Some(Arc::new(layer));
            self.depth += 1;
        }
        if self.depth > COMPACT_DEPTH {
            self.compact_chain();
        }
        SymMemory {
            regions: self.regions.clone(),
            node: self.node.clone(),
            local: IntMap::default(),
            cache: IntMap::default(),
            root: self.root.clone(),
            depth: self.depth,
            code_writes: self.code_writes,
        }
    }

    /// Reads one byte as an 8-bit expression.
    ///
    /// The address must be mapped (callers check and fault otherwise);
    /// unmapped reads return zero here to keep the model total.
    pub fn read_byte(&mut self, addr: u32) -> Expr {
        if let Some(e) = self.local.get(&addr) {
            return e.clone();
        }
        if let Some(e) = self.cache.get(&addr) {
            return e.clone();
        }
        // Walk the frozen chain.
        let mut cur = self.node.as_ref();
        while let Some(layer) = cur {
            if let Some(e) = layer.writes.get(&addr) {
                self.cache.insert(addr, e.clone());
                return e.clone();
            }
            cur = layer.parent.as_ref();
        }
        let e = Expr::constant(self.root.byte(addr) as u64, 8);
        self.cache.insert(addr, e.clone());
        e
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u32, value: Expr) {
        debug_assert_eq!(value.width(), 8, "byte writes take 8-bit values");
        if let Some(t) = &self.root.text {
            if addr >= t.start && addr < t.end {
                self.code_writes += 1;
            }
        }
        self.cache.remove(&addr);
        self.local.insert(addr, value);
    }

    /// Reads `size` bytes little-endian as one expression of `8*size` bits.
    pub fn read(&mut self, addr: u32, size: u8) -> Expr {
        let mut e = self.read_byte(addr);
        for i in 1..size {
            let hi = self.read_byte(addr.wrapping_add(i as u32));
            e = hi.concat(&e);
        }
        e
    }

    /// Writes an expression of `8*size` bits little-endian.
    ///
    /// # Panics
    ///
    /// Panics if the value width does not match `size`.
    pub fn write(&mut self, addr: u32, size: u8, value: &Expr) {
        assert_eq!(value.width(), 8 * size as u32, "value width mismatch");
        for i in 0..size {
            let lo = 8 * i as u32;
            self.write_byte(addr.wrapping_add(i as u32), value.extract(lo + 7, lo));
        }
    }

    /// Convenience: reads `len` bytes, requiring them all to be concrete
    /// (used for instruction fetch — driver text is never symbolic).
    pub fn read_concrete_bytes(&mut self, addr: u32, len: u32) -> Option<Vec<u8>> {
        (0..len)
            .map(|i| self.read_byte(addr.wrapping_add(i)).as_const().map(|v| v as u8))
            .collect()
    }

    /// Convenience: writes concrete bytes.
    pub fn write_concrete_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_byte(addr.wrapping_add(i as u32), Expr::constant(b as u64, 8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_expr::SymId;

    #[test]
    fn seeded_bytes_read_back() {
        let mut m = SymMemory::new();
        m.map(0x1000, 0x100);
        m.seed_bytes(0x1000, &[1, 2, 3, 4]);
        assert_eq!(m.read(0x1000, 4).as_const(), Some(0x04030201));
    }

    #[test]
    fn unseeded_mapped_memory_is_zero() {
        let mut m = SymMemory::new();
        m.map(0x1000, 0x100);
        assert_eq!(m.read(0x1050, 4).as_const(), Some(0));
    }

    #[test]
    fn write_read_roundtrip_mixed_width() {
        let mut m = SymMemory::new();
        m.map(0, 0x100);
        m.write(0x10, 4, &Expr::constant(0xdead_beef, 32));
        assert_eq!(m.read(0x10, 4).as_const(), Some(0xdead_beef));
        assert_eq!(m.read(0x10, 2).as_const(), Some(0xbeef));
        assert_eq!(m.read_byte(0x13).as_const(), Some(0xde));
        m.write(0x11, 1, &Expr::constant(0x00, 8));
        assert_eq!(m.read(0x10, 4).as_const(), Some(0xdead_00ef));
    }

    #[test]
    fn symbolic_bytes_concat_back() {
        let mut m = SymMemory::new();
        m.map(0, 0x100);
        let x = Expr::sym(SymId(1), 32);
        m.write(0x20, 4, &x);
        // Reading the word back should simplify to exactly the symbol.
        assert_eq!(m.read(0x20, 4), x);
        // A sub-read extracts.
        assert_eq!(m.read(0x20, 2), x.extract(15, 0));
    }

    #[test]
    fn fork_isolation() {
        let mut a = SymMemory::new();
        a.map(0, 0x100);
        a.write(0, 4, &Expr::constant(1, 32));
        let mut b = a.fork();
        b.write(0, 4, &Expr::constant(2, 32));
        a.write(4, 4, &Expr::constant(3, 32));
        assert_eq!(a.read(0, 4).as_const(), Some(1));
        assert_eq!(b.read(0, 4).as_const(), Some(2));
        assert_eq!(b.read(4, 4).as_const(), Some(0), "b never saw a's later write");
    }

    #[test]
    fn deep_chain_reads_resolve_and_cache() {
        let mut m = SymMemory::new();
        m.map(0, 0x1000);
        m.write(0x500, 4, &Expr::constant(42, 32));
        let mut cur = m;
        for _ in 0..50 {
            let next = cur.fork();
            cur = next;
        }
        assert!(cur.chain_depth() <= 50);
        assert_eq!(cur.read(0x500, 4).as_const(), Some(42));
        // Second read must hit the leaf cache (observable only as still
        // being correct, but exercise the path).
        assert_eq!(cur.read(0x500, 4).as_const(), Some(42));
    }

    #[test]
    fn fork_without_local_writes_reuses_chain() {
        let mut m = SymMemory::new();
        m.map(0, 0x100);
        let d0 = m.chain_depth();
        let _a = m.fork();
        let _b = m.fork(); // No writes between forks: depth must not grow.
        assert_eq!(m.chain_depth(), d0);
    }

    #[test]
    fn chain_compaction_preserves_reads_and_caps_depth() {
        let mut m = SymMemory::new();
        m.map(0, 0x10000);
        m.seed_bytes(0x100, &[0xaa, 0xbb]);
        let x = Expr::sym(SymId(9), 8);
        m.write_byte(0x200, x.clone());
        // Drive the chain far past the compaction threshold; each layer
        // overwrites one shared slot and adds one private slot.
        let rounds = 2 * COMPACT_DEPTH;
        let mut sibling = None;
        let mut cur = m;
        for i in 0..rounds {
            cur.write(0x300, 4, &Expr::constant(i as u64, 32));
            cur.write(0x400 + 4 * i as u32, 4, &Expr::constant(i as u64 + 1, 32));
            let next = cur.fork();
            if i == 3 {
                // A sibling pinned before compaction happens.
                sibling = Some(cur.fork());
            }
            cur = next;
        }
        assert!(
            cur.chain_depth() <= COMPACT_DEPTH + 1,
            "compaction must cap the chain, got depth {}",
            cur.chain_depth()
        );
        // Leaf-most write wins across the merge...
        assert_eq!(cur.read(0x300, 4).as_const(), Some(rounds as u64 - 1));
        // ...every layer's private slot is still visible...
        for i in 0..rounds {
            assert_eq!(cur.read(0x400 + 4 * i as u32, 4).as_const(), Some(i as u64 + 1));
        }
        // ...root bytes and symbolic bytes survive...
        assert_eq!(cur.read(0x100, 2).as_const(), Some(0xbbaa));
        assert_eq!(cur.read_byte(0x200), x);
        // ...and a sibling forked pre-compaction keeps its own view.
        let mut sib = sibling.unwrap();
        assert_eq!(sib.read(0x300, 4).as_const(), Some(3));
    }

    #[test]
    fn mapping_checks() {
        let mut m = SymMemory::new();
        m.map(0x1000, 0x1000);
        assert!(m.is_mapped(0x1fff));
        assert!(!m.is_mapped(0x2000));
        assert!(m.is_range_mapped(0x1000, 0x1000));
        assert!(!m.is_range_mapped(0x1ff0, 0x20));
        m.unmap(0x1800, 0x100);
        assert!(m.is_mapped(0x17ff));
        assert!(!m.is_mapped(0x1800));
        assert!(m.is_mapped(0x1900));
    }

    #[test]
    fn stale_contents_survive_unmap_remap() {
        // Deliberate: the memory model keeps bytes so checkers can detect
        // use-after-free patterns; remapping exposes stale data.
        let mut m = SymMemory::new();
        m.map(0, 0x100);
        m.write(0x40, 4, &Expr::constant(7, 32));
        m.unmap(0, 0x100);
        m.map(0, 0x100);
        assert_eq!(m.read(0x40, 4).as_const(), Some(7));
    }
}
