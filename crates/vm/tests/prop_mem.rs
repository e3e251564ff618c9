//! Property test of page-granular concrete memory against a byte map.
//!
//! `Memory::read` and `Memory::write` take one region lookup and one page
//! lookup when an access stays inside one page and one mapped region, and
//! go byte by byte otherwise. The reference model below is the byte-by-byte
//! definition: a set of mapped bytes, a map of byte contents, and a code
//! generation bumped once per byte written inside the code region. Random
//! sequences of byte-granular `map`/`unmap`, `set_code_region`, and reads
//! and writes of 1, 2, 4 and 8 bytes clustered around page and region edges
//! must give the same values, the same `MemError`s (the first unmapped
//! byte), the same bytes after a faulting write, and the same generation.

use std::collections::{HashMap, HashSet};

use ddt_vm::mem::{AccessKind, MemError, Memory, PAGE_SIZE};
use proptest::prelude::*;

/// Address windows the sequences touch: low memory, a window in the middle
/// of the address space, and the top pages, where an access can wrap.
const WINDOWS: [(u32, u32); 3] = [(0, 0x2000), (0x7000, 0xb000), (0xffff_d000, 0xffff_ffff)];

#[derive(Clone, Debug)]
enum Op {
    Map(u32, u32),
    Unmap(u32, u32),
    SetCode(u32, u32),
    Read(u32, u8, AccessKind),
    Write(u32, u8, u64),
}

/// The byte-by-byte definition of guest memory.
#[derive(Default)]
struct Model {
    mapped: HashSet<u32>,
    bytes: HashMap<u32, u8>,
    code: Option<(u32, u32)>,
    generation: u64,
}

impl Model {
    fn map(&mut self, start: u32, len: u32) {
        self.mapped.extend(start..start + len);
    }

    /// Unmapping drops a page's contents only when the range covers the
    /// whole page; a partly unmapped page keeps its bytes for a later map.
    fn unmap(&mut self, start: u32, len: u32) {
        let end = start + len;
        for a in start..end {
            self.mapped.remove(&a);
        }
        for page in start / PAGE_SIZE..=(end - 1) / PAGE_SIZE {
            let base = page * PAGE_SIZE;
            if base >= start && base as u64 + PAGE_SIZE as u64 <= end as u64 {
                self.bytes.retain(|&a, _| a / PAGE_SIZE != page);
            }
        }
    }

    fn set_code(&mut self, start: u32, len: u32) {
        self.code = Some((start, start.saturating_add(len)));
        self.generation += 1;
    }

    fn read(&self, addr: u32, size: u8, kind: AccessKind) -> Result<u64, MemError> {
        let mut v = 0u64;
        for i in 0..size {
            let a = addr.wrapping_add(i as u32);
            if !self.mapped.contains(&a) {
                return Err(MemError { addr: a, kind });
            }
            v |= (self.bytes.get(&a).copied().unwrap_or(0) as u64) << (8 * i);
        }
        Ok(v)
    }

    fn write(&mut self, addr: u32, size: u8, v: u64) -> Result<(), MemError> {
        for i in 0..size {
            let a = addr.wrapping_add(i as u32);
            if !self.mapped.contains(&a) {
                return Err(MemError { addr: a, kind: AccessKind::Write });
            }
            if self.code.is_some_and(|(s, e)| a >= s && a < e) {
                self.generation += 1;
            }
            self.bytes.insert(a, (v >> (8 * i)) as u8);
        }
        Ok(())
    }

    fn byte(&self, addr: u32) -> Option<u8> {
        self.mapped.contains(&addr).then(|| self.bytes.get(&addr).copied().unwrap_or(0))
    }
}

/// An address near an edge: a page boundary of a window, or an edge of a
/// mapped region or of the code region, moved by up to 9 bytes either way.
fn near_edge(rng: &mut TestRng, edges: &[u32]) -> u32 {
    let anchor = if edges.is_empty() || rng.below(2) == 0 {
        let (lo, hi) = WINDOWS[rng.below(WINDOWS.len() as u64) as usize];
        let pages = (hi - lo) / PAGE_SIZE + 1;
        lo.wrapping_add(rng.below(pages as u64) as u32 * PAGE_SIZE)
    } else {
        edges[rng.below(edges.len() as u64) as usize]
    };
    anchor.wrapping_add(rng.below(19) as u32).wrapping_sub(9)
}

/// A range starting near an edge that stays inside the address space.
fn range(rng: &mut TestRng, edges: &[u32], max_len: u32) -> (u32, u32) {
    let start = near_edge(rng, edges).min(u32::MAX - 1);
    let len = (1 + rng.below(max_len as u64) as u32).min(u32::MAX - start);
    (start, len)
}

fn op(rng: &mut TestRng, edges: &[u32]) -> Op {
    let size = [1u8, 2, 4, 8][rng.below(4) as usize];
    match rng.below(10) {
        0 | 1 => {
            let (s, l) = range(rng, edges, 0x1800);
            Op::Map(s, l)
        }
        2 => {
            let (s, l) = range(rng, edges, 0x800);
            Op::Unmap(s, l)
        }
        3 => {
            let (s, l) = range(rng, edges, 0x1200);
            Op::SetCode(s, l)
        }
        4..=6 => {
            let kind = [AccessKind::Read, AccessKind::Fetch][rng.below(2) as usize];
            Op::Read(near_edge(rng, edges), size, kind)
        }
        _ => Op::Write(near_edge(rng, edges), size, rng.next_u64()),
    }
}

/// Every region edge and code-region edge, for clustering accesses.
fn edges(mem: &Memory, model: &Model) -> Vec<u32> {
    let mut e: Vec<u32> = mem.regions().flat_map(|(s, e)| [s, e]).collect();
    e.extend(model.code.iter().flat_map(|&(s, e)| [s, e]));
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn page_granular_memory_matches_the_byte_map(seed in any::<u64>()) {
        let mut rng = TestRng::from_case(seed as u32);
        let (mut mem, mut model) = (Memory::new(), Model::default());
        // Start with one region per window so accesses mostly land mapped.
        for &(lo, _) in &WINDOWS {
            let s = lo.wrapping_add(rng.below(0x40) as u32);
            let l = 0x1000 + rng.below(0x800) as u32;
            mem.map(s, l);
            model.map(s, l);
        }
        for step in 0..160 {
            let op = op(&mut rng, &edges(&mem, &model));
            match op {
                Op::Map(s, l) => {
                    mem.map(s, l);
                    model.map(s, l);
                }
                Op::Unmap(s, l) => {
                    mem.unmap(s, l);
                    model.unmap(s, l);
                }
                Op::SetCode(s, l) => {
                    mem.set_code_region(s, l);
                    model.set_code(s, l);
                }
                Op::Read(a, size, kind) => {
                    let (got, want) = (mem.read(a, size, kind), model.read(a, size, kind));
                    prop_assert_eq!(got, want, "step {step}: {op:?}");
                }
                Op::Write(a, size, v) => {
                    let (got, want) = (mem.write(a, size, v), model.write(a, size, v));
                    prop_assert_eq!(got, want, "step {step}: {op:?}");
                    // The bytes around the write, those before a fault included.
                    for b in (0..24u32).map(|k| a.wrapping_sub(8).wrapping_add(k)) {
                        let got = mem.read_u8(b, AccessKind::Read).ok();
                        prop_assert_eq!(got, model.byte(b), "step {step}: {op:?}, byte {b:#x}");
                    }
                }
            }
            prop_assert_eq!(mem.code_generation(), model.generation, "step {step}: {op:?}");
        }
        // Every byte of every window at the end.
        for &(lo, hi) in &WINDOWS {
            for b in lo..hi {
                let got = mem.read_u8(b, AccessKind::Read).ok();
                prop_assert_eq!(got, model.byte(b), "byte {b:#x}");
            }
        }
    }
}
