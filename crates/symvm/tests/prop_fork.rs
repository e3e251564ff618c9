//! Property test of forking a symbolic state against deep copies.
//!
//! A fork shares what it can: memory layers, the region map (copied by the
//! first `map` or `unmap` that changes it), the frozen trace segments and
//! the path condition's components. The continuing side's trace tail keeps
//! room for the events it is about to log. None of that may leak between
//! states. The reference model below copies everything on every fork.
//! Random sequences of `map`/`unmap` (no-op unmaps and unmaps that reach
//! past the top of the address space included), byte writes, `grant` and
//! `revoke_at`, `new_symbol` and trace pushes are run on a pool of states
//! and their forks. Every state's regions, bytes, grants, trace (`events`,
//! `tail`, `iter_from`, `iter_rev`, `len`) and the provenance of every
//! symbol, as the trace records it, must equal its model's.

use std::collections::{BTreeSet, HashMap};

use ddt_expr::{Expr, NodeView, SymId};
use ddt_symvm::{SymCounter, SymOrigin, SymState, Trace, TraceEvent};
use proptest::prelude::*;

/// Address windows the sequences touch: low memory and the top of the
/// address space.
const WINDOWS: [(u32, u32); 2] = [(0x1000, 0x3000), (0xffff_e000, 0xffff_ffff)];

const LABELS: [&str; 3] = ["driver image", "pool alloc", "packet data"];

#[derive(Clone, Debug)]
enum Op {
    Fork(usize),
    Drop(usize),
    Map(usize, u32, u32),
    Unmap(usize, u32, u32),
    Write(usize, u32, u8),
    WriteSym(usize, u32),
    Grant(usize, u32, u32, &'static str),
    Revoke(usize, u32),
    NewSymbol(usize, u8),
    Push(usize, u32),
}

/// One state, copied in full on every fork.
#[derive(Clone, Default)]
struct Model {
    mapped: BTreeSet<u32>,
    bytes: HashMap<u32, Expr>,
    grants: Vec<(u32, u32, &'static str)>,
    events: Vec<TraceEvent>,
    symbols: Vec<(SymId, String, SymOrigin)>,
}

impl Model {
    /// `[start, start + len)` clipped to the address space.
    fn span(start: u32, len: u32) -> std::ops::RangeInclusive<u32> {
        let last = (u64::from(start) + u64::from(len) - 1).min(u64::from(u32::MAX));
        start..=last as u32
    }

    /// Maximal runs of mapped bytes, as `(start, end)` with `end`
    /// exclusive: the region map merges touching regions.
    fn regions(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for &a in &self.mapped {
            match out.last_mut() {
                Some((_, e)) if *e == a => *e = a + 1,
                _ => out.push((a, a + 1)),
            }
        }
        out
    }

    fn byte(&self, addr: u32) -> Expr {
        self.bytes.get(&addr).cloned().unwrap_or_else(|| Expr::constant(0, 8))
    }
}

fn sym_id(e: &Expr) -> SymId {
    match e.node() {
        NodeView::Sym { id, .. } => id,
        _ => unreachable!("new_symbol returns a symbol"),
    }
}

/// An address near a window's edges or a region's edges.
fn addr(rng: &mut TestRng, edges: &[u32]) -> u32 {
    let anchor = if edges.is_empty() || rng.below(2) == 0 {
        let (lo, hi) = WINDOWS[rng.below(WINDOWS.len() as u64) as usize];
        lo + rng.below(u64::from(hi - lo)) as u32
    } else {
        edges[rng.below(edges.len() as u64) as usize]
    };
    anchor.wrapping_add(rng.below(9) as u32).wrapping_sub(4)
}

fn op(rng: &mut TestRng, states: usize, edges: &[u32]) -> Op {
    let s = rng.below(states as u64) as usize;
    match rng.below(20) {
        0 | 1 => Op::Fork(s),
        2 => Op::Drop(s),
        3 | 4 => {
            // `map` takes ranges that end inside the address space.
            let start = addr(rng, edges).min(u32::MAX - 1);
            let len = (1 + rng.below(0x300) as u32).min(u32::MAX - start);
            Op::Map(s, start, len)
        }
        5 | 6 => {
            // Unmaps may reach past the top, or touch nothing mapped.
            let start = addr(rng, edges);
            let len = match rng.below(4) {
                0 => u32::MAX - rng.below(0x100) as u32,
                _ => 1 + rng.below(0x200) as u32,
            };
            Op::Unmap(s, start, len)
        }
        7 | 8 => Op::Write(s, addr(rng, edges), rng.next_u32() as u8),
        9 => Op::WriteSym(s, addr(rng, edges)),
        10 => {
            let start = addr(rng, edges).min(u32::MAX - 0x100);
            let len = rng.below(0x100) as u32;
            Op::Grant(s, start, len, LABELS[rng.below(3) as usize])
        }
        11 => Op::Revoke(s, addr(rng, edges)),
        12 | 13 => Op::NewSymbol(s, rng.below(4) as u8),
        _ => Op::Push(s, 1 + rng.below(40) as u32),
    }
}

fn origin(kind: u8, n: u32) -> (String, SymOrigin) {
    match kind {
        0 => (format!("hw{n:#x}"), SymOrigin::HardwareRead { addr: n }),
        1 => (format!("registry:P{n}"), SymOrigin::Registry { name: format!("P{n}") }),
        2 => (
            format!("Send:arg{n}"),
            SymOrigin::EntryArg { entry: "Send".into(), index: n as usize },
        ),
        _ => (format!("api{n}"), SymOrigin::Annotation { api: format!("Api{n}") }),
    }
}

/// Compares every observable of `st` with its model.
fn check(
    st: &mut SymState,
    model: &Model,
    rng: &mut TestRng,
    what: &str,
) -> Result<(), TestCaseError> {
    let regions: Vec<(u32, u32)> = st.mem.regions().collect();
    prop_assert_eq!(&regions, &model.regions(), "{}: regions", what);
    for &(lo, hi) in &WINDOWS {
        for _ in 0..48 {
            let a = lo + rng.below(u64::from(hi - lo) + 1) as u32;
            prop_assert_eq!(
                st.mem.is_mapped(a),
                model.mapped.contains(&a),
                "{}: mapped {:#x}",
                what,
                a
            );
        }
    }
    for (&a, e) in &model.bytes {
        prop_assert_eq!(&st.mem.read_byte(a), e, "{}: byte {:#x}", what, a);
    }
    for _ in 0..16 {
        let a = addr(rng, &[]);
        prop_assert_eq!(st.mem.read_byte(a), model.byte(a), "{}: byte {:#x}", what, a);
    }
    let grants: Vec<(u32, u32, &'static str)> =
        st.grants.iter().map(|g| (g.start, g.end, g.label)).collect();
    prop_assert_eq!(&grants, &model.grants, "{}: grants", what);

    let t: &Trace = &st.trace;
    prop_assert_eq!(t.len(), model.events.len(), "{}: len", what);
    prop_assert_eq!(&t.events(), &model.events, "{}: events", what);
    let n = rng.below(model.events.len() as u64 + 3) as usize;
    let from = model.events.len().saturating_sub(n);
    prop_assert_eq!(&t.tail(n), &model.events[from..].to_vec(), "{}: tail({})", what, n);
    let start = rng.below(model.events.len() as u64 + 3) as usize;
    let fwd: Vec<&TraceEvent> = t.iter_from(start).collect();
    let want: Vec<&TraceEvent> = model.events.iter().skip(start).collect();
    prop_assert_eq!(fwd, want, "{}: iter_from({})", what, start);
    let rev: Vec<&TraceEvent> = t.iter_rev().collect();
    let want: Vec<&TraceEvent> = model.events.iter().rev().collect();
    prop_assert_eq!(rev, want, "{}: iter_rev", what);

    // Provenance of every symbol this path made, asked in a shuffled
    // order together with ids it never made.
    let mut ids: Vec<SymId> = model.symbols.iter().map(|(id, ..)| *id).collect();
    ids.push(SymId(st.counter.allocated()));
    ids.push(SymId(st.counter.allocated() + 7));
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let got = t.provenance(&ids);
    for (id, found) in ids.iter().zip(got) {
        let want = model.symbols.iter().find(|(s, ..)| s == id).map(|(_, l, o)| (l.as_str(), o));
        prop_assert_eq!(found, want, "{}: provenance of {:?}", what, id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forks_match_deep_copies(seed in any::<u64>()) {
        let mut rng = TestRng::from_case(seed as u32);
        let mut states = vec![SymState::new(SymCounter::new())];
        let mut models = vec![Model::default()];
        let mut pc = 0x40_0000u32;
        for step in 0..120 {
            let edges: Vec<u32> =
                models.iter().flat_map(Model::regions).flat_map(|(s, e)| [s, e]).collect();
            let op = op(&mut rng, states.len(), &edges);
            let what = format!("step {step}: {op:?}");
            match op {
                Op::Fork(i) => {
                    let child = states[i].fork();
                    states.push(child);
                    models.push(models[i].clone());
                }
                Op::Drop(i) => {
                    if states.len() > 1 {
                        states.swap_remove(i);
                        models.swap_remove(i);
                    }
                }
                Op::Map(i, s, l) => {
                    states[i].mem.map(s, l);
                    models[i].mapped.extend(Model::span(s, l));
                }
                Op::Unmap(i, s, l) => {
                    states[i].mem.unmap(s, l);
                    let gone: Vec<u32> =
                        models[i].mapped.range(Model::span(s, l)).copied().collect();
                    for a in gone {
                        models[i].mapped.remove(&a);
                    }
                }
                Op::Write(i, a, b) => {
                    let e = Expr::constant(u64::from(b), 8);
                    states[i].mem.write_byte(a, e.clone());
                    models[i].bytes.insert(a, e);
                }
                Op::WriteSym(i, a) => {
                    // The newest symbol's low byte, or a constant before any.
                    let e = match models[i].symbols.last() {
                        Some((id, ..)) => Expr::sym(*id, 32).extract(7, 0),
                        None => Expr::constant(0x5a, 8),
                    };
                    states[i].mem.write_byte(a, e.clone());
                    models[i].bytes.insert(a, e);
                }
                Op::Grant(i, s, l, label) => {
                    states[i].grants.grant(s, l, label);
                    if l > 0 {
                        models[i].grants.push((s, s + l, label));
                    }
                }
                Op::Revoke(i, s) => {
                    // Aim at an existing grant half of the time.
                    let s = match models[i].grants.first() {
                        Some(&(gs, ..)) if step % 2 == 0 => gs,
                        _ => s,
                    };
                    states[i].grants.revoke_at(s);
                    models[i].grants.retain(|g| g.0 != s);
                }
                Op::NewSymbol(i, kind) => {
                    let (label, origin) = origin(kind, states[i].counter.allocated());
                    let e = states[i].new_symbol(label.clone(), origin.clone(), 32);
                    let id = sym_id(&e);
                    models[i].events.push(TraceEvent::SymCreate {
                        id,
                        label: label.clone(),
                        origin: origin.clone(),
                        width: 32,
                    });
                    models[i].symbols.push((id, label, origin));
                }
                Op::Push(i, n) => {
                    // A run of instructions, with a fork of the trace alone
                    // in the middle of some: the continuing side's tail was
                    // sized by the fork, the forked copy starts empty.
                    for k in 0..n {
                        pc += 8;
                        let ev = TraceEvent::Exec { pc };
                        states[i].trace.push(ev.clone());
                        models[i].events.push(ev);
                        if k == n / 2 && n % 3 == 0 {
                            let mut copy = states[i].trace.fork();
                            let want = models[i].events.clone();
                            prop_assert_eq!(copy.events(), want, "{}: trace fork", &what);
                            copy.push(TraceEvent::Exec { pc: 1 });
                            prop_assert_eq!(copy.len(), models[i].events.len() + 1, "{}", &what);
                        }
                    }
                }
            }
            for (k, (st, model)) in states.iter_mut().zip(&models).enumerate() {
                check(st, model, &mut rng, &format!("{what}, state {k}"))?;
            }
        }
    }
}
