//! Symbolic execution states.

use std::collections::{HashMap, VecDeque};

use ddt_expr::{Assignment, Expr, SymId};
use ddt_isa::Reg;
use ddt_solver::PathCondition;
use serde::{Deserialize, Serialize};

use crate::mem::SymMemory;
use crate::trace::{Trace, TraceEvent};

/// Per-path allocator of symbol ids.
///
/// Forking copies the counter by value, so every path numbers its symbols
/// by its own creation order. Two sibling paths may therefore use the same
/// `SymId` for different symbols — that is safe because nothing ever mixes
/// expressions across paths: constraints, models, and traces are all
/// per-state, and the solver layer (including the shared query cache) is
/// purely structural. What the per-path numbering buys is determinism: a
/// path replayed from its decision schedule allocates byte-identical ids,
/// which is what makes checkpointed frontier states reconstructible and
/// resumed reports bit-equal to uninterrupted ones.
#[derive(Clone, Debug, Default)]
pub struct SymCounter(u32);

impl SymCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> SymCounter {
        SymCounter::default()
    }

    /// Allocates the next id.
    #[allow(clippy::should_implement_trait)] // Not an iterator: an id well.
    pub fn next(&mut self) -> SymId {
        let id = SymId(self.0);
        self.0 += 1;
        id
    }

    /// Number of ids allocated so far on this path.
    pub fn allocated(&self) -> u32 {
        self.0
    }
}

/// Where a symbolic value came from (provenance, §3.6: traces "identify on
/// what symbolic values the condition depended ... why they were created").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SymOrigin {
    /// A read from a symbolic hardware register (MMIO).
    HardwareRead {
        /// The MMIO address.
        addr: u32,
    },
    /// A read from a symbolic hardware I/O port.
    PortRead {
        /// The port number.
        port: u32,
    },
    /// An entry-point argument made symbolic by DDT.
    EntryArg {
        /// Entry point name.
        entry: String,
        /// Argument index.
        index: usize,
    },
    /// A value injected by an API annotation (§3.4.1).
    Annotation {
        /// The annotated kernel API.
        api: String,
    },
    /// A registry / configuration parameter.
    Registry {
        /// Parameter name.
        name: String,
    },
    /// Other (test fixtures, internal).
    Other,
}

/// Provenance record for one symbol.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolInfo {
    /// Human-readable label ("registry:MaximumMulticastList").
    pub label: String,
    /// Structured origin.
    pub origin: SymOrigin,
    /// Width in bits.
    pub width: u32,
}

/// Per-state symbol provenance table.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    info: HashMap<SymId, SymbolInfo>,
}

impl SymbolTable {
    /// Records a new symbol.
    pub fn insert(&mut self, id: SymId, info: SymbolInfo) {
        self.info.insert(id, info);
    }

    /// Looks up a symbol.
    pub fn get(&self, id: SymId) -> Option<&SymbolInfo> {
        self.info.get(&id)
    }

    /// Iterates all known symbols.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, &SymbolInfo)> {
        self.info.iter().map(|(&k, v)| (k, v))
    }

    /// Number of symbols recorded.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    /// True if no symbols were recorded.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }
}

/// A log entry for an on-demand concretization (§3.2), kept so DDT can
/// backtrack to the concretization point and re-issue the kernel call with
/// a different feasible value.
#[derive(Clone, Debug)]
pub struct Concretization {
    /// The symbolic expression that was concretized.
    pub expr: Expr,
    /// The concrete value chosen.
    pub value: u32,
    /// Program counter at the concretization point.
    pub pc: u32,
}

/// A memory region the driver is permitted to access, with provenance.
///
/// DDT's VM-level memory checker (§3.1.1) verifies every driver access
/// against the union of granted regions. Grants change as the kernel hands
/// resources to the driver and fork with the state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrantRegion {
    /// First granted address.
    pub start: u32,
    /// One past the last granted address.
    pub end: u32,
    /// Why the driver may touch this ("driver image", "pool alloc", ...).
    pub label: String,
}

/// The per-path set of granted regions.
#[derive(Clone, Debug, Default)]
pub struct GrantSet {
    regions: Vec<GrantRegion>,
}

impl GrantSet {
    /// Grants `[start, start+len)`.
    pub fn grant(&mut self, start: u32, len: u32, label: impl Into<String>) {
        if len == 0 {
            return;
        }
        self.regions.push(GrantRegion { start, end: start + len, label: label.into() });
    }

    /// Revokes any grant exactly starting at `start` (resource freed).
    pub fn revoke_at(&mut self, start: u32) {
        self.regions.retain(|r| r.start != start);
    }

    /// True if the concrete range `[addr, addr+len)` lies inside one grant.
    pub fn contains_range(&self, addr: u32, len: u32) -> bool {
        let Some(end) = addr.checked_add(len) else { return false };
        self.regions.iter().any(|r| addr >= r.start && end <= r.end)
    }

    /// Iterates the granted regions.
    pub fn iter(&self) -> impl Iterator<Item = &GrantRegion> {
        self.regions.iter()
    }

    /// Number of granted regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if no regions are granted.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The label of the grant containing `addr`, if any.
    pub fn label_of(&self, addr: u32) -> Option<&str> {
        self.regions
            .iter()
            .find(|r| addr >= r.start && addr < r.end)
            .map(|r| r.label.as_str())
    }
}

/// The symbolic CPU: 32-bit expressions in each register, concrete pc.
#[derive(Clone, Debug)]
pub struct SymCpu {
    /// General-purpose registers.
    pub regs: [Expr; 16],
    /// Program counter (always concrete: branches fork rather than going
    /// symbolic).
    pub pc: u32,
}

impl Default for SymCpu {
    fn default() -> Self {
        SymCpu { regs: std::array::from_fn(|_| Expr::constant(0, 32)), pc: 0 }
    }
}

impl SymCpu {
    /// Reads a register.
    pub fn get(&self, r: Reg) -> Expr {
        self.regs[r.index()].clone()
    }

    /// Writes a register.
    ///
    /// # Panics
    ///
    /// Panics if the value is not 32 bits wide.
    pub fn set(&mut self, r: Reg, v: Expr) {
        assert_eq!(v.width(), 32, "registers hold 32-bit values");
        self.regs[r.index()] = v;
    }

    /// Sets a register to a concrete value.
    pub fn set_u32(&mut self, r: Reg, v: u32) {
        self.regs[r.index()] = Expr::constant(v as u64, 32);
    }
}

/// One symbolic execution state — conceptually a complete system snapshot
/// (§4.1.2). The kernel-side state (pools, locks, timers) is attached by
/// `ddt-core`, which wraps this in its own machine structure.
#[derive(Clone, Debug)]
pub struct SymState {
    /// CPU.
    pub cpu: SymCpu,
    /// Memory.
    pub mem: SymMemory,
    /// Path constraints (all 1-bit expressions; the path condition is their
    /// conjunction), kept as their independence components so that a query
    /// starts from the partition and a fork shares it.
    pub constraints: PathCondition,
    /// Provenance of every symbol created on this path.
    pub symbols: SymbolTable,
    /// Concretization log for backtracking (§3.2).
    pub concretizations: Vec<Concretization>,
    /// Memory regions the driver may legally access (checker policy data).
    pub grants: GrantSet,
    /// Execution trace.
    pub trace: Trace,
    /// Per-path symbol id allocator (copied by value on fork).
    pub counter: SymCounter,
    /// Instructions executed on this path.
    pub insns_retired: u64,
    /// State generation: 0 for the root, +1 per fork (diagnostics).
    pub generation: u32,
    /// Fork alternatives produced mid-instruction (multi-way address
    /// resolution); the exploration driver drains these after each step.
    pub pending_forks: Vec<SymState>,
    /// A satisfying model of the current path condition, when known
    /// (model reuse: most feasibility checks and concretizations are
    /// answered by evaluating this model instead of calling the solver).
    /// Invariant: when `Some`, the model (with absent symbols read as 0)
    /// satisfies every constraint in `constraints`.
    pub last_model: Option<Assignment>,
    /// Escalation-lift pins for hardware reads (hybrid fuzzing): each
    /// hardware symbol created while this queue is non-empty is immediately
    /// constrained equal to the popped value, so the symbolic path retraces
    /// a concrete fuzz execution up to the lift point and explores freely
    /// beyond it. Remaining pins propagate to forks.
    pub hw_pins: VecDeque<u64>,
    /// Escalation-lift pins for labeled kernel-boundary symbols (packet
    /// bytes, OIDs, registry values), consumed per-label in order.
    pub label_pins: HashMap<String, VecDeque<u64>>,
}

impl SymState {
    /// Creates a root state.
    pub fn new(counter: SymCounter) -> SymState {
        SymState {
            cpu: SymCpu::default(),
            mem: SymMemory::new(),
            constraints: PathCondition::new(),
            symbols: SymbolTable::default(),
            concretizations: Vec::new(),
            grants: GrantSet::default(),
            trace: Trace::new(),
            counter,
            insns_retired: 0,
            generation: 0,
            pending_forks: Vec::new(),
            // The empty model satisfies the empty path condition.
            last_model: Some(Assignment::new()),
            hw_pins: VecDeque::new(),
            label_pins: HashMap::new(),
        }
    }

    /// Forks the state (chained COW for memory and trace; cheap clones for
    /// the rest).
    pub fn fork(&mut self) -> SymState {
        SymState {
            cpu: self.cpu.clone(),
            mem: self.mem.fork(),
            constraints: self.constraints.clone(),
            symbols: self.symbols.clone(),
            concretizations: self.concretizations.clone(),
            grants: self.grants.clone(),
            trace: self.trace.fork(),
            counter: self.counter.clone(),
            insns_retired: self.insns_retired,
            generation: self.generation + 1,
            // Pending alternatives stay with the parent path.
            pending_forks: Vec::new(),
            last_model: self.last_model.clone(),
            hw_pins: self.hw_pins.clone(),
            label_pins: self.label_pins.clone(),
        }
    }

    /// Creates a fresh symbol with provenance, recording the trace event.
    ///
    /// If an escalation pin is queued for this symbol's source (hardware
    /// queue for MMIO/port reads, per-label queue otherwise), the symbol is
    /// constrained equal to the pinned concrete value at creation.
    pub fn new_symbol(&mut self, label: impl Into<String>, origin: SymOrigin, width: u32) -> Expr {
        let id = self.counter.next();
        let label = label.into();
        let pin = match origin {
            SymOrigin::HardwareRead { .. } | SymOrigin::PortRead { .. } => {
                self.hw_pins.pop_front()
            }
            _ => self.label_pins.get_mut(&label).and_then(|q| q.pop_front()),
        };
        self.symbols.insert(id, SymbolInfo { label: label.clone(), origin: origin.clone(), width });
        self.trace.push(TraceEvent::SymCreate { id, label, origin, width });
        let e = Expr::sym(id, width);
        if let Some(v) = pin {
            let v = if width >= 64 { v } else { v & ((1u64 << width) - 1) };
            // A brand-new symbol cannot appear in older constraints, so
            // extending the cached model keeps it satisfying — no solver
            // round-trip during an escalation replay.
            if let Some(m) = &mut self.last_model {
                m.set(id, v);
            }
            self.add_constraint(e.eq(&Expr::constant(v, width)));
        }
        e
    }

    /// Adds a path constraint, keeping the cached model honest: if the
    /// model no longer satisfies the constraint, it is dropped (a solver
    /// call will replace it when next needed).
    ///
    /// # Panics
    ///
    /// Panics if the constraint is not boolean.
    pub fn add_constraint(&mut self, c: Expr) {
        assert_eq!(c.width(), 1, "path constraints are boolean");
        if c.is_true() {
            return;
        }
        self.keep_model_honest(&c);
        self.constraints.push(c);
    }

    /// Adds `c` by adopting `extended`, the path condition a solver query
    /// built as this state's with `c` pushed, so `c` is partitioned once.
    /// The model is kept honest as [`SymState::add_constraint`] keeps it.
    pub fn adopt_constraint(&mut self, extended: PathCondition, c: &Expr) {
        debug_assert_eq!(extended, self.constraints.with(c.clone()), "not this path's extension");
        self.keep_model_honest(c);
        self.constraints = extended;
    }

    fn keep_model_honest(&mut self, c: &Expr) {
        if let Some(m) = &self.last_model {
            if !c.eval_bool(m) {
                self.last_model = None;
            }
        }
    }

    /// Evaluates `e` under the cached model, if one is present.
    pub fn model_eval(&self, e: &Expr) -> Option<u64> {
        self.last_model.as_ref().map(|m| e.eval(m))
    }

    /// Installs a fresh satisfying model (from a solver call).
    pub fn set_model(&mut self, m: Assignment) {
        debug_assert!(
            !self.constraints.is_unsat() && self.constraints.iter().all(|c| c.eval_bool(&m)),
            "installed model must satisfy the path condition"
        );
        self.last_model = Some(m);
    }

    /// Records a concretization: constrains `expr == value` and logs it.
    pub fn record_concretization(&mut self, expr: Expr, value: u32) {
        self.constraints.push(expr.eq(&Expr::constant(value as u64, expr.width())));
        self.trace.push(TraceEvent::Concretize { pc: self.cpu.pc, expr: expr.clone(), value: value as u64 });
        self.concretizations.push(Concretization { expr, value, pc: self.cpu.pc });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_pins_constrain_new_symbols() {
        let mut st = SymState::new(SymCounter::new());
        st.hw_pins.extend([0xabcd, 0x1]);
        st.label_pins.insert("packet_len".into(), [60u64].into());
        let h1 = st.new_symbol("hw:mmio[0x0]", SymOrigin::HardwareRead { addr: 0 }, 32);
        let h2 = st.new_symbol("hw:port[0x10]", SymOrigin::PortRead { port: 0x10 }, 32);
        let pl = st.new_symbol("packet_len", SymOrigin::Annotation { api: "x".into() }, 32);
        // Unpinned: no matching label queue, hardware queue drained.
        let free = st.new_symbol("hw:mmio[0x4]", SymOrigin::HardwareRead { addr: 4 }, 32);
        assert_eq!(st.constraints.len(), 3, "three pins, three equality constraints");
        let m = st.last_model.clone().expect("pinned constraints are satisfiable");
        assert_eq!(h1.eval(&m), 0xabcd);
        assert_eq!(h2.eval(&m), 0x1);
        assert_eq!(pl.eval(&m), 60);
        assert_eq!(free.eval(&m), 0, "unpinned symbol is unconstrained");
        // Pins survive forks: a child created mid-lift keeps the queues.
        let mut parent = SymState::new(SymCounter::new());
        parent.hw_pins.push_back(7);
        let mut child = parent.fork();
        let c = child.new_symbol("hw:mmio[0x0]", SymOrigin::HardwareRead { addr: 0 }, 32);
        assert_eq!(child.model_eval(&c), Some(7));
    }

    #[test]
    fn counter_is_per_path_and_deterministic() {
        // Sibling paths allocate ids independently: each numbers symbols by
        // its own creation order, so a replayed path reproduces the exact
        // ids of the original. Aliasing across siblings is harmless —
        // constraints, models, and traces never mix across states.
        let mut a = SymState::new(SymCounter::new());
        let before = a.counter.allocated();
        let mut b = a.fork();
        let s1 = a.new_symbol("a", SymOrigin::Other, 32);
        let s2 = b.new_symbol("b", SymOrigin::Other, 32);
        assert_eq!(s1, Expr::sym(SymId(before), 32));
        assert_eq!(s2, Expr::sym(SymId(before), 32), "sibling numbering is independent");
        assert_eq!(a.counter.allocated(), before + 1);
        assert_eq!(b.counter.allocated(), before + 1);
    }

    #[test]
    fn fork_isolates_constraints_and_regs() {
        let mut a = SymState::new(SymCounter::new());
        a.cpu.set_u32(Reg(0), 1);
        let mut b = a.fork();
        b.cpu.set_u32(Reg(0), 2);
        b.add_constraint(Expr::false_());
        assert_eq!(a.cpu.get(Reg(0)).as_const(), Some(1));
        assert_eq!(b.cpu.get(Reg(0)).as_const(), Some(2));
        assert!(a.constraints.is_empty());
        assert_eq!(b.constraints.len(), 1);
        assert_eq!(b.generation, 1);
    }

    #[test]
    fn true_constraints_are_dropped() {
        let mut s = SymState::new(SymCounter::new());
        s.add_constraint(Expr::true_());
        assert!(s.constraints.is_empty());
    }

    #[test]
    fn concretization_is_logged_and_constrained() {
        let mut s = SymState::new(SymCounter::new());
        let x = s.new_symbol("hw", SymOrigin::HardwareRead { addr: 0x8000_0000 }, 32);
        s.record_concretization(x.clone(), 42);
        assert_eq!(s.concretizations.len(), 1);
        assert_eq!(s.concretizations[0].value, 42);
        let c = x.eq(&Expr::constant(42, 32));
        assert_eq!(s.concretizations[0].expr, x);
        assert_eq!(s.constraints.iter().collect::<Vec<_>>(), vec![&c]);
        // Trace carries both events.
        let evs = s.trace.events();
        assert!(matches!(evs[0], TraceEvent::SymCreate { .. }));
        assert!(matches!(evs[1], TraceEvent::Concretize { value: 42, .. }));
    }

    #[test]
    fn symbol_table_records_provenance() {
        let mut s = SymState::new(SymCounter::new());
        let x = s.new_symbol("registry:MaxList", SymOrigin::Registry { name: "MaxList".into() }, 32);
        let id = match x.node() {
            ddt_expr::NodeView::Sym { id, .. } => id,
            _ => panic!(),
        };
        let info = s.symbols.get(id).unwrap();
        assert_eq!(info.label, "registry:MaxList");
        assert_eq!(info.origin, SymOrigin::Registry { name: "MaxList".into() });
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use ddt_expr::Expr;

    #[test]
    fn root_state_has_the_empty_model() {
        let s = SymState::new(SymCounter::new());
        assert!(s.last_model.is_some());
        assert_eq!(s.model_eval(&Expr::constant(7, 32)), Some(7));
    }

    #[test]
    fn satisfied_constraints_keep_the_model() {
        let mut s = SymState::new(SymCounter::new());
        let x = s.new_symbol("x", SymOrigin::Other, 32);
        // x == 0 holds under the default-zero model extension.
        s.add_constraint(x.eq(&Expr::constant(0, 32)));
        assert!(s.last_model.is_some(), "model survives a satisfied constraint");
    }

    #[test]
    fn violated_constraints_drop_the_model() {
        let mut s = SymState::new(SymCounter::new());
        let x = s.new_symbol("x", SymOrigin::Other, 32);
        s.add_constraint(x.eq(&Expr::constant(5, 32)));
        assert!(s.last_model.is_none(), "stale model must be invalidated");
        // Installing a correct model restores model_eval.
        let mut m = ddt_expr::Assignment::new();
        if let ddt_expr::NodeView::Sym { id, .. } = x.node() {
            m.set(id, 5);
        }
        s.set_model(m);
        assert_eq!(s.model_eval(&x), Some(5));
    }

    #[test]
    fn forked_state_inherits_the_model() {
        let mut s = SymState::new(SymCounter::new());
        let x = s.new_symbol("x", SymOrigin::Other, 32);
        s.add_constraint(x.eq(&Expr::constant(0, 32))); // Keeps zero model.
        let child = s.fork();
        assert!(child.last_model.is_some());
    }

    #[test]
    fn grant_set_operations() {
        let mut g = GrantSet::default();
        g.grant(0x100, 0x40, "a");
        g.grant(0x200, 0x10, "b");
        assert!(g.contains_range(0x100, 0x40));
        assert!(g.contains_range(0x13c, 4));
        assert!(!g.contains_range(0x13d, 4), "straddles the end");
        assert!(!g.contains_range(0x150, 4), "between grants");
        assert_eq!(g.label_of(0x205), Some("b"));
        g.revoke_at(0x100);
        assert!(!g.contains_range(0x100, 4));
        assert_eq!(g.len(), 1);
        // Zero-length grants are ignored.
        g.grant(0x300, 0, "zero");
        assert_eq!(g.len(), 1);
    }
}
