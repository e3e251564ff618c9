//! The DDT execution state: symbolic machine + kernel snapshot + schedule.
//!
//! "Each execution state consists conceptually of a complete system
//! snapshot" (§4.1.2): forking a [`Machine`] forks the symbolic CPU/memory
//! (chained COW), the kernel state (pools, locks, timers, registry), the
//! invocation stack, and the decision schedule.

use ddt_expr::Expr;
use ddt_isa::Reg;
use ddt_kernel::{
    EntryInvocation, //
    ExecContext,
    FaultFamily,
    Host,
    HostError,
    Irql,
    Kernel,
};
use ddt_solver::Solver;
use ddt_symvm::{SymOrigin, SymState};
use ddt_trace::{fnv1a64, fnv1a64_extend, MachineFingerprint, PathPick, SiteKind};

use crate::report::Decision;
use std::sync::Arc;

/// Saved CPU + kernel execution context for nested invocations (interrupt
/// and timer delivery).
#[derive(Clone, Debug)]
pub struct SavedCtx {
    /// Register file at the preemption point.
    pub regs: [Expr; 16],
    /// Program counter to resume at.
    pub pc: u32,
    /// IRQL to restore.
    pub irql: Irql,
    /// Execution context to restore.
    pub context: ExecContext,
}

/// One entry on the invocation stack.
#[derive(Clone, Debug)]
pub enum Frame {
    /// A top-level workload entry-point invocation.
    Entry {
        /// Entry point name.
        name: String,
        /// Locks held when the invocation started (a correct invocation
        /// must not return holding any *additional* lock).
        held_at_entry: Vec<u32>,
    },
    /// An injected interrupt: the ISR is running.
    Isr {
        /// Context to restore when the interrupt completes.
        saved: SavedCtx,
        /// The entry point that was interrupted.
        at_entry: String,
        /// Locks held at injection time (held by the interrupted code, not
        /// by the handler).
        held_at_entry: Vec<u32>,
    },
    /// The interrupt DPC (HandleInterrupt) is running.
    Dpc {
        /// Context to restore afterwards.
        saved: SavedCtx,
        /// The entry point that was interrupted.
        at_entry: String,
        /// Locks held when the DPC started.
        held_at_entry: Vec<u32>,
    },
    /// A fired timer callback is running.
    Timer {
        /// Context to restore afterwards.
        saved: SavedCtx,
        /// The entry point name at firing time.
        at_entry: String,
        /// Locks held when the callback started.
        held_at_entry: Vec<u32>,
    },
    /// The driver's PnP-notification callback is running (an injected
    /// device-lifecycle event: surprise removal or a power transition).
    Pnp {
        /// Which lifecycle event is being delivered.
        event: crate::report::LifecycleEvent,
        /// Context to restore afterwards.
        saved: SavedCtx,
        /// The entry point that was interrupted (or the entry name for
        /// workload-level delivery).
        at_entry: String,
        /// Locks held when the callback started.
        held_at_entry: Vec<u32>,
        /// Symbolic-trace length at handler entry; the resume-without-
        /// restore checker counts hardware writes from here.
        trace_mark: usize,
    },
}

impl Frame {
    /// Display name of the code this frame runs.
    pub fn running(&self) -> &str {
        match self {
            Frame::Entry { name, .. } => name,
            Frame::Isr { .. } => "Isr",
            Frame::Dpc { .. } => "HandleInterrupt",
            Frame::Timer { .. } => "TimerCallback",
            Frame::Pnp { event, .. } => event.invocation_name(),
        }
    }

    /// Locks that were already held when this frame started running.
    pub fn held_at_entry(&self) -> &[u32] {
        match self {
            Frame::Entry { held_at_entry, .. }
            | Frame::Isr { held_at_entry, .. }
            | Frame::Dpc { held_at_entry, .. }
            | Frame::Timer { held_at_entry, .. }
            | Frame::Pnp { held_at_entry, .. } => held_at_entry,
        }
    }

    /// The interrupted entry, for nested frames.
    pub fn interrupted(&self) -> Option<&str> {
        match self {
            Frame::Entry { .. } => None,
            Frame::Isr { at_entry, .. }
            | Frame::Dpc { at_entry, .. }
            | Frame::Timer { at_entry, .. }
            | Frame::Pnp { at_entry, .. } => Some(at_entry),
        }
    }
}

/// Base address of the exerciser's scratch window (packets, OID buffers).
pub const SCRATCH_BASE: u32 = 0x0300_0000;
/// Size of the scratch window.
pub const SCRATCH_SIZE: u32 = 0x10_0000;

/// One DDT execution state.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Symbolic machine state.
    pub st: SymState,
    /// Kernel snapshot.
    pub kernel: Kernel,
    /// Invocation stack (bottom = current workload entry).
    pub frames: Vec<Frame>,
    /// Next workload operation index.
    pub workload_pos: usize,
    /// Remaining symbolic-interrupt injections allowed on this path.
    pub interrupt_budget: u32,
    /// Remaining device-lifecycle injections allowed on this path (two, so
    /// a suspend→resume chain fits).
    pub lifecycle_budget: u32,
    /// Symbolic-trace length when the device was surprise-removed; the
    /// touch-after-remove checker scans hardware accesses from here and
    /// moves the mark past what it scanned.
    pub removed_trace_mark: Option<usize>,
    /// The last instruction those scans passed, if any.
    pub removed_last_pc: Option<u32>,
    /// True once touch-after-remove was reported on this path (report the
    /// first offending access only).
    pub touch_after_remove_reported: bool,
    /// Kernel calls made on this path (decision indexing).
    pub kernel_calls: u64,
    /// Kernel/driver boundary crossings on this path (decision indexing).
    pub boundaries: u64,
    /// Scheduling decisions taken on this path (for replay). Private so
    /// that every append goes through [`Machine::push_decision`], which
    /// keeps `decisions_fnv` in step.
    decisions: Vec<Decision>,
    /// Running FNV-1a state over the compact JSON of `decisions` without
    /// its closing `]`. Invariant: `fnv1a64_extend(decisions_fnv, b"]") ==
    /// fnv1a64(&serde_json::to_vec(&decisions))`, so the fingerprint never
    /// re-serializes the schedule.
    decisions_fnv: u64,
    /// Kernel events already scanned by the checkers.
    pub events_scanned: usize,
    /// Bump cursor inside the scratch window.
    pub scratch_cursor: u32,
    /// Instructions executed since the current entry invocation started.
    pub steps_in_entry: u64,
    /// Locks already reported as held-at-return on this path (collateral
    /// suppression as outer frames unwind).
    pub reported_held_locks: std::collections::BTreeSet<u32>,
    /// Fault families actually consumed on this path (the unchecked-failure
    /// checker compares these against the entry's return status).
    pub injected_faults: Vec<FaultFamily>,
    /// Choice log up to the last materialized child pick, root-most first.
    ///
    /// The exploration loop visits a sequence of *nondeterministic fork
    /// sites* on every path. At each site the parent continues as
    /// alternative 0 and each child takes a 1-based alternative. A
    /// machine's identity is exactly its pick at every site, so this log —
    /// run-lengths of "stayed parent" punctuated by materialized child
    /// picks — is a complete recipe for rebuilding the machine by steered
    /// re-execution from the root. Staying parent is O(1) and
    /// allocation-free (a `trailing_skips` bump); taking a child copies the
    /// log once (it holds a handful of picks). The log is immutable and
    /// shared between forks, so a checkpoint cut captures it with one
    /// `Arc` bump and copies it out as one contiguous block.
    pub picks: Arc<[PathPick]>,
    /// Fork sites at which this machine stayed parent since the last
    /// materialized pick.
    pub trailing_skips: u64,
    /// Exploration-loop steps executed on this machine (the replay stop
    /// point when the machine is reconstructed from a checkpoint).
    pub steps_total: u64,
    /// Blocks newly covered by this machine's most recent quantum (search
    /// metadata for the coverage-new-first strategy; not part of the
    /// machine's identity and excluded from [`Machine::fingerprint`]).
    pub cov_fresh: u64,
    /// Quantum sequence number at which `cov_fresh` was recorded (newer
    /// discoveries outrank stale ones).
    pub cov_stamp: u64,
    /// Unique id (diagnostics).
    pub id: u64,
}

impl Machine {
    /// Creates the root machine around a fresh symbolic state and kernel.
    pub fn new(st: SymState, kernel: Kernel) -> Machine {
        Machine {
            st,
            kernel,
            frames: Vec::new(),
            workload_pos: 0,
            interrupt_budget: 1,
            lifecycle_budget: 2,
            removed_trace_mark: None,
            removed_last_pc: None,
            touch_after_remove_reported: false,
            kernel_calls: 0,
            boundaries: 0,
            decisions: Vec::new(),
            decisions_fnv: fnv1a64(b"["),
            events_scanned: 0,
            scratch_cursor: SCRATCH_BASE,
            steps_in_entry: 0,
            reported_held_locks: std::collections::BTreeSet::new(),
            injected_faults: Vec::new(),
            picks: Arc::new([]),
            trailing_skips: 0,
            steps_total: 0,
            cov_fresh: 0,
            cov_stamp: 0,
            id: 0,
        }
    }

    /// Forks the machine (cheap: COW memory/trace, small clones elsewhere).
    pub fn fork(&mut self, new_id: u64) -> Machine {
        let st = self.st.fork();
        self.adopt(st, new_id)
    }

    /// Wraps a forked [`SymState`] produced by the interpreter into a full
    /// machine (used when `symvm` forks at a branch).
    pub fn adopt(&self, st: SymState, new_id: u64) -> Machine {
        Machine {
            st,
            kernel: self.kernel.clone(),
            frames: self.frames.clone(),
            workload_pos: self.workload_pos,
            interrupt_budget: self.interrupt_budget,
            lifecycle_budget: self.lifecycle_budget,
            removed_trace_mark: self.removed_trace_mark,
            removed_last_pc: self.removed_last_pc,
            touch_after_remove_reported: self.touch_after_remove_reported,
            kernel_calls: self.kernel_calls,
            boundaries: self.boundaries,
            decisions: self.decisions.clone(),
            decisions_fnv: self.decisions_fnv,
            events_scanned: self.events_scanned,
            scratch_cursor: self.scratch_cursor,
            steps_in_entry: self.steps_in_entry,
            reported_held_locks: self.reported_held_locks.clone(),
            injected_faults: self.injected_faults.clone(),
            picks: self.picks.clone(),
            trailing_skips: self.trailing_skips,
            steps_total: self.steps_total,
            cov_fresh: self.cov_fresh,
            cov_stamp: self.cov_stamp,
            id: new_id,
        }
    }

    /// The scheduling decisions taken on this path, oldest first.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Appends a scheduling decision, extending the running schedule hash
    /// by exactly the bytes the JSON array gains: a separating `,` (after
    /// the first element) and the decision's own compact JSON.
    pub fn push_decision(&mut self, d: Decision) {
        if !self.decisions.is_empty() {
            self.decisions_fnv = fnv1a64_extend(self.decisions_fnv, b",");
        }
        let json = serde_json::to_vec(&d).expect("decision serializes");
        self.decisions_fnv = fnv1a64_extend(self.decisions_fnv, &json);
        self.decisions.push(d);
    }

    /// Records that this machine stayed on the parent side of a fork site.
    /// O(1), allocation-free — called at *every* site a path visits.
    pub fn note_site(&mut self) {
        self.trailing_skips += 1;
    }

    /// Records that this machine took child alternative `pick` at a fork
    /// site of the given kind. Call on the freshly forked child *before*
    /// the parent's [`Machine::note_site`], so the child's skip run-length
    /// reflects the parent's count at the site.
    pub fn log_pick(&mut self, kind: SiteKind, pick: u32) {
        let taken = PathPick { skips: self.trailing_skips, kind, pick };
        self.picks = self.picks.iter().copied().chain([taken]).collect();
        self.trailing_skips = 0;
    }

    /// Validation fingerprint for checkpointed frontier records: replaying
    /// this machine's choice log from the root must land exactly here. O(1):
    /// the schedule hash only needs the closing `]` of the running state.
    pub fn fingerprint(&self) -> MachineFingerprint {
        MachineFingerprint {
            pc: self.st.cpu.pc,
            kernel_calls: self.kernel_calls,
            boundaries: self.boundaries,
            workload_pos: self.workload_pos as u64,
            interrupt_budget: self.interrupt_budget,
            frames: self.frames.len() as u32,
            decisions_fnv: fnv1a64_extend(self.decisions_fnv, b"]"),
        }
    }

    /// Name of the code currently running ("Initialize", "Isr", ...).
    pub fn running(&self) -> &str {
        self.frames.last().map(Frame::running).unwrap_or("<none>")
    }

    /// The workload entry at the bottom of the stack.
    pub fn current_entry(&self) -> &str {
        self.frames.first().map(Frame::running).unwrap_or("<none>")
    }

    /// The entry interrupted by the innermost nested frame, if any.
    pub fn interrupted_entry(&self) -> Option<String> {
        self.frames.last().and_then(Frame::interrupted).map(str::to_string)
    }

    /// True if the machine is inside an injected ISR/DPC/timer frame.
    pub fn in_nested_frame(&self) -> bool {
        self.frames.len() > 1
    }

    /// Allocates scratch guest memory (mapped and granted to the driver as
    /// a buffer passed in by the kernel).
    pub fn alloc_scratch(&mut self, len: u32, label: &'static str) -> u32 {
        let addr = self.scratch_cursor.next_multiple_of(8);
        self.scratch_cursor = addr + len;
        assert!(
            self.scratch_cursor <= SCRATCH_BASE + SCRATCH_SIZE,
            "scratch window exhausted"
        );
        self.st.mem.map(addr, len);
        self.st.grants.grant(addr, len, label);
        addr
    }

    /// Captures the current CPU + kernel context for a nested invocation.
    pub fn save_ctx(&self) -> SavedCtx {
        SavedCtx {
            regs: self.st.cpu.regs.clone(),
            pc: self.st.cpu.pc,
            irql: self.kernel.state.irql,
            context: self.kernel.state.context,
        }
    }

    /// Addresses of spinlocks currently held (frame snapshots).
    pub fn held_locks(&self) -> Vec<u32> {
        self.kernel
            .state
            .spinlocks
            .iter()
            .filter(|(_, l)| l.held)
            .map(|(&a, _)| a)
            .collect()
    }

    /// Restores a saved context (interrupt/timer return).
    pub fn restore_ctx(&mut self, ctx: &SavedCtx) {
        self.st.cpu.regs = ctx.regs.clone();
        self.st.cpu.pc = ctx.pc;
        self.kernel.state.irql = ctx.irql;
        self.kernel.state.context = ctx.context;
    }

    /// Applies an entry invocation: registers, stack, link, pc.
    pub fn apply_invocation(&mut self, inv: &EntryInvocation, keep_sp: bool) {
        let sp_before = self.st.cpu.get(Reg::SP);
        for (reg, v) in inv.reg_values() {
            self.st.cpu.set_u32(reg, v);
        }
        if keep_sp {
            // Nested invocations (ISR/DPC) run on the interrupted stack.
            self.st.cpu.set(Reg::SP, sp_before);
        }
        self.st.cpu.pc = inv.addr;
        self.steps_in_entry = 0;
    }
}

/// [`Host`] implementation over symbolic state: the kernel's window into
/// the (possibly symbolic) machine, with on-demand concretization (§3.2).
pub struct SymHost<'a> {
    /// The machine state the kernel manipulates.
    pub st: &'a mut SymState,
    /// Solver used for concretization.
    pub solver: &'a mut Solver,
    /// Arguments read so far (cached to concretize at most once).
    pub args_seen: [Option<u32>; 4],
}

impl<'a> SymHost<'a> {
    /// Creates a host over the state.
    pub fn new(st: &'a mut SymState, solver: &'a mut Solver) -> SymHost<'a> {
        SymHost { st, solver, args_seen: [None; 4] }
    }

    fn concretize_expr(&mut self, e: &Expr) -> u32 {
        if let Some(c) = e.as_const() {
            return c as u32;
        }
        // Model reuse: evaluating the cached model yields a witness value
        // consistent with the path condition without a solver call.
        let v = match self.st.model_eval(e) {
            Some(v) => v as u32,
            None => match self.solver.check_under(&self.st.constraints, &[]) {
                ddt_solver::SatResult::Sat(m) => {
                    let v = e.eval(&m) as u32;
                    self.st.set_model(m);
                    v
                }
                ddt_solver::SatResult::Unsat => {
                    unreachable!("live path must have satisfiable constraints")
                }
            },
        };
        self.st.record_concretization(e.clone(), v);
        v
    }
}

impl Host for SymHost<'_> {
    fn arg(&mut self, idx: usize) -> u32 {
        if let Some(v) = self.args_seen[idx] {
            return v;
        }
        let e = self.st.cpu.get(Reg(idx as u8));
        let v = self.concretize_expr(&e);
        self.args_seen[idx] = Some(v);
        v
    }

    fn set_ret(&mut self, v: u32) {
        self.st.cpu.set_u32(Reg(0), v);
    }

    fn mem_read(&mut self, addr: u32, size: u8) -> Result<u32, HostError> {
        if !self.st.mem.is_range_mapped(addr, size as u32) {
            return Err(HostError { addr });
        }
        let e = self.st.mem.read(addr, size);
        match e.as_const() {
            Some(c) => Ok(c as u32),
            None => {
                // Concrete (kernel) code reading symbolic memory: the
                // location is concretized and the constraint recorded
                // (§4.1.1). The concrete value is written back so later
                // reads see the same value.
                let v = self.concretize_expr(&e);
                self.st.mem.write(addr, size, &Expr::constant(v as u64, 8 * size as u32));
                Ok(v)
            }
        }
    }

    fn mem_write(&mut self, addr: u32, size: u8, v: u32) -> Result<(), HostError> {
        if !self.st.mem.is_range_mapped(addr, size as u32) {
            return Err(HostError { addr });
        }
        self.st.mem.write(addr, size, &Expr::constant(v as u64, 8 * size as u32));
        Ok(())
    }

    fn map_region(&mut self, start: u32, len: u32) {
        self.st.mem.map(start, len);
    }

    fn unmap_region(&mut self, start: u32, len: u32) {
        self.st.mem.unmap(start, len);
    }

    fn make_symbolic(&mut self, addr: u32, len: u32, label: &str) {
        for i in 0..len {
            let sym = self.st.new_symbol(
                format!("{label}[{i}]"),
                SymOrigin::Annotation { api: label.to_string() },
                8,
            );
            self.st.mem.write_byte(addr + i, sym);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_symvm::SymCounter;

    fn machine() -> Machine {
        Machine::new(SymState::new(SymCounter::new()), Kernel::new())
    }

    #[test]
    fn fork_isolates_kernel_and_schedule() {
        let mut a = machine();
        a.kernel.state.registry.insert("X".into(), 1);
        let mut b = a.fork(1);
        b.kernel.state.registry.insert("X".into(), 2);
        b.push_decision(Decision::InjectInterrupt { boundary: 0 });
        assert_eq!(a.kernel.state.registry["X"], 1);
        assert!(a.decisions.is_empty());
        assert_eq!(b.kernel.state.registry["X"], 2);
    }

    #[test]
    fn choice_log_compresses_and_flattens_in_order() {
        let mut parent = machine();
        parent.note_site();
        parent.note_site();
        // Fork at the third site: child takes alternative 1.
        let mut child = parent.fork(1);
        child.log_pick(SiteKind::BranchFork, 1);
        parent.note_site();
        // Child then stays parent at one site and forks a grandchild.
        child.note_site();
        let mut grand = child.fork(2);
        grand.log_pick(SiteKind::Interrupt, 2);
        child.note_site();
        assert_eq!(parent.picks.to_vec(), vec![]);
        assert_eq!(parent.trailing_skips, 3);
        assert_eq!(
            child.picks.to_vec(),
            vec![PathPick { skips: 2, kind: SiteKind::BranchFork, pick: 1 }]
        );
        assert_eq!(child.trailing_skips, 2);
        assert_eq!(
            grand.picks.to_vec(),
            vec![
                PathPick { skips: 2, kind: SiteKind::BranchFork, pick: 1 },
                PathPick { skips: 1, kind: SiteKind::Interrupt, pick: 2 },
            ]
        );
        assert_eq!(grand.trailing_skips, 0);
    }

    #[test]
    fn fingerprint_tracks_state_and_schedule() {
        let mut m = machine();
        let fp0 = m.fingerprint();
        m.st.cpu.pc = 0x40;
        m.push_decision(Decision::InjectInterrupt { boundary: 3 });
        let fp1 = m.fingerprint();
        assert_ne!(fp0, fp1);
        assert_eq!(fp1.pc, 0x40);
        assert_eq!(m.fingerprint(), fp1, "fingerprint is deterministic");
    }

    #[test]
    fn scratch_allocations_map_and_grant() {
        let mut m = machine();
        let a = m.alloc_scratch(64, "packet data");
        let b = m.alloc_scratch(16, "oid buffer");
        assert!(a >= SCRATCH_BASE);
        assert!(b >= a + 64);
        assert!(m.st.mem.is_range_mapped(a, 64));
        assert!(m.st.grants.contains_range(a, 64));
        assert_eq!(m.st.grants.label_of(a), Some("packet data"));
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut m = machine();
        m.st.cpu.set_u32(Reg(5), 77);
        m.st.cpu.pc = 0x1234;
        m.kernel.state.irql = Irql::Dispatch;
        let saved = m.save_ctx();
        m.st.cpu.set_u32(Reg(5), 0);
        m.st.cpu.pc = 0;
        m.kernel.state.irql = Irql::Device;
        m.restore_ctx(&saved);
        assert_eq!(m.st.cpu.get(Reg(5)).as_const(), Some(77));
        assert_eq!(m.st.cpu.pc, 0x1234);
        assert_eq!(m.kernel.state.irql, Irql::Dispatch);
    }

    #[test]
    fn symhost_concretizes_args_once() {
        let mut st = SymState::new(SymCounter::new());
        let x = st.new_symbol("a0", SymOrigin::Other, 32);
        st.add_constraint(x.ult(&Expr::constant(10, 32)));
        st.cpu.set(Reg(0), x);
        let mut solver = Solver::new();
        let mut host = SymHost::new(&mut st, &mut solver);
        let v1 = host.arg(0);
        let v2 = host.arg(0);
        assert_eq!(v1, v2);
        assert!(v1 < 10);
        assert_eq!(host.st.concretizations.len(), 1, "one concretization only");
    }

    #[test]
    fn symhost_concretizes_symbolic_memory_consistently() {
        let mut st = SymState::new(SymCounter::new());
        st.mem.map(0x1000, 0x100);
        let x = st.new_symbol("cell", SymOrigin::Other, 32);
        st.add_constraint(x.eq(&Expr::constant(42, 32)));
        st.mem.write(0x1000, 4, &x);
        let mut solver = Solver::new();
        let mut host = SymHost::new(&mut st, &mut solver);
        assert_eq!(host.mem_read(0x1000, 4), Ok(42));
        // The write-back makes the location concrete for the driver too.
        assert_eq!(st.mem.read(0x1000, 4).as_const(), Some(42));
    }

    #[test]
    fn symhost_faults_on_unmapped() {
        let mut st = SymState::new(SymCounter::new());
        let mut solver = Solver::new();
        let mut host = SymHost::new(&mut st, &mut solver);
        assert_eq!(host.mem_read(0x5000, 4), Err(HostError { addr: 0x5000 }));
    }

    #[test]
    fn frame_names() {
        let saved = SavedCtx {
            regs: std::array::from_fn(|_| Expr::constant(0, 32)),
            pc: 0,
            irql: Irql::Passive,
            context: ExecContext::Passive,
        };
        let f = Frame::Isr { saved, at_entry: "Initialize".into(), held_at_entry: vec![] };
        assert_eq!(f.running(), "Isr");
        assert_eq!(f.interrupted(), Some("Initialize"));
        let e = Frame::Entry { name: "Send".into(), held_at_entry: vec![] };
        assert_eq!(e.running(), "Send");
        assert_eq!(e.interrupted(), None);
    }
}
