//! Fully symbolic hardware and the VM-level memory access checker.
//!
//! §3.3: "A symbolic device in DDT ignores all writes to its registers and
//! produces symbolic values in response to reads." [`DdtEnv`] implements
//! the `ddt-symvm` environment hooks: every MMIO or port read yields a
//! fresh symbol with hardware provenance; writes are discarded but logged
//! in the trace (used by §3.6-style analysis).
//!
//! The same hook surface carries DDT's memory access verification (§3.1.1):
//! each driver access is checked against the union of granted regions (the
//! driver image, the stack above the stack pointer, kernel-granted buffers,
//! hardware windows). If the (possibly symbolic) address *can* leave every
//! granted region, a violation is recorded with a concrete witness; the
//! path then continues constrained to the buffer the access was aimed at,
//! so exploration proceeds past flagged-but-survivable accesses.

use ddt_expr::Expr;
use ddt_isa::AccessKind;
use ddt_solver::Solver;
use ddt_symvm::interp::{AccessViolation, SymEnv};
use ddt_symvm::{SymOrigin, SymState, TraceEvent};

/// DDT's symbolic hardware + memory checker environment.
#[derive(Debug)]
pub struct DdtEnv {
    /// MMIO window start assigned to the device under test.
    pub mmio_start: u32,
    /// MMIO window length.
    pub mmio_len: u32,
    /// Lowest stack address.
    pub stack_base: u32,
    /// Top-of-stack (initial stack pointer).
    pub stack_top: u32,
    /// Whether the memory access checker is active.
    pub check_memory: bool,
    /// Violations flagged since the last drain (path continues after a
    /// survivable violation; the exerciser converts these to bugs).
    pub pending: Vec<AccessViolation>,
    /// Hardware reads served (for §5.2 statistics).
    pub hardware_reads: u64,
}

impl DdtEnv {
    /// Creates the environment for one driver-under-test configuration.
    pub fn new(mmio_start: u32, mmio_len: u32, stack_base: u32, stack_top: u32) -> DdtEnv {
        DdtEnv {
            mmio_start,
            mmio_len,
            stack_base,
            stack_top,
            check_memory: true,
            pending: Vec::new(),
            hardware_reads: 0,
        }
    }

    /// Drains violations flagged since the last call.
    pub fn drain_violations(&mut self) -> Vec<AccessViolation> {
        std::mem::take(&mut self.pending)
    }

    fn fresh_hw_symbol(
        &mut self,
        st: &mut SymState,
        label: String,
        origin: SymOrigin,
        bits: u32,
    ) -> Expr {
        self.hardware_reads += 1;
        st.new_symbol(label, origin, bits)
    }

    /// Builds the "address range lies inside a permitted region" predicate.
    fn inside_expr(&self, st: &SymState, addr: &Expr, size: u8) -> Expr {
        let w = addr.width();
        let size_e = Expr::constant(size as u64, w);
        let end = addr.add(&size_e);
        let mut inside = Expr::false_();
        let mut add_region = |start: u32, stop: u32| {
            if stop <= start {
                return;
            }
            let s = Expr::constant(start as u64, w);
            let e = Expr::constant(stop as u64, w);
            // start <= addr && addr+size <= stop, with no wraparound
            // (addr <= end is implied by size <= stop - addr when inside).
            let c = s.ule(addr).and(&end.ule(&e)).and(&addr.ule(&end));
            inside = inside.or(&c);
        };
        for g in st.grants.iter() {
            add_region(g.start, g.end);
        }
        // Hardware windows are driver-accessible.
        add_region(self.mmio_start, self.mmio_start.saturating_add(self.mmio_len));
        // The current stack above the stack pointer: "accesses to memory
        // locations below the stack pointer are prohibited" (§3.1.1).
        if let Some(sp) = st.cpu.get(ddt_isa::Reg::SP).as_const() {
            let sp = (sp as u32).max(self.stack_base);
            add_region(sp, self.stack_top);
        }
        inside
    }

    /// Picks the grant region the access was "aimed at": the one containing
    /// the address under the all-zeros model. Deterministic, so reports and
    /// continuations are stable across runs.
    fn aimed_region(&self, st: &SymState, addr: &Expr) -> Option<(u32, u32)> {
        let zero_model = ddt_expr::Assignment::new();
        let aim = addr.eval(&zero_model) as u32;
        if (self.mmio_start..self.mmio_start + self.mmio_len).contains(&aim) {
            return Some((self.mmio_start, self.mmio_start + self.mmio_len));
        }
        st.grants
            .iter()
            .find(|g| aim >= g.start && aim < g.end)
            .map(|g| (g.start, g.end))
    }
}

impl SymEnv for DdtEnv {
    fn is_mmio(&self, addr: u32) -> bool {
        addr >= self.mmio_start && addr < self.mmio_start.saturating_add(self.mmio_len)
    }

    fn mmio_read(&mut self, st: &mut SymState, addr: u32, size: u8) -> Expr {
        let sym = self.fresh_hw_symbol(
            st,
            format!("hw:mmio[{addr:#x}]"),
            SymOrigin::HardwareRead { addr },
            8 * size as u32,
        );
        if let ddt_expr::NodeView::Sym { id, .. } = sym.node() {
            st.trace.push(TraceEvent::HardwareRead { addr, id });
        }
        sym
    }

    fn mmio_write(&mut self, st: &mut SymState, addr: u32, _size: u8, value: &Expr) {
        // Symbolic hardware discards writes; the trace keeps them so the
        // §3.6 analysis can see e.g. that no interrupt-enable write
        // happened before a crash.
        st.trace.push(TraceEvent::HardwareWrite { addr, value: value.as_const() });
    }

    fn port_read(&mut self, st: &mut SymState, port: u32) -> Expr {
        let sym = self.fresh_hw_symbol(
            st,
            format!("hw:port[{port:#x}]"),
            SymOrigin::PortRead { port },
            32,
        );
        if let ddt_expr::NodeView::Sym { id, .. } = sym.node() {
            st.trace.push(TraceEvent::HardwareRead { addr: port, id });
        }
        sym
    }

    fn port_write(&mut self, st: &mut SymState, port: u32, value: &Expr) {
        st.trace.push(TraceEvent::HardwareWrite { addr: port, value: value.as_const() });
    }

    fn check_access(
        &mut self,
        st: &mut SymState,
        solver: &mut Solver,
        addr: &Expr,
        size: u8,
        kind: AccessKind,
    ) -> Result<(), AccessViolation> {
        if !self.check_memory {
            return Ok(());
        }
        let pc = st.cpu.pc;
        // Concrete fast path.
        if let Some(a) = addr.as_const() {
            let a = a as u32;
            if self.is_mmio(a) || st.grants.contains_range(a, size as u32) {
                return Ok(());
            }
            if let Some(sp) = st.cpu.get(ddt_isa::Reg::SP).as_const() {
                let sp = (sp as u32).max(self.stack_base);
                if a >= sp && a.saturating_add(size as u32) <= self.stack_top {
                    return Ok(());
                }
            }
            // Definitely outside: the access crashes or corrupts; the path
            // cannot meaningfully continue.
            return Err(AccessViolation {
                pc,
                witness: a,
                kind,
                size,
                reason: format!(
                    "driver {} at {a:#x} outside all granted regions",
                    access_verb(kind)
                ),
                syms: vec![],
                model: None,
            });
        }
        // Symbolic address: can it leave every permitted region?
        let inside = self.inside_expr(st, addr, size);
        if solver.must_be_true(&st.constraints, &inside) {
            return Ok(());
        }
        // Violation: produce a concrete witness outside the regions and a
        // full model of the escaping execution (for replay).
        let mut cs = st.constraints.clone();
        cs.push(inside.lnot());
        let model = match solver.check(&cs) {
            ddt_solver::SatResult::Sat(m) => m,
            ddt_solver::SatResult::Unsat => return Ok(()), // Cannot escape.
        };
        let witness = addr.eval(&model) as u32;
        let violation = AccessViolation {
            pc,
            witness,
            kind,
            size,
            reason: format!(
                "symbolic address can {} outside granted regions (witness {witness:#x})",
                access_verb(kind)
            ),
            syms: addr.syms().into_iter().collect(),
            model: Some(model),
        };
        // Try to continue inside the buffer the access was aimed at.
        if let Some((start, end)) = self.aimed_region(st, addr) {
            let w = addr.width();
            let cont = Expr::constant(start as u64, w)
                .ule(addr)
                .and(&addr.add(&Expr::constant(size as u64, w)).ule(&Expr::constant(end as u64, w)));
            let mut cs2 = st.constraints.clone();
            cs2.push(cont.clone());
            if solver.is_feasible(&cs2) {
                st.add_constraint(cont);
                self.pending.push(violation);
                return Ok(());
            }
        }
        Err(violation)
    }
}

fn access_verb(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "reads",
        AccessKind::Write => "writes",
        AccessKind::Fetch => "fetches",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_isa::Reg;
    use ddt_symvm::SymCounter;

    fn setup() -> (DdtEnv, SymState, Solver) {
        let env = DdtEnv::new(0x8000_0000, 0x100, 0x7000_0000, 0x7010_0000);
        let mut st = SymState::new(SymCounter::new());
        st.cpu.set_u32(Reg::SP, 0x7010_0000);
        st.grants.grant(0x40_0000, 0x1000, "driver image");
        (env, st, Solver::new())
    }

    #[test]
    fn concrete_inside_grant_passes() {
        let (mut env, mut st, mut solver) = setup();
        let addr = Expr::constant(0x40_0100, 32);
        assert!(env.check_access(&mut st, &mut solver, &addr, 4, AccessKind::Read).is_ok());
        assert!(env.pending.is_empty());
    }

    #[test]
    fn concrete_outside_everything_is_fatal() {
        let (mut env, mut st, mut solver) = setup();
        let addr = Expr::constant(0x10, 32); // NULL-page dereference.
        let err = env
            .check_access(&mut st, &mut solver, &addr, 4, AccessKind::Write)
            .unwrap_err();
        assert_eq!(err.witness, 0x10);
    }

    #[test]
    fn stack_above_sp_allowed_below_forbidden() {
        let (mut env, mut st, mut solver) = setup();
        st.cpu.set_u32(Reg::SP, 0x700f_0000);
        let above = Expr::constant(0x700f_0010, 32);
        assert!(env.check_access(&mut st, &mut solver, &above, 4, AccessKind::Write).is_ok());
        let below = Expr::constant(0x700e_fff0, 32);
        assert!(env.check_access(&mut st, &mut solver, &below, 4, AccessKind::Write).is_err());
    }

    #[test]
    fn mmio_window_allowed_and_symbolic() {
        let (mut env, mut st, mut solver) = setup();
        let addr = Expr::constant(0x8000_0040, 32);
        assert!(env.check_access(&mut st, &mut solver, &addr, 4, AccessKind::Read).is_ok());
        let v = env.mmio_read(&mut st, 0x8000_0040, 4);
        assert!(!v.is_const(), "symbolic hardware read");
        assert_eq!(v.width(), 32);
        assert_eq!(env.hardware_reads, 1);
    }

    #[test]
    fn symbolic_provably_inside_passes() {
        let (mut env, mut st, mut solver) = setup();
        // base + idx*4 with idx < 16 stays inside a 0x1000 grant.
        let idx = st.new_symbol("idx", SymOrigin::Other, 32);
        st.add_constraint(idx.ult(&Expr::constant(16, 32)));
        let addr = Expr::constant(0x40_0000, 32)
            .add(&idx.shl(&Expr::constant(2, 32)));
        assert!(env.check_access(&mut st, &mut solver, &addr, 4, AccessKind::Write).is_ok());
        assert!(env.pending.is_empty(), "no violation for a bounded index");
    }

    #[test]
    fn symbolic_escaping_flags_and_continues() {
        let (mut env, mut st, mut solver) = setup();
        st.grants.grant(0x0100_0000, 128, "pool alloc");
        let n = st.new_symbol("registry", SymOrigin::Registry { name: "Max".into() }, 32);
        let addr = Expr::constant(0x0100_0000, 32).add(&n.shl(&Expr::constant(2, 32)));
        let before = st.constraints.len();
        let r = env.check_access(&mut st, &mut solver, &addr, 4, AccessKind::Write);
        assert!(r.is_ok(), "path continues inside the aimed buffer");
        assert_eq!(env.pending.len(), 1, "violation flagged");
        assert!(st.constraints.len() > before, "continuation constraint added");
        // The witness must be outside every region.
        let w = env.pending[0].witness;
        assert!(!st.grants.contains_range(w, 4) || w >= 0x0100_0000 + 128);
    }

    #[test]
    fn checker_disable_allows_everything() {
        let (mut env, mut st, mut solver) = setup();
        env.check_memory = false;
        let addr = Expr::constant(0x10, 32);
        assert!(env.check_access(&mut st, &mut solver, &addr, 4, AccessKind::Write).is_ok());
    }

    #[test]
    fn hardware_writes_are_logged_not_applied() {
        let (mut env, mut st, _solver) = setup();
        env.mmio_write(&mut st, 0x8000_0000, 4, &Expr::constant(7, 32));
        env.port_write(&mut st, 0x10, &Expr::constant(9, 32));
        let evs = st.trace.events();
        let hw_writes = evs
            .iter()
            .filter(|e| matches!(e, TraceEvent::HardwareWrite { .. }))
            .count();
        assert_eq!(hw_writes, 2);
    }
}

#[cfg(test)]
mod aimed_region_tests {
    use super::*;
    use ddt_isa::Reg;
    use ddt_symvm::{SymCounter, SymOrigin, SymState};

    #[test]
    fn aimed_region_targets_the_buffer_of_the_base_pointer() {
        // addr = alloc_base + 4*n: the zero-model lands in the allocation,
        // so the continuation confines the access there, not to the stack
        // or another grant.
        let env = DdtEnv::new(0x8000_0000, 0x100, 0x7000_0000, 0x7010_0000);
        let mut st = SymState::new(SymCounter::new());
        st.cpu.set_u32(Reg::SP, 0x7010_0000);
        st.grants.grant(0x0100_0000, 128, "pool alloc");
        st.grants.grant(0x40_0000, 0x1000, "driver image");
        let n = st.new_symbol("n", SymOrigin::Other, 32);
        let addr = Expr::constant(0x0100_0000, 32).add(&n.shl(&Expr::constant(2, 32)));
        let aimed = env.aimed_region(&st, &addr).expect("zero model hits the pool");
        assert_eq!(aimed, (0x0100_0000, 0x0100_0000 + 128));
    }

    #[test]
    fn aimed_region_recognizes_mmio() {
        let env = DdtEnv::new(0x8000_0000, 0x100, 0x7000_0000, 0x7010_0000);
        let mut st = SymState::new(SymCounter::new());
        let n = st.new_symbol("n", SymOrigin::Other, 32);
        let addr = Expr::constant(0x8000_0000, 32).add(&n);
        assert_eq!(env.aimed_region(&st, &addr), Some((0x8000_0000, 0x8000_0100)));
    }

    #[test]
    fn no_aim_for_wild_addresses() {
        let env = DdtEnv::new(0x8000_0000, 0x100, 0x7000_0000, 0x7010_0000);
        let mut st = SymState::new(SymCounter::new());
        let n = st.new_symbol("n", SymOrigin::Other, 32);
        // Zero model puts the address at 0x6000_0000: no grant there.
        let addr = Expr::constant(0x6000_0000, 32).add(&n);
        assert_eq!(env.aimed_region(&st, &addr), None);
    }
}
