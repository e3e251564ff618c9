//! The symbolic instruction interpreter.
//!
//! [`step`] executes one DDT-32 instruction over a [`SymState`]. Branches on
//! symbolic conditions consult the solver and fork when both outcomes are
//! feasible (§2: "when a symbolic value is used to decide the direction of a
//! conditional branch, symbolic execution explores all feasible
//! alternatives"). Device accesses and access-permission checks are
//! delegated to a [`SymEnv`] implementation — `ddt-core` plugs symbolic
//! hardware and the memory-access checker in through this trait.

use ddt_expr::Expr;
use ddt_isa::{
    decode, //
    trap_export_id,
    AccessKind,
    Insn,
    Reg,
    INSN_SIZE,
    RETURN_TRAP,
};
use ddt_solver::Solver;

use crate::state::SymState;
use crate::trace::TraceEvent;

/// A fault detected during symbolic execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymFault {
    /// Undecodable instruction (or symbolic code bytes) at `pc`.
    IllegalInsn {
        /// Faulting instruction address.
        pc: u32,
    },
    /// Access to unmapped memory at a concrete witness address.
    BadAccess {
        /// Faulting instruction address.
        pc: u32,
        /// Witness guest address.
        addr: u32,
        /// Access type.
        kind: AccessKind,
    },
    /// Misaligned word/halfword access.
    Misaligned {
        /// Faulting instruction address.
        pc: u32,
        /// The misaligned address.
        addr: u32,
    },
    /// Division by zero (possibly on a forked divisor-is-zero path).
    DivByZero {
        /// Faulting instruction address.
        pc: u32,
    },
    /// The path condition became unsatisfiable (dead path, not a bug).
    Infeasible,
    /// The memory-access checker vetoed an access (DDT bug condition).
    AccessViolation(AccessViolation),
}

/// Details of a memory-permission violation flagged by the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessViolation {
    /// Faulting instruction address.
    pub pc: u32,
    /// A concrete witness address outside the permitted regions.
    pub witness: u32,
    /// Access type.
    pub kind: AccessKind,
    /// Access size in bytes.
    pub size: u8,
    /// Checker-provided explanation.
    pub reason: String,
    /// Symbols the offending address depends on (provenance for the §3.6
    /// analysis: "identify on what symbolic values the condition depended").
    pub syms: Vec<ddt_expr::SymId>,
    /// A full model of the path condition under which the access escapes
    /// the permitted regions (used for replay instead of the post-
    /// continuation path condition).
    pub model: Option<ddt_expr::Assignment>,
}

/// Outcome of one symbolic step.
#[derive(Debug)]
pub enum SymStep {
    /// Instruction retired; path continues.
    Continue,
    /// A branch (or a symbolic divisor) forked; `other` is the second path.
    /// The current state already took its side and continues.
    Forked {
        /// The other path.
        other: Box<SymState>,
        /// True when no solver call has confirmed that `other`'s path
        /// condition is satisfiable: the state's model witnessed only the
        /// taken side of a branch, so the untaken side was forked without
        /// asking. The caller decides it with `Solver::is_feasible` before
        /// running it.
        needs_verdict: bool,
    },
    /// The driver called a kernel export.
    KernelCall {
        /// The export id.
        export_id: u16,
    },
    /// The driver entry point returned to the kernel.
    ReturnToKernel,
    /// `halt` executed.
    Halted,
    /// The path ended in a fault.
    Fault(SymFault),
}

/// Environment hooks provided by DDT (`ddt-core`).
pub trait SymEnv {
    /// True if `addr` lies in a device MMIO window.
    fn is_mmio(&self, addr: u32) -> bool;

    /// Serves a device register read (symbolic hardware returns a fresh
    /// symbol, §3.3).
    fn mmio_read(&mut self, st: &mut SymState, addr: u32, size: u8) -> Expr;

    /// Serves a device register write (symbolic hardware discards it).
    fn mmio_write(&mut self, st: &mut SymState, addr: u32, size: u8, value: &Expr);

    /// Serves a port read.
    fn port_read(&mut self, st: &mut SymState, port: u32) -> Expr;

    /// Serves a port write.
    fn port_write(&mut self, st: &mut SymState, port: u32, value: &Expr);

    /// Verifies the driver may access memory at (possibly symbolic) `addr`.
    ///
    /// This is DDT's VM-level memory access verification hook (§3.1.1). The
    /// default permits everything — the raw engine then only faults on
    /// unmapped concrete addresses, like plain hardware would.
    fn check_access(
        &mut self,
        st: &mut SymState,
        solver: &mut Solver,
        addr: &Expr,
        size: u8,
        kind: AccessKind,
    ) -> Result<(), AccessViolation> {
        let _ = (st, solver, addr, size, kind);
        Ok(())
    }
}

/// A [`SymEnv`] with no devices and no checker (tests, benchmarks).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEnv;

impl SymEnv for NullEnv {
    fn is_mmio(&self, _addr: u32) -> bool {
        false
    }

    fn mmio_read(&mut self, _st: &mut SymState, _addr: u32, _size: u8) -> Expr {
        Expr::constant(0, 32)
    }

    fn mmio_write(&mut self, _st: &mut SymState, _addr: u32, _size: u8, _value: &Expr) {}

    fn port_read(&mut self, st: &mut SymState, port: u32) -> Expr {
        let _ = (st, port);
        Expr::constant(0xffff_ffff, 32)
    }

    fn port_write(&mut self, _st: &mut SymState, _port: u32, _value: &Expr) {}
}

/// Maximum number of feasible values of a symbolic address that are
/// explored by forking; larger sets fall back to single concretization
/// with a recorded constraint (§3.2).
pub const MULTIWAY_ADDR_LIMIT: usize = 8;

/// Resolves a possibly-symbolic address to a concrete one, recording the
/// concretization constraint (§3.2 on-demand concretization).
///
/// When the address has only a few feasible values (jump tables, small
/// indexed accesses), the resolution is *multi-way*: this path takes one
/// value and a forked path re-executes the instruction with that value
/// excluded, enumerating the alternatives — the mechanism behind DDT's
/// concretization backtracking ("DDT backtracks to the point of
/// concretization, forks the entire machine state, and repeats the kernel
/// call with different feasible concrete values").
fn resolve_addr(st: &mut SymState, solver: &mut Solver, addr: &Expr) -> Result<u32, SymFault> {
    if let Some(a) = addr.as_const() {
        return Ok(a as u32);
    }
    // Pick a witness value: the cached model answers for free; otherwise one
    // solver call both decides feasibility and refreshes the model.
    let v = match st.model_eval(addr) {
        Some(v) => v as u32,
        None => match solver.check(&st.constraints) {
            ddt_solver::SatResult::Sat(m) => {
                let v = addr.eval(&m) as u32;
                st.set_model(m);
                v
            }
            ddt_solver::SatResult::Unsat => return Err(SymFault::Infeasible),
        },
    };
    // Multi-way enumeration — only for addresses with a *small* feasible
    // set (jump tables, short dispatch arrays). Wide sets (e.g. an index
    // ranging over a whole buffer) take a single concretization, as the
    // paper's DDT does; enumerating them would multiply paths without
    // covering new code.
    let here = st.cpu.pc;
    let already_enumerating =
        st.concretizations.iter().filter(|c| c.pc == here).count() > 0;
    let small_set = already_enumerating
        || solver.distinct_values(&st.constraints, addr, MULTIWAY_ADDR_LIMIT + 1).len()
            <= MULTIWAY_ADDR_LIMIT;
    if small_set {
        let exclude = addr.ne(&Expr::constant(v as u64, addr.width()));
        let mut cs = st.constraints.clone();
        cs.push(exclude.clone());
        if let ddt_solver::SatResult::Sat(m) = solver.check(&cs) {
            let mut other = st.fork();
            other.add_constraint(exclude);
            other.set_model(m);
            st.pending_forks.push(other);
        }
    }
    st.record_concretization(addr.clone(), v);
    Ok(v)
}

/// Reads memory or MMIO at a concrete address.
fn load(
    env: &mut dyn SymEnv,
    st: &mut SymState,
    pc: u32,
    addr: u32,
    size: u8,
) -> Result<Expr, SymFault> {
    if (size == 4 && !addr.is_multiple_of(4)) || (size == 2 && !addr.is_multiple_of(2)) {
        return Err(SymFault::Misaligned { pc, addr });
    }
    if env.is_mmio(addr) {
        let v = env.mmio_read(st, addr, size);
        return Ok(v);
    }
    if !st.mem.is_range_mapped(addr, size as u32) {
        return Err(SymFault::BadAccess { pc, addr, kind: AccessKind::Read });
    }
    let v = st.mem.read(addr, size);
    st.trace.push(TraceEvent::MemRead { pc, addr, size, value: v.as_const() });
    Ok(v)
}

/// Writes memory or MMIO at a concrete address.
fn store(
    env: &mut dyn SymEnv,
    st: &mut SymState,
    pc: u32,
    addr: u32,
    size: u8,
    value: &Expr,
) -> Result<(), SymFault> {
    if (size == 4 && !addr.is_multiple_of(4)) || (size == 2 && !addr.is_multiple_of(2)) {
        return Err(SymFault::Misaligned { pc, addr });
    }
    if env.is_mmio(addr) {
        env.mmio_write(st, addr, size, value);
        return Ok(());
    }
    if !st.mem.is_range_mapped(addr, size as u32) {
        return Err(SymFault::BadAccess { pc, addr, kind: AccessKind::Write });
    }
    st.trace.push(TraceEvent::MemWrite { pc, addr, size, value: value.as_const() });
    st.mem.write(addr, size, value);
    Ok(())
}

/// Decides a symbolic branch condition, forking if both sides may be
/// feasible.
///
/// On a fork the partner takes the `!cond` side and `st` the `cond`-true
/// side; otherwise `st` takes the one feasible side.
fn branch(
    st: &mut SymState,
    solver: &mut Solver,
    pc: u32,
    cond: Expr,
    target: u32,
    fallthrough: u32,
) -> Result<SymStep, SymFault> {
    if let Some(c) = cond.as_const() {
        st.trace.push(TraceEvent::Branch { pc, taken: c != 0, forked: false, constraint: cond });
        st.cpu.pc = if c != 0 { target } else { fallthrough };
        return Ok(check_transfer(st));
    }
    let not_cond = cond.lnot();
    // When the cached model proves the taken side live, the untaken side is
    // forked without a solver call here: the fork reports `needs_verdict`,
    // and the caller decides the child before it takes a frontier slot. A
    // live path always has a satisfiable condition, so `st` itself never
    // needs a verdict when the model decides its side.
    let model_side = st.model_eval(&cond).map(|v| v != 0);
    match model_side {
        Some(true) => {
            // `st`'s true side is witnessed by the model. `add_constraint`
            // drops the inherited model (it satisfies cond), leaving the
            // child model-less until it first needs one.
            let mut other = st.fork();
            other.add_constraint(not_cond.clone());
            other.trace.push(TraceEvent::Branch {
                pc,
                taken: false,
                forked: true,
                constraint: not_cond,
            });
            other.cpu.pc = fallthrough;
            st.add_constraint(cond.clone());
            st.trace.push(TraceEvent::Branch { pc, taken: true, forked: true, constraint: cond });
            st.cpu.pc = target;
            Ok(SymStep::Forked { other: Box::new(other), needs_verdict: true })
        }
        Some(false) => {
            // The model witnesses the untaken side. `st` follows its model
            // (¬cond) only if the taken side is infeasible; otherwise `st`
            // takes the branch (canonical taken-side priority) with the
            // fresh model, and the partner inherits the parent model. This
            // side needs the model-grade check here: the verdict decides
            // which side `st` itself executes *this* instruction.
            let mut cs = st.constraints.clone();
            cs.push(cond.clone());
            match solver.check(&cs) {
                ddt_solver::SatResult::Sat(m) => {
                    let mut other = st.fork();
                    other.add_constraint(not_cond.clone());
                    other.trace.push(TraceEvent::Branch {
                        pc,
                        taken: false,
                        forked: true,
                        constraint: not_cond,
                    });
                    other.cpu.pc = fallthrough;
                    st.add_constraint(cond.clone());
                    st.trace.push(TraceEvent::Branch {
                        pc,
                        taken: true,
                        forked: true,
                        constraint: cond,
                    });
                    st.cpu.pc = target;
                    // The parent model satisfied !cond: it belongs to
                    // `other`; the fresh model satisfies cond, goes to `st`.
                    if let Some(parent_model) = st.last_model.take() {
                        other.set_model(parent_model);
                    }
                    st.set_model(m);
                    Ok(SymStep::Forked { other: Box::new(other), needs_verdict: false })
                }
                ddt_solver::SatResult::Unsat => {
                    st.add_constraint(not_cond.clone());
                    st.trace.push(TraceEvent::Branch {
                        pc,
                        taken: false,
                        forked: false,
                        constraint: not_cond,
                    });
                    st.cpu.pc = fallthrough;
                    Ok(check_transfer(st))
                }
            }
        }
        None => {
            // No cached model: one model-grade call decides the taken side;
            // if it is live, `st` takes it and the ¬cond child is left to
            // the caller exactly as in the model-witnessed case.
            let mut cs = st.constraints.clone();
            cs.push(cond.clone());
            match solver.check(&cs) {
                ddt_solver::SatResult::Sat(mt) => {
                    st.set_model(mt);
                    let mut other = st.fork();
                    other.add_constraint(not_cond.clone());
                    other.trace.push(TraceEvent::Branch {
                        pc,
                        taken: false,
                        forked: true,
                        constraint: not_cond,
                    });
                    other.cpu.pc = fallthrough;
                    st.add_constraint(cond.clone());
                    st.trace.push(TraceEvent::Branch {
                        pc,
                        taken: true,
                        forked: true,
                        constraint: cond,
                    });
                    st.cpu.pc = target;
                    Ok(SymStep::Forked { other: Box::new(other), needs_verdict: true })
                }
                ddt_solver::SatResult::Unsat => {
                    cs.pop();
                    cs.push(not_cond.clone());
                    match solver.check(&cs) {
                        ddt_solver::SatResult::Sat(mf) => {
                            st.set_model(mf);
                            st.add_constraint(not_cond.clone());
                            st.trace.push(TraceEvent::Branch {
                                pc,
                                taken: false,
                                forked: false,
                                constraint: not_cond,
                            });
                            st.cpu.pc = fallthrough;
                            Ok(check_transfer(st))
                        }
                        ddt_solver::SatResult::Unsat => Err(SymFault::Infeasible),
                    }
                }
            }
        }
    }
}

/// Executes one instruction symbolically.
///
/// Like the concrete VM, kernel traps are reported *before* executing at the
/// trap address so DDT's kernel dispatcher takes over with driver-visible
/// state intact.
pub fn step(st: &mut SymState, env: &mut dyn SymEnv, solver: &mut Solver) -> SymStep {
    use Insn::*;
    let pc = st.cpu.pc;
    if pc == RETURN_TRAP {
        return SymStep::ReturnToKernel;
    }
    if let Some(export_id) = trap_export_id(pc) {
        return SymStep::KernelCall { export_id };
    }
    if !st.mem.is_range_mapped(pc, INSN_SIZE) {
        return SymStep::Fault(SymFault::BadAccess { pc, addr: pc, kind: AccessKind::Fetch });
    }
    // Driver text comes decoded from the root; a lineage that wrote to its
    // code region (or a pc outside it) fetches and decodes the bytes.
    let decoded = match st.mem.decoded_insn(pc) {
        Some(d) => d,
        None => {
            let Some(raw) = st.mem.read_concrete_bytes(pc, INSN_SIZE) else {
                return SymStep::Fault(SymFault::IllegalInsn { pc });
            };
            decode(raw.as_slice().try_into().expect("8 bytes"))
        }
    };
    let Some(insn) = decoded else {
        return SymStep::Fault(SymFault::IllegalInsn { pc });
    };
    st.insns_retired += 1;
    st.trace.push(TraceEvent::Exec { pc });
    let next = pc.wrapping_add(INSN_SIZE);
    let c32 = |v: u32| Expr::constant(v as u64, 32);

    // Helper macro-free closures cannot borrow st mutably twice; handle each
    // instruction inline.
    let outcome: Result<SymStep, SymFault> = (|| {
        match insn {
            Halt => return Ok(SymStep::Halted),
            Nop => {}
            Movi { rd, imm } => st.cpu.set(rd, c32(imm)),
            Mov { rd, rs } => {
                let v = st.cpu.get(rs);
                st.cpu.set(rd, v);
            }
            Add { rd, rs, rt } => {
                let v = st.cpu.get(rs).add(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Addi { rd, rs, imm } => {
                let v = st.cpu.get(rs).add(&c32(imm));
                st.cpu.set(rd, v);
            }
            Sub { rd, rs, rt } => {
                let v = st.cpu.get(rs).sub(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Mul { rd, rs, rt } => {
                let v = st.cpu.get(rs).mul(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Udiv { rd, rs, rt } | Urem { rd, rs, rt } | Sdiv { rd, rs, rt } => {
                let divisor = st.cpu.get(rt);
                let zero = c32(0);
                let is_zero = divisor.eq(&zero);
                match is_zero.as_const() {
                    Some(1) => return Err(SymFault::DivByZero { pc }),
                    Some(_) => {}
                    None => {
                        // Fork the divisor-is-zero case; that path re-executes
                        // this instruction with the == 0 constraint and then
                        // takes the `Some(1)` arm above.
                        if solver.may_be_true(&st.constraints, &is_zero) {
                            if !solver.may_be_true(&st.constraints, &is_zero.lnot()) {
                                return Err(SymFault::DivByZero { pc });
                            }
                            let mut other = st.fork();
                            other.add_constraint(is_zero.clone());
                            other.cpu.pc = pc; // Re-execute the division.
                            st.add_constraint(is_zero.lnot());
                            // Perform the division on the nonzero side.
                            let a = st.cpu.get(rs);
                            let v = match insn {
                                Udiv { .. } => a.udiv(&divisor),
                                Urem { .. } => a.urem(&divisor),
                                _ => a.sdiv(&divisor),
                            };
                            st.cpu.set(rd, v);
                            st.cpu.pc = next;
                            return Ok(SymStep::Forked {
                                other: Box::new(other),
                                needs_verdict: false,
                            });
                        }
                        st.add_constraint(is_zero.lnot());
                    }
                }
                let a = st.cpu.get(rs);
                let v = match insn {
                    Udiv { .. } => a.udiv(&divisor),
                    Urem { .. } => a.urem(&divisor),
                    _ => a.sdiv(&divisor),
                };
                st.cpu.set(rd, v);
            }
            And { rd, rs, rt } => {
                let v = st.cpu.get(rs).and(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Andi { rd, rs, imm } => {
                let v = st.cpu.get(rs).and(&c32(imm));
                st.cpu.set(rd, v);
            }
            Or { rd, rs, rt } => {
                let v = st.cpu.get(rs).or(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Ori { rd, rs, imm } => {
                let v = st.cpu.get(rs).or(&c32(imm));
                st.cpu.set(rd, v);
            }
            Xor { rd, rs, rt } => {
                let v = st.cpu.get(rs).xor(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Xori { rd, rs, imm } => {
                let v = st.cpu.get(rs).xor(&c32(imm));
                st.cpu.set(rd, v);
            }
            Not { rd, rs } => {
                let v = st.cpu.get(rs).not();
                st.cpu.set(rd, v);
            }
            Shl { rd, rs, rt } => {
                let v = st.cpu.get(rs).shl(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Shli { rd, rs, imm } => {
                let v = st.cpu.get(rs).shl(&c32(imm));
                st.cpu.set(rd, v);
            }
            Shr { rd, rs, rt } => {
                let v = st.cpu.get(rs).lshr(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Shri { rd, rs, imm } => {
                let v = st.cpu.get(rs).lshr(&c32(imm));
                st.cpu.set(rd, v);
            }
            Sar { rd, rs, rt } => {
                let v = st.cpu.get(rs).ashr(&st.cpu.get(rt));
                st.cpu.set(rd, v);
            }
            Sari { rd, rs, imm } => {
                let v = st.cpu.get(rs).ashr(&c32(imm));
                st.cpu.set(rd, v);
            }
            Ldw { rd, rs, imm } | Ldh { rd, rs, imm } | Ldb { rd, rs, imm } => {
                let size = match insn {
                    Ldw { .. } => 4,
                    Ldh { .. } => 2,
                    _ => 1,
                };
                let addr_e = st.cpu.get(rs).add(&c32(imm));
                env.check_access(st, solver, &addr_e, size, AccessKind::Read)
                    .map_err(SymFault::AccessViolation)?;
                let addr = resolve_addr(st, solver, &addr_e)?;
                let v = load(env, st, pc, addr, size)?;
                st.cpu.set(rd, v.zext(32));
            }
            Stw { rs, rt, imm } | Sth { rs, rt, imm } | Stb { rs, rt, imm } => {
                let size = match insn {
                    Stw { .. } => 4,
                    Sth { .. } => 2,
                    _ => 1,
                };
                let addr_e = st.cpu.get(rs).add(&c32(imm));
                env.check_access(st, solver, &addr_e, size, AccessKind::Write)
                    .map_err(SymFault::AccessViolation)?;
                let addr = resolve_addr(st, solver, &addr_e)?;
                let v = st.cpu.get(rt);
                let v = if size == 4 { v } else { v.extract(8 * size as u32 - 1, 0) };
                store(env, st, pc, addr, size, &v)?;
            }
            Jmp { imm } => {
                st.cpu.pc = imm;
                return Ok(check_transfer(st));
            }
            Jr { rs } => {
                let t = st.cpu.get(rs);
                let target = resolve_addr(st, solver, &t)?;
                st.cpu.pc = target;
                return Ok(check_transfer(st));
            }
            Beq { rs, rt, imm }
            | Bne { rs, rt, imm }
            | Blt { rs, rt, imm }
            | Bge { rs, rt, imm }
            | Bltu { rs, rt, imm }
            | Bgeu { rs, rt, imm } => {
                let a = st.cpu.get(rs);
                let b = st.cpu.get(rt);
                let cond = match insn {
                    Beq { .. } => a.eq(&b),
                    Bne { .. } => a.ne(&b),
                    Blt { .. } => a.slt(&b),
                    Bge { .. } => b.sle(&a),
                    Bltu { .. } => a.ult(&b),
                    _ => b.ule(&a),
                };
                return branch(st, solver, pc, cond, imm, next);
            }
            Call { imm } => {
                st.cpu.set_u32(Reg::LR, next);
                st.cpu.pc = imm;
                return Ok(check_transfer(st));
            }
            Callr { rs } => {
                let t = st.cpu.get(rs);
                let target = resolve_addr(st, solver, &t)?;
                st.cpu.set_u32(Reg::LR, next);
                st.cpu.pc = target;
                return Ok(check_transfer(st));
            }
            Ret => {
                let t = st.cpu.get(Reg::LR);
                let target = resolve_addr(st, solver, &t)?;
                st.cpu.pc = target;
                return Ok(check_transfer(st));
            }
            Push { rs } => {
                let sp_e = st.cpu.get(Reg::SP).sub(&c32(4));
                let sp = resolve_addr(st, solver, &sp_e)?;
                // Decrement the stack pointer *before* the access check so
                // the below-sp rule permits the push slot itself.
                let v = st.cpu.get(rs);
                st.cpu.set_u32(Reg::SP, sp);
                env.check_access(st, solver, &c32(sp), 4, AccessKind::Write)
                    .map_err(SymFault::AccessViolation)?;
                store(env, st, pc, sp, 4, &v)?;
            }
            Pop { rd } => {
                let sp_e = st.cpu.get(Reg::SP);
                let sp = resolve_addr(st, solver, &sp_e)?;
                env.check_access(st, solver, &c32(sp), 4, AccessKind::Read)
                    .map_err(SymFault::AccessViolation)?;
                let v = load(env, st, pc, sp, 4)?;
                st.cpu.set(rd, v);
                st.cpu.set_u32(Reg::SP, sp.wrapping_add(4));
            }
            In { rd, imm } => {
                let v = env.port_read(st, imm);
                st.cpu.set(rd, v.zext(32));
            }
            Inr { rd, rs } => {
                let p = st.cpu.get(rs);
                let port = resolve_addr(st, solver, &p)?;
                let v = env.port_read(st, port);
                st.cpu.set(rd, v.zext(32));
            }
            Out { rt, imm } => {
                let v = st.cpu.get(rt);
                env.port_write(st, imm, &v);
            }
            Outr { rs, rt } => {
                let p = st.cpu.get(rs);
                let port = resolve_addr(st, solver, &p)?;
                let v = st.cpu.get(rt);
                env.port_write(st, port, &v);
            }
        }
        st.cpu.pc = next;
        Ok(SymStep::Continue)
    })();

    match outcome {
        Ok(ev) => ev,
        Err(f) => SymStep::Fault(f),
    }
}

/// After a control transfer, classify kernel-bound targets.
fn check_transfer(st: &SymState) -> SymStep {
    let pc = st.cpu.pc;
    if pc == RETURN_TRAP {
        return SymStep::ReturnToKernel;
    }
    if let Some(export_id) = trap_export_id(pc) {
        return SymStep::KernelCall { export_id };
    }
    SymStep::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::SymMemory;
    use crate::state::{SymCounter, SymOrigin};
    use std::sync::Arc;
    use ddt_isa::asm::{assemble, ExportMap};

    /// Runs a state to completion, collecting all terminal outcomes.
    fn explore(mut root: SymState, env: &mut dyn SymEnv) -> Vec<(SymState, SymStep)> {
        let mut solver = Solver::new();
        let mut work = vec![root.clone()];
        let mut done = Vec::new();
        root.cpu.pc = 0; // Unused; root cloned above.
        while let Some(mut st) = work.pop() {
            loop {
                let outcome = step(&mut st, env, &mut solver);
                work.append(&mut st.pending_forks);
                match outcome {
                    SymStep::Continue => continue,
                    SymStep::Forked { other, needs_verdict } => {
                        // Decide an unconfirmed branch child like the core
                        // exerciser does at its fork site.
                        if !needs_verdict || solver.is_feasible(&other.constraints) {
                            work.push(*other);
                        }
                        continue;
                    }
                    terminal => {
                        done.push((st, terminal));
                        break;
                    }
                }
            }
            assert!(done.len() + work.len() < 256, "state explosion in test");
        }
        done
    }

    fn make_state(src: &str) -> (SymState, u32) {
        let exports = ExportMap::new();
        let a = assemble(src, &exports).expect("asm");
        let mut st = SymState::new(SymCounter::new());
        let img = &a.image;
        st.mem.map(img.load_base, img.image_end() - img.load_base);
        st.mem.seed_bytes(img.load_base, &img.text);
        st.mem.seed_bytes(img.data_base(), &img.data);
        st.mem.set_code_region(img.load_base, img.text.len() as u32);
        st.mem.map(0x7000_0000, 0x10_0000);
        st.cpu.set_u32(Reg::SP, 0x7010_0000);
        st.cpu.set_u32(Reg::LR, RETURN_TRAP);
        st.cpu.pc = img.entry;
        (st, img.entry)
    }

    /// Runs a single-path state until it returns to the kernel.
    fn run_to_return(mut st: SymState) -> SymState {
        let mut solver = Solver::new();
        loop {
            match step(&mut st, &mut NullEnv, &mut solver) {
                SymStep::Continue => {}
                SymStep::ReturnToKernel => return st,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn roots_and_forks_share_one_decoded_text() {
        let (st, entry) = make_state(
            "DriverEntry:
                mov r0, 1
                mov r1, 2
                ret",
        );
        // A second root of the same campaign and a fork of the first read
        // the one table the first root was built with.
        let root = st.mem.root().clone();
        let mut sibling = st.clone();
        sibling.mem = SymMemory::with_root(root.clone());
        for (s, e) in st.mem.regions() {
            sibling.mem.map(s, e - s);
        }
        let mut parent = st.clone();
        let child = parent.fork();
        for m in [&parent.mem, &child.mem, &sibling.mem] {
            assert!(Arc::ptr_eq(m.root(), &root), "one table per campaign");
        }
        for pc in (entry..entry + 3 * INSN_SIZE).step_by(INSN_SIZE as usize) {
            let raw = sibling.mem.read_concrete_bytes(pc, INSN_SIZE).expect("concrete text");
            let fetched = decode(raw.as_slice().try_into().expect("8 bytes"));
            assert!(fetched.is_some());
            assert_eq!(child.mem.decoded_insn(pc), Some(fetched), "pc {pc:#x}");
            assert_eq!(sibling.mem.decoded_insn(pc), Some(fetched), "pc {pc:#x}");
        }
        assert_eq!(child.mem.decoded_insn(entry + 1), None, "unaligned pcs are fetched");
        for st in [child, sibling] {
            assert_eq!(run_to_return(st).cpu.get(Reg(1)).as_const(), Some(2));
        }
    }

    #[test]
    fn code_writes_bypass_the_decode_cache() {
        let src_a = "DriverEntry:
                mov r1, 1
                mov r2, 2
                ret";
        let src_b = "DriverEntry:
                mov r1, 1
                mov r2, 99
                ret";
        let (st, entry) = make_state(src_a);
        let patched = assemble(src_b, &ExportMap::new()).expect("asm").image.text;
        let clean = run_to_return(st.clone());
        assert_eq!(clean.cpu.get(Reg(2)).as_const(), Some(2));
        // A lineage that rewrites its own text must execute the new bytes,
        // not the root's decode of the old ones.
        let mut dirty = st.clone();
        let off = INSN_SIZE as usize;
        dirty
            .mem
            .write_concrete_bytes(entry + INSN_SIZE, &patched[off..off + INSN_SIZE as usize]);
        let dirty = run_to_return(dirty);
        assert_eq!(dirty.cpu.get(Reg(2)).as_const(), Some(99), "patched code must run");
        // Clean siblings are unaffected and keep using the root's decode.
        let clean2 = run_to_return(st.clone());
        assert_eq!(clean2.cpu.get(Reg(2)).as_const(), Some(2));
    }

    #[test]
    fn concrete_program_runs() {
        let (st, _) = make_state(
            "DriverEntry:
                mov r0, 6
                mov r1, 7
                mul r2, r0, r1
                ret",
        );
        let done = explore(st, &mut NullEnv);
        assert_eq!(done.len(), 1);
        let (fin, ev) = &done[0];
        assert!(matches!(ev, SymStep::ReturnToKernel));
        assert_eq!(fin.cpu.get(Reg(2)).as_const(), Some(42));
    }

    #[test]
    fn symbolic_branch_forks_both_ways() {
        let (mut st, _) = make_state(
            "DriverEntry:
                bltu r0, 10, small
                mov r1, 2
                ret
            small:
                mov r1, 1
                ret",
        );
        let x = st.new_symbol("input", SymOrigin::Other, 32);
        st.cpu.set(Reg(0), x.clone());
        let done = explore(st, &mut NullEnv);
        assert_eq!(done.len(), 2, "both branch sides explored");
        let mut r1s: Vec<u64> = done
            .iter()
            .map(|(s, _)| s.cpu.get(Reg(1)).as_const().expect("r1 concrete"))
            .collect();
        r1s.sort_unstable();
        assert_eq!(r1s, vec![1, 2]);
        // Each final state's constraints pin x to the matching side.
        for (s, _) in &done {
            let mut solver = Solver::new();
            let model = match solver.check(&s.constraints) {
                ddt_solver::SatResult::Sat(m) => m,
                _ => panic!("path must be feasible"),
            };
            let xv = x.eval(&model) as u32;
            let r1 = s.cpu.get(Reg(1)).as_const().unwrap();
            assert_eq!(r1 == 1, xv < 10, "constraint matches outcome");
        }
    }

    #[test]
    fn infeasible_second_branch_does_not_fork() {
        let (mut st, _) = make_state(
            "DriverEntry:
                bltu r0, 10, small
                ret
            small:
                bltu r0, 20, tiny   ; implied by r0 < 10: must not fork
                ret
            tiny:
                ret",
        );
        let x = st.new_symbol("input", SymOrigin::Other, 32);
        st.cpu.set(Reg(0), x);
        let done = explore(st, &mut NullEnv);
        assert_eq!(done.len(), 2, "second branch is decided, not forked");
    }

    #[test]
    fn nested_branches_enumerate_paths() {
        let (mut st, _) = make_state(
            "DriverEntry:
                mov r3, 0
                beq r0, 0, a
                add r3, r3, 1
            a:
                beq r1, 0, b
                add r3, r3, 2
            b:
                ret",
        );
        let x = st.new_symbol("x", SymOrigin::Other, 32);
        let y = st.new_symbol("y", SymOrigin::Other, 32);
        st.cpu.set(Reg(0), x);
        st.cpu.set(Reg(1), y);
        let done = explore(st, &mut NullEnv);
        assert_eq!(done.len(), 4);
        let mut r3s: Vec<u64> =
            done.iter().map(|(s, _)| s.cpu.get(Reg(3)).as_const().unwrap()).collect();
        r3s.sort_unstable();
        assert_eq!(r3s, vec![0, 1, 2, 3]);
    }

    #[test]
    fn symbolic_division_forks_divide_by_zero() {
        let (mut st, entry) = make_state(
            "DriverEntry:
                mov r1, 100
                udiv r2, r1, r0
                ret",
        );
        let x = st.new_symbol("divisor", SymOrigin::Other, 32);
        st.cpu.set(Reg(0), x);
        let done = explore(st, &mut NullEnv);
        assert_eq!(done.len(), 2);
        let faults: Vec<bool> =
            done.iter().map(|(_, ev)| matches!(ev, SymStep::Fault(SymFault::DivByZero { .. }))).collect();
        assert!(faults.contains(&true), "zero path faults");
        assert!(faults.contains(&false), "nonzero path completes");
        let _ = entry;
    }

    #[test]
    fn symbolic_store_address_concretizes() {
        let (mut st, _) = make_state(
            "DriverEntry:
                lea r1, buf
                add r1, r1, r0      ; r0 symbolic offset
                and r1, r1, 0xfffffffc
                stw [r1], r2
                ret
            .bss
            buf: .space 64",
        );
        let x = st.new_symbol("off", SymOrigin::Other, 32);
        st.cpu.set(Reg(0), x.clone());
        let mut solver = Solver::new();
        let mut env = NullEnv;
        // Constrain the offset so any concretization lands in the buffer.
        let small = x.ult(&Expr::constant(32, 32));
        st.add_constraint(small);
        loop {
            match step(&mut st, &mut env, &mut solver) {
                SymStep::Continue => continue,
                SymStep::ReturnToKernel => break,
                ev => panic!("unexpected {ev:?}"),
            }
        }
        assert_eq!(st.concretizations.len(), 1, "address was concretized once");
    }

    #[test]
    fn memory_trace_events_recorded() {
        let (st, _) = make_state(
            "DriverEntry:
                lea r1, buf
                mov r2, 0x55
                stw [r1], r2
                ldw r3, [r1]
                ret
            .bss
            buf: .space 8",
        );
        let done = explore(st, &mut NullEnv);
        let (fin, _) = &done[0];
        let evs = fin.trace.events();
        assert!(evs.iter().any(|e| matches!(e, TraceEvent::MemWrite { value: Some(0x55), .. })));
        assert!(evs.iter().any(|e| matches!(e, TraceEvent::MemRead { value: Some(0x55), .. })));
        assert_eq!(fin.cpu.get(Reg(3)).as_const(), Some(0x55));
    }

    #[test]
    fn unmapped_fault_has_witness() {
        let (st, _) = make_state(
            "DriverEntry:
                mov r1, 0x66000000
                ldw r0, [r1]
                ret",
        );
        let done = explore(st, &mut NullEnv);
        match &done[0].1 {
            SymStep::Fault(SymFault::BadAccess { addr, .. }) => assert_eq!(*addr, 0x6600_0000),
            ev => panic!("expected fault, got {ev:?}"),
        }
    }

    #[test]
    fn port_reads_come_from_env() {
        struct CountingEnv {
            reads: u32,
        }
        impl SymEnv for CountingEnv {
            fn is_mmio(&self, _addr: u32) -> bool {
                false
            }
            fn mmio_read(&mut self, _st: &mut SymState, _a: u32, _s: u8) -> Expr {
                Expr::constant(0, 32)
            }
            fn mmio_write(&mut self, _st: &mut SymState, _a: u32, _s: u8, _v: &Expr) {}
            fn port_read(&mut self, st: &mut SymState, port: u32) -> Expr {
                self.reads += 1;
                st.new_symbol(format!("port{port:#x}"), SymOrigin::PortRead { port }, 32)
            }
            fn port_write(&mut self, _st: &mut SymState, _p: u32, _v: &Expr) {}
        }
        let (st, _) = make_state(
            "DriverEntry:
                in r0, 0x10
                bltu r0, 5, low
                ret
            low:
                ret",
        );
        let mut env = CountingEnv { reads: 0 };
        let done = explore(st, &mut env);
        assert_eq!(env.reads, 1);
        assert_eq!(done.len(), 2, "symbolic port value forks the branch");
    }

    #[test]
    fn mmio_routes_to_env() {
        struct MmioEnv;
        impl SymEnv for MmioEnv {
            fn is_mmio(&self, addr: u32) -> bool {
                (0x8000_0000..0x8000_1000).contains(&addr)
            }
            fn mmio_read(&mut self, st: &mut SymState, addr: u32, _s: u8) -> Expr {
                st.new_symbol(format!("hw{addr:#x}"), SymOrigin::HardwareRead { addr }, 32)
            }
            fn mmio_write(&mut self, _st: &mut SymState, _a: u32, _s: u8, _v: &Expr) {}
            fn port_read(&mut self, _st: &mut SymState, _p: u32) -> Expr {
                Expr::constant(0, 32)
            }
            fn port_write(&mut self, _st: &mut SymState, _p: u32, _v: &Expr) {}
        }
        let (st, _) = make_state(
            "DriverEntry:
                mov r1, 0x80000000
                ldw r0, [r1]        ; symbolic hardware read
                beq r0, 0, done
                mov r2, 1
            done:
                ret",
        );
        let done = explore(st, &mut MmioEnv);
        assert_eq!(done.len(), 2, "hardware value is unconstrained");
    }

    #[test]
    fn access_checker_vetoes() {
        struct Veto;
        impl SymEnv for Veto {
            fn is_mmio(&self, _addr: u32) -> bool {
                false
            }
            fn mmio_read(&mut self, _st: &mut SymState, _a: u32, _s: u8) -> Expr {
                Expr::constant(0, 32)
            }
            fn mmio_write(&mut self, _st: &mut SymState, _a: u32, _s: u8, _v: &Expr) {}
            fn port_read(&mut self, _st: &mut SymState, _p: u32) -> Expr {
                Expr::constant(0, 32)
            }
            fn port_write(&mut self, _st: &mut SymState, _p: u32, _v: &Expr) {}
            fn check_access(
                &mut self,
                st: &mut SymState,
                _solver: &mut Solver,
                addr: &Expr,
                size: u8,
                kind: AccessKind,
            ) -> Result<(), AccessViolation> {
                Err(AccessViolation {
                    pc: st.cpu.pc,
                    witness: addr.as_const().unwrap_or(0) as u32,
                    kind,
                    size,
                    reason: "all accesses vetoed".into(),
                    syms: vec![],
                    model: None,
                })
            }
        }
        let (st, _) = make_state(
            "DriverEntry:
                lea r1, buf
                ldw r0, [r1]
                ret
            .bss
            buf: .space 4",
        );
        let done = explore(st, &mut Veto);
        assert!(matches!(
            &done[0].1,
            SymStep::Fault(SymFault::AccessViolation(v)) if v.reason.contains("vetoed")
        ));
    }

    #[test]
    fn call_and_ret_maintain_lr() {
        let (st, _) = make_state(
            "DriverEntry:
                push lr
                mov r0, 3
                call triple
                pop lr
                ret
            triple:
                mov r1, 3
                mul r0, r0, r1
                ret",
        );
        let done = explore(st, &mut NullEnv);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0.cpu.get(Reg(0)).as_const(), Some(9));
    }
}

#[cfg(test)]
mod more_interp_tests {
    use super::*;
    use crate::state::{SymCounter, SymOrigin, SymState};
    use ddt_isa::asm::{assemble, ExportMap};
    use ddt_isa::{Reg, RETURN_TRAP};

    fn state_for(src: &str) -> SymState {
        let a = assemble(src, &ExportMap::new()).expect("asm");
        let mut st = SymState::new(SymCounter::new());
        let img = &a.image;
        st.mem.map(img.load_base, img.image_end() - img.load_base);
        st.mem.seed_bytes(img.load_base, &img.text);
        st.mem.seed_bytes(img.data_base(), &img.data);
        st.mem.set_code_region(img.load_base, img.text.len() as u32);
        st.mem.map(0x7000_0000, 0x10_0000);
        st.cpu.set_u32(Reg::SP, 0x7010_0000);
        st.cpu.set_u32(Reg::LR, RETURN_TRAP);
        st.cpu.pc = img.entry;
        st
    }

    fn run_to_end(st: &mut SymState) -> (SymStep, Vec<SymState>) {
        let mut solver = Solver::new();
        let mut env = NullEnv;
        let mut forks = Vec::new();
        loop {
            let outcome = step(st, &mut env, &mut solver);
            forks.append(&mut st.pending_forks);
            match outcome {
                SymStep::Continue => continue,
                SymStep::Forked { other, .. } => {
                    forks.push(*other);
                    continue;
                }
                terminal => return (terminal, forks),
            }
        }
    }

    #[test]
    fn jump_table_enumerates_exactly_its_entries() {
        // A 4-entry jump table indexed by a symbolic value constrained to
        // [0, 4): multi-way resolution must enumerate exactly 4 targets.
        let mut st = state_for(
            "DriverEntry:
                shl  r1, r0, 2
                lea  r2, table
                add  r2, r2, r1
                ldw  r3, [r2]
                jr   r3
            t0: mov r4, 10
                ret
            t1: mov r4, 11
                ret
            t2: mov r4, 12
                ret
            t3: mov r4, 13
                ret
            .data
            table: .word t0, t1, t2, t3",
        );
        let idx = st.new_symbol("idx", SymOrigin::Other, 32);
        st.add_constraint(idx.ult(&Expr::constant(4, 32)));
        st.cpu.set(Reg(0), idx);
        let mut done = Vec::new();
        let mut work = vec![st];
        while let Some(mut s) = work.pop() {
            let (terminal, forks) = run_to_end(&mut s);
            work.extend(forks);
            done.push((s, terminal));
            assert!(done.len() <= 8, "enumeration must not explode");
        }
        let mut r4s: Vec<u64> =
            done.iter().map(|(s, _)| s.cpu.get(Reg(4)).as_const().unwrap()).collect();
        r4s.sort_unstable();
        assert_eq!(r4s, vec![10, 11, 12, 13]);
    }

    #[test]
    fn wide_symbolic_index_takes_single_concretization() {
        let mut st = state_for(
            "DriverEntry:
                lea  r1, buf
                add  r1, r1, r0
                ldb  r2, [r1]
                ret
            .bss
            buf: .space 256",
        );
        let idx = st.new_symbol("idx", SymOrigin::Other, 32);
        st.add_constraint(idx.ult(&Expr::constant(256, 32)));
        st.cpu.set(Reg(0), idx);
        let mut done = 0;
        let mut work = vec![st];
        while let Some(mut s) = work.pop() {
            let (_, forks) = run_to_end(&mut s);
            work.extend(forks);
            done += 1;
        }
        assert_eq!(done, 1, "256 feasible addresses: no enumeration");
    }

    #[test]
    fn subword_stores_truncate() {
        let mut st = state_for(
            "DriverEntry:
                lea  r1, buf
                stb  [r1], r0
                ldw  r2, [r1]
                ret
            .bss
            buf: .space 8",
        );
        st.cpu.set_u32(Reg(0), 0xAABBCCDD);
        let (terminal, _) = run_to_end(&mut st);
        assert!(matches!(terminal, SymStep::ReturnToKernel));
        assert_eq!(st.cpu.get(Reg(2)).as_const(), Some(0xDD));
    }

    #[test]
    fn below_sp_write_is_checkable() {
        // The raw engine (NullEnv) allows below-sp writes; this documents
        // that the rule is checker policy, not engine mechanism.
        let mut st = state_for(
            "DriverEntry:
                stw  [sp-64], r0
                ret",
        );
        let (terminal, _) = run_to_end(&mut st);
        assert!(matches!(terminal, SymStep::ReturnToKernel));
    }

    #[test]
    fn push_pop_respect_the_moved_sp() {
        let mut st = state_for(
            "DriverEntry:
                mov  r0, 7
                push r0
                pop  r1
                ret",
        );
        let (terminal, _) = run_to_end(&mut st);
        assert!(matches!(terminal, SymStep::ReturnToKernel));
        assert_eq!(st.cpu.get(Reg(1)).as_const(), Some(7));
        assert_eq!(st.cpu.get(Reg::SP).as_const(), Some(0x7010_0000));
    }

    #[test]
    fn both_branch_sides_infeasible_is_infeasible_path() {
        let mut st = state_for(
            "DriverEntry:
                beq r0, 1, yes
                ret
            yes:
                ret",
        );
        let x = st.new_symbol("x", SymOrigin::Other, 32);
        // Contradictory constraints kill the path at the branch.
        st.add_constraint(x.eq(&Expr::constant(0, 32)));
        st.add_constraint(x.eq(&Expr::constant(1, 32)));
        st.cpu.set(Reg(0), x);
        let (terminal, forks) = run_to_end(&mut st);
        assert!(matches!(terminal, SymStep::Fault(SymFault::Infeasible)), "{terminal:?}");
        assert!(forks.is_empty());
    }
}
