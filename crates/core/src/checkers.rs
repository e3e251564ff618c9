//! Dynamic bug checkers and failure classification (§3.1).
//!
//! DDT has two checker families: VM-level checks (memory access
//! verification, implemented in [`crate::hardware`]) and guest-OS-level
//! checks that watch the kernel's event stream like Driver Verifier does
//! (§3.1.2). This module turns terminal conditions and kernel events into
//! classified [`PendingBug`]s:
//!
//! - CPU faults and kernel crashes, classified by context (a fault inside
//!   an injected interrupt handler is a race condition; a fault on a path
//!   with a forced allocation failure is an error-path crash) and by the
//!   provenance of the symbols the failure depends on (§3.6: an address
//!   poisoned by a registry parameter is memory corruption; by an
//!   entry-point argument, a bad-parameter crash),
//! - resource leaks at entry-point return,
//! - spinlock usage rules: wrong release variant, non-LIFO release order,
//!   locks held at return.

use ddt_kernel::{CrashInfo, KernelEvent, ResourceKind};
use ddt_symvm::interp::{AccessViolation, SymFault};
use ddt_symvm::{SymOrigin, TraceEvent};

use crate::faults::FaultPlan;
use crate::machine::Machine;
use crate::report::{BugClass, Decision};

/// A classified bug before trace/model attachment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingBug {
    /// Classification.
    pub class: BugClass,
    /// Human description (the Table 2 "Description" column).
    pub description: String,
    /// Driver pc the bug is attributed to.
    pub pc: u32,
    /// Dedup key (stable across exploration order).
    pub key: String,
    /// Model to record instead of solving the (possibly already further
    /// constrained) path condition — used by memory-checker violations,
    /// whose paths continue inside the aimed buffer after flagging.
    pub model: Option<ddt_expr::Assignment>,
    /// Symbols the failing condition depended on, when the checker knows
    /// them (memory violations carry the symbols of the bad address). The
    /// provenance roots of these symbols feed the bug's trace signature.
    pub syms: Vec<ddt_expr::SymId>,
}

/// The driver pc a fault is attributed to: for fetch faults (wild jumps)
/// the last successfully executed instruction, otherwise the faulting pc.
fn fault_site(m: &Machine, fault_pc: u32, is_fetch: bool) -> u32 {
    if !is_fetch {
        return fault_pc;
    }
    // Newest-first scan of the shared-prefix trace; no flattening.
    m.st.trace.last_exec_pc().unwrap_or(fault_pc)
}

fn race_context(m: &Machine) -> Option<String> {
    m.in_nested_frame().then(|| m.interrupted_entry().unwrap_or_default())
}

/// If this path carries an injected acquisition failure (legacy
/// `ForceAllocFail` or fault-plan `InjectFault`), a phrase describing the
/// error path for bug descriptions.
fn fault_path_note(m: &Machine) -> Option<String> {
    m.decisions().iter().find_map(|d| match d {
        Decision::ForceAllocFail { .. } => {
            Some("an allocation-failure handling path".to_string())
        }
        Decision::InjectFault { kind, .. } => {
            Some(format!("a path where {} failed", kind.describe()))
        }
        Decision::LifecycleEvent { event, .. } => {
            Some(format!("a path where the device saw a {event}"))
        }
        _ => None,
    })
}

/// Classifies a memory-checker violation (§3.6 provenance analysis).
pub fn classify_violation(m: &Machine, v: &AccessViolation) -> PendingBug {
    if v.syms.is_empty() {
        // The offending address is concrete: classify like a plain bad
        // pointer (NULL dereference on an error path, etc.).
        let what = if v.witness < 0x1000 {
            format!("NULL pointer dereference ({:#x})", v.witness)
        } else {
            format!("access to invalid address {:#x}", v.witness)
        };
        let (class, desc) = match (race_context(m), fault_path_note(m)) {
            (Some(at), _) => (
                BugClass::RaceCondition,
                format!("{what} in {} when an interrupt arrives during {at}", m.running()),
            ),
            (None, Some(note)) => (
                BugClass::SegFault,
                format!("{what} in {} on {note}", m.running()),
            ),
            (None, None) => (BugClass::SegFault, format!("{what} in {}", m.running())),
        };
        return PendingBug {
            class,
            description: desc,
            pc: v.pc,
            key: format!("viol:{:x}:{}:{}", v.pc, m.current_entry(), m.running()),
            model: v.model.clone(),
            syms: v.syms.clone(),
        };
    }
    let mut origins: Vec<&SymOrigin> =
        m.st.trace.provenance(&v.syms).into_iter().flatten().map(|(_, origin)| origin).collect();
    origins.sort_by_key(|o| match o {
        SymOrigin::Registry { .. } => 0,
        SymOrigin::EntryArg { .. } => 1,
        SymOrigin::HardwareRead { .. } | SymOrigin::PortRead { .. } => 2,
        _ => 3,
    });
    let (class, source) = match origins.first() {
        Some(SymOrigin::Registry { name }) => (
            BugClass::MemoryCorruption,
            format!("unchecked registry parameter {name:?} used in an address"),
        ),
        Some(SymOrigin::EntryArg { entry, .. }) => (
            BugClass::SegFault,
            format!("unvalidated {entry} argument used in an address"),
        ),
        Some(SymOrigin::HardwareRead { addr }) => (
            BugClass::SegFault,
            format!("hardware register value ({addr:#x}) used in an address unchecked"),
        ),
        Some(SymOrigin::PortRead { port }) => (
            BugClass::SegFault,
            format!("hardware port value ({port:#x}) used in an address unchecked"),
        ),
        _ => (BugClass::MemoryCorruption, "out-of-bounds access".to_string()),
    };
    let (class, racy) = match race_context(m) {
        Some(at) => (BugClass::RaceCondition, format!(" (in interrupt during {at})")),
        None => (class, String::new()),
    };
    PendingBug {
        class,
        description: format!(
            "{} in {}: {}{racy}",
            kind_noun(v.kind),
            m.running(),
            source
        ),
        pc: v.pc,
        key: format!("viol:{:x}:{}:{}", v.pc, m.current_entry(), m.running()),
        model: v.model.clone(),
        syms: v.syms.clone(),
    }
}

fn kind_noun(kind: ddt_isa::AccessKind) -> &'static str {
    match kind {
        ddt_isa::AccessKind::Read => "out-of-bounds read",
        ddt_isa::AccessKind::Write => "out-of-bounds write",
        ddt_isa::AccessKind::Fetch => "wild instruction fetch",
    }
}

/// Classifies a CPU fault terminal. Returns `None` for infeasible paths
/// (dead, not buggy).
pub fn classify_fault(m: &Machine, fault: &SymFault) -> Option<PendingBug> {
    let bug = match fault {
        SymFault::Infeasible => return None,
        SymFault::AccessViolation(v) => classify_violation(m, v),
        SymFault::BadAccess { pc, addr, kind } => {
            let is_fetch = matches!(kind, ddt_isa::AccessKind::Fetch);
            let site = fault_site(m, *pc, is_fetch);
            let what = if *addr < 0x1000 {
                format!("NULL pointer dereference ({addr:#x})")
            } else if is_fetch {
                format!("jump to invalid code at {addr:#x}")
            } else {
                format!("access to invalid address {addr:#x}")
            };
            let (class, desc) = match (race_context(m), fault_path_note(m)) {
                (Some(at), _) => (
                    BugClass::RaceCondition,
                    format!("{what} in {} when an interrupt arrives during {at}", m.running()),
                ),
                (None, Some(note)) => (
                    BugClass::SegFault,
                    format!("{what} in {} on {note}", m.running()),
                ),
                (None, None) => (BugClass::SegFault, format!("{what} in {}", m.running())),
            };
            PendingBug {
                class,
                description: desc,
                pc: site,
                key: format!("fault:{site:x}:{}:{}", m.running(), m.current_entry()),
                model: None,
                syms: Vec::new(),
            }
        }
        SymFault::IllegalInsn { pc } => {
            let site = fault_site(m, *pc, true);
            let (class, ctx) = match race_context(m) {
                Some(at) => (BugClass::RaceCondition, format!(" (interrupt during {at})")),
                None => (BugClass::SegFault, String::new()),
            };
            PendingBug {
                class,
                description: format!("execution of invalid code in {}{ctx}", m.running()),
                pc: site,
                key: format!("ill:{site:x}:{}", m.current_entry()),
                model: None,
                syms: Vec::new(),
            }
        }
        SymFault::Misaligned { pc, addr } => PendingBug {
            class: BugClass::SegFault,
            description: format!("misaligned access to {addr:#x} in {}", m.running()),
            pc: *pc,
            key: format!("mis:{pc:x}"),
            model: None,
            syms: Vec::new(),
        },
        SymFault::DivByZero { pc } => PendingBug {
            class: BugClass::SegFault,
            description: format!("division by zero in {}", m.running()),
            pc: *pc,
            key: format!("div:{pc:x}"),
            model: None,
            syms: Vec::new(),
        },
    };
    Some(bug)
}

/// Classifies a kernel crash (BSOD interception, §3.1.2).
///
/// Kernel crashes are deterministic properties of the handler code path
/// that issued the bad call, so they dedup on (code, handler, call site):
/// the same API-misuse crash reachable from several interrupt windows is
/// one bug. (Memory faults keep the interrupted entry in their key — their
/// root cause is the interrupted state, as in the two Ensoniq races.)
pub fn classify_crash(m: &Machine, crash: &CrashInfo) -> PendingBug {
    // The call site: the last driver instruction executed.
    let site = fault_site(m, m.st.cpu.pc, true);
    let deadlockish = crash.message.contains("deadlock");
    let key = format!("crash:{}:{}:{site:x}", crash.code, m.running());
    match race_context(m) {
        Some(at) => PendingBug {
            class: BugClass::RaceCondition,
            description: format!(
                "{} when an interrupt arrives during {at}",
                crash.message
            ),
            pc: site,
            key,
            model: None,
            syms: Vec::new(),
        },
        None => PendingBug {
            class: if deadlockish { BugClass::KernelHang } else { BugClass::KernelCrash },
            description: match fault_path_note(m) {
                Some(note) => format!(
                    "kernel crash in {}: {} (on {note})",
                    m.running(),
                    crash.message
                ),
                None => format!("kernel crash in {}: {}", m.running(), crash.message),
            },
            pc: site,
            key,
            model: None,
            syms: Vec::new(),
        },
    }
}

/// Scans kernel events appended since the last scan for API-usage bugs
/// (symbolic-to-concrete annotation rules, §3.4.1).
pub fn scan_kernel_events(m: &mut Machine) -> Vec<PendingBug> {
    let events = &m.kernel.state.events;
    let mut bugs = Vec::new();
    // Reconstruct the lock LIFO stack over the whole path so order
    // violations are detected even across scan boundaries.
    let mut lock_stack: Vec<u32> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let fresh = i >= m.events_scanned;
        match ev {
            KernelEvent::SpinAcquire { lock, .. } => lock_stack.push(*lock),
            KernelEvent::SpinRelease { lock, variant_mismatch, .. } => {
                if fresh && *variant_mismatch {
                    bugs.push(PendingBug {
                        class: BugClass::KernelCrash,
                        description: format!(
                            "wrong spinlock release variant in {} (NdisReleaseSpinLock after \
                             NdisDprAcquireSpinLock corrupts the IRQL)",
                            m.running()
                        ),
                        pc: m.st.cpu.pc,
                        key: format!("lockvariant:{lock:x}:{}", m.running()),
                        model: None,
                        syms: Vec::new(),
                    });
                }
                if let Some(pos) = lock_stack.iter().rposition(|l| l == lock) {
                    if fresh && pos != lock_stack.len() - 1 {
                        bugs.push(PendingBug {
                            class: BugClass::KernelHang,
                            description: format!(
                                "spinlocks released out of LIFO order in {}",
                                m.running()
                            ),
                            pc: m.st.cpu.pc,
                            key: format!("lockorder:{lock:x}:{}", m.running()),
                            model: None,
                            syms: Vec::new(),
                        });
                    }
                    lock_stack.remove(pos);
                }
            }
            _ => {}
        }
    }
    m.events_scanned = events.len();
    bugs
}

/// Examines a budget-killed path for the infinite-loop signature (§3.1.1,
/// the VM-level infinite-loop detection): the tail of the trace cycles
/// through at most two distinct instructions' blocks with no kernel calls
/// and no hardware reads — a pure computation loop that can never exit.
///
/// Polling loops (which read hardware each iteration) are *not* flagged:
/// with symbolic hardware they fork an exit path every iteration, and
/// whether endless polling is a defect is hardware-model-dependent (§6.1).
pub fn check_infinite_loop(m: &Machine, window: usize) -> Option<PendingBug> {
    if m.st.trace.len() < window {
        return None;
    }
    // Only the window's worth of events is materialized; the shared trace
    // prefix is never flattened.
    let tail = m.st.trace.tail(window);
    let mut pcs = std::collections::BTreeSet::new();
    for ev in &tail {
        match ev {
            TraceEvent::Exec { pc } => {
                pcs.insert(*pc);
            }
            TraceEvent::KernelCall { .. }
            | TraceEvent::HardwareRead { .. }
            | TraceEvent::EntryInvoke { .. } => return None,
            _ => {}
        }
    }
    // A tight cycle: few distinct instructions, repeating.
    if pcs.is_empty() || pcs.len() > 8 {
        return None;
    }
    let pc = *pcs.iter().next().expect("non-empty");
    Some(PendingBug {
        class: BugClass::KernelHang,
        description: format!(
            "infinite loop in {}: {} instruction(s) repeating with no exit condition",
            m.running(),
            pcs.len()
        ),
        pc,
        key: format!("loop:{pc:x}:{}", m.running()),
        model: None,
        syms: Vec::new(),
    })
}

/// Device-lifecycle checkers, run at every invocation return while the
/// returning frame is still on the stack:
///
/// - **touch-after-remove**: any hardware access recorded after the device
///   was surprise-removed is a use of a device that no longer exists (on
///   real hardware the bus returns all-ones or the write is silently
///   dropped; either way the driver is confused). Reported once per path,
///   at the first offending access.
/// - **resume-without-restore**: a `PnpSetPowerD0` handler that returns
///   without a single hardware write has not reprogrammed the device — the
///   registers lost their contents in D3, so the device comes back dead.
pub fn check_lifecycle(m: &mut Machine) -> Vec<PendingBug> {
    let mut bugs = Vec::new();
    if let Some(mark) = m.removed_trace_mark {
        if !m.touch_after_remove_reported {
            // Resume where the last scan stopped, with the last instruction
            // it passed.
            let mut last_pc = m.removed_last_pc;
            let touched = m.st.trace.iter_from(mark).find_map(|ev| match ev {
                TraceEvent::Exec { pc } => {
                    last_pc = Some(*pc);
                    None
                }
                TraceEvent::HardwareRead { addr, .. } => Some(("reads", *addr)),
                TraceEvent::HardwareWrite { addr, .. } => Some(("writes", *addr)),
                _ => None,
            });
            m.removed_trace_mark = Some(m.st.trace.len());
            m.removed_last_pc = last_pc;
            if let Some((verb, addr)) = touched {
                let last_pc = last_pc.unwrap_or(m.st.cpu.pc);
                m.touch_after_remove_reported = true;
                bugs.push(PendingBug {
                    class: BugClass::LifecycleViolation,
                    description: format!(
                        "{} {verb} device register {addr:#x} after the device \
                         was surprise-removed",
                        m.running()
                    ),
                    pc: last_pc,
                    key: format!("touchremove:{last_pc:x}:{}", m.running()),
                    model: None,
                    syms: Vec::new(),
                });
            }
        }
    }
    if let Some(crate::machine::Frame::Pnp { event, trace_mark, .. }) = m.frames.last() {
        if *event == crate::report::LifecycleEvent::Resume {
            let mut since_mark = m.st.trace.iter_from(*trace_mark);
            let restored = since_mark.any(|ev| matches!(ev, TraceEvent::HardwareWrite { .. }));
            if !restored {
                bugs.push(PendingBug {
                    class: BugClass::LifecycleViolation,
                    description: "driver resumes to D0 without reprogramming the device \
                                  (the power handler performed no hardware writes)"
                        .to_string(),
                    pc: m.st.cpu.pc,
                    key: format!("noreprog:{}", m.current_entry()),
                    model: None,
                    syms: Vec::new(),
                });
            }
        }
    }
    bugs
}

/// Leak and lock checks when an invocation returns to the kernel.
///
/// `is_initialize_failure` applies the paper's rule that a failed
/// initialization must have released everything it acquired.
pub fn on_invocation_return(
    m: &mut Machine,
    returned: &str,
    status: u32,
    held_at_entry: &[u32],
) -> Vec<PendingBug> {
    let mut bugs = Vec::new();
    // Locks acquired by this invocation must not be held across the return
    // to the kernel (locks held by interrupted code are not its fault, and
    // a leak already reported at the inner frame is not re-reported when
    // the outer frames unwind through it).
    let held_now: Vec<u32> = m.held_locks();
    for lock in held_now {
        if !held_at_entry.contains(&lock) && m.reported_held_locks.insert(lock) {
            bugs.push(PendingBug {
                class: BugClass::KernelHang,
                description: format!(
                    "{returned} returns with spinlock {lock:#x} still held"
                ),
                pc: m.st.cpu.pc,
                key: format!("heldlock:{lock:x}:{returned}"),
                model: None,
                syms: Vec::new(),
            });
        }
    }
    let s = &m.kernel.state;
    // Open configuration handles must not outlive the entry point.
    let open_cfg = s.live_resources(ResourceKind::ConfigHandle);
    if open_cfg > 0 && matches!(returned, "Initialize" | "DriverEntry") {
        bugs.push(PendingBug {
            class: BugClass::ResourceLeak,
            description: format!(
                "driver does not call NdisCloseConfiguration before returning from \
                 {returned}{}",
                if status != 0 { " when initialization fails" } else { "" }
            ),
            pc: m.st.cpu.pc,
            key: format!("cfgleak:{returned}"),
            model: None,
            syms: Vec::new(),
        });
    }
    // Unchecked-failure rule: Initialize claims success even though a
    // mandatory acquisition failed on this path — the driver ignored (or
    // never looked at) the failure status. Registry reads are exempt:
    // falling back to a default parameter value is correct behavior.
    if returned == "Initialize" && status == 0 {
        for family in m.injected_faults.clone() {
            if !FaultPlan::mandatory(family) {
                continue;
            }
            bugs.push(PendingBug {
                class: BugClass::UncheckedFailure,
                description: format!(
                    "Initialize reports success although {} failed \
                     (the failure status is never checked)",
                    family.describe()
                ),
                pc: m.st.cpu.pc,
                key: format!("unchecked:{family:?}:{returned}"),
                model: None,
                syms: Vec::new(),
            });
        }
    }
    // A failed Initialize must free everything it allocated (§5.1: "when
    // memory allocation fails, the drivers do not release all the resources
    // that were already allocated").
    if returned == "Initialize" && status != 0 {
        let pool = s.live_resources(ResourceKind::PoolMemory);
        if pool > 0 {
            bugs.push(PendingBug {
                class: BugClass::MemoryLeak,
                description: format!(
                    "driver leaks {pool} pool allocation(s) when initialization fails"
                ),
                pc: m.st.cpu.pc,
                key: "memleak:Initialize".to_string(),
                model: None,
                syms: Vec::new(),
            });
        }
        let packets = s.live_resources(ResourceKind::Packet);
        let buffers = s.live_resources(ResourceKind::Buffer);
        let pools = s.live_resources(ResourceKind::Pool);
        if packets + buffers + pools > 0 {
            bugs.push(PendingBug {
                class: BugClass::ResourceLeak,
                description: format!(
                    "driver leaks packets/buffers on failed initialization \
                     ({packets} packets, {buffers} buffers, {pools} pools)"
                ),
                pc: m.st.cpu.pc,
                key: "rsrcleak:Initialize".to_string(),
                model: None,
                syms: Vec::new(),
            });
        }
        let dma = s.live_resources(ResourceKind::DmaChannel);
        if dma > 0 {
            bugs.push(PendingBug {
                class: BugClass::ResourceLeak,
                description: format!("driver leaks {dma} DMA channel(s) on failed initialization"),
                pc: m.st.cpu.pc,
                key: "dmaleak:Initialize".to_string(),
                model: None,
                syms: Vec::new(),
            });
        }
    }
    bugs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_kernel::state::SpinLockState;
    use ddt_kernel::Kernel;
    use ddt_symvm::{SymCounter, SymState};

    fn machine() -> Machine {
        let mut m = Machine::new(SymState::new(SymCounter::new()), Kernel::new());
        m.frames.push(crate::machine::Frame::Entry {
            name: "Initialize".into(),
            held_at_entry: vec![],
        });
        m
    }

    #[test]
    fn infeasible_is_not_a_bug() {
        let m = machine();
        assert!(classify_fault(&m, &SymFault::Infeasible).is_none());
    }

    #[test]
    fn null_deref_in_isr_is_a_race() {
        let mut m = machine();
        m.frames.push(crate::machine::Frame::Isr {
            saved: m.save_ctx(),
            at_entry: "Initialize".into(),
            held_at_entry: vec![],
        });
        let f = SymFault::BadAccess { pc: 0x40_0100, addr: 4, kind: ddt_isa::AccessKind::Read };
        let bug = classify_fault(&m, &f).unwrap();
        assert_eq!(bug.class, BugClass::RaceCondition);
        assert!(bug.description.contains("interrupt arrives during Initialize"));
    }

    #[test]
    fn null_deref_on_alloc_failure_path_is_segfault() {
        let mut m = machine();
        m.push_decision(Decision::ForceAllocFail { kernel_call: 2 });
        let f = SymFault::BadAccess { pc: 0x40_0200, addr: 8, kind: ddt_isa::AccessKind::Write };
        let bug = classify_fault(&m, &f).unwrap();
        assert_eq!(bug.class, BugClass::SegFault);
        assert!(bug.description.contains("allocation-failure"));
    }

    #[test]
    fn registry_poisoned_address_is_memory_corruption() {
        let mut m = machine();
        let sym = m.st.new_symbol(
            "registry:MaximumMulticastList",
            SymOrigin::Registry { name: "MaximumMulticastList".into() },
            32,
        );
        let id = match sym.node() {
            ddt_expr::NodeView::Sym { id, .. } => id,
            _ => unreachable!(),
        };
        let v = AccessViolation {
            pc: 0x40_0300,
            witness: 0x9999_0000,
            kind: ddt_isa::AccessKind::Write,
            size: 4,
            reason: "escapes".into(),
            syms: vec![id],
            model: None,
        };
        let bug = classify_violation(&m, &v);
        assert_eq!(bug.class, BugClass::MemoryCorruption);
        assert!(bug.description.contains("MaximumMulticastList"));
    }

    #[test]
    fn registry_origin_is_read_from_the_trace_among_other_symbols() {
        // The origin comes from the symbol's own creation event: older and
        // newer symbols of other origins, and a fork between them (the
        // creation event sits in a frozen segment), must not be taken
        // instead.
        let mut m = machine();
        let sym_id = |e: &ddt_expr::Expr| match e.node() {
            ddt_expr::NodeView::Sym { id, .. } => id,
            _ => unreachable!(),
        };
        m.st.new_symbol("hw0x10", SymOrigin::HardwareRead { addr: 0x10 }, 32);
        let reg = m.st.new_symbol(
            "registry:MaximumMulticastList",
            SymOrigin::Registry { name: "MaximumMulticastList".into() },
            32,
        );
        m.st.trace.push(TraceEvent::Exec { pc: 0x40_0100 });
        let mut child = m.fork(1);
        let arg = child.st.new_symbol(
            "Send:arg1",
            SymOrigin::EntryArg { entry: "Send".into(), index: 1 },
            32,
        );
        child.st.new_symbol("hw0x14", SymOrigin::HardwareRead { addr: 0x14 }, 32);
        let v = AccessViolation {
            pc: 0x40_0300,
            witness: 0x9999_0000,
            kind: ddt_isa::AccessKind::Read,
            size: 4,
            reason: "escapes".into(),
            syms: vec![sym_id(&reg)],
            model: None,
        };
        let bug = classify_violation(&child, &v);
        assert_eq!(bug.class, BugClass::MemoryCorruption);
        assert!(bug.description.contains("\"MaximumMulticastList\""), "{}", bug.description);
        // An entry argument alone is a bad-parameter crash naming its entry.
        let v = AccessViolation { syms: vec![sym_id(&arg)], ..v };
        let bug = classify_violation(&child, &v);
        assert_eq!(bug.class, BugClass::SegFault);
        assert!(bug.description.contains("unvalidated Send argument"), "{}", bug.description);
    }

    #[test]
    fn wild_fetch_attributed_to_last_executed_insn() {
        let mut m = machine();
        m.st.trace.push(TraceEvent::Exec { pc: 0x40_0500 });
        let f = SymFault::BadAccess {
            pc: 0x6978_614d,
            addr: 0x6978_614d,
            kind: ddt_isa::AccessKind::Fetch,
        };
        let bug = classify_fault(&m, &f).unwrap();
        assert_eq!(bug.pc, 0x40_0500, "attributed to the jump, not the junk target");
    }

    #[test]
    fn crash_in_nested_frame_is_race() {
        let mut m = machine();
        m.frames.push(crate::machine::Frame::Isr {
            saved: m.save_ctx(),
            at_entry: "Initialize".into(),
            held_at_entry: vec![],
        });
        let crash = CrashInfo { code: 0xc7, message: "NdisMSetTimer on uninitialized timer".into() };
        let bug = classify_crash(&m, &crash);
        assert_eq!(bug.class, BugClass::RaceCondition);
    }

    #[test]
    fn deadlock_crash_is_kernel_hang() {
        let m = machine();
        let crash = CrashInfo { code: 0x81, message: "deadlock: spinlock held".into() };
        assert_eq!(classify_crash(&m, &crash).class, BugClass::KernelHang);
    }

    #[test]
    fn variant_mismatch_event_reported_once() {
        let mut m = machine();
        m.kernel.state.events.push(KernelEvent::SpinAcquire { lock: 0x40_1000, dpr: true });
        m.kernel.state.events.push(KernelEvent::SpinRelease {
            lock: 0x40_1000,
            dpr: false,
            variant_mismatch: true,
        });
        let bugs = scan_kernel_events(&mut m);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].class, BugClass::KernelCrash);
        // Second scan over the same events reports nothing new.
        assert!(scan_kernel_events(&mut m).is_empty());
    }

    #[test]
    fn out_of_order_release_detected() {
        let mut m = machine();
        let ev = &mut m.kernel.state.events;
        ev.push(KernelEvent::SpinAcquire { lock: 0xa, dpr: true });
        ev.push(KernelEvent::SpinAcquire { lock: 0xb, dpr: true });
        ev.push(KernelEvent::SpinRelease { lock: 0xa, dpr: true, variant_mismatch: false });
        ev.push(KernelEvent::SpinRelease { lock: 0xb, dpr: true, variant_mismatch: false });
        let bugs = scan_kernel_events(&mut m);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].class, BugClass::KernelHang);
        assert!(bugs[0].description.contains("LIFO"));
    }

    #[test]
    fn lifo_release_is_clean() {
        let mut m = machine();
        let ev = &mut m.kernel.state.events;
        ev.push(KernelEvent::SpinAcquire { lock: 0xa, dpr: true });
        ev.push(KernelEvent::SpinAcquire { lock: 0xb, dpr: true });
        ev.push(KernelEvent::SpinRelease { lock: 0xb, dpr: true, variant_mismatch: false });
        ev.push(KernelEvent::SpinRelease { lock: 0xa, dpr: true, variant_mismatch: false });
        assert!(scan_kernel_events(&mut m).is_empty());
    }

    #[test]
    fn failed_initialize_leaks_are_reported_by_kind() {
        let mut m = machine();
        let s = &mut m.kernel.state;
        s.pool.insert(
            0x0100_0000,
            ddt_kernel::state::PoolAlloc { addr: 0x0100_0000, size: 64, tag: 0, paged: false },
        );
        s.packets.insert(0x0100_0100, 0xb00c_0000);
        s.packet_pools.insert(0xb00c_0000, 2);
        let bugs = on_invocation_return(&mut m, "Initialize", 0xC000_0001, &[]);
        let classes: Vec<BugClass> = bugs.iter().map(|b| b.class).collect();
        assert!(classes.contains(&BugClass::MemoryLeak));
        assert!(classes.contains(&BugClass::ResourceLeak));
        assert_eq!(bugs.len(), 2);
    }

    #[test]
    fn successful_initialize_with_resources_is_clean() {
        let mut m = machine();
        m.kernel.state.pool.insert(
            0x0100_0000,
            ddt_kernel::state::PoolAlloc { addr: 0x0100_0000, size: 64, tag: 0, paged: false },
        );
        assert!(on_invocation_return(&mut m, "Initialize", 0, &[]).is_empty());
    }

    #[test]
    fn open_config_at_return_is_a_leak() {
        let mut m = machine();
        m.kernel.state.config_handles.insert(0xc0f0_0000, true);
        let bugs = on_invocation_return(&mut m, "Initialize", 0xC000_0001, &[]);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].class, BugClass::ResourceLeak);
        assert!(bugs[0].description.contains("NdisCloseConfiguration"));
    }

    #[test]
    fn unchecked_mandatory_fault_on_successful_initialize_is_reported() {
        let mut m = machine();
        m.injected_faults.push(ddt_kernel::FaultFamily::Registration);
        let bugs = on_invocation_return(&mut m, "Initialize", 0, &[]);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].class, BugClass::UncheckedFailure);
        assert!(bugs[0].description.contains("interrupt/timer registration"));
    }

    #[test]
    fn registry_fault_fallback_is_not_unchecked_failure() {
        let mut m = machine();
        m.injected_faults.push(ddt_kernel::FaultFamily::Registry);
        assert!(on_invocation_return(&mut m, "Initialize", 0, &[]).is_empty());
    }

    #[test]
    fn injected_fault_path_note_shows_up_in_fault_descriptions() {
        let mut m = machine();
        m.push_decision(Decision::InjectFault {
            site: 3,
            kind: ddt_kernel::FaultFamily::SharedMemory,
        });
        let f = SymFault::BadAccess { pc: 0x40_0200, addr: 8, kind: ddt_isa::AccessKind::Write };
        let bug = classify_fault(&m, &f).unwrap();
        assert_eq!(bug.class, BugClass::SegFault);
        assert!(bug.description.contains("shared memory allocation failed"));
    }

    #[test]
    fn touch_after_remove_reports_first_access_once() {
        let mut m = machine();
        m.st.trace.push(TraceEvent::Exec { pc: 0x40_0010 });
        m.removed_trace_mark = Some(m.st.trace.len());
        m.st.trace.push(TraceEvent::Exec { pc: 0x40_0020 });
        m.st.trace.push(TraceEvent::HardwareWrite { addr: 0x12, value: Some(0xff) });
        m.st.trace.push(TraceEvent::HardwareWrite { addr: 0x13, value: Some(0x1) });
        let bugs = check_lifecycle(&mut m);
        assert_eq!(bugs.len(), 1, "first offending access only");
        assert_eq!(bugs[0].class, BugClass::LifecycleViolation);
        assert_eq!(bugs[0].pc, 0x40_0020, "attributed to the access instruction");
        assert!(bugs[0].description.contains("after the device was surprise-removed"));
        assert!(check_lifecycle(&mut m).is_empty(), "reported once per path");
    }

    #[test]
    fn touch_after_remove_scan_resumes_with_the_last_instruction() {
        let mut m = machine();
        m.removed_trace_mark = Some(m.st.trace.len());
        m.st.trace.push(TraceEvent::Exec { pc: 0x40_0030 });
        assert!(check_lifecycle(&mut m).is_empty(), "no hardware access yet");
        m.st.cpu.pc = 0x40_0090;
        m.st.trace.push(TraceEvent::HardwareRead { addr: 0x14, id: ddt_expr::SymId(0) });
        let bugs = check_lifecycle(&mut m);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].pc, 0x40_0030, "the instruction an earlier scan passed");
        assert!(bugs[0].description.contains("reads device register 0x14"));
        // With no instruction since the removal, the current pc is used.
        let mut m = machine();
        m.st.cpu.pc = 0x40_0040;
        m.removed_trace_mark = Some(m.st.trace.len());
        assert!(check_lifecycle(&mut m).is_empty());
        m.st.trace.push(TraceEvent::HardwareWrite { addr: 0x12, value: None });
        assert_eq!(check_lifecycle(&mut m)[0].pc, 0x40_0040);
    }
    #[test]
    fn accesses_before_removal_are_clean() {
        let mut m = machine();
        m.st.trace.push(TraceEvent::HardwareWrite { addr: 0x12, value: Some(0xff) });
        m.removed_trace_mark = Some(m.st.trace.len());
        assert!(check_lifecycle(&mut m).is_empty());
    }

    #[test]
    fn resume_without_hardware_writes_is_a_violation() {
        let mut m = machine();
        m.st.trace.push(TraceEvent::HardwareWrite { addr: 0x11, value: Some(1) });
        let trace_mark = m.st.trace.len();
        m.frames.push(crate::machine::Frame::Pnp {
            event: crate::report::LifecycleEvent::Resume,
            saved: m.save_ctx(),
            at_entry: "Send".into(),
            held_at_entry: vec![],
            trace_mark,
        });
        let bugs = check_lifecycle(&mut m);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].class, BugClass::LifecycleViolation);
        assert!(bugs[0].description.contains("without reprogramming"));
        // A handler that does reprogram the device is clean.
        m.st.trace.push(TraceEvent::HardwareWrite { addr: 0x11, value: Some(1) });
        assert!(check_lifecycle(&mut m).is_empty());
    }

    #[test]
    fn suspend_handler_needs_no_hardware_writes() {
        let mut m = machine();
        m.frames.push(crate::machine::Frame::Pnp {
            event: crate::report::LifecycleEvent::Suspend,
            saved: m.save_ctx(),
            at_entry: "Send".into(),
            held_at_entry: vec![],
            trace_mark: 0,
        });
        assert!(check_lifecycle(&mut m).is_empty());
    }

    #[test]
    fn lifecycle_path_note_shows_up_in_crash_descriptions() {
        let mut m = machine();
        m.push_decision(Decision::LifecycleEvent {
            boundary: 2,
            event: crate::report::LifecycleEvent::SurpriseRemove,
        });
        let crash = CrashInfo { code: 0x7e, message: "freeing invalid pool pointer 0x100".into() };
        let bug = classify_crash(&m, &crash);
        assert_eq!(bug.class, BugClass::KernelCrash);
        assert!(bug.description.contains("a path where the device saw a surprise removal"));
    }

    #[test]
    fn held_lock_at_return_is_a_hang() {
        let mut m = machine();
        let mut l = SpinLockState::new();
        l.held = true;
        m.kernel.state.spinlocks.insert(0x40_1000, l);
        let bugs = on_invocation_return(&mut m, "HandleInterrupt", 0, &[]);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].class, BugClass::KernelHang);
    }
}
