//! Execution traces (paper §3.5).
//!
//! "These traces contain the list of program counters of the executed
//! instructions up to the bug occurrence, all memory accesses done by each
//! instruction (address and value) and the type of the access. Traces
//! contain information about creation and propagation of all symbolic values
//! and constraints on branches taken. Each branch instruction has a flag
//! indicating whether it forked execution or not."
//!
//! Traces are chained like memory layers so that forking a state is O(1);
//! [`Trace::events`] flattens the chain in execution order.

use std::sync::Arc;

use ddt_expr::{Expr, SymId};
use serde::{Deserialize, Serialize};

use crate::state::SymOrigin;

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An instruction was executed at `pc`.
    Exec {
        /// Program counter.
        pc: u32,
    },
    /// A data memory read.
    MemRead {
        /// Instruction address performing the read.
        pc: u32,
        /// Accessed guest address.
        addr: u32,
        /// Access size in bytes.
        size: u8,
        /// The value, if concrete.
        value: Option<u64>,
    },
    /// A data memory write.
    MemWrite {
        /// Instruction address performing the write.
        pc: u32,
        /// Accessed guest address.
        addr: u32,
        /// Access size in bytes.
        size: u8,
        /// The value, if concrete.
        value: Option<u64>,
    },
    /// A conditional branch was resolved.
    Branch {
        /// Branch instruction address.
        pc: u32,
        /// Whether the branch was taken on this path.
        taken: bool,
        /// Whether execution forked here (both sides feasible).
        forked: bool,
        /// The path constraint added (already negated for the not-taken
        /// side).
        constraint: Expr,
    },
    /// A fresh symbolic value was created.
    SymCreate {
        /// The symbol.
        id: SymId,
        /// Human-readable provenance label.
        label: String,
        /// Where the symbol came from (hardware read, entry argument, …) —
        /// the provenance root recorded in persisted trace artifacts (§3.6).
        origin: SymOrigin,
        /// Width of the symbol in bits.
        width: u32,
    },
    /// A symbolic expression was concretized (at a kernel call or a
    /// symbolic-address access).
    Concretize {
        /// Program counter at the concretization point.
        pc: u32,
        /// The expression that was concretized.
        expr: Expr,
        /// The chosen concrete value.
        value: u64,
    },
    /// The driver called a kernel export.
    KernelCall {
        /// Export id.
        export_id: u16,
        /// Export name.
        name: String,
    },
    /// A kernel export returned to the driver.
    KernelReturn {
        /// Export id.
        export_id: u16,
        /// Concrete return value placed in `r0`.
        ret: u32,
    },
    /// The kernel invoked a driver entry point.
    EntryInvoke {
        /// Entry point name.
        name: String,
        /// Entry address.
        addr: u32,
    },
    /// An interrupt was injected (symbolic interrupt, §3.3).
    Interrupt {
        /// Interrupt line.
        line: u8,
        /// Where in the execution it was injected (pc of the boundary).
        at_pc: u32,
    },
    /// A hardware register read was served by symbolic hardware.
    HardwareRead {
        /// MMIO address or port.
        addr: u32,
        /// The symbol produced.
        id: SymId,
    },
    /// A hardware write was discarded by symbolic hardware (logged for
    /// §3.6-style analysis, e.g. "no write to the interrupt-enable
    /// register occurred before the crash").
    HardwareWrite {
        /// MMIO address or port.
        addr: u32,
        /// The value, if concrete.
        value: Option<u64>,
    },
}

#[derive(Debug, Default)]
struct TraceSeg {
    parent: Option<Arc<TraceSeg>>,
    events: Vec<TraceEvent>,
}

/// An append-only, fork-cheap event log.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    frozen: Option<Arc<TraceSeg>>,
    local: Vec<TraceEvent>,
    frozen_len: usize,
    /// Room the local tail takes at its first push: the length of the tail
    /// the last fork froze.
    tail_hint: usize,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.local.capacity() == 0 {
            self.local.reserve_exact(self.tail_hint);
        }
        self.local.push(ev);
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.frozen_len + self.local.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forks the trace: both sides keep the history, appends diverge.
    ///
    /// Each side's next local tail takes room, at its first push, for as
    /// many events as the tail this fork froze, so the per-instruction
    /// pushes that follow do not regrow it from empty. A side parked in a
    /// frontier holds no tail until it runs.
    pub fn fork(&mut self) -> Trace {
        if !self.local.is_empty() {
            self.tail_hint = self.local.len();
            let events = std::mem::take(&mut self.local);
            self.frozen_len += events.len();
            self.frozen = Some(Arc::new(TraceSeg { parent: self.frozen.take(), events }));
        }
        Trace {
            frozen: self.frozen.clone(),
            local: Vec::new(),
            frozen_len: self.frozen_len,
            tail_hint: self.tail_hint,
        }
    }

    /// Visits events newest-first: the local tail, then the frozen
    /// segments back to the root. A query answered by recent history (the
    /// common case for checkers asking "where was the last instruction?")
    /// never touches the shared prefix.
    pub fn iter_rev(&self) -> impl Iterator<Item = &TraceEvent> {
        let frozen = std::iter::successors(self.frozen.as_deref(), |seg| seg.parent.as_deref());
        self.local.iter().rev().chain(frozen.flat_map(|seg| seg.events.iter().rev()))
    }

    /// Visits the events from index `start` on, in execution order, without
    /// cloning them. Only the segments that hold such events are walked.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = &TraceEvent> {
        let mut segs = Vec::new();
        let mut seg_start = self.frozen_len;
        let mut cur = self.frozen.as_deref();
        while let Some(seg) = cur.filter(|_| seg_start > start) {
            seg_start -= seg.events.len();
            segs.push(seg);
            cur = seg.parent.as_deref();
        }
        let skip = start.saturating_sub(seg_start);
        segs.into_iter().rev().flat_map(|seg| seg.events.iter()).chain(&self.local).skip(skip)
    }

    /// Flattens the chain into execution order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.iter_from(0).cloned().collect()
    }

    /// Iterates executed program counters in order.
    pub fn pcs(&self) -> Vec<u32> {
        self.iter_from(0)
            .filter_map(|e| match e {
                TraceEvent::Exec { pc } => Some(*pc),
                _ => None,
            })
            .collect()
    }

    /// Program counter of the most recently executed instruction, if any.
    ///
    /// O(distance from the tail) — replaces the `events()` full flatten the
    /// checkers used to do on every fault-site lookup.
    pub fn last_exec_pc(&self) -> Option<u32> {
        self.iter_rev().find_map(|ev| match ev {
            TraceEvent::Exec { pc } => Some(*pc),
            _ => None,
        })
    }

    /// The last `n` events in execution order, without flattening the whole
    /// chain.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        self.iter_from(self.len().saturating_sub(n)).cloned().collect()
    }

    /// The label and origin of each symbol in `ids`, in `ids` order, as the
    /// symbol's [`TraceEvent::SymCreate`] recorded them (`None` for a
    /// symbol this path did not create). Every symbol of a path is created
    /// by [`crate::SymState::new_symbol`], which logs that event, so the
    /// trace is the path's provenance table (§3.6). One newest-first walk
    /// that stops once every symbol is found.
    pub fn provenance(&self, ids: &[SymId]) -> Vec<Option<(&str, &SymOrigin)>> {
        let mut found = vec![None; ids.len()];
        let mut missing = ids.len();
        for ev in self.iter_rev() {
            if missing == 0 {
                break;
            }
            let TraceEvent::SymCreate { id, label, origin, .. } = ev else { continue };
            for (slot, want) in found.iter_mut().zip(ids) {
                if want == id && slot.is_none() {
                    *slot = Some((label.as_str(), origin));
                    missing -= 1;
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_flatten() {
        let mut t = Trace::new();
        t.push(TraceEvent::Exec { pc: 1 });
        t.push(TraceEvent::Exec { pc: 2 });
        assert_eq!(t.pcs(), vec![1, 2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fork_shares_history_but_not_future() {
        let mut a = Trace::new();
        a.push(TraceEvent::Exec { pc: 1 });
        let mut b = a.fork();
        a.push(TraceEvent::Exec { pc: 2 });
        b.push(TraceEvent::Exec { pc: 3 });
        assert_eq!(a.pcs(), vec![1, 2]);
        assert_eq!(b.pcs(), vec![1, 3]);
    }

    #[test]
    fn repeated_forks_preserve_order() {
        let mut t = Trace::new();
        for pc in 0..5 {
            t.push(TraceEvent::Exec { pc });
            let _child = t.fork();
        }
        t.push(TraceEvent::Exec { pc: 99 });
        assert_eq!(t.pcs(), vec![0, 1, 2, 3, 4, 99]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn tail_and_last_exec_cross_fork_boundaries() {
        let mut t = Trace::new();
        t.push(TraceEvent::Exec { pc: 1 });
        t.push(TraceEvent::Exec { pc: 2 });
        let _child = t.fork(); // freezes [1, 2]
        t.push(TraceEvent::KernelCall { export_id: 3, name: "x".into() });
        assert_eq!(t.last_exec_pc(), Some(2));
        assert_eq!(t.tail(2).len(), 2);
        assert_eq!(t.tail(10).len(), 3);
        let seen: Vec<u32> = t
            .iter_from(0)
            .filter_map(|ev| match ev {
                TraceEvent::Exec { pc } => Some(*pc),
                _ => None,
            })
            .collect();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn events_roundtrip_serde() {
        let mut t = Trace::new();
        t.push(TraceEvent::Branch {
            pc: 0x400000,
            taken: true,
            forked: true,
            constraint: ddt_expr::Expr::true_(),
        });
        let json = serde_json::to_string(&t.events()).unwrap();
        let back: Vec<TraceEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t.events());
    }
}
