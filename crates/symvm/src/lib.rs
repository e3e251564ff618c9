//! Symbolic execution of DDT-32 driver binaries.
//!
//! This crate is the Klee-equivalent execution engine (DESIGN.md §2): it
//! interprets driver machine code over *symbolic* machine state, forks at
//! feasible branches, tracks path constraints, and records the execution
//! trace events that DDT turns into replayable bug reports.
//!
//! Architecture (paper §4.1):
//!
//! - [`SymState`] is one execution state — "conceptually a complete system
//!   snapshot": symbolic CPU, symbolic memory, path constraints,
//!   concretization log, and the trace, whose symbol-creation events are
//!   the path's provenance table.
//! - [`mem::SymMemory`] implements the paper's chained copy-on-write (§4.1.3):
//!   forks push an immutable layer; reads that miss locally walk the parent
//!   chain and are cached in the leaf.
//! - [`interp::step`] executes one instruction; branch decisions consult the
//!   constraint [`Solver`], forking when both sides are feasible.
//! - The [`SymEnv`] trait is the hook surface DDT (in `ddt-core`) implements:
//!   symbolic hardware reads, memory access checking, and MMIO detection.
//!
//! [`Solver`]: ddt_solver::Solver

pub mod interp;
pub mod mem;
pub mod state;
pub mod trace;

pub use interp::{step, SymEnv, SymFault, SymStep};
pub use mem::{RootMem, SymMemory};
pub use state::{
    GrantRegion, //
    GrantSet,
    SymCounter,
    SymCpu,
    SymOrigin,
    SymState,
};
pub use trace::{Trace, TraceEvent};
