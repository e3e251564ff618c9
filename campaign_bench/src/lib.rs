//! End-to-end campaign benchmark for DDT.
//!
//! Runs one of four workloads (see `NOTES.md`) through the public `ddt`
//! API for a fixed time, checks every campaign's output with an oracle,
//! and reports end-to-end metrics, or with tracing on, per-layer metrics.

pub mod launcher;
pub mod metrics;
pub mod oracle;
pub mod probe;
pub mod workload;
