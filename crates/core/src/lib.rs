//! DDT: testing closed-source binary device drivers.
//!
//! This crate is the paper's primary contribution (Kuznetsov, Chipounov,
//! Candea — USENIX ATC 2010): a tool that takes a **binary** driver, runs
//! it against its real (mini-)kernel with **fully symbolic hardware** and
//! **symbolic interrupts**, explores its paths with selective symbolic
//! execution, checks each path with modular dynamic checkers, and emits
//! replayable bug reports.
//!
//! Architecture (paper Figure 1):
//!
//! ```text
//!   driver binary (.dxe) ──► [exerciser] ──► report { bugs, traces }
//!        loads into             │  ▲
//!   [ddt-kernel] (concrete) ◄───┘  │ forks, checks
//!        device accesses ──► [hardware: symbolic device + mem checker]
//!        kernel events   ──► [checkers]
//!        API boundaries  ──► [annotations]
//!        failed paths    ──► [replay] (concrete re-execution in ddt-vm)
//! ```
//!
//! # Quick start
//!
//! ```
//! use ddt_core::{Ddt, DdtConfig, DriverUnderTest};
//!
//! // Test the bundled clean reference driver: no bugs, good coverage.
//! let spec = ddt_drivers::clean_driver();
//! let dut = DriverUnderTest::from_spec(&spec);
//! let report = Ddt::default().test(&dut);
//! assert!(report.bugs.is_empty(), "the clean driver has no bugs");
//! assert!(report.relative_coverage() > 0.5);
//! ```

pub mod analysis;
pub mod annotations;
pub mod checkers;
pub mod checkpoint;
pub mod coverage;
pub mod exerciser;
mod explore;
pub mod faults;
pub mod fleet;
pub mod hardware;
pub mod hybrid;
pub mod machine;
pub mod parallel;
pub mod replay;
pub mod report;
pub mod search;
pub mod tracestore;

pub use analysis::{analyze_bug, BugAnalysis, DeviceSpec};
pub use annotations::Annotations;
pub use checkpoint::{load_latest, CampaignError, CampaignSeed, CheckpointPolicy};
pub use ddt_kernel::FaultFamily;
pub use exerciser::{Ddt, DdtConfig, DriverUnderTest};
pub use faults::{FaultInjector, FaultPlan};
pub use fleet::{
    pump_frames, run_worker, serve, FleetConfig, FleetEvent, WorkerHandle, WorkerLauncher,
    WorkerOpts,
};
pub use hardware::DdtEnv;
pub use hybrid::{run_hybrid, FuzzConfig};
pub use machine::{Frame, Machine, SymHost};
pub use parallel::{resume_parallel, test_parallel};
pub use replay::{decision_streams, replay_bug, ReplayOutcome};
pub use report::{
    Bug, BugClass, BugOrigin, Decision, ExploreStats, LifecycleEvent, Report, RunHealth,
};
pub use search::{Frontier, Strategy};
pub use tracestore::{artifact_from_bug, bug_from_artifact, persist_bugs, replay_artifact};
