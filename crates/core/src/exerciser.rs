//! The driver exerciser: DDT's scheduling quantum (§3.2, §4.3).
//!
//! The exerciser loads the driver binary into the kernel (fake PnP), drives
//! its entry points with the concrete workload generator, and symbolically
//! executes the driver from each invocation, one quantum at a time (the
//! loop that schedules quanta is the exploration core, `crate::explore`):
//!
//! - branches on symbolic values fork (handled by `ddt-symvm`),
//! - kernel calls cross into native kernel code through [`SymHost`],
//!   concretizing on demand; annotation hooks run around each call,
//! - symbolic interrupts are injected at kernel/driver boundary crossings
//!   once an ISR is registered (§3.3) — each injection is a fork,
//! - allocation calls fork a failed alternative (the NULL-alternative
//!   concrete-to-symbolic hint),
//! - state selection follows the EXE-style minimum-block-hit heuristic
//!   (§4.3) via [`crate::coverage::Coverage::priority`].
//!
//! Paths end at faults (classified into bugs), kernel crashes, failed
//! initialization (after leak checks — the paper's termination criterion),
//! or workload exhaustion.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ddt_expr::Expr;
use ddt_isa::image::DxeImage;
use ddt_isa::{analysis, Reg};
use ddt_kernel::loader::{DeviceDescriptor, LoadPlan};
use ddt_kernel::{
    DevicePowerState, EntryInvocation, ExecContext, FaultFamily, Irql, Kernel, KernelEvent,
};
use ddt_solver::{QueryCache, Solver};
use ddt_symvm::{
    step, //
    RootMem,
    SymCounter,
    SymMemory,
    SymOrigin,
    SymState,
    SymStep,
    TraceEvent,
};

use crate::annotations::{apply_resource_grants, post_kernel_call, Annotations};
use crate::checkers::{
    check_lifecycle, //
    classify_crash,
    classify_fault,
    classify_violation,
    on_invocation_return,
    scan_kernel_events,
    PendingBug,
};
use crate::checkpoint::{
    checkpoint_file, //
    frontier_records,
    CampaignSeed,
    CampaignWriter,
    CheckpointPolicy,
};
use crate::explore::{Explorer, RunState, RunView, Start};
use crate::faults::{FaultInjector, FaultPlan};
use crate::hardware::DdtEnv;
use crate::machine::{Frame, Machine, SymHost};
use crate::replay::{ReplayCursor, ReplaySteer};
use crate::report::{Bug, BugOrigin, Decision, ExploreStats, LifecycleEvent, Report, RunHealth};
use crate::search::Strategy;
use ddt_drivers::workload::{WorkloadOp, OID_BASE};
use ddt_drivers::DriverClass;
use ddt_trace::{PathStatus, SiteKind};

/// Configuration for one DDT run.
#[derive(Clone, Debug)]
pub struct DdtConfig {
    /// Annotation set (§3.4.1); disable for the ablation.
    pub annotations: Annotations,
    /// VM-level memory access verification (§3.1.1).
    pub check_memory: bool,
    /// Symbolic interrupts injected per path (§3.3).
    pub interrupt_budget: u32,
    /// Worklist cap; new forks beyond this are dropped (memory bound,
    /// §6.1's 4 GB analog).
    pub max_states: usize,
    /// Total instruction budget for the exploration.
    pub max_total_insns: u64,
    /// Per-invocation instruction budget (kills polling-loop paths).
    pub max_invocation_insns: u64,
    /// Whole-path step budget: a path that executes this many instructions
    /// across all invocations is terminated as a potential driver hang
    /// (`PathBudgetExceeded` health event) instead of spinning until the
    /// run-level budgets drain. `u64::MAX` disables the watchdog.
    pub max_path_insns: u64,
    /// Wall-clock budget in milliseconds.
    pub time_budget_ms: u64,
    /// Systematic kernel-API fault injection plan. Disabled by default so
    /// baseline bug counts match the paper's Table 2.
    pub fault_plan: FaultPlan,
    /// Counterexample-caching solver layer (on by default). Disabling it
    /// (`--no-query-cache`) makes every worker run the full decision
    /// procedure on every non-trivial query — the exploration is identical,
    /// only slower (the cache is semantically invisible by construction).
    pub use_query_cache: bool,
    /// Pre-built cache to share across runs (warm-cache benchmarking, or
    /// one cache spanning several drivers). `None` means each run builds a
    /// fresh cache shared by all of its workers. Ignored when
    /// `use_query_cache` is false.
    pub shared_cache: Option<Arc<QueryCache>>,
    /// Test-only resilience hook: the counter is decremented once per
    /// scheduled quantum, and the quantum that takes it to zero panics
    /// (one-shot). Used to verify that a panicking state is isolated as a
    /// [`RunHealth`] incident instead of aborting the run.
    pub panic_hook: Option<Arc<AtomicU64>>,
    /// When set, every confirmed bug is persisted to this trace store
    /// directory (binary event log + JSON manifest, §3.5), with its
    /// decision schedule minimized against the concrete replayer first.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Durable-campaign policy: when set, the exploration appends a
    /// write-ahead journal and periodic frontier checkpoints to the
    /// directory, making the run crash-safe and resumable
    /// (`ddt test --checkpoint-dir` / `--resume`).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Cooperative interruption flag (SIGINT): when it flips to true the
    /// explorer drains in-flight quanta, writes a final checkpoint (if a
    /// campaign is active), and returns a partial report.
    pub stop_flag: Option<Arc<AtomicBool>>,
    /// Frontier search strategy (`--strategy`). The default `fifo` is the
    /// report-identity baseline; `coverage-new-first` reorders expansion
    /// only, so both find the same bug set (the `search_differential`
    /// harness pins this).
    pub strategy: Strategy,
}

impl Default for DdtConfig {
    fn default() -> Self {
        DdtConfig {
            annotations: Annotations::defaults(),
            check_memory: true,
            interrupt_budget: 1,
            max_states: 4096,
            max_total_insns: 3_000_000,
            max_invocation_insns: 20_000,
            max_path_insns: u64::MAX,
            time_budget_ms: 120_000,
            fault_plan: FaultPlan::disabled(),
            use_query_cache: true,
            shared_cache: None,
            panic_hook: None,
            trace_dir: None,
            checkpoint: None,
            stop_flag: None,
            strategy: Strategy::Fifo,
        }
    }
}

impl DdtConfig {
    /// Resolves the query cache for one run: the configured shared handle, a
    /// fresh per-run cache, or `None` when caching is disabled. All of a
    /// run's workers share the returned handle.
    pub fn run_cache(&self) -> Option<Arc<QueryCache>> {
        if !self.use_query_cache {
            return None;
        }
        Some(self.shared_cache.clone().unwrap_or_default())
    }

    /// Fingerprint of everything that steers exploration. A checkpoint
    /// records it and resume refuses a mismatch: a frontier recorded under
    /// one configuration will not replay under another. Cache and
    /// reporting knobs are deliberately excluded — they are semantically
    /// invisible to path selection. The text keeps the `prune=false` field
    /// of the removed structural pruning, so checkpoints written before its
    /// removal still resume.
    pub fn fingerprint(&self) -> u64 {
        let desc = format!(
            "v1:ann={:?}:mem={}:irq={}:states={}:insns={}:per_inv={}:path={}:wall={}:faults={:016x}:strat={}:prune=false",
            self.annotations,
            self.check_memory,
            self.interrupt_budget,
            self.max_states,
            self.max_total_insns,
            self.max_invocation_insns,
            self.max_path_insns,
            self.time_budget_ms,
            self.fault_plan.fingerprint(),
            self.strategy.name(),
        );
        ddt_trace::fnv1a64(desc.as_bytes())
    }

    /// True when the cooperative interruption flag has been raised.
    pub(crate) fn stop_requested(&self) -> bool {
        self.stop_flag.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// What the exerciser needs to know about the driver under test. Only the
/// binary image is driver-specific knowledge — no source, no internals.
#[derive(Clone, Debug)]
pub struct DriverUnderTest {
    /// The closed-source binary.
    pub image: DxeImage,
    /// NIC or audio (selects workload/entry conventions).
    pub class: DriverClass,
    /// Registry parameters present on the machine.
    pub registry: Vec<(String, u32)>,
    /// The fake PnP descriptor (§4.2).
    pub descriptor: DeviceDescriptor,
    /// Entry-point invocation sequence (Device Path Exerciser analog).
    pub workload: Vec<WorkloadOp>,
}

impl DriverUnderTest {
    /// Builds the test input from a bundled driver spec.
    pub fn from_spec(spec: &ddt_drivers::DriverSpec) -> DriverUnderTest {
        let built = spec.build();
        DriverUnderTest {
            image: built.image,
            class: spec.class,
            registry: spec.registry.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            descriptor: spec.descriptor.clone(),
            workload: ddt_drivers::workload::workload_for(spec.class),
        }
    }

    /// The memory every root state of a campaign starts from: the image's
    /// text and data seeded, and its text decoded. A campaign builds it
    /// once and shares it with every root, lift and prefix replay.
    pub(crate) fn root_mem(&self) -> Arc<RootMem> {
        let mut root = RootMem::new();
        root.seed(self.image.load_base, &self.image.text);
        root.seed(self.image.data_base(), &self.image.data);
        root.set_code_region(self.image.load_base, self.image.text.len() as u32);
        Arc::new(root)
    }
}

/// The DDT tool.
#[derive(Default)]
pub struct Ddt {
    /// Run configuration.
    pub config: DdtConfig,
}


/// Steps per scheduling quantum.
const QUANTUM: u64 = 256;

/// Mutable context threaded through one scheduling quantum: the
/// exploration sinks (worklist, id counter, stats, bug map), the
/// per-quantum outputs the explorer hands on (executed pcs, new bug keys,
/// fork events), and — during frontier reconstruction — the cursor that
/// steers every fork site down the recorded choice log instead of
/// spawning children.
pub(crate) struct QuantumSinks<'a> {
    worklist: &'a mut Vec<Machine>,
    next_id: &'a mut u64,
    pub stats: &'a mut ExploreStats,
    pub bugs: &'a mut HashMap<String, Bug>,
    /// Worklist capacity: forks beyond it are dropped.
    max_states: usize,
    /// The run around a quantum whose worklist and bug map are its own (a
    /// parallel worker's); `None` when they are the run's (a local loop).
    run: Option<&'a RunView>,
    /// Every pc executed, in order (coverage accounting).
    pub exec_pcs: Vec<u32>,
    /// Keys first recorded during this quantum (journaled with the path).
    pub new_bug_keys: Vec<String>,
    /// Sightings of keys the run already holds, one entry per sighting.
    pub repeat_bug_keys: Vec<String>,
    /// Fork events `(parent, child, site)` from this quantum (journaled).
    pub fork_events: Vec<(u64, u64, SiteKind)>,
    /// `Some` puts the quantum in replay mode: no children are spawned, the
    /// cursor decides at every site whether this machine stays the parent
    /// or becomes the recorded child.
    pub replay: Option<&'a mut ReplayCursor>,
}

impl<'a> QuantumSinks<'a> {
    /// Exploration-mode sinks for one quantum.
    pub(crate) fn new(
        worklist: &'a mut Vec<Machine>,
        next_id: &'a mut u64,
        stats: &'a mut ExploreStats,
        bugs: &'a mut HashMap<String, Bug>,
        max_states: usize,
        run: Option<&'a RunView>,
    ) -> QuantumSinks<'a> {
        QuantumSinks {
            worklist,
            next_id,
            stats,
            bugs,
            max_states,
            run,
            exec_pcs: Vec::with_capacity(QUANTUM as usize),
            new_bug_keys: Vec::new(),
            repeat_bug_keys: Vec::new(),
            fork_events: Vec::new(),
            replay: None,
        }
    }

    /// Asks the replay cursor (if any) how to treat a fork site;
    /// exploration always stays the parent and spawns the child.
    fn steer(&mut self, kind: SiteKind) -> ReplaySteer {
        match self.replay.as_deref_mut() {
            Some(cur) => cur.take(kind),
            None => ReplaySteer::Stay,
        }
    }

    fn replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// Fork admission, the one way a child enters the worklist. A full
    /// run drops the fork (counted); otherwise `child` builds it under the
    /// next id — returning `None` for an infeasible child, which uses up no
    /// id and no place — and the child logs its pick, is journaled as a
    /// fork of `parent`, and is counted as a started path. Replay spawns
    /// nothing.
    fn admit(
        &mut self,
        parent: u64,
        kind: SiteKind,
        pick: u32,
        child: impl FnOnce(u64) -> Option<Machine>,
    ) {
        if self.replaying() {
            return;
        }
        if !self.reserve() {
            self.stats.states_dropped += 1;
            return;
        }
        let Some(mut child) = child(*self.next_id) else {
            if let Some(run) = self.run {
                run.release(1);
            }
            return;
        };
        *self.next_id += 1;
        child.log_pick(kind, pick);
        self.fork_events.push((parent, child.id, kind));
        self.stats.paths_started += 1;
        self.worklist.push(child);
    }

    /// Takes a place for one more pending state under `max_states`. A
    /// local loop's worklist is its whole frontier; a parallel quantum
    /// asks the run.
    fn reserve(&self) -> bool {
        match self.run {
            None => self.worklist.len() < self.max_states,
            Some(run) => run.reserve(self.max_states),
        }
    }
}

/// How a kernel-call trap resolved.
pub(crate) enum CallFlow {
    /// The call ran; execution resumes at the saved return address.
    Done,
    /// Replay steering replaced the machine with a pre-call alternative
    /// (armed fault or concretization backtrack); the caller must restart
    /// the loop iteration so the unchanged trap pc re-dispatches.
    Restarted,
}

impl Ddt {
    /// Creates DDT with a configuration.
    pub fn new(config: DdtConfig) -> Ddt {
        Ddt { config }
    }

    /// Tests one driver binary and produces the bug report (§2).
    pub fn test(&self, dut: &DriverUnderTest) -> Report {
        self.explore_serial(dut, None)
    }

    /// Serial exploration (§4.3): the one local loop over the configured
    /// strategy, optionally seeded with the restored frontier and
    /// aggregates of an interrupted campaign (§4.7). It stops on the stop
    /// flag or a budget; after each quantum it journals the quantum and
    /// keeps the checkpoint cadence.
    pub(crate) fn explore_serial(
        &self,
        dut: &DriverUnderTest,
        seed: Option<CampaignSeed>,
    ) -> Report {
        let start = seed.map_or(Start::Root, Start::Resume);
        let analysis = analysis::analyze(&dut.image);
        let (mut run, mut frontier) = RunState::start(self, dut, analysis, start);
        let mut explorer = Explorer::new(self, dut, &run.cache, &run.root);
        let mut campaign = self.config.checkpoint.as_ref().map(|policy| {
            let fingerprint = self.config.fingerprint();
            CampaignWriter::start(policy, &dut.image.name, fingerprint, run.checkpoint_seq)
        });
        let mut since_checkpoint: u64 = 0;
        let mut interrupted = false;
        let Ok(()) = explorer.drain(
            &mut run,
            &mut frontier,
            |run, _| {
                if self.config.stop_requested() {
                    interrupted = true;
                    return true;
                }
                run.over_budget(&self.config)
            },
            |explorer, run, frontier, q| {
                let Some(c) = campaign.as_mut() else { return Ok::<(), Infallible>(()) };
                c.record_quantum(q);
                since_checkpoint += 1;
                if since_checkpoint >= c.every_quanta() {
                    since_checkpoint = 0;
                    run.stats.wall_ms = run.coverage.elapsed_ms();
                    explorer.fold(&mut run.stats);
                    let pending = frontier_records(frontier.as_slice());
                    c.write_checkpoint(checkpoint_file(self, dut, run, pending, false, false));
                }
                Ok(())
            },
        );
        run.into_report(self, dut, Some(&mut explorer), |run| match campaign {
            Some(c) => c.close(self, dut, run, frontier_records(frontier.as_slice()), interrupted),
            None => RunHealth::default(),
        })
    }

    /// Builds the root machine over the campaign's root memory (see
    /// [`DriverUnderTest::root_mem`]): image and stack mapped, kernel
    /// configured, DriverEntry invoked (the PnP load of §4.2).
    pub(crate) fn make_root_machine(&self, dut: &DriverUnderTest, root: &Arc<RootMem>) -> Machine {
        let mut st = SymState::new(SymCounter::new());
        st.mem = SymMemory::with_root(root.clone());
        let plan = LoadPlan::new(dut.image.clone());
        for (start, len) in plan.regions() {
            st.mem.map(start, len);
        }
        st.grants.grant(
            dut.image.load_base,
            dut.image.image_end() - dut.image.load_base,
            "driver image",
        );
        // Stack access is granted dynamically (above sp).
        let mut kernel = Kernel::new();
        for (k, v) in &dut.registry {
            kernel.state.registry.insert(k.clone(), *v);
        }
        kernel.state.device = dut.descriptor.clone();
        let mut m = Machine::new(st, kernel);
        m.interrupt_budget = self.config.interrupt_budget;
        let entry = plan.driver_entry();
        m.frames.push(Frame::Entry { name: entry.name.clone(), held_at_entry: vec![] });
        m.apply_invocation(&entry, false);
        m.st.trace.push(TraceEvent::EntryInvoke { name: entry.name, addr: entry.addr });
        m
    }

    /// Runs one scheduling quantum of a machine: up to [`QUANTUM`] symbolic
    /// steps with full kernel-call / return / fork handling. Forked states
    /// are appended to the sink worklist; executed pcs are appended for
    /// coverage accounting. Returns `None` while the machine is still alive
    /// (reschedule it) or the terminal status that ended the path.
    ///
    /// Every fork *site* — a point where exploration may spawn an
    /// alternative — fires on conditions that depend only on the machine's
    /// own state, never on worklist pressure (capacity gates only the
    /// push). That invariant is what makes a recorded choice log replayable
    /// under any later worklist population: in replay mode the sites fire
    /// in the identical order and the cursor steers through them.
    pub(crate) fn run_quantum(
        &self,
        dut: &DriverUnderTest,
        m: &mut Machine,
        env: &mut DdtEnv,
        solver: &mut Solver,
        sinks: &mut QuantumSinks,
    ) -> Option<PathStatus> {
        if sinks.replay.is_none() {
            if let Some(hook) = &self.config.panic_hook {
                let fired = hook
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .ok();
                if fired == Some(1) {
                    panic!("induced quantum panic (test hook)");
                }
            }
        }
        let syms_before = m.st.counter.allocated();
        let mut end: Option<PathStatus> = None;
        for _ in 0..QUANTUM {
            if let Some(cur) = sinks.replay.as_deref() {
                // Prefix reconstruction stops exactly at the checkpointed
                // step count; divergence is checked by the caller.
                if cur.diverged.is_some() || m.steps_total >= cur.target_steps {
                    break;
                }
            }
            // Whole-path step watchdog: a path that has executed this many
            // instructions without terminating is a potential driver hang
            // (e.g. a polling loop the per-invocation budget keeps resetting
            // across entry points). Not checked during prefix replay — a
            // path over budget can never have entered a frontier.
            if sinks.replay.is_none() && m.steps_total >= self.config.max_path_insns {
                end = Some(PathStatus::StepBudgetExceeded);
                break;
            }
            m.steps_total += 1;
            sinks.exec_pcs.push(m.st.cpu.pc);
            let outcome = step(&mut m.st, env, solver);
            sinks.stats.insns += 1;
            m.steps_in_entry += 1;
            // Multi-way address resolution parks alternatives on the state.
            // The whole drain is ONE fork site: the parent (pick 0) keeps
            // its resolution, alternative `i` is pick `i + 1`.
            let alts = std::mem::take(&mut m.st.pending_forks);
            if !alts.is_empty() {
                match sinks.steer(SiteKind::PendingFork) {
                    ReplaySteer::Stay => {
                        for (i, alt) in alts.into_iter().enumerate() {
                            let pick = (i + 1) as u32;
                            sinks.admit(m.id, SiteKind::PendingFork, pick, |id| {
                                Some(m.adopt(alt, id))
                            });
                        }
                        m.note_site();
                    }
                    ReplaySteer::Child(pick) => {
                        let idx = (pick as usize).saturating_sub(1);
                        match alts.into_iter().nth(idx) {
                            Some(alt) => {
                                let mut child = m.adopt(alt, m.id);
                                child.log_pick(SiteKind::PendingFork, pick);
                                *m = child;
                                // The parent's step aftermath (violations,
                                // outcome) belongs to the path we just left.
                                let _ = env.drain_violations();
                                continue;
                            }
                            None => {
                                if let Some(cur) = sinks.replay.as_deref_mut() {
                                    cur.mark_diverged("pending-fork pick out of range");
                                }
                                break;
                            }
                        }
                    }
                }
            }
            // Survivable memory-checker violations: report, continue.
            for v in env.drain_violations() {
                let pending = classify_violation(m, &v);
                self.record_bug(sinks, m, pending, solver, dut);
            }
            match outcome {
                SymStep::Continue => {
                    if m.steps_in_entry > self.config.max_invocation_insns {
                        if let Some(pending) = crate::checkers::check_infinite_loop(m, 64) {
                            self.record_bug(sinks, m, pending, solver, dut);
                        }
                        end = Some(PathStatus::BudgetKilled);
                        break;
                    }
                }
                SymStep::Forked { other, needs_verdict } => {
                    match sinks.steer(SiteKind::BranchFork) {
                        ReplaySteer::Stay => {
                            // The interpreter forked the untaken side
                            // without a solver call; decide it once it is
                            // sure of a frontier slot.
                            sinks.admit(m.id, SiteKind::BranchFork, 1, |id| {
                                let live = !needs_verdict
                                    || solver.is_feasible_under(&other.constraints, &[]);
                                live.then(|| m.adopt(*other, id))
                            });
                            m.note_site();
                        }
                        ReplaySteer::Child(_) => {
                            // A recorded child was feasible when it was
                            // forked, so replay needs no verdict.
                            let mut child = m.adopt(*other, m.id);
                            child.log_pick(SiteKind::BranchFork, 1);
                            *m = child;
                        }
                    }
                }
                SymStep::KernelCall { export_id } => {
                    match self.handle_kernel_call(m, export_id, solver, sinks, dut) {
                        Ok(CallFlow::Done) => {}
                        Ok(CallFlow::Restarted) => continue,
                        Err(pending) => {
                            self.record_bug(sinks, m, pending, solver, dut);
                            end = Some(PathStatus::Faulted);
                            break;
                        }
                    }
                }
                SymStep::ReturnToKernel => {
                    match self.handle_return(m, solver, sinks, dut) {
                        ReturnFlow::Continue => {}
                        ReturnFlow::PathDone => {
                            end = Some(PathStatus::Completed);
                            break;
                        }
                    }
                }
                SymStep::Halted => {
                    end = Some(PathStatus::Completed);
                    break;
                }
                SymStep::Fault(f) => {
                    let classified = classify_fault(m, &f);
                    match classified {
                        Some(pending) => {
                            self.record_bug(sinks, m, pending, solver, dut);
                            end = Some(PathStatus::Faulted);
                        }
                        None => end = Some(PathStatus::Infeasible),
                    }
                    break;
                }
            }
        }
        sinks.stats.max_cow_depth = sinks.stats.max_cow_depth.max(m.st.mem.chain_depth());
        // Symbol accounting is a per-quantum delta so it sums correctly
        // across any quantum partition (and across checkpoint/resume).
        sinks.stats.symbols += m.st.counter.allocated().wrapping_sub(syms_before);
        match end {
            Some(PathStatus::Completed) => sinks.stats.paths_completed += 1,
            Some(PathStatus::Faulted) => sinks.stats.paths_faulted += 1,
            Some(PathStatus::Infeasible) => sinks.stats.paths_infeasible += 1,
            Some(PathStatus::BudgetKilled) => sinks.stats.paths_budget_killed += 1,
            Some(PathStatus::StepBudgetExceeded) => sinks.stats.paths_step_budget_killed += 1,
            // Still alive (reschedule it); a panic is counted by the caller.
            None | Some(PathStatus::Panicked) => {}
        }
        end
    }

    /// One single-alternative fork site. In exploration the child is
    /// forked, mutated, logged, and pushed (capacity gates only the push —
    /// the site itself fires unconditionally, keeping choice logs
    /// replayable under any worklist pressure). During replay the cursor
    /// steers: `Stay` skips the site; `Child` applies the mutation to the
    /// machine itself and returns `true` so the caller can re-dispatch.
    fn fork_site(
        &self,
        m: &mut Machine,
        sinks: &mut QuantumSinks,
        kind: SiteKind,
        mutate: impl FnOnce(&mut Machine),
    ) -> bool {
        match sinks.steer(kind) {
            ReplaySteer::Stay => {
                sinks.admit(m.id, kind, 1, |id| {
                    let mut child = m.fork(id);
                    mutate(&mut child);
                    Some(child)
                });
                m.note_site();
                false
            }
            ReplaySteer::Child(_) => {
                mutate(m);
                m.log_pick(kind, 1);
                true
            }
        }
    }

    /// Converts a pending bug into a full report entry (trace + solved
    /// inputs + decision schedule, §3.5) and dedups it.
    ///
    /// Deduplication is two-level: the checker key collapses repeat
    /// sightings within this run (counted via [`Bug::occurrences`]; a
    /// parallel quantum hands a key the run already holds back as a repeat,
    /// so only a key's first sighting builds a bug), and the
    /// trace signature (crash pc + frame stack + checker id + provenance
    /// roots, §3.6) identifies the bug across states and runs once
    /// persisted.
    fn record_bug(
        &self,
        sinks: &mut QuantumSinks,
        m: &Machine,
        pending: PendingBug,
        solver: &mut Solver,
        dut: &DriverUnderTest,
    ) {
        if let Some(existing) = sinks.bugs.get_mut(&pending.key) {
            existing.occurrences += 1;
            return;
        }
        if sinks.run.is_some_and(|run| run.knows_bug(&pending.key)) {
            sinks.repeat_bug_keys.push(pending.key);
            return;
        }
        let inputs = match pending.model.clone() {
            Some(model) => model,
            None => match m.st.last_model.clone() {
                // The cached model satisfies the path condition by invariant.
                Some(model) => model,
                None => match solver.check_under(&m.st.constraints, &[]) {
                    ddt_solver::SatResult::Sat(model) => model,
                    ddt_solver::SatResult::Unsat => return, // Dead path; not a bug.
                },
            },
        };
        // The symbols implicated at the bug site: those the checker named,
        // or — when the checker has none (crashes, hangs) — the symbols of
        // the last path constraint, which is the decision that steered
        // execution here.
        let mut site_syms = pending.syms.clone();
        if site_syms.is_empty() {
            if let Some(constraint) = m.st.trace.iter_rev().find_map(|ev| match ev {
                TraceEvent::Branch { constraint, .. } => Some(constraint.clone()),
                _ => None,
            }) {
                let mut set = std::collections::BTreeSet::new();
                ddt_expr::collect_syms(&constraint, &mut set);
                site_syms = set.into_iter().collect();
            }
        }
        let trace = m.st.trace.events();
        let provenance = ddt_trace::provenance_chains(&trace, &site_syms, &inputs);
        let roots: Vec<String> = provenance.iter().map(|c| c.root()).collect();
        let stack: Vec<String> =
            m.frames.iter().map(|f| f.running().to_string()).collect();
        let signature = ddt_trace::signature(
            pending.pc,
            &stack,
            ddt_trace::checker_id(&pending.key),
            &roots,
        );
        let bug = Bug {
            driver: dut.image.name.clone(),
            class: pending.class,
            origin: BugOrigin::Symbolic,
            description: pending.description,
            pc: pending.pc,
            entry: m.current_entry().to_string(),
            interrupted_entry: m.interrupted_entry(),
            trace,
            inputs,
            decisions: m.decisions().to_vec(),
            key: pending.key.clone(),
            signature,
            occurrences: 1,
            stack,
            provenance,
        };
        sinks.new_bug_keys.push(pending.key.clone());
        sinks.bugs.insert(pending.key, bug);
    }

    /// One kernel API call: annotations around a native kernel invocation,
    /// plus symbolic-interrupt injection at the boundary (§3.3).
    // The Err variant is the rare bug path; boxing it would tax the hot
    // Ok path's callers for nothing.
    #[allow(clippy::result_large_err)]
    fn handle_kernel_call(
        &self,
        m: &mut Machine,
        export: u16,
        solver: &mut Solver,
        sinks: &mut QuantumSinks,
        dut: &DriverUnderTest,
    ) -> Result<CallFlow, PendingBug> {
        // Concrete-to-symbolic hint: fork the failed-allocation alternative.
        // One failed acquisition per path, whichever mechanism injects it.
        let has_fault = m
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::ForceAllocFail { .. } | Decision::InjectFault { .. }));
        if self.config.annotations.wants_failure_fork(export) && !has_fault {
            let kernel_call = m.kernel_calls;
            if self.fork_site(m, sinks, SiteKind::AllocFail, |c| {
                c.kernel.state.force_alloc_failures = 1;
                c.push_decision(Decision::ForceAllocFail { kernel_call });
            }) {
                // Became the failed-allocation alternative: the trap pc is
                // unchanged, so re-dispatch consumes the armed fault.
                return Ok(CallFlow::Restarted);
            }
        }
        // Systematic fault injection (the fault plan's generalization of the
        // same hint): fork an alternative in which this acquisition fails.
        // The fork resumes at the call instruction with the one-shot fault
        // armed, so re-dispatch consumes it.
        let injector = FaultInjector::new(self.config.fault_plan.clone());
        if let Some(kind) = injector.should_fork(export, &self.config.annotations, m.decisions()) {
            let site = m.kernel_calls;
            if self.fork_site(m, sinks, SiteKind::FaultInject, |c| {
                c.kernel.state.inject_fault = Some(kind);
                c.push_decision(Decision::InjectFault { site, kind });
            }) {
                return Ok(CallFlow::Restarted);
            }
        }
        let name = ddt_kernel::export_name(export).unwrap_or("?").to_string();
        m.st.trace.push(TraceEvent::KernelCall { export_id: export, name });
        m.kernel_calls += 1;
        let events_before = m.kernel.state.events.len();
        let ret_to = {
            let lr = m.st.cpu.get(Reg::LR);
            lr.as_const().map(|v| v as u32)
        };
        // Concretization backtracking (§3.2): if an argument register is
        // symbolic, snapshot the pre-call state so the call can be repeated
        // with a different feasible concrete value. One backtrack per path
        // keeps the fan-out linear. The condition is deliberately
        // independent of worklist capacity (see `run_quantum`).
        let may_backtrack = !m
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::ConcretizationBacktrack { .. }))
            && (0..4).any(|i| !m.st.cpu.regs[i].is_const());
        let arg_exprs: [Expr; 4] = std::array::from_fn(|i| m.st.cpu.regs[i].clone());
        let snapshot = if may_backtrack { Some(m.fork(u64::MAX)) } else { None };
        let mut host = SymHost::new(&mut m.st, solver);
        let call_result = m.kernel.invoke(export, &mut host);
        let args = host.args_seen;
        if let Some(mut snap) = snapshot {
            // For the first argument the kernel actually concretized,
            // re-enable the other feasible values on a fork that re-issues
            // the call from the snapshot.
            for i in 0..4 {
                let (Some(v), e) = (args[i], &arg_exprs[i]) else { continue };
                if e.is_const() {
                    continue;
                }
                let exclude = e.ne(&Expr::constant(v as u64, 32));
                let excluded = snap.st.constraints.with(exclude.clone());
                if let ddt_solver::SatResult::Sat(model) = solver.check_under(&excluded, &[]) {
                    // A feasible alternative exists: this is a fork site.
                    let call_idx = m.kernel_calls - 1;
                    let arm = move |s: &mut Machine| {
                        s.st.adopt_constraint(excluded, &exclude);
                        s.st.set_model(model);
                        s.push_decision(Decision::ConcretizationBacktrack {
                            kernel_call: call_idx,
                        });
                    };
                    match sinks.steer(SiteKind::Backtrack) {
                        ReplaySteer::Stay => {
                            sinks.admit(m.id, SiteKind::Backtrack, 1, |id| {
                                snap.id = id;
                                arm(&mut snap);
                                Some(snap)
                            });
                            m.note_site();
                        }
                        ReplaySteer::Child(_) => {
                            snap.id = m.id;
                            arm(&mut snap);
                            snap.log_pick(SiteKind::Backtrack, 1);
                            *m = snap;
                            // The machine is now the pre-call snapshot with
                            // the exclusion armed; re-dispatch the call.
                            return Ok(CallFlow::Restarted);
                        }
                    }
                }
                break;
            }
        }
        if let Err(crash) = call_result {
            return Err(classify_crash(m, &crash));
        }
        post_kernel_call(&self.config.annotations, &mut m.st, &m.kernel, solver, export, &args);
        let new_events = m.kernel.state.events[events_before..].to_vec();
        for ev in &new_events {
            if let KernelEvent::FaultInjected { family } = ev {
                sinks.stats.count_fault(*family);
                m.injected_faults.push(*family);
            }
        }
        apply_resource_grants(&mut m.st, &new_events);
        for pending in scan_kernel_events(m) {
            self.record_bug(sinks, m, pending, solver, dut);
        }
        // Resume the driver at the saved link register.
        let ret = m.st.cpu.get(Reg(0)).as_const().unwrap_or(0) as u32;
        m.st.trace.push(TraceEvent::KernelReturn { export_id: export, ret });
        match ret_to {
            Some(pc) => m.st.cpu.pc = pc,
            None => {
                // A symbolic return address would mean stack corruption.
                return Err(PendingBug {
                    class: crate::report::BugClass::SegFault,
                    description: "symbolic return address after kernel call".into(),
                    pc: m.st.cpu.pc,
                    key: format!("symlr:{}", m.kernel_calls),
                    model: None,
                    syms: Vec::new(),
                });
            }
        }
        // Boundary crossing: symbolic interrupt injection point.
        m.boundaries += 1;
        // If replay turns the machine into the interrupted alternative, the
        // next loop iteration simply steps into the ISR — no restart needed.
        if !self.maybe_inject_interrupt(m, sinks) {
            // Same for the lifecycle alternatives: the next iteration steps
            // into the PnP handler.
            let _ = self.maybe_inject_lifecycle(m, sinks);
        }
        Ok(CallFlow::Done)
    }

    /// The symbolic-interrupt fork site: an alternative in which the device
    /// interrupt fires at this boundary. Returns `true` when replay
    /// steering turned the machine itself into that alternative.
    fn maybe_inject_interrupt(&self, m: &mut Machine, sinks: &mut QuantumSinks) -> bool {
        if m.interrupt_budget == 0 || m.in_nested_frame() {
            return false;
        }
        // A removed or powered-down device raises no interrupts.
        if !m.kernel.state.device_present || m.kernel.state.power != DevicePowerState::D0 {
            return false;
        }
        let Some(table) = m.kernel.state.miniport.clone() else { return false };
        if m.kernel.state.interrupt.is_none() || table.isr == 0 {
            return false;
        }
        let boundary = m.boundaries;
        self.fork_site(m, sinks, SiteKind::Interrupt, |c| {
            c.interrupt_budget -= 1;
            c.push_decision(Decision::InjectInterrupt { boundary });
            let at_entry = c.running().to_string();
            let line = c.kernel.state.interrupt.as_ref().map(|i| i.line).unwrap_or(0);
            c.st.trace.push(TraceEvent::Interrupt { line, at_pc: c.st.cpu.pc });
            let saved = c.save_ctx();
            let held_at_entry = c.held_locks();
            c.frames.push(Frame::Isr { saved, at_entry, held_at_entry });
            c.kernel.state.context = ExecContext::Isr;
            c.kernel.state.irql = Irql::Device;
            let inv = EntryInvocation::new("Isr", table.isr, [0, 0, 0, 0]);
            c.apply_invocation(&inv, true);
            c.st.trace.push(TraceEvent::EntryInvoke { name: "Isr".into(), addr: table.isr });
        })
    }

    /// The device-lifecycle fork sites: up to two alternatives per boundary
    /// in which a power transition (suspend from D0, resume from D3) or a
    /// surprise removal hits the device and the driver's PnP handler runs.
    /// Returns `true` when replay steering turned the machine itself into
    /// one of those alternatives.
    fn maybe_inject_lifecycle(&self, m: &mut Machine, sinks: &mut QuantumSinks) -> bool {
        if !self.config.fault_plan.wants(FaultFamily::Lifecycle) {
            return false;
        }
        if m.lifecycle_budget == 0 || m.in_nested_frame() {
            return false;
        }
        let s = &m.kernel.state;
        // No handler, no events; a removed device emits nothing further;
        // PnP notifications arrive at passive level only.
        if s.pnp_handler == 0 || !s.device_present || s.irql != Irql::Passive {
            return false;
        }
        let boundary = m.boundaries;
        // Power site: the direction depends on the current power state, so
        // a suspend alternative can later fork its own resume alternative.
        let power_event = match s.power {
            DevicePowerState::D0 => LifecycleEvent::Suspend,
            DevicePowerState::D3 => LifecycleEvent::Resume,
        };
        if !sinks.replaying() {
            sinks.stats.count_fault(FaultFamily::Lifecycle);
        }
        if self.fork_site(m, sinks, SiteKind::Lifecycle, |c| {
            c.lifecycle_budget -= 1;
            c.push_decision(Decision::LifecycleEvent { boundary, event: power_event });
            deliver_lifecycle(c, power_event, true);
        }) {
            return true;
        }
        // Removal site: only a powered-up device can be surprise-removed
        // (a D3 device's removal surfaces at the resume that never works —
        // a different path family, explored from the resume alternative).
        if m.kernel.state.power == DevicePowerState::D0 {
            if !sinks.replaying() {
                sinks.stats.count_fault(FaultFamily::Lifecycle);
            }
            if self.fork_site(m, sinks, SiteKind::Lifecycle, |c| {
                c.lifecycle_budget -= 1;
                c.push_decision(Decision::LifecycleEvent {
                    boundary,
                    event: LifecycleEvent::SurpriseRemove,
                });
                deliver_lifecycle(c, LifecycleEvent::SurpriseRemove, true);
            }) {
                return true;
            }
        }
        false
    }

    /// Handles a return to the kernel: frame pops, checkers, next workload
    /// operation.
    fn handle_return(
        &self,
        m: &mut Machine,
        solver: &mut Solver,
        sinks: &mut QuantumSinks,
        dut: &DriverUnderTest,
    ) -> ReturnFlow {
        let ret_e = m.st.cpu.get(Reg(0));
        let status = match ret_e.as_const() {
            Some(v) => v as u32,
            None => {
                let v = m
                    .st
                    .model_eval(&ret_e)
                    .or_else(|| solver.concretize_under(&m.st.constraints, &ret_e))
                    .unwrap_or(0) as u32;
                m.st.record_concretization(ret_e, v);
                v
            }
        };
        if m.frames.is_empty() {
            return ReturnFlow::PathDone;
        }
        // Run the return checkers *before* popping so bug reports carry the
        // correct entry attribution.
        let returned = m.frames.last().expect("checked").running().to_string();
        let held_at_entry = m.frames.last().expect("checked").held_at_entry().to_vec();
        for pending in on_invocation_return(m, &returned, status, &held_at_entry) {
            self.record_bug(sinks, m, pending, solver, dut);
        }
        // Lifecycle checkers need the returning frame still on the stack
        // (the resume-without-restore rule reads its trace mark).
        for pending in check_lifecycle(m) {
            self.record_bug(sinks, m, pending, solver, dut);
        }
        let frame = m.frames.pop().expect("checked");
        match frame {
            Frame::Entry { name, .. } => {
                if name == "Initialize" && status != 0 {
                    // Paper: "DDT terminates paths based on user-configurable
                    // criteria (e.g., if the entry point returns with a
                    // failure)".
                    return ReturnFlow::PathDone;
                }
                if name == "DriverEntry" && m.kernel.state.miniport.is_none() {
                    return ReturnFlow::PathDone;
                }
                self.schedule_next_op(m, &dut.workload, sinks)
            }
            Frame::Isr { saved, at_entry, .. } => {
                let table = m.kernel.state.miniport.clone().unwrap_or_default();
                // A DPC only runs once the interrupted IRQL drops below
                // DISPATCH; if the interrupt preempted dispatch-level code
                // (e.g. a spinlocked section), Windows defers the DPC. We
                // model the deferral by dropping it (the non-deferred
                // interleaving is explored from other boundaries).
                if status != 0 && table.handle_interrupt != 0 && saved.irql < Irql::Dispatch {
                    // The ISR recognized the interrupt: run the DPC.
                    let held_at_entry = m.held_locks();
                    m.frames.push(Frame::Dpc { saved, at_entry, held_at_entry });
                    m.kernel.state.context = ExecContext::Dpc;
                    m.kernel.state.irql = Irql::Dispatch;
                    let inv =
                        EntryInvocation::new("HandleInterrupt", table.handle_interrupt, [0; 4]);
                    m.apply_invocation(&inv, true);
                    m.st.trace.push(TraceEvent::EntryInvoke {
                        name: "HandleInterrupt".into(),
                        addr: table.handle_interrupt,
                    });
                } else {
                    m.restore_ctx(&saved);
                }
                ReturnFlow::Continue
            }
            Frame::Dpc { saved, .. } | Frame::Timer { saved, .. } => {
                m.restore_ctx(&saved);
                ReturnFlow::Continue
            }
            Frame::Pnp { saved, .. } => {
                if m.frames.is_empty() {
                    // Workload-level delivery: the handler ran between entry
                    // points, so resume the workload, not a saved context.
                    self.schedule_next_op(m, &dut.workload, sinks)
                } else {
                    // Mid-quantum injection: resume the interrupted entry.
                    m.restore_ctx(&saved);
                    ReturnFlow::Continue
                }
            }
        }
    }

    /// Sets up the next workload operation (Device Path Exerciser analog)
    /// with the entry-argument annotations of §3.4.1.
    fn schedule_next_op(
        &self,
        m: &mut Machine,
        workload: &[WorkloadOp],
        sinks: &mut QuantumSinks,
    ) -> ReturnFlow {
        // Boundary between entry points: another injection point.
        m.boundaries += 1;
        if self.maybe_inject_interrupt(m, sinks) {
            // Replay turned the machine into the interrupted alternative:
            // run the ISR instead of scheduling the next operation.
            return ReturnFlow::Continue;
        }
        if self.maybe_inject_lifecycle(m, sinks) {
            // Same: run the PnP handler instead of the next operation.
            return ReturnFlow::Continue;
        }
        loop {
            let Some(op) = workload.get(m.workload_pos).cloned() else {
                return ReturnFlow::PathDone;
            };
            m.workload_pos += 1;
            let handle = m.kernel.state.adapter_handle;
            let table = m.kernel.state.miniport.clone().unwrap_or_default();
            m.kernel.state.context = ExecContext::Passive;
            m.kernel.state.irql = Irql::Passive;
            let ann = &self.config.annotations;
            let inv = match &op {
                WorkloadOp::Initialize => {
                    EntryInvocation::new("Initialize", table.initialize, [handle, 0, 0, 0])
                }
                WorkloadOp::Send { len, fill } => {
                    if table.send == 0 {
                        continue;
                    }
                    let data = m.alloc_scratch((*len).max(4), "packet data");
                    for i in 0..*len {
                        m.st.mem.write_byte(data + i, Expr::constant(*fill as u64, 8));
                    }
                    let desc = m.alloc_scratch(16, "packet descriptor");
                    m.st.mem.write(desc, 4, &Expr::constant(data as u64, 32));
                    if ann.enabled && ann.entry_args_symbolic && *len > 0 {
                        // Symbolic payload; symbolic length constrained not
                        // to exceed the concrete original (§7 soundness).
                        for i in 0..(*len).min(16) {
                            let b = m.st.new_symbol(
                                format!("packet[{i}]"),
                                SymOrigin::EntryArg { entry: "Send".into(), index: i as usize },
                                8,
                            );
                            m.st.mem.write_byte(data + i, b);
                        }
                        let slen = m.st.new_symbol(
                            "packet_len",
                            SymOrigin::EntryArg { entry: "Send".into(), index: 1 },
                            32,
                        );
                        m.st.add_constraint(Expr::constant(1, 32).ule(&slen));
                        m.st.add_constraint(slen.ule(&Expr::constant(*len as u64, 32)));
                        m.st.mem.write(desc + 4, 4, &slen);
                    } else {
                        m.st.mem.write(desc + 4, 4, &Expr::constant(*len as u64, 32));
                    }
                    EntryInvocation::new("Send", table.send, [handle, desc, 0, 0])
                }
                WorkloadOp::Query { oid, len } => {
                    if table.query_information == 0 {
                        continue;
                    }
                    let buf = m.alloc_scratch(*len, "oid buffer");
                    let mut inv = EntryInvocation::new(
                        "QueryInformation",
                        table.query_information,
                        [handle, *oid, buf, *len],
                    );
                    inv.name = "QueryInformation".into();
                    inv
                }
                WorkloadOp::Set { oid, len, value } => {
                    if table.set_information == 0 {
                        continue;
                    }
                    let buf = m.alloc_scratch(*len, "oid buffer");
                    m.st.mem.write(buf, 4, &Expr::constant(*value as u64, 32));
                    EntryInvocation::new(
                        "SetInformation",
                        table.set_information,
                        [handle, *oid, buf, *len],
                    )
                }
                WorkloadOp::FireTimers => {
                    // Advance virtual time, then deliver one due timer.
                    m.kernel.state.now_us += 200_000;
                    let now_ms = m.kernel.state.now_us / 1000;
                    let due: Option<(u32, u32, u32)> = m
                        .kernel
                        .state
                        .timers
                        .iter()
                        .filter(|(_, t)| t.initialized && t.due.is_some_and(|d| d <= now_ms))
                        .map(|(&a, t)| (a, t.callback, t.context))
                        .next();
                    match due {
                        None => continue,
                        Some((timer, callback, context)) => {
                            if let Some(t) = m.kernel.state.timers.get_mut(&timer) {
                                t.due = None;
                            }
                            if callback == 0 {
                                continue;
                            }
                            // Timers run at dispatch level, like DPCs.
                            m.workload_pos -= 1; // Re-run to drain others.
                            let saved = m.save_ctx();
                            let at_entry = "TimerCallback".to_string();
                            let held_at_entry = m.held_locks();
                            m.frames.push(Frame::Timer { saved, at_entry, held_at_entry });
                            m.kernel.state.context = ExecContext::Dpc;
                            m.kernel.state.irql = Irql::Dispatch;
                            let inv = EntryInvocation::new(
                                "TimerCallback",
                                callback,
                                [context, 0, 0, 0],
                            );
                            m.apply_invocation(&inv, false);
                            m.st.trace.push(TraceEvent::EntryInvoke {
                                name: "TimerCallback".into(),
                                addr: callback,
                            });
                            return ReturnFlow::Continue;
                        }
                    }
                }
                WorkloadOp::Reset => {
                    if table.reset == 0 {
                        continue;
                    }
                    EntryInvocation::new("Reset", table.reset, [handle, 0, 0, 0])
                }
                WorkloadOp::CheckForHang => {
                    if table.check_for_hang == 0 {
                        continue;
                    }
                    EntryInvocation::new("CheckForHang", table.check_for_hang, [handle, 0, 0, 0])
                }
                WorkloadOp::Aux => {
                    if table.aux == 0 {
                        continue;
                    }
                    EntryInvocation::new("Aux", table.aux, [handle, 0, 0, 0])
                }
                WorkloadOp::Halt => {
                    if table.halt == 0 {
                        continue;
                    }
                    EntryInvocation::new("Halt", table.halt, [handle, 0, 0, 0])
                }
                WorkloadOp::SurpriseRemove | WorkloadOp::Suspend | WorkloadOp::Resume => {
                    // Deterministic workload-level delivery (no fork, no
                    // decision): drivers without a PnP handler skip these,
                    // and a removed device sees no further events.
                    if m.kernel.state.pnp_handler == 0 || !m.kernel.state.device_present {
                        continue;
                    }
                    let event = match op {
                        WorkloadOp::SurpriseRemove => LifecycleEvent::SurpriseRemove,
                        WorkloadOp::Suspend => LifecycleEvent::Suspend,
                        _ => LifecycleEvent::Resume,
                    };
                    if !sinks.replaying() {
                        sinks.stats.count_fault(FaultFamily::Lifecycle);
                    }
                    deliver_lifecycle(m, event, false);
                    return ReturnFlow::Continue;
                }
            };
            m.frames.push(Frame::Entry { name: inv.name.clone(), held_at_entry: m.held_locks() });
            m.apply_invocation(&inv, false);
            m.st.trace.push(TraceEvent::EntryInvoke { name: inv.name.clone(), addr: inv.addr });
            // Entry-argument annotation: symbolic OID within the window.
            if self.config.annotations.enabled
                && self.config.annotations.entry_args_symbolic
                && matches!(op, WorkloadOp::Query { .. } | WorkloadOp::Set { .. })
            {
                let entry = inv.name.clone();
                let oid_sym = m.st.new_symbol(
                    format!("{entry}:oid"),
                    SymOrigin::EntryArg { entry, index: 1 },
                    32,
                );
                let window = self.config.annotations.oid_window.max(1);
                let base = if matches!(m_class_of(&op), DriverClass::Audio) { 0 } else { OID_BASE };
                m.st.add_constraint(
                    Expr::constant(base as u64, 32).ule(&oid_sym),
                );
                m.st.add_constraint(
                    oid_sym.ult(&Expr::constant(base as u64 + window as u64, 32)),
                );
                m.st.cpu.set(Reg(1), oid_sym);
            }
            return ReturnFlow::Continue;
        }
    }

}

/// Delivers one device-lifecycle event: advances the presence/power state
/// machine *before* the handler runs (a surprise-removed device is gone the
/// moment the notification fires), then invokes the driver's registered PnP
/// callback as `handler(context, event_code, 0, 0)` on a [`Frame::Pnp`].
/// `keep_sp` follows the ISR/timer convention: mid-quantum injections run
/// on the interrupted stack, workload-level deliveries on a fresh one.
fn deliver_lifecycle(m: &mut Machine, event: LifecycleEvent, keep_sp: bool) {
    match event {
        LifecycleEvent::SurpriseRemove => {
            m.kernel.state.surprise_remove();
            if m.removed_trace_mark.is_none() {
                m.removed_trace_mark = Some(m.st.trace.len());
            }
        }
        LifecycleEvent::Suspend => m.kernel.state.set_power(DevicePowerState::D3),
        LifecycleEvent::Resume => m.kernel.state.set_power(DevicePowerState::D0),
    }
    let at_entry = m.running().to_string();
    let saved = m.save_ctx();
    let held_at_entry = m.held_locks();
    let trace_mark = m.st.trace.len();
    m.frames.push(Frame::Pnp { event, saved, at_entry, held_at_entry, trace_mark });
    m.kernel.state.context = ExecContext::Passive;
    m.kernel.state.irql = Irql::Passive;
    let handler = m.kernel.state.pnp_handler;
    let context = m.kernel.state.pnp_context;
    let name = event.invocation_name();
    let inv = EntryInvocation::new(name, handler, [context, event.code(), 0, 0]);
    m.apply_invocation(&inv, keep_sp);
    m.st.trace.push(TraceEvent::EntryInvoke { name: name.into(), addr: handler });
}

/// Crude class recovery from the op shape (audio uses property ids near 0).
fn m_class_of(op: &WorkloadOp) -> DriverClass {
    match op {
        WorkloadOp::Query { oid, .. } | WorkloadOp::Set { oid, .. } if *oid < 0x100 => {
            DriverClass::Audio
        }
        _ => DriverClass::Net,
    }
}

enum ReturnFlow {
    Continue,
    PathDone,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The root's decoded text is what fetching and decoding would give,
    /// at every instruction slot of every bundled driver's text.
    #[test]
    fn every_bundled_text_decodes_in_the_root_table_as_fetched() {
        let specs = ddt_drivers::drivers().into_iter().chain([ddt_drivers::clean_driver()]);
        for spec in specs {
            let dut = DriverUnderTest::from_spec(&spec);
            let (base, len) = (dut.image.load_base, dut.image.text.len() as u32);
            let mut mem = SymMemory::with_root(dut.root_mem());
            mem.map(base, len);
            let slots = len / ddt_isa::INSN_SIZE;
            assert!(slots > 0, "{}", spec.name);
            for pc in (0..slots).map(|i| base + i * ddt_isa::INSN_SIZE) {
                let raw = mem.read_concrete_bytes(pc, ddt_isa::INSN_SIZE).expect("concrete");
                let fetched = ddt_isa::decode(raw.as_slice().try_into().expect("8 bytes"));
                assert_eq!(mem.decoded_insn(pc), Some(fetched), "{} pc {pc:#x}", spec.name);
            }
        }
    }

    /// The per-path step budget is the hang watchdog: a driver spinning in
    /// a polling loop forever must be killed, counted as a *potential hang*
    /// in RunHealth, and must not take the campaign down with it.
    #[test]
    fn step_budget_watchdog_kills_and_counts_runaway_paths() {
        let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled driver");
        let dut = DriverUnderTest::from_spec(&spec);

        let baseline = Ddt::default().test(&dut);
        assert_eq!(
            baseline.stats.paths_step_budget_killed, 0,
            "an unlimited budget kills nothing"
        );

        let mut ddt = Ddt::default();
        ddt.config.max_path_insns = 60;
        let report = ddt.test(&dut);
        assert!(
            report.stats.paths_step_budget_killed > 0,
            "a 60-instruction path budget must trip on real paths"
        );
        assert_eq!(
            report.health.path_step_budget_kills,
            report.stats.paths_step_budget_killed
        );
        assert!(!report.health.pristine(), "step-budget kills degrade health");
        assert!(
            report.health.render().contains("step-budget kills"),
            "the health report names the watchdog: {}",
            report.health.render()
        );
        // The campaign itself still completes and reports.
        assert!(report.stats.paths_started > 0);
    }

    /// The step budget is part of the config fingerprint: a checkpoint
    /// taken under one budget must not resume under another.
    #[test]
    fn step_budget_is_fingerprinted() {
        let a = DdtConfig::default();
        let mut b = DdtConfig::default();
        b.max_path_insns = 1000;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// Checkpoints and fleet handshakes carry the config fingerprint, and a
    /// resume or a worker refuses a mismatch. The strategies' values are
    /// pinned so that renaming a strategy, or reordering the fingerprint's
    /// fields, cannot strand a checkpoint written before the change.
    #[test]
    fn kept_strategy_fingerprints_are_pinned() {
        for (strategy, want) in [
            (Strategy::Fifo, 0x66f2_d5bd_2aea_456d),
            (Strategy::CoverageNewFirst, 0x3fde_10a0_1653_cce9),
        ] {
            let config = DdtConfig { strategy, ..DdtConfig::default() };
            assert_eq!(config.fingerprint(), want, "{}", strategy.name());
        }
    }
}
