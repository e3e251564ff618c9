//! Hybrid concolic/fuzzing exploration (`ddt fuzz`).
//!
//! The symbolic engine is precise but slow; the translated concrete
//! executor (`Vm::run_fast`) retires instructions orders of magnitude
//! faster but only sees one path per input. This module combines them:
//!
//! 1. **Fuzz batches** — a mutational fuzzer drives the [`ConcreteRunner`]
//!    over driver entry-point inputs (scripted hardware read values,
//!    per-label overrides such as packet bytes and OIDs, interrupt
//!    boundaries, forced allocation failures). Coverage feedback comes
//!    from the executor's superblock trace folded into the shared
//!    [`crate::coverage::Coverage`] tracker, so concrete and symbolic
//!    coverage share one census.
//! 2. **Escalation bridge** — a concrete execution that reaches new
//!    coverage or a non-clean outcome is lifted into a symbolic
//!    [`Machine`]: the values the scripted device served become symbol
//!    pins (`SymState::hw_pins` / `label_pins`), so the lifted state's
//!    constraints walk the concrete path prefix and symbolic exploration
//!    takes over at the frontier the fuzzer reached.
//! 3. **Interleaved quanta** — between batches the one exploration loop
//!    every mode runs takes a bounded number of symbolic quanta; after the
//!    last batch it drains the frontier completely, so a hybrid run
//!    explores at least everything a symbolic-only run would (the Table 2
//!    superset guarantee).
//!
//! Bugs found purely concretely are synthesized into full [`Bug`] reports
//! (trace events, solved-input assignment, decision schedule) so they
//! replay and persist exactly like symbolic ones, tagged
//! [`BugOrigin::Concrete`]; bugs found on an escalated state are tagged
//! [`BugOrigin::Escalated`].

use std::collections::{HashSet, VecDeque};
use std::convert::Infallible;
use std::time::{Duration, Instant};

use ddt_expr::Assignment;
use ddt_expr::SymId;
use ddt_fuzz::{mutate, Corpus, FuzzInput, Rng};
use ddt_symvm::{SymOrigin, TraceEvent};
use ddt_vm::BlockCache;

use crate::exerciser::{Ddt, DriverUnderTest};
use crate::explore::{Explorer, RunState, Start};
use crate::machine::Machine;
use crate::replay::{ConcreteOutcome, ConcreteRunner};
use crate::report::{Bug, BugClass, BugOrigin, Decision, LifecycleEvent, Report, RunHealth};
use crate::search::Frontier;

/// Escalation dedup key: the hardware values an execution was served plus
/// its sorted label pins — identical keys would lift identical subtrees.
type EscalationKey = (Vec<u64>, Vec<(String, u64)>);

/// Hybrid-run configuration (the `ddt fuzz` flags).
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Fuzzer RNG seed; two runs with the same seed and driver explore
    /// identically.
    pub seed: u64,
    /// Number of fuzz batches.
    pub batches: u64,
    /// Concrete executions per batch.
    pub batch_size: u64,
    /// Escalate interesting concrete executions into symbolic states.
    pub escalate: bool,
    /// Symbolic quanta interleaved after each batch.
    pub quanta_per_batch: u64,
    /// Drain the symbolic frontier completely after the last batch
    /// (required for the Table 2 superset guarantee; benches turn it off
    /// to time the pure fuzzing phase).
    pub drain_frontier: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0xDD7,
            batches: 6,
            batch_size: 24,
            escalate: true,
            quanta_per_batch: 32,
            drain_frontier: true,
        }
    }
}

/// The canned corpus: inputs that exercise the generic trouble spots of
/// every bundled driver class — all-zero hardware, all-ones hardware with
/// early interrupts (live status bits during initialization), saturated
/// registers, and one forced allocation failure per early kernel call.
fn canned_seeds(corpus: &mut Corpus) {
    corpus.add(FuzzInput::default(), 1);
    corpus.add(
        FuzzInput {
            hw: vec![1; 16],
            inject_at: (1..16).collect(),
            ..FuzzInput::default()
        },
        4,
    );
    corpus.add(FuzzInput { hw: vec![0xffff_ffff; 16], ..FuzzInput::default() }, 2);
    corpus.add(
        FuzzInput {
            hw: vec![1; 16],
            inject_at: (1..24).collect(),
            fail_at: vec![3],
            ..FuzzInput::default()
        },
        2,
    );
    for k in 0..12 {
        corpus.add(FuzzInput { fail_at: vec![k], ..FuzzInput::default() }, 2);
    }
    // Lifecycle trouble spots: a suspend/resume cycle early in the workload
    // and a surprise removal mid-workload (codes 2/3/1, no-ops for drivers
    // without a PnP handler).
    corpus.add(
        FuzzInput { lifecycle: vec![(6, 2), (8, 3)], ..FuzzInput::default() },
        2,
    );
    for b in [4, 8, 12] {
        corpus.add(FuzzInput { lifecycle: vec![(b, 1)], ..FuzzInput::default() }, 2);
    }
}

/// Seeds the corpus from solved models in the trace store: every persisted
/// bug for this driver becomes a fuzz input (hardware read values in trace
/// order, label overrides, and the decision schedule), so a hybrid run
/// re-finds known bugs concretely in its first batch.
fn seed_from_store(dir: &std::path::Path, driver: &str, corpus: &mut Corpus) {
    let Ok(store) = ddt_trace::TraceStore::open(dir) else { return };
    let Ok(records) = store.list() else { return };
    for rec in records.iter().filter(|r| r.driver == driver) {
        let Ok(artifact) = store.load(&rec.signature) else { continue };
        let mut input = FuzzInput::default();
        for ev in &artifact.events {
            match ev {
                TraceEvent::HardwareRead { id, .. } => {
                    input.hw.push(rec.inputs.get_or_zero(*id) as u32);
                }
                TraceEvent::SymCreate { id, label, origin, .. }
                    if !matches!(
                        origin,
                        SymOrigin::HardwareRead { .. } | SymOrigin::PortRead { .. }
                    ) =>
                {
                    input.labels.push((label.clone(), rec.inputs.get_or_zero(*id)));
                }
                _ => {}
            }
        }
        for d in rec.replay_decisions() {
            match d {
                Decision::InjectInterrupt { boundary } => input.inject_at.push(*boundary),
                Decision::LifecycleEvent { boundary, event } => {
                    input.lifecycle.push((*boundary, event.code() as u8))
                }
                Decision::ForceAllocFail { kernel_call } => input.fail_at.push(*kernel_call),
                Decision::InjectFault { site, .. } => input.fail_at.push(*site),
                Decision::ConcretizationBacktrack { .. } => {}
            }
        }
        input.inject_at.sort_unstable();
        input.inject_at.dedup();
        input.fail_at.sort_unstable();
        input.fail_at.dedup();
        input.lifecycle.sort_unstable();
        input.lifecycle.dedup();
        corpus.add(input, 10);
    }
}

fn fault_pc(fault: &ddt_vm::Fault) -> u32 {
    match *fault {
        ddt_vm::Fault::IllegalInsn { pc }
        | ddt_vm::Fault::BadAccess { pc, .. }
        | ddt_vm::Fault::Misaligned { pc, .. }
        | ddt_vm::Fault::DivByZero { pc } => pc,
    }
}

/// Synthesizes a full [`Bug`] report from a concrete outcome: trace events
/// (symbol creations + hardware reads, so replay can re-script the
/// device), a solved-input assignment over those symbols, and the decision
/// schedule from the fuzz input. `None` for clean completions.
fn synthesize_bug(
    dut: &DriverUnderTest,
    runner: &mut ConcreteRunner,
    input: &FuzzInput,
    outcome: &ConcreteOutcome,
) -> Option<Bug> {
    // A run can complete "cleanly" while still violating the lifecycle
    // rules — the violation evidence lives in the device access log.
    let lifecycle_violation = if runner.hw_touched_after_remove() {
        Some("driver touched device registers after surprise removal")
    } else if runner.resume_without_writes {
        Some("driver resumed to D0 without reprogramming the device")
    } else {
        None
    };
    let (class, description, pc) = match outcome {
        ConcreteOutcome::Completed => match lifecycle_violation {
            Some(desc) => {
                (BugClass::LifecycleViolation, desc.to_string(), runner.vm.cpu.pc)
            }
            None => return None,
        },
        ConcreteOutcome::Faulted { fault, .. } => (
            BugClass::SegFault,
            format!("concrete execution faulted: {fault:?}"),
            fault_pc(fault),
        ),
        ConcreteOutcome::Crashed(c) => {
            (BugClass::KernelCrash, c.message.clone(), runner.vm.cpu.pc)
        }
        ConcreteOutcome::InitFailureLeak { kinds } => (
            BugClass::ResourceLeak,
            format!("initialization failure leaked {kinds:?}"),
            runner.vm.cpu.pc,
        ),
        ConcreteOutcome::Hung => (
            BugClass::KernelHang,
            "instruction budget exhausted (potential hang)".to_string(),
            runner.vm.cpu.pc,
        ),
    };
    // Re-encode the execution's inputs as trace events + an assignment, in
    // the shape `replay_bug` consumes: one symbol per hardware read served
    // by the scripted device (in order) and one per label override.
    let mut trace = Vec::new();
    let mut inputs = Assignment::new();
    let mut next_sym = 0u32;
    for (addr, size, value) in runner.hardware_served() {
        let id = SymId(next_sym);
        next_sym += 1;
        trace.push(TraceEvent::SymCreate {
            id,
            label: format!("hw:mmio[{addr:#x}]"),
            origin: SymOrigin::HardwareRead { addr },
            width: 8 * size as u32,
        });
        trace.push(TraceEvent::HardwareRead { addr, id });
        inputs.set(id, value as u64);
    }
    for (label, value) in &input.labels {
        let id = SymId(next_sym);
        next_sym += 1;
        trace.push(TraceEvent::SymCreate {
            id,
            label: label.clone(),
            origin: SymOrigin::Other,
            width: 64,
        });
        inputs.set(id, *value);
    }
    let mut decisions: Vec<Decision> = Vec::new();
    for &boundary in &input.inject_at {
        decisions.push(Decision::InjectInterrupt { boundary });
    }
    for &(boundary, code) in &input.lifecycle {
        if let Some(event) = LifecycleEvent::from_code(code as u32) {
            decisions.push(Decision::LifecycleEvent { boundary, event });
        }
    }
    for &kernel_call in &input.fail_at {
        decisions.push(Decision::ForceAllocFail { kernel_call });
    }
    let entry = runner.current_entry();
    let stack = vec![entry.clone()];
    let key = format!("cfuzz:{class:?}:{pc:#x}");
    let signature = ddt_trace::signature(pc, &stack, "cfuzz", &[]);
    Some(Bug {
        driver: dut.image.name.clone(),
        class,
        origin: BugOrigin::Concrete,
        description,
        pc,
        entry,
        interrupted_entry: runner.interrupted_entry(),
        trace,
        inputs,
        decisions,
        key,
        signature,
        occurrences: 1,
        stack,
        provenance: Vec::new(),
    })
}

/// Lifts a concrete execution into a symbolic machine: a fresh root whose
/// symbol pins replay the concrete choices. Every hardware read the
/// scripted device served becomes the next `hw_pins` entry; every label
/// override queues under its label. As symbolic execution creates those
/// symbols it constrains them to the pinned values, so the lifted state
/// follows the concrete path while the pins last and explores symbolically
/// beyond them.
fn lift_to_machine(explorer: &Explorer, runner: &mut ConcreteRunner, input: &FuzzInput) -> Machine {
    let mut m = explorer.root_machine();
    m.st.hw_pins = runner
        .hardware_served()
        .iter()
        .map(|&(_, _, v)| v as u64)
        .collect();
    for (label, value) in &input.labels {
        m.st.label_pins.entry(label.clone()).or_default().push_back(*value);
    }
    m
}

/// Runs the one exploration loop for at most `max` more quanta, or until a
/// budget runs out. After each quantum it propagates escalation origins:
/// forks of an escalated machine stay escalated, and a bug first recorded
/// on one is re-tagged [`BugOrigin::Escalated`].
fn symbolic_quanta(
    explorer: &mut Explorer,
    run: &mut RunState,
    frontier: &mut Frontier,
    escalated: &mut HashSet<u64>,
    max: u64,
) {
    let config = &explorer.ddt().config;
    let limit = run.stats.quanta_executed.saturating_add(max);
    let Ok(()) = explorer.drain(
        run,
        frontier,
        |run, _| run.stats.quanta_executed >= limit || run.over_budget(config),
        |_, run, _, q| {
            for &(parent, child, _) in &q.fork_events {
                if escalated.contains(&parent) {
                    escalated.insert(child);
                }
            }
            if escalated.contains(&q.machine) {
                for key in &q.new_bug_keys {
                    if let Some(bug) = run.bugs.get_mut(key) {
                        if bug.origin == BugOrigin::Symbolic {
                            bug.origin = BugOrigin::Escalated;
                        }
                    }
                }
            }
            Ok::<(), Infallible>(())
        },
    );
}

/// The hybrid exploration loop: fuzz batches on the translated concrete
/// executor interleaved with bounded symbolic quanta, then a full frontier
/// drain. Produces the same [`Report`] shape as `Ddt::test`.
pub fn run_hybrid(ddt: &Ddt, dut: &DriverUnderTest, fz: &FuzzConfig) -> Report {
    let analysis = ddt_isa::analysis::analyze(&dut.image);
    let (mut run, mut frontier) = RunState::start(ddt, dut, analysis, Start::Root);
    let mut explorer = Explorer::new(ddt, dut, &run.cache, &run.root);
    let mut escalated: HashSet<u64> = HashSet::new();
    // Escalation dedup: two fuzz inputs that pinned identical values would
    // lift into machines exploring the same subtree.
    let mut escalation_seen: HashSet<EscalationKey> = HashSet::new();

    // Corpus: canned seeds plus solved models from the trace store.
    let mut corpus = Corpus::new();
    canned_seeds(&mut corpus);
    if let Some(dir) = &ddt.config.trace_dir {
        seed_from_store(dir, &dut.image.name, &mut corpus);
    }
    let mut pending_verbatim: VecDeque<FuzzInput> =
        corpus.entries().iter().map(|e| e.input.clone()).collect();
    let mut rng = Rng::new(fz.seed);
    let mut cache = BlockCache::new();
    let mut runner: Option<ConcreteRunner> = None;
    // Summed at full resolution and stored once: a batch shorter than a
    // millisecond would otherwise count as zero.
    let mut fuzz_wall = Duration::ZERO;

    for _batch in 0..fz.batches {
        if run.coverage.elapsed_ms() > ddt.config.time_budget_ms {
            break;
        }
        let batch_start = Instant::now();
        for _ in 0..fz.batch_size {
            // Seeds run verbatim first (calibration); then weighted picks
            // from the corpus are mutated.
            let input = match pending_verbatim.pop_front() {
                Some(input) => input,
                None => {
                    let idx = corpus.pick(&mut rng);
                    mutate(&corpus.entries()[idx].input, &mut rng, 4)
                }
            };
            let r = match runner.as_mut() {
                Some(r) => {
                    r.reset(dut, input.hw.clone());
                    r
                }
                None => runner.insert(ConcreteRunner::new(dut, input.hw.clone())),
            };
            r.apply_fuzz_input(&input);
            let mut block_trace = Vec::new();
            let outcome = r.run_fast(&mut cache, &mut block_trace);
            run.stats.fuzz_execs += 1;
            run.stats.fuzz_insns += r.vm.insns_retired;
            let new_blocks = run.coverage.absorb_concrete(block_trace);
            run.stats.concrete_blocks += new_blocks;
            let interesting = new_blocks > 0 || outcome != ConcreteOutcome::Completed;
            if interesting {
                // Dedup by content hash: re-adding a verbatim seed is a no-op.
                corpus.add(input.clone(), 1 + new_blocks);
            }
            if let Some(bug) = synthesize_bug(dut, r, &input, &outcome) {
                match run.bugs.get_mut(&bug.key) {
                    Some(existing) => existing.occurrences += 1,
                    None => {
                        // A signature already known under another key is
                        // the same bug re-found; don't duplicate it.
                        let known = run.bugs.values().any(|b| b.signature == bug.signature);
                        if !known {
                            run.stats.concrete_bugs += 1;
                            if run.stats.quanta_to_first_bug == 0 {
                                // Concrete first blood: attribute it to the
                                // next quantum ordinal so "earliest wins"
                                // merges still hold.
                                run.stats.quanta_to_first_bug = run.stats.quanta_executed + 1;
                            }
                            run.bugs.insert(bug.key.clone(), bug);
                        }
                    }
                }
            }
            if fz.escalate && interesting {
                let pins: Vec<u64> =
                    r.hardware_served().iter().map(|&(_, _, v)| v as u64).collect();
                let mut labels = input.labels.clone();
                labels.sort();
                if escalation_seen.insert((pins, labels)) {
                    let mut m = lift_to_machine(&explorer, r, &input);
                    m.id = run.next_id;
                    run.next_id += 1;
                    escalated.insert(m.id);
                    frontier.push(m);
                    run.stats.escalations += 1;
                    run.stats.paths_started += 1;
                }
            }
        }
        fuzz_wall += batch_start.elapsed();
        let max = fz.quanta_per_batch;
        symbolic_quanta(&mut explorer, &mut run, &mut frontier, &mut escalated, max);
    }
    run.stats.fuzz_wall_ms = fuzz_wall.as_millis() as u64;
    if fz.drain_frontier {
        // The superset guarantee is structural: hold the escalated states
        // aside and finish the baseline (non-escalated) subtree first —
        // that drain is exactly the symbolic-only exploration, so it ends
        // with the same findings under the same budget. Escalated states
        // then spend whatever budget remains.
        let storage = frontier.storage_mut();
        let mut held: Vec<Machine> = Vec::new();
        let mut i = 0;
        while i < storage.len() {
            if escalated.contains(&storage[i].id) {
                held.push(storage.swap_remove(i));
            } else {
                i += 1;
            }
        }
        symbolic_quanta(&mut explorer, &mut run, &mut frontier, &mut escalated, u64::MAX);
        for m in held {
            frontier.push(m);
        }
        symbolic_quanta(&mut explorer, &mut run, &mut frontier, &mut escalated, u64::MAX);
    }
    run.into_report(ddt, dut, Some(&mut explorer), |_| RunHealth::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exerciser::DdtConfig;

    fn fuzz_only() -> FuzzConfig {
        FuzzConfig {
            batches: 2,
            batch_size: 20,
            escalate: false,
            quanta_per_batch: 0,
            drain_frontier: false,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn fuzzing_finds_the_rtl8029_interrupt_crash_concretely() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let ddt = Ddt::new(DdtConfig::default());
        let report = run_hybrid(&ddt, &dut, &fuzz_only());
        assert!(report.stats.fuzz_execs >= 40);
        assert!(report.stats.fuzz_insns > 2_000, "the fast executor retired real work");
        assert!(report.stats.concrete_blocks > 0, "concrete coverage was censused");
        let crash = report
            .bugs
            .iter()
            .find(|b| {
                b.class == BugClass::KernelCrash
                    && b.description.contains("uninitialized timer")
            })
            .expect("the canned live-status seed triggers the timer crash");
        assert_eq!(crash.origin, BugOrigin::Concrete);
        assert!(!crash.trace.is_empty(), "synthesized trace carries hardware reads");
        assert!(!crash.decisions.is_empty(), "interrupt schedule recorded");
    }

    #[test]
    fn concrete_bugs_replay_through_the_standard_replayer() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let ddt = Ddt::new(DdtConfig::default());
        let report = run_hybrid(&ddt, &dut, &fuzz_only());
        let concrete: Vec<&Bug> =
            report.bugs.iter().filter(|b| b.origin == BugOrigin::Concrete).collect();
        assert!(!concrete.is_empty());
        for bug in concrete {
            let outcome = crate::replay::replay_bug(&dut, bug);
            assert!(
                matches!(outcome, crate::replay::ReplayOutcome::Reproduced { .. }),
                "{}: {outcome:?}",
                bug.key
            );
        }
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let ddt = Ddt::new(DdtConfig::default());
        let a = run_hybrid(&ddt, &dut, &fuzz_only());
        let b = run_hybrid(&ddt, &dut, &fuzz_only());
        let keys = |r: &Report| -> Vec<String> {
            r.bugs.iter().map(|b| b.key.clone()).collect()
        };
        assert_eq!(keys(&a), keys(&b), "same seed, same bug set");
        assert_eq!(a.stats.fuzz_execs, b.stats.fuzz_execs);
        assert_eq!(a.stats.fuzz_insns, b.stats.fuzz_insns);
        assert_eq!(a.covered_blocks, b.covered_blocks);
    }

    #[test]
    fn sub_millisecond_batches_still_count_toward_fuzz_wall_time() {
        // pro100's 64-execution batches each finish in well under a
        // millisecond, so truncating every batch to whole milliseconds
        // recorded 0 ms for the whole run.
        let spec = ddt_drivers::driver_by_name("pro100").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let ddt = Ddt::new(DdtConfig::default());
        let fz = FuzzConfig {
            seed: 201,
            batches: 120,
            batch_size: 64,
            escalate: false,
            quanta_per_batch: 0,
            drain_frontier: false,
        };
        let report = run_hybrid(&ddt, &dut, &fz);
        assert_eq!(report.stats.fuzz_execs, 120 * 64);
        assert!(report.stats.fuzz_wall_ms > 0, "{} insns in 0 ms", report.stats.fuzz_insns);
    }

    #[test]
    fn escalation_lifts_interesting_states_onto_the_frontier() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let ddt = Ddt::new(DdtConfig::default());
        let fz = FuzzConfig {
            batches: 1,
            batch_size: 8,
            escalate: true,
            quanta_per_batch: 4,
            drain_frontier: false,
            ..FuzzConfig::default()
        };
        let report = run_hybrid(&ddt, &dut, &fz);
        assert!(report.stats.escalations > 0, "interesting executions escalated");
        assert!(report.stats.quanta_executed > 0, "symbolic quanta interleaved");
    }
}
