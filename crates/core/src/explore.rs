//! The one exploration core every mode runs (§4.3, §6.1).
//!
//! DDT explores with a single executor loop: pop a state, run one
//! scheduling quantum of it, admit its forks, fold its coverage, account
//! for its path. Serial, hybrid, the fleet bootstrap and fleet shards all
//! run exactly that loop, [`Explorer::drain`]. They differ only in when
//! they stop and in what they do after each quantum, and they pass those
//! two things in as a stop rule and an after-quantum hook. The parallel
//! explorer shares its frontier across threads, but it runs every quantum
//! through [`Explorer::quantum`] and its bookkeeping through
//! [`RunState::settle`], so every mode counts and stamps alike.
//!
//! - [`Explorer`] is one thread's (or one worker process's) engine: the
//!   symbolic-hardware environment, the solver, and the fold of the
//!   solver's counters into a run's statistics.
//! - [`RunState`] is one run's aggregates: coverage, statistics, the keyed
//!   bug map and the next machine id.
//!   [`RunState::into_report`] turns them into the [`Report`].

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use ddt_isa::analysis::CodeAnalysis;
use ddt_kernel::loader::StackLayout;
use ddt_kernel::state::DEVICE_MMIO_BASE;
use ddt_solver::{QueryCache, Solver, SolverStats};
use ddt_symvm::RootMem;
use ddt_trace::{FrontierRecord, PathStatus, SiteKind};

use crate::checkpoint::CampaignSeed;
use crate::coverage::Coverage;
use crate::exerciser::{Ddt, DdtConfig, DriverUnderTest, QuantumSinks};
use crate::hardware::DdtEnv;
use crate::machine::Machine;
use crate::replay::ReplayCursor;
use crate::report::{Bug, BugClass, ExploreStats, Report, RunHealth};
use crate::search::Frontier;

/// What one quantum left behind, besides the machine and the forks it
/// admitted to the worklist.
pub(crate) struct Quantum {
    /// The machine's id.
    pub machine: u64,
    /// The machine's whole-path step count after the quantum.
    pub steps: u64,
    /// `None` while the machine lives on; otherwise how its path ended (a
    /// caught panic ends it as `Panicked`).
    pub end: Option<PathStatus>,
    /// Every pc the quantum executed, in order: the coverage feed.
    pub exec_pcs: Vec<u32>,
    /// Bug keys first recorded during the quantum.
    pub new_bug_keys: Vec<String>,
    /// Sightings of keys the run already held (parallel quanta only; a
    /// local loop counts them in the run's map as they happen).
    pub repeat_bug_keys: Vec<String>,
    /// Fork events `(parent, child, site)`.
    pub fork_events: Vec<(u64, u64, SiteKind)>,
}

/// What a quantum with sinks of its own sees of the parallel run around
/// it: the live states the state cap is checked against, and the bug keys
/// the run already holds.
pub(crate) struct RunView {
    /// Machines alive anywhere in the run: pending in a frontier, running,
    /// stolen in transit, or admitted by a running quantum. It drops when a
    /// path ends, so zero means the run is over.
    live: AtomicUsize,
    /// Every key of the run's bug map. A key enters after its bug does.
    known_bugs: RwLock<HashSet<String>>,
}

impl RunView {
    /// The view of `run`, whose frontiers hold `pending` states in all.
    pub(crate) fn new(run: &RunState, pending: usize) -> RunView {
        RunView {
            live: AtomicUsize::new(pending),
            known_bugs: RwLock::new(run.bugs.keys().cloned().collect()),
        }
    }

    /// Takes a place for one more pending state under `max_states`. The
    /// count includes the caller's own running machine, so the others may
    /// number at most `max_states`, the serial loop's rule.
    pub(crate) fn reserve(&self, max_states: usize) -> bool {
        self.live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n <= max_states).then_some(n + 1)
            })
            .is_ok()
    }

    /// Removes `n` machines from the run (ended paths, an infeasible fork's
    /// place) and returns how many are left.
    pub(crate) fn release(&self, n: usize) -> usize {
        self.live.fetch_sub(n, Ordering::SeqCst) - n
    }

    /// True when no machine is left anywhere: the run is over.
    pub(crate) fn is_over(&self) -> bool {
        self.live.load(Ordering::SeqCst) == 0
    }

    /// True when the run's bug map holds `key`.
    pub(crate) fn knows_bug(&self, key: &str) -> bool {
        self.known_bugs.read().unwrap_or_else(PoisonError::into_inner).contains(key)
    }

    /// Records keys the run's bug map has just taken in.
    pub(crate) fn learn_bugs(&self, keys: &[String]) {
        let mut known = self.known_bugs.write().unwrap_or_else(PoisonError::into_inner);
        known.extend(keys.iter().cloned());
    }
}

/// One thread's exploration engine: the symbolic-hardware environment and
/// the solver that every quantum and every prefix replay runs on.
pub(crate) struct Explorer<'a> {
    ddt: &'a Ddt,
    dut: &'a DriverUnderTest,
    env: DdtEnv,
    solver: Solver,
    /// The campaign's root memory, which every root this engine builds
    /// (lifts and prefix replays) starts from.
    root: Arc<RootMem>,
    /// Solver counters already folded into run statistics.
    folded: SolverStats,
}

impl<'a> Explorer<'a> {
    /// An engine for `dut` whose solver shares the run's query cache, and
    /// whose roots share `root`.
    pub(crate) fn new(
        ddt: &'a Ddt,
        dut: &'a DriverUnderTest,
        run_cache: &Option<Arc<QueryCache>>,
        root: &Arc<RootMem>,
    ) -> Explorer<'a> {
        let solver = match run_cache {
            Some(cache) => Solver::with_cache(cache.clone()),
            None => Solver::uncached(),
        };
        let stack = StackLayout::default();
        let mut env = DdtEnv::new(
            DEVICE_MMIO_BASE,
            dut.descriptor.mmio_len,
            stack.base,
            stack.initial_sp(),
        );
        env.check_memory = ddt.config.check_memory;
        Explorer { ddt, dut, env, solver, root: root.clone(), folded: SolverStats::default() }
    }

    /// A fresh root machine over the campaign's root memory.
    pub(crate) fn root_machine(&self) -> Machine {
        self.ddt.make_root_machine(self.dut, &self.root)
    }

    /// The tool this engine explores for.
    pub(crate) fn ddt(&self) -> &'a Ddt {
        self.ddt
    }

    /// The driver this engine explores.
    pub(crate) fn dut(&self) -> &'a DriverUnderTest {
        self.dut
    }

    /// Runs one scheduling quantum of `m`. Forks go to `worklist` under ids
    /// drawn from `next_id`; counters and bug sightings go to `stats` and
    /// `bugs`. `run` is `None` when those are the run's own; a parallel
    /// worker passes its run's view instead. A panic — a harness bug, or
    /// one induced by the test hook — costs this one path, counted in
    /// `stats.panics_caught`, not the run.
    pub(crate) fn quantum(
        &mut self,
        m: &mut Machine,
        worklist: &mut Vec<Machine>,
        next_id: &mut u64,
        stats: &mut ExploreStats,
        bugs: &mut HashMap<String, Bug>,
        run: Option<&RunView>,
    ) -> Quantum {
        let max_states = self.ddt.config.max_states;
        let mut sinks = QuantumSinks::new(worklist, next_id, stats, bugs, max_states, run);
        let end = match self.run(m, &mut sinks) {
            Ok(end) => end,
            Err(()) => {
                sinks.stats.panics_caught += 1;
                Some(PathStatus::Panicked)
            }
        };
        Quantum {
            machine: m.id,
            steps: m.steps_total,
            end,
            exec_pcs: sinks.exec_pcs,
            new_bug_keys: sinks.new_bug_keys,
            repeat_bug_keys: sinks.repeat_bug_keys,
            fork_events: sinks.fork_events,
        }
    }

    /// `run_quantum` under panic isolation; `Err` means it panicked.
    fn run(
        &mut self,
        m: &mut Machine,
        sinks: &mut QuantumSinks,
    ) -> Result<Option<PathStatus>, ()> {
        let Explorer { ddt, dut, env, solver, .. } = self;
        catch_unwind(AssertUnwindSafe(|| ddt.run_quantum(dut, m, env, solver, sinks)))
            .map_err(|_| ())
    }

    /// Adds the solver work done since the last fold to `stats`. A
    /// solver's counters only grow, so these deltas sum exactly across
    /// quanta, shards and resumed campaign segments.
    pub(crate) fn fold(&mut self, stats: &mut ExploreStats) {
        let now = self.solver.stats();
        stats.add_solver_delta(&self.folded, &now);
        self.folded = now;
    }

    /// The local exploration loop. Until the frontier is empty or `stop`
    /// says so (asked before every pop): pop the state the frontier's
    /// strategy ranks first, run a quantum of it, [`RunState::settle`] the
    /// quantum, requeue the machine if its path goes on, and hand the
    /// quantum to `after`. An error from `after` ends the loop.
    pub(crate) fn drain<E>(
        &mut self,
        run: &mut RunState,
        frontier: &mut Frontier,
        mut stop: impl FnMut(&RunState, &Frontier) -> bool,
        mut after: impl FnMut(&mut Self, &mut RunState, &Frontier, &Quantum) -> Result<(), E>,
    ) -> Result<(), E> {
        while !frontier.is_empty() && !stop(run, frontier) {
            let Some(mut m) = frontier.pop(&run.coverage) else {
                break;
            };
            let first_child = frontier.len();
            let q = self.quantum(
                &mut m,
                frontier.storage_mut(),
                &mut run.next_id,
                &mut run.stats,
                &mut run.bugs,
                None,
            );
            run.settle(&q, &mut m, &mut frontier.storage_mut()[first_child..]);
            if q.end.is_none() {
                frontier.push(m);
            }
            run.stats.peak_states = run.stats.peak_states.max(frontier.len() + 1);
            after(self, run, frontier, &q)?;
        }
        Ok(())
    }

    /// Replays one frontier record's choice log from the root, validating
    /// the result against the recorded fingerprint. Every exploration side
    /// effect goes to scratch sinks: whoever recorded the prefix already
    /// accounted for what it did. `on_quantum` is called after every
    /// replayed quantum with the steps it advanced — replaying a deep
    /// prefix is real work that can outlast a watchdog deadline, so a fleet
    /// worker keeps heartbeating from it.
    pub(crate) fn replay_prefix_observed(
        &mut self,
        rec: &FrontierRecord,
        on_quantum: &mut dyn FnMut(u64),
    ) -> Result<Machine, String> {
        let mut m = self.root_machine();
        let mut cursor = ReplayCursor::new(rec.picks.clone(), rec.trailing_skips, rec.steps_total);
        let mut scratch_worklist = Vec::new();
        let mut scratch_next_id = u64::MAX;
        let mut scratch_stats = ExploreStats::default();
        let mut scratch_bugs = HashMap::new();
        let max_states = self.ddt.config.max_states;
        while m.steps_total < rec.steps_total {
            let before = m.steps_total;
            let mut sinks = QuantumSinks::new(
                &mut scratch_worklist,
                &mut scratch_next_id,
                &mut scratch_stats,
                &mut scratch_bugs,
                max_states,
                None,
            );
            sinks.replay = Some(&mut cursor);
            let end = self
                .run(&mut m, &mut sinks)
                .map_err(|()| "replay quantum panicked".to_string())?;
            if let Some(why) = &cursor.diverged {
                return Err(why.clone());
            }
            if end.is_some() {
                return Err("path terminated before its checkpointed step count".to_string());
            }
            if m.steps_total == before {
                return Err("replay made no progress".to_string());
            }
            on_quantum(m.steps_total - before);
        }
        if !cursor.exhausted() {
            return Err("choice log not fully consumed at target step count".to_string());
        }
        let fp = m.fingerprint();
        if fp != rec.fp {
            return Err(format!(
                "state fingerprint mismatch after replay (pc {:#x} vs recorded {:#x})",
                fp.pc, rec.fp.pc
            ));
        }
        m.id = rec.id;
        // Search metadata is not derivable from the choice log (it depends
        // on global coverage at fork time), so restore it from the record —
        // `coverage-new-first` ranks a resumed frontier exactly like the
        // uninterrupted run would.
        m.cov_fresh = rec.cov_fresh;
        m.cov_stamp = rec.cov_stamp;
        Ok(m)
    }
}

/// Where a run's frontier comes from.
#[allow(clippy::large_enum_variant)] // One per run, consumed at once.
pub(crate) enum Start {
    /// The root machine: the image loaded and DriverEntry invoked.
    Root,
    /// The restored frontier and aggregates of an interrupted campaign.
    Resume(CampaignSeed),
    /// One leased fleet shard: its replayed prefix machine, with fresh
    /// aggregates and a shard-disjoint id space starting at `next_id`.
    Lease { machine: Machine, next_id: u64 },
}

/// One run's aggregates: everything a report, a checkpoint or a shard
/// result is made of.
pub(crate) struct RunState {
    /// Block coverage and the campaign clock.
    pub coverage: Coverage,
    /// The run's counters.
    pub stats: ExploreStats,
    /// Bugs by dedup key.
    pub bugs: HashMap<String, Bug>,
    /// Id of the next forked machine.
    pub next_id: u64,
    /// The query cache all of the run's explorers share.
    pub cache: Option<Arc<QueryCache>>,
    /// The root memory all of the run's roots share.
    pub root: Arc<RootMem>,
    /// Sequence number of the run's next checkpoint.
    pub checkpoint_seq: u64,
    /// Frontier paths a resume replayed, and those it had to drop.
    resumed: (u64, u64),
}

impl RunState {
    /// A run's state before its first quantum, and its frontier. The
    /// frontier pops with the configured strategy, except that a `fifo`
    /// fleet shard pops last-in first-out (DESIGN §4.9).
    pub(crate) fn start(
        ddt: &Ddt,
        dut: &DriverUnderTest,
        analysis: CodeAnalysis,
        start: Start,
    ) -> (RunState, Frontier) {
        let config = &ddt.config;
        let lease = matches!(start, Start::Lease { .. });
        let mut stats = ExploreStats::default();
        let mut bugs = HashMap::new();
        let mut next_id = 1;
        let mut checkpoint_seq = 0;
        let mut resumed = (0, 0);
        let mut root_mem = None;
        let (coverage, pending) = match start {
            Start::Root => {
                let mem = root_mem.insert(dut.root_mem());
                let root = ddt.make_root_machine(dut, mem);
                stats.symbols = root.st.counter.allocated();
                stats.paths_started = 1;
                (Coverage::new(analysis), vec![root])
            }
            Start::Lease { machine, next_id: first } => {
                next_id = first;
                (Coverage::new(analysis), vec![machine])
            }
            Start::Resume(s) => {
                stats = s.stats;
                bugs = s.bugs;
                next_id = s.next_id;
                checkpoint_seq = s.next_checkpoint_seq;
                resumed = (s.replayed_ok, s.replay_failed);
                let coverage = Coverage::seeded(
                    analysis,
                    s.coverage_hits,
                    s.coverage_covered,
                    s.coverage_timeline,
                    s.base_wall_ms,
                );
                (coverage, s.frontier)
            }
        };
        // A lease and a resumed frontier were replayed over the root memory
        // the run goes on with.
        let root = root_mem
            .or_else(|| pending.first().map(|m| m.st.mem.root().clone()))
            .unwrap_or_else(|| dut.root_mem());
        let run = RunState {
            coverage,
            stats,
            bugs,
            next_id,
            // A shard's solver lives in its worker's explorer, over the
            // worker's cache; shard results carry no cache counters.
            cache: if lease { None } else { config.run_cache() },
            root,
            checkpoint_seq,
            resumed,
        };
        let frontier = if lease {
            Frontier::for_shard(config.strategy, pending)
        } else {
            Frontier::new(config.strategy, pending)
        };
        (run, frontier)
    }

    /// True once the run has spent its instruction or wall-clock budget.
    pub(crate) fn over_budget(&self, config: &DdtConfig) -> bool {
        self.stats.insns > config.max_total_insns
            || self.coverage.elapsed_ms() > config.time_budget_ms
    }

    /// The bookkeeping after every quantum, in every mode:
    ///
    /// - fold the executed pcs into coverage;
    /// - advance the quantum ordinal, and the first-bug and last-cover
    ///   ordinals;
    /// - stamp the coverage delta on the machine and on its new forks
    ///   `forks`, which `coverage-new-first` ranks by.
    pub(crate) fn settle(&mut self, q: &Quantum, m: &mut Machine, forks: &mut [Machine]) {
        let covered_before = self.coverage.covered_blocks();
        for &pc in &q.exec_pcs {
            self.coverage.on_exec(pc);
        }
        self.stats.quanta_executed += 1;
        let stamp = self.stats.quanta_executed;
        let fresh = (self.coverage.covered_blocks() - covered_before) as u64;
        if fresh > 0 {
            self.stats.quanta_to_last_cover = stamp;
        }
        if self.stats.quanta_to_first_bug == 0 && !self.bugs.is_empty() {
            self.stats.quanta_to_first_bug = stamp;
        }
        m.cov_fresh = fresh;
        m.cov_stamp = stamp;
        for child in forks {
            child.cov_fresh = fresh;
            child.cov_stamp = stamp;
        }
    }

    /// Folds bugs found elsewhere — by a parallel quantum, by a fleet
    /// shard — into the run's map. A key already present sums its
    /// sightings instead of being replaced.
    pub(crate) fn merge_bugs(&mut self, bugs: impl IntoIterator<Item = Bug>) {
        for bug in bugs {
            match self.bugs.entry(bug.key.clone()) {
                Entry::Occupied(mut e) => e.get_mut().occurrences += bug.occurrences,
                Entry::Vacant(e) => {
                    e.insert(bug);
                }
            }
        }
    }

    /// Finalizes the run into its report. First the statistics: the
    /// campaign clock, the last solver fold, the cache's evictions, the
    /// interner sample and the lifecycle-bug count. Then `close` runs — a
    /// campaign writes its final checkpoint there — and returns the health
    /// counters only the caller knows: journal and checkpoint tallies,
    /// fleet incidents, a budget stop the statistics do not show. Last come
    /// the health section and the bug list, which is sorted, deduplicated
    /// by signature and persisted when a trace store is configured.
    ///
    /// The report stays key-level: keys are deterministic across
    /// exploration schedules, while a bug's signature depends on which path
    /// recorded it first. Keys sharing a signature collapse in the store —
    /// `TraceStore::persist` merges their occurrences under one artifact —
    /// and in the `bugs_deduped` counter.
    pub(crate) fn into_report(
        mut self,
        ddt: &Ddt,
        dut: &DriverUnderTest,
        explorer: Option<&mut Explorer>,
        close: impl FnOnce(&RunState) -> RunHealth,
    ) -> Report {
        self.stats.wall_ms = self.coverage.elapsed_ms();
        if let Some(explorer) = explorer {
            explorer.fold(&mut self.stats);
        }
        if let Some(cache) = &self.cache {
            self.stats.cache_evictions += cache.stats().evictions;
        }
        self.stats.sample_interner();
        self.stats.lifecycle_bugs = self
            .bugs
            .values()
            .filter(|b| b.class == BugClass::LifecycleViolation)
            .count() as u64;
        let extra = close(&self);
        let config = &ddt.config;
        let mut health = RunHealth::from_stats(
            &self.stats,
            self.stats.insns > config.max_total_insns,
            self.stats.wall_ms > config.time_budget_ms,
        );
        health.merge_add(&extra);
        health.resume_replayed_paths = self.resumed.0;
        health.resume_replay_failures = self.resumed.1;

        let mut bugs: Vec<Bug> = self.bugs.into_values().collect();
        // The key tie-breaks bugs sharing an (entry, pc): without it the
        // order falls back to hash-map iteration, which differs across
        // processes — and fleet reports must diff clean against serial.
        bugs.sort_by_key(|a| (a.entry.clone(), a.pc, a.key.clone()));
        health.bug_occurrences = bugs.iter().map(|b| b.occurrences).sum();
        let signatures: std::collections::HashSet<&str> =
            bugs.iter().map(|b| b.signature.as_str()).collect();
        health.bugs_deduped = signatures.len() as u64;
        if let Some(dir) = &config.trace_dir {
            match crate::tracestore::persist_bugs(dir, &bugs, dut) {
                Ok(n) => health.traces_persisted = n,
                // A store failure must not lose the in-memory report; the
                // zero counter plus the message is the health signal.
                Err(e) => eprintln!("ddt: trace store write failed: {e}"),
            }
        }
        Report {
            driver: dut.image.name.clone(),
            bugs,
            total_blocks: self.coverage.total_blocks(),
            covered_blocks: self.coverage.covered_blocks(),
            coverage_timeline: self.coverage.timeline().to_vec(),
            health,
            stats: self.stats,
        }
    }
}
