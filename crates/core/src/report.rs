//! Bug reports and the per-driver test report (§3.5).
//!
//! "DDT takes as input a binary device driver and outputs a report of found
//! bugs, along with execution traces for each bug." A [`Bug`] carries the
//! classification, the human explanation, the full execution trace, the
//! concrete inputs solved from the path condition, and the decision
//! schedule (interrupt injections, forced allocation failures) needed to
//! replay it.

use ddt_expr::Assignment;
use ddt_kernel::FaultFamily;
use ddt_solver::SolverStats;
use ddt_symvm::TraceEvent;
use serde::{Deserialize, Serialize};

// The classification and decision vocabulary moved to `ddt-trace` so that
// stored trace artifacts are self-describing; re-exported here under the
// historical paths.
pub use ddt_trace::{BugClass, BugOrigin, Decision, LifecycleEvent, ProvenanceChain};

/// A found bug with everything needed to understand and replay it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Bug {
    /// Driver under test.
    pub driver: String,
    /// Classification (Table 2 "Bug Type").
    pub class: BugClass,
    /// Which execution mode first found the bug (symbolic exploration,
    /// pure concrete fuzzing, or a fuzz state escalated to symbolic).
    pub origin: BugOrigin,
    /// One-line description (Table 2 "Description").
    pub description: String,
    /// Driver instruction the failure is attributed to.
    pub pc: u32,
    /// The entry point whose invocation exposed the bug.
    pub entry: String,
    /// If the bug fired inside an injected interrupt handler: the entry
    /// point that was interrupted.
    pub interrupted_entry: Option<String>,
    /// Full execution trace of the failing path.
    pub trace: Vec<TraceEvent>,
    /// Concrete inputs (registry values, hardware reads, entry arguments)
    /// that drive the driver down this path, solved from the constraints.
    pub inputs: Assignment,
    /// Scheduling decisions to re-apply during replay.
    pub decisions: Vec<Decision>,
    /// Dedup key (stable across path enumeration order).
    pub key: String,
    /// Stable trace signature (crash pc + call-ish stack + checker id +
    /// provenance roots); identifies the bug across states and runs.
    pub signature: String,
    /// How many states/paths reached this bug during the run.
    pub occurrences: u64,
    /// Call-ish stack at the failure (outermost first).
    pub stack: Vec<String>,
    /// Provenance chains of the symbols the failing condition depended on.
    pub provenance: Vec<ProvenanceChain>,
}

impl Bug {
    /// Renders the Table 2 style row: driver, type, description.
    pub fn table_row(&self) -> String {
        format!("{:<10} {:<18} {}", self.driver, self.class.to_string(), self.description)
    }
}

/// Exploration statistics (the §5.2 scalability numbers).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Total paths started.
    pub paths_started: u64,
    /// Paths run to completion (workload exhausted).
    pub paths_completed: u64,
    /// Paths ended by a fault or crash.
    pub paths_faulted: u64,
    /// Paths killed as infeasible.
    pub paths_infeasible: u64,
    /// Paths killed by the per-path budget.
    pub paths_budget_killed: u64,
    /// Paths killed by the whole-path step budget (potential driver hangs:
    /// the path executed `max_path_insns` instructions without finishing).
    pub paths_step_budget_killed: u64,
    /// Total instructions executed symbolically.
    pub insns: u64,
    /// Peak simultaneous states in the worklist.
    pub peak_states: usize,
    /// Symbols created.
    pub symbols: u32,
    /// Solver queries issued.
    pub solver_queries: u64,
    /// Queries answered by the solver's cheap-model fast path.
    pub solver_fast_hits: u64,
    /// Queries requiring full bit-blasting and CDCL search.
    pub solver_full: u64,
    /// Queries answered by exact-key hits in the shared query cache.
    pub solver_cache_hits: u64,
    /// `Sat` verdicts proved by reusing a cached counterexample.
    pub solver_model_reuse: u64,
    /// `Unsat` verdicts proved by a cached UNSAT subset.
    pub solver_unsat_subset: u64,
    /// Verdict-grade queries decided by independence slicing (split into
    /// two or more symbol-disjoint components).
    pub solver_sliced: u64,
    /// Total components produced across all sliced queries.
    pub solver_slice_components: u64,
    /// Always 0: the incremental solver session was removed. Kept only
    /// because the campaign benchmark still reads it.
    pub solver_session_probes: u64,
    /// Always 0: batched branch feasibility was removed. Kept only because
    /// the campaign benchmark still reads it.
    pub solver_batch_flushes: u64,
    /// Always 0: batched branch feasibility was removed. Kept only because
    /// the campaign benchmark still reads it.
    pub solver_batched_verdicts: u64,
    /// Always 0: batched branch feasibility was removed. Kept only because
    /// the campaign benchmark still reads it.
    pub solver_batch_witness_hits: u64,
    /// Always 0: the racing solver portfolio was removed. Kept only because
    /// the campaign benchmark still reads it.
    pub solver_portfolio_races: u64,
    /// Always 0: the pre-blast rewriter was removed. Kept only because the
    /// campaign benchmark still reads it.
    pub solver_rewrite_reductions: u64,
    /// Hash-consing interner hits (process-global, sampled at report
    /// assembly; on a resumed campaign this covers the final process only).
    pub interner_hits: u64,
    /// Hash-consing interner misses — distinct expression nodes allocated
    /// (process-global, sampled at report assembly).
    pub interner_misses: u64,
    /// Entries evicted from the shared query cache (LRU, per entry).
    pub cache_evictions: u64,
    /// Exploration wall-clock milliseconds.
    pub wall_ms: u64,
    /// Maximum copy-on-write memory chain depth observed.
    pub max_cow_depth: usize,
    /// Forks silently discarded because the worklist was at `max_states`.
    pub states_dropped: u64,
    /// Panicking states caught and converted into incidents (the run
    /// continued without them).
    pub panics_caught: u64,
    /// Injected pool-allocation faults consumed by the driver.
    pub faults_pool: u64,
    /// Injected shared-memory faults consumed.
    pub faults_shared: u64,
    /// Injected I/O-mapping faults consumed.
    pub faults_map: u64,
    /// Injected registration faults consumed.
    pub faults_registration: u64,
    /// Injected registry-read faults consumed.
    pub faults_registry: u64,
    /// Device-lifecycle events injected (surprise removals and power
    /// transitions delivered to the driver's PnP handler).
    pub faults_lifecycle: u64,
    /// Distinct lifecycle-violation bugs recorded this run.
    pub lifecycle_bugs: u64,
    /// Scheduler quanta executed (one frontier pop + run per quantum).
    pub quanta_executed: u64,
    /// Quantum ordinal at which the first bug was recorded (0 = no bug).
    /// The search-strategy bench compares this across strategies: a guided
    /// frontier should reach the first bug in fewer expansions than FIFO.
    pub quanta_to_first_bug: u64,
    /// Quantum ordinal at which the last new basic block was covered
    /// (0 = nothing covered). Time-to-full-coverage in quanta.
    pub quanta_to_last_cover: u64,
    /// Hybrid mode: concrete fuzz executions completed.
    pub fuzz_execs: u64,
    /// Hybrid mode: instructions retired by the concrete fast executor.
    pub fuzz_insns: u64,
    /// Hybrid mode: wall-clock milliseconds spent inside concrete fuzz
    /// batches (disjoint from symbolic quanta, so the concrete
    /// instructions-per-second rate is `fuzz_insns / fuzz_wall_ms`).
    pub fuzz_wall_ms: u64,
    /// Hybrid mode: fuzz inputs escalated into symbolic states.
    pub escalations: u64,
    /// Hybrid mode: distinct driver blocks first reached by the concrete
    /// executor (before any symbolic path touched them).
    pub concrete_blocks: u64,
    /// Hybrid mode: bugs first sighted by a pure concrete execution.
    pub concrete_bugs: u64,
}

impl ExploreStats {
    /// Bumps the consumed-fault counter for one family.
    pub fn count_fault(&mut self, family: FaultFamily) {
        match family {
            FaultFamily::PoolAlloc => self.faults_pool += 1,
            FaultFamily::SharedMemory => self.faults_shared += 1,
            FaultFamily::MapRegisters => self.faults_map += 1,
            FaultFamily::Registration => self.faults_registration += 1,
            FaultFamily::Registry => self.faults_registry += 1,
            FaultFamily::Lifecycle => self.faults_lifecycle += 1,
        }
    }

    /// Total injected faults consumed across all families.
    pub fn faults_total(&self) -> u64 {
        self.faults_pool
            + self.faults_shared
            + self.faults_map
            + self.faults_registration
            + self.faults_registry
            + self.faults_lifecycle
    }

    /// Adds the solver counters that grew from `since` to `now`, two
    /// snapshots of one solver. A solver's counters never decrease, so
    /// these deltas sum exactly across quanta, shards and resumed runs.
    pub(crate) fn add_solver_delta(&mut self, since: &SolverStats, now: &SolverStats) {
        self.solver_queries += now.queries - since.queries;
        self.solver_fast_hits += now.fast_path_hits - since.fast_path_hits;
        self.solver_full += now.full_solves - since.full_solves;
        self.solver_cache_hits += now.cache_hits - since.cache_hits;
        self.solver_model_reuse += now.cache_model_reuse - since.cache_model_reuse;
        self.solver_unsat_subset += now.cache_unsat_subset - since.cache_unsat_subset;
        self.solver_sliced += now.sliced_queries - since.sliced_queries;
        self.solver_slice_components += now.slice_components - since.slice_components;
    }

    /// Samples the process-global expression-interner counters into this
    /// stats block. Called once at report assembly; the counters are
    /// cumulative for the process, so this is an assignment, not a fold.
    pub fn sample_interner(&mut self) {
        let (hits, misses) = ddt_expr::intern_stats();
        self.interner_hits = hits;
        self.interner_misses = misses;
    }

    /// Folds another stats block into this one. Every counter is additive;
    /// the two high-water marks take the max; `wall_ms` is left alone
    /// (workers overlap in time, so their wall clocks must not be summed —
    /// the caller keeps its own). Commutative and associative over the
    /// summed fields, which is what makes fleet merges order-independent.
    pub fn merge_add(&mut self, other: &ExploreStats) {
        self.paths_started += other.paths_started;
        self.paths_completed += other.paths_completed;
        self.paths_faulted += other.paths_faulted;
        self.paths_infeasible += other.paths_infeasible;
        self.paths_budget_killed += other.paths_budget_killed;
        self.paths_step_budget_killed += other.paths_step_budget_killed;
        self.insns += other.insns;
        self.peak_states = self.peak_states.max(other.peak_states);
        self.symbols += other.symbols;
        self.solver_queries += other.solver_queries;
        self.solver_fast_hits += other.solver_fast_hits;
        self.solver_full += other.solver_full;
        self.solver_cache_hits += other.solver_cache_hits;
        self.solver_model_reuse += other.solver_model_reuse;
        self.solver_unsat_subset += other.solver_unsat_subset;
        self.solver_sliced += other.solver_sliced;
        self.solver_slice_components += other.solver_slice_components;
        self.interner_hits += other.interner_hits;
        self.interner_misses += other.interner_misses;
        self.cache_evictions += other.cache_evictions;
        self.max_cow_depth = self.max_cow_depth.max(other.max_cow_depth);
        self.states_dropped += other.states_dropped;
        self.panics_caught += other.panics_caught;
        self.faults_pool += other.faults_pool;
        self.faults_shared += other.faults_shared;
        self.faults_map += other.faults_map;
        self.faults_registration += other.faults_registration;
        self.faults_registry += other.faults_registry;
        self.faults_lifecycle += other.faults_lifecycle;
        self.lifecycle_bugs += other.lifecycle_bugs;
        self.quanta_executed += other.quanta_executed;
        // First-bug ordinal: the earliest nonzero wins (0 means "never").
        if other.quanta_to_first_bug != 0 {
            self.quanta_to_first_bug = if self.quanta_to_first_bug == 0 {
                other.quanta_to_first_bug
            } else {
                self.quanta_to_first_bug.min(other.quanta_to_first_bug)
            };
        }
        self.quanta_to_last_cover = self.quanta_to_last_cover.max(other.quanta_to_last_cover);
        self.fuzz_execs += other.fuzz_execs;
        self.fuzz_insns += other.fuzz_insns;
        self.fuzz_wall_ms += other.fuzz_wall_ms;
        self.escalations += other.escalations;
        self.concrete_blocks += other.concrete_blocks;
        self.concrete_bugs += other.concrete_bugs;
    }
}

/// Harness-health summary for one run: everything that silently degraded
/// the exploration (dropped states, killed paths, solver fallbacks, caught
/// panics) plus the fault-injection tally.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunHealth {
    /// Forks discarded because the worklist was full (`max_states`).
    pub states_dropped: u64,
    /// Paths killed by the per-invocation instruction budget.
    pub budget_kills: u64,
    /// Paths killed by the whole-path step budget — each one is a
    /// potential driver hang worth triaging, not just lost coverage.
    pub path_step_budget_kills: u64,
    /// Solver queries that fell back to full bit-blasting + CDCL search
    /// (the query-cache misses, counted after the candidate fast path).
    pub solver_fallbacks: u64,
    /// Queries answered by exact-key hits in the shared query cache.
    pub cache_hits: u64,
    /// `Sat` verdicts proved by reusing a cached counterexample instead of
    /// blasting (verdict-grade queries only; see DESIGN.md).
    pub cache_model_reuse: u64,
    /// `Unsat` verdicts proved by a cached UNSAT subset of the query.
    pub cache_unsat_subset: u64,
    /// Verdict-grade queries decided by independence slicing.
    pub solver_sliced: u64,
    /// Total symbol-disjoint components across sliced queries.
    pub solver_slice_components: u64,
    /// Always 0: the incremental solver session was removed. Kept only
    /// because the campaign benchmark still reads it.
    pub session_probes: u64,
    /// Always 0: batched branch feasibility was removed. Kept only because
    /// the campaign benchmark still reads it.
    pub batch_flushes: u64,
    /// Always 0: batched branch feasibility was removed. Kept only because
    /// the campaign benchmark still reads it.
    pub batched_verdicts: u64,
    /// Expression-interner hits (process-global sample).
    pub interner_hits: u64,
    /// Expression-interner misses (process-global sample).
    pub interner_misses: u64,
    /// Query-cache entries evicted (single-entry LRU, never wholesale).
    pub cache_evictions: u64,
    /// Panicking states caught; each is a lost path, not a lost run.
    pub panics_caught: u64,
    /// Injected pool-allocation faults consumed.
    pub faults_pool: u64,
    /// Injected shared-memory faults consumed.
    pub faults_shared: u64,
    /// Injected I/O-mapping faults consumed.
    pub faults_map: u64,
    /// Injected registration faults consumed.
    pub faults_registration: u64,
    /// Injected registry-read faults consumed.
    pub faults_registry: u64,
    /// Device-lifecycle events injected (surprise removals, suspends,
    /// resumes delivered to the PnP handler).
    pub lifecycle_injected: u64,
    /// Distinct lifecycle-violation bugs found.
    pub lifecycle_bugs: u64,
    /// The total-instruction budget ended the run early.
    pub insn_budget_exhausted: bool,
    /// The wall-clock budget ended the run early.
    pub wall_budget_exhausted: bool,
    /// Raw bug sightings before signature deduplication (every state/path
    /// that reached some bug).
    pub bug_occurrences: u64,
    /// Distinct bugs after signature deduplication.
    pub bugs_deduped: u64,
    /// Trace artifacts persisted to the store this run (0 when no store
    /// was configured).
    pub traces_persisted: u64,
    /// Frontier checkpoints written by this process (0 when no checkpoint
    /// directory was configured).
    pub checkpoints_written: u64,
    /// Write-ahead journal records appended by this process.
    pub journal_records: u64,
    /// Frontier machines successfully reconstructed by schedule replay at
    /// the start of a resumed run.
    pub resume_replayed_paths: u64,
    /// Frontier machines whose reconstruction diverged or failed its
    /// fingerprint check; each is a lost pending path, not a lost run.
    pub resume_replay_failures: u64,
    /// Fleet mode: worker processes spawned over the campaign (initial
    /// spawns plus respawns after crashes).
    pub fleet_workers_spawned: u64,
    /// Fleet mode: workers lost to crashes, broken pipes, or the hang
    /// watchdog.
    pub fleet_workers_lost: u64,
    /// Fleet mode: shard leases reassigned after a worker was lost.
    pub fleet_leases_reassigned: u64,
    /// Fleet mode: shards stolen back from laggards and rebalanced.
    pub fleet_shards_stolen: u64,
    /// Fleet mode: shards quarantined into the trace store after
    /// exhausting their retry budget; each is a lost subtree, not a lost
    /// campaign.
    pub fleet_shards_quarantined: u64,
}

impl RunHealth {
    /// Assembles the health section from final stats plus the two
    /// budget-exhaustion facts only the exerciser knows.
    pub fn from_stats(stats: &ExploreStats, insn_exhausted: bool, wall_exhausted: bool) -> Self {
        RunHealth {
            states_dropped: stats.states_dropped,
            budget_kills: stats.paths_budget_killed,
            path_step_budget_kills: stats.paths_step_budget_killed,
            solver_fallbacks: stats.solver_full,
            cache_hits: stats.solver_cache_hits,
            cache_model_reuse: stats.solver_model_reuse,
            cache_unsat_subset: stats.solver_unsat_subset,
            solver_sliced: stats.solver_sliced,
            solver_slice_components: stats.solver_slice_components,
            session_probes: 0,
            batch_flushes: 0,
            batched_verdicts: 0,
            interner_hits: stats.interner_hits,
            interner_misses: stats.interner_misses,
            cache_evictions: stats.cache_evictions,
            panics_caught: stats.panics_caught,
            faults_pool: stats.faults_pool,
            faults_shared: stats.faults_shared,
            faults_map: stats.faults_map,
            faults_registration: stats.faults_registration,
            faults_registry: stats.faults_registry,
            lifecycle_injected: stats.faults_lifecycle,
            lifecycle_bugs: stats.lifecycle_bugs,
            insn_budget_exhausted: insn_exhausted,
            wall_budget_exhausted: wall_exhausted,
            // Filled in by the exerciser once bugs are deduped/persisted.
            bug_occurrences: 0,
            bugs_deduped: 0,
            traces_persisted: 0,
            // Filled in by the campaign layer when checkpointing/resume is
            // active.
            checkpoints_written: 0,
            journal_records: 0,
            resume_replayed_paths: 0,
            resume_replay_failures: 0,
            // Filled in by the fleet supervisor.
            fleet_workers_spawned: 0,
            fleet_workers_lost: 0,
            fleet_leases_reassigned: 0,
            fleet_shards_stolen: 0,
            fleet_shards_quarantined: 0,
        }
    }

    /// Folds another health block into this one: counters sum, the
    /// budget-exhaustion flags OR. Commutative and associative, so fleet
    /// merges are order-independent regardless of worker completion order.
    pub fn merge_add(&mut self, other: &RunHealth) {
        self.states_dropped += other.states_dropped;
        self.budget_kills += other.budget_kills;
        self.path_step_budget_kills += other.path_step_budget_kills;
        self.solver_fallbacks += other.solver_fallbacks;
        self.cache_hits += other.cache_hits;
        self.cache_model_reuse += other.cache_model_reuse;
        self.cache_unsat_subset += other.cache_unsat_subset;
        self.solver_sliced += other.solver_sliced;
        self.solver_slice_components += other.solver_slice_components;
        self.interner_hits += other.interner_hits;
        self.interner_misses += other.interner_misses;
        self.cache_evictions += other.cache_evictions;
        self.panics_caught += other.panics_caught;
        self.faults_pool += other.faults_pool;
        self.faults_shared += other.faults_shared;
        self.faults_map += other.faults_map;
        self.faults_registration += other.faults_registration;
        self.faults_registry += other.faults_registry;
        self.lifecycle_injected += other.lifecycle_injected;
        self.lifecycle_bugs += other.lifecycle_bugs;
        self.insn_budget_exhausted |= other.insn_budget_exhausted;
        self.wall_budget_exhausted |= other.wall_budget_exhausted;
        self.bug_occurrences += other.bug_occurrences;
        self.bugs_deduped += other.bugs_deduped;
        self.traces_persisted += other.traces_persisted;
        self.checkpoints_written += other.checkpoints_written;
        self.journal_records += other.journal_records;
        self.resume_replayed_paths += other.resume_replayed_paths;
        self.resume_replay_failures += other.resume_replay_failures;
        self.fleet_workers_spawned += other.fleet_workers_spawned;
        self.fleet_workers_lost += other.fleet_workers_lost;
        self.fleet_leases_reassigned += other.fleet_leases_reassigned;
        self.fleet_shards_stolen += other.fleet_shards_stolen;
        self.fleet_shards_quarantined += other.fleet_shards_quarantined;
    }

    /// Total injected faults consumed across all families.
    pub fn faults_total(&self) -> u64 {
        self.faults_pool
            + self.faults_shared
            + self.faults_map
            + self.faults_registration
            + self.faults_registry
            + self.lifecycle_injected
    }

    /// True when nothing degraded: no drops, kills, panics, or early exits.
    pub fn pristine(&self) -> bool {
        self.states_dropped == 0
            && self.budget_kills == 0
            && self.path_step_budget_kills == 0
            && self.panics_caught == 0
            && !self.insn_budget_exhausted
            && !self.wall_budget_exhausted
            && self.fleet_workers_lost == 0
            && self.fleet_shards_quarantined == 0
    }

    /// Renders the human-readable health section of the report.
    pub fn render(&self) -> String {
        let mut out = String::from("run health:\n");
        out.push_str(&format!("  states dropped at cap:  {}\n", self.states_dropped));
        out.push_str(&format!("  budget-killed paths:    {}\n", self.budget_kills));
        if self.path_step_budget_kills > 0 {
            out.push_str(&format!(
                "  step-budget kills:      {} (potential driver hangs)\n",
                self.path_step_budget_kills
            ));
        }
        out.push_str(&format!("  solver full fallbacks:  {}\n", self.solver_fallbacks));
        out.push_str(&format!(
            "  query-cache hits:       {} (exact {}, model-reuse {}, unsat-subset {})\n",
            self.cache_hits + self.cache_model_reuse + self.cache_unsat_subset,
            self.cache_hits,
            self.cache_model_reuse,
            self.cache_unsat_subset
        ));
        out.push_str(&format!("  query-cache evictions:  {}\n", self.cache_evictions));
        out.push_str(&format!(
            "  sliced verdicts:        {} ({} components)\n",
            self.solver_sliced, self.solver_slice_components
        ));
        let intern_lookups = self.interner_hits + self.interner_misses;
        if intern_lookups > 0 {
            out.push_str(&format!(
                "  interner hit rate:      {:.1}% ({} of {} lookups)\n",
                100.0 * self.interner_hits as f64 / intern_lookups as f64,
                self.interner_hits,
                intern_lookups
            ));
        }
        out.push_str(&format!("  panics caught:          {}\n", self.panics_caught));
        if self.faults_total() > 0 {
            out.push_str(&format!(
                "  faults injected:        {} (pool {}, shared {}, map {}, \
                 registration {}, registry {}, lifecycle {})\n",
                self.faults_total(),
                self.faults_pool,
                self.faults_shared,
                self.faults_map,
                self.faults_registration,
                self.faults_registry,
                self.lifecycle_injected
            ));
        } else {
            out.push_str("  faults injected:        0\n");
        }
        if self.lifecycle_injected > 0 || self.lifecycle_bugs > 0 {
            out.push_str(&format!(
                "  lifecycle events:       {} injected, {} violation(s) found\n",
                self.lifecycle_injected, self.lifecycle_bugs
            ));
        }
        if self.bug_occurrences > 0 {
            out.push_str(&format!(
                "  bugs:                   {} distinct from {} sighting(s)\n",
                self.bugs_deduped, self.bug_occurrences
            ));
        }
        if self.traces_persisted > 0 {
            out.push_str(&format!("  trace artifacts:        {}\n", self.traces_persisted));
        }
        if self.checkpoints_written > 0
            || self.journal_records > 0
            || self.resume_replayed_paths > 0
            || self.resume_replay_failures > 0
        {
            out.push_str(&format!("  checkpoints written:    {}\n", self.checkpoints_written));
            out.push_str(&format!("  journal records:        {}\n", self.journal_records));
            out.push_str(&format!(
                "  resume replays:         {} ok, {} failed\n",
                self.resume_replayed_paths, self.resume_replay_failures
            ));
        }
        if self.fleet_workers_spawned > 0 {
            out.push_str(&format!(
                "  fleet workers:          {} spawned, {} lost\n",
                self.fleet_workers_spawned, self.fleet_workers_lost
            ));
            out.push_str(&format!(
                "  fleet leases:           {} reassigned, {} stolen, {} quarantined\n",
                self.fleet_leases_reassigned,
                self.fleet_shards_stolen,
                self.fleet_shards_quarantined
            ));
        }
        let exhausted = match (self.insn_budget_exhausted, self.wall_budget_exhausted) {
            (true, true) => "instruction + wall clock",
            (true, false) => "instruction",
            (false, true) => "wall clock",
            (false, false) => "none",
        };
        out.push_str(&format!("  budget exhausted:       {exhausted}\n"));
        out
    }
}

/// One coverage sample: (milliseconds since start, covered basic blocks).
pub type CoverageSample = (u64, usize);

/// The full report for one driver.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Driver name.
    pub driver: String,
    /// All distinct bugs found.
    pub bugs: Vec<Bug>,
    /// Basic blocks in the driver (denominator for relative coverage).
    pub total_blocks: usize,
    /// Blocks covered by the end of the run.
    pub covered_blocks: usize,
    /// Coverage growth over time (Figures 2 and 3).
    pub coverage_timeline: Vec<CoverageSample>,
    /// Exploration statistics.
    pub stats: ExploreStats,
    /// Harness-health summary (degradation + fault-injection tally).
    pub health: RunHealth,
}

impl Report {
    /// Relative coverage at the end of the run (0..=1).
    pub fn relative_coverage(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.covered_blocks as f64 / self.total_blocks as f64
        }
    }

    /// Bugs of a given class.
    pub fn bugs_of(&self, class: BugClass) -> Vec<&Bug> {
        self.bugs.iter().filter(|b| b.class == class).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_display_matches_table2_vocabulary() {
        assert_eq!(BugClass::ResourceLeak.to_string(), "Resource leak");
        assert_eq!(BugClass::RaceCondition.to_string(), "Race condition");
        assert_eq!(BugClass::SegFault.to_string(), "Segmentation fault");
    }

    #[test]
    fn report_relative_coverage() {
        let r = Report {
            driver: "x".into(),
            bugs: vec![],
            total_blocks: 50,
            covered_blocks: 40,
            coverage_timeline: vec![],
            stats: ExploreStats::default(),
            health: RunHealth::default(),
        };
        assert!((r.relative_coverage() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn run_health_assembles_from_stats() {
        let mut stats = ExploreStats::default();
        stats.states_dropped = 3;
        stats.paths_budget_killed = 2;
        stats.solver_full = 7;
        stats.solver_cache_hits = 4;
        stats.solver_model_reuse = 2;
        stats.solver_unsat_subset = 1;
        stats.solver_sliced = 3;
        stats.solver_slice_components = 8;
        stats.interner_hits = 900;
        stats.interner_misses = 100;
        stats.cache_evictions = 5;
        stats.panics_caught = 1;
        stats.count_fault(FaultFamily::PoolAlloc);
        stats.count_fault(FaultFamily::Registry);
        stats.count_fault(FaultFamily::Registry);
        stats.count_fault(FaultFamily::Lifecycle);
        stats.lifecycle_bugs = 1;
        let h = RunHealth::from_stats(&stats, true, false);
        assert_eq!(h.states_dropped, 3);
        assert_eq!(h.budget_kills, 2);
        assert_eq!(h.solver_fallbacks, 7);
        assert_eq!(h.cache_hits, 4);
        assert_eq!(h.cache_model_reuse, 2);
        assert_eq!(h.cache_unsat_subset, 1);
        assert_eq!(h.solver_sliced, 3);
        assert_eq!(h.solver_slice_components, 8);
        assert_eq!(h.interner_hits, 900);
        assert_eq!(h.interner_misses, 100);
        assert_eq!(h.cache_evictions, 5);
        assert_eq!(h.panics_caught, 1);
        assert_eq!(h.faults_pool, 1);
        assert_eq!(h.faults_registry, 2);
        assert_eq!(h.lifecycle_injected, 1);
        assert_eq!(h.lifecycle_bugs, 1);
        assert_eq!(h.faults_total(), 4);
        assert!(h.insn_budget_exhausted);
        assert!(!h.wall_budget_exhausted);
        assert!(!h.pristine());
        let text = h.render();
        assert!(text.contains("panics caught"));
        assert!(text.contains("query-cache hits:       7 (exact 4, model-reuse 2, unsat-subset 1)"));
        assert!(text.contains("query-cache evictions:  5"));
        assert!(text.contains("sliced verdicts:        3 (8 components)"));
        assert!(text.contains("interner hit rate:      90.0% (900 of 1000 lookups)"));
        assert!(text.contains("registry 2"));
        assert!(text.contains("lifecycle 1"));
        assert!(text.contains("lifecycle events:       1 injected, 1 violation(s) found"));
        assert!(text.contains("budget exhausted:       instruction"));
    }

    #[test]
    fn health_renders_campaign_counters_when_active() {
        let mut h = RunHealth::default();
        assert!(!h.render().contains("checkpoints written"), "hidden when inactive");
        assert!(!h.render().contains("interner hit rate"), "hidden with zero lookups");
        h.checkpoints_written = 3;
        h.journal_records = 120;
        h.resume_replayed_paths = 7;
        h.resume_replay_failures = 1;
        let text = h.render();
        assert!(text.contains("checkpoints written:    3"));
        assert!(text.contains("journal records:        120"));
        assert!(text.contains("resume replays:         7 ok, 1 failed"));
    }

    #[test]
    fn search_counters_merge_with_the_right_rules() {
        let mut a = ExploreStats::default();
        a.quanta_executed = 10;
        a.quanta_to_first_bug = 0; // Never saw a bug.
        a.quanta_to_last_cover = 7;
        let mut b = ExploreStats::default();
        b.quanta_executed = 4;
        b.quanta_to_first_bug = 3;
        b.quanta_to_last_cover = 9;
        a.merge_add(&b);
        assert_eq!(a.quanta_executed, 14, "additive");
        assert_eq!(a.quanta_to_first_bug, 3, "earliest nonzero wins");
        assert_eq!(a.quanta_to_last_cover, 9, "max");
        let mut c = ExploreStats::default();
        c.quanta_to_first_bug = 8;
        a.merge_add(&c);
        assert_eq!(a.quanta_to_first_bug, 3, "later sighting does not regress");
    }

    #[test]
    fn pristine_health_has_no_degradation() {
        let h = RunHealth::from_stats(&ExploreStats::default(), false, false);
        assert!(h.pristine());
        assert_eq!(h.faults_total(), 0);
    }

    #[test]
    fn inject_fault_decision_roundtrips() {
        let d = Decision::InjectFault { site: 9, kind: FaultFamily::Registration };
        let s = serde_json::to_string(&d).unwrap();
        let back: Decision = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn bug_serializes() {
        let b = Bug {
            driver: "rtl8029".into(),
            class: BugClass::RaceCondition,
            origin: BugOrigin::Symbolic,
            description: "test".into(),
            pc: 0x40_0000,
            entry: "Initialize".into(),
            interrupted_entry: Some("Initialize".into()),
            trace: vec![],
            inputs: Assignment::new(),
            decisions: vec![Decision::InjectInterrupt { boundary: 3 }],
            key: "k".into(),
            signature: "00000000deadbeef".into(),
            occurrences: 2,
            stack: vec!["Initialize".into(), "Isr".into()],
            provenance: vec![],
        };
        let s = serde_json::to_string(&b).unwrap();
        let back: Bug = serde_json::from_str(&s).unwrap();
        assert_eq!(back.key, "k");
        assert_eq!(back.class, BugClass::RaceCondition);
        assert_eq!(back.signature, "00000000deadbeef");
        assert_eq!(back.occurrences, 2);
        assert_eq!(back.stack.len(), 2);
    }
}
