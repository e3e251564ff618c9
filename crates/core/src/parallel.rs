//! Parallel symbolic exploration (the §6.1 extension).
//!
//! "We are exploring ways to mitigate this problem by running symbolic
//! execution in parallel (Cloud9)" — this module is that extension: the
//! worklist becomes one shared queue, and worker threads (each with
//! its own solver and symbolic-hardware environment) pull states, run a
//! quantum, and push forks back. Execution states are self-contained
//! snapshots (§4.1.2), which is exactly what makes them cheap to ship
//! between workers.
//!
//! Differences from the serial explorer, both deliberate:
//!
//! - state selection is FIFO per worker rather than the global min-hit
//!   heuristic (a distributed searcher trades heuristic fidelity for
//!   throughput, as Cloud9 does); coverage is still tracked, in batches;
//! - bug deduplication merges per-quantum maps into one shared keyed map —
//!   keys are stable across exploration order, so the final set matches
//!   the serial run.
//!
//! Durable campaigns (§4.7) are supported here too. Workers append their
//! quantum outcomes to the shared write-ahead journal, and a frontier
//! checkpoint is taken at a *quiescent cut*: one worker elects itself
//! writer, the others park between quanta, and in-flight work drains.
//!
//! - **While the pool is parked** the writer does O(1) work per pending
//!   machine: it walks the queue in place and takes a `FrontierSnap` of
//!   each machine (scalar fields, the O(1) fingerprint, an `Arc` bump on
//!   the immutable choice log). Then it copies the aggregates (stats,
//!   bugs, coverage, prune set) into the checkpoint image and releases
//!   the cut.
//! - **After the cut**, while the other workers explore, the writer copies
//!   the choice logs into frontier records and flushes the journal buffer
//!   under the writer mutex. Then, without the mutex, it runs the journal
//!   fsync, the encode, the temp-file write and fsync, the rename and the
//!   pruning. No worker holds the writer mutex across an fsync.
//! - **Write-ahead ordering holds** because every quantum journals before
//!   it leaves the in-flight count. At the cut the journal buffer already
//!   holds every record the checkpoint depends on. The flush hands them to
//!   the OS before the journal fsync, and that fsync finishes before the
//!   rename publishes the checkpoint. The next cut cannot begin its writes
//!   until this one is done: the writer has to park for it first.
//!
//! The decision hash inside each fingerprint is kept incrementally by
//! `Machine::push_decision` (see [`Machine::fingerprint`]), which is what
//! makes a snapshot O(1).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ddt_isa::analysis;
use ddt_kernel::loader::StackLayout;
use ddt_kernel::state::DEVICE_MMIO_BASE;
use ddt_solver::SolverStats;
use ddt_trace::{JournalRecord, PathStatus};

use crate::checkpoint::{
    checkpoint_file, //
    CampaignError,
    CampaignSeed,
    CampaignWriter,
    FrontierSnap,
};
use crate::coverage::Coverage;
use crate::exerciser::{Ddt, DriverUnderTest, QuantumSinks};
use crate::hardware::DdtEnv;
use crate::machine::Machine;
use crate::report::{Bug, ExploreStats, Report, RunHealth};
use crate::search::{PruneSet, SearchStrategy, Strategy};

/// Poison-tolerant lock: a worker that panicked mid-update may leave the
/// mutex poisoned, but every guarded structure here (coverage counters, bug
/// maps, stat vectors) stays internally consistent under partial updates —
/// losing one worker must not lose the run's results.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ids reserved per quantum (a quantum forks far fewer states than this).
const QUANTUM_ID_BLOCK: u64 = 1 << 12;

/// The workers' shared frontier. The `fifo` strategy keeps the historic
/// shared FIFO (per-worker FIFO, byte-identical to the pre-strategy
/// explorer); guided strategies trade it for a vector so every pop can rank
/// the whole frontier against live coverage.
enum SharedFrontier {
    /// Mutex-guarded FIFO (the Cloud9-style throughput default).
    Fifo(Mutex<VecDeque<Machine>>),
    /// Strategy-ranked frontier. Lock order is frontier → coverage (pop is
    /// the only place both are held; nothing acquires them the other way).
    Guided { items: Mutex<Vec<Machine>>, strategy: Box<dyn SearchStrategy> },
}

impl SharedFrontier {
    fn push(&self, m: Machine) {
        match self {
            SharedFrontier::Fifo(q) => relock(q).push_back(m),
            SharedFrontier::Guided { items, .. } => relock(items).push(m),
        }
    }

    fn pop(&self, coverage: &Mutex<Coverage>) -> Option<Machine> {
        match self {
            SharedFrontier::Fifo(q) => relock(q).pop_front(),
            SharedFrontier::Guided { items, strategy } => {
                let mut v = relock(items);
                if v.is_empty() {
                    return None;
                }
                let i = {
                    let cov = relock(coverage);
                    strategy.select(&v, &cov)
                };
                Some(v.swap_remove(i))
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            SharedFrontier::Fifo(q) => relock(q).len(),
            SharedFrontier::Guided { items, .. } => relock(items).len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Captures every pending machine in queue order, in place and O(1)
    /// per machine (checkpoint cuts and the final checkpoint): no machine
    /// moves, and no choice log is copied until after the cut.
    fn snapshot(&self) -> Vec<FrontierSnap> {
        match self {
            SharedFrontier::Fifo(q) => relock(q).iter().map(FrontierSnap::of).collect(),
            SharedFrontier::Guided { items, .. } => {
                relock(items).iter().map(FrontierSnap::of).collect()
            }
        }
    }
}

/// Runs the exploration across `workers` threads.
///
/// Produces the same bug set as [`Ddt::test`] (dedup keys are stable), with
/// merged statistics. `workers == 1` degenerates to a serial FIFO run.
pub fn test_parallel(ddt: &Ddt, dut: &DriverUnderTest, workers: usize) -> Report {
    explore_parallel(ddt, dut, workers, None)
}

/// Resumes an interrupted campaign from `dir` across `workers` threads.
/// The counterpart of [`Ddt::resume`] for the parallel explorer.
pub fn resume_parallel(
    ddt: &Ddt,
    dut: &DriverUnderTest,
    workers: usize,
    dir: &Path,
) -> Result<Report, CampaignError> {
    let (ck, stats, bugs) = ddt.load_for_resume(dut, dir)?;
    if ck.finished {
        return Ok(ddt.rebuild_finished_report(dut, &ck, stats, bugs));
    }
    let seed = ddt.rebuild_seed(dut, ck, stats, bugs);
    let continued = ddt.with_campaign_dir(dir);
    Ok(explore_parallel(&continued, dut, workers, Some(seed)))
}

/// Adds one quantum's counter deltas into the shared aggregate.
fn merge_stats(agg: &mut ExploreStats, local: &ExploreStats) {
    // Worker-local stats never carry solver/interner/wall fields (those are
    // folded separately from solver snapshots), so the full additive merge
    // the fleet also uses is exact here.
    agg.merge_add(local);
}

/// The parallel exploration loop, optionally seeded with the restored
/// state of an interrupted campaign.
pub(crate) fn explore_parallel(
    ddt: &Ddt,
    dut: &DriverUnderTest,
    workers: usize,
    seed: Option<CampaignSeed>,
) -> Report {
    let workers = workers.max(1);
    let analysis = analysis::analyze(&dut.image);
    let stack = StackLayout::default();
    let queue = match ddt.config.strategy {
        Strategy::Fifo => SharedFrontier::Fifo(Mutex::new(VecDeque::new())),
        s => SharedFrontier::Guided {
            items: Mutex::new(Vec::new()),
            strategy: s.runtime(&analysis),
        },
    };

    // One counterexample cache for the whole worker pool: a constraint set
    // solved (or refuted) by any worker is a cache hit for every other.
    let run_cache = ddt.config.run_cache();

    let (coverage, agg_init, bugs_init, first_id, first_seq, base_ms, replays, seen) = match seed
    {
        Some(s) => {
            for m in s.frontier {
                queue.push(m);
            }
            (
                Coverage::seeded(
                    analysis,
                    s.coverage_hits,
                    s.coverage_covered,
                    s.coverage_timeline,
                    s.base_wall_ms,
                ),
                s.stats,
                s.bugs,
                s.next_id,
                s.next_checkpoint_seq,
                s.base_wall_ms,
                (s.replayed_ok, s.replay_failed),
                s.prune_seen,
            )
        }
        None => {
            let root = ddt.make_root_machine(dut);
            let stats = ExploreStats {
                symbols: root.st.counter.allocated(),
                paths_started: 1, // The root.
                ..Default::default()
            };
            queue.push(root);
            (Coverage::new(analysis), stats, HashMap::new(), 1, 0, 0, (0, 0), Vec::new())
        }
    };
    let prune: Option<Mutex<PruneSet>> =
        ddt.config.prune.then(|| Mutex::new(PruneSet::seeded(seen)));
    let coverage = Mutex::new(coverage);
    let agg_stats: Mutex<ExploreStats> = Mutex::new(agg_init);
    let merged: Mutex<HashMap<String, Bug>> = Mutex::new(bugs_init);
    let campaign: Option<Mutex<CampaignWriter>> = ddt.config.checkpoint.as_ref().map(|policy| {
        Mutex::new(CampaignWriter::start(
            policy,
            &dut.image.name,
            ddt.config.fingerprint(),
            first_seq,
        ))
    });

    let every_quanta = campaign.as_ref().map_or(u64::MAX, |c| relock(c).every_quanta());
    let in_flight = AtomicUsize::new(0);
    let total_insns = AtomicU64::new(agg_init_insns(&agg_stats));
    let next_id = AtomicU64::new(first_id);
    let quanta = AtomicU64::new(0);
    // Checkpoint cut coordination: `want_cut` parks every worker between
    // quanta; the electing writer waits for `parked + exited` to cover the
    // rest of the pool and `in_flight` to drain before snapshotting.
    let want_cut = AtomicBool::new(false);
    let parked = AtomicUsize::new(0);
    let exited = AtomicUsize::new(0);
    let interrupted = AtomicBool::new(false);
    let started = std::time::Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut solver = ddt.config.solver_for(&run_cache);
                let mut env = DdtEnv::new(
                    DEVICE_MMIO_BASE,
                    dut.descriptor.mmio_len,
                    stack.base,
                    stack.initial_sp(),
                );
                env.check_memory = ddt.config.check_memory;
                // Solver counters already folded into the shared stats.
                let mut prev_solver = SolverStats::default();
                let mut idle_spins = 0u32;
                loop {
                    if ddt.config.stop_requested() {
                        interrupted.store(true, Ordering::Relaxed);
                        break;
                    }
                    if want_cut.load(Ordering::Acquire) {
                        // A checkpoint cut is forming: park between quanta.
                        parked.fetch_add(1, Ordering::AcqRel);
                        while want_cut.load(Ordering::Acquire) && !ddt.config.stop_requested() {
                            std::thread::yield_now();
                        }
                        parked.fetch_sub(1, Ordering::AcqRel);
                        continue;
                    }
                    if total_insns.load(Ordering::Relaxed) > ddt.config.max_total_insns
                        || base_ms + started.elapsed().as_millis() as u64
                            > ddt.config.time_budget_ms
                    {
                        break;
                    }
                    // Claim in-flight status *before* popping: a worker that
                    // holds a machine but has not yet pushed its forks must
                    // be visible to idle workers, or two workers can race to
                    // the "queue empty + nothing in flight" conclusion while
                    // work is still materializing (premature quiescence).
                    in_flight.fetch_add(1, Ordering::AcqRel);
                    let Some(mut m) = queue.pop(&coverage) else {
                        let before = in_flight.fetch_sub(1, Ordering::AcqRel);
                        if before == 1 && queue.is_empty() && !want_cut.load(Ordering::Acquire) {
                            break; // Global quiescence: no work anywhere.
                        }
                        idle_spins += 1;
                        if idle_spins > 1000 {
                            std::thread::yield_now();
                        }
                        continue;
                    };
                    idle_spins = 0;
                    let mut local_forks: Vec<Machine> = Vec::new();
                    // Reserve a block of ids for this quantum (ids are
                    // diagnostics; uniqueness suffices).
                    let mut local_id = next_id.fetch_add(QUANTUM_ID_BLOCK, Ordering::Relaxed);
                    let mut exec_pcs: Vec<u32> = Vec::with_capacity(256);
                    // Per-quantum sinks: deltas merged into the shared
                    // aggregates below, so a checkpoint cut always sees a
                    // consistent whole-campaign view.
                    let mut local_stats = ExploreStats::default();
                    let mut local_bugs: HashMap<String, Bug> = HashMap::new();
                    let mut new_bug_keys: Vec<String> = Vec::new();
                    let mut fork_events = Vec::new();
                    // Panic isolation, as in the serial explorer: a panicking
                    // quantum costs one state, not the whole worker (and with
                    // it the thread-join panic that would sink the run).
                    let survived = catch_unwind(AssertUnwindSafe(|| {
                        let mut sinks = QuantumSinks {
                            worklist: &mut local_forks,
                            next_id: &mut local_id,
                            stats: &mut local_stats,
                            bugs: &mut local_bugs,
                            exec_pcs: &mut exec_pcs,
                            new_bug_keys: &mut new_bug_keys,
                            fork_events: &mut fork_events,
                            replay: None,
                        };
                        ddt.run_quantum(dut, &mut m, &mut env, &mut solver, &mut sinks)
                    }));
                    let (alive, status) = match survived {
                        Ok(None) => (true, None),
                        Ok(Some(end)) => (false, Some(end.status())),
                        Err(_) => {
                            local_stats.panics_caught += 1;
                            (false, Some(PathStatus::Panicked))
                        }
                    };
                    total_insns.fetch_add(exec_pcs.len() as u64, Ordering::Relaxed);
                    let (fresh, covered_now) = {
                        let mut cov = relock(&coverage);
                        let before = cov.covered_blocks();
                        for pc in exec_pcs {
                            cov.on_exec(pc);
                        }
                        let now = cov.covered_blocks();
                        ((now - before) as u64, now as u64)
                    };
                    // Opt-in structural pruning: drop this quantum's forks
                    // whose fingerprint repeats with no coverage delta. The
                    // shared seen-set makes the decision global, like the
                    // serial explorer's.
                    if let Some(p) = &prune {
                        let mut ps = relock(p);
                        local_forks.retain(|f| {
                            if ps.check(PruneSet::fp_hash(&f.fingerprint()), covered_now) {
                                local_stats.states_pruned += 1;
                                false
                            } else {
                                true
                            }
                        });
                    }
                    local_stats.peak_states = local_stats.peak_states.max(queue.len() + 1);
                    let stamp = {
                        let mut agg = relock(&agg_stats);
                        merge_stats(&mut agg, &local_stats);
                        agg.quanta_executed += 1;
                        let stamp = agg.quanta_executed;
                        if fresh > 0 {
                            agg.quanta_to_last_cover = agg.quanta_to_last_cover.max(stamp);
                        }
                        if agg.quanta_to_first_bug == 0 && !local_bugs.is_empty() {
                            agg.quanta_to_first_bug = stamp;
                        }
                        let s = solver.stats();
                        agg.add_solver_delta(&prev_solver, &s);
                        prev_solver = s;
                        stamp
                    };
                    if !local_bugs.is_empty() {
                        // Merge keyed bugs, summing sightings on collisions
                        // (plain extend would silently drop counts).
                        let mut g = relock(&merged);
                        for (key, bug) in local_bugs {
                            match g.entry(key) {
                                std::collections::hash_map::Entry::Occupied(mut e) => {
                                    e.get_mut().occurrences += bug.occurrences;
                                }
                                std::collections::hash_map::Entry::Vacant(e) => {
                                    e.insert(bug);
                                }
                            }
                        }
                    }
                    if let Some(c) = &campaign {
                        let mut w = relock(c);
                        for (parent, child, kind) in fork_events.drain(..) {
                            w.record(&JournalRecord::Forked { parent, child, kind });
                        }
                        if let Some(status) = status {
                            w.record(&JournalRecord::PathDone {
                                machine: m.id,
                                status,
                                steps: m.steps_total,
                                new_bugs: std::mem::take(&mut new_bug_keys),
                            });
                        }
                    }
                    for mut fork in local_forks {
                        fork.cov_fresh = fresh;
                        fork.cov_stamp = stamp;
                        queue.push(fork);
                    }
                    if alive {
                        m.cov_fresh = fresh;
                        m.cov_stamp = stamp;
                        queue.push(m);
                    }
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                    if let Some(c) = &campaign {
                        let q = quanta.fetch_add(1, Ordering::AcqRel) + 1;
                        let elect = q.is_multiple_of(every_quanta)
                            && want_cut
                                .compare_exchange(
                                    false,
                                    true,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok();
                        if elect {
                            // Quiescent cut: wait until every other worker is
                            // parked or gone and no machine is in flight.
                            while in_flight.load(Ordering::Acquire) > 0
                                || parked.load(Ordering::Acquire)
                                    + exited.load(Ordering::Acquire)
                                    < workers - 1
                            {
                                std::thread::yield_now();
                            }
                            // Inside the cut, only the snapshot: O(1) per
                            // pending machine, then the aggregates. The image
                            // gets its frontier records after the cut.
                            let frontier = queue.snapshot();
                            let mut snap = relock(&agg_stats).clone();
                            snap.wall_ms = base_ms + started.elapsed().as_millis() as u64;
                            let seen =
                                prune.as_ref().map(|p| relock(p).snapshot()).unwrap_or_default();
                            let mut ck = checkpoint_file(
                                dut,
                                ddt,
                                &relock(&coverage),
                                &snap,
                                &relock(&merged),
                                next_id.load(Ordering::Relaxed),
                                Vec::new(),
                                seen,
                                false,
                                false,
                            );
                            want_cut.store(false, Ordering::Release);
                            // After the cut, while the pool explores: copy
                            // out the choice logs, flush the journal under
                            // the writer lock, then encode, fsync and rename
                            // without it.
                            ck.frontier =
                                frontier.into_iter().map(FrontierSnap::into_record).collect();
                            let publish = relock(c).prepare_checkpoint(ck);
                            let outcome = publish.run();
                            relock(c).complete_checkpoint(outcome);
                        }
                    }
                }
                exited.fetch_add(1, Ordering::AcqRel);
            });
        }
    });

    let coverage = coverage.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut stats = agg_stats.into_inner().unwrap_or_else(PoisonError::into_inner);
    // Evictions are a property of the one shared cache, not per worker.
    stats.cache_evictions = run_cache.as_ref().map_or(0, |c| c.stats().evictions);
    stats.sample_interner();
    stats.wall_ms = base_ms + started.elapsed().as_millis() as u64;
    let bugs_map = merged.into_inner().unwrap_or_else(PoisonError::into_inner);
    let was_interrupted = interrupted.load(Ordering::Relaxed);
    let insn_exhausted = stats.insns > ddt.config.max_total_insns;
    let wall_exhausted = stats.wall_ms > ddt.config.time_budget_ms;
    let mut health = RunHealth::from_stats(&stats, insn_exhausted, wall_exhausted);
    health.resume_replayed_paths = replays.0;
    health.resume_replay_failures = replays.1;
    if let Some(c) = campaign {
        let mut w = c.into_inner().unwrap_or_else(PoisonError::into_inner);
        let frontier: Vec<_> =
            queue.snapshot().into_iter().map(FrontierSnap::into_record).collect();
        if was_interrupted {
            w.record(&JournalRecord::Interrupted);
        }
        let finished = frontier.is_empty();
        if finished {
            w.record(&JournalRecord::Finished { distinct_bugs: bugs_map.len() as u64 });
        }
        let seen = prune.as_ref().map(|p| relock(p).snapshot()).unwrap_or_default();
        let ck = checkpoint_file(
            dut,
            ddt,
            &coverage,
            &stats,
            &bugs_map,
            next_id.load(Ordering::Relaxed),
            frontier,
            seen,
            finished,
            was_interrupted,
        );
        w.write_checkpoint(ck);
        w.finish();
        health.checkpoints_written = w.checkpoints_written;
        health.journal_records = w.journal_records;
    }
    let bug_list = ddt.finalize_bugs(bugs_map, &mut health, dut);
    Report {
        driver: dut.image.name.clone(),
        bugs: bug_list,
        total_blocks: coverage.total_blocks(),
        covered_blocks: coverage.covered_blocks(),
        coverage_timeline: coverage.timeline().to_vec(),
        health,
        stats,
    }
}

/// The restored instruction count: the shared budget counter continues the
/// campaign's consumption instead of restarting it.
fn agg_init_insns(agg: &Mutex<ExploreStats>) -> u64 {
    relock(agg).insns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exerciser::DriverUnderTest;

    #[test]
    fn parallel_matches_serial_on_pcnet() {
        let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let ddt = Ddt::default();
        let serial = ddt.test(&dut);
        let parallel = test_parallel(&ddt, &dut, 4);
        let mut sk: Vec<&str> = serial.bugs.iter().map(|b| b.key.as_str()).collect();
        let mut pk: Vec<&str> = parallel.bugs.iter().map(|b| b.key.as_str()).collect();
        sk.sort_unstable();
        pk.sort_unstable();
        assert_eq!(sk, pk, "parallel exploration finds the same bugs");
    }

    #[test]
    fn parallel_clean_driver_stays_clean() {
        // Lifecycle injection on and the lifecycle workload in place: the
        // clean driver must stay clean even across surprise removal and
        // power transitions, and its PnP handler counts toward coverage.
        let spec = ddt_drivers::clean_driver();
        let mut dut = DriverUnderTest::from_spec(&spec);
        dut.workload = ddt_drivers::workload::lifecycle_workload_for(spec.class);
        let mut ddt = Ddt::default();
        ddt.config.fault_plan =
            crate::faults::FaultPlan::for_families(&[ddt_kernel::FaultFamily::Lifecycle]);
        let report = test_parallel(&ddt, &dut, 4);
        assert!(report.bugs.is_empty(), "clean driver must stay clean: {:?}", report.bugs);
        assert!(report.relative_coverage() > 0.9);
    }

    #[test]
    fn workers_share_one_query_cache() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let cache = std::sync::Arc::new(ddt_solver::QueryCache::new());
        let mut ddt = Ddt::default();
        ddt.config.shared_cache = Some(cache.clone());
        let report = test_parallel(&ddt, &dut, 2);
        assert!(report.stats.solver_queries > 0);
        assert!(!cache.is_empty(), "the run's solves must land in the shared cache");
        // A warm re-run over the same handle answers from the cache.
        let warm = test_parallel(&ddt, &dut, 2);
        let warm_hits = warm.stats.solver_cache_hits
            + warm.stats.solver_model_reuse
            + warm.stats.solver_unsat_subset;
        assert!(warm_hits > 0, "warm cache produced no hits");
        let mut ck: Vec<&str> = report.bugs.iter().map(|b| b.key.as_str()).collect();
        let mut wk: Vec<&str> = warm.bugs.iter().map(|b| b.key.as_str()).collect();
        ck.sort_unstable();
        wk.sort_unstable();
        assert_eq!(ck, wk, "warm cache changed the bug set");
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let spec = ddt_drivers::driver_by_name("ensoniq").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let report = test_parallel(&Ddt::default(), &dut, 1);
        assert_eq!(report.bugs.len(), 4);
    }
}
