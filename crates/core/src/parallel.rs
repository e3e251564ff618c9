//! Parallel symbolic exploration (the §6.1 extension).
//!
//! "We are exploring ways to mitigate this problem by running symbolic
//! execution in parallel (Cloud9)" — this module is that extension: the
//! frontier becomes one shared queue, and worker threads pull states, run
//! a quantum, and push forks back. Execution states are self-contained
//! snapshots (§4.1.2), which is exactly what makes them cheap to ship
//! between workers.
//!
//! Only the sharing is parallel-specific. Each thread runs its quanta on
//! its own `Explorer` (environment and solver) and settles them with the
//! same `RunState::settle` and keyed bug merge as every other mode, under
//! one lock over the run state. What stays here is synchronisation:
//!
//! - the shared frontier: the `fifo` strategy keeps a shared FIFO (per
//!   worker FIFO, the Cloud9-style throughput default); guided strategies
//!   rank one shared [`Frontier`] against live coverage at every pop;
//! - in-flight accounting, so idle workers can tell a momentarily empty
//!   queue from global quiescence;
//! - the checkpoint cut.
//!
//! Durable campaigns (§4.7) are supported here too. Workers append their
//! quantum outcomes to the shared write-ahead journal, and a frontier
//! checkpoint is taken at a *quiescent cut*: one worker elects itself
//! writer, the others park between quanta, and in-flight work drains.
//!
//! - **While the pool is parked** the writer does O(1) work per pending
//!   machine: it walks the queue in place and takes a `FrontierSnap` of
//!   each machine (scalar fields, the O(1) fingerprint, an `Arc` bump on
//!   the immutable choice log). Then it copies the run state (stats, bugs,
//!   coverage, prune set) into the checkpoint image and releases the cut.
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
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ddt_isa::analysis;

use crate::checkpoint::{
    checkpoint_file, //
    CampaignError,
    CampaignSeed,
    CampaignWriter,
    FrontierSnap,
};
use crate::exerciser::{Ddt, DriverUnderTest};
use crate::explore::{Explorer, RunState, Start};
use crate::machine::Machine;
use crate::report::{ExploreStats, Report, RunHealth};
use crate::search::{Frontier, Strategy};

/// Poison-tolerant lock: a worker that panicked mid-update may leave the
/// mutex poisoned, but every guarded structure here (the run state, the
/// frontier, the journal) stays internally consistent under partial
/// updates — losing one worker must not lose the run's results.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ids reserved per quantum (a quantum forks far fewer states than this).
const QUANTUM_ID_BLOCK: u64 = 1 << 12;

/// The workers' shared frontier. Lock order is frontier → run state: a
/// guided pop ranks against the run's coverage while holding the frontier,
/// and nothing acquires the two the other way.
enum SharedFrontier {
    /// Mutex-guarded FIFO (the `fifo` strategy).
    Fifo(Mutex<VecDeque<Machine>>),
    /// Strategy-ranked frontier (the guided strategies).
    Guided(Mutex<Frontier>),
}

impl SharedFrontier {
    fn new(frontier: Frontier, strategy: Strategy) -> SharedFrontier {
        match strategy {
            Strategy::Fifo => SharedFrontier::Fifo(Mutex::new(frontier.into_items().into())),
            _ => SharedFrontier::Guided(Mutex::new(frontier)),
        }
    }

    fn push(&self, m: Machine) {
        match self {
            SharedFrontier::Fifo(q) => relock(q).push_back(m),
            SharedFrontier::Guided(f) => relock(f).push(m),
        }
    }

    fn pop(&self, run: &Mutex<RunState>) -> Option<Machine> {
        match self {
            SharedFrontier::Fifo(q) => relock(q).pop_front(),
            SharedFrontier::Guided(f) => {
                let mut f = relock(f);
                if f.is_empty() {
                    return None;
                }
                let run = relock(run);
                f.pop(&run.coverage)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            SharedFrontier::Fifo(q) => relock(q).len(),
            SharedFrontier::Guided(f) => relock(f).len(),
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
            SharedFrontier::Guided(f) => {
                relock(f).as_slice().iter().map(FrontierSnap::of).collect()
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
    let (seed, finished) = ddt.load_seed(dut, dir)?;
    if finished {
        return Ok(ddt.finished_report(dut, seed));
    }
    Ok(explore_parallel(&ddt.with_campaign_dir(dir), dut, workers, Some(seed)))
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
    let start = seed.map_or(Start::Root, Start::Resume);
    let (run, frontier) = RunState::start(ddt, dut, analysis::analyze(&dut.image), start);
    let queue = SharedFrontier::new(frontier, ddt.config.strategy);
    // One counterexample cache for the whole worker pool: a constraint set
    // solved (or refuted) by any worker is a cache hit for every other.
    let run_cache = run.cache.clone();
    let campaign: Option<Mutex<CampaignWriter>> = ddt.config.checkpoint.as_ref().map(|policy| {
        Mutex::new(CampaignWriter::start(
            policy,
            &dut.image.name,
            ddt.config.fingerprint(),
            run.checkpoint_seq,
        ))
    });
    let every_quanta = campaign.as_ref().map_or(u64::MAX, |c| relock(c).every_quanta());
    let in_flight = AtomicUsize::new(0);
    // The budgets continue a resumed campaign's consumption; workers check
    // them lock-free.
    let total_insns = AtomicU64::new(run.stats.insns);
    let base_ms = run.coverage.elapsed_ms();
    let started = Instant::now();
    let next_id = AtomicU64::new(run.next_id);
    let quanta = AtomicU64::new(0);
    // Checkpoint cut coordination: `want_cut` parks every worker between
    // quanta; the electing writer waits for `parked + exited` to cover the
    // rest of the pool and `in_flight` to drain before snapshotting.
    let want_cut = AtomicBool::new(false);
    let parked = AtomicUsize::new(0);
    let exited = AtomicUsize::new(0);
    let interrupted = AtomicBool::new(false);
    let run = Mutex::new(run);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut explorer = Explorer::new(ddt, dut, &run_cache);
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
                    let Some(mut m) = queue.pop(&run) else {
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
                    // Per-quantum sinks, merged into the run state below so
                    // a checkpoint cut always sees a consistent
                    // whole-campaign view. Ids come in reserved blocks (they
                    // are diagnostics; uniqueness suffices).
                    let mut forks = Vec::new();
                    let mut id = next_id.fetch_add(QUANTUM_ID_BLOCK, Ordering::Relaxed);
                    let mut stats = ExploreStats::default();
                    let mut bugs = HashMap::new();
                    let q = explorer.quantum(&mut m, &mut forks, &mut id, &mut stats, &mut bugs);
                    total_insns.fetch_add(q.exec_pcs.len() as u64, Ordering::Relaxed);
                    stats.peak_states = queue.len() + 1;
                    {
                        let mut run = relock(&run);
                        run.stats.merge_add(&stats);
                        run.merge_bugs(bugs.into_values());
                        explorer.fold(&mut run.stats);
                        run.settle(&q, &mut m, &mut forks, 0);
                    }
                    if let Some(c) = &campaign {
                        relock(c).record_quantum(&q);
                    }
                    for fork in forks {
                        queue.push(fork);
                    }
                    if q.end.is_none() {
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
                            // pending machine, then the run state. The image
                            // gets its frontier records after the cut.
                            let frontier = queue.snapshot();
                            let mut ck = {
                                let mut run = relock(&run);
                                run.stats.wall_ms = base_ms + started.elapsed().as_millis() as u64;
                                run.next_id = next_id.load(Ordering::Relaxed);
                                checkpoint_file(ddt, dut, &run, Vec::new(), false, false)
                            };
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

    let mut run = run.into_inner().unwrap_or_else(PoisonError::into_inner);
    run.next_id = next_id.load(Ordering::Relaxed);
    let interrupted = interrupted.load(Ordering::Relaxed);
    run.into_report(ddt, dut, None, |run| match campaign {
        Some(c) => {
            let w = c.into_inner().unwrap_or_else(PoisonError::into_inner);
            let frontier = queue.snapshot().into_iter().map(FrontierSnap::into_record).collect();
            w.close(ddt, dut, run, frontier, interrupted)
        }
        None => RunHealth::default(),
    })
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
