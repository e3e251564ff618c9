//! Parallel symbolic exploration (the §6.1 extension).
//!
//! "We are exploring ways to mitigate this problem by running symbolic
//! execution in parallel (Cloud9)" — this module is that extension, in
//! Cloud9's shape: every worker thread owns a [`Frontier`] that pops in the
//! configured strategy's order, and a worker whose frontier runs dry steals
//! the back half of the largest other one. Execution states are
//! self-contained snapshots (§4.1.2), which is exactly what makes them
//! cheap to ship between workers.
//!
//! Only the sharing is parallel-specific. Each thread runs its quanta on
//! its own `Explorer` (environment and solver) and settles them with the
//! same `RunState::settle` and keyed bug merge as every other mode, under
//! one lock over the run state. It then pushes the forks, and then the
//! machine, onto its own frontier: the serial loop's order, so one worker
//! explores exactly as [`Ddt::test`] does. What stays here is
//! synchronisation:
//!
//! - the frontiers and stealing. No thread ever holds two frontier locks
//!   at once, and the lock order is frontier → run state: a pop ranks its
//!   frontier against the run's coverage;
//! - the run's `RunView`. Its count of live machines (pending in a
//!   frontier, running, or stolen in transit) is both what the state cap
//!   is checked against and the quiescence test: zero means the run is
//!   over. Its set of known bug keys lets a quantum count a repeat
//!   sighting without building the bug again;
//! - idle workers, which block on a condition variable until a push, a
//!   checkpoint cut or the end of the run wakes them;
//! - the checkpoint cut.
//!
//! Durable campaigns (§4.7) are supported here too. Workers append their
//! quantum outcomes to the shared write-ahead journal, and a frontier
//! checkpoint is taken at a *quiescent cut*: one worker elects itself
//! writer, the others park between quanta, and the cut counts a blocked
//! idle worker as parked. A worker parks only at the top of its loop, so
//! once every other worker is parked or gone no machine is running or in
//! transit: every one of them sits in some frontier.
//!
//! - **While the pool is parked** the writer does O(1) work per pending
//!   machine: it walks every worker's frontier in place, in worker order,
//!   and takes a `FrontierSnap` of each machine (scalar fields, the O(1)
//!   fingerprint, an `Arc` bump on the immutable choice log). Then it
//!   copies the run state (stats, bugs, coverage, prune set) into the
//!   checkpoint image and releases the cut.
//! - **After the cut**, while the other workers explore, the writer copies
//!   the choice logs into frontier records and flushes the journal buffer
//!   under the writer mutex. Then, without the mutex, it runs the journal
//!   fsync, the encode, the temp-file write and fsync, the rename and the
//!   pruning. No worker holds the writer mutex across an fsync.
//! - **Write-ahead ordering holds** because every quantum journals before
//!   its worker can park. At the cut the journal buffer already holds
//!   every record the checkpoint depends on. The flush hands them to the
//!   OS before the journal fsync, and that fsync finishes before the
//!   rename publishes the checkpoint. The next cut cannot begin its writes
//!   until this one is done: the writer has to park for it first.
//!
//! The decision hash inside each fingerprint is kept incrementally by
//! `Machine::push_decision` (see [`Machine::fingerprint`]), which is what
//! makes a snapshot O(1).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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
use crate::explore::{Explorer, RunState, RunView, Start};
use crate::machine::Machine;
use crate::report::{ExploreStats, Report, RunHealth};
use crate::search::Frontier;

/// Poison-tolerant lock: a worker that panicked mid-update may leave the
/// mutex poisoned, but every guarded structure here (the run state, the
/// frontiers, the journal) stays internally consistent under partial
/// updates — losing one worker must not lose the run's results.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ids reserved per quantum (a quantum forks far fewer states than this).
const QUANTUM_ID_BLOCK: u64 = 1 << 12;

/// The worker pool's scheduler: one frontier per worker, the run's view,
/// and the coordination of idle workers and checkpoint cuts.
struct Pool {
    /// Worker `w` pops and pushes `frontiers[w]` and steals from the rest.
    frontiers: Vec<Mutex<Frontier>>,
    /// The run's live count and known bug keys.
    view: RunView,
    /// Held while `blocked` or `exited` changes, for both condvars.
    idle: Mutex<()>,
    /// Wakes blocked workers: a push, the end of a cut, a worker's exit.
    wake: Condvar,
    /// Wakes a cut's writer when one more worker has blocked or exited.
    cut_ready: Condvar,
    /// Workers waiting on `wake`, idle or parked for a cut.
    blocked: AtomicUsize,
    /// Workers that have left their loop.
    exited: AtomicUsize,
    /// A checkpoint cut is forming or being written: workers park.
    want_cut: AtomicBool,
}

impl Pool {
    /// `workers` frontiers under the run's strategy; the first holds the
    /// start frontier (the root, or a resumed campaign's states).
    fn new(run: &RunState, start: Frontier, workers: usize, ddt: &Ddt) -> Pool {
        let view = RunView::new(run, start.len());
        let mut frontiers = vec![Mutex::new(start)];
        frontiers.extend((1..workers).map(|_| {
            let strategy = ddt.config.strategy.runtime(run.coverage.analysis());
            Mutex::new(Frontier::new(strategy, Vec::new()))
        }));
        Pool {
            frontiers,
            view,
            idle: Mutex::new(()),
            wake: Condvar::new(),
            cut_ready: Condvar::new(),
            blocked: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            want_cut: AtomicBool::new(false),
        }
    }

    /// Pops the state worker `w`'s strategy ranks first.
    fn pop(&self, w: usize, run: &Mutex<RunState>) -> Option<Machine> {
        let mut frontier = relock(&self.frontiers[w]);
        if frontier.is_empty() {
            return None;
        }
        let run = relock(run);
        frontier.pop(&run.coverage)
    }

    /// Pushes `states` onto worker `w`'s frontier in order, then wakes the
    /// blocked workers, who may steal them.
    fn push(&self, w: usize, states: Vec<Machine>) {
        if states.is_empty() {
            return;
        }
        relock(&self.frontiers[w]).storage_mut().extend(states);
        // Pairs with `sleep`, which raises `blocked` before it re-checks the
        // frontiers: either it sees this push or this sees it blocked.
        if self.blocked.load(Ordering::SeqCst) > 0 {
            let _idle = relock(&self.idle);
            self.wake.notify_all();
        }
    }

    /// Moves the back half of the largest other frontier, rounded up (its
    /// most recently pushed states), onto worker `w`'s, one frontier lock
    /// at a time. False when nothing was taken.
    fn steal(&self, w: usize) -> bool {
        let victim = (0..self.frontiers.len())
            .filter(|&v| v != w)
            .map(|v| (relock(&self.frontiers[v]).len(), v))
            .max();
        let Some((len, v)) = victim else { return false };
        if len == 0 {
            return false;
        }
        let stolen = {
            let mut victim = relock(&self.frontiers[v]);
            let keep = victim.len() / 2;
            victim.storage_mut().split_off(keep)
        };
        let took = !stolen.is_empty();
        self.push(w, stolen);
        took
    }

    /// True when no frontier holds a state.
    fn all_empty(&self) -> bool {
        self.frontiers.iter().all(|f| relock(f).is_empty())
    }

    /// Blocks an idle worker until a push, a cut's end or a worker's exit,
    /// unless a state or the end of the run turns up first. While machines
    /// are live but no frontier holds one, some worker is running one, and
    /// it will push or exit: so a stop or a spent budget, which that worker
    /// sees at the top of its loop, needs no wake-up of its own.
    fn sleep(&self) {
        let mut idle = relock(&self.idle);
        self.blocked.fetch_add(1, Ordering::SeqCst);
        self.cut_ready.notify_one();
        if !self.view.is_over() && self.all_empty() {
            idle = self.wake.wait(idle).unwrap_or_else(PoisonError::into_inner);
        }
        self.blocked.fetch_sub(1, Ordering::SeqCst);
        drop(idle);
    }

    /// Parks a worker between quanta until the cut is released.
    fn park(&self) {
        let mut idle = relock(&self.idle);
        self.blocked.fetch_add(1, Ordering::SeqCst);
        self.cut_ready.notify_one();
        while self.want_cut.load(Ordering::SeqCst) {
            idle = self.wake.wait(idle).unwrap_or_else(PoisonError::into_inner);
        }
        self.blocked.fetch_sub(1, Ordering::SeqCst);
    }

    /// The elected writer's wait: until every other worker is blocked or
    /// gone, so every machine sits in a frontier.
    fn await_cut(&self, workers: usize) {
        let mut idle = relock(&self.idle);
        while self.blocked.load(Ordering::SeqCst) + self.exited.load(Ordering::SeqCst) < workers - 1
        {
            idle = self.cut_ready.wait(idle).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Releases a cut: parked workers resume, idle ones look again.
    fn end_cut(&self) {
        self.want_cut.store(false, Ordering::SeqCst);
        let _idle = relock(&self.idle);
        self.wake.notify_all();
    }

    /// A worker leaves its loop: a cut's writer stops waiting for it, and
    /// blocked workers look again (the run may be over).
    fn exit(&self) {
        let _idle = relock(&self.idle);
        self.exited.fetch_add(1, Ordering::SeqCst);
        self.cut_ready.notify_one();
        self.wake.notify_all();
    }

    /// Captures every pending machine, worker by worker, in place and O(1)
    /// per machine (checkpoint cuts and the final checkpoint): no machine
    /// moves, and no choice log is copied until after the cut.
    fn snapshot(&self) -> Vec<FrontierSnap> {
        let mut snaps = Vec::new();
        for frontier in &self.frontiers {
            snaps.extend(relock(frontier).as_slice().iter().map(FrontierSnap::of));
        }
        snaps
    }
}

/// Runs the exploration across `workers` threads.
///
/// Produces the same bug set as [`Ddt::test`] (dedup keys are stable), with
/// merged statistics. With `workers == 1` the run is the serial one.
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
    let pool = Pool::new(&run, frontier, workers, ddt);
    // One counterexample cache for the whole worker pool: a constraint set
    // solved (or refuted) by any worker is a cache hit for every other.
    let run_cache = run.cache.clone();
    let root = run.root.clone();
    let campaign: Option<Mutex<CampaignWriter>> = ddt.config.checkpoint.as_ref().map(|policy| {
        Mutex::new(CampaignWriter::start(
            policy,
            &dut.image.name,
            ddt.config.fingerprint(),
            run.checkpoint_seq,
        ))
    });
    let every_quanta = campaign.as_ref().map_or(u64::MAX, |c| relock(c).every_quanta());
    // The budgets continue a resumed campaign's consumption; workers check
    // them lock-free.
    let total_insns = AtomicU64::new(run.stats.insns);
    let base_ms = run.coverage.elapsed_ms();
    let started = Instant::now();
    let next_id = AtomicU64::new(run.next_id);
    let quanta = AtomicU64::new(0);
    let interrupted = AtomicBool::new(false);
    let run = Mutex::new(run);

    // Worker `w`: pop its own frontier (or steal, or block), run the
    // quantum, settle it, push its machines, and take a cut when elected.
    let worker = |w: usize| {
        let mut explorer = Explorer::new(ddt, dut, &run_cache, &root);
        loop {
            if ddt.config.stop_requested() {
                interrupted.store(true, Ordering::Relaxed);
                break;
            }
            if pool.want_cut.load(Ordering::SeqCst) {
                pool.park();
                continue;
            }
            if total_insns.load(Ordering::Relaxed) > ddt.config.max_total_insns
                || base_ms + started.elapsed().as_millis() as u64 > ddt.config.time_budget_ms
            {
                break;
            }
            let Some(mut m) = pool.pop(w, &run) else {
                if pool.steal(w) {
                    continue;
                }
                if pool.view.is_over() {
                    break; // Quiescence: no machine anywhere.
                }
                pool.sleep();
                continue;
            };
            // Per-quantum sinks, merged into the run state below so a
            // checkpoint cut always sees a consistent whole-campaign view.
            // Ids come in reserved blocks (they are diagnostics; uniqueness
            // suffices).
            let mut forks = Vec::new();
            let mut id = next_id.fetch_add(QUANTUM_ID_BLOCK, Ordering::Relaxed);
            let mut stats = ExploreStats::default();
            let mut bugs = HashMap::new();
            let q = explorer.quantum(
                &mut m,
                &mut forks,
                &mut id,
                &mut stats,
                &mut bugs,
                Some(&pool.view),
            );
            total_insns.fetch_add(q.exec_pcs.len() as u64, Ordering::Relaxed);
            {
                let mut run = relock(&run);
                run.stats.merge_add(&stats);
                run.merge_bugs(bugs.into_values());
                pool.view.learn_bugs(&q.new_bug_keys);
                for key in &q.repeat_bug_keys {
                    if let Some(bug) = run.bugs.get_mut(key) {
                        bug.occurrences += 1;
                    }
                }
                explorer.fold(&mut run.stats);
                let admitted = forks.len();
                run.settle(&q, &mut m, &mut forks, 0);
                // Pruned forks and an ended path leave the run. What is left
                // is the serial loop's frontier after its push, and peaks
                // are measured as it measures them.
                let gone = admitted - forks.len() + usize::from(q.end.is_some());
                let live = pool.view.release(gone);
                run.stats.peak_states = run.stats.peak_states.max(live + 1);
            }
            if let Some(c) = &campaign {
                relock(c).record_quantum(&q);
            }
            if q.end.is_none() {
                forks.push(m);
            }
            pool.push(w, forks);
            if let Some(c) = &campaign {
                let q = quanta.fetch_add(1, Ordering::AcqRel) + 1;
                let elect = q.is_multiple_of(every_quanta)
                    && pool
                        .want_cut
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok();
                if elect {
                    pool.await_cut(workers);
                    // Inside the cut, only the snapshot: O(1) per pending
                    // machine, then the run state. The image gets its
                    // frontier records after the cut.
                    let frontier = pool.snapshot();
                    let mut ck = {
                        let mut run = relock(&run);
                        run.stats.wall_ms = base_ms + started.elapsed().as_millis() as u64;
                        run.next_id = next_id.load(Ordering::Relaxed);
                        checkpoint_file(ddt, dut, &run, Vec::new(), false, false)
                    };
                    pool.end_cut();
                    // After the cut, while the pool explores: copy out the
                    // choice logs, flush the journal under the writer lock,
                    // then encode, fsync and rename without it.
                    ck.frontier = frontier.into_iter().map(FrontierSnap::into_record).collect();
                    let publish = relock(c).prepare_checkpoint(ck);
                    let outcome = publish.run();
                    relock(c).complete_checkpoint(outcome);
                }
            }
        }
        pool.exit();
    };
    std::thread::scope(|scope| {
        for w in 0..workers {
            let worker = &worker;
            scope.spawn(move || worker(w));
        }
    });

    let mut run = run.into_inner().unwrap_or_else(PoisonError::into_inner);
    run.next_id = next_id.load(Ordering::Relaxed);
    let interrupted = interrupted.load(Ordering::Relaxed);
    run.into_report(ddt, dut, None, |run| match campaign {
        Some(c) => {
            let w = c.into_inner().unwrap_or_else(PoisonError::into_inner);
            let frontier = pool.snapshot().into_iter().map(FrontierSnap::into_record).collect();
            w.close(ddt, dut, run, frontier, interrupted)
        }
        None => RunHealth::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exerciser::DriverUnderTest;

    /// A bundled driver under the lifecycle workload with every fault
    /// family injected.
    fn with_faults_and_lifecycle(name: &str) -> (Ddt, DriverUnderTest) {
        let spec = match name {
            "clean_nic" => ddt_drivers::clean_driver(),
            _ => ddt_drivers::driver_by_name(name).expect("bundled"),
        };
        let mut dut = DriverUnderTest::from_spec(&spec);
        dut.workload = ddt_drivers::workload::lifecycle_workload_for(spec.class);
        let mut ddt = Ddt::default();
        ddt.config.fault_plan = crate::faults::FaultPlan::full();
        (ddt, dut)
    }

    #[test]
    fn parallel_matches_serial_on_pcnet() {
        // Stealing moves states between workers, so which worker explores
        // what changes from run to run; what the run finds must not.
        let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled");
        let mut inputs = vec![(Ddt::default(), DriverUnderTest::from_spec(&spec))];
        inputs.extend(["ac97", "clean_nic"].map(with_faults_and_lifecycle));
        for (ddt, dut) in &inputs {
            let name = &dut.image.name;
            let serial = ddt.test(dut);
            let parallel = test_parallel(ddt, dut, 4);
            let mut sk: Vec<&str> = serial.bugs.iter().map(|b| b.key.as_str()).collect();
            let mut pk: Vec<&str> = parallel.bugs.iter().map(|b| b.key.as_str()).collect();
            sk.sort_unstable();
            pk.sort_unstable();
            assert_eq!(sk, pk, "{name}: parallel exploration finds the same bugs");
            assert_eq!(serial.covered_blocks, parallel.covered_blocks, "{name}: coverage");
            let census = |s: &ExploreStats| {
                (s.paths_started, s.paths_completed, s.paths_faulted, s.insns)
            };
            assert_eq!(census(&serial.stats), census(&parallel.stats), "{name}: path census");
        }
    }

    #[test]
    fn parallel_run_enforces_the_state_cap() {
        let (mut ddt, dut) = with_faults_and_lifecycle("ac97");
        ddt.config.max_states = 64;
        let report = test_parallel(&ddt, &dut, 2);
        // The cap holds run-wide, however the workers share the states: the
        // peak is measured as the serial loop measures it, whose bound is
        // the cap plus two.
        assert!(report.stats.peak_states <= 64 + 2, "peak {}", report.stats.peak_states);
        assert!(report.stats.states_dropped > 0, "a binding cap drops forks");
        assert_eq!(report.health.states_dropped, report.stats.states_dropped);
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
