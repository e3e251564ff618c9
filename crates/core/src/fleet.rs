//! The fault-tolerant multi-process campaign fleet (§6.1 as a service).
//!
//! DDT-as-a-service means many campaigns against submitted binaries, which
//! only works if the harness survives its own workers dying. This module is
//! the supervisor/worker engine behind `ddt serve`:
//!
//! - the supervisor **bootstraps** the frontier in-process — the one
//!   exploration loop every mode runs, stopped once there are enough
//!   pending states to shard,
//! - each frontier state becomes a **lease**: a [`FrontierRecord`] decision
//!   prefix granted to a worker, tracked with an attempt count and a
//!   progress deadline,
//! - workers replay their leased prefix (the checkpoint-resume machinery)
//!   and explore the subtree to exhaustion on the same loop, whose
//!   after-quantum hook heartbeats progress counters and drains control
//!   frames,
//! - the **watchdog** detects crashed workers (closed pipe) and hung
//!   workers (heartbeats stop, or arrive with frozen counters) and kills
//!   them; their active lease is reassigned with exponential backoff, and
//!   innocent queued leases re-enter the pending pool unpenalized,
//! - a lease that keeps killing workers is **quarantined** — written to the
//!   trace store as a `DDTQ` record for offline reproduction — rather than
//!   retried forever or allowed to abort the campaign,
//! - results merge additively into the bootstrap's run state
//!   ([`ExploreStats::merge_add`], [`crate::coverage::Coverage::absorb`],
//!   keyed bug-map union) in ascending shard order,
//!   so the final report matches a single-process run of the same seed
//!   regardless of which workers died when. Fork sites fire on
//!   machine-local state only (the replay invariant), so the explored path
//!   census is schedule-independent — that is the property the chaos
//!   harness checks end to end.
//!
//! The engine is transport-agnostic: the CLI launches `ddt worker`
//! subprocesses over stdin/stdout pipes, unit tests launch worker threads
//! over in-memory pipes. Both speak [`FleetFrame`]s.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::convert::Infallible;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ddt_isa::analysis::{self, CodeAnalysis};
use ddt_trace::{
    encode_frame, encode_quarantine, read_frame, CoverageRecord, FleetFrame, FrontierRecord,
    QuarantineRecord, FLEET_VERSION,
};
use serde::Serialize;

use crate::checkpoint::frontier_record;
use crate::exerciser::{Ddt, DriverUnderTest};
use crate::explore::{Explorer, RunState, Start};
use crate::report::{Bug, BugClass, ExploreStats, Report, RunHealth};

/// Fleet supervisor configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker processes to keep running.
    pub workers: usize,
    /// Progress deadline per lease: a worker whose heartbeats stop — or
    /// keep arriving with frozen instruction/quantum counters — for this
    /// long is declared hung and killed. This is a *progress* timeout, not
    /// a completion deadline: legitimate shards may run arbitrarily long
    /// as long as they keep executing.
    pub lease_timeout_ms: u64,
    /// Lease attempts before a shard is quarantined instead of retried.
    pub max_retries: u32,
    /// Worker heartbeat cadence.
    pub heartbeat_ms: u64,
    /// Live status JSON, refreshed atomically (tmp → rename) for
    /// dashboards.
    pub status_file: Option<PathBuf>,
    /// Chaos harness: the supervisor itself SIGKILLs this many workers
    /// mid-campaign (after at least one shard has completed, with at least
    /// two workers alive). Used by the chaos CI job; 0 in production.
    pub chaos_kills: u32,
    /// Bootstrap until the frontier holds `workers * shard_factor` states.
    pub shard_factor: usize,
    /// Replacement workers spawned over the campaign before the fleet is
    /// allowed to just shrink.
    pub max_respawns: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            lease_timeout_ms: 10_000,
            max_retries: 3,
            heartbeat_ms: 250,
            status_file: None,
            chaos_kills: 0,
            shard_factor: 4,
            max_respawns: 8,
        }
    }
}

/// Base reassignment backoff; doubles per failed attempt, capped at 5 s.
const BACKOFF_BASE_MS: u64 = 100;
/// Shards granted to a worker ahead of need (pipeline depth).
const TARGET_QUEUE: usize = 2;
/// Control frames are drained and heartbeats considered every this many
/// quanta inside a worker's shard loop.
const WORKER_CONTROL_STRIDE: u64 = 8;

/// What a launcher delivers to the supervisor's event loop.
#[derive(Debug)]
pub enum FleetEvent {
    /// A protocol frame from a worker.
    Frame(u64, FleetFrame),
    /// The worker's output closed: clean EOF (`None`) or an error
    /// description (torn frame, checksum mismatch, read failure).
    Closed(u64, Option<String>),
}

/// A live worker the supervisor can talk to and kill.
pub trait WorkerHandle {
    /// Sends one frame to the worker (its control input).
    fn send(&mut self, frame: &FleetFrame) -> io::Result<()>;
    /// Hard-kills the worker (SIGKILL for processes). Must be safe to call
    /// more than once and on already-dead workers.
    fn kill(&mut self);
}

/// Spawns workers. The launcher owns transport: it must arrange for every
/// frame the worker writes to arrive on `events` (see [`pump_frames`]),
/// followed by exactly one [`FleetEvent::Closed`].
pub trait WorkerLauncher {
    /// Spawns worker `worker` and wires its output into `events`.
    fn spawn(
        &mut self,
        worker: u64,
        events: mpsc::Sender<FleetEvent>,
    ) -> io::Result<Box<dyn WorkerHandle>>;
}

/// Reads frames from a worker's output stream and forwards them to the
/// supervisor's event channel until EOF or a framing error; emits the final
/// [`FleetEvent::Closed`]. Launchers run this on a dedicated thread per
/// worker.
pub fn pump_frames(worker: u64, mut output: impl Read, events: mpsc::Sender<FleetEvent>) {
    loop {
        match read_frame(&mut output) {
            Ok(Some(frame)) => {
                if events.send(FleetEvent::Frame(worker, frame)).is_err() {
                    return; // Supervisor gone; nothing left to report to.
                }
            }
            Ok(None) => {
                let _ = events.send(FleetEvent::Closed(worker, None));
                return;
            }
            Err(e) => {
                let _ = events.send(FleetEvent::Closed(worker, Some(e.to_string())));
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker engine
// ---------------------------------------------------------------------------

/// Worker-side options. The test hooks simulate the failure modes the
/// supervisor must survive without needing a cooperating OS: an abrupt
/// crash (process death), a hang (silent worker), and a deterministic
/// per-shard failure (poisoned lease).
#[derive(Clone, Default)]
pub struct WorkerOpts {
    /// This worker's id (echoed in `Hello`).
    pub worker_id: u64,
    /// Heartbeat cadence in milliseconds (0 → 250).
    pub heartbeat_ms: u64,
    /// Test hook: exit abruptly (no `Shutdown`, simulating SIGKILL) after
    /// completing this many shards.
    pub die_after_shards: Option<u64>,
    /// Test hook: report every attempt of this shard as failed.
    pub fail_shard: Option<u64>,
    /// Test hook: go silent (no heartbeats, no progress) as soon as any
    /// shard is granted — a hung worker for the watchdog to catch.
    pub hang_on_first_shard: bool,
}

/// Runs the worker side of the fleet protocol: `Hello`, then a loop of
/// lease grants — replay the prefix, explore the subtree to exhaustion,
/// report the shard's additive deltas — with heartbeats in between.
/// Returns when the supervisor sends `Shutdown` or closes the pipe.
pub fn run_worker<R, W>(
    ddt: &Ddt,
    dut: &DriverUnderTest,
    input: R,
    mut output: W,
    opts: WorkerOpts,
) -> io::Result<()>
where
    R: Read + Send + 'static,
    W: Write,
{
    let heartbeat = Duration::from_millis(if opts.heartbeat_ms == 0 { 250 } else { opts.heartbeat_ms });
    let send = |w: &mut W, f: &FleetFrame| -> io::Result<()> {
        w.write_all(&encode_frame(f))?;
        w.flush()
    };
    send(
        &mut output,
        &FleetFrame::Hello {
            worker: opts.worker_id,
            pid: std::process::id() as u64,
            version: FLEET_VERSION,
            config_fp: ddt.config.fingerprint(),
            driver: dut.image.name.clone(),
        },
    )?;

    // Control frames arrive on a reader thread so the explore loop only
    // ever does non-blocking drains.
    let (ctl_tx, ctl) = mpsc::channel::<FleetFrame>();
    std::thread::spawn(move || {
        let mut input = input;
        while let Ok(Some(frame)) = read_frame(&mut input) {
            if ctl_tx.send(frame).is_err() {
                return;
            }
        }
        // EOF/error: dropping the sender tells the main loop to exit.
    });

    let analysis = analysis::analyze(&dut.image);
    let mut explorer = Explorer::new(ddt, dut, &ddt.config.run_cache(), &dut.root_mem());

    let mut st = WorkerState {
        queue: VecDeque::new(),
        shutdown: false,
        disconnected: false,
        insns: 0,
        quanta: 0,
        done: 0,
        covered: BTreeSet::new(),
        blocks_reported: 0,
        last_heartbeat: Instant::now(),
    };

    loop {
        st.drain_control(&ctl, &mut output, &send)?;
        if st.disconnected || (st.shutdown && st.queue.is_empty()) {
            return Ok(());
        }
        let Some((shard, attempt, rec)) = st.queue.pop_front() else {
            // Idle: block briefly for control, keep heartbeating.
            match ctl.recv_timeout(heartbeat) {
                Ok(frame) => st.on_control(frame, &mut output, &send)?,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    st.maybe_heartbeat(&mut output, &send, heartbeat, None, true)?;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
            }
            continue;
        };
        if opts.hang_on_first_shard {
            // A hung worker: holds the lease, says nothing, makes no
            // progress. Only the supervisor's watchdog can end this.
            loop {
                std::thread::sleep(Duration::from_millis(500));
            }
        }
        if opts.fail_shard == Some(shard) {
            send(&mut output, &FleetFrame::ShardFailed {
                shard,
                attempt,
                why: "induced deterministic failure (test hook)".into(),
            })?;
            continue;
        }
        let outcome = explore_shard(
            &mut explorer, &analysis, &rec, shard, &mut st, &ctl, &mut output, &send, heartbeat,
        )?;
        match outcome {
            ShardOutcome::Done(stats, bugs, coverage) => {
                let mut bug_list: Vec<&Bug> = bugs.values().collect();
                bug_list.sort_by(|a, b| a.key.cmp(&b.key));
                send(&mut output, &FleetFrame::ShardDone {
                    shard,
                    attempt,
                    stats_json: serde_json::to_vec(&stats).expect("stats serialize"),
                    bugs_json: serde_json::to_vec(&bug_list).expect("bugs serialize"),
                    coverage,
                })?;
                st.done += 1;
                if opts.die_after_shards == Some(st.done) {
                    return Ok(()); // Abrupt exit: simulated crash.
                }
            }
            ShardOutcome::Failed(why) => {
                send(&mut output, &FleetFrame::ShardFailed { shard, attempt, why })?;
            }
        }
    }
}

struct WorkerState {
    queue: VecDeque<(u64, u32, FrontierRecord)>,
    shutdown: bool,
    disconnected: bool,
    insns: u64,
    quanta: u64,
    done: u64,
    covered: BTreeSet<u32>,
    blocks_reported: u64,
    last_heartbeat: Instant,
}

impl WorkerState {
    fn drain_control<W: Write>(
        &mut self,
        ctl: &mpsc::Receiver<FleetFrame>,
        output: &mut W,
        send: &impl Fn(&mut W, &FleetFrame) -> io::Result<()>,
    ) -> io::Result<()> {
        loop {
            match ctl.try_recv() {
                Ok(frame) => self.on_control(frame, output, send)?,
                Err(mpsc::TryRecvError::Empty) => return Ok(()),
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    return Ok(());
                }
            }
        }
    }

    fn on_control<W: Write>(
        &mut self,
        frame: FleetFrame,
        output: &mut W,
        send: &impl Fn(&mut W, &FleetFrame) -> io::Result<()>,
    ) -> io::Result<()> {
        match frame {
            FleetFrame::Grant { shard, attempt, record } => {
                self.queue.push_back((shard, attempt, record));
            }
            FleetFrame::Steal { max } => {
                // Yield from the back: the front is next to run locally.
                let n = (max as usize).min(self.queue.len());
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    if let Some((shard, _, _)) = self.queue.pop_back() {
                        shards.push(shard);
                    }
                }
                shards.reverse(); // Queue order, oldest first.
                send(output, &FleetFrame::Yielded { shards })?;
            }
            FleetFrame::Shutdown => self.shutdown = true,
            _ => {} // Worker-bound protocol only has the three above.
        }
        Ok(())
    }

    fn maybe_heartbeat<W: Write>(
        &mut self,
        output: &mut W,
        send: &impl Fn(&mut W, &FleetFrame) -> io::Result<()>,
        heartbeat: Duration,
        active: Option<u64>,
        force: bool,
    ) -> io::Result<()> {
        if !force && self.last_heartbeat.elapsed() < heartbeat {
            return Ok(());
        }
        self.last_heartbeat = Instant::now();
        let covered = self.covered.len() as u64;
        let new_blocks = covered - self.blocks_reported;
        self.blocks_reported = covered;
        send(output, &FleetFrame::Heartbeat {
            insns: self.insns,
            quanta: self.quanta,
            active,
            queued: self.queue.len() as u64,
            done: self.done,
            new_blocks,
        })
    }
}

#[allow(clippy::large_enum_variant)] // One per shard attempt, short-lived.
enum ShardOutcome {
    Done(ExploreStats, HashMap<String, Bug>, CoverageRecord),
    Failed(String),
}

/// Replays one leased prefix and explores its subtree to exhaustion on the
/// one exploration loop, heartbeating and draining control between quanta.
/// All counters are shard-local deltas; the prefix replay itself goes to
/// scratch sinks (its work was already accounted when the bootstrap
/// originally executed it), but each replayed quantum still bumps the
/// worker's `quanta` heartbeat counter: a deep prefix can legitimately take
/// longer than the lease timeout to replay, and the supervisor's watchdog
/// must see that as progress, not a hang. `insns` stays exploration-only so
/// the supervisor's live budget estimate never double-counts replayed work.
#[allow(clippy::too_many_arguments)]
fn explore_shard<W: Write>(
    explorer: &mut Explorer,
    analysis: &CodeAnalysis,
    rec: &FrontierRecord,
    shard: u64,
    st: &mut WorkerState,
    ctl: &mpsc::Receiver<FleetFrame>,
    output: &mut W,
    send: &impl Fn(&mut W, &FleetFrame) -> io::Result<()>,
    heartbeat: Duration,
) -> io::Result<ShardOutcome> {
    // The shard's solver work starts here; whatever an earlier failed
    // attempt did is not part of it.
    explorer.fold(&mut ExploreStats::default());
    let replayed = {
        let mut hb_err: Option<io::Error> = None;
        let st = &mut *st;
        let mut on_quantum = |_steps: u64| {
            st.quanta += 1;
            if hb_err.is_none() {
                if let Err(e) = st.maybe_heartbeat(output, send, heartbeat, Some(shard), false) {
                    hb_err = Some(e);
                }
            }
        };
        let replayed = explorer.replay_prefix_observed(rec, &mut on_quantum);
        if let Some(e) = hb_err {
            return Err(e);
        }
        replayed
    };
    let root = match replayed {
        Ok(m) => m,
        Err(why) => return Ok(ShardOutcome::Failed(format!("prefix replay: {why}"))),
    };
    // Shard-disjoint id space; ids only label forks, uniqueness is enough.
    // Guided strategies rank against the shard's own coverage census (the
    // supervisor's merged view is not visible from here), and pruning is
    // shard-local too.
    let (ddt, dut) = (explorer.ddt(), explorer.dut());
    let lease = Start::Lease { machine: root, next_id: (shard + 1) << 32 };
    let (mut run, mut frontier) = RunState::start(ddt, dut, analysis.clone(), lease);
    // No stop rule: the supervisor enforces the campaign budgets. The hook
    // ends the shard early on an I/O error (`Some`) or once the supervisor
    // is gone (`None`).
    let mut since_control: u64 = 0;
    let drained = explorer.drain(&mut run, &mut frontier, |_, _| false, |_, run, _, q| {
        st.insns += q.exec_pcs.len() as u64;
        let blocks = &run.coverage.analysis().blocks;
        st.covered.extend(q.exec_pcs.iter().filter(|pc| blocks.contains_key(pc)));
        st.quanta += 1;
        since_control += 1;
        if since_control < WORKER_CONTROL_STRIDE {
            return Ok(());
        }
        since_control = 0;
        st.drain_control(ctl, output, send).map_err(Some)?;
        if st.disconnected {
            return Err(None);
        }
        st.maybe_heartbeat(output, send, heartbeat, Some(shard), false).map_err(Some)
    });
    match drained {
        Ok(()) => {}
        Err(Some(e)) => return Err(e),
        Err(None) => return Ok(ShardOutcome::Failed("supervisor disconnected".into())),
    }
    explorer.fold(&mut run.stats);
    let (hits, covered, _) = run.coverage.snapshot();
    // No timeline: the shard's internal timing is meaningless to the
    // merged campaign clock.
    let coverage = CoverageRecord { hits, covered, timeline: Vec::new() };
    Ok(ShardOutcome::Done(run.stats, run.bugs, coverage))
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

enum LeaseState {
    /// Waiting for a grant; `not_before` implements reassignment backoff.
    Pending { not_before: Instant },
    /// Granted to a worker.
    Leased { worker: u64, attempt: u32 },
    /// Completed; result buffered for the final fold.
    Done,
    /// Retries exhausted; preserved as a DDTQ record.
    Quarantined,
}

struct Lease {
    record: FrontierRecord,
    attempts: u32,
    state: LeaseState,
    last_error: String,
}

struct WorkerSlot {
    handle: Box<dyn WorkerHandle>,
    alive: bool,
    ready: bool,
    /// Shards granted, oldest (= active) first. Mirrors the worker's FIFO.
    granted: VecDeque<u64>,
    last_progress: Instant,
    last_insns: u64,
    last_quanta: u64,
    /// Instructions credited by this worker's accepted `ShardDone` reports.
    /// `last_insns - insns_completed` estimates its in-flight work for the
    /// supervisor's live budget accounting.
    insns_completed: u64,
    /// Most recent states/sec estimate (for the status file).
    rate: f64,
    prev_beat: Option<(Instant, u64)>,
    done: u64,
    steal_pending: bool,
}

#[derive(Serialize)]
struct StatusWorker {
    id: u64,
    alive: bool,
    active: Option<u64>,
    queued: usize,
    done: u64,
    insns: u64,
    states_per_sec: f64,
}

#[derive(Serialize)]
struct StatusFile {
    driver: String,
    elapsed_ms: u64,
    workers: Vec<StatusWorker>,
    shards_total: usize,
    shards_done: usize,
    shards_pending: usize,
    shards_leased: usize,
    shards_quarantined: usize,
    bugs: Vec<String>,
    covered_blocks: usize,
    lifecycle_injected: u64,
    lifecycle_bugs: u64,
}

/// One shard's reported results, buffered until the final fold.
struct ShardResult {
    stats: ExploreStats,
    bugs: Vec<Bug>,
    coverage: CoverageRecord,
}

/// Runs a full fleet campaign: bootstrap, shard, supervise, merge. The
/// returned report matches [`Ddt::test`] on the same driver and
/// configuration (bugs, inputs, coverage, path census) whenever the run
/// completes without budget exhaustion — worker deaths included.
pub fn serve(
    ddt: &Ddt,
    dut: &DriverUnderTest,
    launcher: &mut dyn WorkerLauncher,
    fc: &FleetConfig,
) -> Report {
    let mut sup = Supervisor::bootstrap(ddt, dut, fc);
    if !sup.leases.is_empty() {
        sup.run(launcher);
    }
    sup.finish()
}

struct Supervisor<'a> {
    ddt: &'a Ddt,
    dut: &'a DriverUnderTest,
    fc: &'a FleetConfig,
    /// The bootstrap's run state; shard results fold into it at the end.
    run: RunState,
    leases: Vec<Lease>,
    results: BTreeMap<u64, ShardResult>,
    workers: BTreeMap<u64, WorkerSlot>,
    next_worker: u64,
    respawns: u32,
    chaos_left: u32,
    health_extra: RunHealth,
    interrupted: bool,
    /// Which campaign budget ("instruction" / "wall-clock") stopped the
    /// fleet early, if any. The stop is judged from the live estimate
    /// (completed shards plus heartbeat deltas), which can exceed the
    /// budget before the folded stats do — the flag keeps the final
    /// health section truthful about why the run ended.
    budget_stop: Option<&'static str>,
}

impl<'a> Supervisor<'a> {
    /// In-process exploration on the one loop until the frontier is wide
    /// enough to shard (or the whole exploration finishes first — tiny
    /// drivers never need the fleet). It stops on the stop flag, a budget,
    /// or the width target `workers × shard_factor`, and pops with the
    /// configured strategy like the serial explorer.
    fn bootstrap(ddt: &'a Ddt, dut: &'a DriverUnderTest, fc: &'a FleetConfig) -> Supervisor<'a> {
        let target = fc.workers.max(1) * fc.shard_factor.max(1);
        let analysis = analysis::analyze(&dut.image);
        let (mut run, mut frontier) = RunState::start(ddt, dut, analysis, Start::Root);
        let mut explorer = Explorer::new(ddt, dut, &run.cache, &run.root);
        let mut interrupted = false;
        let Ok(()) = explorer.drain(
            &mut run,
            &mut frontier,
            |run, frontier| {
                if frontier.len() >= target {
                    return true;
                }
                if ddt.config.stop_requested() {
                    interrupted = true;
                    return true;
                }
                run.over_budget(&ddt.config)
            },
            |_, _, _, _| Ok::<(), Infallible>(()),
        );
        explorer.fold(&mut run.stats);
        let leases = frontier
            .as_slice()
            .iter()
            .map(|m| Lease {
                record: frontier_record(m),
                attempts: 0,
                state: LeaseState::Pending { not_before: Instant::now() },
                last_error: String::new(),
            })
            .collect();
        Supervisor {
            ddt,
            dut,
            fc,
            run,
            leases,
            results: BTreeMap::new(),
            workers: BTreeMap::new(),
            next_worker: 0,
            respawns: 0,
            chaos_left: fc.chaos_kills,
            health_extra: RunHealth::default(),
            interrupted,
            budget_stop: None,
        }
    }

    /// Live campaign-wide instruction estimate: bootstrap work, completed
    /// shards (exact, from their reported stats), and each live worker's
    /// in-flight progress (heartbeat counter minus its completed credit).
    /// Heartbeat `insns` counts exploration only — replayed prefixes bump
    /// `quanta` instead — so nothing here is double-counted.
    fn insns_estimate(&self) -> u64 {
        let done = self.run.stats.insns
            + self.results.values().map(|r| r.stats.insns).sum::<u64>();
        let in_flight: u64 = self
            .workers
            .values()
            .filter(|s| s.alive)
            .map(|s| s.last_insns.saturating_sub(s.insns_completed))
            .sum();
        done + in_flight
    }

    /// The serial explorer checks its budgets every quantum
    /// (`RunState::over_budget`); the fleet checks the same budgets every
    /// supervision tick against the live estimate, so `ddt serve` stops
    /// where `ddt test` would instead of running unbounded.
    fn budget_exceeded(&self) -> Option<&'static str> {
        if self.insns_estimate() > self.ddt.config.max_total_insns {
            Some("instruction")
        } else if self.run.coverage.elapsed_ms() > self.ddt.config.time_budget_ms {
            Some("wall-clock")
        } else {
            None
        }
    }

    /// Stops the fleet on budget exhaustion: outstanding leases are
    /// abandoned exactly like the serial explorer abandons its worklist
    /// (not quarantined — the shards are healthy, the campaign is over).
    fn stop_on_budget(&mut self, which: &'static str) {
        self.budget_stop = Some(which);
        eprintln!(
            "ddt: fleet: {which} budget exhausted; stopping with {} of {} shard(s) done",
            self.results.len(),
            self.leases.len()
        );
        for slot in self.workers.values_mut() {
            if slot.alive {
                slot.alive = false;
                slot.handle.kill();
            }
        }
    }

    /// The supervision event loop: spawn the fleet, grant leases, watch
    /// progress, survive deaths, until every lease is Done or Quarantined.
    fn run(&mut self, launcher: &mut dyn WorkerLauncher) {
        if let Some(which) = self.budget_exceeded() {
            // The bootstrap alone ate the budget; never spawn the fleet.
            self.stop_on_budget(which);
            return;
        }
        let (events_tx, events) = mpsc::channel::<FleetEvent>();
        for _ in 0..self.fc.workers.max(1) {
            self.spawn_worker(launcher, &events_tx);
        }
        let tick = Duration::from_millis(self.fc.heartbeat_ms.clamp(20, 250));
        let mut last_status: Option<Instant> = None;
        while !self.settled() {
            if self.ddt.config.stop_requested() {
                self.interrupted = true;
                break;
            }
            if let Some(which) = self.budget_exceeded() {
                self.stop_on_budget(which);
                break;
            }
            if self.workers.values().all(|w| !w.alive) {
                // Whole fleet gone and respawning is exhausted: quarantine
                // the stragglers so the campaign still terminates with
                // everything accounted for.
                if !self.try_respawn(launcher, &events_tx) {
                    self.quarantine_outstanding("no workers left");
                    break;
                }
            }
            match events.recv_timeout(tick) {
                Ok(FleetEvent::Frame(w, frame)) => self.on_frame(w, frame, launcher, &events_tx),
                Ok(FleetEvent::Closed(w, why)) => {
                    let why = why.unwrap_or_else(|| "pipe closed".to_string());
                    self.lose_worker(w, &why, launcher, &events_tx);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            self.watchdog(launcher, &events_tx);
            self.grant_pending();
            self.rebalance();
            if last_status.is_none_or(|t| t.elapsed() >= Duration::from_millis(200)) {
                last_status = Some(Instant::now());
                self.write_status();
            }
        }
        for slot in self.workers.values_mut() {
            if slot.alive {
                let _ = slot.handle.send(&FleetFrame::Shutdown);
            }
        }
        self.write_status();
    }

    fn settled(&self) -> bool {
        self.leases
            .iter()
            .all(|l| matches!(l.state, LeaseState::Done | LeaseState::Quarantined))
    }

    fn spawn_worker(&mut self, launcher: &mut dyn WorkerLauncher, events: &mpsc::Sender<FleetEvent>) {
        let id = self.next_worker;
        self.next_worker += 1;
        match launcher.spawn(id, events.clone()) {
            Ok(handle) => {
                self.health_extra.fleet_workers_spawned += 1;
                self.workers.insert(id, WorkerSlot {
                    handle,
                    alive: true,
                    ready: false,
                    granted: VecDeque::new(),
                    last_progress: Instant::now(),
                    last_insns: 0,
                    last_quanta: 0,
                    insns_completed: 0,
                    rate: 0.0,
                    prev_beat: None,
                    done: 0,
                    steal_pending: false,
                });
            }
            Err(e) => eprintln!("ddt: fleet: failed to spawn worker {id}: {e}"),
        }
    }

    fn try_respawn(&mut self, launcher: &mut dyn WorkerLauncher, events: &mpsc::Sender<FleetEvent>) -> bool {
        if self.respawns >= self.fc.max_respawns {
            return false;
        }
        self.respawns += 1;
        eprintln!("ddt: fleet: respawning a replacement worker ({}/{})", self.respawns, self.fc.max_respawns);
        self.spawn_worker(launcher, events);
        self.workers.values().any(|w| w.alive)
    }

    fn on_frame(
        &mut self,
        w: u64,
        frame: FleetFrame,
        launcher: &mut dyn WorkerLauncher,
        events: &mpsc::Sender<FleetEvent>,
    ) {
        match frame {
            FleetFrame::Hello { version, config_fp, driver, .. } => {
                let ok = version == FLEET_VERSION
                    && config_fp == self.ddt.config.fingerprint()
                    && driver == self.dut.image.name;
                if !ok {
                    eprintln!(
                        "ddt: fleet: worker {w} hello mismatch (version {version}, driver {driver}); killing"
                    );
                    self.lose_worker(w, "hello mismatch", launcher, events);
                    return;
                }
                if let Some(slot) = self.workers.get_mut(&w) {
                    slot.ready = true;
                    slot.last_progress = Instant::now();
                }
            }
            FleetFrame::Heartbeat { insns, quanta, .. } => {
                let now = Instant::now();
                if let Some(slot) = self.workers.get_mut(&w) {
                    // Progress = the monotone counters moved. A heartbeat
                    // with frozen counters refreshes nothing: a worker
                    // wedged inside one quantum must still trip the
                    // watchdog even if its heartbeat thread were alive.
                    if insns > slot.last_insns || quanta > slot.last_quanta {
                        slot.last_progress = now;
                    }
                    if let Some((t0, i0)) = slot.prev_beat {
                        let dt = now.duration_since(t0).as_secs_f64();
                        if dt > 0.0 {
                            slot.rate = (insns - i0) as f64 / dt;
                        }
                    }
                    slot.prev_beat = Some((now, insns));
                    slot.last_insns = insns;
                    slot.last_quanta = quanta;
                }
            }
            FleetFrame::ShardDone { shard, attempt, stats_json, bugs_json, coverage } => {
                self.on_shard_done(w, shard, attempt, &stats_json, &bugs_json, coverage);
                self.maybe_chaos_kill(launcher, events);
            }
            FleetFrame::ShardFailed { shard, attempt, why } => {
                if let Some(slot) = self.workers.get_mut(&w) {
                    slot.granted.retain(|&s| s != shard);
                    slot.last_progress = Instant::now();
                }
                let current = self.leases.get(shard as usize).map(|l| match l.state {
                    LeaseState::Leased { worker, attempt: a } => (worker, a),
                    _ => (u64::MAX, 0),
                });
                if current == Some((w, attempt)) {
                    eprintln!("ddt: fleet: worker {w} reports shard {shard} failed: {why}");
                    self.penalize(shard, &why);
                }
            }
            FleetFrame::Yielded { shards } => {
                if let Some(slot) = self.workers.get_mut(&w) {
                    slot.steal_pending = false;
                    for &s in &shards {
                        slot.granted.retain(|&g| g != s);
                    }
                }
                for s in shards {
                    if let Some(l) = self.leases.get_mut(s as usize) {
                        if matches!(l.state, LeaseState::Leased { worker, .. } if worker == w) {
                            l.state = LeaseState::Pending { not_before: Instant::now() };
                            self.health_extra.fleet_shards_stolen += 1;
                        }
                    }
                }
            }
            _ => {} // Grant/Steal/Shutdown never flow worker → supervisor.
        }
    }

    fn on_shard_done(
        &mut self,
        w: u64,
        shard: u64,
        attempt: u32,
        stats_json: &[u8],
        bugs_json: &[u8],
        coverage: CoverageRecord,
    ) {
        if let Some(slot) = self.workers.get_mut(&w) {
            slot.granted.retain(|&s| s != shard);
            slot.done += 1;
            slot.last_progress = Instant::now();
        }
        let Some(lease) = self.leases.get_mut(shard as usize) else { return };
        // Accept the live lease's result, or a completion that raced a
        // reassignment (the work is valid either way); drop duplicates.
        let accept = match lease.state {
            LeaseState::Leased { worker, attempt: a } => worker == w && a == attempt,
            LeaseState::Pending { .. } => true,
            LeaseState::Done | LeaseState::Quarantined => false,
        };
        if !accept {
            return;
        }
        let stats = match serde_json::from_slice::<ExploreStats>(stats_json) {
            Ok(s) => s,
            Err(e) => {
                self.penalize(shard, &format!("undecodable shard stats: {e}"));
                return;
            }
        };
        let bugs = match serde_json::from_slice::<Vec<Bug>>(bugs_json) {
            Ok(b) => b,
            Err(e) => {
                self.penalize(shard, &format!("undecodable shard bugs: {e}"));
                return;
            }
        };
        if let Some(slot) = self.workers.get_mut(&w) {
            // Budget accounting: this shard's instructions move from the
            // worker's in-flight estimate to the exact completed tally.
            slot.insns_completed = slot.insns_completed.saturating_add(stats.insns);
        }
        lease.state = LeaseState::Done;
        self.results.insert(shard, ShardResult { stats, bugs, coverage });
    }

    /// One failed attempt for a shard: exponential backoff, then pending
    /// again — or quarantine once the retry budget is gone.
    fn penalize(&mut self, shard: u64, why: &str) {
        let max_retries = self.fc.max_retries;
        let Some(lease) = self.leases.get_mut(shard as usize) else { return };
        if matches!(lease.state, LeaseState::Done | LeaseState::Quarantined) {
            return;
        }
        lease.attempts += 1;
        lease.last_error = why.to_string();
        if lease.attempts > max_retries {
            lease.state = LeaseState::Quarantined;
            self.health_extra.fleet_shards_quarantined += 1;
            eprintln!(
                "ddt: fleet: shard {shard} quarantined after {} attempts: {why}",
                lease.attempts
            );
            self.write_quarantine(shard);
        } else {
            let backoff = Duration::from_millis(
                (BACKOFF_BASE_MS << (lease.attempts.saturating_sub(1)).min(6)).min(5_000),
            );
            lease.state = LeaseState::Pending { not_before: Instant::now() + backoff };
            self.health_extra.fleet_leases_reassigned += 1;
            eprintln!(
                "ddt: fleet: reassigning shard {shard} (attempt {}, backoff {}ms): {why}",
                lease.attempts + 1,
                backoff.as_millis()
            );
        }
    }

    /// Handles a dead worker (crash, broken pipe, watchdog kill, chaos):
    /// the active lease is penalized, innocent queued leases go back to
    /// pending untouched, and a replacement is spawned while the respawn
    /// budget lasts.
    fn lose_worker(
        &mut self,
        w: u64,
        why: &str,
        launcher: &mut dyn WorkerLauncher,
        events: &mpsc::Sender<FleetEvent>,
    ) {
        let Some(slot) = self.workers.get_mut(&w) else { return };
        if !slot.alive {
            return;
        }
        slot.alive = false;
        slot.handle.kill();
        let granted: Vec<u64> = slot.granted.drain(..).collect();
        self.health_extra.fleet_workers_lost += 1;
        eprintln!("ddt: fleet: worker {w} lost ({why}); {} lease(s) affected", granted.len());
        for (i, shard) in granted.iter().enumerate() {
            let held = matches!(
                self.leases.get(*shard as usize).map(|l| &l.state),
                Some(LeaseState::Leased { worker, .. }) if *worker == w
            );
            if !held {
                continue;
            }
            if i == 0 {
                // The active shard is the suspect: it pays the attempt.
                self.penalize(*shard, why);
            } else {
                // Queued shards never ran; no penalty, no backoff.
                let lease = &mut self.leases[*shard as usize];
                lease.state = LeaseState::Pending { not_before: Instant::now() };
                self.health_extra.fleet_leases_reassigned += 1;
                eprintln!("ddt: fleet: requeueing shard {shard} (was queued on worker {w})");
            }
        }
        let outstanding = !self.settled();
        if outstanding {
            self.try_respawn(launcher, events);
        }
    }

    /// Kills hung workers: no progress (frames missing, or counters
    /// frozen) past the lease timeout. Only workers holding a lease are
    /// judged — an idle worker has nothing to make progress on.
    fn watchdog(&mut self, launcher: &mut dyn WorkerLauncher, events: &mpsc::Sender<FleetEvent>) {
        let timeout = Duration::from_millis(self.fc.lease_timeout_ms.max(1));
        let hung: Vec<u64> = self
            .workers
            .iter()
            .filter(|(_, s)| s.alive && !s.granted.is_empty() && s.last_progress.elapsed() > timeout)
            .map(|(&w, _)| w)
            .collect();
        for w in hung {
            self.lose_worker(w, "hang watchdog: no progress past lease timeout", launcher, events);
        }
    }

    /// Grants pending leases to ready workers with queue room, lowest
    /// shard id first.
    fn grant_pending(&mut self) {
        let now = Instant::now();
        for shard in 0..self.leases.len() {
            let ready_to_grant = matches!(
                self.leases[shard].state,
                LeaseState::Pending { not_before } if not_before <= now
            );
            if !ready_to_grant {
                continue;
            }
            let Some((&w, slot)) = self
                .workers
                .iter_mut()
                .filter(|(_, s)| s.alive && s.ready && s.granted.len() < TARGET_QUEUE)
                .min_by_key(|(&w, s)| (s.granted.len(), w))
            else {
                return; // No capacity anywhere; try again next tick.
            };
            let lease = &mut self.leases[shard];
            let attempt = lease.attempts + 1;
            let frame = FleetFrame::Grant {
                shard: shard as u64,
                attempt,
                record: lease.record.clone(),
            };
            if slot.handle.send(&frame).is_ok() {
                lease.state = LeaseState::Leased { worker: w, attempt };
                slot.granted.push_back(shard as u64);
                // The hang timer starts at grant time. An idle worker's
                // heartbeats carry frozen counters (deliberately: frozen
                // counters must not look like progress), so a worker that
                // sat idle past the lease timeout would otherwise be
                // killed on the next watchdog tick before it could report
                // any progress on the lease it just received.
                slot.last_progress = Instant::now();
            }
            // A failed send means the pipe just died; the Closed event is
            // already in flight and will requeue the lease properly.
        }
    }

    /// Work stealing: when a ready worker sits idle with no pending leases
    /// to grant, pull queued (not yet started) shards back from the most
    /// loaded worker.
    fn rebalance(&mut self) {
        let any_pending = self
            .leases
            .iter()
            .any(|l| matches!(l.state, LeaseState::Pending { .. }));
        if any_pending {
            return; // grant_pending will feed the idle worker directly.
        }
        let idle = self
            .workers
            .values()
            .any(|s| s.alive && s.ready && s.granted.is_empty());
        if !idle {
            return;
        }
        let Some((_, slot)) = self
            .workers
            .iter_mut()
            .filter(|(_, s)| s.alive && s.ready && s.granted.len() > 1 && !s.steal_pending)
            .max_by_key(|(&w, s)| (s.granted.len(), w))
        else {
            return;
        };
        let spare = (slot.granted.len() - 1) as u64;
        if slot.handle.send(&FleetFrame::Steal { max: spare }).is_ok() {
            slot.steal_pending = true;
        }
    }

    /// The chaos harness: deterministically SIGKILL a worker once at least
    /// one shard has completed and the fleet can absorb the loss.
    fn maybe_chaos_kill(&mut self, launcher: &mut dyn WorkerLauncher, events: &mpsc::Sender<FleetEvent>) {
        if self.chaos_left == 0 {
            return;
        }
        let alive: Vec<u64> = self
            .workers
            .iter()
            .filter(|(_, s)| s.alive && s.ready)
            .map(|(&w, _)| w)
            .collect();
        if alive.len() < 2 {
            return;
        }
        // Deterministic victim: rotate by completed-shard count so repeat
        // kills spread across the fleet.
        let victim = alive[(self.results.len() + self.chaos_left as usize) % alive.len()];
        self.chaos_left -= 1;
        eprintln!("ddt: fleet: chaos harness killing worker {victim}");
        self.lose_worker(victim, "chaos kill", launcher, events);
    }

    fn quarantine_outstanding(&mut self, why: &str) {
        for shard in 0..self.leases.len() {
            if !matches!(self.leases[shard].state, LeaseState::Done | LeaseState::Quarantined) {
                let lease = &mut self.leases[shard];
                lease.attempts += 1;
                lease.last_error = why.to_string();
                lease.state = LeaseState::Quarantined;
                self.health_extra.fleet_shards_quarantined += 1;
                eprintln!("ddt: fleet: shard {shard} quarantined: {why}");
                self.write_quarantine(shard as u64);
            }
        }
    }

    /// Persists a quarantined shard next to the trace store so the exact
    /// pathological prefix survives for offline triage.
    fn write_quarantine(&self, shard: u64) {
        let Some(dir) = &self.ddt.config.trace_dir else { return };
        let lease = &self.leases[shard as usize];
        let rec = QuarantineRecord {
            shard,
            driver: self.dut.image.name.clone(),
            config_fp: self.ddt.config.fingerprint(),
            attempts: lease.attempts,
            last_error: lease.last_error.clone(),
            record: lease.record.clone(),
        };
        let qdir = dir.join("quarantine");
        let path = qdir.join(format!("shard-{shard}.ddtq"));
        let tmp = qdir.join(format!("shard-{shard}.tmp"));
        let res = std::fs::create_dir_all(&qdir)
            .and_then(|_| std::fs::write(&tmp, encode_quarantine(&rec)))
            .and_then(|_| std::fs::rename(&tmp, &path));
        if let Err(e) = res {
            eprintln!("ddt: fleet: failed to write quarantine record for shard {shard}: {e}");
        }
    }

    fn write_status(&self) {
        let Some(path) = &self.fc.status_file else { return };
        let mut workers = Vec::new();
        for (&id, s) in &self.workers {
            workers.push(StatusWorker {
                id,
                alive: s.alive,
                active: s.granted.front().copied(),
                queued: s.granted.len().saturating_sub(1),
                done: s.done,
                insns: s.last_insns,
                states_per_sec: s.rate,
            });
        }
        let count = |pat: fn(&LeaseState) -> bool| self.leases.iter().filter(|l| pat(&l.state)).count();
        let status = StatusFile {
            driver: self.dut.image.name.clone(),
            elapsed_ms: self.run.coverage.elapsed_ms(),
            workers,
            shards_total: self.leases.len(),
            shards_done: count(|s| matches!(s, LeaseState::Done)),
            shards_pending: count(|s| matches!(s, LeaseState::Pending { .. })),
            shards_leased: count(|s| matches!(s, LeaseState::Leased { .. })),
            shards_quarantined: count(|s| matches!(s, LeaseState::Quarantined)),
            bugs: {
                let mut keys: BTreeSet<String> = self.run.bugs.keys().cloned().collect();
                for r in self.results.values() {
                    keys.extend(r.bugs.iter().map(|b| b.key.clone()));
                }
                keys.into_iter().collect()
            },
            covered_blocks: {
                let mut covered: BTreeSet<u32> =
                    self.run.coverage.snapshot().1.into_iter().collect();
                for r in self.results.values() {
                    covered.extend(r.coverage.covered.iter().copied());
                }
                covered.len()
            },
            lifecycle_injected: self.run.stats.faults_lifecycle
                + self.results.values().map(|r| r.stats.faults_lifecycle).sum::<u64>(),
            lifecycle_bugs: {
                let lifecycle = |b: &Bug| b.class == BugClass::LifecycleViolation;
                let mut keys: BTreeSet<String> = self
                    .run
                    .bugs
                    .values()
                    .filter(|b| lifecycle(b))
                    .map(|b| b.key.clone())
                    .collect();
                for r in self.results.values() {
                    keys.extend(
                        r.bugs.iter().filter(|b| lifecycle(b)).map(|b| b.key.clone()),
                    );
                }
                keys.len() as u64
            },
        };
        let json = match serde_json::to_vec_pretty(&status) {
            Ok(j) => j,
            Err(_) => return,
        };
        let tmp = path.with_extension("tmp");
        let _ = std::fs::write(&tmp, &json).and_then(|_| std::fs::rename(&tmp, path));
    }

    /// Folds buffered shard results into the bootstrap's run state (in
    /// ascending shard order — the merges are order-independent, the fixed
    /// order just makes runs bit-for-bit comparable) and assembles the
    /// final report exactly like the serial explorer.
    fn finish(self) -> Report {
        if self.interrupted {
            eprintln!("ddt: fleet: interrupted; reporting completed shards only");
        }
        let Supervisor { ddt, dut, mut run, results, mut health_extra, budget_stop, .. } = self;
        for r in results.into_values() {
            run.stats.merge_add(&r.stats);
            let coverage = &r.coverage;
            run.coverage.absorb(coverage.hits.iter().copied(), coverage.covered.iter().copied());
            run.merge_bugs(r.bugs);
        }
        // Folded stats can sit under the budget even when the live
        // estimate stopped the run (an in-flight shard's work dies with
        // its worker); the recorded stop keeps the flags truthful.
        health_extra.insn_budget_exhausted = budget_stop == Some("instruction");
        health_extra.wall_budget_exhausted = budget_stop == Some("wall-clock");
        // Interner counters are a process-global sample, not a fold;
        // workers send zeros, so the report only ever reflects the
        // supervisor process (bootstrap + its own replays).
        run.into_report(ddt, dut, None, |_| health_extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exerciser::DdtConfig;
    use ddt_trace::decode_quarantine;

    // ---- In-memory pipes + a thread launcher: the whole fleet protocol
    // ---- without processes, so unit tests can exercise crash/hang/poison
    // ---- recovery deterministically.

    struct PipeReader {
        rx: mpsc::Receiver<Vec<u8>>,
        buf: VecDeque<u8>,
    }

    impl Read for PipeReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            while self.buf.is_empty() {
                match self.rx.recv() {
                    Ok(chunk) => self.buf.extend(chunk),
                    Err(_) => return Ok(0), // Writer gone: EOF.
                }
            }
            let n = out.len().min(self.buf.len());
            for slot in out.iter_mut().take(n) {
                *slot = self.buf.pop_front().expect("non-empty");
            }
            Ok(n)
        }
    }

    struct PipeWriter {
        tx: mpsc::Sender<Vec<u8>>,
    }

    impl Write for PipeWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.tx
                .send(data.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"))?;
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    struct ThreadHandle {
        tx: Option<mpsc::Sender<Vec<u8>>>,
    }

    impl WorkerHandle for ThreadHandle {
        fn send(&mut self, frame: &FleetFrame) -> io::Result<()> {
            let closed = || io::Error::new(io::ErrorKind::BrokenPipe, "worker gone");
            let tx = self.tx.as_ref().ok_or_else(closed)?;
            tx.send(encode_frame(frame)).map_err(|_| closed())
        }
        fn kill(&mut self) {
            // Closing the control pipe is the closest a thread gets to
            // SIGKILL; real kills are exercised by the process-level
            // chaos integration test.
            self.tx = None;
        }
    }

    struct ThreadLauncher {
        config: DdtConfig,
        dut: DriverUnderTest,
        opts_for: Box<dyn Fn(u64) -> WorkerOpts>,
    }

    impl WorkerLauncher for ThreadLauncher {
        fn spawn(
            &mut self,
            worker: u64,
            events: mpsc::Sender<FleetEvent>,
        ) -> io::Result<Box<dyn WorkerHandle>> {
            let (ctl_tx, ctl_rx) = mpsc::channel::<Vec<u8>>();
            let (out_tx, out_rx) = mpsc::channel::<Vec<u8>>();
            let ddt = Ddt::new(self.config.clone());
            let dut = self.dut.clone();
            let mut opts = (self.opts_for)(worker);
            opts.worker_id = worker;
            std::thread::spawn(move || {
                let input = PipeReader { rx: ctl_rx, buf: VecDeque::new() };
                let output = PipeWriter { tx: out_tx };
                let _ = run_worker(&ddt, &dut, input, output, opts);
            });
            std::thread::spawn(move || {
                pump_frames(worker, PipeReader { rx: out_rx, buf: VecDeque::new() }, events);
            });
            Ok(Box::new(ThreadHandle { tx: Some(ctl_tx) }))
        }
    }

    fn launcher_for(dut: &DriverUnderTest, opts_for: impl Fn(u64) -> WorkerOpts + 'static) -> ThreadLauncher {
        ThreadLauncher {
            config: DdtConfig::default(),
            dut: dut.clone(),
            opts_for: Box::new(opts_for),
        }
    }

    fn dut(name: &str) -> DriverUnderTest {
        let spec = ddt_drivers::driver_by_name(name).expect("bundled driver");
        DriverUnderTest::from_spec(&spec)
    }

    /// The schedule-independent slice of a report: bugs (keys, classes,
    /// occurrences, inputs), coverage census, and the path census. Solver
    /// and cache counters are excluded — they legitimately depend on which
    /// worker process explored which shard with how warm a cache.
    type Census = (Vec<(String, String, u64)>, usize, usize, [u64; 8]);

    fn census(r: &Report) -> Census {
        let mut bugs: Vec<(String, String, u64)> = r
            .bugs
            .iter()
            .map(|b| (b.key.clone(), b.class.to_string(), b.occurrences))
            .collect();
        bugs.sort();
        (
            bugs,
            r.covered_blocks,
            r.total_blocks,
            [
                r.stats.paths_started,
                r.stats.paths_completed,
                r.stats.paths_faulted,
                r.stats.paths_infeasible,
                r.stats.paths_budget_killed,
                r.stats.paths_step_budget_killed,
                r.stats.insns,
                r.stats.symbols as u64,
            ],
        )
    }

    #[test]
    fn fleet_matches_serial_on_pcnet() {
        let dut = dut("pcnet");
        let ddt = Ddt::default();
        let serial = ddt.test(&dut);
        let status = std::env::temp_dir()
            .join(format!("ddt-fleet-status-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&status);
        let mut launcher = launcher_for(&dut, |_| WorkerOpts::default());
        let fc = FleetConfig {
            workers: 3,
            shard_factor: 3,
            heartbeat_ms: 50,
            status_file: Some(status.clone()),
            ..Default::default()
        };
        let fleet = serve(&ddt, &dut, &mut launcher, &fc);
        assert_eq!(census(&serial), census(&fleet), "fleet must reproduce the serial report");
        assert_eq!(fleet.health.fleet_workers_lost, 0);
        assert_eq!(fleet.health.fleet_shards_quarantined, 0);
        assert!(fleet.health.fleet_workers_spawned >= 3);
        let text = std::fs::read_to_string(&status).expect("status file written");
        assert!(text.contains("\"shards_done\""), "status JSON has the lease table: {text}");
        assert!(text.contains("\"states_per_sec\""), "status JSON has worker rates");
        assert!(
            text.contains("\"lifecycle_injected\"") && text.contains("\"lifecycle_bugs\""),
            "status JSON has the lifecycle counters: {text}"
        );
        let _ = std::fs::remove_file(&status);
    }

    #[test]
    fn fleet_survives_worker_crash() {
        let dut = dut("ensoniq");
        let ddt = Ddt::default();
        let serial = ddt.test(&dut);
        // Worker 0 crashes (abrupt EOF, no Shutdown) after its first
        // completed shard; its queued leases must be reassigned, not lost.
        let mut launcher = launcher_for(&dut, |w| WorkerOpts {
            die_after_shards: (w == 0).then_some(1),
            ..Default::default()
        });
        let fc = FleetConfig {
            workers: 2,
            shard_factor: 3,
            heartbeat_ms: 50,
            ..Default::default()
        };
        let fleet = serve(&ddt, &dut, &mut launcher, &fc);
        assert_eq!(census(&serial), census(&fleet), "crash recovery must not change the report");
        assert!(fleet.health.fleet_workers_lost >= 1, "the crash was observed");
        assert_eq!(fleet.health.fleet_shards_quarantined, 0);
        assert!(!fleet.health.pristine());
    }

    #[test]
    fn fleet_hang_watchdog_reassigns_leases() {
        let dut = dut("ensoniq");
        let ddt = Ddt::default();
        let serial = ddt.test(&dut);
        // Worker 0 goes silent the moment it holds a lease. Only the
        // progress watchdog can recover those shards.
        let mut launcher = launcher_for(&dut, |w| WorkerOpts {
            hang_on_first_shard: w == 0,
            ..Default::default()
        });
        let fc = FleetConfig {
            workers: 2,
            shard_factor: 3,
            heartbeat_ms: 50,
            lease_timeout_ms: 400,
            ..Default::default()
        };
        let fleet = serve(&ddt, &dut, &mut launcher, &fc);
        assert_eq!(census(&serial), census(&fleet), "hang recovery must not change the report");
        assert!(fleet.health.fleet_workers_lost >= 1, "the hang was detected");
        assert!(fleet.health.fleet_leases_reassigned >= 1, "leases were reassigned");
        assert_eq!(fleet.health.fleet_shards_quarantined, 0);
    }

    #[test]
    fn fleet_stops_when_bootstrap_exhausts_budget() {
        let dut = dut("ensoniq");
        let mut ddt = Ddt::default();
        // A budget the bootstrap alone exhausts: the fleet must stop
        // before spawning a single worker, and the report must say why.
        ddt.config.max_total_insns = 1;
        let mut launcher = ThreadLauncher {
            config: ddt.config.clone(),
            dut: dut.clone(),
            opts_for: Box::new(|_| WorkerOpts::default()),
        };
        let fc = FleetConfig {
            workers: 2,
            shard_factor: 3,
            heartbeat_ms: 50,
            ..Default::default()
        };
        let fleet = serve(&ddt, &dut, &mut launcher, &fc);
        assert!(fleet.health.insn_budget_exhausted, "budget stop must be reported");
        assert_eq!(
            fleet.health.fleet_workers_spawned, 0,
            "a budget-dead campaign must not spawn a fleet"
        );
        assert_eq!(
            fleet.health.fleet_shards_quarantined, 0,
            "budget exhaustion is not a shard fault"
        );
    }

    #[test]
    fn fleet_enforces_instruction_budget_mid_campaign() {
        let dut = dut("ensoniq");
        let serial_insns = Ddt::default().test(&dut).stats.insns;
        let mut ddt = Ddt::default();
        // Half the campaign's instructions: wherever the supervisor is
        // when the live estimate crosses the line (granting, draining,
        // folding), `ddt serve` must stop like `ddt test` would instead
        // of exploring every shard to exhaustion.
        ddt.config.max_total_insns = serial_insns / 2;
        let mut launcher = ThreadLauncher {
            config: ddt.config.clone(),
            dut: dut.clone(),
            opts_for: Box::new(|_| WorkerOpts::default()),
        };
        let fc = FleetConfig {
            workers: 2,
            shard_factor: 2,
            heartbeat_ms: 20,
            ..Default::default()
        };
        let fleet = serve(&ddt, &dut, &mut launcher, &fc);
        assert!(fleet.health.insn_budget_exhausted, "budget stop must be reported");
        assert_eq!(
            fleet.health.fleet_shards_quarantined, 0,
            "abandoned shards are dropped like a serial worklist, not quarantined"
        );
    }

    #[test]
    fn fleet_quarantines_poisoned_shard() {
        let dut = dut("ensoniq");
        let trace_dir = std::env::temp_dir()
            .join(format!("ddt-fleet-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&trace_dir);
        let mut ddt = Ddt::default();
        ddt.config.trace_dir = Some(trace_dir.clone());
        // A single worker that deterministically fails shard 0: every
        // retry fails too, so the lease must end up quarantined on disk
        // while the rest of the campaign completes.
        let mut launcher = ThreadLauncher {
            config: ddt.config.clone(),
            dut: dut.clone(),
            opts_for: Box::new(|_| WorkerOpts { fail_shard: Some(0), ..Default::default() }),
        };
        let fc = FleetConfig {
            workers: 1,
            shard_factor: 4,
            heartbeat_ms: 50,
            max_retries: 1,
            ..Default::default()
        };
        let fleet = serve(&ddt, &dut, &mut launcher, &fc);
        assert_eq!(fleet.health.fleet_shards_quarantined, 1, "shard 0 was quarantined");
        let qpath = trace_dir.join("quarantine").join("shard-0.ddtq");
        let bytes = std::fs::read(&qpath).expect("quarantine record written");
        let q = decode_quarantine(&bytes).expect("quarantine record decodes");
        assert_eq!(q.shard, 0);
        assert_eq!(q.driver, "ensoniq");
        assert_eq!(q.attempts, 2, "initial attempt + one retry");
        assert!(q.last_error.contains("induced deterministic failure"));
        assert!(!fleet.health.pristine(), "a quarantined shard is reported degradation");
        let _ = std::fs::remove_dir_all(&trace_dir);
    }
}
