//! The three campaign workloads and one measured pass over each.
//!
//! A *pass* runs one campaign per driver of the workload's driver set,
//! back to back, and then checks every report with the oracle. The
//! campaign clock covers the campaign calls only; replay verification and
//! the oracle run after it stops.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ddt::core::replay::ConcreteRunner;
use ddt::core::{load_latest, serve};
use ddt::drivers::workload::lifecycle_workload_for;
use ddt::drivers::DriverSpec;
use ddt::solver::{CacheStats, QueryCache};
use ddt::trace::TraceStore;
use ddt::vm::BlockCache;
use ddt::{
    persist_bugs, replay_artifact, replay_bug, run_hybrid, test_parallel, CheckpointPolicy, Ddt,
    DdtConfig, DriverUnderTest, ExploreStats, FaultPlan, FleetConfig, FuzzConfig, ReplayOutcome,
    Report, RunHealth,
};
use ddt_fuzz::{mutate, FuzzInput, Rng};

use crate::launcher::PipeLauncher;
use crate::metrics::{add, ratio, Layers, ALL_DRIVERS};
use crate::oracle::{self, Contract};
use crate::probe;

/// Fuzz batches per driver in hybrid-fuzz. The paths a pass starts depend
/// on the seed. Over eight seeds they ranged over 11,853–13,826 at 40
/// batches and 17,087–19,316 at 60, and over six seeds 29,784–30,820 at
/// 120.
pub const FUZZ_BATCHES: u64 = 120;
/// Concrete executions per fuzz batch in hybrid-fuzz.
pub const FUZZ_BATCH_SIZE: u64 = 64;
/// Workers in faults-durable's `test_parallel`.
const PARALLEL_WORKERS: usize = 2;
/// Workers in the traced fleet run.
const FLEET_WORKERS: usize = 2;
/// Drivers of the traced fleet run (symbolic-serial's traced extra).
const FLEET_DRIVERS: [&str; 2] = ["pro100", "rtl8029"];
/// symbolic-serial's drivers: every bundled driver but pro1000. pro1000's
/// one campaign takes 8–18 s, so a run would time it once or twice and
/// take the host's speed over those seconds for the program's; without it
/// a pass takes about 3 s and each campaign is timed about ten times.
const SYMBOLIC_DRIVERS: [&str; 6] = ["pro100", "rtl8029", "pcnet", "ensoniq", "ac97", "clean_nic"];
/// Executions per driver in the traced stand-alone concrete loop.
const CONCRETE_EXECS: u64 = 1000;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serial `Ddt::test`, default configuration, every driver but pro1000.
    SymbolicSerial,
    /// `run_hybrid` without the frontier drain, fixed fuzz budget.
    HybridFuzz,
    /// `test_parallel` with every fault family, the lifecycle workload, a
    /// checkpoint policy, then `persist_bugs`.
    FaultsDurable,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::SymbolicSerial,
        Workload::HybridFuzz,
        Workload::FaultsDurable,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SymbolicSerial => "symbolic-serial",
            Workload::HybridFuzz => "hybrid-fuzz",
            Workload::FaultsDurable => "faults-durable",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The drivers one pass tests, in order.
    pub fn drivers(self) -> &'static [&'static str] {
        match self {
            Workload::SymbolicSerial => &SYMBOLIC_DRIVERS,
            Workload::HybridFuzz => &ALL_DRIVERS,
            Workload::FaultsDurable => &["pro100", "ac97", "clean_nic", "pcnet", "ensoniq"],
        }
    }

    /// The campaign configuration (before per-campaign directories).
    pub fn config(self) -> DdtConfig {
        match self {
            Workload::FaultsDurable => DdtConfig {
                fault_plan: FaultPlan::full(),
                ..DdtConfig::default()
            },
            _ => DdtConfig::default(),
        }
    }

    /// The stated input, printed beside the throughput figures.
    pub fn input(self) -> String {
        let setting = match self {
            Workload::SymbolicSerial => "Ddt::test, DdtConfig::default()".to_string(),
            Workload::HybridFuzz => format!(
                "run_hybrid, drain_frontier=false, {FUZZ_BATCHES} batches x {FUZZ_BATCH_SIZE} execs"
            ),
            Workload::FaultsDurable => format!(
                "test_parallel x{PARALLEL_WORKERS}, FaultPlan::full(), lifecycle workload, \
                 CheckpointPolicy::new, persist_bugs"
            ),
        };
        format!("{} on [{}]", setting, self.drivers().join(", "))
    }

    fn contract(self) -> Contract {
        match self {
            Workload::SymbolicSerial => Contract::Exact,
            Workload::FaultsDurable => Contract::Superset,
            Workload::HybridFuzz => Contract::None,
        }
    }

    /// Builds every driver image and test input the passes reuse.
    pub fn setup(self) -> Vec<Target> {
        self.drivers()
            .iter()
            .map(|&name| {
                let spec = spec(name);
                let mut dut = DriverUnderTest::from_spec(&spec);
                if self == Workload::FaultsDurable {
                    dut.workload = lifecycle_workload_for(spec.class);
                }
                Target { name, dut }
            })
            .collect()
    }
}

fn spec(name: &str) -> DriverSpec {
    if name == "clean_nic" {
        ddt::drivers::clean_driver()
    } else {
        ddt::drivers::driver_by_name(name).expect("every workload driver is bundled")
    }
}

/// One driver prepared for testing.
pub struct Target {
    /// Bundled driver name.
    pub name: &'static str,
    /// The test input built from its spec.
    pub dut: DriverUnderTest,
}

/// What one pass measured and found.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds of the campaign calls, summed.
    pub campaign_s: f64,
    /// Process CPU seconds over the same calls, summed.
    pub cpu_s: f64,
    /// Wall seconds of each campaign call, in driver order.
    pub campaign_walls: Vec<f64>,
    /// Process CPU seconds of each campaign call, in driver order.
    pub campaign_cpus: Vec<f64>,
    /// Paths started, summed over the campaigns.
    pub paths: u64,
    /// Concrete fuzz executions, summed over the campaigns.
    pub fuzz_execs: u64,
    /// Covered basic blocks, summed over the campaigns.
    pub covered_blocks: u64,
    /// Distinct bug signatures, summed over the campaigns.
    pub bugs: u64,
    /// Campaigns judged (including traced cross-checks).
    pub attempted: u64,
    /// Campaigns the oracle failed.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// The campaigns' reports, in driver order.
    pub reports: Vec<Report>,
    /// Per-layer values (traced passes only).
    pub layers: Layers,
}

impl Pass {
    /// Counts one judged campaign and records why it failed, if it did.
    fn judge(&mut self, mut failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.append(&mut failures);
        }
    }
}

/// What one campaign left behind beside its report.
struct Campaign {
    report: Report,
    /// faults-durable: the campaign's checkpoint and trace-store directory.
    dir: Option<PathBuf>,
    failures: Vec<String>,
}

/// Runs pass `index` of workload `w`, calling `between` after each
/// campaign, outside the campaign clocks. A traced pass additionally
/// supplies each campaign's query cache, times each layer call, and reads
/// the program's counters into [`Pass::layers`]; it runs the same
/// campaigns.
pub fn run_pass(
    w: Workload,
    targets: &[Target],
    seed: u64,
    index: u64,
    traced: bool,
    work: &Path,
    between: &mut dyn FnMut(),
) -> Pass {
    let mut layers = Layers::new();
    let mut cache_stats: Vec<CacheStats> = Vec::new();
    let interner_before = ddt::expr::intern_stats();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut campaigns = Vec::with_capacity(targets.len());
    for target in targets {
        let mut config = w.config();
        let cache = traced.then(|| Arc::new(QueryCache::default()));
        config.shared_cache = cache.clone();
        let wall = Instant::now();
        let cpu_before = probe::usage().cpu_s;
        campaigns.push(run_campaign(
            w,
            target,
            config,
            seed,
            index,
            traced,
            work,
            &mut layers,
        ));
        walls.push(wall.elapsed().as_secs_f64());
        cpus.push(probe::usage().cpu_s - cpu_before);
        // Read and drop the handle at once, as a default run drops its own
        // cache: handles held to the end of the pass slowed later campaigns.
        cache_stats.extend(cache.map(|c| c.stats()));
        between();
    }
    let interner_after = ddt::expr::intern_stats();

    let mut pass = Pass {
        campaign_s: walls.iter().sum(),
        cpu_s: cpus.iter().sum(),
        campaign_walls: walls,
        campaign_cpus: cpus,
        ..Pass::default()
    };
    let verify = Instant::now();
    let (mut replayed, mut reproduced, mut known_gaps) = (0u64, 0u64, 0u64);
    for (target, mut campaign) in targets.iter().zip(campaigns) {
        let report = &campaign.report;
        campaign
            .failures
            .extend(oracle::check_bugs(target.name, report, w.contract()));
        campaign
            .failures
            .extend(oracle::check_health(target.name, &report.health));
        let outcomes = match &campaign.dir {
            Some(dir) => replay_stored(
                target,
                report,
                dir,
                traced,
                &mut layers,
                &mut campaign.failures,
            ),
            None => report
                .bugs
                .iter()
                .map(|bug| (bug.key.clone(), replay_bug(&target.dut, bug)))
                .collect(),
        };
        for (key, outcome) in outcomes {
            replayed += 1;
            // faults-durable is the only workload whose reports come from
            // `test_parallel`.
            let gap = match w {
                Workload::FaultsDurable => oracle::known_parallel_replay_gap(target.name, &key),
                _ => None,
            };
            match (outcome, gap) {
                (ReplayOutcome::Reproduced { .. }, _) => reproduced += 1,
                (ReplayOutcome::NotReproduced { observed }, Some(why)) => {
                    known_gaps += 1;
                    eprintln!(
                        "KNOWN GAP: {}: {key} did not replay ({observed}): {why}",
                        target.name
                    );
                }
                (ReplayOutcome::NotReproduced { observed }, None) => campaign.failures.push(
                    format!("{}: {key} did not replay ({observed})", target.name),
                ),
            }
        }
        pass.judge(campaign.failures);
        pass.paths += report.stats.paths_started;
        pass.fuzz_execs += report.stats.fuzz_execs;
        pass.covered_blocks += report.covered_blocks as u64;
        pass.bugs += oracle::signatures(report).len() as u64;
        pass.reports.push(campaign.report);
    }
    if traced {
        add(
            &mut layers,
            "replay.verify_s",
            verify.elapsed().as_secs_f64(),
        );
        add(
            &mut layers,
            "replay.reproduced_ratio",
            ratio(reproduced as f64, replayed as f64),
        );
        add(&mut layers, "replay.known_gaps", known_gaps as f64);
        read_counters(
            &pass,
            &cache_stats,
            interner_before,
            interner_after,
            &mut layers,
        );
        pass.layers = layers;
    }
    pass
}

#[allow(clippy::too_many_arguments)]
fn run_campaign(
    w: Workload,
    target: &Target,
    config: DdtConfig,
    seed: u64,
    index: u64,
    traced: bool,
    work: &Path,
    layers: &mut Layers,
) -> Campaign {
    let dut = &target.dut;
    let span = Instant::now();
    let report = match w {
        Workload::SymbolicSerial => Ddt::new(config).test(dut),
        Workload::HybridFuzz => {
            let fz = FuzzConfig {
                seed,
                batches: FUZZ_BATCHES,
                batch_size: FUZZ_BATCH_SIZE,
                drain_frontier: false,
                ..FuzzConfig::default()
            };
            run_hybrid(&Ddt::new(config), dut, &fz)
        }
        Workload::FaultsDurable => {
            return durable_campaign(target, config, index, traced, work, layers);
        }
    };
    if traced {
        add(
            layers,
            &format!("exerciser.test_s.{}", target.name),
            span.elapsed().as_secs_f64(),
        );
    }
    Campaign {
        report,
        dir: None,
        failures: Vec::new(),
    }
}

/// faults-durable: a checkpointed parallel campaign, then `persist_bugs`
/// into a fresh trace store beside the checkpoint.
fn durable_campaign(
    target: &Target,
    mut config: DdtConfig,
    index: u64,
    traced: bool,
    work: &Path,
    layers: &mut Layers,
) -> Campaign {
    let dut = &target.dut;
    // The traced run repeats pass 0, so clear what an earlier pass left.
    let dir = work.join(format!("pass{index}-{}", target.name));
    let _ = std::fs::remove_dir_all(&dir);
    config.checkpoint = Some(CheckpointPolicy::new(dir.join("checkpoint")));
    let span = Instant::now();
    let report = test_parallel(&Ddt::new(config), dut, PARALLEL_WORKERS);
    let test_s = span.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    let span = Instant::now();
    let persisted = persist_bugs(&dir.join("traces"), &report.bugs, dut);
    let persist_s = span.elapsed().as_secs_f64();
    match persisted {
        Ok(n) if traced => {
            add(layers, "tracestore.persist_s", persist_s);
            add(layers, "tracestore.artifacts", n as f64);
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("{}: persist_bugs: {e}", target.name)),
    }
    if traced {
        add(layers, &format!("exerciser.test_s.{}", target.name), test_s);
    }
    Campaign {
        report,
        dir: Some(dir),
        failures,
    }
}

/// faults-durable verification: the checkpoint must load as a finished
/// campaign, and every stored artifact must replay.
fn replay_stored(
    target: &Target,
    report: &Report,
    dir: &Path,
    traced: bool,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> Vec<(String, ReplayOutcome)> {
    let name = target.name;
    let checkpoint = dir.join("checkpoint");
    let load = Instant::now();
    match load_latest(&checkpoint) {
        Ok(file) if !file.finished => failures.push(format!("{name}: last checkpoint not final")),
        Ok(_) => {}
        Err(e) => failures.push(format!("{name}: load_latest: {e}")),
    }
    if traced {
        add(layers, "checkpoint.load_s", load.elapsed().as_secs_f64());
        add(layers, "checkpoint.bytes", dir_bytes(&checkpoint) as f64);
    }
    let store = match TraceStore::open(dir.join("traces")) {
        Ok(store) => store,
        Err(e) => {
            failures.push(format!("{name}: trace store: {e}"));
            return Vec::new();
        }
    };
    let records = store.list().unwrap_or_default();
    if records.len() != oracle::signatures(report).len() {
        failures.push(format!(
            "{name}: {} stored artifact(s) for {} bug signature(s)",
            records.len(),
            oracle::signatures(report).len()
        ));
    }
    let mut outcomes = Vec::new();
    for rec in records {
        match store.load(&rec.signature) {
            Ok(artifact) => {
                outcomes.push((rec.key.clone(), replay_artifact(&target.dut, &artifact)))
            }
            Err(e) => failures.push(format!("{name}: artifact {}: {e}", rec.signature)),
        }
    }
    outcomes
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Reads the program's own counters (`Report::stats`, `RunHealth`, the
/// supplied query caches, the expression interner) into per-layer values.
fn read_counters(
    pass: &Pass,
    caches: &[CacheStats],
    interner_before: (u64, u64),
    interner_after: (u64, u64),
    layers: &mut Layers,
) {
    let mut s = ExploreStats::default();
    let mut h = RunHealth::default();
    let mut distinct_bugs = 0;
    for r in &pass.reports {
        s.merge_add(&r.stats);
        h.merge_add(&r.health);
        distinct_bugs += r.bugs.len();
        add(
            layers,
            &format!("solver.full.{}", r.driver),
            r.stats.solver_full as f64,
        );
        add(
            layers,
            &format!("solver.cache_hits.{}", r.driver),
            r.stats.solver_cache_hits as f64,
        );
    }
    let f = |v: u64| v as f64;
    let wall = pass.campaign_s;
    let values = [
        ("exerciser.quanta", f(s.quanta_executed)),
        ("exerciser.paths_started", f(s.paths_started)),
        ("exerciser.paths_infeasible", f(s.paths_infeasible)),
        (
            "exerciser.infeasible_ratio",
            ratio(f(s.paths_infeasible), f(s.paths_started)),
        ),
        (
            "exerciser.us_per_quantum",
            ratio(wall * 1e6, f(s.quanta_executed)),
        ),
        ("exerciser.peak_states", s.peak_states as f64),
        ("exerciser.states_dropped", f(s.states_dropped)),
        ("symvm.insns", f(s.insns)),
        ("symvm.insns_per_s", ratio(f(s.insns), wall)),
        ("symvm.max_cow_depth", s.max_cow_depth as f64),
        ("symvm.symbols", f(u64::from(s.symbols))),
        ("solver.queries", f(s.solver_queries)),
        (
            "solver.queries_per_path",
            ratio(f(s.solver_queries), f(s.paths_started)),
        ),
        ("solver.fast_hits", f(s.solver_fast_hits)),
        ("solver.full", f(s.solver_full)),
        (
            "solver.full_ratio",
            ratio(f(s.solver_full), f(s.solver_queries)),
        ),
        ("solver.cache_hits", f(s.solver_cache_hits)),
        ("solver.model_reuse", f(s.solver_model_reuse)),
        ("solver.unsat_subset", f(s.solver_unsat_subset)),
        ("solver.sliced", f(s.solver_sliced)),
        ("solver.slice_components", f(s.solver_slice_components)),
        ("solver.session_probes", f(s.solver_session_probes)),
        ("solver.batch_flushes", f(s.solver_batch_flushes)),
        ("solver.batched_verdicts", f(s.solver_batched_verdicts)),
        (
            "solver.witness_hit_ratio",
            ratio(f(s.solver_batch_witness_hits), f(s.solver_batched_verdicts)),
        ),
        ("solver.portfolio_races", f(s.solver_portfolio_races)),
        ("solver.rewrite_reductions", f(s.solver_rewrite_reductions)),
        ("faults.injected", f(h.faults_total())),
        ("faults.lifecycle", f(h.lifecycle_injected)),
        ("checkers.bug_sightings", f(h.bug_occurrences)),
        ("checkers.distinct_bugs", distinct_bugs as f64),
        ("parallel.cpu_per_wall", ratio(pass.cpu_s, wall)),
        ("checkpoint.written", f(h.checkpoints_written)),
        ("checkpoint.journal_records", f(h.journal_records)),
        ("hybrid.fuzz_execs", f(s.fuzz_execs)),
        ("hybrid.escalations", f(s.escalations)),
        (
            "hybrid.escalation_ratio",
            ratio(f(s.escalations), f(s.fuzz_execs)),
        ),
        ("vm.concrete_insns", f(s.fuzz_insns)),
    ];
    for (name, v) in values {
        add(layers, name, v);
    }
    // Cache figures from the handles the benchmark supplied.
    let (mut lookups, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for st in caches {
        lookups += st.lookups();
        misses += st.misses;
        evictions += st.evictions;
    }
    add(
        layers,
        "solver.cache_hit_ratio",
        ratio(f(lookups - misses), f(lookups)),
    );
    add(layers, "solver.cache_evictions", f(evictions));
    let hits = interner_after.0.saturating_sub(interner_before.0);
    let misses = interner_after.1.saturating_sub(interner_before.1);
    add(
        layers,
        "expr.interner_hit_ratio",
        ratio(f(hits), f(hits + misses)),
    );
    add(layers, "expr.interner_misses", f(misses));
}

/// Work only the traced run does, after its traced pass.
///
/// - symbolic-serial: `serve` with two in-process workers on the fleet
///   drivers; the fleet's bugs, coverage and path census must match the
///   traced pass's serial reports.
/// - hybrid-fuzz: a stand-alone concrete loop timing the public calls the
///   fuzzer makes.
/// - faults-durable: the same campaigns serially and in parallel without
///   a checkpoint policy, for `parallel.speedup` and
///   `checkpoint.overhead_s`; both must find the traced pass's bugs.
pub fn traced_extras(w: Workload, targets: &[Target], seed: u64, pass: &mut Pass) {
    let reports = std::mem::take(&mut pass.reports);
    match w {
        Workload::SymbolicSerial => fleet_run(targets, &reports, pass),
        Workload::HybridFuzz => concrete_loop(targets, seed, &mut pass.layers),
        Workload::FaultsDurable => {
            let ddt = Ddt::new(w.config());
            let (mut serial_s, mut parallel_s, mut with_policy_s) = (0.0, 0.0, 0.0);
            for (target, checkpointed) in targets.iter().zip(&reports) {
                let span = Instant::now();
                let serial = ddt.test(&target.dut);
                serial_s += span.elapsed().as_secs_f64();
                let span = Instant::now();
                let parallel = test_parallel(&ddt, &target.dut, PARALLEL_WORKERS);
                parallel_s += span.elapsed().as_secs_f64();
                with_policy_s += pass.layers[&format!("exerciser.test_s.{}", target.name)];
                for (mode, report) in [("serial", &serial), ("uncheckpointed", &parallel)] {
                    pass.judge(differences(target.name, mode, checkpointed, report, false));
                }
            }
            add(
                &mut pass.layers,
                "parallel.speedup",
                ratio(serial_s, parallel_s),
            );
            add(
                &mut pass.layers,
                "checkpoint.overhead_s",
                with_policy_s - parallel_s,
            );
        }
    }
    pass.reports = reports;
}

/// `serve` on the fleet drivers through the in-process launcher.
fn fleet_run(targets: &[Target], serial: &[Report], pass: &mut Pass) {
    let config = Workload::SymbolicSerial.config();
    let ddt = Ddt::new(config.clone());
    let fc = FleetConfig {
        workers: FLEET_WORKERS,
        ..FleetConfig::default()
    };
    for (target, reference) in targets.iter().zip(serial) {
        if !FLEET_DRIVERS.contains(&target.name) {
            continue;
        }
        let mut launcher = PipeLauncher::new(config.clone(), target.dut.clone());
        let span = Instant::now();
        let report = serve(&ddt, &target.dut, &mut launcher, &fc);
        launcher.join();
        let layers = &mut pass.layers;
        add(layers, "fleet.serve_s", span.elapsed().as_secs_f64());
        let counts = launcher.counts();
        let h = &report.health;
        add(layers, "fleet.frames", counts.frames() as f64);
        add(layers, "fleet.frame_bytes", counts.bytes() as f64);
        add(
            layers,
            "fleet.workers_spawned",
            h.fleet_workers_spawned as f64,
        );
        add(
            layers,
            "fleet.leases_reassigned",
            h.fleet_leases_reassigned as f64,
        );
        add(layers, "fleet.shards_stolen", h.fleet_shards_stolen as f64);
        let mut failures = oracle::check_health(target.name, h);
        failures.extend(differences(target.name, "fleet", reference, &report, true));
        pass.judge(failures);
    }
}

/// Why `other` disagrees with `reference`: different bug keys, or with
/// `census`, different coverage or path counts. Keys, not signatures: a
/// signature also hashes the representative path's call stack, which
/// legitimately differs between serial and parallel runs.
fn differences(
    name: &str,
    mode: &str,
    reference: &Report,
    other: &Report,
    census: bool,
) -> Vec<String> {
    let mut out = Vec::new();
    if oracle::keys(reference) != oracle::keys(other) {
        out.push(format!("{name}: {mode} run found a different bug set"));
    }
    if census
        && (reference.covered_blocks != other.covered_blocks
            || reference.stats.paths_started != other.stats.paths_started)
    {
        out.push(format!(
            "{name}: {mode} run explored a different path census"
        ));
    }
    out
}

/// The fuzzer's inner loop, rebuilt from public calls so each can be
/// timed: `mutate`, `ConcreteRunner::reset` + `apply_fuzz_input`, and
/// `ConcreteRunner::run_fast`.
fn concrete_loop(targets: &[Target], seed: u64, layers: &mut Layers) {
    let mut rng = Rng::new(seed);
    let (mut mutate_s, mut reset_s, mut run_s, mut insns) = (0.0, 0.0, 0.0, 0u64);
    for target in targets {
        let mut pool = vec![
            FuzzInput::default(),
            FuzzInput {
                hw: vec![1; 16],
                inject_at: (1..16).collect(),
                ..FuzzInput::default()
            },
            FuzzInput {
                hw: vec![0xffff_ffff; 16],
                ..FuzzInput::default()
            },
        ];
        let mut cache = BlockCache::new();
        let mut runner = ConcreteRunner::new(&target.dut, Vec::new());
        let mut trace = Vec::new();
        for i in 0..CONCRETE_EXECS {
            let span = Instant::now();
            let parent = &pool[rng.below(pool.len() as u64) as usize];
            let input = mutate(parent, &mut rng, 4);
            mutate_s += span.elapsed().as_secs_f64();
            let span = Instant::now();
            runner.reset(&target.dut, input.hw.clone());
            runner.apply_fuzz_input(&input);
            reset_s += span.elapsed().as_secs_f64();
            trace.clear();
            let span = Instant::now();
            std::hint::black_box(runner.run_fast(&mut cache, &mut trace));
            run_s += span.elapsed().as_secs_f64();
            insns += runner.vm.insns_retired;
            if i % 16 == 0 && pool.len() < 64 {
                pool.push(input);
            }
        }
    }
    add(layers, "fuzz.mutate_s", mutate_s);
    add(layers, "replay.runner_reset_s", reset_s);
    add(layers, "vm.run_fast_s", run_s);
    add(layers, "vm.insns_per_s", ratio(insns as f64, run_s));
}
