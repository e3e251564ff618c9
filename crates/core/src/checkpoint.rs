//! Crash-safe exploration campaigns (§4.7): checkpoint/resume with a
//! write-ahead path journal.
//!
//! A campaign directory holds two kinds of artifacts, both in the
//! versioned formats of `ddt-trace`:
//!
//! - `journal-<gen>.ddtj` — an append-only, per-record-checksummed log of
//!   campaign progress (path terminations, fork decisions, checkpoint
//!   publications). Each process writes its own *generation* file so a torn
//!   tail left by a crash is never appended to.
//! - `checkpoint-<seq>.ddtc` — periodic frontier checkpoints. Every pending
//!   machine is serialized as its **choice-log prefix**: the compressed
//!   schedule of fork-site decisions that deterministically re-derives the
//!   machine from the root. Atomicity is temp-file + `fsync` + `rename` +
//!   directory `fsync`, so a SIGKILL at any instruction leaves the newest
//!   complete checkpoint loadable.
//!
//! Resume ([`Ddt::resume`]) loads the newest decodable checkpoint, refuses
//! driver/configuration mismatches, reconstructs the frontier by replaying
//! each prefix through the quantum engine in replay mode (validated against
//! the recorded [`MachineFingerprint`](ddt_trace::MachineFingerprint)),
//! restores the aggregate maps and the *consumed* budgets, and continues —
//! producing a report identical to the uninterrupted run's. A checkpoint
//! whose `finished` flag is set short-circuits: the report is rebuilt
//! without exploring.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ddt_trace::{
    decode_checkpoint, //
    encode_checkpoint,
    encode_journal_header,
    encode_journal_record,
    CheckpointFile,
    CoverageRecord,
    FrontierRecord,
    JournalRecord,
    PathPick,
};

use crate::exerciser::{Ddt, DriverUnderTest};
use crate::explore::{Explorer, Quantum, RunState, Start};
use crate::machine::Machine;
use crate::report::{Bug, ExploreStats, Report, RunHealth};
use crate::search::PruneSet;

/// Campaign durability policy.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory receiving the journal and checkpoint files.
    pub dir: PathBuf,
    /// Frontier checkpoint cadence in scheduling quanta. The journal is
    /// written continuously; this bounds only how much *replay* work a
    /// resume needs, so the default favors low overhead.
    pub every_quanta: u64,
}

impl CheckpointPolicy {
    /// A policy writing to `dir` at the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy { dir: dir.into(), every_quanta: 512 }
    }
}

/// Why a campaign could not be resumed.
#[derive(Debug)]
pub enum CampaignError {
    /// The directory could not be read or written.
    Io(std::io::Error),
    /// No checkpoint file exists in the directory.
    NoCheckpoint(PathBuf),
    /// Every present checkpoint failed to decode.
    Corrupt(String),
    /// The checkpoint belongs to a different driver or configuration.
    Mismatch(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign i/o error: {e}"),
            CampaignError::NoCheckpoint(dir) => {
                write!(f, "no checkpoint found in {}", dir.display())
            }
            CampaignError::Corrupt(why) => write!(f, "campaign store is corrupt: {why}"),
            CampaignError::Mismatch(why) => write!(f, "campaign mismatch: {why}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> CampaignError {
        CampaignError::Io(e)
    }
}

/// Restored state handed to the exploration loops by [`Ddt::resume`]: the
/// reconstructed frontier plus every aggregate the uninterrupted run would
/// have accumulated by the checkpointed quantum.
pub struct CampaignSeed {
    /// Reconstructed pending machines, in checkpointed worklist order (the
    /// selection heuristic breaks ties by position, so order matters).
    pub frontier: Vec<Machine>,
    /// Aggregate counters as of the checkpoint (budgets continue, not
    /// reset: `insns` feeds the total-instruction check directly).
    pub stats: ExploreStats,
    /// The keyed bug map as of the checkpoint.
    pub bugs: HashMap<String, Bug>,
    /// Per-block hit counts (they drive the selection heuristic).
    pub coverage_hits: Vec<(u32, u64)>,
    /// Covered block set.
    pub coverage_covered: Vec<u32>,
    /// Coverage-over-time series so far.
    pub coverage_timeline: Vec<crate::report::CoverageSample>,
    /// Milliseconds already consumed by earlier segments (campaign clock).
    pub base_wall_ms: u64,
    /// Next machine id (fresh forks stay unique across segments).
    pub next_id: u64,
    /// Next checkpoint sequence number.
    pub next_checkpoint_seq: u64,
    /// Frontier paths successfully replayed (run-health counter).
    pub replayed_ok: u64,
    /// Frontier paths dropped on divergence (run-health counter).
    pub replay_failed: u64,
    /// Structural-fingerprint prune set snapshot (`--prune` campaigns):
    /// (fingerprint hash, covered-block count at last sighting). Empty when
    /// pruning was off.
    pub prune_seen: Vec<(u64, u64)>,
}

/// Appends the write-ahead journal and publishes frontier checkpoints.
///
/// I/O failures are reported to stderr and disable the failing artifact;
/// they never abort the exploration — durability is best-effort by design,
/// the in-memory run stays authoritative.
pub(crate) struct CampaignWriter {
    dir: PathBuf,
    journal: Option<BufWriter<File>>,
    seq: u64,
    every_quanta: u64,
    /// Checkpoints successfully published by this process.
    pub checkpoints_written: u64,
    /// Journal records successfully appended by this process.
    pub journal_records: u64,
}

impl CampaignWriter {
    /// Opens a fresh journal generation in the campaign directory and
    /// writes the segment-start record.
    pub(crate) fn start(
        policy: &CheckpointPolicy,
        driver: &str,
        config_fp: u64,
        first_seq: u64,
    ) -> CampaignWriter {
        if let Err(e) = fs::create_dir_all(&policy.dir) {
            eprintln!("ddt: cannot create checkpoint dir {}: {e}", policy.dir.display());
        }
        // Each process appends to its own generation file: a torn tail left
        // by a previous crash stays frozen (recoverable by prefix) instead
        // of being appended to, which would corrupt the framing.
        let generation = next_generation(&policy.dir);
        let path = policy.dir.join(format!("journal-{generation:06}.ddtj"));
        let journal = match File::create(&path) {
            Ok(f) => {
                let mut w = BufWriter::new(f);
                match w.write_all(&encode_journal_header()) {
                    Ok(()) => Some(w),
                    Err(e) => {
                        eprintln!("ddt: journal header write failed: {e}");
                        None
                    }
                }
            }
            Err(e) => {
                eprintln!("ddt: cannot open journal {}: {e}", path.display());
                None
            }
        };
        let mut writer = CampaignWriter {
            dir: policy.dir.clone(),
            journal,
            seq: first_seq,
            every_quanta: policy.every_quanta.max(1),
            checkpoints_written: 0,
            journal_records: 0,
        };
        writer.record(&JournalRecord::Started { driver: driver.to_string(), config_fp });
        writer
    }

    /// Checkpoint cadence in quanta.
    pub(crate) fn every_quanta(&self) -> u64 {
        self.every_quanta
    }

    /// Journals one quantum: its fork events, then — if its path ended —
    /// the terminal record with the bug keys it found first.
    pub(crate) fn record_quantum(&mut self, q: &Quantum) {
        for &(parent, child, kind) in &q.fork_events {
            self.record(&JournalRecord::Forked { parent, child, kind });
        }
        if let Some(status) = q.end {
            self.record(&JournalRecord::PathDone {
                machine: q.machine,
                status,
                steps: q.steps,
                new_bugs: q.new_bug_keys.clone(),
            });
        }
    }

    /// Closes the campaign at the end of a run: journals an interruption
    /// or the finish, publishes the final checkpoint of `frontier` (a
    /// finished one when nothing is pending), makes the journal durable,
    /// and returns the campaign's health counters.
    pub(crate) fn close(
        mut self,
        ddt: &Ddt,
        dut: &DriverUnderTest,
        run: &RunState,
        frontier: Vec<FrontierRecord>,
        interrupted: bool,
    ) -> RunHealth {
        if interrupted {
            self.record(&JournalRecord::Interrupted);
        }
        let finished = frontier.is_empty();
        if finished {
            self.record(&JournalRecord::Finished { distinct_bugs: run.bugs.len() as u64 });
        }
        self.write_checkpoint(checkpoint_file(ddt, dut, run, frontier, finished, interrupted));
        self.finish();
        RunHealth {
            checkpoints_written: self.checkpoints_written,
            journal_records: self.journal_records,
            ..RunHealth::default()
        }
    }

    /// Appends one journal record (buffered; made durable at checkpoints).
    pub(crate) fn record(&mut self, rec: &JournalRecord) {
        if let Some(w) = self.journal.as_mut() {
            match w.write_all(&encode_journal_record(rec)) {
                Ok(()) => self.journal_records += 1,
                Err(e) => {
                    eprintln!("ddt: journal append failed, disabling journal: {e}");
                    self.journal = None;
                }
            }
        }
    }

    /// Publishes one frontier checkpoint atomically: journal fsync first
    /// (write-ahead ordering), then temp file + fsync + rename + directory
    /// fsync. A crash at any instruction leaves either the previous or the
    /// new checkpoint fully intact.
    pub(crate) fn write_checkpoint(&mut self, ck: CheckpointFile) {
        let publish = self.prepare_checkpoint(ck);
        let outcome = publish.run();
        self.complete_checkpoint(outcome);
    }

    /// The cheap, locked half of [`CampaignWriter::write_checkpoint`]:
    /// pushes every buffered journal record to the OS (a write, no fsync)
    /// and stamps the sequence number. The returned job does the rest —
    /// encoding and every fsync — without the writer, so a caller sharing
    /// the writer behind a mutex need not hold it across the I/O. At most
    /// one job may be outstanding: the sequence number advances only in
    /// [`CampaignWriter::complete_checkpoint`].
    pub(crate) fn prepare_checkpoint(&mut self, mut ck: CheckpointFile) -> PublishJob {
        ck.seq = self.seq;
        let flushed =
            self.journal.as_mut().map(|w| w.flush().and_then(|()| w.get_ref().try_clone()));
        let journal = match flushed {
            Some(Ok(f)) => Some(f),
            Some(Err(e)) => {
                eprintln!("ddt: journal flush failed, disabling journal: {e}");
                self.journal = None;
                None
            }
            None => None,
        };
        PublishJob { dir: self.dir.clone(), ck, journal }
    }

    /// Records the outcome of a [`PublishJob`]: the journal's `Checkpoint`
    /// record and the counters on success, nothing but a note on failure.
    pub(crate) fn complete_checkpoint(&mut self, outcome: Published) {
        if !outcome.journal_synced {
            self.journal = None;
        }
        if let Some(frontier) = outcome.frontier {
            self.record(&JournalRecord::Checkpoint { seq: self.seq, frontier });
            self.seq += 1;
            self.checkpoints_written += 1;
        }
    }

    /// Makes the tail of the journal durable.
    pub(crate) fn finish(&mut self) {
        self.sync_journal();
    }

    fn sync_journal(&mut self) {
        if let Some(w) = self.journal.as_mut() {
            let flushed = w.flush().and_then(|()| w.get_ref().sync_all());
            if let Err(e) = flushed {
                eprintln!("ddt: journal fsync failed, disabling journal: {e}");
                self.journal = None;
            }
        }
    }
}

/// One checkpoint publication detached from its [`CampaignWriter`]: the
/// checkpoint image plus a handle on the journal, whose records up to the
/// checkpoint are already written to the OS but not yet durable.
pub(crate) struct PublishJob {
    dir: PathBuf,
    ck: CheckpointFile,
    journal: Option<File>,
}

/// What a [`PublishJob`] achieved.
pub(crate) struct Published {
    /// False when the journal fsync failed (the writer disables it).
    journal_synced: bool,
    /// The published checkpoint's frontier size; `None` if it failed.
    frontier: Option<u64>,
}

impl PublishJob {
    /// Encodes and publishes the checkpoint. The journal is fsynced first,
    /// so every record the checkpoint depends on is durable before the
    /// rename makes it visible (write-ahead ordering). Then temp file +
    /// fsync + rename + directory fsync, and the old checkpoints are
    /// pruned.
    pub(crate) fn run(self) -> Published {
        let journal_synced = match &self.journal {
            Some(f) => match f.sync_all() {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("ddt: journal fsync failed, disabling journal: {e}");
                    false
                }
            },
            None => true,
        };
        let seq = self.ck.seq;
        let bytes = encode_checkpoint(&self.ck);
        let tmp = self.dir.join(format!(".checkpoint-{seq:06}.tmp"));
        let dst = self.dir.join(format!("checkpoint-{seq:06}.ddtc"));
        let res = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &dst)?;
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
            Ok(())
        })();
        let frontier = match res {
            Ok(()) => {
                prune_checkpoints(&self.dir);
                Some(self.ck.frontier.len() as u64)
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                eprintln!("ddt: checkpoint write failed: {e}");
                None
            }
        };
        Published { journal_synced, frontier }
    }
}

/// Keeps the two newest checkpoints (the newest plus one fallback);
/// best-effort, purely a disk bound.
fn prune_checkpoints(dir: &Path) {
    let mut seqs = checkpoint_seqs(dir);
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for &(seq, _) in seqs.iter().skip(2) {
        let _ = fs::remove_file(dir.join(format!("checkpoint-{seq:06}.ddtc")));
    }
}

/// `journal-<gen>.ddtj` generations already present, plus one.
fn next_generation(dir: &Path) -> u64 {
    list_numbered(dir, "journal-", ".ddtj").into_iter().map(|(g, _)| g + 1).max().unwrap_or(0)
}

fn checkpoint_seqs(dir: &Path) -> Vec<(u64, PathBuf)> {
    list_numbered(dir, "checkpoint-", ".ddtc")
}

fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            Some((digits.parse().ok()?, e.path()))
        })
        .collect()
}

/// Loads the newest decodable checkpoint in `dir`. An unreadable or
/// corrupt newest file falls back to the previous one (the write protocol
/// keeps it intact); only when every candidate fails is the store corrupt.
pub fn load_latest(dir: &Path) -> Result<CheckpointFile, CampaignError> {
    if !dir.is_dir() {
        return Err(CampaignError::NoCheckpoint(dir.to_path_buf()));
    }
    let mut seqs = checkpoint_seqs(dir);
    if seqs.is_empty() {
        return Err(CampaignError::NoCheckpoint(dir.to_path_buf()));
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut last_err = String::new();
    for (_, path) in &seqs {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                last_err = format!("{}: {e}", path.display());
                continue;
            }
        };
        match decode_checkpoint(&bytes) {
            Ok(ck) => return Ok(ck),
            Err(e) => last_err = format!("{}: {e}", path.display()),
        }
    }
    Err(CampaignError::Corrupt(last_err))
}

/// Builds the checkpoint image of a run with the given pending frontier
/// (see [`frontier_record`]). The caller must have folded `wall_ms` and the
/// solver counters into the run's stats first; the writer assigns the
/// sequence number.
pub(crate) fn checkpoint_file(
    ddt: &Ddt,
    dut: &DriverUnderTest,
    run: &RunState,
    frontier: Vec<FrontierRecord>,
    finished: bool,
    interrupted: bool,
) -> CheckpointFile {
    let (hits, covered, timeline) = run.coverage.snapshot();
    // Key-sorted bug list: the JSON payload is byte-stable for a given bug
    // map, so identical campaign states produce identical checkpoints.
    let mut bug_list: Vec<&Bug> = run.bugs.values().collect();
    bug_list.sort_by(|a, b| a.key.cmp(&b.key));
    CheckpointFile {
        seq: 0,
        driver: dut.image.name.clone(),
        config_fp: ddt.config.fingerprint(),
        wall_ms: run.stats.wall_ms,
        insns: run.stats.insns,
        next_id: run.next_id,
        finished,
        interrupted,
        stats_json: serde_json::to_vec(&run.stats).expect("stats are serializable"),
        bugs_json: serde_json::to_vec(&bug_list).expect("bugs are serializable"),
        coverage: CoverageRecord {
            hits,
            covered,
            timeline: timeline.into_iter().map(|(ms, n)| (ms, n as u64)).collect(),
        },
        frontier,
        prune_seen: run.prune.as_ref().map(PruneSet::snapshot).unwrap_or_default(),
    }
}

/// The frontier records of pending machines, in order.
pub(crate) fn frontier_records(pending: &[Machine]) -> Vec<FrontierRecord> {
    pending.iter().map(frontier_record).collect()
}

/// Snapshots one live machine as its portable decision-prefix record — the
/// unit a checkpoint stores and a fleet supervisor leases out.
pub(crate) fn frontier_record(m: &Machine) -> FrontierRecord {
    FrontierSnap::of(m).into_record()
}

/// A pending machine as a checkpoint cut captures it: its frontier record
/// with the choice log still shared rather than copied. Taking one is O(1)
/// — a few copies, an O(1) fingerprint and an `Arc` bump — however long
/// the log; [`FrontierSnap::into_record`] copies the log out later, when
/// the machine itself may already have moved on.
pub(crate) struct FrontierSnap {
    /// Every record field but `picks`, which is left empty.
    record: FrontierRecord,
    /// The choice log, shared with the machine (it is immutable).
    picks: Arc<[PathPick]>,
}

impl FrontierSnap {
    /// Captures `m` in O(1).
    pub(crate) fn of(m: &Machine) -> FrontierSnap {
        FrontierSnap {
            record: FrontierRecord {
                id: m.id,
                steps_total: m.steps_total,
                trailing_skips: m.trailing_skips,
                picks: Vec::new(),
                fp: m.fingerprint(),
                cov_fresh: m.cov_fresh,
                cov_stamp: m.cov_stamp,
            },
            picks: m.picks.clone(),
        }
    }

    /// The full record, with its own copy of the choice log.
    pub(crate) fn into_record(self) -> FrontierRecord {
        FrontierRecord { picks: self.picks.to_vec(), ..self.record }
    }
}

impl Ddt {
    /// Resumes an interrupted campaign from `dir` and continues it to a
    /// final report (serial explorer). See the module docs for the
    /// protocol; [`crate::resume_parallel`] is the multi-worker variant.
    pub fn resume(&self, dut: &DriverUnderTest, dir: &Path) -> Result<Report, CampaignError> {
        let (seed, finished) = self.load_seed(dut, dir)?;
        if finished {
            return Ok(self.finished_report(dut, seed));
        }
        Ok(self.with_campaign_dir(dir).explore_serial(dut, Some(seed)))
    }

    /// Loads and validates the newest checkpoint in `dir` and rebuilds its
    /// campaign seed; `true` when the campaign already ran to completion.
    pub(crate) fn load_seed(
        &self,
        dut: &DriverUnderTest,
        dir: &Path,
    ) -> Result<(CampaignSeed, bool), CampaignError> {
        let ck = load_latest(dir)?;
        if ck.driver != dut.image.name {
            return Err(CampaignError::Mismatch(format!(
                "checkpoint is for driver '{}', not '{}'",
                ck.driver, dut.image.name
            )));
        }
        let config_fp = self.config.fingerprint();
        if ck.config_fp != config_fp {
            return Err(CampaignError::Mismatch(format!(
                "checkpoint configuration fingerprint {:016x} != current {config_fp:016x} \
                 (resume with the same flags the campaign started with)",
                ck.config_fp
            )));
        }
        let stats: ExploreStats = serde_json::from_slice(&ck.stats_json)
            .map_err(|e| CampaignError::Corrupt(format!("stats payload: {e}")))?;
        let bug_list: Vec<Bug> = serde_json::from_slice(&ck.bugs_json)
            .map_err(|e| CampaignError::Corrupt(format!("bugs payload: {e}")))?;
        let bugs = bug_list.into_iter().map(|b| (b.key.clone(), b)).collect();
        let finished = ck.finished;
        Ok((self.rebuild_seed(dut, ck, stats, bugs), finished))
    }

    /// The report of a campaign whose final checkpoint says it already ran
    /// to completion: rebuilt from the checkpoint, nothing explored.
    pub(crate) fn finished_report(&self, dut: &DriverUnderTest, seed: CampaignSeed) -> Report {
        let analysis = ddt_isa::analysis::analyze(&dut.image);
        let (run, _) = RunState::start(self, dut, analysis, Start::Resume(seed));
        run.into_report(self, dut, None, |_| RunHealth::default())
    }

    /// A clone of this tool whose continued exploration checkpoints into
    /// `dir` (the resumed campaign keeps its own durability).
    pub(crate) fn with_campaign_dir(&self, dir: &Path) -> Ddt {
        let mut config = self.config.clone();
        let every = config.checkpoint.as_ref().map(|p| p.every_quanta);
        let mut policy = CheckpointPolicy::new(dir);
        if let Some(every) = every {
            policy.every_quanta = every;
        }
        config.checkpoint = Some(policy);
        Ddt::new(config)
    }

    /// Reconstructs the frontier from choice-log prefixes and assembles the
    /// campaign seed. Paths that fail to replay (divergence, fingerprint
    /// mismatch, or a panic) are dropped with a stderr note and counted in
    /// run health — a degraded resume is still a valid exploration.
    fn rebuild_seed(
        &self,
        dut: &DriverUnderTest,
        ck: CheckpointFile,
        stats: ExploreStats,
        bugs: HashMap<String, Bug>,
    ) -> CampaignSeed {
        let mut explorer = Explorer::new(self, dut, &self.config.run_cache(), &dut.root_mem());
        let mut frontier = Vec::with_capacity(ck.frontier.len());
        let mut replayed_ok = 0;
        let mut replay_failed = 0;
        for rec in &ck.frontier {
            match explorer.replay_prefix_observed(rec, &mut |_| {}) {
                Ok(m) => {
                    replayed_ok += 1;
                    frontier.push(m);
                }
                Err(why) => {
                    replay_failed += 1;
                    eprintln!("ddt: resume: dropping frontier path {}: {why}", rec.id);
                }
            }
        }
        CampaignSeed {
            frontier,
            stats,
            bugs,
            coverage_hits: ck.coverage.hits,
            coverage_covered: ck.coverage.covered,
            coverage_timeline: ck
                .coverage
                .timeline
                .into_iter()
                .map(|(ms, n)| (ms, n as usize))
                .collect(),
            base_wall_ms: ck.wall_ms,
            next_id: ck.next_id,
            next_checkpoint_seq: ck.seq + 1,
            replayed_ok,
            replay_failed,
            prune_seen: ck.prune_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{resume_parallel, test_parallel};
    use crate::report::Report;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ddt-campaign-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The bug fields a resumed run must reproduce exactly (§4.7): the
    /// dedup key, the classification, the attributed pc, and — the hard
    /// part — the *solved concrete inputs* of every bug.
    fn bug_essence(r: &Report) -> Vec<(String, String, u32, String, String)> {
        let mut v: Vec<_> = r
            .bugs
            .iter()
            .map(|b| {
                (
                    b.key.clone(),
                    format!("{:?}", b.class),
                    b.pc,
                    b.entry.clone(),
                    format!("{:?}", b.inputs),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// Interrupt a serial campaign mid-flight via the stop flag, resume it
    /// from the checkpoint directory, and demand a report identical to the
    /// uninterrupted reference run.
    #[test]
    fn serial_interrupt_resume_matches_uninterrupted() {
        let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let reference = Ddt::default().test(&dut);

        let dir = tmp_dir("serial-eq");
        let flag = Arc::new(AtomicBool::new(false));
        let mut policy = CheckpointPolicy::new(dir.clone());
        policy.every_quanta = 8;
        let mut ddt = Ddt::default();
        ddt.config.checkpoint = Some(policy);
        ddt.config.stop_flag = Some(flag.clone());
        let setter = {
            let f = flag.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(25));
                f.store(true, Ordering::Relaxed);
            })
        };
        let partial = ddt.test(&dut);
        setter.join().unwrap();
        // Whether or not the flag won the race, the store must be loadable.
        let ck = load_latest(&dir).expect("checkpoint written");
        assert!(ck.interrupted || ck.finished);

        let resumed = Ddt::default().resume(&dut, &dir).expect("resume");
        assert_eq!(bug_essence(&resumed), bug_essence(&reference));
        assert_eq!(resumed.covered_blocks, reference.covered_blocks);
        assert_eq!(
            resumed.stats.paths_completed + resumed.stats.paths_faulted
                + resumed.stats.paths_infeasible,
            reference.stats.paths_completed + reference.stats.paths_faulted
                + reference.stats.paths_infeasible,
            "terminal path census differs after resume"
        );
        // The resumed run either replayed a frontier or rebuilt a finished
        // report; in the interrupted case it must report replay health.
        if ck.interrupted && !ck.finished {
            assert!(partial.health.checkpoints_written > 0);
            assert!(resumed.health.resume_replayed_paths > 0);
            assert_eq!(resumed.health.resume_replay_failures, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Resuming a campaign that ran to completion is a no-op rebuild: no
    /// re-exploration, same report.
    #[test]
    fn resume_after_clean_finish_is_noop() {
        let dut = DriverUnderTest::from_spec(&ddt_drivers::clean_driver());
        let dir = tmp_dir("finished");
        let mut ddt = Ddt::default();
        ddt.config.checkpoint = Some(CheckpointPolicy::new(dir.clone()));
        let full = ddt.test(&dut);
        let ck = load_latest(&dir).expect("final checkpoint");
        assert!(ck.finished, "clean run must close the campaign");

        let resumed = Ddt::default().resume(&dut, &dir).expect("resume");
        assert!(resumed.bugs.is_empty());
        assert_eq!(resumed.covered_blocks, full.covered_blocks);
        assert_eq!(resumed.stats.insns, full.stats.insns, "no-op resume re-explored");
        assert_eq!(resumed.health.resume_replayed_paths, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_missing_and_empty_dirs() {
        let dut = DriverUnderTest::from_spec(&ddt_drivers::clean_driver());
        let missing = tmp_dir("missing");
        match Ddt::default().resume(&dut, &missing) {
            Err(CampaignError::NoCheckpoint(_)) => {}
            other => panic!("expected NoCheckpoint, got {other:?}"),
        }
        let empty = tmp_dir("empty");
        std::fs::create_dir_all(&empty).unwrap();
        match Ddt::default().resume(&dut, &empty) {
            Err(CampaignError::NoCheckpoint(_)) => {}
            other => panic!("expected NoCheckpoint, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn resume_refuses_corrupt_checkpoint() {
        let dut = DriverUnderTest::from_spec(&ddt_drivers::clean_driver());
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("checkpoint-000000.ddtc"), b"DDTCgarbage").unwrap();
        match Ddt::default().resume(&dut, &dir) {
            Err(CampaignError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint taken under one configuration must not silently seed a
    /// run under another: the budgets and fault plan shape the path set.
    #[test]
    fn resume_refuses_config_mismatch() {
        let dut = DriverUnderTest::from_spec(&ddt_drivers::clean_driver());
        let dir = tmp_dir("mismatch");
        let mut ddt = Ddt::default();
        ddt.config.checkpoint = Some(CheckpointPolicy::new(dir.clone()));
        let _ = ddt.test(&dut);

        let mut other = Ddt::default();
        other.config.interrupt_budget = 0;
        match other.resume(&dut, &dir) {
            Err(CampaignError::Mismatch(_)) => {}
            other => panic!("expected Mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parallel explorer participates in campaigns too: interrupt a
    /// 4-worker run, resume it in parallel, and compare against the serial
    /// reference (key set + coverage are schedule-independent).
    #[test]
    fn parallel_interrupt_resume_matches_reference() {
        let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let reference = Ddt::default().test(&dut);

        let dir = tmp_dir("parallel-eq");
        let flag = Arc::new(AtomicBool::new(false));
        let mut policy = CheckpointPolicy::new(dir.clone());
        policy.every_quanta = 8;
        let mut ddt = Ddt::default();
        ddt.config.checkpoint = Some(policy);
        ddt.config.stop_flag = Some(flag.clone());
        let setter = {
            let f = flag.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(25));
                f.store(true, Ordering::Relaxed);
            })
        };
        let partial = test_parallel(&ddt, &dut, 4);
        setter.join().unwrap();
        assert!(partial.health.checkpoints_written > 0);

        let resumed = resume_parallel(&Ddt::default(), &dut, 4, &dir).expect("resume");
        let mut rk: Vec<&str> = resumed.bugs.iter().map(|b| b.key.as_str()).collect();
        let mut sk: Vec<&str> = reference.bugs.iter().map(|b| b.key.as_str()).collect();
        rk.sort_unstable();
        sk.sort_unstable();
        assert_eq!(rk, sk, "parallel resume changed the bug set");
        assert_eq!(resumed.covered_blocks, reference.covered_blocks);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
