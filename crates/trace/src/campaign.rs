//! On-disk formats for durable exploration campaigns.
//!
//! Long campaigns (coverage grows over hours — Figures 2 and 3) must
//! survive their process dying. Two artifact kinds make that possible,
//! both versioned binary formats beside the `DDTT` trace codec:
//!
//! - the **write-ahead journal** (`DDTJ`): an append-only log with one
//!   framed record per completed path (terminal status, new bug keys) and
//!   per fork decision. Each record carries its own FNV-1a checksum, so a
//!   torn tail — the normal result of `SIGKILL` mid-append — is detected
//!   and recovery keeps every complete prefix record;
//! - the **frontier checkpoint** (`DDTC`): a self-contained snapshot of
//!   the campaign — consumed budgets, aggregate statistics, the bug map,
//!   coverage, and each pending `Machine` serialized as its
//!   decision-schedule prefix (a compressed log of fork-site picks) plus a
//!   fingerprint to validate the reconstruction. Whole-file checksum;
//!   writers publish via temp-file + `fsync` + atomic rename.
//!
//! A checkpoint is tiny compared to the states it describes because every
//! `Machine` is reproducible by re-executing from the root and steering
//! each nondeterministic fork site with the recorded pick — the same
//! determinism the replay layer already relies on.
//!
//! Aggregates that already have a stable serde representation in
//! `ddt-core` (the stats and bug structures) travel as embedded JSON
//! byte-sections; this module treats them as opaque payloads, which also
//! keeps re-encoding byte-canonical.

use crate::signature::fnv1a64;
use crate::wire::{put_bytes, put_str, put_varint, Cursor, DecodeError};

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DDTC";
/// Magic prefix of a journal file.
pub const JOURNAL_MAGIC: [u8; 4] = *b"DDTJ";
/// Current campaign format version (shared by both artifacts).
///
/// v2: frontier records carry the search metadata (`cov_fresh`,
/// `cov_stamp`) that `coverage-new-first` ranks by, and checkpoints carry
/// the structural-fingerprint prune set.
///
/// v3 added a deferred-verdict flag to frontier records.
///
/// v4: the flag is gone again. Every branch child is decided at its fork
/// site, so no frontier machine owes a verdict.
///
/// The prune set went with structural pruning, inside v4: its count is
/// still written, always as 0, and the decoder refuses any other count,
/// which only a campaign run with the removed `--prune` wrote.
pub const CAMPAIGN_VERSION: u64 = 4;

/// The kinds of nondeterministic fork sites the exploration visits, in the
/// vocabulary of the choice log. Every site is machine-local (its firing
/// condition never depends on worklist capacity or scheduling), which is
/// what makes a recorded pick sequence replayable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SiteKind {
    /// Multi-way address resolution parked alternatives on the state.
    PendingFork = 0,
    /// The interpreter forked at a symbolic branch or division.
    BranchFork = 1,
    /// The failed-allocation alternative of an acquisition call.
    AllocFail = 2,
    /// A systematic fault-plan injection alternative.
    FaultInject = 3,
    /// Concretization backtracking re-issues a kernel call.
    Backtrack = 4,
    /// A symbolic interrupt fires at this kernel/driver boundary.
    Interrupt = 5,
    /// A device-lifecycle event (removal/power) fires at this boundary.
    Lifecycle = 6,
}

impl SiteKind {
    /// Decodes a site kind from its wire byte.
    pub fn from_u8(b: u8) -> Option<SiteKind> {
        Some(match b {
            0 => SiteKind::PendingFork,
            1 => SiteKind::BranchFork,
            2 => SiteKind::AllocFail,
            3 => SiteKind::FaultInject,
            4 => SiteKind::Backtrack,
            5 => SiteKind::Interrupt,
            6 => SiteKind::Lifecycle,
            _ => return None,
        })
    }
}

/// One materialized entry of a machine's choice log: after `skips` sites at
/// which the ancestor stayed on the parent side, a site of kind `kind`
/// fired and the machine's ancestor took child alternative `pick`
/// (1-based; pick 0 — staying parent — is what the skip run-lengths
/// compress away).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathPick {
    /// Fork sites skipped (parent side taken) before this pick.
    pub skips: u64,
    /// The kind of site at which the child was taken.
    pub kind: SiteKind,
    /// Which alternative was taken (1-based).
    pub pick: u32,
}

/// Validation fingerprint of a reconstructed machine. Replaying a frontier
/// record must land exactly here; any mismatch marks the record as failed
/// (counted in run health) instead of silently exploring a wrong state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MachineFingerprint {
    /// Program counter.
    pub pc: u32,
    /// Kernel calls made on the path.
    pub kernel_calls: u64,
    /// Kernel/driver boundary crossings on the path.
    pub boundaries: u64,
    /// Next workload operation index.
    pub workload_pos: u64,
    /// Remaining symbolic-interrupt injections.
    pub interrupt_budget: u32,
    /// Invocation stack depth.
    pub frames: u32,
    /// FNV-1a over the JSON of the decision schedule.
    pub decisions_fnv: u64,
}

/// One pending machine, serialized as its decision-schedule prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierRecord {
    /// Machine id (diagnostics; reassigned stably on resume).
    pub id: u64,
    /// Steps executed by the exploration loop on this machine so far — the
    /// replay stop point.
    pub steps_total: u64,
    /// Fork sites skipped since the last materialized pick.
    pub trailing_skips: u64,
    /// The materialized picks, root-most first.
    pub picks: Vec<PathPick>,
    /// Validation fingerprint.
    pub fp: MachineFingerprint,
    /// New blocks the machine's minting quantum opened (search metadata;
    /// `coverage-new-first` ranks by it, replay cannot re-derive it).
    pub cov_fresh: u64,
    /// Quantum ordinal that stamped `cov_fresh`.
    pub cov_stamp: u64,
}

/// Serialized coverage state (hit counts drive the exploration heuristic,
/// so they are part of what makes a resumed serial run bit-deterministic).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CoverageRecord {
    /// Per-block hit counters, sorted by block pc.
    pub hits: Vec<(u32, u64)>,
    /// Covered block pcs, sorted.
    pub covered: Vec<u32>,
    /// Coverage timeline: (campaign milliseconds, covered blocks).
    pub timeline: Vec<(u64, u64)>,
}

/// A complete frontier checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointFile {
    /// Monotonic checkpoint sequence number within the campaign.
    pub seq: u64,
    /// Driver under test (resume refuses a mismatched target).
    pub driver: String,
    /// Fingerprint of the exploration configuration (resume refuses a
    /// mismatched configuration — it would not replay).
    pub config_fp: u64,
    /// Wall-clock milliseconds consumed so far (the resumed run continues
    /// this clock instead of restarting the budget).
    pub wall_ms: u64,
    /// Instructions consumed so far (same continuation contract).
    pub insns: u64,
    /// Next machine id to allocate.
    pub next_id: u64,
    /// The campaign ran to completion; the frontier is empty and resume is
    /// a no-op that re-renders the stored report.
    pub finished: bool,
    /// The campaign was interrupted gracefully (SIGINT) rather than killed.
    pub interrupted: bool,
    /// `ExploreStats` as JSON (opaque here; owned by `ddt-core`).
    pub stats_json: Vec<u8>,
    /// The keyed bug map as a JSON list (opaque here; owned by `ddt-core`).
    pub bugs_json: Vec<u8>,
    /// Coverage state.
    pub coverage: CoverageRecord,
    /// Every pending machine as its decision-schedule prefix.
    pub frontier: Vec<FrontierRecord>,
}

/// Terminal status of one explored path, as journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PathStatus {
    /// Workload exhausted; the path ran to completion.
    Completed = 0,
    /// Ended by a fault or crash (a bug report).
    Faulted = 1,
    /// Killed as infeasible.
    Infeasible = 2,
    /// Killed by the per-invocation budget.
    BudgetKilled = 3,
    /// The quantum panicked; the state was discarded (run health incident).
    Panicked = 4,
    /// Killed by the whole-path step budget (a potential driver hang).
    StepBudgetExceeded = 5,
}

impl PathStatus {
    fn from_u8(b: u8) -> Option<PathStatus> {
        Some(match b {
            0 => PathStatus::Completed,
            1 => PathStatus::Faulted,
            2 => PathStatus::Infeasible,
            3 => PathStatus::BudgetKilled,
            4 => PathStatus::Panicked,
            5 => PathStatus::StepBudgetExceeded,
            _ => return None,
        })
    }
}

/// One write-ahead journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// Campaign start marker.
    Started {
        /// Driver under test.
        driver: String,
        /// Configuration fingerprint.
        config_fp: u64,
    },
    /// One path reached a terminal status.
    PathDone {
        /// Machine id.
        machine: u64,
        /// How the path ended.
        status: PathStatus,
        /// Exploration steps the machine had executed.
        steps: u64,
        /// Bug keys first recorded on this path's final quantum.
        new_bugs: Vec<String>,
    },
    /// One fork decision created a child state.
    Forked {
        /// Parent machine id.
        parent: u64,
        /// Child machine id.
        child: u64,
        /// The site kind that forked.
        kind: SiteKind,
    },
    /// A frontier checkpoint was published.
    Checkpoint {
        /// Its sequence number.
        seq: u64,
        /// Pending machines it captured.
        frontier: u64,
    },
    /// The campaign was interrupted gracefully.
    Interrupted,
    /// The campaign ran to completion.
    Finished {
        /// Distinct bug keys at completion.
        distinct_bugs: u64,
    },
}

// ---------------------------------------------------------------------------
// Shared sub-codecs: frontier records and coverage travel both inside
// checkpoints and inside fleet protocol frames.

/// Encodes one frontier record (choice-log prefix + fingerprint).
pub(crate) fn put_frontier_record(out: &mut Vec<u8>, rec: &FrontierRecord) {
    put_varint(out, rec.id);
    put_varint(out, rec.steps_total);
    put_varint(out, rec.trailing_skips);
    put_varint(out, rec.picks.len() as u64);
    for p in &rec.picks {
        put_varint(out, p.skips);
        out.push(p.kind as u8);
        put_varint(out, p.pick as u64);
    }
    put_varint(out, rec.fp.pc as u64);
    put_varint(out, rec.fp.kernel_calls);
    put_varint(out, rec.fp.boundaries);
    put_varint(out, rec.fp.workload_pos);
    put_varint(out, rec.fp.interrupt_budget as u64);
    put_varint(out, rec.fp.frames as u64);
    out.extend_from_slice(&rec.fp.decisions_fnv.to_le_bytes());
    put_varint(out, rec.cov_fresh);
    put_varint(out, rec.cov_stamp);
}

/// Decodes one frontier record.
pub(crate) fn read_frontier_record(c: &mut Cursor<'_>) -> Result<FrontierRecord, DecodeError> {
    let id = c.varint()?;
    let steps_total = c.varint()?;
    let trailing_skips = c.varint()?;
    let npicks = c.count()?;
    let mut picks = Vec::with_capacity(npicks);
    for _ in 0..npicks {
        let skips = c.varint()?;
        let kb = c.byte()?;
        let Some(kind) = SiteKind::from_u8(kb) else {
            return c.err(format!("unknown site kind {kb}"));
        };
        let pick = c.varint()? as u32;
        picks.push(PathPick { skips, kind, pick });
    }
    let fp = MachineFingerprint {
        pc: c.varint()? as u32,
        kernel_calls: c.varint()?,
        boundaries: c.varint()?,
        workload_pos: c.varint()?,
        interrupt_budget: c.varint()? as u32,
        frames: c.varint()? as u32,
        decisions_fnv: c.u64_le()?,
    };
    let cov_fresh = c.varint()?;
    let cov_stamp = c.varint()?;
    Ok(FrontierRecord { id, steps_total, trailing_skips, picks, fp, cov_fresh, cov_stamp })
}

/// Encodes a coverage record (hits + covered set + timeline).
pub(crate) fn put_coverage(out: &mut Vec<u8>, cov: &CoverageRecord) {
    put_varint(out, cov.hits.len() as u64);
    for &(pc, n) in &cov.hits {
        put_varint(out, pc as u64);
        put_varint(out, n);
    }
    put_varint(out, cov.covered.len() as u64);
    for &pc in &cov.covered {
        put_varint(out, pc as u64);
    }
    put_varint(out, cov.timeline.len() as u64);
    for &(ms, blocks) in &cov.timeline {
        put_varint(out, ms);
        put_varint(out, blocks);
    }
}

/// Decodes a coverage record.
pub(crate) fn read_coverage(c: &mut Cursor<'_>) -> Result<CoverageRecord, DecodeError> {
    let nhits = c.count()?;
    let mut hits = Vec::with_capacity(nhits);
    for _ in 0..nhits {
        let pc = c.varint()? as u32;
        let n = c.varint()?;
        hits.push((pc, n));
    }
    let ncov = c.count()?;
    let mut covered = Vec::with_capacity(ncov);
    for _ in 0..ncov {
        covered.push(c.varint()? as u32);
    }
    let ntl = c.count()?;
    let mut timeline = Vec::with_capacity(ntl);
    for _ in 0..ntl {
        let ms = c.varint()?;
        let blocks = c.varint()?;
        timeline.push((ms, blocks));
    }
    Ok(CoverageRecord { hits, covered, timeline })
}

// ---------------------------------------------------------------------------
// Checkpoint encoding.

/// Encodes a checkpoint file (magic + version + body + whole-file FNV-1a).
pub fn encode_checkpoint(ck: &CheckpointFile) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    put_varint(&mut out, CAMPAIGN_VERSION);
    put_varint(&mut out, ck.seq);
    put_str(&mut out, &ck.driver);
    put_varint(&mut out, ck.config_fp);
    put_varint(&mut out, ck.wall_ms);
    put_varint(&mut out, ck.insns);
    put_varint(&mut out, ck.next_id);
    out.push(u8::from(ck.finished) | (u8::from(ck.interrupted) << 1));
    put_bytes(&mut out, &ck.stats_json);
    put_bytes(&mut out, &ck.bugs_json);
    put_coverage(&mut out, &ck.coverage);
    put_varint(&mut out, ck.frontier.len() as u64);
    for rec in &ck.frontier {
        put_frontier_record(&mut out, rec);
    }
    // The count of the removed prune set (see `CAMPAIGN_VERSION`).
    put_varint(&mut out, 0);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes and fully validates a checkpoint file (magic, version, checksum,
/// no trailing bytes).
pub fn decode_checkpoint(data: &[u8]) -> Result<CheckpointFile, DecodeError> {
    if data.len() < 12 {
        return Err(DecodeError { offset: 0, message: "checkpoint too short".into() });
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(DecodeError {
            offset: body.len(),
            message: "checkpoint checksum mismatch (torn or corrupt file)".into(),
        });
    }
    let mut c = Cursor::new(body);
    if c.take(4)? != CHECKPOINT_MAGIC {
        return c.err("bad magic (not a DDTC checkpoint)");
    }
    let version = c.varint()?;
    if version != CAMPAIGN_VERSION {
        return c.err(format!("unsupported checkpoint version {version}"));
    }
    let seq = c.varint()?;
    let driver = c.string()?;
    let config_fp = c.varint()?;
    let wall_ms = c.varint()?;
    let insns = c.varint()?;
    let next_id = c.varint()?;
    let flags = c.byte()?;
    let stats_json = c.bytes()?;
    let bugs_json = c.bytes()?;
    let coverage = read_coverage(&mut c)?;
    let nfront = c.count()?;
    let mut frontier = Vec::with_capacity(nfront);
    for _ in 0..nfront {
        frontier.push(read_frontier_record(&mut c)?);
    }
    let nseen = c.varint()?;
    if nseen != 0 {
        return c.err(format!(
            "checkpoint holds {nseen} prune-set entries: written with the removed `--prune`"
        ));
    }
    if !c.done() {
        return c.err("trailing bytes after checkpoint body");
    }
    Ok(CheckpointFile {
        seq,
        driver,
        config_fp,
        wall_ms,
        insns,
        next_id,
        finished: flags & 1 != 0,
        interrupted: flags & 2 != 0,
        stats_json,
        bugs_json,
        coverage,
        frontier,
    })
}

// ---------------------------------------------------------------------------
// Journal encoding.

/// Encodes the journal file header (written once, at campaign start).
pub fn encode_journal_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&JOURNAL_MAGIC);
    put_varint(&mut out, CAMPAIGN_VERSION);
    out
}

fn encode_record_payload(rec: &JournalRecord) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    match rec {
        JournalRecord::Started { driver, config_fp } => {
            p.push(0);
            put_str(&mut p, driver);
            put_varint(&mut p, *config_fp);
        }
        JournalRecord::PathDone { machine, status, steps, new_bugs } => {
            p.push(1);
            put_varint(&mut p, *machine);
            p.push(*status as u8);
            put_varint(&mut p, *steps);
            put_varint(&mut p, new_bugs.len() as u64);
            for k in new_bugs {
                put_str(&mut p, k);
            }
        }
        JournalRecord::Forked { parent, child, kind } => {
            p.push(2);
            put_varint(&mut p, *parent);
            put_varint(&mut p, *child);
            p.push(*kind as u8);
        }
        JournalRecord::Checkpoint { seq, frontier } => {
            p.push(3);
            put_varint(&mut p, *seq);
            put_varint(&mut p, *frontier);
        }
        JournalRecord::Interrupted => p.push(4),
        JournalRecord::Finished { distinct_bugs } => {
            p.push(5);
            put_varint(&mut p, *distinct_bugs);
        }
    }
    p
}

/// Encodes one framed journal record: varint payload length, payload,
/// FNV-1a checksum of the payload (8 bytes, little-endian).
pub fn encode_journal_record(rec: &JournalRecord) -> Vec<u8> {
    let payload = encode_record_payload(rec);
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_varint(&mut out, payload.len() as u64);
    let sum = fnv1a64(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn decode_record_payload(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
    let mut c = Cursor::new(payload);
    let rec = match c.byte()? {
        0 => JournalRecord::Started { driver: c.string()?, config_fp: c.varint()? },
        1 => {
            let machine = c.varint()?;
            let sb = c.byte()?;
            let Some(status) = PathStatus::from_u8(sb) else {
                return c.err(format!("unknown path status {sb}"));
            };
            let steps = c.varint()?;
            let n = c.count()?;
            let mut new_bugs = Vec::with_capacity(n);
            for _ in 0..n {
                new_bugs.push(c.string()?);
            }
            JournalRecord::PathDone { machine, status, steps, new_bugs }
        }
        2 => {
            let parent = c.varint()?;
            let child = c.varint()?;
            let kb = c.byte()?;
            let Some(kind) = SiteKind::from_u8(kb) else {
                return c.err(format!("unknown site kind {kb}"));
            };
            JournalRecord::Forked { parent, child, kind }
        }
        3 => JournalRecord::Checkpoint { seq: c.varint()?, frontier: c.varint()? },
        4 => JournalRecord::Interrupted,
        5 => JournalRecord::Finished { distinct_bugs: c.varint()? },
        t => return c.err(format!("unknown journal record tag {t}")),
    };
    if !c.done() {
        return c.err("trailing bytes in journal record payload");
    }
    Ok(rec)
}

/// Result of reading back a journal file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalReplay {
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// False when the file ends in a torn or corrupt tail (recovery kept
    /// the complete prefix; the tail bytes were discarded).
    pub clean: bool,
}

/// Decodes a journal file. A bad header is an error; a torn or corrupt
/// tail is *not* — recovery keeps every complete prefix record and reports
/// `clean: false`.
pub fn decode_journal(data: &[u8]) -> Result<JournalReplay, DecodeError> {
    let mut c = Cursor::new(data);
    if c.take(4).map_err(|_| DecodeError {
        offset: 0,
        message: "journal too short for header".into(),
    })? != JOURNAL_MAGIC
    {
        return Err(DecodeError { offset: 0, message: "bad magic (not a DDTJ journal)".into() });
    }
    let version = c.varint()?;
    if version != CAMPAIGN_VERSION {
        return Err(DecodeError {
            offset: c.pos,
            message: format!("unsupported journal version {version}"),
        });
    }
    let mut records = Vec::new();
    loop {
        if c.done() {
            return Ok(JournalReplay { records, clean: true });
        }
        let frame_start = c.pos;
        let torn = |records: Vec<JournalRecord>| Ok(JournalReplay { records, clean: false });
        let Ok(len) = c.varint() else { return torn(records) };
        let Ok(payload) = c.take(len as usize) else { return torn(records) };
        let Ok(stored) = c.u64_le() else { return torn(records) };
        if fnv1a64(payload) != stored {
            return torn(records);
        }
        match decode_record_payload(payload) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                return Err(DecodeError {
                    offset: frame_start + e.offset,
                    message: format!("corrupt journal record: {}", e.message),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> CheckpointFile {
        CheckpointFile {
            seq: 7,
            driver: "rtl8029".into(),
            config_fp: 0xdead_beef_1234,
            wall_ms: 1500,
            insns: 123_456,
            next_id: 99,
            finished: false,
            interrupted: true,
            stats_json: br#"{"paths_started":12}"#.to_vec(),
            bugs_json: b"[]".to_vec(),
            coverage: CoverageRecord {
                hits: vec![(0x40_0000, 3), (0x40_0010, 1)],
                covered: vec![0x40_0000, 0x40_0010],
                timeline: vec![(10, 1), (20, 2)],
            },
            frontier: vec![FrontierRecord {
                id: 5,
                steps_total: 4096,
                trailing_skips: 3,
                picks: vec![
                    PathPick { skips: 2, kind: SiteKind::BranchFork, pick: 1 },
                    PathPick { skips: 0, kind: SiteKind::Interrupt, pick: 1 },
                    PathPick { skips: 17, kind: SiteKind::PendingFork, pick: 2 },
                ],
                fp: MachineFingerprint {
                    pc: 0x40_0020,
                    kernel_calls: 31,
                    boundaries: 8,
                    workload_pos: 3,
                    interrupt_budget: 0,
                    frames: 1,
                    decisions_fnv: 0x1122_3344_5566_7788,
                },
                cov_fresh: 2,
                cov_stamp: 17,
            }],
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let ck = sample_checkpoint();
        let bytes = encode_checkpoint(&ck);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(encode_checkpoint(&back), bytes, "re-encode is canonical");
    }

    #[test]
    fn checkpoint_detects_corruption_and_truncation() {
        let bytes = encode_checkpoint(&sample_checkpoint());
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert!(decode_checkpoint(&flipped).is_err(), "bit flip accepted");
    }

    #[test]
    fn checkpoint_with_a_prune_set_is_refused() {
        let mut bytes = encode_checkpoint(&sample_checkpoint());
        let body = bytes.len() - 8;
        assert_eq!(bytes[body - 1], 0, "the prune-set count closes the body");
        bytes[body - 1] = 2;
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(err.message.contains("removed `--prune`"), "{err}");
    }

    #[test]
    fn journal_roundtrips_and_recovers_torn_tail() {
        let records = vec![
            JournalRecord::Started { driver: "pcnet".into(), config_fp: 42 },
            JournalRecord::Forked { parent: 1, child: 2, kind: SiteKind::AllocFail },
            JournalRecord::PathDone {
                machine: 2,
                status: PathStatus::Faulted,
                steps: 300,
                new_bugs: vec!["leak:pool".into(), "segv:7".into()],
            },
            JournalRecord::Checkpoint { seq: 1, frontier: 4 },
            JournalRecord::Interrupted,
            JournalRecord::Finished { distinct_bugs: 2 },
        ];
        let mut bytes = encode_journal_header();
        for r in &records {
            bytes.extend_from_slice(&encode_journal_record(r));
        }
        let replay = decode_journal(&bytes).unwrap();
        assert!(replay.clean);
        assert_eq!(replay.records, records);
        // A torn tail (partial final record) keeps the complete prefix.
        let torn = &bytes[..bytes.len() - 3];
        let replay = decode_journal(torn).unwrap();
        assert!(!replay.clean);
        assert_eq!(replay.records, records[..records.len() - 1]);
    }

    #[test]
    fn journal_bad_header_is_an_error() {
        assert!(decode_journal(b"").is_err());
        assert!(decode_journal(b"NOPE\x01").is_err());
    }
}
