//! The campaign-fleet wire protocol and quarantine records (§6.1's
//! distributed extension).
//!
//! A `ddt serve` supervisor shards a bootstrapped frontier across `ddt
//! worker` subprocesses. Everything crossing the pipe is a [`FleetFrame`],
//! framed exactly like a journal record: varint payload length, payload,
//! FNV-1a checksum of the payload. The checksum matters more here than in
//! the journal — a worker that dies mid-`write` leaves a torn frame on the
//! pipe, and the supervisor must classify that as a worker crash (lease
//! reassignment) rather than misparse the stream.
//!
//! The lease unit is a [`FrontierRecord`]: the decision-prefix encoding the
//! checkpoint format already uses. A shard that exhausts its retry budget is
//! not lost — it is written into the trace store as a `DDTQ` **quarantine
//! record** ([`QuarantineRecord`]), preserving the exact prefix for offline
//! reproduction of whatever kept killing workers.

use std::io::Read;

use crate::campaign::{
    put_coverage, put_frontier_record, read_coverage, read_frontier_record, CoverageRecord,
    FrontierRecord,
};
use crate::signature::fnv1a64;
use crate::wire::{put_bytes, put_str, put_varint, Cursor, DecodeError};

/// Magic prefix of a quarantine record file.
pub const QUARANTINE_MAGIC: [u8; 4] = *b"DDTQ";
/// Fleet protocol version (refused on mismatch at `Hello`).
///
/// v2 carried campaign v3 frontier records (with a deferred-verdict flag).
///
/// v3: lease frames carry campaign v4 frontier records, without the flag.
pub const FLEET_VERSION: u64 = 3;

/// One message of the supervisor↔worker pipe protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetFrame {
    /// Worker → supervisor: first frame after spawn. The supervisor kills
    /// workers whose protocol version, configuration fingerprint, or driver
    /// disagree — a mismatched worker would explore a different tree.
    Hello {
        /// Worker id (assigned by the supervisor via the command line).
        worker: u64,
        /// Worker process id (diagnostics; 0 for in-process test workers).
        pid: u64,
        /// Protocol version.
        version: u64,
        /// `DdtConfig::fingerprint()` as the worker computed it.
        config_fp: u64,
        /// Driver under test.
        driver: String,
    },
    /// Supervisor → worker: lease one shard. `attempt` counts reassignments
    /// (1 = first grant) and is echoed back so a stale completion from a
    /// revoked lease can be told apart from the live one.
    Grant {
        /// Shard id.
        shard: u64,
        /// Lease attempt number (1-based).
        attempt: u32,
        /// The decision prefix to replay and explore.
        record: FrontierRecord,
    },
    /// Supervisor → worker: yield up to `max` queued (not yet started)
    /// shards back for rebalancing.
    Steal {
        /// Maximum shards to yield.
        max: u64,
    },
    /// Worker → supervisor: queued shards given back (ids only; the
    /// supervisor still holds every record it granted).
    Yielded {
        /// Shard ids returned, in queue order.
        shards: Vec<u64>,
    },
    /// Worker → supervisor: liveness + progress. `insns`/`quanta` are
    /// monotone process-lifetime counters: a worker stuck inside one
    /// quantum keeps its heartbeat thread silent (heartbeats are sent
    /// between quanta), so "frames arrive but the counters froze" and "no
    /// frames at all" both trip the supervisor's hang watchdog.
    Heartbeat {
        /// Instructions executed since the worker started.
        insns: u64,
        /// Quanta completed since the worker started.
        quanta: u64,
        /// The shard currently being explored, if any.
        active: Option<u64>,
        /// Shards granted but not yet started.
        queued: u64,
        /// Shards completed by this worker.
        done: u64,
        /// Blocks newly covered since the last heartbeat (coverage delta).
        new_blocks: u64,
    },
    /// Worker → supervisor: one shard fully explored. Stats and bugs
    /// travel as the same opaque JSON payloads the checkpoint format uses.
    ShardDone {
        /// Shard id.
        shard: u64,
        /// The lease attempt this completion belongs to.
        attempt: u32,
        /// `ExploreStats` delta for the shard subtree, as JSON.
        stats_json: Vec<u8>,
        /// Key-sorted bug list for the shard subtree, as JSON.
        bugs_json: Vec<u8>,
        /// Coverage delta (hits + covered; timeline left empty).
        coverage: CoverageRecord,
    },
    /// Worker → supervisor: a shard failed deterministically (replay
    /// divergence, fingerprint mismatch, panic). Counts against the
    /// shard's retry budget just like a worker death.
    ShardFailed {
        /// Shard id.
        shard: u64,
        /// The lease attempt that failed.
        attempt: u32,
        /// Human-readable cause.
        why: String,
    },
    /// Supervisor → worker: finish the active shard, then exit cleanly.
    Shutdown,
}

fn encode_payload(f: &FleetFrame) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    match f {
        FleetFrame::Hello { worker, pid, version, config_fp, driver } => {
            p.push(0);
            put_varint(&mut p, *worker);
            put_varint(&mut p, *pid);
            put_varint(&mut p, *version);
            put_varint(&mut p, *config_fp);
            put_str(&mut p, driver);
        }
        FleetFrame::Grant { shard, attempt, record } => {
            p.push(1);
            put_varint(&mut p, *shard);
            put_varint(&mut p, *attempt as u64);
            put_frontier_record(&mut p, record);
        }
        FleetFrame::Steal { max } => {
            p.push(2);
            put_varint(&mut p, *max);
        }
        FleetFrame::Yielded { shards } => {
            p.push(3);
            put_varint(&mut p, shards.len() as u64);
            for s in shards {
                put_varint(&mut p, *s);
            }
        }
        FleetFrame::Heartbeat { insns, quanta, active, queued, done, new_blocks } => {
            p.push(4);
            put_varint(&mut p, *insns);
            put_varint(&mut p, *quanta);
            match active {
                Some(s) => {
                    p.push(1);
                    put_varint(&mut p, *s);
                }
                None => p.push(0),
            }
            put_varint(&mut p, *queued);
            put_varint(&mut p, *done);
            put_varint(&mut p, *new_blocks);
        }
        FleetFrame::ShardDone { shard, attempt, stats_json, bugs_json, coverage } => {
            p.push(5);
            put_varint(&mut p, *shard);
            put_varint(&mut p, *attempt as u64);
            put_bytes(&mut p, stats_json);
            put_bytes(&mut p, bugs_json);
            put_coverage(&mut p, coverage);
        }
        FleetFrame::ShardFailed { shard, attempt, why } => {
            p.push(6);
            put_varint(&mut p, *shard);
            put_varint(&mut p, *attempt as u64);
            put_str(&mut p, why);
        }
        FleetFrame::Shutdown => p.push(7),
    }
    p
}

fn decode_payload(payload: &[u8]) -> Result<FleetFrame, DecodeError> {
    let mut c = Cursor::new(payload);
    let frame = match c.byte()? {
        0 => FleetFrame::Hello {
            worker: c.varint()?,
            pid: c.varint()?,
            version: c.varint()?,
            config_fp: c.varint()?,
            driver: c.string()?,
        },
        1 => {
            let shard = c.varint()?;
            let attempt = c.varint()? as u32;
            let record = read_frontier_record(&mut c)?;
            FleetFrame::Grant { shard, attempt, record }
        }
        2 => FleetFrame::Steal { max: c.varint()? },
        3 => {
            let n = c.count()?;
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                shards.push(c.varint()?);
            }
            FleetFrame::Yielded { shards }
        }
        4 => {
            let insns = c.varint()?;
            let quanta = c.varint()?;
            let active = match c.byte()? {
                0 => None,
                _ => Some(c.varint()?),
            };
            FleetFrame::Heartbeat {
                insns,
                quanta,
                active,
                queued: c.varint()?,
                done: c.varint()?,
                new_blocks: c.varint()?,
            }
        }
        5 => {
            let shard = c.varint()?;
            let attempt = c.varint()? as u32;
            let stats_json = c.bytes()?;
            let bugs_json = c.bytes()?;
            let coverage = read_coverage(&mut c)?;
            FleetFrame::ShardDone { shard, attempt, stats_json, bugs_json, coverage }
        }
        6 => FleetFrame::ShardFailed {
            shard: c.varint()?,
            attempt: c.varint()? as u32,
            why: c.string()?,
        },
        7 => FleetFrame::Shutdown,
        t => return c.err(format!("unknown fleet frame tag {t}")),
    };
    if !c.done() {
        return c.err("trailing bytes in fleet frame payload");
    }
    Ok(frame)
}

/// Encodes one framed protocol message: varint payload length, payload,
/// FNV-1a checksum of the payload (8 bytes, little-endian).
pub fn encode_frame(f: &FleetFrame) -> Vec<u8> {
    let payload = encode_payload(f);
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_varint(&mut out, payload.len() as u64);
    let sum = fnv1a64(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a frame from a complete `length‖payload‖checksum` byte string
/// (testing and buffer-replay convenience; streams use [`read_frame`]).
pub fn decode_frame(data: &[u8]) -> Result<FleetFrame, DecodeError> {
    let mut c = Cursor::new(data);
    let len = c.varint()? as usize;
    let payload = c.take(len)?.to_vec();
    let stored = c.u64_le()?;
    if fnv1a64(&payload) != stored {
        return Err(DecodeError { offset: c.pos, message: "fleet frame checksum mismatch".into() });
    }
    if !c.done() {
        return Err(DecodeError { offset: c.pos, message: "trailing bytes after frame".into() });
    }
    decode_payload(&payload)
}

/// Reads one frame from a blocking byte stream.
///
/// - `Ok(Some(frame))` — a complete, checksum-valid frame;
/// - `Ok(None)` — clean end of stream (EOF exactly on a frame boundary);
/// - `Err(..)` — a torn tail (EOF mid-frame), a checksum mismatch, or a
///   malformed payload. The peer is dead or corrupt either way; the caller
///   treats all three identically (worker lost → lease reassignment).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<FleetFrame>> {
    // Varint length, byte at a time; EOF on the *first* byte is clean.
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        match r.read(&mut b) {
            Ok(0) if shift == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "torn fleet frame (EOF in length)",
                ))
            }
            Ok(_) => {
                if shift >= 64 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "fleet frame length varint overflows",
                    ));
                }
                len |= u64::from(b[0] & 0x7f) << shift;
                if b[0] & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if len > (1 << 30) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("fleet frame length {len} is implausible"),
        ));
    }
    // The payload grows as its bytes arrive: a length prefix alone
    // reserves nothing.
    let mut payload = Vec::new();
    r.by_ref().take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "torn fleet frame (EOF in payload)",
        ));
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if fnv1a64(&payload) != u64::from_le_bytes(sum) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "fleet frame checksum mismatch",
        ));
    }
    decode_payload(&payload)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// A shard that exhausted its lease retries, preserved for offline triage
/// instead of silently dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Shard id within the campaign.
    pub shard: u64,
    /// Driver under test.
    pub driver: String,
    /// Configuration fingerprint (replaying the prefix needs the flags).
    pub config_fp: u64,
    /// Lease attempts consumed before quarantine.
    pub attempts: u32,
    /// Why the final attempt died (watchdog verdict or worker report).
    pub last_error: String,
    /// The decision prefix itself — everything needed to reproduce the
    /// pathological subtree in isolation.
    pub record: FrontierRecord,
}

/// Encodes a quarantine record file (magic + version + body + FNV-1a).
pub fn encode_quarantine(q: &QuarantineRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&QUARANTINE_MAGIC);
    put_varint(&mut out, FLEET_VERSION);
    put_varint(&mut out, q.shard);
    put_str(&mut out, &q.driver);
    put_varint(&mut out, q.config_fp);
    put_varint(&mut out, q.attempts as u64);
    put_str(&mut out, &q.last_error);
    put_frontier_record(&mut out, &q.record);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes and fully validates a quarantine record file.
pub fn decode_quarantine(data: &[u8]) -> Result<QuarantineRecord, DecodeError> {
    if data.len() < 12 {
        return Err(DecodeError { offset: 0, message: "quarantine record too short".into() });
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(DecodeError {
            offset: body.len(),
            message: "quarantine checksum mismatch (torn or corrupt file)".into(),
        });
    }
    let mut c = Cursor::new(body);
    if c.take(4)? != QUARANTINE_MAGIC {
        return c.err("bad magic (not a DDTQ quarantine record)");
    }
    let version = c.varint()?;
    if version != FLEET_VERSION {
        return c.err(format!("unsupported quarantine version {version}"));
    }
    let shard = c.varint()?;
    let driver = c.string()?;
    let config_fp = c.varint()?;
    let attempts = c.varint()? as u32;
    let last_error = c.string()?;
    let record = read_frontier_record(&mut c)?;
    if !c.done() {
        return c.err("trailing bytes after quarantine body");
    }
    Ok(QuarantineRecord { shard, driver, config_fp, attempts, last_error, record })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{MachineFingerprint, PathPick, SiteKind};

    fn sample_record() -> FrontierRecord {
        FrontierRecord {
            id: 17,
            steps_total: 9000,
            trailing_skips: 2,
            picks: vec![
                PathPick { skips: 4, kind: SiteKind::AllocFail, pick: 1 },
                PathPick { skips: 0, kind: SiteKind::BranchFork, pick: 1 },
            ],
            fp: MachineFingerprint {
                pc: 0x40_0040,
                kernel_calls: 12,
                boundaries: 5,
                workload_pos: 2,
                interrupt_budget: 1,
                frames: 1,
                decisions_fnv: 0xfeed_f00d,
            },
            cov_fresh: 1,
            cov_stamp: 40,
        }
    }

    fn sample_frames() -> Vec<FleetFrame> {
        vec![
            FleetFrame::Hello {
                worker: 3,
                pid: 4242,
                version: FLEET_VERSION,
                config_fp: 0xabcd,
                driver: "pcnet".into(),
            },
            FleetFrame::Grant { shard: 7, attempt: 2, record: sample_record() },
            FleetFrame::Steal { max: 3 },
            FleetFrame::Yielded { shards: vec![9, 11] },
            FleetFrame::Heartbeat {
                insns: 123_456,
                quanta: 88,
                active: Some(7),
                queued: 2,
                done: 5,
                new_blocks: 3,
            },
            FleetFrame::Heartbeat {
                insns: 1,
                quanta: 1,
                active: None,
                queued: 0,
                done: 0,
                new_blocks: 0,
            },
            FleetFrame::ShardDone {
                shard: 7,
                attempt: 2,
                stats_json: br#"{"paths_started":4}"#.to_vec(),
                bugs_json: b"[]".to_vec(),
                coverage: CoverageRecord {
                    hits: vec![(0x40_0000, 9)],
                    covered: vec![0x40_0000],
                    timeline: vec![],
                },
            },
            FleetFrame::ShardFailed { shard: 8, attempt: 1, why: "fingerprint mismatch".into() },
            FleetFrame::Shutdown,
        ]
    }

    #[test]
    fn frames_roundtrip() {
        for f in sample_frames() {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f, "frame {f:?}");
        }
    }

    #[test]
    fn stream_reads_back_to_back_frames() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut r = std::io::Cursor::new(stream);
        let mut back = Vec::new();
        while let Some(f) = read_frame(&mut r).unwrap() {
            back.push(f);
        }
        assert_eq!(back, frames);
    }

    #[test]
    fn torn_and_corrupt_streams_error_cleanly() {
        let bytes = encode_frame(&FleetFrame::Grant {
            shard: 1,
            attempt: 1,
            record: sample_record(),
        });
        // Truncation at every interior offset is a hard error, not a parse.
        for cut in 1..bytes.len() {
            let mut r = std::io::Cursor::new(bytes[..cut].to_vec());
            assert!(read_frame(&mut r).is_err(), "cut at {cut} accepted");
        }
        // EOF exactly on the boundary is clean.
        let mut r = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut r).unwrap().is_none());
        // A flipped payload byte trips the checksum.
        let mut flipped = bytes.clone();
        flipped[3] ^= 0x20;
        let mut r = std::io::Cursor::new(flipped);
        assert!(read_frame(&mut r).is_err(), "bit flip accepted");
    }

    #[test]
    fn quarantine_roundtrips_and_rejects_corruption() {
        let q = QuarantineRecord {
            shard: 12,
            driver: "rtl8029".into(),
            config_fp: 0x1234_5678,
            attempts: 3,
            last_error: "lease deadline exceeded (no progress)".into(),
            record: sample_record(),
        };
        let bytes = encode_quarantine(&q);
        assert_eq!(decode_quarantine(&bytes).unwrap(), q);
        for cut in 0..bytes.len() {
            assert!(decode_quarantine(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
        let mut flipped = bytes.clone();
        flipped[6] ^= 0x04;
        assert!(decode_quarantine(&flipped).is_err());
    }
}
