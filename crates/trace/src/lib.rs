//! Persistent trace store for DDT bug artifacts (§3.5, §3.6).
//!
//! DDT's headline output is a *replayable execution trace per bug*: "DDT
//! takes as input a binary device driver and outputs a report of found
//! bugs, along with execution traces for each bug." This crate makes those
//! traces durable and triageable:
//!
//! - [`codec`]: a versioned, compact binary encoding of
//!   [`TraceEvent`] logs with an interned expression DAG pool,
//! - [`artifact`]: the per-bug artifact — JSON manifest
//!   ([`BugRecord`]) plus the binary event log,
//! - [`provenance`]: chains explaining which raw input (hardware
//!   register, I/O port, registry parameter, entry argument) each symbolic
//!   value at the bug site came from, and through which expression nodes
//!   (§3.6),
//! - [`signature`]: the stable trace signature (crash pc +
//!   call-ish stack + checker id + provenance roots) that identifies a bug
//!   across states and runs,
//! - [`store`]: the on-disk store (one directory per signature,
//!   atomic writes, occurrence merging),
//! - [`minimize`]: a greedy decision-schedule minimizer,
//! - [`triage`]: the deduplicated inventory `ddt triage` renders.
//!
//! [`BugClass`] and [`Decision`] live here (not in `ddt-core`) so that
//! stored artifacts are self-describing; `ddt-core` re-exports them.

mod artifact;
mod bug;
mod campaign;
mod codec;
mod fleet;
mod minimize;
mod provenance;
mod signature;
mod store;
mod triage;
mod wire;

pub use artifact::{BugRecord, TraceArtifact, MANIFEST_VERSION};
pub use bug::{BugClass, BugOrigin, Decision, LifecycleEvent};
pub use campaign::{
    decode_checkpoint, decode_journal, encode_checkpoint, encode_journal_header,
    encode_journal_record, CheckpointFile, CoverageRecord, FrontierRecord, JournalRecord,
    JournalReplay, MachineFingerprint, PathPick, PathStatus, SiteKind, CAMPAIGN_VERSION,
    CHECKPOINT_MAGIC, JOURNAL_MAGIC,
};
pub use codec::{decode_events, encode_events, TRACE_MAGIC, TRACE_VERSION};
pub use fleet::{
    decode_frame, decode_quarantine, encode_frame, encode_quarantine, read_frame, FleetFrame,
    QuarantineRecord, FLEET_VERSION, QUARANTINE_MAGIC,
};
pub use ddt_symvm::{SymOrigin, TraceEvent};
pub use minimize::{minimize_decisions, MinimizeResult};
pub use provenance::{provenance_chains, ProvenanceChain};
pub use signature::{checker_id, fnv1a64, fnv1a64_extend, signature};
pub use store::{load_artifact, StoreIndex, TraceStore, STORE_VERSION};
pub use triage::{triage, TriageSummary};
pub use wire::DecodeError;

#[cfg(test)]
mod prop_tests {
    //! Round-trip property tests (satellite: "serialize→deserialize of
    //! traces (proptest over event sequences) is lossless").

    use ddt_expr::{Expr, SymId};
    use proptest::prelude::*;

    use crate::codec::{decode_events, encode_events};
    use crate::{SymOrigin, TraceEvent};

    /// Deterministically builds an expression from a seed, exercising every
    /// node kind the codec must encode (including shapes the smart
    /// constructors would never produce on their own — the raw decoder must
    /// still reproduce whatever was stored).
    fn arb_expr(seed: u64) -> Expr {
        let x = Expr::sym(SymId((seed % 5) as u32), 32);
        let y = Expr::sym(SymId(7), 32);
        let k = Expr::constant(seed >> 3, 32);
        match seed % 11 {
            0 => k,
            1 => x.clone(),
            2 => x.not(),
            3 => x.neg(),
            4 => x.add(&k).mul(&y),
            5 => x.udiv(&k.or(&Expr::constant(1, 32))).xor(&y),
            6 => Expr::ite(&x.ult(&k), &x, &y),
            7 => x.zext(64).extract(47, 16),
            8 => x.sext(48).extract(39, 8),
            9 => x.extract(15, 0).concat(&y.extract(15, 0)),
            _ => x.slt(&y).eq(&k.ne(&Expr::constant(0, 32))),
        }
    }

    fn arb_origin(seed: u64) -> SymOrigin {
        match seed % 6 {
            0 => SymOrigin::HardwareRead { addr: (seed >> 3) as u32 },
            1 => SymOrigin::PortRead { port: (seed >> 3) as u32 & 0xffff },
            2 => SymOrigin::EntryArg { entry: format!("Entry{}", seed % 4), index: (seed % 3) as usize },
            3 => SymOrigin::Annotation { api: format!("NdisApi{}", seed % 7) },
            4 => SymOrigin::Registry { name: format!("Param{}", seed % 9) },
            _ => SymOrigin::Other,
        }
    }

    /// Deterministically builds one event from a seed, covering all twelve
    /// variants.
    fn arb_event(seed: u64) -> TraceEvent {
        let pc = (seed >> 4) as u32;
        match seed % 12 {
            0 => TraceEvent::Exec { pc },
            1 => TraceEvent::MemRead {
                pc,
                addr: (seed >> 9) as u32,
                size: 1 << (seed % 4),
                value: seed.is_multiple_of(2).then_some(seed >> 2),
            },
            2 => TraceEvent::MemWrite {
                pc,
                addr: (seed >> 9) as u32,
                size: 1 << (seed % 4),
                value: seed.is_multiple_of(3).then_some(!seed),
            },
            3 => TraceEvent::Branch {
                pc,
                taken: seed.is_multiple_of(2),
                forked: seed.is_multiple_of(3),
                constraint: arb_expr(seed >> 5),
            },
            4 => TraceEvent::SymCreate {
                id: SymId((seed % 64) as u32),
                label: format!("label-{}", seed % 17),
                origin: arb_origin(seed >> 6),
                width: [1u32, 8, 16, 32, 64][(seed % 5) as usize],
            },
            5 => TraceEvent::Concretize { pc, expr: arb_expr(seed >> 5), value: seed },
            6 => TraceEvent::KernelCall {
                export_id: (seed % 40) as u16,
                name: format!("Export{}", seed % 40),
            },
            7 => TraceEvent::KernelReturn { export_id: (seed % 40) as u16, ret: seed as u32 },
            8 => TraceEvent::EntryInvoke { name: format!("Entry{}", seed % 6), addr: pc },
            9 => TraceEvent::Interrupt { line: (seed % 16) as u8, at_pc: pc },
            10 => TraceEvent::HardwareRead { addr: (seed >> 9) as u32, id: SymId((seed % 64) as u32) },
            _ => TraceEvent::HardwareWrite {
                addr: (seed >> 9) as u32,
                value: (seed % 2 == 1).then_some(seed.rotate_left(17)),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Binary encode → decode is the identity on arbitrary event logs.
        #[test]
        fn binary_roundtrip_is_lossless(seeds in prop::collection::vec(any::<u64>(), 0..80)) {
            let events: Vec<TraceEvent> = seeds.iter().map(|&s| arb_event(s)).collect();
            let bytes = encode_events(&events);
            let back = decode_events(&bytes).unwrap();
            prop_assert_eq!(back, events);
        }

        /// A second encode of the decoded log is byte-identical — the codec
        /// is a canonical form, so stored artifacts can be re-written
        /// without churn.
        #[test]
        fn reencoding_is_stable(seeds in prop::collection::vec(any::<u64>(), 0..40)) {
            let events: Vec<TraceEvent> = seeds.iter().map(|&s| arb_event(s)).collect();
            let bytes = encode_events(&events);
            let reencoded = encode_events(&decode_events(&bytes).unwrap());
            prop_assert_eq!(reencoded, bytes);
        }

        /// Truncating an encoded log anywhere inside the payload never
        /// panics and (except at event-count boundaries that happen to
        /// parse) fails cleanly.
        #[test]
        fn truncation_never_panics(seeds in prop::collection::vec(any::<u64>(), 1..20), cut in any::<usize>()) {
            let events: Vec<TraceEvent> = seeds.iter().map(|&s| arb_event(s)).collect();
            let bytes = encode_events(&events);
            let cut = cut % bytes.len();
            let _ = decode_events(&bytes[..cut]); // Must not panic.
        }
    }
}

#[cfg(test)]
mod campaign_prop_tests {
    //! Round-trip property tests for the campaign (checkpoint + journal)
    //! codec: lossless decode, canonical re-encode, torn-tail detection
    //! with complete-prefix recovery.

    use proptest::prelude::*;

    use crate::campaign::{
        decode_checkpoint, decode_journal, encode_checkpoint, encode_journal_header,
        encode_journal_record, CheckpointFile, CoverageRecord, FrontierRecord, JournalRecord,
        MachineFingerprint, PathPick, PathStatus, SiteKind,
    };

    fn arb_site_kind(seed: u64) -> SiteKind {
        SiteKind::from_u8((seed % 6) as u8).expect("kinds 0..6 exist")
    }

    fn arb_pick(seed: u64) -> PathPick {
        PathPick {
            skips: (seed >> 8) % 1000,
            kind: arb_site_kind(seed),
            pick: 1 + (seed % 3) as u32,
        }
    }

    fn arb_frontier_record(seed: u64) -> FrontierRecord {
        FrontierRecord {
            id: seed % 4096,
            steps_total: seed.rotate_left(13) % 1_000_000,
            trailing_skips: seed % 77,
            picks: (0..(seed % 6)).map(|i| arb_pick(seed.wrapping_mul(31).wrapping_add(i))).collect(),
            fp: MachineFingerprint {
                pc: (seed >> 3) as u32,
                kernel_calls: seed % 999,
                boundaries: seed % 333,
                workload_pos: seed % 11,
                interrupt_budget: (seed % 3) as u32,
                frames: (seed % 5) as u32,
                decisions_fnv: seed.rotate_right(29),
            },
            cov_fresh: seed % 17,
            cov_stamp: seed % 5_000,
        }
    }

    fn arb_checkpoint(seed: u64, frontier_seeds: &[u64]) -> CheckpointFile {
        let mut hits: Vec<(u32, u64)> =
            (0..(seed % 9)).map(|i| ((seed >> 4) as u32 ^ (i as u32) << 8, 1 + seed % 50)).collect();
        hits.sort_unstable();
        hits.dedup_by_key(|h| h.0);
        let covered: Vec<u32> = hits.iter().map(|h| h.0).collect();
        CheckpointFile {
            seq: seed % 100,
            driver: format!("driver-{}", seed % 4),
            config_fp: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            wall_ms: seed % 1_000_000,
            insns: seed.rotate_left(7),
            next_id: seed % 10_000,
            finished: seed.is_multiple_of(5),
            interrupted: seed.is_multiple_of(7),
            stats_json: format!("{{\"paths_started\":{}}}", seed % 100).into_bytes(),
            bugs_json: if seed.is_multiple_of(2) {
                b"[]".to_vec()
            } else {
                format!("[{{\"key\":\"k{}\"}}]", seed % 9).into_bytes()
            },
            coverage: CoverageRecord {
                hits,
                covered,
                timeline: (0..(seed % 5)).map(|i| (i * 100, i + 1)).collect(),
            },
            frontier: frontier_seeds.iter().map(|&s| arb_frontier_record(s)).collect(),
        }
    }

    fn arb_journal_record(seed: u64) -> JournalRecord {
        match seed % 6 {
            0 => JournalRecord::Started {
                driver: format!("drv{}", seed % 5),
                config_fp: seed.rotate_left(11),
            },
            1 => JournalRecord::PathDone {
                machine: seed % 8192,
                status: PathStatus::Completed,
                steps: seed % 100_000,
                new_bugs: (0..(seed % 4)).map(|i| format!("bug-{}-{}", seed % 13, i)).collect(),
            },
            2 => JournalRecord::Forked {
                parent: seed % 8192,
                child: (seed >> 5) % 8192,
                kind: arb_site_kind(seed >> 2),
            },
            3 => JournalRecord::Checkpoint { seq: seed % 64, frontier: seed % 512 },
            4 => JournalRecord::Interrupted,
            _ => JournalRecord::Finished { distinct_bugs: seed % 40 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Checkpoint encode → decode is the identity, and re-encoding the
        /// decoded value is byte-identical (the format is canonical).
        #[test]
        fn checkpoint_roundtrip_lossless_and_canonical(
            seed in any::<u64>(),
            frontier_seeds in prop::collection::vec(any::<u64>(), 0..12),
        ) {
            let ck = arb_checkpoint(seed, &frontier_seeds);
            let bytes = encode_checkpoint(&ck);
            let back = decode_checkpoint(&bytes).unwrap();
            prop_assert_eq!(&back, &ck);
            prop_assert_eq!(encode_checkpoint(&back), bytes);
        }

        /// Any strict truncation of a checkpoint is rejected — the
        /// whole-file checksum makes torn checkpoint writes detectable.
        #[test]
        fn checkpoint_truncation_is_detected(
            seed in any::<u64>(),
            frontier_seeds in prop::collection::vec(any::<u64>(), 0..6),
            cut in any::<usize>(),
        ) {
            let bytes = encode_checkpoint(&arb_checkpoint(seed, &frontier_seeds));
            let cut = cut % bytes.len();
            prop_assert!(decode_checkpoint(&bytes[..cut]).is_err());
        }

        /// Journal encode → decode is the identity on arbitrary record
        /// sequences, and the replay is reported clean.
        #[test]
        fn journal_roundtrip_is_lossless(seeds in prop::collection::vec(any::<u64>(), 0..60)) {
            let records: Vec<JournalRecord> = seeds.iter().map(|&s| arb_journal_record(s)).collect();
            let mut bytes = encode_journal_header();
            for r in &records {
                bytes.extend_from_slice(&encode_journal_record(r));
            }
            let replay = decode_journal(&bytes).unwrap();
            prop_assert!(replay.clean);
            prop_assert_eq!(replay.records, records);
        }

        /// Truncating a journal inside its record stream never panics,
        /// never loses a complete record, and is flagged unclean whenever
        /// bytes were actually torn off a record.
        #[test]
        fn journal_torn_tail_recovers_complete_prefix(
            seeds in prop::collection::vec(any::<u64>(), 1..30),
            cut in any::<usize>(),
        ) {
            let records: Vec<JournalRecord> = seeds.iter().map(|&s| arb_journal_record(s)).collect();
            let header = encode_journal_header();
            let mut bytes = header.clone();
            // Remember where each record's frame ends so we know how many
            // complete records a cut point preserves.
            let mut ends = Vec::with_capacity(records.len());
            for r in &records {
                bytes.extend_from_slice(&encode_journal_record(r));
                ends.push(bytes.len());
            }
            let cut = header.len() + cut % (bytes.len() - header.len());
            let complete = ends.iter().take_while(|&&e| e <= cut).count();
            let replay = decode_journal(&bytes[..cut]).unwrap();
            prop_assert_eq!(replay.records.len(), complete);
            prop_assert_eq!(&replay.records[..], &records[..complete]);
            // Clean iff the cut lands exactly on a frame boundary (or keeps
            // only the header) — anything else tore a record.
            let on_boundary = cut == header.len() || (complete > 0 && cut == ends[complete - 1]);
            prop_assert_eq!(replay.clean, on_boundary);
        }
    }
}
