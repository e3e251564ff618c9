//! Decoders must never allocate without bound: a hostile input that only
//! claims a large element count or frame length has to fail without
//! reserving memory for what it claims.
//!
//! A counting global allocator records the largest single block requested
//! while each input decodes. It counts the whole process, so this binary
//! holds one test and nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ddt_trace::{
    decode_checkpoint, decode_events, decode_frame, decode_journal, decode_quarantine, fnv1a64,
    read_frame, CAMPAIGN_VERSION, CHECKPOINT_MAGIC, FLEET_VERSION, JOURNAL_MAGIC, QUARANTINE_MAGIC,
    TRACE_MAGIC, TRACE_VERSION,
};

struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The largest block a hostile input may make a decoder request.
const LIMIT: usize = 64 << 10;

/// A claimed element count well above what any input here holds.
const CLAIM: u64 = 1 << 16;

fn varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        varint(&mut out, v);
    }
    out
}

/// `body` followed by its FNV-1a checksum, as checkpoints and quarantine
/// records end.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// One `length‖payload‖checksum` frame, as journal records and fleet
/// messages travel.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = varints(&[payload.len() as u64]);
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

fn ddtt(pool: u64, events: u64) -> Vec<u8> {
    let mut out = TRACE_MAGIC.to_vec();
    out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    out.extend(varints(&[pool, events]));
    out
}

/// A checkpoint body up to its coverage record: magic, version, seq, an
/// empty driver name, config fingerprint, wall clock, instructions, next
/// id, flags and two empty JSON payloads.
fn checkpoint_head() -> Vec<u8> {
    let mut out = CHECKPOINT_MAGIC.to_vec();
    out.extend(varints(&[CAMPAIGN_VERSION, 0, 0, 0, 0, 0, 0]));
    out.extend([0, 0, 0]);
    out
}

#[test]
fn hostile_counts_fail_without_large_reservations() {
    let mut failures = Vec::new();
    let mut check = |name: &str, refused: &dyn Fn() -> bool| {
        LARGEST.store(0, Ordering::Relaxed);
        if !refused() {
            failures.push(format!("{name}: decoded"));
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        if largest > LIMIT {
            failures.push(format!("{name}: requested a {largest}-byte block"));
        }
    };
    check("DDTT event count", &|| decode_events(&ddtt(0, (1 << 24) - 1)).is_err());
    check("DDTT pool count", &|| decode_events(&ddtt(1 << 20, 0)).is_err());
    check("DDTC coverage hits", &|| {
        let mut body = checkpoint_head();
        body.extend(varints(&[CLAIM]));
        decode_checkpoint(&sealed(body)).is_err()
    });
    check("DDTC frontier", &|| {
        let mut body = checkpoint_head();
        body.extend(varints(&[0, 0, 0, CLAIM]));
        decode_checkpoint(&sealed(body)).is_err()
    });
    check("DDTQ picks", &|| {
        let mut body = QUARANTINE_MAGIC.to_vec();
        // Version, shard, empty driver, fingerprint, attempts, empty error,
        // then a frontier record whose pick count is the claim.
        body.extend(varints(&[FLEET_VERSION, 0, 0, 0, 0, 0, 0, 0, 0, CLAIM]));
        decode_quarantine(&sealed(body)).is_err()
    });
    check("DDTJ bug keys", &|| {
        let mut journal = JOURNAL_MAGIC.to_vec();
        journal.extend(varints(&[CAMPAIGN_VERSION]));
        // A path-done record: tag, machine, status, steps, bug-key count.
        journal.extend(framed(&varints(&[1, 0, 0, 0, 1 << 12])));
        decode_journal(&journal).is_err()
    });
    check("fleet yielded shards", &|| decode_frame(&framed(&varints(&[3, CLAIM]))).is_err());
    check("fleet grant picks", &|| {
        decode_frame(&framed(&varints(&[1, 0, 0, 0, 0, 0, CLAIM]))).is_err()
    });
    check("fleet shard coverage", &|| {
        decode_frame(&framed(&varints(&[5, 0, 0, 0, 0, CLAIM]))).is_err()
    });
    check("fleet frame length", &|| {
        read_frame(&mut std::io::Cursor::new(varints(&[1 << 30]))).is_err()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
