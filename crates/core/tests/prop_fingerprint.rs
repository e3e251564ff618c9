//! Property test pinning the incremental decision-schedule hash.
//!
//! A [`Machine`] keeps a running FNV-1a state over the compact JSON of its
//! decision schedule, so `fingerprint()` costs O(1) however long the
//! schedule grows. Checkpoint frontier records store that hash, and replay
//! validates against it, so it must equal — bit for bit — the hash of the
//! whole schedule serialized afresh: the value older checkpoints recorded.
//! This file is the one place that reference computation lives.

use ddt_core::{Decision, FaultFamily, LifecycleEvent, Machine};
use ddt_kernel::Kernel;
use ddt_symvm::{SymCounter, SymState};
use ddt_trace::fnv1a64;
use proptest::prelude::*;

/// The schedule hash as a fresh serialization of the whole `Vec` computes it.
fn reference(decisions: &[Decision]) -> u64 {
    let schedule: Vec<Decision> = decisions.to_vec();
    fnv1a64(&serde_json::to_vec(&schedule).expect("decision schedule serializes"))
}

/// One decision of any variant, with generated payloads.
fn decision(variant: u8, n: u64, salt: u8) -> Decision {
    const EVENTS: [LifecycleEvent; 3] =
        [LifecycleEvent::SurpriseRemove, LifecycleEvent::Suspend, LifecycleEvent::Resume];
    match variant % 5 {
        0 => Decision::InjectInterrupt { boundary: n },
        1 => Decision::ForceAllocFail { kernel_call: n },
        2 => Decision::ConcretizationBacktrack { kernel_call: n },
        3 => Decision::InjectFault {
            site: n,
            kind: FaultFamily::ALL[salt as usize % FaultFamily::ALL.len()],
        },
        _ => Decision::LifecycleEvent { boundary: n, event: EVENTS[salt as usize % EVENTS.len()] },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Appends, forks and adopts interleaved at random over a growing
    /// family of machines: every member's fingerprint hash must match the
    /// reference over its own schedule, and forked siblings must not leak
    /// appends into each other.
    #[test]
    fn running_hash_matches_the_serialized_schedule(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..48)
    ) {
        let root = Machine::new(SymState::new(SymCounter::new()), Kernel::new());
        let mut family = vec![root];
        for (i, (op, n, salt)) in ops.into_iter().enumerate() {
            let at = n as usize % family.len();
            let id = i as u64 + 1;
            match op % 4 {
                0 => {
                    let child = family[at].fork(id);
                    family.push(child);
                }
                1 => {
                    let st = family[at].st.fork();
                    let child = family[at].adopt(st, id);
                    family.push(child);
                }
                _ => family[at].push_decision(decision(op / 4, n, salt)),
            }
        }
        for m in &family {
            prop_assert_eq!(m.fingerprint().decisions_fnv, reference(m.decisions()));
        }
    }
}
