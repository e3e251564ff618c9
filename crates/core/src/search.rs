//! Frontier search strategies and structural-state pruning.
//!
//! Which state the exerciser expands next decides whether a large driver
//! finishes (§3 of the paper). The [`Frontier`] orders its worklist by the
//! configured [`Strategy`]:
//!
//! - `fifo` — the paper's heuristic: the EXE-style minimum-block-hit scan
//!   exactly as the serial loop has always run it (including the
//!   deterministic stride sampling for large worklists), so reports are
//!   byte-identical to the pre-strategy exerciser;
//! - `coverage-new-first` — states whose last quantum opened unseen blocks
//!   jump the queue (fed by [`Coverage`] deltas stamped on the machine),
//!   tie-broken by the EXE cold-block priority and then by frontier
//!   position, so selection is fully deterministic.
//!
//! [`PruneSet`] implements the opt-in structural-fingerprint pruning: a
//! forked state whose [`Machine::fingerprint`] (pc, invocation shape,
//! decision schedule) was already seen with no global coverage delta since
//! is dropped before it is ever scheduled.

use std::cmp::Reverse;

use ddt_isa::hash::IntMap;
use ddt_trace::{fnv1a64, MachineFingerprint};

use crate::coverage::Coverage;
use crate::machine::Machine;

/// The configured search strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's heuristic: EXE-style min-block-hit with stride sampling.
    #[default]
    Fifo,
    /// Prioritize states that just discovered new blocks.
    CoverageNewFirst,
}

/// For large worklists the baseline scan samples a deterministic stride —
/// an O(1)-ish approximation that keeps the cold-block bias without a full
/// O(n) pass per quantum. Kept bit-identical to the historic serial loop.
const SCAN_LIMIT: usize = 64;

impl Strategy {
    /// Every strategy, in CLI order.
    pub const ALL: [Strategy; 2] = [Strategy::Fifo, Strategy::CoverageNewFirst];

    /// Parses a `--strategy` value.
    pub fn parse(s: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|st| st.name() == s)
    }

    /// The CLI / fingerprint name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Fifo => "fifo",
            Strategy::CoverageNewFirst => "coverage-new-first",
        }
    }

    /// Index of the state in `frontier` (never empty) to expand next.
    ///
    /// - `fifo` (§4.3): minimum block-hit count, stride sampled beyond
    ///   [`SCAN_LIMIT`], first minimum wins.
    /// - `coverage-new-first`: states that just opened unseen blocks jump
    ///   the queue; among equally fresh states the newest discovery wins,
    ///   then the EXE cold-block rule.
    pub fn select(self, frontier: &[Machine], cov: &Coverage) -> usize {
        match self {
            Strategy::Fifo if frontier.len() > SCAN_LIMIT => {
                let stride = frontier.len() / SCAN_LIMIT;
                (0..SCAN_LIMIT)
                    .map(|k| (k * stride) % frontier.len())
                    .min_by_key(|&i| cov.priority(frontier[i].st.cpu.pc))
                    .expect("frontier non-empty")
            }
            Strategy::Fifo => frontier
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| cov.priority(m.st.cpu.pc))
                .map(|(i, _)| i)
                .expect("frontier non-empty"),
            Strategy::CoverageNewFirst => frontier
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| {
                    (Reverse(m.cov_fresh), Reverse(m.cov_stamp), cov.priority(m.st.cpu.pc))
                })
                .map(|(i, _)| i)
                .expect("frontier non-empty"),
        }
    }
}

/// The exerciser's frontier: the worklist plus the strategy that orders it.
/// `pop` is selection + `swap_remove`, exactly like the historic loop, so
/// the `fifo` strategy reproduces it operation for operation.
pub struct Frontier {
    items: Vec<Machine>,
    strategy: Strategy,
    /// Pop the most recently pushed state instead: the `swap_remove` of the
    /// last index is a plain `pop`, so a `fifo` fleet shard runs depth-first
    /// down its leased subtree.
    last_in: bool,
}

impl Frontier {
    /// Wraps an initial worklist (the root machine, or a checkpoint's
    /// restored frontier) under a strategy.
    pub fn new(strategy: Strategy, items: Vec<Machine>) -> Frontier {
        Frontier { items, strategy, last_in: false }
    }

    /// A fleet shard's frontier: `fifo` pops last-in, first-out
    /// (DESIGN §4.9); any other strategy pops as [`Frontier::new`]'s does.
    pub(crate) fn for_shard(strategy: Strategy, items: Vec<Machine>) -> Frontier {
        Frontier { items, strategy, last_in: strategy == Strategy::Fifo }
    }

    /// Adds a state.
    pub fn push(&mut self, m: Machine) {
        self.items.push(m);
    }

    /// Removes and returns the state the strategy ranks first.
    pub fn pop(&mut self, cov: &Coverage) -> Option<Machine> {
        if self.items.is_empty() {
            return None;
        }
        let i = if self.last_in {
            self.items.len() - 1
        } else {
            self.strategy.select(&self.items, cov)
        };
        Some(self.items.swap_remove(i))
    }

    /// Number of pending states.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no states are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The pending states (checkpointing serializes these).
    pub fn as_slice(&self) -> &[Machine] {
        &self.items
    }

    /// Raw storage, for the quantum sinks that push forked children and for
    /// post-quantum metadata stamping/pruning.
    pub fn storage_mut(&mut self) -> &mut Vec<Machine> {
        &mut self.items
    }
}

/// Opt-in structural-fingerprint pruning (`--prune`): remembers every
/// forked state's [`Machine::fingerprint`] hash together with the global
/// covered-block count at its last sighting. A new fork whose fingerprint
/// repeats while coverage has not moved is structurally redundant — the
/// diamond/polling duplicate case — and is dropped before scheduling.
/// A repeat *with* a coverage delta is kept (and re-stamped): the global
/// state changed, so the duplicate may now behave differently.
#[derive(Default)]
pub struct PruneSet {
    seen: IntMap<u64, u64>,
}

impl PruneSet {
    /// An empty set.
    pub fn new() -> PruneSet {
        PruneSet::default()
    }

    /// Restores the set from a checkpoint snapshot, so a resumed campaign
    /// prunes exactly where the uninterrupted one would.
    pub fn seeded(snapshot: impl IntoIterator<Item = (u64, u64)>) -> PruneSet {
        PruneSet { seen: snapshot.into_iter().collect() }
    }

    /// Exports the checkpointable state, sorted for determinism.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.seen.iter().map(|(&h, &c)| (h, c)).collect();
        v.sort_unstable();
        v
    }

    /// Hash of a structural fingerprint (pc is part of it: only states at
    /// the same pc with the same invocation shape and schedule collide).
    pub fn fp_hash(fp: &MachineFingerprint) -> u64 {
        let mut buf = [0u8; 44];
        buf[0..4].copy_from_slice(&fp.pc.to_le_bytes());
        buf[4..12].copy_from_slice(&fp.kernel_calls.to_le_bytes());
        buf[12..20].copy_from_slice(&fp.boundaries.to_le_bytes());
        buf[20..28].copy_from_slice(&fp.workload_pos.to_le_bytes());
        buf[28..32].copy_from_slice(&fp.interrupt_budget.to_le_bytes());
        buf[32..36].copy_from_slice(&fp.frames.to_le_bytes());
        buf[36..44].copy_from_slice(&fp.decisions_fnv.to_le_bytes());
        fnv1a64(&buf)
    }

    /// Decides a freshly forked state's fate: `true` means prune. Always
    /// records the sighting, so the first occurrence (kept) arms the set
    /// and a later coverage delta re-arms it.
    pub fn check(&mut self, h: u64, covered_now: u64) -> bool {
        match self.seen.insert(h, covered_now) {
            Some(prev) => prev == covered_now,
            None => false,
        }
    }

    /// Number of distinct fingerprints seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when no fingerprint has been seen.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("breadth-first"), None);
        assert_eq!(Strategy::default(), Strategy::Fifo);
    }

    #[test]
    fn prune_set_drops_only_repeats_without_coverage_delta() {
        let mut ps = PruneSet::new();
        assert!(!ps.check(7, 10), "first sighting is kept");
        assert!(ps.check(7, 10), "repeat with no coverage delta is pruned");
        assert!(!ps.check(7, 11), "coverage moved: the duplicate is kept");
        assert!(ps.check(7, 11), "and the set re-arms at the new count");
        assert!(!ps.check(8, 11), "distinct fingerprints never collide");
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn prune_set_snapshot_round_trips() {
        let mut ps = PruneSet::new();
        ps.check(3, 5);
        ps.check(1, 9);
        let snap = ps.snapshot();
        assert_eq!(snap, vec![(1, 9), (3, 5)], "sorted for determinism");
        let mut restored = PruneSet::seeded(snap);
        assert!(restored.check(3, 5), "restored set prunes like the original");
    }

    #[test]
    fn fp_hash_separates_pc_and_schedule() {
        let base = MachineFingerprint {
            pc: 0x1000,
            kernel_calls: 2,
            boundaries: 3,
            workload_pos: 1,
            interrupt_budget: 1,
            frames: 1,
            decisions_fnv: 42,
        };
        let mut other_pc = base.clone();
        other_pc.pc = 0x1008;
        let mut other_sched = base.clone();
        other_sched.decisions_fnv = 43;
        assert_eq!(PruneSet::fp_hash(&base), PruneSet::fp_hash(&base));
        assert_ne!(PruneSet::fp_hash(&base), PruneSet::fp_hash(&other_pc));
        assert_ne!(PruneSet::fp_hash(&base), PruneSet::fp_hash(&other_sched));
    }
}
