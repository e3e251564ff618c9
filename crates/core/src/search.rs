//! Pluggable frontier search strategies and structural-state pruning.
//!
//! Which state the exerciser expands next decides whether a large driver
//! finishes (§3 of the paper; Baldoni et al. catalog the standard
//! techniques). The frontier is abstracted behind [`SearchStrategy`] so the
//! selection policy is a configuration choice, not a property of the loop:
//!
//! - `fifo` — the report-identity baseline: the EXE-style minimum-block-hit
//!   scan exactly as the serial loop has always run it (including the
//!   deterministic stride sampling for large worklists), so reports are
//!   byte-identical to the pre-strategy exerciser;
//! - `coverage-new-first` — states whose last quantum opened unseen blocks
//!   jump the queue (fed by [`Coverage`] deltas stamped on the machine);
//! - `rarest-branch` — states parked in front of the globally least-taken
//!   branch run first ([`Coverage::rarity`] over merged hit counts);
//! - `bug-directed` — states closest (in CFG blocks) to a kernel-call
//!   "checker site" run first ([`CodeAnalysis::checker_distances`]).
//!
//! All guided strategies tie-break by the EXE cold-block priority and then
//! by frontier position, so selection is fully deterministic.
//!
//! [`PruneSet`] implements the opt-in structural-fingerprint pruning: a
//! forked state whose [`Machine::fingerprint`] (pc, invocation shape,
//! decision schedule) was already seen with no global coverage delta since
//! is dropped before it is ever scheduled.

use std::cmp::Reverse;

use ddt_isa::analysis::CodeAnalysis;
use ddt_isa::hash::IntMap;
use ddt_trace::{fnv1a64, MachineFingerprint};

use crate::coverage::Coverage;
use crate::machine::Machine;

/// The configured search strategy (a pure config value; the runtime object
/// is built per run via [`Strategy::runtime`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Today's behavior: EXE-style min-block-hit with stride sampling.
    #[default]
    Fifo,
    /// Prioritize states that just discovered new blocks.
    CoverageNewFirst,
    /// Prioritize states in front of the globally rarest branch.
    RarestBranch,
    /// Prioritize states closest to a kernel-call checker site.
    BugDirected,
}

impl Strategy {
    /// Every strategy, in CLI order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Fifo,
        Strategy::CoverageNewFirst,
        Strategy::RarestBranch,
        Strategy::BugDirected,
    ];

    /// Parses a `--strategy` value.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "fifo" => Some(Strategy::Fifo),
            "coverage-new-first" => Some(Strategy::CoverageNewFirst),
            "rarest-branch" => Some(Strategy::RarestBranch),
            "bug-directed" => Some(Strategy::BugDirected),
            _ => None,
        }
    }

    /// The CLI / fingerprint name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Fifo => "fifo",
            Strategy::CoverageNewFirst => "coverage-new-first",
            Strategy::RarestBranch => "rarest-branch",
            Strategy::BugDirected => "bug-directed",
        }
    }

    /// Builds the runtime selector. `bug-directed` precomputes its
    /// distance-to-checker-site map from the CFG here, so call this before
    /// the analysis is consumed by [`Coverage::new`].
    pub fn runtime(self, analysis: &CodeAnalysis) -> Box<dyn SearchStrategy> {
        match self {
            Strategy::Fifo => Box::new(FifoScan),
            Strategy::CoverageNewFirst => Box::new(CoverageNewFirst),
            Strategy::RarestBranch => Box::new(RarestBranch),
            Strategy::BugDirected => {
                let to_site = analysis.checker_distances();
                let distances = analysis
                    .blocks
                    .iter()
                    .map(|b| to_site.get(&b.start).copied().unwrap_or(u64::MAX))
                    .collect();
                Box::new(BugDirected { distances })
            }
        }
    }
}

/// A frontier selection policy: given the current frontier and the merged
/// global coverage, pick the index of the state to expand next. `frontier`
/// is never empty at the call.
pub trait SearchStrategy: Send + Sync {
    /// The strategy's CLI name.
    fn name(&self) -> &'static str;
    /// Index of the state to expand next.
    fn select(&self, frontier: &[Machine], cov: &Coverage) -> usize;
}

/// For large worklists the baseline scan samples a deterministic stride —
/// an O(1)-ish approximation that keeps the cold-block bias without a full
/// O(n) pass per quantum. Kept bit-identical to the historic serial loop.
const SCAN_LIMIT: usize = 64;

/// The report-identity baseline (§4.3): minimum block-hit count, stride
/// sampled beyond [`SCAN_LIMIT`], first minimum wins.
struct FifoScan;

impl SearchStrategy for FifoScan {
    fn name(&self) -> &'static str {
        Strategy::Fifo.name()
    }

    fn select(&self, frontier: &[Machine], cov: &Coverage) -> usize {
        if frontier.len() <= SCAN_LIMIT {
            frontier
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| cov.priority(m.st.cpu.pc))
                .map(|(i, _)| i)
                .expect("frontier non-empty")
        } else {
            let stride = frontier.len() / SCAN_LIMIT;
            (0..SCAN_LIMIT)
                .map(|k| (k * stride) % frontier.len())
                .min_by_key(|&i| cov.priority(frontier[i].st.cpu.pc))
                .expect("frontier non-empty")
        }
    }
}

/// States that just opened unseen blocks jump the queue; among equally
/// fresh states the newest discovery wins, then the EXE cold-block rule.
struct CoverageNewFirst;

impl SearchStrategy for CoverageNewFirst {
    fn name(&self) -> &'static str {
        Strategy::CoverageNewFirst.name()
    }

    fn select(&self, frontier: &[Machine], cov: &Coverage) -> usize {
        frontier
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| {
                (Reverse(m.cov_fresh), Reverse(m.cov_stamp), cov.priority(m.st.cpu.pc))
            })
            .map(|(i, _)| i)
            .expect("frontier non-empty")
    }
}

/// Inverse global branch frequency: expand the state whose next branches
/// include the globally least-executed one.
struct RarestBranch;

impl SearchStrategy for RarestBranch {
    fn name(&self) -> &'static str {
        Strategy::RarestBranch.name()
    }

    fn select(&self, frontier: &[Machine], cov: &Coverage) -> usize {
        frontier
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| (cov.rarity(m.st.cpu.pc), cov.priority(m.st.cpu.pc)))
            .map(|(i, _)| i)
            .expect("frontier non-empty")
    }
}

/// Directed search toward checker sites: smallest CFG distance to a block
/// that calls into the kernel (where every dynamic checker observes the
/// driver), tie-broken by the cold-block rule.
struct BugDirected {
    /// Distance to the nearest checker site per block, indexed like
    /// [`CodeAnalysis::blocks`] (`u64::MAX` when none is reachable).
    distances: Vec<u64>,
}

impl BugDirected {
    fn distance(&self, cov: &Coverage, pc: u32) -> u64 {
        cov.analysis().block_index_of(pc).map_or(u64::MAX, |i| self.distances[i])
    }
}

impl SearchStrategy for BugDirected {
    fn name(&self) -> &'static str {
        Strategy::BugDirected.name()
    }

    fn select(&self, frontier: &[Machine], cov: &Coverage) -> usize {
        frontier
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| (self.distance(cov, m.st.cpu.pc), cov.priority(m.st.cpu.pc)))
            .map(|(i, _)| i)
            .expect("frontier non-empty")
    }
}

/// The fleet shard's `fifo` selector: the most recently pushed state first.
/// Its `swap_remove` of the last index is a plain `pop`, so a shard runs
/// depth-first down its leased subtree, as it always has.
pub(crate) struct LastIn;

impl SearchStrategy for LastIn {
    fn name(&self) -> &'static str {
        "last-in"
    }

    fn select(&self, frontier: &[Machine], _cov: &Coverage) -> usize {
        frontier.len() - 1
    }
}

/// The exerciser's frontier: the worklist plus the strategy that orders it.
/// `pop` is selection + `swap_remove`, exactly like the historic loop, so
/// the `fifo` strategy reproduces it operation for operation.
pub struct Frontier {
    items: Vec<Machine>,
    strategy: Box<dyn SearchStrategy>,
}

impl Frontier {
    /// Wraps an initial worklist (the root machine, or a checkpoint's
    /// restored frontier) under a strategy.
    pub fn new(strategy: Box<dyn SearchStrategy>, items: Vec<Machine>) -> Frontier {
        Frontier { items, strategy }
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
        let i = self.strategy.select(&self.items, cov);
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

    /// The active strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
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
