//! Frontier search strategies.
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

use std::cmp::Reverse;

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
    /// post-quantum metadata stamping.
    pub fn storage_mut(&mut self) -> &mut Vec<Machine> {
        &mut self.items
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
}
