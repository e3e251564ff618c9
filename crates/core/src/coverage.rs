//! Basic-block coverage tracking and the exploration heuristic (§4.3).
//!
//! "The default heuristic attempts to maximize basic block coverage,
//! similar to the one used in EXE. It maintains a global counter for each
//! basic block, indicating how many times the block was executed. The
//! heuristic selects for the next execution step the basic block with the
//! smallest value. This avoids states that are stuck, for instance, in
//! polling loops."
//!
//! The tracker also records the coverage-over-time series plotted in
//! Figures 2 and 3.
//!
//! Counters live in arrays indexed like [`CodeAnalysis::blocks`], so the
//! per-instruction `on_exec` and the frontier's per-state `priority` are
//! array reads through the analysis's dense block table.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ddt_isa::analysis::CodeAnalysis;

use crate::report::CoverageSample;

/// Global coverage state for one driver test run.
pub struct Coverage {
    analysis: CodeAnalysis,
    /// Hit count per block (`None` until the block's first count).
    hits: Vec<Option<u64>>,
    /// Whether each block is covered.
    covered: Vec<bool>,
    /// Number of `true`s in `covered`.
    covered_count: usize,
    /// Hit counts for pcs that start no block. This tracker only counts
    /// block starts, so only an absorbed delta or a restored checkpoint can
    /// carry such a pc; it is kept so that `snapshot` returns it.
    other_hits: BTreeMap<u32, u64>,
    /// Covered pcs that start no block (see `other_hits`).
    other_covered: BTreeSet<u32>,
    timeline: Vec<CoverageSample>,
    start: Instant,
    /// Milliseconds already consumed by earlier segments of a resumed
    /// campaign. The campaign clock is `base_ms` + this process's elapsed
    /// time, so a resumed run continues the wall budget instead of
    /// restarting it.
    base_ms: u64,
}

impl Coverage {
    /// Creates a tracker over the driver's block partition.
    pub fn new(analysis: CodeAnalysis) -> Coverage {
        let n = analysis.block_count();
        Coverage {
            analysis,
            hits: vec![None; n],
            covered: vec![false; n],
            covered_count: 0,
            other_hits: BTreeMap::new(),
            other_covered: BTreeSet::new(),
            timeline: Vec::new(),
            start: Instant::now(),
            base_ms: 0,
        }
    }

    /// Restores a tracker from checkpointed campaign state: per-block hit
    /// counts (they drive the exploration heuristic), the covered set, the
    /// timeline so far, and the already-consumed campaign clock.
    pub fn seeded(
        analysis: CodeAnalysis,
        hits: impl IntoIterator<Item = (u32, u64)>,
        covered: impl IntoIterator<Item = u32>,
        timeline: Vec<CoverageSample>,
        base_ms: u64,
    ) -> Coverage {
        let mut coverage = Coverage::new(analysis);
        for (pc, n) in hits {
            match coverage.analysis.block_index_at(pc) {
                Some(i) => coverage.hits[i] = Some(n),
                None => {
                    coverage.other_hits.insert(pc, n);
                }
            }
        }
        coverage.absorb([], covered);
        coverage.timeline = timeline;
        coverage.base_ms = base_ms;
        coverage
    }

    /// Exports the checkpointable state: sorted hit counts, sorted covered
    /// set, timeline.
    pub fn snapshot(&self) -> (Vec<(u32, u64)>, Vec<u32>, Vec<CoverageSample>) {
        let blocks = &self.analysis.blocks;
        let mut hits: Vec<(u32, u64)> = blocks
            .iter()
            .zip(&self.hits)
            .filter_map(|(b, n)| n.map(|n| (b.start, n)))
            .chain(self.other_hits.iter().map(|(&pc, &n)| (pc, n)))
            .collect();
        hits.sort_unstable();
        let mut covered: Vec<u32> = blocks
            .iter()
            .zip(&self.covered)
            .filter_map(|(b, &c)| c.then_some(b.start))
            .chain(self.other_covered.iter().copied())
            .collect();
        covered.sort_unstable();
        (hits, covered, self.timeline.clone())
    }

    /// Notes execution of the instruction at `pc`; counts block entries.
    pub fn on_exec(&mut self, pc: u32) {
        if let Some(i) = self.analysis.block_index_at(pc) {
            self.count_entry(i);
        }
    }

    /// Counts one entry into block `i`; true when it covers the block for
    /// the first time, which takes a timeline sample.
    fn count_entry(&mut self, i: usize) -> bool {
        *self.hits[i].get_or_insert(0) += 1;
        if !self.mark_covered(i) {
            return false;
        }
        let ms = self.elapsed_ms();
        self.timeline.push((ms, self.covered_blocks()));
        true
    }

    /// Marks block `i` covered; true when it was not yet.
    fn mark_covered(&mut self, i: usize) -> bool {
        let fresh = !std::mem::replace(&mut self.covered[i], true);
        self.covered_count += fresh as usize;
        fresh
    }

    /// Folds a remote worker's coverage delta into this tracker: hit
    /// counts add, the covered set unions. No timeline samples are taken —
    /// remote deltas arrive in batches whose internal timing is unknown, so
    /// the merged timeline only reflects blocks this tracker saw directly.
    /// Additive and order-independent, like the stats merges.
    pub fn absorb(
        &mut self,
        hits: impl IntoIterator<Item = (u32, u64)>,
        covered: impl IntoIterator<Item = u32>,
    ) {
        for (pc, n) in hits {
            match self.analysis.block_index_at(pc) {
                Some(i) => *self.hits[i].get_or_insert(0) += n,
                None => *self.other_hits.entry(pc).or_insert(0) += n,
            }
        }
        for pc in covered {
            match self.analysis.block_index_at(pc) {
                Some(i) => {
                    self.mark_covered(i);
                }
                None => {
                    self.other_covered.insert(pc);
                }
            }
        }
    }

    /// Folds a concrete-executor block trace into this tracker. The fast
    /// executor reports every superblock entry pc it dispatched; entries
    /// that are real blocks of the driver count exactly like symbolic
    /// `on_exec` hits — same `hits` map, same `covered` set — so a block
    /// reached by both modes is one covered block, not two. Returns how
    /// many blocks were covered for the first time by this trace (the
    /// hybrid "concrete found it first" census).
    pub fn absorb_concrete(&mut self, block_trace: impl IntoIterator<Item = u32>) -> u64 {
        let mut new_blocks = 0;
        for pc in block_trace {
            if let Some(i) = self.analysis.block_index_at(pc) {
                new_blocks += self.count_entry(i) as u64;
            }
        }
        new_blocks
    }

    /// Hit count of the block containing `pc` (the EXE-style priority:
    /// smaller is more interesting).
    pub fn priority(&self, pc: u32) -> u64 {
        match self.analysis.block_index_of(pc) {
            Some(i) => self.hits[i].unwrap_or(0),
            None => u64::MAX, // Outside the driver (kernel trap): neutral.
        }
    }

    /// The block partition this tracker counts over.
    pub fn analysis(&self) -> &CodeAnalysis {
        &self.analysis
    }

    /// Blocks covered so far.
    pub fn covered_blocks(&self) -> usize {
        self.covered_count + self.other_covered.len()
    }

    /// Total blocks in the driver.
    pub fn total_blocks(&self) -> usize {
        self.analysis.block_count()
    }

    /// The coverage-over-time series (Figures 2 and 3).
    pub fn timeline(&self) -> &[CoverageSample] {
        &self.timeline
    }

    /// Milliseconds on the campaign clock: time consumed by earlier
    /// segments plus time elapsed in this process.
    pub fn elapsed_ms(&self) -> u64 {
        self.base_ms + self.start.elapsed().as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_isa::asm::{assemble, ExportMap};

    fn coverage() -> (Coverage, Vec<u32>) {
        let src = "
            DriverEntry:
                beq r0, r1, a
                nop
                ret
            a:
                nop
                ret";
        let a = assemble(src, &ExportMap::new()).unwrap();
        let analysis = ddt_isa::analysis::analyze(&a.image);
        let blocks: Vec<u32> = analysis.blocks.iter().map(|b| b.start).collect();
        (Coverage::new(analysis), blocks)
    }

    #[test]
    fn block_entries_counted_once_per_entry() {
        let (mut cov, blocks) = coverage();
        assert!(cov.total_blocks() >= 3);
        // blocks[1] is the fall-through (nop; ret): two instructions.
        cov.on_exec(blocks[1]);
        cov.on_exec(blocks[1] + 8); // Interior instruction: not a new block.
        assert_eq!(cov.covered_blocks(), 1);
        cov.on_exec(blocks[0]);
        assert_eq!(cov.covered_blocks(), 2);
        assert_eq!(cov.timeline().len(), 2);
    }

    #[test]
    fn seeded_tracker_continues_clock_and_counts() {
        let (mut cov, blocks) = coverage();
        cov.on_exec(blocks[0]);
        cov.on_exec(blocks[1]);
        let (hits, covered, timeline) = cov.snapshot();
        assert_eq!(hits.len(), 2);
        assert_eq!(covered.len(), 2);
        let analysis = {
            let (c, _) = coverage();
            // Re-derive an identical analysis for the seeded tracker.
            c.analysis
        };
        let mut resumed = Coverage::seeded(analysis, hits, covered, timeline, 5000);
        assert!(resumed.elapsed_ms() >= 5000, "campaign clock continues");
        assert_eq!(resumed.covered_blocks(), 2);
        assert_eq!(resumed.priority(blocks[0]), 1, "hit counts survive resume");
        resumed.on_exec(blocks[0]);
        assert_eq!(resumed.priority(blocks[0]), 2);
        // Already-covered block: no new timeline sample.
        assert_eq!(resumed.timeline().len(), 2);
    }

    #[test]
    fn priority_prefers_cold_blocks() {
        let (mut cov, blocks) = coverage();
        cov.on_exec(blocks[0]);
        cov.on_exec(blocks[0]);
        assert_eq!(cov.priority(blocks[0]), 2);
        assert_eq!(cov.priority(blocks[1]), 0, "unvisited block is coldest");
        assert_eq!(cov.priority(0xdead_0000), u64::MAX, "outside the driver");
    }

    /// Satellite: the concrete edge map and the symbolic tracker share one
    /// covered set, so a block reached in both modes is censused once.
    #[test]
    fn concrete_absorb_does_not_double_count_shared_blocks() {
        let (mut cov, blocks) = coverage();
        // Symbolic execution reaches the entry block first.
        cov.on_exec(blocks[0]);
        assert_eq!(cov.covered_blocks(), 1);
        // A concrete fuzz run retraces the entry block, then breaks into
        // both arms; interior pcs and kernel pcs in the trace are ignored.
        let trace = vec![blocks[0], blocks[1], blocks[1] + 8, blocks[2], 0xdead_0000];
        let new_blocks = cov.absorb_concrete(trace);
        assert_eq!(new_blocks, 2, "only the two arms are new");
        assert_eq!(cov.covered_blocks(), 3, "entry block censused once");
        assert_eq!(cov.priority(blocks[0]), 2, "hit counts still add across modes");
        // Symbolic execution later reaching a concretely-found block adds
        // heat but no new coverage.
        cov.on_exec(blocks[2]);
        assert_eq!(cov.covered_blocks(), 3);
        assert_eq!(cov.timeline().len(), 3, "one sample per first sighting");
    }
}
