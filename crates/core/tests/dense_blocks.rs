//! The dense block table and the array-backed coverage tracker against
//! their ordered-map definitions.
//!
//! `CodeAnalysis::block_of` reads a per-slot index instead of searching an
//! ordered map, and `Coverage` keeps its counters in arrays indexed by
//! block. Neither may change an answer: `block_of` must equal the ordered
//! search at every byte address around every bundled driver's text, and
//! random `on_exec`, `absorb_concrete` and `absorb` sequences must leave
//! the same `snapshot` and `priority` as a `HashMap` tracker.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ddt_core::coverage::Coverage;
use ddt_drivers::DriverSpec;
use ddt_isa::analysis::{analyze, BasicBlock, CodeAnalysis};
use proptest::prelude::*;

fn every_driver() -> Vec<DriverSpec> {
    let mut specs = ddt_drivers::drivers();
    specs.push(ddt_drivers::clean_driver());
    specs
}

fn analysis_of(spec: &DriverSpec) -> (CodeAnalysis, u32, u32) {
    let image = spec.build().image;
    let (base, end) = (image.load_base, image.load_base + image.text.len() as u32);
    (analyze(&image), base, end)
}

/// The blocks keyed by start address, as `CodeAnalysis` kept them before.
fn ordered(a: &CodeAnalysis) -> BTreeMap<u32, BasicBlock> {
    a.blocks.iter().map(|b| (b.start, b.clone())).collect()
}

/// The ordered-map definition of `block_of`.
fn block_of(blocks: &BTreeMap<u32, BasicBlock>, pc: u32) -> Option<u32> {
    blocks.range(..=pc).next_back().and_then(|(_, b)| b.contains(pc).then_some(b.start))
}

#[test]
fn dense_block_of_equals_the_ordered_search_on_every_driver() {
    for spec in every_driver() {
        let (a, base, end) = analysis_of(&spec);
        let blocks = ordered(&a);
        assert_eq!(blocks.len(), a.block_count(), "{}: duplicate block starts", spec.name);
        for pc in base - 16..end + 16 {
            assert_eq!(a.block_of(pc), block_of(&blocks, pc), "{}: pc {pc:#x}", spec.name);
            let start = a.block_index_at(pc).map(|i| a.blocks[i].start);
            assert_eq!(start, blocks.contains_key(&pc).then_some(pc), "{}: pc {pc:#x}", spec.name);
        }
    }
}

/// The tracker as it was: a hit map and a covered set keyed by pc.
struct Reference {
    blocks: BTreeMap<u32, BasicBlock>,
    hits: HashMap<u32, u64>,
    covered: BTreeSet<u32>,
    samples: usize,
}

impl Reference {
    fn on_exec(&mut self, pc: u32) -> bool {
        if !self.blocks.contains_key(&pc) {
            return false;
        }
        *self.hits.entry(pc).or_insert(0) += 1;
        let fresh = self.covered.insert(pc);
        self.samples += fresh as usize;
        fresh
    }

    fn absorb(&mut self, hits: &[(u32, u64)], covered: &[u32]) {
        for &(pc, n) in hits {
            *self.hits.entry(pc).or_insert(0) += n;
        }
        self.covered.extend(covered);
    }

    fn snapshot(&self) -> (Vec<(u32, u64)>, Vec<u32>) {
        let mut hits: Vec<(u32, u64)> = self.hits.iter().map(|(&pc, &n)| (pc, n)).collect();
        hits.sort_unstable();
        (hits, self.covered.iter().copied().collect())
    }

    fn priority(&self, pc: u32) -> u64 {
        match block_of(&self.blocks, pc) {
            Some(b) => self.hits.get(&b).copied().unwrap_or(0),
            None => u64::MAX,
        }
    }
}

/// A pc of one of four kinds: a block start, a successor address (which
/// may start no block), any byte of the text, or an address outside it.
fn pick_pc(rng: &mut TestRng, a: &CodeAnalysis, base: u32, end: u32) -> u32 {
    let block = &a.blocks[rng.below(a.blocks.len() as u64) as usize];
    match rng.below(4) {
        0 => block.start,
        1 => block.successors.first().copied().unwrap_or(block.start),
        2 => base + rng.below((end - base) as u64) as u32,
        _ => [0, base - 8, end + 3, 0xf000_0010][rng.below(4) as usize],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn array_coverage_matches_the_hash_map_tracker(seed in any::<u64>()) {
        let mut rng = TestRng::from_case(seed as u32);
        let specs = every_driver();
        let spec = &specs[rng.below(specs.len() as u64) as usize];
        let (a, base, end) = analysis_of(spec);
        let mut reference = Reference {
            blocks: ordered(&a),
            hits: HashMap::new(),
            covered: BTreeSet::new(),
            samples: 0,
        };
        let mut cov = Coverage::new(a.clone());
        for step in 0..120 {
            match rng.below(3) {
                0 => {
                    let pc = pick_pc(&mut rng, &a, base, end);
                    cov.on_exec(pc);
                    reference.on_exec(pc);
                }
                1 => {
                    let trace: Vec<u32> =
                        (0..rng.below(12)).map(|_| pick_pc(&mut rng, &a, base, end)).collect();
                    let fresh = trace.iter().filter(|&&pc| reference.on_exec(pc)).count() as u64;
                    prop_assert_eq!(cov.absorb_concrete(trace.clone()), fresh, "step {step}");
                }
                _ => {
                    let hits: Vec<(u32, u64)> = (0..rng.below(6))
                        .map(|_| (pick_pc(&mut rng, &a, base, end), rng.below(4)))
                        .collect();
                    let covered: Vec<u32> =
                        (0..rng.below(6)).map(|_| pick_pc(&mut rng, &a, base, end)).collect();
                    cov.absorb(hits.clone(), covered.clone());
                    reference.absorb(&hits, &covered);
                }
            }
            let (hits, covered, timeline) = cov.snapshot();
            prop_assert_eq!((hits, covered), reference.snapshot(), "step {step}");
            prop_assert_eq!(cov.covered_blocks(), reference.covered.len(), "step {step}");
            prop_assert_eq!(timeline.len(), reference.samples, "step {step}");
            for _ in 0..8 {
                let pc = pick_pc(&mut rng, &a, base, end);
                prop_assert_eq!(cov.priority(pc), reference.priority(pc), "step {step}: {pc:#x}");
            }
        }
        // A tracker restored from the snapshot reads the same.
        let (hits, covered, timeline) = cov.snapshot();
        let restored = Coverage::seeded(a.clone(), hits.clone(), covered.clone(), timeline, 0);
        let (rhits, rcovered, _) = restored.snapshot();
        prop_assert_eq!((rhits, rcovered), (hits, covered));
        for b in &a.blocks {
            prop_assert_eq!(restored.priority(b.start), reference.priority(b.start));
        }
    }
}
