//! Power schedule: which corpus entry breeds next.
//!
//! Weighted sampling by entry score — an input whose mutants keep finding
//! new edges is picked proportionally more often (the AFL "energy" idea,
//! reduced to its deterministic core). Sampling uses the campaign [`Rng`],
//! so the whole schedule replays from one seed.

use crate::{Corpus, Rng};

/// Weighted sampler over corpus indices. A scheduler follows one corpus.
#[derive(Clone, Debug, Default)]
pub struct Scheduler {
    weights: Vec<u64>,
    total: u64,
    /// The corpus generation the weights were read at.
    synced: Option<u64>,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Brings the weights up to the corpus' current scores. Call before
    /// picking; it rebuilds them (one pass) only when the corpus changed
    /// since the last sync.
    pub fn sync(&mut self, corpus: &Corpus) {
        if self.synced == Some(corpus.generation()) {
            return;
        }
        self.synced = Some(corpus.generation());
        self.weights.clear();
        self.total = 0;
        for e in corpus.entries() {
            self.weights.push(e.score);
            self.total += e.score;
        }
    }

    /// Picks a corpus index, weighted by score.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler has not been synced with a non-empty corpus.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        assert!(self.total > 0, "scheduler over an empty corpus");
        let mut x = rng.below(self.total);
        for (i, &w) in self.weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuzzInput;

    #[test]
    fn pick_respects_weights() {
        let mut corpus = Corpus::new();
        corpus.add(FuzzInput { hw: vec![1], ..Default::default() }, 1);
        corpus.add(FuzzInput { hw: vec![2], ..Default::default() }, 9);
        let mut sched = Scheduler::new();
        sched.sync(&corpus);
        let mut rng = Rng::new(5);
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            counts[sched.pick(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[0] * 4, "9:1 weights must dominate: {counts:?}");
        assert!(counts[0] > 0, "low-score entries still get energy");
    }

    #[test]
    fn sync_tracks_bumps() {
        let mut corpus = Corpus::new();
        corpus.add(FuzzInput::default(), 1);
        let mut sched = Scheduler::new();
        sched.sync(&corpus);
        corpus.bump(0, 10);
        sched.sync(&corpus);
        assert_eq!(sched.total, 11);
    }
}
