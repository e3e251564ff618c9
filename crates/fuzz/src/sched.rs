//! Power schedule: which corpus entry breeds next.
//!
//! Weighted sampling by entry score — an input whose mutants keep finding
//! new edges is picked proportionally more often (the AFL "energy" idea,
//! reduced to its deterministic core). [`Corpus::pick`](crate::Corpus::pick)
//! draws with the campaign [`Rng`](crate::Rng), so the whole schedule
//! replays from one seed. The scores live in a prefix-sum (Fenwick) tree,
//! so adding an entry, rescoring one and picking each take O(log n) in a
//! corpus that grows with every interesting execution.

/// Prefix sums over the corpus scores, in insertion order.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScoreTree {
    /// Fenwick layout, 1-based: node `i` is stored at `nodes[i - 1]` and
    /// holds the sum of the scores of entries `i - lowbit(i) + 1 ..= i`.
    nodes: Vec<u64>,
    total: u64,
}

fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl ScoreTree {
    /// The sum of all scores.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Appends an entry's score.
    pub(crate) fn push(&mut self, score: u64) {
        // The new node covers its own score and the nodes directly below it.
        let i = self.nodes.len() + 1;
        let mut sum = score;
        let mut j = i - 1;
        while j > i - lowbit(i) {
            sum += self.nodes[j - 1];
            j -= lowbit(j);
        }
        self.nodes.push(sum);
        self.total += score;
    }

    /// Adds `delta` to the score of entry `index`.
    pub(crate) fn add(&mut self, index: usize, delta: u64) {
        let mut i = index + 1;
        while i <= self.nodes.len() {
            self.nodes[i - 1] += delta;
            i += lowbit(i);
        }
        self.total += delta;
    }

    /// The entry a linear scan picks for `x < total()`: the first whose
    /// running score sum exceeds `x`. Descends the tree from its largest
    /// power-of-two span, so it reads O(log n) nodes.
    pub(crate) fn find(&self, mut x: u64) -> usize {
        let n = self.nodes.len();
        let mut pos = 0;
        let mut step = if n == 0 { 0 } else { 1 << (usize::BITS - 1 - n.leading_zeros()) };
        while step > 0 {
            let next = pos + step;
            if next <= n && self.nodes[next - 1] <= x {
                x -= self.nodes[next - 1];
                pos = next;
            }
            step >>= 1;
        }
        // `pos` entries sum to at most the draw; the next one exceeds it.
        pos
    }
}

#[cfg(test)]
mod tests {
    use crate::{Corpus, FuzzInput, Rng};

    #[test]
    fn pick_respects_weights() {
        let mut corpus = Corpus::new();
        corpus.add(FuzzInput { hw: vec![1], ..Default::default() }, 1);
        corpus.add(FuzzInput { hw: vec![2], ..Default::default() }, 9);
        let mut rng = Rng::new(5);
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            counts[corpus.pick(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[0] * 4, "9:1 weights must dominate: {counts:?}");
        assert!(counts[0] > 0, "low-score entries still get energy");
    }

    #[test]
    fn picks_track_bumps() {
        let mut corpus = Corpus::new();
        corpus.add(FuzzInput::default(), 1);
        corpus.add(FuzzInput { hw: vec![1], ..Default::default() }, 1);
        corpus.bump(0, 10);
        assert_eq!(corpus.scores.total(), 12);
        // Draws 0..=10 land in entry 0's share, 11 in entry 1's.
        assert_eq!(corpus.scores.find(10), 0);
        assert_eq!(corpus.scores.find(11), 1);
    }
}
