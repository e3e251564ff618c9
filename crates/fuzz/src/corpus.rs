//! The fuzz corpus: deduplicated inputs with discovery scores.
//!
//! Entries are keyed by [`FuzzInput::hash`]; adding a duplicate is a no-op.
//! The on-disk format is versioned JSON (`corpus.json` in a campaign's
//! trace directory) so a later symbolic run can re-seed fuzzing from the
//! inputs a previous hybrid campaign found interesting.

use std::collections::HashSet;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::sched::ScoreTree;
use crate::{FuzzInput, Rng};

/// On-disk corpus format version.
pub const CORPUS_VERSION: u32 = 1;

/// A corpus member plus its power-schedule score.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The input itself.
    pub input: FuzzInput,
    /// Scheduling weight: 1 + how many new edges this input discovered.
    pub score: u64,
}

#[derive(Serialize, Deserialize)]
struct CorpusFile {
    version: u32,
    entries: Vec<CorpusEntry>,
}

/// An append-only, hash-deduplicated set of fuzz inputs.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    seen: HashSet<u64>,
    /// The entries' scores, kept for weighted picks.
    pub(crate) scores: ScoreTree,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Adds an input with an initial score; returns false (and keeps the
    /// existing entry, score untouched) if an equal input is present.
    pub fn add(&mut self, input: FuzzInput, score: u64) -> bool {
        if !self.seen.insert(input.hash()) {
            return false;
        }
        let score = score.max(1);
        self.entries.push(CorpusEntry { input, score });
        self.scores.push(score);
        true
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Borrows one entry.
    pub fn entry(&self, i: usize) -> &CorpusEntry {
        &self.entries[i]
    }

    /// Adds `delta` to an entry's score (called when a mutant of it found
    /// new coverage — AFL's "favored parent" feedback).
    pub fn bump(&mut self, i: usize, delta: u64) {
        let old = self.entries[i].score;
        self.entries[i].score = old.saturating_add(delta);
        self.scores.add(i, self.entries[i].score - old);
    }

    /// Picks an entry index, weighted by score: the draw
    /// `rng.below(total score)` lands in entry `i` when it falls in `i`'s
    /// share of the running sum, so a linear scan over the scores would
    /// pick the same entry.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        assert!(self.scores.total() > 0, "pick from an empty corpus");
        self.scores.find(rng.below(self.scores.total()))
    }

    /// Serializes to versioned JSON at `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let file =
            CorpusFile { version: CORPUS_VERSION, entries: self.entries.clone() };
        let json = serde_json::to_string(&file)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        std::fs::write(path, json)
    }

    /// Loads from `path`, deduplicating (a hand-edited file with repeats
    /// still yields a consistent corpus). Rejects unknown versions.
    pub fn load(path: &Path) -> io::Result<Corpus> {
        let text = std::fs::read_to_string(path)?;
        let file: CorpusFile = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        if file.version != CORPUS_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corpus version {} (supported: {CORPUS_VERSION})", file.version),
            ));
        }
        let mut corpus = Corpus::new();
        for e in file.entries {
            corpus.add(e.input, e.score);
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ddt-corpus-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn add_deduplicates_by_content() {
        let mut c = Corpus::new();
        let a = FuzzInput { hw: vec![1], ..Default::default() };
        assert!(c.add(a.clone(), 1));
        assert!(!c.add(a.clone(), 99), "same content is rejected");
        assert_eq!(c.len(), 1);
        assert_eq!(c.entry(0).score, 1, "duplicate add does not rescore");
        let mut b = a;
        b.hw.push(2);
        assert!(c.add(b, 0));
        assert_eq!(c.entry(1).score, 1, "scores are at least 1");
        c.bump(1, 4);
        assert_eq!(c.entry(1).score, 5);
    }

    #[test]
    fn save_load_round_trips() {
        let mut c = Corpus::new();
        c.add(FuzzInput { hw: vec![3, 4], ..Default::default() }, 2);
        c.add(
            FuzzInput {
                labels: vec![("packet_len".into(), 7)],
                inject_at: vec![2],
                fail_at: vec![8],
                ..Default::default()
            },
            5,
        );
        let path = tmp("roundtrip");
        c.save(&path).unwrap();
        let back = Corpus::load(&path).unwrap();
        assert_eq!(back.entries(), c.entries());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_future_versions() {
        let path = tmp("version");
        std::fs::write(&path, "{\"version\": 99, \"entries\": []}").unwrap();
        assert!(Corpus::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
