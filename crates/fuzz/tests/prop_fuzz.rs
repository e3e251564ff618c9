//! Property tests for the fuzz subsystem: the mutator is a pure function of
//! (input, seed), the corpus round-trips through disk with dedup by
//! content hash, and the corpus' tree-backed weighted pick chooses exactly
//! what a linear scan over the scores chooses — the properties the hybrid
//! differential harness's determinism claim rests on.

use ddt_fuzz::{mutate, Corpus, FuzzInput, Rng};
use proptest::prelude::*;

/// Builds an arbitrary-but-deterministic input from raw generator output.
fn input_from(hw: Vec<u32>, labels: Vec<(u8, u64)>, inject: Vec<u8>, fail: Vec<u8>) -> FuzzInput {
    let mut inject_at: Vec<u64> = inject.iter().map(|&b| 1 + b as u64 % 24).collect();
    inject_at.sort_unstable();
    inject_at.dedup();
    let mut fail_at: Vec<u64> = fail.iter().map(|&b| 1 + b as u64 % 40).collect();
    fail_at.sort_unstable();
    fail_at.dedup();
    FuzzInput {
        hw,
        labels: labels
            .into_iter()
            .map(|(i, v)| (format!("packet[{}]", i % 8), v))
            .collect(),
        inject_at,
        fail_at,
        lifecycle: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal seeds yield byte-equal mutant streams; mutating never panics
    /// for any input shape.
    #[test]
    fn mutator_is_deterministic_under_a_fixed_seed(
        hw in prop::collection::vec(any::<u32>(), 0..12),
        labels in prop::collection::vec((any::<u8>(), any::<u64>()), 0..6),
        inject in prop::collection::vec(any::<u8>(), 0..4),
        fail in prop::collection::vec(any::<u8>(), 0..4),
        seed in any::<u64>(),
        rounds in 1usize..24,
    ) {
        let base = input_from(hw, labels, inject, fail);
        let stream = |s: u64| {
            let mut rng = Rng::new(s);
            let mut cur = base.clone();
            let mut out = Vec::new();
            for _ in 0..rounds {
                cur = mutate(&cur, &mut rng, 4);
                out.push(cur.clone());
            }
            out
        };
        let a = stream(seed);
        let b = stream(seed);
        prop_assert_eq!(&a, &b, "mutant stream must replay exactly");
        let hashes_a: Vec<u64> = a.iter().map(FuzzInput::hash).collect();
        let hashes_b: Vec<u64> = b.iter().map(FuzzInput::hash).collect();
        prop_assert_eq!(hashes_a, hashes_b);
    }

    /// Save → load reproduces exactly the deduplicated entry list, and
    /// re-adding any loaded input is rejected as a duplicate.
    #[test]
    fn corpus_round_trips_and_dedups_by_hash(
        raw in prop::collection::vec(
            (prop::collection::vec(any::<u32>(), 0..8), any::<u64>(), any::<u64>()),
            1..16,
        ),
        tag in any::<u32>(),
    ) {
        let mut corpus = Corpus::new();
        for (hw, label_v, score) in &raw {
            let input = FuzzInput {
                hw: hw.clone(),
                labels: vec![("packet_len".into(), *label_v)],
                ..FuzzInput::default()
            };
            corpus.add(input, score % 100);
        }
        let path = std::env::temp_dir().join(format!(
            "ddt-prop-corpus-{}-{tag}.json",
            std::process::id()
        ));
        corpus.save(&path).unwrap();
        let back = Corpus::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.entries(), corpus.entries());
        let mut back = back;
        for e in corpus.entries() {
            prop_assert!(!back.add(e.input.clone(), 1), "loaded inputs are already present");
        }
        // Hash-identity sanity: entry count equals distinct hashes.
        let mut hashes: Vec<u64> = corpus.entries().iter().map(|e| e.input.hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        prop_assert_eq!(hashes.len(), corpus.len());
    }

    /// Over any script of adds (duplicates included), bumps and picks,
    /// `Corpus::pick` returns the index a linear scan over the current
    /// scores returns for the same `rng.below(total)` draw.
    #[test]
    fn picks_match_a_linear_scan_over_the_scores(
        script in prop::collection::vec((0u8..3, any::<u32>(), 0u64..5), 1..80),
        seed in any::<u64>(),
    ) {
        let mut corpus = Corpus::new();
        corpus.add(FuzzInput::default(), 1);
        let (mut tree_rng, mut scan_rng) = (Rng::new(seed), Rng::new(seed));
        for (op, x, delta) in script {
            match op {
                // Small values make duplicate adds common.
                0 => {
                    corpus.add(FuzzInput { hw: vec![x % 16], ..FuzzInput::default() }, delta);
                }
                1 => corpus.bump(x as usize % corpus.len(), delta),
                _ => {
                    let total: u64 = corpus.entries().iter().map(|e| e.score).sum();
                    let mut draw = scan_rng.below(total);
                    let mut scan = corpus.len() - 1;
                    for (i, e) in corpus.entries().iter().enumerate() {
                        if draw < e.score {
                            scan = i;
                            break;
                        }
                        draw -= e.score;
                    }
                    prop_assert_eq!(corpus.pick(&mut tree_rng), scan);
                }
            }
        }
    }
}
