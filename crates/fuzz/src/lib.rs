//! `ddt-fuzz`: the mutational half of DDT's hybrid concolic/fuzzing loop.
//!
//! The symbolic interpreter explores deeply but slowly; this crate supplies
//! the fast, dumb counterpart — deterministic mutation of driver entry-point
//! inputs (hardware read values, kernel-boundary values like packet bytes
//! and OIDs, interrupt/fault schedules) executed on the concrete VM at
//! superblock speed. It deliberately has **no** dependency on the rest of
//! the workspace: the `ddt-core` hybrid campaign owns all execution and
//! escalation glue, and this crate only defines the input shape
//! ([`FuzzInput`]), the [`corpus`] with its weighted power schedule
//! ([`Corpus::pick`]), and the [`mutate`] operators.
//!
//! Everything here is deterministic under a fixed seed: the PRNG is a
//! self-contained SplitMix64 (the vendored `rand` is an empty placeholder),
//! and no container with nondeterministic iteration order feeds mutation
//! decisions.

use serde::{Deserialize, Serialize};

pub mod corpus;
pub mod mutate;
mod sched;

pub use corpus::{Corpus, CorpusEntry};
pub use mutate::mutate;

/// Deterministic SplitMix64 PRNG.
///
/// Chosen for statelessness-per-step (one u64 of state) so a fuzz campaign's
/// entire randomness is reproducible from one seed, which the differential
/// harness relies on.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

/// One complete concrete input to a driver exercise run.
///
/// This is the corpus unit and the mutation target: everything the concrete
/// executor needs to deterministically replay one driver workload. The
/// fields mirror the symbolic run's input surface (DESIGN.md §4.10) —
/// hardware reads become scripted values, kernel-boundary symbols become
/// labeled overrides, and the scheduler decisions become explicit lists.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuzzInput {
    /// Values served, in order, to every hardware read (MMIO and port I/O
    /// share one stream, matching replay semantics).
    pub hw: Vec<u32>,
    /// Labeled kernel-boundary overrides, consumed per-label in order:
    /// `packet_len`, `packet[i]`, `QueryInformation:oid`, ...
    pub labels: Vec<(String, u64)>,
    /// Entry boundaries (1-based) at which an interrupt is injected.
    pub inject_at: Vec<u64>,
    /// Kernel-call indices (1-based) whose allocation is forced to fail.
    pub fail_at: Vec<u64>,
    /// Device-lifecycle events `(boundary, event_code)` injected at entry
    /// boundaries: 1 = surprise removal, 2 = suspend (D0→D3), 3 = resume
    /// (D3→D0). Codes match the PnP-notification callback argument.
    pub lifecycle: Vec<(u64, u8)>,
}

impl FuzzInput {
    /// Content hash (FNV-1a over a canonical byte encoding) used for corpus
    /// dedup and stable on-disk identity.
    pub fn hash(&self) -> u64 {
        fn eat(h: &mut u64, b: u8) {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fn eat64(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                eat(h, b);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        // Length prefixes keep the encoding injective across field
        // boundaries.
        eat64(&mut h, self.hw.len() as u64);
        for &v in &self.hw {
            eat64(&mut h, v as u64);
        }
        eat64(&mut h, self.labels.len() as u64);
        for (label, v) in &self.labels {
            eat64(&mut h, label.len() as u64);
            for &b in label.as_bytes() {
                eat(&mut h, b);
            }
            eat64(&mut h, *v);
        }
        eat64(&mut h, self.inject_at.len() as u64);
        for &b in &self.inject_at {
            eat64(&mut h, b);
        }
        eat64(&mut h, self.fail_at.len() as u64);
        for &b in &self.fail_at {
            eat64(&mut h, b);
        }
        eat64(&mut h, self.lifecycle.len() as u64);
        for &(b, code) in &self.lifecycle {
            eat64(&mut h, b);
            eat(&mut h, code);
        }
        h
    }

    /// Hex form of [`FuzzInput::hash`], the input's stable id.
    pub fn id(&self) -> String {
        format!("{:016x}", self.hash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_not_constant() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = Rng::new(43);
        assert_ne!(xs[0], c.next_u64(), "different seeds diverge");
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn input_hash_is_field_sensitive() {
        let base = FuzzInput { hw: vec![1, 2], ..FuzzInput::default() };
        let mut other = base.clone();
        assert_eq!(base.hash(), other.hash());
        other.hw[0] = 9;
        assert_ne!(base.hash(), other.hash());
        // Moving a value across the field boundary must change the hash.
        let a = FuzzInput { hw: vec![1], inject_at: vec![], ..FuzzInput::default() };
        let b = FuzzInput { hw: vec![], inject_at: vec![1], ..FuzzInput::default() };
        assert_ne!(a.hash(), b.hash());
        let with_label =
            FuzzInput { labels: vec![("packet_len".into(), 64)], ..FuzzInput::default() };
        assert_ne!(base.hash(), with_label.hash());
        assert_eq!(with_label.id().len(), 16);
        let with_lifecycle =
            FuzzInput { lifecycle: vec![(3, 1)], ..FuzzInput::default() };
        assert_ne!(FuzzInput::default().hash(), with_lifecycle.hash());
    }
}
