//! The one hasher for maps keyed by integers and node digests.
//!
//! The executors look up guest pages, decoded blocks, memory bytes and
//! kernel objects by address on every step, and the expression interner
//! and the solver's query cache look up nodes by digest on every query.
//! SipHash, the standard map's default, costs more there than the rest of
//! the lookup. These keys are either small integers or digests that are
//! already well mixed, so one multiplication is enough.
//!
//! It lives here because every machine layer and the expression layer
//! depend on this crate, so they all name the same hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes integers with one multiplication instead of SipHash.
///
/// The Fibonacci multiplier spreads small dense keys over the high bits of
/// the hash (a `HashMap`'s tag), and folding the high half into the low
/// half spreads them over the low bits (its bucket), even for keys that
/// differ only in their high bits, as page bases and symbol ids read from
/// a trace file do. A key that writes several words (a slice, a tuple) or
/// bytes has them folded in one word at a time.
///
/// Not for keys an adversary picks: nothing here resists collisions.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        BuildIntHasher::default().hash_one(v)
    }

    #[test]
    fn dense_keys_spread_over_low_and_high_bits() {
        // Page bases differ only above bit 12; consecutive ids only in the
        // lowest bits. Both must reach a map's bucket bits and its tag.
        for keys in [(0..256u32).map(|p| p << 12).collect::<Vec<_>>(), (0..256u32).collect()] {
            let low: HashSet<u64> = keys.iter().map(|&k| hash(k) & 0xff).collect();
            let high: HashSet<u64> = keys.iter().map(|&k| hash(k) >> 57).collect();
            assert!(low.len() > 128, "bucket bits collide: {} of 256", low.len());
            assert!(high.len() > 96, "tag bits collide: {} of 128", high.len());
        }
    }

    #[test]
    fn widths_and_length_prefixes_hash_alike() {
        // A u32 key and its u64 widening are one word either way, and a
        // slice's length prefix is one word too, not eight bytes.
        assert_eq!(hash(7u32), hash(7u64));
        let mut h = IntHasher::default();
        h.write_usize(3);
        assert_eq!(h.finish(), hash(3u64));
    }
}
