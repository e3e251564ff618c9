//! Stable trace signatures for bug triage.
//!
//! A signature identifies *the bug*, not *the path*: two states that reach
//! the same defect along different forked paths (or in different runs) must
//! produce the same signature, while distinct defects must not collide in
//! practice. The ingredients are exactly the path-invariant parts of a bug:
//!
//! - the driver program counter the failure is attributed to,
//! - the call-ish stack (entry point and interrupt/timer frames active at
//!   the failure),
//! - the checker that fired (the `viol:` / `fault:` / `lockorder:` ...
//!   family prefix of the dedup key),
//! - the sorted provenance roots of the symbols the failing condition
//!   depended on (which hardware registers / registry parameters / entry
//!   arguments fed it).
//!
//! Solved input values, event counts, and decision schedules are all
//! path-dependent and deliberately excluded.

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, data)
}

/// Continues a 64-bit FNV-1a hash whose state over some prefix is `h`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`. This is what lets a
/// hash over a growing byte stream be kept up to date in O(new bytes).
pub fn fnv1a64_extend(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checker family of a dedup key: the prefix before the first `:`.
pub fn checker_id(key: &str) -> &str {
    key.split(':').next().unwrap_or(key)
}

/// Computes the 16-hex-digit trace signature.
///
/// `roots` is sorted internally, so callers may pass provenance roots in
/// any order (path enumeration order differs between duplicate paths).
pub fn signature(pc: u32, stack: &[String], checker: &str, roots: &[String]) -> String {
    let mut sorted: Vec<&str> = roots.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&pc.to_le_bytes());
    for frame in stack {
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(0);
    }
    bytes.push(1);
    bytes.extend_from_slice(checker.as_bytes());
    bytes.push(1);
    for root in sorted {
        bytes.extend_from_slice(root.as_bytes());
        bytes.push(0);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_ignores_root_order_and_duplicates() {
        let a = signature(
            0x40_0010,
            &["Initialize".into()],
            "viol",
            &["hw:0x8000".into(), "reg:MaxList".into()],
        );
        let b = signature(
            0x40_0010,
            &["Initialize".into()],
            "viol",
            &["reg:MaxList".into(), "hw:0x8000".into(), "hw:0x8000".into()],
        );
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn signature_distinguishes_every_ingredient() {
        let base = signature(0x10, &["Initialize".into()], "viol", &["hw:1".into()]);
        assert_ne!(base, signature(0x14, &["Initialize".into()], "viol", &["hw:1".into()]));
        assert_ne!(base, signature(0x10, &["HandleInterrupt".into()], "viol", &["hw:1".into()]));
        assert_ne!(base, signature(0x10, &["Initialize".into()], "fault", &["hw:1".into()]));
        assert_ne!(base, signature(0x10, &["Initialize".into()], "viol", &["hw:2".into()]));
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        // ["ab"] + checker "c" must differ from ["a"] + checker "bc" etc.
        let a = signature(0, &["ab".into()], "c", &[]);
        let b = signature(0, &["a".into(), "b".into()], "c", &[]);
        let c = signature(0, &["a".into()], "bc", &[]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn checker_id_strips_site_suffix() {
        assert_eq!(checker_id("viol:0x400010:read"), "viol");
        assert_eq!(checker_id("lockorder:a<b"), "lockorder");
        assert_eq!(checker_id("bare"), "bare");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a test vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_extends_across_any_split() {
        let data = b"[{\"a\":1},{\"b\":2}]";
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            assert_eq!(fnv1a64_extend(fnv1a64(head), tail), fnv1a64(data));
        }
    }
}
