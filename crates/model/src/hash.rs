//! Stable byte hashing.

/// FNV-1a over a byte slice: stable across platforms and runs (unlike the
/// std `DefaultHasher`), dependency-free, good enough dispersion for shard
/// selection, journal checksums and golden fingerprints.
///
/// # Examples
///
/// ```
/// use ftes_model::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pinned values: the hash must never drift across platforms/runs
        // (shard selection, journal checksums and report signatures rely
        // on it).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
