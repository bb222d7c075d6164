//! Hash functions for workload routing.
//!
//! Elasticsearch (the paper's substrate) routes documents with Murmur3; ESDB
//! inherits that and layers *double hashing* on top: two independent hash
//! functions `h1` (applied to the tenant ID) and `h2` (applied to the record
//! ID), combined as `p = (h1(k1) + h2(k2) mod s) mod N` (paper Eq. 1/2).
//!
//! We implement MurmurHash3 x86/32-bit from scratch and derive `h1`/`h2` as
//! seeded instances, which makes them pair-wise independent in the sense the
//! double-hashing literature requires.

/// MurmurHash3, x86 32-bit variant.
///
/// Reference algorithm by Austin Appleby (public domain). Operates on an
/// arbitrary byte slice with a caller-supplied seed.
pub fn murmur3_32(data: &[u8], seed: u32) -> u32 {
    const C1: u32 = 0xcc9e_2d51;
    const C2: u32 = 0x1b87_3593;

    let mut h = seed;
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        let mut k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        k = k.wrapping_mul(C1);
        k = k.rotate_left(15);
        k = k.wrapping_mul(C2);
        h ^= k;
        h = h.rotate_left(13);
        h = h.wrapping_mul(5).wrapping_add(0xe654_6b64);
    }

    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut k: u32 = 0;
        for (i, &b) in rem.iter().enumerate() {
            k |= (b as u32) << (8 * i);
        }
        k = k.wrapping_mul(C1);
        k = k.rotate_left(15);
        k = k.wrapping_mul(C2);
        h ^= k;
    }

    h ^= data.len() as u32;
    fmix32(h)
}

/// Murmur3 finalization mix — forces avalanche of the final bits.
#[inline]
pub(crate) fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// 64-bit finalization mix (from MurmurHash3's fmix64 / splitmix64 family).
#[inline]
pub(crate) fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Stable 128-bit hash of a byte string (two independent FNV-1a/64 lanes,
/// each finalized with `fmix64`).
///
/// Used for query-plan fingerprints: the value must be identical across
/// runs, platforms, and process restarts (unlike `std`'s randomized
/// SipHash), and 128 bits keep the collision probability negligible even
/// for caches holding millions of distinct plans.
pub fn stable_hash128(data: &[u8]) -> u128 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    // Second lane: different offset basis (fmix of the first) makes the
    // lanes behave as independent functions of the input.
    let mut a = FNV_OFFSET;
    let mut b = fmix64(FNV_OFFSET);
    for &byte in data {
        a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
        b = (b ^ byte as u64).wrapping_mul(FNV_PRIME).rotate_left(29);
    }
    a = fmix64(a ^ data.len() as u64);
    b = fmix64(b.wrapping_add(data.len() as u64));
    ((a as u128) << 64) | b as u128
}

/// Seed for the primary (tenant-ID) routing hash.
pub(crate) const H1_SEED: u32 = 0;
/// Seed for the secondary (record-ID) routing hash. Any seed different from
/// [`H1_SEED`] yields an independent function; this constant matches the
/// value we calibrated the simulator with.
pub(crate) const H2_SEED: u32 = 0x9747_b28c;

/// Primary routing hash `h1`, applied to the tenant ID (`k1`).
#[inline]
pub fn h1(k1: u64) -> u32 {
    murmur3_32(&k1.to_le_bytes(), H1_SEED)
}

/// Secondary routing hash `h2`, applied to the record ID (`k2`).
#[inline]
pub fn h2(k2: u64) -> u32 {
    murmur3_32(&k2.to_le_bytes(), H2_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer tests for the reference Murmur3 x86/32 vectors.
    #[test]
    fn murmur3_known_vectors() {
        // Vectors cross-checked against the reference C++ implementation.
        assert_eq!(murmur3_32(b"", 0), 0);
        assert_eq!(murmur3_32(b"", 1), 0x514e_28b7);
        assert_eq!(murmur3_32(b"", 0xffff_ffff), 0x81f1_6f39);
        assert_eq!(murmur3_32(b"test", 0), 0xba6b_d213);
        assert_eq!(murmur3_32(b"test", 0x9747_b28c), 0x704b_81dc);
        assert_eq!(murmur3_32(b"\xff\xff\xff\xff", 0), 0x7629_3b50);
        assert_eq!(murmur3_32(b"aaaa", 0x9747_b28c), 0x5a97_808a);
        assert_eq!(murmur3_32(b"Hello, world!", 0x9747_b28c), 0x2488_4cba);
        assert_eq!(
            murmur3_32(b"The quick brown fox jumps over the lazy dog", 0x9747_b28c),
            0x2fa8_26cd
        );
    }

    #[test]
    fn h1_h2_differ() {
        // The two routing hashes must be independent: equal inputs must not
        // produce correlated outputs.
        let mut equal = 0;
        for k in 0..1000u64 {
            if h1(k) == h2(k) {
                equal += 1;
            }
        }
        assert!(equal <= 1, "h1 and h2 collide too often: {equal}");
    }

    #[test]
    fn h1_uniformity_over_shards() {
        // Chi-square style sanity check: hashing 100k tenant IDs into 64
        // buckets should give each bucket roughly 1/64 of the mass.
        const N: u64 = 100_000;
        const BUCKETS: usize = 64;
        let mut counts = [0usize; BUCKETS];
        for k in 0..N {
            counts[(h1(k) as usize) % BUCKETS] += 1;
        }
        let expected = N as f64 / BUCKETS as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "bucket {b} deviates {dev:.2} from uniform");
        }
    }

    #[test]
    fn fmix32_is_bijective_on_samples() {
        // fmix32 is invertible; distinct inputs must map to distinct outputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            assert!(seen.insert(fmix32(i)));
        }
    }

    #[test]
    fn stable_hash128_is_stable_and_sensitive() {
        // Known-answer: the fingerprint must never change across releases
        // (cached entries keyed by it would silently go stale otherwise —
        // harmless, but the determinism tests pin it on purpose).
        assert_eq!(stable_hash128(b""), stable_hash128(b""));
        assert_ne!(stable_hash128(b""), stable_hash128(b"\0"));
        assert_ne!(stable_hash128(b"ab"), stable_hash128(b"ba"));
        assert_ne!(stable_hash128(b"a"), stable_hash128(b"a\0"));
        // The two 64-bit lanes must not be trivially correlated.
        let h = stable_hash128(b"esdb");
        assert_ne!((h >> 64) as u64, h as u64);
    }
}
