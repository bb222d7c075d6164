//! Consecutive shard spans.
//!
//! Both double hashing and dynamic secondary hashing place a tenant's data
//! on a run of *consecutive* shards starting at `h1(k1) mod N` (paper §4.2:
//! reads go to shards `h1(k1) mod N` through `(h1(k1)+s-1) mod N`). The span
//! wraps around the shard ring.

use esdb_common::ShardId;
use serde::{Deserialize, Serialize};

/// A wrap-around run of `len` consecutive shards out of `n`, starting at
/// `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardSpan {
    /// First shard of the span (already reduced mod `n`).
    pub base: u32,
    /// Number of shards in the span (`1 ..= n`).
    pub len: u32,
    /// Ring size (total shard count).
    pub n: u32,
}

impl ShardSpan {
    /// Creates a span; `len` is clamped to `n`.
    pub fn new(base: u32, len: u32, n: u32) -> Self {
        assert!(n > 0, "shard ring must be non-empty");
        ShardSpan {
            base: base % n,
            len: len.clamp(1, n),
            n,
        }
    }

    /// The shard at offset `i` within the span.
    #[inline]
    pub(crate) fn at(&self, i: u32) -> ShardId {
        debug_assert!(i < self.len);
        ShardId((self.base + i) % self.n)
    }

    /// Whether the span contains `shard`.
    pub fn contains(&self, shard: ShardId) -> bool {
        let s = shard.0 % self.n;
        let rel = (s + self.n - self.base) % self.n;
        rel < self.len
    }

    /// Iterates the shards of the span in ring order.
    pub fn iter(&self) -> impl Iterator<Item = ShardId> + '_ {
        (0..self.len).map(move |i| self.at(i))
    }

    /// Whether `other` is fully contained in `self` (used to check that a
    /// grown span still covers all historical placements).
    pub fn covers(&self, other: &ShardSpan) -> bool {
        assert_eq!(self.n, other.n, "spans over different rings");
        other.iter().all(|s| self.contains(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_span() {
        let s = ShardSpan::new(3, 4, 16);
        let shards: Vec<u32> = s.iter().map(|x| x.0).collect();
        assert_eq!(shards, vec![3, 4, 5, 6]);
        assert!(s.contains(ShardId(3)));
        assert!(s.contains(ShardId(6)));
        assert!(!s.contains(ShardId(7)));
        assert!(!s.contains(ShardId(2)));
    }

    #[test]
    fn wrapping_span() {
        let s = ShardSpan::new(14, 4, 16);
        let shards: Vec<u32> = s.iter().map(|x| x.0).collect();
        assert_eq!(shards, vec![14, 15, 0, 1]);
        assert!(s.contains(ShardId(0)));
        assert!(!s.contains(ShardId(2)));
    }

    #[test]
    fn len_clamps_to_ring() {
        let s = ShardSpan::new(5, 100, 8);
        assert_eq!(s.len, 8);
        assert_eq!(s.iter().count(), 8);
        // Full ring contains everything.
        for i in 0..8 {
            assert!(s.contains(ShardId(i)));
        }
    }

    #[test]
    fn nested_spans_cover() {
        let small = ShardSpan::new(10, 2, 16);
        let big = ShardSpan::new(10, 8, 16);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
    }

    proptest! {
        #[test]
        fn prop_same_base_longer_span_covers(base in 0u32..64, l1 in 1u32..64, l2 in 1u32..64, n in 1u32..64) {
            let a = ShardSpan::new(base, l1.min(l2), n);
            let b = ShardSpan::new(base, l1.max(l2), n);
            prop_assert!(b.covers(&a));
        }

        #[test]
        fn prop_contains_matches_iter(base in 0u32..100, len in 1u32..100, n in 1u32..100, probe in 0u32..100) {
            let s = ShardSpan::new(base, len, n);
            let listed: Vec<u32> = s.iter().map(|x| x.0).collect();
            prop_assert_eq!(s.contains(ShardId(probe % n)), listed.contains(&(probe % n)));
        }
    }
}
