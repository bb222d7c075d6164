//! Segment merging (paper §3.3: "segment merge ... merges smaller segments
//! to a large segment. It costs computation resources but effectively
//! improves query efficiency").
//!
//! [`TieredMergePolicy`] picks merge candidates the way Lucene's tiered
//! policy does in spirit: when enough segments of the same size tier exist,
//! they merge into one. [`merge_segments`] performs the physical merge by
//! re-indexing the union of live documents (deletes are purged, like
//! Lucene's compaction).

use crate::analyzer::Analyzer;
use crate::builder::build_segment;
use crate::segment::{Segment, SegmentId};
use esdb_common::fastmap::FastSet;
use esdb_doc::CollectionSchema;

/// Chooses which segments to merge.
pub trait MergePolicy: Send + Sync {
    /// Given current segment sizes `(id, live_docs, bytes)`, returns the
    /// ids to merge (empty = no merge now).
    fn select(&self, segments: &[(SegmentId, usize, usize)]) -> Vec<SegmentId>;
}

/// Merge when at least `segments_per_tier` segments fall in the same
/// power-of-`tier_factor` size bucket.
#[derive(Debug, Clone)]
pub struct TieredMergePolicy {
    /// How many same-tier segments trigger a merge.
    pub segments_per_tier: usize,
    /// Size ratio separating tiers.
    pub tier_factor: usize,
    /// Segments above this byte size are never merged (already "large").
    pub max_merged_bytes: usize,
}

impl Default for TieredMergePolicy {
    fn default() -> Self {
        TieredMergePolicy {
            segments_per_tier: 4,
            tier_factor: 8,
            max_merged_bytes: 256 << 20,
        }
    }
}

impl TieredMergePolicy {
    fn tier_of(&self, bytes: usize) -> u32 {
        let mut tier = 0u32;
        let mut bound = 4096usize;
        while bytes > bound {
            bound = bound.saturating_mul(self.tier_factor);
            tier += 1;
        }
        tier
    }
}

impl MergePolicy for TieredMergePolicy {
    fn select(&self, segments: &[(SegmentId, usize, usize)]) -> Vec<SegmentId> {
        use std::collections::BTreeMap;
        let mut tiers: BTreeMap<u32, Vec<SegmentId>> = BTreeMap::new();
        for &(id, _live, bytes) in segments {
            if bytes <= self.max_merged_bytes {
                tiers.entry(self.tier_of(bytes)).or_default().push(id);
            }
        }
        for (_, ids) in tiers {
            if ids.len() >= self.segments_per_tier {
                return ids;
            }
        }
        Vec::new()
    }
}

/// Physically merges `inputs` into one segment with id `new_id`, dropping
/// deleted docs and rebuilding all indexes. `indexed_attrs` is the *current*
/// frequency-based set, so a merge naturally re-applies index policy changes.
pub fn merge_segments(
    new_id: SegmentId,
    inputs: &[&Segment],
    schema: &CollectionSchema,
    indexed_attrs: &FastSet<String>,
) -> Segment {
    let mut docs = Vec::with_capacity(inputs.iter().map(|s| s.live_count()).sum());
    let mut size = 0usize;
    for seg in inputs {
        for (_, d) in seg.live_docs() {
            size += d.approx_size();
            docs.push(d.clone());
        }
    }
    build_segment(
        new_id,
        docs,
        schema,
        &Analyzer::default(),
        indexed_attrs,
        size,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SegmentBuilder;
    use esdb_common::fastmap::fast_set;
    use esdb_common::{RecordId, TenantId};
    use esdb_doc::Document;

    fn seg(id: SegmentId, records: std::ops::Range<u64>) -> Segment {
        let mut b = SegmentBuilder::without_attr_index(CollectionSchema::transaction_logs());
        for r in records {
            b.add(
                Document::builder(TenantId(1), RecordId(r), 100 + r)
                    .field("status", (r % 2) as i64)
                    .field("auction_title", format!("item {r}"))
                    .build(),
            );
        }
        b.refresh(id)
    }

    #[test]
    fn tiered_policy_triggers_on_same_tier() {
        let p = TieredMergePolicy {
            segments_per_tier: 3,
            tier_factor: 8,
            max_merged_bytes: 1 << 30,
        };
        // Three tiny segments -> merge; two -> no merge.
        assert!(!p
            .select(&[(1, 10, 100), (2, 10, 120), (3, 10, 90)])
            .is_empty());
        assert!(p.select(&[(1, 10, 100), (2, 10, 120)]).is_empty());
        // Different tiers don't combine.
        assert!(p
            .select(&[(1, 10, 100), (2, 10, 1 << 20), (3, 10, 1 << 26)])
            .is_empty());
    }

    #[test]
    fn oversized_segments_left_alone() {
        let p = TieredMergePolicy {
            segments_per_tier: 2,
            tier_factor: 8,
            max_merged_bytes: 1000,
        };
        assert!(p
            .select(&[(1, 10, 2000), (2, 10, 2100), (3, 10, 2200)])
            .is_empty());
    }

    #[test]
    fn merge_unions_docs_and_purges_deletes() {
        let a = seg(1, 0..5);
        let mut b = seg(2, 5..10);
        assert!(b.delete_record(7));
        let schema = CollectionSchema::transaction_logs();
        let merged = merge_segments(3, &[&a, &b], &schema, &fast_set());
        assert_eq!(merged.id, 3);
        assert_eq!(merged.core.docs.len(), 9, "delete purged during merge");
        assert_eq!(merged.live_count(), 9);
        // All surviving records findable; deleted one gone.
        assert!(merged.find_record(4).is_some());
        assert!(merged.find_record(9).is_some());
        assert!(merged.find_record(7).is_none());
        // Indexes rebuilt.
        assert_eq!(merged.numeric_eq("status", 0).len(), 5); // 0,2,4,6,8
        assert_eq!(merged.term_docs("auction_title", "item").len(), 9);
    }

    #[test]
    fn merge_applies_new_attr_policy() {
        let mut b1 = SegmentBuilder::without_attr_index(CollectionSchema::transaction_logs());
        b1.add(
            Document::builder(TenantId(1), RecordId(1), 1)
                .attr("activity", "618")
                .build(),
        );
        let s1 = b1.refresh(1);
        assert!(
            s1.attr_docs("activity", "618").is_none(),
            "not indexed at build time"
        );
        let mut attrs = fast_set();
        attrs.insert("activity".to_string());
        let schema = CollectionSchema::transaction_logs();
        let merged = merge_segments(2, &[&s1], &schema, &attrs);
        assert_eq!(
            merged.attr_docs("activity", "618").unwrap().ids(),
            &[0],
            "merge re-applies the current frequency-based policy"
        );
    }
}
