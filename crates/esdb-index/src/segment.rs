//! Immutable segments.
//!
//! A segment is the unit Lucene (and hence ESDB) writes, merges, and — in
//! ESDB's physical replication (§5.2) — ships to replicas. It contains:
//!
//! * the stored documents,
//! * per-field inverted indexes (text tokens / keyword terms),
//! * per-field sorted numeric indexes (the single-column Bkd stand-in),
//! * columnar doc values for the sequential-scan access path (§5.1),
//! * composite indexes: 1-D BKD-style sorted key arrays over
//!   order-preserving concatenations of column values (§5.1),
//! * inverted indexes for the frequency-selected sub-attributes (§3.2),
//! * a live-docs bitmap carrying deletes (updates = delete + re-insert,
//!   exactly like Lucene).

use crate::postings::PostingList;
use esdb_common::fastmap::{FastMap, FastSet};
use esdb_doc::{Document, FieldValue};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Segment-local document id.
pub type DocId = u32;

/// Order-preserving mapping from `f64` to `u64` (IEEE-754 total order,
/// NaN excluded upstream): used as the sort key of f64 numeric indexes.
#[inline]
pub(crate) fn f64_sort_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}
/// Cluster-unique segment id.
pub type SegmentId = u64;

/// Encoded lower/upper bounds for a composite range lookup.
pub(crate) type EncodedRange<'a> = (Bound<&'a [u8]>, Bound<&'a [u8]>);

/// Columnar doc values for one field.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// 64-bit integers (Long / Bool as 0/1).
    I64(Vec<Option<i64>>),
    /// 64-bit floats.
    F64(Vec<Option<f64>>),
    /// Timestamps.
    U64(Vec<Option<u64>>),
    /// Keywords.
    Str(Vec<Option<String>>),
}

impl ColumnValues {
    /// The value at `doc` as a [`FieldValue`] (None = missing).
    pub fn get(&self, doc: DocId) -> Option<FieldValue> {
        let i = doc as usize;
        match self {
            ColumnValues::I64(v) => v.get(i)?.map(FieldValue::Int),
            ColumnValues::F64(v) => v.get(i)?.map(FieldValue::Float),
            ColumnValues::U64(v) => v.get(i)?.map(FieldValue::Timestamp),
            ColumnValues::Str(v) => v.get(i)?.clone().map(FieldValue::Str),
        }
    }
}

/// A composite index: sorted `(concatenated-key, doc)` pairs.
#[derive(Debug, Clone, Default)]
pub struct CompositeIndex {
    /// Ordered columns of the index.
    pub columns: Vec<String>,
    /// Sorted by key bytes.
    entries: Vec<(Vec<u8>, DocId)>,
}

impl CompositeIndex {
    /// Builds from unsorted entries.
    pub(crate) fn build(columns: Vec<String>, mut entries: Vec<(Vec<u8>, DocId)>) -> Self {
        entries.sort();
        CompositeIndex { columns, entries }
    }

    /// Docs whose key starts with `prefix` (the equality part), optionally
    /// constrained by a range on the next column.
    ///
    /// `range` bounds are order-preserving encodings of the range column's
    /// values. The sentinel byte `0xFF` never occurs as a field tag, so
    /// `prefix ++ [0xFF]` upper-bounds every extension of `prefix`.
    pub(crate) fn lookup(&self, prefix: &[u8], range: Option<EncodedRange<'_>>) -> PostingList {
        let (lo_key, hi_key): (Vec<u8>, Vec<u8>) = match range {
            None => {
                let mut hi = prefix.to_vec();
                hi.push(0xFF);
                (prefix.to_vec(), hi)
            }
            Some((lo, hi)) => {
                let lo_key = match lo {
                    Bound::Unbounded => prefix.to_vec(),
                    Bound::Included(b) => {
                        let mut k = prefix.to_vec();
                        k.extend_from_slice(b);
                        k
                    }
                    Bound::Excluded(b) => {
                        let mut k = prefix.to_vec();
                        k.extend_from_slice(b);
                        k.push(0xFF);
                        k
                    }
                };
                let hi_key = match hi {
                    Bound::Unbounded => {
                        let mut k = prefix.to_vec();
                        k.push(0xFF);
                        k
                    }
                    Bound::Included(b) => {
                        let mut k = prefix.to_vec();
                        k.extend_from_slice(b);
                        k.push(0xFF);
                        k
                    }
                    Bound::Excluded(b) => {
                        let mut k = prefix.to_vec();
                        k.extend_from_slice(b);
                        k
                    }
                };
                (lo_key, hi_key)
            }
        };
        let start = self
            .entries
            .partition_point(|(k, _)| k.as_slice() < lo_key.as_slice());
        let end = self
            .entries
            .partition_point(|(k, _)| k.as_slice() < hi_key.as_slice());
        PostingList::from_unsorted(self.entries[start..end].iter().map(|&(_, d)| d).collect())
    }

    /// Serialized size with common-prefix compression (§5.1 "by leveraging
    /// the common prefixes, we manage to increase the storage efficiency"):
    /// each key stores only the suffix differing from its predecessor.
    pub fn compressed_size(&self) -> usize {
        let mut sz = 0usize;
        let mut prev: &[u8] = &[];
        for (k, _) in &self.entries {
            let common = k
                .iter()
                .zip(prev.iter())
                .take_while(|(a, b)| a == b)
                .count();
            sz += 2 /* prefix len */ + (k.len() - common) + 4 /* doc id */;
            prev = k;
        }
        sz
    }

    /// Uncompressed serialized size (for the ablation bench).
    pub fn uncompressed_size(&self) -> usize {
        self.entries.iter().map(|(k, _)| k.len() + 4).sum()
    }
}

/// The write-once payload of a segment: stored docs plus every index
/// structure. Shared (`Arc`) between the engine's working set and any
/// number of pinned snapshots; never mutated after build.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentCore {
    pub(crate) docs: Vec<Document>,
    pub(crate) by_record: FastMap<u64, DocId>,
    /// field -> term -> postings.
    pub(crate) inverted: FastMap<String, BTreeMap<String, PostingList>>,
    /// field -> sorted (value, doc).
    pub(crate) numeric: FastMap<String, Vec<(i64, DocId)>>,
    /// field -> sorted (f64 sort key, doc) for Double columns.
    pub(crate) numeric_f64: FastMap<String, Vec<(u64, DocId)>>,
    pub(crate) doc_values: FastMap<String, ColumnValues>,
    /// composite-index name -> index.
    pub(crate) composites: FastMap<String, CompositeIndex>,
    /// sub-attribute name -> value -> postings (frequency-selected only).
    pub(crate) attr_inverted: FastMap<String, BTreeMap<String, PostingList>>,
    pub(crate) indexed_attrs: FastSet<String>,
    pub(crate) size_bytes: usize,
}

/// The per-segment tombstone overlay. Copy-on-write: a tombstone applied
/// while a snapshot shares the overlay clones the bitmap instead of
/// mutating it, so pinned readers keep their point-in-time liveness.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveDocs {
    pub(crate) bits: Vec<bool>,
    pub(crate) count: usize,
}

/// An immutable segment.
///
/// Cloning is O(1): the doc store and indexes live in a shared
/// [`SegmentCore`] and the tombstone bitmap in a shared [`LiveDocs`],
/// both behind `Arc`. Deletes copy the liveness overlay on write
/// (`Arc::make_mut`), never the core.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Cluster-unique id.
    pub id: SegmentId,
    pub(crate) core: std::sync::Arc<SegmentCore>,
    pub(crate) live: std::sync::Arc<LiveDocs>,
}

impl Segment {
    /// Assembles a segment from its built parts.
    pub(crate) fn from_parts(id: SegmentId, core: SegmentCore, live: LiveDocs) -> Self {
        Segment {
            id,
            core: std::sync::Arc::new(core),
            live: std::sync::Arc::new(live),
        }
    }

    /// Live (non-deleted) docs.
    pub fn live_count(&self) -> usize {
        self.live.count
    }

    /// Approximate on-disk size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.core.size_bytes
    }

    /// The stored document (even if deleted — callers filter by liveness).
    pub fn doc(&self, id: DocId) -> Option<&Document> {
        self.core.docs.get(id as usize)
    }

    /// Whether `id` is live.
    pub(crate) fn is_live(&self, id: DocId) -> bool {
        self.live.bits.get(id as usize).copied().unwrap_or(false)
    }

    /// Whether every doc in the segment is live (no tombstones): the
    /// block read path hands out stored posting blocks zero-copy when
    /// this holds.
    pub(crate) fn fully_live(&self) -> bool {
        self.live.count == self.core.docs.len()
    }

    /// Doc id holding `record_id`, if present and live.
    pub fn find_record(&self, record_id: u64) -> Option<DocId> {
        self.core
            .by_record
            .get(&record_id)
            .copied()
            .filter(|&d| self.is_live(d))
    }

    /// Marks the doc holding `record_id` deleted; returns whether a live
    /// doc was deleted. (Lucene-style per-segment tombstone.)
    ///
    /// Copy-on-write: if a pinned snapshot still shares this overlay, the
    /// bitmap is cloned first, so the snapshot's liveness is untouched.
    pub fn delete_record(&mut self, record_id: u64) -> bool {
        if let Some(&d) = self.core.by_record.get(&record_id) {
            if self.live.bits[d as usize] {
                let live = std::sync::Arc::make_mut(&mut self.live);
                live.bits[d as usize] = false;
                live.count -= 1;
                return true;
            }
        }
        false
    }

    /// All live docs.
    pub fn all_live(&self) -> PostingList {
        PostingList::from_sorted(
            (0..self.core.docs.len() as DocId)
                .filter(|&d| self.live.bits[d as usize])
                .collect(),
        )
    }

    /// Drops deleted docs from a posting list.
    pub(crate) fn filter_live(&self, list: PostingList) -> PostingList {
        if self.live.count == self.core.docs.len() {
            return list;
        }
        PostingList::from_sorted(
            list.iter()
                .filter(|&d| self.live.bits[d as usize])
                .collect(),
        )
    }

    /// `Segment::filter_live` over a borrowed list: callers holding a
    /// shared (e.g. cached) posting list skip the upfront clone when
    /// tombstones force a rebuild anyway.
    pub fn filter_live_ref(&self, list: &PostingList) -> PostingList {
        if self.live.count == self.core.docs.len() {
            return list.clone();
        }
        PostingList::from_sorted(
            list.iter()
                .filter(|&d| self.live.bits[d as usize])
                .collect(),
        )
    }

    /// Term lookup in a field's inverted index (term must be normalized).
    pub fn term_docs(&self, field: &str, term: &str) -> PostingList {
        self.core
            .inverted
            .get(field)
            .and_then(|m| m.get(term))
            .cloned()
            .map(|l| self.filter_live(l))
            .unwrap_or_default()
    }

    /// Whether `field` has an inverted index in this segment.
    pub fn has_inverted(&self, field: &str) -> bool {
        self.core.inverted.contains_key(field)
    }

    /// Whether `field` has a numeric index in this segment.
    pub fn has_numeric(&self, field: &str) -> bool {
        self.core.numeric.contains_key(field)
    }

    /// Whether `field` has an f64 numeric index in this segment.
    pub fn has_numeric_f64(&self, field: &str) -> bool {
        self.core.numeric_f64.contains_key(field)
    }

    /// f64 range lookup with explicit bound kinds.
    pub fn numeric_f64_range(
        &self,
        field: &str,
        lo: std::ops::Bound<f64>,
        hi: std::ops::Bound<f64>,
    ) -> PostingList {
        let Some(idx) = self.core.numeric_f64.get(field) else {
            return PostingList::new();
        };
        let start = match lo {
            std::ops::Bound::Unbounded => 0,
            std::ops::Bound::Included(v) => {
                let k = f64_sort_key(v);
                idx.partition_point(|&(x, _)| x < k)
            }
            std::ops::Bound::Excluded(v) => {
                let k = f64_sort_key(v);
                idx.partition_point(|&(x, _)| x <= k)
            }
        };
        let end = match hi {
            std::ops::Bound::Unbounded => idx.len(),
            std::ops::Bound::Included(v) => {
                let k = f64_sort_key(v);
                idx.partition_point(|&(x, _)| x <= k)
            }
            std::ops::Bound::Excluded(v) => {
                let k = f64_sort_key(v);
                idx.partition_point(|&(x, _)| x < k)
            }
        };
        self.filter_live(PostingList::from_unsorted(
            idx[start..end].iter().map(|&(_, d)| d).collect(),
        ))
    }

    /// Exact f64 lookup.
    pub fn numeric_f64_eq(&self, field: &str, value: f64) -> PostingList {
        self.numeric_f64_range(
            field,
            std::ops::Bound::Included(value),
            std::ops::Bound::Included(value),
        )
    }

    /// Numeric range lookup `[lo, hi]` (inclusive, either side optional).
    pub fn numeric_range(&self, field: &str, lo: Option<i64>, hi: Option<i64>) -> PostingList {
        let Some(idx) = self.core.numeric.get(field) else {
            return PostingList::new();
        };
        let start = match lo {
            None => 0,
            Some(l) => idx.partition_point(|&(v, _)| v < l),
        };
        let end = match hi {
            None => idx.len(),
            Some(h) => idx.partition_point(|&(v, _)| v <= h),
        };
        self.filter_live(PostingList::from_unsorted(
            idx[start..end].iter().map(|&(_, d)| d).collect(),
        ))
    }

    /// Exact numeric lookup.
    pub fn numeric_eq(&self, field: &str, value: i64) -> PostingList {
        self.numeric_range(field, Some(value), Some(value))
    }

    /// Access to a composite index by name.
    pub fn composite(&self, name: &str) -> Option<&CompositeIndex> {
        self.core.composites.get(name)
    }

    /// Composite lookup, filtered to live docs.
    pub fn composite_lookup(
        &self,
        name: &str,
        prefix: &[u8],
        range: Option<EncodedRange<'_>>,
    ) -> PostingList {
        self.core
            .composites
            .get(name)
            .map(|c| self.filter_live(c.lookup(prefix, range)))
            .unwrap_or_default()
    }

    /// Sub-attribute lookup; `None` when the attribute is not
    /// frequency-indexed in this segment (callers fall back to a stored-doc
    /// scan).
    pub fn attr_docs(&self, name: &str, value: &str) -> Option<PostingList> {
        if !self.core.indexed_attrs.contains(name) {
            return None;
        }
        Some(
            self.core
                .attr_inverted
                .get(name)
                .and_then(|m| m.get(value))
                .cloned()
                .map(|l| self.filter_live(l))
                .unwrap_or_default(),
        )
    }

    /// Doc-value read for the sequential-scan path and aggregation.
    ///
    /// The routing virtuals (`tenant_id`/`record_id`/`created_time`) are
    /// served from the typed columns the builder emits; the stored-payload
    /// read only remains as a fallback for segments assembled outside the
    /// builder.
    pub fn doc_value(&self, field: &str, doc: DocId) -> Option<FieldValue> {
        if let Some(c) = self.core.doc_values.get(field) {
            return c.get(doc);
        }
        match field {
            "tenant_id" => self
                .doc(doc)
                .map(|d| FieldValue::Int(d.tenant_id.raw() as i64)),
            "record_id" => self
                .doc(doc)
                .map(|d| FieldValue::Int(d.record_id.raw() as i64)),
            "created_time" => self.doc(doc).map(|d| FieldValue::Timestamp(d.created_at)),
            _ => None,
        }
    }

    /// Direct access to a field's columnar doc values (including the
    /// routing virtuals): the typed fast path for block-wise scan filters,
    /// sort-key extraction, and aggregation pushdown.
    pub fn column(&self, field: &str) -> Option<&ColumnValues> {
        self.core.doc_values.get(field)
    }

    /// Whether a doc-values column exists for `field`.
    pub fn has_doc_values(&self, field: &str) -> bool {
        matches!(field, "tenant_id" | "record_id" | "created_time")
            || self.core.doc_values.contains_key(field)
    }

    /// Sequential scan (§5.1): filter an input posting list by a predicate
    /// on a doc-values column, producing the filtered list.
    pub fn scan_filter<F>(&self, field: &str, input: &PostingList, pred: F) -> PostingList
    where
        F: Fn(Option<&FieldValue>) -> bool,
    {
        PostingList::from_sorted(
            input
                .iter()
                .filter(|&d| pred(self.doc_value(field, d).as_ref()))
                .collect(),
        )
    }

    /// Names of the sub-attributes indexed in this segment.
    pub fn indexed_attrs(&self) -> &FastSet<String> {
        &self.core.indexed_attrs
    }

    /// Iterates live documents (doc id + document).
    pub fn live_docs(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.core
            .docs
            .iter()
            .enumerate()
            .filter(|(i, _)| self.live.bits[*i])
            .map(|(i, d)| (i as DocId, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_prefix_and_range_lookup() {
        // Keys: (tenant, time) with tenant ∈ {1,2}, time ∈ {10,20,30}.
        let mut entries = Vec::new();
        let mut doc = 0u32;
        for tenant in [1i64, 2] {
            for t in [10u64, 20, 30] {
                let mut k = FieldValue::Int(tenant).to_ordered_bytes();
                FieldValue::Timestamp(t).encode_ordered(&mut k);
                entries.push((k, doc));
                doc += 1;
            }
        }
        let idx = CompositeIndex::build(vec!["tenant_id".into(), "created_time".into()], entries);

        // Prefix-only: tenant 1 → docs 0,1,2.
        let p1 = FieldValue::Int(1).to_ordered_bytes();
        assert_eq!(idx.lookup(&p1, None).ids(), &[0, 1, 2]);

        // Range: tenant 1, time in [15, 30] → docs 1,2.
        let lo = FieldValue::Timestamp(15).to_ordered_bytes();
        let hi = FieldValue::Timestamp(30).to_ordered_bytes();
        let got = idx.lookup(&p1, Some((Bound::Included(&lo), Bound::Included(&hi))));
        assert_eq!(got.ids(), &[1, 2]);

        // Exclusive upper bound drops 30.
        let got = idx.lookup(&p1, Some((Bound::Included(&lo), Bound::Excluded(&hi))));
        assert_eq!(got.ids(), &[1]);

        // Exclusive lower bound from 10.
        let lo10 = FieldValue::Timestamp(10).to_ordered_bytes();
        let got = idx.lookup(&p1, Some((Bound::Excluded(&lo10), Bound::Unbounded)));
        assert_eq!(got.ids(), &[1, 2]);

        // Missing tenant.
        let p9 = FieldValue::Int(9).to_ordered_bytes();
        assert!(idx.lookup(&p9, None).is_empty());
    }

    #[test]
    fn composite_prefix_does_not_leak_across_values() {
        // Tenant 1 vs tenant 16777216: int encodings are fixed-width so no
        // prefix confusion; strings exercise the prefix-free property.
        let mut entries = Vec::new();
        for (i, s) in ["ab", "abc", "b"].iter().enumerate() {
            entries.push((FieldValue::Str((*s).into()).to_ordered_bytes(), i as u32));
        }
        let idx = CompositeIndex::build(vec!["k".into()], entries);
        let p = FieldValue::Str("ab".into()).to_ordered_bytes();
        assert_eq!(
            idx.lookup(&p, None).ids(),
            &[0],
            "'abc' must not match 'ab'"
        );
    }

    #[test]
    fn prefix_compression_shrinks_size() {
        let mut entries = Vec::new();
        for t in 0..1000u64 {
            let mut k = FieldValue::Int(42).to_ordered_bytes();
            FieldValue::Timestamp(t).encode_ordered(&mut k);
            entries.push((k, t as u32));
        }
        let idx = CompositeIndex::build(vec!["a".into(), "b".into()], entries);
        assert!(
            idx.compressed_size() < idx.uncompressed_size() / 2,
            "shared tenant prefix should compress well: {} vs {}",
            idx.compressed_size(),
            idx.uncompressed_size()
        );
    }
}
