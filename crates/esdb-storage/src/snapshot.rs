//! Epoch-published point-in-time snapshots of a shard's searchable state.
//!
//! The engine owns the mutable indexing state (buffer, translog, segment
//! working set). Readers never touch it: every visibility change
//! (refresh, merge, tombstone, recovery) publishes a fresh immutable
//! [`ShardSnapshot`] into the shard's [`SnapshotCell`], and queries pin
//! the current snapshot once — two atomic ref-count bumps under a
//! sub-microsecond read lock — then run entirely lock-free against it.
//! Maintenance never waits on readers; a pinned snapshot keeps answering
//! identically even after the engine merges away its segments, because
//! the segment payloads are `Arc`-shared and tombstones copy the
//! liveness overlay on write instead of mutating it in place.
//!
//! Retired segments are freed by reference counting: when the last
//! pinned snapshot referencing a merged-away segment drops, the segment
//! memory goes with it. There is no epoch list to scan and no grace
//! period — lifetime is exact.

use esdb_common::fastmap::FastSet;
use esdb_doc::Document;
use esdb_index::snapshot::SnapshotView;
use esdb_index::Segment;
use parking_lot::RwLock;
use std::sync::Arc;

/// An immutable point-in-time view of one shard's searchable state.
///
/// The segment set, every segment's liveness bitmap, and the search
/// generation are captured together at publish time, so they can never
/// disagree: a cache entry keyed on `(segment id, search_generation)`
/// read out of one pinned snapshot is exact by construction.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    segments: Arc<[Arc<Segment>]>,
    search_generation: u64,
    live_docs: usize,
    indexed_attrs: Arc<FastSet<String>>,
}

impl ShardSnapshot {
    /// Captures a snapshot from the engine's working set.
    pub(crate) fn capture(
        segments: &[Arc<Segment>],
        search_generation: u64,
        indexed_attrs: Arc<FastSet<String>>,
    ) -> Self {
        ShardSnapshot {
            live_docs: segments.iter().map(|s| s.live_count()).sum(),
            segments: segments.to_vec().into(),
            search_generation,
            indexed_attrs,
        }
    }

    /// The sealed segments of this view, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The generation this view was published under.
    pub fn search_generation(&self) -> u64 {
        self.search_generation
    }

    /// Live docs visible to this view.
    pub fn live_docs(&self) -> usize {
        self.live_docs
    }

    /// Sub-attributes indexed as of this view.
    pub fn indexed_attrs(&self) -> &FastSet<String> {
        &self.indexed_attrs
    }

    /// Looks up a live record in this view, returning the stored document.
    pub fn get_record(&self, record_id: u64) -> Option<&Document> {
        for seg in self.segments.iter() {
            if let Some(d) = seg.find_record(record_id) {
                return seg.doc(d);
            }
        }
        None
    }

    /// Whether a live doc holding `record_id` is visible in this view.
    pub fn contains_record(&self, record_id: u64) -> bool {
        self.segments
            .iter()
            .any(|s| s.find_record(record_id).is_some())
    }
}

impl SnapshotView for ShardSnapshot {
    fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    fn search_generation(&self) -> u64 {
        self.search_generation
    }

    fn live_count(&self) -> usize {
        self.live_docs
    }
}

/// The publication point: an arc-swap-style cell holding the current
/// snapshot. Writers replace the `Arc` under a write lock held for one
/// pointer store; readers clone it out under a read lock held for one
/// ref-count bump. Neither side ever blocks on query execution.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<ShardSnapshot>>,
}

impl SnapshotCell {
    /// A cell starting at the given snapshot.
    pub(crate) fn new(initial: ShardSnapshot) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// Pins the current snapshot. The returned view is immutable and
    /// remains valid (and answers identically) no matter what the engine
    /// does afterwards.
    pub fn pin(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// Atomically replaces the published snapshot.
    pub(crate) fn publish(&self, snapshot: ShardSnapshot) {
        *self.current.write() = Arc::new(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::fastmap::fast_set;

    #[test]
    fn pin_is_stable_across_publish() {
        let cell = SnapshotCell::new(ShardSnapshot::capture(&[], 0, Arc::new(fast_set())));
        let pinned = cell.pin();
        cell.publish(ShardSnapshot::capture(&[], 7, Arc::new(fast_set())));
        assert_eq!(pinned.search_generation(), 0, "pinned view unchanged");
        assert_eq!(
            cell.pin().search_generation(),
            7,
            "new pins see the publish"
        );
    }
}
