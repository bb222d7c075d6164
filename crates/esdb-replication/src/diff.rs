//! Segment snapshots and the segment diff (Fig. 9 steps 1–4).

use esdb_index::SegmentId;

/// A snapshot of the primary's segment list, taken at refresh time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Monotone snapshot id.
    pub snapshot_id: u64,
    /// Segments alive in this snapshot, with their byte sizes.
    pub segments: Vec<(SegmentId, usize)>,
}

impl SnapshotInfo {
    /// Segment ids in the snapshot.
    pub(crate) fn ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.segments.iter().map(|&(id, _)| id)
    }
}

/// What the replica must fetch and what it must delete to converge on the
/// primary state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentDiff {
    /// Segments present on the primary but missing locally.
    pub to_fetch: Vec<SegmentId>,
    /// Local segments the primary no longer has (merged away / deleted).
    pub to_delete: Vec<SegmentId>,
}

/// Computes the diff between the primary's snapshot and the replica's local
/// segment ids (Fig. 9 step 4: "the replica computes the segment diff
/// according to its local snapshot and the snapshot received from the
/// primary shard").
pub fn segment_diff(primary: &SnapshotInfo, replica_local: &[SegmentId]) -> SegmentDiff {
    let mut to_fetch: Vec<SegmentId> = primary
        .ids()
        .filter(|id| !replica_local.contains(id))
        .collect();
    let mut to_delete: Vec<SegmentId> = replica_local
        .iter()
        .copied()
        .filter(|id| !primary.ids().any(|p| p == *id))
        .collect();
    to_fetch.sort_unstable();
    to_delete.sort_unstable();
    SegmentDiff {
        to_fetch,
        to_delete,
    }
}

#[cfg(test)]
impl SegmentDiff {
    /// Whether the replica is already converged.
    pub(crate) fn is_empty(&self) -> bool {
        self.to_fetch.is_empty() && self.to_delete.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(ids: &[u64]) -> SnapshotInfo {
        SnapshotInfo {
            snapshot_id: 1,
            segments: ids.iter().map(|&i| (i, 100)).collect(),
        }
    }

    #[test]
    fn empty_replica_fetches_everything() {
        let d = segment_diff(&snap(&[1, 2, 3]), &[]);
        assert_eq!(d.to_fetch, vec![1, 2, 3]);
        assert!(d.to_delete.is_empty());
    }

    #[test]
    fn converged_replica_is_noop() {
        let d = segment_diff(&snap(&[1, 2]), &[2, 1]);
        assert!(d.is_empty());
    }

    #[test]
    fn merge_away_deletes_and_fetches() {
        // Primary merged 1+2 into 5; replica still has 1,2.
        let d = segment_diff(&snap(&[3, 5]), &[1, 2, 3]);
        assert_eq!(d.to_fetch, vec![5]);
        assert_eq!(d.to_delete, vec![1, 2]);
    }

    #[test]
    fn pre_replicated_segment_not_in_diff() {
        // Fig. 9 pre-replication: merged segment 7 was shipped eagerly, so
        // by snapshot time the replica already holds it.
        let d = segment_diff(&snap(&[4, 7]), &[4, 7]);
        assert!(
            d.is_empty(),
            "pre-replicated merges never appear in the diff"
        );
    }
}
