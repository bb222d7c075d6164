//! A primary/replica pair under logical or physical replication.

use crate::diff::{segment_diff, SegmentDiff, SnapshotInfo};
use esdb_common::fastmap::{fast_map, FastMap};
use esdb_common::{Clock, Result, SharedClock, TimestampMs};
use esdb_doc::{CollectionSchema, WriteOp};
use esdb_index::{Segment, SegmentId};
use esdb_storage::{ShardConfig, ShardEngine, ShardSnapshot};
use esdb_telemetry::{EventKind, Journal, Labels, NO_PARENT};
use std::sync::Arc;

/// Which replication scheme the pair runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Elasticsearch default: the replica re-executes every write.
    Logical,
    /// ESDB §5.2: translog sync + segment shipping.
    Physical {
        /// Whether merged segments are pre-replicated on their own path.
        pre_replicate_merges: bool,
    },
}

/// Accounting used by the Fig. 15 harness and the ablation benches.
#[derive(Debug, Clone, Default)]
pub struct ReplicationMetrics {
    /// Index-executions performed by the primary.
    pub primary_index_ops: u64,
    /// Index-executions performed by the replica (≈0 under physical).
    pub replica_index_ops: u64,
    /// Translog entries forwarded to the replica.
    pub translog_entries_synced: u64,
    /// Bytes of segment data shipped to the replica.
    pub segment_bytes_shipped: u64,
    /// Segments shipped via the quick-incremental path.
    pub segments_shipped_incremental: u64,
    /// Segments shipped via the pre-replication path.
    pub segments_shipped_prereplicated: u64,
    /// Writes that failed on the primary (never applied anywhere).
    pub primary_write_errors: u64,
    /// Writes that applied on the primary but failed to reach the
    /// replica — the divergence a resync must repair.
    pub replica_write_errors: u64,
    /// Per-segment visibility delay (replica visible − primary visible), ms.
    pub visibility_delays_ms: Vec<u64>,
}

/// A primary with one replica (the paper's deployment: "each shard has one
/// replica" §3).
pub struct ReplicatedPair {
    mode: ReplicationMode,
    clock: SharedClock,
    primary: ShardEngine,
    /// Logical mode: a full engine that re-executes writes.
    replica_engine: Option<ShardEngine>,
    /// Physical mode: installed segment copies, keyed by id. Shipping is
    /// an `Arc` share of the primary's sealed segment — the in-process
    /// stand-in for copying immutable segment files.
    replica_segments: FastMap<SegmentId, Arc<Segment>>,
    /// Physical mode: the replica's translog mirror (for promotion).
    replica_translog: Vec<WriteOp>,
    /// When each segment became visible on the primary.
    visible_on_primary: FastMap<SegmentId, TimestampMs>,
    /// Segments currently locked on the primary for an in-flight
    /// replication (Fig. 9 steps 3/6).
    locked: Vec<SegmentId>,
    next_snapshot_id: u64,
    metrics: ReplicationMetrics,
    /// Flight-recorder journal plus the `(shard, primary node)` identity
    /// this pair's promotion events report; `None` journals nothing.
    journal: Option<(Arc<Journal>, u32, u32)>,
}

impl ReplicatedPair {
    /// Opens a pair rooted at `dir` (primary in `dir/primary`, logical
    /// replica in `dir/replica`).
    pub fn open(
        schema: CollectionSchema,
        dir: impl Into<std::path::PathBuf>,
        mode: ReplicationMode,
        clock: SharedClock,
    ) -> Result<Self> {
        let dir = dir.into();
        let primary = ShardEngine::open(schema.clone(), ShardConfig::new(dir.join("primary")))?;
        let replica_engine = match mode {
            ReplicationMode::Logical => Some(ShardEngine::open(
                schema,
                ShardConfig::new(dir.join("replica")),
            )?),
            ReplicationMode::Physical { .. } => None,
        };
        Ok(ReplicatedPair {
            mode,
            clock,
            primary,
            replica_engine,
            replica_segments: fast_map(),
            replica_translog: Vec::new(),
            visible_on_primary: fast_map(),
            locked: Vec::new(),
            next_snapshot_id: 1,
            metrics: ReplicationMetrics::default(),
            journal: None,
        })
    }

    /// Attaches the flight-recorder journal: replica promotions emit a
    /// causally-chained `promotion_started` → `translog_replayed` →
    /// `promotion_completed` sequence labeled with this pair's `shard`
    /// and the `primary_node` a promotion takes over from.
    pub fn with_journal(mut self, journal: Arc<Journal>, shard: u32, primary_node: u32) -> Self {
        self.journal = Some((journal, shard, primary_node));
        self
    }

    /// Applies a write on the primary and forwards per the mode. The
    /// forward is the *real-time synchronization* of Fig. 9 — it happens on
    /// the write path, not at refresh.
    pub fn write(&mut self, op: &WriteOp) -> Result<()> {
        if let Err(e) = self.primary.apply(op) {
            // Counted, then surfaced: a failed primary write was never
            // acknowledged and reached neither copy.
            self.metrics.primary_write_errors += 1;
            return Err(e);
        }
        self.metrics.primary_index_ops += 1;
        match self.mode {
            ReplicationMode::Logical => {
                // Replica re-executes: translog + full indexing.
                if let Err(e) = self
                    .replica_engine
                    .as_mut()
                    .expect("logical mode has a replica engine")
                    .apply(op)
                {
                    // The primary holds the op but the replica diverged —
                    // counted so a resync can be triggered, then surfaced.
                    self.metrics.replica_write_errors += 1;
                    return Err(e);
                }
                self.metrics.replica_index_ops += 1;
                self.metrics.translog_entries_synced += 1;
            }
            ReplicationMode::Physical { .. } => {
                // Translog-only: appended, never executed.
                self.replica_translog.push(op.clone());
                self.metrics.translog_entries_synced += 1;
            }
        }
        Ok(())
    }

    /// Refreshes the primary (and, under logical replication, the replica),
    /// then runs quick incremental replication under physical mode.
    pub fn refresh(&mut self) -> Result<Option<SegmentId>> {
        let new_seg = self.primary.refresh();
        if let Some(id) = new_seg {
            self.visible_on_primary.insert(id, self.clock.now());
        }
        match self.mode {
            ReplicationMode::Logical => {
                self.replica_engine
                    .as_mut()
                    .expect("logical mode has a replica engine")
                    .refresh();
            }
            ReplicationMode::Physical { .. } => {
                self.replicate_incremental();
            }
        }
        Ok(new_seg)
    }

    /// Quick incremental replication (Fig. 9 steps 1–6): snapshot, lock,
    /// diff, ship, unlock. Always uses the *latest* snapshot, so a fast
    /// refresh cadence cannot wedge replication behind stale state.
    fn replicate_incremental(&mut self) -> SegmentDiff {
        let snapshot = SnapshotInfo {
            snapshot_id: self.next_snapshot_id,
            segments: self
                .primary
                .segments()
                .iter()
                .map(|s| (s.id, s.size_bytes()))
                .collect(),
        };
        self.next_snapshot_id += 1;

        // Step 3: lock the snapshot's segments on the primary.
        self.locked = snapshot.ids().collect();

        let local: Vec<SegmentId> = self.replica_segments.keys().copied().collect();
        let diff = segment_diff(&snapshot, &local);
        for &id in &diff.to_fetch {
            if let Some(seg) = self.primary.segments().iter().find(|s| s.id == id) {
                self.metrics.segment_bytes_shipped += seg.size_bytes() as u64;
                self.metrics.segments_shipped_incremental += 1;
                self.install_on_replica(Arc::clone(seg));
            }
        }
        for id in &diff.to_delete {
            self.replica_segments.remove(id);
        }

        // Step 6: replication finished — unlock.
        self.locked.clear();
        diff
    }

    fn install_on_replica(&mut self, seg: Arc<Segment>) {
        let now = self.clock.now();
        if let Some(&vis) = self.visible_on_primary.get(&seg.id) {
            self.metrics
                .visibility_delays_ms
                .push(now.saturating_sub(vis));
        }
        self.replica_segments.insert(seg.id, seg);
    }

    /// Runs the merge policy on the primary; under physical replication
    /// with pre-replication enabled, the merged segment ships immediately
    /// (Fig. 9 "Pre-replication of Merged Segments").
    pub fn maybe_merge(&mut self) -> Option<SegmentId> {
        let merged = self.primary.maybe_merge()?;
        self.visible_on_primary.insert(merged, self.clock.now());
        match self.mode {
            ReplicationMode::Logical => {
                self.replica_engine
                    .as_mut()
                    .expect("logical mode has a replica engine")
                    .maybe_merge();
            }
            ReplicationMode::Physical {
                pre_replicate_merges,
            } => {
                if pre_replicate_merges {
                    if let Some(seg) = self.primary.segments().iter().find(|s| s.id == merged) {
                        self.metrics.segment_bytes_shipped += seg.size_bytes() as u64;
                        self.metrics.segments_shipped_prereplicated += 1;
                        let seg = Arc::clone(seg);
                        self.install_on_replica(seg);
                    }
                }
            }
        }
        Some(merged)
    }

    /// The primary engine.
    pub fn primary(&self) -> &ShardEngine {
        &self.primary
    }

    /// Mutable access to the primary engine.
    pub fn primary_mut(&mut self) -> &mut ShardEngine {
        &mut self.primary
    }

    /// Pins a point-in-time view served by the *survivor* when the
    /// primary is unavailable (degraded reads, §5.2): under logical
    /// replication this is the replica engine's published snapshot;
    /// under physical replication the installed segment copies are
    /// frozen into a snapshot directly. Either way the returned view is
    /// immutable — queries against it run lock-free and keep answering
    /// identically even as replication later installs or retires
    /// segments.
    pub fn degraded_read_snapshot(&self) -> Arc<ShardSnapshot> {
        match self.mode {
            ReplicationMode::Logical => self
                .replica_engine
                .as_ref()
                .expect("logical mode has a replica engine")
                .pin_snapshot(),
            ReplicationMode::Physical { .. } => {
                let mut segs: Vec<Arc<Segment>> =
                    self.replica_segments.values().map(Arc::clone).collect();
                segs.sort_unstable_by_key(|s| s.id);
                // Snapshot ids advance with every replication pass, so
                // successive degraded views carry monotone generations.
                Arc::new(ShardSnapshot::from_segments(segs, self.next_snapshot_id))
            }
        }
    }

    /// Live docs visible on the replica.
    pub fn replica_live_docs(&self) -> usize {
        match self.mode {
            ReplicationMode::Logical => {
                self.replica_engine
                    .as_ref()
                    .expect("logical mode has a replica engine")
                    .stats()
                    .live_docs
            }
            ReplicationMode::Physical { .. } => {
                self.replica_segments.values().map(|s| s.live_count()).sum()
            }
        }
    }

    /// Replication metrics.
    pub fn metrics(&self) -> &ReplicationMetrics {
        &self.metrics
    }

    /// Promotes the physical replica: replays its translog mirror into a
    /// fresh engine (what a primary/replica switch does with the synced
    /// translog, §5.2 "all replicas are able to recover the data locally").
    pub fn promote_replica(&self, dir: impl Into<std::path::PathBuf>) -> Result<ShardEngine> {
        let t0 = self.clock.now();
        let ops = self.replica_translog.len() as u64;
        let start_seq = self.journal.as_ref().map(|(j, shard, node)| {
            j.emit(
                EventKind::PromotionStarted {
                    shard: *shard,
                    crashed_node: *node,
                },
                Labels::shard(*shard),
                NO_PARENT,
            )
        });
        let mut engine =
            ShardEngine::open(self.primary.schema().clone(), ShardConfig::new(dir.into()))?;
        for op in &self.replica_translog {
            engine.apply(op)?;
        }
        engine.refresh();
        if let (Some((j, shard, _)), Some(start_seq)) = (&self.journal, start_seq) {
            let replay_seq = j.emit(
                EventKind::TranslogReplayed { shard: *shard, ops },
                Labels::shard(*shard),
                start_seq,
            );
            j.emit(
                EventKind::PromotionCompleted {
                    shard: *shard,
                    replayed_ops: ops,
                    latency_ms: self.clock.now().saturating_sub(t0),
                },
                Labels::shard(*shard),
                replay_seq,
            );
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};
    use esdb_doc::Document;

    /// Segment ids installed on the replica (physical mode), sorted.
    fn replica_segment_ids(p: &ReplicatedPair) -> Vec<SegmentId> {
        let mut v: Vec<SegmentId> = p.replica_segments.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("esdb-repl-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn doc(r: u64) -> WriteOp {
        WriteOp::insert(
            Document::builder(TenantId(1), RecordId(r), 100 + r)
                .field("status", (r % 2) as i64)
                .field("auction_title", format!("thing {r}"))
                .build(),
        )
    }

    fn pair(name: &str, mode: ReplicationMode) -> ReplicatedPair {
        let (clock, _driver) = SharedClock::manual(0);
        ReplicatedPair::open(
            CollectionSchema::transaction_logs(),
            tmpdir(name),
            mode,
            clock,
        )
        .unwrap()
    }

    #[test]
    fn logical_replica_executes_everything() {
        let mut p = pair("logical", ReplicationMode::Logical);
        for r in 0..20 {
            p.write(&doc(r)).unwrap();
        }
        p.refresh().unwrap();
        assert_eq!(p.replica_live_docs(), 20);
        // CPU doubled: replica executed as many index ops as the primary.
        assert_eq!(p.metrics().replica_index_ops, p.metrics().primary_index_ops);
    }

    #[test]
    fn physical_replica_converges_without_executing() {
        let mut p = pair(
            "physical",
            ReplicationMode::Physical {
                pre_replicate_merges: true,
            },
        );
        for r in 0..20 {
            p.write(&doc(r)).unwrap();
        }
        p.refresh().unwrap();
        assert_eq!(p.replica_live_docs(), 20);
        assert_eq!(p.metrics().replica_index_ops, 0, "replica never indexes");
        assert_eq!(
            p.metrics().translog_entries_synced,
            20,
            "translog synced in real time"
        );
        assert!(p.metrics().segment_bytes_shipped > 0);
        assert!(p.locked.is_empty(), "locks released after replication");
    }

    #[test]
    fn replica_follows_multiple_refreshes() {
        let mut p = pair(
            "multi",
            ReplicationMode::Physical {
                pre_replicate_merges: false,
            },
        );
        for batch in 0..3 {
            for r in 0..10 {
                p.write(&doc(batch * 10 + r)).unwrap();
            }
            p.refresh().unwrap();
        }
        assert_eq!(p.replica_live_docs(), 30);
        assert_eq!(replica_segment_ids(&p).len(), 3);
    }

    #[test]
    fn merge_without_prereplication_ships_in_next_diff() {
        let mut p = pair(
            "merge-diff",
            ReplicationMode::Physical {
                pre_replicate_merges: false,
            },
        );
        for batch in 0..4 {
            for r in 0..10 {
                p.write(&doc(batch * 10 + r)).unwrap();
            }
            p.refresh().unwrap();
        }
        let merged = p
            .maybe_merge()
            .expect("tiered policy merges 4 small segments");
        // Replica still has the 4 old segments until the next refresh cycle.
        assert!(!replica_segment_ids(&p).contains(&merged));
        p.refresh().unwrap();
        assert_eq!(replica_segment_ids(&p), vec![merged]);
        assert_eq!(p.replica_live_docs(), 40);
    }

    #[test]
    fn prereplicated_merge_never_in_diff() {
        let mut p = pair(
            "prerepl",
            ReplicationMode::Physical {
                pre_replicate_merges: true,
            },
        );
        for batch in 0..4 {
            for r in 0..10 {
                p.write(&doc(batch * 10 + r)).unwrap();
            }
            p.refresh().unwrap();
        }
        let before = p.metrics().segments_shipped_incremental;
        let merged = p.maybe_merge().unwrap();
        // Shipped eagerly on the pre-replication path.
        assert!(replica_segment_ids(&p).contains(&merged));
        assert_eq!(p.metrics().segments_shipped_prereplicated, 1);
        p.refresh().unwrap();
        // The follow-up incremental pass only *deleted* merged-away
        // segments; the merged one was not re-shipped.
        assert_eq!(p.metrics().segments_shipped_incremental, before);
        assert_eq!(replica_segment_ids(&p), vec![merged]);
        assert_eq!(p.replica_live_docs(), 40);
    }

    #[test]
    fn visibility_delay_accounts_clock() {
        let (clock, driver) = SharedClock::manual(0);
        let mut p = ReplicatedPair::open(
            CollectionSchema::transaction_logs(),
            tmpdir("visdelay"),
            ReplicationMode::Physical {
                pre_replicate_merges: false,
            },
            clock,
        )
        .unwrap();
        for r in 0..5 {
            p.write(&doc(r)).unwrap();
        }
        // Refresh makes the segment visible on the primary at t=0; pretend
        // the replication pass runs 250 ms later.
        let id = p.primary_mut().refresh().unwrap();
        p.visible_on_primary.insert(id, 0);
        driver.advance(250);
        p.replicate_incremental();
        assert_eq!(p.metrics().visibility_delays_ms, vec![250]);
    }

    #[test]
    fn replica_promotion_recovers_from_translog() {
        let mut p = pair(
            "promote",
            ReplicationMode::Physical {
                pre_replicate_merges: true,
            },
        );
        for r in 0..15 {
            p.write(&doc(r)).unwrap();
        }
        // No refresh at all: data exists only in buffer + translogs.
        let promoted = p.promote_replica(tmpdir("promoted")).unwrap();
        assert_eq!(
            promoted.stats().live_docs,
            15,
            "promotion replays the synced translog"
        );
        assert!(promoted.get_record(14).is_some());
    }

    #[test]
    fn promotion_journals_causally_chained_events() {
        let journal = Arc::new(Journal::new(128));
        let mut p = pair(
            "promote-journal",
            ReplicationMode::Physical {
                pre_replicate_merges: true,
            },
        )
        .with_journal(Arc::clone(&journal), 3, 1);
        for r in 0..9 {
            p.write(&doc(r)).unwrap();
        }
        let promoted = p.promote_replica(tmpdir("promoted-journal")).unwrap();
        assert_eq!(promoted.stats().live_docs, 9);

        let events = journal.tail(16);
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            [
                "promotion_started",
                "translog_replayed",
                "promotion_completed"
            ]
        );
        // Each link in the chain parents the next.
        assert_eq!(events[0].parent_seq, NO_PARENT);
        assert_eq!(events[1].parent_seq, events[0].seq);
        assert_eq!(events[2].parent_seq, events[1].seq);
        match events[1].kind {
            EventKind::TranslogReplayed { shard, ops } => {
                assert_eq!(shard, 3);
                assert_eq!(ops, 9);
            }
            ref other => panic!("expected translog_replayed, got {other:?}"),
        }
        match events[2].kind {
            EventKind::PromotionCompleted {
                shard,
                replayed_ops,
                ..
            } => {
                assert_eq!(shard, 3);
                assert_eq!(replayed_ops, 9);
            }
            ref other => panic!("expected promotion_completed, got {other:?}"),
        }
    }

    #[test]
    fn degraded_reads_pin_survivor_snapshot() {
        let mut p = pair(
            "degraded",
            ReplicationMode::Physical {
                pre_replicate_merges: false,
            },
        );
        for batch in 0..4 {
            for r in 0..10 {
                p.write(&doc(batch * 10 + r)).unwrap();
            }
            p.refresh().unwrap();
        }
        let degraded = p.degraded_read_snapshot();
        assert_eq!(degraded.live_docs(), 40);
        assert!(degraded.get_record(17).is_some());
        // The pinned view must survive the primary merging away its
        // segments and the next replication pass retiring the replica's
        // copies.
        let live: Vec<SegmentId> = p.primary().segments().iter().map(|s| s.id).collect();
        p.primary_mut().force_merge(&live);
        p.refresh().unwrap();
        assert_eq!(
            replica_segment_ids(&p).len(),
            1,
            "replica converged to the merged segment"
        );
        assert_eq!(degraded.live_docs(), 40);
        assert_eq!(
            degraded.segments().len(),
            4,
            "pinned view keeps its original segments"
        );
        assert!(degraded.get_record(17).is_some());
        // A fresh pin sees the converged state.
        assert_eq!(p.degraded_read_snapshot().segments().len(), 1);

        // Logical mode: the survivor is the replica engine's snapshot.
        let mut lp = pair("degraded-logical", ReplicationMode::Logical);
        for r in 0..10 {
            lp.write(&doc(r)).unwrap();
        }
        lp.refresh().unwrap();
        let view = lp.degraded_read_snapshot();
        assert_eq!(view.live_docs(), 10);
        assert!(view.get_record(3).is_some());
    }

    #[test]
    fn deletes_propagate_physically() {
        let mut p = pair(
            "deletes",
            ReplicationMode::Physical {
                pre_replicate_merges: false,
            },
        );
        for r in 0..10 {
            p.write(&doc(r)).unwrap();
        }
        p.refresh().unwrap();
        p.write(&WriteOp::delete(TenantId(1), RecordId(3), 0))
            .unwrap();
        // The tombstone reaches the replica with the next shipped state:
        // merge compacts and ships a fresh segment.
        p.primary_mut().refresh();
        let live: Vec<SegmentId> = p.primary().segments().iter().map(|s| s.id).collect();
        p.primary_mut().force_merge(&live);
        p.refresh().unwrap();
        assert_eq!(p.replica_live_docs(), 9);
    }
}
