//! The per-shard storage engine, tying together translog, in-memory buffer,
//! segments, merging, and recovery (paper §3.3, Fig. 3 "Execution Layer").

use crate::persist;
use crate::snapshot::{ShardSnapshot, SnapshotCell};
use crate::translog::{Translog, WriteFault};
use esdb_common::fastmap::{fast_map, fast_set, FastMap, FastSet};
use esdb_common::Result;
use esdb_doc::{CollectionSchema, Document, WriteKind, WriteOp};
use esdb_index::merge::merge_segments;
use esdb_index::{AttrFrequencyTracker, MergePolicy, Segment, SegmentId, TieredMergePolicy};
use esdb_telemetry::{EventKind, Histogram, Labels, Telemetry, NO_PARENT};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Shard engine configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Directory for translog generations, segment files and the commit
    /// point.
    pub dir: PathBuf,
    /// Auto-refresh when the buffer reaches this many documents (0 =
    /// manual refresh only). Elasticsearch refreshes on a timer; the
    /// embedded engine and tests drive refresh explicitly or by size.
    pub refresh_buffer_docs: usize,
    /// Merge policy.
    pub merge: TieredMergePolicy,
    /// Shard id used as the `shard` label on telemetry series.
    pub shard: u32,
    /// Shared telemetry; `None` (the default) records nothing.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Chaos append-fault hook installed on the translog (see
    /// [`crate::translog::WriteFault`]); `None` for production use.
    pub write_fault: Option<Arc<dyn WriteFault>>,
}

impl ShardConfig {
    /// Config rooted at `dir` with defaults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ShardConfig {
            dir: dir.into(),
            refresh_buffer_docs: 0,
            merge: TieredMergePolicy::default(),
            shard: 0,
            telemetry: None,
            write_fault: None,
        }
    }

    /// Attaches shared telemetry, labeling this engine's series `shard`.
    pub fn with_telemetry(mut self, shard: u32, telemetry: Arc<Telemetry>) -> Self {
        self.shard = shard;
        self.telemetry = Some(telemetry);
        self
    }

    /// Installs a chaos append-fault hook on the shard's translog.
    pub fn with_write_fault(mut self, fault: Arc<dyn WriteFault>) -> Self {
        self.write_fault = Some(fault);
        self
    }
}

/// Cached per-stage histogram handles (write-path stage taxonomy:
/// `translog_append` and `index` sampled per-op, `refresh` / `merge` /
/// `flush` timed unconditionally since they are rare).
struct StageTimers {
    telemetry: Arc<Telemetry>,
    translog_append: Arc<Histogram>,
    index: Arc<Histogram>,
    refresh: Arc<Histogram>,
    merge: Arc<Histogram>,
    flush: Arc<Histogram>,
}

impl StageTimers {
    fn new(shard: u32, telemetry: Arc<Telemetry>) -> Self {
        let h = |stage: &'static str| {
            telemetry.registry().histogram(
                "esdb_storage_stage_ns",
                Labels::stage(stage).with_shard(shard),
            )
        };
        StageTimers {
            translog_append: h("translog_append"),
            index: h("index"),
            refresh: h("refresh"),
            merge: h("merge"),
            flush: h("flush"),
            telemetry,
        }
    }

    /// Journals a maintenance event (refresh/merge/flush), labeled by
    /// the shard the event names.
    fn emit_segment_event(&self, kind: EventKind) {
        let shard = match kind {
            EventKind::SegmentRefresh { shard, .. }
            | EventKind::SegmentMerge { shard, .. }
            | EventKind::SegmentFlush { shard, .. } => shard,
            _ => unreachable!("only segment maintenance events route here"),
        };
        self.telemetry.emit(kind, Labels::shard(shard), NO_PARENT);
    }
}

/// Point-in-time statistics for monitoring and the figure harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Live documents visible to search.
    pub live_docs: usize,
    /// Documents buffered but not yet searchable.
    pub buffered_docs: usize,
    /// Searchable segments.
    pub segments: usize,
    /// Approximate shard bytes (segments + buffer).
    pub size_bytes: usize,
    /// Refreshes performed.
    pub refreshes: u64,
    /// Merges performed.
    pub merges: u64,
}

/// Nanoseconds from `t0` to now, saturating into `u64`.
#[inline]
fn ns_since(t0: Instant) -> u64 {
    ns_between(t0, Instant::now())
}

/// Nanoseconds from `t0` to `t1`, saturating into `u64`.
#[inline]
fn ns_between(t0: Instant, t1: Instant) -> u64 {
    t1.duration_since(t0).as_nanos().min(u64::MAX as u128) as u64
}

/// A single shard's storage engine.
pub struct ShardEngine {
    schema: CollectionSchema,
    config: ShardConfig,
    translog: Translog,
    // In-memory buffer (tombstone-able so buffered updates/deletes work).
    buffer: Vec<Option<Document>>,
    buffer_by_record: FastMap<u64, usize>,
    buffer_bytes: usize,
    // Searchable state. Segments are `Arc`-shared with published
    // snapshots; tombstones copy-on-write, never mutate in place.
    segments: Vec<Arc<Segment>>,
    next_segment_id: SegmentId,
    /// Segments persisted as of the last flush.
    persisted: FastSet<SegmentId>,
    /// Persisted segments whose tombstones changed since the last flush.
    dirty: FastSet<SegmentId>,
    /// Files of merged-away segments that the current commit point still
    /// references; deleting them before the next commit point is written
    /// would lose data on a crash (the Lucene deletion policy).
    pending_file_deletes: Vec<SegmentId>,
    // Frequency-based sub-attribute indexing (§3.2). Shared with the
    // query layer, which records filtered attributes without taking the
    // engine lock.
    attr_tracker: Arc<Mutex<AttrFrequencyTracker>>,
    indexed_attrs: Arc<FastSet<String>>,
    stats_refreshes: u64,
    stats_merges: u64,
    timers: Option<StageTimers>,
    /// Bumped whenever the *searchable* state changes: a tombstone lands
    /// in a segment, a refresh adds one, or a merge replaces some. The
    /// request cache keys whole results by this, so any change makes every
    /// cached result for the shard unreachable.
    generation: u64,
    /// Generation of the snapshot last published into `snapshots`.
    published_generation: u64,
    /// Where readers pin point-in-time views; shared with `ShardSlot`
    /// so pinning never touches the engine lock.
    snapshots: Arc<SnapshotCell>,
}

impl ShardEngine {
    /// Opens the shard, recovering persisted segments and replaying the
    /// translog tail if present.
    pub fn open(schema: CollectionSchema, config: ShardConfig) -> Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let mut translog = Translog::open(config.dir.join("translog"))?;
        translog.set_write_fault(config.write_fault.clone());
        let timers = config
            .telemetry
            .as_ref()
            .filter(|t| t.enabled())
            .map(|t| StageTimers::new(config.shard, Arc::clone(t)));

        let mut engine = ShardEngine {
            schema,
            translog,
            buffer: Vec::new(),
            buffer_by_record: fast_map(),
            buffer_bytes: 0,
            segments: Vec::new(),
            next_segment_id: 1,
            persisted: fast_set(),
            dirty: fast_set(),
            pending_file_deletes: Vec::new(),
            attr_tracker: Arc::new(Mutex::new(AttrFrequencyTracker::new())),
            indexed_attrs: Arc::new(fast_set()),
            stats_refreshes: 0,
            stats_merges: 0,
            timers,
            generation: 0,
            published_generation: 0,
            snapshots: Arc::new(SnapshotCell::new(ShardSnapshot::capture(
                &[],
                0,
                Arc::new(fast_set()),
            ))),
            config,
        };

        // Load the commit point, then replay the translog tail on top.
        if let Some((ids, next_id)) = persist::read_commit_point(&engine.config.dir)? {
            for id in ids {
                let seg = persist::load_segment(
                    &engine.config.dir,
                    id,
                    &engine.schema,
                    &engine.indexed_attrs,
                )?;
                engine.persisted.insert(id);
                engine.segments.push(Arc::new(seg));
            }
            engine.next_segment_id = next_id;
        }
        let tail = engine.translog.replay()?;
        for op in tail {
            engine.apply_to_memory(&op);
        }
        // First publication: recovered state becomes the readers' view.
        engine.publish_snapshot();
        Ok(engine)
    }

    /// The shard's schema.
    pub fn schema(&self) -> &CollectionSchema {
        &self.schema
    }

    /// Applies one write: translog first (durability), then memory.
    /// Per-op stage timing (translog append, in-memory index) is trace
    /// sampled — a translog append is microsecond-scale, so reading the
    /// clock on every op would itself be measurable.
    pub fn apply(&mut self, op: &WriteOp) -> Result<()> {
        self.apply_group(std::slice::from_ref(op), true)
            .pop()
            .expect("single-op group yields one result")
    }

    /// Applies a group of writes under one engine entry: one translog
    /// append batch, memory applies in submission order, then a single
    /// refresh-threshold check and snapshot publication for the whole
    /// group. Per-op outcomes come back in submission order; with
    /// `stop_on_error`, ops after the first failure are not attempted and
    /// the returned vector is short. An op whose translog append failed
    /// is never applied to memory — the durability contract (recovery
    /// replays exactly the acknowledged ops) is per-op, not per-group.
    pub fn apply_group(&mut self, ops: &[WriteOp], stop_on_error: bool) -> Vec<Result<()>> {
        let sampled = self
            .timers
            .as_ref()
            .is_some_and(|t| t.telemetry.should_trace());
        let t0 = sampled.then(Instant::now);
        let results = self.translog.append_batch(ops, stop_on_error);
        let t1 = sampled.then(Instant::now);
        for (op, r) in ops.iter().zip(&results) {
            if r.is_ok() {
                self.apply_to_memory(op);
            }
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = Instant::now();
            let t = self.timers.as_ref().expect("sampled implies timers");
            t.translog_append.record(ns_between(t0, t1));
            t.index.record(ns_between(t1, t2));
        }
        if self.config.refresh_buffer_docs > 0
            && self.live_buffer_len() >= self.config.refresh_buffer_docs
        {
            self.refresh();
        }
        // A tombstone that landed in a segment changed the searchable
        // state — publish it (refresh publishes on its own).
        self.maybe_publish();
        results
    }

    /// Makes buffered writes durable (fsync the translog).
    pub fn sync(&mut self) -> Result<usize> {
        self.translog.sync()
    }

    fn live_buffer_len(&self) -> usize {
        self.buffer_by_record.len()
    }

    /// Tombstones `rid` in whichever segment holds it live. Copy-on-write:
    /// if a published snapshot still shares the segment, `Arc::make_mut`
    /// detaches the engine's copy first, so pinned readers are untouched.
    fn tombstone_in_segments(&mut self, rid: u64) {
        for seg in &mut self.segments {
            if seg.find_record(rid).is_some() {
                if Arc::make_mut(seg).delete_record(rid) {
                    self.dirty.insert(seg.id);
                    self.generation += 1;
                }
                break;
            }
        }
    }

    fn apply_to_memory(&mut self, op: &WriteOp) {
        let rid = op.doc.record_id.raw();
        match op.kind {
            WriteKind::Insert | WriteKind::Update => {
                self.attr_tracker.lock().record_write(op.doc.attrs());
                if let Some(&idx) = self.buffer_by_record.get(&rid) {
                    // Replace in place (workload batching lands here too).
                    self.buffer[idx] = Some(op.doc.clone());
                } else {
                    // If the record lives in a segment, tombstone it there.
                    self.tombstone_in_segments(rid);
                    self.buffer_by_record.insert(rid, self.buffer.len());
                    self.buffer.push(Some(op.doc.clone()));
                }
                self.buffer_bytes += op.doc.approx_size();
            }
            WriteKind::Delete => {
                if let Some(idx) = self.buffer_by_record.remove(&rid) {
                    self.buffer[idx] = None;
                }
                self.tombstone_in_segments(rid);
            }
        }
    }

    /// Refresh (§3.3 near-real-time search): freezes the buffer into a new
    /// searchable segment. Returns the new segment id, or `None` if the
    /// buffer was empty.
    pub fn refresh(&mut self) -> Option<SegmentId> {
        let t0 = self.timers.as_ref().map(|_| Instant::now());
        // Re-rank indexed sub-attributes before building (frequency-based
        // indexing responds to drift).
        if self.schema.attr_index_top_k > 0 {
            self.indexed_attrs =
                Arc::new(self.attr_tracker.lock().top_k(self.schema.attr_index_top_k));
        }
        let docs: Vec<Document> = self.buffer.drain(..).flatten().collect();
        self.buffer_by_record.clear();
        let size = std::mem::take(&mut self.buffer_bytes);
        if docs.is_empty() {
            return None;
        }
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let seg = esdb_index::builder::build_segment(
            id,
            docs,
            &self.schema,
            &esdb_index::Analyzer::default(),
            &self.indexed_attrs,
            size,
        );
        self.segments.push(Arc::new(seg));
        self.stats_refreshes += 1;
        self.generation += 1;
        self.maybe_publish();
        if let (Some(t), Some(t0)) = (&self.timers, t0) {
            t.refresh.record(ns_since(t0));
            t.emit_segment_event(EventKind::SegmentRefresh {
                shard: self.config.shard,
                segments: self.segments.len() as u32,
            });
        }
        Some(id)
    }

    /// Runs the merge policy once; returns the new segment id if a merge
    /// happened.
    pub fn maybe_merge(&mut self) -> Option<SegmentId> {
        let sizes: Vec<(SegmentId, usize, usize)> = self
            .segments
            .iter()
            .map(|s| (s.id, s.live_count(), s.size_bytes()))
            .collect();
        let victims = self.config.merge.select(&sizes);
        if victims.len() < 2 {
            return None;
        }
        Some(self.force_merge(&victims))
    }

    /// Merges the given segment ids unconditionally.
    pub fn force_merge(&mut self, ids: &[SegmentId]) -> SegmentId {
        let t0 = self.timers.as_ref().map(|_| Instant::now());
        let inputs: Vec<&Segment> = self
            .segments
            .iter()
            .filter(|s| ids.contains(&s.id))
            .map(|s| s.as_ref())
            .collect();
        let new_id = self.next_segment_id;
        self.next_segment_id += 1;
        let merged = merge_segments(new_id, &inputs, &self.schema, &self.indexed_attrs);
        self.segments.retain(|s| !ids.contains(&s.id));
        for id in ids {
            if self.persisted.remove(id) {
                // The commit point still references this file — defer the
                // delete until the next flush has written a new one.
                self.pending_file_deletes.push(*id);
            }
            self.dirty.remove(id);
        }
        self.segments.push(Arc::new(merged));
        self.stats_merges += 1;
        self.generation += 1;
        self.maybe_publish();
        if let (Some(t), Some(t0)) = (&self.timers, t0) {
            t.merge.record(ns_since(t0));
            t.emit_segment_event(EventKind::SegmentMerge {
                shard: self.config.shard,
                merged: ids.len() as u32,
                segments: self.segments.len() as u32,
            });
        }
        new_id
    }

    /// Flush (§3.3): refresh, persist new/dirty segments, write the commit
    /// point, roll the translog generation.
    pub fn flush(&mut self) -> Result<()> {
        let t0 = self.timers.as_ref().map(|_| Instant::now());
        self.refresh();
        for seg in &self.segments {
            if !self.persisted.contains(&seg.id) || self.dirty.contains(&seg.id) {
                persist::write_segment(&self.config.dir, seg)?;
                self.persisted.insert(seg.id);
                self.dirty.remove(&seg.id);
            }
        }
        let ids: Vec<SegmentId> = self.segments.iter().map(|s| s.id).collect();
        persist::write_commit_point(&self.config.dir, &ids, self.next_segment_id)?;
        self.translog.roll_generation()?;
        // The new commit point no longer references merged-away segments;
        // their files can finally go.
        for id in self.pending_file_deletes.drain(..) {
            persist::remove_segment(&self.config.dir, id)?;
        }
        if let (Some(t), Some(t0)) = (&self.timers, t0) {
            t.flush.record(ns_since(t0));
            t.emit_segment_event(EventKind::SegmentFlush {
                shard: self.config.shard,
                segments: self.segments.len() as u32,
            });
        }
        Ok(())
    }

    /// Installs a shipped segment (the migration-handoff adopt path):
    /// the segment was built elsewhere from another shard's exported
    /// rows and arrives fully indexed, so adoption costs no re-indexing.
    /// It is re-identified into this engine's id space, made searchable
    /// immediately, and left unpersisted — the caller decides when to
    /// [`ShardEngine::flush`] for durability (the migration coordinator
    /// flushes destinations before tombstoning sources, so rows always
    /// have at least one durable home).
    ///
    /// Any live local copy of an adopted record is superseded first
    /// (buffer entry dropped, segment copy tombstoned), making adoption
    /// idempotent — re-adopting after a crash-recovery re-run converges
    /// instead of duplicating.
    pub fn adopt_segment(&mut self, seg: Segment) -> SegmentId {
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let mut seg = seg;
        seg.id = id;
        let rids: Vec<u64> = seg.live_docs().map(|(_, d)| d.record_id.raw()).collect();
        for rid in rids {
            if let Some(idx) = self.buffer_by_record.remove(&rid) {
                self.buffer[idx] = None;
            }
            self.tombstone_in_segments(rid);
        }
        self.segments.push(Arc::new(seg));
        self.generation += 1;
        self.maybe_publish();
        id
    }

    /// The searchable segments (maintenance and replication walk these;
    /// the query engine executes against a pinned snapshot instead).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The shard's snapshot cell. `ShardSlot` shares this so readers pin
    /// point-in-time views without touching the engine lock.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.snapshots)
    }

    /// Pins the currently published snapshot.
    pub fn pin_snapshot(&self) -> Arc<ShardSnapshot> {
        self.snapshots.pin()
    }

    /// Publishes the current searchable state if it changed since the
    /// last publication.
    fn maybe_publish(&mut self) {
        if self.generation != self.published_generation {
            self.publish_snapshot();
        }
    }

    /// Unconditionally publishes the current searchable state.
    fn publish_snapshot(&mut self) {
        self.snapshots.publish(ShardSnapshot::capture(
            &self.segments,
            self.generation,
            Arc::clone(&self.indexed_attrs),
        ));
        self.published_generation = self.generation;
    }

    /// Looks up a live record across searchable segments, returning the
    /// stored document.
    pub fn get_record(&self, record_id: u64) -> Option<&Document> {
        for seg in &self.segments {
            if let Some(d) = seg.find_record(record_id) {
                return seg.doc(d);
            }
        }
        None
    }

    /// Whether `record_id` exists (buffered or searchable).
    pub fn contains_record(&self, record_id: u64) -> bool {
        self.buffer_by_record.contains_key(&record_id)
            || self
                .segments
                .iter()
                .any(|s| s.find_record(record_id).is_some())
    }

    /// Current statistics.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            live_docs: self.segments.iter().map(|s| s.live_count()).sum(),
            buffered_docs: self.live_buffer_len(),
            segments: self.segments.len(),
            size_bytes: self.segments.iter().map(|s| s.size_bytes()).sum::<usize>()
                + self.buffer_bytes,
            refreshes: self.stats_refreshes,
            merges: self.stats_merges,
        }
    }

    /// Shared handle to the sub-attribute frequency tracker. Queries
    /// record their filtered attributes through this without holding any
    /// engine lock; refresh reads the ranking through the same handle.
    pub fn attr_tracker(&self) -> Arc<Mutex<AttrFrequencyTracker>> {
        Arc::clone(&self.attr_tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esdb-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(name: &str) -> ShardEngine {
        ShardEngine::open(
            CollectionSchema::transaction_logs(),
            ShardConfig::new(tmpdir(name)),
        )
        .unwrap()
    }

    fn doc(r: u64, status: i64) -> Document {
        Document::builder(TenantId(1), RecordId(r), 1000 + r)
            .field("status", status)
            .field("auction_title", format!("item {r}"))
            .build()
    }

    #[test]
    fn near_real_time_visibility() {
        let mut s = open("nrt");
        s.apply(&WriteOp::insert(doc(1, 1))).unwrap();
        // Buffered, not yet searchable.
        assert_eq!(s.stats().buffered_docs, 1);
        assert_eq!(s.stats().live_docs, 0);
        assert!(s.get_record(1).is_none());
        assert!(s.contains_record(1));
        s.refresh();
        assert_eq!(s.stats().live_docs, 1);
        assert!(s.get_record(1).is_some());
    }

    #[test]
    fn update_in_buffer_replaces() {
        let mut s = open("upd-buf");
        s.apply(&WriteOp::insert(doc(1, 0))).unwrap();
        s.apply(&WriteOp::update(doc(1, 9))).unwrap();
        s.refresh();
        assert_eq!(s.stats().live_docs, 1);
        assert_eq!(
            s.get_record(1).unwrap().get("status"),
            Some(esdb_doc::FieldValue::Int(9))
        );
    }

    #[test]
    fn update_across_segments_tombstones_old() {
        let mut s = open("upd-seg");
        s.apply(&WriteOp::insert(doc(1, 0))).unwrap();
        s.refresh();
        s.apply(&WriteOp::update(doc(1, 5))).unwrap();
        s.refresh();
        assert_eq!(s.stats().live_docs, 1, "old version tombstoned");
        assert_eq!(
            s.get_record(1).unwrap().get("status"),
            Some(esdb_doc::FieldValue::Int(5))
        );
    }

    #[test]
    fn delete_everywhere() {
        let mut s = open("del");
        s.apply(&WriteOp::insert(doc(1, 0))).unwrap();
        s.refresh();
        s.apply(&WriteOp::insert(doc(2, 0))).unwrap(); // still buffered
        s.apply(&WriteOp::delete(TenantId(1), RecordId(1), 0))
            .unwrap();
        s.apply(&WriteOp::delete(TenantId(1), RecordId(2), 0))
            .unwrap();
        s.refresh();
        assert_eq!(s.stats().live_docs, 0);
        assert!(!s.contains_record(1));
        assert!(!s.contains_record(2));
    }

    #[test]
    fn crash_recovery_replays_translog() {
        let dir = tmpdir("recover");
        {
            let mut s =
                ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
                    .unwrap();
            for r in 0..50 {
                s.apply(&WriteOp::insert(doc(r, (r % 2) as i64))).unwrap();
            }
            s.sync().unwrap();
            // No flush: everything only in the translog. Drop = crash.
        }
        let mut s = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        s.refresh();
        assert_eq!(s.stats().live_docs, 50, "all writes recovered from WAL");
    }

    #[test]
    fn flush_then_recover_without_translog() {
        let dir = tmpdir("flush");
        {
            let mut s =
                ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
                    .unwrap();
            for r in 0..30 {
                s.apply(&WriteOp::insert(doc(r, 1))).unwrap();
            }
            s.flush().unwrap();
        }
        let s = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        assert_eq!(s.stats().live_docs, 30, "recovered from segment files");
        assert!(s.get_record(29).is_some());
    }

    #[test]
    fn post_flush_deletes_survive_recovery() {
        let dir = tmpdir("flush-del");
        {
            let mut s =
                ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
                    .unwrap();
            for r in 0..10 {
                s.apply(&WriteOp::insert(doc(r, 1))).unwrap();
            }
            s.flush().unwrap();
            // Delete after the flush: lives only in the new translog
            // generation.
            s.apply(&WriteOp::delete(TenantId(1), RecordId(3), 0))
                .unwrap();
            s.sync().unwrap();
        }
        let s = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        assert_eq!(s.stats().live_docs, 9);
        assert!(!s.contains_record(3));
    }

    #[test]
    fn double_flush_rewrites_dirty_segments() {
        let dir = tmpdir("dirty");
        let mut s = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        for r in 0..10 {
            s.apply(&WriteOp::insert(doc(r, 1))).unwrap();
        }
        s.flush().unwrap();
        s.apply(&WriteOp::delete(TenantId(1), RecordId(5), 0))
            .unwrap();
        s.flush().unwrap(); // tombstone must be re-persisted
        drop(s);
        let s = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        assert!(!s.contains_record(5));
        assert_eq!(s.stats().live_docs, 9);
    }

    #[test]
    fn auto_refresh_on_buffer_size() {
        let dir = tmpdir("auto");
        let mut cfg = ShardConfig::new(&dir);
        cfg.refresh_buffer_docs = 5;
        let mut s = ShardEngine::open(CollectionSchema::transaction_logs(), cfg).unwrap();
        for r in 0..12 {
            s.apply(&WriteOp::insert(doc(r, 1))).unwrap();
        }
        assert!(
            s.stats().refreshes >= 2,
            "buffer threshold triggers refresh"
        );
        assert!(s.stats().live_docs >= 10);
    }

    #[test]
    fn telemetry_records_storage_stages() {
        use esdb_telemetry::TelemetryConfig;
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
            trace_sample_every: 1, // sample every op so counts are exact
            ..TelemetryConfig::default()
        }));
        let cfg = ShardConfig::new(tmpdir("telemetry")).with_telemetry(3, Arc::clone(&telemetry));
        let mut s = ShardEngine::open(CollectionSchema::transaction_logs(), cfg).unwrap();
        for r in 0..8 {
            s.apply(&WriteOp::insert(doc(r, 1))).unwrap();
        }
        s.refresh();
        s.flush().unwrap();
        let reg = telemetry.registry();
        let labels = |stage| Labels::stage(stage).with_shard(3);
        assert_eq!(
            reg.histogram("esdb_storage_stage_ns", labels("translog_append"))
                .count(),
            8
        );
        assert_eq!(
            reg.histogram("esdb_storage_stage_ns", labels("index"))
                .count(),
            8
        );
        // One standalone refresh; the flush-time refresh found an empty
        // buffer and early-returned before the timer records.
        assert_eq!(
            reg.histogram("esdb_storage_stage_ns", labels("refresh"))
                .count(),
            1
        );
        assert_eq!(
            reg.histogram("esdb_storage_stage_ns", labels("flush"))
                .count(),
            1
        );
    }

    #[test]
    fn adopt_segment_installs_shipped_rows() {
        let mut src = open("adopt-src");
        for r in 0..6 {
            src.apply(&WriteOp::insert(doc(r, 1))).unwrap();
        }
        src.refresh();
        // Export the source's rows into a shipped segment (what the
        // migration coordinator builds from a pinned snapshot).
        let docs: Vec<Document> = src.segments()[0]
            .live_docs()
            .map(|(_, d)| d.clone())
            .collect();
        let shipped = esdb_index::builder::build_segment(
            0,
            docs,
            src.schema(),
            &esdb_index::Analyzer::default(),
            &fast_set(),
            1024,
        );

        let dir = tmpdir("adopt-dst");
        let mut dst =
            ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
                .unwrap();
        let id = dst.adopt_segment(shipped.clone());
        assert!(id >= 1, "adopted segment gets a local id");
        assert_eq!(dst.stats().live_docs, 6);
        assert!(dst.get_record(3).is_some(), "adopted rows are searchable");
        // Re-adoption converges instead of duplicating.
        dst.adopt_segment(shipped);
        assert_eq!(dst.stats().live_docs, 6, "idempotent re-adoption");
        // Flush persists the adopted rows; recovery sees them.
        dst.flush().unwrap();
        drop(dst);
        let dst = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        assert_eq!(dst.stats().live_docs, 6, "adopted rows survive recovery");
    }

    #[test]
    fn merge_compacts_segments() {
        let mut s = open("merge");
        for batch in 0..5 {
            for r in 0..10 {
                s.apply(&WriteOp::insert(doc(batch * 10 + r, 1))).unwrap();
            }
            s.refresh();
        }
        assert_eq!(s.stats().segments, 5);
        let merged = s.maybe_merge();
        assert!(merged.is_some());
        assert_eq!(s.stats().segments, 1);
        assert_eq!(s.stats().live_docs, 50);
        assert_eq!(s.stats().merges, 1);
    }

    #[test]
    fn crash_between_merge_and_flush_loses_nothing() {
        // Regression: merging used to delete persisted segment files that
        // the commit point still referenced; a crash in that window lost
        // every row of the merged segments.
        let dir = tmpdir("merge-crash");
        {
            let mut s =
                ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
                    .unwrap();
            for batch in 0..4 {
                for r in 0..5 {
                    s.apply(&WriteOp::insert(doc(batch * 5 + r, 1))).unwrap();
                }
                s.refresh();
            }
            s.flush().unwrap();
            s.maybe_merge().expect("merge the 4 small segments");
            // Crash: drop without flushing the new commit point.
        }
        let s = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        assert_eq!(
            s.stats().live_docs,
            20,
            "pre-merge files must still be readable"
        );
        for r in 0..20 {
            assert!(s.contains_record(r), "record {r} lost in the crash window");
        }
    }

    #[test]
    fn merge_then_flush_then_recover() {
        let dir = tmpdir("merge-flush");
        {
            let mut s =
                ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
                    .unwrap();
            for batch in 0..4 {
                for r in 0..5 {
                    s.apply(&WriteOp::insert(doc(batch * 5 + r, 1))).unwrap();
                }
                s.refresh();
            }
            s.flush().unwrap();
            s.maybe_merge().expect("should merge 4 tiny segments");
            s.flush().unwrap();
        }
        let s = ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .unwrap();
        assert_eq!(s.stats().live_docs, 20);
        assert_eq!(s.stats().segments, 1);
    }
}
