//! Segment files and commit points.
//!
//! `flush` persists each segment's live documents to a `segment-<id>.seg`
//! file (framed, checksummed) and writes a commit point listing the durable
//! segment ids. Recovery loads the commit point, rebuilds each segment's
//! indexes from its documents, and replays the translog tail on top.
//! Rebuilding indexes on load mirrors what our in-memory engine needs;
//! the *bytes on disk* are what physical replication ships (§5.2).

use crate::codec::{frame, get_document, put_document, read_frame};
use bytes::{Bytes, BytesMut};
use esdb_common::fastmap::FastSet;
use esdb_common::{EsdbError, Result};
use esdb_doc::{CollectionSchema, Document};
use esdb_index::builder::build_segment;
use esdb_index::{Analyzer, Segment, SegmentId};
use std::io::Write;
use std::path::{Path, PathBuf};

fn segment_path(dir: &Path, id: SegmentId) -> PathBuf {
    dir.join(format!("segment-{id:010}.seg"))
}

fn commit_path(dir: &Path) -> PathBuf {
    dir.join("commit.point")
}

/// Writes a segment's live documents to its file. Returns bytes written.
pub(crate) fn write_segment(dir: &Path, segment: &Segment) -> Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut body = BytesMut::new();
    for (_, doc) in segment.live_docs() {
        let mut one = BytesMut::new();
        put_document(&mut one, doc);
        body.extend_from_slice(&frame(&one));
    }
    let path = segment_path(dir, segment.id);
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&body)?;
    f.sync_data()?;
    std::fs::rename(&tmp, &path)?;
    Ok(body.len())
}

/// Loads a segment file and rebuilds its indexes.
pub(crate) fn load_segment(
    dir: &Path,
    id: SegmentId,
    schema: &CollectionSchema,
    indexed_attrs: &FastSet<String>,
) -> Result<Segment> {
    let data = std::fs::read(segment_path(dir, id))?;
    let mut docs: Vec<Document> = Vec::new();
    let mut size = 0usize;
    let mut offset = 0usize;
    while let Some((payload, n)) = read_frame(&data[offset..])? {
        let mut b = Bytes::copy_from_slice(payload);
        let doc = get_document(&mut b)?;
        size += doc.approx_size();
        docs.push(doc);
        offset += n;
    }
    Ok(build_segment(
        id,
        docs,
        schema,
        &Analyzer::default(),
        indexed_attrs,
        size,
    ))
}

/// Deletes a segment file (post-merge cleanup).
pub(crate) fn remove_segment(dir: &Path, id: SegmentId) -> Result<()> {
    let p = segment_path(dir, id);
    if p.exists() {
        std::fs::remove_file(p)?;
    }
    Ok(())
}

/// Writes the commit point: the set of durable segment ids plus the next
/// segment id counter.
pub(crate) fn write_commit_point(
    dir: &Path,
    segment_ids: &[SegmentId],
    next_id: SegmentId,
) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut body = BytesMut::new();
    bytes::BufMut::put_u64_le(&mut body, next_id);
    bytes::BufMut::put_u32_le(&mut body, segment_ids.len() as u32);
    for &id in segment_ids {
        bytes::BufMut::put_u64_le(&mut body, id);
    }
    let framed = frame(&body);
    let path = commit_path(dir);
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&framed)?;
    f.sync_data()?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Reads the commit point; `Ok(None)` when none exists (fresh shard).
pub(crate) fn read_commit_point(dir: &Path) -> Result<Option<(Vec<SegmentId>, SegmentId)>> {
    let path = commit_path(dir);
    if !path.exists() {
        return Ok(None);
    }
    let data = std::fs::read(path)?;
    let Some((payload, _)) = read_frame(&data)? else {
        return Ok(None);
    };
    let mut buf = Bytes::copy_from_slice(payload);
    use bytes::Buf;
    if buf.remaining() < 12 {
        return Err(EsdbError::Corruption("short commit point".into()));
    }
    let next_id = buf.get_u64_le();
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 8 {
        return Err(EsdbError::Corruption("truncated commit point".into()));
    }
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(buf.get_u64_le());
    }
    Ok(Some((ids, next_id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::fastmap::fast_set;
    use esdb_common::{RecordId, TenantId};
    use esdb_index::SegmentBuilder;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esdb-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn make_segment(id: SegmentId) -> Segment {
        let mut b = SegmentBuilder::without_attr_index(CollectionSchema::transaction_logs());
        for r in 0..20u64 {
            b.add(
                Document::builder(TenantId(r % 3), RecordId(r), 1000 + r)
                    .field("status", (r % 2) as i64)
                    .field("auction_title", format!("widget {r}"))
                    .build(),
            );
        }
        b.refresh(id)
    }

    #[test]
    fn segment_roundtrip_rebuilds_indexes() {
        let dir = tmpdir("seg");
        let seg = make_segment(5);
        let bytes = write_segment(&dir, &seg).unwrap();
        assert!(bytes > 0);
        let schema = CollectionSchema::transaction_logs();
        let loaded = load_segment(&dir, 5, &schema, &fast_set()).unwrap();
        assert_eq!(loaded.live_count(), 20);
        assert_eq!(
            loaded.numeric_eq("status", 1).len(),
            seg.numeric_eq("status", 1).len()
        );
        assert_eq!(loaded.term_docs("auction_title", "widget").len(), 20);
    }

    #[test]
    fn deleted_docs_not_persisted() {
        let dir = tmpdir("del");
        let mut seg = make_segment(1);
        assert!(seg.delete_record(7));
        write_segment(&dir, &seg).unwrap();
        let schema = CollectionSchema::transaction_logs();
        let loaded = load_segment(&dir, 1, &schema, &fast_set()).unwrap();
        assert_eq!(loaded.live_count(), 19);
        assert!(loaded.find_record(7).is_none());
    }

    #[test]
    fn commit_point_roundtrip() {
        let dir = tmpdir("commit");
        assert!(read_commit_point(&dir).unwrap().is_none());
        write_commit_point(&dir, &[3, 1, 9], 10).unwrap();
        let (ids, next) = read_commit_point(&dir).unwrap().unwrap();
        assert_eq!(ids, vec![3, 1, 9]);
        assert_eq!(next, 10);
        // Overwrite is atomic and replaces.
        write_commit_point(&dir, &[4], 11).unwrap();
        let (ids, next) = read_commit_point(&dir).unwrap().unwrap();
        assert_eq!(ids, vec![4]);
        assert_eq!(next, 11);
    }

    #[test]
    fn remove_segment_is_idempotent() {
        let dir = tmpdir("rm");
        let seg = make_segment(2);
        write_segment(&dir, &seg).unwrap();
        remove_segment(&dir, 2).unwrap();
        remove_segment(&dir, 2).unwrap();
        let schema = CollectionSchema::transaction_logs();
        assert!(load_segment(&dir, 2, &schema, &fast_set()).is_err());
    }
}
