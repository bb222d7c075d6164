//! Helpers shared by the crate's unit-test modules.
#![cfg(test)]

use crate::{Esdb, EsdbConfig};
use esdb_common::{ManualClock, RecordId, ShardId, SharedClock, TenantId, TimestampMs};
use esdb_doc::{CollectionSchema, Document};
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh per-process scratch directory for one test.
pub(crate) fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esdb-core-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Opens an instance on a manual clock (starting at 1 000 000 ms) in its
/// own scratch directory.
pub(crate) fn open(
    name: &str,
    cfg: impl FnOnce(EsdbConfig) -> EsdbConfig,
) -> (Esdb, Arc<ManualClock>) {
    let (clock, driver) = SharedClock::manual(1_000_000);
    let db = Esdb::open_with_clock(
        CollectionSchema::transaction_logs(),
        cfg(EsdbConfig::new(tmpdir(name))),
        clock,
    )
    .unwrap();
    (db, driver)
}

/// The plain test document.
pub(crate) fn doc(tenant: u64, record: u64, at: TimestampMs) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 2) as i64)
        .field("group", (record % 5) as i64)
        .field("auction_title", format!("item number {record}"))
        .build()
}

/// Documents with enough typed fields to exercise every aggregate.
pub(crate) fn rich_doc(tenant: u64, record: u64, at: TimestampMs) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 3) as i64)
        .field("group", (record % 5) as i64)
        .field("amount", esdb_doc::FieldValue::Float(record as f64 * 1.5))
        .field(
            "province",
            if record % 2 == 0 {
                "zhejiang"
            } else {
                "jiangsu"
            },
        )
        .field("auction_title", format!("item number {record}"))
        .build()
}

/// Every copy of every row the hot tenant wrote before `upto`, as
/// `(record, shards holding it)` — the physical-placement oracle the
/// migration tests assert collapse with.
pub(crate) fn physical_copies(db: &Esdb, tenant: u64, records: u64) -> Vec<(u64, Vec<u32>)> {
    let n = db.stats().shard_busy_micros.len() as u32;
    (0..records)
        .map(|r| {
            let holders: Vec<u32> = (0..n)
                .filter(|s| {
                    db.pin_snapshot(ShardId(*s))
                        .get_record(r)
                        .is_some_and(|d| d.tenant_id == TenantId(tenant))
                })
                .collect();
            (r, holders)
        })
        .collect()
}
