//! Crash/recovery integration across storage, replication and the facade.

use esdb_common::{RecordId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document, WriteOp};
use esdb_integration_tests::test_dir;
use esdb_replication::{ReplicatedPair, ReplicationMode};

fn doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 2) as i64)
        .field("auction_title", format!("recover me {record}"))
        .build()
}

#[test]
fn mixed_flush_and_wal_recovery() {
    let dir = test_dir("recovery-mixed");
    {
        let mut db = Esdb::open(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(&dir).shards(4),
        )
        .expect("open");
        let w = db.writer();
        // First 300 rows flushed to segment files.
        for r in 0..300 {
            w.insert(doc(r % 10, r, 1_000 + r)).expect("insert");
        }
        db.flush().expect("flush");
        // Next 200 rows only in the translogs, plus some deletes of
        // flushed rows; then "crash" (drop without flushing).
        for r in 300..500 {
            w.insert(doc(r % 10, r, 1_000 + r)).expect("insert");
        }
        for r in 0..20 {
            w.delete(TenantId(r % 10), RecordId(r), 1_000 + r)
                .expect("delete");
        }
    }
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir).shards(4),
    )
    .expect("recover");
    let rd = db.reader();
    db.refresh();
    assert_eq!(db.stats().live_docs, 500 - 20);
    // A specific WAL-only record.
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE record_id = 450")
        .expect("query");
    assert_eq!(rows.docs.len(), 1);
    // A deleted record stays deleted.
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE record_id = 5")
        .expect("query");
    assert!(rows.docs.is_empty());
}

#[test]
fn repeated_crash_cycles_converge() {
    let dir = test_dir("recovery-cycles");
    let mut expected = 0u64;
    for cycle in 0..5u64 {
        let mut db = Esdb::open(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(&dir).shards(2),
        )
        .expect("open");
        let w = db.writer();
        db.refresh();
        assert_eq!(db.stats().live_docs as u64, expected, "cycle {cycle}");
        for r in 0..50 {
            w.insert(doc(1, cycle * 50 + r, 1_000 + cycle * 50 + r))
                .expect("insert");
        }
        expected += 50;
        if cycle % 2 == 0 {
            db.flush().expect("flush");
        }
        // Drop without flush on odd cycles: WAL-only.
    }
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir).shards(2),
    )
    .expect("final open");
    let rd = db.reader();
    db.refresh();
    assert_eq!(db.stats().live_docs as u64, expected);
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
        .expect("query");
    assert_eq!(rows.docs.len() as u64, expected);
}

#[test]
fn replica_promotion_after_primary_loss() {
    let (clock, _driver) = SharedClock::manual(0);
    let mut pair = ReplicatedPair::open(
        CollectionSchema::transaction_logs(),
        test_dir("recovery-promote"),
        ReplicationMode::Physical {
            pre_replicate_merges: true,
        },
        clock,
    )
    .expect("open pair");
    for r in 0..400u64 {
        pair.write(&WriteOp::insert(doc(3, r, 1_000 + r)))
            .expect("write");
        if r % 100 == 99 {
            pair.refresh().expect("refresh");
        }
    }
    // Writes 400..450 never refreshed: replica has them only via translog.
    for r in 400..450u64 {
        pair.write(&WriteOp::insert(doc(3, r, 1_000 + r)))
            .expect("write");
    }
    // "Primary dies"; promote the replica from its synced translog.
    let promoted = pair
        .promote_replica(test_dir("recovery-promoted"))
        .expect("promote");
    assert_eq!(
        promoted.stats().live_docs,
        450,
        "no acknowledged write lost"
    );
    assert!(promoted.get_record(449).is_some());
}
