//! Failover integration across chaos, storage, and replication: a
//! promoted replica must be indistinguishable from the primary it
//! replaces, and injected storage faults must never corrupt recovery.

use esdb_chaos::TornWriteInjector;
use esdb_common::{RecordId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document, WriteOp};
use esdb_index::Segment;
use esdb_integration_tests::test_dir;
use esdb_query::{execute_on_segments, parse_sql, translate, QueryOptions};
use esdb_replication::{ReplicatedPair, ReplicationMode};
use esdb_storage::{ShardConfig, ShardEngine};
use std::sync::Arc;

fn doc(tenant: u64, record: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), 1_000 + record * 10)
        .field("status", (record % 3) as i64)
        .field("auction_title", format!("failover corpus {record}"))
        .build()
}

/// The query corpus: per-tenant scans, filtered/sorted/limited templates,
/// and point lookups of tombstoned records.
fn corpus(tenants: u64, deleted: &[u64]) -> Vec<String> {
    let mut qs = Vec::new();
    for t in 1..=tenants {
        qs.push(format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {t} \
             ORDER BY created_time DESC"
        ));
        qs.push(format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {t} \
             AND status = 1 ORDER BY created_time ASC LIMIT 25"
        ));
        qs.push(format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {t} \
             AND created_time BETWEEN 1500 AND 3500 ORDER BY created_time DESC LIMIT 40"
        ));
    }
    for &r in deleted {
        qs.push(format!(
            "SELECT * FROM transaction_logs WHERE record_id = {r}"
        ));
    }
    qs
}

/// Row-for-row answers (record-id sequences, order preserved) for every
/// corpus query against one engine's searchable state.
fn answers(engine: &ShardEngine, corpus: &[String]) -> Vec<Vec<u64>> {
    let segs: Vec<&Segment> = engine.segments().iter().map(|s| s.as_ref()).collect();
    corpus
        .iter()
        .map(|sql| {
            let q = translate(parse_sql(sql).expect("parse corpus query"));
            let rows = execute_on_segments(
                &q,
                engine.schema(),
                &segs,
                QueryOptions {
                    use_optimizer: true,
                    ..QueryOptions::default()
                },
            );
            rows.docs.iter().map(|d| d.record_id.raw()).collect()
        })
        .collect()
}

#[test]
fn promoted_replica_answers_query_corpus_identically() {
    let (clock, _driver) = SharedClock::manual(0);
    let mut pair = ReplicatedPair::open(
        CollectionSchema::transaction_logs(),
        test_dir("failover-corpus"),
        ReplicationMode::Physical {
            pre_replicate_merges: true,
        },
        clock,
    )
    .expect("open pair");

    let tenants = 4u64;
    // Segment-resident phase: 300 inserts across 4 tenants, refreshed
    // every 100 so the primary holds multiple segments.
    for r in 0..300u64 {
        pair.write(&WriteOp::insert(doc(1 + r % tenants, r)))
            .expect("write");
        if r % 100 == 99 {
            pair.refresh().expect("refresh");
        }
    }
    // Tombstones against already-refreshed rows (segment deletes) …
    let mut deleted: Vec<u64> = (0..30u64).map(|k| k * 7).collect();
    for &r in &deleted {
        pair.write(&WriteOp::delete(TenantId(1 + r % tenants), RecordId(r), 0))
            .expect("delete");
    }
    // … then a translog-only tail the replica saw only via real-time
    // sync: fresh inserts plus deletes of both old and tail rows.
    for r in 300..360u64 {
        pair.write(&WriteOp::insert(doc(1 + r % tenants, r)))
            .expect("write");
    }
    for r in [301u64, 333, 215] {
        pair.write(&WriteOp::delete(TenantId(1 + r % tenants), RecordId(r), 0))
            .expect("delete");
        deleted.push(r);
    }

    // "Primary dies." Promote the replica from its synced translog; then
    // make the pre-crash primary's full state searchable as the oracle.
    let promoted = pair
        .promote_replica(test_dir("failover-corpus-promoted"))
        .expect("promote");
    pair.primary_mut().refresh();

    assert_eq!(
        promoted.stats().live_docs,
        pair.primary().stats().live_docs,
        "promotion must not lose or resurrect rows"
    );

    let qs = corpus(tenants, &deleted);
    let expected = answers(pair.primary(), &qs);
    let got = answers(&promoted, &qs);
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(e, g, "row mismatch on corpus query {i}: {}", qs[i]);
    }
    // Tombstoned docs stay gone on both sides (the record-id lookups are
    // the corpus tail, one per deleted record).
    for (i, _) in deleted.iter().enumerate() {
        let idx = expected.len() - deleted.len() + i;
        assert!(
            expected[idx].is_empty() && got[idx].is_empty(),
            "tombstoned record resurfaced in corpus query {idx}"
        );
    }
}

#[test]
fn torn_write_injection_fails_op_and_recovery_keeps_prefix() {
    let dir = test_dir("failover-torn");
    // Tear the 40th append: the 39 before it are acknowledged, the torn
    // one errors out and is never acknowledged.
    let injector = Arc::new(TornWriteInjector::new(0xC4A05, 40));
    {
        let mut engine = ShardEngine::open(
            CollectionSchema::transaction_logs(),
            ShardConfig::new(&dir).with_write_fault(injector.clone()),
        )
        .expect("open");
        let mut acked = 0u64;
        let mut torn = 0u64;
        for r in 0..40u64 {
            match engine.apply(&WriteOp::insert(doc(1, r))) {
                Ok(()) => acked += 1,
                Err(_) => torn += 1,
            }
        }
        assert_eq!((acked, torn), (39, 1), "exactly the 40th append tears");
        assert_eq!(injector.appends_seen(), 40);
        // Crash without flush: recovery must see exactly the acknowledged
        // prefix.
    }
    let mut engine =
        ShardEngine::open(CollectionSchema::transaction_logs(), ShardConfig::new(&dir))
            .expect("recover");
    engine.refresh();
    assert_eq!(engine.stats().live_docs, 39);
    assert!(engine.get_record(38).is_some());
    assert!(
        engine.get_record(39).is_none(),
        "the torn, unacknowledged write must not reappear"
    );
}

#[test]
fn injected_write_faults_surface_in_stats_and_telemetry() {
    // Every 10th translog append (db-wide) tears; the facade must count
    // each failure — never swallow it — and still serve the acknowledged
    // writes.
    let injector = Arc::new(TornWriteInjector::new(0xE5DB, 10));
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("failover-db-faults"))
            .shards(4)
            .write_fault(injector.clone()),
    )
    .expect("open");
    let (w, rd) = (db.writer(), db.reader());

    let (mut acked, mut failed) = (0u64, 0u64);
    for r in 0..30u64 {
        match w.write(WriteOp::insert(doc(1 + r % 3, r))) {
            Ok(_) => acked += 1,
            Err(_) => failed += 1,
        }
    }
    assert_eq!((acked, failed), (27, 3), "every 10th append tears");
    assert_eq!(injector.appends_seen(), 30);

    let stats = db.stats();
    assert_eq!(stats.write_errors, 3, "stats must count every failed write");
    assert_eq!(stats.writes, 27, "only acknowledged writes counted");

    let snapshot = db.telemetry_snapshot();
    let errors_total: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _, _)| name == "esdb_write_errors_total")
        .map(|(_, _, v)| *v)
        .sum();
    assert_eq!(errors_total, 3, "esdb_write_errors_total must match");

    // An interval is the difference of two `stats()` snapshots: the
    // fault-free one below must add no errors.
    let before = db.stats();
    db.refresh();
    let q = "SELECT * FROM transaction_logs WHERE tenant_id = 1 ORDER BY created_time ASC";
    let rows = rd.query(q).expect("query");
    assert!(
        !rows.docs.is_empty(),
        "acknowledged writes stay searchable after injected faults"
    );
    assert_eq!(db.stats().write_errors - before.write_errors, 0);
}
