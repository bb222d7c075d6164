//! Facade-level features: workload batching through `Esdb::write_batch`,
//! SQL result mapping, and plan inspection.

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, WriteBatcher};
use esdb_doc::{CollectionSchema, Document, FieldValue, WriteOp};
use esdb_integration_tests::test_dir;
use esdb_query::mapping::{date_format, to_sql_row};
use esdb_query::{optimize, parse_sql, translate};

fn doc(r: u64, status: i64) -> Document {
    Document::builder(TenantId(1), RecordId(r), 1_631_750_400_000 + r)
        .field("status", status)
        .field("auction_title", format!("batched item {r}"))
        .build()
}

#[test]
fn workload_batching_end_to_end() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("facade-batch")).shards(4),
    )
    .expect("open");
    let (w, rd) = (db.writer(), db.reader());

    // A flash-sale row hammered with 100 modifications, plus 9 normal rows.
    let mut batcher = WriteBatcher::new();
    batcher.push(WriteOp::insert(doc(0, 0)));
    for i in 1..100i64 {
        batcher.push(WriteOp::update(doc(0, i)));
    }
    for r in 1..10u64 {
        batcher.push(WriteOp::insert(doc(r, 0)));
    }
    assert_eq!(batcher.accepted(), 109);
    let applied = w.write_batch(&mut batcher).expect("batch");
    assert_eq!(
        applied.total, 10,
        "109 client ops collapse to 10 server writes"
    );
    let per_shard_sum: usize = applied.per_shard.iter().map(|(_, n)| n).sum();
    assert_eq!(
        per_shard_sum, applied.total,
        "per-shard counts sum to total"
    );
    db.refresh();

    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
        .expect("query");
    assert_eq!(rows.docs.len(), 10);
    let hot = rows
        .docs
        .iter()
        .find(|d| d.record_id == RecordId(0))
        .expect("hot row present");
    assert_eq!(
        hot.get("status"),
        Some(FieldValue::Int(99)),
        "only the terminal state materialized"
    );
    assert_eq!(db.stats().writes, 10, "server saw only the batched ops");
}

#[test]
fn sql_row_mapping_end_to_end() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("facade-mapping")).shards(2),
    )
    .expect("open");
    let (w, rd) = (db.writer(), db.reader());
    w.insert(doc(5, 1)).expect("insert");
    db.refresh();
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE record_id = 5")
        .expect("query");
    let row = to_sql_row(&rows.docs[0], &[]);
    let created = row
        .cells
        .iter()
        .find(|(n, _)| n == "created_time")
        .and_then(|(_, v)| v.clone())
        .expect("created_time rendered");
    assert!(created.starts_with("2021-09-16"), "{created}");
    // DATE_FORMAT agrees with the rendered timestamp's date part.
    assert_eq!(
        date_format(rows.docs[0].created_at, "%Y-%m-%d"),
        &created[..10]
    );
}

#[test]
fn plans_are_inspectable() {
    // EXPLAIN-style: the plan for the paper's Fig. 6 query renders the
    // Fig. 8 operator tree.
    let q = translate(
        parse_sql(
            "SELECT * FROM transaction_logs WHERE tenant_id = 10086 \
             AND created_time >= '2021-09-16 00:00:00' \
             AND created_time <= '2021-09-17 00:00:00' \
             AND status = 1 OR group = 666",
        )
        .expect("parse"),
    );
    let plan = optimize(&q.filter, &CollectionSchema::transaction_logs());
    let rendered = plan.to_string();
    assert!(rendered.contains("Union"), "{rendered}");
    assert!(
        rendered.contains("CompositeScan tenant_id_created_time"),
        "{rendered}"
    );
    assert!(rendered.contains("ScanFilter"), "{rendered}");
    assert!(rendered.contains("IndexSearch"), "{rendered}");
}
