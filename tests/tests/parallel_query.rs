//! Parallel scatter-gather equivalence: for a hot tenant whose data
//! spans many shards, query results (rows, order, and work counters)
//! must be byte-identical at every parallelism degree, including the
//! paper's Fig. 17 query templates; batched writes must land exactly
//! where single writes would.

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, RoutingMode, WriteBatcher};
use esdb_doc::{CollectionSchema, Document, WriteOp};
use esdb_integration_tests::test_dir;
use esdb_workload::QueryGenerator;

const HOT: u64 = 10_086;
const T0: u64 = 1_631_750_400_000;

fn doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 3) as i64)
        .field("group", (record % 7) as i64)
        .field(
            "province",
            ["zhejiang", "jiangsu", "guangdong", "shanghai"][record as usize % 4],
        )
        .field("buyer_id", (700_000 + record * 13 % 300_000) as i64)
        .field("auction_title", format!("rust book number {record}"))
        .build()
}

/// An instance whose hot tenant deterministically spans all `n_shards`
/// shards, populated with `rows` documents.
fn build(name: &str, n_shards: u32, rows: u64) -> Esdb {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir(name))
            .shards(n_shards)
            .routing(RoutingMode::DoubleHashing(n_shards))
            .parallelism(1),
    )
    .expect("open");
    let w = db.writer();
    for r in 0..rows {
        let tenant = if r % 5 == 4 { 1 + r % 50 } else { HOT };
        w.insert(doc(tenant, r, T0 + r * 1_000)).expect("insert");
    }
    db.refresh();
    db.merge();
    db.refresh();
    db
}

#[test]
fn fig17_templates_identical_across_parallelism_degrees() {
    let mut db = build("par-fig17", 16, 6_000);
    // 20 generated Fig. 17 queries + the base template + a global scan.
    let mut generator = QueryGenerator::new(1_500, 7);
    let mut sqls: Vec<String> = (0..20)
        .map(|_| generator.generate(TenantId(HOT), T0 + 1_000_000, T0 + 5_000_000))
        .collect();
    sqls.push(QueryGenerator::base_template(
        TenantId(HOT),
        T0,
        T0 + 6_000 * 1_000,
    ));
    sqls.push(
        "SELECT * FROM transaction_logs WHERE status = 1 ORDER BY created_time DESC LIMIT 40"
            .into(),
    );

    for sql in &sqls {
        // A reader handle captures the degree in effect when it is cloned.
        db.set_parallelism(1);
        let sequential = db.reader().query(sql).expect("sequential");
        for degree in [2, 4, 16] {
            db.set_parallelism(degree);
            let parallel = db.reader().query(sql).expect("parallel");
            assert_eq!(
                parallel.docs, sequential.docs,
                "rows diverged at parallelism {degree} for: {sql}"
            );
            assert_eq!(
                parallel.postings_scanned, sequential.postings_scanned,
                "postings_scanned diverged at parallelism {degree} for: {sql}"
            );
            assert_eq!(
                parallel.docs_scanned, sequential.docs_scanned,
                "docs_scanned diverged at parallelism {degree} for: {sql}"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Thread scheduling must not leak into results: the same query run
    // many times at high parallelism returns the same rows every time.
    let mut db = build("par-stable", 16, 3_000);
    db.set_parallelism(8);
    let rd = db.reader();
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {HOT} \
         ORDER BY created_time DESC LIMIT 200"
    );
    let first = rd.query(&sql).expect("query");
    assert_eq!(first.docs.len(), 200);
    for _ in 0..10 {
        let again = rd.query(&sql).expect("query");
        assert_eq!(again.docs, first.docs);
    }
}

#[test]
fn batched_mixed_shard_writes_match_singles() {
    // The same ops through write_batch (grouped per shard, applied
    // concurrently) and through write() one at a time must produce
    // identical shard contents and identical query results.
    let ops: Vec<WriteOp> = (0..500u64)
        .map(|r| WriteOp::insert(doc(1 + r % 23, r, T0 + r)))
        .collect();

    let mut batched = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("par-batch-a")).shards(8),
    )
    .expect("open");
    let (w_batched, rd_batched) = (batched.writer(), batched.reader());
    let mut batcher = WriteBatcher::new();
    for op in &ops {
        batcher.push(op.clone());
    }
    let applied = w_batched.write_batch(&mut batcher).expect("batch");
    assert_eq!(applied.total, 500);
    let batch_sum: usize = applied.per_shard.iter().map(|(_, n)| n).sum();
    assert_eq!(batch_sum, 500);
    assert!(applied.per_shard.len() > 1, "mixed batch spans shards");

    let mut singles = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("par-batch-b")).shards(8),
    )
    .expect("open");
    let (w_singles, rd_singles) = (singles.writer(), singles.reader());
    for op in ops {
        w_singles.write(op).expect("write");
    }

    batched.refresh();
    singles.refresh();
    assert_eq!(batched.shard_doc_counts(), singles.shard_doc_counts());
    // Per-shard counts reported by the batch agree with placement.
    for (shard, n) in &applied.per_shard {
        assert_eq!(batched.shard_doc_counts()[shard.index()], *n);
    }
    let sql = "SELECT * FROM transaction_logs WHERE group = 3 ORDER BY created_time ASC";
    assert_eq!(
        rd_batched.query(sql).expect("q").docs,
        rd_singles.query(sql).expect("q").docs
    );
}

#[test]
fn busy_counters_accumulate_across_span() {
    let mut db = build("par-busy", 8, 2_000);
    db.set_parallelism(4);
    let rd = db.reader();
    for _ in 0..5 {
        rd.query(&format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {HOT}"
        ))
        .expect("query");
    }
    let stats = db.stats();
    assert_eq!(stats.parallelism, 4);
    assert_eq!(stats.shard_busy_micros.len(), 8);
    let busy_shards = stats.shard_busy_micros.iter().filter(|&&m| m > 0).count();
    assert!(
        busy_shards >= 2,
        "span-wide fan-out should charge busy time to several shards: {:?}",
        stats.shard_busy_micros
    );
    assert!(stats.queries >= 5);
}
