//! End-to-end integration: the embedded ESDB under a skewed multi-tenant
//! workload, exercising routing, balancing, rule commits, SQL, and
//! read-your-writes across rule changes.

use esdb_common::zipf::ZipfSampler;
use esdb_common::{Clock, RecordId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig, RoutingMode};
use esdb_doc::{CollectionSchema, Document};
use esdb_integration_tests::test_dir;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 3) as i64)
        .field("group", (record % 7) as i64)
        .field(
            "auction_title",
            format!("item {} of tenant {}", record, tenant),
        )
        .attr("activity", if record % 2 == 0 { "1111" } else { "618" })
        .build()
}

#[test]
fn skewed_workload_full_pipeline() {
    let (clock, driver) = SharedClock::manual(1_000_000);
    let mut db = Esdb::open_with_clock(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("e2e-skewed")).shards(16),
        clock.clone(),
    )
    .expect("open");
    let (w, rd) = (db.writer(), db.reader());

    // 20K writes from 500 tenants, Zipf(1.2): heavy skew.
    let zipf = ZipfSampler::new(500, 1.2);
    let mut rng = StdRng::seed_from_u64(99);
    let mut per_tenant: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for r in 0..20_000u64 {
        let tenant = zipf.sample(&mut rng) as u64;
        *per_tenant.entry(tenant).or_insert(0) += 1;
        w.insert(doc(tenant, r, clock.now())).expect("insert");
        driver.advance(1);
    }
    db.refresh();

    // The balancer must have split the top tenant.
    assert!(db.rule_count() > 0, "no rules committed under heavy skew");
    assert!(db.read_span(TenantId(1)).len > 1, "rank-1 tenant not split");

    // Every tenant's data is fully visible (read-your-writes across all
    // the rule changes that happened mid-stream).
    for (&tenant, &count) in per_tenant.iter().take(50) {
        let rows = rd
            .query(&format!(
                "SELECT * FROM transaction_logs WHERE tenant_id = {tenant}"
            ))
            .expect("query");
        assert_eq!(
            rows.docs.len() as u64,
            count,
            "tenant {tenant} lost rows after balancing"
        );
    }

    // Aggregate conservation.
    assert_eq!(db.stats().live_docs as u64, 20_000);
}

#[test]
fn updates_and_deletes_survive_rebalancing() {
    let (clock, driver) = SharedClock::manual(5_000_000);
    let mut db = Esdb::open_with_clock(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("e2e-upd")).shards(8),
        clock.clone(),
    )
    .expect("open");
    let (w, rd) = (db.writer(), db.reader());

    // Hot tenant 7 gets split mid-run; record 0..100 created pre-split.
    let mut created: Vec<u64> = Vec::new();
    for r in 0..100u64 {
        created.push(clock.now());
        w.insert(doc(7, r, clock.now())).expect("insert");
        driver.advance(1);
    }
    for r in 100..6_000u64 {
        w.insert(doc(7, r, clock.now())).expect("insert");
        driver.advance(1);
    }
    db.rebalance();
    driver.advance(100);
    assert!(db.read_span(TenantId(7)).len > 1);

    // Update half of the pre-split records, delete the other half.
    for r in 0..50u64 {
        w.update(
            Document::builder(TenantId(7), RecordId(r), created[r as usize])
                .field("status", 99i64)
                .build(),
        )
        .expect("update");
    }
    for r in 50..100u64 {
        w.delete(TenantId(7), RecordId(r), created[r as usize])
            .expect("delete");
    }
    db.refresh();

    let updated = rd
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 7 AND status = 99")
        .expect("query");
    assert_eq!(
        updated.docs.len(),
        50,
        "updates must hit the original shards"
    );
    for r in 50..100u64 {
        let rows = rd
            .query(&format!(
                "SELECT * FROM transaction_logs WHERE tenant_id = 7 AND record_id = {r}"
            ))
            .expect("query");
        assert!(rows.docs.is_empty(), "record {r} should be deleted");
    }
    assert_eq!(db.stats().live_docs as u64, 6_000 - 50);
}

#[test]
fn all_routing_modes_agree_on_query_results() {
    let mut results = Vec::new();
    for (i, mode) in [
        RoutingMode::Hashing,
        RoutingMode::DoubleHashing(4),
        RoutingMode::Dynamic,
    ]
    .into_iter()
    .enumerate()
    {
        let mut db = Esdb::open(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(test_dir(&format!("e2e-mode-{i}")))
                .shards(8)
                .routing(mode),
        )
        .expect("open");
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..500u64 {
            w.insert(doc(r % 20, r, 1_000 + r)).expect("insert");
        }
        db.refresh();
        let rows = rd
            .query(
                "SELECT * FROM transaction_logs WHERE tenant_id = 3 AND status = 0 \
                 ORDER BY created_time ASC",
            )
            .expect("query");
        let ids: Vec<u64> = rows.docs.iter().map(|d| d.record_id.raw()).collect();
        results.push(ids);
    }
    assert_eq!(results[0], results[1], "hashing vs double hashing");
    assert_eq!(results[0], results[2], "hashing vs dynamic");
    assert!(!results[0].is_empty());
}

#[test]
fn full_text_and_attributes_end_to_end() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("e2e-fts")).shards(4),
    )
    .expect("open");
    let (w, rd) = (db.writer(), db.reader());
    for r in 0..200u64 {
        w.insert(doc(1, r, 1_000 + r)).expect("insert");
    }
    db.refresh();
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE MATCH(auction_title, 'item tenant')")
        .expect("match");
    assert_eq!(rows.docs.len(), 200);
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE ATTR('activity') = '1111'")
        .expect("attr");
    assert_eq!(rows.docs.len(), 100);
    let rows = rd
        .query(
            "SELECT * FROM transaction_logs WHERE ATTR('activity') = '618' AND status = 1 LIMIT 10",
        )
        .expect("attr+filter");
    assert!(rows.docs.len() <= 10);
    assert!(rows.docs.iter().all(|d| d.attr("activity") == Some("618")));
}
