//! Seller-facing analytics: the ad-hoc multi-column queries, full-text
//! search, sub-attribute filters and aggregations the paper motivates
//! (bookstore sellers searching transactions by title keywords, §1).
//!
//! ```sh
//! cargo run -p esdb-examples --release --bin seller_analytics
//! ```

use esdb_common::TenantId;
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::CollectionSchema;
use esdb_query::aggregate::{aggregate, AggFunc};
use esdb_query::QueryOptions;
use esdb_workload::{DocGenerator, RateSchedule, TraceGenerator};

fn main() {
    let dir = std::env::temp_dir().join("esdb-seller-analytics");
    let _ = std::fs::remove_dir_all(&dir);
    let mut db =
        Esdb::open(CollectionSchema::transaction_logs(), EsdbConfig::new(&dir)).expect("open");
    let (writer, reader) = (db.writer(), db.reader());

    // Load a Zipf-skewed day of trade: 40k rows, 500 sellers.
    let mut trace = TraceGenerator::new(500, 1.0, RateSchedule::constant(40_000.0), 7);
    let mut docs = DocGenerator::new(1_500, 20, 7);
    let day0 = 1_631_750_400_000u64;
    for ev in trace.tick(day0, 1_000) {
        let mut e = ev;
        // Spread creation times over 24h for interesting time predicates.
        e.created_at = day0 + (ev.record.raw() * 2_160) % 86_400_000;
        writer.insert(docs.materialize(&e)).expect("insert");
    }
    db.refresh();
    println!(
        "loaded {} rows across {} sellers\n",
        db.stats().live_docs,
        500
    );

    let top_seller = trace.tenant_of_rank(1);
    println!("top seller is tenant {}", top_seller.raw());

    // 1. Status breakdown in a time window (composite index + scan list).
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {} \
         AND created_time BETWEEN '2021-09-16 06:00:00' AND '2021-09-16 18:00:00' \
         AND status = 1",
        top_seller.raw()
    );
    let rows = reader.query(&sql).expect("query");
    println!("completed transactions 06:00-18:00: {}", rows.docs.len());

    // 2. Full-text: find orders whose title mentions 'rust book'.
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {} \
         AND MATCH(auction_title, 'rust book') LIMIT 100",
        top_seller.raw()
    );
    let rows = reader.query(&sql).expect("match");
    println!("'rust book' orders: {}", rows.docs.len());

    // 3. Sub-attribute filter: the hottest of the 1500 attributes.
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {} \
         AND ATTR('attr_0001') = 'v3' LIMIT 100",
        top_seller.raw()
    );
    let rows = reader.query(&sql).expect("attr");
    println!("attr_0001=v3 orders: {}", rows.docs.len());

    // 4. Aggregations via the coordinator-side aggregator.
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {}",
        top_seller.raw()
    );
    let rows = reader.query(&sql).expect("all");
    let count = aggregate(&rows.docs, &AggFunc::Count);
    let total = aggregate(&rows.docs, &AggFunc::Sum("amount".into()));
    let avg = aggregate(&rows.docs, &AggFunc::Avg("amount".into()));
    let max = aggregate(&rows.docs, &AggFunc::Max("amount".into()));
    println!("\nGMV report for tenant {}:", top_seller.raw());
    println!("  orders: {count}\n  revenue: {total}\n  avg ticket: {avg}\n  biggest: {max}");

    // 5. Optimizer vs naive plan on the same query (Fig. 17 in miniature).
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {} \
         AND created_time BETWEEN '2021-09-16 00:00:00' AND '2021-09-16 12:00:00' \
         AND status = 1 AND group = 5 LIMIT 100",
        top_seller.raw()
    );
    let t0 = std::time::Instant::now();
    let opt = reader
        .query_opts(
            &sql,
            QueryOptions {
                use_optimizer: true,
                ..QueryOptions::default()
            },
        )
        .expect("opt");
    let t_opt = t0.elapsed();
    let t0 = std::time::Instant::now();
    let naive = reader
        .query_opts(
            &sql,
            QueryOptions {
                use_optimizer: false,
                ..QueryOptions::default()
            },
        )
        .expect("naive");
    let t_naive = t0.elapsed();
    println!(
        "\noptimizer: {} rows, {} postings touched, {:?}",
        opt.docs.len(),
        opt.postings_scanned,
        t_opt
    );
    println!(
        "naive:     {} rows, {} postings touched, {:?}",
        naive.docs.len(),
        naive.postings_scanned,
        t_naive
    );
    println!(
        "(at this 40K-row demo scale both plans run in ~0.1ms and wall times \
         are noisy; the postings counts show the work the optimizer avoids — \
         see `figures fig17` for the measured latency comparison at scale)"
    );
    let _ = TenantId(0);
}
