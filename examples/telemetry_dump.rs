//! Telemetry dump: run a small skewed workload, then print everything
//! the observability layer collected — the Prometheus text exposition,
//! the JSON snapshot, and the slow-query log.
//!
//! ```sh
//! cargo run -p esdb-examples --bin telemetry_dump
//! cargo run -p esdb-examples --bin telemetry_dump -- --json
//! ```

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document};
use esdb_telemetry::TelemetryConfig;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let dir = std::env::temp_dir().join("esdb-telemetry-dump");
    let _ = std::fs::remove_dir_all(&dir);

    // Trace every request and slow-log everything over 1 µs so the dump
    // has material; production defaults sample 1-in-8 and log at 50 ms.
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir)
            .shards(4)
            .telemetry_config(TelemetryConfig {
                trace_sample_every: 1,
                slow_query_threshold_us: 1,
                ..TelemetryConfig::default()
            }),
    )
    .expect("open esdb");
    let (writer, reader) = (db.writer(), db.reader());

    // A hot tenant (10086) and a tail of cold ones — the paper's skew.
    let day = 1_631_750_400_000u64;
    for r in 0..400u64 {
        let tenant = if r % 10 < 8 { 10086 } else { 20_000 + r };
        writer
            .insert(
                Document::builder(TenantId(tenant), RecordId(r), day + r * 1_000)
                    .field("status", (r % 2) as i64)
                    .field("group", (r % 5) as i64)
                    .field("auction_title", format!("auction item {r}"))
                    .build(),
            )
            .expect("insert");
    }
    db.refresh();

    for _ in 0..3 {
        reader
            .query(
                "SELECT * FROM transaction_logs WHERE tenant_id = 10086 AND status = 1 \
             ORDER BY created_time DESC LIMIT 20",
            )
            .expect("query");
    }
    // Tenantless fan-out: touches every shard, including near-empty ones.
    reader
        .query("SELECT * FROM transaction_logs WHERE status = 0")
        .expect("query");

    let snapshot = db.telemetry_snapshot();
    if json {
        println!("{}", snapshot.to_json().to_text());
        return;
    }

    println!("==== Prometheus exposition ====");
    print!("{}", snapshot.to_prometheus());

    println!(
        "\n==== Slow-query log ({} entries) ====",
        db.slow_queries().len()
    );
    for (i, e) in db.slow_queries().iter().enumerate() {
        println!(
            "[{i}] {:.3} ms  fanout={} tenant={:?} fingerprint={:032x}",
            e.total_ns as f64 / 1e6,
            e.fanout,
            e.tenant,
            e.fingerprint,
        );
        println!("    sql:  {}", e.sql);
        for line in e.plan.lines() {
            println!("    plan: {line}");
        }
        for s in &e.stages {
            println!(
                "    stage {:<12} shard={:<4} {:>10} ns",
                s.stage,
                s.shard.map_or("-".into(), |s| s.to_string()),
                s.dur_ns,
            );
        }
    }
}
