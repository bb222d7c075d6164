//! Quickstart: open an embedded ESDB, write transaction logs, query with
//! SQL.
//!
//! ```sh
//! cargo run -p esdb-examples --bin quickstart
//! ```

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document, FieldValue};

fn main() {
    let dir = std::env::temp_dir().join("esdb-quickstart");
    let _ = std::fs::remove_dir_all(&dir);

    // The paper's transaction-log schema: structured columns, a full-text
    // auction title, a composite index on (tenant_id, created_time), and
    // frequency-based indexing over the "attributes" column.
    let mut db =
        Esdb::open(CollectionSchema::transaction_logs(), EsdbConfig::new(&dir)).expect("open esdb");
    // Data goes through two clone-able handles (hand them to as many
    // threads as you like); `db` keeps lifecycle, maintenance and admin.
    let (writer, reader) = (db.writer(), db.reader());

    // A bookstore's day of sales.
    let day = 1_631_750_400_000u64; // 2021-09-16 00:00:00
    let titles = [
        "rust in action hardcover",
        "database internals paperback",
        "the art of computer programming box set",
        "rust atomics and locks",
        "streaming systems",
    ];
    for (i, title) in titles.iter().enumerate() {
        let r = i as u64;
        writer
            .insert(
                Document::builder(TenantId(10086), RecordId(r), day + r * 3_600_000)
                    .field("status", (r % 2) as i64)
                    .field("group", 666i64)
                    .field("amount", FieldValue::Float(59.0 + r as f64 * 10.0))
                    .field("province", "zhejiang")
                    .field("auction_title", *title)
                    .attr("activity", "back-to-school")
                    .attr(
                        "binding",
                        if r % 2 == 0 { "hardcover" } else { "paperback" },
                    )
                    .build(),
            )
            .expect("insert");
    }
    // Another seller, so we can see tenant isolation.
    writer
        .insert(
            Document::builder(TenantId(20000), RecordId(100), day)
                .field("status", 1i64)
                .field("auction_title", "rust keychain")
                .build(),
        )
        .expect("insert");

    // Writes become searchable at refresh (near-real-time search).
    db.refresh();

    // The paper's example query shape (Fig. 6): tenant + time range +
    // extra filters, mixing AND and OR.
    let sql = "SELECT * FROM transaction_logs \
               WHERE tenant_id = 10086 \
               AND created_time >= '2021-09-16 00:00:00' \
               AND created_time <= '2021-09-17 00:00:00' \
               AND status = 1 OR group = 666 \
               ORDER BY created_time ASC LIMIT 100";
    let rows = reader.query(sql).expect("query");
    println!("Fig.6-style query returned {} rows:", rows.docs.len());
    for d in &rows.docs {
        println!(
            "  record {:>3}  status={}  title={:?}",
            d.record_id.raw(),
            d.get("status").expect("status"),
            d.get("auction_title").expect("title").to_string()
        );
    }

    // Full-text search over the analyzed title column.
    let rows = reader
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 10086 AND MATCH(auction_title, 'rust')")
        .expect("match query");
    println!(
        "\nfull-text 'rust' for tenant 10086: {} rows",
        rows.docs.len()
    );

    // Sub-attribute search (the 1500-sub-attribute "attributes" column).
    let rows = reader
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 10086 AND ATTR('binding') = 'hardcover'")
        .expect("attr query");
    println!("hardcover bindings: {} rows", rows.docs.len());

    // Durability: flush segments + roll the translog, then reopen.
    db.flush().expect("flush");
    drop((db, writer, reader));
    let db =
        Esdb::open(CollectionSchema::transaction_logs(), EsdbConfig::new(&dir)).expect("reopen");
    let rows = db
        .reader()
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 10086")
        .expect("query after reopen");
    println!(
        "\nafter reopen: {} rows for tenant 10086 (durable)",
        rows.docs.len()
    );
    println!("stats: {:?}", db.stats());
}
