//! Skewed writes against the embedded engine: watch dynamic secondary
//! hashing split a hot seller across shards while cold sellers stay put.
//!
//! ```sh
//! cargo run -p esdb-examples --release --bin skewed_writes
//! ```

use esdb_common::zipf::ZipfSampler;
use esdb_common::{Clock, RecordId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig, RoutingMode};
use esdb_doc::{CollectionSchema, Document};
use esdb_examples::bar;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_TENANTS: usize = 2_000;
const N_WRITES: u64 = 60_000;
const THETA: f64 = 1.0;

fn run(mode: RoutingMode, label: &str) {
    let dir = std::env::temp_dir().join(format!("esdb-skewed-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    let (clock, driver) = SharedClock::manual(1_000_000);
    let mut db = Esdb::open_with_clock(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir).shards(16).routing(mode),
        clock.clone(),
    )
    .expect("open");
    let (writer, reader) = (db.writer(), db.reader());

    let zipf = ZipfSampler::new(N_TENANTS, THETA);
    let mut rng = StdRng::seed_from_u64(11);
    for r in 0..N_WRITES {
        let rank = zipf.sample(&mut rng);
        let t = clock.now();
        writer
            .insert(
                Document::builder(TenantId(rank as u64), RecordId(r), t)
                    .field("status", (r % 3) as i64)
                    .field("auction_title", "flash sale widget")
                    .build(),
            )
            .expect("insert");
        driver.advance(1); // 1 ms per write
    }
    db.refresh();

    let counts = db.shard_doc_counts();
    let max = *counts.iter().max().expect("shards") as f64;
    println!("\n== {label} ==  (rules committed: {})", db.stats().rules);
    for (i, c) in counts.iter().enumerate() {
        println!("  shard {i:>2} {:>7} docs  {}", c, bar(*c as f64, max, 40));
    }
    let hot = db.read_span(TenantId(1));
    println!(
        "  hot tenant span: {} shard(s); stddev of shard sizes: {:.0}",
        hot.len,
        esdb_common::stats::stddev(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>())
    );
    // Read-your-writes sanity: the hot tenant sees every one of its rows.
    let rows = reader
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
        .expect("query");
    println!("  hot tenant rows visible: {}", rows.docs.len());
}

fn main() {
    println!("Writing {N_WRITES} Zipf(θ={THETA}) rows from {N_TENANTS} sellers into 16 shards");
    run(RoutingMode::Hashing, "hashing");
    run(RoutingMode::DoubleHashing(8), "double-hashing-s8");
    run(RoutingMode::Dynamic, "dynamic-secondary-hashing");
}
