//! Benchmark harness for ESDB-RS.
//!
//! The `figures` binary (`src/bin/figures.rs`) regenerates every figure of
//! the paper's evaluation (§6); the benches under `benches/` time the
//! engine pieces, and the gate benches among them report through
//! [`report::Report`]. This library holds the shared plumbing: simulation
//! runners, dataset builders for the real-engine experiments, plain-text
//! table output, the gate-bench report, and the hot-tenant query workload
//! several gate benches replay.

pub mod datasets;
pub mod figures;
pub mod harness;
pub mod output;
pub mod report;

pub use output::Table;

use esdb_common::zipf::ZipfSampler;
use esdb_core::EsdbReader;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The template queries a hot tenant repeats (Fig. 17 filter + sort +
/// top-k shapes). Small LIMITs keep the fetch phase from hiding the index
/// and sort work.
pub fn templates(tenant: u64) -> [String; 3] {
    [
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND status = 1 ORDER BY created_time DESC LIMIT 50"
        ),
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND group IN (1, 2, 3) ORDER BY created_time ASC LIMIT 50"
        ),
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND created_time BETWEEN 1000000 AND 100000000 \
             ORDER BY created_time DESC LIMIT 50"
        ),
    ]
}

/// `n` [`templates`] queries over tenants `1..=tenants` drawn
/// Zipf(0.99), seeded: the same sequence on every instance and pass.
pub fn query_sequence(tenants: usize, n: usize) -> Vec<String> {
    let zipf = ZipfSampler::new(tenants, 0.99);
    let mut rng = StdRng::seed_from_u64(42);
    (0..n)
        .map(|_| {
            let tenant = 1 + zipf.sample(&mut rng) as u64;
            let t = templates(tenant);
            t[rng.random_range(0..t.len())].clone()
        })
        .collect()
}

/// Runs `seq` once; returns each result's row count and record ids in
/// order, the fingerprint the row-identity gates compare.
pub fn row_keys(rd: &EsdbReader, seq: &[String]) -> Vec<u64> {
    let mut keys = Vec::new();
    for sql in seq {
        let rows = rd.query(sql).expect("query");
        keys.push(rows.docs.len() as u64);
        keys.extend(rows.docs.iter().map(|d| d.record_id.raw()));
    }
    keys
}
