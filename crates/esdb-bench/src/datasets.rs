//! Real-engine dataset builders for the query experiments (Fig. 17/18).
//!
//! The paper's query evaluation targets 40M rows over 100K tenants on 8
//! VMs; we scale to an embedded single-process dataset (default 200K rows,
//! 2K tenants) — shapes, not absolute numbers (see DESIGN.md §1).

use esdb_common::SharedClock;
use esdb_core::{Esdb, EsdbConfig, RoutingMode};
use esdb_doc::CollectionSchema;
use esdb_workload::{DocGenerator, RateSchedule, TraceGenerator};
use std::path::PathBuf;

/// Dataset knobs.
#[derive(Debug, Clone)]
pub(crate) struct DatasetParams {
    /// Total rows.
    pub n_rows: u64,
    /// Tenant population.
    pub n_tenants: usize,
    /// Zipf θ for tenant sampling.
    pub theta: f64,
    /// Sub-attribute names in the "attributes" column (paper: 1500).
    pub n_attrs: usize,
    /// Sub-attributes sampled per row (paper: 20).
    pub attrs_per_doc: usize,
    /// Frequency-based indexing budget (paper: 30; 0 disables).
    pub attr_top_k: usize,
    /// Shards in the embedded instance.
    pub n_shards: u32,
    /// Seed.
    pub seed: u64,
}

impl Default for DatasetParams {
    fn default() -> Self {
        DatasetParams {
            n_rows: 200_000,
            n_tenants: 2_000,
            theta: 1.0,
            n_attrs: 1_500,
            attrs_per_doc: 20,
            attr_top_k: 30,
            n_shards: 16,
            seed: 42,
        }
    }
}

/// Time window the dataset's rows span (and queries should target).
pub(crate) const DATASET_T0: u64 = 1_631_750_400_000; // 2021-09-16 00:00:00
/// One day in ms.
pub(crate) const DAY_MS: u64 = 86_400_000;

/// Builds an embedded instance populated per `params`, refreshed and ready
/// to query. Returns the db and the trace generator (for rank→tenant
/// lookups).
pub(crate) fn build_embedded(params: &DatasetParams, dir: PathBuf) -> (Esdb, TraceGenerator) {
    let _ = std::fs::remove_dir_all(&dir);
    let mut schema = CollectionSchema::transaction_logs();
    schema.attr_index_top_k = params.attr_top_k;
    let (clock, driver) = SharedClock::manual(DATASET_T0);
    let mut db = Esdb::open_with_clock(
        schema,
        EsdbConfig::new(dir)
            .shards(params.n_shards)
            .routing(RoutingMode::Dynamic),
        clock,
    )
    .expect("open dataset instance");

    let mut trace = TraceGenerator::new(
        params.n_tenants,
        params.theta,
        RateSchedule::constant(1_000.0),
        params.seed,
    );
    let mut docs = DocGenerator::new(params.n_attrs, params.attrs_per_doc, params.seed);
    let writer = db.writer();

    // Rows spread uniformly over one day.
    let step = DAY_MS / params.n_rows.max(1);
    let mut produced = 0u64;
    while produced < params.n_rows {
        for mut ev in trace.tick(DATASET_T0 + produced * step, 1_000) {
            if produced >= params.n_rows {
                break;
            }
            ev.created_at = DATASET_T0 + produced * step;
            writer.insert(docs.materialize(&ev)).expect("insert row");
            produced += 1;
        }
    }
    driver.advance(DAY_MS + 1_000);
    // Two refreshes with a rebalance between them: the first makes data
    // searchable, the rebalance lets frequency-based indexing + the
    // balancer settle, the merge compacts.
    db.refresh();
    db.rebalance();
    db.merge();
    db.refresh();
    (db, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_dataset_builds_and_queries() {
        let params = DatasetParams {
            n_rows: 2_000,
            n_tenants: 50,
            n_shards: 4,
            ..DatasetParams::default()
        };
        let dir = std::env::temp_dir().join(format!("esdb-ds-test-{}", std::process::id()));
        let (db, trace) = build_embedded(&params, dir);
        assert_eq!(db.stats().live_docs, 2_000);
        let top = trace.tenant_of_rank(1);
        let rows = db
            .reader()
            .query(&format!(
                "SELECT * FROM transaction_logs WHERE tenant_id = {} LIMIT 100",
                top.raw()
            ))
            .expect("query");
        assert!(!rows.docs.is_empty());
    }
}
