//! Analytic query-throughput model for the Fig. 16 reproduction.
//!
//! The paper measures per-tenant query throughput (QPS) with three client
//! machines saturating an 8-node cluster. The determinants it calls out:
//!
//! * **fan-out** — "when using double hashing ... a query has to be
//!   expanded to 8 subqueries, one for each shard", which is why double
//!   hashing sits ~63% below single-shard policies for small tenants
//!   (§6.3.1);
//! * **shard size** — "queries running on large shards incur higher
//!   overhead" (§6.2.2), which is what keeps hashing from beating dynamic
//!   for big tenants;
//! * **per-query constant** — parse/translate/route/fetch-LIMIT-100 work
//!   that every query pays once regardless of fan-out. The observed 63%
//!   gap (not 8×) between 1-shard and 8-shard plans pins this constant at
//!   ≈10× the per-subquery cost.
//!
//! Work(q) = c_query + Σ_{shard ∈ span} (c_subquery
//!           + c_tenant_frac · frac(tenant docs in shard)
//!           + c_shard_frac · frac(shard docs)), and QPS = capacity / Work.
//! Doc terms use *fractions of the dataset* so the model is invariant to
//! the simulated dataset's absolute size.

use crate::sim::RunReport;
use esdb_common::TenantId;
use esdb_routing::ShardSpan;

/// Cost coefficients (work units; see module docs for the calibration).
#[derive(Debug, Clone, Copy)]
pub struct QueryCostModel {
    /// Per-query constant (client, translation, routing, result fetch).
    pub c_query: f64,
    /// Fixed cost of one subquery (network + per-shard planning + merge).
    pub c_subquery: f64,
    /// Cost × (tenant docs in shard / total docs).
    pub c_tenant_frac: f64,
    /// Cost × (shard docs / total docs) — big-shard overhead.
    pub c_shard_frac: f64,
    /// Total query-serving capacity (work units/sec across the cluster).
    pub capacity: f64,
}

impl Default for QueryCostModel {
    fn default() -> Self {
        // Calibrated so that: small tenant on 1 shard ≈ 15K QPS, on 8
        // shards ≈ 9K (the paper's 63% gap), and the top tenant's doc mass
        // costs ≈25% extra on a single shard.
        QueryCostModel {
            c_query: 10.0,
            c_subquery: 1.0,
            c_tenant_frac: 34.0,
            c_shard_frac: 8.0,
            capacity: 165_000.0,
        }
    }
}

/// Computes per-tenant QPS from a completed write-simulation report.
#[derive(Debug)]
pub struct QueryThroughputModel<'a> {
    report: &'a RunReport,
    model: QueryCostModel,
    total_docs: f64,
}

impl<'a> QueryThroughputModel<'a> {
    /// Wraps a report with the given cost model.
    pub fn new(report: &'a RunReport, model: QueryCostModel) -> Self {
        let total_docs = report.per_shard_writes.iter().sum::<u64>() as f64;
        QueryThroughputModel {
            report,
            model,
            total_docs: total_docs.max(1.0),
        }
    }

    /// The work one query for `tenant` with shard span `span` costs.
    pub(crate) fn query_cost(&self, tenant: TenantId, span: &ShardSpan) -> f64 {
        let tenant_docs = *self.report.per_tenant_docs.get(&tenant).unwrap_or(&0) as f64;
        let per_shard_tenant_frac = tenant_docs / span.len as f64 / self.total_docs;
        let mut cost = self.model.c_query;
        for shard in span.iter() {
            let shard_frac = self.report.per_shard_writes[shard.index()] as f64 / self.total_docs;
            cost += self.model.c_subquery
                + self.model.c_tenant_frac * per_shard_tenant_frac
                + self.model.c_shard_frac * shard_frac;
        }
        cost
    }

    /// Saturated QPS for `tenant` (capacity / per-query work).
    pub fn qps(&self, tenant: TenantId, span: &ShardSpan) -> f64 {
        self.model.capacity / self.query_cost(tenant, span)
    }

    /// Query latency proxy (ms): per-query constant plus the largest
    /// parallel subquery plus a span-proportional aggregation term.
    pub fn latency_ms(&self, tenant: TenantId, span: &ShardSpan) -> f64 {
        let tenant_docs = *self.report.per_tenant_docs.get(&tenant).unwrap_or(&0) as f64;
        let per_shard_tenant_frac = tenant_docs / span.len as f64 / self.total_docs;
        let worst = span
            .iter()
            .map(|shard| {
                let shard_frac =
                    self.report.per_shard_writes[shard.index()] as f64 / self.total_docs;
                self.model.c_subquery
                    + self.model.c_tenant_frac * per_shard_tenant_frac
                    + self.model.c_shard_frac * shard_frac
            })
            .fold(0.0f64, f64::max);
        // 1 work unit ≈ 2 ms of single-shard latency at the calibrated
        // scale (165 ms avg for a loaded shard matches Fig. 19's ≤164 ms).
        2.0 * (self.model.c_query / 2.0 + worst + 0.1 * span.len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::fastmap::fast_map;

    fn report(shard_docs: &[u64], tenant_docs: &[(u64, u64)]) -> RunReport {
        let mut per_tenant = fast_map();
        for &(t, d) in tenant_docs {
            per_tenant.insert(TenantId(t), d);
        }
        RunReport {
            per_shard_writes: shard_docs.to_vec(),
            per_tenant_docs: per_tenant,
            duration_ms: 1_000,
            ..RunReport::default()
        }
    }

    #[test]
    fn fanout_gap_matches_calibration() {
        // Small tenant, uniform shards: 8-way fan-out should cost ~63%
        // more QPS-wise than single shard (the paper's Fig. 16 gap).
        let r = report(&[1_000; 512], &[(1, 10)]);
        let m = QueryThroughputModel::new(&r, QueryCostModel::default());
        let narrow = m.qps(TenantId(1), &ShardSpan::new(0, 1, 512));
        let wide = m.qps(TenantId(1), &ShardSpan::new(0, 8, 512));
        let gain = narrow / wide;
        assert!(
            (1.4..2.1).contains(&gain),
            "1-shard/8-shard QPS ratio {gain} out of the paper's range"
        );
    }

    #[test]
    fn big_tenant_single_shard_pays_doc_cost() {
        let mut shards = vec![1_000u64; 512];
        shards[0] = 100_000; // the hot shard holds ~16% of all docs
        let r = report(&shards, &[(1, 99_000), (2, 10)]);
        let m = QueryThroughputModel::new(&r, QueryCostModel::default());
        let hot = m.qps(TenantId(1), &ShardSpan::new(0, 1, 512));
        let cold = m.qps(TenantId(2), &ShardSpan::new(5, 1, 512));
        assert!(
            hot < cold,
            "hot-tenant queries must be slower: {hot} vs {cold}"
        );
        // But not catastrophically (the doc term is gentle).
        assert!(hot > cold * 0.3);
    }

    #[test]
    fn splitting_big_tenant_does_not_tank_qps() {
        // The paper's headline: dynamic's moderate fan-out for big tenants
        // is compensated by smaller shards — no significant QPS drop.
        let mut hashing_shards = vec![1_000u64; 512];
        hashing_shards[0] = 100_000;
        let r1 = report(&hashing_shards, &[(1, 99_000)]);
        let m1 = QueryThroughputModel::new(&r1, QueryCostModel::default());
        let hashing_qps = m1.qps(TenantId(1), &ShardSpan::new(0, 1, 512));

        let mut dynamic_shards = vec![1_000u64; 512];
        for s in dynamic_shards.iter_mut().take(16) {
            *s = 1_000 + 99_000 / 16;
        }
        let r2 = report(&dynamic_shards, &[(1, 99_000)]);
        let m2 = QueryThroughputModel::new(&r2, QueryCostModel::default());
        let dynamic_qps = m2.qps(TenantId(1), &ShardSpan::new(0, 16, 512));
        assert!(
            dynamic_qps > hashing_qps * 0.45,
            "split big tenant {dynamic_qps} vs single-shard {hashing_qps}"
        );
    }

    #[test]
    fn unknown_tenant_costs_only_overheads() {
        let r = report(&[10; 4], &[]);
        let m = QueryThroughputModel::new(&r, QueryCostModel::default());
        let c = m.query_cost(TenantId(99), &ShardSpan::new(0, 2, 4));
        assert!(c > 10.0 && c < 40.0);
    }

    #[test]
    fn latency_follows_worst_shard() {
        let mut shards = vec![100u64; 8];
        shards[3] = 100_000;
        let r = report(&shards, &[(1, 10)]);
        let m = QueryThroughputModel::new(&r, QueryCostModel::default());
        let lat_small = m.latency_ms(TenantId(1), &ShardSpan::new(0, 2, 8));
        let lat_with_big = m.latency_ms(TenantId(1), &ShardSpan::new(2, 2, 8));
        assert!(lat_with_big > lat_small);
    }
}
