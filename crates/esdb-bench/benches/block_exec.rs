//! Block-at-a-time execution benchmark: the vectorized read path against
//! the scalar executor on the Fig. 17/18-shaped workload.
//!
//! Hot tenants under Zipf(0.99) issue filter + top-k queries (Fig. 17
//! shapes) and aggregate-only queries (Fig. 18 shapes). Both executors run
//! single-threaded with every query cache disabled, so the comparison is
//! purely the execution strategy — block skip-pruning, typed columnar
//! residual filters, decorate-once ORDER BY, and aggregation pushdown
//! against late row materialization and per-comparison doc-value sorting.
//! The benchmark:
//!
//! 1. loads Zipf-skewed tenant data into one cache-disabled instance,
//! 2. verifies the block path is row-identical to the scalar oracle on
//!    every filter query and aggregate-identical (float-epsilon) on every
//!    aggregate query — the hard identity gate,
//! 3. verifies aggregate pushdown never touches a stored payload,
//! 4. times filter and aggregate passes on both executors and gates block
//!    throughput at >= 2x the scalar median in full mode. The comparison
//!    is single-threaded by construction, so the gate holds on any host.
//!
//! Run with `-- --fast` for the CI smoke scale: identity and payload
//! gates stay hard, the speedup gate turns report-only.

use criterion::black_box;
use esdb_bench::report::{median, Report};
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader};
use esdb_doc::{CollectionSchema, FieldValue};
use esdb_index::BlockStats;
use esdb_query::QueryOptions;
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

/// Zipf skew of tenant choice for data and queries (the paper's regime).
const THETA: f64 = 0.99;

/// Minimum block-vs-scalar median speedup the full mode enforces, for
/// both the filter-shaped and the aggregate-only workload.
const SPEEDUP_GATE: f64 = 2.0;

struct Scale {
    shards: u32,
    tenants: usize,
    rows: u64,
    queries_per_pass: usize,
    samples: usize,
}

const FULL: Scale = Scale {
    shards: 4,
    tenants: 20,
    rows: 60_000,
    queries_per_pass: 60,
    samples: 5,
};

const FAST: Scale = Scale {
    shards: 2,
    tenants: 10,
    rows: 3_000,
    queries_per_pass: 20,
    samples: 3,
};

/// Fig. 17-shaped filter + top-k templates for a hot tenant: selective
/// conjunctions whose match sets are large enough that the sort strategy
/// (decorate-once vs per-comparison doc-value fetch) dominates.
fn filter_templates(tenant: u64) -> [String; 3] {
    [
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND status = 1 ORDER BY created_time DESC LIMIT 10"
        ),
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND amount BETWEEN 1000.0 AND 6000.0 \
             ORDER BY amount ASC LIMIT 10"
        ),
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND status = 0 OR tenant_id = {tenant} AND status = 2 \
             ORDER BY created_time ASC LIMIT 10"
        ),
    ]
}

/// Fig. 18-shaped aggregate-only templates: every plan is
/// pushdown-eligible on the transaction_logs schema, so the block path
/// computes from columnar doc values and never materializes a payload.
fn agg_templates(tenant: u64) -> [String; 3] {
    [
        format!(
            "SELECT COUNT(*), SUM(amount), AVG(amount) FROM transaction_logs \
             WHERE tenant_id = {tenant} AND status = 1"
        ),
        format!(
            "SELECT MIN(amount), MAX(created_time) FROM transaction_logs \
             WHERE tenant_id = {tenant}"
        ),
        format!(
            "SELECT COUNT(*), SUM(amount) FROM transaction_logs \
             WHERE tenant_id = {tenant} GROUP BY province"
        ),
    ]
}

fn build(scale: &Scale) -> Esdb {
    let dir = std::env::temp_dir().join(format!("esdb-bench-blockexec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir)
            .shards(scale.shards)
            .parallelism(1)
            .query_caches(false),
    )
    .expect("open bench instance");
    let w = db.writer();
    let mut docs = DocGenerator::new(1_500, 20, 7);
    let zipf = ZipfSampler::new(scale.tenants, THETA);
    let mut rng = StdRng::seed_from_u64(7);
    for r in 0..scale.rows {
        let tenant = 1 + zipf.sample(&mut rng) as u64;
        w.insert(docs.materialize(&WriteEvent {
            tenant: TenantId(tenant),
            record: RecordId(r),
            created_at: 1_000_000 + r * 350,
            bytes: 512,
        }))
        .expect("insert row");
    }
    db.refresh();
    db.merge();
    db.refresh();
    db
}

/// One Zipf-skewed query sequence per workload, identical for every pass
/// and both executors.
fn sequence(scale: &Scale, templates: fn(u64) -> [String; 3], seed: u64) -> Vec<String> {
    let zipf = ZipfSampler::new(scale.tenants, THETA);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..scale.queries_per_pass)
        .map(|_| {
            let tenant = 1 + zipf.sample(&mut rng) as u64;
            let t = templates(tenant);
            t[rng.random_range(0..t.len())].clone()
        })
        .collect()
}

fn scalar_opts() -> QueryOptions {
    QueryOptions {
        block_execution: false,
        ..QueryOptions::default()
    }
}

/// Float values compare within a tiny relative epsilon (per-shard partial
/// sums may re-associate float addition); everything else exact.
fn values_close(a: &FieldValue, b: &FieldValue) -> bool {
    match (a, b) {
        (FieldValue::Float(x), FieldValue::Float(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

fn time_filter_pass(rd: &EsdbReader, seq: &[String], opts: QueryOptions) -> u128 {
    let t0 = Instant::now();
    for sql in seq {
        black_box(rd.query_opts(sql, opts).expect("filter query"));
    }
    t0.elapsed().as_nanos()
}

fn time_agg_pass(rd: &EsdbReader, seq: &[String], opts: QueryOptions) -> u128 {
    let t0 = Instant::now();
    for sql in seq {
        black_box(rd.aggregate_opts(sql, opts).expect("agg query"));
    }
    t0.elapsed().as_nanos()
}

fn main() -> ExitCode {
    let mut report = Report::from_args("block_exec");
    let scale = if report.fast() { FAST } else { FULL };

    let db = build(&scale);
    let rd = db.reader();
    let filter_seq = sequence(&scale, filter_templates, 42);
    let agg_seq = sequence(&scale, agg_templates, 43);

    // Identity gate: block rows byte-identical to the scalar oracle on
    // every filter query of the sequence.
    let mut rows_identical = true;
    let mut block_stats = BlockStats::default();
    for sql in &filter_seq {
        let block = rd.query(sql).expect("block filter query");
        let scalar = rd
            .query_opts(sql, scalar_opts())
            .expect("scalar filter query");
        if block.docs != scalar.docs {
            eprintln!("IDENTITY VIOLATION: block rows diverged from scalar on {sql}");
            rows_identical = false;
        }
        block_stats.merge(&block.blocks);
    }

    // Aggregate gates: identical rows (float epsilon) and zero
    // stored-payload reads under pushdown.
    let mut aggs_identical = true;
    let mut payload_reads = 0u64;
    for sql in &agg_seq {
        let pushed = rd.aggregate(sql).expect("block aggregate query");
        let oracle = rd
            .aggregate_opts(sql, scalar_opts())
            .expect("scalar aggregate");
        let same = pushed.rows.len() == oracle.rows.len()
            && pushed.rows.iter().zip(&oracle.rows).all(|(p, o)| {
                p.group == o.group
                    && p.values.len() == o.values.len()
                    && p.values
                        .iter()
                        .zip(&o.values)
                        .all(|(a, b)| values_close(a, b))
            });
        if !same {
            eprintln!("IDENTITY VIOLATION: aggregate diverged from scalar oracle on {sql}");
            aggs_identical = false;
        }
        payload_reads += pushed.payload_reads;
    }

    // Timed passes: both executors, same sequences, interleaved samples.
    let mut filter_block: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut filter_scalar: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut agg_block: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut agg_scalar: Vec<u128> = Vec::with_capacity(scale.samples);
    for _ in 0..scale.samples {
        filter_block.push(time_filter_pass(&rd, &filter_seq, QueryOptions::default()));
        filter_scalar.push(time_filter_pass(&rd, &filter_seq, scalar_opts()));
        agg_block.push(time_agg_pass(&rd, &agg_seq, QueryOptions::default()));
        agg_scalar.push(time_agg_pass(&rd, &agg_seq, scalar_opts()));
    }
    let fb = median(&mut filter_block);
    let fs = median(&mut filter_scalar);
    let ab = median(&mut agg_block);
    let as_ = median(&mut agg_scalar);
    let filter_speedup = fs as f64 / fb as f64;
    let agg_speedup = as_ as f64 / ab as f64;

    println!(
        "block_exec: filter {:.3} ms block vs {:.3} ms scalar ({filter_speedup:.2}x), \
         aggregate {:.3} ms vs {:.3} ms ({agg_speedup:.2}x)",
        fb as f64 / 1e6,
        fs as f64 / 1e6,
        ab as f64 / 1e6,
        as_ as f64 / 1e6,
    );
    let stats = db.stats();
    report
        .field("theta", THETA)
        .field("shards", scale.shards)
        .field("tenants", scale.tenants)
        .field("rows", scale.rows)
        .field("queries_per_pass", scale.queries_per_pass)
        .field("samples", scale.samples)
        .field("filter_block_median_ns", fb)
        .field("filter_scalar_median_ns", fs)
        .field("filter_speedup", filter_speedup)
        .field("agg_block_median_ns", ab)
        .field("agg_scalar_median_ns", as_)
        .field("agg_speedup", agg_speedup)
        .field("speedup_gate", SPEEDUP_GATE)
        .field("aggregate_payload_reads", payload_reads)
        .field("blocks_scanned", block_stats.scanned)
        .field("blocks_skipped", block_stats.skipped)
        .field("blocks_pruned", block_stats.pruned)
        .field("block_queries", stats.block_queries)
        .field("scalar_queries", stats.scalar_queries);
    report.check("block_rows_identical_to_scalar", rows_identical);
    report.check("aggregates_identical_to_scalar", aggs_identical);
    report.check("pushdown_reads_no_payload", payload_reads == 0);
    report.timing_gate(
        "block_speedup_2x",
        filter_speedup >= SPEEDUP_GATE && agg_speedup >= SPEEDUP_GATE,
        1,
    );
    report.finish()
}
