//! Scatter-gather parallelism benchmark: query throughput on a hot
//! tenant spanning 16–64 shards, at parallelism 1 (sequential baseline)
//! versus multi-threaded fan-out.
//!
//! Exits non-zero if any parallel degree returns different rows, or rows
//! in a different order, than the sequential run; the speedups are
//! reported, not gated. Run with `-- --fast` for the CI smoke scale.

use criterion::black_box;
use esdb_bench::report::{median, IntoJson, Report};
use esdb_common::exec::available_parallelism;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader, RoutingMode};
use esdb_doc::CollectionSchema;
use esdb_telemetry::json::Json;
use esdb_workload::{DocGenerator, WriteEvent};
use std::process::ExitCode;
use std::time::Instant;

/// The hot tenant every query targets.
const HOT_TENANT: u64 = 10_086;
struct Scale {
    /// Rows on each shard of the hot tenant's span.
    rows_per_shard: u64,
    /// Timed samples per configuration (after warm-up).
    samples: usize,
}

const FULL: Scale = Scale {
    rows_per_shard: 2_000,
    samples: 15,
};

const FAST: Scale = Scale {
    rows_per_shard: 250,
    samples: 5,
};

/// Fig. 17-shaped query templates (filter + sort + top-k, and a
/// range/IN combination), all pinned to the hot tenant.
fn templates() -> Vec<(&'static str, String)> {
    vec![
        (
            "status_topk",
            format!(
                "SELECT * FROM transaction_logs WHERE tenant_id = {HOT_TENANT} \
                 AND status = 1 ORDER BY created_time DESC LIMIT 100"
            ),
        ),
        (
            "range_in",
            format!(
                "SELECT * FROM transaction_logs WHERE tenant_id = {HOT_TENANT} \
                 AND created_time BETWEEN 1000000 AND 30000000 \
                 AND group IN (1, 2, 3) LIMIT 200"
            ),
        ),
    ]
}

/// Builds an instance whose hot tenant spans every one of `n_shards`
/// shards (static double hashing pins the span width deterministically,
/// so the bench needs no balancer warm-up).
fn build(n_shards: u32, rows_per_shard: u64) -> Esdb {
    let dir = std::env::temp_dir().join(format!(
        "esdb-bench-scatter-{}-{}",
        n_shards,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir)
            .shards(n_shards)
            .routing(RoutingMode::DoubleHashing(n_shards)),
    )
    .expect("open bench instance");
    let w = db.writer();
    let mut docs = DocGenerator::new(1_500, 20, 7);
    let total = rows_per_shard * n_shards as u64;
    for r in 0..total {
        // 1-in-10 rows belong to background tenants so shards carry
        // unrelated data the query must skip past.
        let tenant = if r % 10 == 9 {
            1_000 + r % 97
        } else {
            HOT_TENANT
        };
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

/// Runs every template once; returns the row keys in result order (the
/// determinism fingerprint).
fn run_all(rd: &EsdbReader, qs: &[(&'static str, String)]) -> Vec<u64> {
    let mut fingerprint = Vec::new();
    for (_, sql) in qs {
        let rows = rd.query(sql).expect("query");
        fingerprint.extend(rows.docs.iter().map(|d| d.record_id.raw()));
    }
    fingerprint
}

struct Measurement {
    shards: u32,
    parallelism: usize,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

fn measure(db: &mut Esdb, shards: u32, parallelism: usize, samples: usize) -> Measurement {
    let qs = templates();
    db.set_parallelism(parallelism);
    // A handle captures the degree in effect when it is cloned.
    let rd = db.reader();
    for _ in 0..2 {
        black_box(run_all(&rd, &qs));
    }
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run_all(&rd, &qs));
            t0.elapsed().as_nanos()
        })
        .collect();
    Measurement {
        shards,
        parallelism,
        median_ns: median(&mut times),
        min_ns: times[0],
        max_ns: times[times.len() - 1],
    }
}

fn main() -> ExitCode {
    let mut report = Report::from_args("scatter_gather");
    let scale = if report.fast() { FAST } else { FULL };
    let cores = available_parallelism();
    let mut results: Vec<Measurement> = Vec::new();
    let mut determinism_ok = true;

    // Degrees above the host's core count only measure scheduler
    // oversubscription, not scatter-gather: skip them, and say so in the
    // report so the narrowed grid is visibly on purpose.
    let mut degrees = vec![1usize, 2, 4, 8];
    if !degrees.contains(&cores) {
        degrees.push(cores);
    }
    degrees.sort_unstable();
    let skipped: Vec<usize> = degrees.iter().copied().filter(|&d| d > cores).collect();
    degrees.retain(|&d| d <= cores);

    for shards in [16u32, 64] {
        let mut db = build(shards, scale.rows_per_shard);

        // Determinism gate: every parallel degree must return
        // byte-identical rows in identical order to the sequential run.
        db.set_parallelism(1);
        let reference = run_all(&db.reader(), &templates());
        for degree in [2, 4, cores.max(2)] {
            db.set_parallelism(degree);
            if run_all(&db.reader(), &templates()) != reference {
                eprintln!("DETERMINISM VIOLATION at {shards} shards, parallelism {degree}");
                determinism_ok = false;
            }
        }
        for &degree in &degrees {
            results.push(measure(&mut db, shards, degree, scale.samples));
        }
    }

    // Speedup vs the sequential baseline of the same shard count.
    let configs = results
        .iter()
        .map(|m| {
            let base = results
                .iter()
                .find(|b| b.shards == m.shards && b.parallelism == 1)
                .map_or(1, |b| b.median_ns);
            let speedup = base as f64 / m.median_ns as f64;
            println!(
                "scatter_gather/{} shards/parallelism={}: median {:.3} ms \
                 (min {:.3}, max {:.3}), {speedup:.2}x sequential",
                m.shards,
                m.parallelism,
                m.median_ns as f64 / 1e6,
                m.min_ns as f64 / 1e6,
                m.max_ns as f64 / 1e6,
            );
            Json::Obj(vec![
                ("shards".into(), m.shards.into_json()),
                ("parallelism".into(), m.parallelism.into_json()),
                ("median_ns".into(), m.median_ns.into_json()),
                ("min_ns".into(), m.min_ns.into_json()),
                ("max_ns".into(), m.max_ns.into_json()),
                ("speedup_vs_sequential".into(), speedup.into_json()),
            ])
        })
        .collect();
    report
        .field("hot_tenant", HOT_TENANT)
        .field("rows_per_shard", scale.rows_per_shard)
        .field("samples", scale.samples)
        .field(
            "skipped_degrees_above_host_cores",
            Json::Arr(skipped.into_iter().map(IntoJson::into_json).collect()),
        )
        .field("configs", Json::Arr(configs));
    report.check("parallel_results_identical_to_sequential", determinism_ok);
    report.finish()
}
