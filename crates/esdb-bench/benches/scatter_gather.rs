//! Scatter-gather parallelism benchmark: query throughput on a hot
//! tenant spanning 16–64 shards, at parallelism 1 (sequential baseline)
//! versus multi-threaded fan-out.
//!
//! Besides the human-readable report, writes a machine-readable summary
//! to `BENCH_scatter_gather.json` at the repository root so CI and the
//! paper-figure tooling can track the speedup without scraping stdout.

use criterion::black_box;
use esdb_common::exec::available_parallelism;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader, RoutingMode};
use esdb_doc::CollectionSchema;
use esdb_workload::{DocGenerator, WriteEvent};
use std::path::PathBuf;
use std::time::Instant;

/// The hot tenant every query targets.
const HOT_TENANT: u64 = 10_086;
/// Rows the hot tenant holds on each shard of its span.
const ROWS_PER_SHARD: u64 = 2_000;
/// Timed samples per configuration (after warm-up).
const SAMPLES: usize = 15;

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
fn build(n_shards: u32) -> Esdb {
    let dir: PathBuf = std::env::temp_dir().join(format!(
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
    let total = ROWS_PER_SHARD * n_shards as u64;
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

fn measure(db: &mut Esdb, shards: u32, parallelism: usize) -> Measurement {
    let qs = templates();
    db.set_parallelism(parallelism);
    // A handle captures the degree in effect when it is cloned.
    let rd = db.reader();
    for _ in 0..2 {
        black_box(run_all(&rd, &qs));
    }
    let mut samples: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run_all(&rd, &qs));
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    Measurement {
        shards,
        parallelism,
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
    }
}

fn main() {
    let cores = available_parallelism();
    let mut results: Vec<Measurement> = Vec::new();
    let mut determinism_ok = true;

    // Degrees above the host's core count only measure scheduler
    // oversubscription, not scatter-gather: skip them, and say so in the
    // JSON so downstream tooling knows the grid was narrowed on purpose.
    let mut degrees = vec![1usize, 2, 4, 8];
    if !degrees.contains(&cores) {
        degrees.push(cores);
    }
    degrees.sort_unstable();
    let skipped: Vec<usize> = degrees.iter().copied().filter(|&d| d > cores).collect();
    degrees.retain(|&d| d <= cores);
    for d in &skipped {
        println!("scatter_gather: skipping parallelism={d} (> {cores} host cores)");
    }

    for shards in [16u32, 64] {
        let mut db = build(shards);

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
            let m = measure(&mut db, shards, degree);
            println!(
                "scatter_gather/{} shards/parallelism={}: median {:.3} ms (min {:.3}, max {:.3})",
                m.shards,
                m.parallelism,
                m.median_ns as f64 / 1e6,
                m.min_ns as f64 / 1e6,
                m.max_ns as f64 / 1e6,
            );
            results.push(m);
        }
    }

    // Speedup table vs the sequential baseline of the same shard count.
    println!();
    for shards in [16u32, 64] {
        let base = results
            .iter()
            .find(|m| m.shards == shards && m.parallelism == 1)
            .map(|m| m.median_ns)
            .unwrap_or(1);
        for m in results
            .iter()
            .filter(|m| m.shards == shards && m.parallelism > 1)
        {
            println!(
                "scatter_gather/{} shards: parallelism {} speedup {:.2}x",
                shards,
                m.parallelism,
                base as f64 / m.median_ns as f64
            );
        }
    }

    write_json(&results, cores, &skipped, determinism_ok);
    if !determinism_ok {
        std::process::exit(1);
    }
}

fn write_json(results: &[Measurement], cores: usize, skipped: &[usize], determinism_ok: bool) {
    // A parallelism grid measured on one core is inherently degraded.
    let degraded = esdb_bench::degraded_single_core(false);
    let mut configs = String::new();
    for (i, m) in results.iter().enumerate() {
        let base = results
            .iter()
            .find(|b| b.shards == m.shards && b.parallelism == 1)
            .map(|b| b.median_ns)
            .unwrap_or(1);
        if i > 0 {
            configs.push_str(",\n");
        }
        configs.push_str(&format!(
            "    {{\"shards\": {}, \"parallelism\": {}, \"median_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"samples\": {}, \"speedup_vs_sequential\": {:.4}}}",
            m.shards,
            m.parallelism,
            m.median_ns,
            m.min_ns,
            m.max_ns,
            SAMPLES,
            base as f64 / m.median_ns as f64,
        ));
    }
    let skipped_json = skipped
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"scatter_gather\",\n  \"hot_tenant\": {HOT_TENANT},\n  \
         \"rows_per_shard\": {ROWS_PER_SHARD},\n  \"host_cores\": {cores},\n  \
         \"degraded_single_core\": {degraded},\n  \
         \"skipped_degrees_above_host_cores\": [{skipped_json}],\n  \
         \"parallel_results_identical_to_sequential\": {determinism_ok},\n  \
         \"configs\": [\n{configs}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_scatter_gather.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
