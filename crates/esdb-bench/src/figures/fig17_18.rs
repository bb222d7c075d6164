//! Figures 17 and 18: real-engine query latency.
//!
//! * Fig. 17 — query sets for the top-100 tenants executed with and
//!   without ESDB's rule-based optimizer (§5.1). Paper shape: the
//!   optimizer improves average latency ~2.4×, up to ~5× for the largest
//!   tenant; p99 stays under 200 ms.
//! * Fig. 18 — the same queries with a Zipf-sampled sub-attribute filter
//!   appended, with and without frequency-based indexing of the top-30
//!   sub-attributes (§3.2). Paper shape: average latency drops by up to
//!   94%, at ~6.7% storage overhead.
//!
//! These run against the real embedded engine (real segments, posting
//! lists, composite indexes) on a scaled-down dataset — see DESIGN.md §1.

use crate::datasets::{build_embedded, DatasetParams, DATASET_T0, DAY_MS};
use crate::output::{banner, Table};
use esdb_common::stats::quantile;
use esdb_common::TenantId;
use esdb_query::QueryOptions;
use esdb_workload::QueryGenerator;
use std::time::Instant;

struct LatencyRun {
    /// Per-tenant mean latency (µs), indexed by rank order.
    per_tenant_mean_us: Vec<f64>,
    /// All latencies (µs).
    all_us: Vec<f64>,
    /// `postings_scanned` summed over the timed queries.
    postings: u64,
    /// `docs_scanned` summed over the timed queries.
    docs: u64,
}

impl LatencyRun {
    fn new() -> Self {
        LatencyRun {
            per_tenant_mean_us: Vec::new(),
            all_us: Vec::new(),
            postings: 0,
            docs: 0,
        }
    }

    /// Times one query and counts its work.
    fn time(&mut self, rd: &esdb_core::EsdbReader, sql: &str, opts: QueryOptions) -> f64 {
        let start = Instant::now();
        let rows = rd.query_opts(sql, opts).expect("query");
        let us = start.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(rows.docs.len());
        self.all_us.push(us);
        self.postings += rows.postings_scanned;
        self.docs += rows.docs_scanned;
        us
    }
}

/// Times the same generated queries under both plan modes, interleaved
/// (A/B then B/A per query) so OS-cache warm-up cannot bias either side.
/// Returns `(with_optimizer, naive)`.
fn run_queries_ab(
    rd: &esdb_core::EsdbReader,
    tenants: &[TenantId],
    queries_per_tenant: usize,
    with_attr: bool,
    seed: u64,
) -> (LatencyRun, LatencyRun) {
    let mut generator = QueryGenerator::new(1_500, seed);
    generator.with_attr_filter = with_attr;
    let opt = QueryOptions {
        use_optimizer: true,
        ..QueryOptions::default()
    };
    let naive = QueryOptions {
        use_optimizer: false,
        ..QueryOptions::default()
    };
    let mut runs = (LatencyRun::new(), LatencyRun::new());
    for (qi, &tenant) in tenants.iter().enumerate() {
        let (mut sum_opt, mut sum_naive) = (0.0f64, 0.0f64);
        for q in 0..queries_per_tenant {
            let from = DATASET_T0 + (DAY_MS / 4);
            let to = DATASET_T0 + (3 * DAY_MS / 4);
            let sql = generator.generate(tenant, from, to);
            // Untimed warm-up of both paths, then timed runs in
            // alternating order.
            rd.query_opts(&sql, opt).expect("warmup");
            rd.query_opts(&sql, naive).expect("warmup");
            let (o_us, n_us) = if (qi + q) % 2 == 0 {
                let o = runs.0.time(rd, &sql, opt);
                let n = runs.1.time(rd, &sql, naive);
                (o, n)
            } else {
                let n = runs.1.time(rd, &sql, naive);
                let o = runs.0.time(rd, &sql, opt);
                (o, n)
            };
            sum_opt += o_us;
            sum_naive += n_us;
        }
        runs.0
            .per_tenant_mean_us
            .push(sum_opt / queries_per_tenant as f64);
        runs.1
            .per_tenant_mean_us
            .push(sum_naive / queries_per_tenant as f64);
    }
    runs
}

/// Times queries under one plan mode (per-query untimed warm-up first).
fn run_queries(
    rd: &esdb_core::EsdbReader,
    tenants: &[TenantId],
    queries_per_tenant: usize,
    attr_probe: bool,
    opts: QueryOptions,
    seed: u64,
) -> LatencyRun {
    let mut generator = QueryGenerator::new(1_500, seed);
    let mut run = LatencyRun::new();
    for &tenant in tenants {
        let mut sum = 0.0f64;
        for _ in 0..queries_per_tenant {
            let from = DATASET_T0 + (DAY_MS / 4);
            let to = DATASET_T0 + (3 * DAY_MS / 4);
            let sql = if attr_probe {
                generator.generate_attr_probe(tenant, from, to)
            } else {
                generator.generate(tenant, from, to)
            };
            rd.query_opts(&sql, opts).expect("warmup");
            sum += run.time(rd, &sql, opts);
        }
        run.per_tenant_mean_us.push(sum / queries_per_tenant as f64);
    }
    run
}

/// Latency quantiles beside the work counts per query, which depend on
/// the plan and the data only (no host, no cache).
fn print_quantiles(label_a: &str, a: &LatencyRun, label_b: &str, b: &LatencyRun) {
    let mut t = Table::new(&["quantile", label_a, label_b]);
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        t.row(vec![
            name.to_string(),
            format!("{:.2} ms", quantile(&a.all_us, q) / 1_000.0),
            format!("{:.2} ms", quantile(&b.all_us, q) / 1_000.0),
        ]);
    }
    let per_query = |n: u64, run: &LatencyRun| n as f64 / run.all_us.len().max(1) as f64;
    t.row(vec![
        "postings_scanned/query".to_string(),
        format!("{:.0}", per_query(a.postings, a)),
        format!("{:.0}", per_query(b.postings, b)),
    ]);
    t.row(vec![
        "docs_scanned/query".to_string(),
        format!("{:.0}", per_query(a.docs, a)),
        format!("{:.0}", per_query(b.docs, b)),
    ]);
    t.print();
}

fn mean(xs: &[f64]) -> f64 {
    esdb_common::stats::mean(xs)
}

/// Runs both reproductions (they share the dataset).
pub fn run(quick: bool) {
    banner("Figures 17/18 — query optimizer and frequency-based indexing (real engine)");
    // Per-shard doc counts are what separate the plans (the naive plan
    // materializes per-predicate posting lists proportional to shard
    // size), so favor fewer, larger shards at a given row budget.
    let params = DatasetParams {
        n_rows: if quick { 80_000 } else { 400_000 },
        n_tenants: if quick { 500 } else { 2_000 },
        n_shards: if quick { 4 } else { 8 },
        ..DatasetParams::default()
    };
    let n_top = if quick { 30 } else { 100 };
    let qpt = if quick { 20 } else { 100 };
    eprintln!(
        "  building dataset: {} rows / {} tenants ...",
        params.n_rows, params.n_tenants
    );
    // Both arms of both figures run with the query caches off: the
    // figures measure plan work (§6.3), and a warmed request cache would
    // time cache hits on either side.
    let dir = std::env::temp_dir().join("esdb-fig17");
    let (db, trace) = build_embedded(&params, dir, |c| c.query_caches(false));
    let tenants: Vec<TenantId> = (1..=n_top).map(|r| trace.tenant_of_rank(r)).collect();

    // ---- Figure 17: optimizer on/off -------------------------------
    eprintln!(
        "  fig 17: running {} queries x {} tenants x 2 plans ...",
        qpt, n_top
    );
    let (opt, naive) = run_queries_ab(&db.reader(), &tenants, qpt, false, 1);
    println!("\nFig 17(a) mean query latency per tenant rank (ms)");
    let mut t = Table::new(&["tenant rank", "no optimizer", "with optimizer", "speedup"]);
    for (i, rank) in [1usize, 2, 5, 10, 20, 50, n_top].iter().enumerate() {
        let idx = rank - 1;
        if idx < opt.per_tenant_mean_us.len() && i < 7 {
            t.row(vec![
                rank.to_string(),
                format!("{:.2}", naive.per_tenant_mean_us[idx] / 1_000.0),
                format!("{:.2}", opt.per_tenant_mean_us[idx] / 1_000.0),
                format!(
                    "{:.2}x",
                    naive.per_tenant_mean_us[idx] / opt.per_tenant_mean_us[idx]
                ),
            ]);
        }
    }
    t.print();
    println!(
        "overall mean speedup: {:.2}x; largest-tenant speedup: {:.2}x (paper: 2.41x avg, 5.08x top)",
        mean(&naive.all_us) / mean(&opt.all_us),
        naive.per_tenant_mean_us[0] / opt.per_tenant_mean_us[0],
    );
    println!("\nFig 17(b) latency quantiles");
    print_quantiles("no optimizer", &naive, "with optimizer", &opt);

    // ---- Figure 18: frequency-based indexing on/off -----------------
    eprintln!("  fig 18: rebuilding dataset without sub-attribute indexes ...");
    let with_idx_size = db.stats().size_bytes;
    let with_attr_on = run_queries(
        &db.reader(),
        &tenants,
        qpt,
        true,
        QueryOptions {
            use_optimizer: true,
            ..QueryOptions::default()
        },
        2,
    );
    drop(db);
    let mut params_noidx = params.clone();
    params_noidx.attr_top_k = 0;
    let dir = std::env::temp_dir().join("esdb-fig18");
    let (db_noidx, _) = build_embedded(&params_noidx, dir, |c| c.query_caches(false));
    let no_idx_size = db_noidx.stats().size_bytes;
    let with_attr_off = run_queries(
        &db_noidx.reader(),
        &tenants,
        qpt,
        true,
        QueryOptions {
            use_optimizer: true,
            ..QueryOptions::default()
        },
        2,
    );
    println!("\nFig 18(a) mean latency with a sub-attribute filter (ms)");
    let mut t = Table::new(&[
        "tenant rank",
        "no attr index",
        "freq-based index",
        "reduction",
    ]);
    for rank in [1usize, 5, 20, n_top] {
        let idx = rank - 1;
        t.row(vec![
            rank.to_string(),
            format!("{:.2}", with_attr_off.per_tenant_mean_us[idx] / 1_000.0),
            format!("{:.2}", with_attr_on.per_tenant_mean_us[idx] / 1_000.0),
            format!(
                "{:.0}%",
                100.0
                    * (1.0
                        - with_attr_on.per_tenant_mean_us[idx]
                            / with_attr_off.per_tenant_mean_us[idx])
            ),
        ]);
    }
    t.print();
    println!(
        "overall mean reduction: {:.0}% (paper: up to 94.1%); storage overhead of the \
         top-30 attr indexes: {:.1}% (paper: 6.7%)",
        100.0 * (1.0 - mean(&with_attr_on.all_us) / mean(&with_attr_off.all_us)),
        100.0 * (with_idx_size as f64 - no_idx_size as f64) / no_idx_size as f64,
    );
    println!("\nFig 18(b) latency quantiles");
    print_quantiles(
        "no attr index",
        &with_attr_off,
        "freq-based index",
        &with_attr_on,
    );
}
