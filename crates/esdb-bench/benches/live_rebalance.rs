//! Live-rebalance benchmark: force dynamic secondary hashing to grow a
//! hot tenant's span mid-run on the real engine and measure the
//! migration (§3.2 online rule commits, §4.2 segment handoff).
//!
//! The scenario:
//!
//! 1. preloads a Zipf(θ=0.99)-skewed corpus across `tenants` tenants —
//!    the Zipf head draws the bulk of the writes,
//! 2. commits a grow-rule through the balancer (commit-wait applied on
//!    the manual clock, so activation is deterministic),
//! 3. keeps the skewed write load running while the migration walks its
//!    lifecycle — segment handoff, translog-tail drain, barriered
//!    cutover — stepping one phase every `step_every` writes,
//! 4. verifies physical collapse (every hot row at exactly its new-span
//!    placement) and row identity across the cutover.
//!
//! Gates (non-zero exit on violation):
//!
//! - the skew actually commits a grow-rule and the migration reaches
//!   `done` (the span growth is forced, not incidental),
//! - zero lost acknowledged writes: every acked insert for the hot
//!   tenant is visible afterwards, exactly once (no duplicates across
//!   shards),
//! - row identity across the cutover: the pre-migration result set is
//!   byte-identical to the prefix of the post-migration result set,
//! - the old span fully collapsed (physical placement oracle),
//! - the journal carries the parent-linked lifecycle chain and the
//!   Prometheus exposition passes `lint_prometheus` with every
//!   `esdb_migration_*` series present,
//! - the same seed produces a byte-identical report across two full
//!   scenario runs (end-to-end determinism on the manual clock).
//!
//! Every gate is enforced in both modes. Run with `-- --fast` for the CI
//! smoke scale.

use esdb_bench::report::Report;
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, ShardId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig, MigrationPhase};
use esdb_doc::{CollectionSchema, Document};
use esdb_routing::place;
use esdb_telemetry::{lint_prometheus, unresolved_parents, Event};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// Zipf skew of the tenant choice (the paper's hot-tenant regime).
const THETA: f64 = 0.99;
/// One seed pins the tenant sequence, and the manual clock pins every
/// timestamp — the whole scenario is deterministic.
const SEED: u64 = 42;

struct Scale {
    shards: u32,
    tenants: usize,
    /// Rows written before the rule commits.
    preload_rows: u64,
    /// Rows written while the migration is in flight.
    live_rows: u64,
    /// Step the migration one phase every this many live writes.
    step_every: u64,
    /// Commit-wait applied to the rule's activation timestamp, ms.
    commit_wait_ms: u64,
}

const FULL: Scale = Scale {
    shards: 16,
    tenants: 1_000,
    preload_rows: 20_000,
    live_rows: 4_000,
    step_every: 500,
    commit_wait_ms: 5,
};

const FAST: Scale = Scale {
    shards: 8,
    tenants: 200,
    preload_rows: 3_000,
    live_rows: 600,
    step_every: 150,
    commit_wait_ms: 5,
};

struct Scenario {
    report: Report,
    prometheus: String,
}

/// Walks the journal for each migration's causal chain: hot-tenant
/// detection → rule append → migration start → segment shipping →
/// tail drain → cutover → completion. Several tenants can migrate in
/// one run, so the check follows real `parent_seq` links upward from
/// every completion rather than matching event names globally. Returns
/// the broken links.
fn causal_chain_problems(journal: &[Event]) -> Vec<String> {
    let mut problems = Vec::new();
    let by_seq: std::collections::HashMap<u64, &Event> =
        journal.iter().map(|e| (e.seq, e)).collect();
    let chain = [
        "migration_completed",
        "migration_cutover",
        "migration_tail_drained",
        "migration_segments_shipped",
        "migration_started",
        "rule_appended",
        "hot_tenant_detected",
    ];
    let completions: Vec<&Event> = journal
        .iter()
        .filter(|e| e.kind.name() == "migration_completed")
        .collect();
    if completions.is_empty() {
        problems.push("journal has no migration_completed event".into());
    }
    for done in completions {
        let mut cur = done;
        for pair in chain.windows(2) {
            let Some(parent) = by_seq.get(&cur.parent_seq) else {
                problems.push(format!("{} (seq {}) has no parent", pair[0], cur.seq));
                break;
            };
            if parent.kind.name() != pair[1] {
                problems.push(format!(
                    "{} parent is {}, expected {}",
                    pair[0],
                    parent.kind.name(),
                    pair[1]
                ));
                break;
            }
            cur = parent;
        }
    }
    problems
}

/// The wall-clock-free subset of the exposition: counters and gauges
/// from the migration path, safe to compare byte-for-byte across two
/// same-seed runs. (Timing histograms like `esdb_migration_cutover_ns`
/// are real elapsed time and legitimately vary.)
fn deterministic_series(prometheus: &str) -> String {
    prometheus
        .lines()
        .filter(|l| {
            [
                "esdb_migration_segments_moved_total",
                "esdb_migration_bytes_shipped_total",
                "esdb_migration_rows_moved_total",
                "esdb_migration_tail_ops_total",
                "esdb_migration_completed_total",
                "esdb_migration_aborted_total",
                "esdb_migrations_active",
                "esdb_rules_active",
            ]
            .iter()
            .any(|s| l.contains(s))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every shard holding a live copy of `record` — the physical-placement
/// oracle used for the collapse and no-duplicates gates.
fn holders(db: &Esdb, shards: u32, record: u64) -> Vec<u32> {
    (0..shards)
        .filter(|s| db.pin_snapshot(ShardId(*s)).get_record(record).is_some())
        .collect()
}

fn bench_doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 4) as i64)
        .field("group", (record % 5) as i64)
        .field("auction_title", format!("live rebalance {record}"))
        .build()
}

/// Runs the scenario at the scale `report`'s mode selects and records
/// it there.
fn run_scenario(mut report: Report, run: u32) -> Scenario {
    let scale = if report.fast() { FAST } else { FULL };
    let dir = std::env::temp_dir().join(format!(
        "esdb-bench-live-rebalance-{run}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (clock, driver) = SharedClock::manual(1_000_000);
    let mut cfg = EsdbConfig::new(&dir)
        .shards(scale.shards)
        .commit_wait_ms(scale.commit_wait_ms);
    // The bench drives the balancer and the migration lifecycle
    // explicitly (rebalance + step_every), so the write-count trigger
    // is off — phase boundaries land at deterministic write indices.
    cfg.balance_every_writes = 0;
    let mut db = Esdb::open_with_clock(CollectionSchema::transaction_logs(), cfg, clock)
        .expect("open bench engine");
    let (w, rd) = (db.writer(), db.reader());

    let zipf = ZipfSampler::new(scale.tenants, THETA);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut now = 1_000_000u64;
    let mut acked = 0u64;
    let mut counts = vec![0u64; scale.tenants + 1];
    // Every 4th write arrives out of order: its event timestamp lags the
    // clock far enough to land *before* the rule's activation timestamp
    // while the handoff is in flight — those are the writes the bounded
    // translog tail must carry across the cutover. The clock advances by
    // 2 per write and the lag is odd, so every created_time stays unique
    // (ORDER BY has no cross-shard tie-break freedom).
    let lag = 8 * scale.step_every + 1;
    let mut write = |now: &mut u64, counts: &mut Vec<u64>, record: u64| {
        driver.advance(2);
        *now += 2;
        let at = if record % 4 == 3 { *now - lag } else { *now };
        let tenant = zipf.sample(&mut rng) as u64;
        w.insert(bench_doc(tenant, record, at)).expect("insert");
        counts[tenant as usize] += 1;
    };

    // Phase 1: preload under skew.
    for r in 0..scale.preload_rows {
        write(&mut now, &mut counts, r);
        acked += 1;
    }

    // Phase 2: the balancer commits the grow-rule under commit-wait.
    // The hot tenant is the one whose rule grew the widest span (the
    // Zipf head); the migration is forced, not incidental.
    db.rebalance();
    let rule = db.rules_snapshot().into_iter().max_by_key(|r| r.offset);
    let Some(rule) = rule.filter(|r| r.offset > 1) else {
        report.check("skew_commits_grow_rule", false);
        return Scenario {
            report,
            prometheus: String::new(),
        };
    };
    report.check("skew_commits_grow_rule", true);
    let hot = rule.tenants[0];
    // Pre-migration snapshot: the rule is committed but still inside
    // its commit-wait, so nothing has physically moved yet.
    db.refresh();
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {} ORDER BY created_time ASC",
        hot.0
    );
    let before = rd.query(&sql).expect("pre-migration query").docs;
    report.check(
        "acked_rows_visible_before_migration",
        before.len() as u64 == counts[hot.0 as usize],
    );
    driver.advance(scale.commit_wait_ms + 1);
    now += scale.commit_wait_ms + 1;

    // Phase 3: writes keep flowing while the migration walks handoff →
    // drain → cutover, one phase per `step_every` writes.
    for r in 0..scale.live_rows {
        write(&mut now, &mut counts, scale.preload_rows + r);
        acked += 1;
        if r % scale.step_every == scale.step_every - 1 {
            db.step_migrations();
        }
    }
    db.drive_migrations();
    let acked_hot = counts[hot.0 as usize];
    let status = db
        .migrations_snapshot()
        .into_iter()
        .find(|s| s.tenant == hot)
        .expect("hot-tenant migration registered");
    report.check("migration_done", status.phase == MigrationPhase::Done);

    // Phase 4: conservation, row identity, physical collapse.
    db.refresh();
    let after = rd.query(&sql).expect("post-migration query").docs;
    report.check(
        "no_lost_acknowledged_writes",
        after.len() as u64 == acked_hot,
    );
    // Row identity across the cutover: live writes (record ids past the
    // preload range, some with lagged timestamps) interleave into the
    // order, so compare the preload-era subsequence byte-for-byte.
    let preload_after: Vec<&Document> = after
        .iter()
        .filter(|d| d.record_id.raw() < scale.preload_rows)
        .collect();
    report.check(
        "rows_identical_across_cutover",
        preload_after.len() == before.len()
            && preload_after.iter().zip(&before).all(|(a, b)| **a == *b),
    );
    // An out-of-order write was captured by the translog tail.
    report.check("translog_tail_exercised", status.tail_ops > 0);
    let misplaced = after.iter().find(|d| {
        let dest = place(hot, d.record_id, rule.offset, scale.shards).0;
        holders(&db, scale.shards, d.record_id.raw()) != [dest]
    });
    if let Some(d) = misplaced {
        eprintln!(
            "live_rebalance: record {} not only on its new-span shard",
            d.record_id.raw()
        );
    }
    report.check("old_span_collapsed", misplaced.is_none());

    // Phase 5: observability gates.
    let snap = db.telemetry_snapshot();
    let prometheus = snap.to_prometheus();
    report.check("prometheus_lint", lint_prometheus(&prometheus).is_empty());
    let missing: Vec<&str> = [
        "esdb_migration_completed_total",
        "esdb_migration_rows_moved_total",
        "esdb_migration_segments_moved_total",
        "esdb_migration_bytes_shipped_total",
        "esdb_migration_tail_ops_total",
        "esdb_migration_cutover_ns",
        "esdb_migrations_active",
    ]
    .into_iter()
    .filter(|series| !prometheus.contains(series))
    .collect();
    if !missing.is_empty() {
        eprintln!("live_rebalance: prometheus output missing {missing:?}");
    }
    report.check("prometheus_migration_series", missing.is_empty());
    let bundle = db.debug_bundle();
    let problems = causal_chain_problems(&bundle.journal);
    for p in &problems {
        eprintln!("live_rebalance: {p}");
    }
    report.check("journal_causal_chain", problems.is_empty());
    let orphans = unresolved_parents(&bundle.journal, bundle.journal_evicted_max);
    report.check("journal_parents_resolved", orphans.is_empty());

    // The report stays wall-clock-free (manual clock, no durations), so
    // the determinism gate can compare two runs byte for byte.
    report
        .field("seed", SEED)
        .field("theta", THETA)
        .field("shards", scale.shards)
        .field("tenants", scale.tenants)
        .field("hot_tenant", hot.0)
        .field("generated", acked)
        .field("acked_hot", acked_hot)
        .field("hot_rows_before", before.len())
        .field("hot_rows_after", after.len())
        .field("old_span", status.old_span)
        .field("new_span", status.new_span)
        .field("rule_effective_time", status.effective_time)
        .field("segments_shipped", status.segments_shipped)
        .field("bytes_shipped", status.bytes_shipped)
        .field("rows_moved", status.rows_moved)
        .field("tail_ops", status.tail_ops)
        .field("migration_phase", status.phase.as_str());
    let _ = std::fs::remove_dir_all(&dir);
    Scenario { report, prometheus }
}

fn main() -> ExitCode {
    let first = run_scenario(Report::from_args("live_rebalance"), 0);
    let second = run_scenario(Report::from_args("live_rebalance"), 1);
    let mut report = first.report;
    report.check(
        "same_seed_same_report",
        report.to_json() == second.report.to_json(),
    );
    report.check(
        "same_seed_same_telemetry",
        deterministic_series(&first.prometheus) == deterministic_series(&second.prometheus),
    );
    report.finish()
}
