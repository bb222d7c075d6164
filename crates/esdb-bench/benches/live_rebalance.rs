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
//!    placement) and row identity across the cutover, and
//! 5. writes `BENCH_live_rebalance.json` at the repository root.
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
//! - the same seed produces a byte-identical JSON report across two
//!   full scenario runs (end-to-end determinism on the manual clock).
//!
//! Pass `--fast` (or set `LIVE_REBALANCE_BENCH_FAST=1`) for the CI
//! smoke configuration.

use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, ShardId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig, MigrationPhase};
use esdb_doc::{CollectionSchema, Document};
use esdb_routing::place;
use esdb_telemetry::{lint_prometheus, unresolved_parents, Event};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Zipf skew of the tenant choice (the paper's hot-tenant regime).
const THETA: f64 = 0.99;
/// One seed pins the tenant sequence, and the manual clock pins every
/// timestamp — the whole scenario is deterministic.
const SEED: u64 = 42;

struct Scale {
    mode: &'static str,
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
    mode: "full",
    shards: 16,
    tenants: 1_000,
    preload_rows: 20_000,
    live_rows: 4_000,
    step_every: 500,
    commit_wait_ms: 5,
};

const FAST: Scale = Scale {
    mode: "fast",
    shards: 8,
    tenants: 200,
    preload_rows: 3_000,
    live_rows: 600,
    step_every: 150,
    commit_wait_ms: 5,
};

struct ScenarioResult {
    json: String,
    prometheus: String,
    gates: Vec<String>,
}

/// Walks the journal for each migration's causal chain: hot-tenant
/// detection → rule append → migration start → segment shipping →
/// tail drain → cutover → completion. Several tenants can migrate in
/// one run, so the check follows real `parent_seq` links upward from
/// every completion rather than matching event names globally.
fn causal_chain_gates(journal: &[Event]) -> Vec<String> {
    let mut gates = Vec::new();
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
        gates.push("journal has no migration_completed event".into());
    }
    for done in completions {
        let mut cur = done;
        for pair in chain.windows(2) {
            let Some(parent) = by_seq.get(&cur.parent_seq) else {
                gates.push(format!("{} (seq {}) has no parent", pair[0], cur.seq));
                break;
            };
            if parent.kind.name() != pair[1] {
                gates.push(format!(
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
    gates
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

fn run_scenario(scale: &Scale, run: u32) -> ScenarioResult {
    let dir = std::env::temp_dir().join(format!(
        "esdb-bench-live-rebalance-{}-{}-{}",
        scale.mode,
        run,
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
    let mut gates = Vec::new();
    db.rebalance();
    let Some(rule) = db.rules_snapshot().into_iter().max_by_key(|r| r.offset) else {
        gates.push("skew did not commit a grow-rule".into());
        return ScenarioResult {
            json: String::new(),
            prometheus: String::new(),
            gates,
        };
    };
    let hot = rule.tenants[0];
    if rule.offset <= 1 {
        gates.push(format!(
            "rule did not grow the span: offset {}",
            rule.offset
        ));
    }
    // Pre-migration snapshot: the rule is committed but still inside
    // its commit-wait, so nothing has physically moved yet.
    db.refresh();
    let sql = format!(
        "SELECT * FROM transaction_logs WHERE tenant_id = {} ORDER BY created_time ASC",
        hot.0
    );
    let before = rd.query(&sql).expect("pre-migration query").docs;
    if before.len() as u64 != counts[hot.0 as usize] {
        gates.push(format!(
            "pre-migration visibility: {} hot rows acked, {} visible",
            counts[hot.0 as usize],
            before.len()
        ));
    }
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
    if status.phase != MigrationPhase::Done {
        gates.push(format!(
            "migration did not complete: stuck in {:?}",
            status.phase
        ));
    }

    // Phase 4: conservation, row identity, physical collapse.
    db.refresh();
    let after = rd.query(&sql).expect("post-migration query").docs;
    if after.len() as u64 != acked_hot {
        gates.push(format!(
            "LOST ACKED WRITES: {} hot rows acked, {} visible after cutover",
            acked_hot,
            after.len()
        ));
    }
    // Row identity across the cutover: live writes (record ids past the
    // preload range, some with lagged timestamps) interleave into the
    // order, so compare the preload-era subsequence byte-for-byte.
    let preload_after: Vec<&Document> = after
        .iter()
        .filter(|d| d.record_id.raw() < scale.preload_rows)
        .collect();
    if preload_after.len() != before.len()
        || preload_after
            .iter()
            .zip(before.iter())
            .any(|(a, b)| **a != *b)
    {
        gates.push("row identity broken across the cutover".into());
    }
    if status.tail_ops == 0 {
        gates.push("translog tail never exercised: no out-of-order write was captured".into());
    }
    for d in &after {
        let h = holders(&db, scale.shards, d.record_id.raw());
        let dest = place(hot, d.record_id, rule.offset, scale.shards).0;
        if h != vec![dest] {
            gates.push(format!(
                "old span not collapsed: record {} held by {:?}, expected [{}]",
                d.record_id.raw(),
                h,
                dest
            ));
            break;
        }
    }

    // Phase 5: observability gates.
    let snap = db.telemetry_snapshot();
    let prometheus = snap.to_prometheus();
    let lint = lint_prometheus(&prometheus);
    if !lint.is_empty() {
        gates.push(format!("prometheus lint: {lint:?}"));
    }
    for series in [
        "esdb_migration_completed_total",
        "esdb_migration_rows_moved_total",
        "esdb_migration_segments_moved_total",
        "esdb_migration_bytes_shipped_total",
        "esdb_migration_tail_ops_total",
        "esdb_migration_cutover_ns",
        "esdb_migrations_active",
    ] {
        if !prometheus.contains(series) {
            gates.push(format!("prometheus output missing {series}"));
        }
    }
    let bundle = db.debug_bundle();
    gates.extend(causal_chain_gates(&bundle.journal));
    let orphans = unresolved_parents(&bundle.journal, bundle.journal_evicted_max);
    if !orphans.is_empty() {
        gates.push(format!("journal has unresolved parent links: {orphans:?}"));
    }

    // The JSON stays wall-clock-free (manual clock, no durations), so
    // the determinism gate can compare two runs byte-for-byte.
    let host_cores = esdb_bench::host_cores();
    let degraded = esdb_bench::degraded_single_core(scale.mode == "fast");
    let json = format!(
        "{{\n  \"bench\": \"live_rebalance\",\n  \"mode\": \"{}\",\n  \"seed\": {SEED},\n  \
         \"host_cores\": {host_cores},\n  \"degraded_single_core\": {degraded},\n  \
         \"theta\": {THETA},\n  \"shards\": {},\n  \"tenants\": {},\n  \
         \"hot_tenant\": {},\n  \"generated\": {acked},\n  \"acked_hot\": {acked_hot},\n  \
         \"hot_rows_before\": {},\n  \"hot_rows_after\": {},\n  \
         \"old_span\": {},\n  \"new_span\": {},\n  \"rule_effective_time\": {},\n  \
         \"segments_shipped\": {},\n  \"bytes_shipped\": {},\n  \"rows_moved\": {},\n  \
         \"tail_ops\": {},\n  \"migration_phase\": \"{}\"\n}}\n",
        scale.mode,
        scale.shards,
        scale.tenants,
        hot.0,
        before.len(),
        after.len(),
        status.old_span,
        status.new_span,
        status.effective_time,
        status.segments_shipped,
        status.bytes_shipped,
        status.rows_moved,
        status.tail_ops,
        status.phase.as_str(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    ScenarioResult {
        json,
        prometheus,
        gates,
    }
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast" || a == "fast")
        || std::env::var("LIVE_REBALANCE_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = if fast { FAST } else { FULL };

    let first = run_scenario(&scale, 0);
    let second = run_scenario(&scale, 1);

    let mut gates = first.gates;
    if first.json != second.json {
        gates.push("DETERMINISM VIOLATION: same seed produced different reports".into());
    }
    if deterministic_series(&first.prometheus) != deterministic_series(&second.prometheus) {
        gates.push("DETERMINISM VIOLATION: telemetry diverged across reruns".into());
    }

    print!("{}", first.json);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_live_rebalance.json"
    );
    match std::fs::write(path, &first.json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if !gates.is_empty() {
        for g in &gates {
            eprintln!("live_rebalance: FAILED gate: {g}");
        }
        std::process::exit(1);
    }
    println!("live_rebalance/{}: all gates passed", scale.mode);
}
