//! Failover benchmark: kill the hottest node mid-Zipf-workload and
//! measure recovery (§3.3, §5.2 availability).
//!
//! The scenario:
//!
//! 1. drives a Zipf(θ)-skewed write workload into a `SimCluster`,
//! 2. after a warmup, identifies the *hottest* node (most routed
//!    arrivals across the shards it hosts as primary) and schedules a
//!    deterministic chaos plan: crash it, restart it after a fixed
//!    downtime,
//! 3. keeps the load running through the failure — writes to dead or
//!    in-transition shards back off with bounded retry, replicas promote
//!    by replaying their translog tails,
//! 4. drains, then reports promotion latency p50/p99, per-node
//!    unavailability, replayed ops, and retry counts from the shared
//!    telemetry registry.
//!
//! Gates (non-zero exit on violation):
//!
//! - zero lost acknowledged writes and zero retry-exhausted failures
//!   (every generated write completes: conservation),
//! - at least one promotion with replayed ops (the failover actually ran),
//! - recovery drains within a bounded tick budget,
//! - the same seed produces a byte-identical report across two full
//!   scenario runs (end-to-end determinism),
//! - the Prometheus exposition passes `lint_prometheus` and carries the
//!   recovery series.
//!
//! Every gate is enforced in both modes. Run with `-- --fast` for the CI
//! smoke scale.

use esdb_bench::report::Report;
use esdb_chaos::{ChaosEvent, ChaosSchedule};
use esdb_cluster::{ClusterConfig, PolicySpec, SimCluster};
use esdb_telemetry::{lint_prometheus, unresolved_parents, Event};
use esdb_workload::{RateSchedule, TraceGenerator};
use std::process::ExitCode;

/// Zipf skew of the tenant choice (the paper's hot-tenant regime).
const THETA: f64 = 0.99;
/// Workload seed; the chaos schedule derives from the run itself (the
/// hottest node), so this one seed pins the whole scenario.
const SEED: u64 = 42;

struct Scale {
    n_nodes: u32,
    n_shards: u32,
    node_capacity_per_sec: f64,
    rate: f64,
    tenants: usize,
    /// Ticks of warmup before the kill.
    warmup_ticks: u64,
    /// Downtime of the killed node, ms.
    downtime_ms: u64,
    /// Ticks of load after the kill (covers downtime + restart).
    loaded_ticks: u64,
    /// Max drain ticks before the bounded-recovery gate fails.
    max_recovery_ticks: u64,
}

const FULL: Scale = Scale {
    n_nodes: 8,
    n_shards: 64,
    node_capacity_per_sec: 4_000.0,
    rate: 10_000.0,
    tenants: 1_000,
    warmup_ticks: 100,
    downtime_ms: 10_000,
    loaded_ticks: 200,
    max_recovery_ticks: 600,
};

const FAST: Scale = Scale {
    n_nodes: 4,
    n_shards: 32,
    node_capacity_per_sec: 1_000.0,
    rate: 1_200.0,
    tenants: 200,
    warmup_ticks: 30,
    downtime_ms: 5_000,
    loaded_ticks: 90,
    max_recovery_ticks: 400,
};

struct Scenario {
    report: Report,
    prometheus: String,
    bundle_json: String,
}

/// Walks the flight-recorder journal for the full causal chain of one
/// failover: chaos fault → node crash → promotion start → translog
/// replay → promotion complete, plus restart → resync. Each link must
/// name its predecessor via `parent_seq`. Returns the broken links.
fn causal_chain_problems(journal: &[Event]) -> Vec<String> {
    let mut problems = Vec::new();
    let find = |name: &str, parent: Option<u64>| {
        journal
            .iter()
            .find(|e| e.kind.name() == name && parent.map_or(true, |p| e.parent_seq == p))
    };
    let Some(crash) = find("node_crashed", None) else {
        problems.push("journal missing node_crashed".into());
        return problems;
    };
    if crash.parent_seq == esdb_telemetry::NO_PARENT {
        problems.push("node_crashed is not linked to its chaos fault".into());
    } else if find("chaos_fault_injected", None).is_none() {
        problems.push("journal missing chaos_fault_injected".into());
    }
    let Some(started) = find("promotion_started", Some(crash.seq)) else {
        problems.push("no promotion_started caused by the node crash".into());
        return problems;
    };
    let Some(replayed) = find("translog_replayed", Some(started.seq)) else {
        problems.push("no translog_replayed caused by the promotion".into());
        return problems;
    };
    if find("promotion_completed", Some(replayed.seq)).is_none() {
        problems.push("no promotion_completed caused by the translog replay".into());
    }
    let Some(restarted) = find("node_restarted", Some(crash.seq)) else {
        problems.push("no node_restarted linked back to the crash".into());
        return problems;
    };
    // Resyncs are caused by the crash (dead replica rebuilt on a
    // survivor) or by the restart (returning node re-adopts a copy) —
    // either way the link must point into the failover chain.
    if find("replica_resynced", Some(crash.seq)).is_none()
        && find("replica_resynced", Some(restarted.seq)).is_none()
    {
        problems.push("no replica_resynced linked to the crash or restart".into());
    }
    problems
}

/// Hottest node = most routed arrivals summed over the shards it
/// currently hosts as primary.
fn hottest_node(cluster: &SimCluster, n_nodes: u32) -> u32 {
    let arrivals = &cluster.report_so_far().per_shard_arrivals;
    let mut per_node = vec![0u64; n_nodes as usize];
    for (s, &a) in arrivals.iter().enumerate() {
        per_node[cluster.primary_of(esdb_common::ShardId(s as u32)) as usize] += a;
    }
    per_node
        .iter()
        .enumerate()
        .max_by_key(|&(_, &a)| a)
        .map(|(i, _)| i as u32)
        .expect("at least one node")
}

/// Runs the scenario at the scale `report`'s mode selects and records
/// it there.
fn run_scenario(mut report: Report) -> Scenario {
    let scale = if report.fast() { FAST } else { FULL };
    let mut cfg = ClusterConfig::small(PolicySpec::DoubleHashing { s: 8 });
    cfg.n_nodes = scale.n_nodes;
    cfg.n_shards = scale.n_shards;
    cfg.node_capacity_per_sec = scale.node_capacity_per_sec;
    cfg.balancer = esdb_balancer::BalancerConfig::new(scale.n_shards, scale.n_nodes);
    let tick_ms = cfg.tick_ms;
    let mut cluster = SimCluster::new(cfg);
    let mut gen = TraceGenerator::new(
        scale.tenants,
        THETA,
        RateSchedule::constant(scale.rate),
        SEED,
    );
    let mut generated = 0u64;
    let load = |cluster: &mut SimCluster, gen: &mut TraceGenerator, ticks: u64| {
        let mut n = 0u64;
        for _ in 0..ticks {
            let now = cluster.now();
            let events = gen.tick(now, tick_ms);
            n += events.len() as u64;
            cluster.step(events);
        }
        n
    };

    // Warmup, then kill the node the skewed workload hits hardest.
    generated += load(&mut cluster, &mut gen, scale.warmup_ticks);
    let victim = hottest_node(&cluster, scale.n_nodes);
    let crash_ms = cluster.now();
    let restart_ms = crash_ms + scale.downtime_ms;
    cluster.set_chaos_schedule(
        ChaosSchedule::new()
            .at(crash_ms, ChaosEvent::NodeCrash { node: victim })
            .at(restart_ms, ChaosEvent::NodeRestart { node: victim }),
    );
    generated += load(&mut cluster, &mut gen, scale.loaded_ticks);

    // Drain: recovery must finish within the tick budget.
    let mut recovery_ticks = 0u64;
    while cluster.in_flight() > 0 && recovery_ticks < scale.max_recovery_ticks {
        cluster.step(Vec::new());
        recovery_ticks += 1;
    }
    let drained = cluster.in_flight() == 0;

    let snap = cluster.telemetry_snapshot();
    let prometheus = snap.to_prometheus();
    let bundle = cluster.debug_bundle();
    let bundle_json = bundle.to_json().to_text();
    let run = cluster.finish();
    let completed: u64 = run.ticks.iter().map(|t| t.completed).sum();

    let promo = snap
        .histograms
        .iter()
        .find(|(n, _, _)| n == "esdb_failover_promotion_ms")
        .map(|(_, _, h)| h.clone())
        .expect("promotion histogram registered");
    let unavail = snap
        .histograms
        .iter()
        .find(|(n, _, _)| n == "esdb_sim_node_unavailability_ms")
        .map(|(_, _, h)| h.clone())
        .expect("unavailability histogram registered");

    report
        .field("seed", SEED)
        .field("theta", THETA)
        .field("nodes", scale.n_nodes)
        .field("shards", scale.n_shards)
        .field("rate_tps", scale.rate)
        .field("killed_node", victim)
        .field("crash_ms", crash_ms)
        .field("restart_ms", restart_ms)
        .field("generated", generated)
        .field("completed", completed)
        .field("node_crashes", run.node_crashes)
        .field("node_restarts", run.node_restarts)
        .field("promotions", run.promotions)
        .field("replayed_ops", run.replayed_ops)
        .field("resync_ops", run.resync_ops)
        .field("promotion_p50_ms", promo.quantile(0.50))
        .field("promotion_p99_ms", promo.quantile(0.99))
        .field("promotion_max_ms", promo.max())
        .field("node_unavailability_ms", unavail.max())
        .field("write_retries", run.write_retries)
        .field("failed_writes", run.failed_writes)
        .field("lost_acknowledged_writes", run.lost_acknowledged_writes)
        .field("recovery_drain_ticks", recovery_ticks);
    report.check(
        "no_lost_acknowledged_writes",
        run.lost_acknowledged_writes == 0,
    );
    report.check("no_retry_exhausted_writes", run.failed_writes == 0);
    report.check("writes_conserved", completed == generated);
    report.check("failover_promoted", run.promotions > 0);
    report.check("promotion_replayed_translog", run.replayed_ops > 0);
    report.check("recovery_drained_in_budget", drained);
    let problems = causal_chain_problems(&bundle.journal);
    for p in &problems {
        eprintln!("failover: {p}");
    }
    report.check("journal_causal_chain", problems.is_empty());
    let orphans = unresolved_parents(&bundle.journal, bundle.journal_evicted_max);
    report.check("journal_parents_resolved", orphans.is_empty());
    report.check("prometheus_lint", lint_prometheus(&prometheus).is_empty());
    let missing: Vec<&str> = [
        "esdb_failover_promotion_ms",
        "esdb_failover_promotions_total",
        "esdb_failover_replayed_ops_total",
        "esdb_sim_node_unavailability_ms",
        "esdb_sim_node_up",
        "esdb_sim_write_retries_total",
    ]
    .into_iter()
    .filter(|series| !prometheus.contains(series))
    .collect();
    if !missing.is_empty() {
        eprintln!("failover: prometheus output missing {missing:?}");
    }
    report.check("prometheus_recovery_series", missing.is_empty());
    Scenario {
        report,
        prometheus,
        bundle_json,
    }
}

fn main() -> ExitCode {
    let first = run_scenario(Report::from_args("failover"));
    let second = run_scenario(Report::from_args("failover"));
    let mut report = first.report;
    report.check(
        "same_seed_same_report",
        report.to_json() == second.report.to_json(),
    );
    report.check(
        "same_seed_same_telemetry",
        first.prometheus == second.prometheus,
    );
    report.check(
        "same_seed_same_debug_bundle",
        first.bundle_json == second.bundle_json,
    );
    report.finish()
}
