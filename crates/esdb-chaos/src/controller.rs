//! Node-health tracking, promotion bookkeeping and recovery telemetry.

use crate::retry::RetryPolicy;
use esdb_common::fastmap::{fast_map, FastMap};
use esdb_common::{NodeId, TimestampMs};
use esdb_consensus::{FaultPlan, LinkFault};
use esdb_telemetry::{
    Counter, EventKind, Gauge, Histogram, Journal, Labels, MetricsRegistry, NO_PARENT,
};
use std::sync::Arc;

/// Liveness of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeHealth {
    /// Serving.
    Up,
    /// Crashed at `since`; not serving, links partitioned.
    Down {
        /// Crash time, ms.
        since: TimestampMs,
    },
}

/// Failover knobs consumed by the cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverConfig {
    /// Work units charged per replayed translog op during promotion
    /// (translog replay re-indexes, but into a warm empty engine — the
    /// physical-replication experiments price that below a primary write).
    pub replay_cost: f64,
    /// Simulated flush cadence: each interval rolls the translog
    /// generation, bounding the tail a promotion must replay.
    pub flush_interval_ms: u64,
    /// Backoff for writes hitting a dead or in-transition shard.
    pub retry: RetryPolicy,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            replay_cost: 0.5,
            flush_interval_ms: 5_000,
            retry: RetryPolicy::default(),
        }
    }
}

/// Tracks node health and in-flight shard promotions, and owns the
/// recovery telemetry series:
///
/// * `esdb_sim_node_up{node}` — liveness gauge (1/0),
/// * `esdb_failover_promotion_ms` — crash → replay-complete latency per
///   promoted shard (the write-unavailability window of that shard),
/// * `esdb_sim_node_unavailability_ms` — crash → restart per node
///   (still-down nodes are closed out by [`FailoverController::finish`]),
/// * `esdb_failover_replayed_ops_total` — translog ops replayed by
///   promotions,
/// * `esdb_failover_resync_ops_total` — ops replayed to rebuild replicas
///   on surviving nodes,
/// * `esdb_failover_promotions_total`, `esdb_sim_node_crashes_total`,
///   `esdb_sim_node_restarts_total`.
pub struct FailoverController {
    health: Vec<NodeHealth>,
    slow: Vec<f64>,
    /// shard index → (crash time of the primary it is recovering from,
    /// journal seq of its `promotion_started` event).
    in_transition: FastMap<u32, (TimestampMs, u64)>,
    /// Flight-recorder journal; `None` records metrics only. The crash →
    /// promotion → replay → recovery chain is causally linked through
    /// the tracked sequence numbers below.
    journal: Option<Arc<Journal>>,
    /// node → journal seq of its latest `node_crashed` event.
    crash_seq: FastMap<u32, u64>,
    /// Journal seq of the latest `node_restarted` event (parents
    /// subsequent replica resyncs).
    last_restart_seq: u64,
    node_up: Vec<Arc<Gauge>>,
    promotion_ms: Arc<Histogram>,
    node_unavail_ms: Arc<Histogram>,
    replayed_ops: Arc<Counter>,
    resync_ops: Arc<Counter>,
    promotions: Arc<Counter>,
    crashes: Arc<Counter>,
    restarts: Arc<Counter>,
}

impl FailoverController {
    /// A controller for `n_nodes` nodes, all up, recording into
    /// `registry`.
    pub fn new(n_nodes: u32, registry: &Arc<MetricsRegistry>) -> Self {
        let node_up: Vec<Arc<Gauge>> = (0..n_nodes)
            .map(|i| {
                let g = registry.gauge("esdb_sim_node_up", Labels::node(i));
                g.set(1);
                g
            })
            .collect();
        FailoverController {
            health: vec![NodeHealth::Up; n_nodes as usize],
            slow: vec![1.0; n_nodes as usize],
            in_transition: fast_map(),
            journal: None,
            crash_seq: fast_map(),
            last_restart_seq: NO_PARENT,
            node_up,
            promotion_ms: registry.histogram("esdb_failover_promotion_ms", Labels::none()),
            node_unavail_ms: registry.histogram("esdb_sim_node_unavailability_ms", Labels::none()),
            replayed_ops: registry.counter("esdb_failover_replayed_ops_total", Labels::none()),
            resync_ops: registry.counter("esdb_failover_resync_ops_total", Labels::none()),
            promotions: registry.counter("esdb_failover_promotions_total", Labels::none()),
            crashes: registry.counter("esdb_sim_node_crashes_total", Labels::none()),
            restarts: registry.counter("esdb_sim_node_restarts_total", Labels::none()),
        }
    }

    /// Attaches the flight-recorder journal: crash/restart/promotion/
    /// replay events are emitted with causal `parent_seq` links.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Emits a journal event (no-op without a journal); returns its seq.
    fn emit(&self, kind: EventKind, labels: Labels, parent_seq: u64) -> u64 {
        self.journal
            .as_ref()
            .map_or(NO_PARENT, |j| j.emit(kind, labels, parent_seq))
    }

    /// Whether `node` is serving.
    pub fn is_up(&self, node: u32) -> bool {
        matches!(self.health[node as usize], NodeHealth::Up)
    }

    /// Current capacity multiplier of `node`.
    pub fn slow_factor(&self, node: u32) -> f64 {
        self.slow[node as usize]
    }

    /// Sets the capacity multiplier of `node` (clamped to `(0, 1]`).
    pub fn set_slow_factor(&mut self, node: u32, factor: f64) {
        self.slow[node as usize] = factor.clamp(0.01, 1.0);
    }

    /// Marks `node` down at `now`, parented to `cause_seq` — typically the
    /// `chaos_fault_injected` journal event that fired the crash. Returns
    /// `false` (no-op) if it already was.
    pub fn on_crash_caused_by(&mut self, node: u32, now: TimestampMs, cause_seq: u64) -> bool {
        if !self.is_up(node) {
            return false;
        }
        self.health[node as usize] = NodeHealth::Down { since: now };
        self.node_up[node as usize].set(0);
        self.crashes.add(1);
        let seq = self.emit(
            EventKind::NodeCrashed { node },
            Labels::node(node),
            cause_seq,
        );
        self.crash_seq.insert(node, seq);
        true
    }

    /// Marks `node` up at `now`, recording its unavailability window.
    /// Returns the downtime, or `None` (no-op) if it wasn't down.
    pub fn on_restart(&mut self, node: u32, now: TimestampMs) -> Option<u64> {
        let NodeHealth::Down { since } = self.health[node as usize] else {
            return None;
        };
        self.health[node as usize] = NodeHealth::Up;
        self.node_up[node as usize].set(1);
        self.restarts.add(1);
        let downtime = now.saturating_sub(since);
        self.node_unavail_ms.record(downtime);
        let parent = self.crash_seq.get(&node).copied().unwrap_or(NO_PARENT);
        self.last_restart_seq = self.emit(
            EventKind::NodeRestarted {
                node,
                downtime_ms: downtime,
            },
            Labels::node(node),
            parent,
        );
        Some(downtime)
    }

    /// Starts tracking a promotion for `shard` whose primary
    /// `crashed_node` crashed at `crashed_at`.
    pub fn begin_promotion(&mut self, shard: u32, crashed_node: u32, crashed_at: TimestampMs) {
        let parent = self
            .crash_seq
            .get(&crashed_node)
            .copied()
            .unwrap_or(NO_PARENT);
        let seq = self.emit(
            EventKind::PromotionStarted {
                shard,
                crashed_node,
            },
            Labels::shard(shard),
            parent,
        );
        self.in_transition.insert(shard, (crashed_at, seq));
    }

    /// Whether `shard` is mid-promotion (writes must retry).
    pub fn is_in_transition(&self, shard: u32) -> bool {
        self.in_transition.contains_key(&shard)
    }

    /// Completes the promotion of `shard` at `now` after replaying
    /// `replayed` translog ops; returns the promotion latency.
    pub fn complete_promotion(
        &mut self,
        shard: u32,
        now: TimestampMs,
        replayed: u64,
    ) -> Option<u64> {
        let (crashed_at, start_seq) = self.in_transition.remove(&shard)?;
        let latency = now.saturating_sub(crashed_at);
        self.promotion_ms.record(latency);
        self.replayed_ops.add(replayed);
        self.promotions.add(1);
        let replay_seq = self.emit(
            EventKind::TranslogReplayed {
                shard,
                ops: replayed,
            },
            Labels::shard(shard),
            start_seq,
        );
        self.emit(
            EventKind::PromotionCompleted {
                shard,
                replayed_ops: replayed,
                latency_ms: latency,
            },
            Labels::shard(shard),
            replay_seq,
        );
        Some(latency)
    }

    /// Accounts ops replayed to rebuild a replica on a surviving node,
    /// parented to the crash or restart event that triggered the rebuild.
    pub fn record_resync_caused_by(&mut self, ops: u64, cause_seq: u64) {
        self.resync_ops.add(ops);
        self.emit(
            EventKind::ReplicaResynced { ops },
            Labels::none(),
            cause_seq,
        );
    }

    /// Journal seq of `node`'s `node_crashed` event ([`NO_PARENT`] if it
    /// never crashed or the journal is disabled).
    pub fn crash_seq_of(&self, node: u32) -> u64 {
        self.crash_seq.get(&node).copied().unwrap_or(NO_PARENT)
    }

    /// Journal seq of the latest `node_restarted` event.
    pub fn last_restart_seq(&self) -> u64 {
        self.last_restart_seq
    }

    /// The effective consensus plan: `base` with every down node fully
    /// partitioned (a dead participant can't ack prepares or receive
    /// commits).
    pub fn consensus_overlay(&self, base: &FaultPlan) -> FaultPlan {
        let mut plan = base.clone();
        for (i, h) in self.health.iter().enumerate() {
            if matches!(h, NodeHealth::Down { .. }) {
                plan.set(NodeId(i as u32), LinkFault::Partitioned);
            }
        }
        plan
    }

    /// Closes out unavailability windows still open at end of run (nodes
    /// that never restarted) so the histogram reflects them.
    pub fn finish(&mut self, now: TimestampMs) {
        for h in &mut self.health {
            if let NodeHealth::Down { since } = *h {
                self.node_unavail_ms.record(now.saturating_sub(since));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(n: u32) -> (FailoverController, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        (FailoverController::new(n, &registry), registry)
    }

    #[test]
    fn crash_restart_cycle_tracks_health_and_gauges() {
        let (mut c, reg) = controller(3);
        assert!(c.is_up(1));
        assert_eq!(reg.gauge("esdb_sim_node_up", Labels::node(1)).get(), 1);
        assert!(c.on_crash_caused_by(1, 1_000, NO_PARENT));
        assert!(
            !c.on_crash_caused_by(1, 1_100, NO_PARENT),
            "double crash is a no-op"
        );
        assert!(!c.is_up(1));
        assert_eq!((0..3).filter(|&n| c.is_up(n)).count(), 2);
        assert_eq!(reg.gauge("esdb_sim_node_up", Labels::node(1)).get(), 0);
        assert_eq!(c.on_restart(1, 4_000), Some(3_000));
        assert_eq!(c.on_restart(1, 4_100), None, "double restart is a no-op");
        assert!(c.is_up(1));
        assert_eq!(reg.gauge("esdb_sim_node_up", Labels::node(1)).get(), 1);
        assert_eq!(
            reg.counter_value("esdb_sim_node_crashes_total", Labels::none()),
            1
        );
        assert_eq!(
            reg.counter_value("esdb_sim_node_restarts_total", Labels::none()),
            1
        );
    }

    #[test]
    fn promotion_lifecycle_records_latency_and_ops() {
        let (mut c, reg) = controller(2);
        c.on_crash_caused_by(0, 2_000, NO_PARENT);
        c.begin_promotion(7, 0, 2_000);
        assert!(c.is_in_transition(7));
        assert_eq!(c.in_transition.len(), 1);
        assert_eq!(c.complete_promotion(7, 2_600, 40), Some(600));
        assert!(!c.is_in_transition(7));
        assert_eq!(c.complete_promotion(7, 2_700, 1), None, "already done");
        assert_eq!(
            reg.counter_value("esdb_failover_replayed_ops_total", Labels::none()),
            40
        );
        assert_eq!(
            reg.counter_value("esdb_failover_promotions_total", Labels::none()),
            1
        );
        let h = reg.histogram("esdb_failover_promotion_ms", Labels::none());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn overlay_partitions_down_nodes_only() {
        let (mut c, _reg) = controller(3);
        c.on_crash_caused_by(2, 500, NO_PARENT);
        let plan = c.consensus_overlay(&FaultPlan::healthy(20));
        assert_eq!(plan.fault(NodeId(0)), LinkFault::Healthy);
        assert_eq!(plan.fault(NodeId(2)), LinkFault::Partitioned);
        // Base faults survive the overlay.
        let mut base = FaultPlan::healthy(20);
        base.set(NodeId(1), LinkFault::Delay(100));
        let plan = c.consensus_overlay(&base);
        assert_eq!(plan.fault(NodeId(1)), LinkFault::Delay(100));
    }

    #[test]
    fn journal_chain_links_crash_to_recovery() {
        use esdb_telemetry::unresolved_parents;
        let registry = Arc::new(MetricsRegistry::new());
        let journal = Arc::new(Journal::new(64));
        let mut c = FailoverController::new(2, &registry).with_journal(Arc::clone(&journal));
        let fault = journal.emit(
            EventKind::ChaosFaultInjected {
                fault: "node_crash",
                node: 0,
            },
            Labels::node(0),
            NO_PARENT,
        );
        c.on_crash_caused_by(0, 1_000, fault);
        c.begin_promotion(3, 0, 1_000);
        c.complete_promotion(3, 1_500, 25);
        c.on_restart(0, 2_000);
        c.record_resync_caused_by(10, c.last_restart_seq());
        let events = journal.snapshot();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            vec![
                "chaos_fault_injected",
                "node_crashed",
                "promotion_started",
                "translog_replayed",
                "promotion_completed",
                "node_restarted",
                "replica_resynced",
            ]
        );
        // fault → crash → promotion → replay → completion is one chain;
        // the restart parents onto the crash and the resync onto the
        // restart.
        for w in events.windows(2).take(4) {
            assert_eq!(w[1].parent_seq, w[0].seq, "chain break at {:?}", w[1]);
        }
        assert_eq!(events[5].parent_seq, events[1].seq, "restart ← crash");
        assert_eq!(events[6].parent_seq, events[5].seq, "resync ← restart");
        assert!(unresolved_parents(&events, journal.evicted_max()).is_empty());
    }

    #[test]
    fn finish_closes_open_windows() {
        let (mut c, reg) = controller(2);
        c.on_crash_caused_by(0, 1_000, NO_PARENT);
        c.finish(9_000);
        let h = reg.histogram("esdb_sim_node_unavailability_ms", Labels::none());
        assert_eq!(h.count(), 1);
        assert_eq!(h.snapshot().max(), 8_000);
    }
}
