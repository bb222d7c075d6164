//! The cluster simulation loop.

use crate::config::{ClusterConfig, PolicySpec};
use crate::node::{SimNode, Task};
use esdb_balancer::{LoadBalancer, WorkloadMonitor};
use esdb_chaos::{ChaosEvent, ChaosSchedule, FailoverController};
use esdb_common::fastmap::{fast_map, FastMap};
use esdb_common::{Clock, ManualClock, NodeId, ShardId, SharedClock, TenantId, TimestampMs};
use esdb_consensus::{ConsensusConfig, FaultPlan, Master, Participant, RoundOutcome, RuleBody};
use esdb_routing::{
    rules_json, DoubleHashRouting, DynamicRouting, HashRouting, RoutingPolicy, ShardSpan,
};
use esdb_telemetry::json::Json;
use esdb_telemetry::{
    Counter, DebugBundle, EventKind, Histogram, Labels, Telemetry, TelemetryConfig,
    TelemetrySnapshot, NO_PARENT,
};
use esdb_workload::WriteEvent;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-tick statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickStats {
    /// Tick start time, ms.
    pub time_ms: TimestampMs,
    /// Writes generated this tick.
    pub generated: u64,
    /// Primary completions this tick.
    pub completed: u64,
    /// Sum of completion delays (ms) over completed writes.
    pub delay_sum_ms: u64,
    /// Max completion delay this tick.
    pub max_delay_ms: u64,
    /// Writes waiting in client queues at tick end.
    pub client_backlog: u64,
    /// Writes in the system at tick end (client queues + node queues) —
    /// feeds the Little's-law delay estimate.
    pub in_system: u64,
}

/// The full output of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-tick series.
    pub ticks: Vec<TickStats>,
    /// Completed primaries per node.
    pub per_node_completed: Vec<u64>,
    /// Lifetime utilization per node.
    pub per_node_utilization: Vec<f64>,
    /// Completed writes per shard.
    pub per_shard_writes: Vec<u64>,
    /// Writes *routed* to each shard (arrival counts — saturation cannot
    /// mask skew here, which is what Fig. 12(b) measures).
    pub per_shard_arrivals: Vec<u64>,
    /// Bytes per shard.
    pub per_shard_bytes: Vec<u64>,
    /// Documents per tenant.
    pub per_tenant_docs: FastMap<TenantId, u64>,
    /// Secondary hashing rules committed during the run.
    pub rules_committed: usize,
    /// Wall-clock covered, ms.
    pub duration_ms: u64,
    /// Node crashes applied by the chaos schedule.
    pub node_crashes: u64,
    /// Node restarts applied by the chaos schedule.
    pub node_restarts: u64,
    /// Shard promotions completed (replica took over as primary).
    pub promotions: u64,
    /// Translog ops replayed by completed promotions.
    pub replayed_ops: u64,
    /// Translog ops replayed to rebuild replicas on surviving nodes.
    pub resync_ops: u64,
    /// Client write retries scheduled (dead/in-transition shard backoff).
    pub write_retries: u64,
    /// Writes failed back to the client after exhausting the retry budget.
    pub failed_writes: u64,
    /// Acknowledged writes whose shard lost every live copy (only possible
    /// when primary *and* replica nodes are down simultaneously — the
    /// failover bench asserts this stays zero).
    pub lost_acknowledged_writes: u64,
}

impl RunReport {
    /// Mean completed throughput (writes/sec) after `warmup_ms`.
    pub fn throughput_tps(&self, warmup_ms: u64) -> f64 {
        let (mut done, mut ms) = (0u64, 0u64);
        for t in &self.ticks {
            if t.time_ms >= warmup_ms {
                done += t.completed;
                ms += tick_len(&self.ticks);
            }
        }
        if ms == 0 {
            0.0
        } else {
            done as f64 * 1_000.0 / ms as f64
        }
    }

    /// Mean write delay (ms) after `warmup_ms`, via Little's law:
    /// `avg sojourn = (∫ writes-in-system dt) / completions`. Unlike a
    /// completed-writes average, this charges the growing queues of an
    /// overloaded policy to its delay instead of silently dropping them.
    pub fn avg_delay_ms(&self, warmup_ms: u64) -> f64 {
        let tick = tick_len(&self.ticks);
        let (mut area, mut n) = (0u128, 0u64);
        for t in &self.ticks {
            if t.time_ms >= warmup_ms {
                area += (t.in_system as u128) * tick as u128;
                n += t.completed;
            }
        }
        if n == 0 {
            0.0
        } else {
            area as f64 / n as f64
        }
    }

    /// Mean delay of *completed* writes only (the biased metric, kept for
    /// comparison and for runs that fully drain).
    pub fn avg_completed_delay_ms(&self, warmup_ms: u64) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for t in &self.ticks {
            if t.time_ms >= warmup_ms {
                sum += t.delay_sum_ms;
                n += t.completed;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Max write delay (ms) in the window `[from_ms, to_ms)` — Fig. 19's
    /// headline metric.
    pub fn max_delay_in(&self, from_ms: u64, to_ms: u64) -> u64 {
        self.ticks
            .iter()
            .filter(|t| t.time_ms >= from_ms && t.time_ms < to_ms)
            .map(|t| t.max_delay_ms)
            .max()
            .unwrap_or(0)
    }

    /// Per-node completed throughput (writes/sec).
    pub fn node_throughput_tps(&self) -> Vec<f64> {
        let secs = (self.duration_ms as f64 / 1_000.0).max(1e-9);
        self.per_node_completed
            .iter()
            .map(|&c| c as f64 / secs)
            .collect()
    }

    /// Population stddev of per-node throughput.
    pub fn node_throughput_stddev(&self) -> f64 {
        esdb_common::stats::stddev(&self.node_throughput_tps())
    }

    /// Population stddev of per-shard *offered* write throughput
    /// (arrivals/sec). Arrival-based on purpose: a saturated node caps its
    /// shards' completions, which would understate hashing's skew.
    pub fn shard_throughput_stddev(&self) -> f64 {
        let secs = (self.duration_ms as f64 / 1_000.0).max(1e-9);
        let tps: Vec<f64> = self
            .per_shard_arrivals
            .iter()
            .map(|&c| c as f64 / secs)
            .collect();
        esdb_common::stats::stddev(&tps)
    }
}

fn tick_len(ticks: &[TickStats]) -> u64 {
    if ticks.len() >= 2 {
        ticks[1].time_ms - ticks[0].time_ms
    } else {
        100
    }
}

enum PolicyImpl {
    Hash(HashRouting),
    Double(DoubleHashRouting),
    Dynamic(DynamicRouting),
}

impl PolicyImpl {
    fn route(&self, ev: &WriteEvent) -> ShardId {
        match self {
            PolicyImpl::Hash(p) => p.route_write(ev.tenant, ev.record, ev.created_at),
            PolicyImpl::Double(p) => p.route_write(ev.tenant, ev.record, ev.created_at),
            PolicyImpl::Dynamic(p) => p.route_write(ev.tenant, ev.record, ev.created_at),
        }
    }

    fn read_span(&self, tenant: TenantId, now: TimestampMs) -> ShardSpan {
        match self {
            PolicyImpl::Hash(p) => p.read_span(tenant, now),
            PolicyImpl::Double(p) => p.read_span(tenant, now),
            PolicyImpl::Dynamic(p) => p.read_span(tenant, now),
        }
    }
}

/// The simulated cluster.
pub struct SimCluster {
    cfg: ClusterConfig,
    clock: SharedClock,
    clock_driver: Arc<ManualClock>,
    nodes: Vec<SimNode>,
    primary_node: Vec<u32>,
    replica_node: Vec<u32>,
    policy: PolicyImpl,
    /// One consensus participant per node; participant 0's rule list backs
    /// the router.
    participants: Vec<Participant>,
    master: Master,
    balancer: LoadBalancer,
    monitor: WorkloadMonitor,
    /// The unified fault plan: node, storage, and consensus faults all
    /// flow from this one seeded schedule (`set_fault_plan` is a shim
    /// writing its base consensus plan).
    chaos: ChaosSchedule,
    /// Node health, promotion tracking and recovery telemetry.
    controller: FailoverController,
    /// Shared metrics: the monitor, master, and dynamic router record
    /// into this registry; the sim adds per-node completion-delay
    /// histograms (`esdb_sim_write_delay_ms{node}`).
    telemetry: Arc<Telemetry>,
    /// Cached per-node delay histogram handles, indexed by node.
    node_delay_ms: Vec<Arc<Histogram>>,
    client_queue: VecDeque<WriteEvent>,
    isolated_queue: VecDeque<WriteEvent>,
    /// Writes backing off after hitting a dead or in-transition shard.
    retry_queue: VecDeque<RetryEntry>,
    /// Per-shard translog ops since the last simulated flush — what a
    /// promotion must replay.
    translog_tail_ops: Vec<u64>,
    last_flush_ms: TimestampMs,
    max_pending_work: f64,
    last_monitor_ms: TimestampMs,
    report: RunReport,
    /// Fault-path counters (satellite of the chaos PR: nothing fails
    /// silently).
    retries_total: Arc<Counter>,
    retries_exhausted: Arc<Counter>,
    replica_sync_skipped: Arc<Counter>,
    dispatch_blocked_consensus: Arc<Counter>,
    dispatch_blocked_busy: Arc<Counter>,
}

/// A write waiting out its backoff before re-dispatch.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    ev: WriteEvent,
    /// Index of the *next* backoff to use if this attempt fails too.
    attempt: u32,
    not_before: TimestampMs,
}

impl SimCluster {
    /// Builds a cluster per `cfg`, starting simulated time at 0.
    pub fn new(cfg: ClusterConfig) -> Self {
        let (clock, clock_driver) = SharedClock::manual(0);
        let n = cfg.n_shards;
        let nodes: Vec<SimNode> = (0..cfg.n_nodes)
            .map(|_| SimNode::new(cfg.node_capacity_per_sec * cfg.tick_ms as f64 / 1_000.0))
            .collect();
        // Placement: primary round-robin; replica on the next node —
        // "shards and replicas are randomly allocated to different nodes"
        // with the adjacency the paper observes in Fig. 13 ("neighboring
        // nodes have similar throughput ... because each shard has a
        // replica").
        let primary_node: Vec<u32> = (0..n).map(|s| s % cfg.n_nodes).collect();
        let replica_node: Vec<u32> = (0..n).map(|s| (s + 1) % cfg.n_nodes).collect();

        let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let node_delay_ms: Vec<Arc<Histogram>> = (0..cfg.n_nodes)
            .map(|i| {
                telemetry
                    .registry()
                    .histogram("esdb_sim_write_delay_ms", Labels::node(i))
            })
            .collect();
        let participants: Vec<Participant> = (0..cfg.n_nodes)
            .map(|i| Participant::new(NodeId(i)))
            .collect();
        let policy = match cfg.policy {
            PolicySpec::Hashing => PolicyImpl::Hash(HashRouting::new(n)),
            PolicySpec::DoubleHashing { s } => PolicyImpl::Double(DoubleHashRouting::new(n, s)),
            PolicySpec::Dynamic => PolicyImpl::Dynamic(
                DynamicRouting::with_rules(n, participants[0].rules())
                    .with_telemetry(telemetry.registry()),
            ),
        };
        let master = Master::new(
            clock.clone(),
            ConsensusConfig {
                interval_t_ms: cfg.consensus_t_ms,
            },
        )
        .with_telemetry(Arc::clone(telemetry.registry()));
        let balancer =
            LoadBalancer::new(cfg.balancer).with_journal(Arc::clone(telemetry.journal()));
        let controller = FailoverController::new(cfg.n_nodes, telemetry.registry())
            .with_journal(Arc::clone(telemetry.journal()));
        let max_pending_work = cfg.client.max_pending_secs * cfg.node_capacity_per_sec;
        let report = RunReport {
            per_node_completed: vec![0; cfg.n_nodes as usize],
            per_node_utilization: vec![0.0; cfg.n_nodes as usize],
            per_shard_writes: vec![0; n as usize],
            per_shard_arrivals: vec![0; n as usize],
            per_shard_bytes: vec![0; n as usize],
            per_tenant_docs: fast_map(),
            ..RunReport::default()
        };
        let registry = Arc::clone(telemetry.registry());
        let counter = |name: &'static str, labels: Labels| registry.counter(name, labels);
        SimCluster {
            clock,
            clock_driver,
            nodes,
            primary_node,
            replica_node,
            policy,
            participants,
            master,
            balancer,
            monitor: WorkloadMonitor::with_registry(Arc::clone(telemetry.registry())),
            chaos: ChaosSchedule::new(),
            controller,
            telemetry,
            node_delay_ms,
            client_queue: VecDeque::new(),
            isolated_queue: VecDeque::new(),
            retry_queue: VecDeque::new(),
            translog_tail_ops: vec![0; cfg.n_shards as usize],
            last_flush_ms: 0,
            max_pending_work,
            last_monitor_ms: 0,
            report,
            retries_total: counter("esdb_sim_write_retries_total", Labels::none()),
            retries_exhausted: counter("esdb_sim_write_retries_exhausted_total", Labels::none()),
            replica_sync_skipped: counter("esdb_sim_replica_sync_skipped_total", Labels::none()),
            dispatch_blocked_consensus: counter(
                "esdb_sim_dispatch_blocked_total",
                Labels::stage("consensus"),
            ),
            dispatch_blocked_busy: counter(
                "esdb_sim_dispatch_blocked_total",
                Labels::stage("busy"),
            ),
            cfg,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> TimestampMs {
        self.clock.now()
    }

    /// Injects a consensus fault plan for subsequent balancer rounds.
    ///
    /// Thin shim kept for older callers: writes the base consensus plan of
    /// the unified [`ChaosSchedule`], which `Link` chaos events also
    /// mutate and down nodes overlay with partitions.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.chaos.set_consensus_plan(plan);
    }

    /// Installs the unified chaos schedule (replaces any previous one,
    /// including its base consensus plan).
    pub fn set_chaos_schedule(&mut self, schedule: ChaosSchedule) {
        self.chaos = schedule;
    }

    /// The node that currently hosts `shard`'s primary.
    pub fn primary_of(&self, shard: ShardId) -> u32 {
        self.primary_node[shard.index()]
    }

    /// The tenant's current read span (for the query model).
    pub fn read_span(&self, tenant: TenantId) -> ShardSpan {
        self.policy.read_span(tenant, self.now())
    }

    /// Runs one tick with `events` arriving at the write clients.
    pub fn step(&mut self, events: Vec<WriteEvent>) {
        let now = self.now();
        let tick_end = now + self.cfg.tick_ms;
        // Chaos events due at this tick fire before anything else — a
        // crash at tick T affects tick T's dispatch and service.
        for ev in self.chaos.take_due(now) {
            self.apply_chaos_event(ev, now);
        }
        // Simulated flush cadence: rolling the translog generation bounds
        // the tail a later promotion must replay.
        if now.saturating_sub(self.last_flush_ms) >= self.cfg.failover.flush_interval_ms {
            self.last_flush_ms = now;
            self.translog_tail_ops.iter_mut().for_each(|c| *c = 0);
        }
        let mut stats = TickStats {
            time_ms: now,
            generated: events.len() as u64,
            ..TickStats::default()
        };
        // The monitor counts *arriving* workloads at the coordinator
        // (§3.2), not completions — a saturated node must not be able to
        // suppress its own hotspot signal by completing less.
        for ev in &events {
            let shard = self.policy.route(ev);
            let node = self.primary_node[shard.index()];
            self.report.per_shard_arrivals[shard.index()] += 1;
            self.monitor
                .record_write(ev.tenant, shard, NodeId(node), ev.bytes as u64);
        }
        self.client_queue.extend(events);

        // Backed-off writes whose delay expired re-enter dispatch first
        // (they are the oldest writes in the system).
        for _ in 0..self.retry_queue.len() {
            let Some(entry) = self.retry_queue.pop_front() else {
                break;
            };
            if entry.not_before > now {
                self.retry_queue.push_back(entry);
                continue;
            }
            match self.try_dispatch(&entry.ev) {
                Dispatch::Accepted => {}
                Dispatch::Busy | Dispatch::Unavailable => {
                    self.schedule_retry(entry.ev, entry.attempt, now);
                }
            }
        }

        // Client dispatch (one-hop routing, §3.1): FIFO with head-of-line
        // blocking on overloaded workers; hotspot isolation diverts instead.
        // A dead or in-transition shard never head-of-line blocks — its
        // writes back off individually (bounded retry).
        let isolation = self.cfg.client.hotspot_isolation;
        while let Some(ev) = self.client_queue.pop_front() {
            match self.try_dispatch(&ev) {
                Dispatch::Accepted => {}
                Dispatch::Unavailable => self.schedule_retry(ev, 0, now),
                Dispatch::Busy => {
                    if isolation {
                        self.isolated_queue.push_back(ev);
                    } else {
                        // Head-of-line blocked: put it back and stop.
                        self.client_queue.push_front(ev);
                        break;
                    }
                }
            }
        }
        // Isolated queue drains opportunistically without blocking anyone.
        // Retries are capped per tick (a few times the cluster's service
        // rate) so a deep backlog costs O(capacity), not O(backlog), per
        // tick — the real client retries in batches too.
        let max_retries = (4.0
            * self.cfg.node_capacity_per_sec
            * self.cfg.n_nodes as f64
            * self.cfg.tick_ms as f64
            / 1_000.0) as usize;
        for _ in 0..max_retries.min(self.isolated_queue.len()) {
            let Some(ev) = self.isolated_queue.pop_front() else {
                break;
            };
            match self.try_dispatch(&ev) {
                Dispatch::Accepted => {}
                Dispatch::Unavailable => self.schedule_retry(ev, 0, now),
                Dispatch::Busy => self.isolated_queue.push_back(ev),
            }
        }

        // Snapshot writes-in-system after dispatch, before service, so a
        // write that arrives and completes in the same tick still counts
        // one tick of sojourn (the Little's-law delay floor ≈ tick).
        stats.in_system =
            (self.client_queue.len() + self.isolated_queue.len() + self.retry_queue.len()) as u64
                + self.nodes.iter().map(|n| n.pending_primaries).sum::<u64>();

        // Node processing (down nodes serve nothing).
        let replica_cost = self.cfg.replica_cost;
        let mut replica_pushes: Vec<u32> = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !self.controller.is_up(i as u32) {
                continue;
            }
            let mut completions: Vec<Task> = Vec::new();
            node.run_tick(replica_cost, |t| completions.push(t));
            for t in completions {
                match t {
                    Task::Primary { ev, shard } => {
                        let mut delay = tick_end.saturating_sub(ev.created_at);
                        if !self.cfg.client.one_hop {
                            // Two-hop routing pays the coordinator forward.
                            delay += self.cfg.client.hop_latency_ms;
                        }
                        stats.completed += 1;
                        stats.delay_sum_ms += delay;
                        stats.max_delay_ms = stats.max_delay_ms.max(delay);
                        self.node_delay_ms[i].record(delay);
                        self.report.per_node_completed[i] += 1;
                        self.report.per_shard_writes[shard.index()] += 1;
                        self.report.per_shard_bytes[shard.index()] += ev.bytes as u64;
                        *self.report.per_tenant_docs.entry(ev.tenant).or_insert(0) += 1;
                        self.translog_tail_ops[shard.index()] += 1;
                        self.participants[i].observe_executed(ev.created_at);
                        let replica = self.replica_node[shard.index()];
                        if replica != i as u32 && self.controller.is_up(replica) {
                            replica_pushes.push(replica);
                        } else if replica != i as u32 {
                            // A dead replica can't sync; surfaced, not
                            // swallowed — the restart path resyncs it.
                            self.replica_sync_skipped.inc();
                        }
                    }
                    Task::Replica => {}
                    Task::Recovery {
                        shard,
                        ops,
                        promote,
                        cause,
                        ..
                    } => {
                        if promote {
                            if self
                                .controller
                                .complete_promotion(shard.index() as u32, tick_end, ops)
                                .is_some()
                            {
                                self.report.promotions += 1;
                                self.report.replayed_ops += ops;
                            }
                        } else {
                            self.controller.record_resync_caused_by(ops, cause);
                            self.report.resync_ops += ops;
                        }
                    }
                }
            }
        }
        for node in replica_pushes {
            self.nodes[node as usize].enqueue(Task::Replica, replica_cost);
        }

        // Balancer period (runtime phase of Algorithm 1) — dynamic only.
        if matches!(self.cfg.policy, PolicySpec::Dynamic)
            && tick_end.saturating_sub(self.last_monitor_ms) >= self.cfg.monitor_period_ms
        {
            self.last_monitor_ms = tick_end;
            let period = self.monitor.take_period();
            let proposals = self.balancer.on_period(&period);
            // Down nodes are partitioned in the consensus overlay — a dead
            // participant must not silently ack rule rounds.
            let plan = self
                .controller
                .consensus_overlay(self.chaos.consensus_plan());
            for p in proposals {
                let body = RuleBody::single(p.tenant, p.offset);
                // Span in effect before the round, for the rule event's
                // old → new transition (participant 0 backs the router).
                let old_span = self.participants[0]
                    .rules()
                    .read()
                    .offset_for_write(p.tenant, tick_end);
                match self.master.run_round(&body, &mut self.participants, &plan) {
                    RoundOutcome::Committed { .. } => {
                        self.report.rules_committed += 1;
                        // commit_wait_ns stays 0 in the simulation: the
                        // round is instantaneous in sim time, and wall-ns
                        // would break same-seed bundle byte-identity.
                        self.telemetry.emit(
                            EventKind::RuleAppended {
                                tenant: p.tenant.0,
                                old_span,
                                new_span: p.offset,
                                commit_wait_ns: 0,
                            },
                            Labels::tenant(p.tenant.0),
                            p.detected_seq,
                        );
                    }
                    RoundOutcome::Aborted { .. } => self.balancer.on_abort(p.tenant, p.offset),
                }
            }
        }

        stats.client_backlog =
            (self.client_queue.len() + self.isolated_queue.len() + self.retry_queue.len()) as u64;
        self.report.ticks.push(stats);
        self.clock_driver.advance(self.cfg.tick_ms);
    }

    fn try_dispatch(&mut self, ev: &WriteEvent) -> Dispatch {
        let shard = self.policy.route(ev);
        let node_idx = self.primary_node[shard.index()] as usize;
        // Failover block: the shard's primary is down or still replaying
        // its translog tail. The write backs off with bounded retry rather
        // than head-of-line blocking healthy shards.
        if !self.controller.is_up(node_idx as u32)
            || self.controller.is_in_transition(shard.index() as u32)
        {
            return Dispatch::Unavailable;
        }
        // Consensus block: a pending rule holds writes created after its
        // effective time (§4.3). Treated like a busy worker by the client.
        if self.participants[node_idx]
            .check_admit(ev.created_at)
            .is_err()
        {
            self.dispatch_blocked_consensus.inc();
            return Dispatch::Busy;
        }
        let node = &mut self.nodes[node_idx];
        if node.pending_work >= self.max_pending_work {
            self.dispatch_blocked_busy.inc();
            return Dispatch::Busy;
        }
        node.enqueue(Task::Primary { ev: *ev, shard }, 1.0);
        Dispatch::Accepted
    }

    /// Journals a chaos firing; returns its seq so the resulting crash
    /// chain links back to the fault that caused it.
    fn journal_fault(&self, fault: &'static str, node: u32) -> u64 {
        self.telemetry.emit(
            EventKind::ChaosFaultInjected { fault, node },
            Labels::node(node),
            NO_PARENT,
        )
    }

    /// Applies one due chaos event at the start of a tick.
    fn apply_chaos_event(&mut self, ev: ChaosEvent, now: TimestampMs) {
        match ev {
            ChaosEvent::NodeCrash { node } => {
                let fault_seq = self.journal_fault("node_crash", node);
                self.crash_node(node, now, fault_seq);
            }
            ChaosEvent::NodeRestart { node } => {
                self.journal_fault("node_restart", node);
                self.restart_node(node, now);
            }
            ChaosEvent::SlowNode { node, factor } => {
                self.journal_fault("slow_node", node);
                let n = node as usize;
                if n < self.nodes.len() {
                    self.controller.set_slow_factor(node, factor);
                    self.nodes[n].set_capacity_factor(factor);
                }
            }
            // Link faults already folded into the base consensus plan by
            // `ChaosSchedule::take_due`.
            ChaosEvent::Link { .. } => {}
        }
    }

    fn crash_node(&mut self, node: u32, now: TimestampMs, fault_seq: u64) {
        if node as usize >= self.nodes.len()
            || !self.controller.on_crash_caused_by(node, now, fault_seq)
        {
            return;
        }
        self.report.node_crashes += 1;
        // Queued work dies with the node; unacknowledged client writes
        // re-enter routing through the retry path (the client never got an
        // ack, so it re-sends).
        for task in self.nodes[node as usize].crash() {
            if let Task::Primary { ev, .. } = task {
                self.schedule_retry(ev, 0, now);
            }
        }
        let replay_cost = self.cfg.failover.replay_cost;
        for s in 0..self.cfg.n_shards as usize {
            if self.primary_node[s] == node {
                let replica = self.replica_node[s];
                if replica != node && self.controller.is_up(replica) {
                    // Promote the replica: it becomes primary once it has
                    // replayed the translog tail it mirrored in real time.
                    self.primary_node[s] = replica;
                    let new_replica = self.pick_surviving_node(replica).unwrap_or(replica);
                    self.replica_node[s] = new_replica;
                    self.controller.begin_promotion(s as u32, node, now);
                    let ops = self.translog_tail_ops[s];
                    self.nodes[replica as usize].enqueue(
                        Task::Recovery {
                            shard: ShardId(s as u32),
                            ops,
                            work: (ops as f64 * replay_cost).max(1.0),
                            promote: true,
                            cause: self.controller.crash_seq_of(node),
                        },
                        (ops as f64 * replay_cost).max(1.0),
                    );
                } else {
                    // Primary and replica both down: every acknowledged
                    // write on the shard is gone (diskless restart model).
                    // The failover bench asserts this stays zero.
                    self.report.lost_acknowledged_writes += self.report.per_shard_writes[s];
                }
            } else if self.replica_node[s] == node {
                // The replica died; the primary serves alone until a
                // surviving node rebuilds the copy.
                let primary = self.primary_node[s];
                if let Some(new_replica) = self.pick_surviving_node(primary) {
                    self.replica_node[s] = new_replica;
                    let ops = self.translog_tail_ops[s];
                    if ops > 0 {
                        self.nodes[new_replica as usize].enqueue(
                            Task::Recovery {
                                shard: ShardId(s as u32),
                                ops,
                                work: (ops as f64 * replay_cost).max(1.0),
                                promote: false,
                                cause: self.controller.crash_seq_of(node),
                            },
                            (ops as f64 * replay_cost).max(1.0),
                        );
                    }
                } else {
                    self.replica_node[s] = primary;
                }
            }
        }
    }

    fn restart_node(&mut self, node: u32, now: TimestampMs) {
        if node as usize >= self.nodes.len() || self.controller.on_restart(node, now).is_none() {
            return;
        }
        self.report.node_restarts += 1;
        self.nodes[node as usize].set_capacity_factor(self.controller.slow_factor(node));
        let replay_cost = self.cfg.failover.replay_cost;
        for s in 0..self.cfg.n_shards as usize {
            let primary = self.primary_node[s];
            if !self.controller.is_up(primary) && !self.controller.is_in_transition(s as u32) {
                // Orphaned shard (every copy was down at crash time): the
                // restarted node adopts it with an empty store.
                self.primary_node[s] = node;
                self.controller.begin_promotion(s as u32, primary, now);
                self.nodes[node as usize].enqueue(
                    Task::Recovery {
                        shard: ShardId(s as u32),
                        ops: 0,
                        work: 1.0,
                        promote: true,
                        cause: self.controller.last_restart_seq(),
                    },
                    1.0,
                );
            } else if self.replica_node[s] == self.primary_node[s]
                || !self.controller.is_up(self.replica_node[s])
            {
                // Shard running without a live replica: the restarted node
                // takes the copy and resyncs the tail.
                if self.primary_node[s] != node {
                    self.replica_node[s] = node;
                    let ops = self.translog_tail_ops[s];
                    if ops > 0 {
                        self.nodes[node as usize].enqueue(
                            Task::Recovery {
                                shard: ShardId(s as u32),
                                ops,
                                work: (ops as f64 * replay_cost).max(1.0),
                                promote: false,
                                cause: self.controller.last_restart_seq(),
                            },
                            (ops as f64 * replay_cost).max(1.0),
                        );
                    }
                }
            }
        }
    }

    /// First up node scanning from `exclude + 1`, or `None` if `exclude`
    /// is the only survivor. Deterministic by construction.
    fn pick_surviving_node(&self, exclude: u32) -> Option<u32> {
        let n = self.cfg.n_nodes;
        (1..n)
            .map(|d| (exclude + d) % n)
            .find(|&c| self.controller.is_up(c))
    }

    /// Queues `ev` for re-dispatch after the `attempt`-th backoff, or
    /// fails the write once the retry budget is exhausted (both outcomes
    /// are surfaced — counters plus the run report, never a silent drop).
    fn schedule_retry(&mut self, ev: WriteEvent, attempt: u32, now: TimestampMs) {
        match self.cfg.failover.retry.backoff_ms(attempt) {
            Some(delay) => {
                self.retries_total.inc();
                self.report.write_retries += 1;
                self.retry_queue.push_back(RetryEntry {
                    ev,
                    attempt: attempt + 1,
                    not_before: now + delay,
                });
            }
            None => {
                self.retries_exhausted.inc();
                self.report.failed_writes += 1;
            }
        }
    }

    /// Lets in-flight work drain for `ms` without new arrivals.
    pub fn drain(&mut self, ms: u64) {
        let ticks = ms / self.cfg.tick_ms;
        for _ in 0..ticks {
            self.step(Vec::new());
        }
    }

    /// Finalizes and returns the run report.
    pub fn finish(mut self) -> RunReport {
        for (i, n) in self.nodes.iter().enumerate() {
            self.report.per_node_utilization[i] = n.utilization();
        }
        self.report.duration_ms = self.now();
        // Close open unavailability windows so the telemetry is complete
        // even when a node never restarted.
        self.controller.finish(self.now());
        self.report
    }

    /// Immutable peek at the report built so far.
    pub fn report_so_far(&self) -> &RunReport {
        &self.report
    }

    /// Number of writes currently waiting in client queues (including
    /// writes backing off after hitting a failed-over shard).
    pub fn backlog(&self) -> usize {
        self.client_queue.len() + self.isolated_queue.len() + self.retry_queue.len()
    }

    /// Writes anywhere in the system: client queues, retry backoff, and
    /// worker queues. Zero means every accepted write has completed.
    pub fn in_flight(&self) -> u64 {
        self.backlog() as u64 + self.nodes.iter().map(|n| n.pending_primaries).sum::<u64>()
    }

    /// Point-in-time snapshot of every metric the run has produced.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// One-call postmortem artifact for the simulated cluster: metrics,
    /// journal tail (the crash → promotion → replay → recovery chains),
    /// slow logs, simulation config, and the committed rule list. All
    /// payloads are simulation-time based, so same-seed runs render
    /// byte-identical bundles.
    pub fn debug_bundle(&self) -> DebugBundle {
        let mut bundle =
            DebugBundle::from_telemetry(&self.telemetry, self.telemetry.snapshot(), 512);
        let c = &self.cfg;
        bundle.config = [
            ("n_nodes", c.n_nodes.into()),
            ("n_shards", c.n_shards.into()),
            ("tick_ms", c.tick_ms.into()),
            ("node_capacity_per_sec", c.node_capacity_per_sec.into()),
            ("monitor_period_ms", c.monitor_period_ms.into()),
            ("consensus_t_ms", c.consensus_t_ms.into()),
            ("flush_interval_ms", c.failover.flush_interval_ms.into()),
        ]
        .map(|(k, v): (&str, Json)| (k.to_string(), v))
        .into();
        bundle.rules = rules_json(self.participants[0].rules().read().rules());
        bundle
    }

    /// Per-node completion-delay quantiles (ms), one row per node in
    /// node order — the per-node latency axis of Figs. 13/14.
    pub fn node_delay_quantiles(&self, qs: &[f64]) -> Vec<Vec<u64>> {
        self.node_delay_ms
            .iter()
            .map(|h| {
                let snap = h.snapshot();
                qs.iter().map(|&q| snap.quantile(q)).collect()
            })
            .collect()
    }
}

enum Dispatch {
    Accepted,
    /// The target worker is overloaded or consensus-blocked.
    Busy,
    /// The shard's primary is down or mid-promotion; back off and retry.
    Unavailable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicySpec;
    use esdb_workload::{RateSchedule, TraceGenerator};

    fn run(
        policy: PolicySpec,
        theta: f64,
        rate: f64,
        secs: u64,
        tweak: impl Fn(&mut ClusterConfig),
    ) -> RunReport {
        let mut cfg = ClusterConfig::small(policy);
        tweak(&mut cfg);
        let mut cluster = SimCluster::new(cfg.clone());
        let mut gen = TraceGenerator::new(1_000, theta, RateSchedule::constant(rate), 42);
        let ticks = secs * 1_000 / cfg.tick_ms;
        for _ in 0..ticks {
            let now = cluster.now();
            let events = gen.tick(now, cfg.tick_ms);
            cluster.step(events);
        }
        cluster.finish()
    }

    #[test]
    fn uniform_load_under_capacity_completes_everything() {
        // 4 nodes × 1000 ops/s, replica cost 1 → ceiling 2000/s; run 1000/s.
        let r = run(PolicySpec::Hashing, 0.0, 1_000.0, 20, |_| {});
        let tput = r.throughput_tps(5_000);
        assert!((tput - 1_000.0).abs() < 100.0, "tput {tput}");
        let delay = r.avg_delay_ms(5_000);
        assert!(delay < 500.0, "uniform under-capacity delay {delay}");
    }

    #[test]
    fn skewed_hashing_saturates_below_balanced_policies() {
        let hash = run(PolicySpec::Hashing, 1.2, 1_800.0, 30, |_| {});
        let double = run(PolicySpec::DoubleHashing { s: 8 }, 1.2, 1_800.0, 30, |_| {});
        let t_hash = hash.throughput_tps(10_000);
        let t_double = double.throughput_tps(10_000);
        assert!(
            t_double > t_hash * 1.15,
            "double {t_double} should beat hashing {t_hash} under skew"
        );
    }

    #[test]
    fn dynamic_converges_to_double_hashing_throughput() {
        let double = run(PolicySpec::DoubleHashing { s: 8 }, 1.2, 1_800.0, 60, |_| {});
        let dynamic = run(PolicySpec::Dynamic, 1.2, 1_800.0, 60, |_| {});
        let t_double = double.throughput_tps(30_000);
        let t_dyn = dynamic.throughput_tps(30_000);
        assert!(
            t_dyn > t_double * 0.85,
            "dynamic {t_dyn} should approach double hashing {t_double}"
        );
        assert!(dynamic.rules_committed > 0, "balancer must have acted");
    }

    #[test]
    fn dynamic_reduces_node_stddev_vs_hashing() {
        let hash = run(PolicySpec::Hashing, 1.2, 1_500.0, 40, |_| {});
        let dynamic = run(PolicySpec::Dynamic, 1.2, 1_500.0, 40, |_| {});
        assert!(
            dynamic.node_throughput_stddev() < hash.node_throughput_stddev(),
            "dynamic stddev {} should be below hashing {}",
            dynamic.node_throughput_stddev(),
            hash.node_throughput_stddev()
        );
    }

    #[test]
    fn old_records_keep_routing_to_base_shard_after_rule() {
        // Directly exercise the read-your-writes path inside the sim: run
        // dynamic long enough to commit rules, then verify the span covers
        // all shards that received the hot tenant's writes.
        let mut cfg = ClusterConfig::small(PolicySpec::Dynamic);
        cfg.monitor_period_ms = 1_000;
        let mut cluster = SimCluster::new(cfg.clone());
        let mut gen = TraceGenerator::new(1_000, 1.5, RateSchedule::constant(1_500.0), 7);
        for _ in 0..400 {
            let now = cluster.now();
            let events = gen.tick(now, cfg.tick_ms);
            cluster.step(events);
        }
        let hot = gen.tenant_of_rank(1);
        let span = cluster.read_span(hot);
        assert!(
            span.len > 1,
            "hot tenant must have been split, span {span:?}"
        );
        let report = cluster.finish();
        // Every shard with a meaningful share of the hot tenant's traffic
        // must be inside the span. (We can't attribute shard writes to
        // tenants in the report, so check the span is where the mass is:
        // shards in the span hold more writes than the policy's base alone
        // could.)
        let in_span: u64 = span
            .iter()
            .map(|s| report.per_shard_writes[s.index()])
            .sum();
        assert!(in_span > 0);
    }

    #[test]
    fn hotspot_isolation_protects_other_tenants() {
        // Without isolation, a saturated hot node head-of-line blocks the
        // shared dispatch queue and tanks everyone's completions.
        let with = run(PolicySpec::Hashing, 1.5, 1_900.0, 30, |c| {
            c.client.hotspot_isolation = true;
        });
        let without = run(PolicySpec::Hashing, 1.5, 1_900.0, 30, |c| {
            c.client.hotspot_isolation = false;
        });
        assert!(
            with.throughput_tps(10_000) > without.throughput_tps(10_000) * 1.05,
            "isolation {} vs blocking {}",
            with.throughput_tps(10_000),
            without.throughput_tps(10_000)
        );
    }

    #[test]
    fn physical_replication_raises_ceiling() {
        let logical = run(PolicySpec::DoubleHashing { s: 8 }, 0.5, 2_500.0, 30, |c| {
            c.replica_cost = 1.0;
        });
        let physical = run(PolicySpec::DoubleHashing { s: 8 }, 0.5, 2_500.0, 30, |c| {
            c.replica_cost = 0.3;
        });
        let t_log = logical.throughput_tps(10_000);
        let t_phy = physical.throughput_tps(10_000);
        assert!(
            t_phy > t_log * 1.2,
            "physical {t_phy} should beat logical {t_log}"
        );
        // And at a fixed feasible rate, utilization is lower.
        let log_lo = run(PolicySpec::DoubleHashing { s: 8 }, 0.5, 1_200.0, 20, |c| {
            c.replica_cost = 1.0;
        });
        let phy_lo = run(PolicySpec::DoubleHashing { s: 8 }, 0.5, 1_200.0, 20, |c| {
            c.replica_cost = 0.3;
        });
        let u_log: f64 = log_lo.per_node_utilization.iter().sum();
        let u_phy: f64 = phy_lo.per_node_utilization.iter().sum();
        assert!(u_phy < u_log, "physical util {u_phy} < logical {u_log}");
    }

    #[test]
    fn delays_grow_when_over_capacity() {
        let under = run(PolicySpec::DoubleHashing { s: 8 }, 1.0, 1_200.0, 20, |_| {});
        let over = run(PolicySpec::DoubleHashing { s: 8 }, 1.0, 4_000.0, 20, |_| {});
        assert!(over.avg_delay_ms(10_000) > under.avg_delay_ms(10_000) * 3.0);
    }

    #[test]
    fn telemetry_tracks_completions_and_consensus() {
        let cfg = ClusterConfig::small(PolicySpec::Dynamic);
        let mut cluster = SimCluster::new(cfg.clone());
        let mut gen = TraceGenerator::new(1_000, 1.2, RateSchedule::constant(1_500.0), 42);
        for _ in 0..300 {
            let now = cluster.now();
            let events = gen.tick(now, cfg.tick_ms);
            cluster.step(events);
        }
        let snap = cluster.telemetry_snapshot();
        // Per-node delay histograms: one per node, counts matching the
        // report's completions exactly.
        let mut delay_counts = 0u64;
        let mut delay_nodes = 0usize;
        for (name, labels, h) in &snap.histograms {
            if name == "esdb_sim_write_delay_ms" {
                assert!(labels.node.is_some());
                delay_counts += h.count();
                delay_nodes += 1;
            }
        }
        assert_eq!(delay_nodes, cfg.n_nodes as usize);
        let completed: u64 = cluster
            .report_so_far()
            .ticks
            .iter()
            .map(|t| t.completed)
            .sum();
        assert_eq!(delay_counts, completed);
        // Quantiles are monotone in q and bounded by the recorded max.
        for row in cluster.node_delay_quantiles(&[0.5, 0.9, 0.99]) {
            assert!(row[0] <= row[1] && row[1] <= row[2]);
        }
        // The dynamic run committed rules through consensus, and the
        // monitor's series rode along in the same registry.
        assert!(cluster.report_so_far().rules_committed > 0);
        assert!(snap
            .counters
            .iter()
            .any(|(n, l, v)| n == "esdb_consensus_rounds_total"
                && l.stage == Some("committed")
                && *v > 0));
        assert!(snap
            .counters
            .iter()
            .any(|(n, _, _)| n == "esdb_monitor_writes_total"));
        assert!(snap
            .counters
            .iter()
            .any(|(n, _, v)| n == "esdb_routing_spread_writes_total" && *v > 0));
    }

    #[test]
    fn crash_promotes_replicas_and_conserves_writes() {
        use esdb_chaos::ChaosEvent;
        let cfg = ClusterConfig::small(PolicySpec::DoubleHashing { s: 4 });
        let mut cluster = SimCluster::new(cfg.clone());
        // Kill node 1 at 5s, restart it at 15s.
        cluster.set_chaos_schedule(
            ChaosSchedule::new()
                .at(5_000, ChaosEvent::NodeCrash { node: 1 })
                .at(15_000, ChaosEvent::NodeRestart { node: 1 }),
        );
        let mut gen = TraceGenerator::new(100, 0.8, RateSchedule::constant(600.0), 11);
        let mut generated = 0u64;
        for _ in 0..250 {
            let now = cluster.now();
            let events = gen.tick(now, cfg.tick_ms);
            generated += events.len() as u64;
            cluster.step(events);
        }
        assert!(!cluster.controller.is_up(1) || cluster.now() > 15_000);
        cluster.drain(40_000);
        assert_eq!(cluster.backlog(), 0);
        let snap = cluster.telemetry_snapshot();
        let report = cluster.finish();
        assert_eq!(report.node_crashes, 1);
        assert_eq!(report.node_restarts, 1);
        // Every shard whose primary lived on node 1 promoted its replica
        // (node 1 owned at least one primary in round-robin placement).
        assert!(report.promotions > 0, "no promotions recorded");
        assert!(report.replayed_ops > 0, "promotions replayed nothing");
        assert_eq!(
            report.lost_acknowledged_writes, 0,
            "replica survived, nothing acknowledged may be lost"
        );
        assert!(
            report.write_retries > 0,
            "failover writes must have retried"
        );
        // Conservation with chaos: every generated write either completed
        // or failed back to the client after exhausting retries.
        let completed: u64 = report.ticks.iter().map(|t| t.completed).sum();
        assert_eq!(
            completed + report.failed_writes,
            generated,
            "writes are never silently dropped"
        );
        // Recovery telemetry made it into the shared registry.
        assert!(snap
            .counters
            .iter()
            .any(|(n, _, v)| n == "esdb_failover_promotions_total" && *v == report.promotions));
        assert!(snap
            .histograms
            .iter()
            .any(|(n, _, h)| n == "esdb_failover_promotion_ms" && h.count() == report.promotions));
        assert!(snap
            .histograms
            .iter()
            .any(|(n, _, h)| n == "esdb_sim_node_unavailability_ms" && h.count() == 1));
    }

    #[test]
    fn node_up_gauge_tracks_health() {
        use esdb_chaos::ChaosEvent;
        let cfg = ClusterConfig::small(PolicySpec::Hashing);
        let mut cluster = SimCluster::new(cfg.clone());
        cluster.set_chaos_schedule(
            ChaosSchedule::new()
                .at(1_000, ChaosEvent::NodeCrash { node: 2 })
                .at(3_000, ChaosEvent::NodeRestart { node: 2 }),
        );
        let gauge_for = |snap: &TelemetrySnapshot, node: u32| {
            snap.gauges
                .iter()
                .find(|(n, l, _)| n == "esdb_sim_node_up" && l.node == Some(node))
                .map(|(_, _, v)| *v)
        };
        for _ in 0..15 {
            cluster.step(Vec::new());
        }
        assert!(!cluster.controller.is_up(2));
        assert_eq!(gauge_for(&cluster.telemetry_snapshot(), 2), Some(0));
        assert_eq!(gauge_for(&cluster.telemetry_snapshot(), 0), Some(1));
        for _ in 0..20 {
            cluster.step(Vec::new());
        }
        assert!(cluster.controller.is_up(2));
        assert_eq!(gauge_for(&cluster.telemetry_snapshot(), 2), Some(1));
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        use esdb_chaos::ChaosProfile;
        let run_once = || {
            let cfg = ClusterConfig::small(PolicySpec::DoubleHashing { s: 4 });
            let mut cluster = SimCluster::new(cfg.clone());
            let profile = ChaosProfile::mild(cfg.n_nodes, 20_000);
            cluster.set_chaos_schedule(ChaosSchedule::seeded(7, &profile));
            let mut gen = TraceGenerator::new(100, 1.0, RateSchedule::constant(700.0), 5);
            for _ in 0..200 {
                let now = cluster.now();
                let events = gen.tick(now, cfg.tick_ms);
                cluster.step(events);
            }
            cluster.drain(30_000);
            let r = cluster.finish();
            (
                r.ticks.iter().map(|t| t.completed).sum::<u64>(),
                r.promotions,
                r.replayed_ops,
                r.write_retries,
                r.failed_writes,
                r.per_shard_writes.clone(),
            )
        };
        assert_eq!(run_once(), run_once(), "same seed, same outcome");
    }

    #[test]
    fn conservation_after_drain() {
        let cfg = ClusterConfig::small(PolicySpec::DoubleHashing { s: 4 });
        let mut cluster = SimCluster::new(cfg.clone());
        let mut gen = TraceGenerator::new(100, 1.0, RateSchedule::constant(800.0), 3);
        let mut generated = 0u64;
        for _ in 0..100 {
            let now = cluster.now();
            let events = gen.tick(now, cfg.tick_ms);
            generated += events.len() as u64;
            cluster.step(events);
        }
        cluster.drain(20_000);
        assert_eq!(cluster.backlog(), 0);
        let report = cluster.finish();
        let completed: u64 = report.ticks.iter().map(|t| t.completed).sum();
        assert_eq!(completed, generated, "every write eventually completes");
        let shard_total: u64 = report.per_shard_writes.iter().sum();
        assert_eq!(shard_total, generated);
    }
}
