//! The flight-recorder event journal: a bounded, striped ring of typed,
//! monotonically-sequenced events describing *decisions* the engine made
//! — hot-tenant detections, rule-list appends, rebalance epochs, replica
//! promotions, segment maintenance, cache sweeps, chaos fault firings.
//!
//! Metrics answer "how much / how slow"; the journal answers "*why* did
//! the balancer/failover controller do what it did, and in what
//! order". Every event carries a process-unique sequence number from
//! one atomic counter (a strict total order across all emitting
//! threads) and an optional causal `parent_seq` linking it to the event
//! that triggered it — a rule append points back at the hot-tenant
//! detection, a promotion completion at the translog replay that fed
//! it.
//!
//! # Concurrency & bounds
//!
//! Emission is sharded-mutex, contended-path-only: the sequence number
//! is one relaxed `fetch_add`, and the event lands in stripe
//! `seq % STRIPES`, so concurrent emitters only contend when they
//! collide on a stripe. Each stripe holds at most
//! `ceil(capacity / STRIPES)` events and evicts its oldest on overflow,
//! which gives two guarantees the proptests pin down:
//!
//! * **No lost events below capacity** — a run that emits at most
//!   `capacity` events never evicts: seqs `1..=capacity` spread exactly
//!   evenly across stripes, so no stripe exceeds its bound.
//! * **Bounded memory at capacity** — total retention never exceeds
//!   `STRIPES * ceil(capacity / STRIPES) < capacity + STRIPES`.
//!
//! Eviction is *explicit*: the journal tracks the highest evicted
//! sequence number, so a `parent_seq` that no longer resolves in the
//! ring can still be classified as "evicted" rather than dangling
//! ([`unresolved_parents`]).

use crate::json::{obj, Json};
use crate::registry::Labels;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sentinel `parent_seq` for root events (sequences start at 1).
pub const NO_PARENT: u64 = 0;

/// What happened. Payload fields are the decision inputs/outputs worth
/// replaying, not raw metrics (those live in the registry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The balancer flagged a tenant as hot (Algorithm 1 runtime phase).
    HotTenantDetected {
        /// The hot tenant.
        tenant: u64,
        /// Throughput/storage proportion that tripped the check, in ppm.
        proportion_ppm: u64,
        /// Offset size the balancer proposes for it.
        proposed_offset: u32,
    },
    /// A secondary-hashing rule was appended to the rule list.
    RuleAppended {
        /// Tenant the rule covers.
        tenant: u64,
        /// Shard span before the append.
        old_span: u32,
        /// Shard span after the append.
        new_span: u32,
        /// Time spent waiting to commit the rule (ns): the write-lock
        /// acquisition + rule-list update window.
        commit_wait_ns: u64,
    },
    /// A rule commit opened a live migration: the hot tenant's existing
    /// rows will be handed off to the widened span.
    MigrationStarted {
        /// Tenant being migrated.
        tenant: u64,
        /// Shard span before the rule.
        old_span: u32,
        /// Shard span after the rule.
        new_span: u32,
        /// Rule activation timestamp (ms): commit time + commit-wait.
        effective_time: u64,
    },
    /// The handoff built and staged shipped segments for the widened span.
    MigrationSegmentsShipped {
        /// Tenant being migrated.
        tenant: u64,
        /// Destination segments built (one per shard gaining rows).
        segments: u32,
        /// Rows changing placement.
        rows: u64,
        /// Approximate payload bytes shipped.
        bytes: u64,
    },
    /// The bounded translog tail captured during handoff was drained.
    MigrationTailDrained {
        /// Tenant being migrated.
        tenant: u64,
        /// Tail ops re-applied at the new placement.
        ops: u64,
    },
    /// Cutover: shipped segments adopted, tail applied, sources
    /// tombstoned, routing switched to the new placement.
    MigrationCutover {
        /// Tenant being migrated.
        tenant: u64,
        /// Rows whose placement changed.
        rows_moved: u64,
        /// Tail ops applied during cutover.
        tail_ops: u64,
        /// Write-barrier + adoption + tombstone window (ns).
        cutover_ns: u64,
    },
    /// The migration finished; the old span fully collapsed.
    MigrationCompleted {
        /// Tenant migrated.
        tenant: u64,
        /// Span before the migration.
        old_span: u32,
        /// Span now serving all of the tenant's rows.
        new_span: u32,
    },
    /// The migration was aborted; staged state was dropped and the
    /// balancer may re-propose.
    MigrationAborted {
        /// Tenant whose migration aborted.
        tenant: u64,
        /// Lifecycle phase the abort happened in.
        phase: &'static str,
    },
    /// A writer won the CAS and claimed a rebalance epoch.
    RebalanceEpochClaimed {
        /// The claimed epoch number.
        epoch: u64,
    },
    /// The claimed rebalance epoch finished.
    RebalanceEpochCompleted {
        /// The epoch number.
        epoch: u64,
        /// Rules committed during the pass.
        rules_committed: u32,
    },
    /// A chaos schedule fired a fault.
    ChaosFaultInjected {
        /// Fault kind (`"node_crash"`, `"node_restart"`, ...).
        fault: &'static str,
        /// Node the fault targeted.
        node: u32,
    },
    /// A node was marked down.
    NodeCrashed {
        /// The crashed node.
        node: u32,
    },
    /// A node came back up.
    NodeRestarted {
        /// The restarted node.
        node: u32,
        /// How long it was down (ms).
        downtime_ms: u64,
    },
    /// A replica began promotion to primary for a shard.
    PromotionStarted {
        /// Shard being promoted.
        shard: u32,
        /// Node whose crash triggered the promotion.
        crashed_node: u32,
    },
    /// Translog tail replay performed by a promotion or resync.
    TranslogReplayed {
        /// Shard replayed into.
        shard: u32,
        /// Ops replayed.
        ops: u64,
    },
    /// A promotion finished; the shard serves writes again.
    PromotionCompleted {
        /// The promoted shard.
        shard: u32,
        /// Ops replayed from the translog tail.
        replayed_ops: u64,
        /// Crash → serving latency (ms).
        latency_ms: u64,
    },
    /// Ops replayed to rebuild a replica on a surviving node.
    ReplicaResynced {
        /// Ops replayed.
        ops: u64,
    },
    /// A refresh made buffered writes searchable.
    SegmentRefresh {
        /// The refreshed shard.
        shard: u32,
        /// Searchable segments after the refresh.
        segments: u32,
    },
    /// A merge folded segments.
    SegmentMerge {
        /// The merged shard.
        shard: u32,
        /// Segments merged away.
        merged: u32,
        /// Searchable segments after the merge.
        segments: u32,
    },
    /// A flush persisted in-memory state and rolled the translog.
    SegmentFlush {
        /// The flushed shard.
        shard: u32,
        /// Searchable segments at flush.
        segments: u32,
    },
    /// A cache-eviction sweep reaped stale entries.
    CacheSweep {
        /// Entries evicted by the sweep.
        evicted: u64,
        /// Entries resident after the sweep.
        entries: u64,
    },
    /// The network front-end's admission controller started admitting a
    /// tenant again (journaled on the transition back from a throttle or
    /// shed spell, not per request — steady-state admits are the fast
    /// path).
    ServerAdmit {
        /// The re-admitted tenant.
        tenant: u64,
    },
    /// The admission controller started rejecting a tenant's requests
    /// with 429 (journaled on the transition into the throttled state).
    ServerThrottle {
        /// The throttled tenant.
        tenant: u64,
        /// Why: `"rate"` (token bucket empty) or `"quota"` (per-tenant
        /// in-flight ceiling).
        reason: &'static str,
        /// Suggested client back-off (ms).
        retry_after_ms: u64,
    },
    /// The admission controller started shedding a hot tenant under
    /// overload (journaled on the transition into the shed state).
    ServerShed {
        /// The shed tenant.
        tenant: u64,
        /// The tenant's traffic proportion that made it the shedding
        /// victim, in ppm (the same skew signal the balancer uses).
        proportion_ppm: u64,
    },
    /// Graceful shutdown began: the server stopped accepting and started
    /// draining in-flight requests.
    ServerDrainStarted {
        /// Requests in flight when the drain began.
        in_flight: u32,
    },
    /// Graceful shutdown finished: every in-flight request completed.
    ServerDrainCompleted {
        /// Requests that were in flight at drain start and completed.
        drained: u32,
        /// Requests refused with 503 while draining.
        refused: u64,
    },
}

impl EventKind {
    /// Stable snake_case name used in JSON exposition.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::HotTenantDetected { .. } => "hot_tenant_detected",
            EventKind::RuleAppended { .. } => "rule_appended",
            EventKind::MigrationStarted { .. } => "migration_started",
            EventKind::MigrationSegmentsShipped { .. } => "migration_segments_shipped",
            EventKind::MigrationTailDrained { .. } => "migration_tail_drained",
            EventKind::MigrationCutover { .. } => "migration_cutover",
            EventKind::MigrationCompleted { .. } => "migration_completed",
            EventKind::MigrationAborted { .. } => "migration_aborted",
            EventKind::RebalanceEpochClaimed { .. } => "rebalance_epoch_claimed",
            EventKind::RebalanceEpochCompleted { .. } => "rebalance_epoch_completed",
            EventKind::ChaosFaultInjected { .. } => "chaos_fault_injected",
            EventKind::NodeCrashed { .. } => "node_crashed",
            EventKind::NodeRestarted { .. } => "node_restarted",
            EventKind::PromotionStarted { .. } => "promotion_started",
            EventKind::TranslogReplayed { .. } => "translog_replayed",
            EventKind::PromotionCompleted { .. } => "promotion_completed",
            EventKind::ReplicaResynced { .. } => "replica_resynced",
            EventKind::SegmentRefresh { .. } => "segment_refresh",
            EventKind::SegmentMerge { .. } => "segment_merge",
            EventKind::SegmentFlush { .. } => "segment_flush",
            EventKind::CacheSweep { .. } => "cache_sweep",
            EventKind::ServerAdmit { .. } => "server_admit",
            EventKind::ServerThrottle { .. } => "server_throttle",
            EventKind::ServerShed { .. } => "server_shed",
            EventKind::ServerDrainStarted { .. } => "server_drain_started",
            EventKind::ServerDrainCompleted { .. } => "server_drain_completed",
        }
    }

    /// The payload as one JSON object.
    fn data(&self) -> Json {
        // Each payload field renders under its own name.
        macro_rules! fields {
            ($($f:ident),*) => {
                obj(vec![$((stringify!($f), $f.into())),*])
            };
        }
        match *self {
            EventKind::HotTenantDetected {
                tenant,
                proportion_ppm,
                proposed_offset,
            } => fields!(tenant, proportion_ppm, proposed_offset),
            EventKind::RuleAppended {
                tenant,
                old_span,
                new_span,
                commit_wait_ns,
            } => fields!(tenant, old_span, new_span, commit_wait_ns),
            EventKind::MigrationStarted {
                tenant,
                old_span,
                new_span,
                effective_time,
            } => fields!(tenant, old_span, new_span, effective_time),
            EventKind::MigrationSegmentsShipped {
                tenant,
                segments,
                rows,
                bytes,
            } => fields!(tenant, segments, rows, bytes),
            EventKind::MigrationTailDrained { tenant, ops } => fields!(tenant, ops),
            EventKind::MigrationCutover {
                tenant,
                rows_moved,
                tail_ops,
                cutover_ns,
            } => fields!(tenant, rows_moved, tail_ops, cutover_ns),
            EventKind::MigrationCompleted {
                tenant,
                old_span,
                new_span,
            } => fields!(tenant, old_span, new_span),
            EventKind::MigrationAborted { tenant, phase } => fields!(tenant, phase),
            EventKind::RebalanceEpochClaimed { epoch } => fields!(epoch),
            EventKind::RebalanceEpochCompleted {
                epoch,
                rules_committed,
            } => fields!(epoch, rules_committed),
            EventKind::ChaosFaultInjected { fault, node } => fields!(fault, node),
            EventKind::NodeCrashed { node } => fields!(node),
            EventKind::NodeRestarted { node, downtime_ms } => fields!(node, downtime_ms),
            EventKind::PromotionStarted {
                shard,
                crashed_node,
            } => fields!(shard, crashed_node),
            EventKind::TranslogReplayed { shard, ops } => fields!(shard, ops),
            EventKind::PromotionCompleted {
                shard,
                replayed_ops,
                latency_ms,
            } => fields!(shard, replayed_ops, latency_ms),
            EventKind::ReplicaResynced { ops } => fields!(ops),
            EventKind::SegmentRefresh { shard, segments } => fields!(shard, segments),
            EventKind::SegmentMerge {
                shard,
                merged,
                segments,
            } => fields!(shard, merged, segments),
            EventKind::SegmentFlush { shard, segments } => fields!(shard, segments),
            EventKind::CacheSweep { evicted, entries } => fields!(evicted, entries),
            EventKind::ServerAdmit { tenant } => fields!(tenant),
            EventKind::ServerThrottle {
                tenant,
                reason,
                retry_after_ms,
            } => fields!(tenant, reason, retry_after_ms),
            EventKind::ServerShed {
                tenant,
                proportion_ppm,
            } => fields!(tenant, proportion_ppm),
            EventKind::ServerDrainStarted { in_flight } => fields!(in_flight),
            EventKind::ServerDrainCompleted { drained, refused } => fields!(drained, refused),
        }
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Process-unique sequence number (strictly monotone, starts at 1).
    pub seq: u64,
    /// Sequence of the event that caused this one, or [`NO_PARENT`].
    pub parent_seq: u64,
    /// `{tenant, shard, node, stage}` labels, same axes as metrics.
    pub labels: Labels,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The event as one JSON object: `seq`, `parent_seq`, `kind`,
    /// `labels` and the payload under `data`.
    pub(crate) fn to_json(&self) -> Json {
        obj(vec![
            ("seq", self.seq.into()),
            ("parent_seq", self.parent_seq.into()),
            ("kind", self.kind.name().into()),
            ("labels", self.labels.to_json()),
            ("data", self.kind.data()),
        ])
    }
}

/// Emission stripes. Power of two; `seq % STRIPES` picks the stripe.
const STRIPES: usize = 8;

/// The bounded event journal. See the module docs for the concurrency
/// and eviction model.
#[derive(Debug)]
pub struct Journal {
    /// Per-stripe bound (`ceil(capacity / STRIPES)`); 0 disables.
    per_stripe: usize,
    stripes: Vec<Mutex<VecDeque<Event>>>,
    next_seq: AtomicU64,
    /// Highest sequence number ever evicted (0 = none).
    evicted_max: AtomicU64,
}

impl Journal {
    /// A journal retaining roughly `capacity` events (rounded up to a
    /// multiple of the stripe count). Capacity 0 disables emission
    /// entirely — [`Journal::emit`] becomes one branch.
    pub fn new(capacity: usize) -> Self {
        Journal {
            per_stripe: capacity.div_ceil(STRIPES),
            stripes: (0..STRIPES).map(|_| Mutex::new(VecDeque::new())).collect(),
            next_seq: AtomicU64::new(1),
            evicted_max: AtomicU64::new(0),
        }
    }

    /// Emits an event, returning its sequence number for use as a
    /// child's `parent_seq`. Returns [`NO_PARENT`] when disabled, so a
    /// chain emitted against a disabled journal degrades to roots.
    pub fn emit(&self, kind: EventKind, labels: Labels, parent_seq: u64) -> u64 {
        if self.per_stripe == 0 {
            return NO_PARENT;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            parent_seq,
            labels,
            kind,
        };
        let mut stripe = self.stripes[(seq % STRIPES as u64) as usize]
            .lock()
            .expect("journal stripe");
        if stripe.len() == self.per_stripe {
            if let Some(old) = stripe.pop_front() {
                self.evicted_max.fetch_max(old.seq, Ordering::Relaxed);
            }
        }
        stripe.push_back(event);
        seq
    }

    /// Events currently retained, sorted by sequence number.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(stripe.lock().expect("journal stripe").iter().cloned());
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The last `n` retained events, sorted by sequence number.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let mut all = self.snapshot();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Highest sequence number ever evicted (0 = no eviction yet). A
    /// `parent_seq` at or below this is "explicitly evicted", not
    /// dangling.
    pub fn evicted_max(&self) -> u64 {
        self.evicted_max.load(Ordering::Relaxed)
    }
}

/// Causal-link integrity check: returns the `parent_seq` values in
/// `events` that neither resolve to a retained event nor fall at or
/// below the eviction watermark. Empty = every link accounted for.
pub fn unresolved_parents(events: &[Event], evicted_max: u64) -> Vec<u64> {
    let seqs: std::collections::HashSet<u64> = events.iter().map(|e| e.seq).collect();
    let mut bad: Vec<u64> = events
        .iter()
        .map(|e| e.parent_seq)
        .filter(|&p| p != NO_PARENT && !seqs.contains(&p) && p > evicted_max)
        .collect();
    bad.sort_unstable();
    bad.dedup();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqs_are_monotone_and_events_retained_below_capacity() {
        let j = Journal::new(64);
        let mut seqs = Vec::new();
        for n in 0..40u32 {
            seqs.push(j.emit(EventKind::NodeCrashed { node: n }, Labels::node(n), 0));
        }
        assert!(seqs.windows(2).all(|w| w[1] > w[0]));
        let snap = j.snapshot();
        assert_eq!(snap.len(), 40, "no eviction below capacity");
        assert_eq!(j.evicted_max(), 0);
        assert!(snap.windows(2).all(|w| w[1].seq > w[0].seq));
    }

    #[test]
    fn eviction_is_bounded_and_watermarked() {
        let j = Journal::new(16);
        for n in 0..200u32 {
            j.emit(EventKind::NodeCrashed { node: n }, Labels::none(), 0);
        }
        assert!(j.snapshot().len() <= 16 + STRIPES);
        assert!(j.evicted_max() > 0);
        // Everything retained is newer than everything evicted... per
        // stripe; globally the watermark bounds the oldest *possible*
        // unresolved parent.
        let snap = j.snapshot();
        assert!(unresolved_parents(&snap, j.evicted_max()).is_empty());
    }

    #[test]
    fn parent_links_resolve_or_report() {
        let j = Journal::new(32);
        let a = j.emit(
            EventKind::HotTenantDetected {
                tenant: 7,
                proportion_ppm: 500_000,
                proposed_offset: 8,
            },
            Labels::tenant(7),
            0,
        );
        let b = j.emit(
            EventKind::RuleAppended {
                tenant: 7,
                old_span: 1,
                new_span: 8,
                commit_wait_ns: 1_200,
            },
            Labels::tenant(7),
            a,
        );
        assert!(b > a);
        let snap = j.snapshot();
        assert!(unresolved_parents(&snap, j.evicted_max()).is_empty());
        // A fabricated dangling parent is reported.
        let mut broken = snap.clone();
        broken[1].parent_seq = 9_999;
        assert_eq!(unresolved_parents(&broken, j.evicted_max()), vec![9_999]);
    }

    #[test]
    fn disabled_journal_emits_nothing() {
        let j = Journal::new(0);
        assert_eq!(
            j.emit(EventKind::NodeCrashed { node: 0 }, Labels::none(), 0),
            NO_PARENT
        );
        assert!(j.snapshot().is_empty());
    }

    #[test]
    fn event_json_is_stable() {
        let e = Event {
            seq: 3,
            parent_seq: 1,
            labels: Labels::tenant(9).with_shard(2),
            kind: EventKind::RuleAppended {
                tenant: 9,
                old_span: 1,
                new_span: 4,
                commit_wait_ns: 77,
            },
        };
        let json = crate::json::parse(&e.to_json().to_text()).expect("event json");
        assert_eq!(
            json,
            crate::json::parse(
                r#"{"seq": 3, "parent_seq": 1, "kind": "rule_appended",
                    "labels": {"tenant": 9, "shard": 2},
                    "data": {"tenant": 9, "old_span": 1, "new_span": 4, "commit_wait_ns": 77}}"#
            )
            .unwrap()
        );
    }
}
