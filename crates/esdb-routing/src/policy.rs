//! The three routing policies compared throughout the paper's evaluation.

use crate::rules::RuleList;
use crate::span::ShardSpan;
use esdb_common::hash::{h1, h2};
use esdb_common::{RecordId, ShardId, TenantId, TimestampMs};
use esdb_telemetry::{Counter, Labels, MetricsRegistry};
use parking_lot::RwLock;
use std::sync::Arc;

/// Identifies a policy in reports and figure output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// `p = h1(k1) mod N` — the no-balancing baseline.
    Hashing,
    /// `p = (h1(k1) + h2(k2) mod s) mod N` with static `s`.
    DoubleHashing,
    /// Eq. 2 with the workload-adaptive `L(k1)`.
    DynamicSecondaryHashing,
}

/// A routing policy: maps writes to shards and reads to shard spans.
pub trait RoutingPolicy: Send + Sync {
    /// Routes a write identified by `(k1, k2, tc)` to a shard.
    fn route_write(&self, k1: TenantId, k2: RecordId, tc: TimestampMs) -> ShardId;

    /// Routes a write that is about to be applied. A policy with a rule
    /// list also records `tc` as routed, under the same hold of the list
    /// it routes by, so a rule committed afterwards is never effective at
    /// or below it. Lookups that apply nothing use
    /// [`RoutingPolicy::route_write`].
    fn route_and_mark(&self, k1: TenantId, k2: RecordId, tc: TimestampMs) -> ShardId {
        self.route_write(k1, k2, tc)
    }

    /// The consecutive shard span a read for tenant `k1` at time `now` must
    /// cover.
    fn read_span(&self, k1: TenantId, now: TimestampMs) -> ShardSpan;

    /// Which of the paper's policies this is.
    fn kind(&self) -> PolicyKind;

    /// Ring size.
    fn shard_count(&self) -> u32;
}

/// Base shard of tenant `k1` on a ring of `n` shards.
#[inline]
pub(crate) fn base_shard(k1: TenantId, n: u32) -> u32 {
    h1(k1.raw()) % n
}

/// The double-hashing placement of Eq. 1/2 given maximum offset `s`.
#[inline]
pub fn place(k1: TenantId, k2: RecordId, s: u32, n: u32) -> ShardId {
    let offset = if s <= 1 { 0 } else { h2(k2.raw()) % s };
    ShardId((base_shard(k1, n) + offset) % n)
}

/// Plain hashing (Fig. 2a).
#[derive(Debug, Clone)]
pub struct HashRouting {
    n: u32,
}

impl HashRouting {
    /// Routing over `n` shards.
    pub fn new(n: u32) -> Self {
        assert!(n > 0);
        HashRouting { n }
    }
}

impl RoutingPolicy for HashRouting {
    fn route_write(&self, k1: TenantId, _k2: RecordId, _tc: TimestampMs) -> ShardId {
        ShardId(base_shard(k1, self.n))
    }

    fn read_span(&self, k1: TenantId, _now: TimestampMs) -> ShardSpan {
        ShardSpan::new(base_shard(k1, self.n), 1, self.n)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Hashing
    }

    fn shard_count(&self) -> u32 {
        self.n
    }
}

/// Double hashing with a static maximum offset `s` (Fig. 2b). The paper's
/// evaluation uses `s = 8` ("distributes data of each tenant to 8 shards").
#[derive(Debug, Clone)]
pub struct DoubleHashRouting {
    n: u32,
    s: u32,
}

impl DoubleHashRouting {
    /// Routing over `n` shards with static offset `s` (clamped to `1..=n`).
    pub fn new(n: u32, s: u32) -> Self {
        assert!(n > 0);
        DoubleHashRouting {
            n,
            s: s.clamp(1, n),
        }
    }
}

impl RoutingPolicy for DoubleHashRouting {
    fn route_write(&self, k1: TenantId, k2: RecordId, _tc: TimestampMs) -> ShardId {
        place(k1, k2, self.s, self.n)
    }

    fn read_span(&self, k1: TenantId, _now: TimestampMs) -> ShardSpan {
        ShardSpan::new(base_shard(k1, self.n), self.s, self.n)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::DoubleHashing
    }

    fn shard_count(&self) -> u32 {
        self.n
    }
}

/// Telemetry handles for the dynamic router: how many writes stayed on
/// the tenant's base shard versus being spread by an active rule — the
/// most direct observable of how much secondary hashing is doing.
#[derive(Debug)]
struct RouteCounters {
    base: Arc<Counter>,
    spread: Arc<Counter>,
}

/// Dynamic secondary hashing (Fig. 2c): the offset is looked up in the
/// shared, consensus-replicated [`RuleList`].
#[derive(Clone)]
pub struct DynamicRouting {
    n: u32,
    rules: Arc<RwLock<RuleList>>,
    counters: Option<Arc<RouteCounters>>,
}

impl DynamicRouting {
    /// Routing over `n` shards with an initially-empty rule list.
    pub fn new(n: u32) -> Self {
        assert!(n > 0);
        DynamicRouting {
            n,
            rules: Arc::new(RwLock::new(RuleList::new())),
            counters: None,
        }
    }

    /// Routing over `n` shards sharing an existing rule list (e.g. the copy
    /// a coordinator maintains from committed consensus decisions).
    pub fn with_rules(n: u32, rules: Arc<RwLock<RuleList>>) -> Self {
        assert!(n > 0);
        DynamicRouting {
            n,
            rules,
            counters: None,
        }
    }

    /// Enables `esdb_routing_{base,spread}_writes_total` counters in
    /// `registry` (handles are cached; per-write cost is one atomic add).
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> Self {
        self.counters = Some(Arc::new(RouteCounters {
            base: registry.counter("esdb_routing_base_writes_total", Labels::none()),
            spread: registry.counter("esdb_routing_spread_writes_total", Labels::none()),
        }));
        self
    }

    /// Shared handle to the rule list (the balancer writes through this).
    pub fn rules(&self) -> Arc<RwLock<RuleList>> {
        self.rules.clone()
    }

    fn place_by(&self, rules: &RuleList, k1: TenantId, k2: RecordId, tc: TimestampMs) -> ShardId {
        let s = rules.offset_for_write(k1, tc);
        if let Some(c) = &self.counters {
            if s > 1 {
                c.spread.inc();
            } else {
                c.base.inc();
            }
        }
        place(k1, k2, s.min(self.n), self.n)
    }
}

impl RoutingPolicy for DynamicRouting {
    fn route_write(&self, k1: TenantId, k2: RecordId, tc: TimestampMs) -> ShardId {
        self.place_by(&self.rules.read(), k1, k2, tc)
    }

    fn route_and_mark(&self, k1: TenantId, k2: RecordId, tc: TimestampMs) -> ShardId {
        let rules = self.rules.read();
        rules.mark_routed(tc);
        self.place_by(&rules, k1, k2, tc)
    }

    fn read_span(&self, k1: TenantId, now: TimestampMs) -> ShardSpan {
        let s = self.rules.read().offset_for_read(k1, now);
        ShardSpan::new(base_shard(k1, self.n), s.min(self.n), self.n)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::DynamicSecondaryHashing
    }

    fn shard_count(&self) -> u32 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hashing_is_stable_per_tenant() {
        let p = HashRouting::new(512);
        let a = p.route_write(TenantId(1), RecordId(1), 0);
        let b = p.route_write(TenantId(1), RecordId(999), 123);
        assert_eq!(a, b, "hashing ignores record id and time");
        assert_eq!(p.read_span(TenantId(1), 0).len, 1);
    }

    #[test]
    fn double_hashing_spreads_within_span() {
        let p = DoubleHashRouting::new(512, 8);
        let span = p.read_span(TenantId(42), 0);
        assert_eq!(span.len, 8);
        let mut seen = std::collections::HashSet::new();
        for k2 in 0..1000u64 {
            let s = p.route_write(TenantId(42), RecordId(k2), 0);
            assert!(span.contains(s), "write outside read span");
            seen.insert(s.0);
        }
        assert_eq!(seen.len(), 8, "1000 records should hit all 8 shards");
    }

    #[test]
    fn double_hashing_s1_equals_hashing() {
        let dh = DoubleHashRouting::new(64, 1);
        let h = HashRouting::new(64);
        for k in 0..100u64 {
            assert_eq!(
                dh.route_write(TenantId(k), RecordId(k * 7), 0),
                h.route_write(TenantId(k), RecordId(k * 7), 0)
            );
        }
    }

    #[test]
    fn telemetry_counts_base_vs_spread_routing() {
        let registry = MetricsRegistry::new();
        let p = DynamicRouting::new(64).with_telemetry(&registry);
        p.route_write(TenantId(9), RecordId(1), 100);
        p.rules().write().update(50, 8, TenantId(9));
        p.route_write(TenantId(9), RecordId(2), 100);
        p.route_write(TenantId(10), RecordId(3), 100);
        assert_eq!(
            registry.counter_value("esdb_routing_base_writes_total", Labels::none()),
            2
        );
        assert_eq!(
            registry.counter_value("esdb_routing_spread_writes_total", Labels::none()),
            1
        );
    }

    #[test]
    fn dynamic_grows_with_rules() {
        let p = DynamicRouting::new(64);
        assert_eq!(p.read_span(TenantId(9), 100).len, 1);
        p.rules().write().update(50, 8, TenantId(9));
        assert_eq!(p.read_span(TenantId(9), 100).len, 8);
        // Another tenant is unaffected.
        assert_eq!(p.read_span(TenantId(10), 100).len, 1);
    }

    #[test]
    fn dynamic_routes_old_records_with_old_rules() {
        let p = DynamicRouting::new(64);
        p.rules().write().update(100, 8, TenantId(3));
        // Record created before the rule must land on the base shard.
        let old = p.route_write(TenantId(3), RecordId(77), 90);
        assert_eq!(old.0, base_shard(TenantId(3), 64));
        // Records created after may spread.
        let span = p.read_span(TenantId(3), 200);
        let newer = p.route_write(TenantId(3), RecordId(78), 150);
        assert!(span.contains(newer));
    }

    #[test]
    fn offset_larger_than_ring_is_clamped() {
        let p = DynamicRouting::new(4);
        p.rules().write().update(0, 1024, TenantId(1));
        let span = p.read_span(TenantId(1), 10);
        assert_eq!(span.len, 4);
        let s = p.route_write(TenantId(1), RecordId(5), 10);
        assert!(span.contains(s));
    }

    proptest! {
        /// The fundamental safety property (read-your-writes, §4.2): any
        /// write routed at any time is inside the read span computed at any
        /// later time, for any sequence of committed rules.
        #[test]
        fn prop_reads_cover_writes(
            n in 1u32..256,
            updates in proptest::collection::vec((0u64..500, 0u32..8), 0..12),
            k1 in 0u64..50,
            k2 in 0u64..10_000,
            tc in 0u64..600,
            delay in 0u64..300,
        ) {
            let p = DynamicRouting::new(n);
            {
                let rules = p.rules();
                let mut g = rules.write();
                for (t, se) in updates {
                    g.update(t, 1 << se, TenantId(k1));
                }
            }
            let shard = p.route_write(TenantId(k1), RecordId(k2), tc);
            let span = p.read_span(TenantId(k1), tc + delay);
            prop_assert!(span.contains(shard),
                "write shard {shard:?} outside read span {span:?}");
        }

        /// Same property for static double hashing (sanity baseline).
        #[test]
        fn prop_double_hashing_reads_cover_writes(
            n in 1u32..256, s in 1u32..16, k1 in 0u64..100, k2 in 0u64..10_000
        ) {
            let p = DoubleHashRouting::new(n, s);
            let shard = p.route_write(TenantId(k1), RecordId(k2), 0);
            prop_assert!(p.read_span(TenantId(k1), 0).contains(shard));
        }
    }
}
