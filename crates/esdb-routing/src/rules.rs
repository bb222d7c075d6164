//! The secondary hashing rule list (paper §4.2, Algorithms 1–2).
//!
//! Each rule is a tuple `(t, s, k_list)`: from effective time `t` on, the
//! tenants in `k_list` use maximum secondary offset `s`. The list is
//! **append-only** — this is what lets the consensus layer (paper §4.3)
//! avoid full state-machine replication: rules are naturally ordered by
//! effective time, so agreement reduces to a commit/abort decision per rule.
//!
//! Matching (paper §4.2): a write with routing triple `(k1, k2, tc)` uses
//! the rule with the **largest `s`** among rules where `t < tc` (rule
//! effective strictly before the record's creation time) and `k1 ∈ k_list`.
//! A read at time `now` uses the largest `s` among rules with `t ≤ now`
//! containing `k1`. Because every rule for a tenant shares the same base
//! shard `h1(k1) mod N` and offsets are consecutive, the read span with the
//! maximal `s` covers every shard any historical write could have landed
//! on — that is the read-your-writes guarantee, property-tested below.

use esdb_common::fastmap::{fast_map, FastMap};
use esdb_common::{TenantId, TimestampMs};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// One secondary hashing rule `(t, s, k_list)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecondaryHashingRule {
    /// Effective time: writes of records created strictly after `t` may use
    /// this rule.
    pub effective_time: TimestampMs,
    /// Maximum secondary-hash offset (the paper restricts these to powers
    /// of two to bound rule-list growth; the list itself accepts any `s`).
    pub offset: u32,
    /// Tenants adopting `offset` from `effective_time` on.
    pub tenants: Vec<TenantId>,
}

/// Append-only list of secondary hashing rules with a per-tenant lookup
/// index for O(rules-per-tenant) matching.
///
/// ```
/// use esdb_routing::RuleList;
/// use esdb_common::TenantId;
///
/// let mut rules = RuleList::new();
/// // At t=100, tenant 7 grows to 8 consecutive shards.
/// rules.update(100, 8, TenantId(7));
/// // Records created before (or at) the effective time keep the old
/// // placement; later records spread.
/// assert_eq!(rules.offset_for_write(TenantId(7), 100), 1);
/// assert_eq!(rules.offset_for_write(TenantId(7), 101), 8);
/// // Reads at/after the effective time cover the full span.
/// assert_eq!(rules.offset_for_read(TenantId(7), 100), 8);
/// ```
#[derive(Debug, Default)]
pub struct RuleList {
    /// All rules in insertion order (the wire/consensus representation).
    rules: Vec<SecondaryHashingRule>,
    /// Per-tenant `(effective_time, offset)` pairs, kept sorted by
    /// effective time.
    by_tenant: FastMap<TenantId, Vec<(TimestampMs, u32)>>,
    /// Largest offset per tenant whose historical data has been
    /// physically migrated to the widened span. Write matching for a
    /// migrated tenant ignores the `t < tc` condition up to this offset:
    /// pre-rule records now *live* at their new-span placement, so point
    /// ops on them must route there.
    migrated: FastMap<TenantId, u32>,
    /// Largest `created_at` a write has been routed with. Writers raise
    /// it under the read lock they route under; a rule is committed
    /// under the write lock above it, so no rule can take effect at or
    /// below a record that was already routed by the older list.
    routed: AtomicU64,
}

impl RuleList {
    /// An empty rule list (every tenant implicitly has `s = 1`).
    pub fn new() -> Self {
        RuleList {
            rules: Vec::new(),
            by_tenant: fast_map(),
            migrated: fast_map(),
            routed: AtomicU64::new(0),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All rules in insertion order.
    pub fn rules(&self) -> &[SecondaryHashingRule] {
        &self.rules
    }

    /// `UpdateRuleList` (paper Algorithm 2): if a rule with the same
    /// `(t, s)` exists, append `k` to its tenant list; otherwise insert a
    /// new rule `(t, s, [k])`.
    pub fn update(&mut self, t: TimestampMs, s: u32, k: TenantId) {
        if let Some(rule) = self
            .rules
            .iter_mut()
            .find(|r| r.effective_time == t && r.offset == s)
        {
            if rule.tenants.contains(&k) {
                // Idempotent: a re-delivered commit must not duplicate the
                // tenant-index entry either.
                return;
            }
            rule.tenants.push(k);
        } else {
            self.rules.push(SecondaryHashingRule {
                effective_time: t,
                offset: s,
                tenants: vec![k],
            });
        }
        let entry = self.by_tenant.entry(k).or_default();
        let pos = entry.partition_point(|&(et, _)| et <= t);
        entry.insert(pos, (t, s));
    }

    /// Marks a tenant's data as physically migrated up to `offset`: every
    /// record the tenant wrote *before* the rule with that offset became
    /// effective now lives at its new-span placement, so write matching
    /// stops honoring the `t < tc` cutoff below `offset`. Monotone (only
    /// ever grows) and idempotent. Returns whether the marking changed.
    pub fn mark_migrated(&mut self, k1: TenantId, offset: u32) -> bool {
        let cur = self.migrated.get(&k1).copied().unwrap_or(1);
        if offset <= cur {
            return false;
        }
        self.migrated.insert(k1, offset);
        true
    }

    /// The largest offset the tenant's historical data has been migrated
    /// to (`1` = nothing migrated; records live where their creation-time
    /// rule matching put them).
    pub(crate) fn migrated_offset(&self, k1: TenantId) -> u32 {
        self.migrated.get(&k1).copied().unwrap_or(1)
    }

    /// Inserts a whole committed rule (used when applying a consensus
    /// decision that carries a multi-tenant rule).
    pub fn insert_rule(&mut self, rule: SecondaryHashingRule) {
        for &k in &rule.tenants {
            self.update(rule.effective_time, rule.offset, k);
        }
    }

    /// Write matching (§4.2): largest `s` among rules with `t < tc` that
    /// contain `k1`; `1` when no rule matches (cold tenant ⇒ plain hashing).
    ///
    /// A completed migration overrides the time cutoff: once
    /// [`RuleList::mark_migrated`] records offset `m` for the tenant, the
    /// result is at least `m` regardless of `tc`, because the tenant's
    /// pre-rule records were physically moved to their `m`-span placement.
    pub fn offset_for_write(&self, k1: TenantId, tc: TimestampMs) -> u32 {
        let time_matched = self
            .by_tenant
            .get(&k1)
            .map(|entries| {
                entries
                    .iter()
                    .take_while(|&&(t, _)| t < tc)
                    .map(|&(_, s)| s)
                    .max()
                    .unwrap_or(1)
            })
            .unwrap_or(1);
        time_matched.max(self.migrated_offset(k1))
    }

    /// Read matching: largest `s` among rules effective at or before `now`
    /// that contain `k1`.
    pub fn offset_for_read(&self, k1: TenantId, now: TimestampMs) -> u32 {
        self.by_tenant
            .get(&k1)
            .map(|entries| {
                entries
                    .iter()
                    .take_while(|&&(t, _)| t <= now)
                    .map(|&(_, s)| s)
                    .max()
                    .unwrap_or(1)
            })
            .unwrap_or(1)
    }

    /// Records that a write with creation time `tc` is being routed by
    /// this list (see [`RuleList::routed_high_water`]).
    pub(crate) fn mark_routed(&self, tc: TimestampMs) {
        self.routed.fetch_max(tc, Ordering::Relaxed);
    }

    /// Largest creation time any write has been routed with. Read under
    /// the write lock, it bounds every record the current list placed:
    /// a rule effective after it moves none of them.
    pub fn routed_high_water(&self) -> TimestampMs {
        self.routed.load(Ordering::Relaxed)
    }

    /// Latest effective time in the list (used by consensus participants to
    /// validate that a proposed rule is in their future).
    pub fn max_effective_time(&self) -> Option<TimestampMs> {
        self.rules.iter().map(|r| r.effective_time).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_list_defaults_to_one() {
        let r = RuleList::new();
        assert_eq!(r.offset_for_write(TenantId(1), 100), 1);
        assert_eq!(r.offset_for_read(TenantId(1), 100), 1);
    }

    #[test]
    fn algorithm2_appends_to_matching_rule() {
        let mut r = RuleList::new();
        r.update(100, 4, TenantId(1));
        r.update(100, 4, TenantId(2));
        assert_eq!(r.len(), 1, "same (t,s) must share one rule");
        assert_eq!(r.rules()[0].tenants, vec![TenantId(1), TenantId(2)]);
        r.update(100, 8, TenantId(3));
        assert_eq!(r.len(), 2, "different s must create a new rule");
    }

    #[test]
    fn duplicate_tenant_in_same_rule_is_idempotent() {
        let mut r = RuleList::new();
        r.update(100, 4, TenantId(1));
        r.update(100, 4, TenantId(1));
        assert_eq!(r.rules()[0].tenants.len(), 1);
        // The tenant index must not accumulate duplicates either.
        assert_eq!(r.by_tenant.get(&TenantId(1)).map(Vec::len), Some(1));
    }

    #[test]
    fn write_matching_is_strictly_before_creation() {
        let mut r = RuleList::new();
        r.update(100, 4, TenantId(1));
        // Record created exactly at the effective time must NOT use the rule
        // (paper condition: t earlier than tc).
        assert_eq!(r.offset_for_write(TenantId(1), 100), 1);
        assert_eq!(r.offset_for_write(TenantId(1), 101), 4);
        assert_eq!(r.offset_for_write(TenantId(1), 99), 1);
    }

    #[test]
    fn read_matching_is_inclusive() {
        let mut r = RuleList::new();
        r.update(100, 4, TenantId(1));
        assert_eq!(r.offset_for_read(TenantId(1), 99), 1);
        assert_eq!(r.offset_for_read(TenantId(1), 100), 4);
    }

    #[test]
    fn largest_s_wins_among_eligible_rules() {
        let mut r = RuleList::new();
        r.update(100, 8, TenantId(1));
        r.update(200, 4, TenantId(1)); // shrink attempt
                                       // After both rules are effective, the larger historical s still
                                       // governs: this is what keeps shrunken reads covering old writes.
        assert_eq!(r.offset_for_write(TenantId(1), 300), 8);
        assert_eq!(r.offset_for_read(TenantId(1), 300), 8);
        // Between the two, only the first applies.
        assert_eq!(r.offset_for_write(TenantId(1), 150), 8);
    }

    #[test]
    fn rules_are_per_tenant() {
        let mut r = RuleList::new();
        r.update(100, 16, TenantId(7));
        assert_eq!(r.offset_for_write(TenantId(8), 200), 1);
        assert_eq!(r.offset_for_write(TenantId(7), 200), 16);
    }

    #[test]
    fn insert_rule_applies_all_tenants() {
        let mut r = RuleList::new();
        r.insert_rule(SecondaryHashingRule {
            effective_time: 50,
            offset: 2,
            tenants: vec![TenantId(1), TenantId(2)],
        });
        assert_eq!(r.offset_for_write(TenantId(1), 60), 2);
        assert_eq!(r.offset_for_write(TenantId(2), 60), 2);
        assert_eq!(r.max_effective_time(), Some(50));
    }

    #[test]
    fn migration_marking_reroutes_old_records() {
        let mut r = RuleList::new();
        r.update(100, 8, TenantId(1));
        // Pre-rule record: old placement while data has not moved.
        assert_eq!(r.offset_for_write(TenantId(1), 50), 1);
        assert!(r.mark_migrated(TenantId(1), 8));
        // After the migration completes, the same routing triple resolves
        // to the widened span — the record physically lives there now.
        assert_eq!(r.offset_for_write(TenantId(1), 50), 8);
        assert_eq!(r.migrated_offset(TenantId(1)), 8);
        // Reads were already covering the span; still are.
        assert_eq!(r.offset_for_read(TenantId(1), 100), 8);
        // Other tenants unaffected.
        assert_eq!(r.offset_for_write(TenantId(2), 50), 1);
    }

    #[test]
    fn migration_marking_is_monotone() {
        let mut r = RuleList::new();
        r.update(100, 4, TenantId(1));
        assert!(r.mark_migrated(TenantId(1), 4));
        // Idempotent / shrink attempts change nothing.
        assert!(!r.mark_migrated(TenantId(1), 4));
        assert!(!r.mark_migrated(TenantId(1), 2));
        assert_eq!(r.migrated_offset(TenantId(1)), 4);
    }

    proptest! {
        /// Migration marking never shrinks the write offset and never
        /// breaks read-your-writes: the read offset still dominates for
        /// any `(tc, now)` pair, because a marked offset always comes
        /// from a committed rule the read matching already honors.
        #[test]
        fn prop_migration_marking_preserves_read_your_writes(
            updates in proptest::collection::vec((0u64..1000, 0u32..6), 1..12),
            mark_idx in 0usize..12,
            tc in 0u64..1200,
        ) {
            let mut r = RuleList::new();
            for (t, s_exp) in &updates {
                r.update(*t, 1 << s_exp, TenantId(9));
            }
            let before = r.offset_for_write(TenantId(9), tc);
            // Mark one committed rule's offset as migrated.
            let (_, s_exp) = updates[mark_idx % updates.len()];
            r.mark_migrated(TenantId(9), 1 << s_exp);
            let after = r.offset_for_write(TenantId(9), tc);
            prop_assert!(after >= before, "marking shrank the write offset");
            // Reads at any time >= every rule's effective time cover it.
            let rd = r.offset_for_read(TenantId(9), 2000);
            prop_assert!(rd >= after, "read offset {rd} < write offset {after}");
        }

        /// Read-your-writes core invariant: for any sequence of rule
        /// updates and any write time, the read offset at any later time is
        /// >= the offset used by the write. Combined with same-base
        /// consecutive spans (span::prop_same_base_longer_span_covers),
        /// this implies every historical write shard is inside the read span.
        #[test]
        fn prop_read_offset_dominates_write_offset(
            updates in proptest::collection::vec((0u64..1000, 0u32..6), 0..20),
            tc in 0u64..1200,
            read_delay in 0u64..500,
        ) {
            let mut r = RuleList::new();
            for (t, s_exp) in updates {
                r.update(t, 1 << s_exp, TenantId(42));
            }
            let w = r.offset_for_write(TenantId(42), tc);
            let rd = r.offset_for_read(TenantId(42), tc + read_delay);
            prop_assert!(rd >= w, "read offset {rd} < write offset {w}");
        }

        /// Matching is monotone in creation time: later-created records see
        /// a superset of eligible rules.
        #[test]
        fn prop_write_offset_monotone_in_tc(
            updates in proptest::collection::vec((0u64..1000, 1u32..64), 0..20),
            t1 in 0u64..1200,
            dt in 0u64..300,
        ) {
            let mut r = RuleList::new();
            for (t, s) in updates {
                r.update(t, s, TenantId(5));
            }
            prop_assert!(r.offset_for_write(TenantId(5), t1 + dt) >= r.offset_for_write(TenantId(5), t1));
        }
    }
}
