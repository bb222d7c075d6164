//! The ESDB load balancer — paper Algorithm 1.
//!
//! The balancer runs two phases:
//!
//! * **Initialization** (lines 5–10): from per-tenant *storage* proportions,
//!   assign every sufficiently large tenant an initial offset (storage is
//!   the best predictor of forthcoming load before any traffic is seen).
//! * **Runtime** (lines 11–21): each reporting period, compute per-tenant
//!   *throughput* proportions; tenants flagged by `CheckHotSpot` get a new
//!   offset from `ComputeOffsetSize`.
//!
//! The balancer does not mutate routing state directly: it emits
//! [`RuleProposal`]s. In the full system the coordinator forwards each
//! proposal to the master, which runs the commit protocol of §4.3
//! (`esdb-consensus`) and only then does the rule enter the replicated
//! [`esdb_routing::RuleList`]. Tests in this module commit proposals
//! directly to a local list.

use crate::monitor::{PeriodReport, WorkloadMonitor};
use crate::offset::OffsetPolicy;
use esdb_common::{TenantId, TimestampMs};
use esdb_routing::RuleList;
use esdb_telemetry::{EventKind, Journal, Labels, NO_PARENT};
use std::sync::Arc;

/// A proposed secondary hashing rule for one tenant, not yet committed.
#[derive(Debug, Clone)]
pub struct RuleProposal {
    /// The hot tenant.
    pub tenant: TenantId,
    /// Proposed maximum offset `s` (power of two).
    pub offset: u32,
    /// The throughput/storage proportion that triggered the proposal
    /// (kept for observability).
    pub proportion_ppm: u64,
    /// Journal sequence of the `hot_tenant_detected` event that produced
    /// this proposal ([`NO_PARENT`] when the journal is off), so the
    /// committed rule's journal entry links back causally.
    pub detected_seq: u64,
}

/// Equality ignores `detected_seq` — two proposals are the same decision
/// regardless of which journal entry recorded the detection.
impl PartialEq for RuleProposal {
    fn eq(&self, other: &Self) -> bool {
        self.tenant == other.tenant
            && self.offset == other.offset
            && self.proportion_ppm == other.proportion_ppm
    }
}

impl Eq for RuleProposal {}

/// Balancer configuration.
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    /// Offset policy (`CheckHotSpot` / `ComputeOffsetSize`).
    pub offset: OffsetPolicy,
    /// Ignore periods with fewer total writes than this (proportions from
    /// a near-idle period are noise).
    pub min_period_writes: u64,
    /// During initialization, only tenants with at least this storage
    /// proportion receive a rule (§4.1: most tenants keep `s = 1`).
    pub init_storage_floor: f64,
}

impl BalancerConfig {
    /// Defaults for an `n_shards` / `n_nodes` cluster.
    pub fn new(n_shards: u32, n_nodes: u32) -> Self {
        BalancerConfig {
            offset: OffsetPolicy::new(n_shards, n_nodes),
            min_period_writes: 100,
            init_storage_floor: 0.01,
        }
    }
}

/// The load balancer (Algorithm 1).
#[derive(Debug)]
pub struct LoadBalancer {
    config: BalancerConfig,
    /// Last offset proposed or known-committed per tenant; a new proposal is
    /// emitted only when it would *grow* the offset (re-proposing an equal
    /// or smaller `s` is useless: rule matching takes the max, §4.2).
    committed: esdb_common::fastmap::FastMap<TenantId, u32>,
    /// Flight-recorder journal for `hot_tenant_detected` events (`None`
    /// keeps the balancer telemetry-free).
    journal: Option<Arc<Journal>>,
}

impl LoadBalancer {
    /// New balancer with the given configuration.
    pub fn new(config: BalancerConfig) -> Self {
        LoadBalancer {
            config,
            committed: esdb_common::fastmap::fast_map(),
            journal: None,
        }
    }

    /// Attaches the flight-recorder journal: every proposal's detection
    /// is journaled and the proposal carries the event's sequence.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Journals a hot-tenant detection, returning the event sequence
    /// ([`NO_PARENT`] when no journal is attached).
    fn journal_detection(&self, tenant: TenantId, proportion_ppm: u64, offset: u32) -> u64 {
        self.journal.as_ref().map_or(NO_PARENT, |j| {
            j.emit(
                EventKind::HotTenantDetected {
                    tenant: tenant.0,
                    proportion_ppm,
                    proposed_offset: offset,
                },
                Labels::tenant(tenant.0),
                NO_PARENT,
            )
        })
    }

    /// Initialization phase (Algorithm 1 lines 5–10): propose offsets from
    /// storage proportions.
    pub fn initialize(&mut self, monitor: &WorkloadMonitor) -> Vec<RuleProposal> {
        let mut proposals = Vec::new();
        for (tenant, _) in monitor.storage_tenants() {
            let r = monitor.storage_proportion(tenant);
            if r < self.config.init_storage_floor {
                continue;
            }
            let s = self.config.offset.compute_offset_size(r);
            if self.would_grow(tenant, s) {
                self.committed.insert(tenant, s);
                let proportion_ppm = (r * 1e6) as u64;
                proposals.push(RuleProposal {
                    tenant,
                    offset: s,
                    proportion_ppm,
                    detected_seq: self.journal_detection(tenant, proportion_ppm, s),
                });
            }
        }
        proposals.sort_by_key(|p| p.tenant);
        proposals
    }

    /// Runtime phase for one period (Algorithm 1 lines 12–20): hotspot
    /// check on throughput proportions.
    pub fn on_period(&mut self, report: &PeriodReport) -> Vec<RuleProposal> {
        let mut proposals = Vec::new();
        if report.total < self.config.min_period_writes {
            return proposals;
        }
        for (&tenant, &count) in report.per_tenant.iter() {
            let r = count as f64 / report.total as f64;
            if !self.config.offset.check_hotspot(r) {
                continue;
            }
            let s = self.config.offset.compute_offset_size(r);
            if self.would_grow(tenant, s) {
                self.committed.insert(tenant, s);
                let proportion_ppm = (r * 1e6) as u64;
                proposals.push(RuleProposal {
                    tenant,
                    offset: s,
                    proportion_ppm,
                    detected_seq: self.journal_detection(tenant, proportion_ppm, s),
                });
            }
        }
        proposals.sort_by_key(|p| p.tenant);
        proposals
    }

    /// Records that a proposal failed to commit (consensus abort): forget
    /// the optimistic bookkeeping so it can be re-proposed next period.
    pub fn on_abort(&mut self, tenant: TenantId, offset: u32) {
        if self.committed.get(&tenant) == Some(&offset) {
            self.committed.remove(&tenant);
        }
    }

    /// Applies a batch of proposals directly to a rule list with a given
    /// effective time — the non-distributed path used by tests, examples,
    /// and single-process deployments.
    pub fn commit_direct(
        proposals: &[RuleProposal],
        rules: &mut RuleList,
        effective_time: TimestampMs,
    ) {
        for p in proposals {
            rules.update(effective_time, p.offset, p.tenant);
        }
    }

    fn would_grow(&self, tenant: TenantId, s: u32) -> bool {
        s > self.committed.get(&tenant).copied().unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{NodeId, ShardId};

    fn config() -> BalancerConfig {
        BalancerConfig::new(512, 8)
    }

    fn hot_period(hot: TenantId, hot_writes: u64, cold_tenants: u64) -> PeriodReport {
        let m = WorkloadMonitor::new();
        for i in 0..hot_writes {
            m.record_write(hot, ShardId((i % 4) as u32), NodeId(0), 100);
        }
        for t in 0..cold_tenants {
            m.record_write(TenantId(1000 + t), ShardId(5), NodeId(1), 100);
        }
        m.take_period()
    }

    #[test]
    fn detects_hotspot_and_proposes_power_of_two() {
        let mut b = LoadBalancer::new(config());
        // Tenant 1: 50% of traffic — far above 1/16 threshold.
        let report = hot_period(TenantId(1), 500, 500);
        let props = b.on_period(&report);
        assert_eq!(props.len(), 1);
        assert_eq!(props[0].tenant, TenantId(1));
        assert!(props[0].offset.is_power_of_two());
        assert!(props[0].offset > 1);
    }

    #[test]
    fn cold_tenants_not_proposed() {
        let mut b = LoadBalancer::new(config());
        // 1000 tenants, 1 write each: all proportions are 0.1%.
        let m = WorkloadMonitor::new();
        for t in 0..1000u64 {
            m.record_write(TenantId(t), ShardId(0), NodeId(0), 10);
        }
        assert!(b.on_period(&m.take_period()).is_empty());
    }

    #[test]
    fn quiet_periods_ignored() {
        let mut b = LoadBalancer::new(config());
        let report = hot_period(TenantId(1), 50, 10); // < min_period_writes
        assert!(b.on_period(&report).is_empty());
    }

    #[test]
    fn no_reproposal_for_same_offset() {
        let mut b = LoadBalancer::new(config());
        let report = hot_period(TenantId(1), 500, 500);
        assert_eq!(b.on_period(&report).len(), 1);
        // Same traffic next period: offset unchanged, no new proposal.
        let report2 = hot_period(TenantId(1), 500, 500);
        assert!(b.on_period(&report2).is_empty());
    }

    #[test]
    fn growing_hotspot_reproposed_with_larger_offset() {
        // Widen the offset ceiling so growth is observable: with the
        // default max_offset any hot tenant saturates immediately.
        let mut cfg = config();
        cfg.offset.max_offset = 512;
        let mut b = LoadBalancer::new(cfg);
        // 8% of traffic → a moderate offset; later 50% → a larger one.
        let first = b.on_period(&hot_period(TenantId(1), 800, 9_200));
        assert_eq!(first.len(), 1);
        let grown = b.on_period(&hot_period(TenantId(1), 5_000, 5_000));
        assert_eq!(grown.len(), 1);
        assert!(grown[0].offset > first[0].offset);
    }

    #[test]
    fn abort_allows_reproposal() {
        let mut b = LoadBalancer::new(config());
        let p = b.on_period(&hot_period(TenantId(1), 500, 500));
        assert_eq!(p.len(), 1);
        b.on_abort(TenantId(1), p[0].offset);
        let retry = b.on_period(&hot_period(TenantId(1), 500, 500));
        assert_eq!(retry, p, "after abort the same proposal is re-emitted");
    }

    #[test]
    fn initialization_uses_storage_proportions() {
        let mut b = LoadBalancer::new(config());
        let m = WorkloadMonitor::new();
        m.load_storage([
            (TenantId(1), 400_000), // 40%
            (TenantId(2), 5_000),   // 0.5% — below floor
            (TenantId(3), 595_000), // 59.5%
        ]);
        let props = b.initialize(&m);
        let tenants: Vec<TenantId> = props.iter().map(|p| p.tenant).collect();
        assert_eq!(tenants, vec![TenantId(1), TenantId(3)]);
        assert!(props.iter().all(|p| p.offset.is_power_of_two()));
    }

    #[test]
    fn commit_direct_updates_rule_list() {
        let mut b = LoadBalancer::new(config());
        let props = b.on_period(&hot_period(TenantId(1), 900, 100));
        let mut rules = RuleList::new();
        LoadBalancer::commit_direct(&props, &mut rules, 1000);
        assert_eq!(rules.offset_for_write(TenantId(1), 1001), props[0].offset);
        assert_eq!(rules.offset_for_write(TenantId(1), 999), 1);
    }
}
