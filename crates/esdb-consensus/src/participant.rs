//! Consensus participants (every coordinator node of the cluster).
//!
//! Each participant owns a replica of the rule list and tracks the largest
//! record-creation time it has executed. On *Prepare* it validates the
//! proposed effective time against that watermark, installs a workload
//! block for later-created records, and acks; *Commit* appends the rule and
//! lifts the block; *Abort* just lifts the block.

use crate::messages::PrepareReply;
use esdb_common::{EsdbError, NodeId, Result, TimestampMs};
use esdb_routing::{RuleList, SecondaryHashingRule};
use parking_lot::RwLock;
use std::sync::Arc;

/// One consensus participant.
#[derive(Debug)]
pub struct Participant {
    /// Node identity (for reporting).
    pub id: NodeId,
    rules: Arc<RwLock<RuleList>>,
    /// Largest creation time among records this node has executed.
    max_executed_tc: TimestampMs,
    /// When set, workloads with `tc > block_after` must be held.
    block_after: Option<TimestampMs>,
    /// The rule pending in the current round (set by Prepare).
    pending: Option<SecondaryHashingRule>,
}

impl Participant {
    /// A participant with its own empty rule list.
    pub fn new(id: NodeId) -> Self {
        Participant {
            id,
            rules: Arc::new(RwLock::new(RuleList::new())),
            max_executed_tc: 0,
            block_after: None,
            pending: None,
        }
    }

    /// Shared handle to this participant's rule list.
    pub fn rules(&self) -> Arc<RwLock<RuleList>> {
        self.rules.clone()
    }

    /// Records that a write with creation time `tc` has been executed
    /// (advances the validation watermark).
    pub fn observe_executed(&mut self, tc: TimestampMs) {
        self.max_executed_tc = self.max_executed_tc.max(tc);
    }

    /// Whether a write created at `tc` may execute now, or must wait for the
    /// in-flight rule round to finish.
    pub fn check_admit(&self, tc: TimestampMs) -> Result<()> {
        match self.block_after {
            Some(t) if tc > t => Err(EsdbError::WorkloadBlocked { until: t }),
            _ => Ok(()),
        }
    }

    /// Handles *Prepare*: validate and block (Fig. 5 left).
    pub(crate) fn on_prepare(&mut self, rule: &SecondaryHashingRule) -> PrepareReply {
        let t = rule.effective_time;
        if self.max_executed_tc >= t {
            return PrepareReply::Reject {
                reason: format!(
                    "{}: executed record at tc={} >= effective time {}",
                    self.id, self.max_executed_tc, t
                ),
            };
        }
        if let Some(last) = self.rules.read().max_effective_time() {
            if t <= last {
                return PrepareReply::Reject {
                    reason: format!(
                        "{}: effective time {} not after last committed rule {}",
                        self.id, t, last
                    ),
                };
            }
        }
        self.block_after = Some(t);
        self.pending = Some(rule.clone());
        PrepareReply::Accept
    }

    /// Handles *Commit*: append the rule, lift the block (Fig. 5 right).
    pub fn on_commit(&mut self, rule: &SecondaryHashingRule) {
        self.rules.write().insert_rule(rule.clone());
        if self.pending.as_ref() == Some(rule) {
            self.pending = None;
            self.block_after = None;
        }
    }

    /// Handles *Abort*: discard the pending rule, lift the block.
    pub(crate) fn on_abort(&mut self) {
        self.pending = None;
        self.block_after = None;
    }

    /// Whether a block is currently installed (prepare received, decision
    /// pending).
    pub fn is_blocking(&self) -> bool {
        self.block_after.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::TenantId;

    fn rule(t: TimestampMs, s: u32) -> SecondaryHashingRule {
        SecondaryHashingRule {
            effective_time: t,
            offset: s,
            tenants: vec![TenantId(1)],
        }
    }

    #[test]
    fn prepare_validates_watermark() {
        let mut p = Participant::new(NodeId(0));
        p.observe_executed(100);
        assert!(matches!(
            p.on_prepare(&rule(100, 4)),
            PrepareReply::Reject { .. }
        ));
        assert!(matches!(p.on_prepare(&rule(101, 4)), PrepareReply::Accept));
    }

    #[test]
    fn prepare_blocks_future_workloads_only() {
        let mut p = Participant::new(NodeId(0));
        assert!(matches!(p.on_prepare(&rule(200, 4)), PrepareReply::Accept));
        assert!(p.is_blocking());
        // Records created at or before the effective time pass.
        assert!(p.check_admit(150).is_ok());
        assert!(p.check_admit(200).is_ok());
        // Later ones are held.
        assert_eq!(
            p.check_admit(201),
            Err(EsdbError::WorkloadBlocked { until: 200 })
        );
    }

    #[test]
    fn commit_installs_rule_and_unblocks() {
        let mut p = Participant::new(NodeId(0));
        let r = rule(200, 4);
        p.on_prepare(&r);
        p.on_commit(&r);
        assert!(!p.is_blocking());
        assert!(p.check_admit(500).is_ok());
        assert_eq!(p.rules().read().offset_for_write(TenantId(1), 201), 4);
    }

    #[test]
    fn abort_unblocks_without_installing() {
        let mut p = Participant::new(NodeId(0));
        p.on_prepare(&rule(200, 4));
        p.on_abort();
        assert!(!p.is_blocking());
        assert_eq!(p.rules().read().offset_for_write(TenantId(1), 300), 1);
    }

    #[test]
    fn effective_times_must_advance() {
        let mut p = Participant::new(NodeId(0));
        let r1 = rule(200, 4);
        p.on_prepare(&r1);
        p.on_commit(&r1);
        assert!(matches!(
            p.on_prepare(&rule(200, 8)),
            PrepareReply::Reject { .. }
        ));
        assert!(matches!(
            p.on_prepare(&rule(150, 8)),
            PrepareReply::Reject { .. }
        ));
        assert!(matches!(p.on_prepare(&rule(201, 8)), PrepareReply::Accept));
    }

    #[test]
    fn commit_of_unseen_rule_still_applies() {
        // A participant that missed Prepare (e.g. restarted) must still be
        // able to apply a committed rule when it catches up.
        let mut p = Participant::new(NodeId(0));
        p.on_commit(&rule(100, 8));
        assert_eq!(p.rules().read().offset_for_write(TenantId(1), 150), 8);
        assert!(!p.is_blocking());
    }
}
