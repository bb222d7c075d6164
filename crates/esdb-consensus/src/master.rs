//! The master side of the rule-commit protocol (Fig. 5).
//!
//! The master assigns the effective time `t = now + T`, runs the prepare
//! phase with a `T/2` reply deadline, and broadcasts the decision. The
//! round is executed synchronously against a slice of participants through
//! a [`FaultPlan`] that injects delays, drops, and partitions.

use crate::messages::{PrepareReply, RuleBody};
use crate::network::FaultPlan;
use crate::participant::Participant;
use esdb_common::{Clock, SharedClock, TimestampMs};
use esdb_routing::SecondaryHashingRule;
use esdb_telemetry::{Labels, MetricsRegistry};
use std::sync::Arc;

/// Protocol timing configuration (paper §4.3 "Choose of time interval").
#[derive(Debug, Clone, Copy)]
pub struct ConsensusConfig {
    /// The commit-wait interval `T`: effective time = now + T. Must be much
    /// larger than broadcast RTT + max clock skew, much smaller than the
    /// expected balancing latency (paper suggests RTT ≈ 100 ms, skew ≤ 1 s,
    /// balancing ≈ 60 s).
    pub interval_t_ms: u64,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        // 5 s: > 100 ms RTT + 1 s skew, << 60 s balancing expectation.
        ConsensusConfig {
            interval_t_ms: 5_000,
        }
    }
}

/// Outcome of one consensus round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundOutcome {
    /// The rule committed; every reachable participant installed it.
    /// `missed` lists participants that acked prepare but did not receive
    /// the commit (they stay blocked until operator intervention — paper
    /// §4.3 "Fault tolerance" requires manual verification).
    Committed {
        /// The committed rule.
        rule: SecondaryHashingRule,
        /// Participants that missed the commit broadcast.
        missed: Vec<esdb_common::NodeId>,
        /// Simulated wall time consumed by the round, ms.
        round_ms: u64,
    },
    /// The round aborted.
    Aborted {
        /// Why (first reject reason or the list of timed-out nodes).
        reason: String,
        /// Simulated wall time consumed by the round, ms.
        round_ms: u64,
    },
}

impl RoundOutcome {
    /// Whether the round committed.
    pub(crate) fn is_committed(&self) -> bool {
        matches!(self, RoundOutcome::Committed { .. })
    }
}

/// The elected master node.
pub struct Master {
    clock: SharedClock,
    config: ConsensusConfig,
    registry: Option<Arc<MetricsRegistry>>,
}

impl Master {
    /// A master reading time from `clock`.
    pub fn new(clock: SharedClock, config: ConsensusConfig) -> Self {
        Master {
            clock,
            config,
            registry: None,
        }
    }

    /// Records rule-propagation metrics into `registry`:
    /// `esdb_consensus_rounds_total{stage}` and the simulated-time
    /// histograms `esdb_consensus_round_ms{stage}` (protocol latency) and
    /// `esdb_consensus_commit_wait_ms` (the commit-wait interval `T`
    /// between a committed rule's broadcast and its effective time).
    pub fn with_telemetry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    fn record_outcome(&self, outcome: &RoundOutcome) {
        let Some(reg) = &self.registry else {
            return;
        };
        let (stage, round_ms) = match outcome {
            RoundOutcome::Committed { round_ms, .. } => ("committed", *round_ms),
            RoundOutcome::Aborted { round_ms, .. } => ("aborted", *round_ms),
        };
        reg.add("esdb_consensus_rounds_total", Labels::stage(stage), 1);
        reg.observe("esdb_consensus_round_ms", Labels::stage(stage), round_ms);
        if outcome.is_committed() {
            reg.observe(
                "esdb_consensus_commit_wait_ms",
                Labels::none(),
                self.config.interval_t_ms,
            );
        }
    }

    /// Runs one full round for `body` against `participants` under `plan`.
    ///
    /// Timing model: prepare and its ack each take one one-way latency; a
    /// participant whose round-trip exceeds the `T/2` deadline — or whose
    /// messages are dropped — counts as a timeout and aborts the round
    /// (paper: "a participant does not respond within T/2").
    pub fn run_round(
        &self,
        body: &RuleBody,
        participants: &mut [Participant],
        plan: &FaultPlan,
    ) -> RoundOutcome {
        let now = self.clock.now();
        let t_effective: TimestampMs = now + self.config.interval_t_ms;
        let rule = body.with_effective_time(t_effective);
        let deadline = self.config.interval_t_ms / 2;

        // Prepare phase.
        let mut prepared: Vec<usize> = Vec::with_capacity(participants.len());
        let mut round_ms: u64 = 0;
        let mut abort_reason: Option<String> = None;
        for (idx, p) in participants.iter_mut().enumerate() {
            match plan.one_way_latency(p.id) {
                Some(lat) if 2 * lat <= deadline => {
                    round_ms = round_ms.max(2 * lat);
                    match p.on_prepare(&rule) {
                        PrepareReply::Accept => prepared.push(idx),
                        PrepareReply::Reject { reason } => {
                            abort_reason.get_or_insert(reason);
                        }
                    }
                }
                Some(_) | None => {
                    // Message lost or too slow: master times out at T/2.
                    round_ms = round_ms.max(deadline);
                    abort_reason.get_or_insert(format!("{}: prepare timed out", p.id));
                }
            }
        }

        if let Some(reason) = abort_reason {
            // Abort broadcast: unblock everyone we managed to prepare.
            for &idx in &prepared {
                if plan.commit_reaches(participants[idx].id) {
                    participants[idx].on_abort();
                }
            }
            let outcome = RoundOutcome::Aborted { reason, round_ms };
            self.record_outcome(&outcome);
            return outcome;
        }

        // Commit phase.
        let mut missed = Vec::new();
        for p in participants.iter_mut() {
            if plan.commit_reaches(p.id) {
                if let Some(lat) = plan.one_way_latency(p.id) {
                    round_ms = round_ms.max(2 * plan.base_latency_ms + lat);
                }
                p.on_commit(&rule);
            } else {
                missed.push(p.id);
            }
        }
        let outcome = RoundOutcome::Committed {
            rule,
            missed,
            round_ms,
        };
        self.record_outcome(&outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LinkFault;
    use esdb_common::{NodeId, TenantId};

    fn setup(n: u32) -> (Master, Vec<Participant>) {
        let (clock, driver) = SharedClock::manual(10_000);
        driver.advance(0);
        let master = Master::new(
            clock,
            ConsensusConfig {
                interval_t_ms: 2_000,
            },
        );
        let parts = (0..n).map(|i| Participant::new(NodeId(i))).collect();
        (master, parts)
    }

    #[test]
    fn telemetry_records_round_outcomes() {
        let registry = Arc::new(MetricsRegistry::new());
        let (clock, driver) = SharedClock::manual(10_000);
        driver.advance(0);
        let master = Master::new(
            clock,
            ConsensusConfig {
                interval_t_ms: 2_000,
            },
        )
        .with_telemetry(Arc::clone(&registry));
        let mut parts: Vec<Participant> = (0..3).map(|i| Participant::new(NodeId(i))).collect();
        let plan = FaultPlan::healthy(50);
        assert!(master
            .run_round(&RuleBody::single(TenantId(1), 8), &mut parts, &plan)
            .is_committed());
        // Same instant → same effective time → reject → abort.
        assert!(!master
            .run_round(&RuleBody::single(TenantId(1), 4), &mut parts, &plan)
            .is_committed());
        assert_eq!(
            registry.counter_value("esdb_consensus_rounds_total", Labels::stage("committed")),
            1
        );
        assert_eq!(
            registry.counter_value("esdb_consensus_rounds_total", Labels::stage("aborted")),
            1
        );
        let wait = registry
            .histogram("esdb_consensus_commit_wait_ms", Labels::none())
            .snapshot();
        assert_eq!(wait.count(), 1);
        assert_eq!(wait.max(), 2_000);
    }

    #[test]
    fn healthy_round_commits_everywhere() {
        let (master, mut parts) = setup(4);
        let plan = FaultPlan::healthy(50);
        let out = master.run_round(&RuleBody::single(TenantId(1), 8), &mut parts, &plan);
        match out {
            RoundOutcome::Committed {
                rule,
                missed,
                round_ms,
            } => {
                assert_eq!(rule.effective_time, 12_000);
                assert!(missed.is_empty());
                assert!(round_ms <= 2_000);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        for p in &parts {
            assert_eq!(p.rules().read().offset_for_write(TenantId(1), 12_001), 8);
            assert!(!p.is_blocking());
        }
    }

    #[test]
    fn roundtrip_completes_before_effective_time() {
        // Non-blocking property: the round finishes (round_ms) well before
        // the effective time (T), so in-flight workloads are never held.
        let (master, mut parts) = setup(8);
        let plan = FaultPlan::healthy(100); // paper's RTT scale
        match master.run_round(&RuleBody::single(TenantId(9), 4), &mut parts, &plan) {
            RoundOutcome::Committed { round_ms, .. } => {
                assert!(
                    round_ms < master.config.interval_t_ms,
                    "round {round_ms}ms >= T"
                );
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn reject_aborts_and_unblocks() {
        let (master, mut parts) = setup(3);
        // Participant 2 executed a record in the future of the proposal
        // (e.g. extreme clock skew upstream): it must reject.
        parts[2].observe_executed(20_000);
        let plan = FaultPlan::healthy(10);
        let out = master.run_round(&RuleBody::single(TenantId(1), 8), &mut parts, &plan);
        assert!(matches!(out, RoundOutcome::Aborted { .. }));
        for p in &parts {
            assert!(!p.is_blocking(), "{}", p.id);
            assert_eq!(p.rules().read().offset_for_write(TenantId(1), 30_000), 1);
        }
    }

    #[test]
    fn slow_participant_times_out() {
        let (master, mut parts) = setup(3);
        let mut plan = FaultPlan::healthy(10);
        // Round trip 2*1200 > T/2 = 1000.
        plan.set(NodeId(1), LinkFault::Delay(1_190));
        let out = master.run_round(&RuleBody::single(TenantId(1), 8), &mut parts, &plan);
        match out {
            RoundOutcome::Aborted { reason, round_ms } => {
                assert!(reason.contains("timed out"), "{reason}");
                assert_eq!(round_ms, 1_000, "master waits out the T/2 deadline");
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn dropped_prepare_aborts() {
        let (master, mut parts) = setup(3);
        let mut plan = FaultPlan::healthy(10);
        plan.set(NodeId(0), LinkFault::DropPrepare);
        assert!(!master
            .run_round(&RuleBody::single(TenantId(1), 8), &mut parts, &plan)
            .is_committed());
        // Other participants were prepared then aborted — unblocked.
        assert!(parts.iter().all(|p| !p.is_blocking()));
    }

    #[test]
    fn dropped_commit_leaves_participant_blocked() {
        // §4.3 fault tolerance: a node that acked prepare but missed the
        // commit stays blocked pending manual verification. The outcome
        // reports it so the operator (or the simulator) can intervene.
        let (master, mut parts) = setup(3);
        let mut plan = FaultPlan::healthy(10);
        plan.set(NodeId(2), LinkFault::DropCommit);
        match master.run_round(&RuleBody::single(TenantId(1), 8), &mut parts, &plan) {
            RoundOutcome::Committed { missed, .. } => {
                assert_eq!(missed, vec![NodeId(2)]);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert!(parts[2].is_blocking());
        assert!(!parts[0].is_blocking());
        // Recovery: the operator re-delivers the committed rule.
        let rule = parts[0].rules().read().rules()[0].clone();
        parts[2].on_commit(&rule);
        assert!(!parts[2].is_blocking());
        assert_eq!(
            parts[2]
                .rules()
                .read()
                .offset_for_write(TenantId(1), u64::MAX),
            8
        );
    }

    #[test]
    fn partitioned_participant_aborts_round() {
        let (master, mut parts) = setup(5);
        let mut plan = FaultPlan::healthy(10);
        plan.set(NodeId(3), LinkFault::Partitioned);
        let out = master.run_round(&RuleBody::single(TenantId(2), 4), &mut parts, &plan);
        assert!(!out.is_committed());
    }

    #[test]
    fn consecutive_rounds_advance_effective_times() {
        let (clock, driver) = SharedClock::manual(0);
        let master = Master::new(
            clock,
            ConsensusConfig {
                interval_t_ms: 1_000,
            },
        );
        let mut parts = vec![Participant::new(NodeId(0))];
        let plan = FaultPlan::healthy(1);
        let r1 = master.run_round(&RuleBody::single(TenantId(1), 2), &mut parts, &plan);
        assert!(r1.is_committed());
        // Same instant: the new effective time equals the last — reject.
        let r2 = master.run_round(&RuleBody::single(TenantId(1), 4), &mut parts, &plan);
        assert!(!r2.is_committed());
        // After time passes, it commits.
        driver.advance(10);
        let r3 = master.run_round(&RuleBody::single(TenantId(1), 4), &mut parts, &plan);
        assert!(r3.is_committed());
        assert_eq!(
            parts[0].rules().read().offset_for_write(TenantId(1), 2_000),
            4
        );
    }
}
