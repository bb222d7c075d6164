//! Protocol messages for the rule-commit protocol (Fig. 5).

use esdb_common::{TenantId, TimestampMs};
use esdb_routing::SecondaryHashingRule;
use serde::{Deserialize, Serialize};

/// The payload of a proposed rule, before the master assigns the effective
/// time: the tenants and the offset they should adopt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleBody {
    /// Tenants adopting the new offset.
    pub tenants: Vec<TenantId>,
    /// The proposed maximum secondary-hash offset.
    pub offset: u32,
}

impl RuleBody {
    /// A single-tenant rule body.
    pub fn single(tenant: TenantId, offset: u32) -> Self {
        RuleBody {
            tenants: vec![tenant],
            offset,
        }
    }

    /// Attaches an effective time, producing the concrete rule.
    pub(crate) fn with_effective_time(&self, t: TimestampMs) -> SecondaryHashingRule {
        SecondaryHashingRule {
            effective_time: t,
            offset: self.offset,
            tenants: self.tenants.clone(),
        }
    }
}

/// A participant's reply to *Prepare*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum PrepareReply {
    /// The participant validated the effective time and blocked
    /// later-created workloads.
    Accept,
    /// Validation failed (a record with creation time ≥ the proposed
    /// effective time was already executed, or the rule is not in the
    /// participant's future).
    Reject {
        /// Human-readable reason, surfaced in the abort error.
        reason: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_body_to_rule() {
        let b = RuleBody::single(TenantId(3), 8);
        let r = b.with_effective_time(500);
        assert_eq!(r.effective_time, 500);
        assert_eq!(r.offset, 8);
        assert_eq!(r.tenants, vec![TenantId(3)]);
    }
}
