//! Secondary-hashing-rule consensus (paper §4.3, Fig. 5).
//!
//! The rule list is **append-only** and every rule carries an *effective
//! time*, so cluster-wide agreement does not need Paxos/Raft: it reduces to
//! a commit/abort decision per rule. ESDB uses a 2PC variant with a
//! Spanner-style commit wait:
//!
//! 1. A coordinator sends a new rule to the **master**.
//! 2. The master picks the effective time `t = now + T` (where `T` is much
//!    larger than the broadcast round-trip plus the maximum clock skew, but
//!    much smaller than the expected balancing latency) and broadcasts a
//!    *Prepare* carrying the rule and `t`.
//! 3. Each participant verifies all records it has executed were created
//!    before `t`, **blocks** workloads whose creation time exceeds `t`, and
//!    acks. Any error or a timeout (no reply within `T/2`) aborts the round.
//! 4. On *Commit*, participants append the rule to their local rule list
//!    and lift the block.
//!
//! As long as the round finishes before real time reaches `t`, no workload
//! is ever actually blocked — the protocol is non-blocking in the common
//! case (tested in `roundtrip_completes_before_effective_time`).
//!
//! Faults are modelled by [`network::FaultPlan`]: per-participant message
//! delays, drops, and partitions, letting tests exercise timeout-aborts and
//! the paper's fault-tolerance discussion.

pub mod master;
pub mod messages;
pub mod network;
pub mod participant;

pub use master::{ConsensusConfig, Master, RoundOutcome};
pub use messages::RuleBody;
pub use network::{FaultPlan, LinkFault};
pub use participant::Participant;
