//! Bounded retry-with-backoff for writes hitting dead or in-transition
//! shards.

/// Exponential backoff with a delay cap and an attempt bound. Attempt 0 is
/// the first *retry* (the initial dispatch is not an attempt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry, ms.
    pub base_delay_ms: u64,
    /// Per-retry delay cap, ms.
    pub max_delay_ms: u64,
    /// Retries before the write is failed back to the client.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay_ms: 100,
            max_delay_ms: 2_000,
            max_attempts: 64,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based), or `None` once the
    /// attempt budget is exhausted. Doubling, capped at `max_delay_ms`.
    pub fn backoff_ms(&self, attempt: u32) -> Option<u64> {
        if attempt >= self.max_attempts {
            return None;
        }
        let shifted = self.base_delay_ms.saturating_shl(attempt.min(16));
        Some(shifted.min(self.max_delay_ms).max(1))
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worst-case total time spent retrying, ms (the recovery budget a
    /// schedule must fit inside for zero client-visible write failures).
    fn max_total_delay_ms(p: &RetryPolicy) -> u64 {
        (0..p.max_attempts)
            .map(|a| p.backoff_ms(a).unwrap_or(0))
            .sum()
    }

    #[test]
    fn doubles_then_caps_then_exhausts() {
        let p = RetryPolicy {
            base_delay_ms: 100,
            max_delay_ms: 500,
            max_attempts: 5,
        };
        let delays: Vec<Option<u64>> = (0..6).map(|a| p.backoff_ms(a)).collect();
        assert_eq!(
            delays,
            vec![Some(100), Some(200), Some(400), Some(500), Some(500), None]
        );
        assert_eq!(max_total_delay_ms(&p), 1_700);
    }

    #[test]
    fn default_budget_covers_typical_recovery() {
        let p = RetryPolicy::default();
        // Default budget is well over a minute of simulated time — a
        // single-node recovery at small scale finishes far inside it.
        assert!(max_total_delay_ms(&p) > 60_000);
    }
}
