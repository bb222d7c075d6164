//! Statistics helpers used by the workload monitor and the benchmark
//! harness (means, standard deviations, quantiles).
//!
//! Quantiles delegate to `esdb-telemetry`, which owns the single
//! codebase-wide interpolation rule (see `esdb_telemetry::histogram`):
//! exact sample sets interpolate linearly between order statistics.

pub use esdb_telemetry::{quantile, quantile_sorted};

/// Requests a serving layer rejected before they reached the engine,
/// broken down by the reason taxonomy the network front-end enforces.
/// The embedded API never rejects (all four stay 0 there); the server
/// fills these so the work-conservation invariant
/// `issued == admitted + rejected.total()` extends through the network
/// layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectedCounts {
    /// Authentication/authorization failures (unknown token, tenant
    /// mismatch, non-admin on an admin endpoint).
    pub auth: u64,
    /// Per-tenant in-flight quota exceeded.
    pub quota: u64,
    /// Per-tenant token-bucket rate limit exceeded.
    pub rate: u64,
    /// Shed under overload as one of the hottest tenants.
    pub shed: u64,
}

impl RejectedCounts {
    /// Total rejected requests across all reasons.
    pub fn total(&self) -> u64 {
        self.auth + self.quota + self.rate + self.shed
    }
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }
}
