//! Simulation runners shared by the figure reproductions.

use esdb_cluster::{ClusterConfig, PolicySpec, RunReport, SimCluster};
use esdb_workload::{RateSchedule, TraceGenerator};

/// Parameters of one write-simulation run.
#[derive(Debug, Clone)]
pub(crate) struct SimParams {
    /// Routing policy.
    pub policy: PolicySpec,
    /// Zipf skew θ.
    pub theta: f64,
    /// Tenant population (paper: 100K).
    pub n_tenants: usize,
    /// Generating rate, writes/sec.
    pub rate: f64,
    /// Run length, seconds.
    pub duration_s: u64,
    /// Replica execution cost (1.0 logical, <1 physical).
    pub replica_cost: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SimParams {
    /// Paper defaults at θ=1.
    pub(crate) fn paper(policy: PolicySpec) -> Self {
        SimParams {
            policy,
            theta: 1.0,
            n_tenants: 100_000,
            rate: 160_000.0,
            duration_s: 90,
            replica_cost: 1.0,
            seed: 42,
        }
    }

    /// Scales run length and tenant population down for `--quick`.
    pub(crate) fn quick(mut self) -> Self {
        self.duration_s = (self.duration_s / 3).max(20);
        self
    }
}

/// Runs one write simulation and returns the report.
pub(crate) fn run_write_sim(p: &SimParams) -> RunReport {
    let mut cfg = ClusterConfig::paper(p.policy);
    cfg.replica_cost = p.replica_cost;
    let tick = cfg.tick_ms;
    let mut cluster = SimCluster::new(cfg);
    let mut gen = TraceGenerator::new(p.n_tenants, p.theta, RateSchedule::constant(p.rate), p.seed);
    for _ in 0..(p.duration_s * 1_000 / tick) {
        let now = cluster.now();
        let events = gen.tick(now, tick);
        cluster.step(events);
    }
    cluster.finish()
}

/// The three policies every figure compares.
pub(crate) fn all_policies() -> [PolicySpec; 3] {
    [
        PolicySpec::Hashing,
        PolicySpec::DoubleHashing { s: 8 },
        PolicySpec::Dynamic,
    ]
}

/// Warm-up cutoff used when averaging steady-state metrics.
pub(crate) fn warmup_ms(p: &SimParams) -> u64 {
    (p.duration_s * 1_000) / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scales_down() {
        let p = SimParams::paper(PolicySpec::Hashing).quick();
        assert_eq!(p.duration_s, 30);
    }

    #[test]
    fn small_run_produces_report() {
        let mut p = SimParams::paper(PolicySpec::DoubleHashing { s: 8 });
        p.duration_s = 5;
        p.rate = 50_000.0;
        p.n_tenants = 1_000;
        let r = run_write_sim(&p);
        assert!(r.throughput_tps(1_000) > 40_000.0);
        assert_eq!(r.per_shard_writes.len(), 512);
    }
}
