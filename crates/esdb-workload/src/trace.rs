//! Write-workload trace generation.

use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId, TimestampMs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated write: the routing triple the cluster simulator routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEvent {
    /// Tenant (`k1`).
    pub tenant: TenantId,
    /// Record (`k2`) — auto-increment unique.
    pub record: RecordId,
    /// Creation time (`tc`).
    pub created_at: TimestampMs,
    /// Approximate row bytes (for storage accounting).
    pub bytes: u32,
}

/// A piecewise-constant rate schedule (ops/sec over time), used for the
/// festival-kickoff spike of Fig. 19.
#[derive(Debug, Clone)]
pub struct RateSchedule {
    /// `(from_ms, ops_per_sec)` steps, sorted by time; rate before the
    /// first step is the first step's rate.
    steps: Vec<(TimestampMs, f64)>,
}

impl RateSchedule {
    /// A constant rate.
    pub fn constant(ops_per_sec: f64) -> Self {
        RateSchedule {
            steps: vec![(0, ops_per_sec)],
        }
    }

    /// Builds from explicit steps (must be non-empty, sorted by time).
    pub fn steps(steps: Vec<(TimestampMs, f64)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "steps must be sorted by time"
        );
        RateSchedule { steps }
    }

    /// The rate in effect at `t`.
    pub(crate) fn rate_at(&self, t: TimestampMs) -> f64 {
        let idx = self.steps.partition_point(|&(from, _)| from <= t);
        if idx == 0 {
            self.steps[0].1
        } else {
            self.steps[idx - 1].1
        }
    }
}

/// Generates the write stream: Zipf-skewed tenants, scheduled rates,
/// hotspot remaps.
#[derive(Debug)]
pub struct TraceGenerator {
    zipf: ZipfSampler,
    rng: StdRng,
    rate: RateSchedule,
    next_record: u64,
    /// rank → tenant id mapping; remapping this moves the hotspots
    /// (Fig. 14).
    rank_to_tenant: Vec<u64>,
    /// Fractional ops carried between ticks so long-run rate is exact.
    carry: f64,
    /// Mean row bytes.
    row_bytes: u32,
    /// Added to every emitted tenant id (lets an overlay generator emit
    /// tenants disjoint from a base generator's).
    tenant_offset: u64,
}

impl TraceGenerator {
    /// A generator over `n_tenants` tenants with skew `theta`, seeded
    /// deterministically.
    pub fn new(n_tenants: usize, theta: f64, rate: RateSchedule, seed: u64) -> Self {
        let rank_to_tenant: Vec<u64> = (0..n_tenants as u64).collect();
        TraceGenerator {
            zipf: ZipfSampler::new(n_tenants, theta),
            rng: StdRng::seed_from_u64(seed),
            rate,
            next_record: 0,
            rank_to_tenant,
            carry: 0.0,
            row_bytes: 512,
            tenant_offset: 0,
        }
    }

    /// Offsets the generator's id spaces so two generators can coexist
    /// without colliding: emitted tenants become `tenant + tenant_offset`
    /// and record ids continue from `first_record`. Used to overlay a
    /// "hotspot group" stream on top of a base stream (Fig. 14).
    pub fn with_offsets(mut self, tenant_offset: u64, first_record: u64) -> Self {
        self.tenant_offset = tenant_offset;
        self.next_record = first_record;
        self
    }

    /// The tenant currently mapped to Zipf rank `rank` (1-based).
    pub fn tenant_of_rank(&self, rank: usize) -> TenantId {
        TenantId(self.rank_to_tenant[rank - 1] + self.tenant_offset)
    }

    /// Generates the writes for the tick `[now, now + dt_ms)`, with
    /// creation times uniformly spread over the tick.
    pub fn tick(&mut self, now: TimestampMs, dt_ms: u64) -> Vec<WriteEvent> {
        let rate = self.rate.rate_at(now);
        let exact = rate * dt_ms as f64 / 1_000.0 + self.carry;
        let count = exact.floor() as usize;
        self.carry = exact - count as f64;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let rank = self.zipf.sample(&mut self.rng);
            let tenant = self.rank_to_tenant[rank - 1] + self.tenant_offset;
            let record = self.next_record;
            self.next_record += 1;
            let offset = self.rng.random_range(0..dt_ms.max(1));
            out.push(WriteEvent {
                tenant: TenantId(tenant),
                record: RecordId(record),
                created_at: now + offset,
                bytes: self.row_bytes,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_schedule_steps() {
        let s = RateSchedule::steps(vec![(0, 100.0), (1_000, 500.0), (2_000, 50.0)]);
        assert_eq!(s.rate_at(0), 100.0);
        assert_eq!(s.rate_at(999), 100.0);
        assert_eq!(s.rate_at(1_000), 500.0);
        assert_eq!(s.rate_at(5_000), 50.0);
    }

    #[test]
    fn tick_produces_requested_rate() {
        let mut g = TraceGenerator::new(1_000, 1.0, RateSchedule::constant(10_000.0), 1);
        let mut total = 0usize;
        for t in 0..10u64 {
            total += g.tick(t * 100, 100).len();
        }
        // 10 ticks of 100 ms at 10k/s = 10_000 ops (exact thanks to carry).
        assert_eq!(total, 10_000);
    }

    #[test]
    fn record_ids_unique_and_increasing() {
        let mut g = TraceGenerator::new(100, 1.0, RateSchedule::constant(1_000.0), 2);
        let a = g.tick(0, 1_000);
        let b = g.tick(1_000, 1_000);
        let last_a = a.last().unwrap().record.raw();
        assert!(b.first().unwrap().record.raw() > last_a);
        let mut ids: Vec<u64> = a.iter().chain(b.iter()).map(|e| e.record.raw()).collect();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn created_times_inside_tick() {
        let mut g = TraceGenerator::new(100, 1.0, RateSchedule::constant(5_000.0), 3);
        for e in g.tick(2_000, 500) {
            assert!((2_000..2_500).contains(&e.created_at));
        }
    }

    #[test]
    fn zipf_skew_shows_in_trace() {
        let mut g = TraceGenerator::new(10_000, 1.0, RateSchedule::constant(100_000.0), 4);
        let events = g.tick(0, 1_000);
        let mut counts = std::collections::HashMap::new();
        for e in &events {
            *counts.entry(e.tenant).or_insert(0u64) += 1;
        }
        let top = g.tenant_of_rank(1);
        let top_count = counts[&top] as f64 / events.len() as f64;
        // Zipf(1) over 10k: rank-1 mass ≈ 1/H(10000) ≈ 0.102.
        assert!(
            top_count > 0.07 && top_count < 0.14,
            "top share {top_count}"
        );
    }

    #[test]
    fn offsets_shift_id_spaces() {
        let mut g = TraceGenerator::new(10, 0.0, RateSchedule::constant(1_000.0), 1)
            .with_offsets(1_000_000, 5_000);
        let events = g.tick(0, 100);
        assert!(!events.is_empty());
        for e in &events {
            assert!(e.tenant.raw() >= 1_000_000);
            assert!(e.record.raw() >= 5_000);
        }
        assert!(g.tenant_of_rank(1).raw() >= 1_000_000);
    }

    #[test]
    fn theta_zero_is_flat() {
        let mut g = TraceGenerator::new(100, 0.0, RateSchedule::constant(100_000.0), 6);
        let events = g.tick(0, 1_000);
        let mut counts = std::collections::HashMap::new();
        for e in &events {
            *counts.entry(e.tenant).or_insert(0u64) += 1;
        }
        let max = *counts.values().max().unwrap() as f64;
        let min = *counts.values().min().unwrap() as f64;
        assert!(
            max / min < 2.0,
            "uniform workload should be flat: {max}/{min}"
        );
    }
}
