//! Multi-tenant admission control: token-bucket rate limits, in-flight
//! quotas, and hot-tenant load shedding.
//!
//! Every data-plane request passes through [`AdmissionController::admit`]
//! after authentication. Decisions are taken in severity order:
//!
//! 1. **Shed** — when the server is overloaded (global in-flight at or
//!    above `overload_inflight`), requests from tenants whose
//!    throughput proportion exceeds `shed_proportion` are rejected with
//!    503. The proportion is the *max* of the server's own request
//!    window and the engine's [`WorkloadMonitor`] signal — the same
//!    `r = T(k)/ΣT` the balancer uses to grow shard spans (paper
//!    Algorithm 1), so the front-end sheds exactly the tenants the
//!    balancer identifies as hot. Victim (cold) tenants are *never*
//!    shed: overload caused by a Zipf hot key degrades the hot tenant
//!    first, which is the paper's isolation goal.
//! 2. **Quota** — per-tenant in-flight cap (429, no retry hint beyond
//!    "when one completes").
//! 3. **Rate** — per-tenant token bucket (429 + `retry_after_ms`
//!    computed from the deficit). Buckets refill in millitokens per
//!    millisecond of [`SharedClock`] time, so with a
//!    [`esdb_common::ManualClock`] refill is exactly deterministic —
//!    property-tested in this module.
//! 4. **Admit** — an RAII [`Permit`] tracks the request in-flight.
//!
//! Counters obey the conservation law checked by the concurrency tests:
//! for every tenant, `issued == admitted + rate + quota + shed` —
//! rate and quota rejections are tracked separately so operational
//! stats can tell them apart (`throttled()` is their sum; auth
//! failures are counted separately by the server — they never reach
//! admission).

use esdb_balancer::WorkloadMonitor;
use esdb_common::{Clock, SharedClock, TenantId};
use esdb_telemetry::{EventKind, Labels, Telemetry, NO_PARENT};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Token-bucket parameters: bursts up to `capacity`, sustained
/// `per_sec` requests per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity in whole requests (burst size), ≥ 1.
    pub capacity: u64,
    /// Refill rate in requests per second.
    pub per_sec: u64,
}

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Master switch; `false` admits everything (still counts).
    pub enabled: bool,
    /// Rate limit applied to tenants without an explicit override.
    pub default_rate: RateLimit,
    /// Per-tenant overrides.
    pub tenant_rates: Vec<(TenantId, RateLimit)>,
    /// Max concurrently executing requests per tenant.
    pub per_tenant_inflight: u32,
    /// Max concurrently executing requests server-wide before the shed
    /// path arms.
    pub overload_inflight: u32,
    /// Max open connections (enforced at accept time).
    pub max_connections: u32,
    /// A tenant above this throughput proportion is sheddable while the
    /// server is overloaded.
    pub shed_proportion: f64,
    /// Hot-tenant shedding switch (the `server_admission` bench A/Bs
    /// this).
    pub shedding: bool,
    /// Width of the server-side proportion window, in clock ms.
    pub window_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: true,
            default_rate: RateLimit {
                capacity: 1024,
                per_sec: 4096,
            },
            tenant_rates: Vec::new(),
            per_tenant_inflight: 64,
            overload_inflight: 256,
            max_connections: 1024,
            shed_proportion: 0.5,
            shedding: true,
            window_ms: 1_000,
        }
    }
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Per-tenant in-flight quota exhausted.
    Quota,
    /// Token bucket empty.
    Rate,
    /// Hot tenant shed under overload.
    Shed,
}

impl RejectReason {
    /// Wire error code.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            RejectReason::Quota => "quota_exceeded",
            RejectReason::Rate => "rate_limited",
            RejectReason::Shed => "shed",
        }
    }

    /// Label value for `esdb_server_rejected_total{stage=...}`.
    pub(crate) fn stage(&self) -> &'static str {
        match self {
            RejectReason::Quota => "quota",
            RejectReason::Rate => "rate",
            RejectReason::Shed => "shed",
        }
    }
}

/// Outcome of [`AdmissionController::admit`].
pub enum Decision {
    /// Admitted; drop the permit when the request completes.
    Admitted(Permit),
    /// Rejected with a reason and optional client back-off hint.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Back-off hint (rate rejections only).
        retry_after_ms: Option<u64>,
    },
}

/// Monotone per-tenant decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounts {
    /// Requests that reached admission.
    pub issued: u64,
    /// ... and were admitted.
    pub admitted: u64,
    /// ... rejected by the token-bucket rate limit (429).
    pub rate: u64,
    /// ... rejected by the in-flight quota (429).
    pub quota: u64,
    /// ... shed as a hot tenant under overload (503).
    pub shed: u64,
}

impl AdmissionCounts {
    /// The 429 family: rate + quota rejections.
    pub fn throttled(&self) -> u64 {
        self.rate + self.quota
    }

    /// The conservation invariant the tests assert.
    pub fn conserved(&self) -> bool {
        self.issued == self.admitted + self.rate + self.quota + self.shed
    }
}

/// Per-tenant decision state for transition-edge journaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TenantMode {
    Admitting,
    Throttled,
    Shedding,
}

struct TenantState {
    /// Token bucket level in millitokens (1 request = 1000).
    bucket_mt: u64,
    /// Clock ms of the last refill.
    bucket_last_ms: u64,
    /// Requests currently executing.
    inflight: u32,
    /// Requests seen in the current proportion window.
    window: u64,
    /// ... and the previous (closed) window.
    prev_window: u64,
    /// Last journaled mode — events fire on edges, not per request.
    mode: TenantMode,
    counts: AdmissionCounts,
    rate: RateLimit,
}

struct WindowState {
    /// Start of the current proportion window, clock ms.
    start_ms: u64,
    /// Total requests in the current window (all tenants).
    total: u64,
    /// ... and the previous window.
    prev_total: u64,
}

struct Inner {
    config: AdmissionConfig,
    clock: SharedClock,
    telemetry: Arc<Telemetry>,
    monitor: Option<Arc<WorkloadMonitor>>,
    tenants: Mutex<HashMap<u64, TenantState>>,
    window: Mutex<WindowState>,
    global_inflight: AtomicU32,
    connections: AtomicU32,
}

/// The admission controller. Clone-cheap (`Arc` inside); one per
/// server.
#[derive(Clone)]
pub struct AdmissionController {
    inner: Arc<Inner>,
}

/// RAII in-flight tracking: dropping the permit releases the tenant's
/// quota slot and the global in-flight count.
pub struct Permit {
    inner: Arc<Inner>,
    tenant: u64,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.inner.global_inflight.fetch_sub(1, Ordering::AcqRel);
        let mut tenants = self.inner.tenants.lock();
        if let Some(t) = tenants.get_mut(&self.tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
    }
}

impl AdmissionController {
    /// Builds a controller over the given clock and telemetry. Pass the
    /// engine's [`WorkloadMonitor`] to share the balancer's skew
    /// signal; without it only the server-side window drives shedding.
    pub fn new(
        config: AdmissionConfig,
        clock: SharedClock,
        telemetry: Arc<Telemetry>,
        monitor: Option<Arc<WorkloadMonitor>>,
    ) -> Self {
        let start_ms = clock.now();
        AdmissionController {
            inner: Arc::new(Inner {
                config,
                clock,
                telemetry,
                monitor,
                tenants: Mutex::new(HashMap::new()),
                window: Mutex::new(WindowState {
                    start_ms,
                    total: 0,
                    prev_total: 0,
                }),
                global_inflight: AtomicU32::new(0),
                connections: AtomicU32::new(0),
            }),
        }
    }

    /// Current globally in-flight request count.
    pub(crate) fn global_inflight(&self) -> u32 {
        self.inner.global_inflight.load(Ordering::Acquire)
    }

    /// Tries to open a connection slot; `false` = at `max_connections`.
    pub(crate) fn try_open_connection(&self) -> bool {
        let max = self.inner.config.max_connections;
        self.inner
            .connections
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                (c < max).then_some(c + 1)
            })
            .is_ok()
    }

    /// Releases a connection slot.
    pub(crate) fn close_connection(&self) {
        self.inner.connections.fetch_sub(1, Ordering::AcqRel);
    }

    /// Currently open connections.
    pub(crate) fn connections(&self) -> u32 {
        self.inner.connections.load(Ordering::Acquire)
    }

    /// Decides one request for `tenant`.
    pub fn admit(&self, tenant: TenantId) -> Decision {
        let inner = &self.inner;
        let now = inner.clock.now();
        let cfg = &inner.config;

        // Pre-read the global in-flight level and (outside the tenant
        // lock) the monitor proportion, so the lock below stays short.
        let global = inner.global_inflight.load(Ordering::Acquire);
        let overloaded = cfg.shedding && cfg.enabled && global >= cfg.overload_inflight;
        let monitor_prop = if overloaded {
            inner
                .monitor
                .as_ref()
                .map_or(0.0, |m| m.current().tenant_proportion(tenant))
        } else {
            0.0
        };

        // Roll the proportion window if it expired.
        let (window_total, prev_total) = {
            let mut w = inner.window.lock();
            if now.saturating_sub(w.start_ms) >= cfg.window_ms {
                w.prev_total = w.total;
                w.total = 0;
                w.start_ms = now;
                let mut tenants = inner.tenants.lock();
                for t in tenants.values_mut() {
                    t.prev_window = t.window;
                    t.window = 0;
                }
            }
            w.total += 1;
            (w.total, w.prev_total)
        };

        let mut tenants = inner.tenants.lock();
        let t = tenants.entry(tenant.0).or_insert_with(|| {
            let rate = cfg
                .tenant_rates
                .iter()
                .find(|(k, _)| *k == tenant)
                .map(|(_, r)| *r)
                .unwrap_or(cfg.default_rate);
            TenantState {
                bucket_mt: rate.capacity * 1000,
                bucket_last_ms: now,
                inflight: 0,
                window: 0,
                prev_window: 0,
                mode: TenantMode::Admitting,
                counts: AdmissionCounts::default(),
                rate,
            }
        });
        t.counts.issued += 1;
        t.window += 1;

        if !cfg.enabled {
            t.counts.admitted += 1;
            return self.admitted(tenant, t);
        }

        // 1. Shed hot tenants under overload. The proportion blends the
        //    fast server-side window (requests seen at the front door)
        //    with the engine's write-throughput monitor; either signal
        //    alone marks the tenant hot.
        if overloaded {
            let server_prop = {
                let num = (t.window + t.prev_window) as f64;
                let den = (window_total + prev_total) as f64;
                if den > 0.0 {
                    num / den
                } else {
                    0.0
                }
            };
            let prop = server_prop.max(monitor_prop);
            if prop > cfg.shed_proportion {
                t.counts.shed += 1;
                if t.mode != TenantMode::Shedding {
                    t.mode = TenantMode::Shedding;
                    inner.telemetry.emit(
                        EventKind::ServerShed {
                            tenant: tenant.0,
                            proportion_ppm: (prop * 1e6) as u64,
                        },
                        Labels::tenant(tenant.0),
                        NO_PARENT,
                    );
                }
                return Decision::Rejected {
                    reason: RejectReason::Shed,
                    retry_after_ms: Some(cfg.window_ms),
                };
            }
        }

        // 2. Per-tenant in-flight quota.
        if t.inflight >= cfg.per_tenant_inflight {
            t.counts.quota += 1;
            if t.mode != TenantMode::Throttled {
                t.mode = TenantMode::Throttled;
                inner.telemetry.emit(
                    EventKind::ServerThrottle {
                        tenant: tenant.0,
                        reason: "quota",
                        retry_after_ms: 0,
                    },
                    Labels::tenant(tenant.0),
                    NO_PARENT,
                );
            }
            return Decision::Rejected {
                reason: RejectReason::Quota,
                retry_after_ms: None,
            };
        }

        // 3. Token bucket. Refill is integral millitokens per elapsed
        //    clock ms, so identical clock sequences give identical
        //    decisions.
        let elapsed = now.saturating_sub(t.bucket_last_ms);
        t.bucket_mt = (t.bucket_mt + elapsed * t.rate.per_sec).min(t.rate.capacity * 1000);
        t.bucket_last_ms = now;
        if t.bucket_mt < 1000 {
            let deficit = 1000 - t.bucket_mt;
            let retry_ms = if t.rate.per_sec == 0 {
                cfg.window_ms
            } else {
                deficit.div_ceil(t.rate.per_sec)
            };
            t.counts.rate += 1;
            if t.mode != TenantMode::Throttled {
                t.mode = TenantMode::Throttled;
                inner.telemetry.emit(
                    EventKind::ServerThrottle {
                        tenant: tenant.0,
                        reason: "rate",
                        retry_after_ms: retry_ms,
                    },
                    Labels::tenant(tenant.0),
                    NO_PARENT,
                );
            }
            return Decision::Rejected {
                reason: RejectReason::Rate,
                retry_after_ms: Some(retry_ms),
            };
        }
        t.bucket_mt -= 1000;

        // 4. Admit.
        t.counts.admitted += 1;
        self.admitted(tenant, t)
    }

    fn admitted(&self, tenant: TenantId, t: &mut TenantState) -> Decision {
        if t.mode != TenantMode::Admitting {
            t.mode = TenantMode::Admitting;
            self.inner.telemetry.emit(
                EventKind::ServerAdmit { tenant: tenant.0 },
                Labels::tenant(tenant.0),
                NO_PARENT,
            );
        }
        t.inflight += 1;
        self.inner.global_inflight.fetch_add(1, Ordering::AcqRel);
        Decision::Admitted(Permit {
            inner: Arc::clone(&self.inner),
            tenant: tenant.0,
        })
    }

    /// Decision counters for one tenant (zero if never seen).
    pub fn tenant_counts(&self, tenant: TenantId) -> AdmissionCounts {
        self.inner
            .tenants
            .lock()
            .get(&tenant.0)
            .map(|t| t.counts)
            .unwrap_or_default()
    }

    /// Decision counters summed over every tenant.
    pub fn total_counts(&self) -> AdmissionCounts {
        let tenants = self.inner.tenants.lock();
        let mut out = AdmissionCounts::default();
        for t in tenants.values() {
            out.issued += t.counts.issued;
            out.admitted += t.counts.admitted;
            out.rate += t.counts.rate;
            out.quota += t.counts.quota;
            out.shed += t.counts.shed;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::ManualClock;

    fn controller(cfg: AdmissionConfig) -> (AdmissionController, Arc<ManualClock>) {
        let (clock, manual) = SharedClock::manual(0);
        let c = AdmissionController::new(cfg, clock, Arc::new(Telemetry::disabled()), None);
        (c, manual)
    }

    #[test]
    fn token_bucket_refill_is_deterministic() {
        let cfg = AdmissionConfig {
            default_rate: RateLimit {
                capacity: 2,
                per_sec: 10, // 10 millitokens per ms
            },
            per_tenant_inflight: 1000,
            ..AdmissionConfig::default()
        };
        let run = || {
            let (c, clock) = controller(cfg.clone());
            let mut decisions = Vec::new();
            for step in 0..200u64 {
                clock.advance(17);
                let d = c.admit(TenantId(1));
                decisions.push(matches!(d, Decision::Admitted(_)));
                let _ = step;
            }
            (decisions, c.tenant_counts(TenantId(1)))
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b, "same clock sequence must give same decisions");
        assert_eq!(ca, cb);
        assert!(ca.conserved());
        // 17 ms * 10/s = 170 mt per step; 1000 mt per request → roughly
        // 17% admitted after the initial burst of 2.
        assert!(ca.admitted >= 2 && ca.admitted < ca.issued);
    }

    #[test]
    fn burst_then_throttle_then_recover() {
        let cfg = AdmissionConfig {
            default_rate: RateLimit {
                capacity: 3,
                per_sec: 1000,
            },
            per_tenant_inflight: 1000,
            ..AdmissionConfig::default()
        };
        let (c, clock) = controller(cfg);
        // Burst drains the bucket.
        for _ in 0..3 {
            assert!(matches!(c.admit(TenantId(9)), Decision::Admitted(_)));
        }
        match c.admit(TenantId(9)) {
            Decision::Rejected {
                reason: RejectReason::Rate,
                retry_after_ms: Some(ms),
            } => assert_eq!(ms, 1, "1000/s refill → 1 ms per token"),
            _ => panic!("expected rate rejection"),
        }
        clock.advance(1);
        assert!(matches!(c.admit(TenantId(9)), Decision::Admitted(_)));
    }

    #[test]
    fn quota_blocks_until_permit_drops() {
        let cfg = AdmissionConfig {
            per_tenant_inflight: 2,
            default_rate: RateLimit {
                capacity: 1_000_000,
                per_sec: 1_000_000,
            },
            ..AdmissionConfig::default()
        };
        let (c, _clock) = controller(cfg);
        let p1 = match c.admit(TenantId(4)) {
            Decision::Admitted(p) => p,
            _ => panic!(),
        };
        let _p2 = match c.admit(TenantId(4)) {
            Decision::Admitted(p) => p,
            _ => panic!(),
        };
        assert!(matches!(
            c.admit(TenantId(4)),
            Decision::Rejected {
                reason: RejectReason::Quota,
                ..
            }
        ));
        drop(p1);
        assert!(matches!(c.admit(TenantId(4)), Decision::Admitted(_)));
        let counts = c.tenant_counts(TenantId(4));
        assert!(counts.conserved());
        assert_eq!(counts.quota, 1, "the rejection was a quota, not rate");
        assert_eq!(counts.rate, 0);
        assert_eq!(counts.throttled(), 1);
    }

    #[test]
    fn sheds_only_hot_tenant_under_overload() {
        let cfg = AdmissionConfig {
            overload_inflight: 2,
            shed_proportion: 0.5,
            per_tenant_inflight: 1000,
            default_rate: RateLimit {
                capacity: 1_000_000,
                per_sec: 1_000_000,
            },
            ..AdmissionConfig::default()
        };
        let (c, _clock) = controller(cfg);
        // Make tenant 1 dominate the window while holding permits so the
        // server counts as overloaded.
        let mut permits = Vec::new();
        for _ in 0..8 {
            if let Decision::Admitted(p) = c.admit(TenantId(1)) {
                permits.push(p);
            }
        }
        assert!(c.global_inflight() >= 2);
        // Hot tenant now gets shed...
        assert!(matches!(
            c.admit(TenantId(1)),
            Decision::Rejected {
                reason: RejectReason::Shed,
                ..
            }
        ));
        // ...while the cold tenant still gets through.
        assert!(matches!(c.admit(TenantId(2)), Decision::Admitted(_)));
        assert!(c.tenant_counts(TenantId(1)).shed >= 1);
        assert_eq!(c.tenant_counts(TenantId(2)).shed, 0);
    }

    #[test]
    fn shedding_off_never_sheds() {
        let cfg = AdmissionConfig {
            overload_inflight: 1,
            shed_proportion: 0.0,
            shedding: false,
            per_tenant_inflight: 1000,
            default_rate: RateLimit {
                capacity: 1_000_000,
                per_sec: 1_000_000,
            },
            ..AdmissionConfig::default()
        };
        let (c, _clock) = controller(cfg);
        let mut permits = Vec::new();
        for _ in 0..16 {
            if let Decision::Admitted(p) = c.admit(TenantId(1)) {
                permits.push(p);
            }
        }
        assert_eq!(c.tenant_counts(TenantId(1)).shed, 0);
    }

    #[test]
    fn connection_cap_enforced() {
        let cfg = AdmissionConfig {
            max_connections: 2,
            ..AdmissionConfig::default()
        };
        let (c, _clock) = controller(cfg);
        assert!(c.try_open_connection());
        assert!(c.try_open_connection());
        assert!(!c.try_open_connection());
        c.close_connection();
        assert!(c.try_open_connection());
        assert_eq!(c.connections(), 2);
    }
}
