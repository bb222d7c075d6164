//! Clock abstractions.
//!
//! The cluster simulator advances a virtual millisecond clock; the embedded
//! storage engine uses wall-clock time. Both sides program against the
//! [`Clock`] trait so the routing/consensus logic (which reasons about rule
//! *effective times*, paper §4.3) is identical in both environments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::ids::TimestampMs;

/// A source of millisecond timestamps.
pub trait Clock: Send + Sync {
    /// Current time, in milliseconds.
    fn now(&self) -> TimestampMs;
}

/// Wall-clock time (milliseconds since the UNIX epoch).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RealClock;

impl Clock for RealClock {
    fn now(&self) -> TimestampMs {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock before UNIX epoch")
            .as_millis() as TimestampMs
    }
}

/// A manually-advanced clock, shared via `Arc` between the simulator driver
/// and every component that needs timestamps.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ms: AtomicU64,
}

impl ManualClock {
    /// Creates a clock starting at `start_ms`.
    pub(crate) fn new(start_ms: TimestampMs) -> Self {
        ManualClock {
            now_ms: AtomicU64::new(start_ms),
        }
    }

    /// Advances the clock by `delta_ms` and returns the new time.
    pub fn advance(&self, delta_ms: u64) -> TimestampMs {
        self.now_ms.fetch_add(delta_ms, Ordering::SeqCst) + delta_ms
    }
}

impl Clock for ManualClock {
    fn now(&self) -> TimestampMs {
        self.now_ms.load(Ordering::SeqCst)
    }
}

/// A cheaply-clonable handle to any clock.
#[derive(Clone)]
pub struct SharedClock(Arc<dyn Clock>);

impl SharedClock {
    /// Wraps a clock implementation.
    pub(crate) fn new<C: Clock + 'static>(clock: C) -> Self {
        SharedClock(Arc::new(clock))
    }

    /// A wall-clock handle.
    pub fn real() -> Self {
        SharedClock::new(RealClock)
    }

    /// A manual clock handle plus the underlying clock for driving it.
    pub fn manual(start_ms: TimestampMs) -> (Self, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new(start_ms));
        (SharedClock(clock.clone()), clock)
    }
}

impl Clock for SharedClock {
    fn now(&self) -> TimestampMs {
        self.0.now()
    }
}

impl std::fmt::Debug for SharedClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedClock(now={})", self.0.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new(100);
        assert_eq!(c.now(), 100);
        assert_eq!(c.advance(50), 150);
        assert_eq!(c.now(), 150);
    }

    #[test]
    fn shared_manual_clock_is_visible_through_handle() {
        let (shared, driver) = SharedClock::manual(0);
        driver.advance(42);
        assert_eq!(shared.now(), 42);
    }

    #[test]
    fn real_clock_is_monotonic_enough() {
        let c = RealClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // Sanity: after 2020-01-01 in ms.
        assert!(a > 1_577_836_800_000);
    }
}
