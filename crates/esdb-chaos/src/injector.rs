//! Deterministic torn-write injection for the translog.

use esdb_storage::WriteFault;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stateless 64-bit mixer (splitmix64 finalizer) — turns (seed, index)
/// into an offset without any global RNG state, so concurrent appends
/// can't perturb each other's draws.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A [`WriteFault`] that tears every `period`-th append at a seed-derived
/// byte offset strictly inside the frame — the short/torn write a crash
/// mid-`write(2)` produces. `period == 0` disables injection.
///
/// Deterministic: the k-th append under seed `s` always tears (or not) at
/// the same offset, regardless of wall-clock or thread timing.
#[derive(Debug)]
pub struct TornWriteInjector {
    seed: u64,
    period: u64,
    appends: AtomicU64,
}

impl TornWriteInjector {
    /// Tears one in `period` appends under `seed`.
    pub fn new(seed: u64, period: u64) -> Self {
        TornWriteInjector {
            seed,
            period,
            appends: AtomicU64::new(0),
        }
    }

    /// Appends observed so far.
    pub fn appends_seen(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }
}

impl WriteFault for TornWriteInjector {
    fn torn_write_len(&self, frame_len: usize) -> Option<usize> {
        let i = self.appends.fetch_add(1, Ordering::Relaxed);
        if self.period == 0 || (i + 1) % self.period != 0 {
            return None;
        }
        // Offset in [0, frame_len): 0 = nothing of the frame lands,
        // frame_len - 1 = one byte short. Never a full write.
        Some((mix(self.seed ^ i) % frame_len.max(1) as u64) as usize)
    }
}

/// A [`WriteFault`] that kills one deterministic *window* of appends:
/// every append whose global index falls in `[start, start + len)` tears
/// at offset 0 — nothing of the frame lands, the op errors out and is
/// never acknowledged — and appends outside the window land whole. This
/// is the disk's view of a node dying and restarting at a scheduled
/// instant, e.g. mid-way through a live migration's segment handoff:
/// the engine keeps running, a contiguous burst of writes fails loudly,
/// then service resumes.
///
/// `len == 0` disables injection. With `seeded`, the window start is
/// drawn deterministically from the seed, so one `u64` reproduces the
/// entire crash placement.
#[derive(Debug)]
pub struct CrashWindowInjector {
    start: u64,
    len: u64,
    appends: AtomicU64,
}

impl CrashWindowInjector {
    /// Fails appends `[start, start + len)`.
    pub fn new(start: u64, len: u64) -> Self {
        CrashWindowInjector {
            start,
            len,
            appends: AtomicU64::new(0),
        }
    }

    /// Draws the window start uniformly from `[lo, hi)` under `seed`.
    pub fn seeded(seed: u64, lo: u64, hi: u64, len: u64) -> Self {
        let span = hi.saturating_sub(lo).max(1);
        CrashWindowInjector::new(lo + mix(seed) % span, len)
    }

    /// Whether the crash window has fully passed (every append in it was
    /// attempted and failed).
    pub fn window_elapsed(&self) -> bool {
        self.appends.load(Ordering::Relaxed) >= self.start + self.len
    }
}

impl WriteFault for CrashWindowInjector {
    fn torn_write_len(&self, _frame_len: usize) -> Option<usize> {
        let i = self.appends.fetch_add(1, Ordering::Relaxed);
        (self.len > 0 && i >= self.start && i < self.start + self.len).then_some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tears_exactly_every_period() {
        let inj = TornWriteInjector::new(7, 3);
        let torn: Vec<bool> = (0..9).map(|_| inj.torn_write_len(100).is_some()).collect();
        assert_eq!(
            torn,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(inj.appends_seen(), 9);
    }

    #[test]
    fn offsets_are_seed_deterministic_and_short() {
        let a = TornWriteInjector::new(42, 1);
        let b = TornWriteInjector::new(42, 1);
        for _ in 0..50 {
            let (x, y) = (a.torn_write_len(64), b.torn_write_len(64));
            assert_eq!(x, y);
            assert!(x.expect("period 1 always tears") < 64);
        }
        let c = TornWriteInjector::new(43, 1);
        let first_a = TornWriteInjector::new(42, 1).torn_write_len(64);
        assert_ne!(first_a, c.torn_write_len(64), "seed changes the offsets");
    }

    #[test]
    fn zero_period_never_tears() {
        let inj = TornWriteInjector::new(1, 0);
        assert!((0..100).all(|_| inj.torn_write_len(32).is_none()));
    }

    #[test]
    fn crash_window_kills_exactly_its_range() {
        let inj = CrashWindowInjector::new(3, 2);
        let torn: Vec<bool> = (0..7).map(|_| inj.torn_write_len(100).is_some()).collect();
        assert_eq!(torn, vec![false, false, false, true, true, false, false]);
        assert!(inj.window_elapsed());
        // Window tears leave nothing of the frame on disk.
        let inj = CrashWindowInjector::new(0, 1);
        assert_eq!(inj.torn_write_len(64), Some(0));
    }

    #[test]
    fn seeded_crash_window_is_deterministic() {
        let a = CrashWindowInjector::seeded(99, 100, 200, 5);
        let b = CrashWindowInjector::seeded(99, 100, 200, 5);
        assert_eq!(a.start, b.start);
        assert!((100..200).contains(&a.start));
        let c = CrashWindowInjector::seeded(100, 100, 200, 5);
        assert_ne!(a.start, c.start, "seed moves the window");
    }

    #[test]
    fn zero_len_crash_window_never_fires() {
        let inj = CrashWindowInjector::new(0, 0);
        assert!((0..50).all(|_| inj.torn_write_len(32).is_none()));
    }
}
