//! Scoped-thread fork/join executor for per-shard fan-out.
//!
//! ESDB's scatter-gather paths (query fan-out over a tenant's shard
//! span, refresh/flush/merge maintenance sweeps) are embarrassingly
//! parallel across shards. This module provides the one primitive they
//! all share: run a closure over a slice of items on a bounded pool of
//! scoped threads and return the results **in item order**, so callers
//! observe identical output whether the work ran sequentially or
//! parallel.
//!
//! Built on [`std::thread::scope`] — no external thread-pool dependency
//! — with work distributed by an atomic cursor so a slow item (one hot
//! shard with a large posting list) does not stall the other workers
//! behind a static partition.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A fork/join executor with a fixed parallelism degree.
///
/// `parallelism == 1` never spawns a thread: the closure runs on the
/// caller's thread in item order, giving a deterministic sequential
/// mode for debugging and baseline benchmarking. Degrees above 1 spawn
/// at most `min(parallelism, items.len())` scoped worker threads per
/// call; threads live only for the duration of the call, so the
/// executor holds no state beyond the configured degree.
#[derive(Debug, Clone)]
pub struct Executor {
    parallelism: usize,
}

impl Executor {
    /// An executor with the given degree; `0` selects the number of
    /// available CPU cores.
    pub fn new(parallelism: usize) -> Self {
        let parallelism = if parallelism == 0 {
            available_parallelism()
        } else {
            parallelism
        };
        Executor { parallelism }
    }

    /// The configured degree (≥ 1).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Applies `f` to every item, returning results in item order.
    ///
    /// `f` receives `(index, &item)`. Work is claimed dynamically: each
    /// worker takes the next unclaimed index, so skewed per-item cost
    /// balances across threads. If `f` panics on any item, the panic is
    /// propagated to the caller after all workers stop claiming work.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.parallelism.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(chunk) => indexed.extend(chunk),
                    Err(p) => panic_payload = Some(p),
                }
            }
        });
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        // Dynamic claiming returns chunks out of order; restore item
        // order so parallel output is indistinguishable from sequential.
        indexed.sort_unstable_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}

impl Default for Executor {
    /// Defaults to all available cores.
    fn default() -> Self {
        Executor::new(0)
    }
}

/// The number of CPU cores the OS reports, with a floor of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let seq = Executor::new(1).map(&items, |i, v| (i as u64) * 31 + v);
        for degree in [2, 3, 8] {
            let par = Executor::new(degree).map(&items, |i, v| (i as u64) * 31 + v);
            assert_eq!(seq, par, "degree {degree} diverged");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let ex = Executor::new(4);
        assert_eq!(ex.map(&[] as &[u32], |_, v| *v), Vec::<u32>::new());
        assert_eq!(ex.map(&[7u32], |i, v| v + i as u32), vec![7]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        Executor::new(4).map(&items, |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Hold the slot long enough for other workers to claim work.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(seen.lock().unwrap().len() > 1, "expected work on >1 thread");
    }

    #[test]
    fn degree_zero_resolves_to_cores() {
        assert_eq!(Executor::new(0).parallelism(), available_parallelism());
        assert!(Executor::default().parallelism() >= 1);
    }

    #[test]
    fn work_claiming_covers_every_item_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        Executor::new(8).map(&items, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        Executor::new(4).map(&items, |i, _| {
            if i == 9 {
                panic!("boom");
            }
        });
    }
}
