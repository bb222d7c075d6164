//! Sharded, weight-budgeted LRU caches.
//!
//! ESDB's workloads are extremely skewed (paper §1): a handful of hot
//! tenants issue the same filter sub-plans against the same immutable
//! segments thousands of times per refresh interval. The query layer
//! amortizes that repetition through two caches (segment filter results
//! and whole shard-level request results), both built on the generic
//! [`ShardedCache`] here.
//!
//! Design:
//!
//! * **Sharded** — the key hash picks one of 16 independent LRU shards,
//!   each behind its own mutex, so concurrent scatter-gather threads do
//!   not serialize on a single cache lock.
//! * **Weight-budgeted** — every entry carries a caller-supplied weight
//!   (bytes for posting lists, `1` for entry-count budgets); inserting
//!   past the budget evicts from the cold end of the affected shard.
//! * **Deterministic** — shard selection and eviction order depend only
//!   on the key values and the operation sequence, never on addresses or
//!   wall-clock time, so cached and uncached runs stay reproducible.

use crate::fastmap::{fast_map, FastMap};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independent LRU shards (power of two).
const CACHE_SHARDS: usize = 16;

/// Slab sentinel for "no node".
const NIL: usize = usize::MAX;

/// Point-in-time counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay within the weight budget.
    pub evictions: u64,
    /// Current total weight of resident entries (bytes, or entry count,
    /// depending on what the caller charges per entry).
    pub bytes: u64,
    /// Resident entries.
    pub entries: u64,
}

/// One LRU shard: an intrusive doubly-linked list over a slab, indexed by
/// a hash map. `head` is the most recently used node.
struct LruShard<K, V> {
    map: FastMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    weight: u64,
}

struct Node<K, V> {
    key: K,
    value: V,
    weight: u64,
    prev: usize,
    next: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruShard<K, V> {
    fn new() -> Self {
        LruShard {
            map: fast_map(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            weight: 0,
        }
    }

    /// Detaches node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links node `i` at the hot end.
    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(self.nodes[i].value.clone())
    }

    /// Removes node `i` entirely, returning its weight.
    fn remove_node(&mut self, i: usize) -> u64 {
        self.unlink(i);
        let w = self.nodes[i].weight;
        self.map.remove(&self.nodes[i].key);
        self.weight -= w;
        self.free.push(i);
        w
    }

    /// Evicts cold entries until the shard fits `budget`; returns how many
    /// entries were dropped.
    fn evict_to(&mut self, budget: u64) -> u64 {
        let mut evicted = 0;
        while self.weight > budget && self.tail != NIL {
            self.remove_node(self.tail);
            evicted += 1;
        }
        evicted
    }

    fn insert(&mut self, key: K, value: V, weight: u64, budget: u64) -> u64 {
        if let Some(&i) = self.map.get(&key) {
            self.weight = self.weight - self.nodes[i].weight + weight;
            self.nodes[i].value = value;
            self.nodes[i].weight = weight;
            self.touch(i);
        } else {
            let node = Node {
                key: key.clone(),
                value,
                weight,
                prev: NIL,
                next: NIL,
            };
            let i = match self.free.pop() {
                Some(i) => {
                    self.nodes[i] = node;
                    i
                }
                None => {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                }
            };
            self.map.insert(key, i);
            self.weight += weight;
            self.push_front(i);
        }
        self.evict_to(budget)
    }

    fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let mut doomed: Vec<usize> = Vec::new();
        let mut i = self.head;
        while i != NIL {
            if !keep(&self.nodes[i].key) {
                doomed.push(i);
            }
            i = self.nodes[i].next;
        }
        for i in doomed {
            self.remove_node(i);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.weight = 0;
    }
}

/// A sharded, weight-budgeted LRU cache.
///
/// ```
/// use esdb_common::cache::ShardedCache;
///
/// let cache: ShardedCache<u64, String> = ShardedCache::new(1 << 20);
/// cache.insert(1, "hot".to_string(), 3);
/// assert_eq!(cache.get(&1), Some("hot".to_string()));
/// assert_eq!(cache.get(&2), None);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    /// Per-shard weight budget (total budget / shard count).
    shard_budget: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates a cache holding at most `budget` total weight.
    pub fn new(budget: u64) -> Self {
        ShardedCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(LruShard::new()))
                .collect(),
            shard_budget: AtomicU64::new(budget / CACHE_SHARDS as u64),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Changes the weight budget, evicting immediately if it shrank.
    pub fn set_budget(&self, budget: u64) {
        let per_shard = budget / CACHE_SHARDS as u64;
        self.shard_budget.store(per_shard, Ordering::Relaxed);
        let mut evicted = 0;
        for shard in &self.shards {
            evicted += shard.lock().evict_to(per_shard);
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let mut h = crate::fastmap::FxHasher::default();
        key.hash(&mut h);
        // fmix so low bits of weak FxHash output are avalanche-mixed
        // before selecting the shard.
        let i = crate::hash::fmix64(h.finish()) as usize % CACHE_SHARDS;
        &self.shards[i]
    }

    /// Looks up `key`, cloning the value out and marking it hot.
    pub fn get(&self, key: &K) -> Option<V> {
        let got = self.shard_of(key).lock().get(key);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Inserts `key → value` charging `weight` against the budget.
    /// Entries heavier than a whole shard's budget are not admitted (they
    /// would evict everything and then be evicted themselves).
    pub fn insert(&self, key: K, value: V, weight: u64) {
        let budget = self.shard_budget.load(Ordering::Relaxed);
        if weight > budget {
            return;
        }
        let evicted = self
            .shard_of(&key)
            .lock()
            .insert(key, value, weight, budget);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drops every entry whose key fails `keep` (invalidation sweeps).
    pub fn retain(&self, keep: impl Fn(&K) -> bool) {
        for shard in &self.shards {
            shard.lock().retain(&keep);
        }
    }

    /// Drops everything (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        let mut bytes = 0u64;
        let mut entries = 0u64;
        for shard in &self.shards {
            let s = shard.lock();
            bytes += s.weight;
            entries += s.map.len() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache whose keys all land in one shard would be ideal for order
    /// tests; instead use enough budget slack that sharding never splits
    /// the working set unexpectedly.
    fn small() -> ShardedCache<u64, u64> {
        ShardedCache::new(16 * 100) // 100 weight per shard
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = small();
        assert_eq!(c.get(&1), None);
        c.insert(1, 10, 1);
        assert_eq!(c.get(&1), Some(10));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 1);
    }

    #[test]
    fn overwrite_updates_weight() {
        let c = small();
        c.insert(7, 1, 10);
        c.insert(7, 2, 30);
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 30);
        assert_eq!(c.get(&7), Some(2));
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        // Single-shard behavior tested directly on LruShard to avoid
        // depending on which shard each key hashes to.
        let mut s: LruShard<u64, u64> = LruShard::new();
        s.insert(1, 1, 40, 100);
        s.insert(2, 2, 40, 100);
        assert_eq!(s.get(&1), Some(1)); // 1 is now hotter than 2
        let evicted = s.insert(3, 3, 40, 100);
        assert_eq!(evicted, 1, "over budget: one entry must go");
        assert_eq!(s.get(&2), None, "coldest entry (2) was evicted");
        assert_eq!(s.get(&1), Some(1));
        assert_eq!(s.get(&3), Some(3));
    }

    #[test]
    fn oversized_entries_not_admitted() {
        let c = small();
        c.insert(1, 1, 10_000); // heavier than one shard's budget
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn shrinking_budget_evicts() {
        let c = small();
        for k in 0..50u64 {
            c.insert(k, k, 10);
        }
        let before = c.stats();
        assert!(before.entries > 0);
        c.set_budget(0);
        let after = c.stats();
        assert_eq!(after.entries, 0);
        assert_eq!(after.bytes, 0);
        assert!(after.evictions >= before.entries);
    }

    #[test]
    fn retain_drops_matching_keys() {
        let c = small();
        for k in 0..20u64 {
            c.insert(k, k, 1);
        }
        c.retain(|&k| k % 2 == 0);
        for k in 0..20u64 {
            assert_eq!(c.get(&k).is_some(), k % 2 == 0, "key {k}");
        }
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let c = small();
        c.insert(1, 1, 1);
        assert_eq!(c.get(&1), Some(1));
        c.clear();
        assert_eq!(c.get(&1), None);
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut s: LruShard<u64, u64> = LruShard::new();
        for round in 0..10u64 {
            for k in 0..5u64 {
                s.insert(round * 5 + k, k, 20, 100);
            }
        }
        // Budget admits 5 live entries; the slab must not grow per round.
        assert!(s.nodes.len() <= 6, "slab grew to {}", s.nodes.len());
        assert_eq!(s.map.len(), 5);
    }
}
