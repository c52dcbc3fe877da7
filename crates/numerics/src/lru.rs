//! The one least-recently-used cache behind every memoized artifact.
//!
//! The tool chain re-simulates the same transducer models over and
//! over (parameter sweeps, AC after OP, resubmitted decks), so three
//! layers memoize pure, repeatable work: fill orderings and supernodal
//! symbolic analyses keyed on a 128-bit pattern fingerprint, and the
//! served decks of `mems serve` keyed on their source text. All three
//! are an [`LruCache`]: a mutex-guarded map whose entries carry a
//! weight (1 per entry, or approximate bytes), evicted
//! least-recently-used first once the resident weight exceeds the
//! budget.
//!
//! Counting follows one rule for every cache. A lookup that finds its
//! key is a hit. A miss is counted only when the caller offers its
//! computed value to [`LruCache::insert`], so a computation that fails
//! (a rejected deck, a singular pattern) counts nothing. An insert
//! that finds the key already resident — a racing caller computed the
//! same value first — returns the resident value and counts a hit, so
//! concurrent callers converge on one shared value.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Point-in-time counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries resident now.
    pub entries: usize,
    /// Lifetime hits.
    pub hits: u64,
    /// Lifetime misses.
    pub misses: u64,
    /// Lifetime evictions.
    pub evictions: u64,
}

/// A thread-safe LRU map bounded by the total weight of its entries.
///
/// Values are cloned out of the cache, so callers store `Arc`s and a
/// hit copies a pointer. The lock is held only for map bookkeeping:
/// callers compute a missing value between [`get`](Self::get) and
/// [`insert`](Self::insert), outside it.
pub struct LruCache<K, V> {
    state: Mutex<State<K, V>>,
    budget: usize,
    max_weight: usize,
    /// Lifetime hits: lookups, and racing inserts, that found the key.
    pub hits: AtomicU64,
    /// Lifetime misses: computed values offered to the cache.
    pub misses: AtomicU64,
    /// Lifetime evictions.
    pub evictions: AtomicU64,
}

struct State<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Sum of the resident entries' weights.
    weight: usize,
    /// Use clock; every lookup or insert stamps its entry with a fresh
    /// tick, so the smallest stamp is the least recently used.
    tick: u64,
}

struct Slot<V> {
    value: V,
    weight: usize,
    last_used: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding entries up to a total weight of `budget`.
    pub fn new(budget: usize) -> Self {
        Self::with_max_weight(budget, budget)
    }

    /// An empty cache that, on top of the `budget`, never retains an
    /// entry heavier than `max_weight`: such a value is handed back to
    /// the caller (and counted as a miss) but not kept, so one huge
    /// entry cannot flush everything else.
    pub fn with_max_weight(budget: usize, max_weight: usize) -> Self {
        LruCache {
            state: Mutex::new(State {
                map: HashMap::new(),
                weight: 0,
                tick: 0,
            }),
            budget,
            max_weight: max_weight.min(budget),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().expect("no poisoned LRU cache lock")
    }

    /// The value cached under `key`, marked most recently used and
    /// counted as a hit. `None` counts nothing: the miss is counted
    /// when the computed value is offered to [`insert`](Self::insert).
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut guard = self.lock();
        let state = &mut *guard;
        state.tick += 1;
        let slot = state.map.get_mut(key)?;
        slot.last_used = state.tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Offers a computed `value` of the given `weight`. Returns the
    /// value the caller should use and whether it was already resident.
    ///
    /// - Key already resident (a racing insert won): the resident value
    ///   is returned, touched, and counted as a hit; `value` is dropped.
    /// - Otherwise a miss is counted and `value` is returned. It is
    ///   retained unless heavier than the cache's max entry weight, and
    ///   least-recently-used entries are evicted until the resident
    ///   weight fits the budget again.
    pub fn insert(&self, key: K, value: V, weight: usize) -> (V, bool) {
        let mut guard = self.lock();
        let state = &mut *guard;
        state.tick += 1;
        if let Some(slot) = state.map.get_mut(&key) {
            slot.last_used = state.tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (slot.value.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if weight > self.max_weight {
            return (value, false);
        }
        state.map.insert(
            key,
            Slot {
                value: value.clone(),
                weight,
                last_used: state.tick,
            },
        );
        state.weight += weight;
        // The new entry holds the newest stamp and fits the budget on
        // its own, so it is never its own victim.
        while state.weight > self.budget {
            let Some(victim) = state
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(slot) = state.map.remove(&victim) {
                state.weight -= slot.weight;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        (value, false)
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry; the lifetime counters keep running.
    pub fn clear(&self) {
        let mut state = self.lock();
        state.map.clear();
        state.weight = 0;
    }

    /// Resident entries plus the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn evicts_least_recently_used_under_the_weight_budget() {
        let cache = LruCache::new(10);
        cache.insert("a", 1, 4);
        cache.insert("b", 2, 4);
        // Touch `a`, so `b` is now the least recently used.
        assert_eq!(cache.get("a"), Some(1));
        // 4 + 4 + 3 > 10: one eviction frees enough, and it is `b`.
        cache.insert("c", 3, 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("c"), Some(3));
        // A heavy newcomer evicts as many old entries as it takes.
        cache.insert("d", 4, 9);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("d"), Some(4));
    }

    #[test]
    fn an_overweight_entry_is_returned_and_missed_but_not_retained() {
        let cache = LruCache::with_max_weight(100, 50);
        cache.insert(1u32, "small", 10);
        let (value, resident) = cache.insert(2u32, "huge", 51);
        assert_eq!((value, resident), ("huge", false));
        assert_eq!(cache.get(&2), None);
        // Resident entries were not flushed to make room.
        assert_eq!(cache.get(&1), Some("small"));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses, stats.evictions), (1, 2, 0));
    }

    #[test]
    fn a_racing_insert_returns_the_resident_value_as_a_hit() {
        let cache = LruCache::new(4);
        let first = Arc::new(vec![1, 2, 3]);
        let (kept, resident) = cache.insert("k", Arc::clone(&first), 1);
        assert!(!resident && Arc::ptr_eq(&kept, &first));
        // A second caller computed the same key concurrently.
        let (kept, resident) = cache.insert("k", Arc::new(vec![1, 2, 3]), 1);
        assert!(resident);
        assert!(Arc::ptr_eq(&kept, &first));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn evictions_are_counted() {
        let cache = LruCache::new(2);
        for key in 0..5u32 {
            cache.insert(key, key, 1);
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 2,
                hits: 0,
                misses: 5,
                evictions: 3,
            }
        );
        assert_eq!(cache.get(&3), Some(3));
        assert_eq!(cache.get(&4), Some(4));
    }

    #[test]
    fn clear_empties_but_keeps_the_counters() {
        let cache = LruCache::new(1);
        cache.insert("a".to_string(), 1, 1);
        cache.insert("b".to_string(), 2, 1);
        assert_eq!(cache.get("b"), Some(2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get("b"), None);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.hits, stats.misses, stats.evictions),
            (0, 1, 2, 1)
        );
        // The weight was reset too: a full budget fits again.
        cache.insert("c".to_string(), 3, 1);
        assert_eq!(cache.stats().evictions, 1);
    }
}
