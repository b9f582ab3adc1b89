//! A concurrent compute-once memo cache.
//!
//! Scenarios that share a pipeline prefix — same circuit, same effective
//! latency, same scheduler, same reordering setting — produce the *same*
//! CDFG build and power-managed schedule; only the cheap savings evaluation
//! differs.  [`MemoCache`] computes each such prefix exactly once, even
//! under contention: every key owns a [`OnceLock`] slot, so two workers
//! racing on the same key block on the slot rather than computing twice,
//! while distinct keys proceed in parallel.
//!
//! Such a race is rare in a sweep: scenarios that differ only in branch
//! model share a prefix and sit side by side in canonical order, and the
//! pool deals each worker one contiguous block of the plan, so they run
//! on one worker, one after another.  Two workers meet on one key where a
//! block boundary or a steal cuts such a run, or where two factorings of
//! one effective latency (latency 3 × depth 2 and 6 × 1) sort apart.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hit/miss counters of a [`MemoCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from an already computed slot.
    pub hits: u64,
    /// Lookups that had to run the compute closure.
    pub misses: u64,
    /// Number of distinct keys currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits as a fraction of lookups, in `0.0..=1.0` (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// The delta since `baseline` — the counters attributable to whatever
    /// ran between the two snapshots.  `hits`/`misses` subtract
    /// (saturating, so a swapped argument order degrades to zeros rather
    /// than wrapping); `entries` stays absolute, since entries persist
    /// across jobs by design.
    pub fn since(self, baseline: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            entries: self.entries,
        }
    }
}

/// A thread-safe map from keys to lazily computed, shared values.
#[derive(Debug, Default)]
pub struct MemoCache<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> MemoCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        MemoCache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, running `compute` (once, globally)
    /// if it is not present yet.  Concurrent callers with the same key block
    /// until the first computation finishes; callers with different keys do
    /// not contend beyond the map lookup.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = {
            let mut slots = self.slots.lock().expect("cache lock");
            Arc::clone(slots.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        let mut computed = false;
        let value = slot.get_or_init(|| {
            computed = true;
            compute()
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.slots.lock().expect("cache lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn computes_each_key_once() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        let runs = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = cache.get_or_compute(7, || {
                runs.fetch_add(1, Ordering::SeqCst);
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.lookups(), 5);
    }

    #[test]
    fn distinct_keys_compute_independently() {
        let cache: MemoCache<&'static str, usize> = MemoCache::new();
        assert_eq!(cache.get_or_compute("a", || 1), 1);
        assert_eq!(cache.get_or_compute("b", || 2), 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn since_isolates_one_jobs_counters() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        cache.get_or_compute(1, || 10);
        cache.get_or_compute(1, || 10);
        let baseline = cache.stats();
        cache.get_or_compute(1, || 10);
        cache.get_or_compute(2, || 20);
        let delta = cache.stats().since(baseline);
        assert_eq!(delta, CacheStats { hits: 1, misses: 1, entries: 2 });
        assert_eq!(delta.hit_rate(), 0.5);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        // Swapped arguments saturate instead of wrapping.
        assert_eq!(baseline.since(cache.stats()).hits, 0);
    }

    #[test]
    fn concurrent_same_key_runs_compute_once() {
        let cache: MemoCache<u8, u64> = MemoCache::new();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_compute(1, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        99
                    })
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().lookups(), 8);
    }
}
