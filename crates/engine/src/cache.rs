//! The content-keyed prepared-layer cache shared by all jobs of a campaign
//! (and across campaigns run on the same engine).
//!
//! Generating a workload and building its compressed views
//! ([`PreparedLayer`]) dominates campaign setup cost, and sweep-style
//! experiments reuse the same layer under many accelerator/configuration
//! variants. Every lookup goes through [`PreparedCache::get_or_prepare`]:
//! each key owns a slot, and the first caller prepares into it while
//! later callers on that key wait for the result (the layer or the
//! error), so each unique [`WorkloadKey`] is prepared exactly once while
//! resident and callers on other keys never wait. A caller with other
//! work to do can ask whether a key is in flight
//! ([`PreparedCache::is_preparing`]) and prepare an absent key without
//! waiting ([`PreparedCache::prepare_if_absent`]). Residency is bounded
//! by a configurable entry cap with least-recently-used eviction, so
//! network-scale sweeps cannot grow the cache without limit. The default
//! cap is generous — far above any single repro session's unique-workload
//! count — so eviction only engages on long-lived serving processes.
//!
//! Lock order: the map lock is never held while waiting for a slot lock
//! (a fresh slot is locked before it is published, which cannot wait);
//! the only nested slot locks are a fine-tuned slot and then its base's.

use crate::executor::EngineError;
use crate::spec::WorkloadKey;
use loas_core::PreparedLayer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// The default entry cap of a fresh cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Counters describing cache effectiveness over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreparedCacheStats {
    /// Workloads generated and prepared (one per unique key while
    /// resident; an evicted key regenerates on next use).
    pub generated: usize,
    /// Lookups served from the cache.
    pub hits: usize,
    /// Entries currently resident (prepared or in flight).
    pub entries: usize,
    /// Entries evicted over the cache's lifetime.
    pub evictions: usize,
    /// The configured entry cap.
    pub capacity: usize,
}

/// One key's preparation result. A slot is published locked by the caller
/// that prepares it, so anyone else who acquires its lock finds it filled.
type Slot = Arc<Mutex<Option<Result<Arc<PreparedLayer>, EngineError>>>>;

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<WorkloadKey, (Slot, u64)>,
    /// Monotonic access clock: entries stamp themselves on insert and on
    /// every lookup; eviction removes the minimum stamp.
    tick: u64,
    evictions: usize,
}

impl CacheInner {
    /// Removes least-recently-used entries until at most `capacity`
    /// remain. The min-scan is O(entries), which is fine here: an insert
    /// (the only caller at capacity) always precedes a workload generation
    /// costing orders of magnitude more than scanning even the default
    /// 4096-entry cap.
    fn evict_to(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(key, _)| key.clone())
                .expect("an over-capacity map is non-empty");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }
}

/// A thread-safe, content-keyed, LRU-bounded store of prepared layers.
#[derive(Debug)]
pub struct PreparedCache {
    inner: Mutex<CacheInner>,
    capacity: AtomicUsize,
    generated: AtomicUsize,
    hits: AtomicUsize,
}

impl Default for PreparedCache {
    fn default() -> Self {
        PreparedCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl PreparedCache {
    /// An empty cache at the default entry cap.
    pub fn new() -> Self {
        PreparedCache::default()
    }

    /// An empty cache holding at most `capacity` entries (clamped to at
    /// least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PreparedCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: AtomicUsize::new(capacity.max(1)),
            generated: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// Reconfigures the entry cap (clamped to at least 1), evicting
    /// least-recently-used entries immediately if the cache is over the
    /// new bound.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Relaxed);
        self.lock().evict_to(capacity);
    }

    /// The configured entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Whether a key is resident or being prepared (no hit is counted,
    /// recency unchanged).
    pub fn contains(&self, key: &WorkloadKey) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Whether another caller holds `key`'s slot, i.e. is preparing it
    /// (no hit is counted, recency unchanged).
    pub fn is_preparing(&self, key: &WorkloadKey) -> bool {
        let slot = self.lock().map.get(key).map(|(slot, _)| slot.clone());
        slot.is_some_and(|slot| matches!(slot.try_lock(), Err(TryLockError::WouldBlock)))
    }

    /// The layer under `key`, running `prepare` to build it if it is not
    /// resident. Concurrent callers on one key wait for the first one's
    /// preparation and share its result, layer or error, so a resident
    /// key is prepared exactly once; a hit is counted for every caller
    /// that did not prepare. A failed preparation leaves the key vacant
    /// (the next caller tries again). An entry evicted while in flight
    /// still reaches its callers, it just is not kept.
    ///
    /// # Errors
    ///
    /// Returns `prepare`'s error, also to the callers that waited for it.
    pub fn get_or_prepare(
        &self,
        key: &WorkloadKey,
        prepare: impl FnOnce() -> Result<PreparedLayer, EngineError>,
    ) -> Result<Arc<PreparedLayer>, EngineError> {
        self.resolve(key, prepare, true)
            .expect("a waiting lookup resolves")
    }

    /// Runs `prepare` for `key` unless it is resident or in flight; never
    /// waits, counts no hit and leaves recency unchanged. A failure leaves
    /// the key vacant for its next [`PreparedCache::get_or_prepare`].
    pub fn prepare_if_absent(
        &self,
        key: &WorkloadKey,
        prepare: impl FnOnce() -> Result<PreparedLayer, EngineError>,
    ) {
        self.resolve(key, prepare, false);
    }

    /// An absent key is prepared into a fresh slot, published with its
    /// lock held; a present one is shared from its slot when `wait`.
    fn resolve(
        &self,
        key: &WorkloadKey,
        prepare: impl FnOnce() -> Result<PreparedLayer, EngineError>,
        wait: bool,
    ) -> Option<Result<Arc<PreparedLayer>, EngineError>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((slot, stamp)) = inner.map.get_mut(key) {
            if !wait {
                return None;
            }
            *stamp = tick;
            let slot = slot.clone();
            drop(inner);
            let result = slot.lock().expect("cache slot lock").clone();
            if let Some(Ok(_)) = result {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return result;
        }
        let slot = Slot::default();
        let mut filled = slot.lock().expect("a fresh slot is unshared");
        inner.map.insert(key.clone(), (slot.clone(), tick));
        inner.evict_to(self.capacity());
        drop(inner);
        let result = prepare().map(Arc::new);
        if result.is_ok() {
            self.generated.fetch_add(1, Ordering::Relaxed);
        } else {
            let mut inner = self.lock();
            if matches!(inner.map.get(key), Some((resident, _)) if Arc::ptr_eq(resident, &slot)) {
                inner.map.remove(key);
            }
        }
        *filled = Some(result.clone());
        Some(result)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PreparedCacheStats {
        let inner = self.lock();
        PreparedCacheStats {
            generated: self.generated.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: inner.map.len(),
            evictions: inner.evictions,
            capacity: self.capacity(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("cache lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadError};
    use std::sync::Barrier;
    use std::time::Duration;

    fn spec(name: &str) -> WorkloadSpec {
        WorkloadSpec::new(
            name,
            LayerShape::new(4, 4, 8, 64),
            SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap(),
        )
    }

    fn build(spec: &WorkloadSpec) -> Result<PreparedLayer, EngineError> {
        spec.prepare().map_err(|source| EngineError::Workload {
            workload: spec.name.clone(),
            source,
        })
    }

    fn fetch(cache: &PreparedCache, spec: &WorkloadSpec) -> Arc<PreparedLayer> {
        cache.get_or_prepare(&spec.key(), || build(spec)).unwrap()
    }

    fn infeasible() -> EngineError {
        EngineError::Workload {
            workload: "a".into(),
            source: WorkloadError::InfeasibleProfile {
                reason: "test".into(),
            },
        }
    }

    #[test]
    fn hit_and_generation_accounting() {
        let cache = PreparedCache::new();
        let a = spec("a");
        assert!(!cache.contains(&a.key()));
        let first = fetch(&cache, &a);
        assert!(Arc::ptr_eq(&first, &fetch(&cache, &a)));
        fetch(&cache, &a);
        let stats = cache.stats();
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, DEFAULT_CACHE_CAPACITY);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = PreparedCache::with_capacity(2);
        let (a, b, c) = (spec("a"), spec("b"), spec("c"));
        fetch(&cache, &a);
        fetch(&cache, &b);
        // Touch `a` so `b` is now least recently used.
        fetch(&cache, &a);
        fetch(&cache, &c);
        assert!(cache.contains(&a.key()), "recently used entry survives");
        assert!(!cache.contains(&b.key()), "LRU entry evicted");
        assert!(cache.contains(&c.key()));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // An evicted key regenerates (and recounts) on next use.
        fetch(&cache, &b);
        assert_eq!(cache.stats().generated, 4);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let cache = PreparedCache::with_capacity(3);
        for name in ["a", "b", "c"] {
            fetch(&cache, &spec(name));
        }
        cache.set_capacity(1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.capacity, 1);
        assert!(cache.contains(&spec("c").key()), "newest entry survives");
    }

    #[test]
    fn failed_preparation_leaves_the_key_vacant() {
        let cache = PreparedCache::new();
        let a = spec("a");
        let failed = cache.get_or_prepare(&a.key(), || Err(infeasible()));
        assert!(failed.is_err());
        assert!(!cache.contains(&a.key()), "the failed slot is removed");
        assert_eq!(cache.stats().generated, 0);
        fetch(&cache, &a);
        assert_eq!(cache.stats().generated, 1, "the next caller prepares");
    }

    #[test]
    fn callers_waiting_on_a_failed_preparation_share_its_error() {
        let cache = PreparedCache::new();
        let a = spec("a");
        let prepared = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    let result = cache.get_or_prepare(&a.key(), || {
                        prepared.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(20));
                        Err(infeasible())
                    });
                    assert!(result.is_err());
                });
            }
        });
        assert_eq!(prepared.load(Ordering::Relaxed), 1, "one failing run");
        assert!(!cache.contains(&a.key()));
        let stats = cache.stats();
        assert_eq!((stats.generated, stats.hits, stats.entries), (0, 0, 0));
    }

    #[test]
    fn preparing_ahead_skips_present_keys_and_never_waits() {
        let cache = PreparedCache::new();
        let (a, b) = (spec("a"), spec("b"));
        fetch(&cache, &a);
        cache.prepare_if_absent(&a.key(), || panic!("a is resident"));
        let started = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache.get_or_prepare(&b.key(), || {
                    started.wait();
                    std::thread::sleep(Duration::from_millis(300));
                    build(&b)
                })
            });
            started.wait();
            assert!(cache.is_preparing(&b.key()));
            assert!(!cache.is_preparing(&a.key()));
            cache.prepare_if_absent(&b.key(), || panic!("b is in flight"));
            assert!(cache.is_preparing(&b.key()), "returned without waiting");
        });
        assert!(!cache.is_preparing(&b.key()));
        cache.prepare_if_absent(&spec("c").key(), || build(&spec("c")));
        let stats = cache.stats();
        assert_eq!((stats.generated, stats.hits, stats.entries), (3, 0, 3));
    }

    #[test]
    fn concurrent_callers_on_one_key_prepare_once() {
        let cache = PreparedCache::new();
        let a = spec("a");
        let prepared = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let layers: Vec<Arc<PreparedLayer>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_prepare(&a.key(), || {
                                prepared.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(20));
                                build(&a)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(prepared.load(Ordering::Relaxed), 1);
        assert!(layers.iter().all(|layer| Arc::ptr_eq(layer, &layers[0])));
        let stats = cache.stats();
        assert_eq!((stats.generated, stats.hits), (1, 3));
    }
}
