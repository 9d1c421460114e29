//! A shared, LRU-bounded cache of [`RouteTable`]s.
//!
//! Building a route table is the toolchain's recurring `O(P·L)` cost: one
//! BFS sweep per processor. MAPPER's fallback-chain engine consults the
//! table in every stage, repair consults it for the healthy machine, every
//! degraded scenario, and the compacted survivor network, and METRICS'
//! interactive `reassign`/`reroute` loop re-queries it after every edit —
//! historically each of those call sites rebuilt the table from scratch.
//! [`RouteTableCache`] amortises them all: tables are keyed by the
//! network's [structural signature](Network::structural_signature) plus
//! the fault mask (for degraded networks), held behind `Arc` so hits are a
//! lock-guarded map lookup and a reference-count bump.
//!
//! Keying and invalidation:
//!
//! * **Healthy networks** key on the structural signature alone. Networks
//!   are immutable after construction, so a signature never goes stale —
//!   there is no invalidation to do.
//! * **Degraded networks** key on the signature of the *surviving* link
//!   structure **and** the per-processor liveness mask. The mask matters
//!   because a masked table is not the plain table of the surviving
//!   links: dead processors keep `u32::MAX` rows, and masked construction
//!   only requires mutual reachability among the *live* processors. Two
//!   fault sets that strand the same links but kill different processors
//!   must therefore occupy different slots.
//! * **Capacity** bounds memory (each table is `P²·4` bytes); the least
//!   recently used entry is evicted first. Fault sweeps that revisit the
//!   same victims — the CLI's `--fault-sweep` wraps around after `P`
//!   scenarios — hit instead of re-running the BFS sweep.
//!
//! The cache is `Sync`: the daemon's worker threads share one instance
//! across requests and sessions.

use crate::fault::{DegradedNetwork, TopologyError};
use crate::network::Network;
use crate::routes::RouteTable;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Cache key: structural signature of the (surviving) network, plus a
/// hash of the liveness mask for degraded networks (`0` = healthy, all
/// alive).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    signature: u64,
    fault_mask: u64,
}

/// Point-in-time counters for observability (bench harness, CLI sweeps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the BFS sweep (includes failed builds, which are
    /// never cached — a disconnected network stays an error on retry).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held at once.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner {
    map: HashMap<Key, (Arc<RouteTable>, u64)>, // value + last-used tick
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Locks the ledger, recovering from poisoning. A panic inside a stage
/// holding the guard (contained by the engine's `catch_unwind`) must
/// not fail every later run sharing the `Oregami` cache: the ledger's
/// invariants hold after any partial update (the map always holds valid
/// `Arc<RouteTable>`s; ticks/counters are mere bookkeeping), so the
/// poison flag carries no information here and is safe to strip.
fn lock_ledger(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A thread-safe, LRU-bounded map from network structure (+ fault mask)
/// to [`Arc<RouteTable>`]. See the module docs for keying semantics.
pub struct RouteTableCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for RouteTableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("RouteTableCache")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl RouteTableCache {
    /// An empty cache holding at most `capacity` tables (at least 1).
    pub fn new(capacity: usize) -> RouteTableCache {
        RouteTableCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The table for a healthy network: cached by structural signature,
    /// built with [`RouteTable::try_new`] on a miss. Build errors
    /// (disconnected network) are returned, not cached.
    pub fn get_or_build(&self, net: &Network) -> Result<Arc<RouteTable>, TopologyError> {
        let key = Key {
            signature: net.structural_signature(),
            fault_mask: 0,
        };
        self.lookup(key, || RouteTable::try_new(net))
    }

    /// The masked table for a degraded network: cached by the surviving
    /// structure's signature plus the liveness mask, built with
    /// [`DegradedNetwork::route_table`] on a miss. A partitioned survivor
    /// network surfaces as [`TopologyError::Disconnected`] every time.
    pub fn get_or_build_degraded(
        &self,
        degraded: &DegradedNetwork,
    ) -> Result<Arc<RouteTable>, TopologyError> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        degraded.alive_mask().hash(&mut h);
        let key = Key {
            signature: degraded.network().structural_signature(),
            fault_mask: h.finish() | 1, // never collides with the healthy key's 0
        };
        self.lookup(key, || degraded.route_table())
    }

    fn lookup(
        &self,
        key: Key,
        build: impl FnOnce() -> Result<RouteTable, TopologyError>,
    ) -> Result<Arc<RouteTable>, TopologyError> {
        {
            let mut inner = lock_ledger(&self.inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((table, last_used)) = inner.map.get_mut(&key) {
                *last_used = tick;
                let table = Arc::clone(table);
                inner.hits = inner.hits.saturating_add(1);
                return Ok(table);
            }
            inner.misses = inner.misses.saturating_add(1);
        }
        // Build outside the lock: a BFS sweep can be milliseconds on big
        // networks, and the daemon's workers look up concurrently.
        // Racing builders may duplicate work once; the second insert wins
        // and both hand out valid tables.
        let table = Arc::new(build()?);
        let mut inner = lock_ledger(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (Arc::clone(&table), tick));
        while inner.map.len() > self.capacity {
            // O(len) scan; capacities are small (tens of entries)
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                inner.evictions = inner.evictions.saturating_add(1);
            }
        }
        Ok(table)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_ledger(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        lock_ledger(&self.inner).map.clear();
    }

    /// Zeroes the hit/miss/eviction counters, keeping the cached entries.
    /// Long-running services (the daemon's health endpoint) call this at
    /// reporting-interval boundaries so hit rates describe the interval,
    /// not the lifetime average.
    pub fn reset_stats(&self) {
        let mut inner = lock_ledger(&self.inner);
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::fault::FaultSet;
    use crate::network::{ProcId, TopologyKind};

    #[test]
    fn healthy_lookups_hit_by_structure() {
        let cache = RouteTableCache::new(4);
        let q = builders::hypercube(3);
        let a = cache.get_or_build(&q).unwrap();
        let b = cache.get_or_build(&q).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // structurally identical but renamed network: still a hit
        let mut q2 = builders::hypercube(3);
        q2.name = "clone".into();
        let c = cache.get_or_build(&q2).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
        assert!(s.hit_rate() > 0.6 && s.hit_rate() < 0.7);
    }

    #[test]
    fn degraded_keys_include_fault_mask() {
        let cache = RouteTableCache::new(8);
        let q = builders::hypercube(3);
        let d1 = q.degrade(&FaultSet::new().with_proc(ProcId(1))).unwrap();
        let d2 = q.degrade(&FaultSet::new().with_proc(ProcId(2))).unwrap();
        let t1 = cache.get_or_build_degraded(&d1).unwrap();
        let t2 = cache.get_or_build_degraded(&d2).unwrap();
        assert!(!Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.dist(ProcId(0), ProcId(1)), u32::MAX);
        assert_eq!(t2.dist(ProcId(0), ProcId(1)), 1);
        // the same scenario again is a hit
        let d1_again = q.degrade(&FaultSet::new().with_proc(ProcId(1))).unwrap();
        let t1_again = cache.get_or_build_degraded(&d1_again).unwrap();
        assert!(Arc::ptr_eq(&t1, &t1_again));
        assert_eq!(cache.stats().hits, 1);
        // healthy and degraded tables of the same machine never alias
        let healthy = cache.get_or_build(&q).unwrap();
        assert!(!Arc::ptr_eq(&healthy, &t1));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = RouteTableCache::new(4);
        let two =
            Network::from_links("2islands", TopologyKind::Custom, 4, vec![(0, 1), (2, 3)]);
        for _ in 0..2 {
            assert!(matches!(
                cache.get_or_build(&two),
                Err(TopologyError::Disconnected { .. })
            ));
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.len), (2, 0));
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = RouteTableCache::new(2);
        let a = builders::ring(4);
        let b = builders::ring(5);
        let c = builders::ring(6);
        cache.get_or_build(&a).unwrap();
        cache.get_or_build(&b).unwrap();
        cache.get_or_build(&a).unwrap(); // refresh a
        cache.get_or_build(&c).unwrap(); // evicts b
        let s = cache.stats();
        assert_eq!((s.len, s.evictions), (2, 1));
        cache.get_or_build(&a).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.get_or_build(&b).unwrap(); // rebuilt: it was the victim
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = RouteTableCache::new(4);
        let q = builders::hypercube(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_build(&q).unwrap().dist(ProcId(0), ProcId(15))))
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 4);
            }
        });
        let s = cache.stats();
        assert_eq!(s.len, 1);
        assert_eq!(s.hits + s.misses, 4);
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        // Regression: a panic on a thread holding the cache lock used to
        // poison it, failing every subsequent run sharing the `Oregami`
        // cache. The cache must shrug the poison off and keep serving.
        let cache = std::sync::Arc::new(RouteTableCache::new(4));
        let q = builders::hypercube(3);
        cache.get_or_build(&q).unwrap();

        let poisoner = std::sync::Arc::clone(&cache);
        let handle = std::thread::spawn(move || {
            // Panic while holding the guard, exactly as a panicking
            // engine stage mid-lookup would.
            let _guard = lock_ledger(&poisoner.inner);
            panic!("injected panic while holding the cache lock");
        });
        assert!(handle.join().is_err(), "poisoner thread must panic");
        assert!(cache.inner.is_poisoned());

        // every public entry point must still work from another thread
        let t = cache.get_or_build(&q).unwrap();
        assert_eq!(t.dist(ProcId(0), ProcId(7)), 3);
        let d = q.degrade(&FaultSet::new().with_proc(ProcId(1))).unwrap();
        cache.get_or_build_degraded(&d).unwrap();
        let s = cache.stats();
        assert!(s.hits >= 1 && s.len == 2);
        cache.clear();
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn counters_saturate_and_reset_per_interval() {
        let cache = RouteTableCache::new(4);
        let q = builders::hypercube(2);
        // pre-load the counters at the ceiling: the next hit/miss/eviction
        // must pin at u64::MAX instead of wrapping to 0 and wrecking
        // every hit-rate computed from the stats
        {
            let mut inner = lock_ledger(&cache.inner);
            inner.hits = u64::MAX;
            inner.misses = u64::MAX;
            inner.evictions = u64::MAX;
        }
        cache.get_or_build(&q).unwrap(); // miss
        cache.get_or_build(&q).unwrap(); // hit
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (u64::MAX, u64::MAX, u64::MAX));
        assert!(s.hit_rate() > 0.0);

        // reset starts a fresh reporting interval without dropping entries
        cache.reset_stats();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 0));
        assert_eq!(s.len, 1, "reset_stats must keep cached tables");
        cache.get_or_build(&q).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        assert_eq!(s.hit_rate(), 1.0);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = RouteTableCache::new(4);
        let q = builders::hypercube(2);
        cache.get_or_build(&q).unwrap();
        cache.get_or_build(&q).unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.len, 0);
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
