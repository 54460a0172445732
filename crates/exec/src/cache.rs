//! Sharded LRU caching: a generic [`ShardedCache`] plus the engine's
//! [`PlanCache`].
//!
//! The cache is sharded to keep lock hold times short when many serving
//! threads share one engine: a key hashes to one of N shards, each an
//! independent mutex around a small `HashMap`. Eviction is LRU per shard,
//! implemented as a linear scan for the stalest entry — shard capacities
//! are small (tens of entries), so a scan beats the bookkeeping of an
//! intrusive list and stays obviously correct.
//!
//! [`PlanCache`] keys compiled plans by **(database id, database version,
//! normalized query text)**. The version component makes invalidation
//! automatic: any DDL/DML bumps [`qp_storage::Database::version`], so
//! stale plans — whose frozen selectivity estimates and materialized
//! `IN`-sets may no longer match the data — simply stop being found and
//! age out of their shards. Values are `Arc<CompiledQuery>`: execution
//! only needs `&CompiledQuery`, and callers that must mutate (PPA's
//! `rebind_rowid_set`) clone a private copy.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qp_storage::Database;

use crate::planner::CompiledQuery;

/// A thread-safe sharded LRU map from `K` to `Arc<V>` with hit/miss
/// accounting. See the module docs for the design rationale.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Optional failpoint site consulted *under the shard lock* on every
    /// get/insert. An injected error degrades gracefully (forced miss /
    /// dropped insert — a cache may always lose); an injected panic
    /// poisons the shard mutex, which [`ShardedCache::lock`]'s
    /// poison-recovery then shrugs off.
    failpoint_site: Option<&'static str>,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Monotonic per-shard clock; `Entry::last_used` stamps order recency.
    tick: u64,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Eq + Hash, V> ShardedCache<K, V> {
    /// A cache of `shards` independent shards holding up to
    /// `shard_capacity` entries each. Both are clamped to at least 1.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), tick: 0 }))
                .collect(),
            shard_capacity: shard_capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            failpoint_site: None,
        }
    }

    /// Names the failpoint site this cache's shard operations pass (see
    /// the `failpoint_site` field docs). A no-op without the
    /// `failpoints` feature.
    pub fn with_failpoint_site(mut self, site: &'static str) -> Self {
        self.failpoint_site = Some(site);
        self
    }

    /// Passes the configured failpoint site, if any. Always `Ok` in
    /// production builds ([`qp_storage::failpoint::check`] is a no-op
    /// without the `failpoints` feature).
    fn fail_check(&self) -> Result<(), String> {
        match self.failpoint_site {
            Some(site) => qp_storage::failpoint::check(site),
            None => Ok(()),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn lock<'a>(
        &self,
        shard: &'a Mutex<Shard<K, V>>,
    ) -> std::sync::MutexGuard<'a, Shard<K, V>> {
        // A panic while holding the lock leaves only a cache shard in an
        // indeterminate state; the map itself is still structurally valid,
        // so recover the guard rather than poisoning every later query.
        shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts toward the
    /// hit/miss totals.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut shard = self.lock(self.shard_of(key));
        if self.fail_check().is_err() {
            // An injected shard fault is a forced miss: a cache is always
            // allowed to lose, so the caller just recomputes.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the shard's
    /// least-recently-used entry if the shard is over capacity. Returns
    /// the shared handle to the inserted value.
    pub fn insert(&self, key: K, value: V) -> Arc<V>
    where
        K: Clone,
    {
        let value = Arc::new(value);
        let mut shard = self.lock(self.shard_of(&key));
        if self.fail_check().is_err() {
            // Injected shard fault: drop the insert, hand the value back.
            return value;
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(key, Entry { value: Arc::clone(&value), last_used: tick });
        if shard.map.len() > self.shard_capacity {
            // The entry just inserted carries the newest tick, so it is
            // never its own eviction victim.
            let stalest =
                shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
            if let Some(k) = stalest {
                shard.map.remove(&k);
            }
        }
        value
    }

    /// Drops every entry in every shard (hit/miss totals are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            self.lock(shard).map.clear();
        }
    }

    /// Keeps only the entries whose key satisfies `keep` — the hook for
    /// explicit, targeted invalidation (e.g. dropping one profile's
    /// cached selections after a mutation).
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) {
        for shard in &self.shards {
            self.lock(shard).map.retain(|k, _| keep(k));
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Key of a [`PlanCache`] entry. The `db_version` component is what makes
/// invalidation on catalog change automatic — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`Database::id`] of the database the plan was compiled against.
    pub db_id: u64,
    /// [`Database::version`] at compile time.
    pub db_version: u64,
    /// Normalized query text (the parsed AST pretty-printed, so textual
    /// variants of one query share an entry).
    pub sql: String,
}

/// The engine's cache of compiled plans. A thin typed wrapper over
/// [`ShardedCache`]; the engine consults it in every plan-and-run entry
/// point and [`crate::Engine::prepare_cached`].
#[derive(Debug)]
pub struct PlanCache {
    inner: ShardedCache<PlanKey, CompiledQuery>,
}

/// Default shard count: enough to keep serving threads off each other's
/// locks without fragmenting tiny capacities.
const PLAN_CACHE_SHARDS: usize = 8;
/// Default per-shard capacity (total default capacity: 8 × 32 = 256
/// plans — generous for the repeated-query workloads this serves).
const PLAN_CACHE_SHARD_CAPACITY: usize = 32;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A plan cache with the default geometry.
    pub fn new() -> Self {
        PlanCache::with_capacity(PLAN_CACHE_SHARDS, PLAN_CACHE_SHARD_CAPACITY)
    }

    /// A plan cache with explicit shard count and per-shard capacity.
    pub fn with_capacity(shards: usize, shard_capacity: usize) -> Self {
        PlanCache {
            inner: ShardedCache::new(shards, shard_capacity)
                .with_failpoint_site("cache.plan.shard"),
        }
    }

    /// Looks up the plan for `sql` compiled against the current version
    /// of `db`.
    pub fn get(&self, db: &Database, sql: &str) -> Option<Arc<CompiledQuery>> {
        let key =
            PlanKey { db_id: db.id(), db_version: db.version(), sql: sql.to_string() };
        self.inner.get(&key)
    }

    /// Stores a plan compiled against the current version of `db`.
    pub fn insert(&self, db: &Database, sql: String, plan: CompiledQuery) -> Arc<CompiledQuery> {
        let key = PlanKey { db_id: db.id(), db_version: db.version(), sql };
        self.inner.insert(key, plan)
    }

    /// Drops every cached plan (hit/miss totals are kept).
    pub fn clear(&self) {
        self.inner.clear()
    }

    /// Cached plans currently held.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Lookups that found a plan.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lookups that had to (re)compile.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let c: ShardedCache<u32, String> = ShardedCache::new(4, 8);
        assert!(c.get(&1).is_none());
        assert_eq!(c.misses(), 1);
        c.insert(1, "one".to_string());
        let v = c.get(&1).expect("hit");
        assert_eq!(*v, "one");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_stalest_not_hottest() {
        // Single shard, capacity 2, so eviction order is fully observable.
        let c: ShardedCache<u32, u32> = ShardedCache::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 is stalest.
        assert!(c.get(&1).is_some());
        c.insert(3, 30);
        assert_eq!(c.len(), 2);
        assert!(c.get(&1).is_some(), "recently used entry survives");
        assert!(c.get(&2).is_none(), "stalest entry evicted");
        assert!(c.get(&3).is_some(), "new entry present");
    }

    #[test]
    fn replacement_does_not_grow_len() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(1, 4);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(*c.get(&1).expect("hit"), 11);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(2, 4);
        c.insert(1, 10);
        let _ = c.get(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 1);
    }

    /// Satellite of the poison-recovery idiom: a panic *while holding a
    /// shard lock* (here provoked directly, without failpoints) must not
    /// poison the cache for later callers.
    #[test]
    fn panic_mid_operation_does_not_poison_lookups() {
        let c: std::sync::Arc<ShardedCache<u32, u32>> =
            std::sync::Arc::new(ShardedCache::new(1, 8));
        c.insert(1, 10);
        let c2 = std::sync::Arc::clone(&c);
        // Panic inside retain's closure: the shard guard is held at the
        // moment of unwind, so the mutex is genuinely poisoned.
        let panicked = std::thread::spawn(move || {
            c2.retain(|_| panic!("mid-mutation panic"));
        })
        .join();
        assert!(panicked.is_err(), "the closure must have panicked");
        assert_eq!(*c.get(&1).expect("poisoned shard recovered"), 10);
        c.insert(2, 20);
        assert_eq!(*c.get(&2).expect("inserts keep working"), 20);
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        // Capacity comfortably above the 400 total inserts so racing
        // threads never evict each other's fresh entries.
        let c: ShardedCache<u64, u64> = ShardedCache::new(8, 128);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..100u64 {
                        c.insert(t * 1000 + i, i);
                        assert!(c.get(&(t * 1000 + i)).is_some());
                    }
                });
            }
        });
        assert_eq!(c.hits() + c.misses(), 400);
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod failpoint_tests {
    use super::*;
    use qp_storage::failpoint::{self, FailAction, FailScenario};

    #[test]
    fn injected_shard_error_forces_miss_and_drops_insert() {
        let _s = FailScenario::setup();
        let c: ShardedCache<u32, u32> =
            ShardedCache::new(1, 8).with_failpoint_site("t.cache.shard");
        c.insert(1, 10);
        failpoint::arm("t.cache.shard", FailAction::Error("shard io".into()));
        assert!(c.get(&1).is_none(), "armed site forces a miss");
        let v = c.insert(2, 20);
        assert_eq!(*v, 20, "caller still gets its value back");
        failpoint::disarm("t.cache.shard");
        assert!(c.get(&2).is_none(), "the faulted insert was dropped");
        assert_eq!(*c.get(&1).expect("original entry intact"), 10);
    }

    /// A `Panic` action fires while the shard lock is held — the exact
    /// scenario the `PoisonError::into_inner` recovery exists for.
    #[test]
    fn injected_panic_mid_insert_does_not_poison_the_cache() {
        let _s = FailScenario::setup();
        let c: std::sync::Arc<ShardedCache<u32, u32>> =
            std::sync::Arc::new(ShardedCache::new(1, 8).with_failpoint_site("t.cache.poison"));
        c.insert(1, 10);
        failpoint::arm("t.cache.poison", FailAction::Panic("poisoned shard".into()));
        let c2 = std::sync::Arc::clone(&c);
        let panicked = std::thread::spawn(move || c2.insert(2, 20)).join();
        assert!(panicked.is_err(), "the insert must have panicked under the lock");
        failpoint::disarm("t.cache.poison");
        assert_eq!(*c.get(&1).expect("lookups survive the poisoned shard"), 10);
        c.insert(3, 30);
        assert_eq!(*c.get(&3).expect("inserts survive too"), 30);
    }
}

