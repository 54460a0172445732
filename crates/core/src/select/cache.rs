//! Preference-selection cache.
//!
//! Selecting the top-K implicit preferences for a query walks the
//! personalization graph — pure computation over (profile, query,
//! options) that multi-user serving repeats verbatim for every popular
//! query. [`PreferenceCache`] memoizes it in a [`qp_exec::ShardedCache`]
//! keyed by **(profile id, profile version, normalized query text,
//! options fingerprint)**.
//!
//! The profile-version component makes invalidation on mutation
//! automatic: [`crate::Profile`] bumps its version on every `push`, so a
//! mutated profile's lookups stop matching and its stale entries age out
//! of their shards. [`PreferenceCache::invalidate_profile`] additionally
//! drops every version of one profile eagerly — the explicit hook for
//! callers that want memory back (or certainty) the moment a profile
//! changes.

use std::sync::Arc;

use qp_exec::ShardedCache;
use qp_sql::Query;

use crate::personalize::PersonalizationOptions;
use crate::profile::Profile;
use crate::select::SelectedPreference;

/// Key of a cached selection. See the module docs for why the profile
/// version is part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrefKey {
    /// [`Profile::id`] — distinct per profile object, fresh on clone.
    pub profile_id: u64,
    /// [`Profile::version`] at selection time.
    pub profile_version: u64,
    /// Normalized query text (the parsed AST pretty-printed).
    pub query: String,
    /// Everything else selection depends on: criterion, selection
    /// algorithm (including its parameters), and ranking function.
    pub fingerprint: String,
}

impl PrefKey {
    /// Builds the key for one selection call.
    pub fn new(profile: &Profile, query: &Query, options: &PersonalizationOptions) -> PrefKey {
        PrefKey {
            profile_id: profile.id(),
            profile_version: profile.version(),
            query: query.to_string(),
            // `l` is deliberately absent: it shapes answer computation,
            // not which preferences get selected.
            fingerprint: format!(
                "{:?}|{:?}|{:?}",
                options.criterion, options.selection, options.ranking
            ),
        }
    }
}

/// Default shard count (matches the plan cache's geometry rationale).
const PREF_CACHE_SHARDS: usize = 8;
/// Default per-shard capacity: 8 × 32 = 256 cached selections.
const PREF_CACHE_SHARD_CAPACITY: usize = 32;

/// Memoized preference selections — a thin typed wrapper over
/// [`ShardedCache`]. The [`crate::Personalizer`] consults it in
/// `select_preferences` unless disabled (`QP_DISABLE_PREF_CACHE`, or
/// per-request via `PersonalizeRequest::preference_cache(false)`).
#[derive(Debug)]
pub struct PreferenceCache {
    inner: ShardedCache<PrefKey, Vec<SelectedPreference>>,
}

impl Default for PreferenceCache {
    fn default() -> Self {
        PreferenceCache::new()
    }
}

impl PreferenceCache {
    /// A preference cache with the default geometry.
    pub fn new() -> Self {
        PreferenceCache::with_capacity(PREF_CACHE_SHARDS, PREF_CACHE_SHARD_CAPACITY)
    }

    /// A preference cache with explicit shard count and per-shard
    /// capacity. The `cache.pref.shard` failpoint is wired in: an
    /// injected error forces misses / drops inserts, an injected panic
    /// poisons a shard (which lookups then recover from).
    pub fn with_capacity(shards: usize, shard_capacity: usize) -> Self {
        PreferenceCache {
            inner: ShardedCache::new(shards, shard_capacity)
                .with_failpoint_site("cache.pref.shard"),
        }
    }

    /// Looks up the memoized selection for this (profile, query,
    /// options) combination at the profile's current version.
    pub fn get(
        &self,
        profile: &Profile,
        query: &Query,
        options: &PersonalizationOptions,
    ) -> Option<Arc<Vec<SelectedPreference>>> {
        self.inner.get(&PrefKey::new(profile, query, options))
    }

    /// Stores a selection computed for this combination.
    pub fn insert(
        &self,
        profile: &Profile,
        query: &Query,
        options: &PersonalizationOptions,
        selected: Vec<SelectedPreference>,
    ) -> Arc<Vec<SelectedPreference>> {
        self.inner.insert(PrefKey::new(profile, query, options), selected)
    }

    /// Eagerly drops every cached selection for `profile_id`, across all
    /// versions. Version-keyed lookups already never return stale
    /// entries; this reclaims their memory immediately.
    pub fn invalidate_profile(&self, profile_id: u64) {
        self.inner.retain(|k| k.profile_id != profile_id);
    }

    /// Drops every cached selection (hit/miss totals are kept).
    pub fn clear(&self) {
        self.inner.clear()
    }

    /// Cached selections currently held.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no selections.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Lookups that found a memoized selection.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lookups that had to run selection.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doi::Doi;
    use crate::preference::CompareOp;
    use qp_storage::{Attribute, Catalog, DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let attrs: Vec<Attribute> = ["mid", "year"]
            .into_iter()
            .map(|a| Attribute::new(a, DataType::Int))
            .collect();
        c.add_relation("MOVIE", attrs, &[]).unwrap();
        c
    }

    fn parse(sql: &str) -> Query {
        qp_sql::parse_query(sql).expect("query parses")
    }

    #[test]
    fn key_tracks_profile_version() {
        let c = catalog();
        let mut p = Profile::new();
        let q = parse("SELECT year FROM movie");
        let opts = PersonalizationOptions::default();
        let k0 = PrefKey::new(&p, &q, &opts);
        p.add_selection(&c, "MOVIE", "year", CompareOp::Lt, Value::Int(1980), Doi::dislike(0.7).unwrap())
            .unwrap();
        let k1 = PrefKey::new(&p, &q, &opts);
        assert_eq!(k0.profile_id, k1.profile_id);
        assert_ne!(k0.profile_version, k1.profile_version);
        assert_ne!(k0, k1);
    }

    #[test]
    fn key_distinguishes_options_but_not_l() {
        let p = Profile::new();
        let q = parse("SELECT year FROM movie");
        let a = PersonalizationOptions::default();
        let mut b = a;
        b.criterion = crate::select::SelectionCriterion::TopK(3);
        assert_ne!(PrefKey::new(&p, &q, &a).fingerprint, PrefKey::new(&p, &q, &b).fingerprint);
        // l is answer-shaping, not selection-shaping: same key.
        let mut c = a;
        c.l = a.l + 1;
        assert_eq!(PrefKey::new(&p, &q, &a), PrefKey::new(&p, &q, &c));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_error_forces_miss_and_drops_insert() {
        use qp_storage::failpoint::{self, FailAction, FailScenario};
        let _s = FailScenario::setup();
        let cache = PreferenceCache::new();
        let p = Profile::new();
        let q = parse("SELECT year FROM movie");
        let opts = PersonalizationOptions::default();
        cache.insert(&p, &q, &opts, vec![]);
        failpoint::arm("cache.pref.shard", FailAction::Error("io".into()));
        assert!(cache.get(&p, &q, &opts).is_none(), "fault forces a miss");
        assert_eq!(cache.misses(), 1);
        cache.insert(&p, &q, &opts, vec![]); // dropped under the fault
        failpoint::disarm("cache.pref.shard");
        assert_eq!(cache.len(), 1, "the faulted insert was not stored");
        assert!(cache.get(&p, &q, &opts).is_some(), "healthy path is back");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_panic_mid_insert_does_not_poison_lookups() {
        use qp_storage::failpoint::{self, FailAction, FailScenario};
        let _s = FailScenario::setup();
        let cache = PreferenceCache::new();
        let p = Profile::new();
        let q = parse("SELECT year FROM movie");
        let opts = PersonalizationOptions::default();
        cache.insert(&p, &q, &opts, vec![]);
        failpoint::arm("cache.pref.shard", FailAction::Panic("pref shard poison".into()));
        // The panic fires under the shard lock of *this key's* shard,
        // poisoning the very mutex the later lookup must take.
        std::thread::scope(|s| {
            let h = s.spawn(|| cache.insert(&p, &q, &opts, vec![]));
            assert!(h.join().is_err(), "the injected panic escaped the insert");
        });
        failpoint::disarm("cache.pref.shard");
        // Subsequent lookups recover the poisoned shard instead of failing.
        assert!(cache.get(&p, &q, &opts).is_some(), "lookup after poison still hits");
        cache.insert(&p, &q, &opts, vec![]);
        assert!(!cache.is_empty());
    }

    #[test]
    fn invalidate_profile_drops_only_that_profile() {
        // Cache operations pass the `cache.pref.shard` site that sibling
        // tests arm; the guard keeps their faults out of this test.
        let _s = qp_storage::failpoint::FailScenario::setup();
        let cache = PreferenceCache::new();
        let p1 = Profile::new();
        let p2 = Profile::new();
        let q = parse("SELECT year FROM movie");
        let opts = PersonalizationOptions::default();
        cache.insert(&p1, &q, &opts, vec![]);
        cache.insert(&p2, &q, &opts, vec![]);
        assert_eq!(cache.len(), 2);
        cache.invalidate_profile(p1.id());
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&p1, &q, &opts).is_none());
        assert!(cache.get(&p2, &q, &opts).is_some());
    }
}
