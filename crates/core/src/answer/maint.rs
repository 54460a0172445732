//! Incremental maintenance of materialized preference results under
//! write traffic.
//!
//! PPA materializes each selected preference query at most once per run
//! ([`crate::answer::ppa`]'s `PrefResult`). Without maintenance those
//! materializations die with the database epoch: every delta publish
//! bumps [`Database::version`], every cache keyed on it stops matching,
//! and the next personalization run re-executes all K preference
//! queries from scratch — even when the delta touched a handful of
//! tuples in one relation.
//!
//! This module keeps the materializations alive across epochs:
//!
//! * [`MatRegistry`] — a shared map from `(db id, db version, preference
//!   SQL)` to a materialized result. PPA runs with a registry attached
//!   fetch every preference result up front and register what they had
//!   to build, so in steady state a run executes *zero* preference
//!   queries.
//! * [`Maintainer`] — the write path. [`Maintainer::publish`] applies a
//!   typed [`DbDelta`] through [`SnapshotStore::publish_delta`] and then
//!   re-keys the registry to the new epoch. Each entry has one of three
//!   outcomes:
//!   - **carried** — the delta touched none of its relations: same
//!     `Arc`, new version key;
//!   - **patched** — a select-project-join entry (the gate below) is
//!     brought to the new epoch from the delta's rows alone (the delta
//!     path below);
//!   - **rematerialized** — every other touched entry (a `NOT IN`
//!     sub-query, a derived table, grouping), and any entry whose delta
//!     evaluation failed, is re-executed in full. If that fails too the
//!     entry is **dropped**, and the next PPA run rebuilds it.
//!
//! **The delta path.** For each FROM binding whose relation the delta
//! touched:
//!
//! * *inserted rows* — evaluate the select on the new epoch with that
//!   binding restricted to the inserted row ids: the tuples **gained**;
//! * *deleted rows of the tid binding* — those tuples are **dropped**;
//! * *deleted rows of any other binding* — evaluate the select on the
//!   pre-delta epoch with that binding restricted to the deleted row
//!   ids: the **candidates**, tuples that lost a derivation. They are
//!   **re-checked** on the new epoch with the tid binding restricted to
//!   them.
//!
//! The new result is the old one minus dropped tuples and candidates,
//! plus gained and re-checked tuples. A restriction is the
//! `binding.rowid = 0` placeholder rebound to a row-id set, as PPA's
//! emission bursts use it; when the plan reaches the binding through an
//! index join, where the placeholder is a plain filter, it is an id list.
//!
//! **The gate.** An entry takes the delta path when its select has no
//! sub-query, derived table or grouping and fetches no rows by id itself.
//! Every registered entry's degree is a constant (see *What is never
//! cached*).
//!
//! **Byte identity.** A patched result equals a recompute against the
//! new epoch. A tuple qualifies iff it has a *derivation*: one live row
//! per binding, together satisfying the WHERE clause.
//!
//! * A derivation on the new epoch that uses an inserted row is found by
//!   that binding's insert evaluation. One that uses only surviving rows
//!   existed before the delta, so the tuple was in the old result, and
//!   if it was removed as a candidate its re-check finds it again.
//! * An old tuple that is neither dropped nor a candidate lost no
//!   derivation: every derivation through a deleted row is found by the
//!   pre-delta evaluation of that row's binding. So it still qualifies.
//! * Degrees never change: the degree is a constant, so every derivation
//!   yields the same value.
//! * Result rows are kept in canonical ascending-tuple-id order, and row
//!   ids are never reused (`Table` tombstones slots, so a delete-then-
//!   reinsert lands in a fresh slot with a fresh id): a tuple id names
//!   the same row in every epoch that has it.
//!
//! **What is never cached.** Selects whose degree is not a literal — an
//! elastic preference's per-tuple degree — and selects over relations
//! the catalog cannot resolve are excluded from the registry entirely.
//! The first exclusion is about memory, not meaning: an elastic select's
//! text carries every parameter of its degree, so it would be as sound a
//! key as any other. But its text also carries the user's peak and
//! join-degree scale, so hardly two users share an entry, and every
//! profile of the serving benchmark holds an elastic preference. On a
//! 2-CPU host, a prototype that registered them grew perfbench's `scan`
//! peak RSS from 17.0 to 23.7 MB (+39 %) and `churn`'s by 22 % (its
//! registry from 270 to 330 entries, with `write_p50_ms` +13 % for a
//! 13 % faster `p50_ms`). Sharing one membership across users (ROADMAP
//! item 3) is the way to register them.
//!
//! **What survives a publish.** Data deltas invalidate *no* per-user
//! selection memos: preference selection reads the catalog and the
//! profile, never table data, so the surgical invalidation set of a
//! pure data delta is provably empty (pinned by a regression test; see
//! `DESIGN.md`). Schema/catalog changes go through
//! [`Maintainer::publish_schema`], which falls back to wholesale
//! invalidation: the registry is cleared and every profile-store
//! selection memo is dropped.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use qp_exec::{Engine, ExecError, ExecStats, QueryGuard};
use qp_obs::MetricsRegistry;
use qp_sql::{builder, BinaryOp, Expr, Query, Select, SelectItem, TableRef};
use qp_storage::{
    AppliedDelta, Catalog, Database, DbDelta, RelId, RowId, SnapshotStore, StorageError,
};

use crate::answer::ppa::{materialize_pref, PrefResult};
use crate::answer::subquery::merge_filter;
use crate::store::ProfileStore;

/// Default capacity of a [`MatRegistry`]: per-epoch entries are one per
/// distinct (preference SQL) string, so this comfortably covers a serving
/// fleet's working set of selected preferences.
const DEFAULT_CAPACITY: usize = 8192;

/// Recovers a poisoned mutex: registry state is a cache of immutable
/// `Arc`s re-keyed atomically per entry, so a panicking holder cannot
/// leave a torn value behind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Registry key: one materialized preference result per database epoch
/// per preference-query text. SQL-text keying is sound because a
/// generated preference select's text fixes its result: degrees are
/// literals, and functions are built into every engine once
/// ([`crate::answer::degree`]). Only constant-degree selects are
/// registered, to bound memory (module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MatKey {
    /// [`Database::id`] — epochs of the same logical database share it.
    db: u64,
    /// [`Database::version`] — the epoch the result was computed against.
    version: u64,
    /// The preference select's SQL text.
    sql: String,
}

/// One registered materialization plus everything maintenance needs to
/// carry, patch, or rebuild it.
struct MatEntry {
    /// The materialized result (shared with in-flight PPA runs).
    result: Arc<PrefResult>,
    /// The preference select that produced it.
    select: Select,
    /// NULL-degree default (the preference's d+/d−).
    default: f64,
    /// Every relation the select reads, subqueries included; a delta
    /// touching none of them carries the entry unchanged.
    rels: Vec<RelId>,
    /// The relation whose row ids are the result's tuple ids.
    tid_rel: RelId,
    /// The binding that relation carries inside the select.
    tid_binding: String,
    /// The select's FROM bindings and their relations when the entry
    /// takes the delta path ([`delta_bindings`] is the gate); `None`
    /// when a touching delta rematerializes it.
    bindings: Option<Vec<(String, RelId)>>,
}

/// What one `MatRegistry::maintain` pass did, per entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintOutcome {
    /// Entries brought to the new epoch by the delta path: evaluated
    /// against the delta's rows only, then merged.
    pub patched: u64,
    /// Entries whose relations the delta did not touch: re-keyed to the
    /// new epoch with the same `Arc`.
    pub carried: u64,
    /// Entries rebuilt by re-executing the full preference query: the
    /// touched entries the delta path does not cover, and those whose
    /// delta evaluation failed.
    pub rematerialized: u64,
    /// Entries dropped because rebuilding them failed; the next PPA run
    /// rebuilds and re-registers them.
    pub dropped: u64,
    /// Entries discarded because they belonged to an epoch older than
    /// the one the delta was applied to (a reader registered against a
    /// superseded snapshot).
    pub stale: u64,
}

/// Shared registry of materialized preference results, keyed by database
/// epoch and preference-SQL text. See the module docs for the lifecycle;
/// see [`crate::Personalizer::with_maintenance`] for attaching one to
/// the serving path.
pub struct MatRegistry {
    entries: Mutex<HashMap<MatKey, MatEntry>>,
    capacity: usize,
}

impl std::fmt::Debug for MatRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatRegistry")
            .field("entries", &lock(&self.entries).len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for MatRegistry {
    fn default() -> Self {
        MatRegistry::new()
    }
}

impl MatRegistry {
    /// An empty registry with the default capacity.
    pub fn new() -> Self {
        MatRegistry::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty registry holding at most `capacity` entries; at capacity,
    /// registration sheds superseded-epoch entries first and refuses new
    /// entries rather than evicting current-epoch ones.
    pub fn with_capacity(capacity: usize) -> Self {
        MatRegistry { entries: Mutex::new(HashMap::new()), capacity: capacity.max(1) }
    }

    /// Number of registered materializations (across all epochs).
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (the wholesale fallback for schema/catalog
    /// changes), returning how many were dropped.
    pub fn clear(&self) -> usize {
        let mut map = lock(&self.entries);
        let n = map.len();
        map.clear();
        n
    }

    /// Looks up the materialization of `select` for exactly `db`'s epoch.
    pub(crate) fn get(&self, db: &Database, select: &Select) -> Option<Arc<PrefResult>> {
        let key =
            MatKey { db: db.id(), version: db.version(), sql: select.to_string() };
        lock(&self.entries).get(&key).map(|e| Arc::clone(&e.result))
    }

    /// Registers a freshly built materialization for `db`'s epoch.
    /// Selects whose degree is not a literal (elastic preferences, kept
    /// out to bound memory) and selects over unresolvable relations are
    /// silently refused. Returns how many superseded-epoch entries were
    /// evicted to make room (normally 0).
    pub(crate) fn register(
        &self,
        db: &Database,
        select: &Select,
        default: f64,
        tid_rel: RelId,
        tid_binding: &str,
        result: Arc<PrefResult>,
    ) -> usize {
        let constant_degree =
            matches!(select.items.get(1), Some(SelectItem::Expr { expr: Expr::Literal(_), .. }));
        let mut shape = SelectShape::default();
        scan_select(db.catalog(), select, &mut shape);
        if !constant_degree || shape.unknown {
            return 0;
        }
        let bindings = delta_bindings(db.catalog(), select, &shape, tid_binding);
        let key = MatKey { db: db.id(), version: db.version(), sql: select.to_string() };
        let entry = MatEntry {
            result,
            select: select.clone(),
            default,
            rels: shape.rels,
            tid_rel,
            tid_binding: tid_binding.to_string(),
            bindings,
        };
        let mut map = lock(&self.entries);
        let mut evicted = 0;
        if map.len() >= self.capacity && !map.contains_key(&key) {
            let shed: Vec<MatKey> = map
                .keys()
                .filter(|k| k.db != key.db || k.version != key.version)
                .cloned()
                .collect();
            for k in shed {
                if map.len() < self.capacity {
                    break;
                }
                map.remove(&k);
                evicted += 1;
            }
            if map.len() >= self.capacity {
                return evicted; // full of current-epoch entries: refuse
            }
        }
        // A concurrent run may have registered the same key; either
        // value is byte-identical (same epoch, same SQL), keep the first.
        map.entry(key).or_insert(entry);
        evicted
    }

    /// Re-keys every entry of the delta's logical database from its old
    /// epoch `before` to the published epoch `after`: carry / patch /
    /// rematerialize / drop per the module docs. Entries registered
    /// against older epochs are discarded as stale; entries already at
    /// the new epoch (registered by a racing reader) are left alone.
    pub(crate) fn maintain(
        &self,
        before: &Database,
        after: &Database,
        applied: &AppliedDelta,
        engine: &Engine,
    ) -> MaintOutcome {
        let mut out = MaintOutcome::default();
        let mut work: Vec<(MatKey, MatEntry)> = Vec::new();
        {
            let mut map = lock(&self.entries);
            let keys: Vec<MatKey> = map
                .keys()
                .filter(|k| k.db == after.id() && k.version <= applied.old_version)
                .cloned()
                .collect();
            for k in keys {
                if let Some((key, entry)) = map.remove_entry(&k) {
                    if key.version < applied.old_version {
                        out.stale += 1;
                    } else {
                        work.push((key, entry));
                    }
                }
            }
        }
        let touched: HashSet<RelId> = applied.relations.iter().map(|r| r.rel).collect();
        let guard = QueryGuard::unlimited();
        let mut keep: Vec<(MatKey, MatEntry)> = Vec::with_capacity(work.len());
        for (key, mut entry) in work {
            let fresh = MatKey { db: key.db, version: applied.new_version, sql: key.sql };
            if !entry.rels.iter().any(|r| touched.contains(r)) {
                out.carried += 1;
                keep.push((fresh, entry));
                continue;
            }
            let patched = entry.bindings.as_deref().and_then(|bindings| {
                delta_result(engine, before, after, &guard, &entry, bindings, applied).ok()
            });
            if let Some(result) = patched {
                entry.result = result;
                out.patched += 1;
                keep.push((fresh, entry));
                continue;
            }
            let mut st = ExecStats::default();
            match materialize_pref(engine, after, &guard, &entry.select, entry.default, &mut st) {
                Ok(r) => {
                    entry.result = Arc::new(r);
                    out.rematerialized += 1;
                    keep.push((fresh, entry));
                }
                Err(_) => out.dropped += 1,
            }
        }
        let mut map = lock(&self.entries);
        for (k, e) in keep {
            // A reader racing ahead of maintenance may have rebuilt the
            // same key against the published epoch; both values are
            // byte-identical, keep whichever landed first.
            map.entry(k).or_insert(e);
        }
        out
    }
}

/// Everything [`MatRegistry::register`] learns from walking a select.
#[derive(Debug, Default)]
struct SelectShape {
    /// Distinct relations read anywhere in the select (subqueries and
    /// derived tables included), in first-reference order.
    rels: Vec<RelId>,
    /// Contains an `IN (SELECT …)`.
    subquery: bool,
    /// Reads a derived table.
    derived: bool,
    /// References a relation the catalog cannot resolve.
    unknown: bool,
}

fn scan_select(catalog: &Catalog, s: &Select, shape: &mut SelectShape) {
    for tr in &s.from {
        match tr {
            TableRef::Relation { name, .. } => match catalog.relation_by_name(name) {
                Ok(rel) => {
                    if !shape.rels.contains(&rel.id) {
                        shape.rels.push(rel.id);
                    }
                }
                Err(_) => shape.unknown = true,
            },
            TableRef::Derived { query, .. } => {
                shape.derived = true;
                scan_query(catalog, query, shape);
            }
        }
    }
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            scan_expr(catalog, expr, shape);
        }
    }
    if let Some(e) = &s.where_clause {
        scan_expr(catalog, e, shape);
    }
    for e in &s.group_by {
        scan_expr(catalog, e, shape);
    }
    if let Some(e) = &s.having {
        scan_expr(catalog, e, shape);
    }
}

fn scan_query(catalog: &Catalog, q: &Query, shape: &mut SelectShape) {
    for s in q.selects() {
        scan_select(catalog, s, shape);
    }
    for o in &q.order_by {
        scan_expr(catalog, &o.expr, shape);
    }
}

fn scan_expr(catalog: &Catalog, e: &Expr, shape: &mut SelectShape) {
    match e {
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => scan_expr(catalog, expr, shape),
        Expr::Binary { left, right, .. } => {
            scan_expr(catalog, left, shape);
            scan_expr(catalog, right, shape);
        }
        Expr::Between { expr, low, high, .. } => {
            scan_expr(catalog, expr, shape);
            scan_expr(catalog, low, shape);
            scan_expr(catalog, high, shape);
        }
        Expr::InList { expr, list, .. } => {
            scan_expr(catalog, expr, shape);
            for v in list {
                scan_expr(catalog, v, shape);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            shape.subquery = true;
            scan_expr(catalog, expr, shape);
            scan_query(catalog, subquery, shape);
        }
        Expr::Function { args, .. } => {
            for a in args {
                scan_expr(catalog, a, shape);
            }
        }
    }
}

/// The delta-path gate (module docs): the FROM bindings of a
/// select-project-join entry with their relations, or `None` when a
/// touching delta must rematerialize the entry.
fn delta_bindings(
    catalog: &Catalog,
    select: &Select,
    shape: &SelectShape,
    tid_binding: &str,
) -> Option<Vec<(String, RelId)>> {
    if shape.subquery || shape.derived || !select.group_by.is_empty() || select.having.is_some() {
        return None;
    }
    let bindings = select
        .from
        .iter()
        .map(|tr| match tr {
            TableRef::Relation { name, .. } => {
                catalog.relation_by_name(name).ok().map(|r| (tr.binding().to_string(), r.id))
            }
            TableRef::Derived { .. } => None,
        })
        .collect::<Option<Vec<_>>>()?;
    // A `rowid = k` conjunct of its own would take the place of the
    // restriction's placeholder in the plan.
    let is_rowid = |e: &Expr| {
        matches!(e, Expr::Column { name, .. } if name.eq_ignore_ascii_case("rowid"))
    };
    let fetches_by_rowid = select.where_clause.as_ref().is_some_and(|w| {
        w.conjuncts().into_iter().any(|c| match c {
            Expr::Binary { left, op: BinaryOp::Eq, right } => is_rowid(left) || is_rowid(right),
            _ => false,
        })
    });
    let has_tid = bindings.iter().any(|(b, _)| b == tid_binding);
    (has_tid && !fetches_by_rowid).then_some(bindings)
}

/// The delta path (module docs): `entry`'s result on `after`, computed
/// from its result on `before` and the rows `applied` touched. Any
/// failed evaluation fails the whole path, so nothing is half-merged.
fn delta_result(
    engine: &Engine,
    before: &Database,
    after: &Database,
    guard: &QueryGuard,
    entry: &MatEntry,
    bindings: &[(String, RelId)],
    applied: &AppliedDelta,
) -> Result<Arc<PrefResult>, ExecError> {
    let eval = |db: &Database, binding: &str, rel: RelId, ids: Vec<u64>| {
        eval_restricted(engine, db, guard, entry, binding, rel, ids)
    };
    let ids = |rows: &[RowId]| rows.iter().map(|r| r.0).collect::<Vec<u64>>();
    let mut added: Vec<(u64, f64)> = Vec::new();
    let mut dropped: HashSet<u64> = HashSet::new();
    let mut candidates: Vec<u64> = Vec::new();
    for (binding, rel) in bindings {
        let Some(slice) = applied.relation(*rel) else { continue };
        added.extend(eval(after, binding, *rel, ids(&slice.inserted))?);
        if *binding == entry.tid_binding {
            dropped.extend(ids(&slice.deleted));
        } else {
            let lost = eval(before, binding, *rel, ids(&slice.deleted))?;
            candidates.extend(lost.into_iter().map(|(t, _)| t));
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    candidates.retain(|t| !dropped.contains(t));
    added.extend(eval(after, &entry.tid_binding, entry.tid_rel, candidates.clone())?);
    dropped.extend(candidates);
    Ok(merge(&entry.result, &dropped, added))
}

/// Evaluates `entry`'s select on `db` with `binding` restricted to the
/// row ids `ids`, returning the qualifying `(tid, degree)` pairs in plan
/// order (duplicates included).
fn eval_restricted(
    engine: &Engine,
    db: &Database,
    guard: &QueryGuard,
    entry: &MatEntry,
    binding: &str,
    rel: RelId,
    ids: Vec<u64>,
) -> Result<Vec<(u64, f64)>, ExecError> {
    if ids.is_empty() {
        return Ok(Vec::new());
    }
    let restricted = |filter: Expr| {
        let mut s = entry.select.clone();
        merge_filter(&mut s, filter);
        Query::from_select(s)
    };
    let rowid = builder::col(binding, "rowid");
    let mut q = engine.prepare(db, &restricted(builder::eq(rowid.clone(), builder::int(0))))?;
    let ids = Arc::new(ids);
    if q.rebind_rowid_set(rel, &ids) != 1 {
        // The plan reaches the binding through an index join, where the
        // placeholder stays a plain filter: list the ids instead, which
        // restricts the binding in any plan shape.
        let list = ids.iter().map(|&id| builder::int(id as i64)).collect();
        let in_ids = Expr::InList { expr: Box::new(rowid), negated: false, list };
        q = engine.prepare(db, &restricted(in_ids))?;
    }
    let mut st = ExecStats::default();
    let rows = engine.execute_prepared_rows_guarded(db, &q, &mut st, guard)?;
    Ok(rows
        .iter()
        .filter_map(|r| {
            let tid = r[0].as_i64().filter(|&t| t >= 0)?;
            Some((tid as u64, r[1].as_f64().unwrap_or(entry.default)))
        })
        .collect())
}

/// Applies a delta's effect to a result: a `removed` tuple loses its
/// row unless `added` derives it again, an `added` tuple the result
/// lacks gains one. A kept row is never rewritten (degrees agree across
/// derivations under the gate), so when membership did not change the
/// same `Arc` comes back.
fn merge(old: &Arc<PrefResult>, removed: &HashSet<u64>, added: Vec<(u64, f64)>) -> Arc<PrefResult> {
    let derived: HashSet<u64> = added.iter().map(|&(t, _)| t).collect();
    let lost: HashSet<u64> = removed
        .iter()
        .copied()
        .filter(|t| old.index.contains_key(t) && !derived.contains(t))
        .collect();
    let mut gained: Vec<(u64, f64)> =
        added.into_iter().filter(|(t, _)| !old.index.contains_key(t)).collect();
    gained.sort_by_key(|&(t, _)| t);
    gained.dedup_by_key(|&mut (t, _)| t);
    if lost.is_empty() && gained.is_empty() {
        return Arc::clone(old);
    }
    let mut rows: Vec<(u64, f64)> =
        old.rows.iter().copied().filter(|(t, _)| !lost.contains(t)).collect();
    rows.extend(gained);
    // Canonical order; the sort is linear on a sorted run plus a tail.
    rows.sort_by_key(|&(t, _)| t);
    let index = rows.iter().copied().collect();
    Arc::new(PrefResult { rows, index })
}

/// The write path of a maintained deployment: serializes delta publishes
/// against registry maintenance so every published epoch's registry
/// entries are re-keyed before the next delta lands, and owns the
/// wholesale-invalidation fallback for schema changes.
///
/// Readers are never blocked: they pin snapshots and hit the registry
/// lock only for map lookups. A reader racing a publish either sees the
/// old epoch (and the old epoch's entries, still keyed) or the new epoch
/// (whose entries appear as maintenance re-keys them; misses just
/// rebuild and re-register, which `MatRegistry::maintain` tolerates).
pub struct Maintainer {
    store: Arc<SnapshotStore>,
    registry: Arc<MatRegistry>,
    engine: Engine,
    profiles: Option<Arc<ProfileStore>>,
    metrics: Arc<MetricsRegistry>,
    publish_lock: Mutex<()>,
}

impl std::fmt::Debug for Maintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maintainer").field("registry", &self.registry).finish()
    }
}

impl Maintainer {
    /// A maintainer over `store` with a fresh registry and a private
    /// engine for patch/rematerialize executions.
    pub fn new(store: Arc<SnapshotStore>) -> Self {
        let engine = crate::answer::degree::engine();
        let metrics = Arc::clone(engine.metrics());
        Maintainer {
            store,
            registry: Arc::new(MatRegistry::new()),
            engine,
            profiles: None,
            metrics,
            publish_lock: Mutex::new(()),
        }
    }

    /// Routes the `maint.*` counters to `metrics` (builder-style) — a
    /// server passes its shared registry so publishes show up in stats.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches the profile store whose per-user selection memos
    /// [`Maintainer::publish_schema`] must wholesale-invalidate
    /// (builder-style). Data deltas never touch it.
    pub fn with_profile_store(mut self, profiles: Arc<ProfileStore>) -> Self {
        self.profiles = Some(profiles);
        self
    }

    /// The registry to attach to serving personalizers
    /// ([`crate::Personalizer::with_maintenance`]).
    pub fn registry(&self) -> Arc<MatRegistry> {
        Arc::clone(&self.registry)
    }

    /// The snapshot store this maintainer publishes through.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Applies a typed data delta atomically and patches the registry to
    /// the published epoch, returning the new epoch, what the store
    /// applied, and how the registry absorbed it. Selection memos
    /// survive untouched (data deltas cannot change preference selection
    /// — see the module docs). A rejected delta publishes nothing and
    /// maintains nothing.
    pub fn publish(
        &self,
        delta: &DbDelta,
    ) -> Result<(Arc<Database>, AppliedDelta, MaintOutcome), StorageError> {
        let _serialized = lock(&self.publish_lock);
        let (before, db, applied) = self.store.publish_delta(delta)?;
        let outcome = self.registry.maintain(&before, &db, &applied, &self.engine);
        self.metrics.counter("maint.deltas").inc();
        self.metrics.counter("maint.rows_inserted").add(applied.rows_inserted() as u64);
        self.metrics.counter("maint.rows_deleted").add(applied.rows_deleted() as u64);
        self.metrics.counter("maint.results_patched").add(outcome.patched);
        self.metrics.counter("maint.results_carried").add(outcome.carried);
        self.metrics.counter("maint.results_rematerialized").add(outcome.rematerialized);
        self.metrics.counter("maint.results_dropped").add(outcome.dropped + outcome.stale);
        // One publish that left every selection memo alive (the surgical
        // invalidation set of a data delta is empty).
        self.metrics.counter("maint.memo.kept").inc();
        Ok((db, applied, outcome))
    }

    /// Publishes a schema/catalog mutation through
    /// [`SnapshotStore::update`] and falls back to wholesale
    /// invalidation: every registry entry and every per-user selection
    /// memo is dropped, because catalog changes can change which
    /// preferences are selected and what their selects mean.
    pub fn publish_schema<T>(
        &self,
        f: impl FnOnce(&mut Database) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let _serialized = lock(&self.publish_lock);
        let out = self.store.update(f)?;
        let dropped = self.registry.clear();
        self.metrics.counter("maint.results_dropped").add(dropped as u64);
        let memos = self.profiles.as_ref().map_or(0, |p| p.clear_selection_memos());
        self.metrics.counter("maint.memo.wholesale").add(memos as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_sql::parse_query;
    use qp_storage::{Attribute, DataType, Value};

    fn seed_store() -> Arc<SnapshotStore> {
        let mut db = Database::new();
        db.create_relation(
            "R",
            vec![Attribute::new("a", DataType::Int), Attribute::new("b", DataType::Int)],
            &[],
        )
        .unwrap();
        db.create_relation("S", vec![Attribute::new("x", DataType::Int)], &[]).unwrap();
        for i in 0..10 {
            db.insert_by_name("R", vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        db.insert_by_name("S", vec![Value::Int(1)]).unwrap();
        Arc::new(SnapshotStore::new(db))
    }

    fn pref_select(sql: &str) -> Select {
        parse_query(sql).unwrap().selects()[0].clone()
    }

    /// The preference-shaped select the registry sees from PPA: rowid +
    /// degree projection over the tid relation.
    const PREF_SQL: &str = "select R.rowid as qp_tid, 0.8 as qp_degree from R where R.a >= 3";

    fn materialized(engine: &Engine, db: &Database, select: &Select) -> Arc<PrefResult> {
        let mut st = ExecStats::default();
        Arc::new(
            materialize_pref(engine, db, &QueryGuard::unlimited(), select, 0.8, &mut st).unwrap(),
        )
    }

    fn rel(db: &Database, name: &str) -> RelId {
        db.catalog().relation_by_name(name).unwrap().id
    }

    #[test]
    fn patched_entry_is_byte_identical_to_recompute() {
        let store = seed_store();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let registry = maintainer.registry();
        let engine = Engine::new();
        let select = pref_select(PREF_SQL);
        let db0 = store.snapshot();
        let r = rel(&db0, "R");
        registry.register(&db0, &select, 0.8, r, "R", materialized(&engine, &db0, &select));
        assert_eq!(registry.len(), 1);

        // Delete a qualifying row, reinsert its tuple (fresh id), insert
        // one qualifying and one non-qualifying row.
        let delta = DbDelta::new()
            .delete("R", vec![Value::Int(5), Value::Int(50)])
            .insert("R", vec![Value::Int(5), Value::Int(50)])
            .insert("R", vec![Value::Int(77), Value::Int(770)])
            .insert("R", vec![Value::Int(-4), Value::Int(0)]);
        let (db1, _, _) = maintainer.publish(&delta).unwrap();

        let patched = registry.get(&db1, &select).expect("entry survived the publish");
        let recomputed = materialized(&engine, &db1, &select);
        assert_eq!(patched.rows, recomputed.rows, "patched != recompute-from-scratch");
        assert!(patched.rows.windows(2).all(|w| w[0].0 < w[1].0), "canonical order");
        // The old epoch's key is gone; the registry holds exactly the
        // re-keyed entry.
        assert!(registry.get(&db0, &select).is_none());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn untouched_relations_carry_the_same_arc() {
        let store = seed_store();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let registry = maintainer.registry();
        let engine = Engine::new();
        let select = pref_select(PREF_SQL);
        let db0 = store.snapshot();
        let r = rel(&db0, "R");
        let built = materialized(&engine, &db0, &select);
        registry.register(&db0, &select, 0.8, r, "R", Arc::clone(&built));

        let delta = DbDelta::new().insert("S", vec![Value::Int(2)]);
        let (db1, _, _) = maintainer.publish(&delta).unwrap();
        let carried = registry.get(&db1, &select).expect("carried");
        assert!(Arc::ptr_eq(&carried, &built), "untouched entry must not be rebuilt");
    }

    /// Publishes `delta` and checks every `(select, default)` entry
    /// against a recompute on the new epoch, returning the receipt.
    fn publish_and_audit(
        maintainer: &Maintainer,
        entries: &[(Select, f64)],
        delta: DbDelta,
    ) -> MaintOutcome {
        let (db, _, outcome) = maintainer.publish(&delta).unwrap();
        let engine = Engine::new();
        for (select, default) in entries {
            let maintained = maintainer.registry().get(&db, select).expect("entry survived");
            let mut st = ExecStats::default();
            let guard = QueryGuard::unlimited();
            let recomputed = materialize_pref(&engine, &db, &guard, select, *default, &mut st);
            let recomputed = recomputed.unwrap();
            assert_eq!(maintained.rows, recomputed.rows, "{select} after {delta:?}");
            assert_eq!(maintained.index, recomputed.index, "{select} after {delta:?}");
        }
        outcome
    }

    #[test]
    fn join_entries_are_patched_from_the_delta() {
        let store = seed_store();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let registry = maintainer.registry();
        let engine = Engine::new();
        // An equi-join (index-joined), a range join (every S row at or
        // below R.a is a derivation) and a cross-bound `<>`.
        let entries: Vec<(Select, f64)> = [
            "select R.rowid as qp_tid, 0.5 as qp_degree from R, S where R.a = S.x",
            "select R.rowid as qp_tid, 0.4 as qp_degree from R, S where R.a >= S.x and S.x > 2",
            "select R.rowid as qp_tid, 0.3 as qp_degree from R, S where R.a <> S.x and R.b < 60",
        ]
        .into_iter()
        .map(|sql| (pref_select(sql), 0.0))
        .collect();
        let db0 = store.snapshot();
        let r = rel(&db0, "R");
        for (select, default) in &entries {
            registry.register(&db0, select, *default, r, "R", materialized(&engine, &db0, select));
        }
        let row = |a: i64| vec![Value::Int(a), Value::Int(a * 10)];
        let s = |x: i64| vec![Value::Int(x)];
        let deltas = [
            // Inserts that join existing R rows, one of them a second
            // derivation of R.a = 1.
            DbDelta::new().insert("S", s(7)).insert("S", s(1)).insert("S", s(4)),
            // Deletes that leave a second derivation (S.x = 1 twice).
            DbDelta::new().delete("S", s(1)),
            // Delete-then-reinsert of a joined row: fresh id, same tuples.
            DbDelta::new().delete("S", s(7)).insert("S", s(7)),
            // Deletes that remove the only derivation.
            DbDelta::new().delete("S", s(7)).delete("S", s(4)),
            // Tid deletes and reinserts, and an insert on both sides.
            DbDelta::new().delete("R", row(1)).insert("R", row(1)).insert("R", row(12)),
            DbDelta::new().insert("R", row(13)).insert("S", s(13)).delete("S", s(1)),
        ];
        for delta in deltas {
            let outcome = publish_and_audit(&maintainer, &entries, delta);
            let expect = MaintOutcome { patched: entries.len() as u64, ..MaintOutcome::default() };
            assert_eq!(outcome, expect, "every join entry takes the delta path");
        }
    }

    #[test]
    fn not_in_entries_still_rematerialize() {
        let store = seed_store();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let registry = maintainer.registry();
        let engine = Engine::new();
        let select = pref_select(
            "select R.rowid as qp_tid, 0.6 as qp_degree from R where R.rowid not in \
             (select R2.rowid from R R2, S where R2.a = S.x)",
        );
        let db0 = store.snapshot();
        let r = rel(&db0, "R");
        registry.register(&db0, &select, 0.6, r, "R", materialized(&engine, &db0, &select));
        let entries = [(select, 0.6)];
        let delta = DbDelta::new().insert("S", vec![Value::Int(4)]);
        let outcome = publish_and_audit(&maintainer, &entries, delta);
        assert_eq!(outcome, MaintOutcome { rematerialized: 1, ..MaintOutcome::default() });
    }

    #[test]
    fn index_joined_binding_is_restricted_by_an_id_list() {
        let store = seed_store();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let registry = maintainer.registry();
        let engine = Engine::new();
        // S comes first and its one row ties R's one-row restriction, so
        // the plan starts at S and index-joins R.
        let select =
            pref_select("select R.rowid as qp_tid, 0.5 as qp_degree from S, R where R.a = S.x");
        let db0 = store.snapshot();
        let r = rel(&db0, "R");
        registry.register(&db0, &select, 0.5, r, "R", materialized(&engine, &db0, &select));
        let delta = DbDelta::new()
            .insert("R", vec![Value::Int(1), Value::Int(0)])
            .insert("R", vec![Value::Int(2), Value::Int(0)]);
        let entries = [(select.clone(), 0.5)];
        let outcome = publish_and_audit(&maintainer, &entries, delta);
        assert_eq!(outcome, MaintOutcome { patched: 1, ..MaintOutcome::default() });

        let db1 = store.snapshot();
        let mut placeholder = select.clone();
        merge_filter(&mut placeholder, builder::eq(builder::col("R", "rowid"), builder::int(0)));
        let mut q = engine.prepare(&db1, &Query::from_select(placeholder)).unwrap();
        assert_eq!(q.rebind_rowid_set(r, &Arc::new(vec![10, 11])), 0, "R is index-joined");
        assert_eq!(registry.get(&db1, &select).unwrap().rows.len(), 2, "R.a = 1 twice");
    }

    #[test]
    fn varying_degree_and_unknown_selects_are_refused() {
        let store = seed_store();
        let registry = MatRegistry::new();
        let engine = Engine::new();
        let db = store.snapshot();
        let r = rel(&db, "R");
        let plain = pref_select(PREF_SQL);
        let result = materialized(&engine, &db, &plain);

        let varying =
            pref_select("select R.rowid as qp_tid, R.b * 0.01 as qp_degree from R where R.a >= 3");
        registry.register(&db, &varying, 0.8, r, "R", Arc::clone(&result));
        assert_eq!(registry.len(), 0, "only constant-degree selects are registered");

        let unknown = pref_select("select NOPE.rowid as qp_tid, 1.0 as qp_degree from NOPE");
        registry.register(&db, &unknown, 1.0, r, "NOPE", result);
        assert_eq!(registry.len(), 0, "unresolvable relations must never be cached");
    }

    #[test]
    fn schema_publish_clears_registry_and_memos() {
        let store = seed_store();
        let profiles = Arc::new(ProfileStore::new());
        let maintainer =
            Maintainer::new(Arc::clone(&store)).with_profile_store(Arc::clone(&profiles));
        let registry = maintainer.registry();
        let engine = Engine::new();
        let select = pref_select(PREF_SQL);
        let db0 = store.snapshot();
        let r = rel(&db0, "R");
        registry.register(&db0, &select, 0.8, r, "R", materialized(&engine, &db0, &select));
        assert_eq!(registry.len(), 1);

        maintainer
            .publish_schema(|db| {
                db.create_relation("T2", vec![Attribute::new("z", DataType::Int)], &[])
                    .map(|_| ())
            })
            .unwrap();
        assert_eq!(registry.len(), 0, "schema change wholesale-invalidates the registry");
    }

    #[test]
    fn rejected_delta_maintains_nothing() {
        let store = seed_store();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let registry = maintainer.registry();
        let engine = Engine::new();
        let select = pref_select(PREF_SQL);
        let db0 = store.snapshot();
        let r = rel(&db0, "R");
        registry.register(&db0, &select, 0.8, r, "R", materialized(&engine, &db0, &select));

        let bad = DbDelta::new().delete("R", vec![Value::Int(999), Value::Int(0)]);
        assert!(maintainer.publish(&bad).is_err());
        assert!(registry.get(&db0, &select).is_some(), "old epoch's entry untouched");
    }

    #[test]
    fn capacity_refuses_rather_than_evicting_current_epoch() {
        let store = seed_store();
        let registry = MatRegistry::with_capacity(1);
        let engine = Engine::new();
        let db = store.snapshot();
        let r = rel(&db, "R");
        let s1 = pref_select(PREF_SQL);
        let s2 = pref_select("select R.rowid as qp_tid, 0.2 as qp_degree from R where R.a < 3");
        let built = materialized(&engine, &db, &s1);
        registry.register(&db, &s1, 0.8, r, "R", Arc::clone(&built));
        registry.register(&db, &s2, 0.2, r, "R", built);
        assert_eq!(registry.len(), 1);
        assert!(registry.get(&db, &s1).is_some(), "first entry kept");
        assert!(registry.get(&db, &s2).is_none(), "second refused at capacity");
    }
}
