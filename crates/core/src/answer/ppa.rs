//! PPA — Progressive Personalized Answers (§5, Figure 6).
//!
//! Presence (and 1–1 absence) preferences become *presence queries* `S`,
//! 1–n absence preferences become *absence queries* `A`, each ordered by
//! increasing selectivity (histogram estimates). Presence queries return
//! tuples that *satisfy* their preference; absence queries return tuples
//! that *fail* theirs. When a query first surfaces a tuple `t`, the
//! remaining queries are evaluated for `t` alone — the paper's
//! parameterized queries `Qiˢ(t)` / `Qiᴬ(t)`, answered here by a hash
//! lookup into each preference query's materialized result (see
//! *Probes* below). The tuple's full satisfied/failed sets — and hence
//! its exact doi under any mixed ranking function — are known
//! immediately, which is what makes the answer *self-explanatory*.
//!
//! Note that PPA never executes a `NOT IN` exclusion: 1–n absence
//! preferences are probed through their (cheap) failure-region queries,
//! the efficiency win over SPA the paper highlights.
//!
//! Progressiveness comes from **MEDI**, the Maximum Estimated Degree of
//! Interest any *unseen* tuple can still achieve. Before presence query
//! `i` runs, an unseen tuple can at best satisfy presence preferences
//! `i..` plus every absence preference; once the presence stage ends, at
//! best all absence preferences. Buffered tuples with `doi ≥ MEDI` are
//! emitted immediately — the first response typically arrives after the
//! first (most selective) presence query.
//!
//! Note on the paper's MEDI update: Figure 6 reduces MEDI to "the degree
//! of satisfying preferences corresponding to queries not yet executed".
//! During the absence stage that underestimates unseen tuples, which
//! still satisfy every *executed* absence query's preference precisely by
//! not having been returned by it. We use the corrected bound (all
//! absence preferences) so emission order provably respects rank.
//!
//! **Probes.** PPA has one probe strategy. The first round that needs
//! to probe a preference materializes that preference query's *full*
//! result once (`PrefResult`) — the first row per tuple id, which is
//! exactly what `Qiˢ(t)` / `Qiᴬ(t)` would return for `t` — and every
//! later round probes it by hash lookup. When the materialized
//! preference's own round comes up, the round replays the stored result
//! instead of re-executing the query, so a run executes each preference
//! query at most once and the per-round work is pure in-memory lookups. Emission fetches each burst's rows with one
//! set-fetch execution ([`qp_exec::planner::CompiledQuery::rebind_rowid_set`]),
//! which returns rows in listed-id order.
//!
//! **Parallelism.** Two layers of a round are independent work. First,
//! each preference query's one-time materialization is an independent
//! unit — the round's missing materializations fan out over
//! [`qp_exec::morsel_map`]'s work-stealing workers and are folded back
//! in worklist order, so accounting and any surfaced error match the
//! serial loop's. Second, the probes of a round's fresh tuples are
//! independent: each round collects its fresh tuples serially (the
//! dedup against `seen` is order-sensitive), slices them into
//! `PROBE_CHUNK`-sized (256-tuple) items, and schedules the items as
//! morsels under a `ppa.parallel_round` span — a skewed round rebalances
//! by stealing instead of serializing behind the slowest contiguous
//! chunk. Workers share the materialized results, database and guard
//! read-only and return their results in input order, so a parallel
//! round buffers exactly what a serial one would — answers are
//! byte-identical. On a guard trip or fault the whole round's batch is
//! discarded; every tuple of that round is bounded by the round's MEDI,
//! which is also the cut's final emission bound, so the degraded answer
//! still emits nothing it cannot prove the rank of.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qp_exec::{morsel_map, Engine, ExecError, ExecStats, QueryGuard};
use qp_sql::{builder, Query, Select, SelectItem, TableRef};
use qp_storage::{Database, RelId, Row};

use crate::answer::maint::MatRegistry;
use crate::answer::subquery::{classify, failure_select, merge_filter, satisfaction_select, IntegrationKind};
use crate::answer::{PersonalizedAnswer, PersonalizedTuple};
use crate::degrade::{DegradeCause, DegradeEvent, Degradation, PpaPhase};
use crate::error::PrefError;
use crate::profile::Profile;
use crate::ranking::Ranking;
use crate::select::SelectedPreference;

/// Maps an armed failpoint at `site` onto [`ExecError::Fault`]; a no-op
/// without the `failpoints` feature.
#[inline]
fn fail_point(site: &str) -> Result<(), ExecError> {
    qp_storage::failpoint::check(site).map_err(ExecError::Fault)
}

/// A splitmix64-style hasher for tuple-id keys. The tid sets and maps in
/// this module are membership-only (iteration order is never observed),
/// and at tens of thousands of probe-id operations per run the default
/// SipHash shows up in end-to-end PPA latency.
#[derive(Default)]
pub(crate) struct TidHasher(u64);

impl std::hash::Hasher for TidHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut x = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

pub(crate) type TidBuild = std::hash::BuildHasherDefault<TidHasher>;
type TidSet = HashSet<u64, TidBuild>;
pub(crate) type TidMap<V> = HashMap<u64, V, TidBuild>;

/// Instrumentation of a PPA run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpaStats {
    /// Time until the first tuple was emitted (None for empty answers).
    pub first_response: Option<Duration>,
    /// Total execution time.
    pub total: Duration,
    /// Number of presence rounds evaluated (a round may replay an
    /// already-materialized preference result rather than re-execute its
    /// query).
    pub presence_queries: usize,
    /// Number of absence rounds evaluated (see `presence_queries`).
    pub absence_queries: usize,
    /// Number of preference queries executed in full to answer the
    /// parameterized queries `Qiˢ(t)` / `Qiᴬ(t)`: at most one per selected
    /// preference (its one-time materialization), 0 for results a
    /// maintenance registry already held.
    pub parameterized_queries: usize,
}

/// A qualified tuple buffered for emission, max-heap ordered by doi (ties
/// broken by tuple id for determinism).
#[derive(Debug, Clone)]
struct Buffered {
    doi: f64,
    tid: u64,
    satisfied: Vec<usize>,
    failed: Vec<usize>,
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        self.doi == other.doi && self.tid == other.tid
    }
}
impl Eq for Buffered {}
impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.doi.total_cmp(&other.doi).then_with(|| other.tid.cmp(&self.tid))
    }
}

/// Everything the parameterized probes learn about one candidate tuple.
struct Probed {
    /// Presence preferences the tuple satisfies, with degrees.
    sat: Vec<(usize, f64)>,
    /// Absence preferences the tuple fails, with (non-positive) degrees.
    abs_failed: Vec<(usize, f64)>,
    /// Tuple probes the chunk performed (reported on its first tuple).
    batched_tuples: usize,
}

/// Fresh tuples per probe work item. Rounds slice their fresh tuples
/// into items of this size before handing them to the morsel scheduler
/// (which groups 1–4 items per morsel), so the steal granularity stays
/// fine enough to rebalance a skewed round.
const PROBE_CHUNK: usize = 256;

/// Splits `items` into consecutive chunks of at most [`PROBE_CHUNK`]
/// elements. Chunk order equals input order, so flattening the
/// per-chunk results reproduces the serial processing order exactly.
fn chunked<T>(items: Vec<T>) -> Vec<Vec<T>> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let mut iter = items.into_iter();
    (0..n.div_ceil(PROBE_CHUNK))
        .map(|_| iter.by_ref().take(PROBE_CHUNK).collect())
        .collect()
}

/// One preference query's full qualifying result, materialized at most
/// once per run: first-occurrence `(tuple id, degree)` pairs — the
/// degree is the plan's first row per id, the row `Qiˢ(t)` / `Qiᴬ(t)`
/// would return first — plus a hash index over them.
/// Later rounds probe it by lookup instead of re-executing the preference
/// query against each round's fresh tuples, and the preference's own
/// round replays its query from `rows`, so a complete run executes each
/// preference query exactly once.
///
/// `rows` is kept in *canonical* ascending-tuple-id order rather than
/// plan output order. Inter-tuple order within a round is unobservable in
/// the final answer (emission pops a strictly ordered heap), and the
/// canonical order is what lets the incremental-maintenance layer
/// ([`crate::answer::maint`]) merge a delta's gained and lost tuples
/// into a materialization and stay byte-identical to a
/// recompute-from-scratch regardless of which plan shape the recompute
/// would pick.
pub(crate) struct PrefResult {
    /// `(tid, degree)` per qualifying tuple in ascending-tid order; the
    /// degree is the plan's first row per id, NULL already defaulted to
    /// the preference's d+/d−.
    pub(crate) rows: Vec<(u64, f64)>,
    /// tid → degree over the same pairs, for O(1) probes.
    pub(crate) index: TidMap<f64>,
}

/// Executes one preference query in full (no rowid constraint) and
/// materializes its [`PrefResult`]. Runs under the shared guard, so a
/// deadline or budget trip mid-materialization cuts the round.
pub(crate) fn materialize_pref(
    engine: &Engine,
    db: &Database,
    guard: &QueryGuard,
    select: &Select,
    default: f64,
    stats: &mut ExecStats,
) -> Result<PrefResult, ExecError> {
    let q = engine.prepare(db, &Query::from_select(select.clone()))?;
    let result = engine.execute_prepared_rows_guarded(db, &q, stats, guard)?;
    let mut index: TidMap<f64> =
        TidMap::with_capacity_and_hasher(result.len(), TidBuild::default());
    let mut rows = Vec::with_capacity(result.len());
    for r in &result {
        let tid = match r[0].as_i64() {
            Some(t) if t >= 0 => t as u64,
            _ => continue,
        };
        if let std::collections::hash_map::Entry::Vacant(e) = index.entry(tid) {
            let d = r[1].as_f64().unwrap_or(default);
            e.insert(d);
            rows.push((tid, d));
        }
    }
    // Canonical order (see `PrefResult`): dedup above keeps the plan's
    // first-row degree per id, the sort fixes inter-id order.
    rows.sort_unstable_by_key(|&(t, _)| t);
    Ok(PrefResult { rows, index })
}

/// The maintenance hookup of one PPA run: the attached [`MatRegistry`]
/// plus the tuple-identity facts ([`MatRegistry::register`] needs them to
/// gate the delta path) resolved from the initial query.
pub(crate) struct RegistryCtx<'a> {
    /// The registry shared across runs (and with the delta publisher).
    pub(crate) registry: &'a MatRegistry,
    /// The relation whose row ids are the run's tuple ids.
    pub(crate) tid_rel: RelId,
    /// The binding name that relation carries in the preference selects.
    pub(crate) tid_binding: &'a str,
}

/// Materializes every not-yet-built preference result named by `missing`
/// (a `(preference index, query, NULL default)` worklist in the order the
/// serial loop would execute it) and stores them into `pref_results`.
/// Each [`PrefResult`] is an independent unit, so the worklist fans out
/// over the engine's morsel workers; successes are folded back in
/// worklist order so the per-query accounting matches the serial loop's,
/// and on failure the lowest-worklist-index error is returned — the same
/// error serial execution would have surfaced first.
///
/// With a [`RegistryCtx`] attached, the registry is consulted first:
/// hits are assigned without executing anything (and without counting a
/// parameterized query — no query ran), misses are built as usual and
/// registered for the *next* run. Registry traffic is counted on the
/// engine's metrics (`maint.registry.*`).
#[allow(clippy::too_many_arguments)]
fn materialize_missing(
    engine: &Engine,
    db: &Database,
    guard: &QueryGuard,
    mut missing: Vec<(usize, &Select, f64)>,
    pref_results: &mut [Option<Arc<PrefResult>>],
    stats: &mut PpaStats,
    estats: &mut ExecStats,
    reg: Option<&RegistryCtx<'_>>,
) -> Result<(), ExecError> {
    if let Some(ctx) = reg {
        let metrics = engine.metrics();
        missing.retain(|&(p, select, _)| match ctx.registry.get(db, select) {
            Some(hit) => {
                metrics.counter("maint.registry.hits").inc();
                pref_results[p] = Some(hit);
                false
            }
            None => {
                metrics.counter("maint.registry.misses").inc();
                true
            }
        });
    }
    if missing.is_empty() {
        return Ok(());
    }
    let reg_info: Vec<(usize, &Select, f64)> = if reg.is_some() { missing.clone() } else { Vec::new() };
    let workers = engine.parallelism().min(missing.len());
    let (built, pstats) = morsel_map(missing, workers, |_, (p, select, default)| {
        let mut st = ExecStats::default();
        materialize_pref(engine, db, guard, select, default, &mut st).map(|r| (p, r, st))
    });
    engine.note_pool(pstats);
    for (p, r, st) in built? {
        estats.merge(&st);
        stats.parameterized_queries += 1;
        let r = Arc::new(r);
        if let Some(ctx) = reg {
            if let Some(&(_, select, default)) = reg_info.iter().find(|&&(q, _, _)| q == p) {
                let evicted = ctx.registry.register(
                    db,
                    select,
                    default,
                    ctx.tid_rel,
                    ctx.tid_binding,
                    Arc::clone(&r),
                );
                if evicted > 0 {
                    engine.metrics().counter("maint.registry.evicted").add(evicted as u64);
                }
            }
        }
        pref_results[p] = Some(r);
    }
    Ok(())
}

/// Probes one chunk of fresh tuples against materialized preference
/// results: pure hash lookups, no engine execution. Probe-major iteration
/// in probe-list order records `sat` / `abs_failed` in probe-list order.
/// The chunk's covered-tuple total rides on the first tuple (executions
/// are counted by the caller at materialization time).
fn probe_chunk(
    chunk: Vec<(u64, f64)>,
    s_probe: &[(usize, Arc<PrefResult>)],
    a_probe: &[(usize, Arc<PrefResult>)],
) -> Vec<(u64, f64, Probed)> {
    let mut out: Vec<(u64, f64, Probed)> = chunk
        .into_iter()
        .map(|(tid, degree)| {
            (tid, degree, Probed { sat: Vec::new(), abs_failed: Vec::new(), batched_tuples: 0 })
        })
        .collect();
    if out.is_empty() {
        return out;
    }
    let mut batched_tuples = 0usize;
    for (pref, res) in s_probe {
        batched_tuples += out.len();
        for (tid, _, p) in out.iter_mut() {
            if let Some(&d) = res.index.get(tid) {
                p.sat.push((*pref, d.max(0.0)));
            }
        }
    }
    for (pref, res) in a_probe {
        batched_tuples += out.len();
        for (tid, _, p) in out.iter_mut() {
            if let Some(&d) = res.index.get(tid) {
                p.abs_failed.push((*pref, d.min(0.0)));
            }
        }
    }
    if let Some((_, _, p)) = out.first_mut() {
        p.batched_tuples = batched_tuples;
    }
    out
}

/// Runs PPA and returns the (emission-ordered) answer plus stats.
/// `engine` must come from [`crate::answer::degree::engine`], which
/// builds in the functions elastic preference queries call.
pub fn ppa(
    db: &Database,
    engine: &Engine,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    l: usize,
    ranking: &Ranking,
) -> Result<(PersonalizedAnswer, PpaStats), PrefError> {
    ppa_limited(db, engine, initial, profile, selected, l, ranking, None)
}

/// Runs PPA with an optional emission limit: as soon as `limit` tuples
/// have been *provably-ranked* emitted, the run stops — the progressive
/// formulation's payoff for top-N requests, where SPA must always compute
/// its entire statement first.
#[allow(clippy::too_many_arguments)]
pub fn ppa_limited(
    db: &Database,
    engine: &Engine,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    l: usize,
    ranking: &Ranking,
    limit: Option<usize>,
) -> Result<(PersonalizedAnswer, PpaStats), PrefError> {
    ppa_guarded(db, engine, initial, profile, selected, l, ranking, limit, &QueryGuard::unlimited())
        .map(|(a, s, _)| (a, s))
}

/// Runs PPA under a [`QueryGuard`], degrading instead of failing.
///
/// Once the phase queries are prepared, a guard trip (deadline, budget,
/// cancellation) or an injected fault mid-phase does not error out:
/// progression stops, every buffered tuple whose doi still clears the MEDI
/// bound of the phase reached is emitted, and the cut is described in the
/// returned [`Degradation`]. The partial answer is a prefix of the
/// complete run's answer: no emitted tuple ranks below an omitted one —
/// the same MEDI argument that makes a complete run's emission order
/// correct applies to the truncated one.
///
/// Errors *before* the phase loop (an unsupported query shape, failed
/// preparation) are still returned as `Err`: there is nothing partial to
/// salvage.
#[allow(clippy::too_many_arguments)]
pub fn ppa_guarded(
    db: &Database,
    engine: &Engine,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    l: usize,
    ranking: &Ranking,
    limit: Option<usize>,
    guard: &QueryGuard,
) -> Result<(PersonalizedAnswer, PpaStats, Degradation), PrefError> {
    ppa_run(db, engine, initial, profile, selected, l, ranking, limit, guard, None)
}

/// [`ppa_guarded`] with an optional materialization registry attached
/// (see [`crate::answer::maint`]): every preference result is fetched
/// from — or built into — the registry up front, so a steady-state run
/// under write traffic replays incrementally maintained results instead
/// of re-executing preference queries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ppa_run(
    db: &Database,
    engine: &Engine,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    l: usize,
    ranking: &Ranking,
    limit: Option<usize>,
    guard: &QueryGuard,
    registry: Option<&MatRegistry>,
) -> Result<(PersonalizedAnswer, PpaStats, Degradation), PrefError> {
    let started = Instant::now();
    let tracer = engine.tracer().clone();
    let mut run_span = tracer.span("ppa.run");
    run_span.attr("k", selected.len());
    run_span.attr("l", l);
    let selects = initial.selects();
    if selects.len() != 1 {
        return Err(PrefError::UnsupportedQuery("initial query must be a single SELECT".into()));
    }
    let initial_select = selects[0];
    if selected.is_empty() {
        return Err(PrefError::InvalidCriterion(
            "PPA requires at least one selected preference".into(),
        ));
    }
    if l == 0 || l > selected.len() {
        return Err(PrefError::InvalidCriterion(format!(
            "L = {l} outside 1..=K ({} selected)",
            selected.len()
        )));
    }
    let catalog = db.catalog();
    // Subquery generation: classification, selectivity-based ordering,
    // and construction of the S/A queries — everything before the first
    // phase runs.
    let mut prepare_span = tracer.span("ppa.prepare");
    let infos = classify(db, profile, selected);

    // order presence queries by increasing satisfaction selectivity,
    // absence queries by increasing failure selectivity
    let mut s_order: Vec<usize> = infos
        .iter()
        .filter(|i| matches!(i.kind, IntegrationKind::Presence | IntegrationKind::Absence11))
        .map(|i| i.index)
        .collect();
    s_order.sort_by(|a, b| {
        infos[*a].sat_selectivity.total_cmp(&infos[*b].sat_selectivity).then(a.cmp(b))
    });
    let mut a_order: Vec<usize> = infos
        .iter()
        .filter(|i| i.kind == IntegrationKind::Absence1N)
        .map(|i| i.index)
        .collect();
    a_order.sort_by(|a, b| {
        infos[*a].fail_selectivity.total_cmp(&infos[*b].fail_selectivity).then(a.cmp(b))
    });

    // --- tuple identity: the first FROM relation's row id -------------
    let (first_binding, first_rel) = match &initial_select.from[0] {
        TableRef::Relation { name, alias } => {
            let rel = catalog.relation_by_name(name)?;
            (alias.clone().unwrap_or_else(|| name.clone()), rel.id)
        }
        TableRef::Derived { .. } => {
            return Err(PrefError::UnsupportedQuery("derived FROM in initial query".into()))
        }
    };

    // --- emission row fetch (prepared with a placeholder row id and
    // rebound to each burst's ids; avoids materializing the whole initial
    // query when PPA only emits a slice of it) ---------------------------
    let mut fetch = initial_select.clone();
    let mut fetch_items = vec![builder::item_as(builder::col(&first_binding, "rowid"), "qp_tid")];
    fetch_items.extend(fetch.items.iter().cloned());
    fetch.items = fetch_items;
    merge_filter(
        &mut fetch,
        builder::eq(builder::col(&first_binding, "rowid"), builder::int(0)),
    );
    let mut fetch_prepared = engine.prepare(db, &Query::from_select(fetch))?;
    let columns: Vec<String> = fetch_prepared.columns.iter().skip(1).cloned().collect();

    // --- build the S and A queries --------------------------------------
    let projection = |binding: &str| {
        let b = binding.to_string();
        move |_anchor: &str, degree: qp_sql::Expr| -> Vec<SelectItem> {
            vec![
                builder::item_as(builder::col(&b, "rowid"), "qp_tid"),
                builder::item_as(degree, "qp_degree"),
            ]
        }
    };
    let mut s_queries: Vec<Select> = Vec::with_capacity(s_order.len());
    for &i in &s_order {
        let proj = projection(&first_binding);
        s_queries.push(satisfaction_select(catalog, initial_select, profile, &selected[i], &infos[i], &proj)?);
    }
    let mut a_queries: Vec<Select> = Vec::with_capacity(a_order.len());
    for &i in &a_order {
        let proj = projection(&first_binding);
        a_queries.push(failure_select(catalog, initial_select, profile, &selected[i], &infos[i], &proj)?);
    }
    prepare_span.attr("presence_queries", s_order.len());
    prepare_span.attr("absence_queries", a_order.len());
    prepare_span.finish();
    let mut estats = ExecStats::default();

    let mut stats = PpaStats::default();
    // Tuple probes answered from materialized results (metrics only).
    let mut probe_batch_tuples: u64 = 0;
    // Materialized preference results, indexed by preference index.
    let mut pref_results: Vec<Option<Arc<PrefResult>>> = vec![None; selected.len()];
    let ranking = *ranking;
    let d_plus = |i: usize| infos[i].d_plus;
    let d_minus = |i: usize| infos[i].d_minus;
    // Scratch degree buffers for the per-tuple doi computation, reused
    // across every probed tuple of the run: rounds process tens of
    // thousands of tuples, so per-tuple Vec/HashSet churn here shows up
    // directly in end-to-end PPA latency.
    let mut pos_buf: Vec<f64> = Vec::new();
    let mut neg_buf: Vec<f64> = Vec::new();

    // ranked emission machinery
    let mut buffered: BinaryHeap<Buffered> = BinaryHeap::new();
    let mut emitted: Vec<PersonalizedTuple> = Vec::new();
    let mut first_response: Option<Duration> = None;
    // Emits every buffered tuple whose doi clears the MEDI bound,
    // fetching the burst's projected rows with one rowid-set execution of
    // the prepared row-fetch query (rows come back in listed-id order; the
    // first row per tuple id is the tuple's row). The output budget is
    // charged as each tuple is popped, so a budget trip emits an exact
    // ranked prefix. Evaluates to `Option<ExecError>`: `Some` when the
    // guard tripped (or a fault fired) mid-emission, with unfetched
    // tuples left buffered.
    macro_rules! emit_ready {
        ($medi:expr) => {{
            let medi: f64 = $medi;
            let mut emit_err: Option<ExecError> = None;
            let mut ready: Vec<Buffered> = Vec::new();
            while let Some(top) = buffered.peek() {
                if top.doi + 1e-12 < medi {
                    break;
                }
                // each emitted tuple is one row of user output
                if let Err(e) = guard.charge_output(1) {
                    emit_err = Some(e);
                    break;
                }
                let Some(rec) = buffered.pop() else { break };
                if first_response.is_none() {
                    first_response = Some(started.elapsed());
                }
                ready.push(rec);
            }
            if !ready.is_empty() {
                let ids: Arc<Vec<u64>> = Arc::new(ready.iter().map(|r| r.tid).collect());
                fetch_prepared.rebind_rowid_set(first_rel, &ids);
                match engine.execute_prepared_rows_guarded(db, &fetch_prepared, &mut estats, guard) {
                    Ok(rows) => {
                        let mut by_tid: TidMap<Row> = TidMap::with_capacity_and_hasher(ready.len(), TidBuild::default());
                        for r in rows {
                            let tid = match r[0].as_i64() {
                                Some(t) if t >= 0 => t as u64,
                                _ => continue,
                            };
                            by_tid.entry(tid).or_insert(r);
                        }
                        for rec in ready.drain(..) {
                            let row = by_tid
                                .remove(&rec.tid)
                                .map(|mut r| {
                                    r.remove(0);
                                    r
                                })
                                .unwrap_or_default();
                            emitted.push(PersonalizedTuple {
                                tuple_id: Some(rec.tid),
                                row,
                                doi: rec.doi,
                                satisfied: rec.satisfied,
                                failed: rec.failed,
                            });
                        }
                    }
                    Err(e) => {
                        // nothing from the burst was emitted; re-buffer it
                        // whole — emission stays a ranked prefix
                        for rec in ready.drain(..) {
                            buffered.push(rec);
                        }
                        emit_err = Some(e);
                    }
                }
            }
            emit_err
        }};
    }

    // MEDI before presence round si: best unseen satisfies S[si..] + all A
    let medi_at = |si: usize| -> f64 {
        let pos: Vec<f64> = s_order[si..]
            .iter()
            .map(|&i| d_plus(i))
            .chain(a_order.iter().map(|&i| d_plus(i)))
            .collect();
        ranking.positive(&pos)
    };

    let mut seen: TidSet = TidSet::default();
    // Where and why the run stopped progressing, if it did.
    let mut cut: Option<(PpaPhase, DegradeCause)> = None;
    // Completed phase counts (for the degradation report and the final
    // emission bound).
    let mut presence_done = 0usize;
    let mut absence_done = 0usize;
    let mut limit_hit = false;
    // best doi an unseen tuple can reach once the presence stage is over
    let medi_abs = {
        let pos: Vec<f64> = a_order.iter().map(|&i| d_plus(i)).collect();
        ranking.positive(&pos)
    };

    // With a maintenance registry attached, fetch or build *every*
    // preference result before the first round: in steady-state serving
    // the registry already holds all K results for the current epoch, so
    // the whole run degenerates to in-memory replay (zero preference
    // query executions). A failure here cuts the run exactly like a
    // failed first presence round would.
    let reg_ctx = registry.map(|r| RegistryCtx {
        registry: r,
        tid_rel: first_rel,
        tid_binding: &first_binding,
    });
    if reg_ctx.is_some() {
        let mut missing: Vec<(usize, &Select, f64)> = Vec::new();
        for (sj, &p) in s_order.iter().enumerate() {
            if pref_results[p].is_none() {
                missing.push((p, &s_queries[sj], d_plus(p)));
            }
        }
        for (aj, &p) in a_order.iter().enumerate() {
            if pref_results[p].is_none() {
                missing.push((p, &a_queries[aj], d_minus(p)));
            }
        }
        if let Err(e) = materialize_missing(
            engine,
            db,
            guard,
            missing,
            &mut pref_results,
            &mut stats,
            &mut estats,
            reg_ctx.as_ref(),
        ) {
            cut = Some((PpaPhase::Presence(0), DegradeCause::from_exec(&e)));
        }
    }

    // --- presence stage ------------------------------------------------
    'presence: for (si, &pref_i) in s_order.iter().enumerate() {
        if cut.is_some() {
            break 'presence;
        }
        // remaining queries (incl. this) + all absence prefs must reach L
        if (s_order.len() - si) + a_order.len() < l {
            break;
        }
        let mut round_span = tracer.span("ppa.presence");
        round_span.attr("round", si);
        round_span.attr("pref", pref_i);
        if let Err(e) = guard.check_now().and_then(|()| fail_point("ppa.presence")) {
            cut = Some((PpaPhase::Presence(si), DegradeCause::from_exec(&e)));
            break 'presence;
        }
        stats.presence_queries += 1;
        // A round whose preference result was already materialized for an
        // earlier round's probes replays it instead of re-executing the
        // query; first-occurrence order and degrees are those the
        // execution produced.
        let cached_round = pref_results[pref_i].clone();
        // Fresh tuples are collected serially (dedup against `seen`), then
        // probed — across worker threads when parallelism allows.
        let mut fresh: Vec<(u64, f64)> = Vec::new();
        if let Some(c) = &cached_round {
            for &(tid, d) in &c.rows {
                if seen.insert(tid) {
                    fresh.push((tid, d));
                }
            }
        } else {
            let rs = match engine.execute_uncharged(
                db,
                &Query::from_select(s_queries[si].clone()),
                guard,
            ) {
                Ok(rs) => rs,
                Err(e) => {
                    cut = Some((PpaPhase::Presence(si), DegradeCause::from_exec(&e)));
                    break 'presence;
                }
            };
            for row in rs.rows {
                let tid = match row[0].as_i64() {
                    Some(t) if t >= 0 => t as u64,
                    _ => continue,
                };
                if !seen.insert(tid) {
                    continue;
                }
                fresh.push((tid, row[1].as_f64().unwrap_or(d_plus(pref_i))));
            }
        }
        // Materialize any not-yet-built later presence / absence results —
        // one full execution each answers every probe of that preference
        // for the rest of the run.
        let mut s_probe: Vec<(usize, Arc<PrefResult>)> = Vec::new();
        let mut a_probe: Vec<(usize, Arc<PrefResult>)> = Vec::new();
        if !fresh.is_empty() {
            // Worklist of missing materializations in serial execution
            // order; each is an independent full query, so they fan out
            // over the morsel workers.
            let mut missing: Vec<(usize, &Select, f64)> = Vec::new();
            for (sj, &p) in s_order.iter().enumerate().skip(si + 1) {
                if pref_results[p].is_none() {
                    missing.push((p, &s_queries[sj], d_plus(p)));
                }
            }
            for (aj, &p) in a_order.iter().enumerate() {
                if pref_results[p].is_none() {
                    missing.push((p, &a_queries[aj], d_minus(p)));
                }
            }
            if let Err(e) = materialize_missing(
                engine,
                db,
                guard,
                missing,
                &mut pref_results,
                &mut stats,
                &mut estats,
                reg_ctx.as_ref(),
            ) {
                cut = Some((PpaPhase::Presence(si), DegradeCause::from_exec(&e)));
                break 'presence;
            }
            for &p in s_order.iter().skip(si + 1) {
                s_probe.push((p, Arc::clone(pref_results[p].as_ref().expect("materialized"))));
            }
            for &p in &a_order {
                a_probe.push((p, Arc::clone(pref_results[p].as_ref().expect("materialized"))));
            }
        }
        let workers = engine.parallelism().min(fresh.len());
        let par_span = (workers > 1).then(|| {
            let mut sp = tracer.span("ppa.parallel_round");
            sp.attr("phase", "presence");
            sp.attr("round", si);
            sp.attr("tuples", fresh.len());
            sp.attr("workers", workers);
            sp
        });
        let (probed, pstats) = morsel_map(chunked(fresh), workers, |_, chunk| {
            Ok::<_, ExecError>(probe_chunk(chunk, &s_probe, &a_probe))
        });
        engine.note_pool(pstats);
        drop(par_span);
        let probed: Vec<(u64, f64, Probed)> = match probed {
            Ok(p) => p.into_iter().flatten().collect(),
            Err(e) => {
                // the round's batch is dropped whole: partially probed
                // tuples have unknown doi, and every tuple of this round
                // is bounded by the round's MEDI — the cut's emission
                // bound — so nothing emitted can be outranked by a drop
                cut = Some((PpaPhase::Presence(si), DegradeCause::from_exec(&e)));
                break 'presence;
            }
        };
        for (tid, degree, p) in probed {
            probe_batch_tuples += p.batched_tuples as u64;
            // Satisfied presence prefs: this round's plus the probe hits;
            // a probe records each pref at most once, and every recorded
            // absence pref belongs to `a_order`, so the counts below are
            // exact without materializing the sets.
            let sat_n = 1 + p.sat.len();
            let cur_l = sat_n + (a_order.len() - p.abs_failed.len());
            if cur_l < l {
                continue;
            }
            pos_buf.clear();
            neg_buf.clear();
            let mut satisfied: Vec<usize> = Vec::with_capacity(cur_l);
            satisfied.push(pref_i);
            pos_buf.push(degree.max(0.0));
            for &(i, d) in &p.sat {
                satisfied.push(i);
                pos_buf.push(d);
            }
            let mut failed: Vec<usize> =
                Vec::with_capacity(s_order.len() + a_order.len() - cur_l);
            for &i in &s_order {
                if !satisfied[..sat_n].contains(&i) {
                    let d = d_minus(i);
                    if d < 0.0 {
                        neg_buf.push(d);
                    }
                    failed.push(i);
                }
            }
            // `p.abs_failed` lists failed absence prefs in `a_order` order,
            // so one pass over `a_order` splits it while preserving the
            // degree ordering the doi computation has always used.
            for &i in &a_order {
                match p.abs_failed.iter().find(|(j, _)| *j == i) {
                    Some(&(_, d)) => {
                        if d < 0.0 {
                            neg_buf.push(d);
                        }
                        failed.push(i);
                    }
                    None => {
                        satisfied.push(i);
                        pos_buf.push(d_plus(i));
                    }
                }
            }
            let doi = ranking.mixed(&pos_buf, &neg_buf);
            satisfied.sort_unstable();
            failed.sort_unstable();
            buffered.push(Buffered { tid, doi, satisfied, failed });
        }
        presence_done = si + 1;
        let medi = medi_at(si + 1);
        if let Some(e) = emit_ready!(medi) {
            cut = Some((PpaPhase::Presence(si), DegradeCause::from_exec(&e)));
            break 'presence;
        }
        round_span.attr("emitted_total", emitted.len());
        round_span.attr("buffered", buffered.len());
        if limit.is_some_and(|n| emitted.len() >= n) {
            limit_hit = true;
            break 'presence;
        }
    }

    // --- absence stage ---------------------------------------------------
    // Unseen tuples satisfy no presence preference; they qualify only via
    // absence preferences, so the whole stage (and step 3) is skipped when
    // |A| < L.
    let mut nids: TidSet = TidSet::default();
    if a_order.len() >= l && cut.is_none() && !limit_hit {
        'absence: for (ai, &pref_i) in a_order.iter().enumerate() {
            let mut round_span = tracer.span("ppa.absence");
            round_span.attr("round", ai);
            round_span.attr("pref", pref_i);
            if let Err(e) = guard.check_now().and_then(|()| fail_point("ppa.absence")) {
                cut = Some((PpaPhase::Absence(ai), DegradeCause::from_exec(&e)));
                break 'absence;
            }
            stats.absence_queries += 1;
            // Replay a materialized result when an earlier round's probes
            // already executed this preference query in full.
            let cached_round = pref_results[pref_i].clone();
            let mut fresh: Vec<(u64, f64)> = Vec::new();
            if let Some(c) = &cached_round {
                for &(tid, d) in &c.rows {
                    nids.insert(tid);
                    if seen.contains(&tid) {
                        continue;
                    }
                    // a new tuple fails pref_i; it can satisfy at most |A|-1
                    if a_order.len() - 1 < l {
                        continue;
                    }
                    seen.insert(tid);
                    fresh.push((tid, d));
                }
            } else {
                let rs = match engine.execute_uncharged(
                    db,
                    &Query::from_select(a_queries[ai].clone()),
                    guard,
                ) {
                    Ok(rs) => rs,
                    Err(e) => {
                        cut = Some((PpaPhase::Absence(ai), DegradeCause::from_exec(&e)));
                        break 'absence;
                    }
                };
                for row in rs.rows {
                    let tid = match row[0].as_i64() {
                        Some(t) if t >= 0 => t as u64,
                        _ => continue,
                    };
                    nids.insert(tid);
                    if seen.contains(&tid) {
                        continue;
                    }
                    // a new tuple fails pref_i; it can satisfy at most |A|-1
                    if a_order.len() - 1 < l {
                        continue;
                    }
                    seen.insert(tid);
                    fresh.push((tid, row[1].as_f64().unwrap_or(d_minus(pref_i))));
                }
            }
            // Materialize any remaining absence results not built during
            // the presence stage.
            let mut a_probe: Vec<(usize, Arc<PrefResult>)> = Vec::new();
            if !fresh.is_empty() {
                let mut missing: Vec<(usize, &Select, f64)> = Vec::new();
                for (aj, &p) in a_order.iter().enumerate().skip(ai + 1) {
                    if pref_results[p].is_none() {
                        missing.push((p, &a_queries[aj], d_minus(p)));
                    }
                }
                if let Err(e) = materialize_missing(
                    engine,
                    db,
                    guard,
                    missing,
                    &mut pref_results,
                    &mut stats,
                    &mut estats,
                    reg_ctx.as_ref(),
                ) {
                    cut = Some((PpaPhase::Absence(ai), DegradeCause::from_exec(&e)));
                    break 'absence;
                }
                for &p in a_order.iter().skip(ai + 1) {
                    a_probe.push((p, Arc::clone(pref_results[p].as_ref().expect("materialized"))));
                }
            }
            let workers = engine.parallelism().min(fresh.len());
            let par_span = (workers > 1).then(|| {
                let mut sp = tracer.span("ppa.parallel_round");
                sp.attr("phase", "absence");
                sp.attr("round", ai);
                sp.attr("tuples", fresh.len());
                sp.attr("workers", workers);
                sp
            });
            let (probed, pstats) = morsel_map(chunked(fresh), workers, |_, chunk| {
                Ok::<_, ExecError>(probe_chunk(chunk, &[], &a_probe))
            });
            engine.note_pool(pstats);
            drop(par_span);
            let probed: Vec<(u64, f64, Probed)> = match probed {
                Ok(p) => p.into_iter().flatten().collect(),
                Err(e) => {
                    cut = Some((PpaPhase::Absence(ai), DegradeCause::from_exec(&e)));
                    break 'absence;
                }
            };
            for (tid, d0, p) in probed {
                probe_batch_tuples += p.batched_tuples as u64;
                // This round's pref plus the probe hits are the failed
                // absence prefs, each recorded at most once and all in
                // `a_order`, so the satisfied count needs no set.
                let failed_n = 1 + p.abs_failed.len();
                let cur_l = a_order.len() - failed_n;
                if cur_l < l {
                    continue;
                }
                pos_buf.clear();
                neg_buf.clear();
                let mut satisfied: Vec<usize> = Vec::with_capacity(cur_l);
                let mut failed: Vec<usize> = Vec::with_capacity(s_order.len() + failed_n);
                for &i in &s_order {
                    let d = d_minus(i);
                    if d < 0.0 {
                        neg_buf.push(d);
                    }
                    failed.push(i);
                }
                // Failed absence prefs arrive in `a_order` order (this
                // round's first, probes after), so one ordered pass keeps
                // the historical degree ordering for the doi.
                for &i in &a_order {
                    let d = if i == pref_i {
                        Some(d0.min(0.0))
                    } else {
                        p.abs_failed.iter().find(|(j, _)| *j == i).map(|&(_, d)| d)
                    };
                    match d {
                        Some(d) => {
                            if d < 0.0 {
                                neg_buf.push(d);
                            }
                            failed.push(i);
                        }
                        None => {
                            satisfied.push(i);
                            pos_buf.push(d_plus(i));
                        }
                    }
                }
                let doi = ranking.mixed(&pos_buf, &neg_buf);
                satisfied.sort_unstable();
                failed.sort_unstable();
                buffered.push(Buffered { tid, doi, satisfied, failed });
            }
            absence_done = ai + 1;
            if let Some(e) = emit_ready!(medi_abs) {
                cut = Some((PpaPhase::Absence(ai), DegradeCause::from_exec(&e)));
                break 'absence;
            }
            round_span.attr("emitted_total", emitted.len());
            round_span.attr("buffered", buffered.len());
            if limit.is_some_and(|n| emitted.len() >= n) {
                limit_hit = true;
                break 'absence;
            }
        }

        // --- step 3: tuples never returned by any absence query satisfy
        // every absence preference (the full tuple-id set is materialized
        // only here, where it is genuinely needed) ----------------------
        if cut.is_none() && !limit_hit {
            let _residual_span = tracer.span("ppa.residual");
            'residual: {
                if let Err(e) = guard.check_now().and_then(|()| fail_point("ppa.step3")) {
                    cut = Some((PpaPhase::Residual, DegradeCause::from_exec(&e)));
                    break 'residual;
                }
                let mut base_ids = initial_select.clone();
                base_ids.items =
                    vec![builder::item_as(builder::col(&first_binding, "rowid"), "qp_tid")];
                base_ids.distinct = true;
                let rs = match engine.execute_uncharged(db, &Query::from_select(base_ids), guard)
                {
                    Ok(rs) => rs,
                    Err(e) => {
                        cut = Some((PpaPhase::Residual, DegradeCause::from_exec(&e)));
                        break 'residual;
                    }
                };
                let all_ids: Vec<u64> = rs
                    .rows
                    .iter()
                    .filter_map(|r| r[0].as_i64())
                    .filter(|t| *t >= 0)
                    .map(|t| t as u64)
                    .collect();
                for &tid in &all_ids {
                    if seen.contains(&tid) || nids.contains(&tid) {
                        continue;
                    }
                    let satisfied: Vec<usize> = a_order.clone();
                    if satisfied.len() >= l {
                        let pos: Vec<f64> = a_order.iter().map(|&i| d_plus(i)).collect();
                        let neg: Vec<f64> =
                            s_order.iter().map(|&i| d_minus(i)).filter(|d| *d < 0.0).collect();
                        let doi = ranking.mixed(&pos, &neg);
                        let mut failed: Vec<usize> = s_order.clone();
                        failed.sort_unstable();
                        let mut satisfied = satisfied;
                        satisfied.sort_unstable();
                        buffered.push(Buffered { tid, doi, satisfied, failed });
                    }
                }
            }
        }
    }

    // --- final flush -----------------------------------------------------
    // On a limit hit the emitted prefix already holds `limit` provably
    // ranked tuples; anything still buffered ranks at or below them, so
    // flushing would only be truncated away again.
    if !limit_hit {
        // The bound an unseen (never-evaluated) tuple could still reach at
        // the point the run stopped: a complete run flushes everything, a
        // cut run emits only what is provably ranked above that bound.
        let bound = match &cut {
            None => f64::NEG_INFINITY,
            Some((PpaPhase::Presence(_), _)) => medi_at(presence_done),
            Some((PpaPhase::Absence(_) | PpaPhase::Residual, _)) => medi_abs,
        };
        if let Some(e) = emit_ready!(bound) {
            if cut.is_none() {
                cut = Some((PpaPhase::Residual, DegradeCause::from_exec(&e)));
            }
        }
    }
    if let Some(n) = limit {
        emitted.truncate(n);
    }

    let mut degradation = Degradation::default();
    if let Some((phase, cause)) = cut {
        tracer.event(
            "ppa.cut",
            &[
                ("phase", format!("{phase:?}").into()),
                ("cause", format!("{cause:?}").into()),
                ("buffered_discarded", buffered.len().into()),
            ],
        );
        degradation.push(DegradeEvent::PpaCutoff {
            phase,
            cause,
            presence_unevaluated: s_order.len() - presence_done,
            absence_unevaluated: a_order.len() - absence_done,
            buffered_discarded: buffered.len(),
        });
    }

    stats.first_response = first_response;
    stats.total = started.elapsed();

    run_span.attr("emitted", emitted.len());
    run_span.attr("presence_queries", stats.presence_queries);
    run_span.attr("absence_queries", stats.absence_queries);
    run_span.attr("parameterized_queries", stats.parameterized_queries);
    run_span.attr("degraded", !degradation.is_complete());
    let metrics = engine.metrics();
    metrics.counter("ppa.runs").inc();
    metrics.counter("ppa.presence_queries").add(stats.presence_queries as u64);
    metrics.counter("ppa.absence_queries").add(stats.absence_queries as u64);
    metrics.counter("ppa.parameterized_queries").add(stats.parameterized_queries as u64);
    // Tuple probes answered from materialized preference results.
    metrics.counter("ppa.probe.batch_size").add(probe_batch_tuples);
    metrics.counter("ppa.emitted").add(emitted.len() as u64);
    // Registered unconditionally so a complete run reports `ppa.cuts = 0`
    // rather than omitting the counter from snapshots.
    metrics.counter("ppa.cuts").add(u64::from(!degradation.is_complete()));
    metrics.histogram("ppa.total_us").observe(stats.total);
    if let Some(fr) = first_response {
        metrics.histogram("ppa.first_response_us").observe(fr);
    }

    Ok((PersonalizedAnswer { columns, tuples: emitted }, stats, degradation))
}
