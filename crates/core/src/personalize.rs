//! The high-level personalization façade.
//!
//! Ties the three phases of query personalization together (§1):
//! *preference selection* (top-K preferences from the profile related to
//! the query), *preference integration* (sub-query construction), and
//! *personalized answer* generation (SPA or PPA, satisfying at least L of
//! the K preferences, ranked by a configurable ranking function).
//!
//! The serving API is **request/response**: describe one run with a
//! [`PersonalizeRequest`] (whose profile is either owned by the caller
//! or named by a [`UserId`] resolved from an attached
//! [`crate::ProfileStore`] — plus per-request options, guard,
//! parallelism, cache toggles and trace opt-in as builder methods), hand
//! it to [`Personalizer::run`], and get a [`PersonalizeOutcome`] back —
//! the ranked answer and degradation report, profile statistics, and the
//! run's cache activity. This is the *only* entry point: the pre-request
//! `personalize_sql` / `personalize` / `personalize_guarded` shims have
//! been removed (each maps to a one-line `PersonalizeRequest` build).
//!
//! A `Personalizer` built with [`Personalizer::shared`] owns an
//! `Arc<Database>` and is `'static`, so multi-user serving can hand each
//! worker thread its own personalizer over one shared database; the
//! borrowing [`Personalizer::new`] constructor stays for single-threaded
//! callers.

use std::ops::Deref;
use std::time::{Duration, Instant};

use std::sync::Arc;

use qp_exec::{Engine, QueryGuard};
use qp_obs::{MetricsRegistry, Tracer};
use qp_sql::{parse_query, Query};
use qp_storage::{Database, SnapshotStore};

use crate::admission::{is_transient, BreakerDecision, BreakerTransition, Resilience};

use crate::answer::maint::MatRegistry;
use crate::answer::ppa::{ppa_run, PpaStats};
use crate::answer::spa::spa_guarded;
use crate::answer::{PersonalizedAnswer, PersonalizedTuple};
use crate::degrade::{DegradeEvent, Degradation};
use crate::error::PrefError;
use crate::graph::PersonalizationGraph;
use crate::profile::Profile;
use crate::ranking::Ranking;
use crate::select::{
    run_algorithm, PreferenceCache, QueryContext, SelectedPreference, SelectionCriterion,
};
use crate::store::{ProfileHandle, ProfileStore, SelKey, UserId};

/// Which preference-selection algorithm to run (§4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionAlgorithm {
    /// FakeCrit (Figure 5) — the default.
    FakeCrit,
    /// The simple algorithm with the worst-case mcsu bound.
    Sps,
    /// §4.2: select until results are guaranteed a minimum doi.
    DoiBased {
        /// Desired minimum doi of results.
        d_r: f64,
        /// Estimated number of related preferences (`None` → profile
        /// size).
        n_estimate: Option<usize>,
    },
}

/// Which answer-generation algorithm to run (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerAlgorithm {
    /// Single-statement query rewriting.
    Spa,
    /// Progressive evaluation with MEDI-driven emission.
    Ppa,
}

/// Personalization parameters: K (via the selection criterion), L, the
/// ranking function, and algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonalizationOptions {
    /// Criterion bounding the selected preferences (K).
    pub criterion: SelectionCriterion,
    /// Minimum number of selected preferences a returned tuple must
    /// satisfy (L ≤ K).
    pub l: usize,
    /// Ranking function for degrees of interest.
    pub ranking: Ranking,
    /// Answer generation algorithm.
    pub algorithm: AnswerAlgorithm,
    /// Preference selection algorithm.
    pub selection: SelectionAlgorithm,
    /// When personalization fails (selection error, SPA under a tripped
    /// guard, an injected fault), execute the *unpersonalized* query
    /// instead of surfacing the error. The substitution is recorded as a
    /// [`DegradeEvent::Fallback`] in the report's
    /// [`PersonalizationReport::degradation`].
    pub fallback_to_original: bool,
}

impl Default for PersonalizationOptions {
    /// `K = 10, L = 2` (the paper's empirical evaluation used `L = 2`),
    /// inflationary/count-weighted ranking, FakeCrit + PPA, no fallback.
    fn default() -> Self {
        PersonalizationOptions {
            criterion: SelectionCriterion::TopK(10),
            l: 2,
            ranking: Ranking::default(),
            algorithm: AnswerAlgorithm::Ppa,
            selection: SelectionAlgorithm::FakeCrit,
            fallback_to_original: false,
        }
    }
}

/// The result of personalizing one query.
#[derive(Debug, Clone)]
pub struct PersonalizationReport {
    /// The ranked (and, for PPA, self-explanatory) answer.
    pub answer: PersonalizedAnswer,
    /// The preferences that were selected and integrated, in criticality
    /// order. [`crate::answer::PersonalizedTuple::satisfied`] indexes into
    /// this list.
    pub selected: Vec<SelectedPreference>,
    /// Time spent in preference selection.
    pub selection_time: Duration,
    /// Time spent generating the answer.
    pub execution_time: Duration,
    /// Time to first emitted tuple (PPA only).
    pub first_response: Option<Duration>,
    /// PPA work counters, when PPA ran.
    pub ppa_stats: Option<PpaStats>,
    /// What was cut or substituted when the run degraded; empty
    /// ([`Degradation::is_complete`]) for an exact answer.
    pub degradation: Degradation,
}

/// The query of a [`PersonalizeRequest`]: SQL text (parsed by the run)
/// or an already-parsed AST.
enum QueryInput<'a> {
    Sql(&'a str),
    Parsed(&'a Query),
}

/// Whose preferences a [`PersonalizeRequest`] personalizes for: a
/// profile the caller owns, or a user resolved from the personalizer's
/// attached [`ProfileStore`]. The two are mutually exclusive by
/// construction — a request is built either from a `&Profile`
/// ([`PersonalizeRequest::sql`] / [`PersonalizeRequest::query`]) or from
/// a [`UserId`] ([`PersonalizeRequest::user`] /
/// [`PersonalizeRequest::user_query`]).
enum ProfileSource<'a> {
    /// A caller-owned (ad-hoc) profile.
    Borrowed(&'a Profile),
    /// A stored profile, looked up in the attached store at run time.
    User(UserId),
}

/// One personalization run, described declaratively: who (a [`Profile`]
/// or a stored [`UserId`]), what (SQL text or parsed query), and how
/// (options, guard, parallelism, cache toggles, tracing). Build with
/// [`PersonalizeRequest::sql`], [`PersonalizeRequest::query`],
/// [`PersonalizeRequest::user`], or [`PersonalizeRequest::user_query`],
/// refine with the builder methods, and execute with
/// [`Personalizer::run`].
///
/// Every knob is optional: an unrefined request runs with the
/// personalizer's current configuration, an unlimited guard, and
/// default [`PersonalizationOptions`]. Overrides apply to **this run
/// only** — `run` restores the personalizer's configuration afterwards
/// (disabling a cache for one request does not cold-start later ones).
pub struct PersonalizeRequest<'a> {
    profile: ProfileSource<'a>,
    query: QueryInput<'a>,
    options: PersonalizationOptions,
    guard: QueryGuard,
    parallelism: Option<usize>,
    plan_cache: Option<bool>,
    preference_cache: Option<bool>,
    trace: Option<Tracer>,
}

impl<'a> PersonalizeRequest<'a> {
    /// A request personalizing a SQL string for `profile`.
    pub fn sql(profile: &'a Profile, sql: &'a str) -> Self {
        PersonalizeRequest {
            profile: ProfileSource::Borrowed(profile),
            query: QueryInput::Sql(sql),
            options: PersonalizationOptions::default(),
            guard: QueryGuard::unlimited(),
            parallelism: None,
            plan_cache: None,
            preference_cache: None,
            trace: None,
        }
    }

    /// A request personalizing an already-parsed query for `profile`.
    pub fn query(profile: &'a Profile, query: &'a Query) -> Self {
        let mut r = PersonalizeRequest::sql(profile, "");
        r.query = QueryInput::Parsed(query);
        r
    }

    /// A request personalizing a SQL string for a **stored** user: the
    /// profile is resolved at run time from the personalizer's attached
    /// [`ProfileStore`] (see [`Personalizer::with_profile_store`]).
    /// Running it without a store is a typed
    /// [`PrefError::NoProfileStore`]; an unregistered user is a typed
    /// [`PrefError::UnknownUser`].
    pub fn user(user: UserId, sql: &'a str) -> Self {
        PersonalizeRequest {
            profile: ProfileSource::User(user),
            query: QueryInput::Sql(sql),
            options: PersonalizationOptions::default(),
            guard: QueryGuard::unlimited(),
            parallelism: None,
            plan_cache: None,
            preference_cache: None,
            trace: None,
        }
    }

    /// A request personalizing an already-parsed query for a stored user
    /// (see [`PersonalizeRequest::user`]).
    pub fn user_query(user: UserId, query: &'a Query) -> Self {
        let mut r = PersonalizeRequest::user(user, "");
        r.query = QueryInput::Parsed(query);
        r
    }

    /// Replaces the whole option block (criterion, L, ranking,
    /// algorithms, fallback).
    pub fn options(mut self, options: PersonalizationOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the selection criterion (K).
    pub fn criterion(mut self, criterion: SelectionCriterion) -> Self {
        self.options.criterion = criterion;
        self
    }

    /// Sets L, the minimum number of selected preferences a returned
    /// tuple must satisfy.
    pub fn l(mut self, l: usize) -> Self {
        self.options.l = l;
        self
    }

    /// Sets the ranking function.
    pub fn ranking(mut self, ranking: Ranking) -> Self {
        self.options.ranking = ranking;
        self
    }

    /// Sets the answer-generation algorithm (SPA or PPA).
    pub fn algorithm(mut self, algorithm: AnswerAlgorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Sets the preference-selection algorithm.
    pub fn selection(mut self, selection: SelectionAlgorithm) -> Self {
        self.options.selection = selection;
        self
    }

    /// Falls back to the unpersonalized query when personalization
    /// fails, recording the substitution in the degradation report.
    pub fn fallback_to_original(mut self, fallback: bool) -> Self {
        self.options.fallback_to_original = fallback;
        self
    }

    /// Binds the run to a [`QueryGuard`] (deadline, row budgets,
    /// cancellation). The default is unlimited.
    pub fn guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Overrides the engine's parallelism for this run (worker threads
    /// for PPA probe rounds and large hash joins; 1 = serial).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Enables or disables the compiled-plan cache for this run.
    /// Disabling does not drop the personalizer's warm cache — it is
    /// set aside and restored after the run.
    pub fn plan_cache(mut self, enabled: bool) -> Self {
        self.plan_cache = Some(enabled);
        self
    }

    /// Enables or disables the preference-selection cache for this run.
    /// Disabling does not drop the warm cache (see
    /// [`PersonalizeRequest::plan_cache`]).
    pub fn preference_cache(mut self, enabled: bool) -> Self {
        self.preference_cache = Some(enabled);
        self
    }

    /// Attaches a tracer for this run only; the personalizer's tracer is
    /// restored afterwards.
    pub fn trace(mut self, tracer: Tracer) -> Self {
        self.trace = Some(tracer);
        self
    }
}

/// Snapshot of the profile a run personalized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStats {
    /// [`Profile::id`] of the profile.
    pub id: u64,
    /// [`Profile::version`] at run time.
    pub version: u64,
    /// Stored atomic preferences in the profile.
    pub preferences: usize,
    /// Preferences selected (and integrated) for this query.
    pub selected: usize,
}

/// Cache hit/miss activity observed during one run (deltas of the plan
/// and preference cache counters, taken before and after). With several
/// threads sharing one cache the deltas may include concurrent runs'
/// lookups — they are serving-side telemetry, not an exact audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheActivity {
    /// Compiled-plan cache hits.
    pub plan_hits: u64,
    /// Compiled-plan cache misses.
    pub plan_misses: u64,
    /// Preference-selection cache hits.
    pub pref_hits: u64,
    /// Preference-selection cache misses.
    pub pref_misses: u64,
}

impl CacheActivity {
    fn delta(&self, before: &CacheActivity) -> CacheActivity {
        CacheActivity {
            plan_hits: self.plan_hits.saturating_sub(before.plan_hits),
            plan_misses: self.plan_misses.saturating_sub(before.plan_misses),
            pref_hits: self.pref_hits.saturating_sub(before.pref_hits),
            pref_misses: self.pref_misses.saturating_sub(before.pref_misses),
        }
    }
}

/// What the resilience layer did to one run (all zeros/false when no
/// [`Resilience`] bundle is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceActivity {
    /// Time spent queued for an admission permit.
    pub queue_wait: Duration,
    /// Transient-error retries performed (0 = first attempt stood).
    pub retries: u32,
    /// The circuit breaker short-circuited this run into the degraded
    /// path (the answer is the unpersonalized query's).
    pub short_circuited: bool,
    /// This run was the half-open probe deciding the breaker's fate.
    pub probe: bool,
}

/// What [`Personalizer::run`] returns: the full phase
/// [`PersonalizationReport`] plus run-level context.
#[derive(Debug, Clone)]
pub struct PersonalizeOutcome {
    /// The phase report: answer, selected preferences, timings, PPA
    /// stats, degradation.
    pub report: PersonalizationReport,
    /// The profile the run personalized for.
    pub profile: ProfileStats,
    /// Cache activity attributable to this run.
    pub cache: CacheActivity,
    /// What the resilience layer (admission, breaker, retry) did.
    pub resilience: ResilienceActivity,
}

impl PersonalizeOutcome {
    /// The ranked personalized answer.
    pub fn answer(&self) -> &PersonalizedAnswer {
        &self.report.answer
    }

    /// What was cut or substituted when the run degraded.
    pub fn degradation(&self) -> &Degradation {
        &self.report.degradation
    }

    /// Whether the answer is exact (nothing was cut or substituted).
    pub fn is_complete(&self) -> bool {
        self.report.degradation.is_complete()
    }
}

/// The database handle a [`Personalizer`] runs against: borrowed (the
/// classic single-threaded construction), shared via `Arc` (so one
/// database serves many personalizers across threads), or a
/// [`SnapshotStore`] (so writers can publish new epochs while requests
/// are in flight).
enum DbRef<'db> {
    Borrowed(&'db Database),
    Shared(Arc<Database>),
    Store(Arc<SnapshotStore>),
}

impl<'db> DbRef<'db> {
    /// Pins the database for one request. Borrowed and shared handles
    /// always resolve to the same database; a store handle pins the
    /// *current* snapshot epoch, so every read of the request sees one
    /// immutable database even while writers publish updates.
    ///
    /// The returned pin's lifetime is the handle's `'db`, not the
    /// `&self` borrow, so [`Personalizer::run`] can keep using `&mut self`
    /// while the pin is alive: it applies a request's overrides
    /// (parallelism, cache switches, tracer) to the engine and the
    /// preference cache, and restores them afterwards.
    fn pin(&self) -> DbPin<'db> {
        match self {
            DbRef::Borrowed(db) => DbPin(PinInner::Borrowed(db)),
            DbRef::Shared(db) => DbPin(PinInner::Pinned(Arc::clone(db))),
            DbRef::Store(store) => DbPin(PinInner::Pinned(store.snapshot())),
        }
    }
}

/// A database pinned for the duration of one request (dereferences to
/// [`Database`]). For a personalizer serving a [`SnapshotStore`] this is
/// one immutable epoch: updates published while the pin is held become
/// visible only to later pins, never mid-request.
pub struct DbPin<'a>(PinInner<'a>);

enum PinInner<'a> {
    Borrowed(&'a Database),
    Pinned(Arc<Database>),
}

impl Deref for DbPin<'_> {
    type Target = Database;

    fn deref(&self) -> &Database {
        match &self.0 {
            PinInner::Borrowed(db) => db,
            PinInner::Pinned(db) => db,
        }
    }
}

/// Truthy when the environment variable is set to anything but
/// `0`/`false` (case-insensitive) or the empty string.
pub(crate) fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false)
}

/// The personalization engine: owns a query engine, built with the
/// functions personalized statements call ([`crate::engine`]), and a
/// database handle — borrowed ([`Personalizer::new`]) or shared
/// ([`Personalizer::shared`]).
pub struct Personalizer<'db> {
    db: DbRef<'db>,
    engine: Engine,
    pref_cache: Option<Arc<PreferenceCache>>,
    resilience: Option<Arc<Resilience>>,
    profiles: Option<Arc<ProfileStore>>,
    mat_registry: Option<Arc<MatRegistry>>,
}

impl<'db> Personalizer<'db> {
    /// Creates a personalizer borrowing a database.
    pub fn new(db: &'db Database) -> Self {
        Personalizer::with_db(DbRef::Borrowed(db))
    }

    fn with_db(db: DbRef<'db>) -> Personalizer<'db> {
        let pref_cache = if env_flag("QP_DISABLE_PREF_CACHE") {
            None
        } else {
            Some(Arc::new(PreferenceCache::new()))
        };
        Personalizer {
            db,
            engine: crate::answer::degree::engine(),
            pref_cache,
            resilience: None,
            profiles: None,
            mat_registry: None,
        }
    }

    /// Attaches a materialization registry (builder-style): subsequent
    /// PPA runs fetch every preference result from it up front and register what they had to build, so
    /// steady-state runs under [`crate::Maintainer`]-published write
    /// traffic replay incrementally maintained results instead of
    /// re-executing preference queries. Share the registry of the
    /// [`crate::Maintainer`] that publishes this personalizer's store.
    pub fn with_maintenance(mut self, registry: Arc<MatRegistry>) -> Self {
        self.mat_registry = Some(registry);
        self
    }

    /// Attaches (or with `None`, detaches) a materialization registry;
    /// see [`Personalizer::with_maintenance`].
    pub fn set_maintenance(&mut self, registry: Option<Arc<MatRegistry>>) {
        self.mat_registry = registry;
    }

    /// Attaches a [`ProfileStore`] (builder-style): subsequent
    /// [`PersonalizeRequest::user`] runs resolve their profile from it,
    /// and selection consults the store's per-user memo before the LRU
    /// preference cache. Share one store across a serving fleet's
    /// personalizers — stored profiles carry durable `(user_id, version)`
    /// cache identity, so every personalizer's caches agree.
    pub fn with_profile_store(mut self, store: Arc<ProfileStore>) -> Self {
        self.profiles = Some(store);
        self
    }

    /// Attaches (or with `None`, detaches) a [`ProfileStore`]; see
    /// [`Personalizer::with_profile_store`].
    pub fn set_profile_store(&mut self, store: Option<Arc<ProfileStore>>) {
        self.profiles = store;
    }

    /// The attached profile store, if any.
    pub fn profile_store(&self) -> Option<&Arc<ProfileStore>> {
        self.profiles.as_ref()
    }

    /// Attaches (or with `None`, detaches) a [`Resilience`] bundle:
    /// subsequent [`Personalizer::run`] calls go through its admission
    /// controller, circuit breaker, and retry policy. Share one bundle
    /// across a serving fleet's personalizers so they shed, trip, and
    /// recover together.
    pub fn set_resilience(&mut self, resilience: Option<Arc<Resilience>>) {
        self.resilience = resilience;
    }

    /// The attached resilience bundle, if any.
    pub fn resilience(&self) -> Option<&Arc<Resilience>> {
        self.resilience.as_ref()
    }

    /// The underlying query engine (e.g. to run non-personalized SQL for
    /// comparison).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Installs a tracer; every phase of subsequent personalization runs
    /// (selection, SPA/PPA, engine-level query execution) emits spans and
    /// events to its [`qp_obs::Recorder`]. The default is a disabled
    /// tracer, which costs one branch per would-be span.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer);
    }

    /// The tracer spans are reported to (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.engine.tracer()
    }

    /// The metrics registry accumulating counters and latency histograms
    /// across every run through this personalizer (shared with the
    /// underlying engine).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.engine.metrics().clone()
    }

    /// Pins and returns the database — for a serving personalizer built
    /// with [`Personalizer::serving`], the current snapshot epoch.
    pub fn db(&self) -> DbPin<'db> {
        self.db.pin()
    }

    /// Worker threads available to PPA probe rounds and large hash
    /// joins (1 = serial; the `QP_PARALLELISM` default).
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.engine.set_parallelism(parallelism);
    }

    /// Enables or disables the engine's plan cache (the
    /// [`Engine::set_plan_cache_enabled`] passthrough, so callers can
    /// override the `QP_DISABLE_PLAN_CACHE` default without reaching
    /// into the engine). Disabling drops cached plans;
    /// [`PersonalizeRequest::plan_cache`] is the non-destructive
    /// per-run override.
    pub fn set_plan_cache_enabled(&mut self, enabled: bool) {
        self.engine.set_plan_cache_enabled(enabled);
    }

    /// Enables or disables the preference-selection cache. Disabling
    /// drops cached selections; [`PersonalizeRequest::preference_cache`]
    /// is the non-destructive per-run override.
    pub fn set_preference_cache_enabled(&mut self, enabled: bool) {
        match (enabled, self.pref_cache.is_some()) {
            (true, false) => self.pref_cache = Some(Arc::new(PreferenceCache::new())),
            (false, true) => self.pref_cache = None,
            _ => {}
        }
    }

    /// The preference-selection cache, when enabled.
    pub fn preference_cache(&self) -> Option<&Arc<PreferenceCache>> {
        self.pref_cache.as_ref()
    }

    /// Eagerly drops every cached selection for one profile (by
    /// [`Profile::id`]). Version-keyed lookups already never serve stale
    /// selections after a mutation; this reclaims the memory at once.
    pub fn invalidate_profile(&self, profile_id: u64) {
        if let Some(cache) = &self.pref_cache {
            cache.invalidate_profile(profile_id);
        }
    }

    /// `EXPLAIN ANALYZE` for an arbitrary query against the personalizer's
    /// database: executes it with per-operator profiling and renders the
    /// annotated plan (rows, elapsed time, observed vs. estimated
    /// selectivity). Useful for inspecting how a personalized rewriting
    /// actually ran.
    pub fn explain_analyze(&self, query: &Query) -> Result<String, PrefError> {
        let db = self.db.pin();
        Ok(self.engine.explain_analyze(&db, query)?)
    }

    /// Executes one [`PersonalizeRequest`]: consults the attached
    /// [`Resilience`] bundle (admission, breaker preflight), applies the
    /// request's per-run overrides (parallelism, cache toggles, tracer),
    /// runs the three personalization phases under its guard — retrying
    /// transient faults per the retry policy — restores the
    /// personalizer's configuration, records the outcome with the
    /// breaker, and wraps the report in a [`PersonalizeOutcome`].
    ///
    /// Resilience interventions are visible, never silent: a shed
    /// request is a typed [`PrefError::Overloaded`], a short-circuited
    /// one carries a `"breaker"` [`DegradeEvent::Fallback`] in its
    /// degradation report, and every intervention is counted in
    /// [`PersonalizeOutcome::resilience`].
    pub fn run(&mut self, request: PersonalizeRequest<'_>) -> Result<PersonalizeOutcome, PrefError> {
        let resilience = self.resilience.clone();
        let mut activity = ResilienceActivity::default();

        // Admission first: a shed request costs nothing downstream — not
        // even the SQL parse.
        let _permit = match resilience.as_deref().and_then(|r| r.admission.as_ref()) {
            Some(admission) => match admission.try_acquire() {
                Ok(permit) => {
                    activity.queue_wait = permit.waited;
                    let metrics = self.engine.metrics();
                    metrics.counter("admission.admitted").inc();
                    metrics.histogram("admission.queue_wait_us").observe(permit.waited);
                    Some(permit)
                }
                Err(shed) => {
                    let waited_ms = shed.waited.as_millis() as u64;
                    self.engine.metrics().counter("admission.shed").inc();
                    self.engine.tracer().event(
                        "admission.shed",
                        &[("in_flight", shed.in_flight.into()), ("waited_ms", waited_ms.into())],
                    );
                    return Err(PrefError::Overloaded { in_flight: shed.in_flight, waited_ms });
                }
            },
            None => None,
        };

        // Breaker preflight: full pipeline, half-open probe, or the
        // degraded short-circuit path.
        let mut probe = false;
        let mut short_circuit = false;
        if let Some(breaker) = resilience.as_deref().and_then(|r| r.breaker.as_ref()) {
            let (decision, transition) = breaker.preflight();
            self.note_breaker(transition);
            match decision {
                BreakerDecision::Allow => {}
                BreakerDecision::Probe => probe = true,
                BreakerDecision::ShortCircuit => short_circuit = true,
            }
        }
        activity.probe = probe;
        activity.short_circuited = short_circuit;

        let PersonalizeRequest {
            profile,
            query,
            options,
            guard,
            parallelism,
            plan_cache,
            preference_cache,
            trace,
        } = request;
        let parsed;
        let query: &Query = match query {
            QueryInput::Sql(sql) => {
                parsed = parse_query(sql)?;
                &parsed
            }
            QueryInput::Parsed(q) => q,
        };

        // Resolve the profile source. A stored user costs one shard
        // lookup; the decode is amortized across every request (and every
        // connection) touching the user since its last re-registration.
        let resolved: Arc<Profile>;
        let (profile, handle): (&Profile, Option<ProfileHandle>) = match profile {
            ProfileSource::Borrowed(p) => (p, None),
            ProfileSource::User(user) => {
                let store = self.profiles.as_ref().ok_or(PrefError::NoProfileStore)?;
                let handle =
                    store.get(user).ok_or(PrefError::UnknownUser { user: user.0 })?;
                resolved = handle.profile()?;
                (&resolved, Some(handle))
            }
        };

        // Apply per-run overrides, remembering what they replaced. The
        // cache objects themselves are set aside (not dropped), so a
        // disabled-for-one-run cache keeps its warm entries.
        let saved_parallelism = parallelism.map(|p| {
            let prev = self.engine.parallelism();
            self.engine.set_parallelism(p);
            prev
        });
        let saved_plan_cache = plan_cache.map(|enabled| {
            let prev = self.engine.plan_cache().cloned();
            match (enabled, prev.is_some()) {
                (true, false) => self.engine.set_plan_cache_enabled(true),
                (false, true) => self.engine.set_plan_cache(None),
                _ => {}
            }
            prev
        });
        let saved_pref_cache = preference_cache.map(|enabled| {
            let prev = self.pref_cache.take();
            self.pref_cache = match (enabled, prev.clone()) {
                (true, Some(cache)) => Some(cache),
                (true, None) => Some(Arc::new(PreferenceCache::new())),
                (false, _) => None,
            };
            prev
        });
        let saved_tracer = trace.map(|t| {
            let prev = self.engine.tracer().clone();
            self.engine.set_tracer(t);
            prev
        });

        // Pin one database epoch for the whole request: selection, answer
        // generation, retries, and the degraded path all read the same
        // immutable database even if a writer publishes mid-run.
        let db = self.db.pin();
        let before = self.cache_counters();
        let result = if short_circuit {
            self.breaker_short_circuit(&db, query, &guard)
        } else {
            match resilience.as_deref().and_then(|r| r.retry.as_ref()) {
                Some(retry) => {
                    let (result, retries) = retry.run(is_transient, |attempt| {
                        if attempt > 0 {
                            self.engine.metrics().counter("retry.attempts").inc();
                            self.engine
                                .tracer()
                                .event("retry.attempt", &[("attempt", u64::from(attempt).into())]);
                        }
                        self.personalize_inner(&db, profile, query, &options, &guard, handle.as_ref())
                    });
                    activity.retries = retries;
                    result
                }
                None => {
                    self.personalize_inner(&db, profile, query, &options, &guard, handle.as_ref())
                }
            }
        };
        let after = self.cache_counters();

        // Restore the personalizer's own configuration on every path.
        if let Some(p) = saved_parallelism {
            self.engine.set_parallelism(p);
        }
        if let Some(prev) = saved_plan_cache {
            self.engine.set_plan_cache(prev);
        }
        if let Some(prev) = saved_pref_cache {
            self.pref_cache = prev;
        }
        if let Some(t) = saved_tracer {
            self.engine.set_tracer(t);
        }

        // Feed the breaker. Short-circuited runs never exercised the
        // pipeline, so their outcome says nothing about its health.
        if !short_circuit {
            if let Some(breaker) = resilience.as_deref().and_then(|r| r.breaker.as_ref()) {
                let failed = match &result {
                    Err(_) => true,
                    Ok(report) => report.degradation.has_fault_signal(),
                };
                self.note_breaker(breaker.record(failed, probe));
            }
        }

        let report = result?;
        Ok(PersonalizeOutcome {
            profile: ProfileStats {
                id: profile.id(),
                version: profile.version(),
                preferences: profile.len(),
                selected: report.selected.len(),
            },
            cache: after.delta(&before),
            resilience: activity,
            report,
        })
    }

    /// Emits the event + counter for a breaker state change.
    fn note_breaker(&self, transition: Option<BreakerTransition>) {
        let Some(t) = transition else { return };
        let (event, counter, state) = match t {
            BreakerTransition::Opened => ("breaker.open", "breaker.opened", "open"),
            BreakerTransition::HalfOpened => {
                ("breaker.half_open", "breaker.half_opened", "half-open")
            }
            BreakerTransition::Closed => ("breaker.close", "breaker.closed", "closed"),
        };
        self.engine.tracer().event(event, &[("state", state.into())]);
        self.engine.metrics().counter(counter).inc();
    }

    /// The open-breaker path: serve the unpersonalized query and report
    /// the substitution as a `"breaker"` fallback degradation.
    fn breaker_short_circuit(
        &self,
        db: &Database,
        query: &Query,
        guard: &QueryGuard,
    ) -> Result<PersonalizationReport, PrefError> {
        let t = Instant::now();
        self.engine.tracer().event("breaker.short_circuit", &[]);
        self.engine.metrics().counter("breaker.short_circuited").inc();
        let answer = self.plain_answer(db, query, guard)?;
        let mut degradation = Degradation::default();
        degradation.push(DegradeEvent::Fallback {
            stage: "breaker".to_string(),
            error: "circuit breaker open".to_string(),
        });
        Ok(PersonalizationReport {
            answer,
            selected: vec![],
            selection_time: Duration::ZERO,
            execution_time: t.elapsed(),
            first_response: None,
            ppa_stats: None,
            degradation,
        })
    }

    /// Current cumulative cache counters (zeros for disabled caches).
    fn cache_counters(&self) -> CacheActivity {
        let (plan_hits, plan_misses) =
            self.engine.plan_cache().map_or((0, 0), |c| (c.hits(), c.misses()));
        let (pref_hits, pref_misses) =
            self.pref_cache.as_ref().map_or((0, 0), |c| (c.hits(), c.misses()));
        CacheActivity { plan_hits, plan_misses, pref_hits, pref_misses }
    }

    /// Runs only the preference-selection phase. Consults the
    /// preference-selection cache when enabled: a hit skips the graph
    /// walk entirely (`cache.pref.hits` / `cache.pref.misses` count the
    /// traffic, a `cache.pref.hit` event marks hits on traces).
    pub fn select_preferences(
        &self,
        profile: &Profile,
        query: &Query,
        options: &PersonalizationOptions,
    ) -> Result<Vec<SelectedPreference>, PrefError> {
        let db = self.db.pin();
        self.select_preferences_at(&db, profile, query, options, None)
    }

    /// Preference selection for a **stored** user: resolves the profile
    /// from the attached [`ProfileStore`] and consults the user's
    /// selection memo first — a repeat query context (or one precomputed
    /// by [`ProfileStore::precompute`]) resolves without touching the
    /// graph.
    pub fn select_preferences_for_user(
        &self,
        user: UserId,
        query: &Query,
        options: &PersonalizationOptions,
    ) -> Result<Vec<SelectedPreference>, PrefError> {
        let store = self.profiles.as_ref().ok_or(PrefError::NoProfileStore)?;
        let handle = store.get(user).ok_or(PrefError::UnknownUser { user: user.0 })?;
        let profile = handle.profile()?;
        let db = self.db.pin();
        self.select_preferences_at(&db, &profile, query, options, Some(&handle))
    }

    /// Selection against an already-pinned database epoch (so one
    /// request's phases all see the same snapshot).
    ///
    /// Lookup order for a stored profile: the store's per-user selection
    /// memo (keyed by query *context*, shared across connections and
    /// filled by [`ProfileStore::precompute`]), then the LRU preference
    /// cache (keyed by query text), then the graph walk — whose result
    /// feeds both caches.
    fn select_preferences_at(
        &self,
        db: &Database,
        profile: &Profile,
        query: &Query,
        options: &PersonalizationOptions,
        handle: Option<&ProfileHandle>,
    ) -> Result<Vec<SelectedPreference>, PrefError> {
        // The store memo keys on the query context, so compute it once up
        // front when a stored profile is in play. A query the context
        // derivation rejects falls through to the ordinary path (and will
        // fail there with a proper error if selection really needs it).
        let store_key = handle.and_then(|h| {
            let qc = QueryContext::from_query(db.catalog(), query).ok()?;
            Some((h, SelKey::new(&qc, options)))
        });
        if let Some((h, key)) = &store_key {
            if let Some(hit) = h.cached_selection(key) {
                self.engine
                    .tracer()
                    .event("profiles.select.hit", &[("selected", hit.len().into())]);
                return Ok((*hit).clone());
            }
        }
        if let Some(cache) = &self.pref_cache {
            if let Some(hit) = cache.get(profile, query, options) {
                self.engine.metrics().counter("cache.pref.hits").inc();
                self.engine
                    .tracer()
                    .event("cache.pref.hit", &[("selected", hit.len().into())]);
                if let Some((h, key)) = store_key {
                    h.cache_selection(key, (*hit).clone());
                }
                return Ok((*hit).clone());
            }
            self.engine.metrics().counter("cache.pref.misses").inc();
        }
        let result = self.compute_selection(db, profile, query, options);
        if let Ok(selected) = &result {
            if let Some(cache) = &self.pref_cache {
                cache.insert(profile, query, options, selected.clone());
            }
            if let Some((h, key)) = store_key {
                h.cache_selection(key, selected.clone());
            }
        }
        result
    }

    /// The uncached selection phase: graph construction plus the chosen
    /// selection algorithm.
    fn compute_selection(
        &self,
        db: &Database,
        profile: &Profile,
        query: &Query,
        options: &PersonalizationOptions,
    ) -> Result<Vec<SelectedPreference>, PrefError> {
        let started = Instant::now();
        let tracer = self.engine.tracer().clone();
        let mut span = tracer.span("selection");
        let algorithm = match options.selection {
            SelectionAlgorithm::FakeCrit => "fakecrit",
            SelectionAlgorithm::Sps => "sps",
            SelectionAlgorithm::DoiBased { .. } => "doi_based",
        };
        span.attr("algorithm", algorithm);

        let mut graph_span = tracer.span("selection.graph");
        let graph = PersonalizationGraph::build(profile);
        graph_span.attr("preferences", profile.len());
        graph_span.finish();

        let qc = QueryContext::from_query(db.catalog(), query)?;
        let crit_span = tracer.span("selection.criterion");
        let result = run_algorithm(&graph, &qc, options);
        crit_span.finish();

        if let Ok(selected) = &result {
            span.attr("selected", selected.len());
            let metrics = self.engine.metrics();
            metrics.counter("selection.runs").inc();
            metrics.counter("selection.selected").add(selected.len() as u64);
            metrics.histogram("selection.total_us").observe(started.elapsed());
        }
        result
    }

    /// The three phases under a [`QueryGuard`].
    ///
    /// PPA degrades on its own — a guard trip mid-run yields a partial
    /// ranked answer with the cut described in
    /// [`PersonalizationReport::degradation`]. SPA and preference
    /// selection cannot return partial results; when they fail and
    /// [`PersonalizationOptions::fallback_to_original`] is set, the
    /// *unpersonalized* query is executed instead (under a fresh budget
    /// attempt — the deadline and cancellation token keep binding) and the
    /// substitution is reported as a [`DegradeEvent::Fallback`].
    fn personalize_inner(
        &self,
        db: &Database,
        profile: &Profile,
        query: &Query,
        options: &PersonalizationOptions,
        guard: &QueryGuard,
        handle: Option<&ProfileHandle>,
    ) -> Result<PersonalizationReport, PrefError> {
        let t0 = Instant::now();
        let tracer = self.engine.tracer().clone();
        let mut root_span = tracer.span("personalize");
        root_span.attr(
            "algorithm",
            match options.algorithm {
                AnswerAlgorithm::Spa => "spa",
                AnswerAlgorithm::Ppa => "ppa",
            },
        );
        root_span.attr("l", options.l);

        let selected = match self.select_preferences_at(db, profile, query, options, handle) {
            Ok(s) => s,
            Err(e) if options.fallback_to_original => {
                return self.fallback(db, query, vec![], t0.elapsed(), "selection", &e, guard);
            }
            Err(e) => return Err(e),
        };
        let selection_time = t0.elapsed();
        root_span.attr("selected", selected.len());

        if selected.is_empty() {
            // nothing related to this query: the answer is the plain query
            let answer = self.plain_answer(db, query, guard)?;
            return Ok(PersonalizationReport {
                answer,
                selected,
                selection_time,
                execution_time: t0.elapsed() - selection_time,
                first_response: None,
                ppa_stats: None,
                degradation: Degradation::default(),
            });
        }

        let l = options.l.min(selected.len()).max(1);
        let t1 = Instant::now();
        let outcome = match options.algorithm {
            AnswerAlgorithm::Spa => spa_guarded(
                db,
                &self.engine,
                query,
                profile,
                &selected,
                l,
                &options.ranking,
                guard,
            )
            .map(|a| (a, None, None, Degradation::default())),
            AnswerAlgorithm::Ppa => ppa_run(
                db,
                &self.engine,
                query,
                profile,
                &selected,
                l,
                &options.ranking,
                None,
                guard,
                self.mat_registry.as_deref(),
            )
            .map(|(a, st, deg)| (a, st.first_response, Some(st), deg)),
        };
        match outcome {
            Ok((answer, first_response, ppa_stats, degradation)) => {
                root_span.attr("rows", answer.tuples.len());
                root_span.attr("degraded", !degradation.is_complete());
                Ok(PersonalizationReport {
                    answer,
                    selected,
                    selection_time,
                    execution_time: t1.elapsed(),
                    first_response,
                    ppa_stats,
                    degradation,
                })
            }
            Err(e) if options.fallback_to_original => {
                let stage = match options.algorithm {
                    AnswerAlgorithm::Spa => "spa",
                    AnswerAlgorithm::Ppa => "ppa",
                };
                self.fallback(db, query, selected, selection_time, stage, &e, guard)
            }
            Err(e) => Err(e),
        }
    }

    /// Executes the unpersonalized query in place of a failed
    /// personalization, reporting the substitution.
    #[allow(clippy::too_many_arguments)]
    fn fallback(
        &self,
        db: &Database,
        query: &Query,
        selected: Vec<SelectedPreference>,
        selection_time: Duration,
        stage: &str,
        error: &PrefError,
        guard: &QueryGuard,
    ) -> Result<PersonalizationReport, PrefError> {
        let t = Instant::now();
        self.engine.tracer().event(
            "personalize.fallback",
            &[("stage", stage.into()), ("error", error.to_string().into())],
        );
        self.engine.metrics().counter("personalize.fallbacks").inc();
        // Row budgets restart for the retry; an expired deadline or a
        // flipped cancellation token still fails it — there is no answer
        // left to degrade to.
        let answer = self.plain_answer(db, query, &guard.fresh_attempt())?;
        let mut degradation = Degradation::default();
        degradation.push(DegradeEvent::Fallback {
            stage: stage.to_string(),
            error: error.to_string(),
        });
        Ok(PersonalizationReport {
            answer,
            selected,
            selection_time,
            execution_time: t.elapsed(),
            first_response: None,
            ppa_stats: None,
            degradation,
        })
    }

    /// The unpersonalized query's rows as a doi-0 answer.
    fn plain_answer(
        &self,
        db: &Database,
        query: &Query,
        guard: &QueryGuard,
    ) -> Result<PersonalizedAnswer, PrefError> {
        let (rs, _stats) = self.engine.execute_with_guard(db, query, guard)?;
        Ok(PersonalizedAnswer {
            columns: rs.columns,
            tuples: rs
                .rows
                .into_iter()
                .map(|row| PersonalizedTuple {
                    tuple_id: None,
                    row,
                    doi: 0.0,
                    satisfied: vec![],
                    failed: vec![],
                })
                .collect(),
        })
    }
}

impl Personalizer<'static> {
    /// Creates a personalizer sharing ownership of a database: the
    /// resulting personalizer is `'static`, so multi-user serving can
    /// move one per worker thread over a single shared database.
    pub fn shared(db: Arc<Database>) -> Personalizer<'static> {
        Personalizer::with_db(DbRef::Shared(db))
    }

    /// Creates a personalizer serving a [`SnapshotStore`]: every run
    /// pins the store's *current* epoch for its whole duration, so
    /// profile updates and data loads published through the store while
    /// the request is in flight are never observed mid-request — and the
    /// `(db id, version)`-keyed plan and preference caches invalidate
    /// naturally when a new epoch lands.
    pub fn serving(store: Arc<SnapshotStore>) -> Personalizer<'static> {
        Personalizer::with_db(DbRef::Store(store))
    }
}
