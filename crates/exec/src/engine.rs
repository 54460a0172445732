//! The execution engine: ties parser, planner, and operators together.

use std::sync::Arc;
use std::time::Instant;

use qp_obs::{Counter, LatencyHistogram, MetricsRegistry, Tracer};
use qp_sql::{parse_query, Query};
use qp_storage::{Database, Row};

use crate::analyze::PlanProfile;
use crate::cache::PlanCache;
use crate::error::ExecError;
use crate::functions::FunctionRegistry;
use crate::guard::QueryGuard;
use crate::plan::ExecCtx;
use crate::planner::{CompiledQuery, Planner};
use crate::result::ResultSet;

/// Counters accumulated while planning and executing a query. Benchmarks
/// use these to report *work done* alongside wall-clock time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table rows touched by scans.
    pub rows_scanned: u64,
    /// Index probes performed by index nested-loop joins.
    pub index_probes: u64,
    /// Uncorrelated `IN` sub-queries materialized at plan time.
    pub subqueries: u64,
    /// Rows materialized by operators (scan outputs, join outputs,
    /// aggregation groups) — the quantity a
    /// [`crate::guard::QueryGuard`] intermediate-row budget bounds.
    pub rows_intermediate: u64,
}

impl ExecStats {
    /// Adds another stats record into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
        self.subqueries += other.subqueries;
        self.rows_intermediate += other.rows_intermediate;
    }
}

/// The query engine: a function registry plus entry points for executing
/// SQL text or pre-built ASTs against a [`Database`]. The registry is
/// fixed at construction ([`Engine::with_functions`]), so a query's text
/// names the same functions for the engine's whole life.
///
/// ```
/// use qp_exec::Engine;
/// use qp_storage::{Attribute, DataType, Database, Value};
/// let mut db = Database::new();
/// db.create_relation(
///     "MOVIE",
///     vec![Attribute::new("mid", DataType::Int), Attribute::new("title", DataType::Text)],
///     &["mid"],
/// ).unwrap();
/// db.insert_by_name("MOVIE", vec![Value::Int(1), Value::str("Annie Hall")]).unwrap();
/// let engine = Engine::new();
/// let rs = engine.execute_sql(&db, "select title from MOVIE where mid = 1").unwrap();
/// assert_eq!(rs.rows[0][0], Value::str("Annie Hall"));
/// ```
#[derive(Debug)]
pub struct Engine {
    registry: FunctionRegistry,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    counters: EngineCounters,
    /// Worker threads data-parallel operators may fan out to; 1 = serial.
    parallelism: usize,
    /// Compiled-plan cache; `None` when disabled.
    plan_cache: Option<Arc<PlanCache>>,
}

/// Handles into the engine's [`MetricsRegistry`], fetched once at
/// construction so the per-query path never touches the registry lock.
#[derive(Debug)]
struct EngineCounters {
    /// `exec.queries`: queries executed through the plan-and-run paths.
    queries: Arc<Counter>,
    /// `exec.prepared_execs`: executions of pre-compiled queries (PPA's
    /// preference-query materializations and emission row fetches, and
    /// the maintenance layer's delta re-evaluations).
    prepared_execs: Arc<Counter>,
    /// `exec.rows_scanned`: base-table rows touched, all queries.
    rows_scanned: Arc<Counter>,
    /// `exec.index_probes`: index lookups, all queries.
    index_probes: Arc<Counter>,
    /// `exec.rows_intermediate`: operator-materialized rows, all queries.
    rows_intermediate: Arc<Counter>,
    /// `exec.rows_out`: result rows returned to callers.
    rows_out: Arc<Counter>,
    /// `exec.query_us`: per-query wall-clock latency.
    query_us: Arc<LatencyHistogram>,
    /// `cache.plan.hits`: plan-cache lookups that skipped parse+plan.
    plan_cache_hits: Arc<Counter>,
    /// `cache.plan.misses`: plan-cache lookups that had to compile.
    plan_cache_misses: Arc<Counter>,
    /// `exec.batch.count`: columnar batches produced by the operators.
    batch_count: Arc<Counter>,
    /// `exec.batch.rows`: live rows carried by those batches.
    batch_rows: Arc<Counter>,
    /// `pool.morsel`: morsels dispatched by the work-stealing pool.
    pool_morsels: Arc<Counter>,
    /// `pool.steal`: morsels executed by a worker other than the one
    /// they were dealt to.
    pool_steals: Arc<Counter>,
}

impl EngineCounters {
    fn new(metrics: &MetricsRegistry) -> Self {
        EngineCounters {
            queries: metrics.counter("exec.queries"),
            prepared_execs: metrics.counter("exec.prepared_execs"),
            rows_scanned: metrics.counter("exec.rows_scanned"),
            index_probes: metrics.counter("exec.index_probes"),
            rows_intermediate: metrics.counter("exec.rows_intermediate"),
            rows_out: metrics.counter("exec.rows_out"),
            query_us: metrics.histogram("exec.query_us"),
            plan_cache_hits: metrics.counter("cache.plan.hits"),
            plan_cache_misses: metrics.counter("cache.plan.misses"),
            batch_count: metrics.counter("exec.batch.count"),
            batch_rows: metrics.counter("exec.batch.rows"),
            pool_morsels: metrics.counter("pool.morsel"),
            pool_steals: metrics.counter("pool.steal"),
        }
    }

    /// Folds one query's work counters and result size into the totals.
    fn note(&self, stats: &ExecStats, rows_out: u64, elapsed: std::time::Duration) {
        self.rows_scanned.add(stats.rows_scanned);
        self.index_probes.add(stats.index_probes);
        self.rows_intermediate.add(stats.rows_intermediate);
        self.rows_out.add(rows_out);
        self.query_us.observe(elapsed);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the SQL built-in functions registered and
    /// observability off (a disabled [`Tracer`], an empty
    /// [`MetricsRegistry`]).
    ///
    /// Concurrency defaults come from the environment so test/CI legs can
    /// sweep configurations without code changes: `QP_PARALLELISM` sets
    /// the worker count (default 1 = serial), `QP_DISABLE_PLAN_CACHE=1`
    /// starts the engine without a plan cache.
    pub fn new() -> Self {
        Engine::with_functions(FunctionRegistry::new())
    }

    /// [`Engine::new`] with `functions` as its function set. Register
    /// user-defined functions on the registry before building the engine;
    /// an engine never gains a function afterwards.
    pub fn with_functions(functions: FunctionRegistry) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let counters = EngineCounters::new(&metrics);
        let parallelism = std::env::var("QP_PARALLELISM")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        let plan_cache = if env_flag("QP_DISABLE_PLAN_CACHE") {
            None
        } else {
            Some(Arc::new(PlanCache::new()))
        };
        Engine {
            registry: functions,
            tracer: Tracer::disabled(),
            metrics,
            counters,
            parallelism,
            plan_cache,
        }
    }

    /// Sets the number of worker threads data-parallel operators (hash
    /// join build/probe) and callers that consult
    /// [`Engine::parallelism`] (PPA's preference materializations and
    /// per-round probes) may use. 1 means fully serial; values are
    /// clamped to at least 1.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.parallelism = parallelism.max(1);
    }

    /// The configured worker-thread count (1 = serial).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Enables (with a fresh default-geometry cache) or disables the plan
    /// cache. Disabling drops the cache and its contents.
    pub fn set_plan_cache_enabled(&mut self, enabled: bool) {
        match (enabled, self.plan_cache.is_some()) {
            (true, false) => self.plan_cache = Some(Arc::new(PlanCache::new())),
            (false, true) => self.plan_cache = None,
            _ => {}
        }
    }

    /// The plan cache, when enabled — callers can inspect hit/miss
    /// totals or [`PlanCache::clear`] it.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Installs (or removes) a specific plan cache instance. This is the
    /// non-destructive sibling of [`Engine::set_plan_cache_enabled`]:
    /// callers that disable caching for one run set the warm cache
    /// aside and put the same `Arc` back afterwards.
    pub fn set_plan_cache(&mut self, cache: Option<Arc<PlanCache>>) {
        self.plan_cache = cache;
    }

    /// The engine's functions.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Attaches a tracer: every subsequent query emits an `exec.query`
    /// span (and higher layers that share this engine nest their phase
    /// spans around it). Pass [`Tracer::disabled`] to turn tracing off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The engine's tracer (disabled by default). Cloning it gives
    /// callers a handle that parents their spans around engine work.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The engine's metrics registry. Counters accumulate across the
    /// engine's lifetime; see `OBSERVABILITY.md` for the metric names.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Parses and executes SQL text.
    pub fn execute_sql(&self, db: &Database, sql: &str) -> Result<ResultSet, ExecError> {
        let query = parse_query(sql)?;
        self.execute(db, &query)
    }

    /// Executes a query AST.
    pub fn execute(&self, db: &Database, query: &Query) -> Result<ResultSet, ExecError> {
        self.execute_with_stats(db, query).map(|(rs, _)| rs)
    }

    /// Executes a query AST, returning work counters alongside the result.
    pub fn execute_with_stats(
        &self,
        db: &Database,
        query: &Query,
    ) -> Result<(ResultSet, ExecStats), ExecError> {
        self.execute_with_guard(db, query, &QueryGuard::unlimited())
    }

    /// Executes a query AST under a [`QueryGuard`]: planning (including
    /// `IN` sub-query materialization) and every operator respect the
    /// guard's deadline, budgets, and cancellation token. The result rows
    /// are charged against the guard's output budget.
    pub fn execute_with_guard(
        &self,
        db: &Database,
        query: &Query,
        guard: &QueryGuard,
    ) -> Result<(ResultSet, ExecStats), ExecError> {
        let mut span = self.tracer.span("exec.query");
        let t0 = Instant::now();
        self.counters.queries.inc();
        let (compiled, mut stats) = self.compile_cached(db, query, guard)?;
        let rows = self.run(db, &compiled, &mut stats, guard, None)?;
        guard.charge_output(rows.len() as u64)?;
        self.counters.note(&stats, rows.len() as u64, t0.elapsed());
        span.attr("rows", rows.len());
        span.attr("rows_scanned", stats.rows_scanned);
        Ok((ResultSet::new(compiled.columns.clone(), rows), stats))
    }

    /// Executes a query AST under a [`QueryGuard`] *without* charging the
    /// result rows to the guard's output budget. Internal bookkeeping
    /// statements (PPA's phase and probe queries) use this: their rows
    /// are algorithm state, not user output — the personalization layer
    /// charges the output budget per *emitted* tuple instead.
    pub fn execute_uncharged(
        &self,
        db: &Database,
        query: &Query,
        guard: &QueryGuard,
    ) -> Result<ResultSet, ExecError> {
        let mut span = self.tracer.span("exec.query");
        let t0 = Instant::now();
        self.counters.queries.inc();
        let (compiled, mut stats) = self.compile_cached(db, query, guard)?;
        let rows = self.run(db, &compiled, &mut stats, guard, None)?;
        self.counters.note(&stats, rows.len() as u64, t0.elapsed());
        span.attr("rows", rows.len());
        span.attr("rows_scanned", stats.rows_scanned);
        Ok(ResultSet::new(compiled.columns.clone(), rows))
    }

    /// Compiles a query for repeated execution.
    pub fn prepare(&self, db: &Database, query: &Query) -> Result<CompiledQuery, ExecError> {
        let mut planner = Planner::new(db, &self.registry);
        planner.compile(query)
    }

    /// Compiles through the plan cache, returning a shared handle:
    /// repeated preparation of the same (normalized) query text against
    /// an unchanged database skips parse+plan entirely. Callers that must
    /// mutate the plan ([`CompiledQuery::rebind_rowid_set`]) clone the
    /// `CompiledQuery` out of the `Arc`. Falls back to a plain
    /// [`Engine::prepare`] when the cache is disabled.
    pub fn prepare_cached(
        &self,
        db: &Database,
        query: &Query,
    ) -> Result<Arc<CompiledQuery>, ExecError> {
        self.compile_cached(db, query, &QueryGuard::unlimited()).map(|(c, _)| c)
    }

    /// Cache-aware compilation. On a hit the returned stats are empty
    /// (no plan-time sub-queries ran — that is the point); on a miss the
    /// freshly compiled plan is cached under the database's current
    /// version and the planner's stats are returned.
    fn compile_cached(
        &self,
        db: &Database,
        query: &Query,
        guard: &QueryGuard,
    ) -> Result<(Arc<CompiledQuery>, ExecStats), ExecError> {
        let Some(cache) = &self.plan_cache else {
            let mut planner = Planner::new(db, &self.registry).with_guard(guard.clone());
            let compiled = planner.compile(query)?;
            return Ok((Arc::new(compiled), planner.take_stats()));
        };
        let sql = query.to_string();
        if let Some(hit) = cache.get(db, &sql) {
            self.counters.plan_cache_hits.inc();
            self.tracer.event("cache.plan.hit", &[("sql_len", (sql.len() as u64).into())]);
            return Ok((hit, ExecStats::default()));
        }
        self.counters.plan_cache_misses.inc();
        let mut planner = Planner::new(db, &self.registry).with_guard(guard.clone());
        let compiled = planner.compile(query)?;
        Ok((cache.insert(db, sql, compiled), planner.take_stats()))
    }

    /// Runs a compiled query with this engine's configured parallelism,
    /// recording per-node stats into `profile` when one is attached, and
    /// folds the execution's batch and pool-scheduling counters into the
    /// engine totals.
    fn run(
        &self,
        db: &Database,
        compiled: &CompiledQuery,
        stats: &mut ExecStats,
        guard: &QueryGuard,
        profile: Option<&PlanProfile>,
    ) -> Result<Vec<Row>, ExecError> {
        let mut ctx = ExecCtx::new(stats, guard, self.parallelism);
        ctx.profile = profile;
        let rows = crate::batch::run_compiled_batched_at(db, compiled, &mut ctx, 0)?;
        if ctx.batch_count > 0 {
            self.counters.batch_count.add(ctx.batch_count);
            self.counters.batch_rows.add(ctx.batch_rows);
        }
        self.note_pool(crate::pool::MorselStats {
            morsels: ctx.pool_morsels,
            steals: ctx.pool_steals,
        });
        Ok(rows)
    }

    /// Folds one parallel run's scheduling counters into the
    /// `pool.morsel` / `pool.steal` totals. Higher layers that drive the
    /// pool directly (PPA's preference-query materializations and probe
    /// rounds) report through here; engine-internal operators do so
    /// automatically.
    pub fn note_pool(&self, stats: crate::pool::MorselStats) {
        if stats.morsels > 0 {
            self.counters.pool_morsels.add(stats.morsels);
            self.counters.pool_steals.add(stats.steals);
        }
    }

    /// Compiles a query and renders its physical plan as an indented
    /// tree (an `EXPLAIN`).
    pub fn explain(&self, db: &Database, query: &Query) -> Result<String, ExecError> {
        let compiled = self.prepare(db, query)?;
        Ok(crate::explain::render(db, &compiled))
    }

    /// Executes a previously prepared query.
    pub fn execute_prepared(
        &self,
        db: &Database,
        compiled: &CompiledQuery,
        stats: &mut ExecStats,
    ) -> Result<ResultSet, ExecError> {
        self.counters.prepared_execs.inc();
        let rows = self.run(db, compiled, stats, &QueryGuard::unlimited(), None)?;
        Ok(ResultSet::new(compiled.columns.clone(), rows))
    }

    /// Executes a previously prepared query, returning only the rows —
    /// the allocation-free-of-metadata path repeated executions (PPA's
    /// materializations and emission fetches) use. Deliberately
    /// span-free: the phase span plus the `exec.prepared_execs` counter
    /// carry the signal without flooding the trace.
    pub fn execute_prepared_rows(
        &self,
        db: &Database,
        compiled: &CompiledQuery,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>, ExecError> {
        self.counters.prepared_execs.inc();
        self.run(db, compiled, stats, &QueryGuard::unlimited(), None)
    }

    /// [`Engine::execute_prepared_rows`] under a [`QueryGuard`]. Result
    /// rows are *not* charged to the output budget here: prepared
    /// executions (PPA materializations) produce bookkeeping rows, not
    /// user output.
    pub fn execute_prepared_rows_guarded(
        &self,
        db: &Database,
        compiled: &CompiledQuery,
        stats: &mut ExecStats,
        guard: &QueryGuard,
    ) -> Result<Vec<Row>, ExecError> {
        self.counters.prepared_execs.inc();
        self.run(db, compiled, stats, guard, None)
    }

    /// Executes a query with a per-node [`PlanProfile`] attached,
    /// returning the result, the work counters, and the profile. This is
    /// the programmatic face of [`Engine::explain_analyze`].
    pub fn execute_profiled(
        &self,
        db: &Database,
        query: &Query,
        guard: &QueryGuard,
    ) -> Result<(ResultSet, ExecStats, PlanProfile), ExecError> {
        let (compiled, rows, stats, profile) = self.run_profiled(db, query, guard)?;
        Ok((ResultSet::new(compiled.columns.clone(), rows), stats, profile))
    }

    /// Executes the query, then renders the annotated plan tree: per
    /// node, actual rows out, elapsed time, and observed selectivity next
    /// to the planner's histogram estimate. The query *runs in full* —
    /// like PostgreSQL's `EXPLAIN ANALYZE`, this reports actuals, not
    /// estimates alone.
    pub fn explain_analyze(&self, db: &Database, query: &Query) -> Result<String, ExecError> {
        let (compiled, _rows, _stats, profile) =
            self.run_profiled(db, query, &QueryGuard::unlimited())?;
        Ok(crate::analyze::render_analyzed(db, &compiled, &profile))
    }

    fn run_profiled(
        &self,
        db: &Database,
        query: &Query,
        guard: &QueryGuard,
    ) -> Result<(Arc<CompiledQuery>, Vec<Row>, ExecStats, PlanProfile), ExecError> {
        let mut span = self.tracer.span("exec.query");
        self.counters.queries.inc();
        let (compiled, mut stats) = self.compile_cached(db, query, guard)?;
        let profile = PlanProfile::for_query(&compiled);
        let t0 = Instant::now();
        let rows = self.run(db, &compiled, &mut stats, guard, Some(&profile))?;
        guard.charge_output(rows.len() as u64)?;
        profile.set_result(rows.len() as u64, t0.elapsed());
        self.counters.note(&stats, rows.len() as u64, t0.elapsed());
        span.attr("rows", rows.len());
        span.attr("profiled", true);
        Ok((compiled, rows, stats, profile))
    }
}

/// `true` when the environment variable `name` is set to a truthy value
/// (anything other than empty, `0`, or `false`).
fn env_flag(name: &str) -> bool {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => false,
    }
}
