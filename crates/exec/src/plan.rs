//! Physical plan nodes, the execution context threaded through them, and
//! the grouping/aggregation spec. The operators themselves are executed
//! by the vectorized engine in [`crate::batch`].
//!
//! Row layout convention: every base-table scan emits rows of the shape
//! `[rowid, col_0, …, col_{n-1}]`; joins concatenate the rows of their
//! inputs. The planner records each binding's offset into this flat layout
//! and compiles all expressions against it.

use std::collections::HashMap;

use qp_storage::{AttrId, RelId, Row, Value};

use crate::engine::ExecStats;
use crate::error::ExecError;
use crate::expr::PhysExpr;
use crate::functions::AggregateFunction;
use crate::guard::QueryGuard;
use std::sync::Arc;

/// Maps an armed failpoint at `site` onto [`ExecError::Fault`]. Compiles
/// to nothing without the `failpoints` feature.
#[inline]
pub(crate) fn fail_point(site: &str) -> Result<(), ExecError> {
    qp_storage::failpoint::check(site).map_err(ExecError::Fault)
}

/// Row-id fetch attached to a scan — the short-circuit path for
/// `binding.rowid = k` predicates.
#[derive(Debug, Clone)]
pub enum RowIdFetch {
    /// Fetch a single row by id (a `binding.rowid = k` predicate).
    One(u64),
    /// Fetch every listed row id in list order, skipping missing ids —
    /// a tuple-id IN-set bound by [`crate::planner::CompiledQuery::rebind_rowid_set`]:
    /// one execution fetches PPA's whole emission burst, or re-evaluates
    /// a maintained preference for a delta's candidate tuples.
    Set(Arc<Vec<u64>>),
}

/// One aggregate call inside an [`AggSpec`].
#[derive(Clone)]
pub struct AggCall {
    /// Resolved aggregate implementation.
    pub func: Arc<dyn AggregateFunction>,
    /// Compiled argument expressions over the aggregate input row
    /// (empty for `count(*)`).
    pub args: Vec<PhysExpr>,
}

impl std::fmt::Debug for AggCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AggCall(args={:?})", self.args)
    }
}

/// Planner-time cardinality estimate attached to a scan, kept on the plan
/// so `EXPLAIN ANALYZE` can print estimated vs. observed selectivity —
/// the feedback loop PPA's subquery ordering is judged by.
#[derive(Debug, Clone, Copy)]
pub struct ScanEstimate {
    /// Estimated output rows (table cardinality × selectivity).
    pub rows: f64,
    /// Estimated fraction of the table surviving the pushed predicates.
    pub selectivity: f64,
}

/// Execution context threaded through the operator tree: statistics,
/// the resource guard, and (when profiling) the per-node stats sink.
pub(crate) struct ExecCtx<'a> {
    /// Work counters, accumulated across the whole query.
    pub stats: &'a mut ExecStats,
    /// Resource guard polled per materialized row.
    pub guard: &'a QueryGuard,
    /// Per-node profile, present only under `EXPLAIN ANALYZE` /
    /// [`Engine::execute_profiled`](crate::Engine::execute_profiled).
    pub profile: Option<&'a crate::analyze::PlanProfile>,
    /// Worker threads data-parallel operators may fan out to (1 = serial).
    /// Flows into derived sub-queries; guard budgets stay global because
    /// workers share the guard's atomics.
    pub parallelism: usize,
    /// Batches produced by this execution. Folded into the engine's
    /// `exec.batch.count` counter; kept out of [`ExecStats`] because
    /// batch boundaries legitimately differ between serial and parallel
    /// runs of the same query.
    pub batch_count: u64,
    /// Live rows carried by those batches (`exec.batch.rows`).
    pub batch_rows: u64,
    /// Morsels dispatched by the work-stealing pool during this
    /// execution (`pool.morsel`). Like the batch counts, scheduling
    /// counters live here rather than in [`ExecStats`] because they
    /// legitimately differ between serial and parallel runs.
    pub pool_morsels: u64,
    /// Morsels executed by a worker other than the one they were dealt
    /// to (`pool.steal`).
    pub pool_steals: u64,
}

impl<'a> ExecCtx<'a> {
    /// A context with zeroed batch and pool counters and no profile.
    pub(crate) fn new(stats: &'a mut ExecStats, guard: &'a QueryGuard, parallelism: usize) -> Self {
        ExecCtx {
            stats,
            guard,
            profile: None,
            parallelism,
            batch_count: 0,
            batch_rows: 0,
            pool_morsels: 0,
            pool_steals: 0,
        }
    }

    /// Folds one parallel run's scheduling counters into the context.
    pub(crate) fn note_pool(&mut self, stats: crate::pool::MorselStats) {
        self.pool_morsels += stats.morsels;
        self.pool_steals += stats.steals;
    }
}

/// A physical plan node producing a batch of rows.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Scans a base relation, emitting `[rowid, cols…]` rows.
    Scan {
        /// Relation scanned.
        rel: RelId,
        /// O(1) row fetch(es) for `binding.rowid = k` predicates (the PPA
        /// parameterized-query fast path); see [`RowIdFetch`].
        fetch_rowid: Option<RowIdFetch>,
        /// Point lookup via the persistent hash index for a selective
        /// `attr = literal` predicate: only the matching rows are fetched
        /// instead of iterating the whole table. The predicate also stays
        /// in `filter`, so the residual check keeps scan semantics exact.
        index_eq: Option<(AttrId, Value)>,
        /// Pushed-down single-table predicate (over `[rowid, cols…]`).
        filter: Option<PhysExpr>,
        /// Planner-time cardinality estimate (None for synthesized scans).
        est: Option<ScanEstimate>,
    },
    /// A single empty row — the input of a `FROM`-less select.
    Values,
    /// Filters input rows.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate over the input row.
        predicate: PhysExpr,
    },
    /// Builds a hash table over `right` rows keyed by `right_key`, probes
    /// with `left_key`; emits `left ⧺ right` rows.
    HashJoin {
        /// Probe side.
        left: Box<Plan>,
        /// Build side.
        right: Box<Plan>,
        /// Key over a left row.
        left_key: PhysExpr,
        /// Key over a right row.
        right_key: PhysExpr,
    },
    /// Index nested-loop join: for each left row, probes the persistent
    /// hash index of `right_attr` and fetches matching base rows; emits
    /// `left ⧺ [rowid, cols…]` rows, then applies `residual` (compiled over
    /// the concatenated row) if present.
    IndexJoin {
        /// Outer input.
        left: Box<Plan>,
        /// Key over a left row.
        left_key: PhysExpr,
        /// Indexed attribute of the inner relation.
        right_attr: AttrId,
        /// Residual predicate over the concatenated row (e.g. the inner
        /// relation's pushed single-table conditions).
        residual: Option<PhysExpr>,
    },
    /// Cross product with optional predicate (fallback join).
    NestedLoop {
        /// Outer input.
        left: Box<Plan>,
        /// Inner input (materialized once).
        right: Box<Plan>,
        /// Predicate over the concatenated row.
        predicate: Option<PhysExpr>,
    },
    /// Concatenation of same-arity inputs.
    UnionAll {
        /// Input plans.
        inputs: Vec<Plan>,
    },
    /// A derived table: a fully compiled sub-query executed inline.
    Derived {
        /// The compiled sub-query.
        query: Box<crate::planner::CompiledQuery>,
    },
}

impl Plan {
    /// Number of plan nodes in this subtree (this node included), with
    /// derived sub-queries counted through. Node ids used by
    /// [`crate::analyze::PlanProfile`] are pre-order positions derived
    /// from these counts, so they depend only on plan *shape*, never on
    /// execution order (a hash join runs its build side first but its
    /// probe side still gets the lower id).
    pub fn node_count(&self) -> usize {
        match self {
            Plan::Scan { .. } | Plan::Values => 1,
            Plan::Filter { input, .. } => 1 + input.node_count(),
            Plan::HashJoin { left, right, .. } | Plan::NestedLoop { left, right, .. } => {
                1 + left.node_count() + right.node_count()
            }
            Plan::IndexJoin { left, .. } => 1 + left.node_count(),
            Plan::UnionAll { inputs } => {
                1 + inputs.iter().map(Plan::node_count).sum::<usize>()
            }
            Plan::Derived { query } => 1 + query.plan_node_count(),
        }
    }
}

/// Charges one operator-output row against the guard and mirrors the
/// count into the stats record.
#[inline]
pub(crate) fn charge(ctx: &mut ExecCtx<'_>, n: u64) -> Result<(), ExecError> {
    ctx.stats.rows_intermediate += n;
    ctx.guard.charge_intermediate(n)
}

/// Grouping/aggregation spec applied to a plan's output.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Group-key expressions over the input row.
    pub group: Vec<PhysExpr>,
    /// Aggregate calls; outputs are appended after the group keys in the
    /// intermediate row `[group…, agg…]`.
    pub aggs: Vec<AggCall>,
}

impl AggSpec {
    /// Runs the aggregation, producing intermediate rows `[group…, agg…]`.
    /// With no group keys the entire input forms one group (even when
    /// empty, matching SQL's scalar-aggregate semantics).
    pub fn run(&self, input: Vec<Row>) -> Vec<Row> {
        let mut groups: Vec<(Row, Vec<Box<dyn crate::functions::AggState>>)> = Vec::new();
        let mut lookup: HashMap<Row, usize> = HashMap::new();
        if self.group.is_empty() {
            groups.push((vec![], self.aggs.iter().map(|a| a.func.new_state()).collect()));
        }
        for row in &input {
            let key: Row = self.group.iter().map(|g| g.eval(row)).collect();
            let idx = if self.group.is_empty() {
                0
            } else {
                match lookup.get(&key) {
                    Some(i) => *i,
                    None => {
                        let i = groups.len();
                        groups.push((
                            key.clone(),
                            self.aggs.iter().map(|a| a.func.new_state()).collect(),
                        ));
                        lookup.insert(key, i);
                        i
                    }
                }
            };
            for (call, state) in self.aggs.iter().zip(groups[idx].1.iter_mut()) {
                let args: Vec<Value> = call.args.iter().map(|a| a.eval(row)).collect();
                state.update(&args);
            }
        }
        groups
            .into_iter()
            .map(|(mut key, mut states)| {
                key.extend(states.iter_mut().map(|s| s.finish()));
                key
            })
            .collect()
    }
}
