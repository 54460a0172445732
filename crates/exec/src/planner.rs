//! AST → physical plan compilation.
//!
//! The planner resolves names against the catalog, pushes single-table
//! predicates into scans, picks a join order greedily by
//! histogram-estimated cardinalities (smallest estimated input first,
//! then connected tables via their join predicates), chooses index
//! nested-loop joins for base relations and hash joins for derived tables,
//! and compiles grouping, `HAVING`, projection, `ORDER BY` and `LIMIT`.
//!
//! The `rowid` pseudo-column of a base-table binding resolves to the hidden
//! first slot of the scan row; a `binding.rowid = <int>` predicate turns
//! the scan into an O(1) fetch, which [`CompiledQuery::rebind_rowid_set`]
//! widens to a tuple-id set (PPA's emission fetches, the maintenance
//! layer's candidate re-evaluations).

use std::collections::HashSet;
use std::sync::Arc;

use qp_sql::{BinaryOp, Expr, Literal, OrderByItem, Query, Select, SelectItem, TableRef};
use qp_storage::{Database, RelId, Value};

use crate::engine::ExecStats;
use crate::error::ExecError;
use crate::expr::PhysExpr;
use crate::functions::FunctionRegistry;
use crate::guard::QueryGuard;
use crate::plan::{AggCall, AggSpec, ExecCtx, Plan, RowIdFetch, ScanEstimate};

/// A fully compiled query, ready to execute against the database it was
/// planned for.
///
/// `Clone` is cheap relative to planning (expression trees are copied;
/// materialized `IN`-sets and UDF handles are `Arc`-shared): the plan
/// cache hands out [`std::sync::Arc<CompiledQuery>`]s and callers that
/// need mutation ([`CompiledQuery::rebind_rowid_set`]) clone a private
/// copy.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// One compiled select per `UNION ALL` branch.
    pub branches: Vec<CompiledSelect>,
    /// Order keys.
    pub order: Vec<OrderKey>,
    /// Row limit.
    pub limit: Option<u64>,
    /// Output column names (taken from the first branch).
    pub columns: Vec<String>,
}

impl CompiledQuery {
    /// Rebinds every row-id fetch on scans of `rel` to a *set* of row
    /// ids. This turns a query compiled with a placeholder
    /// `binding.rowid = k` predicate into a reusable prepared query that
    /// is rebound instead of recompiled. One execution then evaluates it
    /// for every listed tuple at once: the fetch scan emits the listed
    /// rows in set order, so the result is the concatenation of the
    /// per-tuple results in that order. Returns the number of scans
    /// rebound.
    pub fn rebind_rowid_set(&mut self, rel: RelId, rowids: &Arc<Vec<u64>>) -> usize {
        let mut n = 0;
        for b in &mut self.branches {
            n += rebind_plan(&mut b.plan, rel, &RowIdFetch::Set(Arc::clone(rowids)));
        }
        n
    }

    /// Total number of plan nodes across all branches (derived sub-queries
    /// counted through) — the size of a matching
    /// [`crate::analyze::PlanProfile`].
    pub fn plan_node_count(&self) -> usize {
        self.branches.iter().map(|b| b.plan.node_count()).sum()
    }
}

fn rebind_plan(plan: &mut Plan, rel: RelId, fetch: &RowIdFetch) -> usize {
    match plan {
        Plan::Scan { rel: r, fetch_rowid: Some(f), .. } if *r == rel => {
            *f = fetch.clone();
            1
        }
        Plan::Scan { .. } | Plan::Values => 0,
        Plan::Filter { input, .. } => rebind_plan(input, rel, fetch),
        Plan::HashJoin { left, right, .. } | Plan::NestedLoop { left, right, .. } => {
            rebind_plan(left, rel, fetch) + rebind_plan(right, rel, fetch)
        }
        Plan::IndexJoin { left, .. } => rebind_plan(left, rel, fetch),
        Plan::UnionAll { inputs } => inputs.iter_mut().map(|p| rebind_plan(p, rel, fetch)).sum(),
        Plan::Derived { query } => {
            let mut n = 0;
            for b in &mut query.branches {
                n += rebind_plan(&mut b.plan, rel, fetch);
            }
            n
        }
    }
}

/// One compiled `SELECT` block.
#[derive(Debug, Clone)]
pub struct CompiledSelect {
    /// The join/filter tree.
    pub plan: Plan,
    /// Grouping spec; when present, projection runs over the intermediate
    /// `[group…, agg…]` rows.
    pub agg: Option<CompiledAgg>,
    /// Projection expressions.
    pub project: Vec<PhysExpr>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
}

/// Compiled grouping/aggregation.
#[derive(Debug, Clone)]
pub struct CompiledAgg {
    /// Group keys and aggregate calls.
    pub spec: AggSpec,
    /// `HAVING` predicate over the intermediate row.
    pub having: Option<PhysExpr>,
}

/// A compiled `ORDER BY` key.
#[derive(Debug, Clone)]
pub struct OrderKey {
    /// Where the key value comes from.
    pub source: KeySource,
    /// Descending order.
    pub desc: bool,
}

/// Where an order key is evaluated.
#[derive(Debug, Clone)]
pub enum KeySource {
    /// An output column (by index).
    Output(usize),
    /// An expression over the branch's source rows (single-branch queries
    /// only; for aggregates the source is the intermediate row).
    Source(PhysExpr),
}

/// Name-resolution scope: the bindings of a `FROM` list.
struct Scope {
    bindings: Vec<Binding>,
}

struct Binding {
    name: String,
    columns: Vec<String>,
    /// `Some(rel)` for base relations (which carry a hidden rowid slot).
    rel: Option<RelId>,
    /// Width in the flat row layout (including the rowid slot if any).
    width: usize,
    /// Start offset in the flat row; fixed once the join order is chosen.
    offset: usize,
}

impl Binding {
    /// Offset of named column within the binding, in flat-row coordinates
    /// relative to the binding start.
    fn column_slot(&self, name: &str) -> Option<usize> {
        let base = if self.rel.is_some() { 1 } else { 0 };
        if let Some(i) = self.columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
            return Some(base + i);
        }
        if self.rel.is_some() && name.eq_ignore_ascii_case("rowid") {
            return Some(0);
        }
        None
    }
}

impl Scope {
    /// Resolves a column to `(binding index, slot within binding)`.
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<(usize, usize), ExecError> {
        match table {
            Some(t) => {
                let (i, b) = self
                    .bindings
                    .iter()
                    .enumerate()
                    .find(|(_, b)| b.name.eq_ignore_ascii_case(t))
                    .ok_or_else(|| ExecError::UnknownBinding(t.to_string()))?;
                let slot = b
                    .column_slot(name)
                    .ok_or_else(|| ExecError::UnknownColumn(format!("{t}.{name}")))?;
                Ok((i, slot))
            }
            None => {
                let mut hits = Vec::new();
                for (i, b) in self.bindings.iter().enumerate() {
                    if let Some(slot) = b.column_slot(name) {
                        // bare `rowid` only resolves when unambiguous like
                        // any other column
                        hits.push((i, slot));
                    }
                }
                match hits.len() {
                    0 => Err(ExecError::UnknownColumn(name.to_string())),
                    1 => Ok(hits[0]),
                    _ => Err(ExecError::AmbiguousColumn(name.to_string())),
                }
            }
        }
    }
}

/// The planner. Holds the database (for catalog access, statistics, and
/// compile-time execution of uncorrelated `IN` sub-queries) and the
/// function registry.
pub struct Planner<'a> {
    db: &'a Database,
    registry: &'a FunctionRegistry,
    stats: ExecStats,
    guard: QueryGuard,
}

impl<'a> Planner<'a> {
    /// Creates a planner.
    pub fn new(db: &'a Database, registry: &'a FunctionRegistry) -> Self {
        Planner { db, registry, stats: ExecStats::default(), guard: QueryGuard::unlimited() }
    }

    /// Attaches a [`QueryGuard`] so plan-time work (materializing
    /// uncorrelated `IN` sub-queries) is bounded too.
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Statistics accumulated during planning (sub-query executions).
    pub fn take_stats(&mut self) -> ExecStats {
        std::mem::take(&mut self.stats)
    }

    /// Compiles a query.
    pub fn compile(&mut self, query: &Query) -> Result<CompiledQuery, ExecError> {
        let selects = query.selects();
        let mut branches = Vec::with_capacity(selects.len());
        let mut columns: Vec<String> = Vec::new();
        let mut scopes = Vec::new();
        for (i, select) in selects.iter().enumerate() {
            let (branch, names, scope) = self.compile_select(select)?;
            if i == 0 {
                columns = names;
            } else if branch.project.len() != columns.len() {
                return Err(ExecError::UnionArityMismatch {
                    expected: columns.len(),
                    got: branch.project.len(),
                });
            }
            branches.push(branch);
            scopes.push(scope);
        }
        let order = self.compile_order(query, &selects, &branches, &scopes, &columns)?;
        Ok(CompiledQuery { branches, order, limit: query.limit, columns })
    }

    /// Compiles one select; returns the branch, its output column names,
    /// and its scope (kept for ORDER BY source-expression resolution).
    fn compile_select(
        &mut self,
        select: &Select,
    ) -> Result<(CompiledSelect, Vec<String>, Scope), ExecError> {
        // --- scope ---------------------------------------------------
        let mut scope = Scope { bindings: Vec::new() };
        let mut derived_plans: Vec<Option<Plan>> = Vec::new();
        for tref in &select.from {
            let binding_name = tref.binding().to_string();
            if scope.bindings.iter().any(|b| b.name.eq_ignore_ascii_case(&binding_name)) {
                return Err(ExecError::DuplicateBinding(binding_name));
            }
            match tref {
                TableRef::Relation { name, .. } => {
                    let rel = self.db.catalog().relation_by_name(name)?;
                    scope.bindings.push(Binding {
                        name: binding_name,
                        columns: rel.attributes.iter().map(|a| a.name.clone()).collect(),
                        rel: Some(rel.id),
                        width: rel.arity() + 1,
                        offset: 0,
                    });
                    derived_plans.push(None);
                }
                TableRef::Derived { query, .. } => {
                    let compiled = self.compile(query)?;
                    scope.bindings.push(Binding {
                        name: binding_name,
                        columns: compiled.columns.clone(),
                        rel: None,
                        width: compiled.columns.len(),
                        offset: 0,
                    });
                    derived_plans.push(Some(Plan::Derived { query: Box::new(compiled) }));
                }
            }
        }

        // --- classify WHERE conjuncts --------------------------------
        let conjuncts: Vec<&Expr> = select
            .where_clause
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        let mut pushed: Vec<Vec<&Expr>> = vec![Vec::new(); scope.bindings.len()];
        let mut join_edges: Vec<(usize, usize, &Expr, &Expr)> = Vec::new(); // (left binding, right binding, left col expr, right col expr)
        let mut residual: Vec<&Expr> = Vec::new();
        for c in conjuncts {
            let mut refs = HashSet::new();
            collect_binding_refs(c, &scope, &mut refs)?;
            match refs.len() {
                0 => residual.push(c),
                1 => {
                    if let Some(&b) = refs.iter().next() {
                        pushed[b].push(c);
                    }
                }
                2 => {
                    if let Expr::Binary { left, op: BinaryOp::Eq, right } = c {
                        let lb = single_binding_of(left, &scope)?;
                        let rb = single_binding_of(right, &scope)?;
                        match (lb, rb) {
                            (Some(l), Some(r)) if l != r => {
                                join_edges.push((l, r, left, right));
                                continue;
                            }
                            _ => {}
                        }
                    }
                    residual.push(c);
                }
                _ => residual.push(c),
            }
        }

        // --- join order (greedy, smallest estimate first) -------------
        let plan = if scope.bindings.is_empty() {
            Plan::Values
        } else {
            self.build_join_tree(&mut scope, derived_plans, &pushed, &join_edges)?
        };

        // apply residual predicates
        let plan = match PhysExprList::compile_all(self, &residual, &scope, None)? {
            Some(pred) => Plan::Filter { input: Box::new(plan), predicate: pred },
            None => plan,
        };

        // --- aggregation ----------------------------------------------
        let mut agg_calls: Vec<&Expr> = Vec::new();
        for item in &select.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggregates(expr, self.registry, &mut agg_calls)?;
            }
        }
        if let Some(h) = &select.having {
            collect_aggregates(h, self.registry, &mut agg_calls)?;
        }
        let is_agg = !select.group_by.is_empty() || !agg_calls.is_empty() || select.having.is_some();

        // --- projection -----------------------------------------------
        let mut names: Vec<String> = Vec::new();
        let mut items: Vec<&Expr> = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    if is_agg {
                        return Err(ExecError::Unsupported(
                            "SELECT * in an aggregate query".to_string(),
                        ));
                    }
                    for b in &scope.bindings {
                        for c in &b.columns {
                            names.push(c.clone());
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    names.push(alias.clone().unwrap_or_else(|| derive_name(expr, names.len())));
                    items.push(expr);
                }
            }
        }

        let branch = if is_agg {
            let group: Vec<PhysExpr> = select
                .group_by
                .iter()
                .map(|g| self.compile_expr(g, &scope, None))
                .collect::<Result<_, _>>()?;
            let aggs: Vec<AggCall> = agg_calls
                .iter()
                .map(|call| self.compile_agg_call(call, &scope))
                .collect::<Result<_, _>>()?;
            let inter = Intermediate { group_exprs: &select.group_by, agg_exprs: &agg_calls };
            let project: Vec<PhysExpr> = items
                .iter()
                .map(|e| self.compile_over_intermediate(e, &inter))
                .collect::<Result<_, _>>()?;
            let having = select
                .having
                .as_ref()
                .map(|h| self.compile_over_intermediate(h, &inter))
                .transpose()?;
            CompiledSelect {
                plan,
                agg: Some(CompiledAgg { spec: AggSpec { group, aggs }, having }),
                project,
                distinct: select.distinct,
            }
        } else {
            let mut project = Vec::new();
            let mut item_iter = items.iter();
            for item in &select.items {
                match item {
                    SelectItem::Wildcard => {
                        for b in &scope.bindings {
                            let base = if b.rel.is_some() { 1 } else { 0 };
                            for i in 0..b.columns.len() {
                                project.push(PhysExpr::Column(b.offset + base + i));
                            }
                        }
                    }
                    SelectItem::Expr { .. } => {
                        let e = item_iter.next().ok_or_else(|| {
                            ExecError::Internal("projection item list desynchronized".into())
                        })?;
                        project.push(self.compile_expr(e, &scope, None)?);
                    }
                }
            }
            CompiledSelect { plan, agg: None, project, distinct: select.distinct }
        };
        Ok((branch, names, scope))
    }

    /// Greedy join-tree construction. Mutates binding offsets in `scope`.
    fn build_join_tree(
        &mut self,
        scope: &mut Scope,
        mut derived_plans: Vec<Option<Plan>>,
        pushed: &[Vec<&Expr>],
        join_edges: &[(usize, usize, &Expr, &Expr)],
    ) -> Result<Plan, ExecError> {
        let n = scope.bindings.len();
        // cardinality estimates
        let mut estimates: Vec<f64> = Vec::with_capacity(n);
        for (i, b) in scope.bindings.iter().enumerate() {
            let est = match b.rel {
                Some(rel) => {
                    let rows = self.db.table(rel).live_len() as f64;
                    let mut sel = 1.0;
                    for p in &pushed[i] {
                        sel *= self.estimate_selectivity(rel, p, &b.name);
                    }
                    rows * sel
                }
                None => 1000.0,
            };
            estimates.push(est);
        }

        let start = (0..n)
            .min_by(|&a, &b| estimates[a].total_cmp(&estimates[b]))
            .ok_or_else(|| ExecError::Internal("join ordering over empty FROM".into()))?;

        let mut joined: Vec<usize> = vec![start];
        let mut used_edges: HashSet<usize> = HashSet::new();

        // Start plan: scan/derived with pushed predicates applied locally.
        let mut plan = self.source_plan(scope, start, &mut derived_plans, &pushed[start])?;
        scope.bindings[start].offset = 0;
        let mut width = scope.bindings[start].width;

        while joined.len() < n {
            // candidate: an unused edge touching the joined set and one new
            // binding; choose the one whose new binding has the smallest
            // estimate.
            let mut best: Option<(usize, usize)> = None; // (edge idx, new binding)
            for (ei, (l, r, _, _)) in join_edges.iter().enumerate() {
                if used_edges.contains(&ei) {
                    continue;
                }
                let (inside, outside) = if joined.contains(l) && !joined.contains(r) {
                    (*l, *r)
                } else if joined.contains(r) && !joined.contains(l) {
                    (*r, *l)
                } else {
                    continue;
                };
                let _ = inside;
                if best.is_none_or(|(_, b)| estimates[outside] < estimates[b]) {
                    best = Some((ei, outside));
                }
            }
            match best {
                Some((ei, new_b)) => {
                    used_edges.insert(ei);
                    let (l, r, le, re) = join_edges[ei];
                    // expression on the already-joined side / the new side
                    let (outer_expr, inner_expr) =
                        if joined.contains(&l) { (le, re) } else { (re, le) };
                    let _ = r;
                    joined.push(new_b);
                    scope.bindings[new_b].offset = width;
                    width += scope.bindings[new_b].width;

                    // gather residuals for this join: other unused edges now
                    // fully inside the joined set + pushed predicates of the
                    // new binding (for index joins).
                    let mut extra: Vec<&Expr> = Vec::new();
                    for (ej, (l2, r2, le2, re2)) in join_edges.iter().enumerate() {
                        if used_edges.contains(&ej) {
                            continue;
                        }
                        if joined.contains(l2) && joined.contains(r2) {
                            used_edges.insert(ej);
                            extra.push(le2); // recombine as equality below
                            extra.push(re2);
                        }
                    }

                    // Index joins need a base relation *and* a bare column
                    // on the inner side; anything else (derived tables,
                    // computed join keys like `M.x = N.y + 1`) hash-joins.
                    let base_col = scope.bindings[new_b]
                        .rel
                        .and_then(|rel| column_of(inner_expr).map(|col| (rel, col)));
                    if let Some((rel, col)) = base_col {
                        // index nested-loop join on the inner column
                        let attr_idx = self
                            .db
                            .catalog()
                            .relation(rel)
                            .attr_index(&col.1)
                            .ok_or_else(|| ExecError::UnknownColumn(col.1.clone()))?;
                        let left_key = self.compile_expr(outer_expr, scope, None)?;
                        let mut residual_parts: Vec<PhysExpr> = Vec::new();
                        for p in &pushed[new_b] {
                            residual_parts.push(self.compile_expr(p, scope, None)?);
                        }
                        let mut extra_it = extra.iter();
                        while let (Some(a), Some(b)) = (extra_it.next(), extra_it.next()) {
                            let pa = self.compile_expr(a, scope, None)?;
                            let pb = self.compile_expr(b, scope, None)?;
                            residual_parts.push(PhysExpr::Binary {
                                left: Box::new(pa),
                                op: BinaryOp::Eq,
                                right: Box::new(pb),
                            });
                        }
                        let residual_pred = combine_and(residual_parts);
                        plan = Plan::IndexJoin {
                            left: Box::new(plan),
                            left_key,
                            right_attr: qp_storage::AttrId::new(rel, attr_idx as u32),
                            residual: residual_pred,
                        };
                    } else {
                        // hash join against the inner source
                        let inner_plan =
                            self.source_plan(scope, new_b, &mut derived_plans, &pushed[new_b])?;
                        // inner key compiled against the source's own
                        // local layout (keeping `rel` so base-relation
                        // bindings resolve past their hidden rowid slot)
                        let local_scope = Scope {
                            bindings: vec![Binding {
                                name: scope.bindings[new_b].name.clone(),
                                columns: scope.bindings[new_b].columns.clone(),
                                rel: scope.bindings[new_b].rel,
                                width: scope.bindings[new_b].width,
                                offset: 0,
                            }],
                        };
                        let right_key = self.compile_expr(inner_expr, &local_scope, None)?;
                        let left_key = self.compile_expr(outer_expr, scope, None)?;
                        plan = Plan::HashJoin {
                            left: Box::new(plan),
                            right: Box::new(inner_plan),
                            left_key,
                            right_key,
                        };
                        let mut extra_it = extra.iter();
                        let mut parts = Vec::new();
                        while let (Some(a), Some(b)) = (extra_it.next(), extra_it.next()) {
                            let pa = self.compile_expr(a, scope, None)?;
                            let pb = self.compile_expr(b, scope, None)?;
                            parts.push(PhysExpr::Binary {
                                left: Box::new(pa),
                                op: BinaryOp::Eq,
                                right: Box::new(pb),
                            });
                        }
                        if let Some(p) = combine_and(parts) {
                            plan = Plan::Filter { input: Box::new(plan), predicate: p };
                        }
                    }
                }
                None => {
                    // no connecting edge: cross join with the smallest
                    // remaining source
                    let new_b = (0..n)
                        .filter(|i| !joined.contains(i))
                        .min_by(|&a, &b| estimates[a].total_cmp(&estimates[b]))
                        .ok_or_else(|| {
                            ExecError::Internal("cross-join candidate set empty".into())
                        })?;
                    let inner_plan =
                        self.source_plan(scope, new_b, &mut derived_plans, &pushed[new_b])?;
                    joined.push(new_b);
                    scope.bindings[new_b].offset = width;
                    width += scope.bindings[new_b].width;
                    plan = Plan::NestedLoop {
                        left: Box::new(plan),
                        right: Box::new(inner_plan),
                        predicate: None,
                    };
                }
            }
        }
        // Any join edges never consumed (e.g. both endpoints were joined
        // through other paths) become equality filters on top.
        let mut eq_filters = Vec::new();
        for (ei, (_, _, le, re)) in join_edges.iter().enumerate() {
            if !used_edges.contains(&ei) {
                let pa = self.compile_expr(le, scope, None)?;
                let pb = self.compile_expr(re, scope, None)?;
                eq_filters.push(PhysExpr::Binary {
                    left: Box::new(pa),
                    op: BinaryOp::Eq,
                    right: Box::new(pb),
                });
            }
        }
        if let Some(p) = combine_and(eq_filters) {
            return Ok(Plan::Filter { input: Box::new(plan), predicate: p });
        }
        Ok(plan)
    }

    /// Builds the standalone plan for one source with its pushed
    /// predicates applied, compiled against a local scope where the
    /// binding starts at offset 0.
    fn source_plan(
        &mut self,
        scope: &Scope,
        idx: usize,
        derived_plans: &mut [Option<Plan>],
        pushed: &[&Expr],
    ) -> Result<Plan, ExecError> {
        let b = &scope.bindings[idx];
        let local_scope = Scope {
            bindings: vec![Binding {
                name: b.name.clone(),
                columns: b.columns.clone(),
                rel: b.rel,
                width: b.width,
                offset: 0,
            }],
        };
        match b.rel {
            Some(rel) => {
                // split out `rowid = <int>` fetches
                let mut fetch_rowid = None;
                let mut rest: Vec<&Expr> = Vec::new();
                for p in pushed {
                    match rowid_eq_literal(p, &b.name) {
                        Some(id) if fetch_rowid.is_none() => fetch_rowid = Some(id),
                        _ => rest.push(p),
                    }
                }
                // Record the planner's cardinality estimate on the scan so
                // EXPLAIN ANALYZE can report estimated vs. observed
                // selectivity — the same per-predicate estimates that drive
                // join ordering and PPA's subquery ordering.
                let selectivity: f64 = pushed
                    .iter()
                    .map(|p| self.estimate_selectivity(rel, p, &b.name))
                    .product();
                let est = ScanEstimate {
                    rows: self.db.table(rel).live_len() as f64 * selectivity,
                    selectivity,
                };
                let index_eq = if fetch_rowid.is_none() {
                    self.pick_index_eq(rel, &b.name, &rest)
                } else {
                    None
                };
                let filter = PhysExprList::compile_all(self, &rest, &local_scope, None)?;
                Ok(Plan::Scan {
                    rel,
                    fetch_rowid: fetch_rowid.map(RowIdFetch::One),
                    index_eq,
                    filter,
                    est: Some(est),
                })
            }
            None => {
                let plan = derived_plans[idx].take().ok_or_else(|| {
                    ExecError::Internal("derived plan consumed twice".into())
                })?;
                match PhysExprList::compile_all(self, pushed, &local_scope, None)? {
                    Some(p) => Ok(Plan::Filter { input: Box::new(plan), predicate: p }),
                    None => Ok(plan),
                }
            }
        }
    }

    /// Chooses a selective `attr = literal` predicate the scan can serve
    /// through the persistent hash index instead of iterating the whole
    /// table. Returns the most selective candidate, or `None` when every
    /// equality is too unselective (fetching most of the table through
    /// the index is slower than the straight scan) or the table is small
    /// enough that a scan is already cheap. The chosen predicate is *not*
    /// removed from the residual filter — the index only narrows which
    /// rows are fetched, so scan semantics stay exact.
    fn pick_index_eq(
        &self,
        rel: RelId,
        binding: &str,
        pushed: &[&Expr],
    ) -> Option<(qp_storage::AttrId, Value)> {
        use qp_storage::histogram::CmpOp;
        const MIN_ROWS: usize = 64;
        const MAX_SELECTIVITY: f64 = 0.2;
        if self.db.table(rel).live_len() < MIN_ROWS {
            return None;
        }
        let relation = self.db.catalog().relation(rel);
        let mut best: Option<(qp_storage::AttrId, Value, f64)> = None;
        for p in pushed {
            let Expr::Binary { left, op: BinaryOp::Eq, right } = *p else {
                continue;
            };
            let (col, lit) = match (column_of(left), literal_value(right)) {
                (Some(c), Some(v)) => (c, v),
                _ => match (column_of(right), literal_value(left)) {
                    (Some(c), Some(v)) => (c, v),
                    _ => continue,
                },
            };
            if col.0.as_deref().is_some_and(|t| !t.eq_ignore_ascii_case(binding)) {
                continue;
            }
            let Some(attr_idx) = relation.attr_index(&col.1) else {
                continue;
            };
            let attr = qp_storage::AttrId::new(rel, attr_idx as u32);
            let sel = self.db.histogram(attr).selectivity(CmpOp::Eq, &lit);
            if sel <= MAX_SELECTIVITY && best.as_ref().is_none_or(|(_, _, s)| sel < *s) {
                best = Some((attr, lit, sel));
            }
        }
        best.map(|(attr, lit, _)| (attr, lit))
    }

    /// Histogram-based selectivity estimate of a single-table predicate.
    fn estimate_selectivity(&self, rel: RelId, pred: &Expr, binding: &str) -> f64 {
        use qp_storage::histogram::CmpOp;
        // rowid fetch → 1 row regardless of table size
        if rowid_eq_literal(pred, binding).is_some() {
            let rows = self.db.table(rel).live_len().max(1) as f64;
            return 1.0 / rows;
        }
        match pred {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                let (col, lit, op) = match (column_of(left), literal_value(right)) {
                    (Some(c), Some(v)) => (c, v, *op),
                    _ => match (column_of(right), literal_value(left)) {
                        (Some(c), Some(v)) => (c, v, op.flip()),
                        _ => return 0.5,
                    },
                };
                let relation = self.db.catalog().relation(rel);
                let Some(attr_idx) = relation.attr_index(&col.1) else {
                    return 0.5;
                };
                let attr = qp_storage::AttrId::new(rel, attr_idx as u32);
                let hist = self.db.histogram(attr);
                let cmp = match op {
                    BinaryOp::Eq => CmpOp::Eq,
                    BinaryOp::Neq => CmpOp::Ne,
                    BinaryOp::Lt => CmpOp::Lt,
                    BinaryOp::Le => CmpOp::Le,
                    BinaryOp::Gt => CmpOp::Gt,
                    BinaryOp::Ge => CmpOp::Ge,
                    _ => return 0.5,
                };
                hist.selectivity(cmp, &lit)
            }
            Expr::Between { expr, negated, low, high } => {
                let (Some(col), Some(lo), Some(hi)) =
                    (column_of(expr), literal_value(low), literal_value(high))
                else {
                    return 0.25;
                };
                let relation = self.db.catalog().relation(rel);
                let Some(attr_idx) = relation.attr_index(&col.1) else {
                    return 0.25;
                };
                let attr = qp_storage::AttrId::new(rel, attr_idx as u32);
                let sel = self.db.histogram(attr).selectivity_between(&lo, &hi);
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            _ => 0.5,
        }
    }

    /// Compiles an AST expression against a scope. `intermediate` is `None`
    /// outside aggregate contexts.
    fn compile_expr(
        &mut self,
        expr: &Expr,
        scope: &Scope,
        _reserved: Option<()>,
    ) -> Result<PhysExpr, ExecError> {
        Ok(match expr {
            Expr::Literal(l) => PhysExpr::Literal(literal_to_value(l)),
            Expr::Column { table, name } => {
                let (b, slot) = scope.resolve(table.as_deref(), name)?;
                PhysExpr::Column(scope.bindings[b].offset + slot)
            }
            Expr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.compile_expr(expr, scope, None)?),
            },
            Expr::Binary { left, op, right } => PhysExpr::Binary {
                left: Box::new(self.compile_expr(left, scope, None)?),
                op: *op,
                right: Box::new(self.compile_expr(right, scope, None)?),
            },
            Expr::Between { expr, negated, low, high } => PhysExpr::Between {
                expr: Box::new(self.compile_expr(expr, scope, None)?),
                negated: *negated,
                low: Box::new(self.compile_expr(low, scope, None)?),
                high: Box::new(self.compile_expr(high, scope, None)?),
            },
            Expr::InList { expr, negated, list } => PhysExpr::InList {
                expr: Box::new(self.compile_expr(expr, scope, None)?),
                negated: *negated,
                list: list
                    .iter()
                    .map(|e| self.compile_expr(e, scope, None))
                    .collect::<Result<_, _>>()?,
            },
            Expr::InSubquery { expr, negated, subquery } => {
                let compiled = self.compile(subquery).map_err(|e| match e {
                    ExecError::UnknownColumn(c) | ExecError::UnknownBinding(c) => {
                        ExecError::CorrelatedSubquery(c)
                    }
                    other => other,
                })?;
                if compiled.columns.len() != 1 {
                    return Err(ExecError::SubqueryArity(compiled.columns.len()));
                }
                self.stats.subqueries += 1;
                let mut ctx = ExecCtx::new(&mut self.stats, &self.guard, 1);
                let rows = crate::batch::run_compiled_batched_at(self.db, &compiled, &mut ctx, 0)?;
                let mut set = HashSet::with_capacity(rows.len());
                let mut has_null = false;
                for mut r in rows {
                    let v = r.pop().expect("arity checked");
                    if v.is_null() {
                        has_null = true;
                    } else {
                        set.insert(v);
                    }
                }
                PhysExpr::InSet {
                    expr: Box::new(self.compile_expr(expr, scope, None)?),
                    negated: *negated,
                    set: Arc::new(set),
                    has_null,
                }
            }
            Expr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(self.compile_expr(expr, scope, None)?),
                negated: *negated,
            },
            Expr::Function { name, args, star } => {
                if *star || self.registry.is_aggregate(name) {
                    return Err(ExecError::MisplacedAggregate(name.clone()));
                }
                let f = self
                    .registry
                    .scalar(name)
                    .ok_or_else(|| ExecError::UnknownFunction(name.clone()))?;
                PhysExpr::Scalar {
                    name: name.clone(),
                    f,
                    args: args
                        .iter()
                        .map(|a| self.compile_expr(a, scope, None))
                        .collect::<Result<_, _>>()?,
                }
            }
        })
    }

    fn compile_agg_call(&mut self, call: &Expr, scope: &Scope) -> Result<AggCall, ExecError> {
        let Expr::Function { name, args, star } = call else {
            unreachable!("collected aggregate is a function call");
        };
        let func = self
            .registry
            .aggregate(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.clone()))?;
        let args = if *star {
            vec![]
        } else {
            args.iter()
                .map(|a| self.compile_expr(a, scope, None))
                .collect::<Result<_, _>>()?
        };
        Ok(AggCall { func, args })
    }

    /// Compiles an expression over the intermediate `[group…, agg…]` row of
    /// an aggregate query, replacing group-key sub-expressions and
    /// aggregate calls with column references.
    fn compile_over_intermediate(
        &mut self,
        expr: &Expr,
        inter: &Intermediate<'_>,
    ) -> Result<PhysExpr, ExecError> {
        if let Some(i) = inter.group_exprs.iter().position(|g| *g == *expr) {
            return Ok(PhysExpr::Column(i));
        }
        if let Some(j) = inter.agg_exprs.iter().position(|a| **a == *expr) {
            return Ok(PhysExpr::Column(inter.group_exprs.len() + j));
        }
        Ok(match expr {
            Expr::Literal(l) => PhysExpr::Literal(literal_to_value(l)),
            Expr::Column { table, name } => {
                let full = match table {
                    Some(t) => format!("{t}.{name}"),
                    None => name.clone(),
                };
                return Err(ExecError::NotGrouped(full));
            }
            Expr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.compile_over_intermediate(expr, inter)?),
            },
            Expr::Binary { left, op, right } => PhysExpr::Binary {
                left: Box::new(self.compile_over_intermediate(left, inter)?),
                op: *op,
                right: Box::new(self.compile_over_intermediate(right, inter)?),
            },
            Expr::Between { expr, negated, low, high } => PhysExpr::Between {
                expr: Box::new(self.compile_over_intermediate(expr, inter)?),
                negated: *negated,
                low: Box::new(self.compile_over_intermediate(low, inter)?),
                high: Box::new(self.compile_over_intermediate(high, inter)?),
            },
            Expr::InList { expr, negated, list } => PhysExpr::InList {
                expr: Box::new(self.compile_over_intermediate(expr, inter)?),
                negated: *negated,
                list: list
                    .iter()
                    .map(|e| self.compile_over_intermediate(e, inter))
                    .collect::<Result<_, _>>()?,
            },
            Expr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(self.compile_over_intermediate(expr, inter)?),
                negated: *negated,
            },
            Expr::Function { name, args, star } => {
                if *star || self.registry.is_aggregate(name) {
                    // an aggregate call that was not collected can only
                    // happen for nested aggregates
                    return Err(ExecError::MisplacedAggregate(name.clone()));
                }
                let f = self
                    .registry
                    .scalar(name)
                    .ok_or_else(|| ExecError::UnknownFunction(name.clone()))?;
                PhysExpr::Scalar {
                    name: name.clone(),
                    f,
                    args: args
                        .iter()
                        .map(|a| self.compile_over_intermediate(a, inter))
                        .collect::<Result<_, _>>()?,
                }
            }
            Expr::InSubquery { .. } => {
                return Err(ExecError::Unsupported(
                    "IN sub-query over aggregate output".to_string(),
                ))
            }
        })
    }

    /// Resolves `ORDER BY` keys. Priority: positional integer → output
    /// column name → structural match with a projected expression → (single
    /// branch only) expression over the branch's source rows.
    fn compile_order(
        &mut self,
        query: &Query,
        selects: &[&Select],
        branches: &[CompiledSelect],
        scopes: &[Scope],
        columns: &[String],
    ) -> Result<Vec<OrderKey>, ExecError> {
        let mut keys = Vec::with_capacity(query.order_by.len());
        for OrderByItem { expr, desc } in &query.order_by {
            // positional
            if let Expr::Literal(Literal::Int(k)) = expr {
                let idx = *k as usize;
                if idx == 0 || idx > columns.len() {
                    return Err(ExecError::UnresolvedOrderBy(format!("position {k}")));
                }
                keys.push(OrderKey { source: KeySource::Output(idx - 1), desc: *desc });
                continue;
            }
            // output column name
            if let Expr::Column { table: None, name } = expr {
                if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                    keys.push(OrderKey { source: KeySource::Output(i), desc: *desc });
                    continue;
                }
            }
            // structural match against first branch's items
            let first_items: Vec<&Expr> = selects[0]
                .items
                .iter()
                .filter_map(|i| match i {
                    SelectItem::Expr { expr, .. } => Some(expr),
                    SelectItem::Wildcard => None,
                })
                .collect();
            if selects[0].items.iter().all(|i| matches!(i, SelectItem::Expr { .. })) {
                if let Some(i) = first_items.iter().position(|e| **e == *expr) {
                    keys.push(OrderKey { source: KeySource::Output(i), desc: *desc });
                    continue;
                }
            }
            // source expression (single branch only)
            if branches.len() == 1 {
                if branches[0].distinct {
                    return Err(ExecError::UnresolvedOrderBy(format!(
                        "{expr} (not an output column of a DISTINCT query)"
                    )));
                }
                let compiled = match &selects[0].having {
                    _ if branches[0].agg.is_some() => {
                        let mut agg_calls: Vec<&Expr> = Vec::new();
                        for item in &selects[0].items {
                            if let SelectItem::Expr { expr, .. } = item {
                                collect_aggregates(expr, self.registry, &mut agg_calls)?;
                            }
                        }
                        if let Some(h) = &selects[0].having {
                            collect_aggregates(h, self.registry, &mut agg_calls)?;
                        }
                        let inter = Intermediate {
                            group_exprs: &selects[0].group_by,
                            agg_exprs: &agg_calls,
                        };
                        self.compile_over_intermediate(expr, &inter)
                    }
                    _ => self.compile_expr(expr, &scopes[0], None),
                };
                match compiled {
                    Ok(p) => {
                        keys.push(OrderKey { source: KeySource::Source(p), desc: *desc });
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            return Err(ExecError::UnresolvedOrderBy(expr.to_string()));
        }
        Ok(keys)
    }
}

/// Shared context for intermediate-row compilation.
struct Intermediate<'a> {
    group_exprs: &'a [Expr],
    agg_exprs: &'a [&'a Expr],
}

/// Helper to compile a conjunct list into one predicate.
struct PhysExprList;

impl PhysExprList {
    fn compile_all(
        planner: &mut Planner<'_>,
        exprs: &[&Expr],
        scope: &Scope,
        _reserved: Option<()>,
    ) -> Result<Option<PhysExpr>, ExecError> {
        let mut parts = Vec::with_capacity(exprs.len());
        for e in exprs {
            parts.push(planner.compile_expr(e, scope, None)?);
        }
        Ok(combine_and(parts))
    }
}

fn combine_and(parts: Vec<PhysExpr>) -> Option<PhysExpr> {
    parts.into_iter().reduce(|a, b| PhysExpr::Binary {
        left: Box::new(a),
        op: BinaryOp::And,
        right: Box::new(b),
    })
}

fn literal_to_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// If `e` is a column ref, returns `(table, name)`.
fn column_of(e: &Expr) -> Option<(Option<String>, String)> {
    match e {
        Expr::Column { table, name } => Some((table.clone(), name.clone())),
        _ => None,
    }
}

/// If `e` is a literal (possibly negated), returns its value.
fn literal_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(l) => Some(literal_to_value(l)),
        Expr::Unary { op: qp_sql::UnaryOp::Neg, expr } => match literal_value(expr)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(x) => Some(Value::Float(-x)),
            _ => None,
        },
        _ => None,
    }
}

/// Matches `binding.rowid = <int literal>` (either side) and returns the id.
fn rowid_eq_literal(e: &Expr, binding: &str) -> Option<u64> {
    let Expr::Binary { left, op: BinaryOp::Eq, right } = e else {
        return None;
    };
    let matches_rowid = |c: &Expr| match c {
        Expr::Column { table, name } if name.eq_ignore_ascii_case("rowid") => match table {
            Some(t) => t.eq_ignore_ascii_case(binding),
            None => true,
        },
        _ => false,
    };
    let lit = |e: &Expr| match literal_value(e) {
        Some(Value::Int(i)) if i >= 0 => Some(i as u64),
        _ => None,
    };
    if matches_rowid(left) {
        return lit(right);
    }
    if matches_rowid(right) {
        return lit(left);
    }
    None
}

/// Collects the binding indexes an expression references.
fn collect_binding_refs(
    e: &Expr,
    scope: &Scope,
    out: &mut HashSet<usize>,
) -> Result<(), ExecError> {
    match e {
        Expr::Column { table, name } => {
            let (b, _) = scope.resolve(table.as_deref(), name)?;
            out.insert(b);
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } => collect_binding_refs(expr, scope, out)?,
        Expr::Binary { left, right, .. } => {
            collect_binding_refs(left, scope, out)?;
            collect_binding_refs(right, scope, out)?;
        }
        Expr::Between { expr, low, high, .. } => {
            collect_binding_refs(expr, scope, out)?;
            collect_binding_refs(low, scope, out)?;
            collect_binding_refs(high, scope, out)?;
        }
        Expr::InList { expr, list, .. } => {
            collect_binding_refs(expr, scope, out)?;
            for l in list {
                collect_binding_refs(l, scope, out)?;
            }
        }
        Expr::InSubquery { expr, .. } => {
            // the sub-query itself is uncorrelated (checked at compile);
            // only the probe expression references this scope
            collect_binding_refs(expr, scope, out)?;
        }
        Expr::IsNull { expr, .. } => collect_binding_refs(expr, scope, out)?,
        Expr::Function { args, .. } => {
            for a in args {
                collect_binding_refs(a, scope, out)?;
            }
        }
    }
    Ok(())
}

/// If the expression references exactly one binding and is a plain column,
/// returns that binding.
fn single_binding_of(e: &Expr, scope: &Scope) -> Result<Option<usize>, ExecError> {
    match e {
        Expr::Column { table, name } => {
            let (b, _) = scope.resolve(table.as_deref(), name)?;
            Ok(Some(b))
        }
        _ => Ok(None),
    }
}

/// Collects top-level aggregate calls (deduplicated structurally).
fn collect_aggregates<'e>(
    e: &'e Expr,
    registry: &FunctionRegistry,
    out: &mut Vec<&'e Expr>,
) -> Result<(), ExecError> {
    match e {
        Expr::Function { name, args, star } => {
            if *star || registry.is_aggregate(name) {
                // nested aggregates are rejected
                for a in args {
                    let mut nested = Vec::new();
                    collect_aggregates(a, registry, &mut nested)?;
                    if !nested.is_empty() {
                        return Err(ExecError::MisplacedAggregate(name.clone()));
                    }
                }
                if !out.iter().any(|x| **x == *e) {
                    out.push(e);
                }
            } else {
                for a in args {
                    collect_aggregates(a, registry, out)?;
                }
            }
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
            collect_aggregates(expr, registry, out)?
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, registry, out)?;
            collect_aggregates(right, registry, out)?;
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, registry, out)?;
            collect_aggregates(low, registry, out)?;
            collect_aggregates(high, registry, out)?;
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, registry, out)?;
            for l in list {
                collect_aggregates(l, registry, out)?;
            }
        }
        Expr::InSubquery { expr, .. } => collect_aggregates(expr, registry, out)?,
        Expr::Literal(_) | Expr::Column { .. } => {}
    }
    Ok(())
}

/// Derives an output column name from an expression.
fn derive_name(e: &Expr, position: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("col{position}"),
    }
}
