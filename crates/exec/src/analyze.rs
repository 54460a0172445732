//! `EXPLAIN ANALYZE`: per-node execution profiles and their rendering.
//!
//! A [`PlanProfile`] holds one [`NodeStats`] slot per plan node of a
//! [`CompiledQuery`]. Node ids are *pre-order positions computed from
//! plan shape* ([`Plan::node_count`]): a node's first child is `id + 1`,
//! its second child is `id + 1 + first_child.node_count()`, and the
//! branches of a `UNION ALL` query are laid out consecutively. This
//! makes ids independent of execution order (a hash join runs its build
//! side before its probe side) and lets one profile serve repeated
//! executions of the same prepared query — counters simply accumulate,
//! with `calls` tracking the invocation count.
//!
//! All counters are relaxed atomics so the operator tree can update them
//! through shared references; profiled runs are still single-threaded.
//!
//! [`Engine::explain_analyze`](crate::Engine::explain_analyze) executes
//! a query with a profile attached and renders the annotated tree via
//! [`render_analyzed`]; see `OBSERVABILITY.md` for how to read the
//! output.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use qp_storage::Database;

use crate::plan::Plan;
use crate::planner::{CompiledQuery, CompiledSelect, KeySource};

/// Execution counters for one plan node. Updated with relaxed atomic
/// adds; read with the getter methods.
#[derive(Debug, Default)]
pub struct NodeStats {
    invocations: AtomicU64,
    rows_out: AtomicU64,
    rows_scanned: AtomicU64,
    index_probes: AtomicU64,
    batches: AtomicU64,
    elapsed_ns: AtomicU64,
}

impl NodeStats {
    /// How many times the node ran (> 1 for re-executed prepared plans).
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Total rows the node emitted across all invocations.
    pub fn rows_out(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed)
    }

    /// Base-table rows touched (scan nodes only).
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Index probes issued (index-join nodes only).
    pub fn index_probes(&self) -> u64 {
        self.index_probes.load(Ordering::Relaxed)
    }

    /// Columnar batches the node emitted.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Total wall-clock time inside the node, children included.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn observe(&self, rows_out: u64, elapsed: Duration) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.rows_out.fetch_add(rows_out, Ordering::Relaxed);
        self.elapsed_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_probes(&self, n: u64) {
        self.index_probes.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_batches(&self, n: u64) {
        self.batches.fetch_add(n, Ordering::Relaxed);
    }
}

/// Per-node execution statistics for one compiled query, indexed by the
/// pre-order node ids described in the module docs.
#[derive(Debug)]
pub struct PlanProfile {
    nodes: Vec<NodeStats>,
    result_rows: AtomicU64,
    total_ns: AtomicU64,
}

impl PlanProfile {
    /// A profile sized for `compiled`, all counters zero.
    pub fn for_query(compiled: &CompiledQuery) -> Self {
        PlanProfile {
            nodes: (0..compiled.plan_node_count()).map(|_| NodeStats::default()).collect(),
            result_rows: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    /// Number of plan nodes covered.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Stats slot for node `id`.
    ///
    /// # Panics
    /// If `id` is out of range — that means the profile was built for a
    /// different query than the one being executed.
    pub fn node(&self, id: usize) -> &NodeStats {
        &self.nodes[id]
    }

    /// Final result cardinality (set once the query finishes).
    pub fn result_rows(&self) -> u64 {
        self.result_rows.load(Ordering::Relaxed)
    }

    /// End-to-end execution time (set once the query finishes).
    pub fn total_elapsed(&self) -> Duration {
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn set_result(&self, rows: u64, elapsed: Duration) {
        self.result_rows.store(rows, Ordering::Relaxed);
        self.total_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Formats a duration compactly: `850ns`, `12.4µs`, `3.21ms`, `1.05s`.
pub fn fmt_elapsed(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Renders the annotated plan tree of a profiled execution: the same
/// shape as [`crate::explain::render`], with per-node actuals —
/// `rows` out, `elapsed` (inclusive of children), `calls` when a
/// prepared plan ran more than once, observed vs. estimated selectivity
/// on scans, and observed join/filter selectivity (`rows out / rows in`)
/// on interior nodes.
pub fn render_analyzed(db: &Database, compiled: &CompiledQuery, profile: &PlanProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Output: {} rows in {}",
        profile.result_rows(),
        fmt_elapsed(profile.total_elapsed())
    );
    let mut base = 0usize;
    if compiled.branches.len() > 1 {
        let _ = writeln!(out, "UnionAll ({} branches)", compiled.branches.len());
        for b in &compiled.branches {
            render_select(db, b, 1, &mut out, profile, base);
            base += b.plan.node_count();
        }
    } else {
        render_select(db, &compiled.branches[0], 0, &mut out, profile, base);
    }
    if !compiled.order.is_empty() {
        let keys: Vec<String> = compiled
            .order
            .iter()
            .map(|k| match &k.source {
                KeySource::Output(i) => {
                    format!("output[{i}]{}", if k.desc { " desc" } else { "" })
                }
                KeySource::Source(_) => {
                    format!("expr{}", if k.desc { " desc" } else { "" })
                }
            })
            .collect();
        let _ = writeln!(out, "OrderBy [{}]", keys.join(", "));
    }
    if let Some(n) = compiled.limit {
        let _ = writeln!(out, "Limit {n}");
    }
    out
}

fn render_select(
    db: &Database,
    select: &CompiledSelect,
    depth: usize,
    out: &mut String,
    profile: &PlanProfile,
    base: usize,
) {
    let pad = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{pad}Project [{} columns]{}",
        select.project.len(),
        if select.distinct { " distinct" } else { "" }
    );
    if let Some(agg) = &select.agg {
        let _ = writeln!(
            out,
            "{pad}  Aggregate [group: {}, aggregates: {}{}]",
            agg.spec.group.len(),
            agg.spec.aggs.len(),
            if agg.having.is_some() { ", having" } else { "" }
        );
        render_plan(db, &select.plan, depth + 2, out, profile, base);
    } else {
        render_plan(db, &select.plan, depth + 1, out, profile, base);
    }
}

/// The total `rows_out` of a node's direct children — the node's input
/// cardinality, used to derive observed join/filter selectivity.
fn rows_in(plan: &Plan, profile: &PlanProfile, id: usize) -> u64 {
    match plan {
        Plan::Scan { .. } | Plan::Values => 0,
        Plan::Filter { .. } | Plan::IndexJoin { .. } | Plan::Derived { .. } => {
            profile.node(id + 1).rows_out()
        }
        Plan::HashJoin { left, .. } | Plan::NestedLoop { left, .. } => {
            profile.node(id + 1).rows_out() + profile.node(id + 1 + left.node_count()).rows_out()
        }
        Plan::UnionAll { inputs } => {
            let mut total = 0;
            let mut child = id + 1;
            for p in inputs {
                total += profile.node(child).rows_out();
                child += p.node_count();
            }
            total
        }
    }
}

/// Formats the ` (rows=…, …)` annotation for one node.
fn annotate(plan: &Plan, profile: &PlanProfile, id: usize) -> String {
    let stats = profile.node(id);
    let mut s = format!(" (rows={}", stats.rows_out());
    match plan {
        Plan::Scan { est, .. } => {
            let scanned = stats.rows_scanned();
            let _ = write!(s, ", scanned={scanned}");
            if scanned > 0 {
                let _ = write!(s, ", sel={:.3}", stats.rows_out() as f64 / scanned as f64);
            }
            if let Some(est) = est {
                let _ = write!(s, ", est_sel={:.3}", est.selectivity);
            }
        }
        Plan::IndexJoin { .. } => {
            let _ = write!(s, ", probes={}", stats.index_probes());
        }
        Plan::Filter { .. } | Plan::HashJoin { .. } | Plan::NestedLoop { .. } => {
            let input = rows_in(plan, profile, id);
            let _ = write!(s, ", in={input}");
            if input > 0 {
                let _ = write!(s, ", sel={:.3}", stats.rows_out() as f64 / input as f64);
            }
        }
        Plan::Values | Plan::UnionAll { .. } | Plan::Derived { .. } => {}
    }
    if stats.batches() > 0 {
        let _ = write!(s, ", batches={}", stats.batches());
    }
    if stats.invocations() > 1 {
        let _ = write!(s, ", calls={}", stats.invocations());
    }
    let _ = write!(s, ", {})", fmt_elapsed(stats.elapsed()));
    s
}

fn render_plan(
    db: &Database,
    plan: &Plan,
    depth: usize,
    out: &mut String,
    profile: &PlanProfile,
    id: usize,
) {
    let pad = "  ".repeat(depth);
    let ann = annotate(plan, profile, id);
    match plan {
        Plan::Scan { rel, fetch_rowid, index_eq, filter, .. } => {
            let name = &db.catalog().relation(*rel).name;
            let mut extra = String::new();
            match fetch_rowid {
                Some(crate::plan::RowIdFetch::One(id)) => {
                    let _ = write!(extra, " rowid={id}");
                }
                Some(crate::plan::RowIdFetch::Set(ids)) => {
                    let _ = write!(extra, " rowid in ({} ids)", ids.len());
                }
                None => {}
            }
            if let Some((attr, key)) = index_eq {
                let _ = write!(extra, " index {}={}", db.catalog().attr_name(*attr), key);
            }
            if filter.is_some() {
                extra.push_str(" filtered");
            }
            let _ = writeln!(out, "{pad}Scan {name}{extra}{ann}");
        }
        Plan::Values => {
            let _ = writeln!(out, "{pad}Values (1 row){ann}");
        }
        Plan::Filter { input, .. } => {
            let _ = writeln!(out, "{pad}Filter{ann}");
            render_plan(db, input, depth + 1, out, profile, id + 1);
        }
        Plan::HashJoin { left, right, .. } => {
            let _ = writeln!(out, "{pad}HashJoin{ann}");
            render_plan(db, left, depth + 1, out, profile, id + 1);
            render_plan(db, right, depth + 1, out, profile, id + 1 + left.node_count());
        }
        Plan::IndexJoin { left, right_attr, residual, .. } => {
            let _ = writeln!(
                out,
                "{pad}IndexJoin probe {}{}{ann}",
                db.catalog().attr_name(*right_attr),
                if residual.is_some() { " (residual filter)" } else { "" }
            );
            render_plan(db, left, depth + 1, out, profile, id + 1);
        }
        Plan::NestedLoop { left, right, predicate } => {
            let _ = writeln!(
                out,
                "{pad}NestedLoop{}{ann}",
                if predicate.is_some() { " (filtered)" } else { "" }
            );
            render_plan(db, left, depth + 1, out, profile, id + 1);
            render_plan(db, right, depth + 1, out, profile, id + 1 + left.node_count());
        }
        Plan::UnionAll { inputs } => {
            let _ = writeln!(out, "{pad}UnionAll{ann}");
            let mut child = id + 1;
            for p in inputs {
                render_plan(db, p, depth + 1, out, profile, child);
                child += p.node_count();
            }
        }
        Plan::Derived { query } => {
            let _ = writeln!(out, "{pad}Derived{ann}");
            let mut base = id + 1;
            for b in &query.branches {
                render_select(db, b, depth + 1, out, profile, base);
                base += b.plan.node_count();
            }
        }
    }
}
