//! A serial row-at-a-time interpreter of compiled plans: the reference
//! the vectorized engine is checked against byte for byte.
//!
//! It interprets the public [`CompiledQuery`] that [`Engine::prepare`]
//! returns, so both sides share the planner (join order, pushed filters,
//! index choices, plan-time `IN`-set materialization) and differ only in
//! execution. Every operator materializes a `Vec<Row>` in the plainest
//! order-defining loop: scans walk row ids in fetch/index/table order,
//! hash joins emit left rows in order with their matches in build order,
//! ORDER BY is a stable sort. There is no guard, no parallelism and no
//! batching — nothing that could share a bug with the engine's
//! optimizations.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use qp_exec::plan::{Plan, RowIdFetch};
use qp_exec::planner::{CompiledQuery, KeySource};
use qp_exec::{Engine, ResultSet};
use qp_sql::parse_query;
use qp_storage::{Database, Row, RowId, Value};

/// Plans `sql` with a default [`Engine`] and runs the plan through the
/// oracle.
pub fn execute_sql(db: &Database, sql: &str) -> ResultSet {
    let query = parse_query(sql).unwrap_or_else(|e| panic!("oracle parse: {sql}: {e}"));
    let compiled =
        Engine::new().prepare(db, &query).unwrap_or_else(|e| panic!("oracle plan: {sql}: {e}"));
    ResultSet::new(compiled.columns.clone(), run_query(db, &compiled))
}

/// Branches → aggregation → HAVING → projection → DISTINCT, then ORDER BY
/// and LIMIT over the concatenated branches.
fn run_query(db: &Database, compiled: &CompiledQuery) -> Vec<Row> {
    // ORDER BY keys over a source (pre-projection) row are only compiled
    // for single-branch queries; elsewhere they sort as NULL.
    let keep_source = compiled.branches.len() == 1;
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
    for branch in &compiled.branches {
        let input = run_plan(db, &branch.plan);
        let sources = match &branch.agg {
            Some(agg) => {
                let mut groups = agg.spec.run(input);
                if let Some(h) = &agg.having {
                    groups.retain(|r| h.eval_bool(r));
                }
                groups
            }
            None => input,
        };
        let mut seen: HashSet<Row> = HashSet::new();
        for src in &sources {
            let out: Row = branch.project.iter().map(|p| p.eval(src)).collect();
            if branch.distinct && !seen.insert(out.clone()) {
                continue;
            }
            let keys = compiled
                .order
                .iter()
                .map(|k| match &k.source {
                    KeySource::Output(c) => out[*c].clone(),
                    KeySource::Source(e) if keep_source => e.eval(src),
                    KeySource::Source(_) => Value::Null,
                })
                .collect();
            keyed.push((keys, out));
        }
    }
    // `sort_by` is stable: ties keep their original row position.
    keyed.sort_by(|(a, _), (b, _)| {
        for ((va, vb), k) in a.iter().zip(b).zip(&compiled.order) {
            let ord = va.total_cmp(vb);
            let ord = if k.desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    let mut rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
    if let Some(n) = compiled.limit {
        rows.truncate(n as usize);
    }
    rows
}

/// `[rowid, cols…]` for one stored row.
fn scan_row(rowid: u64, row: &Row) -> Row {
    let mut r = Vec::with_capacity(row.len() + 1);
    r.push(Value::Int(rowid as i64));
    r.extend(row.iter().cloned());
    r
}

/// `left ⧺ right`.
fn concat(left: &Row, right: &Row) -> Row {
    let mut r = left.clone();
    r.extend(right.iter().cloned());
    r
}

fn run_plan(db: &Database, plan: &Plan) -> Vec<Row> {
    match plan {
        Plan::Scan { rel, fetch_rowid, index_eq, filter, .. } => {
            let table = db.table(*rel);
            let rows: Vec<Row> = match (fetch_rowid, index_eq) {
                (Some(RowIdFetch::One(id)), _) => {
                    table.get(RowId(*id)).map(|r| scan_row(*id, r)).into_iter().collect()
                }
                (Some(RowIdFetch::Set(ids)), _) => ids
                    .iter()
                    .filter_map(|&id| table.get(RowId(id)).map(|r| scan_row(id, r)))
                    .collect(),
                (None, Some((attr, key))) => db
                    .index(*attr)
                    .lookup(key)
                    .iter()
                    .map(|rid| scan_row(rid.0, table.get(*rid).expect("index points at a live row")))
                    .collect(),
                (None, None) => table.iter().map(|(rid, r)| scan_row(rid.0, r)).collect(),
            };
            rows.into_iter().filter(|r| filter.as_ref().is_none_or(|p| p.eval_bool(r))).collect()
        }
        Plan::Values => vec![vec![]],
        Plan::Filter { input, predicate } => {
            run_plan(db, input).into_iter().filter(|r| predicate.eval_bool(r)).collect()
        }
        Plan::HashJoin { left, right, left_key, right_key } => {
            let build = run_plan(db, right);
            let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
            for (i, r) in build.iter().enumerate() {
                let k = right_key.eval(r);
                if !k.is_null() {
                    table.entry(k).or_default().push(i);
                }
            }
            let mut out = Vec::new();
            for l in run_plan(db, left) {
                let k = left_key.eval(&l);
                if k.is_null() {
                    continue;
                }
                for &i in table.get(&k).into_iter().flatten() {
                    out.push(concat(&l, &build[i]));
                }
            }
            out
        }
        Plan::IndexJoin { left, left_key, right_attr, residual } => {
            let index = db.index(*right_attr);
            let table = db.table(right_attr.rel);
            let mut out = Vec::new();
            for l in run_plan(db, left) {
                let k = left_key.eval(&l);
                if k.is_null() {
                    continue;
                }
                for rid in index.lookup(&k) {
                    let right = table.get(*rid).expect("index points at a live row");
                    let row = concat(&l, &scan_row(rid.0, right));
                    if residual.as_ref().is_none_or(|p| p.eval_bool(&row)) {
                        out.push(row);
                    }
                }
            }
            out
        }
        Plan::NestedLoop { left, right, predicate } => {
            let right_rows = run_plan(db, right);
            let mut out = Vec::new();
            for l in run_plan(db, left) {
                for r in &right_rows {
                    let row = concat(&l, r);
                    if predicate.as_ref().is_none_or(|p| p.eval_bool(&row)) {
                        out.push(row);
                    }
                }
            }
            out
        }
        Plan::UnionAll { inputs } => inputs.iter().flat_map(|p| run_plan(db, p)).collect(),
        Plan::Derived { query } => run_query(db, query),
    }
}
