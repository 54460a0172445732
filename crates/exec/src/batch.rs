//! Columnar batches and the vectorized (batch-at-a-time) operators.
//!
//! The execution engine moves data in fixed-capacity columnar
//! [`Batch`]es instead of one `Vec<Value>` row at a time. A batch is a
//! set of column vectors plus an optional *selection vector* — the
//! ascending positions of live rows — so filters narrow a batch without
//! moving any data. Scans evaluate pushed predicates against a borrowed
//! view of the stored rows and only materialize survivors (*late
//! materialization*); joins probe a whole batch per guard poll.
//!
//! This is the only execution path. Its results are checked byte for
//! byte against a serial row-at-a-time reference interpreter of the same
//! plans, which lives with the tests (`tests/support/row_oracle.rs`):
//! same operators, same row order, same `[rowid, cols…]` layout. Two
//! things are batch-granular rather than row-granular:
//!
//! * [`crate::guard::QueryGuard`] budgets are charged per batch flush
//!   rather than per row, so a budget can overshoot by at most
//!   [`BATCH_CAPACITY`] rows before tripping (pinned by a regression
//!   test). Deadline/cancellation polling stays at least once per batch,
//!   and per pair inside nested-loop products.
//! * Batch counts (`exec.batch.count` / `exec.batch.rows`, and
//!   `batches=` in `EXPLAIN ANALYZE`).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use qp_storage::{Database, Row, RowId, Value};

use crate::error::ExecError;
use crate::expr::{ColView, PhysExpr};
use crate::guard::QueryGuard;
use crate::plan::{charge, fail_point, ExecCtx, Plan, RowIdFetch};
use crate::planner::{CompiledQuery, KeySource};

/// Rows a batch holds before the producing operator flushes it
/// downstream; also the granularity at which guard budgets are charged
/// on the batch path (worst-case overshoot = one batch).
pub const BATCH_CAPACITY: usize = 1024;

/// A columnar batch: one value vector per column, a row count, and an
/// optional ascending selection vector of live row positions (`None`
/// means all rows are live). The row count is explicit because a batch
/// can be zero-width but non-empty (`Plan::Values`).
#[derive(Debug, Clone, Default)]
pub struct Batch {
    cols: Vec<Vec<Value>>,
    rows: usize,
    sel: Option<Vec<u32>>,
}

impl Batch {
    /// An empty batch of `width` columns with room for `cap` rows each.
    pub fn with_capacity(width: usize, cap: usize) -> Self {
        Batch { cols: (0..width).map(|_| Vec::with_capacity(cap)).collect(), rows: 0, sel: None }
    }

    /// The single zero-width, one-row batch of a `FROM`-less select.
    pub(crate) fn values_row() -> Self {
        Batch { cols: Vec::new(), rows: 1, sel: None }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Number of physical rows (live or not).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff the batch holds no physical rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of live rows (`len()` when no selection vector is set).
    pub fn live_count(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// The selection vector, if one is set.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Installs a selection vector (ascending positions). A vector
    /// selecting every row normalizes to `None` so downstream operators
    /// keep their dense fast paths.
    pub fn set_sel(&mut self, sel: Vec<u32>) {
        self.sel = if sel.len() == self.rows { None } else { Some(sel) };
    }

    /// Iterates live row positions in ascending order.
    pub fn live(&self) -> LiveIter<'_> {
        match &self.sel {
            Some(s) => LiveIter::Sel(s.iter()),
            None => LiveIter::Dense(0..self.rows),
        }
    }

    /// Clones live row `row` out as a flat `Vec<Value>` row.
    pub fn row_cloned(&self, row: usize) -> Row {
        self.cols.iter().map(|c| c[row].clone()).collect()
    }

    /// Appends the concatenation of `left[lr] ⧺ right[rr]` (join output).
    fn push_concat(&mut self, left: &Batch, lr: usize, right: &Batch, rr: usize) {
        let lw = left.width();
        for (c, col) in self.cols.iter_mut().enumerate() {
            if c < lw {
                col.push(left.cols[c][lr].clone());
            } else {
                col.push(right.cols[c - lw][rr].clone());
            }
        }
        self.rows += 1;
    }

    /// Appends `left[lr] ⧺ [rowid, right…]` (index-join output).
    fn push_probe(&mut self, left: &Batch, lr: usize, rowid: u64, right: &Row) {
        let lw = left.width();
        for (c, col) in self.cols.iter_mut().enumerate() {
            if c < lw {
                col.push(left.cols[c][lr].clone());
            } else if c == lw {
                col.push(Value::Int(rowid as i64));
            } else {
                col.push(right[c - lw - 1].clone());
            }
        }
        self.rows += 1;
    }

    /// Appends row `r` of a scan view (`[rowid, cols…]` layout).
    fn push_scan_row(&mut self, view: &ScanView<'_>, r: usize) {
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.push(view.value(c, r).clone());
        }
        self.rows += 1;
    }
}

impl ColView for Batch {
    #[inline]
    fn len(&self) -> usize {
        self.rows
    }
    #[inline]
    fn value(&self, col: usize, row: usize) -> &Value {
        &self.cols[col][row]
    }
}

/// Live-position iterator of a [`Batch`].
pub enum LiveIter<'a> {
    /// All rows live: a dense position range.
    Dense(std::ops::Range<usize>),
    /// Selection vector positions.
    Sel(std::slice::Iter<'a, u32>),
}

impl Iterator for LiveIter<'_> {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            LiveIter::Dense(r) => r.next(),
            LiveIter::Sel(it) => it.next().map(|&i| i as usize),
        }
    }
}

/// Borrowed view over a chunk of stored rows *before* materialization:
/// column 0 is the synthesized rowid column, columns `1..` read through
/// to the stored rows. Scan filters evaluate against this view, so rows
/// the predicate rejects are never cloned.
struct ScanView<'a> {
    rowids: Vec<Value>,
    rows: RowsRef<'a>,
}

enum RowsRef<'a> {
    /// A contiguous table slice (full scan).
    Slice(&'a [Row]),
    /// Rows gathered by id (rowid fetch / index lookup).
    Gathered(Vec<&'a Row>),
}

impl RowsRef<'_> {
    fn len(&self) -> usize {
        match self {
            RowsRef::Slice(s) => s.len(),
            RowsRef::Gathered(v) => v.len(),
        }
    }
}

impl ColView for ScanView<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.rowids.len()
    }
    #[inline]
    fn value(&self, col: usize, row: usize) -> &Value {
        if col == 0 {
            &self.rowids[row]
        } else {
            match &self.rows {
                RowsRef::Slice(s) => &s[row][col - 1],
                RowsRef::Gathered(v) => &v[row][col - 1],
            }
        }
    }
}

/// Accumulates operator output rows into capacity-bounded batches. Each
/// flush applies the optional residual predicate as a selection vector,
/// charges the surviving rows against the guard (the per-batch guard
/// granularity), and ships non-empty batches to `out`. The producer's
/// `rows_intermediate` contribution is returned by [`BatchSink::finish`]
/// so parallel workers can merge counts deterministically.
struct BatchSink<'e> {
    width: usize,
    residual: Option<&'e PhysExpr>,
    cur: Batch,
    out: Vec<Batch>,
    produced: u64,
}

impl<'e> BatchSink<'e> {
    fn new(width: usize, residual: Option<&'e PhysExpr>) -> Self {
        // Column vectors start empty and grow on demand: most sinks in the
        // probe-heavy PPA workload see a handful of rows, and eagerly
        // reserving `width * BATCH_CAPACITY` slots per sink (and again per
        // flush) dominated the cost of small queries.
        BatchSink {
            width,
            residual,
            cur: Batch::with_capacity(width, 0),
            out: Vec::new(),
            produced: 0,
        }
    }

    /// The batch under construction; push rows into it, then call
    /// [`BatchSink::note_row`].
    #[inline]
    fn cur(&mut self) -> &mut Batch {
        &mut self.cur
    }

    /// Flushes when the current batch is full.
    #[inline]
    fn note_row(&mut self, guard: &QueryGuard) -> Result<(), ExecError> {
        if self.cur.rows >= BATCH_CAPACITY {
            self.flush(guard)?;
        }
        Ok(())
    }

    fn flush(&mut self, guard: &QueryGuard) -> Result<(), ExecError> {
        if self.cur.rows == 0 {
            return Ok(());
        }
        // Pre-size the replacement only when the flushed batch filled up —
        // a full batch predicts another full one (scan-driven producers),
        // while a short final flush should not pay for capacity it never uses.
        let next_cap = if self.cur.rows >= BATCH_CAPACITY { BATCH_CAPACITY } else { 0 };
        let mut b = std::mem::replace(&mut self.cur, Batch::with_capacity(self.width, next_cap));
        if let Some(p) = self.residual {
            let sel = p.filter_view(&b, None);
            b.set_sel(sel);
        }
        let live = b.live_count() as u64;
        self.produced += live;
        guard.charge_intermediate(live)?;
        if live > 0 {
            self.out.push(b);
        }
        Ok(())
    }

    /// Flushes the tail and returns `(batches, rows produced)`.
    fn finish(mut self, guard: &QueryGuard) -> Result<(Vec<Batch>, u64), ExecError> {
        self.flush(guard)?;
        Ok((self.out, self.produced))
    }
}

/// Flattens batches into materialized rows (live rows only, in order) —
/// the bridge into row-shaped stages (aggregation, PPA result handling).
pub(crate) fn batches_to_rows(batches: Vec<Batch>) -> Vec<Row> {
    let n: usize = batches.iter().map(Batch::live_count).sum();
    let mut rows = Vec::with_capacity(n);
    for b in &batches {
        for r in b.live() {
            rows.push(b.row_cloned(r));
        }
    }
    rows
}

/// Chunks materialized rows back into dense batches (derived-table
/// outputs re-entering the batch pipeline). Values are moved, not cloned.
fn rows_to_batches(rows: Vec<Row>) -> Vec<Batch> {
    let Some(width) = rows.first().map(Vec::len) else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(rows.len().div_ceil(BATCH_CAPACITY));
    let mut cur = Batch::with_capacity(width, BATCH_CAPACITY.min(rows.len()));
    for row in rows {
        for (col, v) in cur.cols.iter_mut().zip(row) {
            col.push(v);
        }
        cur.rows += 1;
        if cur.rows == BATCH_CAPACITY {
            out.push(std::mem::replace(&mut cur, Batch::with_capacity(width, BATCH_CAPACITY)));
        }
    }
    if cur.rows > 0 {
        out.push(cur);
    }
    out
}

/// Runs `plan` as node `node` of the enclosing profile (a pre-order
/// position, see [`Plan::node_count`]), producing batches. Per-node
/// timing is taken only when a profile is attached, so the unprofiled
/// path pays a single branch per node; batch counts feed the context
/// totals and the node's `batches=` annotation.
pub(crate) fn run_batched_node(
    plan: &Plan,
    db: &Database,
    ctx: &mut ExecCtx<'_>,
    node: usize,
) -> Result<Vec<Batch>, ExecError> {
    let t0 = ctx.profile.map(|_| Instant::now());
    let out = run_batched_inner(plan, db, ctx, node)?;
    let rows: u64 = out.iter().map(|b| b.live_count() as u64).sum();
    ctx.batch_count += out.len() as u64;
    ctx.batch_rows += rows;
    if let (Some(profile), Some(t0)) = (ctx.profile, t0) {
        let stats = profile.node(node);
        stats.observe(rows, t0.elapsed());
        stats.add_batches(out.len() as u64);
    }
    Ok(out)
}

fn run_batched_inner(
    plan: &Plan,
    db: &Database,
    ctx: &mut ExecCtx<'_>,
    node: usize,
) -> Result<Vec<Batch>, ExecError> {
    match plan {
        Plan::Scan { rel, fetch_rowid, index_eq, filter, .. } => {
            fail_point("exec.scan")?;
            let table = db.table(*rel);
            let width = db.catalog().relation(*rel).arity() + 1;
            let filter = filter.as_ref();
            let mut out = Vec::new();
            let mut scanned = 0u64;
            match (fetch_rowid, index_eq) {
                (Some(RowIdFetch::One(id)), _) => {
                    if let Some(row) = table.get(RowId(*id)) {
                        let view = ScanView {
                            rowids: vec![Value::Int(*id as i64)],
                            rows: RowsRef::Gathered(vec![row]),
                        };
                        scan_chunk(ctx, filter, width, view, &mut out, &mut scanned)?;
                    }
                }
                (Some(RowIdFetch::Set(ids)), _) => {
                    let mut rowids = Vec::with_capacity(BATCH_CAPACITY.min(ids.len()));
                    let mut rows: Vec<&Row> = Vec::with_capacity(BATCH_CAPACITY.min(ids.len()));
                    for &id in ids.iter() {
                        if let Some(row) = table.get(RowId(id)) {
                            rowids.push(Value::Int(id as i64));
                            rows.push(row);
                            if rows.len() == BATCH_CAPACITY {
                                let view = ScanView {
                                    rowids: std::mem::take(&mut rowids),
                                    rows: RowsRef::Gathered(std::mem::take(&mut rows)),
                                };
                                scan_chunk(ctx, filter, width, view, &mut out, &mut scanned)?;
                            }
                        }
                    }
                    if !rows.is_empty() {
                        let view =
                            ScanView { rowids, rows: RowsRef::Gathered(rows) };
                        scan_chunk(ctx, filter, width, view, &mut out, &mut scanned)?;
                    }
                }
                (None, Some((attr, key))) => {
                    let index = db.index(*attr);
                    ctx.stats.index_probes += 1;
                    let ids = index.lookup(key);
                    for chunk in ids.chunks(BATCH_CAPACITY.max(1)) {
                        let mut rowids = Vec::with_capacity(chunk.len());
                        let mut rows: Vec<&Row> = Vec::with_capacity(chunk.len());
                        for rid in chunk {
                            let row = table.get(*rid).ok_or_else(|| {
                                ExecError::Internal(format!(
                                    "index of {attr:?} points at missing row {rid:?}"
                                ))
                            })?;
                            rowids.push(Value::Int(rid.0 as i64));
                            rows.push(row);
                        }
                        let view = ScanView { rowids, rows: RowsRef::Gathered(rows) };
                        scan_chunk(ctx, filter, width, view, &mut out, &mut scanned)?;
                    }
                }
                (None, None) => {
                    // Full scan: each storage chunk is one batch-granular
                    // work item. The parallel leg charges the shared
                    // guard from the workers and merges counts into
                    // `ExecStats` in chunk order, so the produced batches
                    // (and stats, on success) match the serial loop's.
                    // Tombstoned slots are masked per chunk (`dead` is
                    // `None` on the common delete-free path), so scanned
                    // counts and output match the table's live-only
                    // iteration byte for byte.
                    let rows = table.len();
                    let dead = table.tombstones();
                    if ctx.parallelism > 1
                        && rows >= crate::pool::PARALLEL_THRESHOLD
                        && rows > BATCH_CAPACITY
                    {
                        let guard = ctx.guard;
                        let (parts, pstats) = crate::pool::morsel_map(
                            table.chunks(BATCH_CAPACITY).collect::<Vec<_>>(),
                            ctx.parallelism,
                            |_, (base, chunk)| {
                                match live_chunk_view(base, chunk, dead) {
                                    Some(view) => scan_view_guarded(guard, filter, width, view),
                                    None => Ok((None, 0, 0)),
                                }
                            },
                        );
                        ctx.note_pool(pstats);
                        for (b, n, live) in parts? {
                            ctx.stats.rows_scanned += n;
                            scanned += n;
                            ctx.stats.rows_intermediate += live;
                            out.extend(b);
                        }
                    } else {
                        for (base, chunk) in table.chunks(BATCH_CAPACITY) {
                            if let Some(view) = live_chunk_view(base, chunk, dead) {
                                scan_chunk(ctx, filter, width, view, &mut out, &mut scanned)?;
                            }
                        }
                    }
                }
            }
            if let Some(profile) = ctx.profile {
                profile.node(node).add_scanned(scanned);
            }
            Ok(out)
        }
        Plan::Values => Ok(vec![Batch::values_row()]),
        Plan::Filter { input, predicate } => {
            let batches = run_batched_node(input, db, ctx, node + 1)?;
            let live_rows: usize = batches.iter().map(Batch::live_count).sum();
            // Vectorized filter: each input batch is one work item; the
            // surviving batches reassemble in input order, so the output
            // is identical to the serial loop's.
            if ctx.parallelism > 1
                && live_rows >= crate::pool::PARALLEL_THRESHOLD
                && batches.len() > 1
            {
                let guard = ctx.guard;
                let (parts, pstats) =
                    crate::pool::morsel_map(batches, ctx.parallelism, |_, mut b| {
                        guard.check()?;
                        let sel = predicate.filter_view(&b, b.sel());
                        let live = sel.len() as u64;
                        guard.charge_intermediate(live)?;
                        if sel.is_empty() {
                            Ok::<_, ExecError>((None, live))
                        } else {
                            b.set_sel(sel);
                            Ok((Some(b), live))
                        }
                    });
                ctx.note_pool(pstats);
                let mut out = Vec::new();
                for (b, live) in parts? {
                    ctx.stats.rows_intermediate += live;
                    out.extend(b);
                }
                return Ok(out);
            }
            let mut out = Vec::with_capacity(batches.len());
            for mut b in batches {
                ctx.guard.check()?;
                let sel = predicate.filter_view(&b, b.sel());
                charge(ctx, sel.len() as u64)?;
                if !sel.is_empty() {
                    b.set_sel(sel);
                    out.push(b);
                }
            }
            Ok(out)
        }
        Plan::HashJoin { left, right, left_key, right_key } => {
            hash_join_batched(db, ctx, node, left, right, left_key, right_key)
        }
        Plan::IndexJoin { left, left_key, right_attr, residual } => {
            fail_point("exec.index_join")?;
            let index = db.index(*right_attr);
            let table = db.table(right_attr.rel);
            let right_width = db.catalog().relation(right_attr.rel).arity() + 1;
            let lbs = run_batched_node(left, db, ctx, node + 1)?;
            let Some(lw) = lbs.first().map(Batch::width) else {
                return Ok(Vec::new());
            };
            let mut sink = BatchSink::new(lw + right_width, residual.as_ref());
            let mut probes = 0u64;
            let mut keys: Vec<Value> = Vec::new();
            for b in &lbs {
                ctx.guard.check()?;
                keys.clear();
                left_key.eval_view(b, b.sel(), &mut keys);
                for (k, r) in keys.iter().zip(b.live()) {
                    if k.is_null() {
                        continue;
                    }
                    ctx.stats.index_probes += 1;
                    probes += 1;
                    for rid in index.lookup(k) {
                        let right = table.get(*rid).ok_or_else(|| {
                            ExecError::Internal(format!(
                                "index of {right_attr:?} points at missing row {rid:?}"
                            ))
                        })?;
                        sink.cur().push_probe(b, r, rid.0, right);
                        sink.note_row(ctx.guard)?;
                    }
                }
            }
            let (out, produced) = sink.finish(ctx.guard)?;
            ctx.stats.rows_intermediate += produced;
            if let Some(profile) = ctx.profile {
                profile.node(node).add_probes(probes);
            }
            Ok(out)
        }
        Plan::NestedLoop { left, right, predicate } => {
            fail_point("exec.nested_loop")?;
            let left_node = node + 1;
            let right_node = left_node + left.node_count();
            let rbs = run_batched_node(right, db, ctx, right_node)?;
            let lbs = run_batched_node(left, db, ctx, left_node)?;
            let Some(lw) = lbs.first().map(Batch::width) else {
                return Ok(Vec::new());
            };
            let rw = rbs.first().map_or(0, Batch::width);
            let mut sink = BatchSink::new(lw + rw, predicate.as_ref());
            for lb in &lbs {
                for lr in lb.live() {
                    for rb in &rbs {
                        for rr in rb.live() {
                            // polled per pair: cancellation must stop
                            // the cross product inside a single batch
                            ctx.guard.check()?;
                            sink.cur().push_concat(lb, lr, rb, rr);
                            sink.note_row(ctx.guard)?;
                        }
                    }
                }
            }
            let (out, produced) = sink.finish(ctx.guard)?;
            ctx.stats.rows_intermediate += produced;
            Ok(out)
        }
        Plan::UnionAll { inputs } => {
            let mut out = Vec::new();
            let mut child = node + 1;
            for p in inputs {
                out.extend(run_batched_node(p, db, ctx, child)?);
                child += p.node_count();
            }
            Ok(out)
        }
        Plan::Derived { query } => {
            let rows = run_compiled_batched_at(db, query, ctx, node + 1)?;
            Ok(rows_to_batches(rows))
        }
    }
}

/// Builds the scan view for one full-scan storage chunk, masking
/// tombstoned slots. With no tombstones in the chunk the view borrows
/// the slice directly (zero-copy fast path); otherwise live rows are
/// gathered with their true row ids, so downstream operators (and the
/// scanned-row counts) see exactly the rows the table's live-only
/// iteration yields. Returns `None` when every slot in the chunk is
/// dead.
fn live_chunk_view<'a>(
    base: RowId,
    chunk: &'a [Row],
    dead: Option<&[bool]>,
) -> Option<ScanView<'a>> {
    let start = base.0 as usize;
    let mask = match dead {
        Some(d) if d[start..start + chunk.len()].contains(&true) => &d[start..start + chunk.len()],
        _ => {
            let rowids: Vec<Value> =
                (0..chunk.len()).map(|i| Value::Int((base.0 + i as u64) as i64)).collect();
            return Some(ScanView { rowids, rows: RowsRef::Slice(chunk) });
        }
    };
    let mut rowids = Vec::new();
    let mut rows: Vec<&Row> = Vec::new();
    for (i, row) in chunk.iter().enumerate() {
        if !mask[i] {
            rowids.push(Value::Int((base.0 + i as u64) as i64));
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return None;
    }
    Some(ScanView { rowids, rows: RowsRef::Gathered(rows) })
}

/// One scan batch: polls the guard, counts scanned rows, evaluates the
/// pushed filter against the borrowed view, charges the survivors, and
/// materializes only them into a dense batch.
fn scan_chunk(
    ctx: &mut ExecCtx<'_>,
    filter: Option<&PhysExpr>,
    width: usize,
    view: ScanView<'_>,
    out: &mut Vec<Batch>,
    scanned: &mut u64,
) -> Result<(), ExecError> {
    let n = view.rows.len();
    if n == 0 {
        return Ok(());
    }
    ctx.guard.check()?;
    ctx.stats.rows_scanned += n as u64;
    *scanned += n as u64;
    let live = filter.map(|p| p.filter_view(&view, None));
    let live_n = live.as_ref().map_or(n, Vec::len);
    charge(ctx, live_n as u64)?;
    if live_n == 0 {
        return Ok(());
    }
    out.push(materialize_scan(&view, width, n, live.as_deref()));
    Ok(())
}

/// Worker-side variant of [`scan_chunk`] for the parallel full scan:
/// charges the shared guard directly (workers have no `ExecCtx`) and
/// returns `(batch, rows scanned, rows surviving)` so the caller can
/// merge the counts into `ExecStats` in chunk order.
fn scan_view_guarded(
    guard: &QueryGuard,
    filter: Option<&PhysExpr>,
    width: usize,
    view: ScanView<'_>,
) -> Result<(Option<Batch>, u64, u64), ExecError> {
    let n = view.rows.len();
    if n == 0 {
        return Ok((None, 0, 0));
    }
    guard.check()?;
    let live = filter.map(|p| p.filter_view(&view, None));
    let live_n = live.as_ref().map_or(n, Vec::len);
    guard.charge_intermediate(live_n as u64)?;
    if live_n == 0 {
        return Ok((None, n as u64, 0));
    }
    Ok((Some(materialize_scan(&view, width, n, live.as_deref())), n as u64, live_n as u64))
}

/// Densely materializes the surviving rows of a scan view into a batch.
fn materialize_scan(view: &ScanView<'_>, width: usize, n: usize, live: Option<&[u32]>) -> Batch {
    let live_n = live.map_or(n, <[u32]>::len);
    let mut b = Batch::with_capacity(width, live_n);
    match live {
        Some(sel) => {
            for &r in sel {
                b.push_scan_row(view, r as usize);
            }
        }
        None => {
            for r in 0..n {
                b.push_scan_row(view, r);
            }
        }
    }
    b
}

/// Batched hash join. The build table maps key → `(batch, row)` match
/// positions in global ascending order (the parallel build treats every
/// build batch as one work item and merges per-batch maps in batch
/// order). Probing walks a
/// whole batch per guard poll; the parallel probe schedules the probe
/// batches as morsels and reassembles outputs in input order, so the
/// flattened row sequence is identical to the serial one (batch
/// *boundaries* may differ — each probe batch flushes its own sink).
#[allow(clippy::too_many_arguments)]
fn hash_join_batched(
    db: &Database,
    ctx: &mut ExecCtx<'_>,
    node: usize,
    left: &Plan,
    right: &Plan,
    left_key: &PhysExpr,
    right_key: &PhysExpr,
) -> Result<Vec<Batch>, ExecError> {
    fail_point("exec.hash_join.build")?;
    let left_node = node + 1;
    let right_node = left_node + left.node_count();
    let build = run_batched_node(right, db, ctx, right_node)?;
    let build_rows: usize = build.iter().map(Batch::live_count).sum();
    let parallel = ctx.parallelism > 1;

    // --- build ------------------------------------------------------
    let table: HashMap<Value, Vec<(u32, u32)>> = if parallel
        && build_rows >= crate::pool::PARALLEL_THRESHOLD
        && build.len() > 1
    {
        let guard = ctx.guard;
        let (partials, pstats) = crate::pool::morsel_map(
            build.iter().collect::<Vec<_>>(),
            ctx.parallelism,
            |bi, b| {
                guard.check()?;
                let mut m: HashMap<Value, Vec<(u32, u32)>> = HashMap::new();
                let mut keys: Vec<Value> = Vec::new();
                right_key.eval_view(b, b.sel(), &mut keys);
                for (k, r) in keys.drain(..).zip(b.live()) {
                    if !k.is_null() {
                        m.entry(k).or_default().push((bi as u32, r as u32));
                    }
                }
                Ok::<_, ExecError>(m)
            },
        );
        ctx.note_pool(pstats);
        let mut table: HashMap<Value, Vec<(u32, u32)>> = HashMap::new();
        for m in partials? {
            for (k, v) in m {
                table.entry(k).or_default().extend(v);
            }
        }
        table
    } else {
        let mut table: HashMap<Value, Vec<(u32, u32)>> = HashMap::new();
        let mut keys: Vec<Value> = Vec::new();
        for (bi, b) in build.iter().enumerate() {
            ctx.guard.check()?;
            keys.clear();
            right_key.eval_view(b, b.sel(), &mut keys);
            for (k, r) in keys.drain(..).zip(b.live()) {
                if !k.is_null() {
                    table.entry(k).or_default().push((bi as u32, r as u32));
                }
            }
        }
        table
    };

    // --- probe ------------------------------------------------------
    let probe = run_batched_node(left, db, ctx, left_node)?;
    let Some(pw) = probe.first().map(Batch::width) else {
        return Ok(Vec::new());
    };
    let width = pw + build.first().map_or(0, Batch::width);
    let probe_rows: usize = probe.iter().map(Batch::live_count).sum();
    if parallel && probe_rows >= crate::pool::PARALLEL_THRESHOLD && probe.len() > 1 {
        let guard = ctx.guard;
        let (parts, pstats) = crate::pool::morsel_map(
            probe.iter().collect::<Vec<_>>(),
            ctx.parallelism,
            |_, b| {
                let mut sink = BatchSink::new(width, None);
                probe_batch(b, left_key, &table, &build, &mut sink, guard)?;
                sink.finish(guard)
            },
        );
        ctx.note_pool(pstats);
        let mut out = Vec::new();
        for (batches, produced) in parts? {
            ctx.stats.rows_intermediate += produced;
            out.extend(batches);
        }
        return Ok(out);
    }
    let mut sink = BatchSink::new(width, None);
    for b in &probe {
        probe_batch(b, left_key, &table, &build, &mut sink, ctx.guard)?;
    }
    let (out, produced) = sink.finish(ctx.guard)?;
    ctx.stats.rows_intermediate += produced;
    Ok(out)
}

fn probe_batch(
    b: &Batch,
    left_key: &PhysExpr,
    table: &HashMap<Value, Vec<(u32, u32)>>,
    build: &[Batch],
    sink: &mut BatchSink<'_>,
    guard: &QueryGuard,
) -> Result<(), ExecError> {
    guard.check()?;
    let mut keys: Vec<Value> = Vec::with_capacity(b.live_count());
    left_key.eval_view(b, b.sel(), &mut keys);
    for (k, r) in keys.into_iter().zip(b.live()) {
        if k.is_null() {
            continue;
        }
        if let Some(matches) = table.get(&k) {
            for &(mb, mr) in matches {
                sink.cur().push_concat(b, r, &build[mb as usize], mr as usize);
                sink.note_row(guard)?;
            }
        }
    }
    Ok(())
}

/// The engine's query driver: branches → aggregation → having →
/// projection → distinct → ORDER BY/LIMIT. Aggregation runs the
/// row-shaped `AggSpec::run` over flattened batches — grouping is not on
/// the hot path this engine optimizes. Uncorrelated `IN` sub-queries
/// re-enter here at plan time with a serial context.
pub(crate) fn run_compiled_batched_at(
    db: &Database,
    compiled: &CompiledQuery,
    ctx: &mut ExecCtx<'_>,
    base: usize,
) -> Result<Vec<Row>, ExecError> {
    let src_exprs = source_key_exprs(compiled);
    let keep_source = compiled.branches.len() == 1 && !src_exprs.is_empty();
    let mut rows: Vec<Row> = Vec::new();
    let mut skeys: Vec<Vec<Value>> = vec![Vec::new(); src_exprs.len()];
    let mut branch_base = base;
    for branch in &compiled.branches {
        let batches = run_batched_node(&branch.plan, db, ctx, branch_base)?;
        branch_base += branch.plan.node_count();
        let mut branch_rows: Vec<Row>;
        match &branch.agg {
            Some(agg) => {
                let input = batches_to_rows(batches);
                let mut inter = agg.spec.run(input);
                ctx.stats.rows_intermediate += inter.len() as u64;
                ctx.guard.charge_intermediate(inter.len() as u64)?;
                if let Some(h) = &agg.having {
                    inter.retain(|r| h.eval_bool(r));
                }
                branch_rows = Vec::with_capacity(inter.len());
                for src in &inter {
                    branch_rows.push(branch.project.iter().map(|p| p.eval(src)).collect());
                    if keep_source {
                        for (j, e) in src_exprs.iter().enumerate() {
                            skeys[j].push(e.eval(src));
                        }
                    }
                }
            }
            None => {
                let n: usize = batches.iter().map(Batch::live_count).sum();
                branch_rows = Vec::with_capacity(n);
                for b in &batches {
                    for r in b.live() {
                        branch_rows
                            .push(branch.project.iter().map(|p| p.eval_at(b, r)).collect());
                        if keep_source {
                            for (j, e) in src_exprs.iter().enumerate() {
                                skeys[j].push(e.eval_at(b, r));
                            }
                        }
                    }
                }
            }
        }
        if branch.distinct {
            // First-occurrence dedup without cloning rows into a set: a
            // hash → kept-row-indices index compares candidates in place.
            // DISTINCT-heavy PPA probe queries run this over every result
            // row, so the per-row clone the obvious `HashSet<Row>` costs
            // is worth avoiding.
            let mut index: HashMap<u64, Vec<u32>> = HashMap::with_capacity(branch_rows.len());
            let mut keep = 0usize;
            for i in 0..branch_rows.len() {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                branch_rows[i].hash(&mut h);
                let bucket = index.entry(h.finish()).or_default();
                if bucket.iter().any(|&j| branch_rows[j as usize] == branch_rows[i]) {
                    continue;
                }
                bucket.push(keep as u32);
                branch_rows.swap(keep, i);
                keep += 1;
            }
            branch_rows.truncate(keep);
        }
        rows.extend(branch_rows);
    }
    Ok(sort_and_limit(compiled, rows, skeys))
}

/// The ORDER BY Source-key expressions, in key order.
fn source_key_exprs(compiled: &CompiledQuery) -> Vec<&PhysExpr> {
    compiled
        .order
        .iter()
        .filter_map(|k| match &k.source {
            KeySource::Source(e) => Some(e),
            KeySource::Output(_) => None,
        })
        .collect()
}

/// Final stage: ORDER BY + LIMIT over projected rows. `skeys` holds one
/// extracted column per Source order key (see [`source_key_exprs`]);
/// Output keys read the projected rows directly. Sorts a permutation of
/// row indices — keys are compared by reference, so no `Value` is cloned
/// per row — with the deterministic tie-break on original row position,
/// then reorders once.
fn sort_and_limit(compiled: &CompiledQuery, mut rows: Vec<Row>, mut skeys: Vec<Vec<Value>>) -> Vec<Row> {
    if !compiled.order.is_empty() && rows.len() > 1 {
        // Pad short source-key columns with NULLs (multi-branch queries
        // never retain sources; the planner rejects DISTINCT + Source
        // keys, so on the retained path lengths already match).
        for col in &mut skeys {
            col.resize(rows.len(), Value::Null);
        }
        enum KeyCol {
            Out(usize),
            Src(usize),
        }
        let mut cols = Vec::with_capacity(compiled.order.len());
        let mut s = 0usize;
        for k in &compiled.order {
            match &k.source {
                KeySource::Output(c) => cols.push(KeyCol::Out(*c)),
                KeySource::Source(_) => {
                    cols.push(KeyCol::Src(s));
                    s += 1;
                }
            }
        }
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_unstable_by(|&a, &b| {
            for (kc, spec) in cols.iter().zip(&compiled.order) {
                let (va, vb) = match kc {
                    KeyCol::Out(c) => (&rows[a][*c], &rows[b][*c]),
                    KeyCol::Src(j) => (&skeys[*j][a], &skeys[*j][b]),
                };
                let ord = va.total_cmp(vb);
                let ord = if spec.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b) // stable tie-break on original position
        });
        let mut reordered = Vec::with_capacity(rows.len());
        for &i in &idx {
            reordered.push(std::mem::take(&mut rows[i]));
        }
        rows = reordered;
    }
    if let Some(n) = compiled.limit {
        rows.truncate(n as usize);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sel_normalizes_full_selection() {
        let mut b = Batch::with_capacity(1, 4);
        for i in 0..3 {
            b.cols[0].push(Value::Int(i));
            b.rows += 1;
        }
        b.set_sel(vec![0, 1, 2]);
        assert!(b.sel().is_none(), "full selection should normalize to dense");
        b.set_sel(vec![0, 2]);
        assert_eq!(b.sel(), Some(&[0u32, 2][..]));
        assert_eq!(b.live().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(b.live_count(), 2);
    }

    #[test]
    fn rows_to_batches_round_trips() {
        let rows: Vec<Row> =
            (0..2500).map(|i| vec![Value::Int(i), Value::Float(i as f64)]).collect();
        let batches = rows_to_batches(rows.clone());
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), BATCH_CAPACITY);
        assert_eq!(batches_to_rows(batches), rows);
    }
}
