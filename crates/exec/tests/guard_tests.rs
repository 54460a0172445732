//! Integration tests for [`qp_exec::QueryGuard`]: budgets, deadlines,
//! cancellation, and (feature-gated) injected faults observed through the
//! public engine API.

use std::time::Duration;

use qp_exec::{CancelToken, Engine, ExecError, QueryGuard, ResourceKind};
// Every test holds a `FailScenario` (a no-op without the `failpoints`
// feature): failpoints are process-global, so a sibling's armed fault
// must not fire inside a test that expects a clean run.
use qp_exec::failpoint::FailScenario;
use qp_sql::parse_query;
use qp_storage::{Attribute, DataType, Database, Value};

/// A single table with `n` rows: T(id, grp).
fn table_db(n: i64) -> Database {
    let mut db = Database::new();
    db.create_relation(
        "T",
        vec![Attribute::new("id", DataType::Int), Attribute::new("grp", DataType::Int)],
        &["id"],
    )
    .unwrap();
    for i in 0..n {
        db.insert_by_name("T", vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
    }
    db
}

fn run(db: &Database, sql: &str, guard: &QueryGuard) -> Result<usize, ExecError> {
    let engine = Engine::new();
    let query = parse_query(sql).unwrap();
    engine.execute_with_guard(db, &query, guard).map(|(rs, _)| rs.len())
}

#[test]
fn output_budget_trips_on_excess_rows() {
    let _s = FailScenario::setup();
    let db = table_db(10);
    let guard = QueryGuard::builder().max_output_rows(3).build();
    let err = run(&db, "select id from T", &guard).unwrap_err();
    assert_eq!(
        err,
        ExecError::ResourceExhausted { resource: ResourceKind::OutputRows, limit: 3 }
    );
}

#[test]
fn output_budget_admits_exact_fit() {
    let _s = FailScenario::setup();
    let db = table_db(10);
    let guard = QueryGuard::builder().max_output_rows(10).build();
    assert_eq!(run(&db, "select id from T", &guard).unwrap(), 10);
}

#[test]
fn intermediate_budget_bounds_cross_product() {
    let _s = FailScenario::setup();
    let db = table_db(20);
    // 20×20 cross product materializes 400 join rows (plus scan outputs);
    // a 50-row intermediate budget must stop it.
    let guard = QueryGuard::builder().max_intermediate_rows(50).build();
    let err = run(&db, "select A.id, B.id from T A, T B", &guard).unwrap_err();
    assert_eq!(
        err,
        ExecError::ResourceExhausted { resource: ResourceKind::IntermediateRows, limit: 50 }
    );
}

#[test]
fn intermediate_overshoot_bounded_by_one_batch() {
    let _s = FailScenario::setup();
    // The vectorized engine charges the intermediate budget once per batch
    // flush rather than per row, so a tripped guard may have admitted the
    // rows of the batch that crossed the line — but never more. Pin the
    // worst-case overshoot to one batch capacity so a future regression
    // to coarser charging (per operator, per query) fails loudly.
    let db = table_db(200);
    let budget = 50u64;
    let guard = QueryGuard::builder().max_intermediate_rows(budget).build();
    // 200×200 cross product: 40 000 join rows dwarf the 50-row budget.
    let err = run(&db, "select A.id, B.id from T A, T B", &guard).unwrap_err();
    assert_eq!(
        err,
        ExecError::ResourceExhausted { resource: ResourceKind::IntermediateRows, limit: budget }
    );
    let spent = guard.intermediate_rows();
    assert!(
        spent <= budget + qp_exec::BATCH_CAPACITY as u64,
        "guard admitted {spent} intermediate rows against a budget of {budget}: \
         overshoot exceeds one batch ({})",
        qp_exec::BATCH_CAPACITY
    );
}

#[test]
fn cancellation_stops_nested_loop_mid_batch() {
    let _s = FailScenario::setup();
    let db = table_db(30);
    let token = CancelToken::new();
    token.cancel();
    let guard = QueryGuard::builder().cancel_token(token).build();
    // The guard is polled per joined pair, so a pre-flipped token stops
    // the 900-pair cross loop without finishing even one batch.
    let err = run(&db, "select A.id, B.id from T A, T B", &guard).unwrap_err();
    assert_eq!(err, ExecError::Cancelled);
}

#[test]
fn expired_deadline_trips() {
    let _s = FailScenario::setup();
    let db = table_db(200);
    let guard = QueryGuard::builder().deadline(Duration::ZERO).build();
    let err = run(&db, "select A.id, B.id from T A, T B", &guard).unwrap_err();
    match err {
        ExecError::ResourceExhausted { resource: ResourceKind::Deadline, .. } => {}
        other => panic!("expected a deadline trip, got {other:?}"),
    }
}

#[test]
fn unlimited_guard_changes_nothing() {
    let _s = FailScenario::setup();
    let db = table_db(10);
    assert_eq!(run(&db, "select A.id, B.id from T A, T B", &QueryGuard::unlimited()).unwrap(), 100);
}

#[test]
fn budgets_are_shared_across_clones() {
    let _s = FailScenario::setup();
    let db = table_db(4);
    let guard = QueryGuard::builder().max_output_rows(6).build();
    let clone = guard.clone();
    assert_eq!(run(&db, "select id from T", &guard).unwrap(), 4);
    // the clone draws from the same pool: only 2 of the budgeted 6 remain
    let err = run(&db, "select id from T", &clone).unwrap_err();
    assert_eq!(
        err,
        ExecError::ResourceExhausted { resource: ResourceKind::OutputRows, limit: 6 }
    );
}

#[test]
fn fresh_attempt_restores_row_budgets() {
    let _s = FailScenario::setup();
    let db = table_db(4);
    let guard = QueryGuard::builder().max_output_rows(4).build();
    assert_eq!(run(&db, "select id from T", &guard).unwrap(), 4);
    assert!(run(&db, "select id from T", &guard).is_err());
    assert_eq!(run(&db, "select id from T", &guard.fresh_attempt()).unwrap(), 4);
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use qp_exec::failpoint::{self, FailAction, FailScenario};

    #[test]
    fn armed_scan_surfaces_as_typed_fault() {
        let _s = FailScenario::setup();
        let db = table_db(5);
        failpoint::arm("exec.scan", FailAction::Error("scan died".into()));
        let err = run(&db, "select id from T", &QueryGuard::unlimited()).unwrap_err();
        assert_eq!(err, ExecError::Fault("scan died".to_string()));
    }

    #[test]
    fn armed_join_build_side_fails_joins_only() {
        let _s = FailScenario::setup();
        let db = table_db(5);
        failpoint::arm("exec.nested_loop", FailAction::Error("loop died".into()));
        // the cross join passes the armed site...
        let err =
            run(&db, "select A.id, B.id from T A, T B", &QueryGuard::unlimited()).unwrap_err();
        assert_eq!(err, ExecError::Fault("loop died".to_string()));
        // ...a plain scan does not
        assert_eq!(run(&db, "select id from T", &QueryGuard::unlimited()).unwrap(), 5);
    }

    #[test]
    fn error_after_lets_early_passes_through() {
        let _s = FailScenario::setup();
        let db = table_db(3);
        failpoint::arm("exec.scan", FailAction::ErrorAfter { skip: 2, message: "third".into() });
        assert!(run(&db, "select id from T", &QueryGuard::unlimited()).is_ok());
        assert!(run(&db, "select id from T", &QueryGuard::unlimited()).is_ok());
        let err = run(&db, "select id from T", &QueryGuard::unlimited()).unwrap_err();
        assert_eq!(err, ExecError::Fault("third".to_string()));
    }

    #[test]
    fn storage_insert_site_maps_to_storage_error() {
        let _s = FailScenario::setup();
        let mut db = table_db(1);
        failpoint::arm("storage.insert", FailAction::Error("disk full".into()));
        let err = db.insert_by_name("T", vec![Value::Int(99), Value::Int(0)]).unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }
}
