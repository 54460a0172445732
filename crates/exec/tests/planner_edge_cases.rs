//! Planner and executor edge cases beyond the core engine tests:
//! join-order independence, cross joins with late filters, unions with
//! ordering, scalar functions in predicates, and limit/offset-like
//! interactions.

use qp_exec::{Engine, FunctionRegistry};
use qp_storage::{Attribute, DataType, Database, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "A",
        vec![Attribute::new("id", DataType::Int), Attribute::new("x", DataType::Int)],
        &["id"],
    )
    .unwrap();
    db.create_relation(
        "B",
        vec![Attribute::new("id", DataType::Int), Attribute::new("y", DataType::Int)],
        &["id"],
    )
    .unwrap();
    db.create_relation(
        "C",
        vec![Attribute::new("id", DataType::Int), Attribute::new("z", DataType::Int)],
        &["id"],
    )
    .unwrap();
    for i in 0..20i64 {
        db.insert_by_name("A", vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        db.insert_by_name("B", vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        db.insert_by_name("C", vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
    }
    db
}

#[test]
fn join_chain_all_orders_agree() {
    let db = db();
    let e = Engine::new();
    let expected = 20;
    for sql in [
        "select A.id from A, B, C where A.id = B.id and B.id = C.id",
        "select A.id from C, B, A where A.id = B.id and B.id = C.id",
        "select A.id from B, C, A where B.id = C.id and A.id = B.id",
        "select A.id from A, C, B where C.id = A.id and B.id = C.id",
    ] {
        let rs = e.execute_sql(&db, sql).unwrap();
        assert_eq!(rs.len(), expected, "{sql}");
    }
}

#[test]
fn join_condition_spanning_three_tables_as_residual() {
    let db = db();
    let e = Engine::new();
    // x + y = z is not an equi-join edge: becomes a residual filter over
    // the cross/join product
    let rs = e
        .execute_sql(
            &db,
            "select A.id from A, B, C where A.id = B.id and B.id = C.id and A.x + B.y = C.z",
        )
        .unwrap();
    // verify against manual computation
    let expect = (0..20i64).filter(|i| (i % 5) + (i % 3) == i % 7).count();
    assert_eq!(rs.len(), expect);
}

#[test]
fn cross_join_then_filter() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select A.id, B.id from A, B where A.x = 0 and B.y = 0")
        .unwrap();
    // 4 rows with x=0 (ids 0,5,10,15), 7 rows with y=0 (0,3,..18)
    assert_eq!(rs.len(), 4 * 7);
}

#[test]
fn union_with_order_and_limit() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(
            &db,
            "select id n from A where id < 3 union all select id from B where id < 2 \
             order by n desc limit 3",
        )
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![2, 1, 1]);
}

#[test]
fn union_order_by_position() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select x from A where id < 4 union all select y from B where id < 2 order by 1")
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    let mut expect = vec![0i64, 1, 2, 3, 0, 1];
    expect.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn scalar_udf_in_where_clause() {
    let db = db();
    let mut functions = FunctionRegistry::new();
    functions.register_scalar("half", |args: &[Value]| {
        args.first().and_then(Value::as_f64).map(|x| Value::Float(x / 2.0)).unwrap_or(Value::Null)
    });
    let e = Engine::with_functions(functions);
    let rs = e.execute_sql(&db, "select id from A where half(id) >= 9").unwrap();
    assert_eq!(rs.len(), 2); // ids 18, 19
}

#[test]
fn aggregate_of_expression_and_expression_of_aggregate() {
    let db = db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select sum(x + 1) from A").unwrap();
    let expect: i64 = (0..20).map(|i| i % 5 + 1).sum();
    assert_eq!(rs.rows[0][0], Value::Int(expect));
    let rs = e.execute_sql(&db, "select count(*) * 2 + 1 from A").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(41));
}

#[test]
fn group_by_expression() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select x * 2, count(*) from A group by x * 2 order by 1")
        .unwrap();
    assert_eq!(rs.len(), 5);
    assert_eq!(rs.rows[0][0], Value::Int(0));
    assert_eq!(rs.rows[0][1], Value::Int(4));
}

#[test]
fn having_on_aggregate_not_in_select() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select x from A group by x having sum(id) > 30 order by x")
        .unwrap();
    // per x group: ids {x, x+5, x+10, x+15}, sum = 4x + 30 → > 30 means x ≥ 1
    assert_eq!(rs.len(), 4);
    assert_eq!(rs.rows[0][0], Value::Int(1));
}

#[test]
fn in_subquery_over_join() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(
            &db,
            "select id from A where id in (select B.id from B, C where B.id = C.id and C.z = 0)",
        )
        .unwrap();
    // C.z = 0 → ids 0, 7, 14
    assert_eq!(rs.len(), 3);
}

#[test]
fn limit_zero_and_overlarge() {
    let db = db();
    let e = Engine::new();
    assert_eq!(e.execute_sql(&db, "select id from A limit 0").unwrap().len(), 0);
    assert_eq!(e.execute_sql(&db, "select id from A limit 999").unwrap().len(), 20);
}

#[test]
fn empty_table_behaviour() {
    let mut db = db();
    db.create_relation("EMPTY", vec![Attribute::new("v", DataType::Int)], &[]).unwrap();
    let e = Engine::new();
    assert_eq!(e.execute_sql(&db, "select v from EMPTY").unwrap().len(), 0);
    assert_eq!(
        e.execute_sql(&db, "select A.id from A, EMPTY where A.id = EMPTY.v").unwrap().len(),
        0
    );
    let rs = e.execute_sql(&db, "select count(*), max(v) from EMPTY").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(0));
    assert!(rs.rows[0][1].is_null());
}

#[test]
fn self_join_via_aliases() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(
            &db,
            "select a1.id, a2.id from A a1, A a2 where a1.x = a2.x and a1.id < a2.id",
        )
        .unwrap();
    // 5 groups of 4 ids sharing x: C(4,2) = 6 pairs each
    assert_eq!(rs.len(), 5 * 6);
}

#[test]
fn order_by_multiple_keys_mixed_direction() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select x, id from A order by x desc, id limit 5")
        .unwrap();
    let got: Vec<(i64, i64)> = rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(got, vec![(4, 4), (4, 9), (4, 14), (4, 19), (3, 3)]);
}

#[test]
fn rowid_in_projection_and_filter_combined() {
    let db = db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select A.rowid, A.id from A where A.rowid between 5 and 7 order by 1")
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows[0][0], Value::Int(5));
}
