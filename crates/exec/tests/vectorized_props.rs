//! Engine-vs-oracle parity: the vectorized engine and the serial
//! row-at-a-time reference interpreter (`support/row_oracle.rs`) must
//! produce **byte-identical** result sets — same columns, same rows, same
//! row order — on arbitrary SPJ queries, serial and parallel.
//! Set-equality is not enough: downstream consumers (PPA's
//! first-row-per-tuple materializations, LIMIT, the resilience snapshots)
//! depend on row order, so the property compares whole
//! [`qp_exec::ResultSet`]s.

mod support;

use proptest::prelude::*;
use qp_exec::Engine;
use qp_storage::{Attribute, DataType, Database, Value};

use support::row_oracle;

/// T(a, b, c) with NULLs in `a`, plus S(k, v) keyed on `k` so equi-joins
/// against S can take the index path.
fn build_db(t_rows: &[(Option<i64>, i64, i64)], s_rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_relation(
        "T",
        vec![
            Attribute::new("a", DataType::Int),
            Attribute::new("b", DataType::Int),
            Attribute::new("c", DataType::Int),
        ],
        &[],
    )
    .unwrap();
    db.create_relation(
        "S",
        vec![Attribute::new("k", DataType::Int), Attribute::new("v", DataType::Int)],
        &["k"],
    )
    .unwrap();
    for (a, b, c) in t_rows {
        db.insert_by_name(
            "T",
            vec![a.map(Value::Int).unwrap_or(Value::Null), Value::Int(*b), Value::Int(*c)],
        )
        .unwrap();
    }
    for (k, v) in s_rows {
        db.insert_by_name("S", vec![Value::Int(*k), Value::Int(*v)]).unwrap();
    }
    db
}

/// Executes `sql` on the vectorized engine (at the given parallelism) and
/// on the row oracle, asserting byte-identical result sets.
fn assert_parity(db: &Database, sql: &str, parallelism: usize) -> Result<(), String> {
    let mut engine = Engine::new();
    engine.set_parallelism(parallelism);
    let got = engine.execute_sql(db, sql).unwrap_or_else(|e| panic!("engine: {sql}: {e}"));
    prop_assert_eq!(got, row_oracle::execute_sql(db, sql), "engine and oracle diverge on: {}", sql);
    Ok(())
}

#[derive(Debug, Clone)]
enum Pred {
    Cmp(&'static str, &'static str, i64),
    Between(&'static str, i64, i64, bool),
    InList(&'static str, Vec<i64>, bool),
    IsNull(&'static str, bool),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    fn to_sql(&self, binding: &str) -> String {
        match self {
            Pred::Cmp(c, op, v) => format!("{binding}{c} {op} {v}"),
            Pred::Between(c, lo, hi, neg) => {
                format!("{binding}{c} {}BETWEEN {lo} AND {hi}", if *neg { "NOT " } else { "" })
            }
            Pred::InList(c, vs, neg) => format!(
                "{binding}{c} {}IN ({})",
                if *neg { "NOT " } else { "" },
                vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
            ),
            Pred::IsNull(c, neg) => {
                format!("{binding}{c} IS {}NULL", if *neg { "NOT " } else { "" })
            }
            Pred::And(l, r) => format!("({}) AND ({})", l.to_sql(binding), r.to_sql(binding)),
            Pred::Or(l, r) => format!("({}) OR ({})", l.to_sql(binding), r.to_sql(binding)),
            Pred::Not(p) => format!("NOT ({})", p.to_sql(binding)),
        }
    }
}

fn arb_col() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c")]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        (
            arb_col(),
            prop_oneof![Just("="), Just("<>"), Just("<"), Just("<="), Just(">"), Just(">=")],
            -10i64..10
        )
            .prop_map(|(c, op, v)| Pred::Cmp(c, op, v)),
        (arb_col(), -10i64..10, 0i64..10, any::<bool>())
            .prop_map(|(c, lo, w, neg)| Pred::Between(c, lo, lo + w, neg)),
        (arb_col(), prop::collection::vec(-10i64..10, 1..4), any::<bool>())
            .prop_map(|(c, vs, neg)| Pred::InList(c, vs, neg)),
        (arb_col(), any::<bool>()).prop_map(|(c, neg)| Pred::IsNull(c, neg)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::Or(Box::new(l), Box::new(r))),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

/// One SPJ query shape; the predicate is shared so every shape sees the
/// same filter structure.
#[derive(Debug, Clone)]
enum Shape {
    Filter,
    Distinct,
    OrderLimit(u64),
    IndexJoin,
    HashJoin(i64),
    GroupBy,
    UnionAll,
}

impl Shape {
    fn to_sql(&self, pred: &Pred) -> String {
        match self {
            Shape::Filter => format!("select b, c from T where {}", pred.to_sql("")),
            Shape::Distinct => format!("select distinct b from T where {}", pred.to_sql("")),
            Shape::OrderLimit(n) => format!(
                "select b, c from T where {} order by b desc, c limit {n}",
                pred.to_sql("")
            ),
            Shape::IndexJoin => format!(
                "select T.b, S.v from T, S where T.a = S.k and ({})",
                pred.to_sql("T.")
            ),
            Shape::HashJoin(m) => format!(
                "select T.b, G.v from T, (select k, v from S where v >= {m}) G \
                 where T.b = G.k and ({})",
                pred.to_sql("T.")
            ),
            Shape::GroupBy => {
                format!("select b, count(*) from T where {} group by b order by b", pred.to_sql(""))
            }
            Shape::UnionAll => format!(
                "select b from T where {} union all select c from T where {}",
                pred.to_sql(""),
                pred.to_sql("")
            ),
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Filter),
        Just(Shape::Distinct),
        (0u64..20).prop_map(Shape::OrderLimit),
        Just(Shape::IndexJoin),
        (-10i64..10).prop_map(Shape::HashJoin),
        Just(Shape::GroupBy),
        Just(Shape::UnionAll),
    ]
}

fn arb_t_rows() -> impl Strategy<Value = Vec<(Option<i64>, i64, i64)>> {
    prop::collection::vec(
        (proptest::option::weighted(0.85, -10i64..10), -10i64..10, -10i64..10),
        0..60,
    )
}

fn arb_s_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    // keys must be unique (primary key on S.k)
    prop::collection::vec((-10i64..10, -10i64..10), 0..15).prop_map(|pairs| {
        let m: std::collections::BTreeMap<i64, i64> = pairs.into_iter().collect();
        m.into_iter().collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn batch_row_parity_serial(
        t_rows in arb_t_rows(),
        s_rows in arb_s_rows(),
        shape in arb_shape(),
        pred in arb_pred(),
    ) {
        let db = build_db(&t_rows, &s_rows);
        assert_parity(&db, &shape.to_sql(&pred), 1)?;
    }

    #[test]
    fn batch_row_parity_parallel(
        t_rows in arb_t_rows(),
        s_rows in arb_s_rows(),
        shape in arb_shape(),
        pred in arb_pred(),
    ) {
        let db = build_db(&t_rows, &s_rows);
        assert_parity(&db, &shape.to_sql(&pred), 4)?;
    }
}

/// Deterministic parity across multiple full batches plus a partial tail:
/// 3000 rows spans two full 1024-row batches and a ragged third, so scan
/// chunking, selection-vector refinement, join probing and the shared
/// sort/limit tail all cross batch boundaries.
#[test]
fn parity_across_batch_boundaries() {
    let t_rows: Vec<(Option<i64>, i64, i64)> = (0..3000)
        .map(|i| {
            let a = if i % 7 == 0 { None } else { Some(i % 23 - 11) };
            (a, i % 17 - 8, i % 13 - 6)
        })
        .collect();
    let s_rows: Vec<(i64, i64)> = (-8..9).map(|k| (k, k * 3 % 5)).collect();
    let db = build_db(&t_rows, &s_rows);
    for parallelism in [1, 4] {
        for sql in [
            "select b, c from T where b > 0 and c <= 3",
            "select T.b, G.v from T, (select k, v from S where v >= 0) G \
             where T.b = G.k and T.c < 4",
            "select T.b, S.v from T, S where T.a = S.k and T.b <> 2",
            "select distinct b, c from T where a is not null order by b, c limit 40",
        ] {
            let mut engine = Engine::new();
            engine.set_parallelism(parallelism);
            let got = engine.execute_sql(&db, sql).unwrap();
            assert_eq!(got, row_oracle::execute_sql(&db, sql), "parallelism {parallelism}, sql: {sql}");
        }
    }
}
