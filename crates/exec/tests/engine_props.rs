//! Property tests for the execution engine: random predicates and
//! aggregations are checked against a naive in-Rust reference evaluation
//! over the same data.

mod support;

use proptest::prelude::*;
use qp_exec::Engine;
use qp_storage::{Attribute, DataType, Database, Value};

use support::row_oracle;

/// A small table of integers with some NULLs: T(a, b, c).
fn build_db(rows: &[(Option<i64>, i64, i64)]) -> Database {
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
    for (a, b, c) in rows {
        db.insert_by_name(
            "T",
            vec![
                a.map(Value::Int).unwrap_or(Value::Null),
                Value::Int(*b),
                Value::Int(*c),
            ],
        )
        .unwrap();
    }
    db
}

#[derive(Debug, Clone)]
enum Pred {
    Cmp(&'static str, &'static str, i64), // col op lit
    Between(&'static str, i64, i64, bool),
    InList(&'static str, Vec<i64>, bool),
    IsNull(&'static str, bool),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    fn to_sql(&self) -> String {
        match self {
            Pred::Cmp(c, op, v) => format!("{c} {op} {v}"),
            Pred::Between(c, lo, hi, neg) => {
                format!("{c} {}BETWEEN {lo} AND {hi}", if *neg { "NOT " } else { "" })
            }
            Pred::InList(c, vs, neg) => format!(
                "{c} {}IN ({})",
                if *neg { "NOT " } else { "" },
                vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
            ),
            Pred::IsNull(c, neg) => {
                format!("{c} IS {}NULL", if *neg { "NOT " } else { "" })
            }
            Pred::And(l, r) => format!("({}) AND ({})", l.to_sql(), r.to_sql()),
            Pred::Or(l, r) => format!("({}) OR ({})", l.to_sql(), r.to_sql()),
            Pred::Not(p) => format!("NOT ({})", p.to_sql()),
        }
    }

    /// Three-valued reference evaluation.
    fn eval(&self, row: &(Option<i64>, i64, i64)) -> Option<bool> {
        let col = |c: &str| -> Option<i64> {
            match c {
                "a" => row.0,
                "b" => Some(row.1),
                _ => Some(row.2),
            }
        };
        match self {
            Pred::Cmp(c, op, v) => {
                let x = col(c)?;
                Some(match *op {
                    "=" => x == *v,
                    "<>" => x != *v,
                    "<" => x < *v,
                    "<=" => x <= *v,
                    ">" => x > *v,
                    _ => x >= *v,
                })
            }
            Pred::Between(c, lo, hi, neg) => {
                let x = col(c)?;
                let r = x >= *lo && x <= *hi;
                Some(r != *neg)
            }
            Pred::InList(c, vs, neg) => {
                let x = col(c)?;
                let r = vs.contains(&x);
                Some(r != *neg)
            }
            Pred::IsNull(c, neg) => Some((col(c).is_none()) != *neg),
            Pred::And(l, r) => match (l.eval(row), r.eval(row)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Pred::Or(l, r) => match (l.eval(row), r.eval(row)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Pred::Not(p) => p.eval(row).map(|b| !b),
        }
    }
}

fn arb_col() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c")]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        (arb_col(), prop_oneof![Just("="), Just("<>"), Just("<"), Just("<="), Just(">"), Just(">=")], -10i64..10)
            .prop_map(|(c, op, v)| Pred::Cmp(c, op, v)),
        (arb_col(), -10i64..10, 0i64..10, any::<bool>())
            .prop_map(|(c, lo, w, neg)| Pred::Between(c, lo, lo + w, neg)),
        (arb_col(), prop::collection::vec(-10i64..10, 1..4), any::<bool>())
            .prop_map(|(c, vs, neg)| Pred::InList(c, vs, neg)),
        (arb_col(), any::<bool>()).prop_map(|(c, neg)| Pred::IsNull(c, neg)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Pred::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Pred::Or(Box::new(l), Box::new(r))),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

fn arb_rows() -> impl Strategy<Value = Vec<(Option<i64>, i64, i64)>> {
    prop::collection::vec(
        (proptest::option::weighted(0.85, -10i64..10), -10i64..10, -10i64..10),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn filters_match_reference(rows in arb_rows(), pred in arb_pred()) {
        let db = build_db(&rows);
        let engine = Engine::new();
        let sql = format!("select b from T where {}", pred.to_sql());
        let rs = engine.execute_sql(&db, &sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut got: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        let mut expect: Vec<i64> = rows
            .iter()
            .filter(|r| pred.eval(r) == Some(true))
            .map(|r| r.1)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect, "sql: {}", sql);
    }

    #[test]
    fn aggregates_match_reference(rows in arb_rows()) {
        let db = build_db(&rows);
        let engine = Engine::new();
        let rs = engine
            .execute_sql(&db, "select count(*), count(a), sum(b), min(c), max(c) from T")
            .unwrap();
        let row = &rs.rows[0];
        prop_assert_eq!(row[0].as_i64().unwrap(), rows.len() as i64);
        prop_assert_eq!(row[1].as_i64().unwrap(), rows.iter().filter(|r| r.0.is_some()).count() as i64);
        if rows.is_empty() {
            prop_assert!(row[2].is_null());
            prop_assert!(row[3].is_null());
        } else {
            prop_assert_eq!(row[2].as_i64().unwrap(), rows.iter().map(|r| r.1).sum::<i64>());
            prop_assert_eq!(row[3].as_i64().unwrap(), rows.iter().map(|r| r.2).min().unwrap());
            prop_assert_eq!(row[4].as_i64().unwrap(), rows.iter().map(|r| r.2).max().unwrap());
        }
    }

    #[test]
    fn group_by_matches_reference(rows in arb_rows()) {
        let db = build_db(&rows);
        let engine = Engine::new();
        let rs = engine
            .execute_sql(&db, "select b, count(*) from T group by b order by b")
            .unwrap();
        let mut expect: std::collections::BTreeMap<i64, i64> = Default::default();
        for r in &rows {
            *expect.entry(r.1).or_insert(0) += 1;
        }
        let got: Vec<(i64, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        let expect: Vec<(i64, i64)> = expect.into_iter().collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn order_by_sorts(rows in arb_rows()) {
        let db = build_db(&rows);
        let engine = Engine::new();
        let rs = engine.execute_sql(&db, "select b from T order by b desc").unwrap();
        let got: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        let mut expect: Vec<i64> = rows.iter().map(|r| r.1).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn distinct_and_limit(rows in arb_rows(), n in 0u64..20) {
        let db = build_db(&rows);
        let engine = Engine::new();
        let rs = engine
            .execute_sql(&db, &format!("select distinct b from T order by b limit {n}"))
            .unwrap();
        let mut expect: Vec<i64> = rows.iter().map(|r| r.1).collect();
        expect.sort_unstable();
        expect.dedup();
        expect.truncate(n as usize);
        let got: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn tombstoned_rows_invisible_row_and_batch(
        rows in arb_rows(),
        pred in arb_pred(),
        dead_mask in prop::collection::vec(any::<bool>(), 0..60),
    ) {
        let mut db = build_db(&rows);
        let rel = db.catalog().relation_by_name("T").unwrap().id;
        let mut live: Vec<(Option<i64>, i64, i64)> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            if dead_mask.get(i).copied().unwrap_or(false) {
                let tuple = vec![
                    r.0.map(Value::Int).unwrap_or(Value::Null),
                    Value::Int(r.1),
                    Value::Int(r.2),
                ];
                db.delete(rel, &tuple).unwrap();
            }
        }
        // `delete` is value-addressed: with duplicate tuples it may
        // tombstone a different slot than `i`, so recompute the live
        // multiset from the table itself.
        for (_, row) in db.table(rel).iter() {
            live.push((row[0].as_i64(), row[1].as_i64().unwrap(), row[2].as_i64().unwrap()));
        }
        let sql = format!("select b from T where {}", pred.to_sql());
        let batch = Engine::new().execute_sql(&db, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert_eq!(&batch, &row_oracle::execute_sql(&db, &sql), "oracle parity under tombstones: {}", sql);
        let mut got: Vec<i64> = batch.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        let mut expect: Vec<i64> = live
            .iter()
            .filter(|r| pred.eval(r) == Some(true))
            .map(|r| r.1)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect, "sql: {}", sql);
    }

    #[test]
    fn not_in_subquery_matches_reference(
        rows in arb_rows(),
        threshold in -10i64..10,
    ) {
        let db = build_db(&rows);
        let engine = Engine::new();
        let sql = format!(
            "select b from T where b not in (select b from T where c > {threshold})"
        );
        let rs = engine.execute_sql(&db, &sql).unwrap();
        let excluded: std::collections::HashSet<i64> =
            rows.iter().filter(|r| r.2 > threshold).map(|r| r.1).collect();
        let mut expect: Vec<i64> =
            rows.iter().map(|r| r.1).filter(|b| !excluded.contains(b)).collect();
        let mut got: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
