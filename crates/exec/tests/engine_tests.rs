//! End-to-end tests for the execution engine on a small movies database
//! shaped like the paper's schema (§3).

use std::sync::Arc;

use qp_exec::{AggState, Engine, ExecError, FunctionRegistry};
use qp_storage::{Attribute, DataType, Database, Value};

/// Builds the paper's schema with a small, fully known data set.
fn movies_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "MOVIE",
        vec![
            Attribute::new("mid", DataType::Int),
            Attribute::new("title", DataType::Text),
            Attribute::new("year", DataType::Int),
            Attribute::new("duration", DataType::Int),
        ],
        &["mid"],
    )
    .unwrap();
    db.create_relation(
        "GENRE",
        vec![Attribute::new("mid", DataType::Int), Attribute::new("genre", DataType::Text)],
        &["mid", "genre"],
    )
    .unwrap();
    db.create_relation(
        "DIRECTED",
        vec![Attribute::new("mid", DataType::Int), Attribute::new("did", DataType::Int)],
        &["mid", "did"],
    )
    .unwrap();
    db.create_relation(
        "DIRECTOR",
        vec![Attribute::new("did", DataType::Int), Attribute::new("name", DataType::Text)],
        &["did"],
    )
    .unwrap();
    db.create_relation(
        "THEATRE",
        vec![
            Attribute::new("tid", DataType::Int),
            Attribute::new("name", DataType::Text),
            Attribute::new("region", DataType::Text),
            Attribute::new("ticket", DataType::Float),
        ],
        &["tid"],
    )
    .unwrap();
    db.create_relation(
        "PLAY",
        vec![Attribute::new("tid", DataType::Int), Attribute::new("mid", DataType::Int)],
        &["tid", "mid"],
    )
    .unwrap();

    // movies: (mid, title, year, duration)
    let movies = [
        (1, "Annie Hall", 1977, 93),
        (2, "Manhattan", 1979, 96),
        (3, "Zelig", 1983, 79),
        (4, "Heat", 1995, 170),
        (5, "Chicago", 2002, 113),
        (6, "Cabaret", 1972, 124),
    ];
    for (mid, title, year, dur) in movies {
        db.insert_by_name(
            "MOVIE",
            vec![Value::Int(mid), Value::str(title), Value::Int(year), Value::Int(dur)],
        )
        .unwrap();
    }
    // genres
    let genres = [
        (1, "comedy"),
        (2, "comedy"),
        (2, "drama"),
        (3, "comedy"),
        (4, "thriller"),
        (5, "musical"),
        (5, "comedy"),
        (6, "musical"),
    ];
    for (mid, g) in genres {
        db.insert_by_name("GENRE", vec![Value::Int(mid), Value::str(g)]).unwrap();
    }
    // directors
    for (did, name) in [(1, "W. Allen"), (2, "M. Mann"), (3, "R. Marshall"), (4, "B. Fosse")] {
        db.insert_by_name("DIRECTOR", vec![Value::Int(did), Value::str(name)]).unwrap();
    }
    for (mid, did) in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 4)] {
        db.insert_by_name("DIRECTED", vec![Value::Int(mid), Value::Int(did)]).unwrap();
    }
    // theatres
    for (tid, name, region, ticket) in [
        (1, "Odeon", "downtown", 6.0),
        (2, "Rex", "suburbs", 5.0),
        (3, "Lux", "downtown", 8.0),
    ] {
        db.insert_by_name(
            "THEATRE",
            vec![Value::Int(tid), Value::str(name), Value::str(region), Value::Float(ticket)],
        )
        .unwrap();
    }
    for (tid, mid) in [(1, 1), (1, 4), (2, 5), (3, 2), (3, 6)] {
        db.insert_by_name("PLAY", vec![Value::Int(tid), Value::Int(mid)]).unwrap();
    }
    db
}

fn titles(rs: &qp_exec::ResultSet) -> Vec<String> {
    let i = rs.column_index("title").expect("title column");
    rs.rows.iter().map(|r| r[i].to_string()).collect()
}

#[test]
fn simple_scan() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select title from MOVIE").unwrap();
    assert_eq!(rs.len(), 6);
    assert_eq!(rs.columns, vec!["title"]);
}

#[test]
fn filter_pushdown() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select title from MOVIE where year < 1980").unwrap();
    let mut t = titles(&rs);
    t.sort();
    assert_eq!(t, vec!["Annie Hall", "Cabaret", "Manhattan"]);
}

#[test]
fn three_way_join_paper_q1() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(
            &db,
            "select title, 0.72 degree from MOVIE M, DIRECTED D, DIRECTOR DI \
             where M.mid=D.mid and D.did=DI.did and DI.name='W. Allen'",
        )
        .unwrap();
    let mut t = titles(&rs);
    t.sort();
    assert_eq!(t, vec!["Annie Hall", "Manhattan", "Zelig"]);
    assert_eq!(rs.rows[0][1], Value::Float(0.72));
}

#[test]
fn join_order_independent_of_from_order() {
    let db = movies_db();
    let e = Engine::new();
    for sql in [
        "select M.title from MOVIE M, GENRE G where M.mid=G.mid and G.genre='musical'",
        "select M.title from GENRE G, MOVIE M where G.genre='musical' and G.mid=M.mid",
    ] {
        let rs = e.execute_sql(&db, sql).unwrap();
        let mut t: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        t.sort();
        assert_eq!(t, vec!["Cabaret", "Chicago"], "{sql}");
    }
}

#[test]
fn not_in_subquery_paper_q3() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(
            &db,
            "select title, 0.7 degree from MOVIE M \
             where M.mid not in (select M2.mid from MOVIE M2, GENRE G \
             where M2.mid=G.mid and G.genre='musical')",
        )
        .unwrap();
    let mut t = titles(&rs);
    t.sort();
    assert_eq!(t, vec!["Annie Hall", "Heat", "Manhattan", "Zelig"]);
}

#[test]
fn union_all_group_by_having_paper_example6() {
    let db = movies_db();
    let e = Engine::new();
    // Two sub-queries; "Annie Hall" (comedy by W. Allen) satisfies both.
    let rs = e
        .execute_sql(
            &db,
            "select title, sum(degree) total from ( \
               select title, 0.72 degree from MOVIE M, DIRECTED D, DIRECTOR DI \
                 where M.mid=D.mid and D.did=DI.did and DI.name='W. Allen' \
               union all \
               select title, 0.5 degree from MOVIE M, GENRE G \
                 where M.mid=G.mid and G.genre='comedy') u \
             group by title having count(*) >= 2 order by total desc",
        )
        .unwrap();
    let t = titles(&rs);
    assert_eq!(t, vec!["Annie Hall", "Manhattan", "Zelig"]);
    assert_eq!(rs.rows[0][1], Value::Float(1.22));
}

#[test]
fn rowid_pseudo_column_fetch() {
    let db = movies_db();
    let e = Engine::new();
    let (rs, stats) = e
        .execute_with_stats(
            &db,
            &qp_sql::parse_query("select M.rowid, title from MOVIE M where M.rowid = 3").unwrap(),
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert_eq!(rs.rows[0][1], Value::str("Heat"));
    // O(1) fetch: exactly one row scanned.
    assert_eq!(stats.rows_scanned, 1);
}

#[test]
fn rowid_join_probe() {
    let db = movies_db();
    let e = Engine::new();
    // PPA-style parameterized query: from a movie rowid, find genres.
    let rs = e
        .execute_sql(
            &db,
            "select G.genre from MOVIE M, GENRE G where M.rowid = 4 and M.mid = G.mid",
        )
        .unwrap();
    let mut g: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    g.sort();
    assert_eq!(g, vec!["comedy", "musical"]);
}

#[test]
fn order_by_and_limit() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select title, year from MOVIE order by year desc limit 2")
        .unwrap();
    assert_eq!(titles(&rs), vec!["Chicago", "Heat"]);
}

#[test]
fn order_by_positional_and_alias() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select title t, year y from MOVIE order by 2, t").unwrap();
    assert_eq!(rs.rows[0][0], Value::str("Cabaret"));
    let rs = e.execute_sql(&db, "select title t from MOVIE order by t").unwrap();
    assert_eq!(rs.rows[0][0], Value::str("Annie Hall"));
}

#[test]
fn order_by_source_expression_not_projected() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select title from MOVIE order by duration").unwrap();
    assert_eq!(titles(&rs)[0], "Zelig"); // 79 minutes
}

#[test]
fn distinct() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select distinct genre from GENRE order by genre").unwrap();
    let g: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(g, vec!["comedy", "drama", "musical", "thriller"]);
}

#[test]
fn aggregates_without_group() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select count(*), min(year), max(year), avg(duration) from MOVIE")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(6));
    assert_eq!(rs.rows[0][1], Value::Int(1972));
    assert_eq!(rs.rows[0][2], Value::Int(2002));
    let avg = rs.rows[0][3].as_f64().unwrap();
    assert!((avg - (93.0 + 96.0 + 79.0 + 170.0 + 113.0 + 124.0) / 6.0).abs() < 1e-9);
}

#[test]
fn scalar_aggregate_on_empty_input() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select count(*) from MOVIE where year > 3000").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(0));
}

#[test]
fn group_by_with_counts() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select genre, count(*) n from GENRE group by genre order by n desc, genre")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::str("comedy"));
    assert_eq!(rs.rows[0][1], Value::Int(4));
    assert_eq!(rs.len(), 4);
}

#[test]
fn having_filters_groups() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(
            &db,
            "select genre from GENRE group by genre having count(*) >= 2 order by genre",
        )
        .unwrap();
    let g: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(g, vec!["comedy", "musical"]);
}

#[test]
fn between_and_in_list() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(&db, "select title from MOVIE where year between 1977 and 1983")
        .unwrap();
    assert_eq!(rs.len(), 3);
    let rs = e
        .execute_sql(&db, "select title from MOVIE where year in (1977, 2002)")
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn scalar_udf() {
    let db = movies_db();
    let mut functions = FunctionRegistry::new();
    functions.register_scalar("double", |args: &[Value]| {
        args.first().and_then(Value::as_f64).map(|x| Value::Float(x * 2.0)).unwrap_or(Value::Null)
    });
    let e = Engine::with_functions(functions);
    let rs = e
        .execute_sql(&db, "select double(ticket) from THEATRE where tid = 1")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Float(12.0));
}

#[test]
fn aggregate_udf_like_spa_ranking() {
    // SPA registers a ranking function as a user-defined aggregate:
    // r(degree) = 1 - prod(1 - d_i)  (the inflationary function).
    let db = movies_db();
    struct Inflationary(f64);
    impl AggState for Inflationary {
        fn update(&mut self, args: &[Value]) {
            if let Some(d) = args.first().and_then(Value::as_f64) {
                self.0 *= 1.0 - d;
            }
        }
        fn finish(&mut self) -> Value {
            Value::Float(1.0 - self.0)
        }
    }
    let mut functions = FunctionRegistry::new();
    functions.register_aggregate("r", || Box::new(Inflationary(1.0)));
    let e = Engine::with_functions(functions);
    let rs = e
        .execute_sql(
            &db,
            "select title, r(degree) score from ( \
               select title, 0.72 degree from MOVIE M, DIRECTED D, DIRECTOR DI \
                 where M.mid=D.mid and D.did=DI.did and DI.name='W. Allen' \
               union all \
               select title, 0.5 degree from MOVIE M, GENRE G \
                 where M.mid=G.mid and G.genre='comedy') u \
             group by title having count(*) >= 2 order by r(degree) desc",
        )
        .unwrap();
    assert_eq!(titles(&rs), vec!["Annie Hall", "Manhattan", "Zelig"]);
    let top = rs.rows[0][1].as_f64().unwrap();
    assert!((top - (1.0 - (1.0 - 0.72) * (1.0 - 0.5))).abs() < 1e-9);
}

/// A degree function with its constants as literal parameters, the way
/// personalized statements call theirs: `peak · max(0, 1 − |v − center| /
/// width)`.
fn bound_functions() -> FunctionRegistry {
    let mut functions = FunctionRegistry::new();
    functions.register_bound_scalar("around", |params: &[Value]| {
        let [center, width, peak] = params else {
            return Err(format!("expected 3 parameters, got {}", params.len()));
        };
        let (Some(c), Some(w), Some(p)) = (center.as_f64(), width.as_f64(), peak.as_f64()) else {
            return Err("parameters must be numbers".to_string());
        };
        Ok(Arc::new(move |args: &[Value]| match args.first().and_then(Value::as_f64) {
            Some(v) => Value::Float(p * (1.0 - (v - c).abs() / w).max(0.0)),
            None => Value::Null,
        }))
    });
    functions
}

#[test]
fn bound_scalar_reads_its_parameters_from_the_text() {
    let db = movies_db();
    let e = Engine::with_functions(bound_functions());
    let degree = |sql: &str| e.execute_sql(&db, sql).unwrap().rows[0][0].clone();
    let q = |peak: f64| {
        format!("select around(year, 1980.0, 10.0, {peak}) from MOVIE where title = 'Annie Hall'")
    };
    // Annie Hall is from 1977: 0.7 of the peak. Texts that differ only in
    // a parameter are different plans, so each answer is its own.
    assert_eq!(degree(&q(0.5)), Value::Float(0.5 * 0.7));
    assert_eq!(degree(&q(-0.25)), Value::Float(-0.25 * 0.7));
    assert_eq!(degree(&q(0.5)), Value::Float(0.5 * 0.7));
}

#[test]
fn bound_scalar_parameters_must_be_literals() {
    let db = movies_db();
    let e = Engine::with_functions(bound_functions());
    let err = e.execute_sql(&db, "select around(year, year, 10.0, 0.5) from MOVIE").unwrap_err();
    assert_eq!(err, ExecError::NonLiteralArgument { function: "around".into(), position: 2 });
    let err = e.execute_sql(&db, "select around(year, 1980.0) from MOVIE").unwrap_err();
    assert!(matches!(err, ExecError::InvalidArgument { .. }), "{err:?}");
    let err = e.execute_sql(&db, "select around(year, 'x', 10.0, 0.5) from MOVIE").unwrap_err();
    assert!(matches!(err, ExecError::InvalidArgument { .. }), "{err:?}");
    let err = e.execute_sql(&db, "select around() from MOVIE").unwrap_err();
    assert!(matches!(err, ExecError::InvalidArgument { .. }), "{err:?}");
}

#[test]
fn union_arity_mismatch_rejected() {
    let db = movies_db();
    let e = Engine::new();
    let err = e.execute_sql(&db, "select mid, title from MOVIE union all select mid from MOVIE");
    assert!(matches!(err, Err(qp_exec::ExecError::UnionArityMismatch { .. })));
}

#[test]
fn unknown_column_and_binding() {
    let db = movies_db();
    let e = Engine::new();
    assert!(matches!(
        e.execute_sql(&db, "select nosuch from MOVIE"),
        Err(qp_exec::ExecError::UnknownColumn(_))
    ));
    assert!(matches!(
        e.execute_sql(&db, "select X.title from MOVIE M"),
        Err(qp_exec::ExecError::UnknownBinding(_))
    ));
}

#[test]
fn ambiguous_column_rejected() {
    let db = movies_db();
    let e = Engine::new();
    let err = e.execute_sql(&db, "select mid from MOVIE M, GENRE G where M.mid = G.mid");
    assert!(matches!(err, Err(qp_exec::ExecError::AmbiguousColumn(_))));
}

#[test]
fn duplicate_binding_rejected() {
    let db = movies_db();
    let e = Engine::new();
    let err = e.execute_sql(&db, "select M.title from MOVIE M, GENRE M");
    assert!(matches!(err, Err(qp_exec::ExecError::DuplicateBinding(_))));
}

#[test]
fn not_grouped_column_rejected() {
    let db = movies_db();
    let e = Engine::new();
    let err = e.execute_sql(&db, "select title, count(*) from MOVIE group by year");
    assert!(matches!(err, Err(qp_exec::ExecError::NotGrouped(_))));
}

#[test]
fn correlated_subquery_rejected() {
    let db = movies_db();
    let e = Engine::new();
    let err = e.execute_sql(
        &db,
        "select title from MOVIE M where M.mid in (select G.mid from GENRE G where G.mid = M.mid)",
    );
    assert!(matches!(err, Err(qp_exec::ExecError::CorrelatedSubquery(_))));
}

#[test]
fn from_less_select() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select 1 + 2 * 3").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(7));
}

#[test]
fn cross_join_without_predicate() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e.execute_sql(&db, "select T.name, D.name from THEATRE T, DIRECTOR D").unwrap();
    assert_eq!(rs.len(), 3 * 4);
}

#[test]
fn five_way_join_movie_to_theatre() {
    let db = movies_db();
    let e = Engine::new();
    // theatres showing a W. Allen film
    let rs = e
        .execute_sql(
            &db,
            "select distinct T.name from THEATRE T, PLAY P, MOVIE M, DIRECTED D, DIRECTOR DI \
             where T.tid=P.tid and P.mid=M.mid and M.mid=D.mid and D.did=DI.did \
             and DI.name='W. Allen' order by T.name",
        )
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Lux", "Odeon"]);
}

#[test]
fn in_subquery_positive() {
    let db = movies_db();
    let e = Engine::new();
    let rs = e
        .execute_sql(
            &db,
            "select title from MOVIE where mid in (select mid from GENRE where genre='comedy') \
             order by title",
        )
        .unwrap();
    assert_eq!(titles(&rs), vec!["Annie Hall", "Chicago", "Manhattan", "Zelig"]);
}

#[test]
fn null_semantics_in_filters() {
    let mut db = movies_db();
    db.insert_by_name("MOVIE", vec![Value::Int(7), Value::str("Unknown"), Value::Null, Value::Null])
        .unwrap();
    let e = Engine::new();
    // NULL year: excluded from both year < 1980 and year >= 1980
    let lt = e.execute_sql(&db, "select title from MOVIE where year < 1980").unwrap();
    let ge = e.execute_sql(&db, "select title from MOVIE where year >= 1980").unwrap();
    assert_eq!(lt.len() + ge.len(), 6);
    // but visible to IS NULL
    let n = e.execute_sql(&db, "select title from MOVIE where year is null").unwrap();
    assert_eq!(n.len(), 1);
}

#[test]
fn prepared_queries_reusable() {
    let db = movies_db();
    let e = Engine::new();
    let q = qp_sql::parse_query("select title from MOVIE where year < 1980").unwrap();
    let prepared = e.prepare(&db, &q).unwrap();
    let mut stats = qp_exec::ExecStats::default();
    let r1 = e.execute_prepared(&db, &prepared, &mut stats).unwrap();
    let r2 = e.execute_prepared(&db, &prepared, &mut stats).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r1.len(), 3);
}

#[test]
fn stats_reflect_index_probes() {
    let db = movies_db();
    db.warm_statistics();
    let e = Engine::new();
    let (_, stats) = e
        .execute_with_stats(
            &db,
            &qp_sql::parse_query(
                "select M.title from MOVIE M, GENRE G where M.mid=G.mid and G.genre='drama'",
            )
            .unwrap(),
        )
        .unwrap();
    assert!(stats.index_probes > 0, "expected index nested-loop join, stats: {stats:?}");
}
