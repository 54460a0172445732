//! PPA against a per-tuple reference. PPA answers the paper's
//! parameterized queries `Qiˢ(t)` / `Qiᴬ(t)` by materializing each
//! preference query once and probing the stored result by hash lookup.
//! The reference here evaluates them literally: for every tuple `t` of
//! the initial query it runs each selected preference's query (built by
//! the same public `classify` / `satisfaction_select` / `failure_select`
//! / `merge_filter` builders) restricted to `MOVIE.rowid = t`. PPA must
//! emit exactly the reference tuples that meet L, with the reference's
//! satisfied/failed sets, rows and dois, in non-increasing doi order —
//! byte-identically at any parallelism — while executing each preference
//! query at most once.

use std::collections::HashMap;

use qp_core::answer::ppa::ppa;
use qp_core::answer::subquery::{
    classify, failure_select, merge_filter, satisfaction_select, IntegrationKind,
};
use qp_core::select::{fakecrit::fakecrit, QueryContext, SelectedPreference, SelectionCriterion};
use qp_core::{PersonalizationGraph, Profile, Ranking};
use qp_exec::Engine;
use qp_sql::{builder, parse_query, Expr, Query, Select, SelectItem};
use qp_storage::{Attribute, DataType, Database, Row, Value};

/// The movies fixture with `extra` filler rows so presence/absence rounds
/// surface multi-tuple batches.
fn movies_db(extra: i64) -> Database {
    let mut db = Database::new();
    db.create_relation(
        "MOVIE",
        vec![
            Attribute::new("mid", DataType::Int),
            Attribute::new("title", DataType::Text),
            Attribute::new("year", DataType::Int),
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
        &["mid"],
    )
    .unwrap();
    db.create_relation(
        "DIRECTOR",
        vec![Attribute::new("did", DataType::Int), Attribute::new("name", DataType::Text)],
        &["did"],
    )
    .unwrap();
    for (mid, t, y) in [
        (1, "Annie Hall", 1977),
        (2, "Manhattan", 1979),
        (3, "Zelig", 1983),
        (4, "Heat", 1995),
        (5, "Chicago", 2002),
    ] {
        db.insert_by_name("MOVIE", vec![Value::Int(mid), Value::str(t), Value::Int(y)]).unwrap();
    }
    for i in 0..extra {
        let mid = 6 + i;
        db.insert_by_name(
            "MOVIE",
            vec![Value::Int(mid), Value::str(format!("Filler {i}")), Value::Int(1960 + (i % 60))],
        )
        .unwrap();
        db.insert_by_name(
            "GENRE",
            vec![Value::Int(mid), Value::str(if i % 2 == 0 { "comedy" } else { "musical" })],
        )
        .unwrap();
        db.insert_by_name("DIRECTED", vec![Value::Int(mid), Value::Int(1 + (i % 3))]).unwrap();
    }
    for (mid, g) in [(1, "comedy"), (2, "comedy"), (3, "comedy"), (4, "thriller"), (5, "musical")]
    {
        db.insert_by_name("GENRE", vec![Value::Int(mid), Value::str(g)]).unwrap();
    }
    for (did, n) in [(1, "W. Allen"), (2, "M. Mann"), (3, "R. Marshall")] {
        db.insert_by_name("DIRECTOR", vec![Value::Int(did), Value::str(n)]).unwrap();
    }
    for (mid, did) in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3)] {
        db.insert_by_name("DIRECTED", vec![Value::Int(mid), Value::Int(did)]).unwrap();
    }
    db
}

fn als_profile(db: &Database) -> Profile {
    Profile::parse(
        db.catalog(),
        "doi(DIRECTOR.name = 'W. Allen') = (0.8, 0)\n\
         doi(MOVIE.year < 1980) = (-0.7, 0)\n\
         doi(GENRE.genre = 'musical') = (-0.9, 0.7)\n\
         doi(MOVIE.mid = DIRECTED.mid) = (1)\n\
         doi(DIRECTED.did = DIRECTOR.did) = (0.9)\n\
         doi(MOVIE.mid = GENRE.mid) = (0.8)\n",
    )
    .unwrap()
}

/// One tuple as the per-tuple reference sees it.
struct Expected {
    row: Row,
    satisfied: Vec<usize>,
    failed: Vec<usize>,
    doi: f64,
}

/// `select` restricted to the single tuple `t` of the anchor relation.
fn for_tuple(mut select: Select, t: u64) -> Query {
    merge_filter(&mut select, builder::eq(builder::col("MOVIE", "rowid"), builder::int(t as i64)));
    Query::from_select(select)
}

/// Evaluates `Qiˢ(t)` / `Qiᴬ(t)` for every selected preference and every
/// tuple `t` of `initial`, keyed by tuple id.
fn per_tuple_reference(
    db: &Database,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    ranking: &Ranking,
) -> HashMap<u64, Expected> {
    let mut engine = Engine::new();
    let infos = classify(db, &mut engine, profile, selected);
    let initial = initial.selects()[0];
    let projection = |_anchor: &str, degree: Expr| -> Vec<SelectItem> {
        vec![
            builder::item_as(builder::col("MOVIE", "rowid"), "qp_tid"),
            builder::item_as(degree, "qp_degree"),
        ]
    };
    // Presence and 1–1 absence preferences ask "does t satisfy it?", 1–n
    // absence preferences ask "does t fail it?" — the same split PPA uses.
    let queries: Vec<(Select, bool)> = infos
        .iter()
        .map(|info| {
            let sp = &selected[info.index];
            let catalog = db.catalog();
            match info.kind {
                IntegrationKind::Absence1N => {
                    (failure_select(catalog, initial, profile, sp, info, &projection).unwrap(), true)
                }
                _ => (satisfaction_select(catalog, initial, profile, sp, info, &projection).unwrap(), false),
            }
        })
        .collect();
    let mut ids = initial.clone();
    ids.items = vec![builder::item(builder::col("MOVIE", "rowid"))];
    let tids = engine.execute(db, &Query::from_select(ids)).unwrap().rows;

    let mut out = HashMap::new();
    for tid in tids {
        let t = tid[0].as_i64().expect("row ids are integers") as u64;
        let (mut satisfied, mut failed, mut pos, mut neg) = (vec![], vec![], vec![], vec![]);
        for (info, (query, asks_failure)) in infos.iter().zip(&queries) {
            let rows = engine.execute(db, &for_tuple(query.clone(), t)).unwrap().rows;
            let hit = rows.first().map(|r| r[1].as_f64());
            match (asks_failure, hit) {
                (false, Some(d)) => {
                    satisfied.push(info.index);
                    pos.push(d.unwrap_or(info.d_plus).max(0.0));
                }
                (true, None) => {
                    satisfied.push(info.index);
                    pos.push(info.d_plus);
                }
                (false, None) => {
                    failed.push(info.index);
                    neg.push(info.d_minus);
                }
                (true, Some(d)) => {
                    failed.push(info.index);
                    neg.push(d.unwrap_or(info.d_minus).min(0.0));
                }
            }
        }
        neg.retain(|d| *d < 0.0);
        let row = engine.execute(db, &for_tuple(initial.clone(), t)).unwrap().rows.remove(0);
        out.insert(t, Expected { row, satisfied, failed, doi: ranking.mixed(&pos, &neg) });
    }
    out
}

#[test]
fn ppa_matches_the_per_tuple_reference() {
    for extra in [0i64, 7, 40] {
        let db = movies_db(extra);
        let profile = als_profile(&db);
        let graph = PersonalizationGraph::build(&profile);
        let initial = parse_query("select title from MOVIE").unwrap();
        let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
        let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
        let ranking = Ranking::default();
        let reference = per_tuple_reference(&db, &initial, &profile, &selected, &ranking);
        assert_eq!(reference.len(), 5 + extra as usize, "one reference entry per movie");

        for l in [1usize, 2] {
            let mut want: Vec<u64> =
                reference.iter().filter(|(_, e)| e.satisfied.len() >= l).map(|(t, _)| *t).collect();
            want.sort_unstable();
            assert!(!want.is_empty(), "the fixture qualifies tuples at l={l}");
            let mut serial = None;
            for parallelism in [1usize, 4] {
                let ctx = format!("extra={extra}, l={l}, parallelism={parallelism}");
                let mut engine = Engine::new();
                engine.set_parallelism(parallelism);
                let (answer, stats) =
                    ppa(&db, &mut engine, &initial, &profile, &selected, l, &ranking).unwrap();

                let mut got: Vec<u64> =
                    answer.tuples.iter().map(|t| t.tuple_id.expect("PPA tuples carry ids")).collect();
                got.sort_unstable();
                assert_eq!(got, want, "emitted tuples ({ctx})");
                for t in &answer.tuples {
                    let e = &reference[&t.tuple_id.unwrap()];
                    let tid = t.tuple_id.unwrap();
                    assert_eq!(t.satisfied, e.satisfied, "satisfied set of {tid} ({ctx})");
                    assert_eq!(t.failed, e.failed, "failed set of {tid} ({ctx})");
                    assert_eq!(t.row, e.row, "row of {tid} ({ctx})");
                    assert!((t.doi - e.doi).abs() < 1e-9, "doi of {tid}: {} vs {} ({ctx})", t.doi, e.doi);
                }
                for w in answer.tuples.windows(2) {
                    assert!(w[0].doi >= w[1].doi - 1e-9, "doi rises: {} then {} ({ctx})", w[0].doi, w[1].doi);
                }
                assert!(
                    stats.parameterized_queries <= selected.len(),
                    "each preference query runs at most once: {} for {} preferences ({ctx})",
                    stats.parameterized_queries,
                    selected.len()
                );
                match &serial {
                    None => serial = Some(answer),
                    Some(s) => assert_eq!(&answer, s, "parallel answer differs from serial ({ctx})"),
                }
            }
        }
    }
}

#[test]
fn probe_batch_size_counter_records_probed_tuples() {
    let db = movies_db(12);
    let profile = als_profile(&db);
    let graph = PersonalizationGraph::build(&profile);
    let initial = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
    let ranking = Ranking::default();

    let mut engine = Engine::new();
    ppa(&db, &mut engine, &initial, &profile, &selected, 1, &ranking).unwrap();
    assert!(
        engine.metrics().counter("ppa.probe.batch_size").get() > 0,
        "PPA should record tuples probed against materialized results"
    );
}
