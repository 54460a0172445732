//! Focused behavioral tests for SPA (§5, Example 6) and for the skyline /
//! top-N extensions layered over the answers.

use personalized_queries::core::answer::ppa::ppa_limited;
use personalized_queries::core::answer::spa::{build_spa_query, spa};
use personalized_queries::core::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
use personalized_queries::core::{
    skyline, MixedKind, PersonalizationGraph, Profile, Ranking, RankingKind,
};
use personalized_queries::core::engine;
use personalized_queries::sql::parse_query;
use personalized_queries::storage::{Attribute, DataType, Database, Value};

fn tiny_db() -> Database {
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
    for i in 0..10i64 {
        db.insert_by_name(
            "MOVIE",
            vec![Value::Int(i), Value::str(format!("m{i}")), Value::Int(1970 + 5 * i)],
        )
        .unwrap();
    }
    for i in 0..=4i64 {
        db.insert_by_name("GENRE", vec![Value::Int(i), Value::str("comedy")]).unwrap();
    }
    for i in 3..=6i64 {
        db.insert_by_name("GENRE", vec![Value::Int(i), Value::str("musical")]).unwrap();
    }
    db
}

const PROFILE: &str = "doi(GENRE.genre = 'comedy') = (0.8, 0)\n\
                       doi(GENRE.genre = 'musical') = (-0.6, 0)\n\
                       doi(MOVIE.year >= 2000) = (0.5, 0)\n\
                       doi(MOVIE.mid = GENRE.mid) = (0.9)\n";

fn profile(db: &Database) -> Profile {
    Profile::parse(db.catalog(), PROFILE).unwrap()
}

fn selected(
    db: &Database,
    p: &Profile,
) -> Vec<personalized_queries::core::SelectedPreference> {
    let graph = PersonalizationGraph::build(p);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap()
}

/// Ground truth per movie i (see tiny_db): comedy iff i ≤ 4, non-musical
/// iff i ∉ 3..=6, recent iff i ≥ 6.
fn truth(i: i64) -> [bool; 3] {
    [i <= 4, !(3..=6).contains(&i), i >= 6]
}

#[test]
fn spa_membership_matches_ground_truth() {
    let db = tiny_db();
    let p = profile(&db);
    let sel = selected(&db, &p);
    let q = parse_query("select title from MOVIE").unwrap();
    for l in 1..=3usize {
        let engine = engine();
        let answer = spa(&db, &engine, &q, &p, &sel, l, &Ranking::default()).unwrap();
        let got: std::collections::BTreeSet<String> =
            answer.tuples.iter().map(|t| t.row[0].to_string()).collect();
        let expect: std::collections::BTreeSet<String> = (0..10)
            .filter(|&i| truth(i).iter().filter(|x| **x).count() >= l)
            .map(|i| format!("m{i}"))
            .collect();
        assert_eq!(got, expect, "L = {l}");
    }
}

#[test]
fn spa_scores_use_positive_combination_only() {
    // the paper: SPA "cannot rank results based both on preferences ...
    // satisfied and which are not" — scores must come from the positive
    // combination of the satisfied degrees alone
    let db = tiny_db();
    let p = profile(&db);
    let sel = selected(&db, &p);
    let q = parse_query("select title from MOVIE").unwrap();
    let engine = engine();
    let answer = spa(
        &db,
        &engine,
        &q,
        &p,
        &sel,
        1,
        &Ranking::new(RankingKind::Inflationary, MixedKind::Sum),
    )
    .unwrap();
    // map each title back to its ground truth and recompute
    for t in &answer.tuples {
        let i: i64 = t.row[0].to_string()[1..].parse().unwrap();
        let tr = truth(i);
        // degree per satisfied pref: find by matching description order
        let mut pos = Vec::new();
        for (si, sp) in sel.iter().enumerate() {
            let desc = sp.describe(&p, db.catalog());
            let satisfied = if desc.contains("comedy") {
                tr[0]
            } else if desc.contains("musical") {
                tr[1]
            } else {
                tr[2]
            };
            if satisfied {
                pos.push(sel[si].d_plus_peak(&p));
            }
        }
        let expect = RankingKind::Inflationary.positive(&pos);
        assert!((t.doi - expect).abs() < 1e-9, "movie {i}: {} vs {expect}", t.doi);
    }
}

#[test]
fn spa_statement_round_trips_and_is_self_contained() {
    let db = tiny_db();
    // An elastic preference too, so the statement carries a per-tuple
    // degree as well as the ranking aggregate.
    let dsl = format!("{PROFILE}doi(MOVIE.year = around(1995, 15)) = (e(0.7), 0)\n");
    let p = Profile::parse(db.catalog(), &dsl).unwrap();
    let graph = PersonalizationGraph::build(&p);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let sel = fakecrit(&graph, &qc, SelectionCriterion::TopK(4)).unwrap();
    let ranking = Ranking::new(RankingKind::Reserved, MixedKind::CountWeighted);
    let built = build_spa_query(&db, &q, &p, &sel, 2, &ranking).unwrap();
    let sql = built.to_string();
    assert!(sql.contains("qp_doi(") && sql.contains("qp_rank_reserved("), "{sql}");
    // one statement, parses back identically
    assert_eq!(qp_sql_parse(&sql), built);
    // and the SQL *text*, executed by another engine from the same
    // constructor with nothing registered on it, gives the API's rows and
    // scores bit for bit
    let via_api = spa(&db, &engine(), &q, &p, &sel, 2, &ranking).unwrap();
    let via_text = engine().execute_sql(&db, &sql).unwrap();
    assert!(!via_api.tuples.is_empty());
    let api: Vec<(Vec<Value>, u64)> =
        via_api.tuples.iter().map(|t| (t.row.clone(), t.doi.to_bits())).collect();
    let text: Vec<(Vec<Value>, u64)> = via_text
        .rows
        .iter()
        .map(|r| {
            let (score, row) = r.split_last().unwrap();
            (row.to_vec(), score.as_f64().unwrap().to_bits())
        })
        .collect();
    assert_eq!(text, api);
}

fn qp_sql_parse(sql: &str) -> personalized_queries::sql::Query {
    parse_query(sql).unwrap()
}

#[test]
fn spa_multi_column_projection() {
    let db = tiny_db();
    let p = profile(&db);
    let sel = selected(&db, &p);
    let q = parse_query("select title, year from MOVIE").unwrap();
    let engine = engine();
    let answer = spa(&db, &engine, &q, &p, &sel, 1, &Ranking::default()).unwrap();
    assert_eq!(answer.columns, vec!["title", "year"]);
    for t in &answer.tuples {
        assert_eq!(t.row.len(), 2);
    }
}

#[test]
fn ppa_limited_stops_early_with_correct_prefix() {
    let db = tiny_db();
    let p = profile(&db);
    let sel = selected(&db, &p);
    let q = parse_query("select title from MOVIE").unwrap();
    let ranking = Ranking::default();
    let engine = engine();
    let (full, _) = ppa_limited(&db, &engine, &q, &p, &sel, 1, &ranking, None).unwrap();
    let (top3, _) = ppa_limited(&db, &engine, &q, &p, &sel, 1, &ranking, Some(3)).unwrap();
    assert_eq!(top3.len(), 3);
    // the limited run emits exactly the full run's prefix
    for (a, b) in top3.tuples.iter().zip(&full.tuples) {
        assert_eq!(a.tuple_id, b.tuple_id);
        assert!((a.doi - b.doi).abs() < 1e-12);
    }
}

#[test]
fn skyline_of_personalized_answer() {
    let db = tiny_db();
    let p = profile(&db);
    let sel = selected(&db, &p);
    let q = parse_query("select title from MOVIE").unwrap();
    let engine = engine();
    let (answer, _) =
        personalized_queries::core::answer::ppa::ppa(&db, &engine, &q, &p, &sel, 1, &Ranking::default())
            .unwrap();
    let sky = skyline(&answer, &sel, &p);
    assert!(!sky.is_empty());
    assert!(sky.len() <= answer.len());
    // every skyline tuple is non-dominated: no other answer tuple is at
    // least as good on all three preferences and better on one
    use personalized_queries::core::skyline::{dominates, preference_vector};
    for s in &sky.tuples {
        let vs = preference_vector(s, &sel, &p);
        for o in &answer.tuples {
            let vo = preference_vector(o, &sel, &p);
            assert!(!dominates(&vo, &vs), "{:?} dominated by {:?}", s.tuple_id, o.tuple_id);
        }
    }
    // movies 0-2 satisfy comedy + non-musical but not recent; movies 7-9
    // satisfy non-musical + recent but not comedy → both groups survive
    let ids: Vec<i64> = sky.tuples.iter().map(|t| t.tuple_id.unwrap() as i64).collect();
    assert!(ids.iter().any(|i| *i <= 2), "{ids:?}");
    assert!(ids.iter().any(|i| *i >= 7), "{ids:?}");
}
