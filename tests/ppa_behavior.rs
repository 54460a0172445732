//! Focused behavioral tests for the PPA algorithm (Figure 6): staging,
//! parameterized-query completeness, the MEDI emission bound, early
//! termination, and step-3 (never-touched tuples).

use personalized_queries::core::answer::ppa::ppa;
use personalized_queries::core::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
use personalized_queries::core::{
    MixedKind, PersonalizationGraph, Profile, Ranking, RankingKind,
};
use personalized_queries::core::engine;
use personalized_queries::sql::parse_query;
use personalized_queries::storage::{Attribute, DataType, Database, Value};

/// A hand-built database where every satisfaction set is known exactly.
///
/// Movies 0..10. GENRE: movies 0–4 are "comedy"; movies 3–6 are
/// "musical". year: movie i has year 1970 + 5·i.
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

/// Profile: +comedy (0.8 via 0.9 join), −musical (−0.6 via join, 1–n
/// absence), +year ≥ 2000 (0.5, atomic presence).
fn profile(db: &Database) -> Profile {
    Profile::parse(
        db.catalog(),
        "doi(GENRE.genre = 'comedy') = (0.8, 0)\n\
         doi(GENRE.genre = 'musical') = (-0.6, 0)\n\
         doi(MOVIE.year >= 2000) = (0.5, 0)\n\
         doi(MOVIE.mid = GENRE.mid) = (0.9)\n",
    )
    .unwrap()
}

fn run(l: usize, kind: RankingKind) -> personalized_queries::core::PersonalizedAnswer {
    let db = tiny_db();
    let p = profile(&db);
    let graph = PersonalizationGraph::build(&p);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
    assert_eq!(selected.len(), 3);
    let engine = engine();
    let ranking = Ranking::new(kind, MixedKind::CountWeighted);
    let (answer, stats) = ppa(&db, &engine, &q, &p, &selected, l, &ranking).unwrap();
    assert!(stats.total >= stats.first_response.unwrap_or_default());
    answer
}

/// Ground truth per movie i: comedy iff i ≤ 4, fails musical-absence iff
/// 3 ≤ i ≤ 6, year pref iff 1970+5i ≥ 2000 (i ≥ 6).
fn truth(i: i64) -> (bool, bool, bool) {
    (i <= 4, !(3..=6).contains(&i), i >= 6)
}

#[test]
fn explanations_match_ground_truth() {
    let db = tiny_db();
    let p = profile(&db);
    let answer = run(1, RankingKind::Inflationary);
    let graph_profile = &p;
    // figure out which selected index is which by description
    let graph = PersonalizationGraph::build(graph_profile);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
    let idx_of = |needle: &str| {
        selected
            .iter()
            .position(|s| s.describe(graph_profile, db.catalog()).contains(needle))
            .unwrap()
    };
    let comedy = idx_of("comedy");
    let musical = idx_of("musical");
    let year = idx_of("year");

    for t in &answer.tuples {
        let mid = t.tuple_id.unwrap() as i64; // rowid == mid here
        let (is_comedy, no_musical, recent) = truth(mid);
        assert_eq!(t.satisfied.contains(&comedy), is_comedy, "movie {mid} comedy");
        assert_eq!(t.satisfied.contains(&musical), no_musical, "movie {mid} musical-absence");
        assert_eq!(t.satisfied.contains(&year), recent, "movie {mid} year");
    }
}

#[test]
fn l1_includes_every_qualifying_movie() {
    let answer = run(1, RankingKind::Inflationary);
    // every movie satisfies ≥ 1: comedies 0-4; non-musical 0-2,7-9; recent 6-9
    // movie 5: not comedy, musical (3..=6), year 1995 → satisfies nothing? 5: year 1995 < 2000,
    // genre musical only → fails all three → excluded.
    let ids: Vec<i64> = answer.tuples.iter().map(|t| t.tuple_id.unwrap() as i64).collect();
    assert!(!ids.contains(&5), "movie 5 satisfies nothing");
    assert_eq!(answer.len(), 9);
}

#[test]
fn l2_and_l3_shrink_consistently() {
    let a2 = run(2, RankingKind::Inflationary);
    let a3 = run(3, RankingKind::Inflationary);
    // L=2: movies satisfying ≥2 prefs: 0,1,2 (comedy+¬musical), 3,4 (comedy only → 1)…
    // check by ground truth
    for t in &a2.tuples {
        let (a, b, c) = truth(t.tuple_id.unwrap() as i64);
        assert!([a, b, c].iter().filter(|x| **x).count() >= 2);
    }
    for t in &a3.tuples {
        let (a, b, c) = truth(t.tuple_id.unwrap() as i64);
        assert_eq!([a, b, c].iter().filter(|x| **x).count(), 3);
    }
    // membership: L=3 ⊆ L=2
    let ids2: std::collections::HashSet<u64> =
        a2.tuples.iter().map(|t| t.tuple_id.unwrap()).collect();
    for t in &a3.tuples {
        assert!(ids2.contains(&t.tuple_id.unwrap()));
    }
}

#[test]
fn emission_order_respects_doi_for_every_ranking() {
    for kind in RankingKind::ALL {
        let answer = run(1, kind);
        for w in answer.tuples.windows(2) {
            assert!(
                w[0].doi >= w[1].doi - 1e-9,
                "{kind:?}: {} before {}",
                w[0].doi,
                w[1].doi
            );
        }
    }
}

#[test]
fn doi_values_match_direct_computation() {
    let db = tiny_db();
    let p = profile(&db);
    let graph = PersonalizationGraph::build(&p);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
    let ranking = Ranking::new(RankingKind::Dominant, MixedKind::Sum);
    let engine = engine();
    let (answer, _) = ppa(&db, &engine, &q, &p, &selected, 1, &ranking).unwrap();
    for t in &answer.tuples {
        let pos: Vec<f64> = t.satisfied.iter().map(|&i| selected[i].d_plus_peak(&p)).collect();
        let neg: Vec<f64> = t
            .failed
            .iter()
            .map(|&i| selected[i].d_minus(&p))
            .filter(|d| *d < 0.0)
            .collect();
        let expect = ranking.mixed(&pos, &neg);
        assert!((t.doi - expect).abs() < 1e-9, "movie {:?}", t.tuple_id);
    }
}

#[test]
fn step3_tuples_satisfying_only_absence_appear() {
    // With only the absence preference selected (K = 1, L = 1), movies
    // never touched by the absence query (non-musicals) must appear via
    // step 3 with the absence preference satisfied.
    let db = tiny_db();
    let p = Profile::parse(
        db.catalog(),
        "doi(GENRE.genre = 'musical') = (-0.6, 0)\n\
         doi(MOVIE.mid = GENRE.mid) = (0.9)\n",
    )
    .unwrap();
    let graph = PersonalizationGraph::build(&p);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(1)).unwrap();
    assert_eq!(selected.len(), 1);
    let engine = engine();
    let ranking = Ranking::default();
    let (answer, stats) = ppa(&db, &engine, &q, &p, &selected, 1, &ranking).unwrap();
    // movies 3..=6 are musicals (fail); the others satisfy by absence
    let ids: Vec<i64> = answer.tuples.iter().map(|t| t.tuple_id.unwrap() as i64).collect();
    assert_eq!(ids.len(), 6, "{ids:?}");
    for id in [0, 1, 2, 7, 8, 9] {
        assert!(ids.contains(&id), "movie {id} missing from {ids:?}");
    }
    // pure absence run: no presence queries at all
    assert_eq!(stats.presence_queries, 0);
    assert_eq!(stats.absence_queries, 1);
}

#[test]
fn early_termination_skips_unreachable_l() {
    // L larger than what remaining queries can satisfy stops the run
    // quickly and returns empty.
    let db = tiny_db();
    let p = Profile::parse(
        db.catalog(),
        "doi(MOVIE.year >= 2000) = (0.5, 0)\n\
         doi(MOVIE.year < 1975) = (0.4, 0)\n",
    )
    .unwrap();
    let graph = PersonalizationGraph::build(&p);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(2)).unwrap();
    let engine = engine();
    // the two presence regions are disjoint: no movie satisfies both
    let (answer, _) =
        ppa(&db, &engine, &q, &p, &selected, 2, &Ranking::default()).unwrap();
    assert!(answer.is_empty());
}

#[test]
fn duplicate_tuples_processed_once() {
    // a movie with two comedy-adjacent genres still yields one answer
    // tuple (the sub-queries are DISTINCT and PPA dedups by tuple id)
    let mut db = tiny_db();
    db.insert_by_name("GENRE", vec![Value::Int(0), Value::str("drama")]).unwrap();
    let p = profile(&db);
    let graph = PersonalizationGraph::build(&p);
    let q = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
    let engine = engine();
    let (answer, _) =
        ppa(&db, &engine, &q, &p, &selected, 1, &Ranking::default()).unwrap();
    let count0 = answer.tuples.iter().filter(|t| t.tuple_id == Some(0)).count();
    assert_eq!(count0, 1);
}

#[test]
fn initial_query_filters_are_preserved() {
    // personalization never resurrects tuples the initial query excludes
    let db = tiny_db();
    let p = profile(&db);
    let graph = PersonalizationGraph::build(&p);
    let q = parse_query("select title from MOVIE where year >= 1985").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &q).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
    let engine = engine();
    let (answer, _) =
        ppa(&db, &engine, &q, &p, &selected, 1, &Ranking::default()).unwrap();
    for t in &answer.tuples {
        let mid = t.tuple_id.unwrap() as i64;
        assert!(1970 + 5 * mid >= 1985, "movie {mid} violates the query filter");
    }
}
