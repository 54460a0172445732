//! Property test: SPA and PPA must agree on the answer *set* for any
//! profile and L — they are two evaluation strategies for the same
//! semantics ("a personalized answer satisfying L of the K preferences").
//! Degrees must agree too for tuples whose identity survives SPA's
//! group-by-projection (the generator makes titles unique, so it does).

use proptest::prelude::*;
use personalized_queries::core::answer::{ppa::ppa, spa::spa};
use personalized_queries::core::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
use personalized_queries::core::{
    CompareOp, Doi, MixedKind, PersonalizationGraph, Profile, Ranking, RankingKind,
};
use personalized_queries::core::engine;
use personalized_queries::sql::parse_query;
use personalized_queries::storage::{Attribute, DataType, Database, Value};

const GENRES: [&str; 4] = ["comedy", "drama", "musical", "horror"];

/// Builds a small database from generated rows: MOVIE(mid, title, year)
/// and GENRE(mid, genre) with unique titles.
fn build_db(movies: &[(i64, u8)], genres: &[(usize, u8)]) -> Database {
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
    for (i, (year_off, _)) in movies.iter().enumerate() {
        db.insert_by_name(
            "MOVIE",
            vec![
                Value::Int(i as i64),
                Value::str(format!("title-{i:03}")),
                Value::Int(1950 + (year_off % 60)),
            ],
        )
        .unwrap();
    }
    let mut seen = std::collections::HashSet::new();
    for (m, g) in genres {
        let mid = (m % movies.len().max(1)) as i64;
        let genre = GENRES[(*g as usize) % GENRES.len()];
        if seen.insert((mid, genre)) {
            db.insert_by_name("GENRE", vec![Value::Int(mid), Value::str(genre)]).unwrap();
        }
    }
    db
}

/// A random profile: genre preferences (positive and negative) plus year
/// range preferences, joined through MOVIE→GENRE.
fn build_profile(db: &Database, prefs: &[(u8, i8)]) -> Profile {
    let c = db.catalog();
    let mut p = Profile::new();
    p.add_join(c, ("MOVIE", "mid"), ("GENRE", "mid"), 0.9).unwrap();
    let mut used = std::collections::HashSet::new();
    for (what, sign) in prefs {
        let d = 0.3 + 0.05 * (*what as f64 % 10.0);
        let doi = if *sign >= 0 { Doi::presence(d).unwrap() } else { Doi::dislike(d).unwrap() };
        match what % 3 {
            0 | 1 => {
                let genre = GENRES[(*what as usize / 3) % GENRES.len()];
                if used.insert(("genre", genre.to_string())) {
                    p.add_selection(c, "GENRE", "genre", CompareOp::Eq, genre, doi).unwrap();
                }
            }
            _ => {
                let year = 1950 + (*what as i64 % 6) * 10;
                if used.insert(("year", year.to_string())) {
                    p.add_selection(c, "MOVIE", "year", CompareOp::Ge, Value::Int(year), doi)
                        .unwrap();
                }
            }
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spa_and_ppa_answer_sets_agree(
        movies in prop::collection::vec((0i64..60, any::<u8>()), 4..40),
        genres in prop::collection::vec((0usize..40, any::<u8>()), 0..80),
        prefs in prop::collection::vec((any::<u8>(), -1i8..=1), 1..6),
        l in 1usize..3,
        kind_idx in 0usize..3,
    ) {
        let db = build_db(&movies, &genres);
        let profile = build_profile(&db, &prefs);
        if profile.selections().count() == 0 {
            return Ok(());
        }
        let graph = PersonalizationGraph::build(&profile);
        let query = parse_query("select title from MOVIE").unwrap();
        let qc = QueryContext::from_query(db.catalog(), &query).unwrap();
        let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(6)).unwrap();
        if selected.is_empty() || l > selected.len() {
            return Ok(());
        }
        let ranking = Ranking::new(RankingKind::ALL[kind_idx], MixedKind::CountWeighted);

        let engine = engine();
        let spa_answer = spa(&db, &engine, &query, &profile, &selected, l, &ranking).unwrap();
        let (ppa_answer, _) =
            ppa(&db, &engine, &query, &profile, &selected, l, &ranking).unwrap();

        // identical answer sets (titles are unique by construction)
        let mut spa_titles: Vec<String> =
            spa_answer.tuples.iter().map(|t| t.row[0].to_string()).collect();
        let mut ppa_titles: Vec<String> =
            ppa_answer.tuples.iter().map(|t| t.row[0].to_string()).collect();
        spa_titles.sort();
        ppa_titles.sort();
        prop_assert_eq!(&spa_titles, &ppa_titles, "L={}, prefs={:?}", l, prefs);

        // PPA's doi is the mixed combination; SPA's is positive-only, so
        // for every tuple SPA's score must be ≥ PPA's (failures can only
        // subtract), and equal when nothing failed.
        let spa_by_title: std::collections::HashMap<String, f64> = spa_answer
            .tuples
            .iter()
            .map(|t| (t.row[0].to_string(), t.doi))
            .collect();
        for t in &ppa_answer.tuples {
            let s = spa_by_title[&t.row[0].to_string()];
            prop_assert!(
                s >= t.doi - 1e-9,
                "SPA positive-only score {} below PPA mixed {} for {:?}",
                s,
                t.doi,
                t.row
            );
            if t.failed.is_empty() {
                prop_assert!((s - t.doi).abs() < 1e-9);
            }
        }
    }
}
