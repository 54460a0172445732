//! Property tests for guarded PPA: under ANY row budget the run returns
//! `Ok`, the partial answer is a subset of the complete answer with
//! identical dois, and no omitted tuple outranks an emitted one.

use proptest::prelude::*;
use qp_core::answer::ppa::{ppa, ppa_guarded};
use qp_core::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
use qp_core::{PersonalizationGraph, Profile, Ranking};
use qp_exec::QueryGuard;
use qp_sql::parse_query;
use qp_storage::{Attribute, DataType, Database, Value};

/// The movies fixture, sized by `extra` filler rows so budgets bite at
/// different points.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_budget_degrades_to_a_ranked_subset(
        extra in 0i64..12,
        l in 1usize..=2,
        out_budget in 0u64..20,
        inter_budget in 1u64..2000,
    ) {
        let db = movies_db(extra);
        let profile = als_profile(&db);
        let graph = PersonalizationGraph::build(&profile);
        let initial = parse_query("select title from MOVIE").unwrap();
        let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
        let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
        let ranking = Ranking::default();

        let engine = qp_core::engine();
        let (full, _) = ppa(&db, &engine, &initial, &profile, &selected, l, &ranking).unwrap();

        let guard = QueryGuard::builder()
            .max_output_rows(out_budget)
            .max_intermediate_rows(inter_budget)
            .build();
        let engine = qp_core::engine();
        let (partial, _stats, degradation) = ppa_guarded(
            &db, &engine, &initial, &profile, &selected, l, &ranking, None, &guard,
        ).expect("guarded PPA must degrade, not error");

        // every emitted tuple appears in the complete answer, doi intact
        for t in &partial.tuples {
            let f = full.tuples.iter().find(|f| f.tuple_id == t.tuple_id);
            let f = f.expect("emitted tuple missing from the complete answer");
            prop_assert!((f.doi - t.doi).abs() < 1e-9);
        }
        // no omitted tuple outranks an emitted one
        let emitted: Vec<Option<u64>> = partial.tuples.iter().map(|t| t.tuple_id).collect();
        let min_emitted = partial.tuples.iter().map(|t| t.doi).fold(f64::INFINITY, f64::min);
        for f in &full.tuples {
            if !emitted.contains(&f.tuple_id) {
                prop_assert!(
                    f.doi <= min_emitted + 1e-9,
                    "omitted {:?} (doi {}) outranks emitted minimum {}",
                    f.tuple_id, f.doi, min_emitted
                );
            }
        }
        // a run the guard never cut must be byte-identical to the full one
        if degradation.is_complete() {
            prop_assert_eq!(partial.tuples.len(), full.tuples.len());
        } else {
            prop_assert!(partial.tuples.len() <= full.tuples.len());
        }
    }
}
